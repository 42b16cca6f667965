"""The paper's braid families and the moves on surgery diagrams.

Braids: the two-bridge family of Example 4.20 (``s1^(2k+1) s2^-1``),
``Delta^(2*ell) * word`` and the square-knot recipe.  Diagrams: the
Rolfsen twist about an unknot, the slam dunk of a meridian leaf, surgery
on the closure plus its braid axis, and the L-space twist family.

No pipeline subcommand reaches this module: ``family`` imports it when it
runs, and the package loads its names on first use.
"""

from __future__ import annotations

from fractions import Fraction

from .braid import BraidWord, _check_length, compose, garside, permutation, power
from .errors import BraidError, SurgeryError
from .record import replace
from .surgery import (
    AXIS,
    BRAID,
    CHAIN,
    MERIDIAN,
    HomologyReport,
    SurgeryComponent,
    SurgeryDiagram,
    _Infinity,
    homology,
)

_UNKNOT_KINDS = (MERIDIAN, CHAIN, AXIS)


def example_braid(k: int) -> BraidWord:
    """The two-bridge family ``s1^(2k+1) s2^-1`` on three strands."""
    if k < 0:
        raise BraidError(f"family parameter must be >= 0, got {k}")
    _check_length(2 * k + 2, f"example braid for k = {k}")
    return BraidWord(3, tuple([1] * (2 * k + 1) + [-2]))


def delta_squared_times(word: BraidWord, ell: int) -> BraidWord:
    """``Delta^(2*ell) * word``; full twists only add positive letters."""
    return compose(power(garside(word.strands), 2 * ell), word)


def square_knot_recipe(word: BraidWord) -> bool:
    """True when ``strands`` is odd and the square of the word closes to a knot."""
    if word.strands % 2 == 0:
        return False
    return permutation(power(word, 2)).is_knot


def _reindex_parent(parent: int | None, removed: int) -> int | None:
    if parent is None or parent == removed:
        return None
    return parent - 1 if parent > removed else parent


def rolfsen_twist(diagram: SurgeryDiagram, u: int, t: int) -> SurgeryDiagram:
    """Twist ``t`` times about the unknot component ``u``.

    The unknot's framing maps by ``r -> r / (1 + t r)`` (``1/r -> 1/r + t``)
    and every other framing gains ``t * lk(c, u)^2``.  When the new
    framing is the empty filling the unknot is deleted; components that
    pointed at it become free unknots.
    """
    target = diagram.components[u]
    if target.kind not in _UNKNOT_KINDS:
        raise SurgeryError("Rolfsen twist needs an unknot-type component")
    if isinstance(target.framing, _Infinity):
        raise SurgeryError("cannot twist about the empty filling")
    linking = diagram._form
    comps: list[SurgeryComponent] = []
    for i, c in enumerate(diagram.components):
        if i == u:
            comps.append(c)
            continue
        lk = linking[i].get(u, 0)
        framing = c.framing
        if not isinstance(framing, _Infinity) and lk:
            framing = framing + t * lk * lk
        comps.append(replace(c, framing=framing))
    denom = 1 + t * target.framing
    if denom == 0:
        comps = [
            replace(c, parent=_reindex_parent(c.parent, u))
            for i, c in enumerate(comps)
            if i != u
        ]
    else:
        comps[u] = replace(target, framing=target.framing / denom)
    return SurgeryDiagram(diagram.braid, tuple(comps))


def slam_dunk_meridian(diagram: SurgeryDiagram, leaf: int) -> SurgeryDiagram:
    """Remove a meridian-type leaf, folding its slope into the parent.

    Requires the parent's framing to be an integer ``c``; the parent is
    reframed to ``c - 1/x`` where ``x`` is the leaf's framing.  The
    leaf must link nothing besides its parent.
    """
    c = diagram.components[leaf]
    if c.kind not in (MERIDIAN, CHAIN) or c.parent is None:
        raise SurgeryError("slam-dunk needs a meridian-type leaf with a parent")
    if isinstance(c.framing, _Infinity):
        raise SurgeryError("delete the empty filling instead of dunking it")
    if c.framing == 0:
        raise SurgeryError("cannot dunk a 0-framed meridian")
    if any(other.parent == leaf for other in diagram.components):
        raise SurgeryError("leaf still has children")
    parent = diagram.components[c.parent]
    if not parent.is_integral:
        raise SurgeryError("slam-dunk needs an integer framing on the parent")
    comps = []
    for i, other in enumerate(diagram.components):
        if i == leaf:
            continue
        if i == c.parent:
            other = replace(other, framing=parent.framing - 1 / c.framing)
        comps.append(replace(other, parent=_reindex_parent(other.parent, leaf)))
    return SurgeryDiagram(diagram.braid, tuple(comps))


def axis_surgery(
    word: BraidWord, braid_framings, axis_framing=Fraction(0)
) -> SurgeryDiagram:
    """Closure components plus the braid axis, axis listed first."""
    parts = permutation(word)
    framings = [Fraction(f) for f in braid_framings]
    if len(framings) != parts.num_components:
        raise SurgeryError("one braid framing per closure component required")
    comps = [SurgeryComponent(kind=AXIS, framing=axis_framing)]
    comps.extend(
        SurgeryComponent(kind=BRAID, framing=f, component=i + 1)
        for i, f in enumerate(framings)
    )
    return SurgeryDiagram(word, tuple(comps))


def lspace_family_diagram(
    word: BraidWord, k: int, ell: int
) -> tuple[SurgeryDiagram, HomologyReport, bool, HomologyReport, HomologyReport]:
    """The twist-family diagram: meridian of the axis, axis, closure.

    Framings are ``(ell, 0, k)``.  The additivity check compares the
    computed |H1| of the axis diagram, this diagram, and the diagram at
    ``ell + 1``: the three orders must satisfy
    ``m^2 + (k + ell m^2) = k + (ell + 1) m^2``.  Returns the diagram,
    its report, the check, and the reports of the axis diagram and of
    the diagram at ``ell + 1``.
    """
    parts = permutation(word)
    if not parts.is_knot:
        raise SurgeryError("the twist family needs a knot closure")
    if k < 1 or ell < 1:
        raise SurgeryError("twist family needs k >= 1 and ell >= 1")

    def build(l: int) -> SurgeryDiagram:
        comps = (
            SurgeryComponent(kind=MERIDIAN, framing=Fraction(l), parent=1),
            SurgeryComponent(kind=AXIS, framing=Fraction(0)),
            SurgeryComponent(kind=BRAID, framing=Fraction(k), component=1),
        )
        return SurgeryDiagram(word, comps)

    diagram = build(ell)
    report = homology(diagram)
    base = homology(axis_surgery(word, [Fraction(k)]))
    bumped = homology(build(ell + 1))
    additivity = base.h1_order + report.h1_order == bumped.h1_order
    return diagram, report, additivity, base, bumped
