"""Surgery diagrams on braid closures and their homological invariants.

Diagrams are combinatorial: the geometric input is the braid's pairwise
linking matrix and axis winding numbers, and meridian/chain components
link their parent exactly once.  Everything downstream (linking matrix,
|H1|, signature) consumes only that data.

Framings are exact rationals; the empty filling is the explicit
:data:`INF` marker so Rolfsen twists can delete components cleanly.

Every diagram gets its invariants from its sparse rows, so a slam-dunk
expansion costs what its closure costs, not what its slopes cost.  For
the signature and ``c1^2``, one sparse elimination removes unknots, last
first (children before their parents in an expansion), and scales the
Schur complement on the rest to integers: of every unknot for the
signature (its signature plus the sign of each pivot), of those framed
-2 (rot 0) for ``c1^2``; an unknot whose pivot is zero stays.  For the
invariant factors, rational framings included, each stack of ``m >= 2``
leaves framed -2 on one integral component splits off ``m - 2`` factors
2 in closed form, every remaining entry ``+-1`` is a unimodular pivot,
and the Smith form of the residual takes the 2s back in by 2-adic
valuation.  On an expansion with ``k`` closure components the kernels
see at most ``k x k`` (signature) and ``2k x 2k`` (Smith form); the
dense kernels on the full matrix are the test oracle.
Expansions are capped at :data:`MAX_COMPONENTS` components, checked from
the slopes before anything is built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm, prod

from . import braid as braid_mod
from . import linalg
from .braid import BraidWord
from .cfrac import SlopeVector, neg_cfrac, neg_cfrac_length
from .record import Record, replace

# Words are immutable: diagrams query pairwise linking repeatedly, and an
# enumeration's hypothesis check and fronts read the same stats.
closure_stats = lru_cache(maxsize=512)(braid_mod.crossing_stats)

# Most components an expansion may build.  ``surgery`` prints the dense
# n x n linking matrix, so the output size, not the invariants, sets it.
MAX_COMPONENTS = 1_000


class SurgeryError(ValueError):
    """Ill-formed diagram or inapplicable Kirby move."""


class ComponentBudgetExceeded(RuntimeError):
    """An expansion would build more than ``MAX_COMPONENTS`` components."""


class SingularityError(SurgeryError):
    """A computation required an invertible linking matrix."""


class _Infinity:
    """Framing of the empty (trivial) filling."""

    def __repr__(self):
        return "INF"

    def __reduce__(self):
        # copy, deepcopy and pickle return the module's singleton.
        return "INF"


INF = _Infinity()

BRAID = "braid"
MERIDIAN = "meridian"
CHAIN = "chain"
AXIS = "axis"
_UNKNOT_KINDS = (MERIDIAN, CHAIN, AXIS)


class SurgeryComponent(Record):
    """One framed component of a surgery diagram.

    ``kind`` is one of ``braid`` (closure component ``component``),
    ``meridian`` / ``chain`` (unknot linking its ``parent`` once;
    ``depth`` orders chain unknots), or ``axis`` (the braid axis,
    linking closure component ``i`` exactly ``m_i`` times).  ``parent``
    indexes into the diagram's component list; ``None`` means the
    unknot links nothing.
    """

    def __init__(
        self,
        kind: str,
        framing: Fraction | _Infinity,
        component: int | None = None,
        parent: int | None = None,
        depth: int | None = None,
    ):
        if kind not in (BRAID, MERIDIAN, CHAIN, AXIS):
            raise SurgeryError(f"unknown component kind {kind!r}")
        if framing.__class__ is not Fraction and not isinstance(framing, _Infinity):
            framing = Fraction(framing)
        self._store(locals())

    @property
    def is_integral(self) -> bool:
        return (
            not isinstance(self.framing, _Infinity)
            and self.framing.denominator == 1
        )


def _check_indices(braid: BraidWord, components: tuple[SurgeryComponent, ...]) -> None:
    ncomp = len(closure_stats(braid).axis_linking)
    for c in components:
        if c.kind == BRAID and not 1 <= (c.component or 0) <= ncomp:
            raise SurgeryError(f"braid component index {c.component} out of range")
        if c.parent is not None and not 0 <= c.parent < len(components):
            raise SurgeryError(f"parent index {c.parent} out of range")


class SurgeryDiagram(Record):
    """Framed link built from a braid closure and auxiliary unknots."""

    def __init__(self, braid: BraidWord, components: tuple[SurgeryComponent, ...]):
        _check_indices(braid, components)
        self._store(locals())

    @property
    def is_integral(self) -> bool:
        return all(c.is_integral for c in self.components)

    # Diagrams are frozen, so each memo below is computed at most once.

    @cached_property
    def _form(self) -> list[dict[int, int]]:
        """Sparse rows of the linking form: row ``i`` maps ``j`` to the
        linking number of components ``i`` and ``j`` (a missing ``j``
        links 0) and ``i`` to its framing's numerator (none for
        :data:`INF`).  Shared, so never changed in place.

        Meridians and chains link their parent once, closure components
        link by the closure's linking matrix and the axis links each
        closure component by its strand count; the last two override a
        ``parent`` between such components.
        """
        comps = self.components
        stats = closure_stats(self.braid)
        lk: list[dict[int, int]] = [{} for _ in comps]
        for i, c in enumerate(comps):
            if c.parent is not None:
                lk[i][c.parent] = lk[c.parent][i] = 1
        block = [(i, c.component - 1) for i, c in enumerate(comps) if c.kind == BRAID]
        for i, a in block:
            for j, b in block:
                lk[i][j] = stats.linking[a][b]
        for x in (i for i, c in enumerate(comps) if c.kind == AXIS):
            for i, a in block:
                lk[x][i] = lk[i][x] = stats.axis_linking[a]
        for i, c in enumerate(comps):
            if not isinstance(c.framing, _Infinity):
                lk[i][i] = c.framing.numerator
        return lk

    @cached_property
    def _relations(self) -> list[dict[int, int]]:
        """Sparse rows of the presentation matrix of H1 (see
        :func:`h1_presentation_matrix`), without zeros: row ``i`` of
        :attr:`_form` times the denominator of framing ``i``, with the
        numerator on the diagonal.  Shared, so never changed in place."""
        rows = []
        for i, (c, row) in enumerate(zip(self.components, self._form)):
            if isinstance(c.framing, _Infinity):
                raise SurgeryError("empty filling has no relation; delete it first")
            q = c.framing.denominator
            rows.append({j: q * x for j, x in row.items() if x})
            if i in rows[-1]:
                rows[-1][i] = c.framing.numerator
        return rows

    @cached_property
    def _matrix(self) -> tuple[tuple[int, ...], ...]:
        """Presentation matrix of H1, built once; see :func:`h1_presentation_matrix`."""
        m = [[0] * len(self.components) for _ in self.components]
        for row, relation in zip(m, self._relations):
            for j, x in relation.items():
                row[j] = x
        return tuple(map(tuple, m))

    @cached_property
    def _unknots(self) -> list[int]:
        """Every component but the closures, last first: in every
        :func:`_expand` output, children before their parents."""
        comps = self.components
        return [i for i in range(len(comps) - 1, -1, -1) if comps[i].kind != BRAID]

    def _schur(self, unknots) -> tuple[list[int], list[list[int]], int, int]:
        """``(keep, M, L, s)`` after eliminating in turn each of ``unknots``
        whose pivot is nonzero (T) from the sparse form ``Q`` of an integral
        diagram: ``M = L (Q/Q_TT)`` on the other components ``keep``, ``L``
        the lcm of its denominators, ``s`` the sum of the pivot signs.  By
        Haynsworth's inertia additivity ``sig Q = s + sig M``, and ``det Q``
        is 0 exactly when ``det M`` is.  A zero pivot keeps its unknot."""
        rows = [dict(row) for row in self._relations]
        signs = 0
        for u in unknots:
            pivot = rows[u].pop(u, 0)
            if not pivot:
                continue
            signs += 1 if pivot > 0 else -1
            row, rows[u] = rows[u], None
            p, q = pivot.numerator, pivot.denominator
            for i, x in row.items():
                del rows[i][u]
                for j, y in row.items():
                    rows[i][j] = rows[i].get(j, 0) - Fraction(x * y * q, p)
        keep = [i for i, row in enumerate(rows) if row is not None]
        m = [[rows[i].get(j, 0) for j in keep] for i in keep]
        scale = lcm(*(x.denominator for row in m for x in row))
        m = [[x.numerator * (scale // x.denominator) for x in row] for row in m]
        return keep, m, scale, signs

    @cached_property
    def _invariants(self) -> tuple[int, tuple[int, ...], int]:
        """(order, invariant factors > 1, free rank) of H1, from the sparse
        presentation rows; the invariant factors of the eliminated rows
        are omitted."""
        rows = {i: dict(row) for i, row in enumerate(self._relations)}
        cols = {j: set() for j in rows}
        for i, row in rows.items():
            for j in row:
                cols[j].add(i)

        def drop(i: int) -> dict[int, int]:
            row = rows.pop(i)
            for j in row:
                cols[j].discard(i)
            return row

        # A leaf u is framed -2 and links only a, an integral component, by
        # +-1 (so its row and column hold -2 and that +-1).  A stack of m >= 2 leaves on
        # a (the meridians of a whole part, and a 1/2) splits off m - 2
        # factors 2 and leaves a with its row and column doubled and
        # diagonal 2(2 f_a + m).
        stacks: dict[int, list[int]] = {}
        for u, row in rows.items():
            if len(row) == 2 and row.get(u) == -2:
                a = next(j for j in row if j != u)
                if row[a] in (1, -1) and rows[a][u] == row[a]:
                    stacks.setdefault(a, []).append(u)
        twos = 0
        for a, stack in stacks.items():
            if len(stack) < 2:
                continue
            twos += len(stack) - 2
            for u in stack:
                drop(u)
                del cols[u]
                del rows[a][u]
            f = rows[a].pop(a, 0)
            for j in rows[a]:
                rows[a][j] *= 2
                rows[j][a] *= 2
            rows[a][a] = 2 * (2 * f + len(stack))
            cols[a].add(a)

        # Every entry +-1 is a unimodular pivot: splitting it off as a
        # factor 1 removes its row and its column.  Last rows first, so an
        # expansion's chains fold from their leaves.
        pending = sorted(rows, reverse=True)
        while pending:
            for i in pending:
                j = next((j for j, x in rows[i].items() if x in (1, -1)), None)
                if j is None:
                    continue
                pivot = drop(i)
                s = pivot.pop(j)
                for r in cols.pop(j):
                    row = rows[r]
                    f = row.pop(j) * s
                    for c, x in pivot.items():
                        y = row.get(c, 0) - f * x
                        if y:
                            row[c] = y
                            cols[c].add(r)
                        else:
                            row.pop(c, None)
                            cols[c].discard(r)
            pending = [i for i in rows if any(x in (1, -1) for x in rows[i].values())]
        keep = sorted(cols)
        residual = [[rows[i].get(j, 0) for j in keep] for i in sorted(rows)]
        snf = _merge_twos(linalg.smith_normal_form(residual), twos)
        # |H1| is the product of the invariant factors: 0 when H1 is infinite.
        return prod(snf), tuple(x for x in snf if x > 1), snf.count(0)

    @cached_property
    def _rotation_form(self) -> tuple[list[int], int, tuple[tuple[int, ...], ...]]:
        """``(S, det M, L adj M)`` of the :meth:`_schur` of the unknots
        framed -2: ``r^T Q^-1 r = r_S^T (L adj M) r_S / det M`` if ``r`` is
        0 on the eliminated T (tb -1 means rot 0).  On an expansion T is
        every unknot framed -2 and S the closures and the unknots framed
        ``<= -3``; an unknot framed -2 with a zero pivot stays in S."""
        comps = self.components
        keep, m, scale, _ = self._schur(
            [u for u in self._unknots if comps[u].framing == -2]
        )
        d, adj = linalg.adjugate(m)
        return keep, d, tuple(tuple(scale * x for x in row) for row in adj)

    @cached_property
    def _homology(self) -> HomologyReport:
        order, divisors, free_rank = self._invariants
        n = len(self.components)
        _, m, _, signs = self._schur(self._unknots)
        sigma = signs + linalg.signature(m)
        return HomologyReport(
            # Sylvester: det has the sign of (-1)^(negative eigenvalues).
            det=(-1) ** ((n - sigma) // 2) * order,
            h1_order=order,
            elementary_divisors=divisors,
            free_rank=free_rank,
            signature=sigma,
            euler_char=1 + n,
        )


def _merge_twos(snf: list[int], twos: int) -> list[int]:
    """Invariant factors of ``diag(snf) + twos`` factors 2.

    Per prime the exponents of a direct sum are the sorted union of
    both: the 2-exponents are re-sorted with ``twos`` ones among them,
    the odd parts keep their order behind ``twos`` ones, zeros stay last.
    """
    if not twos:
        return snf
    nonzero = [x for x in snf if x]
    exps = [(x & -x).bit_length() - 1 for x in nonzero]
    odd = [1] * twos + [x >> e for x, e in zip(nonzero, exps)]
    merged = [o << e for o, e in zip(odd, sorted([1] * twos + exps))]
    return merged + [0] * (len(snf) - len(nonzero))


def rational_surgery(word: BraidWord, v: SlopeVector) -> SurgeryDiagram:
    """One framed braid-closure component per slope."""
    parts = braid_mod.permutation(word)
    if len(v) != parts.num_components:
        raise SurgeryError(
            f"slope vector has {len(v)} entries for "
            f"{parts.num_components} closure components"
        )
    comps = tuple(
        SurgeryComponent(kind=BRAID, framing=s, component=i + 1)
        for i, s in enumerate(v)
    )
    return SurgeryDiagram(word, comps)


def _expand_component(
    idx: int, framing: Fraction, next_index: int, single_meridian_form: bool
) -> list[SurgeryComponent]:
    """Unknot components replacing a positive rational framing on component ``idx``.

    Writes ``r = n + p/q`` with ``n >= 0`` and ``p/q in [0, 1)``: the
    integer part becomes ``2n`` meridians framed -2, the fractional
    part a chain framed by the expansion of ``-q/p``.  With
    ``single_meridian_form`` a slope ``1/n`` becomes one meridian
    framed ``-n`` instead of a chain.
    """
    if framing <= 0:
        raise SurgeryError(f"slope must be positive, got {framing}")
    if single_meridian_form and framing.numerator == 1 and framing < 1:
        return [
            SurgeryComponent(
                kind=MERIDIAN,
                framing=Fraction(-framing.denominator),
                parent=idx,
            )
        ]
    n = framing.numerator // framing.denominator
    frac = framing - n
    out: list[SurgeryComponent] = []
    for _ in range(2 * n):
        out.append(SurgeryComponent(kind=MERIDIAN, framing=Fraction(-2), parent=idx))
    if frac != 0:
        chain = neg_cfrac(Fraction(-frac.denominator, frac.numerator)).coeffs
        parent = idx
        for depth, a in enumerate(chain):
            out.append(
                SurgeryComponent(
                    kind=CHAIN, framing=Fraction(a), parent=parent, depth=depth
                )
            )
            parent = next_index + len(out) - 1
    return out


def _unknot_count(framing: Fraction, single_meridian_form: bool, limit: int) -> int:
    """Unknots :func:`_expand_component` builds for ``framing``, counted up
    to ``limit + 1`` so that a long chain is not walked to its end."""
    if framing <= 0:
        return 0
    if single_meridian_form and framing.numerator == 1 and framing < 1:
        return 1
    n, p = divmod(framing.numerator, framing.denominator)
    if not p or 2 * n > limit:
        return 2 * n
    return 2 * n + neg_cfrac_length(Fraction(-framing.denominator, p), limit - 2 * n)


def _expand(diagram: SurgeryDiagram, single_meridian_form: bool) -> SurgeryDiagram:
    comps: list[SurgeryComponent] = []
    for c in diagram.components:
        if c.kind != BRAID:
            raise SurgeryError("expansion expects a braid-components-only diagram")
        comps.append(replace(c, framing=Fraction(0)))
    total = len(comps)
    for c in diagram.components:
        if isinstance(c.framing, _Infinity):
            raise SurgeryError("cannot expand the empty filling")
        total += _unknot_count(c.framing, single_meridian_form, MAX_COMPONENTS - total)
        if total > MAX_COMPONENTS:
            raise ComponentBudgetExceeded(
                f"slope {c.framing} of closure component {c.component} would"
                f" expand the diagram to at least {total} components,"
                f" cap {MAX_COMPONENTS}"
            )
    for idx, c in enumerate(diagram.components):
        comps.extend(
            _expand_component(idx, c.framing, len(comps), single_meridian_form)
        )
    return SurgeryDiagram(diagram.braid, tuple(comps))


def slam_dunk_expand(diagram: SurgeryDiagram) -> SurgeryDiagram:
    """Integral diagram: braid components reframed to 0, slopes moved
    onto meridian/chain unknots.

    A slope ``1/n`` becomes the single meridian framed ``-n``; other
    slopes split into the meridian stack and chain of
    :func:`_expand_component`.
    """
    return _expand(diagram, single_meridian_form=True)


def expand_general(diagram: SurgeryDiagram) -> SurgeryDiagram:
    """Like :func:`slam_dunk_expand` but with every fractional part as a
    chain, including ``1/n``; the two forms present the same manifold.
    """
    return _expand(diagram, single_meridian_form=False)


def linking_matrix(diagram: SurgeryDiagram) -> list[list[int]]:
    """Symmetric integer matrix: framings on the diagonal, linking
    numbers off it.  Requires an integral diagram."""
    if not diagram.is_integral:
        raise SurgeryError("linking matrix needs an integral diagram")
    return h1_presentation_matrix(diagram)


class HomologyReport(Record):
    """First-homology and intersection-form data of a surgery presentation.

    ``h1_order`` is 0 when H1 is infinite; ``elementary_divisors``
    lists the invariant factors > 1; ``euler_char`` counts one 0-handle
    plus one 2-handle per component.
    """

    def __init__(
        self,
        det: int,
        h1_order: int,
        elementary_divisors: tuple[int, ...],
        free_rank: int,
        signature: int,
        euler_char: int,
    ):
        self._store(locals())


def homology(diagram: SurgeryDiagram) -> HomologyReport:
    if not diagram.is_integral:
        raise SurgeryError("homology report needs an integral diagram")
    return diagram._homology


def h1_presentation_matrix(diagram: SurgeryDiagram) -> list[list[int]]:
    """Integer presentation matrix of H1 for a rational-framed diagram.

    Row ``i`` encodes the filling relation ``p_i mu_i + q_i lambda_i``;
    for an integral diagram this is the linking matrix.
    """
    return [list(row) for row in diagram._matrix]


def h1_invariants(diagram: SurgeryDiagram) -> tuple[int, tuple[int, ...], int]:
    """(order, elementary divisors > 1, free rank) from the presentation."""
    return diagram._invariants


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
    parts = braid_mod.permutation(word)
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
    parts = braid_mod.permutation(word)
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


def framing_str(framing) -> str:
    if isinstance(framing, _Infinity):
        return "inf"
    return f"{framing.numerator}/{framing.denominator}"


def parse_framing(text: str):
    if text == "inf":
        return INF
    return Fraction(text)


def diagram_to_dict(diagram: SurgeryDiagram) -> dict:
    """JSON-ready form: component list plus the source braid."""
    return {
        "braid": braid_mod.format_braid(diagram.braid),
        "components": [
            {
                "kind": c.kind,
                "framing": framing_str(c.framing),
                "component": c.component,
                "parent": c.parent,
                "depth": c.depth,
            }
            for c in diagram.components
        ],
    }
