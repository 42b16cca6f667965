"""Legendrian bookkeeping for surgery presentations.

Front-diagram arithmetic for braid closures (tb, rot, cusp counts),
stabilizations, the rotation-number menus of Legendrian unknots, and
the enumeration of decorated integral diagrams whose framings satisfy
``framing = tb - 1`` on every component.  The enumeration's rotation
tuples feed the distinguishing invariants: the Chern pairing vector,
the exact ``c1^2``, and the plane-field invariant
``theta = c1^2 - 2*chi - 3*sigma``.  Every diagram of an enumeration
shares one linking matrix ``Q``, so ``c1^2 = r^T Q^-1 r`` is an integer
quadratic form over one memoised adjugate, on the support S of the
rotation vector ``r`` (see :func:`theta`), with no linear solve per
tuple.  The walks over all tuples build no diagram: ``c1_forms`` gives
the integer forms, ``theta_sweep`` the text of each distinct theta
value, and ``json_lines`` the JSON line of each diagram.

Sign convention, fixed once: a positive stabilization drops tb by 1
and raises rot by 1; a negative stabilization drops tb by 1 and drops
rot by 1.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from fractions import Fraction

from . import braid as braid_mod
from . import surgery
from .braid import BraidWord
from .cfrac import SlopeVector
from .record import Record
from .surgery import BRAID, SurgeryDiagram


class LegendrianError(ValueError):
    """Unrealizable stabilization target or invalid Legendrian data."""


class HypothesisError(ValueError):
    """The braid fails a checkable hypothesis required by an operation."""


class MenuBudgetExceeded(RuntimeError):
    """The unknot menus of an enumeration would hold too many unknots."""


class TupleBudgetExceeded(RuntimeError):
    """An all-tuples sweep would visit more tuples than its budget."""


# Most Legendrian unknots the menus of one enumeration may hold: an unknot
# framed f has a menu of |f + 1| of them, and a slope 1/n frames it -n.
MAX_MENU_PICKS = 100_000

# Most tuples theta_sweep visits; TupleBudgetExceeded beyond it.
MAX_THETA_TUPLES = 100_000


class LegendrianComponent(Record):
    """tb/rot state of one Legendrian component plus its stabilization history."""

    def __init__(
        self, tb: int, rot: int, cusps: int, stab_pos: int = 0, stab_neg: int = 0
    ):
        if cusps < 0 or cusps % 2:
            raise LegendrianError(f"cusp count must be even and >= 0, got {cusps}")
        if stab_pos < 0 or stab_neg < 0:
            raise LegendrianError("stabilization counts must be >= 0")
        self._store(locals())


def link_front_stats(word: BraidWord) -> tuple[LegendrianComponent, ...]:
    """Per-component front data for a braid-closure link.

    Each component's tb realizes the charged lower bound
    ``c_{i,+} - 2c_{i,-} - d_{i,-} - m_i``.  Cusp pairs from an
    inter-component negative crossing land on the lower-indexed
    component, which also fixes the rot parity deterministically.
    """
    stats = surgery.closure_stats(word)
    ncomp = len(stats.axis_linking)
    out = []
    for i in range(ncomp):
        cp, cm = stats.per_component[i]
        charged = sum(stats.inter_negative[i][j] for j in range(i + 1, ncomp))
        out.append(
            LegendrianComponent(
                tb=cp - 2 * cm - stats.d_minus[i] - stats.axis_linking[i],
                rot=(cm + charged) % 2,
                cusps=2 * (stats.axis_linking[i] + cm + charged),
            )
        )
    return tuple(out)


def stabilize_to(
    c: LegendrianComponent, target_tb: int, target_rot: int
) -> LegendrianComponent:
    """Stabilize until ``(tb, rot) == (target_tb, target_rot)`` exactly.

    Needs ``target_tb <= tb``, the rot shift within range, and matching
    parity; each stabilization adds one cusp pair.
    """
    drop = c.tb - target_tb
    shift = target_rot - c.rot
    if drop < 0:
        raise LegendrianError(f"cannot raise tb from {c.tb} to {target_tb}")
    if abs(shift) > drop or (drop - shift) % 2:
        raise LegendrianError(
            f"no stabilization pattern reaches (tb={target_tb}, rot={target_rot})"
            f" from (tb={c.tb}, rot={c.rot})"
        )
    pos = (drop + shift) // 2
    neg = (drop - shift) // 2
    return LegendrianComponent(
        tb=target_tb,
        rot=target_rot,
        cusps=c.cusps + 2 * drop,
        stab_pos=c.stab_pos + pos,
        stab_neg=c.stab_neg + neg,
    )


def legendrian_unknot() -> LegendrianComponent:
    """The maximal unknot: tb -1, rot 0, two cusps."""
    return LegendrianComponent(tb=-1, rot=0, cusps=2)


def unknot_menu(framing: int) -> list[LegendrianComponent]:
    """All Legendrian unknots with ``tb = framing + 1``.

    For ``framing = f <= -2`` the rotation numbers run over
    ``{f+2, f+4, ..., -f-2}``: exactly ``|f + 1|`` choices, symmetric
    about 0, realized by stabilizing the maximal unknot.
    """
    f = int(framing)
    if f > -2:
        raise LegendrianError(
            f"no Legendrian unknot has tb = {f + 1}; framing must be <= -2"
        )
    return [
        stabilize_to(legendrian_unknot(), f + 1, rot)
        for rot in range(f + 2, -f - 1, 2)
    ]


class WeinsteinDiagram(Record):
    """Integral diagram whose components carry Legendrian representatives.

    Valid when every framing equals ``tb - 1``; ``rotation_tuple``
    lists the rot values of the unknot components in diagram order.
    """

    def __init__(
        self,
        base: SurgeryDiagram,
        legendrian: tuple[LegendrianComponent, ...],
        rotation_tuple: tuple[int, ...],
    ):
        if len(legendrian) != len(base.components):
            raise LegendrianError("one Legendrian component per diagram component")
        self._store(locals())


def validate_weinstein(w: WeinsteinDiagram) -> bool:
    """Check ``framing = tb - 1`` on every component."""
    return all(
        c.is_integral and c.framing == l.tb - 1
        for c, l in zip(w.base.components, w.legendrian)
    )


def _braid_legendrians(word: BraidWord) -> tuple[LegendrianComponent, ...]:
    """Closure components stabilized to tb 1 with a pinned rotation number.

    rot is pinned to 0 whenever parity allows (always, for knots
    satisfying the parity condition) and to the minimal nonnegative
    parity-feasible value otherwise.  Every component has ``tb >= 1``:
    that is the per-component condition :class:`WeinsteinEnumeration`
    checks first.
    """
    out = []
    for c in link_front_stats(word):
        target_rot = (c.rot + c.tb - 1) % 2
        out.append(stabilize_to(c, 1, target_rot))
    return tuple(out)


class WeinsteinEnumeration:
    """Lazy product of unknot menus over an expanded surgery diagram.

    ``tuples`` is the one product of 1-based menu picks; iterating
    assembles its diagrams, sorted by rotation tuple, and ``count`` is
    its exact cardinality without materializing anything.
    ``braid_legendrian`` holds the closure components' representatives
    in component order, which is their order at the head of ``base``.
    """

    def __init__(self, word: BraidWord, v: SlopeVector):
        report = braid_mod.check_hypothesis(word, stats=surgery.closure_stats(word))
        if not all(report.per_component_cond):
            failing = [
                i + 1 for i, ok in enumerate(report.per_component_cond) if not ok
            ]
            raise HypothesisError(
                f"components {failing} fail the charged crossing condition"
            )
        self.word = word
        self.slopes = v
        self.base = surgery.slam_dunk_expand(surgery.rational_surgery(word, v))
        self.braid_legendrian = _braid_legendrians(word)
        unknots = [c for c in self.base.components if c.kind != BRAID]
        total = sum(-int(c.framing) - 1 for c in unknots)
        if total > MAX_MENU_PICKS:
            raise MenuBudgetExceeded(
                f"the unknot menus would hold {total} Legendrian unknots,"
                f" cap {MAX_MENU_PICKS}"
            )
        self.menus = [unknot_menu(int(c.framing)) for c in unknots]
        # Every diagram draws each component from these picks, so checking
        # framing = tb - 1 once per pick validates the whole product.
        picks = [
            (c, self.braid_legendrian[c.component - 1])
            for c in self.base.components
            if c.kind == BRAID
        ] + [(c, l) for c, menu in zip(unknots, self.menus) for l in menu]
        if not all(c.is_integral and c.framing == l.tb - 1 for c, l in picks):
            raise LegendrianError("enumeration produced an invalid diagram")

    @property
    def count(self) -> int:
        return math.prod(len(menu) for menu in self.menus)

    def tuples(self):
        """Every tuple of 1-based menu picks, in lexicographic order."""
        return itertools.product(*(range(1, len(menu) + 1) for menu in self.menus))

    def _assemble(self, ks) -> WeinsteinDiagram:
        picks = [menu[k - 1] for k, menu in zip(ks, self.menus)]
        rest = iter(picks)
        legendrian = tuple(
            self.braid_legendrian[c.component - 1] if c.kind == BRAID else next(rest)
            for c in self.base.components
        )
        return WeinsteinDiagram(self.base, legendrian, tuple(p.rot for p in picks))

    def diagram_for(self, ks) -> WeinsteinDiagram:
        """The diagram indexed by 1-based menu picks, one per unknot."""
        ks = tuple(ks)
        if len(ks) != len(self.menus):
            raise LegendrianError(
                f"tuple length {len(ks)} does not match {len(self.menus)} unknots"
            )
        for k, menu in zip(ks, self.menus):
            if not 1 <= k <= len(menu):
                raise LegendrianError(
                    f"tuple entry {k} outside menu of size {len(menu)}"
                )
        return self._assemble(ks)

    def __iter__(self):
        for ks in self.tuples():
            yield self._assemble(ks)

    def c1_forms(self):
        """``det(M)`` and ``(picks, rotation_tuple, form)`` for every tuple,
        in the order of :meth:`tuples`, without building a diagram or a
        ``Fraction``: ``c1^2 = form / det(M)``.

        ``form`` is ``r_S^T A r_S`` for the rotation vector ``r`` on S and
        ``A = L adj(M)`` (see :func:`theta`), fixed one menu ``u`` of more
        than one pick at a time: rot ``y`` adds ``y (2 l_u + A_uu y)``, with
        ``l_u`` the row ``u`` of ``A`` against the rots fixed so far, and
        moves every later ``l`` by ``y`` times column ``u``.  A one-pick
        menu (rot 0) joins its ``1``/``0`` to the picks before it.  Raises
        ``SingularityError`` when ``det(Q) == 0``.
        """
        _, keep, det, adj = _inverse_form(self.base)
        pos = {i: s for s, i in enumerate(keep)}
        comps = self.base.components
        fixed = [
            (pos[i], self.braid_legendrian[c.component - 1].rot)
            for i, c in enumerate(comps)
            if c.kind == BRAID
        ]
        unknots = [i for i, c in enumerate(comps) if c.kind != BRAID]
        # ``ones`` ends as the count of one-pick menus before every level.
        ones, levels = 0, []
        for u, menu in reversed(list(zip(unknots, self.menus))):
            if len(menu) == 1:
                ones += 1
                continue
            ks, rots = (1,) * ones, (0,) * ones
            picks = [((k,) + ks, (l.rot,) + rots, l.rot) for k, l in enumerate(menu, 1)]
            levels.append((pos[u], picks))
            ones = 0
        levels.reverse()
        form = sum(x * adj[i][j] * y for i, x in fixed for j, y in fixed)
        lin = [sum(adj[a][i] * x for i, x in fixed) for a, _ in levels]
        states = [((1,) * ones, (0,) * ones, form, lin)]
        for depth, (a, picks) in enumerate(levels):
            col = [adj[b][a] for b, _ in levels[depth + 1 :]]
            states = _pick_level(states, picks, adj[a][a], col)
        return det, ((ks, rots, form) for ks, rots, form, _ in states)

    def c1_squares(self):
        """``(picks, rotation_tuple, c1^2)`` for every tuple: :meth:`c1_forms`
        with each form over ``det(M)``."""
        det, rows = self.c1_forms()
        return ((ks, rots, Fraction(form, det)) for ks, rots, form in rows)

    def json_lines(self):
        """The compact sorted-key JSON line of :func:`weinstein_to_dict` for
        every diagram, in the order of :meth:`tuples`, without building a
        diagram.

        The text every line shares (the base diagram, ``tb``, the closure
        components' arrays) is made once.  The rot, stab_neg and stab_pos
        texts of the picks grow one menu at a time, as the forms of
        :meth:`c1_forms` do.  Every pick of a menu has one tb, as
        ``__init__`` checked ``tb - 1 == framing``.
        """
        base = surgery.diagram_to_dict(self.base)
        head = json.dumps(base, sort_keys=True, separators=(",", ":"))[:-1]
        closure = self.braid_legendrian
        braid_rot, braid_neg, braid_pos = (
            ",".join(str(getattr(l, field)) for l in closure)
            for field in ("rot", "stab_neg", "stab_pos")
        )
        tb = ",".join(str(l.tb) for l in closure + tuple(m[0] for m in self.menus))
        # A menu of one pick joins the text of the level before it, so each
        # level at least doubles the lines; ``fixed`` ends as the text before all.
        fixed, levels = ("", "", ""), []
        for menu in reversed(self.menus):
            texts = [(f",{l.rot}", f",{l.stab_neg}", f",{l.stab_pos}") for l in menu]
            texts = [tuple(map(str.__add__, t, fixed)) for t in texts]
            if len(texts) == 1:
                fixed = texts[0]
            else:
                fixed, levels = ("", "", ""), [texts, *levels]
        # One generator frame per level: the picks of all but the last _NESTED
        # levels (each at least 2^_NESTED lines apart) come from a product,
        # joined once per prefix.
        for prefix in itertools.product(*levels[:-_NESTED]):
            states = iter([tuple(map("".join, zip(fixed, *prefix)))])
            for texts in levels[-_NESTED:]:
                states = _extend(states, texts)
            for rot, neg, pos in states:
                yield (
                    f'{head},"rot":[{braid_rot}{rot}],"rotation_tuple":[{rot[1:]}],'
                    f'"stab_neg":[{braid_neg}{neg}],"stab_pos":[{braid_pos}{pos}],'
                    f'"tb":[{tb}]}}\n'
                )

    def theta_sweep(self, text):
        """``(rows, values)``: theta over every tuple, with a ``Fraction``
        and its ``text`` per distinct value, none per tuple.

        ``rows`` is the list of :meth:`c1_forms` rows.  ``values`` maps each
        distinct ``form``, in increasing order of theta, to ``(text(c1^2),
        text(theta), picks)``, where ``picks`` lists the tuples of that
        form in the order of :meth:`tuples`.  Raises
        :class:`TupleBudgetExceeded` before the walk when there are more than
        ``MAX_THETA_TUPLES`` tuples.
        """
        if self.count > MAX_THETA_TUPLES:
            raise TupleBudgetExceeded(
                f"theta over all tuples would visit {self.count} tuples, cap"
                f" {MAX_THETA_TUPLES}; query one with --tuple or count them with"
                " enumerate --count-only"
            )
        det, rows = self.c1_forms()
        report = surgery.homology(self.base)
        shift = 2 * report.euler_char + 3 * report.signature
        rows = list(rows)
        groups: dict[int, list] = {}
        for ks, _, form in rows:
            groups.setdefault(form, []).append(ks)
        c1sq = {form: Fraction(form, det) for form in groups}
        return rows, {
            form: (text(c1sq[form]), text(c1sq[form] - shift), groups[form])
            for form in sorted(groups, key=c1sq.get)
        }


def _pick_level(states, picks, diag: int, col: list[int]):
    """Extend each ``(picks, rots, form, lin)`` state by each ``(picks, rots, rot)``."""
    for ks, rots, form, lin in states:
        head, rest = lin[0], lin[1:]
        for k, r, y in picks:
            yield (
                ks + k,
                rots + r,
                form + y * (2 * head + diag * y),
                [x + y * c for x, c in zip(rest, col)],
            )


_NESTED = 64  # well inside the recursion limit


def _extend(states, texts):
    """Extend every ``(rot, stab_neg, stab_pos)`` text by each menu pick."""
    for rot, neg, pos in states:
        for r, n, p in texts:
            yield rot + r, neg + n, pos + p


def enumerate_weinstein(word: BraidWord, v: SlopeVector) -> WeinsteinEnumeration:
    return WeinsteinEnumeration(word, v)


def c1_pairing(w: WeinsteinDiagram) -> list[int]:
    """Rotation numbers in component order: the Chern class evaluated
    on the handle generators."""
    return [l.rot for l in w.legendrian]


class ThetaReport(Record):
    """The plane-field invariant and its ingredients, all exact."""

    def __init__(
        self,
        c1_squared: Fraction,
        chi: int,
        sigma: int,
        theta: Fraction,
        h1_order: int,
        complete_invariant: bool,
    ):
        self._store(locals())


def _inverse_form(
    base: SurgeryDiagram,
) -> tuple[surgery.HomologyReport, list[int], int, tuple[tuple[int, ...], ...]]:
    """The homology report of ``base`` and ``(S, det M, A)``, both memoised
    on the diagram; theta needs ``det(Q) != 0``, that is ``det(M) != 0``."""
    report = surgery.homology(base)
    if report.det == 0:
        raise surgery.SingularityError("theta needs a nonsingular linking matrix")
    return (report, *base._rotation_form)


def theta(w: WeinsteinDiagram) -> ThetaReport:
    """``c1^2 - 2 chi - 3 sigma`` of the presented filling.

    ``c1^2`` is ``r^T Q^{-1} r`` for the rotation vector ``r`` and the
    nonsingular linking matrix ``Q``.  An unknot framed -2 has rot 0 (a
    nonzero rot there is a ``LegendrianError``), so on any base ``r``
    lives on S, the components left when those unknots are eliminated (on
    an expansion, the closures and the unknots framed ``<= -3``), and
    ``c1^2 = r_S^T A r_S / det(M)`` with ``M`` the Schur complement of the
    rest scaled by ``L`` and ``A = L adj(M)``, memoised on ``w.base``.
    The value is a complete homotopy invariant only over integer homology
    spheres, reported by ``complete_invariant``.
    """
    report, keep, det, adj = _inverse_form(w.base)
    r = c1_pairing(w)
    comps = w.base.components
    if any(x and c.kind != BRAID and c.framing == -2 for x, c in zip(r, comps)):
        raise LegendrianError("an unknot framed -2 must have rot 0")
    r = [r[i] for i in keep]
    c1sq = Fraction(
        sum(x * sum(map(operator.mul, row, r)) for x, row in zip(r, adj)), det
    )
    value = c1sq - 2 * report.euler_char - 3 * report.signature
    return ThetaReport(
        c1_squared=c1sq,
        chi=report.euler_char,
        sigma=report.signature,
        theta=value,
        h1_order=report.h1_order,
        complete_invariant=report.h1_order == 1,
    )


def isotopy_class_count(ws) -> int:
    """Number of distinct rotation tuples among the given diagrams."""
    return len({w.rotation_tuple for w in ws})


def contactomorphism_lower_bound(count: int, c: int) -> int:
    """``ceil(count / c)`` for a symmetry group of order ``c >= 1``."""
    if c < 1:
        raise LegendrianError(f"symmetry order must be >= 1, got {c}")
    return -(-count // c)


def weinstein_to_dict(w: WeinsteinDiagram) -> dict:
    """JSON-ready form: the surgery dict plus parallel Legendrian arrays."""
    data = surgery.diagram_to_dict(w.base)
    data["tb"] = [l.tb for l in w.legendrian]
    data["rot"] = [l.rot for l in w.legendrian]
    data["stab_pos"] = [l.stab_pos for l in w.legendrian]
    data["stab_neg"] = [l.stab_neg for l in w.legendrian]
    data["rotation_tuple"] = list(w.rotation_tuple)
    return data
