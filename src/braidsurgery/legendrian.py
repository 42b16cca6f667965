"""Legendrian bookkeeping for surgery presentations.

Front-diagram arithmetic for braid closures (tb, rot, cusp counts),
stabilizations, the rotation-number menus of Legendrian unknots, and
the enumeration of decorated integral diagrams whose framings satisfy
``framing = tb - 1`` on every component.  The enumeration's rotation
tuples feed the distinguishing invariants: the Chern pairing vector,
the exact ``c1^2``, and the plane-field invariant
``theta = c1^2 - 2*chi - 3*sigma``.  Every diagram of an enumeration
shares one linking matrix ``Q``, so ``c1^2 = r^T Q^-1 r`` is an integer
quadratic form in the menus' rots over one Gram matrix ``B^T Q^-1 B``,
with no linear solve per tuple: the surgery fold carries the columns of
``B``, and one :func:`linalg.solve` on what it leaves gives the matrix,
``k x k`` on ``k`` closures, for one tuple and for a sweep.  A menu is
a ``range``, the rots its unknot can take.  The walks over all tuples
build no diagram or record: ``c1_forms`` gives the integer forms of at
most ``MAX_THETA_TUPLES`` tuples, ``theta_sweep`` the text of each
distinct theta value and a form id per tuple, and ``json_blocks`` the
JSON lines of every diagram, a block of whole lines at a time.

Sign convention, fixed once: a positive stabilization drops tb by 1
and raises rot by 1; a negative stabilization drops tb by 1 and drops
rot by 1.
"""

from __future__ import annotations

import itertools
import json
import math
from array import array
from fractions import Fraction

from . import braid as braid_mod
from . import surgery
from .braid import BraidWord
from .cfrac import SlopeVector
from .errors import (
    HypothesisError,
    LegendrianError,
    MenuBudgetExceeded,
    SingularityError,
    TupleBudgetExceeded,
)
from .record import Record
from .surgery import BRAID, SurgeryDiagram

# Most Legendrian unknots the menus of one enumeration may hold: an unknot
# framed f has a menu of |f + 1| of them, and a slope 1/n frames it -n.  A
# menu is a range, so this bounds no memory: its exit code 4 is CLI contract.
MAX_MENU_PICKS = 100_000

# Most tuples c1_forms walks; TupleBudgetExceeded beyond it.
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


def _menu(framing: int) -> range:
    """The rots of the Legendrian unknots with ``tb = framing + 1``."""
    f = int(framing)
    if f > -2:
        raise LegendrianError(
            f"no Legendrian unknot has tb = {f + 1}; framing must be <= -2"
        )
    return range(f + 2, -f - 1, 2)


def unknot_menu(framing: int) -> list[LegendrianComponent]:
    """All Legendrian unknots with ``tb = framing + 1``.

    For ``framing = f <= -2`` the rotation numbers run over
    ``{f+2, f+4, ..., -f-2}``: exactly ``|f + 1|`` choices, symmetric
    about 0, realized by stabilizing the maximal unknot.
    """
    rots = _menu(framing)
    return [stabilize_to(legendrian_unknot(), -len(rots), rot) for rot in rots]


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

    ``menus`` holds the ``range`` of rots of each unknot.  A rot is a whole
    pick: its tb is ``-len(menu)``, its stabilizations ``(len(menu) - 1 +-
    rot) / 2``.  ``tuples`` is the one product of 1-based menu picks;
    iterating assembles its diagrams, sorted by rotation tuple, and
    ``count`` is its exact cardinality without materializing anything.
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
                f" cap {MAX_MENU_PICKS}",
                budget="MAX_MENU_PICKS",
                cap=MAX_MENU_PICKS,
                needed=total,
            )
        self.menus = [_menu(c.framing) for c in unknots]
        # Every diagram reuses these closure representatives, so checking
        # framing = tb - 1 once for each validates the whole product; an
        # unknot's picks have tb = framing + 1 by construction.
        closures = self.braid_legendrian
        if not all(
            c.is_integral and c.framing == closures[c.component - 1].tb - 1
            for c in self.base.components
            if c.kind == BRAID
        ):
            raise LegendrianError("enumeration produced an invalid diagram")

    @property
    def count(self) -> int:
        return math.prod(len(menu) for menu in self.menus)

    def tuples(self):
        """Every tuple of 1-based menu picks, in lexicographic order."""
        return itertools.product(*(range(1, len(menu) + 1) for menu in self.menus))

    def _assemble(self, ks) -> WeinsteinDiagram:
        rots = tuple(m[k - 1] for k, m in zip(ks, self.menus))
        maximal = legendrian_unknot()
        rest = (stabilize_to(maximal, -len(m), y) for m, y in zip(self.menus, rots))
        legendrian = tuple(
            self.braid_legendrian[c.component - 1] if c.kind == BRAID else next(rest)
            for c in self.base.components
        )
        return WeinsteinDiagram(self.base, legendrian, rots)

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
        """``D`` and the list of the integer ``form`` of every tuple, in the
        order of :meth:`tuples`, without building a diagram or a
        ``Fraction``: ``c1^2 = form / D``.

        ``form`` is ``(1, y)^T N (1, y)`` for the rots ``y`` of the menus of
        more than one pick (levels) and ``N / D = B^T Q^-1 B``, ``B = [r_0 |
        e_u for each level u]`` with ``r_0`` the closures' rots, from the
        fold of every unknot and one :func:`linalg.solve` on what it leaves,
        ``k x k`` on ``k`` closures (see ``SurgeryDiagram._gram``).  Rot ``y``
        of level ``a`` adds ``y (2 l_a + N_aa y)``, ``l_a`` the entry ``a``
        of ``N`` against the rots fixed so far, and moves every later ``l``
        by ``y`` times row ``a``, for all states at once: one comprehension
        per flat list of forms or of a later level's ``l``.  Raises
        :class:`TupleBudgetExceeded` before the walk when there are more
        than ``MAX_THETA_TUPLES`` tuples, and ``SingularityError`` when
        ``det(Q) == 0``.
        """
        if self.count > MAX_THETA_TUPLES:
            raise TupleBudgetExceeded(
                f"theta over all tuples would visit {self.count} tuples, cap"
                f" {MAX_THETA_TUPLES}; query one with --tuple or count them with"
                " enumerate --count-only",
                budget="MAX_THETA_TUPLES",
                cap=MAX_THETA_TUPLES,
                needed=self.count,
            )
        comps = self.base.components
        fixed = {
            i: self.braid_legendrian[c.component - 1].rot
            for i, c in enumerate(comps)
            if c.kind == BRAID
        }
        unknots = [i for i, c in enumerate(comps) if c.kind != BRAID]
        levels = [(u, rots) for u, rots in zip(unknots, self.menus) if len(rots) > 1]
        det, g = self.base._gram([fixed, *({u: 1} for u, _ in levels)])
        # ``forms`` over all states so far; ``lins[b]``, over the same states,
        # the ``l`` of the ``b``-th level after the last one picked.
        forms, lins = [g[0][0]], [[l] for l in g[0][1:]]
        for a, (_, rots) in enumerate(levels, 1):
            diag = g[a][a]
            forms = [
                f + y * (2 * l + diag * y) for f, l in zip(forms, lins[0]) for y in rots
            ]
            moves = [[y * c for y in rots] for c in g[a][a + 1 :]]
            lins = [[x + m for x in xs for m in ms] for xs, ms in zip(lins[1:], moves)]
        return det, forms

    def c1_squares(self):
        """``(picks, rotation_tuple, c1^2)`` for every tuple: :meth:`c1_forms`
        with each form over ``det(M)``."""
        det, forms = self.c1_forms()
        squares = (Fraction(form, det) for form in forms)
        return zip(self.tuples(), self._rotation_tuples(), squares)

    def _rotation_tuples(self):
        """The rotation tuple of every diagram, in the order of :meth:`tuples`."""
        return itertools.product(*self.menus)

    def json_blocks(self, size: int):
        """The compact sorted-key JSON lines of :func:`weinstein_to_dict` for
        every diagram, in the order of :meth:`tuples`, without building a
        diagram, as blocks of whole lines.

        A line is longer than the text every line shares (the base diagram,
        ``tb``, the closure components' arrays), so ``lines``, the ceiling of
        ``size`` over that text's length, always reach ``size`` characters.
        That text is made once.  So are the rot, stab_neg and stab_pos texts
        of the picks of the trailing menus whose product holds at most
        ``lines`` lines.  The four texts of each pick of the product of the
        other menus go before each of them in one list of pieces.  If the
        menu before the trailing ones has more picks than ``lines``, its
        texts are made one slice of picks at a time.  A block ends only
        between picks (or slices) once it holds ``lines`` lines, so every
        block but the last reaches ``size`` and holds fewer than ``2 *
        lines`` lines; each is one ``str.join`` of its pieces.  A pick's tb
        is ``-len(menu)``, and its stabilizations follow from it and its rot.
        """
        base = surgery.diagram_to_dict(self.base)
        head = json.dumps(base, sort_keys=True, separators=(",", ":"))[:-1]
        closure, menus = self.braid_legendrian, self.menus
        braid_rot, braid_neg, braid_pos = (
            ",".join(str(getattr(l, field)) for l in closure)
            for field in ("rot", "stab_neg", "stab_pos")
        )
        tb = ",".join(map(str, [l.tb for l in closure] + [-len(m) for m in menus]))
        end = f'],"tb":[{tb}]}}\n'

        # ``tail``: the texts of the product of menus[cut:], at most ``lines``.
        lines = -(-size // len(head))
        cut, tail = len(menus), [("", "", "")]
        while cut and len(tail) * len(menus[cut - 1]) <= lines:
            cut -= 1
            tail = _texts(menus[cut], len(menus[cut]) - 1, tail)
        # A menu of more than ``lines`` picks before them: ``step`` at a time.
        step, sliced, last = lines // len(tail), [], None
        if cut and len(menus[cut - 1]) > lines:
            cut -= 1
            sliced, drop = menus[cut], len(menus[cut]) - 1

        block = []
        for picks in itertools.product(*(_texts(m, len(m) - 1) for m in menus[:cut])):
            rot, neg, pos = map("".join, zip(("", "", ""), *picks))
            prefix = (
                f'{head},"rot":[{braid_rot}{rot}',
                f'],"rotation_tuple":[{rot[1:]}',
                f'],"stab_neg":[{braid_neg}{neg}',
                f'],"stab_pos":[{braid_pos}{pos}',
            )
            for i in range(0, len(sliced) or 1, step):
                texts = _texts(sliced[i : i + step], drop, tail) if sliced else tail
                if texts is not last:
                    last, n, pieces = texts, len(texts), [end] * (9 * len(texts))
                    rots, negs, poss = zip(*texts)
                    # With no menu before them the texts start the rotation tuple.
                    columns = (rots, rots if cut else [r[1:] for r in rots], negs, poss)
                    for j, column in enumerate(columns):
                        pieces[2 * j + 1 :: 9] = column
                for j, text in enumerate(prefix):
                    pieces[2 * j :: 9] = [text] * n
                block += pieces
                if len(block) >= 9 * lines:
                    yield "".join(block)
                    block = []
        if block:
            yield "".join(block)

    def theta_sweep(self, text):
        """``(ids, values)``: theta over every tuple, with the ``text`` of
        each distinct value and one small int per tuple.

        ``values`` lists ``(text(c1^2), text(theta), indices)`` for each
        distinct form of :meth:`c1_forms`, in increasing order of theta,
        where ``indices`` are the positions in :meth:`tuples` of the tuples
        of that form, in increasing order: runs of one stable sort of the
        positions by form.  ``ids`` gives each tuple, in the order of
        :meth:`tuples`, the index of its form in ``values``.  Both are
        arrays of typecode ``"I"``, so no Python object is kept per tuple.
        """
        det, forms = self.c1_forms()
        report = surgery.homology(self.base)
        shift = 2 * report.euler_char + 3 * report.signature
        # c1^2 = form / det: increasing in form exactly when det > 0.  A
        # reversed sort keeps equal forms in their order too.
        order = sorted(range(len(forms)), key=forms.__getitem__, reverse=det < 0)
        values, index = [], {}
        for form, run in itertools.groupby(order, forms.__getitem__):
            index[form] = len(values)
            c1sq = Fraction(form, det)
            values.append((text(c1sq), text(c1sq - shift), array("I", run)))
        return array("I", map(index.__getitem__, forms)), values


def _texts(rots, drop: int, tail=(("", "", ""),)):
    """The ``(rot, stab_neg, stab_pos)`` texts of each rot of a menu whose
    picks are ``drop`` stabilizations of the maximal unknot, each followed
    by each of ``tail``."""
    return [
        (f",{y}{r}", f",{(drop - y) // 2}{n}", f",{(drop + y) // 2}{p}")
        for y in rots
        for r, n, p in tail
    ]


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


def theta(w: WeinsteinDiagram) -> ThetaReport:
    """``c1^2 - 2 chi - 3 sigma`` of the presented filling.

    ``c1^2`` is ``r^T Q^{-1} r`` for the rotation vector ``r`` and the
    nonsingular linking matrix ``Q``: the fold of every unknot with a
    nonzero pivot carries ``r`` as a border column, and one
    :func:`linalg.solve` on what it leaves (the closures, plus any zero
    pivot: ``k x k`` on an expansion) gives the form.  An unknot framed
    -2 has rot 0 (a nonzero rot there is a ``LegendrianError``).  The
    value is a complete homotopy invariant only over integer homology
    spheres, reported by ``complete_invariant``.
    """
    report = surgery.homology(w.base)
    r = c1_pairing(w)
    det, g = w.base._gram([dict(enumerate(r))])
    comps = w.base.components
    if any(x and c.kind != BRAID and c.framing == -2 for x, c in zip(r, comps)):
        raise LegendrianError("an unknot framed -2 must have rot 0")
    c1sq = Fraction(g[0][0], det)
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
