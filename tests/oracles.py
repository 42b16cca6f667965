"""Independent oracles used only by the test suite.

These deliberately avoid the package's own code paths: the braid
word-problem oracle is the reduced Burau representation over exact
Laurent polynomials (faithful on three strands), the determinant
oracle is cofactor expansion, the invariant-factor oracle is the
gcd-of-minors formula, and the signature and linear-solve oracles
eliminate over ``Fraction``.  ``handle_reduce_rescan`` is the plain
handle reducer that rescans the word from index 0 after every step, and
``floor_at_least_by_probes`` reduces each floor probe from the word
itself with it.  ``parse_braid_per_token`` matches and converts every
token of a braid text, repeated or not.
``presentation_matrix_by_pairs`` reads the linking number of every pair
off the two components' kinds, and ``end_slope_from_scratch`` multiplies
the gluing matrices of one level from the first.
``neg_cfrac_by_fractions`` runs the ceiling algorithm on ``Fraction``
values, and ``end_slopes_by_gluing`` keeps one running product of
inverse gluing matrices.  ``RECORD_TWINS`` maps each record class to a
frozen ``dataclasses`` class with the same fields and checks.
``theta_payload_by_dicts`` builds the all-tuples ``theta`` payload as one
dict per tuple, from one ``Fraction`` per tuple.  ``build_parser`` is
the ``argparse`` parser of the command-line grammar that
``braidsurgery.argv`` reads from its own table.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import math
import re
from fractions import Fraction
from math import gcd

from braidsurgery import braid as braid_mod
from braidsurgery import cfrac as cfrac_mod
from braidsurgery import legendrian as legendrian_mod
from braidsurgery import limits as limits_mod
from braidsurgery import surgery as surgery_mod
from braidsurgery.argv import UsageError
from braidsurgery.braid import (
    DEFAULT_STEP_BUDGET,
    BraidError,
    BraidWord,
    ReductionBudgetExceeded,
    compose,
    crossing_stats,
    garside,
    inverse,
    power,
)
from braidsurgery.cfrac import CFracError
from braidsurgery.legendrian import LegendrianError
from braidsurgery.limits import LimitsError, gluing_matrix
from braidsurgery.surgery import SurgeryError


# ---------------------------------------------------------------------------
# Laurent polynomials over Z as sparse {exponent: coefficient} dicts.

def lp(d=None):
    out = {k: v for k, v in (d or {}).items() if v}
    return out


def lp_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return lp(out)


def lp_mul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            out[ka + kb] = out.get(ka + kb, 0) + va * vb
    return lp(out)


LP_ONE = {0: 1}
LP_ZERO = {}


def mat_mul(x, y):
    return tuple(
        tuple(
            lp_add(lp_mul(x[i][0], y[0][j]), lp_mul(x[i][1], y[1][j]))
            for j in range(2)
        )
        for i in range(2)
    )


BURAU_GEN = {
    1: ((lp({1: -1}), LP_ONE), (LP_ZERO, LP_ONE)),
    -1: ((lp({-1: -1}), lp({-1: 1})), (LP_ZERO, LP_ONE)),
    2: ((LP_ONE, LP_ZERO), (lp({1: 1}), lp({1: -1}))),
    -2: ((LP_ONE, LP_ZERO), (LP_ONE, lp({-1: -1}))),
}

BURAU_ID = ((LP_ONE, LP_ZERO), (LP_ZERO, LP_ONE))


def burau3(letters) -> tuple:
    """Reduced Burau matrix of a word in the three-strand group."""
    m = BURAU_ID
    for x in letters:
        m = mat_mul(m, BURAU_GEN[x])
    return m


def burau3_is_identity(letters) -> bool:
    return burau3(letters) == BURAU_ID


# ---------------------------------------------------------------------------
# Integer matrix oracles.

def det_cofactor(m) -> int:
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_cofactor(minor)
    return total


def invariant_factors_by_minors(m) -> list[int]:
    """d_k = gcd(k-minors) / gcd((k-1)-minors); zero once minors vanish."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                sub = [[m[i][j] for j in ci] for i in ri]
                g = gcd(g, abs(det_cofactor(sub)))
        if g == 0:
            out.append(0)
            prev = 0
        else:
            out.append(g // prev)
            prev = g
    return out


def random_unimodular(rng, n: int):
    """Product of random elementary integer row operations; det is +-1."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    if n == 1:
        return [[rng.choice([-1, 1])]]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        for t in range(n):
            m[i][t] += c * m[j][t]
    return m


def congruence(u, d):
    """u^T d u for integer matrices (exactly)."""
    n = len(u)
    ud = [
        [sum(u[k][i] * d[k][t] for k in range(n)) for t in range(n)]
        for i in range(n)
    ]
    return [
        [sum(ud[i][k] * u[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def signature_rational(m) -> int:
    """Signature by congruence diagonalization over the rationals.

    A zero diagonal with a nonzero off-diagonal entry is exposed by
    adding the partner row/column, which creates a nonzero pivot.
    """
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    pos = neg = 0
    live = list(range(n))
    while live:
        k = next((i for i in live if a[i][i] != 0), None)
        if k is None:
            pair = next(
                ((i, j) for i in live for j in live if i != j and a[i][j] != 0),
                None,
            )
            if pair is None:
                break
            i, j = pair
            for t in range(n):
                a[i][t] += a[j][t]
            for t in range(n):
                a[t][i] += a[t][j]
            k = i
        if a[k][k] > 0:
            pos += 1
        else:
            neg += 1
        live.remove(k)
        for i in live:
            if a[i][k] != 0:
                f = a[i][k] / a[k][k]
                for t in range(n):
                    a[i][t] -= f * a[k][t]
                for t in range(n):
                    a[t][i] -= f * a[t][k]
    return pos - neg


def solve_rational(m, rhs) -> list[Fraction]:
    """Gauss-Jordan elimination over the rationals; singular raises."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                for c in range(col, n + 1):
                    a[r][c] -= f * a[col][c]
    return [a[r][n] / a[r][r] for r in range(n)]


# ---------------------------------------------------------------------------
# Braid text parsed token by token.

_TOKEN = re.compile(r"^s(\d+)(?:\^(-?\d+))?$")


def _int(text: str, pos: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise BraidError(f"number with {len(text)} digits at position {pos}") from None


def parse_braid_per_token(text: str) -> BraidWord:
    """``braid.parse_braid`` with the regex match, both conversions and
    the range checks run again for every token."""
    tokens = text.split()
    if not tokens or not re.fullmatch(r"B(\d+)", tokens[0]):
        raise BraidError("missing strand header 'B<m>'")
    strands = _int(tokens[0][1:], 0)
    if strands < 2:
        raise BraidError(f"strand count must be >= 2, got {strands}")
    braid_mod.check_strands(strands)
    runs: list[tuple[int, int]] = []
    for pos, tok in enumerate(tokens[1:], start=1):
        match = _TOKEN.match(tok)
        if match is None:
            raise BraidError(f"malformed token {tok!r} at position {pos}")
        gen = _int(match.group(1), pos)
        exp = _int(match.group(2), pos) if match.group(2) is not None else 1
        if not 1 <= gen <= strands - 1:
            raise BraidError(
                f"generator index {gen} out of range for {strands} strands"
                f" (token {pos})"
            )
        if exp == 0:
            raise BraidError(f"zero exponent in token {tok!r} at position {pos}")
        runs.append((gen if exp > 0 else -gen, abs(exp)))
    length, cap = sum(n for _, n in runs), braid_mod.MAX_WORD_LENGTH
    if length > cap:
        raise BraidError(f"B{strands} word would have {length} letters, cap {cap}")
    letters = itertools.chain.from_iterable([x] * n for x, n in runs)
    return BraidWord(strands, tuple(letters))


# ---------------------------------------------------------------------------
# Handle reduction that rescans the word from index 0 after every step.

def handle_reduce_rescan(word, max_steps=DEFAULT_STEP_BUDGET):
    """Handle-free word representing the same braid element.

    Repeatedly reduces the first handle (the earliest-closing subword
    ``s_i^e ... s_i^-e`` whose interior only uses higher-index
    generators).  The first handle never contains another handle, which
    is the strategy with guaranteed termination; ``max_steps`` bounds
    the number of reductions and overflow raises
    :class:`ReductionBudgetExceeded` rather than returning a wrong
    answer.
    """
    w = list(word.letters)
    steps = 0
    while True:
        found = _first_handle(w)
        if found is None:
            return BraidWord(word.strands, tuple(w))
        steps += 1
        if steps > max_steps:
            raise ReductionBudgetExceeded(
                f"no reduced form within {max_steps} handle reductions"
            )
        s, t = found
        i = abs(w[s])
        e = 1 if w[s] > 0 else -1
        replacement: list[int] = []
        for x in w[s + 1 : t]:
            if abs(x) == i + 1:
                d = 1 if x > 0 else -1
                replacement.extend([-e * (i + 1), d * i, e * (i + 1)])
            else:
                replacement.append(x)
        w[s : t + 1] = replacement


def _first_handle(w: list[int]) -> tuple[int, int] | None:
    """Position pair of the earliest-closing handle, or None.

    ``last[g]`` tracks the most recent letter with generator index
    ``g``; a letter closes a handle when it cancels the last letter of
    its own index and no lower index occurred in between.
    """
    last: dict[int, int] = {}
    for t, x in enumerate(w):
        i = abs(x)
        s = last.get(i)
        if s is not None and (w[s] > 0) != (x > 0):
            if all(last.get(j, -1) < s for j in range(1, i)):
                return s, t
        last[i] = t
    return None


def floor_at_least_by_probes(word, d: int) -> bool:
    """Floor probe at ``d >= 1``: passes when ``w * Delta^(-2d)`` or
    ``w^-1 * Delta^(-2d)``, each rescan-reduced as written, is not
    sigma-negative (its lowest generator occurs only inverted)."""
    shift = inverse(power(garside(word.strands), 2 * d))
    for w in (word, inverse(word)):
        reduced = handle_reduce_rescan(compose(w, shift)).letters
        lowest = min(reduced, key=abs, default=0)
        if lowest >= 0:
            return True
    return False


# ---------------------------------------------------------------------------
# Surgery diagrams and ends, entry by entry.

def linking_by_pair(diagram, i: int, j: int) -> int:
    """Linking number between components ``i != j``, read off their kinds."""
    a, b = diagram.components[i], diagram.components[j]
    stats = crossing_stats(diagram.braid)
    if a.kind == "braid" and b.kind == "braid":
        return stats.linking[a.component - 1][b.component - 1]
    for x, y in ((a, b), (b, a)):
        if x.kind == "axis" and y.kind == "braid":
            return stats.axis_linking[y.component - 1]
    return 1 if a.parent == j or b.parent == i else 0


def presentation_matrix_by_pairs(diagram) -> list[list[int]]:
    """H1 presentation matrix from one :func:`linking_by_pair` per pair:
    row ``i`` is the relation ``p_i mu_i + q_i lambda_i``."""
    comps = diagram.components
    n = len(comps)
    m = [[0] * n for _ in range(n)]
    for i, c in enumerate(comps):
        m[i][i] = c.framing.numerator
        for j in range(i + 1, n):
            lk = linking_by_pair(diagram, i, j)
            m[i][j] = c.framing.denominator * lk
            m[j][i] = comps[j].framing.denominator * lk
    return m


def theta_payload_by_dicts(enum) -> dict:
    """The all-tuples ``theta`` payload, without its envelope: one dict per
    tuple from :meth:`c1_squares`, grouped by theta and sorted by value."""
    report = surgery_mod.homology(enum.base)
    shift = 2 * report.euler_char + 3 * report.signature
    entries = []
    groups: dict[Fraction, list] = {}
    for ks, rots, c1sq in enum.c1_squares():
        value = c1sq - shift
        entries.append(
            {
                "tuple": list(ks),
                "rotation_tuple": list(rots),
                "theta": value,
                "c1_squared": c1sq,
            }
        )
        groups.setdefault(value, []).append(list(ks))
    return {
        "count": enum.count,
        "entries": entries,
        "theta_groups": [
            {"theta": value, "tuples": groups[value]} for value in sorted(groups)
        ],
    }


def end_slope_from_scratch(coeffs) -> Fraction:
    """The meridian direction ``1/0`` pushed through the inverse gluing
    matrices ``((-a, 1), (-1, 0))`` of ``a_0, ..., a_n``, in order."""
    (p, q), (r, s) = (1, 0), (0, 1)
    for a in coeffs:
        p, q, r, s = -a * p - q, p, -a * r - s, r
    return Fraction(p, r)


# ---------------------------------------------------------------------------
# Continued fractions on Fraction values, end slopes by 2 x 2 products.

def neg_cfrac_by_fractions(r) -> tuple[int, ...]:
    """Coefficients of ``r < -1``: take ``a = -ceil(-r)``, go on with
    ``1/(a - r)`` until ``r`` is an integer."""
    r = Fraction(r)
    coeffs = []
    while True:
        a = -math.ceil(-r)
        coeffs.append(a)
        if r == a:
            return tuple(coeffs)
        r = 1 / (a - r)


def int_mat_mul(x, y):
    return (
        (
            x[0][0] * y[0][0] + x[0][1] * y[1][0],
            x[0][0] * y[0][1] + x[0][1] * y[1][1],
        ),
        (
            x[1][0] * y[0][0] + x[1][1] * y[1][0],
            x[1][0] * y[0][1] + x[1][1] * y[1][1],
        ),
    )


def int_mat_inv_unimodular(x):
    (a, b), (c, d) = x
    if a * d - b * c != 1:
        raise ValueError("gluing matrices must have determinant 1")
    return ((d, -b), (-c, a))


def end_slopes_by_gluing(coeffs) -> list[Fraction]:
    """The meridian direction ``1/0`` read through the running product of
    the inverse gluing matrices of ``a_0, ..., a_i``, for every ``i``."""
    acc = ((1, 0), (0, 1))
    out = []
    for a in coeffs:
        acc = int_mat_mul(acc, int_mat_inv_unimodular(gluing_matrix(a)))
        out.append(Fraction(acc[0][0], acc[1][0]))
    return out


# ---------------------------------------------------------------------------
# dataclasses twins of the record classes
#
# Each record class of the package as a frozen dataclass: the same fields,
# defaults, normalisation and checks, with everything else generated by
# dataclasses.  A twin's __qualname__ is its record's, so their reprs match.

RECORD_TWINS: dict[type, type] = {}


def _twin_of(record):
    def register(twin):
        twin.__qualname__ = record.__qualname__
        RECORD_TWINS[record] = twin
        return twin

    return register


@_twin_of(BraidWord)
@dataclasses.dataclass(frozen=True)
class BraidWordTwin:
    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.strands < 2:
            raise BraidError(f"need at least 2 strands, got {self.strands}")
        object.__setattr__(self, "letters", tuple(self.letters))
        for x in self.letters:
            if not 1 <= abs(x) <= self.strands - 1:
                raise BraidError(
                    f"generator index {abs(x)} out of range for {self.strands} strands"
                )


@_twin_of(braid_mod.ComponentPartition)
@dataclasses.dataclass(frozen=True)
class ComponentPartitionTwin:
    permutation: tuple[int, ...]
    component_of: tuple[int, ...]
    cycle_type: tuple[int, ...]


@_twin_of(braid_mod.CrossingStats)
@dataclasses.dataclass(frozen=True)
class CrossingStatsTwin:
    c_plus: int
    c_minus: int
    per_component: tuple[tuple[int, int], ...]
    inter_negative: tuple[tuple[int, ...], ...]
    d_minus: tuple[int, ...]
    linking: tuple[tuple[int, ...], ...]
    axis_linking: tuple[int, ...]


@_twin_of(braid_mod.HypothesisReport)
@dataclasses.dataclass(frozen=True)
class HypothesisReportTwin:
    is_knot: bool
    cond_tb: bool
    cond_parity: bool
    per_component_cond: tuple[bool, ...]
    hyperbolicity: str = "unknown"


@_twin_of(cfrac_mod.NegContFrac)
@dataclasses.dataclass(frozen=True)
class NegContFracTwin:
    coeffs: tuple[int, ...]
    value: Fraction

    def __post_init__(self):
        if not self.coeffs:
            raise CFracError("empty coefficient list")
        if any(a > -2 for a in self.coeffs):
            raise CFracError(f"coefficients must be <= -2, got {list(self.coeffs)}")


@_twin_of(cfrac_mod.SlopeVector)
@dataclasses.dataclass(frozen=True)
class SlopeVectorTwin:
    slopes: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "slopes", tuple(Fraction(s) for s in self.slopes))


@_twin_of(surgery_mod.SurgeryComponent)
@dataclasses.dataclass(frozen=True)
class SurgeryComponentTwin:
    kind: str
    framing: object
    component: int | None = None
    parent: int | None = None
    depth: int | None = None

    def __post_init__(self):
        if self.kind not in ("braid", "meridian", "chain", "axis"):
            raise SurgeryError(f"unknown component kind {self.kind!r}")
        if not isinstance(self.framing, surgery_mod._Infinity):
            object.__setattr__(self, "framing", Fraction(self.framing))


@_twin_of(surgery_mod.SurgeryDiagram)
@dataclasses.dataclass(frozen=True)
class SurgeryDiagramTwin:
    braid: BraidWord
    components: tuple

    def __post_init__(self):
        ncomp = len(crossing_stats(self.braid).axis_linking)
        for c in self.components:
            if c.kind == "braid" and not 1 <= (c.component or 0) <= ncomp:
                raise SurgeryError(
                    f"braid component index {c.component} out of range"
                )
            if c.parent is not None and not 0 <= c.parent < len(self.components):
                raise SurgeryError(f"parent index {c.parent} out of range")


@_twin_of(surgery_mod.HomologyReport)
@dataclasses.dataclass(frozen=True)
class HomologyReportTwin:
    det: int
    h1_order: int
    elementary_divisors: tuple[int, ...]
    free_rank: int
    signature: int
    euler_char: int


@_twin_of(legendrian_mod.LegendrianComponent)
@dataclasses.dataclass(frozen=True)
class LegendrianComponentTwin:
    tb: int
    rot: int
    cusps: int
    stab_pos: int = 0
    stab_neg: int = 0

    def __post_init__(self):
        if self.cusps < 0 or self.cusps % 2:
            raise LegendrianError(f"cusp count must be even and >= 0, got {self.cusps}")
        if self.stab_pos < 0 or self.stab_neg < 0:
            raise LegendrianError("stabilization counts must be >= 0")


@_twin_of(legendrian_mod.WeinsteinDiagram)
@dataclasses.dataclass(frozen=True)
class WeinsteinDiagramTwin:
    base: object
    legendrian: tuple
    rotation_tuple: tuple[int, ...]

    def __post_init__(self):
        if len(self.legendrian) != len(self.base.components):
            raise LegendrianError("one Legendrian component per diagram component")


@_twin_of(legendrian_mod.ThetaReport)
@dataclasses.dataclass(frozen=True)
class ThetaReportTwin:
    c1_squared: Fraction
    chi: int
    sigma: int
    theta: Fraction
    h1_order: int
    complete_invariant: bool


@_twin_of(limits_mod.CoeffStream)
@dataclasses.dataclass(frozen=True)
class CoeffStreamTwin:
    prefix: tuple[int, ...] = ()
    cycle: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "cycle", tuple(self.cycle))
        if not self.prefix and not self.cycle:
            raise LimitsError("empty coefficient stream")
        if any(a > -2 for a in self.prefix + self.cycle):
            raise LimitsError("stream coefficients must be <= -2")


@_twin_of(limits_mod.SignTuple)
@dataclasses.dataclass(frozen=True)
class SignTupleTwin:
    prefix: tuple[int, ...] = ()
    tail: str = "ones"
    tail_pattern: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "tail_pattern", tuple(self.tail_pattern))
        if self.tail not in ("ones", "max", "periodic"):
            raise LimitsError(f"unknown tail rule {self.tail!r}")
        if self.tail == "periodic" and not self.tail_pattern:
            raise LimitsError("periodic tail needs a nonempty pattern")
        if self.tail != "periodic" and self.tail_pattern:
            raise LimitsError("only periodic tails carry a pattern")


@_twin_of(limits_mod.BlockDecomposition)
@dataclasses.dataclass(frozen=True)
class BlockDecompositionTwin:
    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for length, positives in self.blocks:
            if not 0 <= positives <= length:
                raise LimitsError(
                    f"block ({length}, {positives}) has more positives than slices"
                )


# ---------------------------------------------------------------------------
# The command-line grammar as an argparse parser, the oracle of
# ``braidsurgery.argv``.


class _Parser(argparse.ArgumentParser):
    """Raises :class:`UsageError` where argparse would print usage and exit 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="braidsurgery",
        description="Braid closures, surgery diagrams, and Legendrian enumeration",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument(
            "--table", action="store_true", help="key = value lines instead of JSON"
        )

    p = sub.add_parser("analyze", help="crossing statistics and hypothesis checks")
    p.add_argument("braid")
    p.add_argument("--assert-hyperbolic", action="store_true")
    common(p)

    p = sub.add_parser("cfrac", help="negative continued fraction expansion")
    p.add_argument("value", help="rational below -1, or a slope in (0, 1)")
    common(p)

    p = sub.add_parser("surgery", help="expand a rational surgery to integral form")
    p.add_argument("braid")
    p.add_argument("--slopes", required=True, help="comma-separated positive slopes")
    p.add_argument("--general", action="store_true", help="chain form for 1/n too")
    common(p)

    p = sub.add_parser("enumerate", help="count and stream decorated diagrams")
    p.add_argument("braid")
    p.add_argument("--slopes", required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--isom-order", type=int, default=None, metavar="C")
    common(p)

    p = sub.add_parser("theta", help="plane-field invariant of decorated diagrams")
    p.add_argument("braid")
    p.add_argument("--slope", required=True, help="slope, or comma list for links")
    p.add_argument("--tuple", default=None, help="comma-separated 1-based menu picks")
    common(p)

    p = sub.add_parser("limits", help="block model of the limiting end")
    p.add_argument("--coeffs", default=None, help="comma-separated prefix, all <= -2")
    p.add_argument("--cycle", default=None, help="periodic continuation")
    p.add_argument("--tuple-prefix", default=None)
    p.add_argument("--tail", default=limits_mod.TAIL_ONES, help="ones | max | periodic:<list>")
    p.add_argument("-n", "--levels", type=int, default=0)
    p.add_argument("--braid", default=None)
    common(p)

    p = sub.add_parser("family", help="braid and diagram generators")
    p.add_argument("kind", choices=["delta2l", "power", "example420", "lspace"])
    p.add_argument("--braid", default=None)
    p.add_argument("-k", type=int, default=None)
    p.add_argument("-l", "--ell", type=int, default=None)
    p.add_argument("--strands", type=int, default=None)
    common(p)

    return parser
