"""Block models for ends of open contact manifolds.

A coefficient stream (all entries <= -2, finite or eventually
periodic) determines a neck of continued-fraction blocks; an infinite
sign tuple with a finitely described tail picks the number of positive
basic slices in each block.  This module computes block
decompositions, shuffle normal forms, the dividing slope at each level
of the neck, the eventual sign of a tuple, and the proper-isotopy
classification (equal slope data and equal sign).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .cfrac import SlopeVector, convergents, eval_cfrac, neg_cfrac
from .record import Record


class LimitsError(ValueError):
    """Invalid stream/tuple data for the block model."""


TAIL_ONES = "ones"
TAIL_MAX = "max"
TAIL_PERIODIC = "periodic"

# Most levels, and most basic slices over those levels, that a block
# decomposition reads.  The end slope of every level and the normal form
# of every block are printed; together the caps keep each end slope under
# about 2,000 digits.
MAX_LEVELS = 1_000
MAX_SLICES = 100_000


class CoeffStream(Record):
    """Coefficients ``a_0, a_1, ...`` with all entries <= -2.

    ``cycle`` empty means the stream terminates with ``prefix``;
    otherwise the stream continues periodically, which keeps every
    eventual property decidable.
    """

    def __init__(self, prefix: tuple[int, ...] = (), cycle: tuple[int, ...] = ()):
        prefix, cycle = tuple(prefix), tuple(cycle)
        if not prefix and not cycle:
            raise LimitsError("empty coefficient stream")
        if any(a > -2 for a in prefix + cycle):
            raise LimitsError("stream coefficients must be <= -2")
        self._store(locals())

    @property
    def is_infinite(self) -> bool:
        return bool(self.cycle)

    def coeff(self, i: int) -> int:
        if i < len(self.prefix):
            return self.prefix[i]
        if not self.cycle:
            raise LimitsError(f"stream terminated before index {i}")
        return self.cycle[(i - len(self.prefix)) % len(self.cycle)]

    def coeffs(self, n: int) -> list[int]:
        """The first ``n + 1`` coefficients."""
        return [self.coeff(i) for i in range(n + 1)]

    def menu_size(self, i: int) -> int:
        return abs(self.coeff(i) + 1)

    def canonical(self) -> "CoeffStream":
        """Unique minimal preperiod and primitive cycle.

        Two streams describe the same sequence iff their canonical
        forms are equal; for infinite admissible streams this also
        decides equality of the limiting values.
        """
        prefix, cycle = list(self.prefix), list(self.cycle)
        if cycle:
            for d in range(1, len(cycle) + 1):
                if len(cycle) % d == 0 and cycle == cycle[:d] * (len(cycle) // d):
                    cycle = cycle[:d]
                    break
            while prefix and prefix[-1] == cycle[-1]:
                prefix.pop()
                cycle = [cycle[-1]] + cycle[:-1]
        return CoeffStream(tuple(prefix), tuple(cycle))


class SignTuple(Record):
    """Infinite tuple ``k_0, k_1, ...`` with ``1 <= k_i <= |a_i + 1|``.

    Entries past ``prefix`` follow the tail rule: all 1, all maximal
    for the menu at that index, or a repeating explicit pattern.
    """

    def __init__(
        self,
        prefix: tuple[int, ...] = (),
        tail: str = TAIL_ONES,
        tail_pattern: tuple[int, ...] = (),
    ):
        prefix, tail_pattern = tuple(prefix), tuple(tail_pattern)
        if tail not in (TAIL_ONES, TAIL_MAX, TAIL_PERIODIC):
            raise LimitsError(f"unknown tail rule {tail!r}")
        if tail == TAIL_PERIODIC and not tail_pattern:
            raise LimitsError("periodic tail needs a nonempty pattern")
        if tail != TAIL_PERIODIC and tail_pattern:
            raise LimitsError("only periodic tails carry a pattern")
        self._store(locals())

    def value(self, i: int, stream: CoeffStream) -> int:
        if i < len(self.prefix):
            return self.prefix[i]
        if self.tail == TAIL_ONES:
            return 1
        if self.tail == TAIL_MAX:
            return stream.menu_size(i)
        return self.tail_pattern[(i - len(self.prefix)) % len(self.tail_pattern)]

    def values(self, stream: CoeffStream, n: int) -> list[int]:
        return [self.value(i, stream) for i in range(n + 1)]

    def validate(self, stream: CoeffStream, through: int | None = None) -> None:
        """Check ``1 <= k_i <= |a_i + 1|`` explicitly up to ``through``
        and symbolically over one combined period of the tails."""
        end = self._symbolic_horizon(stream)[1] if through is None else through + 1
        for i in range(end):
            k = self.value(i, stream)
            if not 1 <= k <= stream.menu_size(i):
                raise LimitsError(
                    f"k_{i} = {k} outside menu of size {stream.menu_size(i)}"
                )

    def _symbolic_horizon(self, stream: CoeffStream) -> tuple[int, int]:
        """``(start, end)``: one combined period of both tails from where
        both prefixes have ended."""
        start = max(len(self.prefix), len(stream.prefix))
        if not stream.is_infinite:
            raise LimitsError("sign tuples need an infinite coefficient stream")
        period = lcm(
            len(stream.cycle),
            len(self.tail_pattern) if self.tail == TAIL_PERIODIC else 1,
        )
        return start, start + period


class BlockDecomposition(Record):
    """Per level: block length ``|a_i + 2|`` and positive slice count ``k_i - 1``."""

    def __init__(self, blocks: tuple[tuple[int, int], ...]):
        _check_blocks(blocks)
        self._store(locals())


def _check_blocks(blocks: tuple[tuple[int, int], ...]) -> None:
    for length, positives in blocks:
        if not 0 <= positives <= length:
            raise LimitsError(
                f"block ({length}, {positives}) has more positives than slices"
            )


def block_decomposition(stream: CoeffStream, k: SignTuple, n: int) -> BlockDecomposition:
    """First ``n + 1`` blocks of the decorated neck.

    An ``a_i = -2`` level yields an empty block and forces ``k_i = 1``.
    """
    if n < 0:
        raise LimitsError("level must be >= 0")
    if n > MAX_LEVELS:
        raise LimitsError(f"level {n} is over the cap {MAX_LEVELS}")
    k.validate(stream, through=n)
    blocks = []
    for i in range(n + 1):
        blocks.append((abs(stream.coeff(i) + 2), k.value(i, stream) - 1))
    slices = sum(length for length, _ in blocks)
    if slices > MAX_SLICES:
        raise LimitsError(f"levels 0..{n} hold {slices} basic slices, cap {MAX_SLICES}")
    return BlockDecomposition(tuple(blocks))


def shuffle_normal_form(b: BlockDecomposition) -> tuple[tuple[int, ...], ...]:
    """Per block, positives first: ``(+1)^p (-1)^(L-p)``.

    Two blocks are isotopic iff they share ``(L, p)``, so the normal
    form is a complete block invariant.
    """
    return tuple(
        (1,) * p + (-1,) * (length - p) for length, p in b.blocks
    )


def stabilization_to_slices(stab_signs) -> tuple[int, ...]:
    """Each stabilization contributes one basic slice of the same sign."""
    out = tuple(stab_signs)
    if any(s not in (1, -1) for s in out):
        raise LimitsError("stabilization signs must be +1 or -1")
    return out


def shuffle_class_count(length: int) -> int:
    """Isotopy classes of a block of given length: one per positive count."""
    if length < 0:
        raise LimitsError("block length must be >= 0")
    return length + 1


def gluing_matrix(a: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The level gluing ``((0, -1), (1, -a))``; always determinant 1.

    Its inverse ``((-a, 1), (-1, 0))`` acts on slopes as ``z -> a - 1/z``.
    """
    return ((0, -1), (1, -a))


def end_slopes(stream: CoeffStream, n: int) -> list[Fraction]:
    """Dividing slope of the level-``i`` torus for every ``i <= n``, in the
    end's reference basis.

    The reference slope at the outermost level is the meridian
    direction ``1/0``, normalized so that level 0 reads ``a_0``.  Pushing
    it through the inverse gluing matrices of levels ``i, ..., 0`` gives
    ``a_0 - 1/(a_1 - ... - 1/a_i)``, so the end slopes are the
    convergents of the stream.
    """
    if n < 0:
        raise LimitsError("level must be >= 0")
    return convergents(stream.coeffs(n), n)


def _eventual_flags(stream: CoeffStream, k: SignTuple) -> tuple[bool, bool]:
    """Whether ``k_i`` is eventually the menu maximum / eventually 1."""
    k.validate(stream)
    period = range(*k._symbolic_horizon(stream))
    plus_hold = all(k.value(i, stream) == stream.menu_size(i) for i in period)
    minus_hold = all(k.value(i, stream) == 1 for i in period)
    return plus_hold, minus_hold


def sign_of(stream: CoeffStream, k: SignTuple) -> str:
    """Eventual sign: ``plus``, ``minus`` or ``pm``.

    ``plus`` when ``k_i`` is eventually the menu maximum, ``minus``
    when eventually 1, ``pm`` otherwise.  Streams whose menus are
    eventually trivial satisfy both descriptions; they report ``plus``
    and compare equal among themselves, which is what the proper
    isotopy test needs.
    """
    plus_hold, minus_hold = _eventual_flags(stream, k)
    if plus_hold:
        return "plus"
    if minus_hold:
        return "minus"
    return "pm"


def properly_isotopic(
    r: CoeffStream, k: SignTuple, r2: CoeffStream, k2: SignTuple
) -> bool:
    """Classification of the limit structures: equal coefficient
    streams and tuples of the same sign."""
    if not (r.is_infinite and r2.is_infinite):
        raise LimitsError("proper isotopy compares infinite streams")
    if r.canonical() != r2.canonical():
        return False
    return sign_of(r, k) == sign_of(r2, k2)


def sign_tuple_to_dict(k: SignTuple) -> dict:
    """JSON form: ``{"prefix": [...], "tail": "ones" | "max" | {"periodic": [...]}}``."""
    tail: str | dict = k.tail
    if k.tail == TAIL_PERIODIC:
        tail = {"periodic": list(k.tail_pattern)}
    return {"prefix": list(k.prefix), "tail": tail}


def sign_tuple_from_dict(data: dict) -> SignTuple:
    tail = data.get("tail", TAIL_ONES)
    if isinstance(tail, dict):
        return SignTuple(
            prefix=tuple(data.get("prefix", ())),
            tail=TAIL_PERIODIC,
            tail_pattern=tuple(tail.get("periodic", ())),
        )
    return SignTuple(prefix=tuple(data.get("prefix", ())), tail=tail)


def truncation_consistency(
    word, stream: CoeffStream, k: SignTuple, n: int
) -> bool:
    """Does the truncated tuple index a valid enumeration element at level ``n``?

    Checks, for every level ``i <= n``: the tuple entry sits inside the
    menu of the chain framing ``a_i``, and the menu size matches the
    block class count ``L_i + 1``.  The truncated expansion must
    round-trip through the expansion algorithm, and the braid must
    satisfy the per-component crossing condition; the enumeration for
    the convergent slope then has exactly one diagram per admissible
    tuple.
    """
    from . import braid as braid_mod
    from . import legendrian

    coeffs = stream.coeffs(n)
    value = eval_cfrac(coeffs)
    slope = -1 / value
    if not 0 < slope < 1:
        return False
    if tuple(neg_cfrac(value).coeffs) != tuple(coeffs):
        return False
    report = braid_mod.check_hypothesis(word)
    if not (report.is_knot and all(report.per_component_cond)):
        return False
    for i in range(n + 1):
        menu = stream.menu_size(i)
        if shuffle_class_count(abs(stream.coeff(i) + 2)) != menu:
            return False
        if not 1 <= k.value(i, stream) <= menu:
            return False
    enum = legendrian.enumerate_weinstein(word, SlopeVector((slope,)))
    expected = 1
    for i in range(n + 1):
        expected *= stream.menu_size(i)
    return enum.count == expected
