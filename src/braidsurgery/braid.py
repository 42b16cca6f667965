"""Braid words and their closure combinatorics.

A braid word on ``m`` strands is a sequence of Artin generators
``s1 .. s(m-1)`` with signs.  This module provides:

* parsing / formatting of the ``B<m> s<g>^<e> ...`` text form,
* the permutation of a word and the component structure of its closure,
* crossing statistics per closure component (self crossings, negative
  inter-component crossings, linking numbers, axis winding),
* the word problem via handle reduction, with the derived sigma-order
  tests and the floor probe used to certify hyperbolicity hypotheses,
* the half-twist generator and the small braid families the rest of
  the pipeline feeds on.

Strand-tracking convention: letters act left to right on *positions*;
the letter ``(g, sign)`` crosses the strands currently occupying
positions ``g`` and ``g+1``.  Closure components are the cycles of the
resulting position permutation and are numbered by their smallest
position.
"""

from __future__ import annotations

import itertools
import re

from .record import Record


class BraidError(ValueError):
    """Malformed braid text or out-of-range braid data."""


class ReductionBudgetExceeded(RuntimeError):
    """Handle reduction hit its step or work cap before reaching a reduced word."""


# Default step budget for handle reduction.  Termination is guaranteed,
# but the known worst-case bound is exponential in word length; the cap
# exists so a pathological input fails loudly instead of spinning.
DEFAULT_STEP_BUDGET = 2_000_000

# Most letters one handle_reduce moves back onto the unscanned word; each
# is scanned again, so this bounds its work (about a second in CPython).
MAX_LETTERS_MOVED = 2_000_000

# Longest word parse_braid, power and garside build; BraidError beyond it.
# It also caps the strand count and the crossing tables of crossing_stats.
MAX_WORD_LENGTH = 1_000_000


def _check_length(length: int, what: str) -> None:
    if length > MAX_WORD_LENGTH:
        raise BraidError(f"{what} would have {length} letters, cap {MAX_WORD_LENGTH}")


def check_strands(strands: int) -> None:
    """Strand counts share the word-length cap: closures build per-strand lists."""
    if strands > MAX_WORD_LENGTH:
        raise BraidError(f"braid on {strands} strands, cap {MAX_WORD_LENGTH}")


class BraidWord(Record):
    """A word in the Artin generators of the braid group on ``strands`` strands.

    ``letters`` holds signed generator indices: ``+g`` for ``s<g>``,
    ``-g`` for its inverse, ``1 <= g <= strands - 1``.  The empty word
    is the identity braid.
    """

    def __init__(self, strands: int, letters: tuple[int, ...] = ()):
        if strands < 2:
            raise BraidError(f"need at least 2 strands, got {strands}")
        letters = tuple(letters)
        _check_letters(strands, letters)
        self._store(locals())

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def exponent_sum(self) -> int:
        return sum(1 if x > 0 else -1 for x in self.letters)

    @property
    def c_plus(self) -> int:
        return sum(1 for x in self.letters if x > 0)

    @property
    def c_minus(self) -> int:
        return sum(1 for x in self.letters if x < 0)


def _check_letters(strands: int, letters: tuple[int, ...]) -> None:
    for x in letters:
        if not 1 <= abs(x) <= strands - 1:
            raise BraidError(
                f"generator index {abs(x)} out of range for {strands} strands"
            )


class ComponentPartition(Record):
    """Cycle structure of the closure of a braid word.

    ``permutation[i]`` is the final position of the strand starting at
    position ``i`` (positions are 1-based).  ``component_of[i]`` is the
    1-based index of the closure component through position ``i``;
    components are numbered by smallest member position.
    """

    def __init__(
        self,
        permutation: tuple[int, ...],
        component_of: tuple[int, ...],
        cycle_type: tuple[int, ...],
    ):
        self._store(locals())

    @property
    def num_components(self) -> int:
        return len(self.cycle_type)

    @property
    def is_knot(self) -> bool:
        return self.num_components == 1


class CrossingStats(Record):
    """Crossing bookkeeping for a braid closure.

    ``per_component[i]`` is ``(c_plus, c_minus)`` counting self
    crossings of component ``i+1``.  ``inter_negative[i][j]`` counts
    negative crossings between components ``i+1`` and ``j+1``.
    ``linking[i][j]`` is half the signed inter-component crossing sum,
    asserted integral.  ``axis_linking[i]`` is the number of strands of
    component ``i+1``, i.e. its winding about the braid axis.
    """

    def __init__(
        self,
        c_plus: int,
        c_minus: int,
        per_component: tuple[tuple[int, int], ...],
        inter_negative: tuple[tuple[int, ...], ...],
        d_minus: tuple[int, ...],
        linking: tuple[tuple[int, ...], ...],
        axis_linking: tuple[int, ...],
    ):
        self._store(locals())


class HypothesisReport(Record):
    """Checkable surgery-hypothesis flags for a braid word.

    ``hyperbolicity`` is never computed here: it records whether the
    caller asserted it ("asserted") or left it open ("unknown").
    """

    def __init__(
        self,
        is_knot: bool,
        cond_tb: bool,
        cond_parity: bool,
        per_component_cond: tuple[bool, ...],
        hyperbolicity: str = "unknown",
    ):
        self._store(locals())

    @property
    def all_checkable(self) -> bool:
        return self.is_knot and self.cond_tb and self.cond_parity


_TOKEN = re.compile(r"^s(\d+)(?:\^(-?\d+))?$")


def _int(text: str, pos: int) -> int:
    """``int(text)`` for a matched digit run; one too long to convert is
    a parse error, not a crash."""
    try:
        return int(text)
    except ValueError:
        raise BraidError(f"number with {len(text)} digits at position {pos}") from None


def parse_braid(text: str) -> BraidWord:
    """Parse ``B<m> s<g>^<e> ...`` into a :class:`BraidWord`.

    Exponents expand into repeated letters carrying the exponent's
    sign; ``s<g>`` alone means exponent 1.  The strand count and the
    expanded length are checked against ``MAX_WORD_LENGTH`` before any
    letter is built.  Each distinct token text is read once; a bad one
    is reported at its first position.
    """
    tokens = text.split()
    if not tokens or not re.fullmatch(r"B(\d+)", tokens[0]):
        raise BraidError("missing strand header 'B<m>'")
    strands = _int(tokens[0][1:], 0)
    if strands < 2:
        raise BraidError(f"strand count must be >= 2, got {strands}")
    check_strands(strands)
    seen: dict[str, tuple[int, int]] = {}
    runs: list[tuple[int, int]] = []
    for pos, tok in enumerate(tokens[1:], start=1):
        run = seen.get(tok)
        if run is None:
            run = seen[tok] = _read_token(tok, pos, strands)
        runs.append(run)
    _check_length(sum(n for _, n in runs), f"B{strands} word")
    letters: list[int] = []
    for x, n in runs:
        if n == 1:
            letters.append(x)
        else:
            letters.extend(itertools.repeat(x, n))
    return BraidWord(strands, tuple(letters))


def _read_token(tok: str, pos: int, strands: int) -> tuple[int, int]:
    """The run ``(signed generator, count)`` of the token ``tok`` at ``pos``."""
    match = _TOKEN.match(tok)
    if match is None:
        raise BraidError(f"malformed token {tok!r} at position {pos}")
    gen_digits, exp_digits = match.groups()
    gen = _int(gen_digits, pos)
    exp = 1 if exp_digits is None else _int(exp_digits, pos)
    if not 1 <= gen <= strands - 1:
        raise BraidError(
            f"generator index {gen} out of range for {strands} strands"
            f" (token {pos})"
        )
    if exp == 0:
        raise BraidError(f"zero exponent in token {tok!r} at position {pos}")
    return (gen if exp > 0 else -gen, abs(exp))


def format_braid(word: BraidWord) -> str:
    """Canonical text form; ``parse_braid(format_braid(w)) == w``.

    Consecutive runs of the same signed generator merge into one
    ``s<g>^<e>`` token; a bare ``s<g>`` is used for exponent 1.
    """
    parts = [f"B{word.strands}"]
    for x, run in itertools.groupby(word.letters):
        exp = len(list(run)) * (1 if x > 0 else -1)
        parts.append(f"s{abs(x)}" if exp == 1 else f"s{abs(x)}^{exp}")
    return " ".join(parts)


def permutation(word: BraidWord) -> ComponentPartition:
    """Closure components of a braid word.

    Tracks which strand occupies each position while the letters act
    left to right, then reads off the position permutation and its
    cycles.
    """
    m = word.strands
    pos_to_strand = list(range(m + 1))  # index 0 unused
    for x in word.letters:
        g = abs(x)
        pos_to_strand[g], pos_to_strand[g + 1] = pos_to_strand[g + 1], pos_to_strand[g]
    perm = [0] * (m + 1)
    for pos in range(1, m + 1):
        perm[pos_to_strand[pos]] = pos
    component_of = [0] * (m + 1)
    cycle_type: list[int] = []
    comp = 0
    for start in range(1, m + 1):
        if component_of[start]:
            continue
        comp += 1
        size = 0
        cur = start
        while not component_of[cur]:
            component_of[cur] = comp
            size += 1
            cur = perm[cur]
        cycle_type.append(size)
    return ComponentPartition(
        permutation=tuple(perm[1:]),
        component_of=tuple(component_of[1:]),
        cycle_type=tuple(cycle_type),
    )


def crossing_stats(word: BraidWord) -> CrossingStats:
    """Attribute every crossing of a braid word to closure components.

    A letter acting at positions ``(g, g+1)`` crosses the two strands
    currently there; the crossing is a self crossing of component ``i``
    if both strands belong to ``i``, otherwise an inter-component
    crossing of ``{i, j}``.  Linking numbers are half the signed
    inter-component sums and are checked to be integers.
    """
    m = word.strands
    parts = permutation(word)
    ncomp = parts.num_components
    if ncomp * ncomp > MAX_WORD_LENGTH:
        raise BraidError(
            f"closure has {ncomp} components; its {ncomp}x{ncomp} crossing"
            f" tables exceed cap {MAX_WORD_LENGTH}"
        )
    comp_of = (0,) + parts.component_of  # 1-based strand -> component
    per_plus = [0] * (ncomp + 1)
    per_minus = [0] * (ncomp + 1)
    inter_minus = [[0] * (ncomp + 1) for _ in range(ncomp + 1)]
    signed_inter = [[0] * (ncomp + 1) for _ in range(ncomp + 1)]
    pos_to_strand = list(range(m + 1))
    for x in word.letters:
        g = abs(x)
        sign = 1 if x > 0 else -1
        a = pos_to_strand[g]
        b = pos_to_strand[g + 1]
        ca, cb = comp_of[a], comp_of[b]
        if ca == cb:
            if sign > 0:
                per_plus[ca] += 1
            else:
                per_minus[ca] += 1
        else:
            signed_inter[ca][cb] += sign
            signed_inter[cb][ca] += sign
            if sign < 0:
                inter_minus[ca][cb] += 1
                inter_minus[cb][ca] += 1
        pos_to_strand[g], pos_to_strand[g + 1] = b, a
    linking = [[0] * ncomp for _ in range(ncomp)]
    for i in range(1, ncomp + 1):
        for j in range(1, ncomp + 1):
            if i == j:
                continue
            if signed_inter[i][j] % 2:
                raise BraidError(
                    f"non-integral linking number between components {i}, {j}"
                )
            linking[i - 1][j - 1] = signed_inter[i][j] // 2
    return CrossingStats(
        c_plus=word.c_plus,
        c_minus=word.c_minus,
        per_component=tuple(
            (per_plus[i], per_minus[i]) for i in range(1, ncomp + 1)
        ),
        inter_negative=tuple(
            tuple(inter_minus[i][1:]) for i in range(1, ncomp + 1)
        ),
        d_minus=tuple(sum(inter_minus[i][1:]) for i in range(1, ncomp + 1)),
        linking=tuple(tuple(row) for row in linking),
        axis_linking=parts.cycle_type,
    )


def garside(m: int) -> BraidWord:
    """The positive half twist on ``m`` strands, length ``m(m-1)/2``."""
    if m < 2:
        raise BraidError(f"half twist needs at least 2 strands, got {m}")
    _check_length(m * (m - 1) // 2, f"half twist on {m} strands")
    letters: list[int] = []
    for k in range(m - 1, 0, -1):
        letters.extend(range(1, k + 1))
    return BraidWord(m, tuple(letters))


def compose(w1: BraidWord, w2: BraidWord) -> BraidWord:
    if w1.strands != w2.strands:
        raise BraidError(
            f"strand count mismatch: {w1.strands} vs {w2.strands}"
        )
    return BraidWord(w1.strands, w1.letters + w2.letters)


def inverse(word: BraidWord) -> BraidWord:
    return BraidWord(word.strands, tuple(-x for x in reversed(word.letters)))


def power(word: BraidWord, k: int) -> BraidWord:
    _check_length(len(word) * abs(k), f"power {k} of a {len(word)}-letter word")
    if k < 0:
        return power(inverse(word), -k)
    return BraidWord(word.strands, word.letters * k if word.letters else ())


def delta_squared_times(word: BraidWord, ell: int) -> BraidWord:
    """``Delta^(2*ell) * word``; full twists only add positive letters."""
    return compose(power(garside(word.strands), 2 * ell), word)


def handle_reduce(word: BraidWord, max_steps: int = DEFAULT_STEP_BUDGET) -> BraidWord:
    """Handle-free word representing the same braid element.

    Repeatedly reduces the first handle (the earliest-closing subword
    ``s_i^e ... s_i^-e`` whose interior only uses higher-index
    generators).  The first handle never contains another handle, which
    is the strategy with guaranteed termination.  One scan moves letters
    from ``rest`` to ``out`` and keeps a stack of ``out`` positions per
    generator index.  A reduction at ``s`` keeps the handle-free
    ``out[:s]``, pops the stack entry of every dropped letter and pushes
    the replacement back onto ``rest``, so the cost is linear in the
    letters scanned: the input plus the letters moved back.  A
    candidate at index ``i`` is checked on the shorter of its interior
    and the ``i - 1`` lower stacks, so a check that finds a handle reads
    at most the letters the reduction moves back.  Both
    budgets raise :class:`ReductionBudgetExceeded` rather than return a
    wrong answer: ``max_steps`` bounds the number of reductions and
    ``MAX_LETTERS_MOVED`` the letters moved back, the work that grows
    faster than the steps when handle interiors are long.
    """
    rest = list(reversed(word.letters))
    out: list[int] = []
    stacks: list[list[int]] = [[] for _ in range(word.strands)]
    steps = moved = 0
    while rest:
        x = rest.pop()
        i = abs(x)
        own = stacks[i]
        if own and (out[own[-1]] > 0) != (x > 0):
            s = own[-1]
            interior = len(out) - s - 1
            # A handle when no lower generator follows s.  As s tops stack
            # i, the interior holds none exactly when no lower stack tops
            # past s: read whichever of the two is shorter.
            if not interior or (
                all(abs(y) > i for y in out[s + 1 :])
                if interior < i - 1
                else all(not stacks[j] or stacks[j][-1] < s for j in range(1, i))
            ):
                steps += 1
                if steps > max_steps:
                    raise ReductionBudgetExceeded(
                        f"no reduced form within {max_steps} handle reductions"
                        f" ({word.strands} strands, input {len(word)} letters,"
                        f" word now {len(out) + 1 + len(rest)} letters)"
                    )
                e = 1 if out[s] > 0 else -1
                own.pop()
                moved -= len(rest)
                for y in reversed(out[s + 1 :]):
                    stacks[abs(y)].pop()
                    if abs(y) == i + 1:
                        d = 1 if y > 0 else -1
                        rest.extend([e * (i + 1), d * i, -e * (i + 1)])
                    else:
                        rest.append(y)
                moved += len(rest)
                if moved > MAX_LETTERS_MOVED:
                    raise ReductionBudgetExceeded(
                        f"handle reductions moved {moved} letters back, cap"
                        f" {MAX_LETTERS_MOVED} ({word.strands} strands, input"
                        f" {len(word)} letters, {steps} reductions)"
                    )
                del out[s:]
                continue
        own.append(len(out))
        out.append(x)
    return BraidWord(word.strands, tuple(out))


def is_trivial(word: BraidWord, max_steps: int = DEFAULT_STEP_BUDGET) -> bool:
    """Word problem: does the word represent the identity braid?"""
    return len(handle_reduce(word, max_steps)) == 0


def _main_sign(word: BraidWord, max_steps: int) -> int:
    """+1 / -1 when the reduced word uses its lowest generator only
    positively / only negatively, else 0 (the trivial braid among them).
    It is a property of the braid: every braid is exactly one of
    sigma-positive, sigma-negative or trivial."""
    reduced = handle_reduce(word, max_steps).letters
    if not reduced:
        return 0
    i = min(abs(x) for x in reduced)
    signs = {1 if x > 0 else -1 for x in reduced if abs(x) == i}
    return signs.pop() if len(signs) == 1 else 0


def is_sigma_positive(word: BraidWord, max_steps: int = DEFAULT_STEP_BUDGET) -> bool:
    """Does the reduced word use its lowest generator only positively?"""
    return _main_sign(word, max_steps) == 1


def is_sigma_negative(word: BraidWord, max_steps: int = DEFAULT_STEP_BUDGET) -> bool:
    return _main_sign(word, max_steps) == -1


def dehornoy_floor_at_least(
    word: BraidWord, d: int, max_steps: int = DEFAULT_STEP_BUDGET
) -> bool:
    """Sound check that the Dehornoy floor of the word is at least ``d``.

    The floor is the largest ``d >= 0`` with ``Delta^(2d)`` below the
    braid or below its inverse in the left order, so the probe passes
    when ``w * Delta^(-2d)`` or ``w^-1 * Delta^(-2d)`` fails to be
    sigma-negative.  ``d = 0`` always holds.
    """
    if d < 0:
        raise BraidError(f"floor probe needs d >= 0, got {d}")
    return d == 0 or _floor_probe(handle_reduce(word, max_steps), d, max_steps)


def _floor_probe(reduced: BraidWord, d: int, max_steps: int) -> bool:
    """The probe at ``d >= 1`` of a handle-free word.  Its inverse is
    handle-free too, so only the products with the full twists reduce.
    The empty word fails unbuilt: ``Delta^(-2d)`` is sigma-negative."""
    if not reduced.letters:
        return False
    shift = inverse(power(garside(reduced.strands), 2 * d))
    return any(
        _main_sign(compose(w, shift), max_steps) != -1
        for w in (reduced, inverse(reduced))
    )


def dehornoy_floors(word: BraidWord) -> dict[int, bool]:
    """:func:`dehornoy_floor_at_least` at depths 1, 2 and 3.

    The length of every probe's full twist power is checked first, so
    a probe over ``MAX_WORD_LENGTH`` raises its ``BraidError`` before any
    probe word is built or reduced.  The word is then reduced once, and
    every probe starts from that handle-free word: the sign each probe
    reads depends only on the braid.
    """
    half = word.strands * (word.strands - 1) // 2
    depths = (1, 2, 3)
    for d in depths:
        _check_length(half, f"half twist on {word.strands} strands")
        _check_length(half * 2 * d, f"power {2 * d} of a {half}-letter word")
    reduced = handle_reduce(word)
    return {d: _floor_probe(reduced, d, DEFAULT_STEP_BUDGET) for d in depths}


def check_hypothesis(
    word: BraidWord,
    hyperbolic_asserted: bool = False,
    stats: CrossingStats | None = None,
) -> HypothesisReport:
    """Evaluate the checkable surgery-hypothesis conditions.

    ``cond_tb`` is ``c+ - 2c- - m >= 1``, ``cond_parity`` is
    ``c+ + c- == m + 1 (mod 2)``, and the per-component condition is
    ``c_{i,+} - 2c_{i,-} - d_{i,-} - m_i >= 1``.  Hyperbolicity is
    recorded from the caller, never derived.  ``stats`` is the word's
    :func:`crossing_stats`, computed here when not passed.
    """
    if stats is None:
        stats = crossing_stats(word)
    m = word.strands
    per_cond = tuple(
        cp - 2 * cm - dm - mi >= 1
        for (cp, cm), dm, mi in zip(
            stats.per_component, stats.d_minus, stats.axis_linking
        )
    )
    return HypothesisReport(
        is_knot=len(stats.axis_linking) == 1,
        cond_tb=stats.c_plus - 2 * stats.c_minus - m >= 1,
        cond_parity=(stats.c_plus + stats.c_minus) % 2 == (m + 1) % 2,
        per_component_cond=per_cond,
        hyperbolicity="asserted" if hyperbolic_asserted else "unknown",
    )


def square_knot_recipe(word: BraidWord) -> bool:
    """True when ``strands`` is odd and the square of the word closes to a knot."""
    if word.strands % 2 == 0:
        return False
    return permutation(power(word, 2)).is_knot


def example_braid(k: int) -> BraidWord:
    """The two-bridge family ``s1^(2k+1) s2^-1`` on three strands."""
    if k < 0:
        raise BraidError(f"family parameter must be >= 0, got {k}")
    _check_length(2 * k + 2, f"example braid for k = {k}")
    return BraidWord(3, tuple([1] * (2 * k + 1) + [-2]))
