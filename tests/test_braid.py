import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidsurgery import braid as B
from oracles import (
    burau3,
    burau3_is_identity,
    floor_at_least_by_probes,
    handle_reduce_rescan,
    parse_braid_per_token,
)


def word(strands, *letters):
    return B.BraidWord(strands, tuple(letters))


words3 = st.lists(
    st.sampled_from([1, -1, 2, -2]), min_size=0, max_size=14
).map(lambda ls: word(3, *ls))


# -- parsing and formatting -------------------------------------------------

def test_parse_expands_exponents():
    w = B.parse_braid("B3 s1^3 s2^-1")
    assert w.strands == 3
    assert len(w) == 4
    assert w.c_plus == 3 and w.c_minus == 1
    assert w.letters == (1, 1, 1, -2)


def test_parse_identity_word():
    w = B.parse_braid("B2")
    assert w.strands == 2 and len(w) == 0


@pytest.mark.parametrize(
    "text", ["B3 s3", "s1 s2", "B3 sx", "B3 s1^0", "B1 s1", "B3 s0"]
)
def test_parse_rejects(text):
    with pytest.raises(B.BraidError):
        B.parse_braid(text)


@given(words3)
def test_format_round_trips(w):
    assert B.parse_braid(B.format_braid(w)) == w


# Braid texts for the parse property: a header, then tokens drawn with
# repeats from a pool of a few valid and at most one bad token (malformed,
# out of range for some headers, zero exponent, a digit run past Python's
# int-to-str limit), with Unicode digits, exponents whose sum can pass
# MAX_WORD_LENGTH and Unicode whitespace (and one non-space, U+200B)
# between tokens.
LONG = "9" * 5000
GOOD_HEADERS = ["B2", "B3", "B5", "B\u0663", "B03"]
BAD_HEADERS = ["B1", "Bx", "B" + LONG, "B1000001", ""]
VALID_TOKENS = [
    "s1", "s2", "s4", "s1^1", "s1^-1", "s2^3", "s2^-3", "s01", "s1^-01",
    "s\u0661", "s2^-\u0663", "s1^400000", "s2^-400000",
]
BAD_TOKENS = [
    "s0", "s3", "s5", "s1^0", "s1^-0", "s2^00", "sx", "s1^", "s1^+1", "s-1",
    "S1", "s1^1^1", "s1\u200b", "s" + LONG, "s1^" + LONG, "s1^-" + LONG,
    "s1^1000001",
]
SEPARATORS = [" ", "  ", "\t", "\n", "\x1c", "\xa0", "\u2003", "\u3000"]


@st.composite
def braid_texts(draw):
    pool = draw(st.lists(st.sampled_from(VALID_TOKENS), min_size=1, max_size=4))
    if draw(st.booleans()):
        pool.append(draw(st.sampled_from(BAD_TOKENS)))
    headers = BAD_HEADERS if draw(st.integers(0, 4)) == 4 else GOOD_HEADERS
    parts = [draw(st.sampled_from(headers))]
    parts += draw(st.lists(st.sampled_from(pool), max_size=12))
    n = len(parts) + 1
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=n, max_size=n))
    return seps[0] + "".join(part + sep for part, sep in zip(parts, seps[1:]))


def _parsed_or_message(parse, text):
    try:
        return parse(text)
    except B.BraidError as error:
        return str(error)


@given(braid_texts())
@settings(max_examples=300, deadline=None)
def test_parse_matches_the_per_token_oracle(text):
    assert _parsed_or_message(B.parse_braid, text) == (
        _parsed_or_message(parse_braid_per_token, text)
    )


def test_parse_reads_each_distinct_token_once(monkeypatch):
    read = []
    read_token = B._read_token

    def counted(tok, pos, strands):
        read.append(tok)
        return read_token(tok, pos, strands)

    monkeypatch.setattr(B, "_read_token", counted)
    w = B.parse_braid("B3 s1 s2^-1 s1 s1 s2^-1 s01 s1^2")
    assert w.letters == (1, -2, 1, 1, -2, 1, 1, 1)
    assert read == ["s1", "s2^-1", "s01", "s1^2"]


def test_format_merges_runs():
    assert B.format_braid(word(3, 1, 1, 1, -2, 2, 2)) == "B3 s1^3 s2^-1 s2^2"


# -- permutations and crossing statistics -----------------------------------

def test_permutation_examples():
    p = B.permutation(B.parse_braid("B3 s1^3 s2^-1"))
    assert p.cycle_type == (3,) and p.is_knot
    p = B.permutation(B.parse_braid("B4"))
    assert p.permutation == (1, 2, 3, 4) and p.num_components == 4
    p = B.permutation(word(2, 1, 1))
    assert p.permutation == (1, 2) and p.num_components == 2


def test_components_numbered_by_smallest_position():
    p = B.permutation(word(4, 2, 2))  # strands 2,3 swap twice; all fixed
    assert p.component_of == (1, 2, 3, 4)
    p = B.permutation(word(3, 2))
    assert p.component_of == (1, 2, 2)


def test_crossing_stats_hopf_link():
    stats = B.crossing_stats(word(2, 1, 1))
    assert stats.per_component == ((0, 0), (0, 0))
    assert stats.linking == ((0, 1), (1, 0))
    assert stats.d_minus == (0, 0)
    assert stats.axis_linking == (1, 1)


def test_crossing_stats_single_component():
    stats = B.crossing_stats(B.parse_braid("B3 s1^3 s2^-1"))
    assert stats.per_component == ((3, 1),)
    assert stats.d_minus == (0,)
    assert stats.axis_linking == (3,)


def test_negative_hopf_linking():
    stats = B.crossing_stats(word(2, -1, -1))
    assert stats.linking == ((0, -1), (-1, 0))
    assert stats.d_minus == (2, 2)
    assert stats.inter_negative == ((0, 2), (2, 0))


@given(words3)
def test_linking_matrix_symmetric_integer(w):
    stats = B.crossing_stats(w)
    n = len(stats.axis_linking)
    for i in range(n):
        for j in range(n):
            assert stats.linking[i][j] == stats.linking[j][i]
            assert isinstance(stats.linking[i][j], int)
    # every letter is attributed exactly once:
    # self crossings + positive inter (2*lk + d_-) + negative inter (d_-)
    total_self = sum(cp + cm for cp, cm in stats.per_component)
    pos_inter = sum(
        2 * stats.linking[i][j] + stats.inter_negative[i][j]
        for i in range(n)
        for j in range(i + 1, n)
    )
    neg_inter = sum(
        stats.inter_negative[i][j] for i in range(n) for j in range(i + 1, n)
    )
    assert total_self + pos_inter + neg_inter == len(w)


def test_doubling_pure_braid_doubles_linking():
    rng = random.Random(7)
    for _ in range(30):
        m = rng.choice([2, 3, 4])
        letters = []
        for _ in range(rng.randint(1, 5)):
            g = rng.randint(1, m - 1)
            s = rng.choice([2, -2])
            letters.extend([g if s > 0 else -g] * 2)
        w = B.BraidWord(m, tuple(letters))
        assert B.permutation(w).permutation == tuple(range(1, m + 1))
        single = B.crossing_stats(w)
        double = B.crossing_stats(B.compose(w, w))
        for i in range(m):
            for j in range(m):
                assert double.linking[i][j] == 2 * single.linking[i][j]


# -- half twist and word arithmetic -----------------------------------------

@pytest.mark.parametrize("m,n", [(2, 1), (3, 3), (4, 6), (5, 10)])
def test_garside_length(m, n):
    w = B.garside(m)
    assert len(w) == n == m * (m - 1) // 2
    assert w.c_minus == 0


def test_garside_three_strands():
    assert B.garside(3).letters == (1, 2, 1)


def test_garside_rejects_small():
    with pytest.raises(B.BraidError):
        B.garside(1)


def test_word_length_cap(monkeypatch):
    monkeypatch.setattr(B, "MAX_WORD_LENGTH", 6)
    assert len(B.parse_braid("B3 s1^4 s2^-2")) == 6
    assert len(B.power(B.parse_braid("B2 s1^2"), -3)) == 6
    assert len(B.garside(4)) == 6
    with pytest.raises(B.BraidError, match="B3 word would have 7 letters, cap 6"):
        B.parse_braid("B3 s1^4 s2^-3")
    with pytest.raises(B.BraidError, match="power -4 of a 2-letter word would have 8"):
        B.power(B.parse_braid("B2 s1^2"), -4)
    with pytest.raises(B.BraidError, match="half twist on 5 strands would have 10"):
        B.garside(5)


def test_strand_cap(monkeypatch):
    monkeypatch.setattr(B, "MAX_WORD_LENGTH", 6)
    assert B.parse_braid("B6 s5").strands == 6
    with pytest.raises(B.BraidError, match="braid on 7 strands, cap 6"):
        B.parse_braid("B7 s1")
    # B3 s1: 2 components, 4 table entries; B4 s1: 3 components, 9 entries
    assert len(B.crossing_stats(B.parse_braid("B3 s1")).linking) == 2
    with pytest.raises(
        B.BraidError,
        match="closure has 3 components; its 3x3 crossing tables exceed cap 6",
    ):
        B.crossing_stats(B.parse_braid("B4 s1"))


def test_compose_power_inverse():
    w = word(2, 1)
    assert B.power(w, 2).letters == (1, 1)
    assert B.power(w, -2).letters == (-1, -1)
    assert B.inverse(word(3, 1, -2)).letters == (2, -1)
    with pytest.raises(B.BraidError):
        B.compose(word(2, 1), word(3, 1))


def test_delta_squared_times_adds_positive_letters():
    w = B.parse_braid("B3 s1^3 s2^-1")
    for ell in (1, 2, 3):
        out = B.delta_squared_times(w, ell)
        assert len(out) == len(w) + 2 * ell * 3
        assert out.c_plus == w.c_plus + ell * 6
        assert out.c_minus == w.c_minus
        stats = B.crossing_stats(out)
        assert stats.c_plus == w.c_plus + ell * 6


# -- handle reduction and the word problem ----------------------------------

def test_braid_relation_trivial():
    w = B.parse_braid("B3 s1 s2 s1 s2^-1 s1^-1 s2^-1")
    assert B.is_trivial(w)


def test_far_commutation_trivial():
    w = B.parse_braid("B4 s1 s3 s1^-1 s3^-1")
    assert B.is_trivial(w)


def test_delta_squared_central():
    for m in (2, 3, 4):
        d2 = B.power(B.garside(m), 2)
        for g in range(1, m):
            gen = word(m, g)
            conj = B.compose(
                B.compose(d2, gen), B.inverse(B.compose(gen, d2))
            )
            assert B.is_trivial(conj)


def test_nontrivial_words_detected():
    assert not B.is_trivial(B.parse_braid("B3 s1^3 s2^-1"))
    assert not B.is_trivial(word(2, 1))
    assert not B.is_trivial(word(3, 1, -2))


@given(words3)
@settings(max_examples=150, deadline=None)
def test_reduction_agrees_with_burau(w):
    # the reduced Burau representation is faithful on three strands
    assert B.is_trivial(w) == burau3_is_identity(w.letters)


def test_burau_oracle_sees_the_relation():
    assert burau3_is_identity([1, 2, 1, -2, -1, -2])
    assert not burau3_is_identity([1])
    assert burau3([1, 2, 1]) == burau3([2, 1, 2])


@given(words3)
@settings(max_examples=100, deadline=None)
def test_reduction_preserves_permutation_and_exponent(w):
    reduced = B.handle_reduce(w)
    assert B.permutation(reduced).permutation == B.permutation(w).permutation
    assert reduced.exponent_sum == w.exponent_sum


@given(words3)
@settings(max_examples=100, deadline=None)
def test_word_times_inverse_is_trivial(w):
    assert B.is_trivial(B.compose(w, B.inverse(w)))


def test_exponent_sum_obstruction_in_b2():
    # the two-strand group is infinite cyclic: triviality == zero exponent sum
    rng = random.Random(11)
    for _ in range(60):
        letters = tuple(rng.choice([1, -1]) for _ in range(rng.randint(0, 12)))
        w = B.BraidWord(2, letters)
        assert B.is_trivial(w) == (w.exponent_sum == 0)


def test_budget_cap_raises():
    w = B.power(B.parse_braid("B4 s1 s2 s3 s1^-1 s2^-1 s3^-1"), 6)
    with pytest.raises(B.ReductionBudgetExceeded) as info:
        B.handle_reduce(w, max_steps=2)
    assert str(info.value) == (
        "no reduced form within 2 handle reductions"
        " (4 strands, input 36 letters, word now 36 letters)"
    )


def test_letters_moved_cap_raises(monkeypatch):
    # The handle s1 s2^4 s1^-1 moves 3 letters back per s2; nothing else moves.
    w = B.parse_braid("B3 s1 s2^4 s1^-1")
    monkeypatch.setattr(B, "MAX_LETTERS_MOVED", 12)
    assert B.format_braid(B.handle_reduce(w)) == "B3 s2^-1 s1^4 s2"
    monkeypatch.setattr(B, "MAX_LETTERS_MOVED", 11)
    with pytest.raises(B.ReductionBudgetExceeded) as info:
        B.handle_reduce(w)
    assert str(info.value) == (
        "handle reductions moved 12 letters back, cap 11"
        " (3 strands, input 6 letters, 1 reductions)"
    )


def signed_letters(gens, max_size):
    letter = st.sampled_from(gens).flatmap(lambda g: st.sampled_from([g, -g]))
    return st.lists(letter, max_size=max_size)


@st.composite
def reducer_cases(draw):
    """Mixed-sign words on 2..6 strands, mostly with one generator index
    that occurs only in a short run at the far left."""
    m = draw(st.integers(2, 6))
    if m > 2 and draw(st.integers(0, 2)):
        k = draw(st.integers(1, m - 1))
        head = draw(st.lists(st.sampled_from([k, -k]), min_size=1, max_size=3))
        others = [g for g in range(1, m) if g != k]
        letters = head + draw(signed_letters(others, 57))
    else:
        letters = draw(signed_letters(list(range(1, m)), 60))
    return B.BraidWord(m, tuple(letters)), draw(st.integers(0, 12))


def _reduce_or_overrun(reducer, w, max_steps):
    try:
        return reducer(w, max_steps).letters
    except B.ReductionBudgetExceeded:
        return "overrun"


@given(reducer_cases())
@settings(max_examples=300, deadline=None)
def test_reduction_matches_rescanning_oracle(case):
    w, small_budget = case
    for max_steps in (small_budget, 20_000):
        assert _reduce_or_overrun(B.handle_reduce, w, max_steps) == (
            _reduce_or_overrun(handle_reduce_rescan, w, max_steps)
        )


@st.composite
def high_index_words(draw):
    """Words on up to 40 strands over a window of at most four adjacent
    generators anywhere in range, so handles at a high index i have
    interiors both shorter and longer than i - 1."""
    m = draw(st.integers(3, 40))
    lo = draw(st.integers(1, m - 1))
    hi = draw(st.integers(lo, min(lo + 3, m - 1)))
    return B.BraidWord(m, tuple(draw(signed_letters(list(range(lo, hi + 1)), 40))))


@given(high_index_words())
@settings(max_examples=300, deadline=None)
def test_high_index_reduction_matches_rescanning_oracle(w):
    assert _reduce_or_overrun(B.handle_reduce, w, 20_000) == (
        _reduce_or_overrun(handle_reduce_rescan, w, 20_000)
    )


def _lines_run_in_braid(fn, *args) -> int:
    """Line events executed in ``braid.py`` while ``fn(*args)`` runs."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if frame.f_code.co_filename != B.__file__:
            return None
        count += event == "line"
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


def test_short_handles_are_checked_in_constant_work():
    # Checking the i - 1 lower stacks would cost 575 steps per handle at
    # s576; a short interior decides in the same steps at any index.
    def work(*letters):
        return _lines_run_in_braid(B.handle_reduce, B.BraidWord(578, letters * 10))

    assert work(576, -576) == work(1, -1)
    assert work(576, 577, -576) == work(300, 301, -300)


def test_reduction_is_linear_when_an_index_occurs_only_far_left():
    # s1 . u u^-1 with u over s2..s4: every reduction is a cancellation
    # at the middle, so rescanning from index 0 is quadratic here
    rng = random.Random(4)
    u = [rng.choice([2, 3, 4]) for _ in range(20_000)]
    w = B.BraidWord(5, tuple([1] + u + [-x for x in reversed(u)]))
    assert len(w) == 40_001
    assert B.format_braid(B.handle_reduce(w)) == "B5 s1"


def test_sigma_signs():
    assert B.is_sigma_positive(word(2, 1))
    assert B.is_sigma_negative(word(2, -1))
    assert not B.is_sigma_positive(word(2, 1, -1))
    assert not B.is_sigma_negative(word(2, 1, -1))
    # lowest index wins: s1 positive beats s2 negative
    assert B.is_sigma_positive(word(3, 1, -2))


# -- Dehornoy floor probe ----------------------------------------------------

def test_floor_probe_delta_powers():
    d6 = B.power(B.garside(3), 6)
    assert B.dehornoy_floor_at_least(d6, 3)
    assert B.dehornoy_floor_at_least(d6, 2)
    assert not B.dehornoy_floor_at_least(d6, 4)


def test_floor_probe_small_braid():
    assert not B.dehornoy_floor_at_least(word(2, 1), 1)
    assert B.dehornoy_floor_at_least(word(2, 1), 0)


def test_floor_probe_symmetric_under_inverse():
    d6 = B.power(B.garside(3), 6)
    assert B.dehornoy_floor_at_least(B.inverse(d6), 3)


@given(words3, st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_floor_probe_monotone(w, d):
    if B.dehornoy_floor_at_least(w, d):
        assert B.dehornoy_floor_at_least(w, d - 1)


def half_twisted(words):
    """A word after a power -8..8 of the half twist, so floors up to 3 occur."""
    return st.tuples(words, st.integers(-8, 8)).map(
        lambda t: B.compose(B.power(B.garside(t[0].strands), t[1]), t[0])
    )


@given(half_twisted(st.one_of(words3, reducer_cases().map(lambda case: case[0]))))
@settings(max_examples=150, deadline=None)
def test_floors_from_one_reduction_match_the_probes(w):
    expected = {d: floor_at_least_by_probes(w, d) for d in (1, 2, 3)}
    assert B.dehornoy_floors(w) == expected
    assert {d: B.dehornoy_floor_at_least(w, d) for d in (1, 2, 3)} == expected


@st.composite
def trivial_words(draw):
    """``u u^-1`` on up to 40 strands."""
    m = draw(st.integers(2, 40))
    u = draw(signed_letters(list(range(1, m)), 20))
    return B.BraidWord(m, tuple(u + [-x for x in reversed(u)]))


@given(trivial_words())
@settings(max_examples=100, deadline=None)
def test_floors_of_trivial_words_match_the_probes(w):
    expected = {d: floor_at_least_by_probes(w, d) for d in (1, 2, 3)}
    assert expected == {1: False, 2: False, 3: False}
    assert B.dehornoy_floors(w) == expected
    assert {d: B.dehornoy_floor_at_least(w, d) for d in (1, 2, 3)} == expected


def test_floor_probes_of_a_trivial_word_reduce_only_the_word(monkeypatch):
    reduced = []
    handle_reduce = B.handle_reduce

    def spy(word, max_steps=B.DEFAULT_STEP_BUDGET):
        reduced.append(len(word))
        return handle_reduce(word, max_steps)

    monkeypatch.setattr(B, "handle_reduce", spy)
    w = B.parse_braid("B577 s576^3 s1 s1^-1 s576^-3")
    assert B.dehornoy_floors(w) == {1: False, 2: False, 3: False}
    assert not B.dehornoy_floor_at_least(w, 3)
    assert reduced == [8, 8]


def test_floor_probe_rejects_negative():
    with pytest.raises(B.BraidError):
        B.dehornoy_floor_at_least(word(2, 1), -1)


# -- hypothesis report -------------------------------------------------------

def test_hypothesis_seven_positive():
    rep = B.check_hypothesis(B.parse_braid("B3 s1^7 s2^-1"))
    assert rep.is_knot and rep.cond_tb and rep.cond_parity
    assert rep.per_component_cond == (True,)
    assert rep.hyperbolicity == "unknown"


def test_hypothesis_three_positive_fails_tb():
    rep = B.check_hypothesis(B.parse_braid("B3 s1^3 s2^-1"))
    assert not rep.cond_tb


def test_hypothesis_b2_power_five():
    rep = B.check_hypothesis(B.parse_braid("B2 s1^5"), hyperbolic_asserted=True)
    assert rep.is_knot and rep.cond_tb and rep.cond_parity
    assert rep.hyperbolicity == "asserted"


@given(words3)
def test_knot_case_conditions_agree(w):
    rep = B.check_hypothesis(w)
    if rep.is_knot:
        assert rep.cond_tb == rep.per_component_cond[0]


# -- families ----------------------------------------------------------------

def test_square_knot_recipe():
    assert B.square_knot_recipe(word(3, 1, 2))  # 3-cycle squared is a 3-cycle
    assert not B.square_knot_recipe(word(4, 1, 2, 3))
    assert not B.square_knot_recipe(word(3, 1))  # transposition squares to id


def test_example_braid():
    assert B.example_braid(1).letters == (1, 1, 1, -2)
    assert B.example_braid(0).letters == (1, -2)
    assert B.example_braid(2).letters == (1, 1, 1, 1, 1, -2)
    with pytest.raises(B.BraidError):
        B.example_braid(-1)


def test_example_braid_checks_the_length_cap_first():
    # 2k + 2 letters: the cap is checked before the word is allocated.
    with pytest.raises(B.BraidError, match="would have 2000000000002 letters"):
        B.example_braid(10**12)


def test_relation_insertion_preserves_element():
    # words differing by one inserted relation or far commutation stay equal
    rng = random.Random(23)
    for _ in range(60):
        m = rng.choice([3, 4, 5])
        letters = [
            rng.choice([1, -1]) * rng.randint(1, m - 1)
            for _ in range(rng.randint(0, 8))
        ]
        pos = rng.randint(0, len(letters))
        if rng.random() < 0.5 or m < 4:
            g = rng.randint(1, m - 2)
            patch = [g, g + 1, g, -(g + 1), -g, -(g + 1)]
        else:
            g = rng.randint(1, m - 3)
            h = rng.randint(g + 2, m - 1)
            patch = [g, h, -g, -h]
        w1 = B.BraidWord(m, tuple(letters))
        w2 = B.BraidWord(m, tuple(letters[:pos] + patch + letters[pos:]))
        assert B.is_trivial(B.compose(w1, B.inverse(w2)))
        assert B.is_trivial(B.compose(w2, B.inverse(w1)))
