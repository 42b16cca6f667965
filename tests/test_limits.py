import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidsurgery import braid as B
from braidsurgery import limits as LM
from braidsurgery.cfrac import eval_cfrac
from oracles import (
    end_slope_from_scratch,
    end_slopes_by_gluing,
    int_mat_inv_unimodular,
    int_mat_mul,
)
from test_cfrac import chains


admissible_entries = st.integers(min_value=-7, max_value=-2)
streams = st.builds(
    LM.CoeffStream,
    st.lists(admissible_entries, min_size=0, max_size=6).map(tuple),
    st.lists(admissible_entries, min_size=1, max_size=4).map(tuple),
)


# -- streams -------------------------------------------------------------------

def test_stream_access_and_validation():
    s = LM.CoeffStream(prefix=(-3, -2), cycle=(-4,))
    assert [s.coeff(i) for i in range(5)] == [-3, -2, -4, -4, -4]
    assert s.menu_size(0) == 2 and s.menu_size(2) == 3
    with pytest.raises(LM.LimitsError):
        LM.CoeffStream(prefix=(-1,), cycle=())
    with pytest.raises(LM.LimitsError):
        LM.CoeffStream(prefix=(), cycle=())


def test_finite_stream_runs_out():
    s = LM.CoeffStream(prefix=(-2, -3))
    assert s.coeffs(1) == [-2, -3]
    with pytest.raises(LM.LimitsError):
        s.coeff(2)


def test_canonical_reduces_cycle():
    s = LM.CoeffStream(prefix=(), cycle=(-3, -2, -3, -2))
    assert s.canonical().cycle == (-3, -2)


def test_canonical_absorbs_prefix():
    a = LM.CoeffStream(prefix=(-4, -2), cycle=(-3, -2))
    b = LM.CoeffStream(prefix=(-4,), cycle=(-2, -3))
    assert a.canonical() == b.canonical()
    assert [a.coeff(i) for i in range(8)] == [b.coeff(i) for i in range(8)]


@given(streams)
@settings(max_examples=100)
def test_canonical_preserves_the_sequence(s):
    c = s.canonical()
    assert [s.coeff(i) for i in range(12)] == [c.coeff(i) for i in range(12)]


# -- sign tuples -----------------------------------------------------------------

def test_sign_tuple_values_and_validation():
    s = LM.CoeffStream(prefix=(-4,), cycle=(-3,))
    k = LM.SignTuple(prefix=(3,), tail=LM.TAIL_MAX)
    assert k.values(s, 4) == [3, 2, 2, 2, 2]
    k.validate(s)
    bad = LM.SignTuple(prefix=(4,), tail=LM.TAIL_ONES)
    with pytest.raises(LM.LimitsError):
        bad.validate(s, through=0)


def test_sign_tuple_periodic_tail():
    s = LM.CoeffStream(prefix=(), cycle=(-4,))
    k = LM.SignTuple(prefix=(1,), tail=LM.TAIL_PERIODIC, tail_pattern=(1, 3))
    assert k.values(s, 5) == [1, 1, 3, 1, 3, 1]
    k.validate(s)


def test_sign_tuple_shape_guards():
    with pytest.raises(LM.LimitsError):
        LM.SignTuple(prefix=(), tail="sometimes")
    with pytest.raises(LM.LimitsError):
        LM.SignTuple(prefix=(), tail=LM.TAIL_PERIODIC)
    with pytest.raises(LM.LimitsError):
        LM.SignTuple(prefix=(), tail=LM.TAIL_ONES, tail_pattern=(1,))


def test_minus_two_levels_force_k_one():
    s = LM.CoeffStream(prefix=(-2,), cycle=(-3,))
    bad = LM.SignTuple(prefix=(2,), tail=LM.TAIL_ONES)
    with pytest.raises(LM.LimitsError):
        bad.validate(s, through=0)


# -- blocks ----------------------------------------------------------------------

def test_block_decomposition_examples():
    s = LM.CoeffStream(prefix=(-4,), cycle=(-2,))
    b = LM.block_decomposition(s, LM.SignTuple(prefix=(3,), tail=LM.TAIL_ONES), 0)
    assert b.blocks == ((2, 2),)
    s = LM.CoeffStream(prefix=(-2,), cycle=(-2,))
    b = LM.block_decomposition(s, LM.SignTuple(prefix=(1,), tail=LM.TAIL_ONES), 0)
    assert b.blocks == ((0, 0),)
    s = LM.CoeffStream(prefix=(-3, -3), cycle=(-2,))
    b = LM.block_decomposition(s, LM.SignTuple(prefix=(2, 1), tail=LM.TAIL_ONES), 1)
    assert b.blocks == ((1, 1), (1, 0))


def test_block_rejects_out_of_range():
    s = LM.CoeffStream(prefix=(-3,), cycle=(-2,))
    with pytest.raises(LM.LimitsError):
        LM.block_decomposition(s, LM.SignTuple(prefix=(5,), tail=LM.TAIL_ONES), 0)
    with pytest.raises(LM.LimitsError):
        LM.BlockDecomposition(((2, 3),))


def test_shuffle_normal_form():
    b = LM.BlockDecomposition(((3, 1), (2, 2), (0, 0)))
    assert LM.shuffle_normal_form(b) == ((1, -1, -1), (1, 1), ())


def test_shuffle_class_count_matches_menus():
    for a in range(-9, -1):
        assert LM.shuffle_class_count(abs(a + 2)) == abs(a + 1)


def test_stabilization_to_slices():
    assert LM.stabilization_to_slices((1, -1)) == (1, -1)
    assert LM.stabilization_to_slices(()) == ()
    with pytest.raises(LM.LimitsError):
        LM.stabilization_to_slices((2,))
    # shuffling the slice sequence of a block lands in normal form
    signs = LM.stabilization_to_slices((-1, -1, 1))
    block = LM.BlockDecomposition(((len(signs), sum(1 for x in signs if x > 0)),))
    assert LM.shuffle_normal_form(block) == ((1, -1, -1),)


# -- end slopes ---------------------------------------------------------------------

def test_gluing_matrix_unimodular():
    for a in range(-9, -1):
        ((p, q), (r, s)) = LM.gluing_matrix(a)
        assert p * s - q * r == 1


def test_end_slope_base_case():
    s = LM.CoeffStream(prefix=(-2,))
    assert LM.end_slopes(s, 0)[-1] == -2


def test_end_slope_two_levels():
    s = LM.CoeffStream(prefix=(-3, -2))
    assert LM.end_slopes(s, 1)[-1] == Fraction(-5, 2)


def test_end_slope_all_twos():
    s = LM.CoeffStream(prefix=(), cycle=(-2,))
    for n in range(10):
        assert LM.end_slopes(s, n)[-1] == Fraction(-(n + 2), n + 1)


@given(streams, st.integers(min_value=0, max_value=30))
@settings(max_examples=120, deadline=None)
def test_end_slope_equals_truncated_value(s, n):
    assert LM.end_slopes(s, n)[-1] == eval_cfrac(s.coeffs(n))


@given(streams, st.integers(min_value=0, max_value=30))
@settings(max_examples=120, deadline=None)
def test_end_slopes_match_each_level_from_scratch(s, n):
    expected = [end_slope_from_scratch(s.coeffs(i)) for i in range(n + 1)]
    assert LM.end_slopes(s, n) == expected


@given(chains(max_run=150), st.lists(admissible_entries, min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_end_slopes_match_the_gluing_product(prefix, cycle):
    s = LM.CoeffStream(tuple(prefix), tuple(cycle))
    n = len(prefix) + len(cycle)
    assert LM.end_slopes(s, n) == end_slopes_by_gluing(s.coeffs(n))


def test_end_slopes_reject_negative_levels():
    with pytest.raises(LM.LimitsError):
        LM.end_slopes(LM.CoeffStream(prefix=(-2,)), -1)


def test_end_slope_matches_explicit_matrix_product():
    s = LM.CoeffStream(prefix=(-3, -2))
    prod = int_mat_mul(LM.gluing_matrix(-2), LM.gluing_matrix(-3))
    inv = int_mat_inv_unimodular(prod)
    assert Fraction(inv[0][0], inv[1][0]) == LM.end_slopes(s, 1)[-1]


@given(streams)
@settings(max_examples=80, deadline=None)
def test_end_slopes_strictly_increase(s):
    values = LM.end_slopes(s, 9)
    assert all(a < b for a, b in zip(values, values[1:]))


# -- signs and proper isotopy ----------------------------------------------------------

def test_sign_of_tails():
    s = LM.CoeffStream(prefix=(), cycle=(-3,))
    assert LM.sign_of(s, LM.SignTuple(tail=LM.TAIL_ONES)) == "minus"
    assert LM.sign_of(s, LM.SignTuple(tail=LM.TAIL_MAX)) == "plus"
    pm = LM.SignTuple(tail=LM.TAIL_PERIODIC, tail_pattern=(1, 2))
    assert LM.sign_of(s, pm) == "pm"


def test_sign_of_periodic_can_be_constantly_max():
    s = LM.CoeffStream(prefix=(), cycle=(-3,))
    k = LM.SignTuple(tail=LM.TAIL_PERIODIC, tail_pattern=(2, 2))
    assert LM.sign_of(s, k) == "plus"


def test_sign_of_degenerate_menus():
    # menus of size one make the two tail descriptions coincide
    s = LM.CoeffStream(prefix=(), cycle=(-2,))
    assert LM.sign_of(s, LM.SignTuple(tail=LM.TAIL_ONES)) == "plus"
    assert LM.sign_of(s, LM.SignTuple(tail=LM.TAIL_MAX)) == "plus"


def test_sign_of_needs_infinite_stream():
    s = LM.CoeffStream(prefix=(-3,))
    with pytest.raises(LM.LimitsError):
        LM.sign_of(s, LM.SignTuple(tail=LM.TAIL_ONES))


def test_sign_invariant_under_prefix_changes():
    rng = random.Random(5)
    s = LM.CoeffStream(prefix=(-4, -3, -5), cycle=(-3,))
    base = LM.SignTuple(prefix=(2, 1, 3), tail=LM.TAIL_PERIODIC, tail_pattern=(2, 1))
    want = LM.sign_of(s, base)
    for _ in range(100):
        prefix = tuple(
            rng.randint(1, s.menu_size(i)) for i in range(rng.randint(0, 6))
        )
        k = LM.SignTuple(prefix=prefix, tail=LM.TAIL_PERIODIC, tail_pattern=(2, 1))
        assert LM.sign_of(s, k) == want


def test_properly_isotopic_spec_cases():
    s = LM.CoeffStream(prefix=(), cycle=(-3,))
    ones = LM.SignTuple(tail=LM.TAIL_ONES)
    ones_shifted = LM.SignTuple(prefix=(2,), tail=LM.TAIL_ONES)
    maxes = LM.SignTuple(tail=LM.TAIL_MAX)
    assert LM.properly_isotopic(s, ones, s, ones_shifted)
    assert not LM.properly_isotopic(s, ones, s, maxes)
    other = LM.CoeffStream(prefix=(), cycle=(-4,))
    assert not LM.properly_isotopic(s, ones, other, ones)


def test_properly_isotopic_same_stream_different_presentation():
    a = LM.CoeffStream(prefix=(-4, -2), cycle=(-3, -2))
    b = LM.CoeffStream(prefix=(-4,), cycle=(-2, -3))
    ones = LM.SignTuple(tail=LM.TAIL_ONES)
    assert LM.properly_isotopic(a, ones, b, ones)


def test_properly_isotopic_is_an_equivalence():
    rng = random.Random(17)
    pool_streams = [
        LM.CoeffStream(prefix=(), cycle=(-3,)),
        LM.CoeffStream(prefix=(-4,), cycle=(-3,)),
        LM.CoeffStream(prefix=(), cycle=(-3, -2)),
    ]
    tails = [
        LM.SignTuple(tail=LM.TAIL_ONES),
        LM.SignTuple(prefix=(2,), tail=LM.TAIL_ONES),
        LM.SignTuple(tail=LM.TAIL_MAX),
        LM.SignTuple(tail=LM.TAIL_PERIODIC, tail_pattern=(1, 2)),
    ]
    pool = []
    for s in pool_streams:
        for k in tails:
            try:
                k.validate(s)
            except LM.LimitsError:
                continue
            pool.append((s, k))
    assert len(pool) >= 9
    for a, b, c in itertools.product(pool, repeat=3):
        ab = LM.properly_isotopic(*a, *b)
        ba = LM.properly_isotopic(*b, *a)
        assert ab == ba
        assert LM.properly_isotopic(*a, *a)
        if ab and LM.properly_isotopic(*b, *c):
            assert LM.properly_isotopic(*a, *c)
    del rng


# -- truncation consistency -------------------------------------------------------------

def test_truncation_consistency_accepts_admissible_data():
    word = B.parse_braid("B2 s1^5")
    s = LM.CoeffStream(prefix=(-3, -2), cycle=(-2,))
    k = LM.SignTuple(prefix=(2,), tail=LM.TAIL_ONES)
    for n in (0, 1, 4):
        assert LM.truncation_consistency(word, s, k, n)


def test_truncation_consistency_rejects_menu_overflow():
    word = B.parse_braid("B2 s1^5")
    s = LM.CoeffStream(prefix=(-3,), cycle=(-2,))
    k = LM.SignTuple(prefix=(4,), tail=LM.TAIL_ONES)
    assert not LM.truncation_consistency(word, s, k, 0)


def test_truncation_consistency_rejects_bad_braid():
    word = B.parse_braid("B3 s1^3 s2^-1")
    s = LM.CoeffStream(prefix=(-3,), cycle=(-2,))
    k = LM.SignTuple(tail=LM.TAIL_ONES)
    assert not LM.truncation_consistency(word, s, k, 0)


def test_truncation_consistency_minus_two_levels():
    word = B.parse_braid("B2 s1^5")
    s = LM.CoeffStream(prefix=(-2, -2), cycle=(-2,))
    k = LM.SignTuple(tail=LM.TAIL_ONES)
    assert LM.truncation_consistency(word, s, k, 1)


def test_sign_tuple_json_round_trip():
    cases = [
        LM.SignTuple(prefix=(2, 1), tail=LM.TAIL_ONES),
        LM.SignTuple(tail=LM.TAIL_MAX),
        LM.SignTuple(prefix=(1,), tail=LM.TAIL_PERIODIC, tail_pattern=(1, 3)),
    ]
    for k in cases:
        data = LM.sign_tuple_to_dict(k)
        assert LM.sign_tuple_from_dict(data) == k
    assert LM.sign_tuple_to_dict(cases[0]) == {"prefix": [2, 1], "tail": "ones"}
    assert LM.sign_tuple_to_dict(cases[2]) == {
        "prefix": [1],
        "tail": {"periodic": [1, 3]},
    }


def test_truncation_consistency_random_admissible():
    rng = random.Random(29)
    word = B.parse_braid("B3 s1^7 s2^-1")
    for _ in range(25):
        prefix = tuple(-rng.randint(2, 5) for _ in range(rng.randint(1, 4)))
        stream = LM.CoeffStream(prefix, (-rng.randint(2, 5),))
        n = rng.randint(0, len(prefix))
        ks = tuple(rng.randint(1, stream.menu_size(i)) for i in range(n + 1))
        k = LM.SignTuple(prefix=ks, tail=LM.TAIL_ONES)
        assert LM.truncation_consistency(word, stream, k, n)
