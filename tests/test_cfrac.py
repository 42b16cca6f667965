from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidsurgery import cfrac
from oracles import neg_cfrac_by_fractions


rationals_below_minus_one = st.builds(
    lambda p, q: Fraction(-p, q),
    st.integers(min_value=2, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
).filter(lambda r: r < -1)


def chains(max_run: int):
    """Admissible coefficient lists of runs of up to ``max_run`` terms -2,
    small coefficients and coefficients of 100 to 300 digits."""
    segment = st.one_of(
        st.integers(min_value=1, max_value=max_run).map(lambda k: [-2] * k),
        st.integers(min_value=3, max_value=9).map(lambda a: [-a]),
        st.integers(min_value=10**99, max_value=10**300).map(lambda a: [-a]),
    )
    return st.lists(segment, min_size=1, max_size=5).map(
        lambda parts: [a for part in parts for a in part]
    )


long_rationals = st.one_of(
    chains(max_run=300).map(cfrac.eval_cfrac),
    st.builds(
        lambda p, q: Fraction(-p, q),
        st.integers(min_value=2, max_value=10**300),
        st.integers(min_value=1, max_value=10**300),
    ).filter(lambda r: r < -1),
)


def test_integer_values_are_single_term():
    for n in range(2, 12):
        f = cfrac.neg_cfrac(-n)
        assert f.coeffs == (-n,)
        assert cfrac.phi(f) == n - 1


def test_known_expansions():
    assert cfrac.neg_cfrac(Fraction(-5, 2)).coeffs == (-3, -2)
    assert cfrac.neg_cfrac(Fraction(-7, 2)).coeffs == (-4, -2)
    assert cfrac.neg_cfrac(Fraction(-4, 3)).coeffs == (-2, -2, -2)


def test_eval_known_values():
    assert cfrac.eval_cfrac([-2]) == -2
    assert cfrac.eval_cfrac([-3, -2]) == Fraction(-5, 2)
    assert cfrac.eval_cfrac([-2, -2, -2]) == Fraction(-4, 3)


def test_eval_rejects_bad_input():
    with pytest.raises(cfrac.CFracError):
        cfrac.eval_cfrac([])
    with pytest.raises(cfrac.CFracError):
        cfrac.eval_cfrac([-2, 0])  # zero tail divides


def test_neg_cfrac_domain():
    for r in (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(-1, 2)):
        with pytest.raises(cfrac.CFracError):
            cfrac.neg_cfrac(r)


@given(rationals_below_minus_one)
@settings(max_examples=300, deadline=None)
def test_round_trip_and_admissibility(r):
    f = cfrac.neg_cfrac(r)
    assert all(a <= -2 for a in f.coeffs)
    assert cfrac.eval_cfrac(f.coeffs) == r
    assert len(f.coeffs) <= r.denominator


def test_convergents_of_twos():
    got = cfrac.convergents([-2, -2, -2], 2)
    assert got == [Fraction(-2), Fraction(-3, 2), Fraction(-4, 3)]


def test_convergents_examples():
    assert cfrac.convergents([-3, -3], 1) == [Fraction(-3), Fraction(-8, 3)]
    assert cfrac.convergents([-5, -2, -2], 0) == [Fraction(-5)]


def test_convergents_stream_too_short():
    with pytest.raises(cfrac.CFracError):
        cfrac.convergents([-2, -2], 5)


def test_convergents_strictly_increase():
    # deeper truncation always moves the value up toward the limit
    coeffs = [-3, -2, -4, -2, -2, -3, -2, -2]
    vals = cfrac.convergents(coeffs, len(coeffs) - 1)
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_phi_of_convergents_unbounded_with_deep_threes():
    stream = [-3 if i % 2 == 0 else -2 for i in range(40)]
    phis = [
        cfrac.phi(cfrac.NegContFrac(tuple(stream[: n + 1]), cfrac.eval_cfrac(stream[: n + 1])))
        for n in range(40)
    ]
    assert all(a <= b for a, b in zip(phis, phis[1:]))
    assert phis[-1] > phis[0]
    assert phis[-1] >= 2 ** 19


def test_phi_examples():
    assert cfrac.phi(cfrac.neg_cfrac(Fraction(-7, 2))) == 3
    assert cfrac.phi(cfrac.neg_cfrac(Fraction(-4, 3))) == 1


def test_phi_vector_examples():
    assert cfrac.phi_vector(cfrac.SlopeVector((Fraction(1, 5),))) == 4
    assert cfrac.phi_vector(
        cfrac.SlopeVector((Fraction(2, 5), Fraction(2, 7)))
    ) == 6
    assert cfrac.phi_vector(
        cfrac.SlopeVector((Fraction(1, 2), Fraction(1, 2)))
    ) == 1


def test_phi_vector_multiplicative_under_concatenation():
    a = cfrac.SlopeVector((Fraction(2, 5),))
    b = cfrac.SlopeVector((Fraction(2, 7), Fraction(1, 3)))
    ab = cfrac.SlopeVector(a.slopes + b.slopes)
    assert cfrac.phi_vector(ab) == cfrac.phi_vector(a) * cfrac.phi_vector(b)


def test_phi_vector_rejects_bad_slopes():
    for bad in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(cfrac.CFracError):
            cfrac.phi_vector(cfrac.SlopeVector((bad,)))


def test_neg_cont_frac_invariants():
    with pytest.raises(cfrac.CFracError):
        cfrac.NegContFrac((), Fraction(-2))
    with pytest.raises(cfrac.CFracError):
        cfrac.NegContFrac((-1,), Fraction(-1))


@given(rationals_below_minus_one, st.integers(min_value=0, max_value=40))
@settings(max_examples=200, deadline=None)
def test_neg_cfrac_length_counts_terms_up_to_its_limit(r, limit):
    length = len(cfrac.neg_cfrac(r).coeffs)
    assert cfrac.neg_cfrac_length(r, limit) == min(length, limit + 1)
    assert cfrac.neg_cfrac_length(r, length) == length


def test_neg_cfrac_length_stops_early_on_long_chains():
    # -1000000/999999 expands to 999,999 coefficients -2.
    assert cfrac.neg_cfrac_length(Fraction(-1000000, 999999), 10) == 11
    with pytest.raises(cfrac.CFracError):
        cfrac.neg_cfrac_length(Fraction(-1), 10)


@given(long_rationals, st.integers(min_value=0, max_value=2_000))
@settings(max_examples=80, deadline=None)
def test_neg_cfrac_and_its_length_match_the_fraction_loop(r, limit):
    expected = neg_cfrac_by_fractions(r)
    assert cfrac.neg_cfrac(r).coeffs == expected
    assert cfrac.neg_cfrac_length(r, limit) == min(len(expected), limit + 1)


@given(chains(max_run=60))
@settings(max_examples=40, deadline=None)
def test_convergents_match_each_prefix_evaluated(coeffs):
    n = len(coeffs) - 1
    expected = [cfrac.eval_cfrac(coeffs[: k + 1]) for k in range(n + 1)]
    assert cfrac.convergents(coeffs, n) == expected
