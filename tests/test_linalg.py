import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidsurgery import braid, linalg, surgery
from oracles import (
    congruence,
    det_cofactor,
    invariant_factors_by_minors,
    random_unimodular,
    signature_rational,
    solve_rational,
)


def random_matrix(rng, n, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def test_det_matches_cofactor_expansion():
    rng = random.Random(101)
    for _ in range(120):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n)
        assert linalg.det(m) == det_cofactor(m)


def test_det_known_values():
    assert linalg.det([]) == 1
    assert linalg.det([[0, 1], [1, -5]]) == -1
    assert linalg.det([[0, 3], [3, 7]]) == -9
    assert linalg.det([[0, 1, 0], [1, -4, 1], [0, 1, -2]]) == 2
    anti = [[int(i + j == 3) for j in range(4)] for i in range(4)]
    assert linalg.det(anti) == 1  # pivots found 3, 2 and 1 rows down


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        linalg.det([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        linalg.solve_exact([[1, 2]], [1])
    with pytest.raises(ValueError):
        linalg.solve_exact([[1, 0], [0, 1]], [1])


def test_snf_against_minor_gcds():
    rng = random.Random(202)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, -4, 4)
        assert linalg.smith_normal_form(m) == invariant_factors_by_minors(m)


def test_snf_divisibility_chain_and_det_product():
    rng = random.Random(303)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n)
        snf = linalg.smith_normal_form(m)
        for a, b in zip(snf, snf[1:]):
            if b != 0:
                assert a != 0 and b % a == 0
        d = linalg.det(m)
        if d != 0:
            prod = 1
            for x in snf:
                prod *= x
            assert prod == abs(d)


def test_signature_on_known_congruence_classes():
    rng = random.Random(404)
    for _ in range(80):
        n = rng.randint(1, 5)
        diag_entries = [rng.choice([-3, -1, 0, 1, 2, 5]) for _ in range(n)]
        d = [[diag_entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
        u = random_unimodular(rng, n)
        m = congruence(u, d)
        expected = sum(1 for x in diag_entries if x > 0) - sum(
            1 for x in diag_entries if x < 0
        )
        assert linalg.signature(m) == expected


def test_signature_hyperbolic_block():
    assert linalg.signature([[0, 1], [1, 0]]) == 0
    assert linalg.signature([[0, 1], [1, -5]]) == 0
    assert linalg.signature([[2, 0], [0, 3]]) == 2


def test_signature_requires_symmetry():
    with pytest.raises(ValueError):
        linalg.signature([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        linalg.signature([[1, 2]])


def test_solve_exact_roundtrip():
    rng = random.Random(505)
    solved = 0
    while solved < 40:
        n = rng.randint(1, 5)
        m = random_matrix(rng, n)
        if linalg.det(m) == 0:
            continue
        rhs = [rng.randint(-5, 5) for _ in range(n)]
        x = linalg.solve_exact(m, rhs)
        for i in range(n):
            assert sum(Fraction(m[i][j]) * x[j] for j in range(n)) == rhs[i]
        solved += 1


def test_solve_exact_singular():
    with pytest.raises(ZeroDivisionError):
        linalg.solve_exact([[1, 1], [1, 1]], [1, 2])


def test_signature_invariant_under_simultaneous_permutation():
    rng = random.Random(606)
    for _ in range(30):
        n = rng.randint(2, 5)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-4, 4)
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = [[m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        assert linalg.signature(permuted) == linalg.signature(m)


@st.composite
def symmetric_matrices(draw):
    """Small symmetric integer matrices, often with a zero diagonal, a
    hyperbolic block or a repeated row."""
    n = draw(st.integers(min_value=0, max_value=8))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, -5])
    two_indices = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(entry)
    if draw(st.booleans()):
        for i in range(n):
            m[i][i] = 0
    if n >= 2 and draw(st.booleans()):
        i, j = draw(two_indices)
        m[i][i] = m[j][j] = 0
        m[i][j] = m[j][i] = draw(st.sampled_from([1, -1, 3]))
    if n >= 2 and draw(st.booleans()):
        # Row and column i copy j: singular, still symmetric.
        i, j = draw(two_indices)
        for t in range(n):
            m[i][t] = m[t][i] = m[j][t]
        m[i][i] = m[i][j] = m[j][i] = m[j][j]
    return m


# Mostly small, and now and then the size of the residual that a chain of
# linked closures leaves (tridiagonal at n = 300 is the slow case of a
# pivot that rescales every row).
BANDED_SIZES = (*range(1, 31), 120, 300)


@st.composite
def banded_matrices(draw):
    """Symmetric integer matrices whose entries lie within ``width`` of the
    diagonal, often with a zero diagonal or a row and column copied (so
    singular)."""
    n = draw(st.sampled_from(BANDED_SIZES))
    width = draw(st.integers(min_value=1, max_value=3))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, min(n, i + width + 1)):
            m[i][j] = m[j][i] = rng.choice([0, 0, 1, -1, 2, -2, -4, -7, 9])
    if draw(st.booleans()):
        for i in range(n):
            m[i][i] = 0
    if n >= 2 and draw(st.booleans()):
        i = rng.randrange(n - 1)
        for t in range(n):
            m[i + 1][t] = m[t][i + 1] = m[i][t]
        m[i + 1][i + 1] = m[i][i]
    return m


@given(symmetric_matrices() | banded_matrices())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_signature_matches_the_rational_oracle(m):
    n, sig = len(m), linalg.signature(m)
    assert sig == signature_rational(m)
    # det and solve take the same Bareiss step as signature, pivoting down
    # the first column instead of the diagonal.
    d = linalg.det(m)
    if d:
        # Sylvester's law of inertia: det has the sign of (-1)^(negative eigenvalues).
        assert (d > 0) == ((n - sig) // 2 % 2 == 0)
    if n > 30:
        return
    try:
        solve_rational(m, [1] * n)
    except ZeroDivisionError:
        assert d == 0
        return
    assert d != 0
    det, adj = linalg.solve(m, identity(n))
    assert det == d
    product = [[sum(m[i][t] * adj[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    assert product == identity(n, d)


dense_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-40, 40), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@given(
    symmetric_matrices(),
    st.lists(st.integers(-5, 5), min_size=8, max_size=8),
    dense_matrices,
)
@settings(max_examples=300, deadline=None)
def test_kernels_match_rational_oracles(m, rhs, dense):
    n = len(m)
    sig = linalg.signature(m)
    assert sig == signature_rational(m)
    d = linalg.det(m)
    if n <= 6:
        assert d == det_cofactor(m)
    # Sylvester's law of inertia: det has the sign of (-1)^(negative eigenvalues).
    assert d == (-1) ** ((n - sig) // 2) * prod(linalg.smith_normal_form(m))
    # Dense, usually nonsingular: the Smith form is taken modulo |det|.
    assert linalg.smith_normal_form(dense) == invariant_factors_by_minors(dense)
    if d != 0:
        assert linalg.solve_exact(m, rhs[:n]) == solve_rational(m, rhs[:n])
    else:
        with pytest.raises(ZeroDivisionError):
            linalg.solve_exact(m, rhs[:n])


@given(
    st.one_of(
        symmetric_matrices().filter(lambda m: len(m) <= 6),
        st.integers(min_value=0, max_value=6).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        ),
    )
)
@settings(max_examples=300, deadline=None)
def test_adjugate_matches_cofactor_det(m):
    n = len(m)
    d = det_cofactor(m)
    if d == 0:
        with pytest.raises(ZeroDivisionError):
            linalg.solve(m, identity(n))
        return
    det, adj = linalg.solve(m, identity(n))
    assert det == d
    product = [
        [sum(m[i][t] * adj[t][j] for t in range(n)) for j in range(n)]
        for i in range(n)
    ]
    assert product == identity(n, d)


def identity(n, d=1):
    return [[d * (i == j) for j in range(n)] for i in range(n)]


def test_adjugate_known_values():
    assert linalg.solve([], []) == (1, [])
    assert linalg.solve([[-3]], [[1]]) == (-3, [[1]])
    # The row swap at the first pivot flips the sign of det and adj.
    assert linalg.solve([[0, 1], [1, -5]], identity(2)) == (-1, [[-5, -1], [-1, 0]])
    with pytest.raises(ValueError):
        linalg.solve([[1, 2]], [[1]])


def test_solve_of_three_columns_is_det_times_the_inverse():
    rng = random.Random(707)
    solved = 0
    while solved < 40:
        n = rng.randint(1, 6)
        m = random_matrix(rng, n)
        b = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(n)]
        d = det_cofactor(m)
        if d == 0:
            continue
        det, x = linalg.solve(m, b)
        assert det == d
        assert [len(row) for row in x] == [3] * n
        product = [
            [sum(m[i][t] * x[t][j] for t in range(n)) for j in range(3)]
            for i in range(n)
        ]
        assert product == [[d * y for y in row] for row in b]
        solved += 1


def test_solve_rejects_a_length_mismatch():
    with pytest.raises(ValueError):
        linalg.solve([[1, 0], [0, 1]], [[1, 2]])
    with pytest.raises(ValueError):
        linalg.solve([[2]], [[1], [1]])


def test_kernels_match_rational_oracles_at_n41():
    # The linking matrix of `surgery "B2 s1^5" --slopes 20`.
    word = braid.parse_braid("B2 s1^5")
    expanded = surgery.slam_dunk_expand(surgery.rational_surgery(word, [Fraction(20)]))
    m = surgery.linking_matrix(expanded)
    assert len(m) == 41
    assert linalg.signature(m) == signature_rational(m)
    rhs = [(-1) ** i * (i % 5) for i in range(41)]
    assert linalg.solve_exact(m, rhs) == solve_rational(m, rhs)
    det, adj = linalg.solve(m, identity(41))
    assert det == linalg.det(m)
    assert [Fraction(x, det) for x in adj[7]] == solve_rational(m, [int(i == 7) for i in range(41)])
