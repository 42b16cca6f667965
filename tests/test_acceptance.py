"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS line once its assertions hold, so a
verbose run reads as a checklist.  Randomized criteria use fixed seeds
for reproducibility.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from braidsurgery import braid as B
from braidsurgery import cfrac as C
from braidsurgery import families as F
from braidsurgery import legendrian as L
from braidsurgery import limits as LM
from braidsurgery import surgery as S
from braidsurgery.cfrac import SlopeVector

from test_cli import CASES, EXPECTED_CODES, GOLDEN_DIR, run_cli

SEVEN = B.parse_braid("B3 s1^7 s2^-1")


def random_hypothesis_knot(rng):
    """Random braid word boosted by full twists until the closure is a
    knot satisfying the crossing condition."""
    while True:
        m = rng.choice([2, 3, 4])
        letters = tuple(
            rng.choice([1, -1]) * rng.randint(1, m - 1)
            for _ in range(rng.randint(1, 8))
        )
        w = B.BraidWord(m, letters)
        if not B.permutation(w).is_knot:
            continue
        for ell in range(0, 5):
            boosted = F.delta_squared_times(w, ell)
            if B.check_hypothesis(boosted).cond_tb:
                return boosted
    raise AssertionError("unreachable")


def test_criterion_1_phi_counting_via_cli():
    start = time.perf_counter()
    for n in range(2, 51):
        code, out = run_cli(
            ["enumerate", "B3 s1^7 s2^-1", "--slopes", f"1/{n}", "--count-only"]
        )
        assert code == 0
        assert json.loads(out)["count"] == n - 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    print(f"AC1 PASS: counts for 1/n, n=2..50 equal n-1 in {elapsed:.3f}s")


def test_criterion_2_conjugated_family_identity():
    gamma = B.parse_braid("B3 s2 s1^2 s2")
    for k in range(1, 6):
        start = time.perf_counter()
        lhs = B.compose(B.power(B.garside(3), 2), F.example_braid(k))
        rhs = B.compose(
            B.compose(gamma, B.parse_braid(f"B3 s1^{2 * k + 5} s2")),
            B.inverse(gamma),
        )
        assert B.is_trivial(B.compose(lhs, B.inverse(rhs)))
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"k={k} took {elapsed:.3f}s"
    print("AC2 PASS: full-twist conjugation identity holds for k=1..5")


def test_criterion_3_theta_constancy():
    for n in range(2, 21):
        values = set()
        enum = L.enumerate_weinstein(SEVEN, SlopeVector((Fraction(1, n),)))
        diagrams = list(enum)
        assert len(diagrams) == n - 1
        for d in diagrams:
            rep = L.theta(d)
            assert rep.c1_squared == 0
            values.add(rep.theta)
        assert values == {Fraction(-6)}
    print("AC3 PASS: c1^2 = 0 and theta = -6 across all tuples, n=2..20")


def test_criterion_4_homology_identities():
    for m in range(2, 7):
        tour = B.BraidWord(m, tuple(range(1, m)))
        assert B.permutation(tour).is_knot
        for k in range(1, 11):
            d = F.axis_surgery(tour, [Fraction(k)])
            assert S.linking_matrix(d) == [[0, m], [m, k]]
            assert S.homology(d).h1_order == m * m
    for m in (2, 3, 4):
        tour = B.BraidWord(m, tuple(range(1, m)))
        for k, ell in itertools.product(range(1, 6), range(1, 5)):
            d = F.axis_surgery(
                tour, [Fraction(k)], axis_framing=Fraction(-1, ell)
            )
            out = F.rolfsen_twist(d, 0, ell)
            assert len(out.components) == 1
            assert out.components[0].framing == k + ell * m * m
            assert S.h1_invariants(out)[0] == k + ell * m * m
            _, report, additive, *_ = F.lspace_family_diagram(tour, k, ell)
            assert additive
            assert report.h1_order == k + ell * m * m
    print("AC4 PASS: axis determinants, twist orders, and additivity hold")


def test_criterion_5_presentation_invariance():
    rng = random.Random(1405)
    for _ in range(200):
        word = random_hypothesis_knot(rng)
        q = rng.randint(2, 50)
        p = rng.randint(1, q - 1)
        slope = Fraction(p, q)
        d = S.rational_surgery(word, SlopeVector((slope,)))
        expanded = S.slam_dunk_expand(d)
        assert S.homology(expanded).h1_order == slope.numerator
        assert S.homology(S.expand_general(d)) == S.homology(expanded)
    for n in range(2, 41):
        d = S.rational_surgery(SEVEN, SlopeVector((Fraction(1, n),)))
        assert S.homology(S.slam_dunk_expand(d)) == S.homology(S.expand_general(d))
    # Above integer slope 1 the meridian-stack recipe presents 4^n times
    # the surgered order; pinned so the (0,1) guarantee above stays honest.
    for _ in range(20):
        word = random_hypothesis_knot(rng)
        n = rng.randint(1, 3)
        frac = Fraction(rng.randint(1, 8), rng.randint(2, 9))
        if frac >= 1:
            continue
        d = S.rational_surgery(word, SlopeVector((n + frac,)))
        expected = 4 ** n * (n * frac.denominator + frac.numerator)
        assert S.homology(S.slam_dunk_expand(d)).h1_order == expected
    print("AC5 PASS: |det| = numerator on (0,1); 1/n forms agree; stack law pinned")


def test_criterion_6_continued_fraction_round_trip():
    rng = random.Random(1406)
    for _ in range(1000):
        q = rng.randint(1, 10 ** 6)
        p = rng.randint(q + 1, 10 ** 6 + q)
        r = Fraction(-p, q)
        assert r < -1
        f = C.neg_cfrac(r)
        assert all(a <= -2 for a in f.coeffs)
        assert C.eval_cfrac(f.coeffs) == r
        assert len(f.coeffs) <= r.denominator
    print("AC6 PASS: 1000 round trips, admissible coefficients, bounded length")


def test_criterion_7_word_problem_soundness():
    rng = random.Random(1407)
    for _ in range(500):
        m = rng.choice([2, 3, 4])
        letters = tuple(
            rng.choice([1, -1]) * rng.randint(1, m - 1)
            for _ in range(rng.randint(0, 12))
        )
        w = B.BraidWord(m, letters)
        assert B.is_trivial(B.compose(w, B.inverse(w)))
        if (
            B.permutation(w).permutation != tuple(range(1, m + 1))
            or w.exponent_sum != 0
        ):
            assert not B.is_trivial(w)
    for m in (3, 4, 5):
        for g in range(1, m - 1):
            rel = B.BraidWord(m, (g, g + 1, g, -(g + 1), -g, -(g + 1)))
            assert B.is_trivial(rel)
        for g, h in itertools.combinations(range(1, m), 2):
            if abs(g - h) >= 2:
                assert B.is_trivial(B.BraidWord(m, (g, h, -g, -h)))
        d2 = B.power(B.garside(m), 2)
        for g in range(1, m):
            gen = B.BraidWord(m, (g,))
            word = B.compose(
                B.compose(d2, gen), B.inverse(B.compose(gen, d2))
            )
            assert B.is_trivial(word)
    print("AC7 PASS: 500 random words plus relation and centrality instances")


def test_criterion_8_weinstein_validity_distinctness():
    rng = random.Random(1408)
    link_words = [B.parse_braid("B4 s1^5 s3^5 s2^-2")]
    checked = 0
    while checked < 50:
        if rng.random() < 0.3:
            word = link_words[0]
            ncomp = 2
        else:
            word = random_hypothesis_knot(rng)
            ncomp = 1
        slopes = []
        for _ in range(ncomp):
            q = rng.randint(2, 12)
            p = rng.randint(1, q - 1)
            slopes.append(Fraction(p, q))
        v = SlopeVector(tuple(slopes))
        enum = L.enumerate_weinstein(word, v)
        if enum.count > 2000:
            continue
        tuples = set()
        for d in enum:
            assert L.validate_weinstein(d)
            tuples.add(d.rotation_tuple)
        assert len(tuples) == enum.count == C.phi_vector(v)
        checked += 1
    print("AC8 PASS: 50 enumerations valid, distinct, and sized by the product count")


def test_criterion_9_limits_consistency():
    rng = random.Random(1409)
    for _ in range(100):
        prefix = tuple(
            -rng.randint(2, 7) for _ in range(rng.randint(0, 5))
        )
        cycle = tuple(-rng.randint(2, 7) for _ in range(rng.randint(1, 4)))
        stream = LM.CoeffStream(prefix, cycle)
        for n in range(0, 31, 6):
            assert LM.end_slopes(stream, n)[-1] == C.eval_cfrac(stream.coeffs(n))
        for i in range(12):
            assert LM.shuffle_class_count(abs(stream.coeff(i) + 2)) == stream.menu_size(i)

    pool_streams = [
        LM.CoeffStream((), (-3,)),
        LM.CoeffStream((-4,), (-3,)),
        LM.CoeffStream((), (-3, -2)),
        LM.CoeffStream((-5, -2), (-4,)),
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
    pairs = 0
    for a, b in itertools.product(pool, repeat=2):
        assert LM.properly_isotopic(*a, *b) == LM.properly_isotopic(*b, *a)
        assert LM.properly_isotopic(*a, *a)
        pairs += 1
    for a, b, c in rng.sample(list(itertools.product(pool, repeat=3)), 1000 - pairs):
        if LM.properly_isotopic(*a, *b) and LM.properly_isotopic(*b, *c):
            assert LM.properly_isotopic(*a, *c)
        pairs += 1
    assert pairs >= 1000

    stream = LM.CoeffStream((-4, -3, -5), (-3,))
    want = LM.sign_of(
        stream, LM.SignTuple(tail=LM.TAIL_PERIODIC, tail_pattern=(2, 1))
    )
    for _ in range(100):
        prefix = tuple(
            rng.randint(1, stream.menu_size(i))
            for i in range(rng.randint(0, 6))
        )
        k = LM.SignTuple(
            prefix=prefix, tail=LM.TAIL_PERIODIC, tail_pattern=(2, 1)
        )
        assert LM.sign_of(stream, k) == want
    print("AC9 PASS: end slopes, proper-isotopy relation, sign stability, block counts")


def test_criterion_10_cli_determinism():
    for name in sorted(CASES):
        first = run_cli(CASES[name])
        second = run_cli(CASES[name])
        assert first == second
        assert first[0] == EXPECTED_CODES.get(name, 0)
        assert first[1] == (GOLDEN_DIR / f"{name}.txt").read_text()
    print(f"AC10 PASS: {len(CASES)} golden outputs byte-identical across reruns")
