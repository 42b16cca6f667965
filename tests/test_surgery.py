import random
from fractions import Fraction
from types import SimpleNamespace
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidsurgery import braid as B
from braidsurgery import families as F
from braidsurgery import linalg
from braidsurgery import surgery as S
from braidsurgery.cfrac import SlopeVector, neg_cfrac
from oracles import parse_framing, presentation_matrix_by_pairs, schur_by_fractions
from test_cli import UNBALANCED_LINK, WORKLOADS


KNOT = B.parse_braid("B2 s1^5")
HOPF = B.parse_braid("B2 s1^2")


def knot_slope_diagram(slope):
    return S.rational_surgery(KNOT, SlopeVector((Fraction(slope),)))


# -- construction -------------------------------------------------------------

def test_rational_surgery_builds_components():
    d = S.rational_surgery(HOPF, SlopeVector((Fraction(1, 2), Fraction(2, 7))))
    assert [c.kind for c in d.components] == [S.BRAID, S.BRAID]
    assert [c.framing for c in d.components] == [Fraction(1, 2), Fraction(2, 7)]


def test_rational_surgery_length_mismatch():
    with pytest.raises(S.SurgeryError):
        S.rational_surgery(KNOT, SlopeVector((Fraction(1, 2), Fraction(1, 3))))


def test_zero_framing_allowed_in_raw_diagram():
    d = S.rational_surgery(KNOT, SlopeVector((Fraction(0),)))
    assert d.components[0].framing == 0


# -- slam dunk expansion -------------------------------------------------------

def test_expand_one_over_n_single_meridian():
    for n in range(2, 8):
        e = S.slam_dunk_expand(knot_slope_diagram(Fraction(1, n)))
        kinds = [(c.kind, c.framing) for c in e.components]
        assert kinds == [(S.BRAID, 0), (S.MERIDIAN, -n)]
        assert S.linking_matrix(e) == [[0, 1], [1, -n]]


def test_expand_two_sevenths_chain():
    e = S.slam_dunk_expand(knot_slope_diagram(Fraction(2, 7)))
    assert [(c.kind, c.framing) for c in e.components] == [
        (S.BRAID, 0),
        (S.CHAIN, -4),
        (S.CHAIN, -2),
    ]
    m = S.linking_matrix(e)
    assert m == [[0, 1, 0], [1, -4, 1], [0, 1, -2]]
    assert S.homology(e).h1_order == 2


def test_expand_five_halves_structure():
    e = S.slam_dunk_expand(knot_slope_diagram(Fraction(5, 2)))
    kinds = [(c.kind, c.framing) for c in e.components]
    assert kinds == [
        (S.BRAID, 0),
        (S.MERIDIAN, -2),
        (S.MERIDIAN, -2),
        (S.MERIDIAN, -2),
        (S.MERIDIAN, -2),
        (S.CHAIN, -2),
    ]
    assert e.is_integral


def test_expand_rejects_nonpositive():
    with pytest.raises(S.SurgeryError):
        S.slam_dunk_expand(knot_slope_diagram(Fraction(0)))
    with pytest.raises(S.SurgeryError):
        S.slam_dunk_expand(knot_slope_diagram(Fraction(-1, 2)))


def test_expansion_determinant_is_numerator_below_one():
    rng = random.Random(9)
    for _ in range(60):
        q = rng.randint(2, 60)
        p = rng.randint(1, q - 1)
        slope = Fraction(p, q)
        e = S.slam_dunk_expand(knot_slope_diagram(slope))
        assert S.homology(e).h1_order == slope.numerator


def test_expansion_determinant_above_one_pins_known_factor():
    # The meridian-stack form for slopes n + p/q (n >= 1) presents a
    # manifold whose |H1| carries an extra 4^n: each -2-framed meridian
    # stack member contributes a factor 2 to the presentation.  Pinned
    # here so any change of recipe shows up.
    rng = random.Random(10)
    for _ in range(30):
        n = rng.randint(1, 3)
        q = rng.randint(2, 12)
        p = rng.randint(1, q - 1)
        slope = Fraction(p, q) + n
        e = S.slam_dunk_expand(knot_slope_diagram(slope))
        expected = 4 ** n * (n * Fraction(p, q).denominator + Fraction(p, q).numerator)
        assert S.homology(e).h1_order == expected


def test_general_and_single_meridian_forms_agree_on_one_over_n():
    for n in range(2, 30):
        d = knot_slope_diagram(Fraction(1, n))
        a = S.homology(S.slam_dunk_expand(d))
        b = S.homology(S.expand_general(d))
        assert a == b


def test_general_form_uses_chain_kind():
    e = S.expand_general(knot_slope_diagram(Fraction(1, 5)))
    assert [c.kind for c in e.components] == [S.BRAID, S.CHAIN]


# -- linking matrix and homology ----------------------------------------------

def test_axis_matrix_and_h1():
    w = B.parse_braid("B3 s1^7 s2^-1")
    for k in range(1, 8):
        d = F.axis_surgery(w, [Fraction(k)])
        assert S.linking_matrix(d) == [[0, 3], [3, k]]
        assert S.homology(d).h1_order == 9


def test_axis_h1_group_structure():
    w = B.parse_braid("B3 s1^7 s2^-1")
    rep = S.homology(F.axis_surgery(w, [Fraction(7)]))
    assert rep.elementary_divisors == (9,)  # gcd(3, 7) = 1 makes it cyclic
    rep = S.homology(F.axis_surgery(w, [Fraction(3)]))
    assert rep.elementary_divisors == (3, 3)


def test_homology_integer_homology_sphere():
    for n in range(2, 12):
        e = S.slam_dunk_expand(knot_slope_diagram(Fraction(1, n)))
        rep = S.homology(e)
        assert rep.h1_order == 1
        assert rep.elementary_divisors == ()
        assert rep.signature == 0
        assert rep.euler_char == 3
        assert rep.free_rank == 0


def test_homology_zero_framing_has_free_rank():
    d = S.rational_surgery(KNOT, SlopeVector((Fraction(0),)))
    rep = S.homology(d)
    assert rep.det == 0
    assert rep.h1_order == 0
    assert rep.free_rank == 1
    assert S.h1_invariants(d) == (0, (), 1)


def test_homology_requires_integral():
    with pytest.raises(S.SurgeryError):
        S.homology(knot_slope_diagram(Fraction(1, 2)))


def test_linking_matrix_requires_integral():
    with pytest.raises(S.SurgeryError):
        S.linking_matrix(knot_slope_diagram(Fraction(1, 2)))


def test_euler_char_counts_components():
    e = S.slam_dunk_expand(knot_slope_diagram(Fraction(5, 2)))
    assert S.homology(e).euler_char == 1 + len(e.components)


def test_rational_presentation_order():
    # meridian of the axis collapsed: axis framed -1/l against a knot
    w = B.parse_braid("B3 s1^7 s2^-1")
    for ell in (1, 2, 3):
        for k in (1, 5, 9):
            d = F.axis_surgery(w, [Fraction(k)], axis_framing=Fraction(-1, ell))
            assert S.h1_invariants(d)[0] == k + 9 * ell
            assert S.h1_invariants(d)[0] == k + 9 * ell


# -- Kirby moves ---------------------------------------------------------------

def test_rolfsen_identity_twist():
    d = F.axis_surgery(KNOT, [Fraction(3)])
    assert F.rolfsen_twist(d, 0, 0) == d


def test_rolfsen_blowdown_example():
    # U(-1) with K(0) through it once: twisting once deletes U, K gains 1
    w = KNOT
    d = S.SurgeryDiagram(
        w,
        (
            S.SurgeryComponent(kind=S.BRAID, framing=Fraction(0), component=1),
            S.SurgeryComponent(kind=S.MERIDIAN, framing=Fraction(-1), parent=0),
        ),
    )
    before = S.h1_invariants(d)[0]
    out = F.rolfsen_twist(d, 1, 1)
    assert len(out.components) == 1
    assert out.components[0].framing == 1
    assert S.h1_invariants(out)[0] == before == 1


def test_rolfsen_axis_twist_matches_closed_form():
    w = B.parse_braid("B3 s1^7 s2^-1")
    for ell in (1, 2, 4):
        for k in (1, 3, 10):
            d = F.axis_surgery(w, [Fraction(k)], axis_framing=Fraction(-1, ell))
            out = F.rolfsen_twist(d, 0, ell)
            assert len(out.components) == 1
            assert out.components[0].framing == k + ell * 9
            assert S.h1_invariants(out)[0] == k + 9 * ell


def test_rolfsen_preserves_h1_invariants():
    rng = random.Random(21)
    w = B.parse_braid("B3 s1^7 s2^-1")
    for _ in range(40):
        k = rng.randint(1, 12)
        ell = rng.randint(1, 6)
        t = rng.randint(-3, 3)
        d = F.axis_surgery(w, [Fraction(k)], axis_framing=Fraction(-1, ell))
        out = F.rolfsen_twist(d, 0, t)
        assert S.h1_invariants(out) == S.h1_invariants(d)


def test_rolfsen_rejects_braid_component():
    d = F.axis_surgery(KNOT, [Fraction(3)])
    with pytest.raises(S.SurgeryError):
        F.rolfsen_twist(d, 1, 1)


def test_slam_dunk_meridian_collapses_leaf():
    w = B.parse_braid("B3 s1^7 s2^-1")
    d, *_ = F.lspace_family_diagram(w, 7, 2)
    out = F.slam_dunk_meridian(d, 0)
    assert [c.kind for c in out.components] == [S.AXIS, S.BRAID]
    assert out.components[0].framing == Fraction(-1, 2)
    assert S.h1_invariants(out)[0] == S.h1_invariants(d)[0]


def test_slam_dunk_meridian_guards():
    w = B.parse_braid("B3 s1^7 s2^-1")
    d, *_ = F.lspace_family_diagram(w, 7, 2)
    with pytest.raises(S.SurgeryError):
        F.slam_dunk_meridian(d, 1)  # axis is not a meridian leaf
    collapsed = F.slam_dunk_meridian(d, 0)
    bad = S.SurgeryDiagram(
        w,
        (
            S.SurgeryComponent(kind=S.BRAID, framing=Fraction(1, 2), component=1),
            S.SurgeryComponent(kind=S.MERIDIAN, framing=Fraction(-2), parent=0),
        ),
    )
    with pytest.raises(S.SurgeryError):
        F.slam_dunk_meridian(bad, 1)  # parent framing not integral
    del collapsed


# -- the twist family ----------------------------------------------------------

def test_lspace_family_orders():
    w = B.parse_braid("B3 s1^7 s2^-1")
    diagram, report, additive, axis_report, next_report = F.lspace_family_diagram(
        w, 7, 2
    )
    assert S.linking_matrix(diagram) == [[2, 1, 0], [1, 0, 3], [0, 3, 7]]
    assert report.h1_order == 7 + 2 * 9 == 25
    assert axis_report == S.homology(F.axis_surgery(w, [Fraction(7)]))
    assert axis_report.h1_order == 9
    assert next_report == F.lspace_family_diagram(w, 7, 3)[1]
    assert next_report.h1_order == 7 + 3 * 9
    assert additive


def test_lspace_family_small_case():
    w = B.parse_braid("B2 s1^3")
    _, report, additive, *_ = F.lspace_family_diagram(w, 1, 1)
    assert report.h1_order == 1 + 4 == 5
    assert additive


def test_lspace_family_guards():
    with pytest.raises(S.SurgeryError):
        F.lspace_family_diagram(HOPF, 1, 1)  # link, not knot
    with pytest.raises(S.SurgeryError):
        F.lspace_family_diagram(KNOT, 0, 1)


# -- serialization ---------------------------------------------------------------

def test_framing_strings():
    assert S.framing_str(Fraction(-7, 2)) == "-7/2"
    assert S.framing_str(S.INF) == "inf"
    assert parse_framing("inf") is S.INF
    assert parse_framing("-7/2") == Fraction(-7, 2)


def test_diagram_to_dict_round_trip_fields():
    e = S.slam_dunk_expand(knot_slope_diagram(Fraction(2, 7)))
    data = S.diagram_to_dict(e)
    assert data["braid"] == "B2 s1^5"
    assert [c["kind"] for c in data["components"]] == ["braid", "chain", "chain"]
    assert [c["framing"] for c in data["components"]] == ["0/1", "-4/1", "-2/1"]
    assert [c["parent"] for c in data["components"]] == [None, 0, 1]


def test_seven_component_homology_matches_dense_kernels():
    # Unreduced, the Smith form of this 61x61 matrix grew entries past 10^70.
    word = B.parse_braid(
        "B7 " + " ".join(["s2 s6^-1 s2^-2 s6 s4^2 s5 s6 s4 s5^-1 s2 s1^-1 s3 s4 s1"] * 5)
    )
    slopes = SlopeVector(tuple(map(Fraction, (6, 1, 1, 4, 8, 5, 2))))
    e = S.slam_dunk_expand(S.rational_surgery(word, slopes))
    m = S.linking_matrix(e)
    report = S.homology(e)
    assert len(m) == 61
    assert report.det == linalg.det(m) == -23995178814630002688
    assert report.signature == linalg.signature(m) == -49
    assert report.h1_order == abs(report.det) == S.h1_invariants(e)[0]
    assert report.elementary_divisors[-3:] == (4, 24, 888)


# -- folded invariants ---------------------------------------------------------
# Every diagram takes the fold (stacks of -2 leaves split off as factors 2,
# unit pivots, Smith form of the small residual, Schur complement signature
# plus pivot signs); the dense kernels on the full matrix are the oracle.


def dense_report(diagram, order=None):
    """The fold's fields from the dense kernels, each run once on the full
    matrix (the Smith form runs ``det`` itself).  The matrix is symmetric,
    so det is 0 or the product of the Smith form with the sign
    ``(-1)^((n - sigma) / 2)``, one minus per negative eigenvalue.  Rows
    and columns are taken in ``order``: a permutation congruence keeps
    det, the Smith form and the signature."""
    m = S.linking_matrix(diagram)
    if order is not None:
        m = [[m[i][j] for j in order] for i in order]
    snf = linalg.smith_normal_form(m)
    sig = linalg.signature(m)
    det = 0 if 0 in snf else (-1) ** ((len(m) - sig) // 2) * prod(snf)
    return det, prod(snf), tuple(x for x in snf if x > 1), snf.count(0), sig


def folded_report(diagram):
    r = S.homology(diagram)
    return r.det, r.h1_order, r.elementary_divisors, r.free_rank, r.signature


@st.composite
def folded_cases(draw):
    """A bench knot or link, each slope a whole part 0-6 plus nothing, a
    chain or ``1/n``, under either expansion."""
    text = draw(st.sampled_from(WORKLOADS.KNOTS + WORKLOADS.LINKS + (UNBALANCED_LINK,)))
    word = B.parse_braid(text)
    slopes = []
    for _ in range(B.permutation(word).num_components):
        whole = draw(st.integers(min_value=0, max_value=6))
        tail = draw(st.sampled_from(["none", "chain", "meridian"]))
        if tail == "chain":
            coeffs = st.lists(st.integers(min_value=-6, max_value=-2), min_size=1, max_size=4)
            frac = WORKLOADS.chain_slope(draw(coeffs))
        elif tail == "meridian":
            frac = Fraction(1, draw(st.integers(min_value=2, max_value=9)))
        else:
            frac = Fraction(0)
        slopes.append(whole + frac or Fraction(1))
    expand = draw(st.sampled_from([S.slam_dunk_expand, S.expand_general]))
    return expand(S.rational_surgery(word, SlopeVector(tuple(slopes))))


@given(folded_cases())
@settings(max_examples=150, deadline=None)
def test_folded_invariants_match_dense_kernels(diagram):
    assert folded_report(diagram) == dense_report(diagram)


@pytest.mark.parametrize(
    "text,slopes",
    [
        ("B2 s1^5", "9713/35369"),
        ("B2 s1^5", "13/3"),
        ("B3 s1^7 s2^-1", "1/9"),
        ("B4 s2^-1 s3^7 s1^7 s2^5", "2/5,7/3"),
        # lk = -1 and both slopes 1: the Schur complement is singular.
        ("B4 s1^5 s3^5 s2^-2", "1,1"),
    ],
)
def test_folded_invariants_match_dense_kernels_on_fixed_cases(text, slopes):
    v = SlopeVector(tuple(Fraction(s) for s in slopes.split(",")))
    d = S.rational_surgery(B.parse_braid(text), v)
    for expand in (S.slam_dunk_expand, S.expand_general):
        e = expand(d)
        assert folded_report(e) == dense_report(e)
    free_rank = folded_report(S.slam_dunk_expand(d))[3]
    assert free_rank == (1 if slopes == "1,1" else 0)


def test_folded_divisors_pinned():
    five_halves = S.homology(S.slam_dunk_expand(knot_slope_diagram(Fraction(5, 2))))
    assert five_halves.elementary_divisors == (2, 2, 2, 10)
    eighty = S.homology(S.slam_dunk_expand(knot_slope_diagram(80)))
    assert eighty.elementary_divisors == (2,) * 158 + (320,)
    assert eighty.h1_order == 4**80 * 80
    assert eighty.signature == 1 - 160


def test_fold_builds_no_dense_matrix(monkeypatch):
    def spy(diagram):
        raise AssertionError("a dense matrix was built")

    monkeypatch.setattr(S, "h1_presentation_matrix", spy)
    link = B.parse_braid("B4 s1^5 s3^5 s2^-2")
    diagrams = [
        knot_slope_diagram(Fraction(9713, 35369)),
        S.rational_surgery(link, SlopeVector((Fraction(83, 5), Fraction(44, 7)))),
    ]
    for d in diagrams:
        for expand in (S.slam_dunk_expand, S.expand_general):
            e = expand(d)
            S.homology(e)


def test_merge_twos_by_two_adic_valuation():
    assert S._merge_twos([1, 3, 12, 0], 0) == [1, 3, 12, 0]
    # 2-exponents 0, 0, 2 and 1, 1 sorted; odd parts 1, 1 then 1, 3, 3.
    assert S._merge_twos([1, 3, 12, 0], 2) == [1, 1, 2, 6, 12, 0]
    assert S._merge_twos([5, 40], 3) == [1, 2, 2, 10, 40]
    assert S._merge_twos([4], 2) == [2, 2, 4]
    assert S._merge_twos([], 1) == [2]


def spy_kernels(monkeypatch):
    """Sizes of the matrices each linalg kernel is called with."""
    sizes = {"det": [], "smith_normal_form": [], "signature": []}
    for name, seen in sizes.items():
        original = getattr(linalg, name)

        def spy(m, _original=original, _seen=seen):
            _seen.append(len(m))
            return _original(m)

        monkeypatch.setattr(linalg, name, spy)
    return sizes


def test_folded_kernels_see_at_most_2k_rows(monkeypatch):
    sizes = spy_kernels(monkeypatch)
    e = S.slam_dunk_expand(knot_slope_diagram(80))
    assert len(e.components) == 161
    S.homology(e)
    assert sizes == {"det": [1], "smith_normal_form": [1], "signature": [1]}
    link = B.parse_braid("B4 s1^5 s3^5 s2^-2")
    d = S.rational_surgery(link, SlopeVector((Fraction(83, 5), Fraction(44, 7))))
    S.homology(S.slam_dunk_expand(d))
    assert max(sizes["smith_normal_form"] + sizes["det"]) <= 4
    assert max(sizes["signature"]) <= 2


def test_other_diagrams_match_the_dense_oracle(monkeypatch):
    sizes = spy_kernels(monkeypatch)
    e = S.slam_dunk_expand(knot_slope_diagram(Fraction(5, 2)))
    twisted = F.rolfsen_twist(e, 1, 1)  # a meridian framed -2 becomes +2
    assert twisted.is_integral
    # (diagram, Smith form residual, signature residual): an axis framed 0
    # is a zero pivot, kept with the closure.
    cases = [
        (F.axis_surgery(KNOT, [Fraction(7)]), 2, 2),
        (F.lspace_family_diagram(B.parse_braid("B3 s1 s2"), 7, 2)[0], 1, 2),
        (twisted, 2, 1),
        # An unknot framed -2 under five or four leaves framed -2: Schur
        # pivot 1/2 (eliminated) or 0 (kept).
        *(
            (
                S.SurgeryDiagram(
                    KNOT,
                    (S.SurgeryComponent(kind=S.BRAID, framing=Fraction(3), component=1),)
                    + (S.SurgeryComponent(kind=S.MERIDIAN, framing=Fraction(-2), parent=0),)
                    + (S.SurgeryComponent(kind=S.CHAIN, framing=Fraction(-2), parent=1),)
                    * leaves,
                ),
                2,
                residual,
            )
            for leaves, residual in ((5, 1), (4, 2))
        ),
    ]
    for d, smith, signature in cases:
        d = S.SurgeryDiagram(d.braid, d.components)  # no memo yet
        for seen in sizes.values():
            seen.clear()
        report = folded_report(d)
        assert sizes == {
            "det": [smith], "smith_normal_form": [smith], "signature": [signature]
        }
        assert report == dense_report(d)
    rational_stack = S.SurgeryDiagram(
        KNOT,
        (S.SurgeryComponent(kind=S.BRAID, framing=Fraction(3, 2), component=1),)
        + (S.SurgeryComponent(kind=S.MERIDIAN, framing=Fraction(-2), parent=0),) * 3,
    )
    # A meridian framed -2/3; three -2 leaves on a closure framed 3/2 (its
    # column holds 2s, so they are not a stack).
    for rational in (F.rolfsen_twist(e, 1, -1), rational_stack):
        assert not rational.is_integral
        dense = linalg.smith_normal_form(S.h1_presentation_matrix(rational))
        assert S.h1_invariants(rational) == (
            prod(dense), tuple(x for x in dense if x > 1), dense.count(0)
        )
    empty = S.SurgeryDiagram(
        KNOT,
        (
            S.SurgeryComponent(kind=S.BRAID, framing=Fraction(1), component=1),
            S.SurgeryComponent(kind=S.MERIDIAN, framing=S.INF, parent=0),
        ),
    )
    with pytest.raises(S.SurgeryError, match="empty filling has no relation"):
        S.h1_invariants(empty)


def test_twisted_expansion_kernels_see_at_most_2_rows(monkeypatch):
    # One of 400 meridians framed -2 twisted to +2: the dense kernels on
    # all 401 rows take seconds, the fold a 2 x 2 residual.  The closure
    # links every meridian; its row goes last, or Bareiss elimination
    # fills the whole matrix in at its first pivot (about 25 s more).
    e = S.slam_dunk_expand(knot_slope_diagram(200))
    twisted = F.rolfsen_twist(e, 1, 1)
    assert len(twisted.components) == 401
    expected = dense_report(twisted, order=[*range(1, 401), 0])
    sizes = spy_kernels(monkeypatch)
    twisted = S.SurgeryDiagram(twisted.braid, twisted.components)  # no memo yet
    assert folded_report(twisted) == expected
    assert expected[-1] == -397
    assert max(sizes["det"] + sizes["smith_normal_form"] + sizes["signature"]) <= 2


def test_folded_forest_that_is_not_a_path_matches_dense():
    # One chain unknot framed -2 with two leaves framed -3: pivot -2 + 2/3.
    d = S.SurgeryDiagram(
        KNOT,
        (
            S.SurgeryComponent(kind=S.BRAID, framing=Fraction(1), component=1),
            S.SurgeryComponent(kind=S.MERIDIAN, framing=Fraction(-2), parent=0),
            S.SurgeryComponent(kind=S.MERIDIAN, framing=Fraction(-2), parent=0),
            S.SurgeryComponent(kind=S.CHAIN, framing=Fraction(-2), parent=0),
            S.SurgeryComponent(kind=S.CHAIN, framing=Fraction(-3), parent=3),
            S.SurgeryComponent(kind=S.CHAIN, framing=Fraction(-3), parent=3),
        ),
    )
    assert folded_report(d) == dense_report(d)


@st.composite
def sparse_folds(draw):
    """Sparse symmetric integer rows (unknots linked to each other, so the
    fold fills in), zero and negative pivots, the unknots to fold in any
    order, and up to three sparse border columns."""
    n = draw(st.integers(min_value=1, max_value=9))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, -5, 7])
    rows = [{} for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if x := draw(entry):
                rows[i][j] = rows[j][i] = x
    unknots = draw(st.lists(st.integers(0, n - 1), unique=True))
    border = draw(st.lists(st.dictionaries(st.integers(0, n - 1), entry), max_size=3))
    return rows, unknots, border


@given(sparse_folds())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_integer_fold_matches_the_fraction_fold(case):
    rows, unknots, border = case
    shared = [dict(row) for row in rows]
    fold = SimpleNamespace(_relations=shared, _unknots=unknots)
    folded = S.SurgeryDiagram._schur(fold, border)
    assert folded == schur_by_fractions(rows, unknots, border)
    _, m, scale, _ = folded
    assert all(type(x) is int for row in m for x in [scale, *row])
    assert shared == rows  # the shared rows are read, never changed


@given(folded_cases())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_integer_fold_of_an_expansion_matches_the_fraction_fold(diagram):
    rows, unknots = diagram._relations, diagram._unknots
    rot = {i: (-1) ** i * (i % 3) for i in range(len(rows))}
    for border in ((), [rot], [rot, {unknots[-1]: 1}] if unknots else [rot]):
        expected = schur_by_fractions(rows, unknots, border)
        assert diagram._schur(border) == expected


# -- presentation matrix -------------------------------------------------------
# Built from the structure (closure block, axis rows, one entry per parent
# edge); the oracle reads each pair's linking number off its two kinds.

BRAIDS = WORKLOADS.KNOTS + WORKLOADS.LINKS + (UNBALANCED_LINK,)


@st.composite
def any_diagrams(draw):
    """Components of every kind, any parents (themselves, cycles, pairs of
    closures), unknots carrying a closure index, and any rational framings."""
    word = B.parse_braid(draw(st.sampled_from(BRAIDS)))
    k = B.permutation(word).num_components
    n = draw(st.integers(min_value=1, max_value=9))
    framings = st.builds(
        Fraction, st.integers(-9, 9), st.integers(min_value=1, max_value=5)
    )
    ids = st.integers(1, k)  # closure components; only braids are read as one
    comps = []
    for _ in range(n):
        kind = draw(st.sampled_from([S.BRAID, S.MERIDIAN, S.CHAIN, S.AXIS]))
        comps.append(
            S.SurgeryComponent(
                kind=kind,
                framing=draw(framings),
                component=draw(ids if kind == S.BRAID else st.none() | ids),
                parent=draw(st.none() | st.integers(0, n - 1)),
            )
        )
    return S.SurgeryDiagram(word, tuple(comps))


@given(any_diagrams() | folded_cases())
@settings(max_examples=200, deadline=None)
def test_presentation_matrix_matches_linking_per_pair(diagram):
    expected = presentation_matrix_by_pairs(diagram)
    assert S.h1_presentation_matrix(diagram) == expected


@given(any_diagrams() | folded_cases())
@settings(max_examples=200, deadline=None)
def test_invariants_of_any_diagram_match_dense_kernels(diagram):
    dense = linalg.smith_normal_form(S.h1_presentation_matrix(diagram))
    assert S.h1_invariants(diagram) == (
        prod(dense), tuple(x for x in dense if x > 1), dense.count(0)
    )
    if diagram.is_integral:
        assert folded_report(diagram) == dense_report(diagram)
