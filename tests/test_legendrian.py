import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidsurgery import braid as B
from braidsurgery import families as F
from braidsurgery import legendrian as L
from braidsurgery import surgery as S
from braidsurgery.cfrac import SlopeVector, phi_vector
from oracles import solve_rational
from test_cli import UNBALANCED_LINK, WORKLOADS


KNOT = B.parse_braid("B2 s1^5")
SEVEN = B.parse_braid("B3 s1^7 s2^-1")

words3 = st.lists(
    st.sampled_from([1, -1, 2, -2]), min_size=0, max_size=12
).map(lambda ls: B.BraidWord(3, tuple(ls)))


# -- front statistics ---------------------------------------------------------

def test_front_stats_b2_power_five():
    c = L.link_front_stats(KNOT)[0]
    assert (c.tb, c.rot, c.cusps) == (3, 0, 4)


def test_front_stats_seven_braid():
    c = L.link_front_stats(SEVEN)[0]
    assert (c.tb, c.rot, c.cusps) == (2, 1, 8)


@given(words3)
def test_front_rot_zero_iff_even_negatives(w):
    if B.permutation(w).is_knot:
        c = L.link_front_stats(w)[0]
        assert c.rot == w.c_minus % 2
        assert c.tb % 2 == (w.c_plus + w.strands) % 2


@given(words3)
@settings(max_examples=120)
def test_parity_condition_enables_rot_zero(w):
    # exactly the braids passing the parity condition stabilize to
    # (tb, rot) = (1, 0): tb - 1 and rot have equal parity there
    if not B.permutation(w).is_knot:
        return
    c = L.link_front_stats(w)[0]
    if c.tb < 1:
        return
    rep = B.check_hypothesis(w)
    feasible = (c.tb - 1 - c.rot) % 2 == 0
    assert feasible == rep.cond_parity


def test_link_front_stats_agrees_on_knots():
    # The knot formulas: tb = c+ - 2c- - m, rot = c- mod 2, 2(m + c-) cusps.
    for w in (KNOT, SEVEN) + tuple(map(B.parse_braid, WORKLOADS.KNOTS)):
        c = L.link_front_stats(w)
        assert len(c) == 1
        assert c[0].tb == w.c_plus - 2 * w.c_minus - w.strands
        assert (c[0].rot, c[0].cusps) == (w.c_minus % 2, 2 * (w.strands + w.c_minus))


def test_failing_components_are_named_before_any_front_is_stabilized():
    for text, failing in (("B3 s1^3 s2^-1", [1]), ("B2 s1^-2", [1, 2])):
        w = B.parse_braid(text)
        slopes = SlopeVector((Fraction(1, 2),) * B.permutation(w).num_components)
        with pytest.raises(L.HypothesisError) as info:
            L.enumerate_weinstein(w, slopes)
        assert str(info.value) == (
            f"components {failing} fail the charged crossing condition"
        )


def test_link_front_stats_charges_negative_crossings():
    w = B.parse_braid("B2 s1^-2")
    comps = L.link_front_stats(w)
    # both components: c = (0,0), d_- = 2, m_i = 1 -> tb = -3
    assert [c.tb for c in comps] == [-3, -3]
    # the cusp pairs land on component 1 only
    assert comps[0].cusps == 2 * (1 + 0 + 2)
    assert comps[1].cusps == 2 * (1 + 0 + 0)
    assert comps[0].rot == 0 and comps[1].rot == 0


def test_link_front_stats_positive_braid():
    comps = L.link_front_stats(B.parse_braid("B2 s1^2"))
    assert [c.tb for c in comps] == [-1, -1]  # c_{i,+} - m_i


# -- stabilization ------------------------------------------------------------

def test_stabilize_examples():
    c = L.LegendrianComponent(tb=3, rot=0, cusps=4)
    out = L.stabilize_to(c, 1, 0)
    assert (out.stab_pos, out.stab_neg, out.cusps) == (1, 1, 8)
    c = L.LegendrianComponent(tb=2, rot=1, cusps=8)
    out = L.stabilize_to(c, 1, 0)
    assert (out.stab_pos, out.stab_neg) == (0, 1)
    with pytest.raises(L.LegendrianError):
        L.stabilize_to(L.LegendrianComponent(tb=2, rot=0, cusps=4), 1, 0)


def test_stabilize_range_guards():
    c = L.LegendrianComponent(tb=2, rot=0, cusps=4)
    with pytest.raises(L.LegendrianError):
        L.stabilize_to(c, 3, 1)  # cannot raise tb
    with pytest.raises(L.LegendrianError):
        L.stabilize_to(c, 1, 2)  # rot shift out of range


@given(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
)
def test_stabilize_path_independence(rot0, a, b):
    start = L.LegendrianComponent(tb=10, rot=rot0, cusps=10)
    mid_rot = rot0 + a - b
    mid = L.stabilize_to(start, 10 - a - b, mid_rot)
    # continue to a common target through different waypoints
    final = L.stabilize_to(mid, 0, mid_rot - (10 - a - b))
    direct = L.stabilize_to(start, 0, mid_rot - (10 - a - b))
    assert final == direct


def test_stabilize_identity_on_targets():
    c = L.LegendrianComponent(tb=3, rot=1, cusps=6)
    out = L.stabilize_to(c, 3, 1)
    assert out == c


# -- unknot menus ---------------------------------------------------------------

def test_menu_minus_two():
    menu = L.unknot_menu(-2)
    assert [(c.tb, c.rot) for c in menu] == [(-1, 0)]


def test_menu_minus_four():
    menu = L.unknot_menu(-4)
    assert [c.rot for c in menu] == [-2, 0, 2]
    assert all(c.tb == -3 for c in menu)


@pytest.mark.parametrize("n", range(2, 12))
def test_menu_size_and_symmetry(n):
    menu = L.unknot_menu(-n)
    rots = [c.rot for c in menu]
    assert len(menu) == n - 1
    assert rots == sorted(rots)
    assert rots == [-r for r in reversed(rots)]
    assert all(c.tb == -n + 1 for c in menu)
    assert all(abs(c.rot) <= n - 2 for c in menu)
    assert all((c.rot - (-n)) % 2 == 0 for c in menu)


def test_menu_rejects_large_framings():
    with pytest.raises(L.LegendrianError):
        L.unknot_menu(-1)
    with pytest.raises(L.LegendrianError):
        L.unknot_menu(0)


# -- enumeration -----------------------------------------------------------------

def test_enumeration_count_one_over_n():
    for n in range(2, 12):
        enum = L.enumerate_weinstein(KNOT, SlopeVector((Fraction(1, n),)))
        diagrams = list(enum)
        assert enum.count == n - 1 == len(diagrams)
        assert sorted(d.rotation_tuple[0] for d in diagrams) == list(
            range(2 - n, n - 1, 2)
        )


def test_enumeration_count_examples():
    assert L.enumerate_weinstein(KNOT, SlopeVector((Fraction(2, 7),))).count == 3
    assert L.enumerate_weinstein(KNOT, SlopeVector((Fraction(1, 2),))).count == 1


def test_enumeration_validates_and_distinct():
    enum = L.enumerate_weinstein(KNOT, SlopeVector((Fraction(4, 7),)))
    seen = set()
    for d in enum:
        assert L.validate_weinstein(d)
        assert d.rotation_tuple not in seen
        seen.add(d.rotation_tuple)
    assert len(seen) == enum.count == phi_vector(SlopeVector((Fraction(4, 7),)))


def test_enumeration_braid_pinned_to_tb_one_rot_zero():
    enum = L.enumerate_weinstein(SEVEN, SlopeVector((Fraction(1, 4),)))
    for d in enum:
        leg = d.legendrian[0]
        assert (leg.tb, leg.rot) == (1, 0)
        assert d.base.components[0].framing == 0


def test_enumeration_hypothesis_violation():
    with pytest.raises(L.HypothesisError):
        L.enumerate_weinstein(
            B.parse_braid("B3 s1^3 s2^-1"), SlopeVector((Fraction(1, 2),))
        )


def test_enumeration_rejects_bad_slopes():
    with pytest.raises(S.SurgeryError):
        list(L.enumerate_weinstein(KNOT, SlopeVector((Fraction(-1, 2),))))


def test_enumeration_multi_component():
    # two 2-strand components, clasped by a pair of negative crossings
    boosted = B.parse_braid("B4 s1^5 s3^5 s2^-2")
    rep = B.check_hypothesis(boosted)
    assert all(rep.per_component_cond)
    v = SlopeVector((Fraction(2, 5), Fraction(2, 7)))
    enum = L.enumerate_weinstein(boosted, v)
    assert enum.count == phi_vector(v) == 6
    tuples = [d.rotation_tuple for d in enum]
    assert len(set(tuples)) == 6


def test_enumeration_integer_slope_counts_once():
    enum = L.enumerate_weinstein(KNOT, SlopeVector((Fraction(2),)))
    assert enum.count == 1
    (diagram,) = list(enum)
    assert L.validate_weinstein(diagram)
    assert diagram.rotation_tuple == (0, 0, 0, 0)


# -- pairing vector and theta ------------------------------------------------------

def test_c1_pairing_matches_menu():
    enum = L.enumerate_weinstein(KNOT, SlopeVector((Fraction(1, 5),)))
    for d in enum:
        assert L.c1_pairing(d) == [0, d.rotation_tuple[0]]


def test_theta_one_over_n_family():
    for n in range(2, 10):
        enum = L.enumerate_weinstein(KNOT, SlopeVector((Fraction(1, n),)))
        values = set()
        for d in enum:
            rep = L.theta(d)
            assert rep.c1_squared == 0
            assert rep.chi == 3 and rep.sigma == 0
            assert rep.complete_invariant
            values.add(rep.theta)
        assert values == {Fraction(-6)}


def test_theta_two_sevenths_values():
    enum = L.enumerate_weinstein(KNOT, SlopeVector((Fraction(2, 7),)))
    reports = [L.theta(d) for d in enum]
    assert all(r.c1_squared == 0 for r in reports)
    assert all(r.theta == -5 for r in reports)
    assert all(r.sigma == -1 and r.chi == 4 for r in reports)
    assert all(not r.complete_invariant for r in reports)


def test_theta_sees_nonzero_c1_squared():
    w = B.parse_braid("B4 s1^5 s3^5 s2^-2")
    v = SlopeVector((Fraction(2, 5), Fraction(2, 7)))
    reports = [L.theta(d) for d in L.enumerate_weinstein(w, v)]
    assert any(r.c1_squared != 0 for r in reports)
    for r in reports:
        assert r.theta == r.c1_squared - 2 * r.chi - 3 * r.sigma


def test_theta_invariant_under_tuple_negation():
    w = B.parse_braid("B4 s1^5 s3^5 s2^-2")
    v = SlopeVector((Fraction(2, 5), Fraction(2, 7)))
    by_tuple = {
        d.rotation_tuple: L.theta(d).c1_squared
        for d in L.enumerate_weinstein(w, v)
    }
    for tup, value in by_tuple.items():
        mirrored = tuple(-x for x in tup)
        assert by_tuple[mirrored] == value


@pytest.mark.parametrize(
    "braid_text,slope,det",
    [("B2 s1^9", Fraction(62, 489), -62), ("B3 s1^3 s2^5", Fraction(519, 1445), 519)],
)
def test_theta_sweep_lists_the_forms_by_increasing_theta(braid_text, slope, det):
    # The bench's two sweeps, det = det(Q): 24 and 65 distinct forms,
    # c1^2 = form / D with D from the fold of every unknot.
    enum = L.enumerate_weinstein(B.parse_braid(braid_text), SlopeVector((slope,)))
    _, values = enum.theta_sweep(str)
    assert S.homology(enum.base).det == det
    d, forms = enum.c1_forms()
    assert d == {-62: 30318, 519: 749955}[det]
    c1_squares = [Fraction(c1sq) for c1sq, _, _ in values]
    assert c1_squares == sorted({Fraction(form, d) for form in forms})
    assert len(values) == {-62: 24, 519: 65}[det]


@st.composite
def sweep_cases(draw):
    """A bench knot or link, each slope a whole part 0-6 plus a chain or
    ``1/n``; at most a few hundred tuples.  A whole part adds meridians
    framed -2, which the form eliminates with the -2s of the chains."""
    text = draw(st.sampled_from(WORKLOADS.KNOTS + WORKLOADS.LINKS + (UNBALANCED_LINK,)))
    word = B.parse_braid(text)
    k = B.permutation(word).num_components
    slopes = []
    for _ in range(k):
        whole = draw(st.integers(min_value=0, max_value=6))
        if draw(st.booleans()):
            frac = Fraction(1, draw(st.integers(min_value=2, max_value=9)))
        else:
            coeffs = st.lists(
                st.integers(min_value=-6, max_value=-2), min_size=1, max_size=4 // k
            )
            frac = WORKLOADS.chain_slope(draw(coeffs))
        slopes.append(whole + frac)
    return word, SlopeVector(tuple(slopes))


@given(sweep_cases())
# A -2 between two unknots framed -3: eliminating it links them.
@example((KNOT, SlopeVector((WORKLOADS.chain_slope((-3, -2, -3)),))))
# det(Q) = 0: there is no c1^2 to match.
@example(
    (B.parse_braid("B4 s1^5 s3^5 s2^-2"), SlopeVector((Fraction(2, 3), Fraction(3, 2))))
)
@settings(max_examples=40, deadline=None)
def test_c1_squares_match_rational_solve(case):
    enum = L.enumerate_weinstein(*case)
    if S.homology(enum.base).det == 0:
        with pytest.raises(L.SingularityError):
            enum.c1_squares()
        return
    q = S.linking_matrix(enum.base)
    # Q^-1 r is the sum of r_i Q^-1 e_i: one dense rational solve per
    # component that ever has a nonzero rot.
    inverse = {}
    swept = list(enum.c1_squares())
    assert [ks for ks, _, _ in swept] == list(enum.tuples())
    for ks, rots, c1sq in swept:
        diagram = enum.diagram_for(ks)
        r = L.c1_pairing(diagram)
        assert rots == diagram.rotation_tuple
        support = [i for i, x in enumerate(r) if x]
        for i in support:
            if i not in inverse:
                inverse[i] = solve_rational(q, [int(i == j) for j in range(len(q))])
        assert c1sq == sum(r[i] * r[j] * inverse[i][j] for i in support for j in support)
        assert L.theta(diagram).c1_squared == c1sq


@given(sweep_cases())
@example((KNOT, SlopeVector((WORKLOADS.chain_slope((-3, -2, -3)),))))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_theta_sweep_ids_and_indices_rebuild_the_rows(case):
    # c1_squares' rows are the oracle: the sweep's id of a tuple and the
    # index lists of its values give the same c1^2 at the same position.
    enum = L.enumerate_weinstein(*case)
    report = S.homology(enum.base)
    if report.det == 0:
        return
    shift = 2 * report.euler_char + 3 * report.signature
    ids, values = enum.theta_sweep(lambda value: value)
    rows = list(enum.c1_squares())
    picks = zip(enum.tuples(), enum._rotation_tuples())
    assert [(*ks, values[k][0]) for ks, k in zip(picks, ids)] == rows
    by_index = sorted((i, c1sq) for c1sq, _, indices in values for i in indices)
    assert by_index == [(i, c1sq) for i, (_, _, c1sq) in enumerate(rows)]
    for c1sq, theta, indices in values:
        assert theta == c1sq - shift
        assert list(indices) == sorted(indices)
    thetas = [theta for _, theta, _ in values]
    assert thetas == sorted(set(thetas))


def _star_of_twos(leaves=5):
    # A meridian framed -2 under five (four) leaves framed -2: its Schur
    # pivot is 1/2 (0), so it is eliminated (kept) after the leaves.
    return S.SurgeryDiagram(
        KNOT,
        (S.SurgeryComponent(kind=S.BRAID, framing=Fraction(3), component=1),)
        + (S.SurgeryComponent(kind=S.MERIDIAN, framing=Fraction(-2), parent=0),)
        + (S.SurgeryComponent(kind=S.CHAIN, framing=Fraction(-2), parent=1),) * leaves,
    )


@pytest.mark.parametrize(
    "base",
    [
        F.axis_surgery(KNOT, [Fraction(5)], axis_framing=Fraction(-3)),
        F.axis_surgery(SEVEN, [Fraction(-4)], axis_framing=Fraction(2)),
        F.lspace_family_diagram(SEVEN, 7, 2)[0],
        _star_of_twos(),
    ],
)
def test_theta_on_other_bases_matches_rational_solve(base):
    # r is 0 on the unknots framed -2, where tb -1 forces rot 0; the
    # oracle solves with the full Q.
    comps = base.components
    twos = [i for i, c in enumerate(comps) if c.kind != S.BRAID and c.framing == -2]
    q = S.linking_matrix(base)
    rng = random.Random(len(q))
    for _ in range(20):
        r = [0 if i in twos else rng.randint(-3, 3) for i in range(len(q))]
        legendrian = tuple(L.LegendrianComponent(tb=0, rot=x, cusps=2) for x in r)
        report = L.theta(L.WeinsteinDiagram(base, legendrian, tuple(r)))
        assert report.c1_squared == sum(x * y for x, y in zip(r, solve_rational(q, r)))


def test_theta_needs_rot_zero_on_unknots_framed_minus_two():
    expansion = S.slam_dunk_expand(S.rational_surgery(KNOT, SlopeVector((Fraction(1),))))
    assert [c.framing for c in expansion.components] == [0, -2, -2]
    closure = L.LegendrianComponent(tb=1, rot=0, cusps=4)
    # Component 1 is a meridian framed -2: eliminated, but kept by its
    # zero pivot in the star of four.
    for base in (expansion, _star_of_twos(), _star_of_twos(4)):
        unknots = (L.legendrian_unknot(),) * (len(base.components) - 2)
        for rot, ok in ((0, True), (2, False)):
            meridian = L.LegendrianComponent(tb=-1, rot=rot, cusps=2)
            rots = (rot,) + (0,) * len(unknots)
            diagram = L.WeinsteinDiagram(base, (closure, meridian, *unknots), rots)
            if ok:
                assert L.theta(diagram).c1_squared == 0
            else:
                with pytest.raises(L.LegendrianError):
                    L.theta(diagram)


@st.composite
def one_tuples(draw):
    """One diagram: a pick from each menu of a chain of up to 60 unknots
    framed -2, -3 or -4 on the knot, or a rot on the closure of the star
    of four, whose meridian's pivot is zero."""
    if draw(st.booleans()):
        r = (draw(st.integers(-9, 9)),) + (0,) * 5
        legendrian = tuple(L.LegendrianComponent(tb=0, rot=x, cusps=2) for x in r)
        return L.WeinsteinDiagram(_star_of_twos(4), legendrian, r[1:])
    n = draw(st.integers(1, 60))
    coeffs = draw(st.lists(st.sampled_from([-2, -3, -4]), min_size=n, max_size=n))
    return _chain_tuple(coeffs, lambda menu: draw(st.integers(1, len(menu))))


def _chain_tuple(coeffs, pick):
    enum = L.enumerate_weinstein(KNOT, SlopeVector((WORKLOADS.chain_slope(coeffs),)))
    return enum.diagram_for(pick(menu) for menu in enum.menus)


@given(one_tuples())
# The longest chain of -3s, each with rot 1.
@example(_chain_tuple([-3] * 60, lambda menu: 2))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_one_tuple_theta_matches_rational_solve(w):
    q = S.linking_matrix(w.base)
    r = L.c1_pairing(w)
    assert L.theta(w).c1_squared == sum(x * y for x, y in zip(r, solve_rational(q, r)))


def test_c1_squares_on_a_singular_base():
    # lk = -1 and both slopes 1: det Q = 0.
    w = B.parse_braid("B4 s1^5 s3^5 s2^-2")
    enum = L.enumerate_weinstein(w, SlopeVector((Fraction(1), Fraction(1))))
    with pytest.raises(S.SingularityError):
        enum.c1_squares()
    with pytest.raises(S.SingularityError):
        L.theta(next(iter(enum)))


@pytest.mark.parametrize("levels", [995, 998])
def test_c1_walks_over_the_tuple_cap_raise_the_budget_error(levels):
    # A chain of -3s: 2^levels tuples, one walk level per unknot.
    enum = L.enumerate_weinstein(
        KNOT, SlopeVector((WORKLOADS.chain_slope([-3] * levels),))
    )
    for walk in (enum.c1_forms, enum.c1_squares):
        with pytest.raises(L.TupleBudgetExceeded) as caught:
            walk()
        assert caught.value.budget == "MAX_THETA_TUPLES"
        assert caught.value.needed == 2**levels


def test_theta_requires_nonsingular_matrix():
    base = S.SurgeryDiagram(
        KNOT,
        (S.SurgeryComponent(kind=S.BRAID, framing=Fraction(0), component=1),),
    )
    diagram = L.WeinsteinDiagram(
        base=base,
        legendrian=(L.LegendrianComponent(tb=1, rot=0, cusps=4),),
        rotation_tuple=(),
    )
    with pytest.raises(S.SingularityError):
        L.theta(diagram)


def test_validate_weinstein_rejects_mismatch():
    base = S.slam_dunk_expand(
        S.rational_surgery(KNOT, SlopeVector((Fraction(1, 3),)))
    )
    good = L.WeinsteinDiagram(
        base=base,
        legendrian=(
            L.LegendrianComponent(tb=1, rot=0, cusps=4),
            L.LegendrianComponent(tb=-2, rot=1, cusps=4),
        ),
        rotation_tuple=(1,),
    )
    assert L.validate_weinstein(good)
    bad = L.WeinsteinDiagram(
        base=base,
        legendrian=(
            L.LegendrianComponent(tb=2, rot=0, cusps=4),
            L.LegendrianComponent(tb=-2, rot=1, cusps=4),
        ),
        rotation_tuple=(1,),
    )
    assert not L.validate_weinstein(bad)


# -- counting -----------------------------------------------------------------------

def test_isotopy_class_count():
    enum = L.enumerate_weinstein(KNOT, SlopeVector((Fraction(1, 6),)))
    diagrams = list(enum)
    assert L.isotopy_class_count(diagrams) == 5
    assert L.isotopy_class_count(diagrams + diagrams) == 5


def test_contactomorphism_lower_bound():
    assert L.contactomorphism_lower_bound(9, 1) == 9
    assert L.contactomorphism_lower_bound(9, 2) == 5
    assert L.contactomorphism_lower_bound(10, 5) == 2
    with pytest.raises(L.LegendrianError):
        L.contactomorphism_lower_bound(5, 0)


def test_random_slope_vectors_match_phi(subtests=None):
    rng = random.Random(33)
    for _ in range(25):
        q = rng.randint(2, 24)
        p = rng.randint(1, q - 1)
        v = SlopeVector((Fraction(p, q),))
        enum = L.enumerate_weinstein(KNOT, v)
        assert enum.count == phi_vector(v)


def test_weinstein_serialization():
    enum = L.enumerate_weinstein(KNOT, SlopeVector((Fraction(1, 3),)))
    data = [L.weinstein_to_dict(d) for d in enum]
    assert [d["rotation_tuple"] for d in data] == [[-1], [1]]
    assert all(d["tb"] == [1, -2] for d in data)


def test_diagram_for_indexes_menus():
    enum = L.enumerate_weinstein(KNOT, SlopeVector((Fraction(1, 5),)))
    assert enum.diagram_for((1,)).rotation_tuple == (-3,)
    assert enum.diagram_for((4,)).rotation_tuple == (3,)
    assert [d.rotation_tuple for d in enum] == [
        enum.diagram_for((k,)).rotation_tuple for k in range(1, 5)
    ]
    with pytest.raises(L.LegendrianError):
        enum.diagram_for((5,))
    with pytest.raises(L.LegendrianError):
        enum.diagram_for((1, 1))


def test_menu_picks_match_block_positives():
    # the k-th menu entry carries k-1 positive stabilizations, which is
    # exactly the positive-slice count of the corresponding block
    from braidsurgery import limits as LM

    slope = Fraction(4, 7)  # chain (-2, -4)
    enum = L.enumerate_weinstein(KNOT, SlopeVector((slope,)))
    coeffs = tuple(
        int(c.framing) for c in enum.base.components if c.kind != S.BRAID
    )
    stream = LM.CoeffStream(prefix=coeffs, cycle=(-2,))
    for ks in itertools.product(
        *[range(1, len(menu) + 1) for menu in enum.menus]
    ):
        d = enum.diagram_for(ks)
        unknot_legs = [
            leg
            for c, leg in zip(d.base.components, d.legendrian)
            if c.kind != S.BRAID
        ]
        tuple_k = LM.SignTuple(prefix=ks, tail=LM.TAIL_ONES)
        blocks = LM.block_decomposition(stream, tuple_k, len(coeffs) - 1)
        for leg, (length, positives), a in zip(unknot_legs, blocks.blocks, coeffs):
            assert leg.stab_pos + leg.stab_neg == length == abs(a + 2)
            assert leg.stab_pos == positives
            signs = LM.stabilization_to_slices(
                (1,) * leg.stab_pos + (-1,) * leg.stab_neg
            )
            assert LM.shuffle_normal_form(
                LM.BlockDecomposition(((len(signs), leg.stab_pos),))
            ) == (signs,)
