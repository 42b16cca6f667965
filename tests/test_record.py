"""The frozen-record base against the dataclasses twins in ``oracles``."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidsurgery import braid as B
from braidsurgery import cfrac as C
from braidsurgery import legendrian as L
from braidsurgery import limits as M
from braidsurgery import surgery as S
from braidsurgery.record import FrozenInstanceError, Record, replace
from oracles import RECORD_TWINS

small = st.integers(-6, 6)
fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)
int_tuples = st.lists(small, max_size=4).map(tuple)
optional = st.none() | st.integers(0, 3)

KINDS = [S.BRAID, S.MERIDIAN, S.CHAIN, S.AXIS]
component_kwargs = st.fixed_dictionaries(
    {"kind": st.sampled_from(KINDS + ["bogus"]), "framing": fractions | small | st.just(S.INF)},
    optional={"component": optional, "parent": optional, "depth": optional},
)
components = component_kwargs.filter(lambda kw: kw["kind"] != "bogus").map(
    lambda kw: S.SurgeryComponent(**kw)
)
KNOT = B.parse_braid("B2 s1^5")
HOPF = B.parse_braid("B2 s1^2")
DIAGRAMS = [
    S.rational_surgery(KNOT, C.SlopeVector((Fraction(2, 7),))),
    S.slam_dunk_expand(S.rational_surgery(KNOT, C.SlopeVector((Fraction(2, 7),)))),
    S.rational_surgery(HOPF, C.SlopeVector((1, 2))),
]

# Keyword arguments for each record class: mostly valid, sometimes not,
# and sometimes lists where the class keeps tuples.
KWARGS = {
    B.BraidWord: st.fixed_dictionaries(
        {"strands": st.integers(1, 5)},
        optional={"letters": st.lists(st.integers(-5, 5), max_size=6)},
    ),
    B.ComponentPartition: st.fixed_dictionaries(
        {"permutation": int_tuples, "component_of": int_tuples, "cycle_type": int_tuples}
    ),
    B.CrossingStats: st.fixed_dictionaries(
        {
            "c_plus": small,
            "c_minus": small,
            "per_component": st.lists(st.tuples(small, small), max_size=3).map(tuple),
            "inter_negative": st.lists(int_tuples, max_size=3).map(tuple),
            "d_minus": int_tuples,
            "linking": st.lists(int_tuples, max_size=3).map(tuple),
            "axis_linking": int_tuples,
        }
    ),
    B.HypothesisReport: st.fixed_dictionaries(
        {
            "is_knot": st.booleans(),
            "cond_tb": st.booleans(),
            "cond_parity": st.booleans(),
            "per_component_cond": st.lists(st.booleans(), max_size=3).map(tuple),
        },
        optional={"hyperbolicity": st.sampled_from(["unknown", "asserted"])},
    ),
    C.NegContFrac: st.fixed_dictionaries(
        {"coeffs": st.lists(st.integers(-6, -1), max_size=4).map(tuple), "value": fractions}
    ),
    C.SlopeVector: st.fixed_dictionaries(
        {"slopes": st.lists(fractions | small | st.sampled_from(["2/7", "-3", "x"]), max_size=3)}
    ),
    S.SurgeryComponent: component_kwargs,
    S.SurgeryDiagram: st.fixed_dictionaries(
        {
            "braid": st.sampled_from([KNOT, HOPF]),
            "components": st.lists(components, max_size=4).map(tuple),
        }
    ),
    S.HomologyReport: st.fixed_dictionaries(
        {
            "det": small,
            "h1_order": small,
            "elementary_divisors": int_tuples,
            "free_rank": small,
            "signature": small,
            "euler_char": small,
        }
    ),
    L.LegendrianComponent: st.fixed_dictionaries(
        {"tb": small, "rot": small, "cusps": st.integers(-1, 6)},
        optional={"stab_pos": st.integers(-1, 3), "stab_neg": st.integers(-1, 3)},
    ),
    L.WeinsteinDiagram: st.fixed_dictionaries(
        {
            "base": st.sampled_from(DIAGRAMS),
            "legendrian": st.lists(
                st.builds(L.LegendrianComponent, small, small, st.sampled_from([0, 2, 4])),
                max_size=4,
            ).map(tuple),
            "rotation_tuple": int_tuples,
        }
    ),
    L.ThetaReport: st.fixed_dictionaries(
        {
            "c1_squared": fractions,
            "chi": small,
            "sigma": small,
            "theta": fractions,
            "h1_order": small,
            "complete_invariant": st.booleans(),
        }
    ),
    M.CoeffStream: st.fixed_dictionaries(
        {},
        optional={
            "prefix": st.lists(st.integers(-5, -1), max_size=3),
            "cycle": st.lists(st.integers(-5, -1), max_size=3),
        },
    ),
    M.SignTuple: st.fixed_dictionaries(
        {},
        optional={
            "prefix": st.lists(st.integers(1, 3), max_size=3),
            "tail": st.sampled_from([M.TAIL_ONES, M.TAIL_MAX, M.TAIL_PERIODIC, "bogus"]),
            "tail_pattern": st.lists(st.integers(1, 3), max_size=2),
        },
    ),
    M.BlockDecomposition: st.fixed_dictionaries(
        {"blocks": st.lists(st.tuples(st.integers(0, 3), st.integers(-1, 3)), max_size=3).map(tuple)}
    ),
}


def outcome(make):
    """What ``make()`` returns, or the type and message of what it raised."""
    try:
        return make()
    except Exception as error:
        return type(error), str(error)


def assert_same_value(rec, twin):
    """The record and its twin print and hold the same fields."""
    if isinstance(twin, tuple):  # both raised
        assert rec == twin
        return
    assert repr(rec) == repr(twin)
    assert list(vars(rec).items()) == list(vars(twin).items())


def test_every_record_class_has_a_twin():
    assert set(KWARGS) == set(RECORD_TWINS) == set(_record_classes(Record))
    assert len(RECORD_TWINS) == 15


def _record_classes(cls):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("braidsurgery."):
            yield sub
        yield from _record_classes(sub)


@pytest.mark.parametrize("record", list(KWARGS), ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_records_behave_as_their_dataclass_twins(record, data):
    twin_cls = RECORD_TWINS[record]
    kwargs = data.draw(KWARGS[record], label="kwargs")
    rec = outcome(lambda: record(**kwargs))
    twin = outcome(lambda: twin_cls(**kwargs))
    assert_same_value(rec, twin)
    if isinstance(twin, tuple):
        return

    assert hash(rec) == hash(twin)
    assert rec == record(**kwargs) and rec != twin and twin != rec
    sub = type("Sub", (record,), {})(**kwargs)
    assert sub != rec and rec != sub
    other = data.draw(KWARGS[record], label="other")
    assert (rec == outcome(lambda: record(**other))) == (
        twin == outcome(lambda: twin_cls(**other))
    )

    for name in [*vars(twin), "unknown"]:
        for action in (lambda obj: setattr(obj, name, 0), lambda obj: delattr(obj, name)):
            rec_error, twin_error = outcome(lambda: action(rec)), outcome(lambda: action(twin))
            assert rec_error[0] is FrozenInstanceError
            assert twin_error[0] is dataclasses.FrozenInstanceError
            assert rec_error[1] == twin_error[1]
    assert list(vars(rec).items()) == list(vars(twin).items())

    keys = data.draw(st.sets(st.sampled_from(sorted(other))) if other else st.just(set()))
    changes = {key: other[key] for key in keys}
    assert_same_value(
        outcome(lambda: replace(rec, **changes)),
        outcome(lambda: dataclasses.replace(twin, **changes)),
    )

    # The twins' qualified names are the records', so they pickle by deepcopy.
    rec_clones = [pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)]
    twin_clones = [copy.deepcopy(twin), copy.copy(twin), copy.deepcopy(twin)]
    for rec_clone, twin_clone in zip(rec_clones, twin_clones):
        assert type(rec_clone) is record
        assert repr(rec_clone) == repr(twin)
        assert list(vars(rec_clone).items()) == list(vars(twin_clone).items())
        assert rec_clone == rec and twin_clone == twin


def test_a_component_framed_inf_equals_its_copies():
    component = S.SurgeryComponent(kind=S.MERIDIAN, framing=S.INF, parent=0)
    diagram = S.SurgeryDiagram(KNOT, (S.SurgeryComponent(S.BRAID, 5, 1), component))
    for copy_of in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        assert copy_of(S.INF) is S.INF
        clone = copy_of(component)
        assert clone == component and hash(clone) == hash(component)
        assert clone.framing is S.INF
        assert copy_of(diagram) == diagram


def test_replace_runs_the_checks_again():
    pick = L.unknot_menu(-3)[0]
    assert vars(replace(pick, rot=5)) == {**vars(pick), "rot": 5}
    with pytest.raises(L.LegendrianError, match="cusp count must be even"):
        replace(pick, cusps=3)
    with pytest.raises(B.BraidError, match="generator index 2 out of range for 2 strands"):
        replace(KNOT, letters=(1, 2))


def test_cached_values_stay_out_of_equality():
    diagram = DIAGRAMS[1]
    fresh = S.SurgeryDiagram(diagram.braid, diagram.components)
    S.homology(diagram)
    assert "_homology" in vars(diagram) and "_homology" not in vars(fresh)
    assert diagram == fresh and hash(diagram) == hash(fresh)
    assert repr(diagram) == repr(fresh)
    assert replace(diagram) == fresh and "_homology" not in vars(replace(diagram))


def test_an_init_that_binds_other_names_is_refused():
    with pytest.raises(TypeError, match="binds more than its fields"):

        class Bad(Record):
            def __init__(self, a):
                b = a
                self._store(locals())
