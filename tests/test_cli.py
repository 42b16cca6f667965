import copy
import importlib.util
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import build_parser, theta_payload_by_dicts

from braidsurgery import argv as argv_mod
from braidsurgery import braid, cfrac, cli, legendrian, surgery
from braidsurgery.record import replace

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    "analyze_seven": ["analyze", "B3 s1^7 s2^-1"],
    "analyze_three": ["analyze", "B3 s1^3 s2^-1"],
    "analyze_asserted": ["analyze", "B2 s1^5", "--assert-hyperbolic"],
    "analyze_table": ["analyze", "B2 s1^5", "--table"],
    "cfrac_below": ["cfrac", "--", "-7/2"],
    "cfrac_slope": ["cfrac", "2/7"],
    "surgery_two_sevenths": ["surgery", "B2 s1^5", "--slopes", "2/7"],
    "surgery_five_halves": ["surgery", "B2 s1^5", "--slopes", "5/2"],
    "surgery_general": ["surgery", "B2 s1^5", "--slopes", "1/5", "--general"],
    "enumerate_count": [
        "enumerate", "B2 s1^5", "--slopes", "1/5", "--count-only",
        "--isom-order", "2",
    ],
    "enumerate_stream": ["enumerate", "B2 s1^5", "--slopes", "2/7"],
    "enumerate_link": [
        "enumerate", "B4 s1^5 s3^5 s2^-2", "--slopes", "2/5,2/7", "--count-only",
    ],
    "theta_tuple": ["theta", "B2 s1^5", "--slope", "1/5", "--tuple", "2"],
    "theta_groups": ["theta", "B2 s1^5", "--slope", "2/7"],
    "limits_blocks": [
        "limits", "--coeffs=-3,-2", "--cycle=-2", "--tuple-prefix=2",
        "--tail", "ones", "-n", "3", "--braid", "B2 s1^5",
    ],
    "family_example420": ["family", "example420", "-k", "1"],
    "family_delta2l": ["family", "delta2l", "--braid", "B3 s1^3 s2^-1", "-l", "1"],
    "family_power": ["family", "power", "--braid", "B2 s1", "-k", "5"],
    "family_lspace": ["family", "lspace", "--strands", "3", "-k", "7", "--ell", "2"],
    "error_parse": ["analyze", "B3 s3"],
}

EXPECTED_CODES = {"error_parse": cli.EXIT_PARSE}


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def primary_object(out):
    """The envelope object: the whole output, or the first JSON line."""
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return json.loads(out.splitlines()[0])


ORACLE_PARSE = build_parser().parse_args


def parse_outcome(parse, argv):
    """The namespace's dict, ``("help",)`` or ``("usage", message)``: the
    table parser returns the help text, argparse prints it and exits 0."""
    with redirect_stdout(io.StringIO()):
        try:
            args = parse(argv)
        except cli.UsageError as exc:
            return "usage", str(exc)
        except SystemExit as exc:
            assert exc.code == 0
            return ("help",)
    return ("help",) if type(args) is str else vars(args)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    code, out = run_cli(CASES[name])
    assert code == EXPECTED_CODES.get(name, cli.EXIT_OK)
    path = GOLDEN_DIR / f"{name}.txt"
    if os.environ.get("REGEN_GOLDEN"):
        path.write_text(out)
    assert out == path.read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_reruns_are_byte_identical(name):
    first = run_cli(CASES[name])
    second = run_cli(CASES[name])
    assert first == second


def test_every_success_output_echoes_inputs():
    for name, argv in CASES.items():
        code, out = run_cli(argv)
        if code != cli.EXIT_OK or "--table" in argv:
            continue
        payload = primary_object(out)
        assert payload["schema"] == 1
        assert "inputs_echo" in payload


def test_exit_code_hypothesis_violation():
    code, out = run_cli(["enumerate", "B3 s1^3 s2^-1", "--slopes", "1/2"])
    assert code == cli.EXIT_HYPOTHESIS
    assert json.loads(out)["error"]["code"] == cli.EXIT_HYPOTHESIS


def test_exit_code_singular_matrix():
    code, out = run_cli(
        ["theta", "B4 s1^5 s3^5 s2^-2", "--slope", "1/1,1/1", "--tuple", "1,1,1,1"]
    )
    assert code == cli.EXIT_NUMERIC
    assert json.loads(out)["error"]["type"] == "SingularityError"


def test_exit_code_zero_iff_no_error_object():
    for name, argv in CASES.items():
        code, out = run_cli(argv)
        if "--table" in argv:
            continue
        first = primary_object(out)
        assert (code == 0) == ("error" not in first)


def test_slope_parsing_forms():
    assert cli.parse_slope("5/2") == cli.parse_slope("2+1/2")
    assert cli.parse_slope("3") == 3
    with pytest.raises(cli.CFracError):
        cli.parse_slope("0")
    with pytest.raises(cli.CFracError):
        cli.parse_slope("-1/2")
    with pytest.raises(cli.CFracError):
        cli.parse_slope("a/b")


def test_enumerate_streams_sorted_rotation_tuples():
    _, out = run_cli(["enumerate", "B2 s1^5", "--slopes", "2/7"])
    lines = out.splitlines()
    tuples = [tuple(json.loads(l)["rotation_tuple"]) for l in lines[1:]]
    assert tuples == sorted(tuples)
    assert len(tuples) == json.loads(lines[0])["count"]


def test_theta_group_values_match_report():
    _, out = run_cli(["theta", "B2 s1^5", "--slope", "1/5"])
    data = json.loads(out)
    assert data["count"] == 4
    assert len(data["theta_groups"]) == 1
    assert data["theta_groups"][0]["theta"] == "-6/1"
    assert sorted(map(tuple, data["theta_groups"][0]["tuples"])) == [
        (1,), (2,), (3,), (4,)
    ]


def test_exit_code_reduction_budget_exceeded(monkeypatch):
    from braidsurgery import braid

    def exhausted(word, max_steps=braid.DEFAULT_STEP_BUDGET):
        raise braid.ReductionBudgetExceeded("no reduced form within 0 handle reductions")

    monkeypatch.setattr(braid, "handle_reduce", exhausted)
    code, out = run_cli(["analyze", "B3 s1^7 s2^-1"])
    assert code == cli.EXIT_NUMERIC
    error = json.loads(out)["error"]
    assert error["code"] == cli.EXIT_NUMERIC
    assert error["type"] == "ReductionBudgetExceeded"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["analyze", "B3 s1^1000000000"], "B3 word would have 1000000000 letters"),
        (
            ["family", "power", "--braid", "B2 s1", "-k", "1000000000"],
            "power 1000000000 of a 1-letter word would have 1000000000 letters",
        ),
        (
            ["family", "delta2l", "--braid", "B2000 s1", "-l", "1"],
            "half twist on 2000 strands would have 1999000 letters",
        ),
        (
            ["family", "example420", "-k", "600000"],
            "example braid for k = 600000 would have 1200002 letters",
        ),
    ],
)
def test_words_over_the_length_cap_are_parse_errors(argv, message):
    code, out = run_cli(argv)
    assert code == cli.EXIT_PARSE
    error = json.loads(out)["error"]
    assert error["type"] == "BraidError"
    assert error["message"] == f"{message}, cap 1000000"


def test_power_of_the_empty_word_has_no_length_limit():
    code, out = run_cli(["family", "power", "--braid", "B2", "-k", str(10**30)])
    assert code == cli.EXIT_OK
    assert json.loads(out)["braid"] == "B2"


def test_floor_probes_on_long_trivial_word():
    # u u^-1 with u positive over s1..s4: 20,000 letters, the trivial braid
    rng = random.Random(9)
    u = [rng.randint(1, 4) for _ in range(10_000)]
    text = " ".join(["B5"] + [f"s{g}" for g in u] + [f"s{g}^-1" for g in reversed(u)])
    code, out = run_cli(["analyze", text])
    assert code == cli.EXIT_OK
    data = json.loads(out)
    assert data["braid"]["length"] == 20_000
    assert data["dehornoy_floor_at_least"] == {"1": False, "2": False, "3": False}


def test_analyze_reduces_its_word_once(monkeypatch):
    calls = []
    handle_reduce = braid.handle_reduce

    def spy(word, max_steps=braid.DEFAULT_STEP_BUDGET):
        calls.append(word.letters)
        return handle_reduce(word, max_steps)

    # A positive word with u u^-1 inside: floors 1, 2 and 3 hold, and the
    # reduced word is 18 letters of the 218.
    u = " ".join(f"s{g}" for g in [1, 2, 2, 1, 2] * 20)
    inv = " ".join(f"s{g}^-1" for g in reversed([1, 2, 2, 1, 2] * 20))
    text = f"B3 s1 s2 s1 s1 s2 s1 {u} {inv} s1^2 s2 s1^2 s2 s1^2 s2 s1^2 s2"
    word = braid.parse_braid(text)
    monkeypatch.setattr(braid, "handle_reduce", spy)
    code, out = run_cli(["analyze", text])
    assert code == cli.EXIT_OK
    assert json.loads(out)["dehornoy_floor_at_least"] == {"1": True, "2": True, "3": True}
    assert 1 < len(calls) <= 7
    assert calls[0] == word.letters
    reduced = handle_reduce(word).letters
    for letters in calls[1:]:
        assert len(letters) < len(word)
        assert letters[: len(reduced)] in (reduced, braid.inverse(braid.BraidWord(3, reduced)).letters)


def test_limits_rejects_negative_levels():
    code, out = run_cli(["limits", "--coeffs=-3,-2", "--cycle=-2", "-n", "-1"])
    assert code == cli.EXIT_PARSE
    assert json.loads(out)["error"]["type"] == "LimitsError"


def test_internal_errors_are_one_json_object_with_exit_4(monkeypatch):
    def broken(args):
        raise KeyError("missing")

    monkeypatch.setattr(cli, "cmd_analyze", broken)
    code, out = run_cli(["analyze", "B2 s1^5"])
    assert code == cli.EXIT_NUMERIC
    assert json.loads(out) == {
        "schema": 1,
        "error": {
            "code": cli.EXIT_NUMERIC,
            "type": "InternalError",
            "message": "KeyError: 'missing'",
        },
    }


@pytest.mark.parametrize("value", ["abc", "1/0", "nan"])
def test_cfrac_unparsable_value_is_a_parse_error(value):
    code, out = run_cli(["cfrac", value])
    assert code == cli.EXIT_PARSE
    assert json.loads(out)["error"]["type"] == "CFracError"


@pytest.mark.parametrize("template", ["B{} s1", "B3 s1^{}", "B3 s{}"])
def test_braid_numbers_too_long_to_convert_are_parse_errors(template):
    code, out = run_cli(["analyze", template.format("9" * 5000)])
    assert code == cli.EXIT_PARSE
    assert json.loads(out)["error"]["type"] == "BraidError"


def test_analyze_computes_crossing_stats_once(monkeypatch):
    calls = []
    crossing_stats = braid.crossing_stats

    def counted(word):
        calls.append(word)
        return crossing_stats(word)

    monkeypatch.setattr(braid, "crossing_stats", counted)
    code, out = run_cli(CASES["analyze_seven"])
    assert code == cli.EXIT_OK
    assert out == (GOLDEN_DIR / "analyze_seven.txt").read_text()
    assert len(calls) == 1


def test_theta_table_renders_the_json_output():
    argv = CASES["theta_groups"]
    _, out = run_cli(argv)
    code, table = run_cli(argv + ["--table"])
    assert code == cli.EXIT_OK
    assert table.splitlines() == list(cli._table_lines(json.loads(out), ""))


def test_theta_over_all_tuples_builds_base_invariants_once(monkeypatch):
    from braidsurgery import linalg

    calls = {"smith_normal_form": 0, "signature": 0, "solve_exact": 0, "adjugate": 0}
    for name in calls:
        original = getattr(linalg, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(linalg, name, counted)
    code, out = run_cli(["theta", "B2 s1^5", "--slope", "2/7"])
    assert code == 0
    assert out == (GOLDEN_DIR / "theta_groups.txt").read_text()
    count = json.loads(out)["count"]
    assert count > 1
    assert calls == {
        "smith_normal_form": 1,
        "signature": 1,
        "solve_exact": 0,
        "adjugate": 1,
    }


def test_theta_adjugate_sees_only_the_rotation_support(monkeypatch):
    # 2+2/7 expands to the closure, four meridians framed -2 and the chain
    # (-4, -2): n = 7, but only the closure and the -4 carry a rot.
    from braidsurgery import linalg

    sizes = {"smith_normal_form": [], "signature": [], "adjugate": []}
    for name, seen in sizes.items():
        original = getattr(linalg, name)

        def spy(m, _original=original, _seen=seen):
            _seen.append(len(m))
            return _original(m)

        monkeypatch.setattr(linalg, name, spy)
    code, out = run_cli(["theta", "B2 s1^5", "--slope", "2+2/7"])
    assert code == cli.EXIT_OK
    assert json.loads(out)["count"] == 3
    assert sizes == {"smith_normal_form": [2], "signature": [1], "adjugate": [2]}


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["analyze", "B5000 s1"],
            "closure has 4999 components; its 4999x4999 crossing tables exceed cap",
        ),
        (["analyze", "B100000000 s1"], "braid on 100000000 strands, cap"),
        (
            ["family", "lspace", "--strands", "100000000", "-k", "1", "--ell", "1"],
            "braid on 100000000 strands, cap",
        ),
    ],
)
def test_strand_counts_over_the_cap_are_parse_errors(argv, message):
    code, out = run_cli(argv)
    assert code == cli.EXIT_PARSE
    error = json.loads(out)["error"]
    assert error["type"] == "BraidError"
    assert error["message"] == f"{message} 1000000"


def test_theta_tuple_budget(monkeypatch):
    argv = ["theta", "B2 s1^5", "--slope", "2/7"]
    monkeypatch.setattr(legendrian, "MAX_THETA_TUPLES", 3)
    code, out = run_cli(argv)
    assert code == cli.EXIT_OK
    assert out == (GOLDEN_DIR / "theta_groups.txt").read_text()
    monkeypatch.setattr(legendrian, "MAX_THETA_TUPLES", 2)
    built = []
    assemble = legendrian.WeinsteinEnumeration._assemble

    def recorded(self, ks):
        built.append(ks)
        return assemble(self, ks)

    monkeypatch.setattr(legendrian.WeinsteinEnumeration, "_assemble", recorded)
    code, out = run_cli(argv)
    assert code == cli.EXIT_NUMERIC
    assert json.loads(out)["error"] == {
        "code": cli.EXIT_NUMERIC,
        "type": "TupleBudgetExceeded",
        "message": "theta over all tuples would visit 3 tuples, cap 2; query one"
        " with --tuple or count them with enumerate --count-only",
    }
    assert built == []
    code, out = run_cli(argv + ["--tuple", "2,1"])
    assert code == cli.EXIT_OK
    assert built == [(2, 1)]


def test_theta_tuple_budget_default_is_checked_before_the_sweep():
    # the chain -12^5: 11^5 = 161051 tuples
    code, out = run_cli(["theta", "B2 s1^5", "--slope", "20305/241956"])
    assert code == cli.EXIT_NUMERIC
    assert "161051 tuples, cap 100000" in json.loads(out)["error"]["message"]


def test_enumerate_rejects_an_invalid_menu_pick_before_the_envelope(monkeypatch):
    unknot_menu = legendrian.unknot_menu

    def skewed(framing):
        menu = unknot_menu(framing)
        menu[-1] = replace(menu[-1], tb=menu[-1].tb - 1)
        return menu

    monkeypatch.setattr(legendrian, "unknot_menu", skewed)
    code, out = run_cli(["enumerate", "B2 s1^5", "--slopes", "2/7"])
    assert code == cli.EXIT_PARSE
    assert json.loads(out) == {
        "schema": 1,
        "error": {
            "code": cli.EXIT_PARSE,
            "type": "LegendrianError",
            "message": "enumeration produced an invalid diagram",
        },
    }


def _bench_workloads():
    path = Path(__file__).parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _bench_workloads()
# Unlike the bench's links, its closure components carry stab_pos != stab_neg
# and one has rot 1.
UNBALANCED_LINK = "B4 s2^-1 s3^7 s1^7 s2^5"


@st.composite
def slope_texts(draw, max_chain):
    """A single-meridian ``1/n`` slope or a chain slope with a whole part."""
    if draw(st.booleans()):
        return f"1/{draw(st.integers(min_value=2, max_value=6))}"
    coeffs = st.integers(min_value=-5, max_value=-2)
    chain = draw(st.lists(coeffs, min_size=1, max_size=max_chain))
    return WORKLOADS.slope_text(draw(st.integers(min_value=0, max_value=1)), chain)


@st.composite
def enumerations(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(WORKLOADS.KNOTS)), draw(slope_texts(3))
    slopes = [draw(slope_texts(2)) for _ in range(2)]
    links = WORKLOADS.LINKS + (UNBALANCED_LINK,)
    return draw(st.sampled_from(links)), ",".join(slopes)


@given(enumerations())
@settings(max_examples=40, deadline=None)
def test_streamed_lines_match_weinstein_to_dict(case):
    braid_text, slopes = case
    code, out = run_cli(["enumerate", braid_text, "--slopes", slopes])
    assert code == cli.EXIT_OK
    envelope, *lines = out.splitlines()
    enum = legendrian.enumerate_weinstein(
        braid.parse_braid(braid_text), cli.parse_slopes(slopes)
    )
    assert json.loads(envelope)["count"] == enum.count == len(lines)
    for line, diagram in zip(lines, enum):
        assert legendrian.validate_weinstein(diagram)
        expected = json.dumps(
            legendrian.weinstein_to_dict(diagram),
            sort_keys=True,
            separators=(",", ":"),
            default=cli.jsonify,
        )
        assert line == expected


def oracle_lines(braid_text, slopes, limit=None):
    """The first ``limit`` lines of ``enumerate``, diagram by diagram."""
    enum = legendrian.enumerate_weinstein(
        braid.parse_braid(braid_text), cli.parse_slopes(slopes)
    )
    return enum, [
        json.dumps(
            legendrian.weinstein_to_dict(diagram),
            sort_keys=True,
            separators=(",", ":"),
            default=cli.jsonify,
        )
        + "\n"
        for diagram in itertools.islice(enum, limit)
    ]


@pytest.mark.parametrize(
    "slopes,count",
    [
        # A chain of twenty -5s: 4^20 tuples, of which three are read.
        ("8870244889325/42499896542376", 4**20),
        # A chain of 995 -3s: more levels than the walk nests generators.
        (WORKLOADS.slope_text(0, [-3] * 995), 2**995),
    ],
    ids=["twenty-levels", "995-levels"],
)
def test_first_lines_come_without_walking_the_product(slopes, count):
    enum, expected = oracle_lines("B2 s1^5", slopes, 3)
    assert enum.count == count
    assert list(itertools.islice(enum.json_lines(), 3)) == expected


@pytest.mark.parametrize(
    "braid_text,slopes",
    [
        ("B2 s1^5", "3"),  # six meridians framed -2: every menu has one pick
        ("B2 s1^5", "1/2"),  # one meridian framed -2
        # Menus of one pick before, between and after larger ones.
        ("B2 s1^5", WORKLOADS.slope_text(2, [-2, -3, -2, -2, -4, -2])),
        ("B4 s1^5 s3^5 s2^-2", f"2,{WORKLOADS.slope_text(1, [-3, -2, -4])}"),
    ],
)
def test_menus_of_one_pick_fold_into_the_text(braid_text, slopes):
    enum, expected = oracle_lines(braid_text, slopes)
    assert list(enum.json_lines()) == expected


def test_levels_past_the_nesting_depth_come_from_a_product(monkeypatch):
    slopes = WORKLOADS.slope_text(1, [-3, -4, -2, -3, -5])
    enum, expected = oracle_lines("B3 s1^3 s2^5", slopes)
    for nested in (1, 2, 4):
        monkeypatch.setattr(legendrian, "_NESTED", nested)
        assert list(enum.json_lines()) == expected


json_texts = st.text(max_size=8) | st.text(
    alphabet=st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800\U0001f600a'),
    max_size=8,
)
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=1, max_value=4299).map(lambda d: 10**d - 1)  # d nines
    | st.integers(min_value=1, max_value=4299).map(lambda d: 1 - 10**d)
    | json_texts
    | st.builds(Fraction, st.integers(), st.integers(min_value=1))
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=6)
    | st.lists(inner, max_size=6).map(tuple)
    | st.lists(st.booleans() | st.integers(-2, 2))
    | st.dictionaries(json_texts, inner, max_size=6),
    max_leaves=20,
)


@given(json_values)
@settings(max_examples=200, deadline=None)
def test_indented_writer_matches_json_dumps(value):
    expected = json.dumps(value, sort_keys=True, indent=2, default=cli.jsonify)
    assert cli._indented(value, "\n") == expected


def test_indented_writer_rejects_what_json_dumps_rejects():
    with pytest.raises(TypeError):
        cli._indented({"x": [1, object()]}, "\n")


def test_integers_too_long_to_print_are_a_numeric_error():
    # det is about the product of the five 999-digit numerators.
    q = f"{10**998}/{3 * 10**998 - 1}"
    code, out = run_cli(
        ["surgery", "B10 s1^3 s3^3 s5^3 s7^3 s9^3", "--slopes", ",".join([q] * 5)]
    )
    assert code == cli.EXIT_NUMERIC
    limit = sys.get_int_max_str_digits()
    assert json.loads(out)["error"] == {
        "code": cli.EXIT_NUMERIC,
        "type": "DigitLimitExceeded",
        "message": f"an output integer is over Python's {limit}-digit limit",
    }
    with pytest.raises(cli.DigitLimitExceeded):
        cli.frac_str(Fraction(10**limit, 3))


@pytest.mark.parametrize(
    "slopes,total",
    [
        ("1000000", 2_000_001),
        # -1000000/999999 is a chain of 999,999 terms -2; counting stops at the cap.
        ("999999/1000000", 1_001),
    ],
)
def test_component_budget(monkeypatch, slopes, total):
    from braidsurgery import surgery

    def never(*args):
        raise AssertionError("expansion started before the budget check")

    monkeypatch.setattr(surgery, "neg_cfrac", never)
    monkeypatch.setattr(surgery, "_expand_component", never)
    for general in ([], ["--general"]):
        code, out = run_cli(["surgery", "B2 s1^5", "--slopes", slopes] + general)
        assert code == cli.EXIT_NUMERIC
        assert json.loads(out)["error"] == {
            "code": cli.EXIT_NUMERIC,
            "type": "ComponentBudgetExceeded",
            "message": f"slope {slopes} of closure component 1 would expand the"
            f" diagram to at least {total} components, cap 1000",
        }


def test_component_budget_boundary(monkeypatch):
    from braidsurgery import surgery

    # Two closures; 5/2 adds 4 meridians and a chain (-2), 1/3 one meridian.
    argv = ["surgery", "B4 s1^5 s3^5 s2^-2", "--slopes", "5/2,1/3"]
    monkeypatch.setattr(surgery, "MAX_COMPONENTS", 8)
    code, out = run_cli(argv)
    assert code == cli.EXIT_OK
    assert len(json.loads(out)["linking_matrix"]) == 8
    monkeypatch.setattr(surgery, "MAX_COMPONENTS", 7)
    code, out = run_cli(argv)
    assert code == cli.EXIT_NUMERIC
    assert json.loads(out)["error"]["message"] == (
        "slope 1/3 of closure component 2 would expand the diagram to at least"
        " 8 components, cap 7"
    )
    code, out = run_cli(argv + ["--general"])  # 1/3 is a chain (-3) here too
    assert code == cli.EXIT_NUMERIC


def test_cfrac_cap_is_counted_before_the_expansion(monkeypatch):
    from braidsurgery import cfrac

    # 5/6 expands -6/5 into five coefficients -2.
    monkeypatch.setattr(cli, "MAX_CFRAC_TERMS", 5)
    code, out = run_cli(["cfrac", "5/6"])
    assert code == cli.EXIT_OK
    assert json.loads(out)["coeffs"] == [-2] * 5

    def never(*args):
        raise AssertionError("expansion started before the length check")

    monkeypatch.setattr(cfrac, "neg_cfrac", never)
    monkeypatch.setattr(cli, "MAX_CFRAC_TERMS", 4)
    code, out = run_cli(["cfrac", "5/6"])
    assert code == cli.EXIT_PARSE
    assert json.loads(out)["error"] == {
        "code": cli.EXIT_PARSE,
        "type": "CFracError",
        "message": "'5/6' expands to over 4 coefficients, cap 4",
    }


def test_cfrac_cap_at_its_default():
    code, out = run_cli(["cfrac", "9999/10000"])
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert len(payload["coeffs"]) == 9999
    assert payload["convergents"][-1] == "-10000/9999"
    n = cli.MAX_CFRAC_TERMS + 1  # n/(n + 1) has n coefficients
    code, out = run_cli(["cfrac", f"{n}/{n + 1}"])
    assert code == cli.EXIT_PARSE
    assert json.loads(out)["error"]["type"] == "CFracError"


def test_cfrac_convergents_match_fractions_near_the_term_cap():
    # Every twelfth coefficient -3: 10,000 terms and convergents of about
    # 830 digits, inside MAX_DIGITS.
    n = cli.MAX_CFRAC_TERMS
    coeffs = [-3 if k % 12 == 0 else -2 for k in range(n)]
    expected = [cli.frac_str(Fraction(p, q)) for p, q in cfrac.convergent_pairs(coeffs, n - 1)]
    code, out = run_cli(["cfrac", "--", expected[-1]])
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["coeffs"] == coeffs
    assert payload["convergents"] == expected
    assert len(expected[-1]) > 1600


@pytest.mark.parametrize(
    "argv,read_first",
    [
        # Stdout closed before the one JSON object is written.
        (["enumerate", "B2 s1^5", "--slopes", "2/99", "--count-only"], False),
        # About 4 MB of lines: the pipe closes in the middle of the stream.
        (["enumerate", "B3 s1^3 s2^5", "--slopes", "9713/35369"], True),
    ],
)
def test_closed_stdout_is_a_clean_exit(argv, read_first):
    root = Path(__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "braidsurgery.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    if read_first:
        assert json.loads(proc.stdout.readline())["count"] == 5184
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == cli.EXIT_OK
    proc.stderr.close()
    assert stderr == ""


def test_theta_over_65536_tuples_into_a_reader_that_closes_is_a_clean_exit():
    # The chain of sixteen -3 unknots; the reader takes one line and closes.
    root = Path(__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = ["theta", "B2 s1^5", "--slope", "2178309/5702887"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "braidsurgery.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == cli.EXIT_OK
    proc.stderr.close()
    assert stderr == ""


def test_floor_probes_check_every_length_before_reducing(monkeypatch):
    def spy(*args, **kwargs):
        raise AssertionError("a floor probe was reduced")

    monkeypatch.setattr(braid, "handle_reduce", spy)
    code, out = run_cli(["analyze", "B1000 s1"])
    assert code == cli.EXIT_PARSE
    assert json.loads(out)["error"] == {
        "code": cli.EXIT_PARSE,
        "type": "BraidError",
        "message": "power 4 of a 499500-letter word would have 1998000 letters,"
        " cap 1000000",
    }


def test_floor_probe_lengths_keep_the_probe_order(monkeypatch):
    # Cap 6: the half twist on 4 strands (6 letters) fits, its square does not.
    monkeypatch.setattr(braid, "MAX_WORD_LENGTH", 6)
    word = braid.parse_braid("B4 s1")
    with pytest.raises(braid.BraidError, match="power 2 of a 6-letter word"):
        braid.dehornoy_floors(word)
    with pytest.raises(braid.BraidError, match="half twist on 5 strands"):
        braid.dehornoy_floors(braid.parse_braid("B5 s1"))
    monkeypatch.setattr(braid, "MAX_WORD_LENGTH", 24)
    with pytest.raises(braid.BraidError, match="power 6 of a 6-letter word"):
        braid.dehornoy_floors(word)
    monkeypatch.setattr(braid, "MAX_WORD_LENGTH", 36)
    assert braid.dehornoy_floors(word) == {1: False, 2: False, 3: False}


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["--bogus"], "braidsurgery: the following arguments are required: subcommand"),
        (["surgery"], "braidsurgery surgery: the following arguments are required"),
        (
            ["enumerate", "B2 s1^5", "--slopes", "1", "--isom-order", "x"],
            "argument --isom-order: invalid int value: 'x'",
        ),
    ],
)
def test_argv_errors_are_one_json_error_with_exit_2(argv, fragment):
    code, out = run_cli(argv)
    assert code == cli.EXIT_PARSE
    data = json.loads(out)
    assert set(data) == {"schema", "error"}
    assert data["error"]["code"] == cli.EXIT_PARSE
    assert data["error"]["type"] == "UsageError"
    assert fragment in data["error"]["message"]


@pytest.mark.parametrize("argv", [["--help"], ["theta", "-h"]])
def test_help_is_the_one_text_output(argv):
    code, out = run_cli(argv)
    assert code == cli.EXIT_OK
    # The usage line of the parser asked: the top level's or the subcommand's.
    usage = {
        "--help": "[-h] {analyze,cfrac,surgery,enumerate,theta,limits,family} ...",
        "theta": "theta [-h] braid --slope SLOPE [--tuple TUPLE] [--table]",
    }
    assert out.splitlines()[0] == "usage: braidsurgery " + usage[argv[0]]


def test_a_sequence_of_commands_in_one_process_matches_fresh_processes():
    # Flags switched on and then left off, in one process, print what the
    # same argv prints in a fresh process.
    sequence = [
        ["analyze", "B2 s1^5", "--assert-hyperbolic"],
        ["analyze", "B2 s1^5"],
        ["analyze", "B3 s1^7 s2^-1", "--table"],
        ["analyze", "B3 s1^7 s2^-1"],
        ["surgery", "B2 s1^5", "--slopes", "1/5", "--general"],
        ["surgery", "B2 s1^5", "--slopes", "1/5"],
        ["theta", "B2 s1^5", "--slope", "1/5", "--tuple", "2"],
        ["theta", "B2 s1^5", "--slope", "1/5"],
        ["enumerate", "B2 s1^5", "--slopes", "1/5", "--count-only"],
        ["enumerate", "B2 s1^5", "--slopes", "1/5"],
        ["surgery", "B2 s1^5"],
        ["--help"],
    ]
    root = Path(__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for argv in sequence:
        code, out = run_cli(argv)
        alone = subprocess.run(
            [sys.executable, "-m", "braidsurgery.cli", *argv],
            capture_output=True,
            env=env,
            timeout=60,
        )
        assert (code, out.encode()) == (alone.returncode, alone.stdout), argv


def test_a_patched_command_leaves_later_calls_alone(monkeypatch):
    # The first call in the process runs a patched command; once the patch
    # is undone, the same argv runs the real one.
    def broken(args):
        raise KeyError("missing")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "cmd_analyze", broken)
        code, out = run_cli(["analyze", "B2 s1^5"])
        assert code == cli.EXIT_NUMERIC
        assert json.loads(out)["error"]["message"] == "KeyError: 'missing'"
    code, out = run_cli(["analyze", "B2 s1^5"])
    assert code == cli.EXIT_OK
    assert json.loads(out)["subcommand"] == "analyze"


def test_a_command_patched_after_a_run_runs_and_is_undone(monkeypatch):
    def broken(args):
        raise KeyError("missing")

    assert run_cli(["analyze", "B2 s1^5"])[0] == cli.EXIT_OK
    with monkeypatch.context() as patch:
        patch.setattr(cli, "cmd_analyze", broken)
        code, out = run_cli(["analyze", "B2 s1^5"])
        assert code == cli.EXIT_NUMERIC
        assert json.loads(out)["error"]["message"] == "KeyError: 'missing'"
    code, out = run_cli(["analyze", "B2 s1^5"])
    assert code == cli.EXIT_OK
    assert json.loads(out)["subcommand"] == "analyze"


def test_parsing_keeps_no_state_between_calls():
    # The grammar is read, never written: namespaces, errors and help leave
    # the table as it was.
    grammar = copy.deepcopy(argv_mod.GRAMMAR)
    for argv in (CASES["analyze_seven"], ["--bogus"], ["surgery"], ["theta", "-h"]):
        parse_outcome(cli.parse_argv, argv)
    assert argv_mod.GRAMMAR == grammar


@pytest.mark.parametrize(
    "argv",
    [
        ["cfrac", "1e-9999"],
        ["surgery", "B2 s1^5", "--slopes", "1e-9999"],
        # The power of ten is never built.
        ["cfrac", "1e-100000000000000"],
        ["cfrac", "1/1" + "0" * cli.MAX_DIGITS],
        ["theta", "B2 s1^5", "--slope", "2+1/1" + "0" * cli.MAX_DIGITS],
    ],
)
def test_values_too_long_to_print_are_parse_errors(argv):
    code, out = run_cli(argv)
    assert code == cli.EXIT_PARSE
    assert json.loads(out)["error"]["type"] == "CFracError"


def test_exponents_are_checked_before_the_power_is_built(monkeypatch):
    def never(text):
        raise AssertionError(f"parsed {text!r}")

    monkeypatch.setattr(cli, "Fraction", never)
    with pytest.raises(cli.CFracError, match="a power of ten over 1000 digits"):
        cli.parse_rational(f"1e-{cli.MAX_DIGITS + 1}")


def test_rationals_up_to_the_digit_cap_parse():
    q = "9" * cli.MAX_DIGITS
    assert cli.parse_rational(f"1/{q}") == Fraction(1, int(q))
    assert cli.parse_rational(f"1e-{cli.MAX_DIGITS - 1}") == Fraction(
        1, 10 ** (cli.MAX_DIGITS - 1)
    )
    assert cli.parse_rational("2+1/2") == cli.parse_rational("2.5") == Fraction(5, 2)
    assert cli.parse_rational("-1e+5") == -(10**5)
    code, out = run_cli(["cfrac", f"1/{q}"])
    assert code == cli.EXIT_OK
    assert json.loads(out)["coeffs"] == [-int(q)]


def test_menu_budget(monkeypatch):
    code, out = run_cli(["enumerate", "B2 s1^5", "--slopes", "1e-999", "--count-only"])
    assert code == cli.EXIT_NUMERIC
    assert json.loads(out)["error"]["type"] == "MenuBudgetExceeded"
    # 1/11 puts one unknot framed -11 on the closure: a menu of 10.
    monkeypatch.setattr(legendrian, "MAX_MENU_PICKS", 10)
    code, out = run_cli(["theta", "B2 s1^5", "--slope", "1/11"])
    assert code == cli.EXIT_OK
    assert json.loads(out)["count"] == 10
    code, out = run_cli(["theta", "B2 s1^5", "--slope", "1/12"])
    assert code == cli.EXIT_NUMERIC
    assert json.loads(out)["error"] == {
        "code": cli.EXIT_NUMERIC,
        "type": "MenuBudgetExceeded",
        "message": "the unknot menus would hold 11 Legendrian unknots, cap 10",
    }


def test_limits_levels_are_capped_before_any_level_is_read():
    argv = ["limits", "--coeffs=-3", "--cycle=-2", "-n", "1000000000"]
    code, out = run_cli(argv)
    assert code == cli.EXIT_PARSE
    message = json.loads(out)["error"]["message"]
    assert message == "level 1000000000 is over the cap 1000"


def test_limits_cap_boundaries(monkeypatch):
    argv = ["limits", "--coeffs=-5", "--cycle=-4", "-n"]
    monkeypatch.setattr(cli.limits, "MAX_LEVELS", 3)
    assert run_cli(argv + ["3"])[0] == cli.EXIT_OK
    code, out = run_cli(argv + ["4"])
    assert code == cli.EXIT_PARSE
    assert json.loads(out)["error"]["message"] == "level 4 is over the cap 3"
    # Levels 0..2 have the coefficients -5, -4, -4: blocks of 3, 2 and 2 slices.
    monkeypatch.setattr(cli.limits, "MAX_SLICES", 7)
    assert run_cli(argv + ["2"])[0] == cli.EXIT_OK
    monkeypatch.setattr(cli.limits, "MAX_SLICES", 6)
    code, out = run_cli(argv + ["2"])
    assert code == cli.EXIT_PARSE
    assert json.loads(out)["error"]["message"] == (
        "levels 0..2 hold 7 basic slices, cap 6"
    )


def test_enumeration_computes_crossing_stats_once(monkeypatch):
    calls = []
    crossing_stats = braid.crossing_stats

    def counted(word):
        calls.append(word)
        return crossing_stats(word)

    monkeypatch.setattr(braid, "crossing_stats", counted)
    monkeypatch.setattr(surgery, "closure_stats", lru_cache(maxsize=None)(counted))
    code, out = run_cli(CASES["theta_groups"])
    assert code == cli.EXIT_OK
    assert out == (GOLDEN_DIR / "theta_groups.txt").read_text()
    assert len(calls) == 1


def test_commands_return_payloads_and_write_nothing():
    envelope = {"schema", "subcommand", "inputs_echo"}
    for name, argv in CASES.items():
        if name == "error_parse":
            continue
        args = cli.parse_argv(argv)
        buf = io.StringIO()
        with redirect_stdout(buf):
            result = getattr(cli, "cmd_" + args.subcommand)(args)
            payload, lines = result if isinstance(result, tuple) else (result, None)
            lines = "".join(lines or ())
        assert buf.getvalue() == ""
        assert not envelope & set(payload)
        _, out = run_cli(argv)
        if "--table" in argv:
            continue
        head, _, rest = out.partition("\n") if lines else (out, "", "")
        expected = json.loads(head)
        assert {k for k in expected if k not in payload} == envelope
        assert json.loads(json.dumps(payload, default=cli.jsonify)) == {
            k: v for k, v in expected.items() if k not in envelope
        }
        assert lines == rest


# Argv for the contract property: braid words with huge strand counts and
# exponents (which must hit the caps before allocating), slopes that are
# 0, negative, p/0, powers of ten or in exponent form, and each flag.
HUGE = [str(10**6 + 1), str(10**12), "9" * 5000]
argv_braids = st.one_of(
    st.sampled_from(
        WORKLOADS.KNOTS
        + WORKLOADS.LINKS
        + ("B3 s1^3 s2^-1", "B2", "B1 s1", "B3 s0", "", "B2 s1^x", "s1")
    ),
    st.builds(
        lambda m, word: " ".join([f"B{m}"] + [f"s{g}^{e}" for g, e in word]),
        st.integers(2, 5) | st.sampled_from(HUGE),
        st.lists(
            st.tuples(
                st.integers(1, 5),
                st.integers(-9, 9) | st.sampled_from(HUGE + ["-1000000000"]),
            ),
            max_size=4,
        ),
    ),
)
argv_slopes = st.one_of(
    st.builds("{}/{}".format, st.integers(-3, 30), st.integers(0, 30)),
    st.builds(lambda k: str(10**k), st.integers(0, 7)),
    st.builds(lambda k: f"1e{k}", st.integers(-9, 9) | st.sampled_from([-9999, 9999])),
    st.sampled_from(["2+1/2", "2.5", "0", "-1/2", "7/0", "x", "", "1/" + "9" * 5000]),
)
argv_slope_lists = st.lists(argv_slopes, min_size=1, max_size=2).map(",".join)
ints = st.integers(-2, 6) | st.sampled_from(HUGE + ["x", ""])
int_lists = st.sampled_from(
    ["-3,-2", "-2", "-5,-9", "-1", "x", "2", "1,1", "-1000000000", "-" + "9" * 4000]
)


def _option(draw, flag, values):
    return [f"{flag}={draw(values)}"] if draw(st.booleans()) else []


@st.composite
def argvs(draw):
    subcommands = ["analyze", "cfrac", "surgery", "enumerate", "theta", "limits"]
    sub = draw(st.sampled_from(subcommands + ["family", "x"]))

    def flag(name):
        return [name] if draw(st.booleans()) else []

    table = flag("--table")
    if sub == "analyze":
        return [sub, draw(argv_braids)] + flag("--assert-hyperbolic") + table
    if sub == "cfrac":
        return [sub] + flag("--") + [draw(argv_slopes | st.just("-7/2"))] + table
    if sub == "surgery":
        rest = ["--slopes", draw(argv_slope_lists)] + flag("--general")
        return [sub, draw(argv_braids)] + rest + table
    if sub == "enumerate":
        rest = ["--slopes", draw(argv_slope_lists)] + flag("--count-only")
        rest += _option(draw, "--isom-order", ints)
        return [sub, draw(argv_braids)] + rest + table
    if sub == "theta":
        tuples = st.sampled_from(["1", "2", "1,1", "2,3", "0", "x", str(10**30)])
        rest = ["--slope", draw(argv_slope_lists)] + _option(draw, "--tuple", tuples)
        return [sub, draw(argv_braids)] + rest + table
    if sub == "limits":
        tails = st.sampled_from(["ones", "max", "periodic:1,2", "periodic:", "x"])
        return (
            [sub]
            + _option(draw, "--coeffs", int_lists)
            + _option(draw, "--cycle", int_lists)
            + _option(draw, "--tuple-prefix", int_lists)
            + _option(draw, "--tail", tails)
            + _option(draw, "-n", ints | st.just(cli.limits.MAX_LEVELS + 1))
            + _option(draw, "--braid", argv_braids)
            + table
        )
    if sub == "family":
        kind = draw(st.sampled_from(["delta2l", "power", "example420", "lspace", "x"]))
        return (
            [sub, kind]
            + _option(draw, "--braid", argv_braids)
            + _option(draw, "-k", ints)
            + _option(draw, "--ell", ints)
            + _option(draw, "--strands", ints)
            + table
        )
    return [sub] + flag("--bogus")


# Derandomized: the same cases every run keep the property's time stable.
@given(argvs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_any_argv_keeps_the_json_contract(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    out = buf.getvalue()
    assert code in (cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_HYPOTHESIS, cli.EXIT_NUMERIC)
    if code == cli.EXIT_OK and "--table" in argv:
        for line in out.splitlines():
            key, sep, value = line.partition(" = ")
            json.loads(value if sep else line)
            assert key != "error"
        return
    first = primary_object(out)
    assert ("error" in first) == (code != cli.EXIT_OK)
    if code != cli.EXIT_OK:
        assert first["error"]["code"] == code


# Argv edits for the parser property: each keeps or breaks the grammar in
# one of the ways argparse reads.  ``-h`` is never glued to more letters:
# argparse releases read ``-hx`` differently.
def _glue(draw, argv):  # ``--opt=value``, ``-k5``
    i = draw(st.integers(0, max(len(argv) - 2, 0)))
    if i + 1 >= len(argv) or argv[i][:1] != "-" or argv[i] == "-h":
        return argv
    sep = "=" if argv[i][:2] == "--" else draw(st.sampled_from(["", "="]))
    return argv[:i] + [argv[i] + sep + argv[i + 1]] + argv[i + 2 :]


def _unglue(draw, argv):  # ``--opt=value`` split in two
    i = draw(st.integers(0, max(len(argv) - 1, 0)))
    if i >= len(argv) or argv[i][:2] != "--" or "=" not in argv[i]:
        return argv
    return argv[:i] + argv[i].split("=", 1) + argv[i + 1 :]


def _abbreviate(draw, argv):  # a prefix, unique or ambiguous (``--t``)
    i = draw(st.integers(0, max(len(argv) - 1, 0)))
    flag, equals, value = argv[i].partition("=") if i < len(argv) else ("", "", "")
    if flag[:2] != "--" or len(flag) < 4:
        return argv
    cut = draw(st.integers(3, len(flag)))
    return argv[:i] + [flag[:cut] + equals + value] + argv[i + 1 :]


def _move(draw, argv):  # reordered
    if len(argv) < 2:
        return argv
    i, j = draw(st.integers(0, len(argv) - 1)), draw(st.integers(0, len(argv) - 1))
    rest = argv[:i] + argv[i + 1 :]
    return rest[:j] + [argv[i]] + rest[j:]


def _repeat(draw, argv):  # an option (or any pair) again, later
    i = draw(st.integers(0, max(len(argv) - 1, 0)))
    return argv + argv[i : i + draw(st.integers(1, 2))]


def _drop(draw, argv):  # a missing value or positional
    if not argv:
        return argv
    i = draw(st.integers(0, len(argv) - 1))
    return argv[:i] + argv[i + 1 :]


INSERTS = [
    "-3", "-.5", "--bogus", "-x", "-x y", "-", "", "-n", "-k",
    "--isom-order=-2", "-n=-1", "--table", "-h", "--help", "--he",
]


def _insert(draw, argv):  # negative numbers, unknown flags, help
    i = draw(st.integers(0, len(argv)))
    return argv[:i] + [draw(st.sampled_from(INSERTS))] + argv[i:]


EDITS = [_glue, _unglue, _abbreviate, _move, _repeat, _drop, _insert]


@st.composite
def edited_argvs(draw):
    argv = draw(argvs())
    for edit in draw(st.lists(st.sampled_from(EDITS), max_size=3)):
        argv = edit(draw, argv)
    if draw(st.booleans()):  # ``--`` ends the options
        argv = argv[:1] + ["--"] + argv[1:]
    return argv


# What argparse up to 3.13.0 reads as a negative number; later releases,
# and the table parser, read any token that starts as one (``-7/2``).
OLDER_NUMBER = re.compile(r"-\d+|-\d*\.\d+")
WITH_POSITIONAL = {"analyze", "cfrac", "surgery", "enumerate", "theta", "family"}


def read_alike(argv):
    """Whether argparse releases and the table parser agree on ``argv`` by
    rule: no token that starts as a negative number but is not one of the
    older rule's, and a ``--`` only as the token after a subcommand that
    has a positional, which takes the token after it in every reading."""
    if any(re.match(r"-\.?\d", t) and not OLDER_NUMBER.fullmatch(t) for t in argv):
        return False
    ends = [i for i, token in enumerate(argv) if token == "--"]
    return ends in ([], [1]) and (not ends or argv[0] in WITH_POSITIONAL)


def _ambiguous(outcome):
    return type(outcome) is tuple and "ambiguous option" in outcome[-1]


# Derandomized, as the contract property: the same cases every run.
@given(edited_argvs())
@example(["limits", "--t", "x"])
@example(["cfrac", "--", "-7/2"])
@example(["family", "power", "-k5", "--braid=B2 s1", "-k", "-3"])
@example(["analyze", "--", "B2 s1^5", "--table"])  # --table is left over
@example(CASES["analyze_seven"])
@example(["--bogus"])
@example(["surgery"])
@example(["theta", "-h"])
@example(CASES["limits_blocks"])
@example(CASES["family_delta2l"])
@example(CASES["analyze_table"])
@settings(max_examples=600, deadline=None, derandomize=True)
def test_the_table_parser_reads_argv_as_argparse_does(argv):
    # The same namespace, the same usage error, or help from both.
    assume(read_alike(argv))
    ours, theirs = parse_outcome(cli.parse_argv, argv), parse_outcome(ORACLE_PARSE, argv)
    if _ambiguous(ours) or _ambiguous(theirs):
        # An ambiguous prefix: the table parser and argparse up to 3.13.0
        # report it as soon as they read the argv; later releases may reach
        # an earlier error or help first.  None gives a namespace.
        assert type(ours) is tuple and type(theirs) is tuple
    else:
        assert ours == theirs


@pytest.mark.parametrize(
    "argv, expected",
    [
        # Whatever starts as a negative number is a value.
        (["cfrac", "-7/2"], {"value": "-7/2"}),
        (["enumerate", "B2 s1^5", "--slopes", "-1e5"], {"slopes": "-1e5"}),
        (["limits", "--coeffs", "-3,-2"], {"coeffs": "-3,-2"}),
        # The first ``--`` is dropped wherever it stands.
        (["--", "cfrac", "3"], {"subcommand": "cfrac", "value": "3"}),
        (["analyze", "B2 s1^5", "--table", "--"], {"table": True}),
        (["limits", "--", "-n", "1"], ("usage", "braidsurgery: unrecognized arguments: -n 1")),
        # ``-h`` given a value is an error, as ``--help=x`` is.
        (
            ["family", "-hk5", "power"],
            ("usage", "braidsurgery family: argument -h/--help: ignored explicit argument 'k5'"),
        ),
        # An ambiguous prefix is reported before anything else.
        (
            ["limits", "-h", "--t"],
            (
                "usage",
                "braidsurgery limits: ambiguous option: --t could match"
                " --tuple-prefix, --tail, --table",
            ),
        ),
    ],
)
def test_the_table_parser_reads_where_argparse_releases_differ(argv, expected):
    # Its own reading, pinned: argparse releases read these differently
    # from each other or from the table parser.
    outcome = parse_outcome(cli.parse_argv, argv)
    if type(expected) is dict:
        assert expected.items() <= outcome.items()
    else:
        assert outcome == expected


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # Without site hooks, only the package and what it imports are loaded.
    # Nor, after a whole command, the argparse parser's modules: locale used
    # to arrive only when the parser was built.
    src = str(Path(__file__).parents[1] / "src")
    code = f"""if True:
        import io, sys
        sys.path.insert(0, {src!r})
        unused = {{"dataclasses", "inspect", "argparse", "gettext", "locale"}}
        import braidsurgery.cli
        print(sorted(unused & set(sys.modules)))
        sys.stdout = io.StringIO()
        code = braidsurgery.cli.main(["surgery", "B2 s1^5", "--slopes", "2/7"])
        sys.stdout = sys.__stdout__
        print(code, sorted(unused & set(sys.modules)))
    """
    proc = subprocess.run(
        [sys.executable, "-S", "-B", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n0 []\n", "")


# The knots and links of the benchmark's workloads, copied so that the
# theta property does not move with the benchmark.
THETA_KNOTS = (
    "B2 s1^5",
    "B2 s1^7",
    "B2 s1^9",
    "B3 s1^3 s2^3",
    "B3 s1^5 s2^3",
    "B3 s1^3 s2^5",
    "B4 s1^3 s2^3 s3^3",
)
THETA_LINKS = (
    "B4 s1^5 s3^5 s2^-2",
    "B4 s1^7 s3^5 s2^-2",
    "B4 s1^5 s3^7 s2^-2",
    "B4 s1^7 s3^7 s2^-2",
    "B4 s3^5 s1^5 s2^-2",
)
# det(Q) = -31 and three distinct theta values: the groups sort by
# form / det, which is the reverse of the order of the forms.
NEGATIVE_DET = ("B4 s1^5 s3^5 s2^-2", "2/5,2/7")


@st.composite
def theta_slope_texts(draw, max_chain):
    """``n+p/q`` with a whole part 0-6 and ``p/q`` either ``1/m`` or the
    slope of a chain whose -2 runs are one-pick menus."""
    if draw(st.booleans()):
        value = Fraction(1, draw(st.integers(min_value=2, max_value=6)))
    else:
        coeffs = st.sampled_from((-2, -2, -3, -4, -5))
        chain = draw(st.lists(coeffs, min_size=1, max_size=max_chain))
        value = Fraction(chain[-1])
        for a in reversed(chain[:-1]):
            value = a - 1 / value
        value = -1 / value
    text = f"{value.numerator}/{value.denominator}"
    whole = draw(st.integers(min_value=0, max_value=6))
    return f"{whole}+{text}" if whole else text


@st.composite
def theta_cases(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(THETA_KNOTS)), draw(theta_slope_texts(4))
    slopes = ",".join(draw(theta_slope_texts(2)) for _ in range(2))
    return draw(st.sampled_from(THETA_LINKS)), slopes


@given(theta_cases())
@example(NEGATIVE_DET)
@settings(max_examples=60, deadline=None)
def test_theta_matches_the_dict_builder(case):
    braid_text, slope = case
    argv = ["theta", braid_text, "--slope", slope]
    code, out = run_cli(argv)
    _, table = run_cli(argv + ["--table"])
    enum = legendrian.enumerate_weinstein(
        braid.parse_braid(braid_text), cli.parse_slopes(slope)
    )
    try:
        payload = theta_payload_by_dicts(enum)
    except surgery.SingularityError:
        assert code == cli.EXIT_NUMERIC
        assert json.loads(out)["error"]["type"] == "SingularityError"
        return
    echo = {"braid": braid_text, "slope": slope, "tuple": None}
    payload.update(schema=cli.SCHEMA, subcommand="theta", inputs_echo=echo)
    assert code == cli.EXIT_OK
    expected = json.dumps(payload, sort_keys=True, indent=2, default=cli.jsonify)
    assert out == expected + "\n"
    assert table == "\n".join(cli._table_lines(payload, "")) + "\n"


@pytest.mark.parametrize("block", [1, 2, 7])
def test_theta_text_does_not_depend_on_the_block_size(monkeypatch, block):
    # 288 entries and 65 groups, written in blocks of ``block`` items.
    argv = ["theta", "B2 s1^7", "--slope", "505/1406"]
    _, whole = run_cli(argv)
    monkeypatch.setattr(cli, "_BLOCK", block)
    code, out = run_cli(argv)
    assert code == cli.EXIT_OK
    assert out == whole
    data = json.loads(out)
    assert len(data["entries"]) == 288 and len(data["theta_groups"]) == 65


def test_the_negative_determinant_example_has_three_values():
    # So the property's example checks that the groups sort by value.
    braid_text, slope = NEGATIVE_DET
    enum = legendrian.enumerate_weinstein(
        braid.parse_braid(braid_text), cli.parse_slopes(slope)
    )
    det, rows = enum.c1_forms()
    assert det < 0 and len({form for _, _, form in rows}) == 3


def test_theta_converts_each_distinct_value_once(monkeypatch):
    texts = []
    frac_str = cli.frac_str

    def counted(value):
        texts.append(value)
        return frac_str(value)

    monkeypatch.setattr(cli, "frac_str", counted)
    code, out = run_cli(["theta", "B2 s1^7", "--slope", "505/1406"])
    assert code == cli.EXIT_OK
    data = json.loads(out)
    assert data["count"] == 288
    # c1^2 and theta of each of the 65 distinct values, once each.
    assert len(data["theta_groups"]) == 65
    assert len(texts) == 2 * 65


@pytest.mark.parametrize("k", range(1, 7))
def test_theta_writes_only_the_error_when_a_value_is_too_long(monkeypatch, k):
    # Three distinct values, two texts each: the k-th text cannot print.
    calls = []
    frac_str = cli.frac_str

    def failing(value):
        calls.append(value)
        if len(calls) == k:
            raise cli.DigitLimitExceeded
        return frac_str(value)

    monkeypatch.setattr(cli, "frac_str", failing)
    braid_text, slope = NEGATIVE_DET
    code, out = run_cli(["theta", braid_text, "--slope", slope])
    assert code == cli.EXIT_NUMERIC
    error = {
        "code": cli.EXIT_NUMERIC,
        "type": "DigitLimitExceeded",
        "message": str(cli.DigitLimitExceeded()),
    }
    expected = {"error": error, "schema": 1}
    assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("picks", ["", "1,x"])
def test_theta_reports_an_unreadable_tuple_as_a_legendrian_error(picks):
    code, out = run_cli(["theta", "B2 s1^5", "--slope", "2/7", "--tuple", picks])
    assert code == cli.EXIT_PARSE
    assert json.loads(out)["error"] == {
        "code": cli.EXIT_PARSE,
        "type": "LegendrianError",
        "message": f"cannot parse integer list {picks!r}:"
        f" invalid literal for int() with base 10: {picks.split(',')[-1]!r}",
    }
