import ast
import copy
import gc
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
from functools import lru_cache, partial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    build_parser,
    linking_matrix_text,
    surgery_payload_by_dense,
    table_lines_by_json_dumps,
    theta_payload_by_dicts,
)

from braidsurgery import argv as argv_mod
from braidsurgery import braid, cfrac, cli, errors, legendrian, limits, surgery
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
        except errors.UsageError as exc:
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
    with pytest.raises(errors.CFracError):
        cli.parse_slope("0")
    with pytest.raises(errors.CFracError):
        cli.parse_slope("-1/2")
    with pytest.raises(errors.CFracError):
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


def _count_calls(monkeypatch, module, names):
    """Spy on ``module``'s functions ``names``; returns the call counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_analyze_computes_crossing_stats_once(monkeypatch):
    calls = _count_calls(monkeypatch, braid, ["crossing_stats", "permutation"])
    code, out = run_cli(CASES["analyze_seven"])
    assert code == cli.EXIT_OK
    assert out == (GOLDEN_DIR / "analyze_seven.txt").read_text()
    assert calls == {"crossing_stats": 1, "permutation": 1}


def test_surgery_computes_the_permutation_once(monkeypatch):
    calls = _count_calls(monkeypatch, braid, ["crossing_stats", "permutation"])
    # A fresh cache of the spy, so no earlier test has the word's stats.
    fresh = lru_cache(maxsize=None)(braid.crossing_stats)
    monkeypatch.setattr(surgery, "closure_stats", fresh)
    code, out = run_cli(CASES["surgery_two_sevenths"])
    assert code == cli.EXIT_OK
    assert out == (GOLDEN_DIR / "surgery_two_sevenths.txt").read_text()
    assert calls == {"crossing_stats": 1, "permutation": 1}


def test_theta_table_renders_the_json_output():
    for argv in (
        CASES["theta_groups"],
        # The chain of eleven -3 unknots: 2,048 entries in two blocks.
        ["theta", "B2 s1^5", "--slope", "17711/46368"],
        ["surgery", "B2 s1^5", "--slopes", "100"],
    ):
        _, out = run_cli(argv)
        code, table = run_cli(argv + ["--table"])
        assert code == cli.EXIT_OK
        assert table.splitlines() == table_lines_by_json_dumps(json.loads(out))


def test_enumerate_table_writes_the_envelope_lines_then_the_diagram_lines():
    argv = ["enumerate", "B2 s1^5", "--slopes", "2/7"]
    plain, table = CountingStdout(), CountingStdout()
    for out, args in ((plain, argv), (table, argv + ["--table"])):
        with redirect_stdout(out):
            assert cli.main(args) == cli.EXIT_OK
    text = plain.getvalue()
    head, diagrams = text[: plain.writes[0]], text[plain.writes[0] :]
    assert diagrams.count("\n") == 3
    # The envelope's table lines in a write of their own, then the same
    # diagram lines as JSON.
    envelope = "\n".join(table_lines_by_json_dumps(json.loads(head))) + "\n"
    assert table.writes == [len(envelope), len(diagrams)]
    assert table.getvalue() == envelope + diagrams


def test_theta_over_all_tuples_builds_base_invariants_once(monkeypatch):
    from braidsurgery import linalg

    calls = {"smith_normal_form": 0, "signature": 0, "solve_exact": 0, "solve": 0}
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
        "solve": 1,
    }


@pytest.mark.parametrize(
    "slope,tuple_,expected",
    [
        # 2+2/7 expands to the closure, four meridians framed -2 and the
        # chain (-4, -2): n = 7, but the sweep folds every unknot, so its
        # solve sees the closure alone.
        ("2+2/7", None, {"smith_normal_form": [2], "signature": [1], "solve": [1]}),
        # One tuple of the chain of 200 unknots framed -3: n = 201, but
        # every unknot folds, and the solve sees the closure alone.
        (
            [-3] * 200,
            ",".join(["2"] * 200),
            {"smith_normal_form": [1], "signature": [1], "solve": [1]},
        ),
    ],
    ids=["sweep", "tuple"],
)
def test_theta_solve_sees_only_what_the_fold_leaves(monkeypatch, slope, tuple_, expected):
    from braidsurgery import linalg

    sizes = {"smith_normal_form": [], "signature": [], "solve": []}
    for name, seen in sizes.items():
        original = getattr(linalg, name)

        def spy(m, *rest, _original=original, _seen=seen):
            _seen.append(len(m))
            return _original(m, *rest)

        monkeypatch.setattr(linalg, name, spy)
    if tuple_ is None:
        code, out = run_cli(["theta", "B2 s1^5", "--slope", slope])
        assert json.loads(out)["count"] == 3
    else:
        slope = WORKLOADS.slope_text(0, slope)
        code, out = run_cli(["theta", "B2 s1^5", "--slope", slope, "--tuple", tuple_])
        assert json.loads(out)["rotation_tuple"] == [1] * 200
    assert code == cli.EXIT_OK
    assert sizes == expected


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
        # Zero strands is given, not the default of three.
        (
            ["family", "lspace", "--strands", "0", "-k", "1", "--ell", "1"],
            "need at least 2 strands, got 0",
        ),
    ],
)
def test_strand_counts_over_the_cap_are_parse_errors(argv, message):
    code, out = run_cli(argv)
    assert code == cli.EXIT_PARSE
    error = json.loads(out)["error"]
    assert error["type"] == "BraidError"
    # A message that names the cap ends in its value.
    cap = " 1000000" if message.endswith("cap") else ""
    assert error["message"] == message + cap


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
        "budget": "MAX_THETA_TUPLES",
        "cap": 2,
        "needed": 3,
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


# Each library error's exit code and builtin base.  An exit code is part of
# the CLI's contract: a change to this table is a contract change.
ERROR_TABLE = {
    "BraidsurgeryError": (2, Exception),
    "UsageError": (2, ValueError),
    "BraidError": (2, ValueError),
    "CFracError": (2, ValueError),
    "LimitsError": (2, ValueError),
    "LegendrianError": (2, ValueError),
    "SurgeryError": (2, ValueError),
    "HypothesisError": (3, ValueError),
    "SingularityError": (4, errors.SurgeryError),
    "ReductionBudgetExceeded": (4, RuntimeError),
    "ComponentBudgetExceeded": (4, RuntimeError),
    "MenuBudgetExceeded": (4, RuntimeError),
    "TupleBudgetExceeded": (4, RuntimeError),
    "DigitLimitExceeded": (4, RuntimeError),
}
ERROR_CLASSES = {
    name: value
    for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, BaseException)
}


@pytest.mark.parametrize("name", sorted(ERROR_TABLE.keys() | ERROR_CLASSES.keys()))
def test_every_library_error_exits_with_its_code(monkeypatch, name):
    cls = ERROR_CLASSES[name]
    code, base = ERROR_TABLE[name]
    assert issubclass(cls, errors.BraidsurgeryError) and issubclass(cls, base)
    assert cls.code == code

    def failing(args):
        raise cls

    monkeypatch.setattr(cli, "cmd_analyze", failing)
    exit_code, out = run_cli(["analyze", "B2 s1"])
    error = json.loads(out)["error"]
    assert exit_code == error["code"] == code
    assert error["type"] == name
    assert ("budget" in error) == (cls is errors.DigitLimitExceeded)


def test_cli_names_no_error_class_outside_errors():
    # cli imports no exception class but from errors, and no module but
    # errors defines one (record's FrozenInstanceError is its own).
    package = Path(cli.__file__).parent
    for node in ast.walk(ast.parse((package / "cli.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            origin = "braidsurgery" + (f".{node.module}" if node.module else "")
            module = importlib.import_module(origin)
            for alias in node.names:
                value = getattr(module, alias.name)
                is_error = isinstance(value, type) and issubclass(value, BaseException)
                assert node.module == "errors" or not is_error, alias.name
    defined = set()
    for path in package.glob("*.py"):
        origin = "braidsurgery" + ("" if path.stem == "__init__" else f".{path.stem}")
        namespace = vars(importlib.import_module(origin))
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases = [eval(ast.unparse(base), namespace) for base in node.bases]
                if any(issubclass(base, BaseException) for base in bases):
                    defined.add(f"{path.stem}.{node.name}")
    assert defined == {f"errors.{name}" for name in ERROR_CLASSES} | {
        "record.FrozenInstanceError"
    }


B5_MOVES = "B5" + " s1^25 s2^25 s3^25 s4^25" * 5


@pytest.mark.parametrize(
    "argv,kind,budget,cap,needed",
    [
        (["cfrac", "10001/10002"], "CFracError", "MAX_CFRAC_TERMS", 10_000, 10_001),
        (["cfrac", "1e-1001"], "CFracError", "MAX_DIGITS", 1_000, 1_001),
        (["cfrac", "1/1" + "0" * 1000], "CFracError", "MAX_DIGITS", 1_000, 1_001),
        # 5,000 digits, more than Python prints: needed is a lower bound.
        (["cfrac", "5" * 4000 + "e1000"], "CFracError", "MAX_DIGITS", 1_000, 1_001),
        (["analyze", "B3 s1^1000001"], "BraidError", "MAX_WORD_LENGTH", 10**6, 1 + 10**6),
        (["analyze", "B1000001 s1"], "BraidError", "MAX_WORD_LENGTH", 10**6, 1 + 10**6),
        # 1,001 closure components: 1001 x 1001 crossing tables.
        (["analyze", "B1002 s1"], "BraidError", "MAX_WORD_LENGTH", 10**6, 1001**2),
        (
            ["limits", "--coeffs=-3", "--cycle=-2", "-n", "1001"],
            "LimitsError",
            "MAX_LEVELS",
            1_000,
            1_001,
        ),
        # 991 levels of 101 basic slices each.
        (
            ["limits", "--coeffs=-103", "--cycle=-103", "-n", "990"],
            "LimitsError",
            "MAX_SLICES",
            100_000,
            100_091,
        ),
        # The closure and 2 x 500 meridians.
        (
            ["surgery", "B2 s1^5", "--slopes", "500"],
            "ComponentBudgetExceeded",
            "MAX_COMPONENTS",
            1_000,
            1_001,
        ),
        # One unknot framed -100002: a menu of 100,001.
        (
            ["enumerate", "B2 s1^5", "--slopes", "1/100002", "--count-only"],
            "MenuBudgetExceeded",
            "MAX_MENU_PICKS",
            100_000,
            100_001,
        ),
        (
            ["theta", "B2 s1^5", "--slope", "20305/241956"],
            "TupleBudgetExceeded",
            "MAX_THETA_TUPLES",
            100_000,
            161_051,
        ),
        # The letters moved when the count first passes the cap, here 2,000:
        # the CI's exit-4 word with each exponent 25 for 25,000.
        (
            ["analyze", B5_MOVES],
            "ReductionBudgetExceeded",
            "MAX_LETTERS_MOVED",
            2_000,
            2_001,
        ),
    ],
)
def test_budget_errors_name_their_cap(monkeypatch, argv, kind, budget, cap, needed):
    monkeypatch.setattr(braid, "MAX_LETTERS_MOVED", 2_000)
    code, out = run_cli(argv)
    error = json.loads(out)["error"]
    assert error["type"] == kind
    assert code == error["code"] == getattr(errors, kind).code
    assert (error["budget"], error["cap"], error["needed"]) == (budget, cap, needed)


def test_the_step_budget_names_its_parameter():
    word = braid.parse_braid("B3 s1 s2 s1^-1 s2^-1 s1 s2 s1^-1 s2^-1")
    braid.handle_reduce(word, max_steps=4)  # four reductions suffice
    with pytest.raises(errors.ReductionBudgetExceeded) as info:
        braid.handle_reduce(word, max_steps=3)
    assert (info.value.budget, info.value.cap, info.value.needed) == ("max_steps", 3, 4)
    assert braid.ReductionBudgetExceeded("a bare message").budget is None


def test_enumerate_rejects_an_invalid_menu_pick_before_the_envelope(monkeypatch):
    # An unknot's picks have tb = framing + 1 by construction, so the pick
    # skewed here is the closure's.
    braid_legendrians = legendrian._braid_legendrians

    def skewed(word):
        *rest, last = braid_legendrians(word)
        return (*rest, replace(last, tb=last.tb - 1))

    monkeypatch.setattr(legendrian, "_braid_legendrians", skewed)
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


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "B2 s1^5", "--slopes", "1/1000"],
        ["theta", "B2 s1^5", "--slope", "1/1000"],
    ],
)
def test_menus_build_records_for_the_closures_only(monkeypatch, argv):
    # One menu of 999 picks, written or swept whole: the only records are
    # the closure's front data and its stabilization, none per pick.
    init, built = legendrian.LegendrianComponent.__init__, []

    def spy(self, *args, **kwargs):
        built.append(args or kwargs)
        init(self, *args, **kwargs)

    monkeypatch.setattr(legendrian.LegendrianComponent, "__init__", spy)
    code, out = run_cli(argv)
    assert code == cli.EXIT_OK, out[:200]
    assert len(built) == 2, built[:4]


def _bench_module(name: str):
    path = Path(__file__).parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _bench_module("workloads")


def test_bench_spans_finds_every_timed_name_and_puts_each_back():
    # The traced bench rebinds each name it times; install raises KeyError
    # if one is gone from the package.
    from braidsurgery import linalg

    names = [(linalg, "det"), (linalg, "signature")]
    names += [(cli, "emit"), (cli, "jsonify"), (cli, "json")]
    originals = [getattr(owner, attr) for owner, attr in names]
    recorder = _bench_module("spans").Recorder()
    try:
        recorder.install()
        assert all(getattr(o, a) is not v for (o, a), v in zip(names, originals))
    finally:
        recorder.uninstall()
    assert all(getattr(o, a) is v for (o, a), v in zip(names, originals))
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


def dict_lines(enum, limit=None):
    """The first ``limit`` lines of ``enumerate``, diagram by diagram."""
    return [
        json.dumps(
            legendrian.weinstein_to_dict(diagram),
            sort_keys=True,
            separators=(",", ":"),
            default=cli.jsonify,
        )
        + "\n"
        for diagram in itertools.islice(enum, limit)
    ]


def oracle_lines(braid_text, slopes, limit=None):
    enum = legendrian.enumerate_weinstein(
        braid.parse_braid(braid_text), cli.parse_slopes(slopes)
    )
    return enum, dict_lines(enum, limit)


@pytest.mark.parametrize(
    "slopes,count",
    [
        # A chain of twenty -5s: 4^20 tuples, of which three are read.
        ("8870244889325/42499896542376", 4**20),
        # A chain of 995 -3s: each line is longer than a block.
        (WORKLOADS.slope_text(0, [-3] * 995), 2**995),
    ],
    ids=["twenty-levels", "995-levels"],
)
def test_first_lines_come_without_walking_the_product(slopes, count):
    enum, expected = oracle_lines("B2 s1^5", slopes, 3)
    assert enum.count == count
    blocks = enum.json_blocks(cli._WRITE_SIZE)
    lines = (line for block in blocks for line in block.splitlines(True))
    assert list(itertools.islice(lines, 3)) == expected


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
    assert "".join(enum.json_blocks(cli._WRITE_SIZE)) == "".join(expected)


def assert_blocks_match(enum, expected):
    """``json_blocks`` joins to ``expected`` at sizes of 1, 2, 3 and 7
    times the text every line shares and at the CLI's write size: every
    block but the last reaches the size, and each holds fewer than twice
    the lines of that text's length it takes to reach it."""
    width = expected[0].index(',"rot":[')
    for size in (width, 2 * width, 3 * width, 7 * width, cli._WRITE_SIZE):
        blocks = list(enum.json_blocks(size))
        assert "".join(blocks) == "".join(expected)
        lines = -(-size // width)
        assert all(block.count("\n") < 2 * lines for block in blocks)
        assert all(len(block) >= size for block in blocks[:-1])


def test_blocks_of_every_size_join_to_the_lines():
    # Menus of 1, 1, 2, 3, 1, 2 and 4 picks: at 1, 2 and 3 lines a block
    # is smaller than some menus, whose texts then come a slice at a time.
    slopes = WORKLOADS.slope_text(1, [-3, -4, -2, -3, -5])
    enum, expected = oracle_lines("B3 s1^3 s2^5", slopes)
    assert len(expected) == enum.count == 48
    assert_blocks_match(enum, expected)


def test_a_menu_larger_than_a_block_is_cut_into_slices(monkeypatch):
    # One menu of 999 picks, more than a block at the write size holds.
    enum, expected = oracle_lines("B2 s1^5", "1/1000")
    assert [len(menu) for menu in enum.menus] == [999]
    assert -(-cli._WRITE_SIZE // expected[0].index(',"rot":[')) < 999
    assert_blocks_match(enum, expected)
    # Its pick texts are made a slice at a time, never for the whole menu.
    texts, sliced = legendrian._texts, []

    def counted(picks, *tail):
        sliced.append(len(picks))
        return texts(picks, *tail)

    monkeypatch.setattr(legendrian, "_texts", counted)
    assert "".join(enum.json_blocks(cli._WRITE_SIZE)) == "".join(expected)
    assert sum(sliced) == 999 and max(sliced) < 999


def without_unknots(enum):
    """``enum`` with its unknots dropped: one diagram, no rotation tuple."""
    comps = tuple(c for c in enum.base.components if c.kind == surgery.BRAID)
    enum.base = surgery.SurgeryDiagram(enum.base.braid, comps)
    enum.menus = []
    return enum


@st.composite
def menu_shapes(draw):
    """A closure and no unknot at all, or up to eight chain levels with
    menus of one pick anywhere and maybe one menu of 12 or 600 picks (more
    than a default block holds): at most 256 diagrams, or two per pick of
    the big menu."""
    braid_text = draw(st.sampled_from(WORKLOADS.KNOTS + (UNBALANCED_LINK,)))
    link = ",1" if braid_text == UNBALANCED_LINK else ""
    big = draw(st.sampled_from(["bare", None, None, 12, 600]))
    if big == "bare":
        return braid_text, "1" + link, True
    coeffs, count, budget = [], big or 1, max(256, 2 * (big or 0))
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        fits = [a for a in (-2, -2, -3, -4, -5) if count * (-a - 1) <= budget]
        coeffs.append(draw(st.sampled_from(fits)))
        count *= -coeffs[-1] - 1
    if big:
        coeffs.insert(draw(st.integers(0, len(coeffs))), -big - 1)
    whole = draw(st.integers(0, 1))
    slope = WORKLOADS.slope_text(whole, coeffs) if coeffs else str(whole + 1)
    return braid_text, slope + link, False


@given(menu_shapes())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_blocks_join_to_the_lines_of_weinstein_to_dict(case):
    braid_text, slopes, bare = case
    enum = legendrian.enumerate_weinstein(
        braid.parse_braid(braid_text), cli.parse_slopes(slopes)
    )
    if bare:
        enum = without_unknots(enum)
    assert_blocks_match(enum, dict_lines(enum))


json_texts = (
    st.text(max_size=8)
    | st.text(
        alphabet=st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800\U0001f600a'),
        max_size=8,
    )
    # Pieces of the indent-2 and table texts, which must stay inside a string.
    | st.lists(
        st.sampled_from(["\n", ",\n    ", '": ', " = ", "\0", '"', "\\", "\u00e9", "a"]),
        max_size=4,
    ).map("".join)
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
    streams = []
    assert cli._indented(value, "\n", streams) == expected
    assert streams == []


@given(json_values)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_table_lines_match_json_dumps(value):
    streams = []
    assert list(cli._table_lines(value, "", streams)) == table_lines_by_json_dumps(value)
    assert streams == []


def stream_of(value):
    """A stream of the text of ``value`` at the pad it is called with, cut
    before each comma that ends a line or, on one line, each comma."""
    return lambda pad: re.split(r"(?=,\n|, )", cli._indented(value, pad, []))


@given(json_values.filter(lambda value: not isinstance(value, dict)))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_a_stream_at_any_depth_writes_as_its_value(value):
    # Not a dict, so the value is one table line as text or as a stream.
    data = {"a": value, "b": {"c": [value]}}
    for table in (False, True):
        buf = io.StringIO()
        payload = {"a": stream_of(value), "b": {"c": [stream_of(value)]}}
        with redirect_stdout(buf):
            cli.emit(payload, table)
        if table:
            expected = "\n".join(table_lines_by_json_dumps(data))
        else:
            expected = json.dumps(data, sort_keys=True, indent=2, default=cli.jsonify)
        assert buf.getvalue() == expected + "\n"


def test_indented_writer_rejects_what_json_dumps_rejects():
    with pytest.raises(TypeError):
        cli._indented({"x": [1, object()]}, "\n", [])


def test_jsonify_sees_only_fractions(monkeypatch):
    seen = []
    jsonify = cli.jsonify

    def spy(value):
        seen.append(type(value))
        return jsonify(value)

    monkeypatch.setattr(cli, "jsonify", spy)
    for argv in CASES.values():
        for args in (argv, [*argv, "--table"]):
            run_cli(args)
    assert set(seen) == {Fraction}


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
        "budget": "int_max_str_digits",
        "cap": limit,
        "needed": limit + 1,
    }
    with pytest.raises(errors.DigitLimitExceeded):
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
            "budget": "MAX_COMPONENTS",
            "cap": 1000,
            "needed": total,
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
        "budget": "MAX_CFRAC_TERMS",
        "cap": 4,
        "needed": 5,
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


class CountingStdout(io.StringIO):
    """A stdout that keeps the length of every ``write``."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(len(text))
        return super().write(text)


def streamed_items(argv, streamed):
    """The items ``emit`` joins into writes after the head, whose text is
    ``streamed``: each stream's items (one line each in table lines), then
    the text up to the next stream or the end."""
    args = cli.parse_argv(argv)
    result = getattr(cli, "cmd_" + args.subcommand)(args)

    def items_at(stream, depth):
        # The pad at a payload key's value of this depth.
        return list(stream("" if args.table else "\n" + "  " * depth))

    if args.subcommand == "enumerate":
        streams = [list(result[1])]
    elif args.subcommand == "theta":
        streams = [items_at(result["entries"], 1), items_at(result["theta_groups"], 1)]
    else:
        diagrams = [result[key]["components"] for key in ("expanded_diagram", "rational_diagram")]
        streams = [
            items_at(diagrams[0], 2),
            items_at(result["linking_matrix"], 1),
            items_at(diagrams[1], 2),
        ]
    items, at = [], 0
    for n, stream in enumerate(streams):
        text = "".join(stream)
        assert streamed.startswith(text, at)
        at += len(text)
        following = "".join(streams[n + 1]) if n + 1 < len(streams) else None
        end = streamed.index(following, at) if following else len(streamed)
        items += [*stream, streamed[at:end]]
        at = end
    return [item for item in items if item]


@pytest.mark.parametrize(
    "argv,heads",
    [
        # 5,184 lines of about 860 characters.
        (["enumerate", "B3 s1^3 s2^5", "--slopes", "9713/35369"], ("}\n", '"enumerate"\n')),
        # Menus of 2 and 1,000 picks: the second, larger than a block, comes
        # a slice at a time, and a slice's remainder joins the next pick's.
        (["enumerate", "B2 s1^5", "--slopes", "1001/3002"], ("}\n", '"enumerate"\n')),
        # 288 entries and 65 groups, in blocks of 1,024 items at most.
        (["theta", "B2 s1^7", "--slope", "505/1406"], ('"entries": ', "entries = ")),
        # 201 rows of about 1,600 characters, between the two diagrams'
        # components, each one block.
        (
            ["surgery", "B2 s1^5", "--slopes", "100"],
            ('"components": ', "expanded_diagram.components = "),
        ),
    ],
    ids=["enumerate", "enumerate-sliced", "theta", "surgery"],
)
def test_streamed_output_goes_out_in_writes_of_64k(argv, heads):
    for table, size in itertools.product((False, True), (1_000, 65_536)):
        args = argv + ["--table"] * table
        out = CountingStdout()
        with mock.patch.object(cli, "_WRITE_SIZE", size):
            with redirect_stdout(out):
                assert cli.main(args) == cli.EXIT_OK
            items = streamed_items(args, out.getvalue()[out.writes[0] :])
            if argv[0] == "enumerate":
                blocks = list(cli.cmd_enumerate(cli.parse_argv(args))[1])
        text, writes = out.getvalue(), out.writes
        # The head goes out alone, before the first streamed item; then each
        # write is the fewest whole items that reach the size.
        assert text[: writes[0]].endswith(heads[table])
        assert_fewest_whole_items(writes[1:], items, size)
        if size == 65_536:
            assert len(writes) <= len(text.encode()) // 65_536 + 3
        if argv[0] == "enumerate":
            assert text[writes[0] :] == "".join(blocks)
            # Each block of lines goes out as one write: at least the size
            # but the last, and fewer than twice the lines of the text every
            # line shares that it takes to reach the size.
            assert writes[1:] == [len(block) for block in blocks]
            assert all(len(block) >= size for block in blocks[:-1])
            most = 2 * -(-size // blocks[0].index(',"rot":['))
            assert all(block.count("\n") < most for block in blocks)


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
        "budget": "MAX_WORD_LENGTH",
        "cap": 1000000,
        "needed": 1998000,
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
        # One argv per nonzero exit code: 2, 3 and 4 (a budget error).
        ["cfrac", "1e-9999"],
        ["theta", "B2 s1^-5", "--slope", "1/5"],
        ["surgery", "B2 s1^5", "--slopes", "1000000"],
    ]
    root = Path(__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    codes = set()
    for argv in sequence:
        code, out = run_cli(argv)
        alone = subprocess.run(
            [sys.executable, "-m", "braidsurgery.cli", *argv],
            capture_output=True,
            env=env,
            timeout=60,
        )
        assert (code, out.encode()) == (alone.returncode, alone.stdout), argv
        assert alone.stderr == b"", argv
        codes.add(code)
    assert codes == {cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_HYPOTHESIS, cli.EXIT_NUMERIC}


def test_main_never_freezes_the_collector_and_the_entry_keeps_atexit():
    # A freeze in main would keep every later cycle of a library caller.
    before = gc.get_freeze_count()
    for argv in (["surgery", "B2 s1^5", "--slopes", "2/7"], ["cfrac", "1e-9999"], ["-h"]):
        run_cli(argv)
    assert gc.get_freeze_count() == before
    # The process entry freezes after main, and the process still runs its
    # atexit handlers (os._exit would skip them).
    src = str(Path(__file__).parents[1] / "src")
    code = f"""if True:
        import atexit, gc, runpy, sys
        sys.path.insert(0, {src!r})
        atexit.register(
            lambda: sys.stderr.write(f"atexit: frozen {{gc.get_freeze_count() > 0}}")
        )
        sys.argv = ["braidsurgery", "cfrac", "2/7"]
        runpy.run_module("braidsurgery.cli", run_name="__main__")
    """
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "atexit: frozen True")
    assert json.loads(proc.stdout)["subcommand"] == "cfrac"
    # The console script runs the same entry.
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert 'braidsurgery = "braidsurgery.cli:entry"' in pyproject


def test_a_closed_stdout_leaves_the_callers_descriptor_alone(monkeypatch):
    # main returns 0 and redirects nothing; pointing fd 1 at devnull is the
    # process entry's job, not a library caller's.
    read, write = os.pipe()

    class Closed(io.StringIO):
        def fileno(self):
            return write

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    try:
        before = os.fstat(write)
        monkeypatch.setattr(sys, "stdout", Closed())
        assert cli.main(["cfrac", "2/7"]) == cli.EXIT_OK
        after = os.fstat(write)
        assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)
    finally:
        os.close(read)
        os.close(write)


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
    with pytest.raises(errors.CFracError, match="a power of ten over 1000 digits"):
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


# Strand headers and whole parts, with the regexes the parsers used before
# as the oracle: \d is a Unicode decimal digit (Arabic-Indic ٣, full-width
# ３), never a superscript (²).
@pytest.mark.parametrize(
    "text",
    [
        "B٣ s1",
        "B３ s1",
        "B²",
        "B2²",
        "B",
        "B3 s1",
        "b3",
        "BB3",
        "B3x s1",
        "",
        "1e+5",
        "-1e+5",
        "2+1/3",
        "٣+1/3",
        "２+１/３",
        "+1",
        "1+",
        "+",
        "1e+5+2",
        "2e+",
        "1+2+3",
        "²+1",
    ],
)
def test_parsers_split_as_the_old_regexes(monkeypatch, text):
    tokens = text.split()
    header = re.fullmatch(r"B(\d+)", tokens[0]) if tokens else None
    try:
        braid.parse_braid(text)
        accepted = True
    except errors.BraidError as exc:
        accepted = "strand header" not in str(exc)
    assert accepted == (header is not None)

    def old_split(text):
        return re.split(r"(?<=\d)\+", text, maxsplit=1)

    def outcome(text):
        try:
            return cli.parse_rational(text)
        except errors.CFracError as exc:
            return str(exc)

    assert cli._split_whole(text) == old_split(text)
    value = outcome(text)
    monkeypatch.setattr(cli, "_split_whole", old_split)
    assert value == outcome(text)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "B3 s1 s2^-1 s1"],
        ["surgery", "B2 s1^5", "--slopes", "2+1/3"],
        ["theta", "B2 s1^5", "--slope", "1+2/7"],
        ["theta", "B2 s1^5", "--slope", "2/7", "--tuple", "1,1"],
        ["enumerate", "B2 s1^5", "--slopes", "2/7"],
        ["enumerate", "B2 s1^5", "--slopes", "2/7", "--count-only"],
        # Table lines are written at their place, not rewritten from JSON.
        ["surgery", "B2 s1^5", "--slopes", "2+1/3", "--table"],
        ["theta", "B2 s1^5", "--slope", "1+2/7", "--table"],
        ["limits", "--coeffs=-3,-2", "--cycle=-2", "--tail", "ones", "-n", "3", "--table"],
    ],
)
def test_no_regex_runs_on_the_command_path(monkeypatch, argv):
    # A compiled pattern's own methods are fine; the module's functions
    # compile (or look up) a pattern on every process's first call.
    calls = []

    def spy(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return call

    names = "compile search match fullmatch split findall finditer sub subn"
    for name in names.split():
        monkeypatch.setattr(re, name, spy(name, getattr(re, name)))
    code, out = run_cli(argv)
    assert code == cli.EXIT_OK, out
    assert calls == []


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
        "budget": "MAX_MENU_PICKS",
        "cap": 10,
        "needed": 11,
    }


def test_limits_levels_are_capped_before_any_level_is_read():
    argv = ["limits", "--coeffs=-3", "--cycle=-2", "-n", "1000000000"]
    code, out = run_cli(argv)
    assert code == cli.EXIT_PARSE
    message = json.loads(out)["error"]["message"]
    assert message == "level 1000000000 is over the cap 1000"


def test_limits_cap_boundaries(monkeypatch):
    argv = ["limits", "--coeffs=-5", "--cycle=-4", "-n"]
    monkeypatch.setattr(limits, "MAX_LEVELS", 3)
    assert run_cli(argv + ["3"])[0] == cli.EXIT_OK
    code, out = run_cli(argv + ["4"])
    assert code == cli.EXIT_PARSE
    assert json.loads(out)["error"]["message"] == "level 4 is over the cap 3"
    # Levels 0..2 have the coefficients -5, -4, -4: blocks of 3, 2 and 2 slices.
    monkeypatch.setattr(limits, "MAX_SLICES", 7)
    assert run_cli(argv + ["2"])[0] == cli.EXIT_OK
    monkeypatch.setattr(limits, "MAX_SLICES", 6)
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
        written = io.StringIO()
        with redirect_stdout(written):
            cli.emit(payload)
        assert json.loads(written.getvalue()) == {
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
            + _option(draw, "-n", ints | st.just(limits.MAX_LEVELS + 1))
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
        # The table lines of the JSON output of the same argv; after the
        # envelope, ``enumerate``'s diagram lines as they are.
        plain_code, plain = run_cli([a for a in argv if a != "--table"])
        assert plain_code == code
        try:
            head, rest = json.loads(plain), []
        except json.JSONDecodeError:
            first, *rest = plain.splitlines()
            head = json.loads(first)
        assert out.splitlines() == table_lines_by_json_dumps(head) + rest
        assert out.endswith("\n")
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
@example(("B2 s1^5", "5"))  # one tuple: ten menus of one pick, no level
@example(("B2 s1^5", "1/3"))  # one level
@example(("B2 s1^5", "17711/46368"))  # eleven -3s: 2,048 entries, two blocks
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
    assert table == "\n".join(table_lines_by_json_dumps(payload)) + "\n"


@pytest.mark.parametrize("block", [1, 2, 7])
def test_theta_text_does_not_depend_on_the_block_size(block):
    # 288 entries and 65 groups, written in blocks of ``block`` items, as
    # JSON and as table lines.
    argv = ["theta", "B2 s1^7", "--slope", "505/1406"]
    whole = [run_cli(argv)[1], run_cli(argv + ["--table"])[1]]
    with mock.patch.object(cli, "_BLOCK", block):
        outs = [run_cli(argv), run_cli(argv + ["--table"])]
    assert outs == [(cli.EXIT_OK, text) for text in whole]
    data = json.loads(whole[0])
    assert whole[1] == "\n".join(table_lines_by_json_dumps(data)) + "\n"
    assert len(data["entries"]) == 288 and len(data["theta_groups"]) == 65


def test_the_negative_determinant_example_has_three_values():
    # So the property's example checks that the groups sort by value.
    braid_text, slope = NEGATIVE_DET
    enum = legendrian.enumerate_weinstein(
        braid.parse_braid(braid_text), cli.parse_slopes(slope)
    )
    det, forms = enum.c1_forms()
    assert det < 0 and len(set(forms)) == 3


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
            raise errors.DigitLimitExceeded
        return frac_str(value)

    monkeypatch.setattr(cli, "frac_str", failing)
    braid_text, slope = NEGATIVE_DET
    code, out = run_cli(["theta", braid_text, "--slope", slope])
    assert code == cli.EXIT_NUMERIC
    limit = sys.get_int_max_str_digits()
    error = {
        "code": cli.EXIT_NUMERIC,
        "type": "DigitLimitExceeded",
        "message": str(errors.DigitLimitExceeded()),
        "budget": "int_max_str_digits",
        "cap": limit,
        "needed": limit + 1,
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


# Knots, and links whose components link -1 (``B3 s1^-2 s2^3``, the first
# two of THETA_LINKS) or -2 (``B3 s1^-4 s2^3``).
SURGERY_BRAIDS = THETA_KNOTS[:3] + THETA_LINKS[:2] + ("B3 s1^-2 s2^3", "B3 s1^-4 s2^3")


@st.composite
def expanded_diagrams(draw):
    """A closure from SURGERY_BRAIDS with a slope per component (``n+p/q``
    from a chain, or ``n+1/N`` with N of up to ``MAX_DIGITS`` digits, which
    frames an unknot -N), expanded by either rule."""
    word = braid.parse_braid(draw(st.sampled_from(SURGERY_BRAIDS)))
    slopes = []
    for _ in surgery.closure_stats(word).axis_linking:
        if draw(st.booleans()):
            slopes.append(cli.parse_slope(draw(theta_slope_texts(6))))
        else:
            digits = draw(st.integers(1, cli.MAX_DIGITS))
            big = draw(st.integers(2, 10**digits - 1))
            slopes.append(draw(st.integers(0, 6)) + Fraction(1, big))
    rational = surgery.rational_surgery(word, cfrac.SlopeVector(tuple(slopes)))
    expand = draw(st.sampled_from([surgery.slam_dunk_expand, surgery.expand_general]))
    return expand(rational)


def assert_fewest_whole_items(writes, items, size):
    """Each write is whole ``items``, in order; each but the last reaches
    ``size`` characters, and falls under it without its last item."""
    items = iter(items)
    for n, length in enumerate(writes, 1):
        taken = 0
        while taken < length:
            last = len(next(items))
            taken += last
        assert taken == length
        if n < len(writes):
            assert length >= size > length - last
    assert next(items, None) is None


@given(expanded_diagrams())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_matrix_blocks_join_to_the_dense_text(diagram):
    rows = list(cli._matrix_rows(surgery.linking_rows(diagram), "\n  "))
    assert "".join(rows) == linking_matrix_text(diagram)
    assert len(rows) == len(diagram.components) + 1
    assert all(row.endswith("\n    ]") for row in rows[:-1])


@given(expanded_diagrams())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_matrix_blocks_are_the_fewest_whole_rows_that_reach_the_size(diagram):
    rows = surgery.linking_rows(diagram)
    # The closing bracket and brace follow the rows as items of their own.
    items = [*cli._matrix_rows(rows, "\n  "), "\n}\n"]
    for size in (1, 2, 3, 40, 1000, 65_536):
        out = CountingStdout()
        with mock.patch.object(cli, "_WRITE_SIZE", size), redirect_stdout(out):
            cli.emit({"linking_matrix": partial(cli._matrix_rows, rows)})
        assert out.getvalue()[: out.writes[0]] == '{\n  "linking_matrix": '
        assert_fewest_whole_items(out.writes[1:], items, size)


@given(expanded_diagrams())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_surgery_diagram_text_is_the_dict_at_its_place(diagram):
    expected = {"expanded_diagram": surgery.diagram_to_dict(diagram)}
    texts = [
        json.dumps(expected, sort_keys=True, indent=2),
        "\n".join(table_lines_by_json_dumps(expected)),
    ]
    for table, text in enumerate(texts):
        braid_text = braid.format_braid(diagram.braid)
        out = io.StringIO()
        with redirect_stdout(out):
            cli.emit({"expanded_diagram": cli._diagram(braid_text, diagram)}, table)
        assert out.getvalue() == text + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["surgery", "B2 s1^5", "--slopes", "2/7"],
        ["surgery", "B3 s1^-4 s2^3", "--slopes", "1/" + "9" * 1000 + ",3+5/13"],
        ["surgery", "B4 s1^5 s3^5 s2^-2", "--slopes", "6+2/5,7+3/7", "--general"],
        ["surgery", "B2 s1^5", "--slopes", "100"],
    ],
    ids=["two-sevenths", "thousand-digits", "general-link", "n201"],
)
def test_surgery_writes_the_dense_payload(argv):
    args = cli.parse_argv(argv)
    payload = surgery_payload_by_dense(args.braid, args.slopes, args.general)
    echo = {k: v for k, v in vars(args).items() if k not in ("subcommand", "table")}
    payload.update(schema=cli.SCHEMA, subcommand="surgery", inputs_echo=echo)
    code, out = run_cli(argv)
    assert code == cli.EXIT_OK
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    code, table = run_cli(argv + ["--table"])
    assert code == cli.EXIT_OK
    assert table == "\n".join(table_lines_by_json_dumps(payload)) + "\n"


def test_a_non_integral_linking_matrix_fails_before_anything_is_written(monkeypatch):
    # An expansion that leaves the slope 2/7 on the closure, and a homology
    # that does not check: only the linking matrix's check can fail.
    argv = ["surgery", "B2 s1^5", "--slopes", "2/7"]
    word, slopes = braid.parse_braid(argv[1]), cli.parse_slopes(argv[3])
    rational = surgery.rational_surgery(word, slopes)
    report = surgery.homology(surgery.slam_dunk_expand(rational))
    monkeypatch.setattr(surgery, "slam_dunk_expand", lambda diagram: diagram)
    monkeypatch.setattr(surgery, "homology", lambda diagram: report)
    out = CountingStdout()
    with redirect_stdout(out):
        code = cli.main(argv)
    assert code == errors.SurgeryError.code
    assert len(out.writes) == 1
    assert json.loads(out.getvalue())["error"] == {
        "code": errors.SurgeryError.code,
        "type": "SurgeryError",
        "message": "linking matrix needs an integral diagram",
    }
