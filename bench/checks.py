"""Correctness checks on the stdout of benchmark commands.

Every command must exit 0 and print parseable JSON with no ``error``
object.  On top of that each subcommand has cheap invariants that hold
for any seed:

* ``surgery``: ``h1_order == |det|`` and ``euler_char == 1 + #components``.
* ``theta`` over all tuples: ``count == len(entries) == sum of group
  sizes``, every entry sits in the group of its theta, and
  ``theta == c1_squared - 2*chi - 3*sigma`` with ``chi`` and ``sigma``
  from the ``--tuple`` query that follows it, whose own report must
  agree with the matching entry.
* ``enumerate``: one diagram line per counted diagram, rotation tuples
  strictly increasing, and ``framing == tb - 1`` on every component.
* ``analyze``: the workload's words are ``u u^-1``, the trivial braid,
  so the counts must balance and every floor probe must fail.

Run as a script it reads ``{"commands", "codes", "files"}`` as JSON on
stdin, checks the stdout saved in each file, and prints the list of
problems; ``run.py`` does this in a separate process so that parsing
large outputs never grows the process that spawns the timed commands.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def parse(argv, data: bytes):
    """The JSON document, or for a streaming ``enumerate`` the list of lines."""
    text = data.decode()
    if argv[0] == "enumerate" and "--count-only" not in argv:
        return [json.loads(line) for line in text.splitlines()]
    return json.loads(text)


def check_surgery(doc) -> None:
    report = doc["homology"]
    components = len(doc["expanded_diagram"]["components"])
    _require(report["h1_order"] == abs(report["det"]), "h1_order != |det|")
    _require(report["euler_char"] == 1 + components, "euler_char != 1 + #components")


def check_enumerate(lines) -> None:
    envelope, diagrams = lines[0], lines[1:]
    _require(len(diagrams) == envelope["count"], "diagram lines != count")
    previous = None
    for diagram in diagrams:
        rotation = diagram["rotation_tuple"]
        _require(previous is None or previous < rotation, "rotations not increasing")
        previous = rotation
        _require(len(diagram["components"]) == len(diagram["tb"]), "tb length")
        for component, tb in zip(diagram["components"], diagram["tb"]):
            _require(Fraction(component["framing"]) == tb - 1, "framing != tb - 1")


def check_theta(doc, query_argv, query) -> None:
    entries = doc["entries"]
    group_of = {
        tuple(t): Fraction(group["theta"])
        for group in doc["theta_groups"]
        for t in group["tuples"]
    }
    sizes = sum(len(group["tuples"]) for group in doc["theta_groups"])
    _require(doc["count"] == len(entries) == sizes, "count, entries and groups differ")
    report = query["theta_report"]
    chi, sigma = report["chi"], report["sigma"]
    picks = [int(k) for k in query_argv[query_argv.index("--tuple") + 1].split(",")]
    matched = 0
    for entry in entries:
        theta = Fraction(entry["theta"])
        c1sq = Fraction(entry["c1_squared"])
        _require(theta == c1sq - 2 * chi - 3 * sigma, "theta != c1^2 - 2chi - 3sigma")
        in_group = group_of.get(tuple(entry["tuple"])) == theta
        _require(in_group, "entry outside its group")
        if entry["tuple"] == picks:
            matched += 1
            _require(
                c1sq == Fraction(report["c1_squared"])
                and theta == Fraction(report["theta"])
                and entry["rotation_tuple"] == query["rotation_tuple"],
                "all-tuples entry disagrees with the --tuple query",
            )
    _require(matched == 1, "queried tuple not listed exactly once")


def check_analyze(argv, doc) -> None:
    letters = len(argv[1].split()) - 1
    braid = doc["braid"]
    _require(braid["length"] == letters, "length != letters")
    _require(braid["c_plus"] == braid["c_minus"] == letters // 2, "unbalanced u u^-1")
    _require(braid["exponent_sum"] == 0, "exponent sum of u u^-1 != 0")
    _require(doc["components"]["count"] == braid["strands"], "trivial braid components")
    _require(
        not any(doc["dehornoy_floor_at_least"].values()),
        "floor probe passed on the trivial braid",
    )


def check_outputs(commands, outputs) -> list[str | None]:
    """One failure message (or None) per command of a pass.

    ``outputs`` holds ``(exit code, stdout bytes)`` in command order.
    """
    docs: list = []
    problems: list[str | None] = []
    for argv, (code, data) in zip(commands, outputs):
        doc = None
        try:
            _require(code == 0, f"exit code {code}")
            doc = parse(argv, data)
            head = doc[0] if isinstance(doc, list) else doc
            _require("error" not in head, f"error object: {head.get('error')}")
            problems.append(None)
        except (CheckFailed, IndexError, TypeError, ValueError) as exc:
            problems.append(str(exc))
        docs.append(doc)
    for i, argv in enumerate(commands):
        if problems[i] is not None:
            continue
        try:
            if argv[0] == "surgery":
                check_surgery(docs[i])
            elif argv[0] == "enumerate":
                check_enumerate(docs[i])
            elif argv[0] == "analyze":
                check_analyze(argv, docs[i])
            elif argv[0] == "theta" and "--tuple" not in argv:
                query = commands[i + 1] if i + 1 < len(commands) else None
                paired = query is not None and query[: len(argv)] == argv
                _require(
                    paired and docs[i + 1] is not None,
                    "all-tuples theta needs a valid --tuple query after it",
                )
                check_theta(docs[i], query, docs[i + 1])
        except (CheckFailed, IndexError, KeyError, TypeError, ValueError) as exc:
            problems[i] = f"{argv[0]}: {exc}"
    return problems


def main() -> int:
    request = json.load(sys.stdin)
    outputs = []
    for code, path in zip(request["codes"], request["files"]):
        with open(path, "rb") as saved:
            outputs.append((code, saved.read()))
    json.dump(check_outputs(request["commands"], outputs), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
