"""Outside-in span recorder for the traced benchmark run.

The recorder wraps public functions of ``braidsurgery`` from outside the
package: every name a caller looks a function up by is rebound to a
timing wrapper (including ``from`` imports such as
``surgery.neg_cfrac``), ``cli.json`` is replaced by a proxy whose
``dumps`` is timed, and every binding is restored by ``uninstall``.
Spans (name, start, end, parent, command id) are kept in memory;
``layer_metrics`` turns them into self times and call counts and
``write_spans`` dumps them when the run ends.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path) of every function timed as a span.  Names
# follow ``<module>.<function>`` and give ``.self_s`` and ``.calls``.
TIMED = (
    ("braid", "parse_braid"),
    ("braid", "permutation"),
    ("braid", "crossing_stats"),
    ("braid", "handle_reduce"),
    ("cfrac", "neg_cfrac"),
    ("surgery", "rational_surgery"),
    ("surgery", "slam_dunk_expand"),
    ("surgery", "expand_general"),
    ("surgery", "linking_matrix"),
    ("surgery", "homology"),
    ("surgery", "diagram_to_dict"),
    ("linalg", "det"),
    ("linalg", "smith_normal_form"),
    ("linalg", "signature"),
    ("linalg", "solve_exact"),
    ("legendrian", "enumerate_weinstein"),
    ("legendrian", "WeinsteinEnumeration.diagram_for"),
    ("legendrian", "theta"),
    ("legendrian", "validate_weinstein"),
    ("legendrian", "weinstein_to_dict"),
    ("cli", "main"),
    ("cli", "emit"),
)
# Spans recorded by the special wrappers below.
JSONIFY = "cli.jsonify"
DUMPS = "cli.json.dumps"
ITER = "legendrian.WeinsteinEnumeration.__iter__"
SPAN_NAMES = tuple(f"{m}.{p}" for m, p in TIMED) + (JSONIFY, DUMPS, ITER)

LINALG = ("det", "smith_normal_form", "signature", "solve_exact")
# Work counters: name -> (unit, how successive values combine).
COUNTERS = {
    "braid.handle_reduce.letters_in": ("count", "sum"),
    "braid.handle_reduce.letters_out": ("count", "sum"),
    "cfrac.neg_cfrac.max_len": ("count", "max"),
    "surgery.linking_matrix.max_n": ("count", "max"),
    **{f"linalg.{f}.max_n": ("count", "max") for f in LINALG},
    **{f"linalg.{f}.max_entry_bits": ("bits", "max") for f in LINALG},
    "legendrian.diagrams_yielded": ("count", "sum"),
    "cli.stdout_bytes": ("bytes", "sum"),
}


def _max_entry_bits(matrix) -> int:
    return max((abs(x).bit_length() for row in matrix for x in row), default=0)


def _probe(name: str, args, result, count) -> None:
    """Update the work counters of span ``name`` from one call."""
    if name == "braid.handle_reduce":
        count("braid.handle_reduce.letters_in", len(args[0]))
        count("braid.handle_reduce.letters_out", len(result))
    elif name == "cfrac.neg_cfrac":
        count("cfrac.neg_cfrac.max_len", len(result.coeffs))
    elif name == "surgery.linking_matrix":
        count("surgery.linking_matrix.max_n", len(result))
    elif name.startswith("linalg."):
        count(f"{name}.max_n", len(args[0]))
        count(f"{name}.max_entry_bits", _max_entry_bits(args[0]))


class Recorder:
    """Spans and counters of one traced pass; ``command`` tags new spans."""

    def __init__(self):
        self.spans: list = []
        self.counters = {name: 0 for name in COUNTERS}
        self.command = 0
        self._stack: list[int] = []
        self._patches: list = []

    def count(self, name: str, value: int) -> None:
        if COUNTERS[name][1] == "max":
            self.counters[name] = max(self.counters[name], value)
        else:
            self.counters[name] += value

    def call(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.command)

    def _timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            _probe(name, args, result, self.count)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Rebind every looked-up name of the timed functions to wrappers."""
        from braidsurgery import cli, legendrian

        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if key == "braidsurgery" or key.startswith("braidsurgery.")
        ]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for module, path in TIMED:
            name = f"{module}.{path}"
            owner = by_name[module]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            wrapper = self._timed(name, original)
            if classes:
                self._set(owner, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)

        # jsonify recurses through its module global: time the outermost
        # call only, by pointing the global at the original while it runs.
        jsonify = cli.jsonify

        def outermost_jsonify(*args, **kwargs):
            cli.jsonify = jsonify
            try:
                return self.call(JSONIFY, jsonify, args, kwargs)
            finally:
                cli.jsonify = outermost_jsonify

        self._set(cli, "jsonify", outermost_jsonify)
        self._set(cli, "json", _JsonProxy(self._timed(DUMPS, json.dumps)))

        iterate = legendrian.WeinsteinEnumeration.__iter__

        def traced_iter(enum):
            inner = iterate(enum)
            while True:
                try:
                    diagram = self.call(ITER, next, (inner,), {})
                except StopIteration:
                    return
                self.count("legendrian.diagrams_yielded", 1)
                yield diagram

        self._set(legendrian.WeinsteinEnumeration, "__iter__", traced_iter)

    def uninstall(self) -> None:
        """Put back every binding ``install`` replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Self time and call count per span name, plus the counters."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            self_s[name] += end - start - inner
            calls[name] += 1
        metrics: dict[str, float] = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.self_s"] = self_s[name]
            metrics[f"{name}.calls"] = calls[name]
        metrics.update(self.counters)
        return metrics

    def write_spans(self, path: str, commands) -> None:
        """One JSON line per span, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            for index, (name, start, end, parent, command) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                            "command": command,
                            "subcommand": commands[command][0],
                        }
                    )
                    + "\n"
                )


class _JsonProxy:
    """Stands in for ``cli.json``: a timed ``dumps``, the rest forwarded."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)
