#!/usr/bin/env python3
"""Benchmark of the ``braidsurgery`` CLI and library.

Usage, from the root of a checkout::

    python3 bench/run.py --workload theta-enumerate --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45

One run builds the workload's command list from the seed, then repeats
passes over it for about ``--seconds``, one child process at a time.
With ``--trace 0`` a pass is the list run as fresh
``python -m braidsurgery.cli`` processes (``wall_s``,
``first_output_s``, ``peak_rss_mb``), the list run through ``cli.main``
in one fresh worker (``inproc_s``), and two fresh processes that only
import ``braidsurgery.cli`` (``setup_s``).  Each of these times is
rescaled to a fixed machine speed by the reference kernel of
``calibrate.py``, timed right before and right after it.  With
``--trace 1`` a pass is an untraced and a traced worker, and the metrics
are the per-layer self times, call counts and work counters of
``spans.py``.  Every metric is a median over the passes of the run.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it holds metadata that is not gated.
``--workload all`` runs every workload and prints a table instead.  See
``README.md`` for the workloads and what they predict.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"

# Spread over the run, so that setup_s sees the same machine as the passes.
SETUP_PER_PASS = 2
# A run must end within 180 s even if the program under test hangs.
RUN_LIMIT_S = 150.0
STDERR_KEEP = 4096
MB = 1024.0  # ru_maxrss is in KiB on Linux

END_TO_END_UNITS = {
    "wall_s": "s",
    "inproc_s": "s",
    "first_output_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Run:
    """Commands, reference digests, outcome counts and deadline of one run."""

    def __init__(self, workload: str, commands, expected):
        self.workload = workload
        self.commands = commands
        self.expected = expected
        # Digest of each command's first CLI stdout; None where it failed.
        self.reference: list[str | None] | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.hard_deadline = perf_counter() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def timeout(self) -> float:
        return max(1.0, self.hard_deadline - perf_counter())

    def record(self, label: str, problems) -> None:
        self.attempted += len(problems)
        for index, problem in enumerate(problems):
            if problem is not None:
                self.failures.append(f"{label} command {index}: {problem}")

    def first_pass(self, codes, digests, files) -> None:
        """Check the saved stdout in full and fix the reference digests."""
        problems = check_saved(self, codes, files)
        for index, digest in enumerate(digests):
            if problems[index] is None and self.expected is not None:
                if digest != self.expected[index]:
                    problems[index] = "stdout sha256 differs from the recorded digest"
        self.reference = [d if p is None else None for d, p in zip(digests, problems)]
        self.record("cli", problems)

    def compare(self, label: str, codes, digests) -> None:
        """Every later execution must reproduce the first pass byte for byte."""
        self.record(
            label,
            [
                None if code == 0 and digest == ref else f"exit {code}, stdout differs"
                for code, digest, ref in zip(codes, digests, self.reference)
            ],
        )


def check_saved(run: Run, codes, files) -> list[str | None]:
    """Run ``checks.py`` on saved stdout in its own process."""
    request = {
        "commands": run.commands,
        "codes": codes,
        "files": [str(path) for path in files],
    }
    proc = subprocess.run(
        [sys.executable, str(BENCH / "checks.py")],
        input=json.dumps(request).encode(),
        capture_output=True,
        cwd=ROOT,
        timeout=run.timeout(),
    )
    if proc.returncode != 0:
        detail = proc.stderr.decode(errors="replace")[-500:]
        return [f"checker failed: {detail}"] * len(codes)
    return json.loads(proc.stdout)


def run_cli(argv, run: Run, save: Path | None) -> dict:
    """One fresh CLI process: wall time, first stdout byte, own max RSS.

    Stdout is hashed as it streams, and copied to ``save`` when given, so
    the driver's own memory stays small (see ``main``).
    """
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "braidsurgery.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=run.env,
        cwd=ROOT,
    )
    deadline = start + run.timeout()
    digest = hashlib.sha256()
    stderr = b""
    first = None
    killed = False
    copy = open(save or os.devnull, "wb")
    with selectors.DefaultSelector() as selector, copy:
        selector.register(proc.stdout, selectors.EVENT_READ)
        selector.register(proc.stderr, selectors.EVENT_READ)
        while selector.get_map():
            remaining = deadline - perf_counter()
            if remaining <= 0 and not killed:
                proc.kill()
                killed = True
            for key, _ in selector.select(timeout=max(remaining, 0.1)):
                data = os.read(key.fd, 1 << 16)
                if not data:
                    selector.unregister(key.fileobj)
                elif key.fileobj is proc.stdout:
                    if first is None:
                        first = perf_counter()
                    digest.update(data)
                    copy.write(data)
                else:
                    stderr = (stderr + data)[-STDERR_KEEP:]
    # wait4 gives this child's own rusage; RUSAGE_CHILDREN would be the
    # running maximum over every child reaped so far.
    _, status, usage = os.wait4(proc.pid, 0)
    end = perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return {
        "code": "timeout" if killed else proc.returncode,
        "sha256": digest.hexdigest(),
        "stderr": stderr.decode(errors="replace"),
        "wall_s": end - start,
        "first_output_s": (first if first is not None else end) - start,
        "rss_mb": usage.ru_maxrss / MB,
    }


def wall_pass(run: Run) -> dict:
    first = run.reference is None
    files = [
        OUT / f"{run.workload}-{i}.out" if first else None
        for i in range(len(run.commands))
    ]
    brackets = [calibrate.time_kernel()]
    results = []
    for argv, path in zip(run.commands, files):
        results.append(run_cli(argv, run, path))
        brackets.append(calibrate.time_kernel())
    for index, r in enumerate(results):
        if r["code"] != 0 and r["stderr"]:
            print(f"command {index} stderr: {r['stderr']}", file=sys.stderr)
    codes = [r["code"] for r in results]
    digests = [r["sha256"] for r in results]
    if first:
        run.first_pass(codes, digests, files)
    else:
        run.compare("cli", codes, digests)
    factors = calibrate.scale(brackets)
    return {
        "wall_s": sum(r["wall_s"] * f for r, f in zip(results, factors)),
        "first_output_s": sum(
            r["first_output_s"] * f for r, f in zip(results, factors)
        ),
        "peak_rss_mb": max(r["rss_mb"] for r in results),
        "per_command": [r["wall_s"] for r in results],
        "raw_wall_s": sum(r["wall_s"] for r in results),
        "raw_first_output_s": sum(r["first_output_s"] for r in results),
        "ref_s": statistics.median(brackets),
    }


def worker_pass(run: Run, trace: bool, spans_out: str | None = None) -> dict | None:
    """One fresh worker running the list through ``cli.main``."""
    request = {"commands": run.commands, "trace": trace, "spans_out": spans_out}
    label = "traced" if trace else "inproc"
    proc = None
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")],
            input=json.dumps(request).encode(),
            capture_output=True,
            env=run.env,
            cwd=ROOT,
            timeout=run.timeout(),
        )
        reply = json.loads(proc.stdout) if proc.returncode == 0 else None
    except (subprocess.TimeoutExpired, ValueError):
        reply = None
    if reply is None:
        detail = proc.stderr.decode(errors="replace")[-500:] if proc else "timeout"
        run.record(label, [f"worker failed: {detail}"] * len(run.commands))
        return None
    results = reply["commands"]
    run.compare(label, [r["code"] for r in results], [r["sha256"] for r in results])
    factors = calibrate.scale(reply["brackets"])
    return {
        "seconds": sum(r["seconds"] * f for r, f in zip(results, factors)),
        "raw_seconds": sum(r["seconds"] for r in results),
        "per_command": [r["seconds"] for r in results],
        "layers": reply.get("layers"),
    }


def measure_setup(run: Run, samples: int) -> tuple[list[float], list[float]]:
    """Import time of ``braidsurgery.cli`` in fresh processes, rescaled and
    as measured."""
    argv = [sys.executable, "-c", "import braidsurgery.cli"]
    times = []
    brackets = [calibrate.time_kernel()]
    for _ in range(samples):
        start = perf_counter()
        proc = subprocess.run(
            argv, env=run.env, cwd=ROOT, capture_output=True, timeout=run.timeout()
        )
        times.append(perf_counter() - start)
        brackets.append(calibrate.time_kernel())
        error = proc.stderr.decode(errors="replace")[-500:]
        run.record("import", [None if proc.returncode == 0 else error])
    scaled = [t * f for t, f in zip(times, calibrate.scale(brackets))]
    return scaled, times


def median(values):
    return statistics.median(values) if values else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    commands = workloads.commands(workload, seed)
    expected = recorded_digests().get(workload, {}).get(str(seed))
    run = Run(workload, commands, expected)
    OUT.mkdir(exist_ok=True)
    setup: list[float] = []
    raw_setup: list[float] = []
    calibrate.warm_up()
    if not trace:
        # One untimed import leaves the bytecode cache warm.
        measure_setup(run, 1)
    walls, inprocs, traced = [], [], []
    spans_out = str(OUT / f"spans-{workload}.jsonl") if trace else None
    deadline = perf_counter() + seconds
    while not run.failures:
        start = perf_counter()
        if not trace or not walls:
            walls.append(wall_pass(run))
        if (result := worker_pass(run, trace=False)) is not None:
            inprocs.append(result)
        if trace:
            result = worker_pass(run, trace=True, spans_out=spans_out)
            if result is not None:
                traced.append(result)
            spans_out = None
        else:
            scaled, raw = measure_setup(run, SETUP_PER_PASS)
            setup += scaled
            raw_setup += raw
        # Stop once less than half a pass is left: runs end, on average,
        # at the deadline.
        now = perf_counter()
        if now + (now - start) / 2 >= deadline or now > run.hard_deadline:
            break

    if trace:
        metrics = layer_metrics(traced, inprocs)
    else:
        values = {
            "wall_s": median([p["wall_s"] for p in walls]),
            "inproc_s": median([p["seconds"] for p in inprocs]),
            "first_output_s": median([p["first_output_s"] for p in walls]),
            "setup_s": median(setup),
            "peak_rss_mb": median([p["peak_rss_mb"] for p in walls]),
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
        "passes": {"cli": len(walls), "inproc": len(inprocs), "traced": len(traced)},
        "setup_samples": len(setup),
        # Medians as measured, before rescaling by calibrate.py, and the
        # median reference kernel time (calibrate.REF_S when unloaded).
        "unscaled": {
            "wall_s": median([p["raw_wall_s"] for p in walls]),
            "inproc_s": median([p["raw_seconds"] for p in inprocs]),
            "first_output_s": median([p["raw_first_output_s"] for p in walls]),
            "setup_s": median(raw_setup),
            "ref_s": median([p["ref_s"] for p in walls]),
        },
        "fail_ratio": len(run.failures) / run.attempted,
        "failures": run.failures[:10],
        "commands": [
            {
                "argv": [shorten(a) for a in argv],
                "cli_wall_s": median([p["per_command"][i] for p in walls]),
                "inproc_s": median([p["per_command"][i] for p in inprocs]),
            }
            for i, argv in enumerate(commands)
        ],
    }
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    return {"meta": meta, "result": result}


def layer_metrics(traced: list, inprocs: list) -> dict:
    if not traced:
        return {}
    metrics = {}
    for name in traced[0]["layers"]:
        value = median([p["layers"][name] for p in traced])
        if name.endswith(".self_s"):
            unit = "s"
        elif name.endswith(".calls"):
            unit = "count"
        else:
            unit = spans.COUNTERS[name][0]
        metrics[name] = {"value": value, "unit": unit}
    untraced = median([p["seconds"] for p in inprocs])
    metrics["trace.overhead_ratio"] = {
        "value": median([p["seconds"] for p in traced]) / untraced if untraced else 0.0,
        "unit": "ratio",
    }
    return metrics


def recorded_digests() -> dict:
    """``{workload: {seed: [sha256 per command]}}`` recorded at the commit
    that defined the benchmark; see ``record_digests.py``."""
    return json.loads(DIGESTS.read_text())


def src_lines() -> int:
    return sum(len(path.read_text().splitlines()) for path in sorted(SRC.rglob("*.py")))


def shorten(text: str, limit: int = 60) -> str:
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} chars)"


def summary(workload: str, outcome: dict) -> list[str]:
    result, meta = outcome["result"], outcome["meta"]
    rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
    rows.append(("fail_ratio", meta["fail_ratio"], "ratio"))
    return [
        f"{workload:<17} {name:<48} {value:>14.6g} {unit}"
        for name, value, unit in rows
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[*workloads.WORKLOADS, "all"]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "braidsurgery" / "cli.py").is_file():
        print(f"no braidsurgery sources under {SRC}", file=sys.stderr)
        return 2
    # A vforked child shares the driver's memory until exec, and Linux
    # folds the driver's high-water RSS into the child's ru_maxrss.  A
    # forked child starts from the driver's current RSS instead, which
    # stays small: stdout is hashed as it streams and parsed elsewhere.
    subprocess._USE_VFORK = False

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = [
        run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names
    ]
    table = [line for name, o in zip(names, outcomes) for line in summary(name, o)]
    if args.workload == "all":
        print("\n".join(table))
        return 0 if all(o["result"]["correct"] for o in outcomes) else 1
    outcome = outcomes[0]
    print("\n".join(table), file=sys.stderr)
    for failure in outcome["meta"]["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"meta": outcome["meta"]}))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
