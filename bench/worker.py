"""One in-process pass: run a command list through ``cli.main``.

Reads ``{"commands": [...], "trace": bool, "spans_out": path|null}`` as
JSON on stdin, runs each argv through ``braidsurgery.cli.main`` with
stdout sent to a counting and hashing sink, and writes one JSON object
to stdout: per-command exit code, seconds, stdout sha256 and byte count,
the ``calibrate`` brackets around the commands (one more than there are
commands), and with ``trace`` the per-layer metrics of
``spans.Recorder``.  The import of ``braidsurgery`` happens before any
timing starts.
"""

from __future__ import annotations

import hashlib
import json
import sys
import traceback
from time import perf_counter

import calibrate


class Sink:
    """Text stream that keeps only the sha256 and length of what it gets."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.bytes = 0

    def write(self, text: str) -> int:
        data = text.encode()
        self.digest.update(data)
        self.bytes += len(data)
        return len(text)

    def flush(self) -> None:
        pass


def run_one(cli, argv):
    sink = Sink()
    stdout = sys.stdout
    sys.stdout = sink
    start = perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = "exception: " + traceback.format_exc(limit=3)
    finally:
        seconds = perf_counter() - start
        sys.stdout = stdout
    return {
        "code": code,
        "seconds": seconds,
        "sha256": sink.digest.hexdigest(),
        "bytes": sink.bytes,
    }


def main() -> int:
    request = json.load(sys.stdin)
    commands = request["commands"]
    from braidsurgery import cli

    recorder = None
    if request["trace"]:
        import spans

        recorder = spans.Recorder()
        recorder.install()
    results = []
    calibrate.warm_up()
    brackets = [calibrate.time_kernel()]
    try:
        for index, argv in enumerate(commands):
            if recorder is not None:
                recorder.command = index
            # Look main up on every call: tracing rebinds it.
            results.append(run_one(cli, argv))
            brackets.append(calibrate.time_kernel())
    finally:
        if recorder is not None:
            recorder.uninstall()
    out = {"commands": results, "brackets": brackets}
    if recorder is not None:
        recorder.count("cli.stdout_bytes", sum(r["bytes"] for r in results))
        out["layers"] = recorder.layer_metrics()
        if request["spans_out"]:
            recorder.write_spans(request["spans_out"], commands)
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
