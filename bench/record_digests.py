#!/usr/bin/env python3
"""Record the stdout sha256 of every command of the shipped seeds.

Run from the root of a checkout, at the commit whose output is the
reference::

    python3 bench/record_digests.py

and commit the ``bench/digests.json`` it writes.  ``run.py`` compares
the first pass of a run with these digests whenever its seed is listed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads
from worker import run_one

BENCH = Path(__file__).resolve().parent
SEEDS = range(64)


def main() -> int:
    sys.path.insert(0, str(BENCH.parent / "src"))
    from braidsurgery import cli

    table: dict[str, dict[str, list[str]]] = {}
    for workload in workloads.WORKLOADS:
        table[workload] = {}
        for seed in SEEDS:
            digests = []
            for argv in workloads.commands(workload, seed):
                result = run_one(cli, argv)
                if result["code"] != 0:
                    print(f"{workload} seed {seed}: {argv[0]} exited {result['code']}")
                    return 1
                digests.append(result["sha256"])
            table[workload][str(seed)] = digests
    text = json.dumps(table, indent=1, sort_keys=True)
    (BENCH / "digests.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
