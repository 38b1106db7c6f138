#!/usr/bin/env python3
"""Reduced-size self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload at reduced input sizes (``--size quick``), once
untraced and once traced, and checks that each run passes its
correctness checks and that the metric names and units it prints are
exactly the ``end_to_end`` and ``per_layer`` entries of BENCHMARK.json,
and its workloads exactly the ``workloads`` entries.  Takes about a
minute and a half; exits 1 on any mismatch.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import run

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def main() -> int:
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    problems = []
    declared = [w["name"] for w in spec["workloads"]]
    if sorted(declared) != sorted(run.WORKLOADS):
        problems.append(f"workloads: BENCHMARK.json has {declared}, "
                        f"run.py has {sorted(run.WORKLOADS)}")
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in declared:
        for trace in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", workload, "--seed", "0",
                                 "--seconds", "0", "--trace", str(trace),
                                 "--size", "quick"])
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            where = f"{workload} --trace {trace}"
            if code != 0 or not result["correct"]:
                problems.append(f"{where}: exit {code}, "
                                f"{result['failed']} failed")
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(got))
                extra = sorted(set(got) - set(wanted[trace]))
                units = sorted(n for n in set(got) & set(wanted[trace])
                               if got[n] != wanted[trace][n])
                problems.append(f"{where}: missing {missing}, extra "
                                f"{extra}, unit mismatch {units}")
            print(f"{where}: {len(got)} metrics, exit {code}")
    for problem in problems:
        print(f"MISMATCH {problem}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
