#!/usr/bin/env python3
"""Compare benchmark result files written by ``run.py --out``.

    python3 perfbench/compare.py --base a1.json a2.json ... \
        --new b1.json b2.json ...

Prints, per metric, each side's median and quartiles and the ratio of
the medians.  Wall-clock results compare only within one host: when the
files do not all share one host fingerprint id (CPU model, core count,
Python build), or mix workloads, sizes, trace modes or run lengths
(``--seconds``, which sets the passes behind each median), the
comparison is reported as not comparable and the exit code is 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def _load(paths):
    docs = []
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("schema") != "perfbench/1":
            raise SystemExit(f"{path}: not a perfbench/1 result")
        docs.append(doc)
    return docs


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = _load(args.base), _load(args.new)

    problems = []
    for key in ("workload", "size", "trace", "seconds"):
        seen = {doc[key] for doc in base + new}
        if len(seen) > 1:
            problems.append(f"{key} differs: {sorted(map(str, seen))}")
    hosts = {doc["host"]["id"]: doc["host"] for doc in base + new}
    if len(hosts) > 1:
        problems.append("host fingerprints differ: " + "; ".join(
            f"{h['id']} = {h['cpu_model']}, {h['cores']} cores, "
            f"{h['python']}" for h in hosts.values()))
    if problems:
        for problem in problems:
            print(f"not comparable: {problem}")
        return 2

    calib = [statistics.median(d["host"]["calibration_ms"] for d in side)
             for side in (base, new)]
    print(f"host {next(iter(hosts))}; calibration loop {calib[0]:.1f} ms "
          f"(base) vs {calib[1]:.1f} ms (new)")
    print(f"{'metric':32s} {'base q1/med/q3':>32s} {'new q1/med/q3':>32s} "
          f"{'new/base':>9s}")
    for name, meta in base[0]["metrics"].items():
        sides = []
        for docs in (base, new):
            values = [d["metrics"][name]["value"] for d in docs
                      if name in d["metrics"]]
            sides.append(_quartiles(values) if values else None)
        if sides[1] is None:
            continue
        ratio = sides[1][1] / sides[0][1] if sides[0][1] else float("nan")
        cells = ["/".join(f"{v:.4g}" for v in side) for side in sides]
        print(f"{name:32s} {cells[0]:>32s} {cells[1]:>32s} {ratio:9.3f} "
              f"{meta['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
