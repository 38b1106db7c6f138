"""Kernel and protocol-op microbenchmarks.

Times the hot paths of :mod:`repro.sim` in isolation -- the bare
timeout chain, pooled-event recycling, resource acquire/release (fast
path vs. contended), the interruptible hold loop, and one end-to-end
quick application run -- and reports events/sec for each.  The
``notice_merge`` and ``validity_check`` rows time the per-page protocol
ops of a write-notice merge (``TmPage.record_notice`` and
``TmPage.is_valid``) at 16, 64 and 256 writers, one op per event.
Their us/op column shows the writer-count curve: validity checks are
flat, and a notice merge makes a fixed number of map lookups, each a
C-level scan of the page's writer column.  CI runs
``--quick`` as a smoke check that the kernel has not regressed by an
order of magnitude; the numbers are also the denominators quoted in
DESIGN.md's "Kernel performance" section.

Usage::

    PYTHONPATH=src python benchmarks/microbench.py
    PYTHONPATH=src python benchmarks/microbench.py --quick --json out.json
"""

from __future__ import annotations

import argparse
import json
import time
from functools import partial

from repro.dsm.page import TmPage
from repro.hardware.node import ComputeProcessor
from repro.hardware.params import MachineParams
from repro.harness.bench import events_per_second
from repro.sim import Resource, Simulator
from repro.stats.breakdown import Category

__all__ = ["BENCHES", "main"]


def _timed(sim: Simulator):
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    return sim.events_processed, wall


def bench_timeout_chain(scale: int):
    """Serial pooled-timeout chain: the minimal schedule/pop/resume loop."""
    sim = Simulator()

    def chain(n):
        for _ in range(n):
            yield sim.pooled_timeout(1)

    sim.process(chain(10_000 * scale))
    return _timed(sim)


def bench_parallel_timeouts(scale: int):
    """16 interleaved timeout chains: a realistically deep heap."""
    sim = Simulator()

    def chain(n, step):
        for _ in range(n):
            yield sim.pooled_timeout(step)

    for i in range(16):
        sim.process(chain(1_000 * scale, 1 + i % 7))
    return _timed(sim)


def bench_resource_uncontended(scale: int):
    """Single user acquiring an idle resource: the try_acquire fast path."""
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker(n):
        for _ in range(n):
            req = yield from res.acquire()
            yield sim.pooled_timeout(5)
            res.release(req)

    sim.process(worker(5_000 * scale))
    return _timed(sim)


def bench_resource_contended(scale: int):
    """Four users fighting over one slot: the request/grant slow path."""
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker(n):
        for _ in range(n):
            req = yield from res.acquire()
            yield sim.pooled_timeout(5)
            res.release(req)

    for _ in range(4):
        sim.process(worker(1_500 * scale))
    return _timed(sim)


def bench_hold_loop(scale: int):
    """Interruptible holds racing periodic service posts (the node model)."""
    sim = Simulator()
    params = MachineParams(n_processors=4)
    cpu = ComputeProcessor(sim, params, node_id=0)

    def body(n):
        for _ in range(n):
            yield from cpu.hold(100, Category.BUSY)

    def poster(n):
        for _ in range(n):
            yield sim.pooled_timeout(350)
            cpu.post_service("svc", lambda: iter(()))

    sim.process(body(2_000 * scale))
    sim.process(poster(500 * scale))
    return _timed(sim)


def bench_app_run(scale: int):
    """One end-to-end quick Em3d/I+P+D run (verification excluded)."""
    from repro.harness.experiments import scaled_app
    from repro.harness.runner import ProtocolConfig, run_app

    config = ProtocolConfig.treadmarks("I+P+D")
    run_app(scaled_app("Em3d", 4, quick=True), config, verify=False)  # warm
    events = 0
    wall = 0.0
    for _ in range(max(1, scale)):
        app = scaled_app("Em3d", 4, quick=True)
        start = time.perf_counter()
        result = run_app(app, config, verify=False)
        wall += time.perf_counter() - start
        events += result.events_processed
    return events, wall


def _noticed_page(writers: int) -> TmPage:
    """A framed page that has merged one notice from every writer."""
    page = TmPage(page=0, words=8)
    page.ensure_frame()
    for writer in range(writers):
        page.record_notice(writer, 1)
    return page


def bench_notice_merge(writers: int, scale: int):
    """Merge rounds of one notice per writer, each round then applied."""
    page = _noticed_page(writers)
    rounds = max(1, 20_000 * scale // writers)
    wall = 0.0
    for interval in range(2, rounds + 2):
        for writer in range(writers):
            page.mark_applied(writer, interval - 1)
        start = time.perf_counter()
        for writer in range(writers):
            page.record_notice(writer, interval)
        wall += time.perf_counter() - start
    return rounds * writers, wall


def bench_validity_check(writers: int, scale: int):
    """is_valid on a page with one of ``writers`` notices still pending."""
    page = _noticed_page(writers)
    for writer in range(1, writers):
        page.mark_applied(writer, 1)
    checks = 20_000 * scale
    start = time.perf_counter()
    for _ in range(checks):
        page.is_valid()
    return checks, time.perf_counter() - start


BENCHES = (
    ("timeout-chain", bench_timeout_chain),
    ("parallel-timeouts", bench_parallel_timeouts),
    ("resource-fastpath", bench_resource_uncontended),
    ("resource-contended", bench_resource_contended),
    ("hold-loop", bench_hold_loop),
    ("app-run", bench_app_run),
) + tuple(
    (f"{name}-{writers}", partial(fn, writers))
    for name, fn in (("notice_merge", bench_notice_merge),
                     ("validity_check", bench_validity_check))
    for writers in (16, 64, 256))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="simulation-kernel and protocol-op microbenchmarks")
    parser.add_argument("--quick", action="store_true",
                        help="smaller iteration counts (CI smoke)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="best-of-N repetitions (default: 3)")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="also write the results as JSON")
    args = parser.parse_args(argv)

    scale = 1 if args.quick else 5
    repeat = max(1, args.repeat)
    rows = []
    print(f"{'benchmark':<20} {'events':>9} {'seconds':>8} "
          f"{'events/sec':>12} {'us/op':>8}")
    for name, fn in BENCHES:
        best_wall = None
        events = 0
        for _ in range(repeat):
            events, wall = fn(scale)
            best_wall = wall if best_wall is None else min(best_wall, wall)
        rate = events_per_second(events, best_wall)
        us_per_op = 1e6 * best_wall / events if events else 0.0
        rows.append({"name": name, "events": events,
                     "wall_seconds": best_wall,
                     "events_per_second": rate,
                     "us_per_op": us_per_op})
        print(f"{name:<20} {events:>9d} {best_wall:>8.4f} {rate:>12,.0f} "
              f"{us_per_op:>8.3f}")
    if args.json is not None:
        doc = {"schema": "repro-microbench/1", "quick": args.quick,
               "repeat": repeat, "benches": rows}
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"results -> {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
