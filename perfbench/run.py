#!/usr/bin/env python3
"""Host-time benchmark of the DSM simulator, end to end and by layer.

Run from the repository root::

    python3 perfbench/run.py --workload paper16 --seed 0 --seconds 30 \
        --trace 0

``--trace 0`` measures the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``).  Every timed call is timed with ``host.RefClock``,
which probes the host speed before, during and after it, and reported in
reference seconds, the host seconds scaled to the reference host speed,
since the speed a shared host gives the process drifts by a third within
minutes.  ``--trace 1`` measures the same untraced passes and
then attributes host time to the layers ``sim``, ``hardware``, ``dsm``,
``apps``, ``harness`` and ``stats`` (spans, a sampled profile, counters,
the per-sink overhead split and the harness cache operations).

Everything runs serially in this one process.  Every simulation is
checked: it must not raise, must pass its verify epilogue, must record
no audit violation, must repeat the same cycles and events in every
pass and, at the default seed and full size, must match
``expected.json``.  A failed check counts as a failed operation and
makes the exit code 1.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
README.md beside this file for every metric.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_PATH = HERE / "expected.json"
CACHE_ROOT = ROOT / ".perfbench_cache"

import host  # noqa: E402  (the benchmark's own modules, beside this file)
import layers  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# A run measures untraced passes until the next one would end past
# ``--seconds``, but never fewer than this many.
MIN_PASSES = 2
# Set-ups per run: at least SETUP_MIN, and more until SETUP_SECONDS
# have passed (at most SETUP_MAX); ``setup_s`` is their median.
SETUP_MIN = 15
SETUP_SECONDS = 5.0
SETUP_MAX = 60
# Harness operations timed per simulation in the traced pass.
FINGERPRINT_CALLS = 20
CACHE_ROUNDS = 5

# Sink configurations for the per-sink overhead split (observed
# workloads only): every sink off, then each alone.
SINK_SPLIT = (
    ("off", dict(trace=False, metrics=False, audit=False)),
    ("trace", dict(trace=True, metrics=False, audit=False)),
    ("metrics", dict(trace=False, metrics=True, audit=False)),
    ("audit", dict(trace=False, metrics=False, audit=True)),
)
SINK_SPLIT_REPEATS = 3
ALL_SINKS = dict(trace=True, metrics=True, audit=True)
NO_SINKS = dict(trace=False, metrics=False, audit=False)

# (name, unit) of every metric, in the order printed.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("sim.events", "count"), ("sim.host_us_per_event", "us"),
    ("sim.floor_multiple", "x"), ("sim.self_share", "share"),
    ("hardware.messages", "count"), ("hardware.bytes", "B"),
    ("hardware.transfer_calls", "count"), ("hardware.transfer_us", "us"),
    ("hardware.nic_send_calls", "count"), ("hardware.nic_send_us", "us"),
    ("hardware.ctrl_commands", "count"), ("hardware.ctrl_us", "us"),
    ("hardware.route_us", "us"), ("hardware.self_share", "share"),
    ("dsm.notices", "count"), ("dsm.is_valid_calls", "count"),
    ("dsm.is_valid_us", "us"), ("dsm.map_get_calls", "count"),
    ("dsm.map_lookups_per_notice", "ratio"),
    ("dsm.barrier_merge_us", "us"), ("dsm.handle_message_calls", "count"),
    ("dsm.handle_message_us", "us"), ("dsm.diff_create_calls", "count"),
    ("dsm.diff_create_us", "us"), ("dsm.diff_apply_calls", "count"),
    ("dsm.diff_apply_us", "us"), ("dsm.prefetch_useful_ratio", "ratio"),
    ("dsm.coherence_bytes_per_node", "B"), ("dsm.self_share", "share"),
    ("apps.input_s", "s"), ("apps.verify_s", "s"),
    ("apps.self_share", "share"),
    ("harness.fingerprint_us", "us"), ("harness.cache_put_us", "us"),
    ("harness.cache_get_us", "us"), ("harness.cache_hit_ratio", "ratio"),
    ("harness.self_share", "share"),
    ("stats.trace_events", "count"), ("stats.audit_events", "count"),
    ("stats.overhead.trace", "x"), ("stats.overhead.metrics", "x"),
    ("stats.overhead.audit", "x"), ("stats.report_s", "s"),
    ("stats.inspect_s", "s"), ("stats.self_share", "share"),
    ("bench.trace_overhead", "x"), ("bench.calibration_ms", "ms"),
    ("bench.host_speed", "x"),
)


class Api:
    """The public ``repro`` entry points the benchmark drives."""

    def __init__(self):
        experiments = importlib.import_module("repro.harness.experiments")
        runner = importlib.import_module("repro.harness.runner")
        parallel = importlib.import_module("repro.harness.parallel")
        self.APP_FACTORIES = experiments.APP_FACTORIES
        self.MachineParams = importlib.import_module(
            "repro.hardware.params").MachineParams
        self.ProtocolConfig = runner.ProtocolConfig
        self.run_app = runner.run_app
        self.RunReport = importlib.import_module(
            "repro.stats.report").RunReport
        self.build_inspect_doc = importlib.import_module(
            "repro.stats.coherence").build_inspect_doc
        self.SimRequest = parallel.SimRequest
        self.ResultCache = parallel.ResultCache

    def config(self, protocol: str):
        if protocol == "aurc":
            return self.ProtocolConfig.aurc()
        if protocol == "aurc+p":
            return self.ProtocolConfig.aurc(prefetch=True)
        return self.ProtocolConfig.treadmarks(protocol)

    def params(self, run):
        return self.MachineParams.preset("paper1996",
                                         n_processors=run.nprocs,
                                         topology="mesh")


def _purge_repro_modules() -> None:
    for name in [n for n in sys.modules
                 if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]


def _median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


class Bench:
    """One benchmark run: set-up, untraced passes, optional traced pass."""

    def __init__(self, workload, seed: int, quick: bool):
        self.workload = workload
        self.seed = seed
        self.quick = quick
        self.api = None
        self.attempted = 0
        self.failed = 0
        self.failures = []         # "label: reason" lines
        self.reference = {}        # label -> (cycles, events)
        self.passes = []           # untraced passes: list of record lists
        self.setup = []            # per set-up: (total_s, {label: input_s})
        self.spans = None
        # The expected table holds the default seed at full size only.
        self.expected = None
        if seed == DEFAULT_SEED and not quick:
            with open(EXPECTED_PATH) as fh:
                self.expected = json.load(fh).get(workload.name, {})

    # -- set-up --------------------------------------------------------------

    def run_setup(self) -> None:
        """Import the API and build every run's inputs, several times.

        Each repeat after the first re-imports the ``repro`` package
        (third-party and standard modules stay loaded), so the median
        measures the repository's own import and input-generation cost.
        Each repeat is timed with a ``RefClock`` and recorded in
        reference seconds.
        """
        begin = time.perf_counter()
        while len(self.setup) < SETUP_MIN or (
                len(self.setup) < SETUP_MAX
                and time.perf_counter() - begin < SETUP_SECONDS):
            gc.collect()
            _purge_repro_modules()
            with host.RefClock() as clock:
                start = clock.now()
                api = Api()
                inputs = {}
                for run in self.workload.runs:
                    t0 = clock.now()
                    api.APP_FACTORIES[run.app](
                        run.nprocs, **run.app_kwargs(self.seed, self.quick))
                    api.params(run)
                    inputs[run.label] = clock.now() - t0
                total = clock.now() - start
            factor = clock.scale
            self.setup.append((total * factor, {
                label: t * factor for label, t in inputs.items()}))
            self.api = api

    # -- one simulation ------------------------------------------------------

    def _fail(self, label: str, reasons) -> None:
        self.failed += 1
        self.failures.extend(f"{label}: {why}" for why in reasons)

    def execute(self, run, sinks: dict, report: bool,
                compare: str = "all", keep_doc: bool = False,
                clock: dict = None):
        """Run one simulation; returns its record, or None if it raised.

        The record's times are host seconds and its ``scale`` converts
        them to reference seconds.  ``clock`` holds ``RefClock``
        arguments (default: probes, sampled inside the call).
        """
        api = self.api
        app = api.APP_FACTORIES[run.app](
            run.nprocs, **run.app_kwargs(self.seed, self.quick))
        config = api.config(run.protocol)
        params = api.params(run)
        gc.collect()
        self.attempted += 1
        rec = {"label": run.label, "report_s": 0.0, "inspect_s": 0.0}
        try:
            with host.RefClock(**(clock or {})) as ref:
                start, host_start = ref.now(), time.perf_counter()
                result = api.run_app(app, config, params=params,
                                     verify=True, **sinks)
                rec["run_s"] = ref.now() - start
                net_share = rec["run_s"] / (time.perf_counter() - host_start)
                if report:
                    start = ref.now()
                    api.RunReport(result).to_json()
                    rec["report_s"] = ref.now() - start
                    start = ref.now()
                    api.build_inspect_doc(result, result.audit)
                    rec["inspect_s"] = ref.now() - start
        except Exception:  # a failed run is a failed operation, not a crash
            self._fail(run.label, ["raised\n" + traceback.format_exc()])
            return None
        rec["scale"] = ref.scale
        rec.update(self._describe(result))
        # run_app's own timed region also contains the clock's sampling
        # pauses; take out their share of the call.
        rec["timed_s"] *= net_share
        if keep_doc:
            rec["doc"] = result.to_json()
        reasons = self._check(rec, compare)
        if reasons:
            self._fail(run.label, reasons)
        return rec

    @staticmethod
    def _describe(result) -> dict:
        stats = result.protocol_stats
        prefetch = getattr(stats, "prefetch", None)
        state = result.coherence_state or {}
        return {
            "cycles": result.execution_cycles,
            "events": result.events_processed,
            "timed_s": result.wall_seconds,
            "verified": result.verified,
            "messages": result.network.messages,
            "bytes": result.network.bytes,
            "coherence_bytes_per_node":
                state.get("coherence_state_bytes", 0) / result.n_procs,
            "prefetch_useful": getattr(prefetch, "useful", 0),
            "prefetch_useless": getattr(prefetch, "useless", 0),
            "trace_events": (len(result.tracer.events)
                             if result.tracer is not None else 0),
            "audit_events": (result.audit.events
                             if result.audit is not None else 0),
            "audit_violations": (result.audit.violation_count
                                 if result.audit is not None else 0),
        }

    def _check(self, rec: dict, compare: str) -> list:
        """Reasons this simulation failed; empty when it passed.

        ``compare="all"`` checks (cycles, events) against the first pass
        and the expected table; ``"cycles"`` checks cycles only, for the
        sink-split runs whose sinks add sampler events.
        """
        label = rec["label"]
        reasons = []
        if not rec["verified"]:
            reasons.append("verification did not run")
        if rec["audit_violations"]:
            reasons.append(f"{rec['audit_violations']} audit violations")
        key = (rec["cycles"], rec["events"])
        if compare == "cycles":
            ref = self.reference.get(label)
            if ref is not None and ref[0] != rec["cycles"]:
                reasons.append(f"cycles {rec['cycles']} differ from the "
                               f"untraced {ref[0]}")
            return reasons
        ref = self.reference.setdefault(label, key)
        if ref != key:
            reasons.append(f"(cycles, events) {key} differ between "
                           f"repeats (first {ref})")
        if self.expected is not None:
            want = self.expected.get(label)
            if want is None:
                reasons.append("missing from expected.json")
            elif (want["cycles"], want["events"]) != key:
                reasons.append(f"(cycles, events) {key} do not match "
                               f"expected.json ({want['cycles']}, "
                               f"{want['events']})")
        return reasons

    def run_pass(self, sinks: dict, keep_doc: bool = False,
                 clock: dict = None):
        """Every simulation of the workload once; records of those that
        did not raise."""
        return [rec for rec in (
            self.execute(run, sinks, self.workload.observed,
                         keep_doc=keep_doc, clock=clock)
            for run in self.workload.runs) if rec is not None]

    @property
    def sinks(self) -> dict:
        return ALL_SINKS if self.workload.observed else NO_SINKS

    # -- untraced passes -----------------------------------------------------

    def measure(self, seconds: float) -> None:
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            self.passes.append(self.run_pass(self.sinks))
            took = time.perf_counter() - t0
            elapsed = time.perf_counter() - start
            if len(self.passes) >= MIN_PASSES and elapsed + took > seconds:
                break

    def per_run(self, field) -> dict:
        """label -> median of ``field`` over the untraced passes.

        ``field`` is a record key or a function of the record.
        """
        values = {}
        for records in self.passes:
            for rec in records:
                values.setdefault(rec["label"], []).append(
                    rec[field] if isinstance(field, str) else field(rec))
        return {label: _median(v) for label, v in values.items()}

    def first(self, field: str) -> float:
        """Sum of ``field`` over the first pass (deterministic counters)."""
        return sum(rec[field] for rec in self.passes[0]) \
            if self.passes else 0.0

    def end_to_end(self) -> dict:
        wall = self.per_run(_scaled_wall)
        return {
            "wall_s": sum(wall.values()),
            "setup_s": _median(total for total, _ in self.setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    # -- traced pass ---------------------------------------------------------

    def traced(self) -> dict:
        m = {}
        untraced_wall = self.end_to_end()["wall_s"]
        timed = sum(self.per_run(
            lambda r: r["timed_s"] * r["scale"]).values())
        events = self.first("events")
        m["sim.events"] = events
        m["sim.host_us_per_event"] = timed / events * 1e6 if events else 0.0
        # Both sides in reference microseconds: the kernel's cost per
        # event over the bare-heapq probe's, at the same host speed.
        m["sim.floor_multiple"] = \
            m["sim.host_us_per_event"] / host.REFERENCE_FLOOR_US
        m["hardware.messages"] = self.first("messages")
        m["hardware.bytes"] = self.first("bytes")
        useful = self.first("prefetch_useful")
        completed = useful + self.first("prefetch_useless")
        m["dsm.prefetch_useful_ratio"] = useful / completed \
            if completed else 0.0
        m["dsm.coherence_bytes_per_node"] = \
            self.first("coherence_bytes_per_node")
        m["apps.input_s"] = _median(sum(inputs.values())
                                    for _, inputs in self.setup)
        m["apps.verify_s"] = sum(self.per_run(
            lambda r: (r["run_s"] - r["timed_s"]) * r["scale"]).values())
        m["stats.trace_events"] = self.first("trace_events")
        m["stats.audit_events"] = self.first("audit_events")
        m["stats.report_s"] = sum(self.per_run(
            lambda r: r["report_s"] * r["scale"]).values())
        m["stats.inspect_s"] = sum(self.per_run(
            lambda r: r["inspect_s"] * r["scale"]).values())
        m["bench.host_speed"] = _median(
            rec["scale"] for records in self.passes for rec in records)

        # Spans around the layer calls.  Probes only before and after
        # each call: a sample inside would land in some span's time.
        with layers.Spans() as spans:
            records = self.run_pass(self.sinks,
                                    clock=dict(sample_every=None))
        self.spans = spans
        traced_wall = sum(_scaled_wall(r) for r in records)
        m["bench.trace_overhead"] = traced_wall / untraced_wall
        # Span totals in reference microseconds, at the pass's mean scale.
        raw_wall = sum(r["run_s"] + r["report_s"] + r["inspect_s"]
                       for r in records)
        us = 1e6 * (traced_wall / raw_wall if raw_wall else 1.0)
        for name in ("hardware.transfer", "hardware.nic_send",
                     "dsm.is_valid", "dsm.handle_message",
                     "dsm.diff_create", "dsm.diff_apply"):
            stat = spans.get(name)
            m[f"{name}_calls"] = stat.calls
            m[f"{name}_us"] = stat.total * us
        m["hardware.ctrl_commands"] = spans.get("hardware.ctrl").calls
        m["hardware.ctrl_us"] = spans.get("hardware.ctrl").total * us
        m["hardware.route_us"] = spans.get("hardware.route").total * us
        m["dsm.notices"] = spans.get("dsm.notices").calls
        m["dsm.map_get_calls"] = spans.get("dsm.map_get").calls
        m["dsm.map_lookups_per_notice"] = (
            m["dsm.map_get_calls"] / m["dsm.notices"]
            if m["dsm.notices"] else 0.0)
        m["dsm.barrier_merge_us"] = \
            spans.get("dsm.barrier_merge").total * us

        # Sampled profile: self-time share by package, over one pass and
        # the harness operations on its results.
        with layers.LayerSampler() as sampler:
            records = self.run_pass(self.sinks, keep_doc=True,
                                    clock=dict(probes=False))
            m.update(self._harness_ops(records))
        for layer in layers.LAYERS:
            m[f"{layer}.self_share"] = sampler.share(layer)

        m.update(self._sink_split())
        m["bench.calibration_ms"] = host.calibration_ms()
        return m

    def _harness_ops(self, records) -> dict:
        """Fingerprint, cache put and cache get for every run's result.

        Emulates a figure run followed by a warm rerun: each round looks
        every run up (a miss), stores it, then looks it up again (a hit).
        ``cache_get_us`` is the median hit, the warm-rerun cost.
        """
        api = self.api
        docs = {rec["label"]: rec["doc"] for rec in records}
        fingerprint_us, put_us, get_us = [], [], []
        hits = gets = 0
        root = CACHE_ROOT / f"{self.workload.name}-{id(self)}"
        cache = api.ResultCache(str(root))
        try:
            for round_ in range(CACHE_ROUNDS):
                for run in self.workload.runs:
                    if run.label not in docs:
                        continue
                    request = api.SimRequest(
                        app_name=run.app, nprocs=run.nprocs,
                        config=api.config(run.protocol),
                        params=api.params(run),
                        size_kwargs=tuple(sorted(run.app_kwargs(
                            self.seed, self.quick).items())),
                        verify=True)
                    for _ in range(FINGERPRINT_CALLS):
                        start = time.perf_counter()
                        key = request.fingerprint(salt=f"round{round_}")
                        fingerprint_us.append(
                            (time.perf_counter() - start) * 1e6)
                    for store in (True, False):
                        start = time.perf_counter()
                        doc = cache.get(key)
                        elapsed_us = (time.perf_counter() - start) * 1e6
                        gets += 1
                        if doc is not None:
                            hits += 1
                            get_us.append(elapsed_us)
                        if store:
                            start = time.perf_counter()
                            cache.put(key, docs[run.label])
                            put_us.append(
                                (time.perf_counter() - start) * 1e6)
        finally:
            shutil.rmtree(root, ignore_errors=True)
            try:
                CACHE_ROOT.rmdir()
            except OSError:
                pass
        return {
            "harness.fingerprint_us": _median(fingerprint_us),
            "harness.cache_put_us": _median(put_us),
            "harness.cache_get_us": _median(get_us),
            "harness.cache_hit_ratio": hits / gets if gets else 0.0,
        }

    def _sink_split(self) -> dict:
        """Wall time with each sink alone over wall time with none.

        The configurations interleave, ``SINK_SPLIT_REPEATS`` times, and
        each simulation's time is its median, so host drift hits every
        configuration alike.
        """
        if not self.workload.observed:
            return {f"stats.overhead.{sink}": 0.0
                    for sink, _ in SINK_SPLIT[1:]}
        times = {}
        for _ in range(SINK_SPLIT_REPEATS):
            for sink, flags in SINK_SPLIT:
                for run in self.workload.runs:
                    rec = self.execute(run, flags, report=False,
                                       compare="cycles")
                    if rec is not None:
                        times.setdefault((sink, run.label), []).append(
                            rec["run_s"] * rec["scale"])
        walls = {sink: sum(_median(times.get((sink, run.label), ()))
                           for run in self.workload.runs)
                 for sink, _ in SINK_SPLIT}
        off = walls["off"]
        return {f"stats.overhead.{sink}": walls[sink] / off if off else 0.0
                for sink, _ in SINK_SPLIT[1:]}


def _scaled_wall(rec) -> float:
    """A record's run, report and inspect time in reference seconds."""
    return (rec["run_s"] + rec["report_s"] + rec["inspect_s"]) * rec["scale"]


def _format_value(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "quick"),
                        default="full",
                        help="quick: reduced inputs for the self-check")
    parser.add_argument("--out", help="also write the full result "
                        "(host fingerprint, every run, spans) as JSON")
    parser.add_argument("--record-expected", action="store_true",
                        help="write this workload's cycles and events "
                        "into expected.json instead of checking them "
                        "(default seed, full size; for model fixes)")
    args = parser.parse_args(argv)
    if args.record_expected and (args.seed != DEFAULT_SEED
                                 or args.size != "full"):
        parser.error("--record-expected needs the default seed and "
                     "full size")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from a "
              f"repository checkout", file=sys.stderr)
        return 2
    # The "build": compile the sources once, so timed imports read
    # bytecode in every run, the first included.
    compileall.compile_dir(str(SRC), quiet=1)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    fingerprint = host.fingerprint()
    print(f"host: {json.dumps(fingerprint, sort_keys=True)}")
    workload = WORKLOADS[args.workload]
    bench = Bench(workload, args.seed, quick=args.size == "quick")
    if args.record_expected:
        bench.expected = None
    bench.run_setup()
    # A span target renamed or removed in the code would read 0 in the
    # traced pass and look like a gain: fail the run instead.
    for name in layers.missing_targets():
        bench.failures.append(f"span target {name} not found; update "
                              f"SPAN_TARGETS in perfbench/layers.py")
    bench.measure(args.seconds)
    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = bench.traced() if args.trace else bench.end_to_end()

    print(f"workload {workload.name} seed {args.seed} size {args.size}: "
          f"{len(bench.passes)} untraced passes")
    raw_s = bench.per_run(
        lambda r: r["run_s"] + r["report_s"] + r["inspect_s"])
    ref_s = bench.per_run(_scaled_wall)
    for label, (cycles, events) in bench.reference.items():
        print(f"  {label:22s} {cycles:16.2f} cycles {events:9d} events "
              f"{raw_s.get(label, math.nan):8.3f} s host "
              f"{ref_s.get(label, math.nan):8.3f} s reference")
    if bench.spans is not None:
        print("spans (traced pass):")
        for line in bench.spans.table():
            print(line)
    for name, unit in wanted:
        print(f"  {name:32s} {_format_value(metrics[name]):>14s} {unit}")
    for failure in bench.failures:
        print(f"FAILED {failure}", file=sys.stderr)

    out_metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in wanted}
    if args.out:
        doc = {"schema": "perfbench/1", "host": fingerprint,
               "workload": workload.name, "seed": args.seed,
               "size": args.size, "seconds": args.seconds,
               "trace": args.trace, "failures": bench.failures,
               "runs": [[{k: v for k, v in rec.items() if k != "doc"}
                         for rec in records] for records in bench.passes],
               "metrics": out_metrics}
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
    correct = not bench.failures
    if args.record_expected and correct:
        with open(EXPECTED_PATH) as fh:
            table = json.load(fh)
        table[workload.name] = {
            label: {"cycles": cycles, "events": events}
            for label, (cycles, events) in bench.reference.items()}
        with open(EXPECTED_PATH, "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed,
                      "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
