"""Per-layer attribution: spans around layer calls and a sampling profiler.

Both instruments live in the benchmark, outside ``src/``: spans are
installed by swapping a class (or module) attribute for a timing wrapper
for the length of one traced pass and restored afterwards, so untraced
passes run the unmodified code.

* :class:`Spans` aggregates, per span name, the call count, the total
  host time and the self time (total minus the time of spans nested
  inside it).  Counting-only hooks cost less and are used where only the
  count matters.  Wrapper overhead lands in the enclosing span's self
  time; the traced pass's total slowdown is reported as
  ``bench.trace_overhead``.
* :class:`LayerSampler` samples the executing Python frame on every
  millisecond of process CPU time and groups samples by the ``repro``
  package the frame's code belongs to.  Time in C functions (``heapq``,
  numpy, builtins) is charged to the Python frame that called them.
"""

from __future__ import annotations

import functools
import importlib
import re
import signal
import time
from collections import Counter
from typing import Dict, List

__all__ = ["LAYERS", "SPAN_TARGETS", "Spans", "LayerSampler", "layer_of",
           "missing_targets"]

LAYERS = ("sim", "hardware", "dsm", "apps", "harness", "stats")

# (span name, module, class or None for a module function, attribute,
# kind).  ``call`` times a plain call, ``gen`` times every step of the
# generator the call returns, ``count`` only counts calls.  Several
# targets may feed one span name.
SPAN_TARGETS = (
    ("hardware.transfer", "repro.hardware.network", "MeshNetwork",
     "transfer_k", "call"),
    ("hardware.route", "repro.hardware.network", "MeshNetwork",
     "route", "call"),
    ("hardware.nic_send", "repro.hardware.nic", "NetworkInterface",
     "send", "gen"),
    ("hardware.ctrl", "repro.hardware.controller", "ProtocolController",
     "submit", "call"),
    ("dsm.is_valid", "repro.dsm.page", "TmPage", "is_valid", "call"),
    ("dsm.is_valid", "repro.dsm.aurc", "AurcPage", "is_valid", "call"),
    ("dsm.map_get", "repro.dsm.compact", "NodeIntMap", "get", "count"),
    ("dsm.notices", "repro.dsm.page", "TmPage", "record_notice", "count"),
    ("dsm.notices", "repro.dsm.aurc", "AurcPage", "record_notice",
     "count"),
    ("dsm.barrier_merge", "repro.dsm.treadmarks", "TreadMarks",
     "_merge_coherence_info", "gen"),
    ("dsm.barrier_merge", "repro.dsm.aurc", "Aurc",
     "_merge_coherence_info", "gen"),
    ("dsm.handle_message", "repro.dsm.treadmarks", "TreadMarks",
     "handle_message", "call"),
    ("dsm.handle_message", "repro.dsm.aurc", "Aurc", "handle_message",
     "call"),
    ("dsm.diff_create", "repro.dsm.page", None, "diff_from_mask", "call"),
    ("dsm.diff_apply", "repro.dsm.page", "TmPage", "apply_incoming",
     "call"),
)


def _resolve(module_name: str, cls_name, attr: str):
    """(owner, original attribute) of a span target, or None if absent."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    owner = module if cls_name is None else getattr(module, cls_name, None)
    original = None if owner is None else vars(owner).get(attr)
    return None if original is None else (owner, original)


def missing_targets() -> List[str]:
    """Every entry of :data:`SPAN_TARGETS` that the code no longer has."""
    return [f"{module_name}.{cls_name + '.' if cls_name else ''}{attr}"
            for _, module_name, cls_name, attr, _ in SPAN_TARGETS
            if _resolve(module_name, cls_name, attr) is None]


class _Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Spans:
    """Aggregated spans around the layer calls in :data:`SPAN_TARGETS`.

    Use as a context manager: entering installs every wrapper, leaving
    restores the originals.  A target missing from the code is skipped
    (:func:`missing_targets` names it, and ``run.py`` fails the run).
    """

    def __init__(self):
        self.stats: Dict[str, _Stat] = {}
        self._stack: List[float] = []
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _leave(self, stat: _Stat, start: float) -> None:
        elapsed = time.perf_counter() - start
        child = self._stack.pop()
        stat.calls += 1
        stat.total += elapsed
        stat.self_time += elapsed - child
        if self._stack:
            self._stack[-1] += elapsed

    def _timed(self, fn, stat: _Stat):
        stack = self._stack
        leave = self._leave
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(stat, start)
        return wrapper

    def _timed_gen(self, fn, stat: _Stat):
        stack = self._stack
        clock = time.perf_counter

        def steps(gen):
            # Each resumption of the wrapped generator is one timed step;
            # values, exceptions and the return value pass through.
            value, exc = None, None
            while True:
                stack.append(0.0)
                start = clock()
                try:
                    item = gen.send(value) if exc is None \
                        else gen.throw(exc)
                except StopIteration as stop:
                    return stop.value
                finally:
                    elapsed = clock() - start
                    child = stack.pop()
                    stat.total += elapsed
                    stat.self_time += elapsed - child
                    if stack:
                        stack[-1] += elapsed
                try:
                    value, exc = (yield item), None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as err:  # thrown in: forward it
                    value, exc = None, err

        def wrapper(*args, **kwargs):
            stat.calls += 1
            return steps(fn(*args, **kwargs))
        return wrapper

    @staticmethod
    def _counted(fn, stat: _Stat):
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- install / restore -------------------------------------------------

    def __enter__(self) -> "Spans":
        makers = {"call": self._timed, "gen": self._timed_gen,
                  "count": self._counted}
        for name, module_name, cls_name, attr, kind in SPAN_TARGETS:
            stat = self.stats.setdefault(name, _Stat())
            found = _resolve(module_name, cls_name, attr)
            if found is None:
                continue
            owner, original = found
            wrapper = functools.wraps(original)(makers[kind](original, stat))
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def get(self, name: str) -> _Stat:
        return self.stats.get(name) or _Stat()

    def table(self) -> List[str]:
        lines = [f"  {'span':22s} {'calls':>10s} {'total ms':>10s} "
                 f"{'self ms':>10s}"]
        for name, stat in sorted(self.stats.items()):
            lines.append(f"  {name:22s} {stat.calls:10d} "
                         f"{stat.total * 1e3:10.1f} "
                         f"{stat.self_time * 1e3:10.1f}")
        return lines


_LAYER_RE = re.compile(r"[\\/]repro[\\/](" + "|".join(LAYERS) + r")[\\/]")


def layer_of(filename: str) -> str:
    """The ``repro`` package a source file belongs to, else ``other``."""
    match = _LAYER_RE.search(filename)
    return match.group(1) if match else "other"


class LayerSampler:
    """Sampling profiler: self-time samples grouped by layer.

    Samples on ``SIGPROF`` every millisecond of process CPU time, so it
    costs a few microseconds per millisecond and does not stretch the
    calls it measures the way a tracing profiler does.
    """

    INTERVAL_S = 0.001

    def __init__(self):
        self.by_file: Counter = Counter()
        self._previous = None

    def _on_sample(self, _signum, frame) -> None:
        if frame is not None:
            self.by_file[frame.f_code.co_filename] += 1

    def __enter__(self) -> "LayerSampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S,
                         self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def share(self, layer: str) -> float:
        """Fraction of all samples whose frame was in ``layer``."""
        total = sum(self.by_file.values())
        hits = sum(n for filename, n in self.by_file.items()
                   if layer_of(filename) == layer)
        return hits / total if total else 0.0

