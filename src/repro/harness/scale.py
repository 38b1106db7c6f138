"""Scale-out sweeps: the paper's sensitivity questions at 64-1024 nodes.

The paper evaluates I+D/I+P+D vs AURC on a 16-node 4x4 mesh; the
ROADMAP's open question is whether that ranking survives two orders of
magnitude more nodes and modern-fabric latency/bandwidth ratios.  This
module drives Em3d -- the application figures 13-16 sweep -- across
node counts, topologies, and machine presets, through the PR 3 parallel
runner and result cache, and shapes each run into a ``repro-bench/1``
archive row carrying the scale-specific metrics: events/s, peak RSS,
and the coherence-metadata footprint (compact bytes vs what the pre-PR
dict representation would have cost).

Problem sizes shrink as the machine grows (``SCALE_SIZES``): at 256+
nodes the simulated work per node is dominated by the O(N) barrier and
write-notice traffic itself, which is exactly the protocol behaviour
under study -- a full-size working set would only multiply wall time
without changing the question.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness.bench import config_for, events_per_second
from repro.harness.parallel import SimRequest, SweepRunner
from repro.hardware.params import MachineParams
from repro.stats.breakdown import Category

__all__ = ["SCALE_NODE_COUNTS", "SCALE_PROTOCOLS", "SCALE_SIZES",
           "REGRESSION_SCALE_CELLS", "scale_sizes", "scale_request",
           "scale_matrix", "regression_scale_rows", "audit_scale_run"]

# Default sweep points: 64 and 256 every time; 1024 is opt-in
# (repro scale --nodes 1024), and CI's scale-smoke job runs its AURC
# cell.
SCALE_NODE_COUNTS: Tuple[int, ...] = (64, 256)

# The figure 13-16 protagonists plus the full overlap pipeline.
SCALE_PROTOCOLS: Tuple[str, ...] = ("I+D", "I+P+D", "aurc")

# Per-node-count problem sizes.  Keys absent here fall back to the
# nearest smaller configured count (so 128 runs the 64-node size).
SCALE_SIZES: Dict[str, Dict[int, dict]] = {
    "Em3d": {
        64: dict(n_nodes=2048, degree=4, iterations=2),
        256: dict(n_nodes=1024, degree=2, iterations=1),
        1024: dict(n_nodes=2048, degree=2, iterations=1),
    },
}


def scale_sizes(app_name: str, nprocs: int) -> dict:
    """Size kwargs for ``app_name`` at ``nprocs`` (copy)."""
    table = SCALE_SIZES[app_name]
    candidates = [n for n in table if n <= nprocs]
    anchor = max(candidates) if candidates else min(table)
    return dict(table[anchor])


def scale_request(app_name: str, nprocs: int, protocol: str,
                  topology: str = "mesh", preset: str = "paper1996",
                  verify: bool = True) -> SimRequest:
    """One cacheable scale-run request (explicit params, scale sizes)."""
    params = MachineParams.preset(preset, n_processors=nprocs,
                                  topology=topology)
    return SimRequest(app_name=app_name, nprocs=nprocs,
                      config=config_for(protocol), params=params,
                      size_kwargs=tuple(sorted(
                          scale_sizes(app_name, nprocs).items())),
                      verify=verify)


def _row(doc: dict, app_name: str, nprocs: int, topology: str,
         preset: str, cached: bool) -> dict:
    """Shape one result document into a ``repro-bench/1`` run row."""
    breakdown = doc.get("breakdown", {})
    total = sum(breakdown.get(c.value, 0.0) for c in Category) or 1.0
    fractions = {c.value: breakdown.get(c.value, 0.0) / total
                 for c in Category}
    events = int(doc.get("events_processed", 0))
    wall = float(doc.get("wall_seconds", 0.0))
    row = {
        "app": app_name,
        "protocol": doc["protocol"],
        "n_procs": nprocs,
        "quick": True,
        "scale": True,
        "topology": topology,
        "preset": preset,
        "execution_cycles": doc["execution_cycles"],
        "wall_seconds": wall,
        "events_processed": events,
        "events_per_second": events_per_second(events, wall),
        "cached": cached,
        "fractions": fractions,
        "diff_fraction": float(doc.get("diff_fraction", 0.0)),
        "verified": bool(doc.get("verified", False)),
    }
    if "peak_rss_kb" in doc:
        row["peak_rss_kb"] = doc["peak_rss_kb"]
    state = doc.get("coherence_state")
    if state:
        row["coherence_state_bytes"] = state["coherence_state_bytes"]
        row["coherence_state_dict_bytes"] = \
            state["coherence_state_dict_bytes"]
        row["coherence_pages"] = state["coherence_pages"]
        row["coherence_state_bytes_per_node"] = \
            state["coherence_state_bytes"] // max(1, nprocs)
    return row


def _run_cells(cells: Sequence[Tuple[int, str, str, str]],
               app_name: str, runner: Optional[SweepRunner],
               echo) -> List[dict]:
    """Run ``(nprocs, protocol, topology, preset)`` cells -> rows."""
    runner = runner if runner is not None else SweepRunner(jobs=1)
    requests = [scale_request(app_name, n, proto, topology=topo,
                              preset=preset)
                for n, proto, topo, preset in cells]
    results = runner.run_batch(requests)
    rows = []
    for (n, _proto, topo, preset), result in zip(cells, results):
        row = _row(result.doc, app_name, n, topo, preset, result.cached)
        rows.append(row)
        if echo is not None:
            origin = "cached" if result.cached else "simulated"
            state = row.get("coherence_state_bytes_per_node", 0)
            echo(f"  {app_name:8s} {row['protocol']:12s} {n:5d}p "
                 f"{topo:9s} {preset:9s} "
                 f"{row['execution_cycles'] / 1e6:8.2f} Mcycles  "
                 f"{row['wall_seconds']:6.2f} s  "
                 f"{row['events_per_second']:9.0f} ev/s  "
                 f"{state:7d} B/node  [{origin}]")
    return rows


def scale_matrix(node_counts: Sequence[int] = SCALE_NODE_COUNTS,
                 protocols: Sequence[str] = SCALE_PROTOCOLS,
                 topologies: Sequence[str] = ("mesh",),
                 presets: Sequence[str] = ("paper1996",),
                 app_name: str = "Em3d",
                 runner: Optional[SweepRunner] = None,
                 echo=print) -> List[dict]:
    """Run the full cross product; returns archive ``runs`` rows.

    Requests go through the sweep runner (memo, disk cache, optional
    process pool), so re-running an unchanged sweep is near-instant.
    """
    cells = [(n, proto, topo, preset)
             for topo in topologies for preset in presets
             for n in node_counts for proto in protocols]
    return _run_cells(cells, app_name, runner, echo)


# The scale rows recorded in the committed BENCH archive (and therefore
# regenerated by CI's regression gate on every push).  Chosen to cover
# every axis -- node count, topology, machine preset, protocol family --
# while staying affordable: the 256-node cells dominate at ~1 min
# total.  The 1024-node AURC cell is gated by CI's scale-smoke job
# instead of being archived here.
REGRESSION_SCALE_CELLS: Tuple[Tuple[int, str, str, str], ...] = (
    (64, "I+D", "mesh", "paper1996"),
    (64, "I+P+D", "mesh", "paper1996"),
    (64, "aurc", "mesh", "paper1996"),
    (64, "I+D", "mesh", "rdma"),
    (64, "aurc", "mesh", "rdma"),
    (64, "I+D", "torus", "paper1996"),
    (256, "I+P+D", "mesh", "paper1996"),
    (256, "aurc", "mesh", "paper1996"),
)


def regression_scale_rows(runner: Optional[SweepRunner] = None,
                          echo=print) -> List[dict]:
    """The committed-archive scale rows (:data:`REGRESSION_SCALE_CELLS`)."""
    return _run_cells(REGRESSION_SCALE_CELLS, "Em3d", runner, echo)


def audit_scale_run(nprocs: int, protocol: str = "I+P+D",
                    topology: str = "mesh", preset: str = "paper1996",
                    app_name: str = "Em3d"):
    """One scale run under the coherence-audit sanitizer.

    Audited runs never touch the result cache (the auditor is not part
    of the fingerprint); returns the :class:`RunResult` -- callers check
    ``result.audit.violation_count``.
    """
    from repro.harness.experiments import APP_FACTORIES
    from repro.harness.runner import run_app

    params = MachineParams.preset(preset, n_processors=nprocs,
                                  topology=topology)
    app = APP_FACTORIES[app_name](nprocs, **scale_sizes(app_name, nprocs))
    return run_app(app, config_for(protocol), params=params,
                   verify=True, audit=True)
