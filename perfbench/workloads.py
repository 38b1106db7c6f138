"""The benchmark's workloads: which simulations each one runs, and why.

Each workload is a fixed list of (application, protocol, node count,
size) runs.  Sizes live here, not in the repository's size registries,
so a change to ``repro.harness.experiments`` or ``repro.harness.scale``
cannot silently change what the benchmark measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["Run", "Workload", "WORKLOADS", "DEFAULT_SEED", "APP_SEEDS"]

# ``--seed`` is added to each application's own default seed, so the
# default seed reproduces the repository's default inputs (the ones the
# expected-results table and the golden fixtures were recorded with).
DEFAULT_SEED = 0

# The constructor default of every application that draws random
# inputs.  Ocean's grid is deterministic and takes no seed.
APP_SEEDS = {
    "TSP": 20107,
    "Water": 424242,
    "Radix": 777,
    "Barnes": 31337,
    "Em3d": 12345,
}

# Reduced sizes for the self-check (``--size quick``): same runs, small
# inputs, so every code path the full workload takes is exercised in
# seconds.
_QUICK = {
    "TSP": (("n_cities", 9), ("cutoff", 3)),
    "Water": (("n_molecules", 32), ("steps", 1)),
    "Radix": (("n_keys", 4096), ("radix_bits", 5), ("key_bits", 10)),
    "Barnes": (("n_bodies", 64), ("steps", 1)),
    "Em3d": (("n_nodes", 2048), ("degree", 4), ("iterations", 2)),
    "Ocean": (("grid", 34), ("iterations", 3)),
}

# Em3d's size at 64+ nodes in ``repro scale`` (SCALE_SIZES[64]).
_SCALE_EM3D = (("n_nodes", 2048), ("degree", 4), ("iterations", 2))
_SCALE_EM3D_QUICK = (("n_nodes", 512), ("degree", 2), ("iterations", 1))


@dataclass(frozen=True)
class Run:
    """One simulation: an application under one protocol on one machine.

    ``protocol`` is a TreadMarks overlap mode name (``Base``, ``I+D``,
    ...), ``aurc`` or ``aurc+p``.  ``sizes`` are constructor keyword
    arguments; empty means the application's full (default) size.
    """

    app: str
    protocol: str
    nprocs: int = 16
    sizes: Tuple[Tuple[str, object], ...] = ()
    quick_sizes: Tuple[Tuple[str, object], ...] = ()

    @property
    def label(self) -> str:
        return f"{self.app}/{self.protocol}/{self.nprocs}p"

    def app_kwargs(self, seed: int, quick: bool) -> dict:
        """Constructor keyword arguments: sizes plus the derived seed."""
        kwargs = dict(self.quick_sizes if quick else self.sizes)
        if self.app in APP_SEEDS:
            kwargs["seed"] = APP_SEEDS[self.app] + seed
        return kwargs


@dataclass(frozen=True)
class Workload:
    """A named list of runs (why each was chosen: README.md).

    ``observed`` turns on the tracer, the metrics registry and the
    coherence auditor for every run, and follows each run with a
    ``RunReport(...).to_json()`` and a ``build_inspect_doc``.
    """

    name: str
    runs: Tuple[Run, ...]
    observed: bool = False


def _paper(app: str, protocol: str) -> Run:
    return Run(app, protocol, 16, (), _QUICK[app])


def _scale(protocol: str, nprocs: int) -> Run:
    return Run("Em3d", protocol, nprocs, _SCALE_EM3D, _SCALE_EM3D_QUICK)


WORKLOADS = {w.name: w for w in (
    Workload(
        "paper16",
        (_paper("TSP", "I+D"), _paper("Water", "Base"),
         _paper("Radix", "I+P+D"), _paper("Barnes", "aurc"),
         _paper("Em3d", "I+P+D"), _paper("Ocean", "aurc+p"))),
    Workload(
        "scale-em3d",
        (_scale("I+D", 64), _scale("aurc", 128))),
    Workload(
        "observed16",
        (_paper("Water", "I+P+D"), _paper("Em3d", "I+P+D"),
         _paper("Ocean", "aurc")),
        observed=True),
)}
