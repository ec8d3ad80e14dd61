"""The benchmark's three workloads.

Each workload builds its inputs from the seed in :meth:`setup` (timed as
``setup_s``) and then exposes a fixed list of operations; the harness
runs that list in a closed loop, one operation after the previous one
completes.  Every operation checks its simulated outputs and returns a
digest of them plus exact work counts.

- ``paper-cell``: single flit-level ``Simulator`` runs on RRG(36,24,16)
  with rEDKSP(8) tables loaded from an ``ArenaStore``.
- ``sat-grid``: one batched ``run_saturation_grid`` with the metrics,
  flow-stats and link-state recorders on, then their snapshots saved.
- ``stencil``: Table V/VI stencil cells on the flow-level simulator plus
  the Eq. 1 model over the same host pairs, with cold path caches.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

import numpy as np

from repro import ArenaStore, Jellyfish, PathCache
from repro.appsim import build_workload, run_flows
from repro.model import model_throughput
from repro.netsim import SimConfig, Simulator, UniformTraffic, run_saturation_grid
from repro.obs import flowstats, linkstate, metrics
from repro.topology import topology_to_dict
from repro.traffic import (
    STENCILS,
    apply_mapping,
    linear_mapping,
    random_mapping,
    random_permutation,
    stencil_messages,
)

__all__ = [
    "CheckFailed",
    "OpResult",
    "PaperCell",
    "SatGrid",
    "Stencil",
    "WORKLOADS",
    "make_workload",
]


class CheckFailed(Exception):
    """A simulated output broke an invariant the benchmark checks."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def digest(obj) -> str:
    """Short content hash of a JSON-able object (floats kept exact)."""
    text = json.dumps(obj, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def array_digest(arr) -> str:
    a = np.ascontiguousarray(arr)
    return hashlib.sha256(str(a.dtype).encode() + a.tobytes()).hexdigest()[:16]


def _seeds(seed: int, n: int) -> List[int]:
    return [int(x) for x in np.random.default_rng(seed).integers(2**31, size=n)]


#: Every workload runs on one fixed topology instance per shape: the
#: network is the system under test, and a different random graph per
#: seed would change the work per operation by more than the metric
#: bounds.  The seed drives traffic, path tie-breaking and run streams.
TOPOLOGY_SEED = 1


@dataclass
class OpResult:
    """What one operation produced.

    ``outputs`` are the simulated results the digest covers; ``sim_s``
    is host time inside the flit simulator's timed call, ``sim_cycles``
    the router cycles it simulated (summed over lanes), ``flits`` the
    flits it delivered; all three are 0 off netsim.
    """

    outputs: dict
    counts: Dict[str, int]
    sim_s: float = 0.0
    sim_cycles: int = 0
    flits: int = 0

    @property
    def digest(self) -> str:
        return digest(self.outputs)


@dataclass
class Setup:
    """A workload's generated inputs plus set-up work counts.

    ``inputs`` lists what the seed generated, for :func:`fingerprint`,
    which hashes it outside the timed set-up.
    """

    state: dict
    ops: List[str]
    inputs: list
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def fingerprint(self) -> str:
        topo, *rest = self.inputs
        return digest([topology_to_dict(topo), *rest])


# --------------------------------------------------------------- paper-cell
@dataclass(frozen=True)
class PaperCellSpec:
    switches: Tuple[int, int, int] = (36, 24, 16)
    scheme: str = "redksp"
    k: int = 8
    mechanisms: Tuple[str, ...] = ("ksp_adaptive", "ugal")
    rates: Tuple[float, ...] = (0.3, 0.6)
    # The paper's router parameters with a shorter measurement budget.
    config: SimConfig = SimConfig(warmup_cycles=200, sample_cycles=100, n_samples=4)


class PaperCell:
    name = "paper-cell"

    def __init__(self, spec: PaperCellSpec = PaperCellSpec()):
        self.spec = spec

    def setup(self, seed: int, tr, scratch: Path) -> Setup:
        s = self.spec
        path_seed, *run_seeds = _seeds(seed, 1 + len(s.mechanisms) * len(s.rates))
        with tr.span("topology.build"):
            topo = Jellyfish(*s.switches, seed=TOPOLOGY_SEED)
        with tr.span("traffic.gen"):
            traffic = UniformTraffic(topo.n_hosts)
            pairs = traffic.switch_pairs(topo)
        computed = PathCache(topo, s.scheme, k=s.k, seed=path_seed)
        computed.precompute(pairs)
        store = ArenaStore(scratch)
        with tr.span("core.store_save"):
            store.save(computed)
        paths = PathCache(topo, s.scheme, k=s.k, seed=path_seed)
        with tr.span("core.store_load"):
            loaded = store.load(paths)
        _require(loaded == len(pairs), f"store reloaded {loaded} of {len(pairs)} pairs")
        # Materialise the memory-mapped views now, so no run pays for it.
        paths.precompute(pairs)
        ops = {}
        for i, (mech, rate) in enumerate(
            (m, r) for m in s.mechanisms for r in s.rates
        ):
            ops[f"{mech}@{rate}"] = (mech, rate, run_seeds[i])
        state = {"topo": topo, "traffic": traffic, "paths": paths, "ops": ops}
        counts = {
            "core.pairs": computed.misses,
            "core.arena_bytes": int(paths.arena.nbytes),
        }
        return Setup(state, list(ops), [topo, ops], counts)

    def run_op(self, state: dict, key: str, tr, scratch: Path) -> OpResult:
        cfg = self.spec.config
        mech, rate, run_seed = state["ops"][key]
        with tr.span("netsim.construct"):
            sim = Simulator(
                state["topo"], state["paths"], mech, state["traffic"], rate,
                config=cfg, seed=run_seed,
            )
        t0 = perf_counter()
        with tr.span("netsim.run"):
            r = sim.run()
        sim_s = perf_counter() - t0
        with tr.span("netsim.drain"):
            drained = sim.drain()
        sim.check_conservation()
        _require(sim.in_flight() == 0, f"{sim.in_flight()} packets left after drain")
        _require(r.delivered <= r.injected, f"delivered {r.delivered} > injected {r.injected}")
        # Bernoulli injection makes the measured rate fluctuate around the
        # offered one; allow five standard deviations above it.
        trials = r.n_active_hosts * cfg.sample_cycles * r.measured_samples
        slack = 5.0 * math.sqrt(rate * (1.0 - rate) / max(trials, 1))
        _require(
            r.accepted_throughput <= rate + slack,
            f"accepted {r.accepted_throughput} > offered {rate} (+{slack:.2g})",
        )
        out = {
            "injected": r.injected,
            "delivered": r.delivered,
            "measured_delivered": r.measured_delivered,
            "mean_latency": float(r.mean_latency),
            "sample_latencies": [float(x) for x in r.sample_latencies],
            "saturated": bool(r.saturated),
            "accepted_throughput": float(r.accepted_throughput),
            "latency_p50": float(r.latency_p50),
            "latency_p99": float(r.latency_p99),
            "max_link_utilisation": float(r.max_link_utilisation),
            "mean_link_utilisation": float(r.mean_link_utilisation),
            "drain_cycles": int(drained),
        }
        counts = {
            "netsim.runs": 1,
            "netsim.saturated_runs": int(r.saturated),
            "netsim.flits_delivered": int(r.delivered),
        }
        return OpResult(out, counts, sim_s, cfg.total_cycles, int(r.delivered))


# ----------------------------------------------------------------- sat-grid
@dataclass(frozen=True)
class SatGridSpec:
    switches: Tuple[int, int, int] = (36, 24, 16)
    schemes: Tuple[str, ...] = ("ksp", "redksp")
    mechanisms: Tuple[str, ...] = ("ksp_ugal", "ksp_adaptive")
    n_patterns: int = 2
    rates: Tuple[float, ...] = (0.5, 0.9)
    k: int = 8
    config: SimConfig = SimConfig(
        warmup_cycles=200, sample_cycles=100, n_samples=2,
        batch_lanes=8, flowstats=True, linkstate=True,
    )


def cell_throughputs(mean: float, rates, n_patterns: int) -> Tuple[float, ...]:
    """Recover the per-pattern throughputs behind one grid mean.

    Each cell's throughput is 0 or a ladder rate; the grid reports their
    mean over patterns.  The ladder must make that mean decode uniquely.
    """
    levels = (0.0,) + tuple(rates)
    fits = [
        c for c in combinations_with_replacement(levels, n_patterns)
        if abs(sum(c) / n_patterns - mean) <= 1e-9
    ]
    _require(len(fits) == 1, f"grid mean {mean!r} decodes to {fits}")
    return fits[0]


def ladder_runs(throughput: float, rates) -> Tuple[int, int]:
    """(runs, saturated runs) of one cell's rate ladder."""
    if throughput == rates[-1]:
        return len(rates), 0
    return (0 if throughput == 0.0 else list(rates).index(throughput) + 1) + 1, 1


class SatGrid:
    name = "sat-grid"

    def __init__(self, spec: SatGridSpec = SatGridSpec()):
        self.spec = spec

    def setup(self, seed: int, tr, scratch: Path) -> Setup:
        s = self.spec
        grid_seed, *pattern_seeds = _seeds(seed, 1 + s.n_patterns)
        with tr.span("topology.build"):
            topo = Jellyfish(*s.switches, seed=TOPOLOGY_SEED)
        with tr.span("traffic.gen"):
            patterns = [random_permutation(topo.n_hosts, seed=ps) for ps in pattern_seeds]
        state = {"topo": topo, "patterns": patterns, "grid_seed": grid_seed}
        return Setup(state, ["grid"], [topo, [p.flows for p in patterns], grid_seed])

    def run_op(self, state: dict, key: str, tr, scratch: Path) -> OpResult:
        s = self.spec
        cfg = s.config
        scratch.mkdir(parents=True, exist_ok=True)
        with metrics.capture() as reg, flowstats.capture() as fs, linkstate.capture() as ls:
            t0 = perf_counter()
            with tr.span("netsim.grid"):
                grid = run_saturation_grid(
                    state["topo"], s.schemes, s.mechanisms, state["patterns"],
                    k=s.k, rates=s.rates, config=cfg, seed=state["grid_seed"],
                    processes=1,
                )
            sim_s = perf_counter() - t0
            with tr.span("obs.snapshot"):
                m_snap = reg.snapshot()
                fs_snap = fs.snapshot()
                ls_snap = ls.snapshot()
                files = [
                    scratch / "metrics.json",
                    flowstats.save_flowstats(scratch / "flowstats.npz", fs_snap),
                    linkstate.save_linkstate(scratch / "linkstate.npz", ls_snap),
                ]
                files[0].write_text(json.dumps(m_snap))
        artifact_bytes = sum(Path(f).stat().st_size for f in files)

        counters = m_snap["counters"]
        runs = saturated = 0
        cells = []
        for (scheme, mech), mean in sorted(grid.items()):
            per_pattern = cell_throughputs(mean, s.rates, s.n_patterns)
            for th in per_pattern:
                n, sat = ladder_runs(th, s.rates)
                runs += n
                saturated += sat
            cells.append([scheme, mech, float(mean), list(per_pattern)])
        _require(
            counters.get("netsim.runs") == runs,
            f"grid ran {counters.get('netsim.runs')} runs, ladder implies {runs}",
        )
        injected = int(counters["netsim.injected"])
        delivered = int(counters["netsim.delivered"])
        _require(delivered <= injected, f"delivered {delivered} > injected {injected}")
        _require(
            int(fs_snap["fs_delivered"].sum()) <= delivered,
            "flow-stats record more deliveries than the simulator",
        )
        out = {
            "cells": cells,
            "counters": {k: int(v) for k, v in sorted(counters.items()) if k.startswith("netsim.")},
            "flowstats": array_digest(fs_snap["fs_delivered"]),
            "linkstate": array_digest(ls_snap["ls_forwarded"]),
        }
        counts = {
            "netsim.runs": runs,
            "netsim.saturated_runs": saturated,
            "netsim.flits_delivered": delivered,
            "core.pairs": int(counters.get("core.cache.miss", 0)),
            "obs.artifact_bytes": int(artifact_bytes),
        }
        return OpResult(out, counts, sim_s, runs * cfg.total_cycles, delivered)


# ------------------------------------------------------------------ stencil
def _stencil_cells(schemes: Tuple[str, ...]) -> Tuple[Tuple[str, str, str], ...]:
    """One cell per (stencil, mapping); schemes rotate across cells."""
    pairs = [(app, m) for app in sorted(STENCILS) for m in ("linear", "random")]
    return tuple(
        (app, m, schemes[i % len(schemes)]) for i, (app, m) in enumerate(pairs)
    )


@dataclass(frozen=True)
class StencilSpec:
    switches: Tuple[int, int, int] = (9, 10, 6)
    k: int = 4
    total_bytes: float = 15e6
    link_bandwidth: float = 20e9
    chunks: int = 4
    mechanism: str = "ksp_adaptive"
    cells: Tuple[Tuple[str, str, str], ...] = _stencil_cells(("redksp", "ksp", "rksp"))


class Stencil:
    name = "stencil"

    def __init__(self, spec: StencilSpec = StencilSpec()):
        self.spec = spec

    def setup(self, seed: int, tr, scratch: Path) -> Setup:
        s = self.spec
        cell_seeds = _seeds(seed, len(s.cells))
        with tr.span("topology.build"):
            topo = Jellyfish(*s.switches, seed=TOPOLOGY_SEED)
        ops = {}
        with tr.span("traffic.gen"):
            for (app, mapping, scheme), cell_seed in zip(s.cells, cell_seeds):
                # The draw order of stencil_time(..., seed=cell_seed) with
                # its default cold cache: path seed, then the mapping; the
                # generator state after them feeds build_workload.
                rng = np.random.default_rng(cell_seed)
                path_seed = int(rng.integers(2**31))
                n = topo.n_hosts
                msgs = stencil_messages(app, n, s.total_bytes)
                if mapping == "linear":
                    placed = linear_mapping(n, n)
                else:
                    placed = random_mapping(n, n, seed=rng)
                host_msgs = apply_mapping(msgs, placed)
                ops[f"{app}/{mapping}/{scheme}"] = {
                    "scheme": scheme,
                    "path_seed": path_seed,
                    "messages": host_msgs,
                    "rng_state": rng.bit_generator.state,
                    "host_pairs": sorted({(a, b) for a, b, _ in host_msgs}),
                    "switch_pairs": sorted(
                        {(topo.switch_of_host(a), topo.switch_of_host(b)) for a, b, _ in host_msgs}
                    ),
                }
        inputs = [topo, [[k, v["path_seed"], v["messages"]] for k, v in ops.items()]]
        return Setup({"topo": topo, "ops": ops}, list(ops), inputs)

    def run_op(self, state: dict, key: str, tr, scratch: Path) -> OpResult:
        s = self.spec
        topo = state["topo"]
        cell = state["ops"][key]
        paths = PathCache(topo, cell["scheme"], k=s.k, seed=cell["path_seed"])
        paths.precompute(cell["switch_pairs"])
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = cell["rng_state"]
        with tr.span("appsim.build_workload"):
            flows = build_workload(
                topo, cell["messages"], paths, mechanism=s.mechanism,
                chunks=s.chunks, seed=rng,
            )
        with tr.span("appsim.run_flows"):
            res = run_flows(flows, s.link_bandwidth, topo.n_links)
        with tr.span("model.throughput"):
            model = model_throughput(topo, cell["host_pairs"], paths)

        done = res.flow_completion
        _require(bool(np.all(np.isfinite(done)) and np.all(done > 0)), "a flow never completed")
        _require(res.makespan == float(done.max()), "makespan is not the last completion")
        link_bytes = np.zeros(topo.n_links)
        for f in flows:
            np.add.at(link_bytes, f.links, f.nbytes)
        floor = float(link_bytes.max()) / s.link_bandwidth
        _require(
            res.makespan >= floor * (1 - 1e-9),
            f"makespan {res.makespan!r} below busiest-link bound {floor!r}",
        )
        rates = model.per_flow
        _require(
            len(rates) == len(cell["host_pairs"])
            and bool(np.all(rates > 0)) and bool(np.all(rates <= 1 + 1e-9)),
            "model rate outside (0, 1] of link capacity",
        )
        events = int(np.unique(done).size)
        out = {
            "makespan": float(res.makespan),
            "mean_flow_completion": float(res.mean_flow_completion),
            "mean_message_completion": float(res.mean_message_completion),
            "total_bytes": float(res.total_bytes),
            "flows": len(flows),
            "events": events,
            "completion": array_digest(done),
            "model": array_digest(rates),
        }
        counts = {
            "core.pairs": paths.misses,
            "appsim.flows": len(flows),
            "appsim.events": events,
            "model.flows": len(rates),
        }
        return OpResult(out, counts)


WORKLOADS = {w.name: w for w in (PaperCell, SatGrid, Stencil)}

#: Small shapes of each workload, for the benchmark's own tests.
TINY = {
    "paper-cell": PaperCellSpec(
        switches=(12, 10, 7), k=4, rates=(0.3,),
        config=SimConfig(warmup_cycles=40, sample_cycles=40, n_samples=2),
    ),
    "sat-grid": SatGridSpec(
        switches=(12, 10, 7), schemes=("redksp",), mechanisms=("ksp_adaptive",), k=4,
        config=SimConfig(
            warmup_cycles=40, sample_cycles=40, n_samples=2,
            batch_lanes=2, flowstats=True, linkstate=True,
        ),
    ),
    "stencil": StencilSpec(cells=(("2dnn", "random", "redksp"), ("3dnn", "linear", "ksp"))),
}


def make_workload(name: str, tiny: bool = False):
    cls = WORKLOADS[name]
    return cls(TINY[name]) if tiny else cls()
