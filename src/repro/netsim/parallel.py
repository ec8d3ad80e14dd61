"""Process-parallel simulation sweeps.

The cycle-level experiments are embarrassingly parallel across
(scheme, mechanism, pattern, rate) cells, and each cell is seconds to
minutes of pure-Python work, so a process pool gives near-linear speedup
on a multicore machine.  This module runs a *grid* of saturation sweeps in
parallel:

- the topology document and the warmed per-scheme path tables are shipped
  **once per worker** through the pool initializer — not once per task —
  so task tuples stay a few hundred bytes and the pool's IPC cost is
  independent of the grid size (Yen's algorithm still runs once, in the
  parent);
- each grid cell gets an independent, deterministic random stream derived
  from (master seed, cell index), so results are identical whatever the
  worker count, chunking, or completion order — including ``processes=1``,
  which runs inline and is what the test suite exercises deterministically.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.arena import PathArena
from repro.core.cache import PathCache
from repro.errors import ConfigurationError
from repro.netsim.batchcore import BATCHABLE_MECHANISMS, lane_vc_count
from repro.netsim.config import SimConfig
from repro.netsim.sweep import (
    LadderCell,
    batched_saturation,
    saturation_throughput,
)
from repro.netsim.simulator import PatternTraffic
from repro.obs import monitor as obs_monitor
from repro.obs import recorder
from repro.obs.progress import Progress
from repro.topology.jellyfish import Jellyfish
from repro.topology.serialization import topology_from_dict, topology_to_dict
from repro.traffic.patterns import Pattern

__all__ = ["GridCell", "run_saturation_grid"]


@dataclass(frozen=True)
class GridCell:
    """One completed grid cell: configuration plus measured throughput."""

    scheme: str
    mechanism: str
    pattern_index: int
    throughput: float


# Per-worker state built once by the pool initializer: the rebuilt topology
# and one warmed PathCache per scheme, the parent's enabled recorders as a
# ``{name: config}`` registry map (cells run under fresh captures of them
# and ship their snapshots home for merging), and the live monitor's
# worker-side heartbeater (fed by the parent's Manager queue, or its
# ``post`` callable inline).
_GRID_STATE: List[Optional[Tuple[Jellyfish, Dict[str, PathCache]]]] = [None]
_GRID_RECORDERS: List[Dict[str, dict]] = [{}]
_GRID_HB: List[Optional[obs_monitor.Heartbeater]] = [None]


def _grid_init(topo_doc, k, cache_seed, states, recorders=None,
               mon_sink=None) -> None:
    """Pool initializer: rebuild the topology and warmed caches once.

    ``states`` maps scheme -> one of a :class:`PathArena` (inline runs),
    a shared-memory descriptor dict from ``PathArena.to_shm`` (pool
    workers attach the parent's block zero-copy), or a legacy
    ``{(s, d): PathSet}`` snapshot.
    """
    import os

    topology = topology_from_dict(topo_doc)
    caches: Dict[str, PathCache] = {}
    for scheme, state in states.items():
        cache = PathCache(topology, scheme, k=k, seed=cache_seed)
        if isinstance(state, PathArena):
            cache.attach_arena(state)
        elif isinstance(state, dict) and "shm" in state:
            cache.attach_arena(PathArena.from_shm(state))
        else:
            cache.import_state(state)
        caches[scheme] = cache
    _GRID_STATE[0] = (topology, caches)
    _GRID_RECORDERS[0] = dict(recorders or {})
    _GRID_HB[0] = (
        obs_monitor.Heartbeater(mon_sink, worker=os.getpid())
        if mon_sink is not None else None
    )


def _grid_reset() -> None:
    """Drop the state :func:`_grid_init` installed (inline runs)."""
    _GRID_STATE[0] = None
    _GRID_RECORDERS[0] = {}
    _GRID_HB[0] = None


def _ship_states(caches: Dict[str, PathCache], processes: int):
    """Package warmed caches for worker shipment.

    Inline runs (``processes == 1``) hand the per-scheme
    :class:`PathArena` straight to ``_grid_init``.  Pool runs move each
    arena into a shared-memory block and ship only its ~200-byte
    descriptor through the initializer, so workers map the parent's
    tables zero-copy instead of unpickling per-pair ``PathSet`` objects.
    Returns ``(states, shms)``; the caller must close and unlink every
    block in ``shms`` after the pool has joined.
    """
    states: Dict[str, object] = {}
    shms: list = []
    for scheme, cache in caches.items():
        arena = PathArena.from_cache(cache)
        if processes == 1:
            states[scheme] = arena
        else:
            shm, descriptor = arena.to_shm()
            shms.append(shm)
            states[scheme] = descriptor
    return states, shms


def _run_cell(args) -> Tuple[GridCell, Dict[str, dict]]:
    """Worker: run one saturation sweep against the initializer's state.

    Returns the cell plus ``{name: snapshot}`` of every recorder the
    parent had enabled (empty when telemetry is off).  Metric snapshots
    merge commutatively; the others are merged by the parent in task
    order (``pool.map`` preserves it), so the parent's aggregates are
    identical for any worker count.
    """
    (
        scheme, mechanism, pattern_index, pattern_flows, n_hosts,
        rates, config, cell_seed,
    ) = args
    topology, caches = _GRID_STATE[0]
    recorders = _GRID_RECORDERS[0]
    hb = _GRID_HB[0]
    if hb is not None:
        hb.task(f"{scheme}/{mechanism} p{pattern_index}")
    with recorder.capture_all(recorders) as recs:
        if hb is not None and "timeseries" in recs:
            recs["timeseries"].on_window = hb.window
        th, _ = saturation_throughput(
            topology, caches[scheme], mechanism,
            PatternTraffic(Pattern("grid", n_hosts, pattern_flows)),
            rates=rates, config=config, seed=np.random.SeedSequence(cell_seed),
        )
    if hb is not None:
        hb.done()
    return (
        GridCell(scheme, mechanism, pattern_index, th),
        {name: rec.snapshot() for name, rec in recs.items()},
    )


def _run_cell_batch(chunk) -> List[Tuple[GridCell, Dict[str, dict]]]:
    """Worker: rung-step a chunk of grid cells through the batched engine.

    Cells are grouped by (scheme, VC count) — lanes of one batch must
    share a buffer layout — and climb their ladders in lock-step through
    :func:`~repro.netsim.sweep.batched_saturation`; each cell's per-rung
    snapshots are folded in rate order, so every cell's throughput and
    artifacts are byte-identical to its per-cell fast-engine run
    whatever the lane packing.  Cells the batched engine cannot take
    (vanilla UGAL; every cell while the flight recorder is on) fall back
    to :func:`_run_cell` unchanged.

    Returns one ``_run_cell``-shaped result per cell, in chunk order.
    """
    topology, caches = _GRID_STATE[0]
    recorders = _GRID_RECORDERS[0]
    out: List[Optional[tuple]] = [None] * len(chunk)
    batchable: List[int] = []
    cells: List[LadderCell] = []
    for i, task in enumerate(chunk):
        scheme, mech, _pi, flows, n_hosts, _rates, cfg, cell_seed = task
        if "trace" in recorders or mech not in BATCHABLE_MECHANISMS:
            out[i] = _run_cell(task)
            continue
        batchable.append(i)
        cells.append(
            LadderCell(
                (scheme, lane_vc_count(topology, caches[scheme], mech, cfg)),
                caches[scheme],
                mech,
                PatternTraffic(Pattern("grid", n_hosts, flows)),
                np.random.SeedSequence(cell_seed),
            )
        )
    if not batchable:
        return out
    throughput, rungs = batched_saturation(
        topology, cells, chunk[0][5], chunk[0][6], recorders, hb=_GRID_HB[0],
    )
    for i, th, cell_rungs in zip(batchable, throughput, rungs):
        scheme, mech, pattern_index = chunk[i][:3]
        out[i] = (
            GridCell(scheme, mech, pattern_index, th),
            recorder.fold(recorders, cell_rungs) if cell_rungs else {},
        )
    return out


def run_saturation_grid(
    topology: Jellyfish,
    schemes: Sequence[str],
    mechanisms: Sequence[str],
    patterns: Sequence[Pattern],
    *,
    k: int = 8,
    rates: Sequence[float],
    config: SimConfig = SimConfig(),
    seed: int = 0,
    processes: int = 1,
) -> Dict[Tuple[str, str], float]:
    """Saturation throughput for every (scheme, mechanism) pair, averaged
    over ``patterns``, running cells across ``processes`` workers.

    Returns ``{(scheme, mechanism): mean saturation throughput}``.
    """
    if processes < 1:
        raise ConfigurationError(f"processes must be >= 1, got {processes}")
    if not schemes or not mechanisms or not patterns:
        raise ConfigurationError("schemes, mechanisms and patterns must be non-empty")
    if config.batch_lanes > 1 and config.steady_state:
        raise ConfigurationError(
            "steady_state grids cannot batch lanes: the batched engine is "
            "fixed-budget only. Use batch_lanes=1 for steady-state sweeps."
        )

    topo_doc = topology_to_dict(topology)
    # Warm one cache per scheme in the parent — only the pairs the
    # patterns actually touch (on-demand) — then ship the flat arena to
    # the workers.
    caches: Dict[str, PathCache] = {}
    pair_lists = [
        sorted(
            {
                (topology.switch_of_host(s), topology.switch_of_host(d))
                for s, d in p.flows
            }
        )
        for p in patterns
    ]
    for scheme in schemes:
        cache = PathCache(topology, scheme, k=k, seed=seed)
        for pairs in pair_lists:
            cache.precompute(pairs)
        caches[scheme] = cache
    states, shms = _ship_states(caches, processes)

    tasks = []
    cell = 0
    for scheme in schemes:
        for mechanism in mechanisms:
            for i, pattern in enumerate(patterns):
                tasks.append(
                    (
                        scheme, mechanism, i, pattern.flows, pattern.n_hosts,
                        tuple(rates), config, (seed, cell),
                    )
                )
                cell += 1

    progress = Progress(len(tasks), "saturation-grid")
    mon = obs_monitor.active()
    if mon is not None:
        mon.begin("saturation-grid", len(tasks))
    # Inline runs feed the monitor through its ``post`` callable; pool
    # workers get a Manager-queue proxy (picklable through initargs).
    sink = None
    if mon is not None:
        sink = mon.post if processes == 1 else mon.queue()
    initargs = (topo_doc, k, seed, states, recorder.configs(), sink)
    cells: List[GridCell] = []

    def _collect(cell_result):
        cell, snaps = cell_result
        cells.append(cell)
        recorder.merge_all(snaps)
        progress.step()
        if mon is not None:
            mon.step()

    batched = config.batch_lanes > 1
    try:
        if processes == 1:
            # Inline cells use the same per-cell capture-and-merge path as
            # the pool, so serial and parallel runs aggregate identical
            # telemetry.
            _grid_init(*initargs)
            try:
                if batched:
                    for result in _run_cell_batch(tasks):
                        _collect(result)
                else:
                    for t in tasks:
                        _collect(_run_cell(t))
            finally:
                _grid_reset()
        else:
            with ProcessPoolExecutor(
                max_workers=processes, initializer=_grid_init, initargs=initargs,
            ) as pool:
                if batched:
                    # One contiguous chunk of cells per worker; a worker
                    # rung-steps its own chunk, so pool workers and lane
                    # packing compose.  Cell seeds depend only on (master
                    # seed, cell index) and snapshots are per cell, so
                    # any chunking yields identical results.
                    n_chunks = min(processes, len(tasks))
                    chunks = [
                        [tasks[int(i)] for i in idx]
                        for idx in np.array_split(
                            np.arange(len(tasks)), n_chunks
                        )
                        if len(idx)
                    ]
                    for results in pool.map(_run_cell_batch, chunks):
                        for result in results:
                            _collect(result)
                else:
                    chunksize = max(1, len(tasks) // (4 * processes))
                    for cell_result in pool.map(
                        _run_cell, tasks, chunksize=chunksize
                    ):
                        _collect(cell_result)
    finally:
        # The pool context manager has joined its workers by the time we
        # get here, so the parent can safely tear down the shared blocks.
        for shm in shms:
            shm.close()
            shm.unlink()
        if mon is not None:
            mon.finish()

    out: Dict[Tuple[str, str], List[float]] = {}
    for c in cells:
        out.setdefault((c.scheme, c.mechanism), []).append(c.throughput)
    return {key: float(np.mean(vals)) for key, vals in out.items()}
