"""Injection-rate sweeps: saturation throughput and latency-load curves.

Implements the paper's measurement protocol: simulate a ladder of offered
loads, flag each run as saturated per the sample-latency criterion, and
report the last rate before saturation as the network's throughput
(Figures 7-10).  :func:`latency_curve` keeps the whole ladder for the
latency-versus-load plots (Figures 11-13).  :func:`batched_saturation`
climbs many cells' ladders in lock-step through the batched engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.core.cache import PathCache
from repro.errors import ConfigurationError
from repro.netsim.batchcore import BatchLane, BatchSimulator
from repro.netsim.config import SimConfig
from repro.netsim.simulator import PatternTraffic, SimResult, Simulator, UniformTraffic
from repro.obs.recorder import capture_all
from repro.topology.jellyfish import Jellyfish
from repro.utils.rng import SeedLike, ensure_rng

__all__ = [
    "LadderCell",
    "SweepPoint",
    "batched_saturation",
    "latency_curve",
    "saturation_throughput",
]

DEFAULT_RATES: Tuple[float, ...] = tuple(np.round(np.arange(0.05, 1.0001, 0.05), 4))


@dataclass(frozen=True)
class SweepPoint:
    """One ladder step: offered rate and the run's result."""

    rate: float
    result: SimResult


def _run_one(
    topology: Jellyfish,
    paths: PathCache,
    mechanism: str,
    traffic,
    rate: float,
    config: SimConfig,
    rng: np.random.Generator,
) -> SimResult:
    sim = Simulator(
        topology,
        paths,
        mechanism,
        traffic,
        rate,
        config=config,
        seed=np.random.default_rng(int(rng.integers(2**63))),
    )
    return sim.run()


def latency_curve(
    topology: Jellyfish,
    paths: PathCache,
    mechanism: str,
    traffic: UniformTraffic | PatternTraffic,
    rates: Sequence[float] = DEFAULT_RATES,
    config: SimConfig = SimConfig(),
    seed: SeedLike = 0,
    stop_after_saturation: bool = True,
) -> List[SweepPoint]:
    """Average packet latency at each offered load (Figures 11-13).

    Stops the ladder after the first saturated point by default — beyond
    saturation the latency is unbounded and the paper's plots end there.
    """
    if not rates:
        raise ConfigurationError("rates must be non-empty")
    rng = ensure_rng(seed)
    points: List[SweepPoint] = []
    for rate in rates:
        result = _run_one(topology, paths, mechanism, traffic, rate, config, rng)
        points.append(SweepPoint(rate=float(rate), result=result))
        if stop_after_saturation and result.saturated:
            break
    return points


def saturation_throughput(
    topology: Jellyfish,
    paths: PathCache,
    mechanism: str,
    traffic: UniformTraffic | PatternTraffic,
    rates: Sequence[float] = DEFAULT_RATES,
    config: SimConfig = SimConfig(),
    seed: SeedLike = 0,
) -> Tuple[float, List[SweepPoint]]:
    """The last offered load before saturation, plus the ladder behind it.

    Mirrors the paper: "we record the last injection rate before the
    network reaches the saturation point as the network throughput".  A
    network saturated even at the lowest rate reports 0.0.
    """
    points = latency_curve(
        topology, paths, mechanism, traffic, rates, config, seed,
        stop_after_saturation=True,
    )
    throughput = 0.0
    for p in points:
        if p.result.saturated:
            break
        throughput = p.rate
    return throughput, points


class LadderCell(NamedTuple):
    """One saturation ladder of :func:`batched_saturation`.

    Cells of one ``group`` may share a batch, so they must share
    ``paths`` and the VC count their lanes would use.
    """

    group: tuple
    paths: PathCache
    mechanism: str
    traffic: UniformTraffic | PatternTraffic
    seed: SeedLike


def batched_saturation(
    topology: Jellyfish,
    cells: Sequence[LadderCell],
    rates: Sequence[float],
    config: SimConfig,
    recorders: Dict[str, dict],
    hb=None,
) -> Tuple[List[float], List[List[Dict[str, dict]]]]:
    """:func:`saturation_throughput` of many cells through the batched engine.

    Cells climb the rate ladder in lock-step.  At each rate the cells
    still below saturation are grouped by ``cell.group`` (in sorted group
    order) and packed into batches of at most ``config.batch_lanes``
    lanes; each batch is one
    :class:`~repro.netsim.batchcore.BatchSimulator` run.  Each cell's
    ladder rng is ``ensure_rng(cell.seed)`` and draws one run seed per
    executed rung, as the serial sweep does, so every throughput equals
    the cell's serial sweep.

    Each lane's telemetry is replayed under fresh recorders built from
    ``recorders`` (a :func:`repro.obs.recorder.configs` map).  Returns
    the throughputs and, per cell, its rungs' ``{name: snapshot}`` maps
    in ascending-rate order — the serial sweep's run order.  ``hb`` is
    an optional worker heartbeater told about every batch.
    """
    n = len(cells)
    ladders = [ensure_rng(cell.seed) for cell in cells]
    throughput = [0.0] * n
    rungs: List[List[Dict[str, dict]]] = [[] for _ in range(n)]
    done = [False] * n
    for rate in rates:
        groups: Dict[tuple, List[int]] = {}
        for i, cell in enumerate(cells):
            if not done[i]:
                groups.setdefault(cell.group, []).append(i)
        if not groups:
            break
        for key in sorted(groups):
            members = groups[key]
            for s in range(0, len(members), config.batch_lanes):
                pack = members[s : s + config.batch_lanes]
                paths = cells[pack[0]].paths
                lanes = [
                    BatchLane(
                        cells[i].mechanism,
                        cells[i].traffic,
                        float(rate),
                        seed=np.random.default_rng(
                            int(ladders[i].integers(2**63))
                        ),
                    )
                    for i in pack
                ]
                if hb is not None:
                    hb.task(
                        f"{paths.selector.name} rate={rate} "
                        f"x{len(lanes)} lanes"
                    )
                batch = BatchSimulator(topology, paths, lanes, config)
                # Recorders are captured per lane at publish time, not
                # during the run, so VC-occupancy sampling is asked for
                # explicitly.
                results = batch.run(
                    publish=False, observe="metrics" in recorders
                )
                for j, i in enumerate(pack):
                    if recorders:
                        with capture_all(recorders) as recs:
                            batch.publish_lane(j)
                        rungs[i].append(
                            {name: r.snapshot() for name, r in recs.items()}
                        )
                    if results[j].saturated:
                        done[i] = True
                    else:
                        throughput[i] = float(rate)
                if hb is not None:
                    hb.done()
    return throughput, rungs
