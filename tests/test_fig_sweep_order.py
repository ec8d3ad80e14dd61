"""The batched figure sweep replays every recorder in serial order.

``figs_netsim._cell_throughputs`` with ``batch_lanes > 1`` climbs a
cell's patterns in lock-step and captures each lane's telemetry, then
replays it pattern-major, rate-minor — the order of the per-pattern
serial sweeps.  Every recorder must come out SHA-identical to the
``batch_lanes=1`` run, not only the ones the sweep happened to name.
"""

import hashlib

import numpy as np
import pytest

from repro import Jellyfish, PathCache
from repro.experiments.figs_netsim import _cell_throughputs
from repro.netsim import SimConfig
from repro.obs import flowstats, linkstate, timeseries
from repro.traffic import random_permutation

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def _recorders_disabled():
    """Module state is global; every test starts and ends with it off."""
    for mod in (timeseries, linkstate, flowstats):
        mod.disable()
    yield
    for mod in (timeseries, linkstate, flowstats):
        mod.disable()


def _fig_sweep_digests(batch_lanes, tmp_path):
    """One fig cell under timeseries + linkstate + flowstats capture."""
    topo = Jellyfish(12, 10, 7, seed=3)
    cache = PathCache(topo, "ksp", k=2, seed=1)
    patterns = [random_permutation(topo.n_hosts, seed=s) for s in (0, 1)]
    cell_seeds = [
        np.random.SeedSequence(entropy=7, spawn_key=(0, 0, i))
        for i in range(len(patterns))
    ]
    cfg = SimConfig(
        warmup_cycles=40, sample_cycles=40, n_samples=2,
        batch_lanes=batch_lanes,
    )
    timeseries.enable(window=25)
    linkstate.enable(window=25)
    flowstats.enable()
    throughputs = _cell_throughputs(
        topo, cache, "ksp_adaptive", patterns, (0.2, 0.4), cfg, cell_seeds
    )
    digests, rates = {}, {}
    for mod, save in (
        (timeseries, timeseries.save_timeseries),
        (linkstate, linkstate.save_linkstate),
        (flowstats, flowstats.save_flowstats),
    ):
        name = mod.__name__.rsplit(".", 1)[1]
        snap = mod.snapshot()
        mod.disable()
        rates[name] = [r["rate"] for r in snap["runs"]]
        path = save(tmp_path / f"{batch_lanes}.{name}.npz", snap)
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return throughputs, digests, rates


def test_batched_fig_sweep_replays_every_recorder_in_serial_order(tmp_path):
    serial = _fig_sweep_digests(1, tmp_path)
    batched = _fig_sweep_digests(2, tmp_path)
    assert batched[0] == serial[0]
    # Pattern-major, rate-minor: both patterns climb past 0.2.
    assert serial[2]["linkstate"] == [0.2, 0.4, 0.2, 0.4]
    assert batched[2] == serial[2]
    assert batched[1] == serial[1]
