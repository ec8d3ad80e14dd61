"""The shared recorder protocol and its registry.

Every capture layer (metrics, trace, timeseries, linkstate, flowstats)
is one :class:`~repro.obs.recorder.Slot`; code that moves telemetry
across a process or lane boundary loops over the registry instead of
naming each recorder.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs import flowstats, linkstate, metrics, recorder, timeseries, trace

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def _recorders_disabled():
    """Module state is global; every test starts and ends with it off."""
    recorder.disable_all()
    yield
    recorder.disable_all()


def test_registry_order_and_module_bindings():
    assert recorder.NAMES == (
        "metrics", "trace", "timeseries", "linkstate", "flowstats"
    )
    modules = (metrics, trace, timeseries, linkstate, flowstats)
    assert recorder.slots() == tuple(m.SLOT for m in modules)
    for mod in modules:
        assert mod.capture == mod.SLOT.capture
        assert mod.snapshot == mod.SLOT.snapshot
    with pytest.raises(ConfigurationError, match="unknown recorder"):
        recorder.slot("nope")


def test_configs_is_none_free_and_enable_all_round_trips():
    assert recorder.configs() == {}
    cfgs = {
        "metrics": {},
        "timeseries": {"window": 30, "top_links": 2},
        "linkstate": {"window": 25},
        "flowstats": {},
    }
    recorder.enable_all(cfgs)
    assert recorder.configs() == cfgs
    assert metrics.enabled() and flowstats.config() == {}
    assert not trace.enabled()
    recorder.disable_all()
    assert recorder.configs() == {}
    assert metrics.active() is None and metrics._active is None


def test_capture_all_scopes_and_restores():
    outer = linkstate.enable(window=10)
    with recorder.capture_all({"linkstate": {"window": 5}, "metrics": {}}) as recs:
        assert linkstate.active() is recs["linkstate"] is not outer
        assert recs["linkstate"].window == 5
        assert metrics.active() is recs["metrics"]
    assert linkstate.active() is outer
    assert metrics.active() is None


def test_fold_equals_in_order_merge():
    cfgs = {"metrics": {}, "linkstate": {"window": 4}}
    seq = []
    for run in range(3):
        with recorder.capture_all(cfgs) as recs:
            metrics.counter("n").inc(run + 1)
            ls = recs["linkstate"]
            r = ls.begin_run(n_links=2, run_tag=run)
            ls.record_window(
                r, start=0, cycles=4, forwarded=[run, 1],
                credit_stalls=[0, run], peak_occupancy=[1, 1],
            )
        seq.append({name: rec.snapshot() for name, rec in recs.items()})
    folded = recorder.fold(cfgs, seq)
    assert folded["metrics"]["counters"] == {"n": 6}
    assert [r["run_tag"] for r in folded["linkstate"]["runs"]] == [0, 1, 2]
    np.testing.assert_array_equal(folded["linkstate"]["ls_run"], [0, 1, 2])
    empty = recorder.fold(cfgs, [])
    assert empty["metrics"] == metrics.MetricsRegistry().snapshot()
    assert empty["linkstate"]["n_runs"] == 0


def test_save_load_share_one_npz_helper(tmp_path):
    assert linkstate.save_linkstate(tmp_path / "off.npz") is None
    linkstate.enable(window=7)
    path = linkstate.save_linkstate(tmp_path / "ls.npz")
    snap = linkstate.load_linkstate(path)
    assert snap["window"] == 7 and isinstance(snap["window"], int)
    assert snap["format"] == linkstate.LINKSTATE_FORMAT
    with pytest.raises(ConfigurationError, match="repro-flowstats-v1"):
        flowstats.load_flowstats(path)
