"""Tests of the benchmark itself: ``python -m pytest perfbench -q``.

They run every workload at a tiny size, so the whole file takes seconds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import workloads  # noqa: E402
from spans import NULL_TRACER  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
PLAN = json.loads((HERE / "plan.json").read_text())


def _run_ops(wl, seed, tmp_path):
    setup = wl.setup(seed, NULL_TRACER, tmp_path / "setup")
    results = {k: wl.run_op(setup.state, k, NULL_TRACER, tmp_path / "ops") for k in setup.ops}
    return setup, results


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_and_counts(name, tmp_path):
    wl = workloads.make_workload(name, tiny=True)
    first, ops_a = _run_ops(wl, 7, tmp_path / "a")
    again, ops_b = _run_ops(wl, 7, tmp_path / "b")
    assert first.fingerprint == again.fingerprint
    assert first.counts == again.counts
    # The saved metrics snapshot holds wall-clock rates, so its size may
    # differ by a few bytes; every other count repeats exactly.
    def exact(ops):
        return {
            k: (r.digest, {n: c for n, c in r.counts.items() if n != "obs.artifact_bytes"})
            for k, r in ops.items()
        }

    assert exact(ops_a) == exact(ops_b)
    other = wl.setup(8, NULL_TRACER, tmp_path / "c")
    assert other.fingerprint != first.fingerprint


def test_metric_names_and_units_are_well_formed():
    declared = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in declared] + [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in declared:
        assert UNIT.match(m["unit"]), m
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == list(harness.PER_LAYER)
    assert sorted(w["name"] for w in BENCH["workloads"]) == sorted(workloads.WORKLOADS)


def test_plan_covers_every_layer_metric_and_workload():
    workload_names = set(workloads.WORKLOADS)
    assert set(PLAN["layer_targets"]) == {m["name"] for m in BENCH["per_layer"]}
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    for name, targets in PLAN["layer_targets"].items():
        for t in targets:
            assert t["metric"] in e2e, name
            assert set(t["workloads"]) <= workload_names, name


def test_injected_digest_mismatch_fails_the_run(tmp_path):
    wl = workloads.make_workload("paper-cell", tiny=True)
    clean = harness.measure(wl, 3, 0.0, False, tmp_path / "clean")
    assert clean.failed == 0 and clean.correct
    bogus = {k: "0" * 16 for k in clean.digests}
    bad = harness.measure(wl, 3, 0.0, False, tmp_path / "bad", expected=bogus)
    assert bad.failed > 0 and not bad.correct
    assert bad.failed / bad.attempted > 0
    assert bad.line()["failed"] == bad.failed


def test_traced_run_reports_every_layer_metric(tmp_path):
    wl = workloads.make_workload("stencil", tiny=True)
    result = harness.measure(wl, 5, 0.0, True, tmp_path)
    assert result.correct
    line = result.line()
    assert list(line["metrics"]) == [n for n, _ in harness.PER_LAYER]
    assert line["metrics"]["appsim.run_flows_s"]["value"] > 0
    assert line["metrics"]["appsim.events"]["value"] > 0
    assert {s[0] for s in result.tracer.spans} >= {"setup", "pass", "core.precompute"}


def test_stencil_cell_matches_stencil_time(tmp_path):
    from repro.appsim import stencil_time

    wl = workloads.make_workload("stencil", tiny=True)
    setup = wl.setup(11, NULL_TRACER, tmp_path)
    seed = workloads._seeds(11, len(wl.spec.cells))[0]
    app, mapping, scheme = wl.spec.cells[0]
    key = f"{app}/{mapping}/{scheme}"
    mine = wl.run_op(setup.state, key, NULL_TRACER, tmp_path)
    ref = stencil_time(
        setup.state["topo"], app, scheme, mapping=mapping, k=wl.spec.k,
        total_bytes=wl.spec.total_bytes, link_bandwidth=wl.spec.link_bandwidth,
        chunks=wl.spec.chunks, seed=seed,
    )
    assert mine.outputs["makespan"] == ref.makespan
    assert mine.outputs["completion"] == workloads.array_digest(ref.flow_completion)


def test_grid_mean_decodes_uniquely():
    spec = workloads.SatGridSpec()
    levels = (0.0,) + spec.rates
    for a in levels:
        for b in levels:
            got = workloads.cell_throughputs((a + b) / 2, spec.rates, 2)
            assert sorted(got) == sorted((a, b))
    assert workloads.ladder_runs(spec.rates[-1], spec.rates) == (len(spec.rates), 0)
    assert workloads.ladder_runs(0.0, spec.rates) == (1, 1)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stencil", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
