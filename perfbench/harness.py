"""Measurement loop, metric assembly and report for the benchmark.

One run = set-ups (at least ``SETUP_REPS``, until ``SETUP_SECONDS`` of
set-up time), then passes over the workload's fixed operation list until
the time budget is spent; the last pass may stop part-way, before an
operation that would overrun the budget.  End-to-end metrics come from untraced set-ups
and passes only.  With tracing on, traced and untraced set-ups and passes
alternate: the traced ones give per-layer self times, and the difference
between the two kinds of pass is the tracing overhead.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import shutil
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from spans import NULL_TRACER, Tracer

__all__ = ["END_TO_END", "PER_LAYER", "RunResult", "host_facts", "measure", "report"]

SETUP_REPS = 5
SETUP_SECONDS = 1.0
SETUP_MAX_REPS = 200

#: (name, unit) of every end-to-end metric; all are reported on every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_s.p50", "s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric.  A layer a workload never
#: calls reports 0.
PER_LAYER = (
    ("topology.build_s", "s"),
    ("traffic.gen_s", "s"),
    ("core.precompute_s", "s"),
    ("core.pairs", "count"),
    ("core.pairs_per_s", "1/s"),
    ("core.store_save_s", "s"),
    ("core.store_load_s", "s"),
    ("core.arena_bytes", "bytes"),
    ("netsim.construct_s", "s"),
    ("netsim.run_s", "s"),
    ("netsim.cycles_per_s", "1/s"),
    ("netsim.drain_s", "s"),
    ("netsim.grid_s", "s"),
    ("netsim.lane_cycles_per_s", "1/s"),
    ("netsim.runs", "count"),
    ("netsim.saturated_runs", "count"),
    ("netsim.flits_delivered", "count"),
    ("obs.snapshot_s", "s"),
    ("obs.artifact_bytes", "bytes"),
    ("model.throughput_s", "s"),
    ("model.flows", "count"),
    ("appsim.build_workload_s", "s"),
    ("appsim.run_flows_s", "s"),
    ("appsim.events_per_s", "1/s"),
    ("appsim.flows", "count"),
    ("appsim.events", "count"),
    ("sim_cycles_per_s", "1/s"),
    ("flits_per_s", "1/s"),
    ("bench.harness_s", "s"),
    ("trace.overhead_s", "s"),
)

#: Per-layer times that are a span's self time: ``<span name>_s``.
_SPAN_TIMES = tuple(
    name for name, unit in PER_LAYER
    if unit == "s" and name not in ("bench.harness_s", "trace.overhead_s")
)


def host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


@dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    setup_s: Dict[bool, List[float]] = field(default_factory=lambda: {False: [], True: []})
    pass_s: Dict[bool, List[float]] = field(default_factory=lambda: {False: [], True: []})
    op_s: Dict[str, List[float]] = field(default_factory=dict)
    traced_op_s: Dict[str, List[float]] = field(default_factory=dict)
    sim_s: float = 0.0
    sim_cycles: int = 0
    flits: int = 0
    setup_counts: Dict[str, int] = field(default_factory=dict)
    pass_counts: Optional[Dict[str, int]] = None
    pass_cycles: int = 0
    digests: Dict[str, str] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)
    tracer: Optional[Tracer] = None

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def end_to_end(self) -> Dict[str, float]:
        out = {}
        if self.setup_s[False]:
            out["setup_s"] = statistics.median(self.setup_s[False])
        # Each operation's median over passes discards the passes a burst
        # of contention hit; wall_s is one pass built from those medians.
        # op_s.p50 is the low median, so it is one operation's time and
        # never the mean of two operations of different size.
        if self.op_s:
            out["wall_s"] = _pass_estimate(self.op_s)
            out["op_s.p50"] = statistics.median_low(
                statistics.median(times) for times in self.op_s.values()
            )
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return out

    def line(self) -> dict:
        """The result object: end-to-end or per-layer metrics."""
        metrics = PER_LAYER if self.trace else END_TO_END
        values = self.layer if self.trace else self.end_to_end()
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": values[name], "unit": unit}
                for name, unit in metrics
                if name in values
            },
        }


def _pass_estimate(op_s: Dict[str, List[float]]) -> float:
    """One pass's wall time: the sum of each operation's median time."""
    return sum(statistics.median(times) for times in op_s.values())


def _fail(result: RunResult, what: str) -> None:
    result.failed += 1
    if len(result.failures) < 20:
        result.failures.append(what)


def measure(
    workload,
    seed: int,
    seconds: float,
    trace: bool,
    scratch: Path,
    expected: Optional[Dict[str, str]] = None,
) -> RunResult:
    """Set up, run passes for ``seconds``, check outputs, assemble metrics.

    ``expected`` maps operation keys to committed digests; any mismatch,
    exception or broken invariant counts as a failed operation.
    """
    result = RunResult(workload.name, seed, trace)
    tracer = result.tracer = Tracer() if trace else None
    scratch.mkdir(parents=True, exist_ok=True)

    fingerprints = set()
    setup = None
    kinds = 2 if trace else 1
    spent = 0.0
    for i in range(SETUP_MAX_REPS * kinds):
        if i >= SETUP_REPS * kinds and spent >= SETUP_SECONDS * kinds:
            break
        traced = trace and i % 2 == 1
        tr = tracer if traced else NULL_TRACER
        rep_dir = scratch / f"setup-{i}"
        t0 = perf_counter()
        with tr.instrument(), tr.span("setup"):
            rep = workload.setup(seed, tr, rep_dir)
        elapsed = perf_counter() - t0
        result.setup_s[traced].append(elapsed)
        spent += elapsed
        shutil.rmtree(rep_dir, ignore_errors=True)
        fingerprints.add(rep.fingerprint)
        if setup is None:
            setup = rep
            result.setup_counts = dict(rep.counts)
    if len(fingerprints) != 1:
        _fail(result, f"set-up produced {len(fingerprints)} different input sets")

    op_dir = scratch / "ops"
    deadline = perf_counter() + seconds

    def out_of_time(key: str) -> bool:
        """Stop before an operation whose last duration would overrun the
        budget, once every kind of pass has completed at least once."""
        if not result.pass_s[False] or (trace and not result.pass_s[True]):
            return False
        last = (result.traced_op_s if traced else result.op_s).get(key, [0.0])[-1]
        return perf_counter() + last > deadline

    stop = False
    while not stop:
        traced = trace and len(result.pass_s[False]) > len(result.pass_s[True])
        tr = tracer if traced else NULL_TRACER
        counts: Counter = Counter()
        cycles = 0
        ok = True
        first_span = len(tracer.spans) if traced else 0
        t0 = perf_counter()
        with tr.instrument(), tr.span("pass"):
            for key in setup.ops:
                stop = out_of_time(key)
                if stop:
                    break
                result.attempted += 1
                t_op = perf_counter()
                try:
                    op = workload.run_op(setup.state, key, tr, op_dir)
                except Exception as exc:  # every failure counts, none aborts the run
                    _fail(result, f"{key}: {type(exc).__name__}: {exc}")
                    ok = False
                    continue
                op_time = perf_counter() - t_op
                # Free the finished run's reference cycles now, so peak
                # memory does not depend on when the collector next fires.
                gc.collect()
                first = result.digests.setdefault(key, op.digest)
                if op.digest != first:
                    _fail(result, f"{key}: digest {op.digest} differs from first pass {first}")
                    ok = False
                elif expected is not None and expected.get(key) != op.digest:
                    _fail(result, f"{key}: digest {op.digest} != committed {expected.get(key)}")
                    ok = False
                counts.update(op.counts)
                cycles += op.sim_cycles
                if traced:
                    result.traced_op_s.setdefault(key, []).append(op_time)
                else:
                    result.op_s.setdefault(key, []).append(op_time)
                    result.sim_s += op.sim_s
                    result.sim_cycles += op.sim_cycles
                    result.flits += op.flits
        if stop:
            # A partial pass adds operation samples but neither a pass
            # time nor spans: per-layer figures are per complete pass.
            if traced:
                del tracer.spans[first_span:]
            break
        result.pass_s[traced].append(perf_counter() - t0)
        if ok and result.pass_counts is None:
            result.pass_counts = dict(counts)
            result.pass_cycles = cycles

    if trace:
        result.layer = _layer_metrics(result, tracer)
    return result


def _layer_metrics(result: RunResult, tracer: Tracer) -> Dict[str, float]:
    """Raw per-layer values: self time per traced set-up plus per traced pass."""
    n_setup = len(result.setup_s[True])
    n_pass = len(result.pass_s[True])
    per: Dict[str, float] = {}
    for (root, name), secs in tracer.self_times().items():
        share = secs / (n_setup if root == "setup" else n_pass)
        per[name] = per.get(name, 0.0) + share

    out: Dict[str, float] = {}
    for name in _SPAN_TIMES:
        out[name] = per.get(name[:-2], 0.0)
    counts = Counter(result.setup_counts)
    counts.update(result.pass_counts or {})
    for name, unit in PER_LAYER:
        if unit in ("count", "bytes"):
            out[name] = int(counts.get(name, 0))

    def rate(num, secs):
        return num / secs if secs > 0 else 0.0

    out["core.pairs_per_s"] = rate(out["core.pairs"], out["core.precompute_s"])
    out["netsim.cycles_per_s"] = rate(result.pass_cycles, out["netsim.run_s"])
    out["netsim.lane_cycles_per_s"] = rate(result.pass_cycles, out["netsim.grid_s"])
    out["appsim.events_per_s"] = rate(out["appsim.events"], out["appsim.run_flows_s"])
    out["sim_cycles_per_s"] = rate(result.sim_cycles, result.sim_s)
    out["flits_per_s"] = rate(result.flits, result.sim_s)
    out["bench.harness_s"] = per.get("pass", 0.0)
    out["trace.overhead_s"] = _pass_estimate(result.traced_op_s) - _pass_estimate(result.op_s)
    return out


def report(result: RunResult, facts: dict) -> List[str]:
    """Human-readable lines: host facts and every metric by name and unit."""
    lines = [
        f"# perfbench workload={result.workload} seed={result.seed} "
        f"trace={int(result.trace)} " + " ".join(f"{k}={v}" for k, v in facts.items())
    ]
    n_ops = sum(len(t) for t in result.op_s.values())
    notes = {
        "setup_s": f"median of {len(result.setup_s[False])} set-ups",
        "wall_s": f"one pass = sum of per-operation medians, {len(result.op_s)} operations",
        "op_s.p50": f"low median of per-operation medians, {n_ops} operations timed",
    }
    units = dict(END_TO_END)
    for name, value in result.end_to_end().items():
        lines.append(f"{name:<18} {value:<12.6g} {units[name]:<4} {notes.get(name, '')}")
    if result.sim_s > 0:
        lines.append(f"{'sim_cycles_per_s':<18} {result.sim_cycles / result.sim_s:<12.6g} 1/s")
        lines.append(f"{'flits_per_s':<18} {result.flits / result.sim_s:<12.6g} 1/s")
    lines.append(f"{'fail_ratio':<18} {result.failed / max(result.attempted, 1):<12.4g} -    "
                 f"{result.failed} of {result.attempted} operations")
    lines.append("passes_s " + " ".join(f"{t:.3f}" for t in result.pass_s[False]))
    if result.trace:
        lines.append(f"# per layer: self time per set-up + per pass "
                     f"({len(result.setup_s[True])} traced set-ups, "
                     f"{len(result.pass_s[True])} traced passes)")
        for name, unit in PER_LAYER:
            lines.append(f"{name:<26} {result.layer[name]:<12.6g} {unit}")
    for key, dig in sorted(result.digests.items()):
        times = result.op_s.get(key, [])
        med = statistics.median(times) if times else float("nan")
        lines.append(f"op {key} median {med:.4f} s n={len(times)} digest {dig}")
    for what in result.failures:
        lines.append(f"FAILED {what}")
    return lines
