"""Discrete-event flow-level simulation loop.

All flows start at t = 0 (one exchange phase, as in the paper's stencil
runs).  The loop alternates:

1. compute max-min fair rates for the remaining flows, resuming the
   previous solve where it first departs;
2. advance time to the earliest flow completion at those rates;
3. retire completed flows and repeat.

Rates only change when the flow set changes, so this is exact for the
fluid model.  Completion times are reported per flow and aggregated per
message and for the whole exchange (the paper's "communication time").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.appsim.fairshare import SolveRecord, incidence, link_capacity
from repro.appsim.flows import FlowSpec
from repro.errors import SimulationError
from repro.obs import metrics

__all__ = ["AppSimResult", "run_flows"]

_REL_TOL = 1e-9


@dataclass(frozen=True)
class AppSimResult:
    """Completion statistics of one exchange.

    Times are in seconds (capacities are bytes/second).
    """

    flow_completion: np.ndarray
    message_completion: Dict[int, float]
    makespan: float
    mean_flow_completion: float
    mean_message_completion: float
    total_bytes: float

    def makespan_ms(self) -> float:
        """Exchange communication time in milliseconds (the table metric)."""
        return self.makespan * 1e3


def run_flows(
    flows: Sequence[FlowSpec],
    capacity: float | np.ndarray,
    n_links: int | None = None,
) -> AppSimResult:
    """Simulate ``flows`` sharing ``capacity`` until all complete.

    The flow-link incidence is built once and handed to a
    :class:`~repro.appsim.fairshare.SolveRecord`; each completion event
    drops the finished flows from it, and the next max-min solve resumes
    the previous one's water-fill at the first level where the two depart.
    """
    if not flows:
        raise SimulationError("no flows to simulate")
    n = len(flows)
    cap = link_capacity(capacity, n_links)
    remaining = np.asarray([f.nbytes for f in flows], dtype=np.float64)
    if not (np.isfinite(remaining).all() and (remaining > 0).all()):
        raise SimulationError("flow sizes must be positive and finite")
    record = SolveRecord(*incidence([f.links for f in flows], cap.size), cap, n)
    total_bytes = float(remaining.sum())
    completion = np.zeros(n)
    rates = np.full(n, np.inf)  # link-less flows stay unconstrained
    alive = np.arange(n)
    ended = np.empty(0, dtype=np.int64)
    t = 0.0

    events = iters = reused = 0
    with metrics.span("appsim.run_flows"):
        while alive.size:
            events += 1
            if events > n + 1:
                raise SimulationError("flow completion loop failed to converge")
            levels, kept = record.resolve(ended, rates)
            iters += levels
            reused += kept
            alive_rates = rates[alive]
            if not (alive_rates > 0).all():
                raise SimulationError("max-min returned a zero rate")
            ttc = remaining[alive] / alive_rates  # inf-rate flows finish instantly
            dt = float(ttc.min())
            t += dt
            done = ttc <= dt * (1 + _REL_TOL)
            if not done.any():  # pragma: no cover - tolerance net
                raise SimulationError("no flow completed in an event step")
            ended = alive[done]
            completion[ended] = t
            left = ~done
            alive = alive[left]
            remaining[alive] -= alive_rates[left] * dt
    metrics.counter("appsim.runs").inc()
    metrics.counter("appsim.flows").inc(n)
    metrics.counter("appsim.events").inc(events)
    metrics.counter("appsim.waterfill_iters").inc(iters)
    metrics.counter("appsim.waterfill_reused").inc(reused)

    message_completion: Dict[int, float] = {}
    for f, c in zip(flows, completion):
        prev = message_completion.get(f.message_id, 0.0)
        message_completion[f.message_id] = max(prev, float(c))

    msg_times = np.asarray(list(message_completion.values()))
    return AppSimResult(
        flow_completion=completion,
        message_completion=message_completion,
        makespan=float(completion.max()),
        mean_flow_completion=float(completion.mean()),
        mean_message_completion=float(msg_times.mean()),
        total_bytes=total_bytes,
    )
