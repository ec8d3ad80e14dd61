"""Max-min fair bandwidth allocation (progressive filling / water-filling).

Given flows (each a set of link ids) and per-link capacities, computes the
unique max-min fair rate vector: all flows' rates rise together until some
link saturates; flows crossing a saturated link freeze at the current fill
level; the rest keep rising.  This is the steady-state bandwidth sharing of
a congestion-controlled transport, which is what the flow-level application
simulator advances between completion events.

Flows enter the solver as a flow-major incidence list: one ``(flow, link)``
entry per link a flow crosses, in flow order (CSR with the row ids spelled
out).  :func:`waterfill` runs the fill over that list with whole-array
steps; each iteration costs O(links + live incidences) and iterations are
bounded by the number of distinct bottleneck levels (at most the link
count).  :func:`maxmin_rates` and the event loop of
:func:`repro.appsim.simulator.run_flows` both call it.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.errors import SimulationError

__all__ = ["maxmin_rates", "link_capacity", "incidence", "waterfill"]

_EPS = 1e-12


def link_capacity(capacity: np.ndarray | float, n_links: int | None) -> np.ndarray:
    """Per-link capacity array from a scalar or per-link ``capacity``."""
    if np.isscalar(capacity):
        if n_links is None:
            raise SimulationError("n_links is required with scalar capacity")
        cap = np.full(int(n_links), float(capacity))
    else:
        cap = np.asarray(capacity, dtype=np.float64).copy()
        if n_links is not None and cap.size != n_links:
            raise SimulationError(
                f"capacity array has {cap.size} entries but n_links is {n_links}"
            )
    if (cap <= 0).any():
        raise SimulationError("all link capacities must be positive")
    return cap


def incidence(
    flow_links: Sequence[np.ndarray], n_links: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Flow-major ``(flow_of, link_of)`` incidence arrays of ``flow_links``.

    A flow listing a link twice contributes two entries; a flow with no
    links contributes none.  Link ids must lie in ``[0, n_links)``.
    """
    sizes = np.fromiter((len(links) for links in flow_links), np.int64, len(flow_links))
    if not sizes.any():
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    link_of = np.concatenate(
        [np.asarray(links).ravel() for links in flow_links if len(links)]
    )
    if link_of.dtype.kind not in "iu":
        raise SimulationError(f"link ids must be integers, not {link_of.dtype}")
    link_of = link_of.astype(np.int64, copy=False)
    lo, hi = int(link_of.min()), int(link_of.max())
    if lo < 0 or hi >= n_links:
        bad = lo if lo < 0 else hi
        raise SimulationError(f"link id {bad} outside [0, {n_links})")
    flow_of = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    return flow_of, link_of


def waterfill(
    flow_of: np.ndarray,
    link_of: np.ndarray,
    count: np.ndarray,
    cap: np.ndarray,
    rates: np.ndarray,
) -> int:
    """Water-fill the flows of a flow-major incidence list; return iterations.

    ``count[l]`` must equal the number of entries of ``link_of`` equal to
    ``l``; ``cap`` holds the per-link capacities.  Both are consumed
    (``count`` ends at zero, ``cap`` at each link's leftover).  Every flow
    named in ``flow_of`` has its rate written into ``rates``, which is
    indexed by flow id; other entries are left alone.
    """
    fill = 0.0
    iters = 0
    frozen = np.zeros(rates.size, dtype=bool)
    while link_of.size:
        iters += 1
        used = count > 0
        n_used = count[used]
        r = float((cap[used] / n_used).min())
        fill += r
        cap[used] -= n_used * r
        # Freeze every live flow crossing a now-saturated link.
        saturated = used & (cap <= _EPS * fill + _EPS)
        hit = flow_of[saturated[link_of]]
        if hit.size == 0:  # pragma: no cover - float-safety net
            raise SimulationError("water-filling failed to saturate a link")
        frozen[hit] = True
        rates[hit] = fill
        gone = frozen[flow_of]
        count -= np.bincount(link_of[gone], minlength=count.size)
        keep = ~gone
        flow_of = flow_of[keep]
        link_of = link_of[keep]
    return iters


def maxmin_rates(
    flow_links: Sequence[np.ndarray],
    capacity: np.ndarray | float,
    n_links: int | None = None,
) -> np.ndarray:
    """Max-min fair rates for ``flow_links`` under ``capacity``.

    Parameters
    ----------
    flow_links:
        Per flow, the array of directed link ids it traverses.  A flow with
        no links (e.g. a zero-hop logical transfer) is unconstrained and
        reported at ``inf``.
    capacity:
        Scalar (uniform) or per-link array of capacities, in any rate unit;
        returned rates use the same unit.
    n_links:
        Total number of links (required when ``capacity`` is scalar; must
        match a per-link ``capacity`` array when given).
    """
    cap = link_capacity(capacity, n_links)
    flow_of, link_of = incidence(flow_links, cap.size)
    rates = np.full(len(flow_links), np.inf)
    count = np.bincount(link_of, minlength=cap.size)
    waterfill(flow_of, link_of, count, cap, rates)
    return rates
