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
count).  :func:`maxmin_rates` calls it once; :class:`SolveRecord` keeps
what a solve did so the event loop of
:func:`repro.appsim.simulator.run_flows` resumes each re-solve at the first
fill level where it departs from the previous one.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.errors import SimulationError

__all__ = ["maxmin_rates", "link_capacity", "incidence", "waterfill", "SolveRecord"]

_EPS = 1e-12

#: Byte budget of a :class:`SolveRecord`'s checkpoints (every link's
#: capacity state at the start of every ``stride``-th fill level).
_RECORD_BYTES = 8 << 20


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
    if not np.isfinite(cap).all():
        raise SimulationError("all link capacities must be finite")
    if (cap <= 0).any():
        raise SimulationError("all link capacities must be positive")
    return cap


def incidence(
    flow_links: Sequence[np.ndarray], n_links: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Flow-major ``(flow_of, link_of)`` incidence arrays of ``flow_links``.

    A flow listing a link twice contributes two entries; a flow with no
    links contributes none.  Each flow's links must be a 1-D sequence of
    integer ids in ``[0, n_links)``.
    """
    arrays = [np.asarray(links) for links in flow_links]
    for links in arrays:
        if links.ndim != 1:
            raise SimulationError(
                f"a flow's links must be a 1-D array of link ids, not shape {links.shape}"
            )
    sizes = np.fromiter((links.size for links in arrays), np.int64, len(arrays))
    if not sizes.any():
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    link_of = np.concatenate([links for links in arrays if links.size])
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
    record: SolveRecord | None = None,
    level: int = 0,
    fill: float = 0.0,
) -> int:
    """Water-fill the flows of a flow-major incidence list; return iterations.

    ``count[l]`` must equal the number of entries of ``link_of`` equal to
    ``l``; ``cap`` holds the per-link capacities and is consumed: a link
    with no flows left carries ``cap = inf``, so it never sets the fill
    step and never saturates.  Every flow named in ``flow_of`` has its
    rate written into ``rates``, which is indexed by flow id; other entries
    are left alone.

    ``level`` and ``fill`` start the fill part-way, from the state a solve
    had at the start of fill level ``level``; ``record`` (if given) is told
    every level's step, fill and frozen flows.
    """
    count = count.astype(np.float64)
    np.putmask(cap, count == 0, np.inf)
    frozen = np.zeros(rates.size, dtype=bool)
    k = level
    while link_of.size:
        if record is not None:
            record.checkpoint(k, cap)
        r = float(np.minimum.reduce(cap / count))
        fill += r
        cap -= count * r
        # Freeze every live flow crossing a now-saturated link.
        saturated = cap <= _EPS * fill + _EPS
        hit = flow_of[saturated[link_of]]
        if hit.size == 0:  # pragma: no cover - float-safety net
            raise SimulationError("water-filling failed to saturate a link")
        frozen[hit] = True
        rates[hit] = fill
        if record is not None:
            record.steps[k] = r
            record.fills[k] = fill
            record.level_of[hit] = k
        gone = frozen[flow_of]
        count -= np.bincount(link_of[gone], minlength=count.size)
        np.putmask(cap, count == 0, np.inf)
        keep = ~gone
        flow_of = flow_of[keep]
        link_of = link_of[keep]
        k += 1
    if record is not None:
        record.levels = k
    return k - level


class SolveRecord:
    """An event loop's last max-min solve, for the next one to resume from.

    The record owns the incidence list of the live flows.  Per fill level
    ``k`` of the last solve it keeps the step ``steps[k]`` and the fill
    after it ``fills[k]``; per flow the level it froze at; and every link's
    capacity state at the start of every ``stride``-th level, within a
    :data:`_RECORD_BYTES` budget (the stride doubles when the checkpoints
    would outgrow it).

    :meth:`resolve` drops the flows that finished and replays only the
    links A they cross over the old levels, with the old and the new flow
    counts.  The new solve departs from the old one at the first level
    where an A link set the step in the old solve, or where a finished
    flow froze, whichever comes first.  Before it every other link sees
    the same counts and steps, hence the same floats, so the water-fill
    resumes there (from the checkpoint at or below it, with the A links
    patched) and is bit-identical to a solve from full capacity.
    """

    def __init__(
        self, flow_of: np.ndarray, link_of: np.ndarray, cap: np.ndarray, n_flows: int
    ):
        n_links = cap.size
        self.flow_of = flow_of
        self.link_of = link_of
        self.cap = cap
        self.done = np.zeros(n_flows, dtype=bool)
        self.level_of = np.zeros(n_flows, dtype=np.int64)
        # Each level saturates at least one link, and a saturated link has
        # no flows left, so a solve has at most n_links levels.
        self.steps = np.empty(n_links)
        self.fills = np.empty(n_links)
        rows = min(n_links + 1, _RECORD_BYTES // (8 * max(n_links, 1)))
        self.ckpt = np.empty((max(2, rows - rows % 2), n_links))
        self.stride = 1
        self.levels: int | None = None

    def checkpoint(self, k: int, cap: np.ndarray) -> None:
        """Keep ``cap`` as the state at the start of level ``k`` if due."""
        if k % self.stride:
            return
        i = k // self.stride
        if i == len(self.ckpt):
            i //= 2
            self.ckpt[:i] = self.ckpt[::2]
            self.stride *= 2
        self.ckpt[i] = cap

    def resolve(self, ended: np.ndarray, rates: np.ndarray) -> Tuple[int, int]:
        """Drop the ``ended`` flows and re-solve the rest into ``rates``.

        Returns the solve's fill levels and how many of them were taken
        from the previous solve.  Rates of flows that froze before the
        resume level are left as the previous solve wrote them.
        """
        self.done[ended] = True
        gone = self.done[self.flow_of]
        if self.levels is None:
            start, patch = 0, None
        else:
            start, patch = self._departure(gone)
            if patch is None:
                return self.levels, self.levels
        keep = ~gone
        self.flow_of = flow_of = self.flow_of[keep]
        self.link_of = link_of = self.link_of[keep]
        start -= start % self.stride
        if start == 0:
            cap, fill = self.cap.copy(), 0.0
        else:
            links, caps = patch
            due = np.arange(0, start, self.stride)
            self.ckpt[due[:, None] // self.stride, links] = caps[due]
            cap, fill = self.ckpt[start // self.stride].copy(), float(self.fills[start - 1])
            cap[links] = caps[start]
            live = self.level_of[flow_of] >= start
            flow_of, link_of = flow_of[live], link_of[live]
        count = np.bincount(link_of, minlength=cap.size)
        waterfill(flow_of, link_of, count, cap, rates, self, start, fill)
        return self.levels, start

    def _departure(
        self, gone: np.ndarray
    ) -> Tuple[int, Tuple[np.ndarray, np.ndarray] | None]:
        """First level where the solve without the ``gone`` incidences departs.

        Returns the level and ``(links, caps)``: the links A the gone flows
        cross and, per level up to the returned one, their new capacity
        (stale once a link has no flows left; the kernel marks those), or
        ``None`` when no gone flow crosses a link and the old solve stands
        whole.
        """
        flow_of, link_of = self.flow_of, self.link_of
        on = np.zeros(self.cap.size, dtype=bool)
        on[link_of[gone]] = True
        links = np.flatnonzero(on)
        if links.size == 0:
            return self.levels, None
        # A finished flow froze because a link of its saturated, so the
        # solve departs at the lowest such level at the latest.  No A link
        # saturates below it: its finished flows would have frozen with it.
        last = int(self.level_of[flow_of[gone]].min())
        sel = on[link_of]
        col = np.searchsorted(links, link_of[sel])
        cell = np.minimum(self.level_of[flow_of[sel]], last) * links.size + col
        # Replay A over levels 0..last, once with the old flows ([0]) and
        # once without the gone ones ([1]): count[:, k] is the incidences
        # still live at level k, caps[:, k] the capacity at its start, by
        # the kernel's products in the kernel's order.
        shape = (2, last + 1, links.size)
        size = shape[1] * shape[2]
        cells = np.concatenate([cell, cell[~gone[sel]] + size])
        freeze = np.bincount(cells, minlength=2 * size).reshape(shape)
        count = np.cumsum(freeze[:, ::-1], axis=1)[:, ::-1]
        step = self.steps[:last, None]
        terms = np.empty(shape)
        terms[:, 0] = self.cap[links]
        np.multiply(count[:, :-1], step, out=terms[:, 1:])
        caps = np.subtract.accumulate(terms, axis=1)
        # Below that, the solve departs where an A link that was live in
        # the old solve set the step.  Fewer flows never leave a link less
        # capacity, a smaller share or a smaller leftover (rounding is
        # monotone), so elsewhere no A link undercuts the step or newly
        # saturates, and every other link repeats its old floats.
        live = count[0, :-1] > 0
        share = np.divide(caps[0, :-1], count[0, :-1], out=np.full(live.shape, np.inf), where=live)
        departs = (share <= step).any(axis=1)
        first = int(np.argmax(departs)) if departs.any() else last
        return first, (links, caps[1])


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
