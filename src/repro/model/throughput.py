"""Throughput model for multi-path routing (Eq. 1, after Yuan et al. [2]).

Each flow ``(s, d)`` is realised as ``k`` sub-flows, one per selected path
(an MPTCP-like transport).  The model:

1. counts, for every link, how many sub-flows of the whole pattern traverse
   it (``X``); the link load is ``X / C`` with unit capacities;
2. rates each sub-flow at the reciprocal of the *maximum* load along its
   path — the bottleneck link shared equally among its users;
3. sums a flow's sub-flow rates:  ``T(s, d) = Σ_n 1 / max load on path_n``.

Paths include the source's injection link (host -> switch) and the
destination's ejection link (switch -> host).  Because all ``k`` sub-flows
of a flow cross the same injection link, the per-flow rate is naturally
capped at 1 (full node bandwidth) and the per-node aggregate — the
"normalized per node throughput" of Figures 4-6 — is directly comparable to
the paper's plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.cache import PathCache
from repro.errors import ModelError
from repro.topology.jellyfish import Jellyfish
from repro.traffic.patterns import Pattern

__all__ = ["ThroughputResult", "model_throughput"]


@dataclass(frozen=True)
class ThroughputResult:
    """Output of :func:`model_throughput` for one pattern.

    Attributes
    ----------
    flows:
        The (source host, destination host) pairs, in input order.
    per_flow:
        Modelled rate of each flow (same order), in units of link capacity.
    link_load:
        Sub-flow usage count per directed link id (the model's ``X``).
    n_hosts:
        Host count of the topology the model ran on.
    """

    flows: Tuple[Tuple[int, int], ...]
    per_flow: np.ndarray
    link_load: np.ndarray
    n_hosts: int

    def mean_per_flow(self) -> float:
        """Average modelled rate over flows."""
        return float(self.per_flow.mean()) if len(self.per_flow) else 0.0

    def min_per_flow(self) -> float:
        """Worst flow rate — the pattern's straggler."""
        return float(self.per_flow.min()) if len(self.per_flow) else 0.0

    def per_node(self) -> np.ndarray:
        """Aggregate rate per source host (sum of its flows' rates)."""
        agg = np.zeros(self.n_hosts)
        for (s, _), r in zip(self.flows, self.per_flow):
            agg[s] += r
        return agg

    def mean_per_node(self) -> float:
        """Average over *sending* hosts of the per-node aggregate rate.

        This is the paper's normalized per-node throughput: 1.0 means each
        sender sustains full injection bandwidth.
        """
        if not self.flows:
            return 0.0
        agg = self.per_node()
        senders = np.unique([s for s, _ in self.flows])
        return float(agg[senders].mean())

    def max_link_utilisation(self) -> float:
        """Peak link load after rating, as a sanity diagnostic (<= 1 + eps)."""
        # Recompute actual carried load per link from the rated sub-flows is
        # owned by tests; here report the raw usage-count maximum.
        return float(self.link_load.max()) if self.link_load.size else 0.0


def model_throughput(
    topology: Jellyfish,
    flows: Pattern | Iterable[Tuple[int, int]],
    paths: PathCache,
) -> ThroughputResult:
    """Run the Eq. 1 throughput model for ``flows`` on ``topology``.

    ``paths`` supplies the k paths per switch pair (so the same call
    evaluates KSP/rKSP/EDKSP/rEDKSP/SP by swapping the cache's scheme).
    """
    flow_list: List[Tuple[int, int]] = [(int(s), int(d)) for s, d in flows]
    if not flow_list:
        raise ModelError("the flow set is empty")
    for s, d in flow_list:
        if not (0 <= s < topology.n_hosts and 0 <= d < topology.n_hosts):
            raise ModelError(
                f"flow ({s}, {d}) outside host range [0, {topology.n_hosts})"
            )
        if s == d:
            raise ModelError(f"self-flow ({s}, {d}) has no network usage")

    # Resolve every flow to its sub-flow link-id lists once; accumulate
    # usage counts along the way.
    load = np.zeros(topology.n_links, dtype=np.float64)
    subflow_links: List[List[np.ndarray]] = []
    switch_pairs = [
        (topology.switch_of_host(s), topology.switch_of_host(d)) for s, d in flow_list
    ]
    # One bulk warm of the distinct switch pairs; the gets below all hit.
    paths.precompute(dict.fromkeys(switch_pairs))
    for (s, d), (ss, ds) in zip(flow_list, switch_pairs):
        pathset = paths.get(ss, ds)
        per_flow_links: List[np.ndarray] = []
        inj = topology.injection_link(s)
        ej = topology.ejection_link(d)
        for path in pathset:
            ids = topology.path_link_ids(path.nodes)
            arr = np.asarray([inj, *ids, ej], dtype=np.int64)
            per_flow_links.append(arr)
            np.add.at(load, arr, 1.0)
        subflow_links.append(per_flow_links)

    # Rate each sub-flow by its bottleneck and sum per flow (Eq. 1).
    per_flow = np.empty(len(flow_list), dtype=np.float64)
    for i, per_flow_links in enumerate(subflow_links):
        total = 0.0
        for arr in per_flow_links:
            total += 1.0 / float(load[arr].max())
        per_flow[i] = total

    return ThroughputResult(
        flows=tuple(flow_list),
        per_flow=per_flow,
        link_load=load,
        n_hosts=topology.n_hosts,
    )
