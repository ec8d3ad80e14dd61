"""Path-selection schemes as composable selector objects.

Each selector encapsulates one of the paper's path-selection policies and
produces a :class:`~repro.core.path.PathSet` per switch pair:

========== ============================================= ==================
name        algorithm                                     paper notation
========== ============================================= ==================
``ksp``     Yen's KSP, deterministic tie-break            KSP(k)
``rksp``    Yen's KSP, randomized tie-break               rKSP(k)
``edksp``   Remove-Find edge-disjoint, deterministic      EDKSP(k)
``redksp``  Remove-Find edge-disjoint, randomized         rEDKSP(k)
``llskr``   limited length spread (Yuan et al. [2])       LLSKR
``sp``      the single shortest path                      SP
``ecmp``    equal-cost shortest paths only                ECMP
========== ============================================= ==================

Selectors are stateless; randomness comes from the ``rng`` handed to
:meth:`PathSelector.select`, so a fixed seed plus a fixed pair is perfectly
reproducible no matter the evaluation order.  :meth:`PathSelector.select_many`
computes many pairs in one call: the Remove-Find schemes run them through
one lock-step kernel, the others loop :meth:`~PathSelector.select`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.core.ecmp import ecmp_paths
from repro.core.llskr import llskr_paths
from repro.core.path import Path, PathSet
from repro.core.remove_find import edge_disjoint_paths_many
from repro.core.yen import k_shortest_paths
from repro.errors import ConfigurationError
from repro.utils.rng import SeedLike

__all__ = [
    "PathSelector",
    "KSPSelector",
    "RandomizedKSPSelector",
    "EdgeDisjointKSPSelector",
    "RandomizedEdgeDisjointKSPSelector",
    "LLSKRSelector",
    "SingleShortestPathSelector",
    "ECMPSelector",
    "SCHEMES",
    "make_selector",
    "compute_paths",
]


class PathSelector:
    """Base class: maps a switch pair to its PathSet on a given graph."""

    #: registry key / display name, set by subclasses
    name: str = ""
    #: whether the selection draws random numbers
    randomized: bool = False

    def select(
        self,
        adj: Sequence[Sequence[int]],
        source: int,
        destination: int,
        k: int,
        rng: SeedLike = None,
    ) -> PathSet:
        raise NotImplementedError

    def select_many(
        self,
        adj: Sequence[Sequence[int]],
        pairs: Sequence[Tuple[int, int]],
        k: int,
        rngs: Optional[Sequence[SeedLike]] = None,
    ) -> List[PathSet]:
        """One PathSet per ``(source, destination)`` in ``pairs``.

        ``rngs`` holds one seed or generator per pair, as :meth:`select`
        takes them (``None``: ``None`` for every pair).
        """
        if rngs is None:
            rngs = [None] * len(pairs)
        return [
            self.select(adj, s, d, k, rng) for (s, d), rng in zip(pairs, rngs)
        ]

    def signature(self) -> Tuple:
        """A stable, JSON-able identity tuple for persistence keys.

        Subclasses with constructor knobs that change the produced paths
        must extend this — the persistent path store hashes it.
        """
        return (self.name,)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class KSPSelector(PathSelector):
    """Vanilla KSP: Yen's algorithm with the deterministic small-id bias."""

    name = "ksp"
    randomized = False

    def select(self, adj, source, destination, k, rng=None) -> PathSet:
        paths = k_shortest_paths(adj, source, destination, k, tie="min")
        return PathSet(source, destination, paths)


class RandomizedKSPSelector(PathSelector):
    """rKSP: Yen's algorithm with uniform random tie-breaking."""

    name = "rksp"
    randomized = True

    def select(self, adj, source, destination, k, rng=None) -> PathSet:
        paths = k_shortest_paths(adj, source, destination, k, tie="random", rng=rng)
        return PathSet(source, destination, paths)


class EdgeDisjointKSPSelector(PathSelector):
    """EDKSP: Remove-Find edge-disjoint paths, deterministic tie-breaking."""

    name = "edksp"
    randomized = False
    tie = "min"

    def select(self, adj, source, destination, k, rng=None) -> PathSet:
        return self.select_many(adj, [(source, destination)], k, [rng])[0]

    def select_many(self, adj, pairs, k, rngs=None) -> List[PathSet]:
        found = edge_disjoint_paths_many(adj, pairs, k, tie=self.tie, rngs=rngs)
        return [PathSet(s, d, paths) for (s, d), paths in zip(pairs, found)]


class RandomizedEdgeDisjointKSPSelector(EdgeDisjointKSPSelector):
    """rEDKSP: Remove-Find with randomized tie-breaking (the paper's best)."""

    name = "redksp"
    randomized = True
    tie = "random"


class LLSKRSelector(PathSelector):
    """LLSKR baseline: variable path count within a length spread."""

    name = "llskr"
    randomized = False

    def __init__(self, spread: int = 1, k_min: int | None = None):
        self.spread = spread
        self.k_min = k_min

    def signature(self) -> Tuple:
        return (self.name, self.spread, self.k_min)

    def select(self, adj, source, destination, k, rng=None) -> PathSet:
        # ``k`` acts as LLSKR's k_max; k_min defaults to half of it.
        k_min = self.k_min if self.k_min is not None else max(1, k // 2)
        paths = llskr_paths(
            adj, source, destination,
            k_min=min(k_min, k), k_max=k, spread=self.spread, tie="min",
        )
        return PathSet(source, destination, paths)


class SingleShortestPathSelector(PathSelector):
    """SP: the single deterministic shortest path (the paper's baseline)."""

    name = "sp"
    randomized = False

    def select(self, adj, source, destination, k, rng=None) -> PathSet:
        paths: List[Path] = k_shortest_paths(adj, source, destination, 1, tie="min")
        return PathSet(source, destination, paths)


class ECMPSelector(PathSelector):
    """ECMP: equal-cost shortest paths only (the poor Jellyfish baseline).

    Deterministic by default (lexicographically-smallest paths, mimicking
    a biased hardware hash); with an rng the kept subset is sampled.
    """

    name = "ecmp"
    randomized = False

    def select(self, adj, source, destination, k, rng=None) -> PathSet:
        return PathSet(source, destination, ecmp_paths(adj, source, destination, k))


SCHEMES: Dict[str, Type[PathSelector]] = {
    cls.name: cls
    for cls in (
        KSPSelector,
        RandomizedKSPSelector,
        EdgeDisjointKSPSelector,
        RandomizedEdgeDisjointKSPSelector,
        LLSKRSelector,
        SingleShortestPathSelector,
        ECMPSelector,
    )
}


def make_selector(scheme: str, **kwargs) -> PathSelector:
    """Instantiate a selector from its registry name (e.g. ``"redksp"``)."""
    try:
        cls = SCHEMES[scheme]
    except KeyError:
        raise ConfigurationError(
            f"unknown path-selection scheme {scheme!r}; "
            f"choose from {sorted(SCHEMES)}"
        ) from None
    return cls(**kwargs)


def compute_paths(
    adj: Sequence[Sequence[int]],
    source: int,
    destination: int,
    k: int,
    scheme: str = "ksp",
    rng: SeedLike = None,
) -> PathSet:
    """One-call convenience: ``make_selector(scheme).select(...)``."""
    return make_selector(scheme).select(adj, source, destination, k, rng)
