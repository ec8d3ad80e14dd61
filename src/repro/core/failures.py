"""Link-failure analysis of precomputed path sets.

The Remove-Find method the paper adopts comes from reliable-routing work
(Guo et al. [9]): pairwise link-disjoint paths survive single-link
failures by construction.  This module quantifies that advantage for any
selector — given a set of failed physical links, which of a pair's paths
survive, and how often a pair keeps at least one usable path.

Failures are *undirected*: a failed cable kills both directions.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.cache import PathCache
from repro.core.path import Path, PathSet
from repro.errors import TrafficError
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive_int

__all__ = [
    "normalise_failures",
    "surviving_paths",
    "pair_survives",
    "sample_link_failures",
    "failure_resilience",
]

Edge = Tuple[int, int]


def normalise_failures(failed: Iterable[Edge]) -> frozenset:
    """Normalise failed links to ``(min, max)`` endpoint order."""
    return frozenset((min(u, v), max(u, v)) for u, v in failed)


def surviving_paths(ps: PathSet, failed: AbstractSet[Edge]) -> List[Path]:
    """The pair's paths that avoid every failed link."""
    failed = normalise_failures(failed)
    return [
        p for p in ps if not any(e in failed for e in p.undirected_edges())
    ]


def pair_survives(ps: PathSet, failed: AbstractSet[Edge]) -> bool:
    """True if at least one of the pair's paths avoids all failed links."""
    return bool(surviving_paths(ps, failed))


def sample_link_failures(
    edges: Sequence[Edge], n_failures: int, rng: SeedLike = None
) -> frozenset:
    """A uniform random set of ``n_failures`` distinct failed cables."""
    check_positive_int(n_failures, "n_failures")
    if n_failures > len(edges):
        raise TrafficError(
            f"cannot fail {n_failures} of {len(edges)} links"
        )
    generator = ensure_rng(rng)
    picks = generator.choice(len(edges), size=n_failures, replace=False)
    return normalise_failures(edges[i] for i in picks)


def failure_resilience(
    paths: PathCache,
    pairs: Sequence[Tuple[int, int]],
    n_failures: int,
    trials: int = 20,
    seed: SeedLike = None,
) -> dict:
    """Monte-Carlo resilience of a path table under random link failures.

    For each trial, fails ``n_failures`` random cables and measures, over
    ``pairs``:

    - ``pair_survival`` — fraction of pairs retaining >= 1 usable path;
    - ``path_survival`` — fraction of all paths that remain usable.

    Returns the trial means.  Edge-disjoint path sets dominate here: a
    single failed cable can kill at most one of their paths, while it can
    wipe out a vanilla-KSP pair whose paths share that cable.
    """
    check_positive_int(trials, "trials")
    # One bulk warm; the per-trial gets below are then all hits.
    paths.precompute(pairs)
    edges = paths.topology.undirected_edges()
    rng = ensure_rng(seed)
    pair_frac = []
    path_frac = []
    for _ in range(trials):
        failed = sample_link_failures(edges, n_failures, rng)
        survived_pairs = 0
        survived_paths = 0
        total_paths = 0
        for s, d in pairs:
            ps = paths.get(s, d)
            alive = surviving_paths(ps, failed)
            survived_pairs += bool(alive)
            survived_paths += len(alive)
            total_paths += ps.k
        pair_frac.append(survived_pairs / len(pairs))
        path_frac.append(survived_paths / total_paths)
    return {
        "pair_survival": float(np.mean(pair_frac)),
        "path_survival": float(np.mean(path_frac)),
        "n_failures": n_failures,
        "trials": trials,
    }
