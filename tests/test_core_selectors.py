"""Unit tests for the selector facade, LLSKR, the cache, and properties."""

import itertools

import numpy as np
import pytest

from repro.core import (
    PathCache,
    compute_paths,
    make_selector,
    SCHEMES,
)
from repro.core.llskr import llskr_paths
from repro.core.properties import (
    average_path_length,
    fraction_disjoint_pairs,
    max_link_sharing,
    path_quality_report,
    pathset_is_edge_disjoint,
    pathset_max_link_sharing,
)
from repro.core.path import Path, PathSet
from repro.errors import ConfigurationError


class TestSelectors:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_every_scheme_produces_valid_pathset(self, small_jellyfish, scheme):
        adj = small_jellyfish.adjacency
        rng = np.random.default_rng(0)
        ps = make_selector(scheme).select(adj, 0, 7, 4, rng)
        assert ps.source == 0 and ps.destination == 7
        assert 1 <= ps.k <= 4 or scheme == "llskr"
        for p in ps:
            for u, v in p.edges():
                assert v in adj[u]

    def test_sp_returns_one_path(self, small_jellyfish):
        ps = compute_paths(small_jellyfish.adjacency, 0, 7, 8, "sp")
        assert ps.k == 1

    def test_edksp_disjoint(self, small_jellyfish):
        ps = compute_paths(small_jellyfish.adjacency, 0, 7, 4, "edksp")
        assert pathset_is_edge_disjoint(ps)

    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            make_selector("nope")

    def test_registry_names_match_classes(self):
        for name, cls in SCHEMES.items():
            assert cls.name == name

    def test_deterministic_schemes_ignore_rng(self, small_jellyfish):
        adj = small_jellyfish.adjacency
        a = compute_paths(adj, 0, 7, 4, "ksp", rng=np.random.default_rng(1))
        b = compute_paths(adj, 0, 7, 4, "ksp", rng=np.random.default_rng(2))
        assert a == b


class TestLLSKR:
    def test_spread_zero_keeps_only_shortest_length(self, small_jellyfish):
        adj = small_jellyfish.adjacency
        paths = llskr_paths(adj, 0, 7, k_min=1, k_max=16, spread=0)
        lengths = {p.hops for p in paths}
        assert len(lengths) == 1

    def test_spread_window_respected(self, small_jellyfish):
        adj = small_jellyfish.adjacency
        paths = llskr_paths(adj, 0, 7, k_min=1, k_max=16, spread=1)
        shortest = paths[0].hops
        assert all(p.hops <= shortest + 1 for p in paths)

    def test_k_min_enforced_with_long_paths(self, ring_adjacency):
        # Only 2 simple paths exist on a 6-cycle (3 and 3 hops from 0 to 3).
        paths = llskr_paths(ring_adjacency, 0, 3, k_min=2, k_max=8, spread=0)
        assert len(paths) == 2

    def test_k_max_enforced(self, small_jellyfish):
        paths = llskr_paths(small_jellyfish.adjacency, 0, 7, k_min=1, k_max=3, spread=2)
        assert len(paths) <= 3

    def test_invalid_parameters(self, ring_adjacency):
        with pytest.raises(ConfigurationError):
            llskr_paths(ring_adjacency, 0, 3, k_min=4, k_max=2)
        with pytest.raises(ConfigurationError):
            llskr_paths(ring_adjacency, 0, 3, spread=-1)

    def test_selector_flavor(self, small_jellyfish):
        ps = compute_paths(small_jellyfish.adjacency, 0, 7, 8, "llskr")
        assert ps.k >= 1


class TestPathCache:
    def test_memoises(self, small_jellyfish):
        cache = PathCache(small_jellyfish, "rksp", k=4, seed=3)
        a = cache.get(0, 7)
        b = cache.get(0, 7)
        assert a is b
        assert (0, 7) in cache and len(cache) == 1

    def test_order_independent_for_randomized_scheme(self, small_jellyfish):
        c1 = PathCache(small_jellyfish, "redksp", k=4, seed=3)
        c2 = PathCache(small_jellyfish, "redksp", k=4, seed=3)
        # Warm c2 with other pairs first: (0,7) must still match.
        c2.get(3, 9)
        c2.get(1, 2)
        assert c1.get(0, 7) == c2.get(0, 7)

    def test_seed_changes_randomized_paths_somewhere(self, small_jellyfish):
        c1 = PathCache(small_jellyfish, "redksp", k=4, seed=3)
        c2 = PathCache(small_jellyfish, "redksp", k=4, seed=4)
        pairs = [(s, d) for s in range(6) for d in range(6) if s != d]
        assert any(c1.get(s, d) != c2.get(s, d) for s, d in pairs)

    def test_out_of_range_pair_rejected(self, small_jellyfish):
        cache = PathCache(small_jellyfish, "ksp", k=2)
        with pytest.raises(ConfigurationError, match="out of range"):
            cache.get(0, 99)
        with pytest.raises(ConfigurationError, match="out of range"):
            cache.get(-1, 0)
        assert cache.misses == 0 and len(cache) == 0

    def test_precompute(self, small_jellyfish):
        cache = PathCache(small_jellyfish, "ksp", k=4)
        cache.precompute([(0, 1), (2, 3)])
        assert len(cache) == 2

    @pytest.mark.parametrize("warm", ["precompute", "precompute_parallel"])
    @pytest.mark.parametrize("scheme", ["redksp", "ksp"])
    def test_warm_validates_every_pair_before_computing(
        self, small_jellyfish, warm, scheme
    ):
        # An out-of-range pair anywhere in the list: nothing before it may
        # be computed or tallied.
        cache = PathCache(small_jellyfish, scheme, k=2)
        cache.get(0, 1)
        with pytest.raises(ConfigurationError, match="out of range"):
            getattr(cache, warm)([(0, 2), (3, 4), (0, 99), (5, 6)])
        assert len(cache) == 1 and (0, 2) not in cache and (3, 4) not in cache
        assert (cache.hits, cache.misses) == (0, 1)

    def test_precompute_tallies_like_one_get_per_pair(self, small_jellyfish):
        cache = PathCache(small_jellyfish, "redksp", k=3, seed=2)
        cache.get(0, 1)
        cache.precompute([(0, 1), (2, 3), (2, 3), (4, 4)])
        assert (cache.hits, cache.misses) == (2, 3)
        assert cache.get(2, 3) == PathCache(
            small_jellyfish, "redksp", k=3, seed=2
        ).get(2, 3)

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_select_many_matches_select(self, small_jellyfish, scheme):
        sel = make_selector(scheme)
        adj = small_jellyfish.kernels
        pairs = [(0, 5), (3, 3), (7, 2), (0, 5)]
        seeds = [11, 12, 13, 14]
        many = sel.select_many(adj, pairs, 4, [np.random.default_rng(x) for x in seeds])
        one = [
            sel.select(adj, s, d, 4, np.random.default_rng(x))
            for (s, d), x in zip(pairs, seeds)
        ]
        assert many == one

    def test_all_pairs_count(self, small_jellyfish):
        cache = PathCache(small_jellyfish, "sp", k=1)
        n = small_jellyfish.n_switches
        assert sum(1 for _ in cache.all_pairs()) == n * (n - 1)

    def test_invalid_k(self, small_jellyfish):
        with pytest.raises(ConfigurationError):
            PathCache(small_jellyfish, "ksp", k=0)


class TestProperties:
    def _ps(self, *node_lists):
        paths = [Path(nl) for nl in node_lists]
        return PathSet(paths[0].source, paths[0].destination, paths)

    def test_max_sharing_counts_undirected(self):
        ps = self._ps([0, 1, 2], [0, 1, 3, 2])
        assert pathset_max_link_sharing(ps) == 2  # link (0,1) shared

    def test_disjoint_detection(self):
        ps = self._ps([0, 1, 2], [0, 3, 2])
        assert pathset_is_edge_disjoint(ps)
        assert pathset_max_link_sharing(ps) == 1

    def test_trivial_pathset_sharing_zero(self):
        ps = PathSet(4, 4, [Path([4])])
        assert pathset_max_link_sharing(ps) == 0
        assert pathset_is_edge_disjoint(ps)

    def test_aggregate_metrics(self):
        shared = self._ps([0, 1, 2], [0, 1, 3, 2])
        disjoint = self._ps([5, 6], [5, 7, 6])
        sets = [shared, disjoint]
        assert average_path_length(sets) == pytest.approx((2 + 3 + 1 + 2) / 4)
        assert fraction_disjoint_pairs(sets) == pytest.approx(0.5)
        assert max_link_sharing(sets) == 2

    def test_empty_iterables(self):
        assert average_path_length([]) == 0.0
        assert fraction_disjoint_pairs([]) == 0.0
        assert max_link_sharing([]) == 0

    def test_report_consistent_with_parts(self, small_jellyfish):
        cache = PathCache(small_jellyfish, "ksp", k=4)
        pairs = list(itertools.islice(cache.all_pairs(), 40))
        report = path_quality_report(pairs)
        assert report["pairs"] == 40
        assert report["average_path_length"] == pytest.approx(average_path_length(pairs))
        assert report["fraction_disjoint_pairs"] == pytest.approx(
            fraction_disjoint_pairs(pairs)
        )
        assert report["max_link_sharing"] == max_link_sharing(pairs)


class TestPaperTableShapes:
    """Tables II-IV shape checks on a small Jellyfish: the *relations* the
    paper reports must hold on any reasonable instance."""

    @pytest.fixture(scope="class")
    def reports(self, paper_small_jellyfish):
        out = {}
        for scheme in ("ksp", "rksp", "edksp", "redksp"):
            cache = PathCache(paper_small_jellyfish, scheme, k=8, seed=0)
            pairs = [
                cache.get(s, d)
                for s in range(12)
                for d in range(12)
                if s != d
            ]
            out[scheme] = path_quality_report(pairs)
        return out

    def test_edksp_fully_disjoint(self, reports):
        assert reports["edksp"]["fraction_disjoint_pairs"] == 1.0
        assert reports["redksp"]["fraction_disjoint_pairs"] == 1.0
        assert reports["edksp"]["max_link_sharing"] == 1
        assert reports["redksp"]["max_link_sharing"] == 1

    def test_ksp_shares_links(self, reports):
        assert reports["ksp"]["fraction_disjoint_pairs"] < 1.0
        assert reports["ksp"]["max_link_sharing"] >= 2

    def test_avg_length_similar_across_schemes(self, reports):
        # Table II: heuristics cost little extra length (<~5%).
        base = reports["ksp"]["average_path_length"]
        for scheme in ("rksp", "edksp", "redksp"):
            assert reports[scheme]["average_path_length"] <= base * 1.08
