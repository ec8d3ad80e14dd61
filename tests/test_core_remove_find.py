"""Unit tests for the Remove-Find edge-disjoint path computation."""

import networkx as nx
import numpy as np
import pytest

from repro.core.remove_find import edge_disjoint_paths, edge_disjoint_paths_many
from repro.errors import ConfigurationError, InsufficientPathsError, NoPathError
from repro.topology.rrg import random_regular_graph


def assert_pairwise_disjoint(paths):
    used = set()
    for p in paths:
        for e in p.undirected_edges():
            assert e not in used, f"link {e} reused"
            used.add(e)


class TestDisjointness:
    @pytest.mark.parametrize("tie", ["min", "random"])
    def test_paths_pairwise_edge_disjoint(self, tie):
        adj = random_regular_graph(20, 6, seed=4)
        rng = np.random.default_rng(0)
        for dst in (5, 11, 19):
            paths = edge_disjoint_paths(adj, 0, dst, 6, tie=tie, rng=rng)
            assert_pairwise_disjoint(paths)

    def test_first_path_is_shortest(self):
        adj = random_regular_graph(20, 6, seed=4)
        g = nx.Graph(
            (u, v) for u, nbrs in enumerate(adj) for v in nbrs
        )
        paths = edge_disjoint_paths(adj, 0, 11, 6)
        assert paths[0].hops == nx.shortest_path_length(g, 0, 11)

    def test_nondecreasing_lengths(self):
        adj = random_regular_graph(20, 6, seed=4)
        hops = [p.hops for p in edge_disjoint_paths(adj, 0, 11, 6)]
        assert hops == sorted(hops)

    def test_count_bounded_by_degree(self):
        # At most ``degree`` edge-disjoint paths can leave the source.
        adj = random_regular_graph(20, 4, seed=4)
        paths = edge_disjoint_paths(adj, 0, 11, 10)
        assert len(paths) <= 4

    def test_matches_menger_bound(self):
        # Count never exceeds the max-flow (edge connectivity) bound.
        adj = random_regular_graph(14, 5, seed=6)
        g = nx.Graph((u, v) for u, nbrs in enumerate(adj) for v in nbrs)
        for dst in (3, 7, 13):
            paths = edge_disjoint_paths(adj, 0, dst, 12)
            bound = len(list(nx.edge_disjoint_paths(g, 0, dst)))
            assert len(paths) <= bound


class TestRing:
    def test_exactly_two_paths_on_cycle(self, ring_adjacency):
        paths = edge_disjoint_paths(ring_adjacency, 0, 3, 4)
        assert len(paths) == 2
        assert sorted(p.hops for p in paths) == [3, 3]
        assert_pairwise_disjoint(paths)

    def test_error_mode(self, ring_adjacency):
        with pytest.raises(InsufficientPathsError):
            edge_disjoint_paths(ring_adjacency, 0, 3, 4, on_shortfall="error")


class TestEdgeCases:
    def test_no_path(self):
        with pytest.raises(NoPathError):
            edge_disjoint_paths([[1], [0], [3], [2]], 0, 2, 2)

    def test_trivial_pair(self, ring_adjacency):
        paths = edge_disjoint_paths(ring_adjacency, 2, 2, 4)
        assert len(paths) == 1 and paths[0].nodes == (2,)

    def test_k_one_is_plain_shortest(self, ring_adjacency):
        paths = edge_disjoint_paths(ring_adjacency, 0, 2, 1)
        assert len(paths) == 1
        assert paths[0].hops == 2

    def test_reproducible_with_seed(self):
        adj = random_regular_graph(20, 6, seed=4)
        a = edge_disjoint_paths(adj, 0, 11, 6, tie="random", rng=np.random.default_rng(1))
        b = edge_disjoint_paths(adj, 0, 11, 6, tie="random", rng=np.random.default_rng(1))
        assert a == b

    def test_paper_claim_k8_exists_on_small_topology(self, paper_small_jellyfish):
        """Paper: with k=8, edge-disjoint paths exist for all pairs of the
        evaluation topologies (y=16 >> k=8).  Spot-check a slice of pairs."""
        adj = paper_small_jellyfish.adjacency
        for dst in range(1, 12):
            paths = edge_disjoint_paths(adj, 0, dst, 8)
            assert len(paths) == 8
            assert_pairwise_disjoint(paths)


class TestMany:
    def test_matches_one_pair_calls(self):
        adj = random_regular_graph(20, 6, seed=4)
        pairs = [(0, 5), (5, 0), (3, 3), (19, 7), (0, 5)]
        for tie in ("min", "random"):
            many = edge_disjoint_paths_many(
                adj, pairs, 6, tie=tie,
                rngs=[np.random.default_rng(i) for i in range(len(pairs))],
            )
            one = [
                edge_disjoint_paths(adj, s, d, 6, tie=tie, rng=np.random.default_rng(i))
                for i, (s, d) in enumerate(pairs)
            ]
            assert many == one

    def test_empty(self):
        assert edge_disjoint_paths_many([[1], [0]], [], 3) == []

    def test_out_of_range_pair_rejected_before_any_draw(self):
        rngs = [np.random.default_rng(0), np.random.default_rng(1)]
        before = [r.bit_generator.state for r in rngs]
        with pytest.raises(ConfigurationError, match="out of range"):
            edge_disjoint_paths_many(
                [[1], [0]], [(0, 1), (0, 2)], 2, tie="random", rngs=rngs
            )
        assert [r.bit_generator.state for r in rngs] == before

    def test_generator_shared_by_two_pairs_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError, match="own generator"):
            edge_disjoint_paths_many(
                [[1], [0]], [(0, 1), (1, 0)], 2, tie="random", rngs=[rng, rng]
            )

    def test_generator_count_must_match_pairs(self):
        with pytest.raises(ConfigurationError, match="generators"):
            edge_disjoint_paths_many(
                [[1], [0]], [(0, 1), (1, 0)], 2, tie="random", rngs=[1]
            )

    def test_no_path_raises_for_first_failing_pair(self):
        adj = [[1], [0], [3], [2]]
        with pytest.raises(NoPathError) as info:
            edge_disjoint_paths_many(adj, [(0, 1), (1, 3), (0, 2)], 2)
        assert (info.value.source, info.value.destination) == (1, 3)
