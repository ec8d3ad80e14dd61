"""Hypothesis property tests on the core data structures and invariants."""

import dataclasses

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.appsim import FlowSpec, run_flows
from repro.appsim.fairshare import maxmin_rates
from repro.core.dijkstra import shortest_path
from repro.core.remove_find import edge_disjoint_paths
from repro.core.yen import k_shortest_paths
from repro.model import model_throughput
from repro.core.cache import PathCache
from repro.errors import SimulationError
from repro.netsim import PatternTraffic, SimConfig, Simulator, UniformTraffic
from repro.topology.jellyfish import Jellyfish
from repro.topology.metrics import average_shortest_path_length
from repro.topology.rrg import is_connected, is_regular, random_regular_graph
from repro.traffic.patterns import random_destinations, random_permutation, shift
from repro.traffic.stencil import grid_dims, stencil_messages

# ---------------------------------------------------------------- strategies

# (n, degree) pairs with even parity, degree >= 3 so connectivity is whp.
rrg_params = st.integers(6, 18).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(3, min(n - 1, 8)).filter(lambda d, n=n: (n * d) % 2 == 0),
    )
)


def to_nx(adj):
    g = nx.Graph()
    g.add_nodes_from(range(len(adj)))
    for u, nbrs in enumerate(adj):
        for v in nbrs:
            g.add_edge(u, v)
    return g


# -------------------------------------------------------------------- graphs


class TestRRGProperties:
    @given(params=rrg_params, seed=st.integers(0, 2**20))
    @settings(max_examples=40, deadline=None)
    def test_regular_connected_simple(self, params, seed):
        n, d = params
        adj = random_regular_graph(n, d, seed=seed)
        assert is_regular(adj, d)
        assert is_connected(adj)
        for u, nbrs in enumerate(adj):
            assert u not in nbrs
            assert len(set(nbrs)) == len(nbrs)
            assert all(u in adj[v] for v in nbrs)


class TestShortestPathProperties:
    @given(params=rrg_params, seed=st.integers(0, 2**20), dst=st.integers(1, 17))
    @settings(max_examples=40, deadline=None)
    def test_bfs_optimality_both_tie_policies(self, params, seed, dst):
        n, d = params
        dst %= n
        if dst == 0:
            dst = n - 1
        adj = random_regular_graph(n, d, seed=seed)
        ref = nx.shortest_path_length(to_nx(adj), 0, dst)
        rng = np.random.default_rng(seed)
        for tie in ("min", "random"):
            path = shortest_path(adj, 0, dst, tie=tie, rng=rng)
            assert len(path) - 1 == ref
            for u, v in zip(path, path[1:]):
                assert v in adj[u]


class TestYenProperties:
    @given(
        params=rrg_params,
        seed=st.integers(0, 2**20),
        k=st.integers(1, 6),
        tie=st.sampled_from(["min", "random"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_sorted_unique_simple(self, params, seed, k, tie):
        n, d = params
        adj = random_regular_graph(n, d, seed=seed)
        rng = np.random.default_rng(seed)
        paths = k_shortest_paths(adj, 0, n - 1, k, tie=tie, rng=rng)
        hops = [p.hops for p in paths]
        assert hops == sorted(hops)
        assert len({p.nodes for p in paths}) == len(paths)
        for p in paths:
            assert p.source == 0 and p.destination == n - 1
            assert len(set(p.nodes)) == len(p.nodes)

    @given(params=rrg_params, seed=st.integers(0, 2**20))
    @settings(max_examples=20, deadline=None)
    def test_lengths_match_networkx_reference(self, params, seed):
        n, d = params
        adj = random_regular_graph(n, d, seed=seed)
        g = to_nx(adj)
        ours = [p.hops for p in k_shortest_paths(adj, 0, n - 1, 4)]
        ref = []
        for i, p in enumerate(nx.shortest_simple_paths(g, 0, n - 1)):
            if i == 4:
                break
            ref.append(len(p) - 1)
        assert ours == ref


class TestRemoveFindProperties:
    @given(
        params=rrg_params,
        seed=st.integers(0, 2**20),
        k=st.integers(1, 8),
        tie=st.sampled_from(["min", "random"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_pairwise_disjoint_and_bounded(self, params, seed, k, tie):
        n, d = params
        adj = random_regular_graph(n, d, seed=seed)
        rng = np.random.default_rng(seed)
        paths = edge_disjoint_paths(adj, 0, n - 1, k, tie=tie, rng=rng)
        assert 1 <= len(paths) <= min(k, d)
        used = set()
        for p in paths:
            for e in p.undirected_edges():
                assert e not in used
                used.add(e)
        ref = nx.shortest_path_length(to_nx(adj), 0, n - 1)
        assert paths[0].hops == ref


def _oracle_edge_disjoint(adj, source, destination, k, tie, rng):
    """The per-pair Remove-Find loop the lock-step kernel replaced.

    A verbatim copy (less argument checks): one banned bitset BFS and
    backwalk per path through ``shortest_path``, the same tallies and the
    same errors.
    """
    from repro.core.dijkstra import shortest_path
    from repro.core.kernels import kernels_for
    from repro.core.path import Path
    from repro.errors import NoPathError
    from repro.obs import metrics as _metrics

    generator = rng if tie == "random" else None
    kernels = kernels_for(adj)
    paths = []
    banned = set()
    queries = 0
    for _ in range(k):
        queries += 1
        nodes = shortest_path(
            kernels, source, destination, tie=tie, rng=generator,
            banned_edges=banned,
        )
        if nodes is None:
            break
        path = Path._from_trusted(tuple(nodes))
        paths.append(path)
        if source == destination:
            break
        for u, v in path.edges():
            banned.add((u, v))
            banned.add((v, u))
    reg = _metrics._active
    if reg is not None:
        reg.counter("core.remove_find.invocations").inc()
        reg.counter("core.remove_find.sp_queries").inc(queries)
        if paths and len(paths) < k and source != destination:
            reg.counter("core.remove_find.shortfalls").inc()
    if not paths:
        raise NoPathError(source, destination)
    return paths


def _ring(n):
    return [sorted({(i - 1) % n, (i + 1) % n}) for i in range(n)]


@st.composite
def remove_find_cases(draw):
    """Graphs, pair lists and kernel chunking for the Remove-Find differential.

    Graphs are random regular (up to 140 nodes, so bitsets span several
    64-bit words), rings (long paths, one candidate per hop), or two
    disjoint pieces (pairs across them have no path).  Pairs may repeat
    and may have ``s == d``; caller generators may start with a buffered
    half-word; chunk and prefetch sizes shrink to force chunk boundaries
    and stream refills.
    """
    kind = draw(st.sampled_from(["rrg", "ring", "split"]))
    seed = draw(st.integers(0, 2**16))
    if kind == "ring":
        adj = _ring(draw(st.integers(3, 24)))
    else:
        n, d = draw(
            st.integers(6, 140).flatmap(
                lambda n: st.tuples(
                    st.just(n),
                    st.integers(3, min(n - 1, 8)).filter(
                        lambda d, n=n: (n * d) % 2 == 0
                    ),
                )
            )
        )
        adj = random_regular_graph(n, d, seed=seed)
        if kind == "split":
            m = draw(st.integers(3, 12))
            adj = [list(r) for r in adj] + [
                [v + n for v in r] for r in _ring(m)
            ]
    n = len(adj)
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), min_size=1, max_size=24))
    return dict(
        adj=adj,
        pairs=pairs,
        k=draw(st.integers(1, 12)),
        tie=draw(st.sampled_from(["min", "random"])),
        buffered=draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))),
        chunk_bytes=draw(st.sampled_from([1, 8 * n * ((n + 63) // 64) * 3, 4 << 20])),
        prefetch=draw(st.sampled_from([0, 1, 2])),
        seed=seed,
    )


def _generators(case):
    gens = [np.random.default_rng([case["seed"], i]) for i in range(len(case["pairs"]))]
    for g, buffered in zip(gens, case["buffered"]):
        if buffered:
            g.integers(5)  # leaves the word's high half buffered
    return gens


def _core_counters(reg):
    counters = reg.snapshot()["counters"]
    return {k: v for k, v in counters.items() if k.startswith("core.")}


class TestRemoveFindDifferential:
    """The lock-step kernel against the per-pair loop it replaced."""

    @given(case=remove_find_cases())
    @settings(max_examples=60, deadline=None)
    def test_kernel_matches_per_pair_loop(self, case):
        from unittest import mock

        import repro.core.remove_find as rf
        from repro.core.remove_find import edge_disjoint_paths_many
        from repro.errors import NoPathError
        from repro.obs import metrics as _metrics

        adj, pairs, k, tie = case["adj"], case["pairs"], case["k"], case["tie"]
        want, want_states = [], []
        with _metrics.capture() as want_reg:
            for (s, d), g in zip(pairs, _generators(case)):
                try:
                    want.append(
                        [p.nodes for p in _oracle_edge_disjoint(adj, s, d, k, tie, g)]
                    )
                except NoPathError:
                    want.append(None)
                want_states.append(g.bit_generator.state)

        gens = _generators(case)
        with mock.patch.object(rf, "_CHUNK_BYTES", case["chunk_bytes"]), \
                mock.patch.object(rf, "_PREFETCH_WORDS_PER_PATH", case["prefetch"]), \
                _metrics.capture() as got_reg:
            connected = [i for i, w in enumerate(want) if w is not None]
            found = edge_disjoint_paths_many(
                adj, [pairs[i] for i in connected], k, tie=tie,
                rngs=[gens[i] for i in connected],
            )
            got = [None] * len(pairs)
            for i, paths in zip(connected, found):
                got[i] = [p.nodes for p in paths]
            for i in set(range(len(pairs))) - set(connected):
                with pytest.raises(NoPathError):
                    rf.edge_disjoint_paths(adj, *pairs[i], k, tie=tie, rng=gens[i])
        assert got == want
        if tie == "random":
            assert [g.bit_generator.state for g in gens] == want_states
        assert _core_counters(got_reg) == _core_counters(want_reg)

        # Guo et al.: simple, pairwise edge-disjoint on undirected links,
        # hop counts never decrease, the first path is a shortest one.
        graph = to_nx(adj)
        for (s, d), paths in zip(pairs, got):
            if paths is None:
                assert not nx.has_path(graph, s, d)
                continue
            assert 1 <= len(paths) <= k
            used = set()
            for nodes in paths:
                assert nodes[0] == s and nodes[-1] == d
                assert len(set(nodes)) == len(nodes)
                for u, v in zip(nodes, nodes[1:]):
                    assert graph.has_edge(u, v)
                    link = (min(u, v), max(u, v))
                    assert link not in used
                    used.add(link)
            hops = [len(nodes) - 1 for nodes in paths]
            assert hops == sorted(hops)
            assert hops[0] == nx.shortest_path_length(graph, s, d)

    @given(
        shape=st.sampled_from([(8, 5, 3), (12, 8, 4), (20, 9, 5), (70, 8, 5)]),
        scheme=st.sampled_from(["edksp", "redksp"]),
        k=st.integers(1, 12),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_cache_precompute_matches_per_pair_gets(self, shape, scheme, k, seed, data):
        from repro.obs import metrics as _metrics

        topo = Jellyfish(*shape, seed=seed)
        n = topo.n_switches
        node = st.integers(0, n - 1)
        warm = data.draw(st.lists(st.tuples(node, node), max_size=6))
        pairs = data.draw(st.lists(st.tuples(node, node), min_size=1, max_size=30))
        tie = "random" if scheme == "redksp" else "min"

        cache = PathCache(topo, scheme, k=k, seed=seed)
        for s, d in warm:
            cache.get(s, d)
        with _metrics.capture() as got_reg:
            cache.precompute(pairs)
        got = {key: [p.nodes for p in ps] for key, ps in cache.export_state().items()}

        # The replaced precompute: one get per pair, each miss running the
        # per-pair loop on the pair's own generator.
        def oracle(s, d):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(s, d))
            )
            return [p.nodes for p in _oracle_edge_disjoint(
                topo.adjacency, s, d, k, tie, rng)]

        want = {key: oracle(*key) for key in warm}
        with _metrics.capture() as want_reg:
            for s, d in pairs:
                if (s, d) in want:
                    _metrics.counter("core.cache.hit").inc()
                else:
                    _metrics.counter("core.cache.miss").inc()
                    want[(s, d)] = oracle(s, d)
        assert got == want
        assert _core_counters(got_reg) == _core_counters(want_reg)
        distinct_new = len(set(pairs) - set(warm))
        assert cache.misses == len(set(warm)) + distinct_new
        assert cache.hits == (len(warm) - len(set(warm))) + len(pairs) - distinct_new


# ------------------------------------------------------------------- traffic


class TestPatternProperties:
    @given(n=st.integers(2, 200), seed=st.integers(0, 2**20))
    @settings(max_examples=50)
    def test_permutation_is_derangement_bijection(self, n, seed):
        p = random_permutation(n, seed=seed)
        dsts = p.destinations()
        assert sorted(dsts.tolist()) == list(range(n))
        assert (dsts != np.arange(n)).all()

    @given(n=st.integers(2, 60), amount=st.integers(-100, 100))
    @settings(max_examples=50)
    def test_shift_structure(self, n, amount):
        if amount % n == 0:
            return
        p = shift(n, amount)
        assert all((d - s) % n == amount % n for s, d in p.flows)

    @given(n=st.integers(3, 40), x=st.integers(1, 6), seed=st.integers(0, 2**20))
    @settings(max_examples=50)
    def test_random_x_counts(self, n, x, seed):
        if x > n - 1:
            return
        p = random_destinations(n, x, seed=seed)
        assert len(p) == n * x
        per_src = {}
        for s, d in p.flows:
            assert s != d
            per_src.setdefault(s, set()).add(d)
        assert all(len(v) == x for v in per_src.values())


class TestStencilProperties:
    @given(
        name=st.sampled_from(["2dnn", "2dnndiag", "3dnn", "3dnndiag"]),
        n=st.integers(4, 120),
    )
    @settings(max_examples=50, deadline=None)
    def test_bytes_conserved_and_symmetric(self, name, n):
        msgs = stencil_messages(name, n, total_bytes=1.0)
        per_src = {}
        pairs = set()
        for s, d, b in msgs:
            assert s != d
            per_src[s] = per_src.get(s, 0.0) + b
            pairs.add((s, d))
        assert set(per_src) == set(range(n))
        for total in per_src.values():
            assert total == pytest.approx(1.0)
        assert all((d, s) in pairs for s, d in pairs)

    @given(n=st.integers(1, 4000), ndim=st.integers(1, 4))
    @settings(max_examples=80)
    def test_grid_dims_factorises(self, n, ndim):
        dims = grid_dims(n, ndim)
        assert len(dims) == ndim
        prod = 1
        for d in dims:
            prod *= d
        assert prod == n


# ----------------------------------------------------------------- fairshare


class TestFairshareProperties:
    @given(
        n_flows=st.integers(1, 40),
        n_links=st.integers(1, 15),
        seed=st.integers(0, 2**20),
    )
    @settings(max_examples=50, deadline=None)
    def test_feasible_and_bottlenecked(self, n_flows, n_links, seed):
        rng = np.random.default_rng(seed)
        flows = [
            np.unique(rng.integers(0, n_links, size=int(rng.integers(1, 4))))
            for _ in range(n_flows)
        ]
        cap = rng.uniform(1.0, 10.0, size=n_links)
        rates = maxmin_rates(flows, cap)
        usage = np.zeros(n_links)
        for f, r in zip(flows, rates):
            usage[f] += r
        assert (usage <= cap * (1 + 1e-9) + 1e-9).all()
        for f, r in zip(flows, rates):
            assert any(
                usage[link] >= cap[link] * (1 - 1e-9) - 1e-9
                and r >= max(rates[j] for j, g in enumerate(flows) if link in g) - 1e-6
                for link in f
            )



# Differential oracle: the per-incidence water-fill and the event loop that
# re-solves it from scratch over the alive flows at every completion.  The
# array kernel must reproduce their floats bit for bit.
_ORACLE_EPS = 1e-12
_ORACLE_REL_TOL = 1e-9


def _oracle_maxmin(flow_links, capacity, n_links=None):
    n_flows = len(flow_links)
    if np.isscalar(capacity):
        cap_left = np.full(n_links, float(capacity))
    else:
        cap_left = np.asarray(capacity, dtype=np.float64).copy()
        n_links = cap_left.size
    rates = np.full(n_flows, np.inf)
    if n_flows == 0:
        return rates
    count = np.zeros(n_links, dtype=np.int64)
    flows_by_link = [[] for _ in range(n_links)]
    active = np.zeros(n_flows, dtype=bool)
    for f, links in enumerate(flow_links):
        if len(links) == 0:
            continue
        active[f] = True
        for link in links:
            count[link] += 1
            flows_by_link[link].append(f)
    fill = 0.0
    remaining = int(active.sum())
    while remaining > 0:
        used = count > 0
        headroom = cap_left[used] / count[used]
        r = float(headroom.min())
        fill += r
        cap_left[used] -= count[used] * r
        saturated = np.flatnonzero(used & (cap_left <= _ORACLE_EPS * fill + _ORACLE_EPS))
        if saturated.size == 0:
            raise SimulationError("water-filling failed to saturate a link")
        for link in saturated:
            for f in flows_by_link[link]:
                if active[f]:
                    active[f] = False
                    rates[f] = fill
                    remaining -= 1
                    for l2 in flow_links[f]:
                        count[l2] -= 1
    return rates


def _oracle_completion(flows, capacity, n_links):
    n = len(flows)
    remaining = np.asarray([f.nbytes for f in flows], dtype=np.float64)
    completion = np.zeros(n)
    alive = list(range(n))
    t = 0.0
    while alive:
        rates = _oracle_maxmin([flows[i].links for i in alive], capacity, n_links)
        ttc = remaining[alive] / rates
        dt = float(ttc.min())
        t += dt
        threshold = dt * (1 + _ORACLE_REL_TOL)
        still = []
        for pos, i in enumerate(alive):
            if ttc[pos] <= threshold:
                completion[i] = t
                remaining[i] = 0.0
            else:
                remaining[i] -= rates[pos] * dt
                still.append(i)
        assert len(still) < len(alive)
        alive = still
    return completion


@st.composite
def flow_sets(draw):
    """Small flow sets: repeated link ids, link-less flows, shared sizes,
    and scalar or per-link capacity."""
    n_links = draw(st.integers(1, 8))
    n_flows = draw(st.integers(1, 24))
    links = draw(st.lists(
        st.lists(st.integers(0, n_links - 1), max_size=5),
        min_size=n_flows, max_size=n_flows,
    ))
    size = st.sampled_from([1.0, 3.0, 12.5]) | st.floats(0.25, 100.0)
    sizes = draw(st.lists(size, min_size=n_flows, max_size=n_flows))
    rate = st.sampled_from([1.0, 4.0]) | st.floats(0.5, 20.0)
    if draw(st.booleans()):
        capacity = np.asarray(draw(st.lists(rate, min_size=n_links, max_size=n_links)))
    else:
        capacity = draw(rate)
    flows = [
        FlowSpec(0, 1, nbytes, np.asarray(ls, dtype=np.int64), i)
        for i, (nbytes, ls) in enumerate(zip(sizes, links))
    ]
    return flows, capacity, n_links


class TestAppsimDifferential:
    @given(case=flow_sets())
    @settings(max_examples=150, deadline=None)
    def test_rates_and_completions_match_oracle(self, case):
        flows, capacity, n_links = case
        flow_links = [f.links for f in flows]
        try:
            want_rates = _oracle_maxmin(flow_links, capacity, n_links)
            want_done = _oracle_completion(flows, capacity, n_links)
        except SimulationError:
            with pytest.raises(SimulationError):
                maxmin_rates(flow_links, capacity, n_links)
                run_flows(flows, capacity, n_links)
            return
        got_rates = maxmin_rates(flow_links, capacity, n_links)
        assert got_rates.tobytes() == want_rates.tobytes()
        got = run_flows(flows, capacity, n_links)
        assert got.flow_completion.tobytes() == want_done.tobytes()


# Oracle for the incremental re-solve: the event loop that water-filled the
# alive flows from full capacity at every completion event, with the array
# kernel it used (``used`` links compacted out at every level).
def _oracle_array_waterfill(flow_of, link_of, count, cap, rates):
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
        saturated = used & (cap <= _ORACLE_EPS * fill + _ORACLE_EPS)
        hit = flow_of[saturated[link_of]]
        if hit.size == 0:
            raise SimulationError("water-filling failed to saturate a link")
        frozen[hit] = True
        rates[hit] = fill
        gone = frozen[flow_of]
        count -= np.bincount(link_of[gone], minlength=count.size)
        keep = ~gone
        flow_of = flow_of[keep]
        link_of = link_of[keep]
    return iters


def _oracle_event_loop(flows, capacity, n_links):
    from repro.appsim.fairshare import incidence, link_capacity

    n = len(flows)
    cap = link_capacity(capacity, n_links)
    flow_of, link_of = incidence([f.links for f in flows], cap.size)
    count = np.bincount(link_of, minlength=cap.size)
    remaining = np.asarray([f.nbytes for f in flows], dtype=np.float64)
    completion = np.zeros(n)
    rates = np.full(n, np.inf)
    finished = np.zeros(n, dtype=bool)
    alive = np.arange(n)
    t = 0.0
    events = iters = 0
    while alive.size:
        events += 1
        iters += _oracle_array_waterfill(flow_of, link_of, count.copy(), cap.copy(), rates)
        alive_rates = rates[alive]
        ttc = remaining[alive] / alive_rates
        dt = float(ttc.min())
        t += dt
        done = ttc <= dt * (1 + _ORACLE_REL_TOL)
        ended = alive[done]
        completion[ended] = t
        left = ~done
        alive = alive[left]
        remaining[alive] -= alive_rates[left] * dt
        finished[ended] = True
        gone = finished[flow_of]
        count -= np.bincount(link_of[gone], minlength=count.size)
        flow_of = flow_of[~gone]
        link_of = link_of[~gone]
    message_completion = {}
    for f, c in zip(flows, completion):
        message_completion[f.message_id] = max(message_completion.get(f.message_id, 0.0), float(c))
    return completion, message_completion, float(completion.max()), events, iters


@st.composite
def resolve_cases(draw):
    """Event loops that stress the record: ``mode`` "equal" gives every flow
    one size (many finish per event, equal shares tie), "first" routes every
    flow over link 0 under scalar capacity (every finished flow froze at
    level 0, so each re-solve departs at once), "full" adds link-less flows
    (they finish first, and the re-solve after them reuses every level);
    ``rows`` caps the checkpoint budget at that many rows, so the stride
    doubles past 1."""
    mode = draw(st.sampled_from(["mixed", "equal", "first", "full"]))
    n_links = draw(st.integers(1, 10))
    n_flows = draw(st.integers(1, 30))
    links = draw(st.lists(
        st.lists(st.integers(0, n_links - 1), min_size=mode != "mixed", max_size=5),
        min_size=n_flows, max_size=n_flows,
    ))
    if mode == "first":
        # Link 0 then carries every flow once and no link carries more.
        links = [[0] + sorted(set(ls) - {0}) for ls in links]
    if mode == "full":
        links += [[]] * draw(st.integers(1, 3))
    size = st.sampled_from([1.0, 2.0, 5.0]) | st.floats(0.25, 50.0)
    if mode == "equal":
        sizes = [draw(size)] * len(links)
    else:
        sizes = draw(st.lists(size, min_size=len(links), max_size=len(links)))
    rate = st.sampled_from([1.0, 2.0]) | st.floats(0.5, 20.0)
    if mode != "first" and draw(st.booleans()):
        capacity = np.asarray(draw(st.lists(rate, min_size=n_links, max_size=n_links)))
    else:
        capacity = draw(rate)
    n_messages = draw(st.integers(1, len(links)))
    flows = [
        FlowSpec(0, 1, nbytes, np.asarray(ls, dtype=np.int64), i % n_messages)
        for i, (nbytes, ls) in enumerate(zip(sizes, links))
    ]
    rows = draw(st.sampled_from([None, 2, 4]))
    return dict(flows=flows, capacity=capacity, n_links=n_links, mode=mode, rows=rows)


class TestIncrementalResolve:
    """The record-resuming event loop against one that re-solves from full capacity."""

    @given(case=resolve_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_full_resolve_event_loop(self, case):
        from unittest import mock

        import repro.appsim.fairshare as fs
        from repro.obs import metrics as _metrics

        flows, capacity, n_links = case["flows"], case["capacity"], case["n_links"]
        try:
            want = _oracle_event_loop(flows, capacity, n_links)
        except SimulationError:
            with pytest.raises(SimulationError):
                run_flows(flows, capacity, n_links)
            return
        done, msgs, makespan, events, iters = want
        budget = fs._RECORD_BYTES if case["rows"] is None else case["rows"] * 8 * n_links
        with mock.patch.object(fs, "_RECORD_BYTES", budget), _metrics.capture() as reg:
            got = run_flows(flows, capacity, n_links)
        assert got.flow_completion.tobytes() == done.tobytes()
        assert got.message_completion == msgs
        assert got.makespan == makespan
        counters = reg.snapshot()["counters"]
        assert counters["appsim.events"] == events
        assert counters["appsim.waterfill_iters"] == iters
        reused = counters["appsim.waterfill_reused"]
        assert 0 <= reused <= iters
        if case["mode"] == "first":
            assert reused == 0
        if case["mode"] == "full" and events > 1:
            assert reused > 0

    @given(
        cap=st.floats(0.5, 100.0),
        steps=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=12),
        flows=st.lists(st.tuples(st.integers(0, 11), st.booleans()), min_size=1, max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_fewer_flows_never_leave_a_link_less(self, cap, steps, flows):
        """The lemma that lets the re-solve test only the old solve: a link
        replayed over the same steps with a subset of its flows never ends a
        level with less capacity, a smaller share or a smaller leftover."""
        n_levels = len(steps)
        step = np.asarray(steps)
        level = np.minimum([lv for lv, _ in flows], n_levels - 1)
        kept = np.asarray([keep for _, keep in flows])

        def replay(levels):
            count = (levels[None, :] >= np.arange(n_levels)[:, None]).sum(axis=1)
            caps = np.subtract.accumulate(np.concatenate([[cap], count * step]))
            return count, caps

        count, caps = replay(level)
        fewer, fewer_caps = replay(level[kept])
        assert (fewer_caps >= caps).all()
        live = (fewer > 0) & (caps[:-1] > 0)
        assert (fewer_caps[:-1][live] / fewer[live] >= caps[:-1][live] / count[live]).all()

    def test_departs_where_a_link_set_the_step_without_saturating(self):
        # 8,691 flows share link 0: its step C/n leaves 1.2e-7 by rounding,
        # above the saturation threshold, so link 0 sets level 0's step but
        # only link 1 (one flow, capacity one ulp above the step) saturates.
        # Dropping a link-0 flow raises link 0's share, so link 1 sets a
        # different step and the re-solve must start over.
        crowd, cap = 8691, 7.5e8
        step = cap / crowd
        capacity = np.array([cap, np.nextafter(step, np.inf)])
        flows = [FlowSpec(0, 1, 1.0, np.array([0]), 0)]
        flows += [FlowSpec(0, 1, 1e6, np.array([0]), 1) for _ in range(crowd - 1)]
        flows += [FlowSpec(0, 1, 1e6, np.array([1]), 2)]
        done, msgs, makespan, events, iters = _oracle_event_loop(flows, capacity, 2)
        got = run_flows(flows, capacity, 2)
        assert got.flow_completion.tobytes() == done.tobytes()
        assert got.message_completion == msgs

    def test_stride_grows_past_one_under_a_small_budget(self):
        from unittest import mock

        import repro.appsim.fairshare as fs

        # One flow per link, capacities 1..8: one fill level per link.
        flow_links = [np.array([i]) for i in range(8)]
        with mock.patch.object(fs, "_RECORD_BYTES", 2 * 8 * 8):
            record = fs.SolveRecord(
                *fs.incidence(flow_links, 8), np.arange(1.0, 9.0), 8
            )
            rates = np.full(8, np.inf)
            assert record.resolve(np.zeros(0, np.int64), rates) == (8, 0)
            # Link 5's flow finishes; the solve departs at level 5, where
            # it froze, and resumes from the level-4 checkpoint.
            assert record.resolve(np.array([5]), rates) == (7, 4)
        assert record.ckpt.shape == (2, 8)
        assert record.stride == 4
        assert rates.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]

    def test_stencil_cell_reuses_levels(self):
        from repro.appsim import stencil_time
        from repro.obs import metrics as _metrics

        topo = Jellyfish(9, 10, 6, seed=2)
        with _metrics.capture() as reg:
            stencil_time(topo, "2dnn", "ksp", mapping="random", seed=0, total_bytes=1e6)
        counters = reg.snapshot()["counters"]
        assert 0 < counters["appsim.waterfill_reused"] <= counters["appsim.waterfill_iters"]


# ------------------------------------------------------------------- netsim


@st.composite
def ugal_cases(draw):
    """Small vanilla-UGAL runs across shape, load and router knobs."""
    n = draw(st.integers(6, 14))
    uplinks = draw(
        st.integers(3, min(6, n - 1)).filter(lambda y, n=n: (n * y) % 2 == 0)
    )
    shape = (n, uplinks + draw(st.integers(1, 3)), uplinks)
    knobs = dict(
        adaptive_estimate=draw(st.sampled_from(["path", "first"])),
        channel_latency=draw(st.integers(1, 12)),
        vc_buffer=draw(st.integers(1, 8)),
        input_speedup=draw(st.integers(1, 3)),
    )
    return dict(
        shape=shape,
        topo_seed=draw(st.integers(0, 2**10)),
        rate=draw(st.sampled_from([0.1, 0.4, 0.9]) | st.floats(0.05, 1.0)),
        knobs=knobs,
        permutation=draw(st.booleans()),
        prewarm=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
    )


class TestUgalDifferential:
    """Vanilla UGAL on the fast engine against the reference oracle.

    Each case makes two consecutive runs on one PathCache per engine, so
    the fast engine's second run starts on the Valiant table its first
    run built.
    """

    def _runs(self, engine, case):
        topo = Jellyfish(*case["shape"], seed=case["topo_seed"])
        if case["permutation"]:
            traffic = PatternTraffic(
                random_permutation(topo.n_hosts, seed=case["seed"])
            )
        else:
            traffic = UniformTraffic(topo.n_hosts)
        paths = PathCache(topo, "redksp", k=3, seed=1)
        if case["prewarm"]:
            for s in range(topo.n_switches):
                for d in range(topo.n_switches):
                    paths.get(s, d)
            paths.hits = paths.misses = 0
        cfg = SimConfig(
            engine=engine, warmup_cycles=30, sample_cycles=30, n_samples=2,
            **case["knobs"],
        )
        out = []
        for run_seed in (case["seed"], case["seed"] + 1):
            sim = Simulator(
                topo, paths, "ugal", traffic, case["rate"], cfg, seed=run_seed
            )
            result = dataclasses.asdict(sim.run())
            result.pop("config")  # echoes the engine name
            drained = sim.drain()
            sim.check_conservation()
            out.append((result, drained, sim.rng.bit_generator.state))
            if engine == "fast":
                assert paths.__dict__["_route_core"].valiant
        out.append((paths.hits, paths.misses))
        return out

    @given(case=ugal_cases())
    @settings(max_examples=20, deadline=None)
    def test_fast_matches_reference(self, case):
        # repr: a jammed sample's nan latency must compare equal too.
        assert repr(self._runs("fast", case)) == repr(
            self._runs("reference", case)
        )


# --------------------------------------------------------------------- model


class TestModelProperties:
    @given(seed=st.integers(0, 2**10))
    @settings(max_examples=10, deadline=None)
    def test_rates_in_unit_interval(self, seed):
        topo = Jellyfish(8, 8, 5, seed=3)
        cache = PathCache(topo, "redksp", k=3, seed=0)
        pat = random_permutation(topo.n_hosts, seed=seed)
        r = model_throughput(topo, pat, cache)
        assert (r.per_flow > 0).all()
        assert (r.per_flow <= 1 + 1e-12).all()
        assert 0 < r.mean_per_node() <= 1 + 1e-12


# ------------------------------------------------------------------ topology


class TestMetricsProperties:
    @given(params=rrg_params, seed=st.integers(0, 2**20))
    @settings(max_examples=20, deadline=None)
    def test_apl_bounds(self, params, seed):
        n, d = params
        adj = random_regular_graph(n, d, seed=seed)
        apl = average_shortest_path_length(adj)
        assert 1.0 <= apl <= n
