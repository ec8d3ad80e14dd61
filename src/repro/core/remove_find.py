"""Remove-Find edge-disjoint path computation (Guo et al. [9]).

The RF method behind EDKSP/rEDKSP: find a shortest path, remove its edges
from the graph, repeat ``k`` times or until the endpoints disconnect.  The
shortest-path subroutine's tie policy again selects the deterministic
(EDKSP) versus randomized (rEDKSP) flavour.

Every call runs one lock-step kernel over all of its pairs.  Each pair
keeps its own copy of the graph's neighbour bitsets (``(n, ceil(n/64))``
little-endian ``uint64`` words, see :meth:`GraphKernels.words`) with its
banned links cleared, and each round advances every still-active pair
together:

- **BFS.** Only frontier nodes expand: their live neighbour words are
  gathered and OR-reduced per pair with ``reduceat``; a pair stops at the
  level that reaches its destination.
- **Backwalk.** From the destination, each hop takes a predecessor among
  the live neighbours one level closer to the source, in ascending id
  order: the smallest (``tie="min"``) or the ``i``-th for a uniform draw
  ``i`` (``tie="random"``), found by per-byte popcount and a k-th-set-bit
  table.
- **Ban.** The path's links are cleared in both directions.

Pairs run in chunks so the live arrays stay near :data:`_CHUNK_BYTES`.
Random ties replay ``Generator.integers`` on each pair's own stream (see
:class:`_Streams`), so paths and every caller generator's final state are
bit-identical to one sequential Remove-Find run per pair.  The set-up is
per call, so a one-pair call costs far more than its share of a bulk call:
warm path tables in bulk (:meth:`PathCache.precompute`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.kernels import kernels_for
from repro.core.path import Path
from repro.errors import ConfigurationError, InsufficientPathsError, NoPathError
from repro.obs import metrics
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_in, check_positive_int

__all__ = ["edge_disjoint_paths", "edge_disjoint_paths_many"]

_WORD = np.dtype("<u8")
_ONE = np.uint64(1)
_LOW32 = np.uint64(0xFFFFFFFF)

#: Byte budget of one chunk's per-pair live-link arrays (pairs x n x words
#: x 8); the level masks of a round stay within the same bound.
_CHUNK_BYTES = 4 << 20

#: Raw 64-bit words fetched per requested path and pair when random ties
#: start (and again whenever a pair's stream runs dry): two words are four
#: draws, one per hop of a typical Jellyfish path.
_PREFETCH_WORDS_PER_PATH = 2

#: Set bits per byte, and the position of the j-th set bit of each byte.
_POP8 = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)
_SEL8 = np.zeros((256, 8), dtype=np.int64)
for _b in range(256):
    _bits = [j for j in range(8) if _b >> j & 1]
    _SEL8[_b, : len(_bits)] = _bits
del _b, _bits


def edge_disjoint_paths(
    adj: Sequence[Sequence[int]],
    source: int,
    destination: int,
    k: int,
    *,
    tie: str = "min",
    rng: SeedLike = None,
    on_shortfall: str = "truncate",
) -> List[Path]:
    """Up to ``k`` pairwise edge-disjoint shortest paths via Remove-Find.

    Paths come out in the order found (nondecreasing hops: removing edges
    can only lengthen later paths).  Disjointness is on *undirected* links —
    two paths may not use the same cable in either direction, matching the
    link-sharing notion of Tables III/IV.

    ``on_shortfall="truncate"`` (paper behaviour) returns fewer paths when
    the endpoints disconnect early; ``"error"`` raises instead.

    This is a one-pair call of :func:`edge_disjoint_paths_many`; callers
    with many pairs should make one call for all of them.
    """
    return edge_disjoint_paths_many(
        adj, [(source, destination)], k, tie=tie, rngs=[rng],
        on_shortfall=on_shortfall,
    )[0]


def edge_disjoint_paths_many(
    adj: Sequence[Sequence[int]],
    pairs: Sequence[Tuple[int, int]],
    k: int,
    *,
    tie: str = "min",
    rngs: Optional[Sequence[SeedLike]] = None,
    on_shortfall: str = "truncate",
) -> List[List[Path]]:
    """:func:`edge_disjoint_paths` for every ``(source, destination)`` pair.

    With ``tie="random"``, ``rngs`` holds one seed or generator per pair
    (``None`` for fresh entropy); a generator may serve only one pair, and
    each ends in the state a sequential run of that pair leaves.  Every
    pair is range-checked before any is computed.  A pair with no path
    (or, with ``on_shortfall="error"``, too few) raises for the first such
    pair in order, after all pairs are computed and tallied.
    """
    check_positive_int(k, "k")
    check_in(tie, ("min", "random"), "tie")
    check_in(on_shortfall, ("truncate", "error"), "on_shortfall")
    kernels = kernels_for(adj)
    pairs = [(int(s), int(d)) for s, d in pairs]
    n = kernels.n
    for s, d in pairs:
        if not (0 <= s < n and 0 <= d < n):
            raise ConfigurationError(
                f"pair ({s}, {d}) is out of range for a graph of {n} nodes"
            )
    generators = None
    if tie == "random":
        if rngs is None:
            rngs = [None] * len(pairs)
        elif len(rngs) != len(pairs):
            raise ConfigurationError(
                f"got {len(rngs)} generators for {len(pairs)} pairs"
            )
        generators = [ensure_rng(r) for r in rngs]
        if len({id(g) for g in generators}) != len(generators):
            raise ConfigurationError("each pair needs its own generator")
    if not pairs:
        return []

    found = [
        [Path._from_trusted(nodes) for nodes in per_pair]
        for per_pair in _remove_find(kernels.words(), pairs, k, generators)
    ]

    queries = shortfalls = 0
    for (s, d), paths in zip(pairs, found):
        if s == d:
            queries += 1  # only one trivial path exists
        else:
            # One query per path found, plus the one that came up empty.
            queries += min(k, len(paths) + 1)
            shortfalls += 0 < len(paths) < k
    reg = metrics._active
    if reg is not None:
        reg.counter("core.remove_find.invocations").inc(len(pairs))
        reg.counter("core.remove_find.sp_queries").inc(queries)
        if shortfalls:
            reg.counter("core.remove_find.shortfalls").inc(shortfalls)
    for (s, d), paths in zip(pairs, found):
        if not paths:
            raise NoPathError(s, d)
        if len(paths) < k and s != d and on_shortfall == "error":
            raise InsufficientPathsError(s, d, k, paths)
    return found


# ------------------------------------------------------------------ kernel
def _bit(nodes: np.ndarray) -> np.ndarray:
    """Each node's bit within its word."""
    return np.left_shift(_ONE, (nodes & 63).astype(np.uint64))


def _remove_find(
    words: np.ndarray,
    pairs: List[Tuple[int, int]],
    k: int,
    generators: Optional[List[np.random.Generator]],
) -> List[List[Tuple[int, ...]]]:
    """Node tuples of every pair's Remove-Find paths, in the order found."""
    found: List[List[Tuple[int, ...]]] = [[] for _ in pairs]
    todo = []
    for i, (s, d) in enumerate(pairs):
        if s == d:
            found[i].append((s,))
        else:
            todo.append(i)
    per_chunk = max(1, _CHUNK_BYTES // words.nbytes)
    for lo in range(0, len(todo), per_chunk):
        chunk = todo[lo : lo + per_chunk]
        src = np.array([pairs[i][0] for i in chunk], dtype=np.int64)
        dst = np.array([pairs[i][1] for i in chunk], dtype=np.int64)
        streams = (
            None if generators is None
            else _Streams([generators[i] for i in chunk], _PREFETCH_WORDS_PER_PATH * k)
        )
        # Per pair: the graph's neighbour words with its banned links cleared.
        live = np.repeat(words[None], len(chunk), axis=0)
        active = np.arange(len(chunk))
        for _ in range(k):
            dist, levels = _bfs(live, active, src[active], dst[active])
            reached = dist > 0
            active, hops = active[reached], dist[reached]
            if not active.size:
                break
            nodes = _backwalk(live, active, dst[active], hops, levels[:, reached], streams)
            for p, row, h in zip(active.tolist(), nodes.tolist(), hops.tolist()):
                found[chunk[p]].append(tuple(row[: h + 1]))
            _ban(live, active, nodes, hops)
        if streams is not None:
            streams.finish()
    return found


def _bfs(
    live: np.ndarray, active: np.ndarray, src: np.ndarray, dst: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Lock-step BFS from each active pair's source until its destination.

    Returns each pair's hop distance (-1 when unreachable) and the level
    masks ``levels[L, i]`` of nodes at distance ``L`` from pair ``i``'s
    source, complete up to its destination's level.
    """
    count = active.size
    rows = np.arange(count)
    frontier = np.zeros((count, live.shape[2]), dtype=_WORD)
    frontier[rows, src >> 6] = _bit(src)
    visited = frontier.copy()
    levels = [frontier]
    dist = np.full(count, -1, dtype=np.int64)
    target_word, target_bit = dst >> 6, _bit(dst)
    alive = rows
    while alive.size:
        owner, node = np.nonzero(
            np.unpackbits(frontier.view(np.uint8), axis=1, bitorder="little")
        )
        starts = np.flatnonzero(np.diff(owner, prepend=-1))
        nxt = np.bitwise_or.reduceat(
            live[active[alive[owner]], node], starts, axis=0
        ) & ~visited[alive]
        visited[alive] |= nxt
        level = np.zeros_like(visited)
        level[alive] = nxt
        levels.append(level)
        hit = (nxt[np.arange(alive.size), target_word[alive]] & target_bit[alive]) != 0
        dist[alive[hit]] = len(levels) - 1
        keep = ~hit & nxt.any(axis=1)
        alive, frontier = alive[keep], nxt[keep]
    return dist, np.stack(levels)


def _backwalk(
    live: np.ndarray,
    walkers: np.ndarray,
    dst: np.ndarray,
    hops: np.ndarray,
    levels: np.ndarray,
    streams: Optional["_Streams"],
) -> np.ndarray:
    """One shortest path per walker, walked back from its destination.

    Row ``i`` holds walker ``i``'s nodes in columns ``0..hops[i]``.  At each
    hop the candidates are the live neighbours one level closer to the
    source, in ascending id order; ``streams`` draws the index for random
    ties, else the smallest wins.
    """
    count = walkers.size
    nodes = np.zeros((count, int(hops.max()) + 1), dtype=np.int64)
    nodes[np.arange(count), hops] = dst
    v, dv = dst.copy(), hops.copy()
    cur = np.arange(count)
    while cur.size:
        cand = live[walkers[cur], v[cur]] & levels[dv[cur] - 1, cur]
        octets = cand.view(np.uint8)
        upto = np.cumsum(_POP8[octets], axis=1, dtype=np.int64)
        if streams is None:
            pick = np.zeros(cur.size, dtype=np.int64)
        else:
            pick = streams.draw(walkers[cur], upto[:, -1])
        at = (upto <= pick[:, None]).sum(axis=1)
        rows = np.arange(cur.size)
        octet = octets[rows, at]
        u = 8 * at + _SEL8[octet, pick - upto[rows, at] + _POP8[octet]]
        dv[cur] -= 1
        nodes[cur, dv[cur]] = u
        v[cur] = u
        cur = cur[dv[cur] > 0]
    return nodes


def _ban(
    live: np.ndarray, walkers: np.ndarray, nodes: np.ndarray, hops: np.ndarray,
) -> None:
    """Clear each walker's path links from its live words, both directions."""
    on_path = np.arange(nodes.shape[1] - 1) < hops[:, None]
    a, b = nodes[:, :-1][on_path], nodes[:, 1:][on_path]
    owner = np.repeat(walkers, hops)
    # A simple path leaves each node once and enters each node once, so
    # neither assignment repeats an index.
    live[owner, a, b >> 6] &= ~_bit(b)
    live[owner, b, a >> 6] &= ~_bit(a)


class _Streams:
    """Exact replay of ``Generator.integers(bound)`` on per-pair streams.

    numpy draws a bound below 2**32 by Lemire rejection on a 32-bit chunk
    stream: each 64-bit PCG word splits low half first, and an unused half
    waits in the bit generator's ``has_uint32``/``uinteger`` buffer.  Row
    ``p`` of ``chunks`` is pair ``p``'s stream: column 0 its buffered half,
    then the halves of the words fetched by ``random_raw`` so far.  A bound
    of 1 draws nothing, like the scalar call.  :meth:`finish` rewinds each
    generator to just past the words it consumed, buffer included.
    """

    def __init__(self, generators: List[np.random.Generator], words: int):
        self.generators = generators
        self.states = [g.bit_generator.state for g in generators]
        self.words = max(1, words)
        raw = np.stack([g.bit_generator.random_raw(self.words) for g in generators])
        self.chunks = np.empty((len(generators), 1 + 2 * self.words), dtype=np.uint64)
        self.chunks[:, 0] = [st["uinteger"] for st in self.states]
        self.chunks[:, 1::2] = raw & _LOW32
        self.chunks[:, 2::2] = raw >> np.uint64(32)
        self.pos = np.array(
            [0 if st["has_uint32"] else 1 for st in self.states], dtype=np.int64
        )
        self.end = np.full(len(generators), self.chunks.shape[1], dtype=np.int64)

    def draw(self, pairs: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """One ``integers(bound)`` per (distinct) pair, in its own stream."""
        out = np.zeros(pairs.size, dtype=np.int64)
        need = np.flatnonzero(bounds > 1)
        p = pairs[need]
        r = bounds[need].astype(np.uint64)
        floor = (np.uint64(1 << 32) - r) % r
        while need.size:
            self._refill(p)
            m = self.chunks[p, self.pos[p]] * r
            self.pos[p] += 1
            ok = (m & _LOW32) >= floor
            out[need[ok]] = m[ok] >> np.uint64(32)
            need, p, r, floor = need[~ok], p[~ok], r[~ok], floor[~ok]
        return out

    def _refill(self, pairs: np.ndarray) -> None:
        for q in pairs[self.pos[pairs] >= self.end[pairs]].tolist():
            raw = self.generators[q].bit_generator.random_raw(self.words)
            end = int(self.end[q])
            if end + 2 * self.words > self.chunks.shape[1]:
                grow = max(2 * self.words, self.chunks.shape[1])
                self.chunks = np.pad(self.chunks, ((0, 0), (0, grow)))
            self.chunks[q, end : end + 2 * self.words : 2] = raw & _LOW32
            self.chunks[q, end + 1 : end + 2 * self.words : 2] = raw >> np.uint64(32)
            self.end[q] = end + 2 * self.words

    def finish(self) -> None:
        for q, (g, st) in enumerate(zip(self.generators, self.states)):
            used = int(self.pos[q]) - 1  # chunks taken from fetched words
            words = 0
            if used > 0:
                words = (used + 1) // 2
                st["has_uint32"] = used & 1
                # numpy keeps the last word's high half in ``uinteger``
                # even once it has been consumed.
                st["uinteger"] = int(self.chunks[q, 2 * words])
            elif used == 0:
                st["has_uint32"] = 0
            g.bit_generator.state = st
            if words:
                g.bit_generator.random_raw(words)
