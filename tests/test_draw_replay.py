"""The fast core's batched RNG replays against the scalar calls they replace.

:func:`~repro.netsim.fastcore.draw_batch` replays a cycle's fixed list of
``Generator.integers`` calls; :func:`~repro.netsim.fastcore.draw_valiant`
replays vanilla UGAL's data-dependent intermediate draw loop.  Both must
return the scalar calls' values *and* leave the generator in the scalar
calls' state, buffered half-word included.  The cases below force every
branch of numpy's bounded-integer algorithm the replays mirror: a
half-word left buffered by an earlier call, Lemire rejections (bounds
just above 2**31 reject about half of all chunks), bound-1 draws that
consume nothing, and empty batches.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.remove_find import _Streams
from repro.netsim.fastcore import (
    REDRAW,
    UNBUILT,
    VALIANT_TRIES,
    draw_batch,
    draw_valiant,
)

#: Rejects ~50% of chunks: (2**32 - r) % r == 2**31 - 1.
HEAVY_REJECT = 2**31 + 1


def _pair(seed: int, pre: int):
    """Two identical generators; ``pre`` scalar draws leave a buffered
    half-word when odd."""
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for g in (a, b):
        for _ in range(pre):
            g.integers(7)
    return a, b


def _scalar_valiant(rng, rows):
    out = []
    for row in rows:
        got = -1
        for _ in range(VALIANT_TRIES):
            w = int(rng.integers(len(row)))
            if row[w] != REDRAW:
                got = w
                break
        out.append(got)
    return out


class _Row:
    """A long read-only row (bounds near 2**31 without the memory)."""

    def __init__(self, n: int, every: int):
        self.n, self.every = n, every

    def __len__(self):
        return self.n

    def __getitem__(self, w):
        return REDRAW if w % self.every == 0 else 0


# ------------------------------------------------------------- draw_batch

class TestDrawBatch:
    def _check(self, bounds, seed=0, pre=0):
        a, b = _pair(seed, pre)
        want = [int(a.integers(r)) for r in bounds]
        got = draw_batch(b, list(bounds))
        assert got == want
        assert b.bit_generator.state == a.bit_generator.state

    def test_buffered_half_word_at_start(self):
        for pre in (1, 3):
            a, _ = _pair(5, pre)
            assert a.bit_generator.state["has_uint32"] == 1
            self._check([10, 3, 17, 2, 9], seed=5, pre=pre)

    def test_single_draw_served_from_buffer(self):
        self._check([12], seed=2, pre=1)

    def test_forced_lemire_rejections(self):
        self._check([HEAVY_REJECT] * 40, seed=1)
        self._check([HEAVY_REJECT, 5, 2**32 - 1, HEAVY_REJECT] * 10,
                    seed=3, pre=1)

    def test_bound_one_entries(self):
        self._check([1, 6, 1, 1, 9, 1], seed=4)
        self._check([1, 1, 1], seed=4, pre=1)

    def test_empty_batch(self):
        self._check([], seed=6)
        self._check([], seed=6, pre=1)

    @given(
        seed=st.integers(0, 2**16),
        pre=st.integers(0, 3),
        bounds=st.lists(
            st.one_of(
                st.integers(1, 40),
                st.sampled_from([HEAVY_REJECT, 2**32 - 1, 3 * 2**30 + 7]),
            ),
            max_size=30,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_calls(self, seed, pre, bounds):
        self._check(bounds, seed=seed, pre=pre)


# ----------------------------------------------------------- draw_valiant

class TestDrawValiant:
    def _check(self, rows, seed=0, pre=0):
        a, b = _pair(seed, pre)
        want = _scalar_valiant(a, rows)
        got = draw_valiant(b, rows)
        assert got == want
        assert b.bit_generator.state == a.bit_generator.state
        return got

    def _rows(self, n, m, seed, redraw_p=0.4):
        rng = np.random.default_rng(seed)
        return [
            [REDRAW if rng.random() < redraw_p else w for w in range(n)]
            for _ in range(m)
        ]

    def test_buffered_half_word_at_start(self):
        rows = self._rows(9, 12, seed=1)
        for pre in (1, 3):
            self._check(rows, seed=7, pre=pre)

    def test_redraws_fetch_extra_rounds(self):
        # Mostly-redraw rows use several draws each, so the replay must
        # fetch more chunks after its first round, and all-redraw rows
        # exhaust every try.
        rows = self._rows(6, 30, seed=2, redraw_p=0.8)
        rows.append([REDRAW] * 6)
        got = self._check(rows, seed=8)
        assert got[-1] == -1
        self._check(rows, seed=8, pre=1)

    def test_forced_lemire_rejections(self):
        rows = [_Row(HEAVY_REJECT, 3)] * 40
        self._check(rows, seed=3)
        self._check(rows, seed=3, pre=1)

    def test_bound_one_rows(self):
        self._check([[0], [0], [REDRAW]], seed=4)
        self._check([[REDRAW]], seed=4, pre=1)

    def test_empty_batch(self):
        self._check([], seed=5)
        self._check([], seed=5, pre=1)

    def test_unbuilt_entries_resolved_only_when_drawn(self):
        n = 10
        truth = self._rows(n, 25, seed=9)
        rows = [[UNBUILT] * n for _ in truth]
        calls = []

        def resolve(i, w):
            calls.append((i, w))
            rows[i][w] = truth[i][w]
            return truth[i][w]

        a, b = _pair(11, 1)
        want = _scalar_valiant(a, truth)
        assert draw_valiant(b, rows, resolve) == want
        assert b.bit_generator.state == a.bit_generator.state
        assert calls and len(set(calls)) == len(calls)
        for i, row in enumerate(rows):
            for w in range(n):
                assert row[w] == (truth[i][w] if (i, w) in calls else UNBUILT)

    @given(
        seed=st.integers(0, 2**16),
        pre=st.integers(0, 3),
        n=st.integers(1, 40),
        m=st.integers(0, 40),
        redraw_p=st.floats(0.0, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_loop(self, seed, pre, n, m, redraw_p):
        self._check(self._rows(n, m, seed, redraw_p), seed, pre)


@pytest.mark.parametrize("pre", [0, 1])
def test_replays_compose_with_scalar_calls(pre):
    # A cycle's replays sit between scalar calls on one stream (injection
    # draws, the next cycle's replays): the whole sequence must match.
    a, b = _pair(13, pre)
    rows = [[REDRAW, 0, 0, REDRAW, 0]] * 9
    want = [int(a.integers(5))]
    want += _scalar_valiant(a, rows)
    want += [int(a.integers(r)) for r in (4, 1, 9)]
    want += _scalar_valiant(a, rows)
    got = [int(b.integers(5))]
    got += draw_valiant(b, rows)
    got += draw_batch(b, [4, 1, 9])
    got += draw_valiant(b, rows)
    assert got == want
    assert b.bit_generator.state == a.bit_generator.state


# ------------------------------------------------------ Remove-Find streams

@st.composite
def stream_rounds(draw):
    """Per-pair pre-draws, then rounds of one draw per pair of a subset."""
    pairs = draw(st.integers(1, 5))
    bound = st.one_of(st.integers(1, 40), st.sampled_from([HEAVY_REJECT, 2**32 - 1]))
    rounds = draw(st.lists(
        st.lists(st.tuples(st.integers(0, pairs - 1), bound), max_size=pairs)
        .map(lambda xs: list(dict(xs).items())),  # one draw per pair
        max_size=12,
    ))
    return dict(
        pre=draw(st.lists(st.integers(0, 3), min_size=pairs, max_size=pairs)),
        rounds=rounds,
        words=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**16)),
    )


class TestRemoveFindStreams:
    def _check(self, pre, rounds, words, seed=0):
        gens = [_pair(seed + i, p) for i, p in enumerate(pre)]
        want_gens, got_gens = [a for a, _ in gens], [b for _, b in gens]
        streams = _Streams(got_gens, words)
        for draws in rounds:
            want = [int(want_gens[p].integers(r)) for p, r in draws]
            got = streams.draw(
                np.array([p for p, _ in draws], dtype=np.int64),
                np.array([r for _, r in draws], dtype=np.int64),
            )
            assert got.tolist() == want
        streams.finish()
        for a, b in zip(want_gens, got_gens):
            assert b.bit_generator.state == a.bit_generator.state

    def test_no_draws_restores_entry_state(self):
        self._check([0, 1, 3], [], words=2)

    def test_refills_and_forced_rejections(self):
        rounds = [[(0, HEAVY_REJECT), (1, 7)]] * 12 + [[(1, 1), (0, 1)]]
        self._check([0, 1], rounds, words=1, seed=3)

    def test_buffered_half_word_consumed_alone(self):
        self._check([1], [[(0, 9)]], words=2, seed=4)

    @given(case=stream_rounds())
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_calls(self, case):
        self._check(case["pre"], case["rounds"], case["words"], case["seed"])
