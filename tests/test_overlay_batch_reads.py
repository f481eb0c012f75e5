"""Batched overlay reads and compact cache balls.

* ``DynamicGraph.transition_probabilities_many`` / ``degrees_of`` against
  the per-node ``transition_probabilities`` / ``degree`` (hypothesis),
  with the merged rows also pinned to the scalar reference merge;
* the packed-bit and ``searchsorted`` ball intersections against
  ``np.isin`` (hypothesis);
* the session cache: hits rebuild ``stats.visited_ball`` exactly, and
  each entry's ball costs at most ``min(⌈n/8⌉, 4·|ball|)`` bytes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.localgraph import LocalView
from repro.core.session import (
    QuerySession,
    _ball_ids,
    _ball_intersects,
    _pack_ball,
)
from repro.graph.dynamic import DynamicGraph
from repro.graph.generators import erdos_renyi, path_graph
from repro.graph.memory import CSRGraph
from tests.reference.dynamic_scalar import neighbors_scalar

# ----------------------------------------------------------------------
# Batch reads on the overlay
# ----------------------------------------------------------------------


@st.composite
def overlay_cases(draw):
    """A base graph whose last node is isolated, an edit script, and a
    batch of node ids (possibly empty, possibly with duplicates)."""
    integer = draw(st.booleans())
    weight = (
        st.integers(1, 5).map(float)
        if integer
        else st.floats(0.1, 5.0, allow_nan=False)
    )
    n = draw(st.integers(3, 12))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 2), st.integers(0, n - 2)).filter(
                lambda p: p[0] != p[1]
            ),
            max_size=3 * n,
            unique_by=lambda p: (min(p), max(p)),
        )
    )
    base = CSRGraph.from_edges(
        n, pairs, [draw(weight) for _ in pairs]
    )
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.sampled_from(["add", "remove", "readd", "add_remove"]),
                weight,
            ),
            max_size=25,
        )
    )
    batch = draw(st.lists(st.integers(0, n - 1), max_size=3 * n))
    return integer, base, ops, np.array(batch, dtype=np.int64)


def _apply(dyn: DynamicGraph, ops) -> None:
    for u, v, action, w in ops:
        if u == v:
            continue
        if action == "add":
            # Inserts a delta-only edge or overrides a base weight.
            dyn.add_edge(u, v, w)
        elif action == "remove":
            # Tombstones a base edge or drops a delta-only one.
            if dyn.has_edge(u, v):
                dyn.remove_edge(u, v)
        elif action == "readd":
            if dyn.has_edge(u, v):
                dyn.remove_edge(u, v)
            dyn.add_edge(u, v, w)
        elif not dyn.has_edge(u, v):
            # add_remove on a fresh pair: the delta record can empty.
            dyn.add_edge(u, v, w)
            dyn.remove_edge(u, v)


def _assert_batch_matches_per_node(dyn: DynamicGraph, batch, exact: bool):
    ids, probs, counts = dyn.transition_probabilities_many(batch)
    assert len(counts) == len(batch)
    assert counts.sum() == len(ids) == len(probs)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    for i, u in enumerate(batch):
        ref_ids, ref_probs = dyn.transition_probabilities(int(u))
        lo, hi = offsets[i], offsets[i + 1]
        np.testing.assert_array_equal(ids[lo:hi], ref_ids)
        if exact:
            np.testing.assert_array_equal(probs[lo:hi], ref_probs)
        else:
            np.testing.assert_allclose(probs[lo:hi], ref_probs, rtol=1e-12)
        # The merge itself is the scalar reference merge.
        np.testing.assert_array_equal(
            ids[lo:hi], neighbors_scalar(dyn, int(u))[0]
        )
    degrees = dyn.degrees_of(batch)
    assert degrees.dtype == np.float64
    np.testing.assert_array_equal(
        degrees, [dyn.degree(int(u)) for u in batch]
    )


class TestOverlayBatchReads:
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(overlay_cases())
    def test_batch_equals_per_node(self, case):
        integer, base, ops, batch = case
        dyn = DynamicGraph(base)
        _apply(dyn, ops)
        _assert_batch_matches_per_node(dyn, batch, exact=integer)

    def test_every_delta_shape_in_one_batch(self):
        # 0-1, 1-2, 2-3 in the base; node 5 isolated throughout.
        base = CSRGraph.from_edges(6, [(0, 1), (1, 2), (2, 3)], [1, 2, 3])
        dyn = DynamicGraph(base)
        dyn.remove_edge(0, 1)  # tombstoned base edge
        dyn.add_edge(1, 2, 7.0)  # weight override
        dyn.add_edge(3, 4, 2.0)  # delta-only insertion
        dyn.remove_edge(2, 3)
        dyn.add_edge(2, 3, 4.0)  # remove-then-re-add
        dyn.add_edge(0, 4, 1.0)
        dyn.remove_edge(0, 4)  # node 0's delta keeps only a tombstone
        dyn.add_edge(1, 4, 1.0)
        dyn.remove_edge(1, 4)
        assert dyn._has_delta.tolist() == [True] * 5 + [False]
        dyn.add_edge(3, 5, 1.0)
        dyn.remove_edge(3, 5)  # node 5's delta record emptied
        assert not dyn._has_delta[5]
        batch = np.array([5, 0, 1, 1, 2, 3, 4, 5, 0], dtype=np.int64)
        _assert_batch_matches_per_node(dyn, batch, exact=True)
        ids, probs, counts = dyn.transition_probabilities_many(batch)
        assert counts.tolist() == [0, 0, 1, 1, 2, 2, 1, 0, 0]

    def test_empty_batch(self):
        dyn = DynamicGraph(path_graph(4))
        dyn.add_edge(0, 3, 2.0)
        ids, probs, counts = dyn.transition_probabilities_many(
            np.empty(0, dtype=np.int64)
        )
        assert len(ids) == len(probs) == len(counts) == 0
        assert len(dyn.degrees_of(np.empty(0, dtype=np.int64))) == 0

    def test_localview_reads_overlay_in_batches(self):
        """The view never falls back to per-node reads on the overlay."""
        dyn = DynamicGraph(erdos_renyi(60, 180, seed=2))
        dyn.add_edge(0, 59, 3.0)

        def refuse(*_args, **_kwargs):
            raise AssertionError("per-node read on the batch path")

        dyn.transition_probabilities = refuse
        dyn.degree = refuse
        view = LocalView(dyn, 0)
        view.expand_batch(np.arange(view.size))
        view.expand_batch(np.arange(view.size))
        assert view.size > 1
        assert not view.check_invariants()


# ----------------------------------------------------------------------
# Compact cache balls
# ----------------------------------------------------------------------


@st.composite
def balls_and_touched(draw):
    n = draw(st.integers(1, 300))
    ball = np.array(
        sorted(draw(st.sets(st.integers(0, n - 1), max_size=n))),
        dtype=np.int32,
    )
    touched = np.array(
        draw(st.lists(st.integers(0, n - 1), max_size=12)), dtype=np.int64
    )
    return n, ball, touched


class TestCompactBalls:
    @settings(max_examples=150, deadline=None)
    @given(balls_and_touched())
    def test_intersection_agrees_with_isin(self, case):
        n, ball, touched = case
        expected = bool(np.isin(touched, ball).any())
        marks = np.zeros(n, dtype=bool)
        marks[ball] = True
        bits = np.packbits(marks, bitorder="little")
        assert _ball_intersects(bits, touched) == expected
        assert _ball_intersects(ball, touched) == expected
        packed = _pack_ball(ball, n)
        assert _ball_intersects(packed, touched) == expected
        assert packed.nbytes <= min(-(-n // 8), ball.nbytes)
        np.testing.assert_array_equal(_ball_ids(packed), ball)
        assert _ball_ids(packed).dtype == np.int32

    @pytest.mark.parametrize(
        "graph, queries",
        [
            # Large balls relative to n: stored as packed bits.
            (erdos_renyi(300, 900, seed=4), [0, 5, 17, 42]),
            # Small balls on a long path: stored as int32 ids.
            (path_graph(2000), [10, 700, 1500]),
        ],
    )
    def test_hits_rebuild_the_ball_and_entries_stay_small(
        self, graph, queries
    ):
        dyn = DynamicGraph(graph)
        session = QuerySession(dyn, "php", c=0.5)
        n = dyn.num_nodes
        misses = {q: session.top_k(q, 3) for q in queries}
        for q, miss in misses.items():
            hit = session.top_k(q, 3)
            ball = hit.stats.visited_ball
            np.testing.assert_array_equal(ball, miss.stats.visited_ball)
            assert ball.dtype == np.int32
            assert not ball.flags.writeable
            assert np.all(np.diff(ball) > 0)
        assert session.metrics().cache_hits == len(queries)
        for entry in session._cache._store.values():
            size = len(_ball_ids(entry.ball))
            assert entry.ball.nbytes <= min(-(-n // 8), 4 * size)
            assert entry.result.stats.visited_ball is None
            assert entry.seed_nodes.dtype == np.int32
