"""Updatable graph overlay — FLoS queries on evolving graphs.

The paper motivates local search with exactly this scenario (Sec. 1):
precomputation-based methods must repeat their expensive offline step
"whenever the graph changes", while FLoS needs no preprocessing at all,
so a query issued right after an update is answered against the fresh
topology at no extra cost.

``DynamicGraph`` wraps a frozen base :class:`~repro.graph.memory.CSRGraph`
with an edge delta (insertions, deletions, weight changes) kept in
per-node hash maps.  It implements the full
:class:`~repro.graph.base.GraphAccess` contract, so ``flos_top_k`` — and
every other local method in the library — runs on it unchanged.  Batch
reads (:meth:`DynamicGraph.transition_probabilities_many`,
:meth:`DynamicGraph.degrees_of`) cost one base CSR gather plus a splice
of the merged row of each node that has a delta; a node's row is merged
once per change to its delta.  When the delta grows large,
:meth:`compact` folds it into a fresh CSR graph.

Global baselines, by contrast, would have to rebuild their matrices
(GI/Castanet) or redo their factorisation/clustering/embedding
(K-dash / LS / GE) after every change — the asymmetry the paper points
out.  ``examples``/``tests`` use this class to demonstrate it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.base import GraphAccess
from repro.graph.builder import GraphBuilder
from repro.graph.memory import CSRGraph
from repro.graph.updates import UpdateLog
from repro.nputil import concatenated_ranges, segment_sums


class DynamicGraph(GraphAccess):
    """A CSR base graph plus an in-memory edge delta.

    All mutations keep the undirected invariant (both endpoints updated
    together).  Edge semantics:

    * :meth:`add_edge` inserts a new edge or *overwrites* the weight of
      an existing one (base or delta);
    * :meth:`remove_edge` deletes an edge (base edges are masked by a
      tombstone in the delta).

    Every mutation bumps the monotone :attr:`version` counter and
    appends an event to :attr:`update_log` — serving sessions use the
    pair to invalidate only the cached results whose visited ball an
    update actually touched (see ``docs/serving.md``).
    """

    def __init__(self, base: CSRGraph, *, update_log: UpdateLog | None = None):
        self._base = base
        # Per-node delta: {neighbor: weight}; weight None is a tombstone
        # masking a base edge.
        self._delta: dict[int, dict[int, float | None]] = {}
        # Merged (base ⊕ delta) rows of nodes with a delta, built on
        # first read and dropped when the node's delta changes, so a
        # read-heavy workload merges once per mutated node, not per read.
        self._merged: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # True where a node's delta record is non-empty: batch reads
        # find the rows to merge with one gather, not a dict probe each.
        self._has_delta = np.zeros(base.num_nodes, dtype=bool)
        self._degree_delta = np.zeros(base.num_nodes, dtype=np.float64)
        self._edge_count_delta = 0
        self._max_degree_dirty = False
        self._max_degree_cache = base.max_degree
        self.update_log = update_log if update_log is not None else UpdateLog()

    @property
    def version(self) -> int:
        """Monotone mutation counter (0 for a freshly wrapped base)."""
        return self.update_log.version

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Insert edge (u, v) or overwrite its weight."""
        self._check_pair(u, v)
        if weight <= 0:
            raise GraphError("edge weights must be positive")
        old = self._current_weight(u, v)
        self._set_delta(u, v, weight)
        self._set_delta(v, u, weight)
        change = weight - (old or 0.0)
        self._degree_delta[u] += change
        self._degree_delta[v] += change
        if old is None:
            self._edge_count_delta += 1
        self._max_degree_dirty = True
        self.update_log.record(u, v, "add")

    def remove_edge(self, u: int, v: int) -> None:
        """Delete edge (u, v); raises if it does not exist."""
        self._check_pair(u, v)
        old = self._current_weight(u, v)
        if old is None:
            raise GraphError(f"edge ({u}, {v}) does not exist")
        in_base = self._base_weight(u, v) is not None
        if in_base:
            self._set_delta(u, v, None)  # tombstone
            self._set_delta(v, u, None)
        else:
            self._delta[u].pop(v, None)
            self._delta[v].pop(u, None)
            self._merged.pop(u, None)
            self._merged.pop(v, None)
            self._has_delta[u] = bool(self._delta[u])
            self._has_delta[v] = bool(self._delta[v])
        self._degree_delta[u] -= old
        self._degree_delta[v] -= old
        self._edge_count_delta -= 1
        self._max_degree_dirty = True
        self.update_log.record(u, v, "remove")

    def has_edge(self, u: int, v: int) -> bool:
        self._check_pair(u, v)
        return self._current_weight(u, v) is not None

    def edge_weight(self, u: int, v: int) -> float:
        w = self._current_weight(u, v)
        if w is None:
            raise GraphError(f"edge ({u}, {v}) does not exist")
        return w

    @property
    def num_delta_entries(self) -> int:
        """Number of per-endpoint delta records (compaction heuristic)."""
        return sum(len(d) for d in self._delta.values())

    def compact(self) -> CSRGraph:
        """Fold base + delta into a fresh immutable CSR graph.

        Also performs the update-log handshake: the compacted graph is
        a new object, so every version stamped against this overlay is
        stale — :meth:`UpdateLog.compact` drops the retained events,
        after which ``events_since`` answers ``None`` (cold start) for
        all of them.
        """
        self.update_log.compact()
        builder = GraphBuilder(self.num_nodes, merge="first")
        for u in range(self.num_nodes):
            ids, weights = self.neighbors(u)
            keep = ids > u
            if keep.any():
                edges = np.stack(
                    [np.full(int(keep.sum()), u, dtype=np.int64), ids[keep]],
                    axis=1,
                )
                builder.add_edges(edges, weights[keep])
        return builder.build()

    # ------------------------------------------------------------------
    # GraphAccess interface
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._base.num_nodes

    @property
    def num_edges(self) -> int:
        return self._base.num_edges + self._edge_count_delta

    def neighbors(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Merged (base ⊕ delta) adjacency of ``u``.

        Nodes without a delta return the base CSR slice.  For the others
        the merged row is built once (:meth:`_merge`) and served from a
        per-node cache until the node's delta changes; the cached
        arrays are read-only.
        """
        self.validate_node(u)
        if not self._has_delta[u]:
            return self._base.neighbors(u)
        merged = self._merged.get(u)
        if merged is None:
            merged = self._merged[u] = self._merge(u)
        return merged

    def _merge(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized merge of ``u``'s base row with its delta record.

        The delta is laid out as aligned id/weight arrays (insertion
        order, NaN marks a tombstone); base entries are matched against
        the sorted delta ids with one ``searchsorted`` gather instead of
        a dict probe per neighbor, and the delta ids that matched no
        base entry are the insertions.  Output order matches the scalar
        reference merge in ``tests/reference`` (pinned by a hypothesis
        test): base adjacency order with overridden weights in place and
        tombstones dropped, then delta-only edges in insertion order.
        """
        base_ids, base_w = self._base.neighbors(u)
        delta = self._delta[u]
        d_ids = np.fromiter(delta.keys(), dtype=np.int64, count=len(delta))
        d_w = np.fromiter(
            (np.nan if w is None else w for w in delta.values()),
            dtype=np.float64,
            count=len(delta),
        )

        order = np.argsort(d_ids, kind="stable")
        sorted_ids = d_ids[order]
        pos = np.minimum(
            np.searchsorted(sorted_ids, base_ids), len(sorted_ids) - 1
        )
        in_delta = sorted_ids[pos] == base_ids
        override_w = d_w[order][pos]
        keep = ~(in_delta & np.isnan(override_w))
        merged_w = np.where(in_delta, override_w, base_w)[keep]
        merged_ids = base_ids[keep]

        # Delta-only insertions, appended in insertion order to mirror
        # the scalar dict iteration.
        extra = ~np.isnan(d_w)
        extra[order[pos[in_delta]]] = False
        if extra.any():
            merged_ids = np.concatenate([merged_ids, d_ids[extra]])
            merged_w = np.concatenate([merged_w, d_w[extra]])
        merged_ids.flags.writeable = False
        merged_w.flags.writeable = False
        return merged_ids, merged_w

    def degree(self, u: int) -> float:
        self.validate_node(u)
        return self._base.degree(u) + float(self._degree_delta[u])

    def degrees_of(self, nodes: np.ndarray) -> np.ndarray:
        """Batched :meth:`degree`: the same float64 sum, one gather."""
        nodes = np.asarray(nodes, dtype=np.int64)
        return self._base.degrees[nodes] + self._degree_delta[nodes]

    def transition_probabilities_many(
        self, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`transition_probabilities` over the overlay.

        Rows without a delta are pulled from the base CSR with one
        multi-slice gather; only the rows of nodes whose delta record is
        non-empty are merged, through :meth:`neighbors`, and spliced in.
        Each row is divided by its own weight sum, as the per-node
        method does, so integer weights give bitwise-equal results.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        base = self._base
        indptr = base._indptr
        starts = indptr[nodes]
        counts = indptr[nodes + 1] - starts
        dirty = np.flatnonzero(self._has_delta[nodes])
        if len(dirty) == 0:
            take = concatenated_ranges(starts, counts)
            ids = base._indices[take]
            weights = base._weights[take]
        else:
            merged = [self.neighbors(int(nodes[i])) for i in dirty]
            counts[dirty] = [len(m_ids) for m_ids, _ in merged]
            out_starts = np.cumsum(counts) - counts
            clean = np.ones(len(nodes), dtype=bool)
            clean[dirty] = False
            src = concatenated_ranges(starts[clean], counts[clean])
            dst = concatenated_ranges(out_starts[clean], counts[clean])
            spliced = concatenated_ranges(out_starts[dirty], counts[dirty])
            total = int(counts.sum())
            ids = np.empty(total, dtype=np.int64)
            weights = np.empty(total, dtype=np.float64)
            ids[dst] = base._indices[src]
            weights[dst] = base._weights[src]
            ids[spliced] = np.concatenate([m_ids for m_ids, _ in merged])
            weights[spliced] = np.concatenate([m_w for _, m_w in merged])
        owner = np.repeat(np.arange(len(nodes), dtype=np.int64), counts)
        sums = segment_sums(weights, owner, len(nodes))
        # Rows summing to 0 (isolated nodes) come out all-zero.
        sums = np.where(sums > 0.0, sums, np.inf)
        return ids, weights / sums[owner], counts

    @property
    def max_degree(self) -> float:
        if self._max_degree_dirty:
            degrees = self._base.degrees + self._degree_delta
            self._max_degree_cache = float(degrees.max()) if len(degrees) else 0.0
            self._max_degree_dirty = False
        return self._max_degree_cache

    # ------------------------------------------------------------------

    def _check_pair(self, u: int, v: int) -> None:
        self.validate_node(u)
        self.validate_node(v)
        if u == v:
            raise GraphError("self loops are not allowed")

    def _base_weight(self, u: int, v: int) -> float | None:
        ids, weights = self._base.neighbors(u)
        pos = np.flatnonzero(ids == v)
        return float(weights[pos[0]]) if len(pos) else None

    def _current_weight(self, u: int, v: int) -> float | None:
        delta = self._delta.get(u)
        if delta is not None and v in delta:
            return delta[v]
        return self._base_weight(u, v)

    def _set_delta(self, u: int, v: int, weight: float | None) -> None:
        self._delta.setdefault(u, {})[v] = weight
        self._merged.pop(u, None)
        self._has_delta[u] = True


#: ISSUE/paper alias — the overlay is called a "delta graph" in the
#: incremental-serving write-up.
DeltaGraph = DynamicGraph
