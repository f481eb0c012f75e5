"""Oracle gate: whole-graph power iteration and a tie-aware answer check.

The oracle never runs the local search it checks.  It iterates the
measure's recursion over the entire graph, many queries at once
(one sparse-times-dense product per sweep), far past the engine's own
tolerance: the recursion contracts by ``decay`` per sweep, so
``ceil(log(1e-12) / log(decay))`` sweeps leave an error below 1e-12 (the gate allows 1e-9).

* PHP(c):  ``h = c·P·h`` off the query, ``h_q = 1``.
* RWR(c):  ``r = (1-c)·Pᵀ·r + c·e_q``.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

#: Absolute slack for float rounding when comparing certified bounds
#: with oracle values.
ATOL = 1e-9
BLOCK = 32


def proximity_vectors(adjacency, measure: str, c: float, queries) -> np.ndarray:
    """Exact proximity columns ``(n, len(queries))`` for ``queries`` on the
    graph with (symmetric, weighted) adjacency matrix ``adjacency``."""
    adjacency = sp.csr_matrix(adjacency, dtype=np.float64)
    degree = np.asarray(adjacency.sum(axis=1)).ravel()
    inverse = np.divide(1.0, degree, out=np.zeros_like(degree), where=degree > 0)
    transition = sp.diags(inverse) @ adjacency
    if measure == "php":
        operator, decay = (c * transition).tocsr(), c
    elif measure == "rwr":
        operator, decay = ((1.0 - c) * transition.T).tocsr(), 1.0 - c
    else:
        raise ValueError(f"no oracle for measure {measure!r}")
    sweeps = math.ceil(math.log(1e-12) / math.log(decay))
    queries = np.asarray(queries, dtype=np.int64)
    out = np.empty((adjacency.shape[0], len(queries)))
    for lo in range(0, len(queries), BLOCK):
        block = queries[lo : lo + BLOCK]
        cols = np.arange(len(block))
        unit = np.zeros((adjacency.shape[0], len(block)))
        unit[block, cols] = 1.0
        x = unit.copy()
        for _ in range(sweeps):
            if measure == "php":
                x = operator @ x
                x[block, cols] = 1.0
            else:
                x = operator @ x + c * unit
        out[:, lo : lo + len(block)] = x
    return out


def rank_tolerance(
    measure: str, values: np.ndarray, degree: float, query: int, tie_epsilon: float
) -> float:
    """The termination check's tie tolerance, in the measure's units.

    The engine certifies its top-k in PHP-score space with slack
    ``tie_epsilon``; RWR values are that score times ``RWR_q / w_q``.
    """
    if measure == "rwr":
        return tie_epsilon * float(values[query]) / degree
    return tie_epsilon


def check_answer(
    values: np.ndarray,
    query: int,
    k: int,
    nodes: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    exact: bool,
    tolerance: float,
) -> str | None:
    """Why one answer disagrees with the oracle vector ``values`` (or None).

    Tie-aware: every returned node's certified ``[lower, upper]`` must
    bracket its oracle value, and a node outside the oracle's top-k must
    tie the rank-k boundary within the termination check's tolerance.
    """
    if not exact:
        return "answer not certified exact"
    others = np.delete(values, query)
    expected = min(k, int(np.count_nonzero(others > 0.0)))
    if len(nodes) != expected:
        return f"returned {len(nodes)} nodes, expected {expected}"
    if len(nodes) == 0:
        return None
    if len(set(nodes.tolist())) != len(nodes) or query in set(nodes.tolist()):
        return "duplicate nodes or the query itself in the answer"
    truth = values[nodes]
    outside = (truth < lower - ATOL) | (truth > upper + ATOL)
    if outside.any():
        i = int(np.flatnonzero(outside)[0])
        return (
            f"node {int(nodes[i])}: oracle value {truth[i]:.12g} outside "
            f"certified [{lower[i]:.12g}, {upper[i]:.12g}]"
        )
    kth = float(np.partition(others, len(others) - expected)[len(others) - expected])
    short = truth < kth - tolerance - ATOL
    if short.any():
        i = int(np.flatnonzero(short)[0])
        return (
            f"node {int(nodes[i])}: oracle value {truth[i]:.12g} below the "
            f"rank-{expected} value {kth:.12g} by more than the tie tolerance"
        )
    return None
