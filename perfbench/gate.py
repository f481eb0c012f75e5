"""The oracle gate: which answers are checked, and how failures count.

A read fails when it raised, came back not exact, or disagrees with the
oracle.  What is checked, per workload (outside the timed region):

* distinct streams: the reads of a fixed per-seed subsample of query
  nodes (stream positions ``0, STRIDE, 2·STRIDE, …``, at most
  ``oracle_limit`` of them; every read when the limit is 0);
* Zipf streams on an immutable graph (``serve-zipf``): every read of the
  ``oracle_limit`` most popular query nodes, and every answer for one
  node must equal every other answer for that node;
* ``churn``: every read, against the graph the read saw — the base graph
  plus the update batches applied before it, assembled here as a sparse
  matrix (the schedule only removes edges it inserted).  Warm-started and
  cached answers are held to the same test: their certified intervals
  must bracket the exact values of that graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from perfbench.oracle import check_answer, proximity_vectors, rank_tolerance
from perfbench.workloads import C, K, TIE_EPSILON, write_atomic

STRIDE = 20


@dataclass
class Verdict:
    attempted: int = 0
    oracle_checked: int = 0
    problems: list = field(default_factory=list)
    _bad: set = field(default_factory=set)

    def fail(self, read: int, problem: str) -> None:
        if read not in self._bad:
            self._bad.add(read)
            self.problems.append(f"read {read}: {problem}")

    @property
    def failed(self) -> int:
        return len(self._bad)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "oracle_checked": self.oracle_checked,
            "error_rate": self.error_rate,
            "problems": self.problems[:20],
        }


def check(workload, inputs, answers: dict) -> Verdict:
    """Check one run's answers (the arrays ``driver.Loop.save`` wrote)."""
    from repro.graph.io.binary import load_npz

    adjacency = load_npz(inputs.graph_path).to_scipy().tocsr()
    verdict = Verdict(attempted=len(answers["query"]))
    for read in np.flatnonzero(~answers["ok"]):
        verdict.fail(int(read), "raised")
    for read in np.flatnonzero(answers["ok"] & ~answers["exact"]):
        verdict.fail(int(read), "answer not certified exact")

    if workload.mode == "churn":
        _check_churn(workload, inputs, answers, verdict, adjacency)
        return verdict

    queries = answers["query"]
    if workload.stream == "zipf":
        # A fixed node set on a fixed graph: computed once per checkout.
        _check_consistency(answers, verdict)
        chosen = inputs.pool[: workload.oracle_limit or None]
        cache = inputs.directory.parent / f"oracle-top{len(chosen)}.npy"
        if cache.is_file():
            vectors = np.load(cache)
        else:
            vectors = proximity_vectors(adjacency, workload.measure, C, chosen)
            write_atomic(cache, lambda path: np.save(path, vectors))
        truth = {int(q): vectors[:, i] for i, q in enumerate(chosen)}
    else:
        chosen = inputs.stream
        if workload.oracle_limit:
            chosen = chosen[: STRIDE * workload.oracle_limit : STRIDE]
        truth = None
    reads = np.flatnonzero(np.isin(queries, chosen) & answers["ok"])
    _check_reads(workload, adjacency, answers, reads, verdict, truth)
    return verdict


def _check_reads(workload, adjacency, answers, reads, verdict, truth=None) -> None:
    """Check ``reads``; ``truth`` maps query -> oracle vector (computed
    here when not given)."""
    if len(reads) == 0:
        return
    queries = answers["query"][reads]
    if truth is None:
        distinct = np.unique(queries)
        vectors = proximity_vectors(adjacency, workload.measure, C, distinct)
        truth = {int(q): vectors[:, i] for i, q in enumerate(distinct)}
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    for read, q in zip(reads, queries):
        values = truth[int(q)]
        nodes = answers["nodes"][read]
        count = int(np.count_nonzero(nodes >= 0))
        problem = check_answer(
            values,
            int(q),
            K,
            nodes[:count],
            answers["lower"][read][:count],
            answers["upper"][read][:count],
            bool(answers["exact"][read]),
            rank_tolerance(
                workload.measure, values, float(degrees[q]), int(q), TIE_EPSILON
            ),
        )
        verdict.oracle_checked += 1
        if problem is not None:
            verdict.fail(int(read), f"query {int(q)}: {problem}")


def _check_consistency(answers, verdict) -> None:
    """On an immutable graph every answer for one query is the same."""
    first: dict[int, int] = {}
    for read in np.flatnonzero(answers["ok"]):
        q = int(answers["query"][read])
        ref = first.setdefault(q, int(read))
        if ref == read:
            continue
        for key in ("nodes", "lower", "upper"):
            if not np.array_equal(
                answers[key][read], answers[key][ref], equal_nan=key != "nodes"
            ):
                verdict.fail(int(read), f"query {q}: differs from read {ref}")
                break


def _check_churn(workload, inputs, answers, verdict, base) -> None:
    ok = answers["ok"]
    n = base.shape[0]
    for phase in np.unique(answers["phase"]):
        live: set[tuple[int, int]] = set()
        applied = 0
        in_phase = answers["phase"] == phase
        for batches in np.unique(answers["batches"][in_phase]):
            while applied < batches:
                for (u, v), kind in zip(
                    inputs.update_pairs[applied], inputs.update_kinds[applied]
                ):
                    if kind:
                        live.add((int(u), int(v)))
                    else:
                        live.discard((int(u), int(v)))
                applied += 1
            edges = np.array(list(live), dtype=np.int64).reshape(-1, 2)
            rows = np.r_[edges[:, 0], edges[:, 1]]
            cols = np.r_[edges[:, 1], edges[:, 0]]
            added = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
            reads = np.flatnonzero(in_phase & (answers["batches"] == batches) & ok)
            _check_reads(workload, base + added, answers, reads, verdict)
