"""Reference answers the benchmark checks MSSG against, computed on the CSR.

Each checker returns the number of failed operations it found; the caller
adds them to the run's ``failed`` count.  Nothing here runs inside a timed
section.
"""

from __future__ import annotations

import numpy as np

from repro.bfs.sequential import bfs_levels
from repro.graphgen.csr import CSRGraph

#: PageRank agreement: the vertex-program runtime sums messages in one
#: canonical order, numpy's ``bincount`` in another, so ranks may differ in
#: the last bits.  Ten float64 iterations stay far inside this.
PAGERANK_RTOL = 1e-9


def pagerank(csr: CSRGraph, damping: float, iterations: int) -> np.ndarray:
    """Power iteration with the runtime's conventions: vertices without
    adjacency are absent (rank 0), the rest start at ``1 / n_present``."""
    deg = csr.degrees().astype(np.float64)
    present = deg > 0
    n_eff = int(present.sum())
    ranks = np.where(present, 1.0 / max(n_eff, 1), 0.0)
    src = np.repeat(np.arange(csr.num_vertices), np.diff(csr.xadj))
    for _ in range(iterations):
        share = np.divide(ranks, deg, out=np.zeros_like(ranks), where=present)
        incoming = np.bincount(csr.adj, weights=share[src], minlength=csr.num_vertices)
        ranks = np.where(present, (1.0 - damping) / n_eff + damping * incoming, 0.0)
    return ranks


def component_labels(csr: CSRGraph) -> dict[int, int]:
    """Smallest vertex id of each present vertex's component (union-find)."""
    parent = np.arange(csr.num_vertices)

    def find(v: int) -> int:
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:  # path compression
            parent[v], v = root, parent[v]
        return root

    src = np.repeat(np.arange(csr.num_vertices), np.diff(csr.xadj))
    for u, v in zip(src.tolist(), csr.adj.tolist()):
        ru, rv = find(u), find(v)
        if ru != rv:  # keep the smaller id as the root
            parent[max(ru, rv)] = min(ru, rv)
    present = np.flatnonzero(np.diff(csr.xadj) > 0)
    return {int(v): find(int(v)) for v in present}


def check_pagerank(report, csr: CSRGraph, damping: float, iterations: int) -> int:
    want = pagerank(csr, damping, iterations)
    got = report.result.get("ranks", {})
    present = np.flatnonzero(want > 0)
    if report.result["iterations"] != iterations or len(got) != len(present):
        return 1
    have = np.array([got.get(int(v), -1.0) for v in present])
    return int(not np.allclose(have, want[present], rtol=PAGERANK_RTOL, atol=0.0))


def check_components(report, csr: CSRGraph) -> int:
    return int(report.result.get("labels") != component_labels(csr))


def check_distances(reports, distances) -> int:
    """BFS answers against known hop distances; partial, deadline-cut or
    wrong answers each count as one failed query."""
    return sum(
        r.partial or r.deadline_exceeded or r.result != d
        for r, d in zip(reports, distances, strict=True)
    )


class SnapshotDistances:
    """Hop distances on base + the first ``k`` stream batches, per ``k``."""

    def __init__(self, base: np.ndarray, batches: list[np.ndarray], num_vertices: int):
        self._base, self._batches, self._n = base, batches, num_vertices
        self._graphs: dict[int, CSRGraph] = {}
        self._levels: dict[tuple[int, int], np.ndarray] = {}

    def distance(self, snapshot: int, source: int, dest: int) -> int:
        g = self._graphs.get(snapshot)
        if g is None:
            edges = np.concatenate([self._base, *self._batches[:snapshot]])
            g = self._graphs[snapshot] = CSRGraph.from_edges(edges, self._n)
        levels = self._levels.get((snapshot, source))
        if levels is None:
            levels = self._levels[(snapshot, source)] = bfs_levels(g, source)
        return int(levels[dest])

    def check(self, reports, pairs) -> int:
        return sum(
            r.partial
            or r.deadline_exceeded
            or r.snapshot_seq is None
            or r.result != self.distance(r.snapshot_seq, s, d)
            for r, (s, d) in zip(reports, pairs, strict=True)
        )


def check_adjacency(mssg, csr: CSRGraph, vertices) -> int:
    """Stored adjacency of ``vertices`` on their owners against the CSR;
    each differing list counts as one failure."""
    owners = mssg.declusterer.owner_of(np.asarray(vertices, dtype=np.int64))
    bad = 0
    for v, q in zip(vertices, owners.tolist()):
        got = np.sort(mssg.dbs[q].get_adjacency(int(v)))
        bad += not np.array_equal(got, np.sort(csr.neighbors(int(v))))
    return bad
