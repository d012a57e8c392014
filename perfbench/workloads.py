"""The four benchmark workloads, driven through the public ``MSSG`` façade.

Every workload is one deployment of 2 front-ends and 4 back-ends over
``graphgen.pubmed_like(NUM_VERTICES, seed)`` with the seed defaults
(compressed adjacency, CRC-framed devices, WAL-journaled grDB flushes, the
shared 2q block pool) unless stated.  One iteration is:

* **set-up** (timed as ``setup_s``): generate the graph, sample queries,
  deploy, base-ingest and warm up;
* **timed section** (``wall_s``/``virtual_s``): the workload's operations;
* **check** (untimed): compare every answer with an oracle.

Iterations rebuild everything from the seed, so each one starts from the
same state and its virtual results are bit-identical to the others'.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np

import oracles
from repro import MSSG, MSSGConfig
from repro.bfs.sequential import sample_queries_by_distance
from repro.graphgen import pubmed_like
from repro.graphgen.csr import CSRGraph
from repro.services.ingestion import IngestReport

NUM_VERTICES = 2000
FRONTENDS, BACKENDS = 2, 4
#: Closed loop: this many clients pull queries from one FIFO.
INFLIGHT = 16
#: Query mix: QUERIES_PER_DISTANCE pairs at each hop distance, so every
#: seed drains the same amount of BFS work (a free draw of distances makes
#: the drain's cost swing by a third between seeds).  128 queries leave
#: 12 samples beyond the p90.
DISTANCES = (1, 2, 3, 4)
QUERIES_PER_DISTANCE = 32
WARMUP_QUERIES = 2
#: bfs-drain's block cache per back-end, in 4 KiB blocks: about a third of
#: the store a back-end holds at NUM_VERTICES (the out-of-core regime).
DRAIN_CACHE_BLOCKS = 3
PAGERANK_ITERS = 10
PAGERANK_DAMPING = 0.85
STREAM_BATCHES = 8
#: Vertices whose stored adjacency the ingest check reads back.
ADJACENCY_SAMPLE = 32


@dataclass
class Outcome:
    """What one timed section produced."""

    virtual_s: float
    #: Virtual latency of each user-facing operation (queries; the ingest
    #: call itself on ``ingest``).
    latencies: list
    #: Everything the answers and virtual results consist of; equal across
    #: iterations of one seed, traced or not.
    fingerprint: tuple
    attempted: int = 0
    failed: int = 0
    #: Reports the per-layer metrics read: "drain", "ingest", "pagerank",
    #: "components", "compact" and "compact_wall_s".
    reports: dict = field(default_factory=dict)


def _graph(seed: int):
    edges = pubmed_like(NUM_VERTICES, seed=seed)
    return edges, CSRGraph.from_edges(edges, NUM_VERTICES)


def _deploy(**kw) -> MSSG:
    return MSSG(MSSGConfig(num_frontends=FRONTENDS, num_backends=BACKENDS, **kw))


def _queries(csr: CSRGraph, seed: int):
    """The query mix, interleaved by distance so every client sees all."""
    strata = []
    for dist in DISTANCES:
        qs = sample_queries_by_distance(csr, QUERIES_PER_DISTANCE, seed=seed * 16 + dist,
                                        min_distance=dist, max_distance=dist)
        if len(qs) != QUERIES_PER_DISTANCE:
            raise RuntimeError(f"sampled {len(qs)} of {QUERIES_PER_DISTANCE} queries at {dist}")
        strata.append(qs)
    qs = [q for group in zip(*strata) for q in group]
    return [(s, d) for s, d, _ in qs], [d for _, _, d in qs]


def _bfs_fingerprint(drain) -> tuple:
    return tuple((r.result, r.seconds, r.queue_seconds, r.snapshot_seq) for r in drain.queries)


class Workload:
    name = ""
    #: Block cache per back-end (4 KiB blocks).
    cache_blocks = MSSGConfig.cache_blocks
    #: Independent graphs (sub-seeds) one round of a plain run covers; the
    #: metrics pool them, which narrows the spread between seeds.
    instances = 1

    def inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def deploy(self, inp: dict) -> MSSG:
        raise NotImplementedError

    def run(self, mssg: MSSG, inp: dict) -> Outcome:
        raise NotImplementedError

    def check(self, mssg: MSSG, inp: dict, out: Outcome) -> None:
        """Fill ``out.attempted``/``out.failed`` from the oracle."""
        raise NotImplementedError


class Ingest(Workload):
    """One bulk ``MSSG.ingest`` into grDB: the write path."""

    name = "ingest"
    instances = 8

    def inputs(self, seed):
        edges, csr = _graph(seed)
        rng = np.random.default_rng(seed)
        sample = np.unique(np.concatenate([[0], rng.integers(0, NUM_VERTICES, ADJACENCY_SAMPLE)]))
        return {"edges": edges, "csr": csr, "sample": sample}

    def deploy(self, inp):
        return _deploy()

    def run(self, mssg, inp):
        rep = mssg.ingest(inp["edges"])
        fp = (rep.seconds, rep.entries_stored, tuple(rep.per_backend_entries), rep.lost_entries)
        return Outcome(rep.seconds, [rep.seconds], fp, reports={"ingest": rep})

    def check(self, mssg, inp, out):
        rep = out.reports["ingest"]
        expected = 2 * len(inp["edges"])
        # Failures are directed entries lost or miscounted, plus read-back
        # adjacency lists that differ from the CSR.
        out.attempted = expected
        out.failed = (
            rep.lost_entries
            + abs(expected - rep.entries_stored)
            + oracles.check_adjacency(mssg, inp["csr"], inp["sample"])
        )


class BfsDrain(Workload):
    """128 BFS queries, 16 in flight, over a store ~3x the block cache."""

    name = "bfs-drain"
    cache_blocks = DRAIN_CACHE_BLOCKS
    instances = 3

    def inputs(self, seed):
        edges, csr = _graph(seed)
        pairs, dists = _queries(csr, seed)
        warmup = sample_queries_by_distance(csr, WARMUP_QUERIES, seed=seed)
        return {"edges": edges, "warmup": [(s, d) for s, d, _ in warmup],
                "pairs": pairs, "distances": dists}

    def deploy(self, inp):
        mssg = _deploy(cache_blocks=self.cache_blocks)
        mssg.ingest(inp["edges"])
        mssg.query_many(inp["warmup"], max_inflight=INFLIGHT)
        return mssg

    def run(self, mssg, inp):
        drain = mssg.query_many(inp["pairs"], max_inflight=INFLIGHT)
        lat = [r.seconds for r in drain.queries]
        return Outcome(drain.seconds, lat, _bfs_fingerprint(drain), reports={"drain": drain})

    def check(self, mssg, inp, out):
        out.attempted = len(inp["pairs"])
        out.failed = oracles.check_distances(out.reports["drain"].queries, inp["distances"])


class Analytics(Workload):
    """PageRank (10 iterations) then connected components, store in cache."""

    name = "analytics"

    def inputs(self, seed):
        edges, csr = _graph(seed)
        return {"edges": edges, "csr": csr}

    def deploy(self, inp):
        mssg = _deploy()
        mssg.ingest(inp["edges"])
        return mssg

    def run(self, mssg, inp):
        pr = mssg.query("pagerank", max_iters=PAGERANK_ITERS, tol=0.0,
                        damping=PAGERANK_DAMPING, return_ranks=True)
        cc = mssg.query("components", return_labels=True)
        fp = (pr.seconds, cc.seconds, tuple(sorted(pr.result["ranks"].items())),
              tuple(sorted(cc.result["labels"].items())))
        return Outcome(pr.seconds + cc.seconds, [pr.seconds, cc.seconds], fp,
                       reports={"pagerank": pr, "components": cc})

    def check(self, mssg, inp, out):
        pr, cc = out.reports["pagerank"], out.reports["components"]
        out.attempted = 2
        out.failed = (
            (pr.partial or pr.deadline_exceeded
             or oracles.check_pagerank(pr, inp["csr"], PAGERANK_DAMPING, PAGERANK_ITERS))
            + (cc.partial or cc.deadline_exceeded or oracles.check_components(cc, inp["csr"]))
        )


class StreamMix(Workload):
    """Queries drain while the second half of the graph streams in, then
    a compaction folds the deltas: writes beside reads."""

    name = "stream-mix"
    instances = 2

    def __init__(self):
        self._oracle = None  # SnapshotDistances of the current seed

    def inputs(self, seed):
        edges = pubmed_like(NUM_VERTICES, seed=seed)
        half = len(edges) // 2
        base = edges[:half]
        pairs, _ = _queries(CSRGraph.from_edges(base, NUM_VERTICES), seed)
        batches = np.array_split(edges[half:], STREAM_BATCHES)
        return {"seed": seed, "base": base, "batches": batches, "pairs": pairs}

    def deploy(self, inp):
        mssg = _deploy(backend="StreamDB", streaming=True)
        mssg.ingest(inp["base"])
        return mssg

    def run(self, mssg, inp):
        before = copy.deepcopy(mssg.last_ingest)
        drain = mssg.query_many(inp["pairs"], max_inflight=INFLIGHT,
                                stream_batches=inp["batches"])
        streamed = _ingest_delta(before, mssg.last_ingest)
        t0 = time.perf_counter()
        comp = mssg.compact()
        compact_wall = time.perf_counter() - t0
        lat = [r.seconds for r in drain.queries]
        fp = (drain.seconds, comp.seconds, comp.entries_folded, _bfs_fingerprint(drain))
        return Outcome(drain.seconds + comp.seconds, lat, fp, reports={
            "drain": drain, "ingest": streamed, "compact": comp, "compact_wall_s": compact_wall})

    def check(self, mssg, inp, out):
        drain, comp = out.reports["drain"], out.reports["compact"]
        if self._oracle is None or self._oracle[0] != inp["seed"]:
            self._oracle = (inp["seed"], oracles.SnapshotDistances(
                inp["base"], inp["batches"], NUM_VERTICES))
        streamed = sum(len(b) for b in inp["batches"])
        # Operations: every query, every streamed batch, the compaction.
        out.attempted = len(inp["pairs"]) + STREAM_BATCHES + 1
        out.failed = (
            self._oracle[1].check(drain.queries, inp["pairs"])
            + (STREAM_BATCHES - drain.stream_batches)
            + (bool(comp.failed_backends) or comp.entries_folded != 2 * streamed)
        )


def _ingest_delta(before: IngestReport, after: IngestReport) -> IngestReport:
    """What an accumulated ingest report gained since ``before``."""
    return IngestReport(
        seconds=after.seconds - before.seconds,
        edges_ingested=after.edges_ingested - before.edges_ingested,
        entries_stored=after.entries_stored - before.entries_stored,
        windows=after.windows - before.windows,
        per_backend_entries=[
            a - b for a, b in zip(after.per_backend_entries, before.per_backend_entries)
        ],
        lost_entries=after.lost_entries - before.lost_entries,
    )


WORKLOADS = {w.name: w for w in (Ingest, BfsDrain, Analytics, StreamMix)}
