"""MSSG benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload bfs-drain --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Repeats set-up + timed section +
oracle check for about ``--seconds``, prints a table of every metric with
its unit and sample count, and as the last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``README.md`` describes
the workloads and metrics.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics; the traced iterations must reproduce the untraced
virtual results bit for bit, and on every back-end rank the virtual-time
split must sum to the rank's clock delta.  The spans of the last traced
iteration are written to ``.perfbench/`` as gzipped Chrome trace-event
JSON.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = ROOT / ".perfbench"
BLOCK_BYTES = 4096  # block-cache entry size of the default grDB format
#: Nominal ``reference_seconds()``; ``wall_ref_s`` rescales wall time to a
#: machine that runs the reference this fast.
REFERENCE_SECONDS = 0.015


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def reference_seconds(reps: int = 15) -> float:
    """The machine's current speed: median time of a fixed computation
    (an interpreted loop plus small numpy sorts, the simulator's mix) that
    runs no repository code, so no change to the program can move it."""
    data = np.random.default_rng(0).integers(0, 1 << 20, 4096)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        x = 0
        for i in range(40_000):
            x += i * i
        for _ in range(20):
            np.unique(data)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def snapshot(mssg) -> dict:
    """Cumulative counters of a deployment, read from its stats objects."""
    F = mssg.config.num_frontends
    back = mssg.cluster.nodes[F:]
    devs = [d for node in back for d in node._disks.values()]
    out = {
        f"disk.{f}": sum(getattr(d.stats, f) for d in devs)
        for f in ("reads", "writes", "bytes_read", "bytes_written", "seeks", "failures")
    }
    caches = [node.os_cache for node in back if node.os_cache is not None]
    out["os.hits"] = sum(c.hits for c in caches)
    out["os.misses"] = sum(c.misses for c in caches)
    pools = [p for p in (getattr(n, "shared_block_cache", None) for n in back) if p is not None]
    for f in ("hits", "misses", "evictions", "writebacks", "prefetched"):
        out[f"cache.{f}"] = sum(getattr(p.stats, f) for p in pools)
    for f in ("edges_stored", "edges_scanned", "adjacency_requests", "store_calls"):
        out[f"graphdb.{f}"] = sum(getattr(db.stats, f) for db in mssg.dbs)
    # Comm counters of the current run are folded into the node totals
    # only when the next run starts.
    live = {ctx.node.index: ctx.comm for ctx in mssg.cluster.last_contexts}
    nodes = mssg.cluster.nodes
    out["comm.messages"] = sum(
        n.total_messages_sent + (live[n.index].sent_messages if n.index in live else 0)
        for n in nodes
    )
    out["comm.bytes_sent"] = sum(
        n.total_bytes_sent + (live[n.index].sent_bytes if n.index in live else 0) for n in nodes
    )
    # Clocks restart every cluster run; the node folds the old value first.
    out["clocks"] = [n.total_run_seconds + n.clock.now for n in back]
    out["store_bytes"] = [sum(d.size() for d in node._disks.values()) for node in back]
    return out


def iteration(wl, seed: int, tracer=None) -> dict:
    """One set-up + timed section + check; returns its measurements."""
    t0 = time.perf_counter()
    inp = wl.inputs(seed)
    mssg = wl.deploy(inp)
    setup_s = time.perf_counter() - t0
    try:
        before = snapshot(mssg)
        if tracer is not None:
            tracer.reset()
            tracer.install(mssg.cluster.nodes)
        try:
            t1 = time.perf_counter()
            out = wl.run(mssg, inp)
            wall_s = time.perf_counter() - t1
        finally:
            if tracer is not None:
                tracer.uninstall()
        after = snapshot(mssg)
        wl.check(mssg, inp, out)
    finally:
        mssg.close()
    it = {"setup_s": setup_s, "wall_s": wall_s, "out": out, "before": before,
          "after": after, "edges": _num_edges(inp)}
    if tracer is not None:
        it["self_wall"] = dict(tracer.self_wall)
        it["top_wall"] = tracer.top_wall
        it["vt_bad"] = vt_invariant_failures(tracer, before, after, mssg.config.num_frontends)
    return it


def _num_edges(inp: dict) -> int:
    if "edges" in inp:
        return len(inp["edges"])
    return len(inp["base"]) + sum(len(b) for b in inp["batches"])


def end_to_end(rounds: list, attempted: int, failed: int) -> dict:
    """name -> (value, samples) of the end-to-end metrics.

    Each round runs every instance once; times are per-round sums, and
    the reported time is their median over rounds.  For ``wall_ref_s``
    each instance's wall time is first scaled by the mean of the reference
    probes taken just before and just after it.  Virtual results repeat
    exactly, so they come from the first round.
    """
    first = rounds[0]
    walls = [sum(it["wall_s"] for it in r) for r in rounds]
    lat = [x for it in first for x in it["out"].latencies]
    space = sum(sum(it["after"]["store_bytes"]) for it in first)
    edges = sum(it["edges"] for it in first)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(sum(it["setup_s"] for it in r) for r in rounds), len(rounds)),
        "wall_s": (statistics.median(walls), len(rounds)),
        "wall_ref_s": (statistics.median(
            sum(it["wall_s"] * REFERENCE_SECONDS / it["ref"] for it in r) for r in rounds),
            len(rounds)),
        "virtual_s": (sum(it["out"].virtual_s for it in first), len(first)),
        "query_p50_vs": (_percentile(lat, 50), len(lat)),
        "query_p90_vs": (_percentile(lat, 90), len(lat)),
        "error_rate": (_ratio(failed, attempted), attempted),
        "peak_rss_mb": (rss_mb, 1),
        "space_bytes_per_edge": (space / edges, len(first)),
    }


def per_layer(traced: list, untraced: list, wl, tr) -> dict:
    """name -> (value, samples) of the per-layer metrics; ``tr`` holds the
    last traced iteration (counts repeat exactly across iterations)."""
    from repro.services.ingestion import IngestReport
    from repro.services.query import DrainReport
    from repro.services.streaming import CompactReport
    from tracer import VT_BUCKETS
    from workloads import FRONTENDS

    it = traced[-1]
    n = len(traced)
    d = {k: it["after"][k] - it["before"][k] for k in it["after"]
         if k not in ("clocks", "store_bytes")}
    rep = it["out"].reports
    edges = it["edges"]

    def self_wall(layer):
        return statistics.median(t["self_wall"].get(layer, 0.0) for t in traced), n

    m = {f"disk.{f}": (d[f"disk.{f}"], 1)
         for f in ("reads", "writes", "bytes_read", "bytes_written", "seeks", "failures")}
    m["disk.os_cache_hit_rate"] = (_ratio(d["os.hits"], d["os.hits"] + d["os.misses"]), 1)
    m["disk.bytes_written_per_edge"] = (d["disk.bytes_written"] / edges, 1)
    m["disk.self_wall_s"] = self_wall("simcluster.disk")

    m.update({f"cache.{f}": (d[f"cache.{f}"], 1)
              for f in ("hits", "misses", "evictions", "writebacks", "prefetched")})
    m["cache.hit_rate"] = (_ratio(d["cache.hits"], d["cache.hits"] + d["cache.misses"]), 1)
    store = statistics.mean(it["after"]["store_bytes"])
    m["cache.store_to_cache_ratio"] = (store / (wl.cache_blocks * BLOCK_BYTES), 1)
    m["cache.self_wall_s"] = self_wall("storage.blockcache")

    enc, dec = tr.varint_calls["encode"], tr.varint_calls["decode"]
    m["varint.encode_calls"] = (enc, 1)
    m["varint.decode_calls"] = (dec, 1)
    m["varint.values_per_encode"] = (_ratio(tr.varint_values["encode"], enc), enc)
    m["varint.values_per_decode"] = (_ratio(tr.varint_values["decode"], dec), dec)
    m["varint.self_wall_s"] = self_wall("util.varint")

    m["bitset.get_many_calls"] = (tr.calls["Bitset.get_many"], 1)
    m["bitset.self_wall_s"] = self_wall("util.bitset")

    m.update({f"graphdb.{f}": (d[f"graphdb.{f}"], 1)
              for f in ("store_calls", "edges_stored", "adjacency_requests", "edges_scanned")})
    m["graphdb.expand_calls"] = (tr.calls["GraphDB.expand_fringe"], 1)
    m["graphdb.scan_calls"] = (sum(c for k, c in tr.calls.items()
                                   if k.endswith("scan_adjacency")), 1)
    m["graphdb.self_wall_s"] = self_wall("graphdb")

    # A workload without a drain, ingest or compaction reads empty reports.
    drain = rep.get("drain") or DrainReport(queries=[])
    ing = rep.get("ingest") or IngestReport(0.0, 0, 0, 0, [])
    comp = rep.get("compact") or CompactReport(0.0, 0, 0)
    bfs = drain.queries
    examined = sum(r.edges_examined for r in bfs)
    skipped = sum(r.edges_skipped for r in bfs)
    m["bfs.levels"] = (sum(r.levels for r in bfs), len(bfs))
    m["bfs.bottom_up_levels"] = (sum(r.directions.count("bottom-up") for r in bfs), len(bfs))
    m["bfs.edges_examined"] = (examined, len(bfs))
    m["bfs.edges_skipped"] = (skipped, len(bfs))
    m["bfs.early_exit_ratio"] = (_ratio(skipped, examined + skipped), len(bfs))
    m["bfs.failovers"] = (sum(r.failovers for r in bfs), len(bfs))

    queue = [r.queue_seconds for r in bfs] or [0.0]
    passes, served = drain.shared_passes, drain.shared_served
    m["sched.rounds"] = (drain.rounds, 1)
    m["sched.queue_p50_vs"] = (_percentile(queue, 50), len(bfs))
    m["sched.queue_p90_vs"] = (_percentile(queue, 90), len(bfs))
    m["sched.shared_passes"] = (passes, 1)
    m["sched.shared_served"] = (served, 1)
    m["sched.share_ratio"] = (_ratio(served, served + passes), 1)
    m["sched.deadline_aborts"] = (sum(r.deadline_exceeded for r in bfs), len(bfs))

    vps = [rep[k] for k in ("pagerank", "components") if k in rep]
    m["vp.supersteps"] = (sum(r.levels for r in vps), len(vps))
    m["vp.edges_scanned"] = (sum(r.edges_scanned for r in vps), len(vps))
    m["vp.pagerank_vs"] = (rep["pagerank"].seconds if "pagerank" in rep else 0.0, 1)
    m["vp.components_vs"] = (rep["components"].seconds if "components" in rep else 0.0, 1)

    m["comm.messages"] = (d["comm.messages"], 1)
    m["comm.bytes_sent"] = (d["comm.bytes_sent"], 1)

    per_backend = ing.per_backend_entries
    m["ingest.windows"] = (ing.windows, 1)
    m["ingest.entries_stored"] = (ing.entries_stored, 1)
    m["ingest.lost_entries"] = (ing.lost_entries, 1)
    mean = statistics.mean(per_backend) if per_backend else 0
    m["ingest.imbalance"] = (_ratio(max(per_backend, default=0), mean), len(per_backend))
    m["decluster.self_wall_s"] = self_wall("services.declustering")

    m["deltalog.appends"] = (tr.calls["DeltaLog.append"], 1)
    m["deltalog.bytes_appended"] = (tr.deltalog_bytes, 1)
    m["deltalog.self_wall_s"] = self_wall("storage.deltalog")
    m["stream.batches_applied"] = (drain.stream_batches, 1)
    snaps = {r.snapshot_seq for r in bfs if r.snapshot_seq is not None}
    m["stream.snapshots_seen"] = (len(snaps), len(bfs))
    m["compact.vs"] = (comp.seconds, 1)
    m["compact.wall_s"] = (statistics.median(t["out"].reports.get("compact_wall_s", 0.0)
                                             for t in traced), n)
    m["compact.entries_folded"] = (comp.entries_folded, 1)

    ranks = [r for r in tr.vt if r >= FRONTENDS]  # back-end ranks only
    for bucket in VT_BUCKETS:
        m[f"vt.{bucket}_vs"] = (sum(tr.vt[r][bucket] for r in ranks), len(ranks))

    m["runtime.self_wall_s"] = (statistics.median(t["wall_s"] - t["top_wall"] for t in traced), n)
    m["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                             - statistics.median(u["wall_s"] for u in untraced), n)
    return m


def vt_invariant_failures(tr, before: dict, after: dict, frontends: int) -> int:
    """Back-end ranks whose attributed virtual time misses their clock delta."""
    bad = 0
    for q, (b, a) in enumerate(zip(before["clocks"], after["clocks"])):
        attributed = sum(tr.vt[frontends + q].values())
        bad += not math.isclose(attributed, a - b, rel_tol=1e-9, abs_tol=1e-12)
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no MSSG sources at {src} (run from a source checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    spec = json.loads(spec_path.read_text())

    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None

    # A plain run repeats rounds over all of the workload's instances; a
    # traced run repeats an untraced then a traced iteration of the first.
    # A step that would end past --seconds is not started, once the
    # minimum is met (two rounds, so set-up and wall times have a median).
    seeds = [args.seed * wl.instances + j for j in range(wl.instances)]
    rounds, refs, untraced, traced = [], [], [], []
    start = time.perf_counter()
    min_steps = 1 if tracer is not None else 2
    for step in itertools.count(1):
        t0 = time.perf_counter()
        if tracer is None:
            rounds.append([])
            for s in seeds:
                if not refs:
                    refs.append(reference_seconds())
                it = iteration(wl, s)
                refs.append(reference_seconds())
                it["ref"] = (refs[-2] + refs[-1]) / 2
                rounds[-1].append(it)
        else:
            untraced.append(iteration(wl, seeds[0]))
            traced.append(iteration(wl, seeds[0], tracer))
        now = time.perf_counter()
        if step >= min_steps and now + (now - t0) - start > args.seconds:
            break

    # Every repeat of an instance must reproduce the first bit for bit:
    # untraced repeats, and traced ones (the tracer must not perturb).
    if tracer is None:
        runs = [it for r in rounds for it in r]
        divergent = sum(it["out"].fingerprint != first["out"].fingerprint
                        for r in rounds[1:] for it, first in zip(r, rounds[0]))
    else:
        runs = untraced + traced
        divergent = sum(it["out"].fingerprint != untraced[0]["out"].fingerprint for it in runs)
    vt_bad = sum(it["vt_bad"] for it in traced)
    attempted = sum(it["out"].attempted for it in runs)
    failed = sum(it["out"].failed for it in runs) + divergent + vt_bad

    if tracer is None:
        values = end_to_end(rounds, attempted, failed)
        wanted = spec["end_to_end"]
    else:
        values = per_layer(traced, untraced, wl, tracer)
        wanted = spec["per_layer"]
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write_chrome_trace(path, {"workload": args.workload, "seed": seeds[0]})

    print(f"workload {args.workload}  seed {args.seed}  instances {len(seeds)}  rounds "
          f"{len(rounds)}  untraced {len(untraced)}  traced {len(traced)}  "
          f"attempted {attempted}  failed {failed}  divergent {divergent}  vt_mismatch {vt_bad}")
    for key in ("setup_s", "wall_s"):
        samples = [sum(it[key] for it in r) for r in rounds] or [it[key] for it in runs]
        print(f"{key} samples: " + " ".join(f"{x:.4f}" for x in samples))
    print("reference samples: " + " ".join(f"{x:.5f}" for x in refs))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    # Printed for reading only; README.md explains why they are not gated.
    units.update(wall_s="s", error_rate="fraction")
    print(f"{'metric':32s} {'value':>16s} {'unit':10s} samples")
    for name, (value, samples) in values.items():
        print(f"{name:32s} {value:16.6g} {units.get(name, '?'):10s} {samples}")
    metrics = {m["name"]: {"value": float(values[m["name"]][0]), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
