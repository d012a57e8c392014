"""Algorithm 2: pipelined parallel out-of-core breadth-first search.

The communication-overlapping variant: while a rank is still expanding the
current fringe, it ships next-level fringe *chunks* to their owners as soon
as a per-destination buffer passes ``threshold`` (lines 16–19), and drains
any chunks that have already arrived between expansion batches (lines
24–27).  Because DataCutter sends are non-blocking, the transfer of early
chunks overlaps the remaining disk reads of the level; at the level end
only the stragglers are waited for.

Level-end protocol: leftover buffers are flushed, then an alltoall of
per-destination chunk counts tells every rank exactly how many data
messages to drain before the found/termination allreduce — preserving the
algorithm's level-synchronous semantics deterministically.
"""

from __future__ import annotations

import numpy as np

from ..graphdb.interface import GraphDB
from ..simcluster.cluster import RankContext
from ..util.errors import DeviceFailedError
from ..util.longarray import LongArray
from .direction import (
    BOTTOM_UP,
    DirectionController,
    bottom_up_level,
    merge_level_stats,
)
from .failover import FTState, failover_rounds
from .oocbfs import BFSConfig, BFSRankResult, _merge_found
from .visited import VisitedLevels

__all__ = ["pipelined_bfs_program"]

TAG_FRINGE_CHUNK = 77


def pipelined_bfs_program(
    ctx: RankContext,
    db: GraphDB,
    cfg: BFSConfig,
    visited: VisitedLevels,
    threshold: int = 256,
    poll_batch: int = 64,
    owner_of=None,
):
    """Rank program (generator) implementing Algorithm 2.

    ``threshold`` is the pipelining chunk size of the pseudocode;
    ``poll_batch`` is how many fringe vertices are expanded between polls
    of the incoming message queue; ``owner_of`` as in Algorithm 1.
    """
    comm = ctx.comm
    size = comm.size
    rank = comm.rank
    if owner_of is None:
        owner_of = lambda vs: vs % size  # noqa: E731 - the paper's default map
    result = BFSRankResult()
    start_time = ctx.clock.now
    edges_before = db.stats.edges_scanned
    ft = FTState(cfg.ft, size, rank) if cfg.ft is not None else None

    if cfg.source == cfg.dest:
        result.found_level = 0
        result.seconds = ctx.clock.now - start_time
        return result

    visited.mark(cfg.source, 0)
    fringe = np.array([cfg.source], dtype=np.int64)
    levcnt = 0
    next_fringe = LongArray()

    def absorb(vertices: np.ndarray, level: int) -> None:
        """Receiver-side filter (lines 25–27): keep the still-unvisited."""
        fresh = visited.unvisited(np.unique(vertices))
        visited.mark_many(fresh, level)
        next_fringe.extend(fresh)

    # The hybrid needs a vertex->owner map to know which unvisited vertices
    # to pull for; in broadcast (unknown-mapping) mode it stays off.
    dctl = (
        DirectionController(cfg.direction)
        if cfg.direction is not None and cfg.owner_known
        else None
    )

    while True:
        levcnt += 1
        if dctl is not None and dctl.decide(levcnt) == BOTTOM_UP:
            # A pull level has nothing to pipeline — the fringe travels as
            # one bitmap, not as chunks — so it bypasses the chunk protocol
            # entirely and runs the same shared bottom-up level as
            # Algorithm 1.  Rank-uniform: every rank takes this branch.
            result.directions.append(BOTTOM_UP)
            fringe, found_here = yield from bottom_up_level(
                ctx, db, cfg, visited, levcnt, fringe, owner_of, ft, cfg.direction, result
            )
            result.fringe_vertices += len(fringe)
            result.levels_expanded = levcnt
            repl = ft.cfg.replication if ft is not None else 1
            stored = db.stats.edges_stored if levcnt == 1 else 0
            found_any, total_new, fringe_degree, stored_total = yield from comm.allreduce(
                (found_here, len(fringe), int(db.degree_many(fringe).sum()), stored),
                merge_level_stats,
            )
            dctl.observe(total_new, fringe_degree, stored_total // max(1, repl))
            if found_any:
                result.found_level = levcnt
                break
            if total_new == 0 or levcnt >= cfg.max_levels:
                break
            continue
        if dctl is not None:
            result.directions.append(dctl.mode)
        buffers: list[LongArray] = [LongArray() for _ in range(size)]
        sent_chunks = [0] * size
        received_chunks = [0] * size
        found_here = False

        def flush(q: int) -> None:
            if q == rank:
                absorb(buffers[q].to_numpy(), levcnt)
            else:
                comm.send(q, buffers[q].to_numpy(), tag=TAG_FRINGE_CHUNK)
                sent_chunks[q] += 1
            buffers[q].clear()

        pending = np.empty(0, dtype=np.int64)
        if cfg.prefetch and (ft is None or not ft.self_dead):
            try:
                db.prefetch_fringe(fringe)
            except DeviceFailedError as e:
                if ft is None:
                    raise
                ft.device_error(e)
        for batch_start in range(0, max(len(fringe), 1), poll_batch):
            batch = fringe[batch_start : batch_start + poll_batch]
            if ft is None:
                out = LongArray()
                db.expand_fringe(batch, out)
                neighbors = out.view()
            else:
                neighbors = ft.expand(ctx, db, batch)
                if neighbors is None:
                    # Device died (or timed out) mid-level: the unexpanded
                    # tail of the fringe goes to the failover rounds after
                    # the level-end settle.  Skipping the remaining batches
                    # (and their opportunistic drains) is safe — the settle
                    # protocol below still receives every in-flight chunk.
                    pending = fringe[batch_start:]
                    break
            if len(neighbors) and np.any(neighbors == cfg.dest):
                found_here = True
            candidates = np.unique(neighbors) if len(neighbors) else neighbors
            new = visited.unvisited(candidates)

            if cfg.owner_known:
                owners = owner_of(new)
                if ft is not None:
                    new, owners = ft.route_fringe(new, owners, visited, levcnt)
                visited.mark_many(new[owners != rank], levcnt)
                # Group vertices by destination in one stable sort instead of
                # size passes of boolean masking; destinations are visited in
                # ascending rank order, matching the original loop's flush
                # order exactly.
                order = np.argsort(owners, kind="stable")
                grouped = new[order]
                dests, starts = np.unique(owners[order], return_index=True)
                bounds = np.append(starts, len(grouped))
                for j, q in enumerate(dests):
                    q = int(q)
                    buffers[q].extend(grouped[bounds[j] : bounds[j + 1]])
                    if len(buffers[q]) >= threshold:
                        flush(q)
            else:
                # Unknown mapping: every chunk goes to everyone (broadcast),
                # and is transferred to local storage as well (lines 20–22).
                if len(new):
                    for q in range(size):
                        buffers[q].extend(new)
                        if len(buffers[q]) >= threshold:
                            flush(q)

            # Drain any chunks that have already arrived (lines 24–27);
            # overlapping this with expansion is the algorithm's point.
            while True:
                msg = yield from comm.try_recv(tag=TAG_FRINGE_CHUNK)
                if msg is None:
                    break
                received_chunks[msg.source] += 1
                absorb(np.asarray(msg.payload, dtype=np.int64), levcnt)

        # Level end: flush leftovers, settle message counts, drain stragglers.
        for q in range(size):
            if len(buffers[q]):
                flush(q)
        expected = yield from comm.alltoall(sent_chunks)
        for q in range(size):
            need = (expected[q] if q != rank else 0) - received_chunks[q]
            for _ in range(need):
                msg = yield from comm.recv(source=q, tag=TAG_FRINGE_CHUNK)
                absorb(np.asarray(msg.payload, dtype=np.int64), levcnt)

        if ft is not None:
            # Collective failover for any shard left unexpanded, then one
            # synchronous exchange to route the recovered neighbors — the
            # pipelined chunk protocol for this level has already settled,
            # so recovered discoveries need their own (always-run, usually
            # empty) exchange to keep the collective order rank-uniform.
            extra = yield from failover_rounds(
                ctx, db, cfg, ft, pending, owner_of if cfg.owner_known else None
            )
            if len(extra) and np.any(extra == cfg.dest):
                found_here = True
            fresh = visited.unvisited(np.unique(extra)) if len(extra) else extra
            if cfg.owner_known:
                fresh, routes = ft.route_fringe(fresh, owner_of(fresh), visited, levcnt)
                visited.mark_many(fresh[routes != rank], levcnt)
                parts = [fresh[routes == q] for q in range(size)]
                recovered = yield from comm.alltoall(parts)
            else:
                recovered = yield from comm.allgather(fresh)
            for r in recovered:
                r = np.asarray(r, dtype=np.int64)
                if len(r):
                    absorb(r, levcnt)

        fringe = next_fringe.to_numpy()
        next_fringe.clear()
        result.fringe_vertices += len(fringe)
        result.levels_expanded = levcnt

        if dctl is None:
            found_any, total_new = yield from comm.allreduce(
                (found_here, len(fringe)), _merge_found
            )
        else:
            # Extended level-end allreduce (see Algorithm 1): the stored-edge
            # count seeds the controller's m_u on the first level only.
            repl = ft.cfg.replication if ft is not None else 1
            stored = db.stats.edges_stored if levcnt == 1 else 0
            found_any, total_new, fringe_degree, stored_total = yield from comm.allreduce(
                (found_here, len(fringe), int(db.degree_many(fringe).sum()), stored),
                merge_level_stats,
            )
            dctl.observe(total_new, fringe_degree, stored_total // max(1, repl))
        if found_any:
            result.found_level = levcnt
            break
        if total_new == 0 or levcnt >= cfg.max_levels:
            break

    result.edges_scanned = db.stats.edges_scanned - edges_before
    result.seconds = ctx.clock.now - start_time
    if ft is not None:
        ft.report(result)
    return result
