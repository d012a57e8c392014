"""Query-side fault tolerance: replica routing and fringe-shard failover.

MSSG's Algorithms 1 and 2 assume every back-end's disk answers every
expand.  This module relaxes that: with k-replica rotational declustering
(:class:`~repro.services.declustering.ReplicatedDeclusterer`) the partition
whose primary owner is rank ``q`` also lives on ranks ``q+1 .. q+k-1``
(mod p), so when a device dies mid-query the coordinator logic below
re-expands the dead rank's fringe shard on a surviving replica.

:class:`FTState` is the one owner of query-side replica routing: every
rank program (both BFS drivers, the bottom-up level, the vertex-program
runtime and the triangle program) asks it where a vertex's adjacency is
served (:meth:`FTState.route`), which vertices this rank must scan
(:meth:`FTState.responsible`), and how a device error or a new death
changes the run.

The protocol is collective and level-synchronous, which keeps the
simulation deterministic and deadlock-free:

1. every rank expands its shard through :meth:`FTState.expand`, which
   converts a :class:`~repro.util.errors.DeviceFailedError` (or an
   expansion exceeding the per-attempt virtual-time timeout) into "this
   rank is dead, its shard is pending";
2. :func:`failover_rounds` then runs bounded retry rounds — each round is
   one allgather announcing deaths and pending shards, after which every
   rank deterministically computes which pending vertices it is the first
   surviving replica for, and re-expands them;
3. a shard whose whole replica chain is dead (or that outlives the retry
   budget) is *dropped*: the query degrades to a partial result, flagged on
   the rank result and ultimately on the ``QueryReport``.

Once a death is known, :meth:`FTState.route` steers all further fringe
routing straight to the first surviving replica, so a failure costs one
retry round rather than one per level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..util.errors import CorruptBlockError, DeviceFailedError
from ..util.longarray import LongArray

__all__ = ["FaultTolerance", "FTState", "failover_rounds"]

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class FaultTolerance:
    """Degraded-mode knobs carried on :class:`~repro.bfs.BFSConfig`.

    ``None`` in ``BFSConfig.ft`` disables the protocol entirely (the
    pre-replication code path, with zero extra communication).
    """

    #: Copies of each adjacency partition (must match ingestion-side
    #: replication; 1 means failures can only degrade, never fail over).
    replication: int = 1
    #: Failover rounds attempted per BFS level before degrading.
    max_retries: int = 2
    #: Per-attempt expand budget in virtual seconds; an attempt that costs
    #: more is treated like a device failure (straggler demotion).
    #: ``None`` disables the timeout.
    attempt_timeout: float | None = None
    #: Explicit per-primary holder chains (``chains[u]`` = ranks storing a
    #: copy of partition ``u``, in routing order).  ``None`` means the
    #: rotational ``{(u + j) % p : j < replication}`` shape; a rebalance
    #: pass installs the repaired, no-longer-rotational map here.
    chains: tuple[tuple[int, ...], ...] | None = None
    #: Ranks already known dead before the query starts (e.g. recorded by a
    #: rebalance pass).  Seeding them avoids the discovery round: nothing
    #: is ever routed to them, so an already-repaired cluster pays zero
    #: failover rounds.
    known_dead: frozenset = frozenset()


@dataclass
class FTState:
    """Per-rank fault bookkeeping and replica routing for one query run."""

    cfg: FaultTolerance
    size: int
    #: This rank; ``None`` for a rank-less state (routing only).
    rank: int | None = None
    #: Ranks known (cluster-wide) to no longer serve expansions.
    dead: set = field(default_factory=set)
    self_dead: bool = False
    device_failed: bool = False  # own device raised DeviceFailedError
    corrupt: bool = False  # own device returned a CRC-bad frame
    timed_out: bool = False  # own expand blew the per-attempt timeout
    failovers: int = 0  # shards this rank re-expanded for dead peers
    dropped: int = 0  # fringe vertices whose adjacency was lost
    partial: bool = False
    #: Holder chains as an int64 ``(p, max_chain)`` matrix padded with -1.
    chains: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.dead.update(self.cfg.known_dead)
        # A rank on record as dead (e.g. from a rebalance pass) does not
        # bang on its device to rediscover the death.
        self.self_dead = self.rank in self.cfg.known_dead
        chains = self.cfg.chains
        if chains is None:
            chains = [
                [(u + j) % self.size for j in range(self.cfg.replication)]
                for u in range(self.size)
            ]
        width = max((len(c) for c in chains), default=0)
        self.chains = np.full((len(chains), max(width, 1)), -1, dtype=np.int64)
        for u, c in enumerate(chains):
            self.chains[u, : len(c)] = c

    # -- routing ------------------------------------------------------------

    def route(self, owners) -> np.ndarray:
        """First surviving holder of each primary owner's replica chain.

        Returns an int64 route array; ``-1`` marks vertices whose entire
        chain is dead (their adjacency is unreachable — the caller drops
        them and flags a partial result).
        """
        cand = self.chains[np.asarray(owners, dtype=np.int64)]
        alive = cand >= 0
        if self.dead:
            dead = np.fromiter(self.dead, count=len(self.dead), dtype=np.int64)
            alive &= ~np.isin(cand, dead)
        routes = cand[np.arange(len(cand)), np.argmax(alive, axis=1)]
        routes[~alive.any(axis=1)] = -1
        return routes

    def responsible(self, vertices: np.ndarray, owner_of) -> np.ndarray:
        """The vertices whose chain this rank is the first surviving member of.

        ``vertices`` is rank-uniform (or this rank's local slice), so every
        rank computes every vertex's responsible rank from the shared owner
        map and dead set — no coordination messages.  A dead rank's
        responsibility set thereby moves deterministically to its replicas.
        """
        return vertices[self.route(owner_of(vertices)) == self.rank]

    def route_fringe(self, vertices, owners, visited, level):
        """Route new fringe vertices; drop those whose whole chain is dead.

        Returns ``(vertices, routes)`` without the lost vertices, which are
        counted, flag the run partial, and are marked visited at ``level``
        so no rank re-discovers them.
        """
        routes = self.route(owners)
        lost = routes == -1
        if lost.any():
            self.dropped += int(lost.sum())
            self.partial = True
            visited.mark_many(vertices[lost], level)
            return vertices[~lost], routes[~lost]
        return vertices, routes

    def cover(self, shards) -> None:
        """Owner-unknown coverage check for dead ranks' ``(rank, size)`` shards.

        In broadcast mode every rank already expanded (or scanned) the full
        fringe against its own copies, so a dead rank's shard is served
        whenever any member of its replica chain is alive — its first
        surviving member counts the failover.  A shard whose whole chain
        is dead is dropped.
        """
        for q, n in shards:
            route = int(self.route([q])[0])
            if route == -1:
                self.dropped += n
                self.partial = True
            elif route == self.rank:
                self.failovers += 1

    # -- deaths -------------------------------------------------------------

    def device_error(self, e: DeviceFailedError) -> None:
        """This rank's device raised ``e``: stop serving.

        A :class:`CorruptBlockError` (CRC-bad frame, detected by the
        checksum layer) takes the same reroute path, but is flagged as
        ``corrupt`` rather than ``device_failed``: the disk is alive and
        repairable, and the query layer schedules read-repair for it
        instead of declaring the back-end dead.
        """
        self.self_dead = True
        if isinstance(e, CorruptBlockError):
            self.corrupt = True
        else:
            self.device_failed = True

    def over_budget(self, ctx, start: float) -> bool:
        """Did the attempt begun at virtual time ``start`` blow the timeout?

        A timed-out attempt's results are discarded (its virtual time stays
        charged: the work happened, the coordinator just stopped waiting),
        mirroring how a straggling disk looks indistinguishable from a dead
        one from the query's side.
        """
        timeout = self.cfg.attempt_timeout
        if timeout is None or ctx.clock.now - start <= timeout:
            return False
        self.self_dead = True
        self.timed_out = True
        return True

    def expand(self, ctx, db, vertices, prefetch: bool = False):
        """Expand ``vertices`` locally; ``None`` means this rank cannot serve."""
        if self.self_dead:
            return None
        start = ctx.clock.now
        out = LongArray()
        try:
            if prefetch:
                db.prefetch_fringe(vertices)
            db.expand_fringe(vertices, out)
        except DeviceFailedError as e:
            self.device_error(e)
            return None
        if self.over_budget(ctx, start):
            return None
        return out.view()

    def learn(self, flags) -> bool:
        """Fold one round's rank-ordered death flags in; True if any is new."""
        before = len(self.dead)
        self.dead.update(q for q, is_dead in enumerate(flags) if is_dead)
        return len(self.dead) > before

    def retry(self, new_death: bool, rounds: int) -> bool:
        """Run another re-scan round after ``rounds`` extra rounds?

        Only a new death needs one; past the retry budget the newly dead
        rank's responsibility stays unserved and the run turns partial.
        """
        if not new_death:
            return False
        if rounds >= self.cfg.max_retries:
            self.partial = True
            return False
        return True

    def report(self, result) -> None:
        """Copy the failover counters onto a rank result."""
        result.failovers = self.failovers
        result.dropped_vertices = self.dropped
        result.device_failed = self.device_failed
        result.corrupt = self.corrupt
        result.partial = result.partial or self.partial


def failover_rounds(ctx, db, cfg, ft: FTState, pending, owner_of):
    """Collective per-level failover; returns neighbors recovered here.

    Every rank (healthy or dead) must call this at the same point of each
    level.  ``pending`` is this rank's unexpanded fringe shard (empty when
    healthy); ``owner_of`` maps vertices to primary owners, or ``None`` in
    broadcast mode (unknown mapping), where replicas have already expanded
    the full fringe against their copies and only coverage is checked.

    A rank seeded dead via ``known_dead`` posts only the vertices whose
    whole chain is dead: the one fringe it ever holds is the bootstrap
    ``{s}``, held by *every* rank, so whichever alive holder stores the
    source's partition expanded it already.  A truly unreachable source is
    still detected, dropped and flagged, and an already-rebalanced cluster
    pays zero failover rounds.

    Each round costs one allgather.  The loop's control flow depends only
    on globally agreed data (the gathered posts and the shared round
    budget), so all ranks execute the same number of collectives.
    """
    comm = ctx.comm
    gathered = []
    rounds = 0
    pending = np.asarray(pending, dtype=np.int64)
    if len(pending) and owner_of is not None and ft.rank in ft.cfg.known_dead:
        pending = pending[ft.route(owner_of(pending)) == -1]
    while True:
        posts = yield from comm.allgather((ft.self_dead, pending))
        ft.learn(is_dead for is_dead, _ in posts)
        shards = [
            (q, np.asarray(s, dtype=np.int64)) for q, (_, s) in enumerate(posts) if len(s)
        ]
        pending = _EMPTY
        if not shards:
            break
        if owner_of is None:
            ft.cover((q, len(shard)) for q, shard in shards)
            break
        if rounds >= ft.cfg.max_retries:
            # Retry budget exhausted: degrade instead of looping forever.
            for _, shard in shards:
                ft.dropped += len(shard)
            ft.partial = True
            break
        rounds += 1
        mine = []
        for _, shard in shards:
            routes = ft.route(owner_of(shard))
            mine.append(shard[routes == comm.rank])
            lost = int((routes == -1).sum())
            if lost:
                ft.dropped += lost
                ft.partial = True
        mine = np.concatenate(mine) if mine else _EMPTY
        if len(mine):
            ft.failovers += 1
            recovered = ft.expand(ctx, db, mine, prefetch=cfg.prefetch)
            if recovered is None:
                pending = mine  # this replica died too; next round re-routes
            elif len(recovered):
                gathered.append(recovered)
    return np.concatenate(gathered) if gathered else _EMPTY
