"""grDB GraphDB implementation (§3.4.1, §4.1.6).

Adjacency storage per vertex ``v``:

* the beginning of ``v``'s adjacency list lives in the ``v``-th level-0
  sub-block (through an :class:`IdMap` when vertices are declustered);
* a sub-block holds vertex entries left-to-right; when it fills and more
  neighbors arrive, its *last* slot is replaced by a pointer to a freshly
  allocated sub-block at a higher level (the displaced entry moves there);
* growth policy (the explicit design fork in §3.4.1):

  - ``"link"`` — leave filled sub-blocks in place and chain, fragmenting
    the list across levels (cheap inserts, extra seeks on read);
  - ``"move"`` — when a level-``l >= 1`` sub-block fills, copy its whole
    contents into a level-``l+1`` sub-block, free the old one, and repoint
    the level-0 pointer, keeping every chain at length <= 2 (extra copies
    on insert, compact reads).

  ``repro.graphdb.grdb.defrag`` converts link-fragmented chains into the
  compact form "during idle time", as the paper suggests.

Degrees beyond the top level's capacity chain additional top-level
sub-blocks, so arbitrarily large hubs are storable.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ...simcluster.disk import BlockDevice
from ...util.errors import ConfigError, GraphStorageException
from ...util.varint import split_sorted_fit
from ..idmap import IdentityMap, IdMap
from ..interface import GraphDB
from .format import (
    COMPRESSED_COUNT_CAP,
    EMPTY_SLOT,
    MAX_VERTEX_ID,
    GrDBFormat,
    decode_pointer,
    decode_pointers,
    encode_pointer,
    is_pointer,
)
from .storage import GrDBStorage

__all__ = ["GrDB"]

_POLICIES = ("link", "move")


class GrDB(GraphDB):
    """The paper's multi-level sub-block graph database (see module doc)."""

    name = "grDB"

    def __init__(
        self,
        device_provider: Callable[[str], BlockDevice],
        fmt: GrDBFormat | None = None,
        cache_blocks: int = 256,
        id_map: IdMap | None = None,
        growth_policy: str = "link",
        integrity: bool = False,
        shared_cache=None,
        **kwargs,
    ):
        super().__init__(**kwargs)
        if growth_policy not in _POLICIES:
            raise ConfigError(f"growth_policy must be one of {_POLICIES}, got {growth_policy!r}")
        self.fmt = fmt if fmt is not None else GrDBFormat()
        self.storage = GrDBStorage(
            self.fmt,
            device_provider,
            cache_blocks=cache_blocks,
            integrity=integrity,
            shared_cache=shared_cache,
        )
        self.id_map = id_map if id_map is not None else IdentityMap()
        self.growth_policy = growth_policy
        # Ingestion memo: local id -> (chain path [(level, sb), ...], used
        # slots in the tail).  Purely an in-memory accelerator; the on-disk
        # chain is always authoritative and re-walkable.
        self._tails: dict[int, tuple[list[tuple[int, int]], int]] = {}
        self._known_locals: set[int] = set()
        #: Semi-EM selective-I/O directory: sorted written level-0 block ids
        #: (level 0 is id-addressed, so block extents are pure arithmetic).
        self._block_dir: np.ndarray | None = None
        #: Directory chunks currently pinned in the block cache.
        self._dir_chunks = 0
        #: True when this instance adopted state from an existing superblock.
        self.restored = self.storage.restore()
        if self.restored:
            self._rebuild_known_locals()

    # -- chain navigation ----------------------------------------------------

    def _read_slots(self, level: int, sb: int) -> np.ndarray:
        # Addressing + decoding one sub-block is pure arithmetic (no key
        # comparisons), the CPU edge grDB holds over B-tree stores.
        self.clock.advance(self.cpu.grdb_subblock_seconds)
        return self.fmt.parse_slots(self.storage.read_subblock(level, sb))

    def _write_slots(self, level: int, sb: int, slots: np.ndarray) -> None:
        self.storage.write_subblock(level, sb, self.fmt.pack_slots(slots))

    def _read_compressed(self, level: int, sb: int) -> tuple[np.ndarray, int]:
        """Read + unframe one compressed sub-block: ``(values, tail slot)``.

        Charges the same per-sub-block addressing cost as the raw path plus
        the vectorized varint decode, per byte actually decoded.
        """
        values, tail, consumed = self.fmt.decode_subblock(
            self.storage.read_subblock(level, sb)
        )
        self.clock.advance(
            self.cpu.grdb_subblock_seconds + consumed * self.cpu.varint_decode_seconds
        )
        return values, tail

    def _write_compressed(self, level: int, sb: int, values: np.ndarray, tail: int) -> None:
        self.storage.write_subblock(level, sb, self.fmt.encode_subblock(level, values, tail))

    def _walk(self, local: int) -> tuple[list[tuple[int, int]], int]:
        """Follow ``local``'s chain to its tail; returns (path, tail fill)."""
        path = [(0, local)]
        while True:
            level, sb = path[-1]
            if self.fmt.compress:
                values, last = self._read_compressed(level, sb)
            else:
                slots = self._read_slots(level, sb)
                last = int(slots[-1])
            if is_pointer(last):
                nxt = decode_pointer(last)
                if len(path) > self.fmt.num_levels + 64:
                    raise GraphStorageException(f"pointer cycle in chain of local vertex {local}")
                path.append(nxt)
            elif self.fmt.compress:
                return path, len(values)
            else:
                used = int(np.count_nonzero(slots != EMPTY_SLOT))
                return path, used

    def _tail_info(self, local: int) -> tuple[list[tuple[int, int]], int]:
        info = self._tails.get(local)
        if info is None:
            info = self._walk(local)
            self._tails[local] = info
        return info

    # -- ingestion -----------------------------------------------------------

    def _store_edges(self, edges: np.ndarray) -> None:
        if len(edges) == 0:
            return
        if edges.max() > MAX_VERTEX_ID:
            raise GraphStorageException(
                f"vertex id {edges.max()} exceeds grDB's 61-bit id space"
            )
        order = np.argsort(edges[:, 0], kind="stable")
        srcs = edges[order, 0]
        dsts = edges[order, 1]
        boundaries = np.flatnonzero(np.diff(srcs)) + 1
        for group in np.split(np.arange(len(srcs)), boundaries):
            self._append(int(srcs[group[0]]), dsts[group])

    def _append(self, gid: int, new: np.ndarray) -> None:
        local = self.id_map.to_local(gid)
        self._known_locals.add(local)
        if self.fmt.compress:
            self._append_compressed(local, new)
            return
        path, used = self._tail_info(local)
        level, sb = path[-1]
        slots = self._read_slots(level, sb).copy()
        caps = self.fmt.capacities
        top = self.fmt.num_levels - 1
        i = 0
        new_u64 = new.astype("<u8")
        while True:
            cap = caps[level]
            take = min(cap - used, len(new_u64) - i)
            if take > 0:
                slots[used : used + take] = new_u64[i : i + take]
                used += take
                i += take
            if i >= len(new_u64):
                break
            # Tail is full; grow the chain.
            if self.growth_policy == "move" and 1 <= level < top:
                # Copy the whole sub-block one level up, free it, repoint parent.
                tgt = level + 1
                nsb = self.storage.allocate_subblock(tgt)
                nslots = self.fmt.parse_slots(self.fmt.empty_subblock(tgt)).copy()
                nslots[:cap] = slots[:cap]
                self.storage.free_subblock(level, sb)
                plevel, psb = path[-2]
                pslots = self._read_slots(plevel, psb).copy()
                pslots[caps[plevel] - 1] = encode_pointer(tgt, nsb)
                self._write_slots(plevel, psb, pslots)
                path[-1] = (tgt, nsb)
                level, sb, slots = tgt, nsb, nslots
            else:
                # Link: displace the last entry into a new higher-level
                # sub-block and leave a pointer behind.
                tgt = min(level + 1, top)
                nsb = self.storage.allocate_subblock(tgt)
                displaced = slots[cap - 1]
                slots[cap - 1] = encode_pointer(tgt, nsb)
                self._write_slots(level, sb, slots)
                nslots = self.fmt.parse_slots(self.fmt.empty_subblock(tgt)).copy()
                nslots[0] = displaced
                used = 1
                path.append((tgt, nsb))
                level, sb, slots = tgt, nsb, nslots
        self._write_slots(level, sb, slots)
        self._tails[local] = (path, used)

    def _append_compressed(self, local: int, new: np.ndarray) -> None:
        """Merge ``new`` neighbors into the chain tail, delta+varint framed.

        The tail's sorted list and the incoming batch are merged (a sorted
        multiset — duplicate edges are kept); the longest unique prefix
        whose encoding fits the tail's payload budget is re-framed in
        place, and the spill (byte overflow plus duplicate occurrences)
        grows the chain exactly like the raw format: ``link`` leaves the
        full sub-block behind a pointer, ``move`` re-homes the whole tail
        one level up first.  Per-sub-block lists stay strictly sorted, so
        decode-side monotonicity checks have teeth.
        """
        path, _ = self._tail_info(local)
        level, sb = path[-1]
        vals, _tail = self._read_compressed(level, sb)
        pending = np.sort(np.concatenate([vals, new.astype("<u8")]), kind="stable")
        top = self.fmt.num_levels - 1
        rounds = 0
        while True:
            rounds += 1
            if rounds > (1 << 20):
                raise GraphStorageException(
                    f"runaway chain growth appending to local vertex {local}"
                )
            fit, spill = split_sorted_fit(
                pending, self.fmt.payload_bytes(level), COMPRESSED_COUNT_CAP
            )
            if len(spill) == 0:
                self._write_compressed(level, sb, fit, EMPTY_SLOT)
                self._tails[local] = (path, len(fit))
                return
            if self.growth_policy == "move" and 1 <= level < top:
                # Re-home the whole tail one level up, free it, repoint the
                # parent; the pending multiset retries against the larger
                # payload budget.
                tgt = level + 1
                nsb = self.storage.allocate_subblock(tgt)
                self.storage.free_subblock(level, sb)
                plevel, psb = path[-2]
                pvals, _ = self._read_compressed(plevel, psb)
                self._write_compressed(plevel, psb, pvals, encode_pointer(tgt, nsb))
                path[-1] = (tgt, nsb)
                level, sb = tgt, nsb
            else:
                tgt = min(level + 1, top)
                nsb = self.storage.allocate_subblock(tgt)
                self._write_compressed(level, sb, fit, encode_pointer(tgt, nsb))
                path.append((tgt, nsb))
                level, sb = tgt, nsb
                pending = spill

    # -- retrieval --------------------------------------------------------------

    def _get_adjacency(self, vertex: int) -> np.ndarray:
        try:
            local = self.id_map.to_local(vertex)
        except ConfigError:
            return np.empty(0, dtype=np.int64)  # not owned by this node
        parts: list[np.ndarray] = []
        level, sb = 0, local
        hops = 0
        while True:
            if self.fmt.compress:
                values, last = self._read_compressed(level, sb)
                parts.append(values)
            else:
                slots = self._read_slots(level, sb)
                last = int(slots[-1])
                parts.append(slots[:-1] if is_pointer(last) else slots)
            if is_pointer(last):
                level, sb = decode_pointer(last)
                hops += 1
                if hops > 1 << 20:
                    raise GraphStorageException(f"runaway chain for vertex {vertex}")
            else:
                break
        flat = np.concatenate(parts)
        return flat[flat != EMPTY_SLOT].astype(np.int64)

    # -- level-synchronous chain resolution (vectored I/O all the way down) ---------

    def _resolve_chains(self, heads) -> tuple[np.ndarray, np.ndarray]:
        """Resolve the chains starting at level-0 sub-blocks ``heads`` together.

        Level-synchronous rounds: sort the sub-blocks every still-walking
        chain needs next by ``(level, sub-block)`` — the global block index
        orders exactly as ``(level, file, offset)`` — fetch each level's
        distinct blocks through the cache (adjacent misses coalesce into
        one vectored device read), decode the level's wanted sub-blocks in
        one :meth:`GrDBFormat.decode_subblocks` call, and follow pointer
        tails into the next round.

        Returns ``(neighbors, counts)``: each chain's neighbors in chain
        order, chains in ``heads`` order, and the count per chain.  Charges
        one full address+decode per distinct block, then one ``advance``
        per sub-block in ``(level, sub-block)`` order, so virtual time is
        bit-identical to gathering one sub-block at a time.
        """
        fmt, cpu, advance = self.fmt, self.cpu, self.clock.advance
        n = len(heads)
        levels = np.zeros(n, dtype=np.int64)
        sbs = np.asarray(heads, dtype=np.int64)
        chains = np.arange(n)
        found_vals: list[np.ndarray] = []
        found_chain: list[np.ndarray] = []
        rounds = 0
        while len(chains):
            rounds += 1
            if rounds > 1 << 20:
                raise GraphStorageException("runaway chain during batched chain resolution")
            order = np.lexsort((sbs, levels))
            levels, sbs, chains = levels[order], sbs[order], chains[order]
            cuts = (np.flatnonzero(np.diff(levels)) + 1).tolist()
            charges, nxt = [], []
            for lo, hi in zip([0, *cuts], [*cuts, len(levels)]):
                level = int(levels[lo])
                block, slot = np.divmod(sbs[lo:hi], fmt.subblocks_per_block(level))
                wanted = np.unique(block)
                data = self.storage.read_block_batch(level, wanted.tolist())
                # One full address+decode per distinct block; the per-sub-block
                # gathers ride on the already-parsed block.
                advance(len(data) * cpu.grdb_subblock_seconds)
                blob = np.frombuffer(b"".join(data[b] for b in wanted.tolist()), dtype=np.uint8)
                rows = blob.reshape(len(wanted), -1, fmt.subblock_bytes(level))[
                    np.searchsorted(wanted, block), slot
                ]
                if fmt.compress:
                    vals, offsets, tails, consumed = fmt.decode_subblocks(rows)
                    counts = np.diff(offsets)
                    charges += [
                        cpu.grdb_batch_subblock_seconds + c * cpu.varint_decode_seconds
                        for c in consumed.tolist()
                    ]
                else:
                    slots = rows.view("<u8")
                    tails = slots[:, -1]
                    keep = slots != EMPTY_SLOT
                    keep[:, -1] &= ~decode_pointers(tails)[0]
                    vals, counts = slots[keep], keep.sum(axis=1)
                    charges += [cpu.grdb_batch_subblock_seconds] * (hi - lo)
                is_ptr, next_levels, next_sbs = decode_pointers(tails)
                found_vals.append(vals)
                found_chain.append(np.repeat(chains[lo:hi], counts))
                nxt.append((next_levels, next_sbs, chains[lo:hi][is_ptr]))
            # After every level's reads, one advance per sub-block in
            # (level, sub-block) order: float addition order shows.
            for seconds in charges:
                advance(seconds)
            levels, sbs, chains = (np.concatenate(col) for col in zip(*nxt))
        if not found_vals:
            return np.empty(0, dtype=np.int64), np.zeros(n, dtype=np.int64)
        owner = np.concatenate(found_chain)
        # A stable sort by chain keeps each chain's sub-blocks in round order.
        order = np.argsort(owner, kind="stable")
        return np.concatenate(found_vals)[order].astype(np.int64), np.bincount(owner, minlength=n)

    def _expand_fringe(self, vertices, adjlist) -> None:
        """Expand a whole fringe through :meth:`_resolve_chains`.

        Output order is byte-identical to the per-vertex path: each
        vertex's neighbors appear in chain order, vertices in fringe order.
        """
        if not self.batch_io:
            super()._expand_fringe(vertices, adjlist)
            return
        fringe = np.asarray(vertices, dtype=np.int64)
        self.stats.adjacency_requests += len(fringe)
        if len(fringe) == 0:
            return
        locals_, owned = self.id_map.to_local_many(fringe)
        neighbors, _ = self._resolve_chains(locals_[owned])
        adjlist.extend(neighbors)
        self.stats.edges_scanned += len(neighbors)
        self.clock.advance(len(neighbors) * self.cpu.edge_visit_seconds)

    # -- storage-order scan (bottom-up BFS access plan) -------------------------------

    def _scan_adjacency(self, vertices=None, order: str = "storage"):
        """Yield wanted vertices' lists by walking level files in block order.

        The bottom-up plan: wanted vertices are sorted by level-0 sub-block
        (ascending file offset) and resolved in windows of a few blocks'
        worth of chains through :meth:`_resolve_chains` — the same planner
        as :meth:`expand_fringe`.  Sub-block addressing/decoding CPU is
        charged there; per-edge claim checks are the caller's (early-exit
        accounting).
        """
        if order != "storage":
            raise ValueError(f"unknown scan order {order!r}")
        if vertices is None:
            gids = self._base_local_vertices()
        else:
            gids = np.unique(np.asarray(vertices, dtype=np.int64))
        if len(gids) == 0:
            return
        locals_, owned = self.id_map.to_local_many(gids)
        idx = np.flatnonzero(owned)
        if len(idx) == 0:
            return
        scan_order = idx[np.argsort(locals_[idx], kind="stable")]
        window = max(1, 4 * self.fmt.subblocks_per_block(0))
        for start in range(0, len(scan_order), window):
            sel = scan_order[start : start + window]
            neighbors, counts = self._resolve_chains(locals_[sel])
            lists = np.split(neighbors, np.cumsum(counts)[:-1])
            for gid, adj in zip(gids[sel].tolist(), lists):
                if len(adj):
                    yield gid, adj

    # -- prefetch (the §4.2 future-work optimization) ---------------------------------

    def prefetch_fringe(self, vertices) -> int:
        """Prefetch the level-0 blocks of a fringe, sorted by file offset.

        Implements the optimization the paper leaves as future work:
        "introducing some pre-fetching of the adjacency lists of the
        vertices in the frontier ... sorting the pre-fetch disk accesses by
        file offsets to reduce the seek overhead."  The fringe is mapped
        through the id map vectorized and handed to the public coalescing
        planner (:meth:`GrDBStorage.prefetch_blocks`), which fetches
        ascending-offset runs in single vectored reads and counts the cold
        ones in ``cache_stats.prefetched``.  Returns the number of distinct
        level-0 blocks the fringe plans (already-cached blocks cost
        nothing but still count toward the plan).
        """
        fringe = np.asarray(vertices, dtype=np.int64)
        if len(fringe) == 0:
            return 0
        locals_, owned = self.id_map.to_local_many(fringe)
        if not owned.any():
            return 0
        blocks = np.unique(locals_[owned] // self.fmt.subblocks_per_block(0))
        return self.storage.prefetch_blocks(0, blocks.tolist())

    # -- maintenance ------------------------------------------------------------------

    def _rebuild_known_locals(self) -> None:
        """Recover the set of stored vertices by scanning level-0 blocks."""
        k = self.fmt.subblocks_per_block(0)
        d0 = self.fmt.capacities[0]
        level0 = sorted(b for lvl, b in self.storage._written_blocks if lvl == 0)
        data = self.storage.read_block_batch(0, level0)
        if self.fmt.compress:
            sub_bytes = self.fmt.subblock_bytes(0)
            for block in level0:
                rows = np.frombuffer(data[block], dtype=np.uint8).reshape(k, sub_bytes)
                _, offsets, tails, _ = self.fmt.decode_subblocks(rows)
                # Occupied iff it stores neighbors or continues a chain
                # (a count-0 head whose first neighbor spilled).
                occupied = np.flatnonzero((np.diff(offsets) > 0) | decode_pointers(tails)[0])
                self._known_locals.update(int(i) for i in block * k + occupied)
            return
        for block in level0:
            slots = self.fmt.parse_slots(data[block])
            occupied = np.flatnonzero((slots.reshape(k, d0) != EMPTY_SLOT).any(axis=1))
            self._known_locals.update(int(i) for i in block * k + occupied)

    def chain_of(self, vertex: int) -> list[tuple[int, int]]:
        """The (level, sub-block) chain of ``vertex`` — for tests/defrag."""
        return list(self._walk(self.id_map.to_local(vertex))[0])

    def known_vertices(self) -> list[int]:
        """Global ids of all vertices this instance has stored edges for."""
        return sorted(self.id_map.to_global(loc) for loc in self._known_locals)

    def _local_vertices(self) -> np.ndarray:
        return np.array(self.known_vertices(), dtype=np.int64)

    # -- semi-EM selective I/O ---------------------------------------------------------

    def _build_block_directory(self) -> None:
        """Materialize the written level-0 block set as a resident array.

        Level 0 is id-addressed (``local // subblocks_per_block(0)`` *is*
        the block number), so the block→vertex-range directory reduces to
        the sorted set of written blocks — pure arithmetic over
        ``_known_locals``, no device I/O.  The serialized directory is
        pinned into the block cache so its residency is charged against
        real capacity (and survives whole-graph sweeps by construction).
        """
        k0 = self.fmt.subblocks_per_block(0)
        blocks = np.unique(
            np.fromiter(
                (loc // k0 for loc in self._known_locals),
                dtype=np.int64,
                count=len(self._known_locals),
            )
        )
        self._block_dir = blocks
        self._pin_directory(blocks)

    def _pin_directory(self, blocks: np.ndarray) -> None:
        """Best-effort: pin the serialized directory into cache blocks.

        Skipped when the cache is too small to spare the room (the resident
        numpy array still serves lookups; only the budget accounting and
        scan-resistance modeling ride on the cache copy).
        """
        cache = self.storage.cache
        payload = blocks.astype("<i8").tobytes()
        chunk = max(1, self.fmt.block_sizes[0])
        nchunks = max(1, -(-len(payload) // chunk))
        if nchunks > cache.capacity // 4:
            nchunks = 0
        for i in range(nchunks):
            cache.pin(("semiem-dir", i), payload[i * chunk : (i + 1) * chunk])
        for i in range(nchunks, self._dir_chunks):
            cache.invalidate(("semiem-dir", i))
        self._dir_chunks = nchunks

    def _directory_bytes(self) -> int:
        return int(self._block_dir.nbytes) if self._block_dir is not None else 0

    def frontier_block_coverage(self, vertices) -> float | None:
        if not self.semi_external or self._pinned() is None:
            return None
        if self._block_dir is None or len(self._block_dir) == 0:
            return None
        wanted = np.unique(np.asarray(vertices, dtype=np.int64))
        if len(wanted) == 0:
            return 0.0
        locals_, owned = self.id_map.to_local_many(wanted)
        if not owned.any():
            return 0.0
        k0 = self.fmt.subblocks_per_block(0)
        wanted_blocks = np.unique(locals_[owned] // k0)
        idx = np.searchsorted(self._block_dir, wanted_blocks)
        idx = np.minimum(idx, len(self._block_dir) - 1)
        hits = int(np.count_nonzero(self._block_dir[idx] == wanted_blocks))
        return hits / len(self._block_dir)

    def invalidate_tail_memo(self, vertex: int | None = None) -> None:
        if vertex is None:
            self._tails.clear()
        else:
            self._tails.pop(self.id_map.to_local(vertex), None)

    def flush(self) -> None:
        self.storage.flush()

    @property
    def cache_stats(self):
        return self.storage.cache.stats
