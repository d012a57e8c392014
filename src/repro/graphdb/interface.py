"""The GraphDB Service interface (paper Listing 3.1).

The paper's central API design: *"the smallest complete set of graph
operations possible"* — store edges, get/set per-vertex metadata, and fetch
a vertex's distance-1 neighbors filtered by their metadata.  None of these
methods communicate; every GraphDB instance operates purely on the data
local to its back-end node, and requesting the adjacency list of a vertex
that is not stored locally returns the empty set (which Algorithms 1 and 2
rely on).

The Java signature::

    void storeEdges(List<Edge> edges)
    int  getMetadata(long vertex)
    void setMetadata(long vertex, int metadata)
    void getAdjacencyListUsingMetadata(long vertex,
            FastLongArrayStorage adjlist, int metadata, int operation)

maps to :class:`GraphDB` below, with edges as ``(E, 2)`` int64 arrays and
``FastLongArrayStorage`` as :class:`~repro.util.LongArray`.  One batch
method is added beyond the paper's listing — ``expand_fringe`` — because
StreamDB (§4.1.5) *requires* posting all fringe vertices at once so it can
answer a whole BFS level in a single scan; other backends inherit the
default per-vertex loop.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..simcluster.costmodel import CpuProfile
from ..simcluster.virtualtime import VirtualClock
from ..util.errors import GraphStorageException
from ..util.longarray import LongArray
from .metadata import InMemoryMetadata, MetadataStore

__all__ = [
    "GraphDB",
    "GraphDBStats",
    "PinnedVertexState",
    "OP_ALL",
    "OP_NEQ",
    "OP_EQ",
    "OP_GT",
    "OP_LT",
]

# Metadata filter operations, verbatim from Listing 3.1:
OP_ALL = -2  # ignore metadata and return all neighbor vertices
OP_NEQ = -1  # neighbor's metadata != input metadata
OP_EQ = 0  # neighbor's metadata == input metadata
OP_GT = 1  # neighbor's metadata > input metadata
OP_LT = 2  # neighbor's metadata < input metadata

_VALID_OPS = (OP_ALL, OP_NEQ, OP_EQ, OP_GT, OP_LT)


@dataclass
class GraphDBStats:
    """Operation counters every backend maintains."""

    edges_stored: int = 0
    edges_scanned: int = 0  # adjacency entries returned/visited
    adjacency_requests: int = 0
    store_calls: int = 0


@dataclass
class PinnedVertexState:
    """Resident per-vertex state of semi-external-memory mode.

    Materialized once per store (at ingest or on first use) from the
    in-memory out-degree census: the sorted local vertex ids and their
    aligned out-degrees, as numpy arrays that never touch the device
    again.  ``resident_bytes`` is what the RAM budget is charged.
    """

    vertices: np.ndarray  # sorted int64 global ids with local adjacency
    degrees: np.ndarray  # aligned int64 out-degrees

    @property
    def resident_bytes(self) -> int:
        return int(self.vertices.nbytes + self.degrees.nbytes)


class GraphDB(abc.ABC):
    """Abstract base for all six GraphDB Service backends.

    Subclasses implement :meth:`_store_edges` and :meth:`_get_adjacency`;
    the base class provides metadata handling, metadata-filtered adjacency,
    batch fringe expansion, and bookkeeping.  ``clock``/``cpu`` wire the
    instance to its simulated host so CPU work is charged; both default to
    private instances for standalone use.
    """

    #: Human-readable backend name, e.g. "grDB"; set by subclasses.
    name: str = "abstract"

    def __init__(
        self,
        clock: VirtualClock | None = None,
        cpu: CpuProfile | None = None,
        metadata: MetadataStore | None = None,
        batch_io: bool = True,
        semi_external: bool = False,
    ):
        self.clock = clock if clock is not None else VirtualClock()
        self.cpu = cpu if cpu is not None else CpuProfile()
        self.metadata = metadata if metadata is not None else InMemoryMetadata()
        self.stats = GraphDBStats()
        # In-memory out-degree census, maintained at store time.  The
        # direction controller needs fringe out-degree sums without touching
        # storage; a 2006-era deployment would keep the same counters in the
        # ingest path, so no virtual time is charged for it.
        self._degree: dict[int, int] = {}
        #: Use the batched/coalescing fringe expansion path where a backend
        #: has one (grDB, BerkeleyDB, MySQL).  ``False`` restores the
        #: per-vertex loop of the paper's prototype — the configuration the
        #: chapter-5 reproduction figures measure.  Both paths return
        #: byte-identical adjacency lists; only the access plan (and thus
        #: virtual time) differs.
        self.batch_io = batch_io
        #: Semi-external-memory mode (FlashGraph/GraphMP): pin per-vertex
        #: state in resident numpy arrays and, on backends that keep a
        #: block→vertex-extent directory, fetch only adjacency blocks with
        #: active sources.  Off by default — the paper's prototype is fully
        #: out-of-core and the chapter-5 figures stay bit-identical.
        self.semi_external = semi_external
        self._pinned_state: PinnedVertexState | None = None
        #: Streaming-mode delta overlay (``services.streaming.DeltaOverlay``):
        #: committed-but-uncompacted stream batches, merged into every public
        #: read.  ``None`` outside streaming deployments — the read path then
        #: short-circuits with one attribute check.
        self._stream_overlay = None
        #: Snapshot id pinned around a query slice by the multiplexer
        #: (``None`` = read at the published horizon).  Gates which overlay
        #: batches the reads above may see.
        self._stream_snap: int | None = None

    # -- paper interface ----------------------------------------------------

    def store_edges(self, edges) -> None:
        """Store directed adjacency entries ``dst in adj(src)``.

        The ingestion service emits both directions of each undirected
        edge, each to the owner of its source endpoint.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if len(edges) and edges.min() < 0:
            raise GraphStorageException("negative vertex id in store_edges")
        self._store_edges(edges)
        if len(edges):
            srcs, counts = np.unique(edges[:, 0], return_counts=True)
            for v, c in zip(srcs.tolist(), counts.tolist()):
                self._degree[v] = self._degree.get(v, 0) + c
            # New edges invalidate the pinned snapshot (rebalance/repair
            # re-stores); semi-EM re-pins lazily from the updated census.
            self._pinned_state = None
        self.stats.edges_stored += len(edges)
        self.stats.store_calls += 1

    def get_metadata(self, vertex: int) -> int:
        return self.metadata.get(vertex)

    def set_metadata(self, vertex: int, metadata: int) -> None:
        self.metadata.set(vertex, metadata)

    def get_adjacency_list_using_metadata(
        self, vertex: int, adjlist: LongArray, metadata: int, operation: int
    ) -> None:
        """Append ``vertex``'s neighbors passing the metadata filter."""
        if operation not in _VALID_OPS:
            raise GraphStorageException(f"unknown metadata operation {operation}")
        neighbors = self.get_adjacency(vertex)
        if operation == OP_ALL or len(neighbors) == 0:
            adjlist.extend(neighbors)
            return
        md = self.metadata.get_many(neighbors)
        if operation == OP_NEQ:
            mask = md != metadata
        elif operation == OP_EQ:
            mask = md == metadata
        elif operation == OP_GT:
            mask = md > metadata
        else:
            mask = md < metadata
        adjlist.extend(neighbors[mask])

    # -- convenience / batch ---------------------------------------------------

    def _overlay_view(self):
        """The stream-overlay read view at the pinned snapshot (or None)."""
        overlay = self._stream_overlay
        if overlay is None:
            return None
        return overlay.view(self._stream_snap)

    def _base_adjacency(self, vertex: int) -> np.ndarray:
        """``get_adjacency`` over the base store only (no stream overlay)."""
        neighbors = self._get_adjacency(int(vertex))
        self.stats.adjacency_requests += 1
        self.stats.edges_scanned += len(neighbors)
        self.clock.advance(len(neighbors) * self.cpu.edge_visit_seconds)
        return neighbors

    def get_adjacency(self, vertex: int) -> np.ndarray:
        """All locally stored neighbors of ``vertex`` (empty if not local)."""
        neighbors = self._base_adjacency(vertex)
        view = self._overlay_view()
        if view is None:
            return neighbors
        extra = view.gather([vertex])[1]
        if not len(extra):
            return neighbors
        self.stats.edges_scanned += len(extra)
        self.clock.advance(len(extra) * self.cpu.edge_visit_seconds)
        return np.concatenate([neighbors, extra]) if len(neighbors) else extra

    def _expand_fringe(self, vertices, adjlist: LongArray) -> None:
        """Base-store fringe expansion (overridden per backend).

        Default: one adjacency request per vertex.  StreamDB overrides this
        with a single-pass scan over its edge log.
        """
        for v in np.asarray(vertices, dtype=np.int64):
            adjlist.extend(self._base_adjacency(int(v)))

    def expand_fringe(self, vertices, adjlist: LongArray) -> None:
        """Append the neighbors of every fringe vertex to ``adjlist``.

        The base store answers through the backend's own plan
        (:meth:`_expand_fringe`); any visible stream-overlay batches append
        their entries on top from RAM.  BFS levels are unaffected by the
        ordering (level sets are order-independent).
        """
        view = self._overlay_view()
        if view is None:
            self._expand_fringe(vertices, adjlist)
            return
        vs = np.asarray(vertices, dtype=np.int64)
        self._expand_fringe(vs, adjlist)
        extra = view.fringe(vs)
        if len(extra):
            self.stats.edges_scanned += len(extra)
            self.clock.advance(len(extra) * self.cpu.edge_visit_seconds)
            adjlist.extend(extra)

    def prefetch_fringe(self, vertices) -> int:
        """Warm storage for a coming fringe expansion; returns blocks fetched.

        No-op by default; grDB overrides with offset-sorted block prefetch
        (the paper's §4.2 future-work optimization).
        """
        return 0

    def degree_many(self, vertices) -> np.ndarray:
        """Locally stored out-degree of each vertex (0 if not local).

        Served from the in-memory census; costs no virtual time (see
        ``_degree``).  Used by the direction controller to price a
        top-down expansion of the fringe.  Under semi-EM the lookup is a
        vectorized ``searchsorted`` over the pinned arrays — same values,
        same (zero) cost, no per-vertex dict probes.
        """
        vs = np.asarray(vertices, dtype=np.int64)
        ps = self._pinned()
        if ps is not None:
            if len(ps.vertices) == 0:
                out = np.zeros(len(vs), dtype=np.int64)
            else:
                idx = np.searchsorted(ps.vertices, vs)
                idx = np.clip(idx, 0, len(ps.vertices) - 1)
                hit = ps.vertices[idx] == vs
                out = np.zeros(len(vs), dtype=np.int64)
                out[hit] = ps.degrees[idx[hit]]
        else:
            out = np.fromiter(
                (self._degree.get(int(v), 0) for v in vs), dtype=np.int64, count=len(vs)
            )
        view = self._overlay_view()
        if view is not None:
            out = out + view.degrees(vs)
        return out

    def _scan_adjacency(self, vertices=None, order: str = "storage"):
        """Base-store storage-order scan (overridden per backend)."""
        if order != "storage":
            raise ValueError(f"unknown scan order {order!r}")
        if vertices is None:
            vs = self._base_local_vertices()
        else:
            vs = np.unique(np.asarray(vertices, dtype=np.int64))
        for v in vs:
            neighbors = self._get_adjacency(int(v))
            if len(neighbors):
                yield int(v), neighbors

    def scan_adjacency(self, vertices=None, order: str = "storage"):
        """Yield ``(vertex, neighbors)`` pairs in the backend's storage order.

        The bottom-up BFS access plan: instead of one random adjacency
        request per vertex, walk storage sequentially and hand each wanted
        vertex's list to the caller.  ``vertices=None`` means all local
        vertices.  ``order="storage"`` (the only order) lets each backend
        pick its cheapest sequential plan — grDB walks level files in block
        order, StreamDB replays its log, BerkeleyDB the leaf chain, MySQL
        one range statement over the heap, Array/HashMap memory order.

        Charges storage I/O and per-structure CPU exactly like the access
        it models, but **not** per-edge visit time — the caller owns that,
        because bottom-up claims stop at the first fringe parent and only
        examined entries cost CPU (early-exit accounting).  For the same
        reason ``stats.edges_scanned`` is the caller's responsibility.

        Visible stream-overlay batches merge in: a vertex's overlay entries
        append to its base list, and overlay-only vertices follow the base
        sweep.  Bottom-up claims depend only on membership, not order, so
        answers match a store holding the same edges natively.
        """
        view = self._overlay_view()
        if view is None:
            yield from self._scan_adjacency(vertices, order=order)
            return
        wanted = (
            None
            if vertices is None
            else np.unique(np.asarray(vertices, dtype=np.int64))
        )
        # Only overlay sources have extra entries: gather them all at once,
        # append each to its base list as the sweep passes it, and yield
        # the overlay-only rest (ascending) after the base sweep.
        overlay_vs = view.vertices()
        if wanted is not None and len(overlay_vs):
            overlay_vs = overlay_vs[np.isin(overlay_vs, wanted)]
        lens, flat = view.gather(overlay_vs)
        ends = np.cumsum(lens).tolist()
        extras = {
            v: flat[end - n : end]
            for v, n, end in zip(overlay_vs.tolist(), lens.tolist(), ends)
        }
        for v, neighbors in self._scan_adjacency(wanted, order=order):
            extra = extras.pop(int(v), None)
            if extra is not None:
                neighbors = np.concatenate([neighbors, extra])
            yield int(v), neighbors
        yield from extras.items()

    def _base_local_vertices(self) -> np.ndarray:
        """Base-store vertex enumeration (pinned array or backend scan)."""
        ps = self._pinned()
        if ps is not None:
            return ps.vertices
        return self._local_vertices()

    def local_vertices(self) -> np.ndarray:
        """Sorted global ids of vertices with locally stored adjacency.

        Not part of the paper's Listing 3.1, but required by whole-graph
        analyses (connected components, defragmentation sweeps); every
        backend can enumerate cheaply from its own structures.  Under
        semi-EM the answer comes straight from the pinned vertex array —
        backends like StreamDB otherwise pay a full log replay here.
        Stream-overlay sources union in so streamed-but-uncompacted
        vertices are enumerable too.
        """
        base = self._base_local_vertices()
        view = self._overlay_view()
        if view is None:
            return base
        extra = view.vertices()
        if not len(extra):
            return base
        return np.union1d(base, extra)

    def max_vertex(self) -> int:
        """Largest locally stored vertex id, base or overlay (-1 if none).

        Reopening a deployment recovers its vertex-id space from this.
        """
        vs = self.local_vertices()
        return int(vs.max()) if len(vs) else -1

    def _local_vertices(self) -> np.ndarray:
        """Backend enumeration of stored source vertices (sorted, unique)."""
        raise NotImplementedError(f"{type(self).__name__} cannot enumerate vertices")

    # -- semi-external-memory mode -------------------------------------------

    def _pinned(self) -> PinnedVertexState | None:
        """The pinned snapshot, lazily (re)built when semi-EM is armed.

        Rebuilding from the in-memory census is free (the census is
        maintained at store time with no virtual cost), so invalidation on
        re-store is cheap to recover from.  A store restored from device
        with an empty census pins on first use via
        :meth:`pin_vertex_state`, which charges the enumeration pass.
        """
        if not self.semi_external:
            return None
        if self._pinned_state is None and self._degree:
            self.pin_vertex_state()
        return self._pinned_state

    def pin_vertex_state(self) -> PinnedVertexState:
        """Materialize the resident per-vertex arrays (semi-EM layer 1).

        Built from the ingest-time out-degree census when available (no
        device I/O, no virtual time — the counters already exist in the
        ingest path).  A store restored from device has an empty census;
        then one storage-order enumeration pass rebuilds it, charged like
        the access it is.
        """
        if not self._degree and self.stats.edges_stored == 0:
            # Restored store: rebuild the census with one charged pass.
            # Base-only by contract — overlay degrees merge on top in
            # degree_many, so pinning them here would double-count.
            total = 0
            for v, neighbors in self._scan_adjacency(None, order="storage"):
                self._degree[int(v)] = len(neighbors)
                total += len(neighbors)
            self.clock.advance(total * self.cpu.edge_visit_seconds)
        vertices = np.fromiter(sorted(self._degree), dtype=np.int64, count=len(self._degree))
        degrees = np.fromiter(
            (self._degree[int(v)] for v in vertices), dtype=np.int64, count=len(vertices)
        )
        self._pinned_state = PinnedVertexState(vertices=vertices, degrees=degrees)
        self._build_block_directory()
        return self._pinned_state

    def pinned_resident_bytes(self) -> int:
        """RAM charged against ``semi_external_budget_bytes`` by this store.

        Zero until :meth:`pin_vertex_state` runs — a store whose ingest
        path happens to maintain directory rows (StreamDB) is not charged
        for them while semi-EM is off and nothing is resident by contract.
        """
        ps = self._pinned_state
        if ps is None:
            return 0
        return ps.resident_bytes + self._directory_bytes()

    def _build_block_directory(self) -> None:
        """Hook: build the resident block→vertex-extent directory.

        Default no-op — only backends with a physical block layout
        (grDB, StreamDB) have a directory to build.
        """

    def _directory_bytes(self) -> int:
        """Resident size of the selective-I/O directory (0 = none)."""
        return 0

    def frontier_block_coverage(self, vertices) -> float | None:
        """Fraction of adjacency blocks holding at least one of ``vertices``.

        The selective-I/O planning signal: ``None`` means the backend keeps
        no block directory (or semi-EM is off) and callers should use the
        full storage-order sweep; a small fraction means a selective fetch
        of just the active blocks beats sharing a whole-store scan.
        """
        return None

    # -- lifecycle -----------------------------------------------------------

    def finalize_ingest(self) -> None:
        """Called once after all edges are stored (e.g. Array builds CSR)."""

    def flush(self) -> None:
        """Persist any cached state."""

    def close(self) -> None:
        self.flush()

    # -- backend hooks -----------------------------------------------------------

    @abc.abstractmethod
    def _store_edges(self, edges: np.ndarray) -> None:
        """Store validated ``(E, 2)`` directed adjacency entries."""

    @abc.abstractmethod
    def _get_adjacency(self, vertex: int) -> np.ndarray:
        """Return locally stored neighbors of ``vertex`` as int64 array."""
