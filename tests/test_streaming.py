"""Streaming ingest suite: delta logs, snapshots, compaction, crash matrix.

Pins down the DESIGN §12 contract:

* a streamed prefix answers queries bit-identically to a from-scratch
  batch ingest of the same prefix, on every backend and knob combination;
* in-drain ingest (``query_many(stream_batches=...)``) gives every query
  the snapshot published at its admission, whatever lands later;
* a crash at ANY injected point — torn delta append, mid-compaction,
  torn publish — recovers all-or-nothing to the last published snapshot,
  with zero residual corrupt frames and no duplicated adjacency;
* fault plans arm at any life-cycle point (satellite: the old
  "install after ingest" guidance is a clock note, not a restriction).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import MSSG, MSSGConfig
from repro.bfs import direction
from repro.graphgen import pubmed_like
from repro.services.ingestion import IngestReport
from repro.services.streaming import OverlayView, _OverlayBatch
from repro.simcluster import DiskFault, FaultPlan
from repro.storage.deltalog import RECORD_START, DeltaLog
from repro.util.errors import ConfigError

ALL_BACKENDS = ["Array", "HashMap", "MySQL", "BerkeleyDB", "StreamDB", "grDB"]
TOKEN_BACKENDS = ["StreamDB", "grDB"]  # durable commit token -> exact intents


def small_graph(seed: int, n: int = 40, m: int = 220) -> np.ndarray:
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(m, 2))
    return edges[edges[:, 0] != edges[:, 1]]


def deploy(backend, *, streaming=True, replication=1, storage_dir=None,
           plan=None, num_backends=2, **kw):
    return MSSG(
        MSSGConfig(
            num_backends=num_backends,
            num_frontends=1,
            backend=backend,
            streaming=streaming,
            replication=replication,
            storage_dir=storage_dir,
            fault_plan=plan,
            **kw,
        )
    )


def distances(mssg, pairs):
    return [mssg.query_bfs(s, d).result for s, d in pairs]


# ---------------------------------------------------------------------------
# Streamed prefix == batch ingest of the prefix
# ---------------------------------------------------------------------------


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    cuts=st.lists(st.integers(10, 200), min_size=1, max_size=3),
    backend=st.sampled_from(ALL_BACKENDS),
    replication=st.sampled_from([1, 2]),
    compress=st.booleans(),
    semi=st.booleans(),
)
def test_streamed_prefix_equals_batch_ingest(seed, cuts, backend, replication,
                                             compress, semi):
    """After each streamed batch, queries == a from-scratch batch ingest."""
    edges = small_graph(seed)
    bounds = sorted(set(min(c, len(edges)) for c in cuts) | {len(edges)})
    pairs = [(0, 39), (1, 38), (3, 36)]
    kw = dict(compress_adjacency=compress, semi_external=semi,
              replication=replication)
    m = deploy(backend, **kw)
    try:
        prev = 0
        for bound in bounds:
            m.ingest_stream(edges[prev:bound])
            prev = bound
            ref = deploy(backend, streaming=False, **kw)
            try:
                ref.ingest(edges[:bound])
                assert distances(m, pairs) == distances(ref, pairs)
            finally:
                ref.close()
        assert m.last_ingest.batches == len(bounds)
    finally:
        m.close()


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_compaction_preserves_answers(backend):
    """Queries before and after compact() read identical adjacency."""
    edges = small_graph(7)
    pairs = [(0, 39), (2, 37), (5, 34)]
    m = deploy(backend)
    try:
        m.ingest_stream(edges[:100])
        m.ingest_stream(edges[100:])
        before = distances(m, pairs)
        report = m.compact()
        assert report.batches_folded > 0
        assert distances(m, pairs) == before
        # Idempotent: nothing left to fold.
        assert m.compact().batches_folded == 0
    finally:
        m.close()


def test_ingest_stream_requires_streaming_mode():
    m = deploy("HashMap", streaming=False)
    try:
        with pytest.raises(ConfigError):
            m.ingest_stream(small_graph(0))
        with pytest.raises(ConfigError):
            m.compact()
        with pytest.raises(ConfigError):
            m.query_many([(0, 1)], stream_batches=[small_graph(0)])
    finally:
        m.close()


# ---------------------------------------------------------------------------
# In-drain ingest: snapshot-consistent admission
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_in_drain_snapshot_consistency(backend):
    """Each drained query answers at its admission snapshot exactly."""
    edges = small_graph(11)
    base, b1, b2 = edges[:120], edges[120:170], edges[170:]
    pairs = [(0, 39), (1, 38), (2, 37), (3, 36), (5, 34), (7, 32)]
    m = deploy(backend)
    try:
        m.ingest_stream(base)
        rep = m.query_many(pairs, stream_batches=[b1, b2], stream_every=2,
                           max_inflight=2)
        assert rep.stream_batches == 2
        assert m.last_ingest.batches == 3
        snaps = [q.snapshot_seq for q in rep.queries]
        assert all(s is not None for s in snaps)
        assert snaps == sorted(snaps)  # FIFO admission -> monotone snapshots
        for (s, d), q in zip(pairs, rep.queries):
            ref = deploy(backend)
            try:
                ref.ingest_stream(base)
                for batch in [b1, b2][: q.snapshot_seq - 1]:
                    ref.ingest_stream(batch)
                assert ref.query_bfs(s, d).result == q.result, (s, d)
            finally:
                ref.close()
    finally:
        m.close()


def test_snapshot_seq_none_outside_streaming():
    m = deploy("HashMap", streaming=False)
    try:
        m.ingest(small_graph(3))
        rep = m.query_many([(0, 39), (1, 38)])
        assert all(q.snapshot_seq is None for q in rep.queries)
        assert rep.stream_batches == 0
    finally:
        m.close()


# ---------------------------------------------------------------------------
# Crash matrix: kill points on delta append and compaction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", TOKEN_BACKENDS)
@pytest.mark.parametrize("ops", [0, 1, 2, 3, 5])
def test_crash_torn_delta_append(tmp_path, backend, ops):
    """A crash mid-append recovers to the last published snapshot."""
    d = str(tmp_path)
    edges = small_graph(17)
    base, nxt = edges[:140], edges[140:]
    pairs = [(0, 39), (1, 38), (4, 35)]
    m = deploy(backend, replication=2, storage_dir=d, num_backends=3)
    m.ingest_stream(base)
    want = {1: distances(m, pairs)}
    m.set_fault_plan(
        FaultPlan([DiskFault(node=3, device="deltalog", kind="crash",
                             after_ops=ops)])
    )
    try:
        m.ingest_stream(nxt)
    except Exception:
        pass
    m.close()

    full = deploy(backend, replication=2, num_backends=3)
    full.ingest_stream(base)
    full.ingest_stream(nxt)
    want[2] = distances(full, pairs)
    full.close()

    m2 = deploy(backend, replication=2, storage_dir=d, num_backends=3)
    try:
        pub = m2.streaming.published
        assert pub in (1, 2)
        got = [m2.query_bfs(s, dd) for s, dd in pairs]
        assert [g.result for g in got] == want[pub]
        assert not any(g.partial for g in got)
        # Zero residual corrupt frames anywhere after recovery.
        assert m2.scrub().corrupt_frames == 0
    finally:
        m2.close()


@pytest.mark.parametrize("backend", TOKEN_BACKENDS)
@pytest.mark.parametrize("ops", [0, 1, 2, 4, 8, 16])
def test_crash_mid_compaction(tmp_path, backend, ops):
    """A crash anywhere in compact() keeps the deltas or adopts the fold."""
    d = str(tmp_path)
    devname = "streamdb" if backend == "StreamDB" else "grdb"
    edges = small_graph(19)
    pairs = [(0, 39), (1, 38), (4, 35)]
    m = deploy(backend, replication=2, storage_dir=d, num_backends=3)
    m.ingest_stream(edges[:140])
    m.ingest_stream(edges[140:])
    want = distances(m, pairs)
    # Total degree over a fixed vertex set: duplicated adjacency (a fold
    # applied twice) would inflate it even where BFS levels cannot see.
    want_deg = m.query("degree", vertices=list(range(40))).result
    m.set_fault_plan(
        FaultPlan([DiskFault(node=3, device=devname, kind="crash",
                             after_ops=ops)])
    )
    try:
        m.compact()
    except Exception:
        pass
    m.close()

    m2 = deploy(backend, replication=2, storage_dir=d, num_backends=3)
    try:
        assert m2.streaming.published == 2
        assert distances(m2, pairs) == want
        assert m2.query("degree", vertices=list(range(40))).result == want_deg
        assert m2.scrub().corrupt_frames == 0
    finally:
        m2.close()


@pytest.mark.parametrize("backend", TOKEN_BACKENDS)
def test_crash_torn_publish_header(tmp_path, backend):
    """A crash on the header write of finish_compaction stays consistent."""
    d = str(tmp_path)
    edges = small_graph(23)
    pairs = [(0, 39), (2, 37)]
    m = deploy(backend, replication=2, storage_dir=d, num_backends=3)
    m.ingest_stream(edges[:140])
    m.ingest_stream(edges[140:])
    want = distances(m, pairs)
    # Fire on the delta log device itself mid-compaction: the kill lands
    # on begin_compaction / finish_compaction header writes.
    for ops in [0, 1, 2]:
        m.set_fault_plan(
            FaultPlan([DiskFault(node=3, device="deltalog", kind="crash",
                                 after_ops=ops)])
        )
        try:
            m.compact()
        except Exception:
            pass
        break
    m.close()
    m2 = deploy(backend, replication=2, storage_dir=d, num_backends=3)
    try:
        assert m2.streaming.published == 2
        assert distances(m2, pairs) == want
        assert m2.scrub().corrupt_frames == 0
    finally:
        m2.close()


def test_recovery_replays_pending_batches(tmp_path):
    """Close + reopen restores the published snapshot from the delta logs."""
    d = str(tmp_path)
    edges = small_graph(29)
    pairs = [(0, 39), (1, 38)]
    m = deploy("grDB", storage_dir=d)
    m.ingest_stream(edges[:100])
    m.ingest_stream(edges[100:])
    want = distances(m, pairs)
    m.close()
    m2 = deploy("grDB", storage_dir=d)
    try:
        assert m2.streaming.published == 2
        assert distances(m2, pairs) == want
    finally:
        m2.close()


def test_deltalog_truncates_torn_tail(tmp_path):
    """Unit-level: garbage after the last commit is truncated at recovery."""
    from repro.simcluster import NodeSpec, SimNode

    node = SimNode(0, NodeSpec(), storage_dir=str(tmp_path))
    try:
        dev = node.disk("deltalog")
        log = DeltaLog(dev)
        log.append(1, np.array([[1, 2], [3, 4]], dtype=np.int64))
        tail = dev.size()
        dev.write(tail, b"\x99" * 37)  # torn next append
        log2 = DeltaLog(dev)
        assert log2.committed == 1
        assert [seq for seq, _ in log2.pending] == [1]
        assert dev.size() == tail  # debris truncated
        assert tail >= RECORD_START
    finally:
        node.close()


# ---------------------------------------------------------------------------
# Satellite: fault plans arm at any life-cycle point
# ---------------------------------------------------------------------------


def test_fault_plan_armed_before_streaming_ingest():
    """A plan installed at deployment fires during streamed batches."""
    plan = FaultPlan([DiskFault(node=2, device="deltalog", kind="fail",
                                after_ops=0)])
    m = deploy("HashMap", replication=2, plan=plan, num_backends=2)
    try:
        edges = small_graph(31)
        m.ingest_stream(edges[:100])
        report = m.ingest_stream(edges[100:])
        assert 1 in report.failed_backends
        assert 1 in m.queries.known_dead
        # Replica holders still answer exactly.
        ref = deploy("HashMap", replication=2, num_backends=2)
        try:
            ref.ingest_stream(edges[:100])
            ref.ingest_stream(edges[100:])
            pairs = [(0, 39), (1, 38)]
            got = [m.query_bfs(s, d) for s, d in pairs]
            assert [g.result for g in got] == distances(ref, pairs)
            assert not any(g.partial for g in got)
        finally:
            ref.close()
    finally:
        m.close()


def test_fault_plan_armed_between_batches():
    """set_fault_plan mid-stream hits only subsequent batches."""
    m = deploy("HashMap", replication=2)
    try:
        edges = small_graph(37)
        first = m.ingest_stream(edges[:100])
        assert first.failed_backends == ()
        m.set_fault_plan(
            FaultPlan([DiskFault(node=2, device="deltalog", kind="fail",
                                 after_ops=0)])
        )
        report = m.ingest_stream(edges[100:])
        assert 1 in report.failed_backends
    finally:
        m.close()


def test_invalid_fault_triggers_raise_config_error():
    with pytest.raises(ConfigError):
        DiskFault(node=0, kind="explode", at_time=0.0)
    with pytest.raises(ConfigError):
        DiskFault(node=0)  # no trigger at all
    with pytest.raises(ConfigError):
        DiskFault(node=0, at_time=-1.0)
    m = deploy("HashMap", streaming=False)
    try:
        with pytest.raises(ConfigError):
            m.set_fault_plan(FaultPlan([DiskFault(node=99, at_time=0.0)]))
    finally:
        m.close()


# ---------------------------------------------------------------------------
# Satellite: IngestReport accumulation
# ---------------------------------------------------------------------------


def test_ingest_report_absorb_sums():
    a = IngestReport(seconds=1.0, edges_ingested=10, entries_stored=20,
                     windows=2, per_backend_entries=[12, 8])
    b = IngestReport(seconds=0.5, edges_ingested=5, entries_stored=10,
                     windows=1, per_backend_entries=[4, 6],
                     lost_entries=3, degraded=True, failed_backends=(1,))
    a.absorb(b)
    assert a.seconds == 1.5
    assert a.edges_ingested == 15
    assert a.entries_stored == 30
    assert a.windows == 3
    assert a.per_backend_entries == [16, 14]
    assert a.lost_entries == 3
    assert a.degraded
    assert a.failed_backends == (1,)
    assert a.batches == 2


def test_last_ingest_accumulates_across_batches():
    m = deploy("Array")
    try:
        edges = small_graph(41)
        m.ingest_stream(edges[:80])
        m.ingest_stream(edges[80:])
        rep = m.last_ingest
        assert rep.batches == 2
        assert rep.edges_ingested == len(edges)
        assert sum(rep.per_backend_entries) == rep.entries_stored
        assert rep.entries_stored == 2 * len(edges)  # both directions
    finally:
        m.close()


# ---------------------------------------------------------------------------
# Satellite: StreamDB record directory rebuild after restore
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("compress", [False, True])
def test_streamdb_records_rebuild_on_first_scan(tmp_path, compress):
    d = str(tmp_path)
    edges = small_graph(43)
    m = deploy("StreamDB", streaming=False, storage_dir=d,
               compress_adjacency=compress)
    m.ingest(edges)
    m.close()
    m2 = deploy("StreamDB", streaming=False, storage_dir=d,
                compress_adjacency=compress)
    try:
        db = m2.dbs[0]
        assert db._records is None and db._rebuild_records
        want = {int(v): sorted(db.get_adjacency(int(v)).tolist())
                for v in db.local_vertices()}
        # One full storage-order pass rebuilds the directory...
        got = {v: sorted(adj.tolist()) for v, adj in db.scan_adjacency(None)}
        assert got == want
        assert db._records is not None and not db._rebuild_records
        # ...and the rebuilt rows serve selective scans correctly.
        some = sorted(want)[:5]
        sel = {v: sorted(adj.tolist())
               for v, adj in db.scan_adjacency(np.array(some))}
        assert sel == {v: want[v] for v in some if want[v]}
    finally:
        m2.close()


# ---------------------------------------------------------------------------
# OverlayView.gather: every overlay merge site reads through it
# ---------------------------------------------------------------------------


@st.composite
def _overlay_case(draw):
    ids = st.integers(0, 30)
    batches = draw(
        st.lists(st.lists(st.tuples(ids, ids), max_size=25), max_size=5)
    )
    vs = draw(st.lists(st.integers(-2, 33), max_size=40))
    return batches, vs


@settings(max_examples=200, deadline=None)
@given(_overlay_case())
def test_overlay_gather_equals_brute_force(case):
    """Empty batches, absent vertices and repeated sources included."""
    batches, vs = case
    view = OverlayView(
        [_OverlayBatch(i + 1, np.array(b, dtype=np.int64).reshape(-1, 2))
         for i, b in enumerate(batches)]
    )
    want = [
        np.concatenate([b.edges[b.edges[:, 0] == v, 1] for b in view.batches]
                       + [np.empty(0, dtype=np.int64)])
        for v in vs
    ]
    lens, flat = view.gather(vs)
    assert lens.tolist() == [len(w) for w in want]
    assert flat.dtype == np.int64
    assert flat.tolist() == np.concatenate(want + [np.empty(0, dtype=np.int64)]).tolist()
    assert view.fringe(vs).tolist() == flat.tolist()
    assert view.degrees(np.array(vs, dtype=np.int64)).tolist() == lens.tolist()


# ---------------------------------------------------------------------------
# Streaming bottom-up: virtual time pinned bit for bit
# ---------------------------------------------------------------------------


class TestStreamingBottomUpPinned:
    """In-drain streaming with the direction hybrid on: bottom-up levels
    merge overlay batches through the shared map (``shared=True``) or the
    ``scan_adjacency`` wrapper (``shared=False``).  The values were
    recorded with the per-vertex claim loop and per-vertex overlay lookups
    that the segmented scan and ``OverlayView.gather`` replaced."""

    PAIRS = [
        (324, 34), (71, 94), (72, 320), (347, 232), (15, 37), (132, 173),
        (248, 191), (105, 63), (276, 293), (13, 45), (180, 156), (355, 206),
        (168, 172), (266, 234), (69, 295), (302, 382),
    ]
    DISTANCES = [2, 2, 2, 2, 2, 3, 2, 4, 4, 2, 3, 3, 2, 4, 2, 3]
    #: (backend, shared) -> (repr(drain.seconds), per query
    #: (repr(seconds), edges_examined, edges_skipped, snapshot_seq)).
    PINNED = {
        ("StreamDB", False): (
            "0.4858409797373747",
            [
                ("0.051242325357575697", 1147, 2350, 1),
                ("0.059746573321212096", 0, 0, 1),
                ("0.07669893855757581", 496, 2554, 1),
                ("0.09365580379393951", 526, 2785, 1),
                ("0.05118204058989928", 615, 3441, 3),
                ("0.10212869528080853", 285, 1896, 3),
                ("0.07669251437171754", 1428, 3046, 3),
                ("0.14491451066262695", 990, 3544, 3),
                ("0.1535426915272731", 793, 4073, 4),
                ("0.0852504415272731", 688, 3921, 4),
                ("0.11119293738181835", 1030, 4291, 4),
                ("0.11089630916363657", 605, 3747, 4),
                ("0.09394169392727286", 1405, 3764, 4),
                ("0.11124177254545459", 2021, 4120, 4),
                ("0.06821651759999992", 0, 0, 4),
                ("0.10256105930909093", 1062, 4250, 4),
            ],
        ),
        ("StreamDB", True): (
            "0.04811164773737344",
            [
                ("0.011021565357575777", 1147, 2350, 1),
                ("0.011481537321212138", 0, 0, 1),
                ("0.012148848557575783", 496, 2554, 1),
                ("0.012820659793939428", 526, 2785, 1),
                ("0.002720378589899021", 615, 3441, 3),
                ("0.005008495280808132", 285, 1896, 3),
                ("0.0039015223717172136", 1428, 3046, 3),
                ("0.007180050662626343", 990, 3544, 3),
                ("0.007370705527272741", 793, 4073, 4),
                ("0.004021921527272775", 688, 3921, 4),
                ("0.005438461381818128", 1030, 4291, 4),
                ("0.005338459163636192", 605, 3747, 4),
                ("0.004472147927272588", 1405, 3764, 4),
                ("0.013924948545454272", 2021, 4120, 4),
                ("0.0036665515999998732", 0, 0, 4),
                ("0.00524423530909067", 1062, 4250, 4),
            ],
        ),
        ("grDB", False): (
            "0.027313694464646775",
            [
                ("0.001978241357575773", 1452, 2045, 1),
                ("0.0022920828121212235", 0, 0, 1),
                ("0.0029220680484848827", 586, 2464, 1),
                ("0.0035883312848485407", 976, 2335, 1),
                ("0.0019307885898989952", 948, 3108, 3),
                ("0.0038452759717172037", 289, 1892, 3),
                ("0.002955421280808102", 1635, 2839, 3),
                ("0.0056505873535353975", 1107, 3427, 3),
                ("0.006145935527272843", 914, 3952, 4),
                ("0.0033730155272727828", 791, 3818, 4),
                ("0.004758247381818251", 1292, 4029, 4),
                ("0.004628835709091013", 766, 3586, 4),
                ("0.003986318472727353", 1810, 3359, 4),
                ("0.004775980545454639", 2186, 3955, 4),
                ("0.0026446136000000744", 0, 0, 4),
                ("0.004327069309090995", 1249, 4063, 4),
            ],
        ),
        ("grDB", True): (
            "0.025100130464646618",
            [
                ("0.0019833013575757726", 1452, 2045, 1),
                ("0.002297142812121223", 0, 0, 1),
                ("0.002771454048484858", 586, 2464, 1),
                ("0.0032710152848484924", 976, 2335, 1),
                ("0.0017715745898989731", 948, 3108, 3),
                ("0.0033916299717171427", 289, 1892, 3),
                ("0.002619727280808058", 1635, 2839, 3),
                ("0.004974935353535321", 1107, 3427, 3),
                ("0.005265323527272785", 914, 3952, 4),
                ("0.002865089527272739", 791, 3818, 4),
                ("0.0041173293818182535", 1292, 4029, 4),
                ("0.004037373709090995", 766, 3586, 4),
                ("0.0033948564727273346", 1810, 3359, 4),
                ("0.0043148145454546365", 2186, 3955, 4),
                ("0.0024729696000000585", 0, 0, 4),
                ("0.0038659033090909928", 1249, 4063, 4),
            ],
        ),
    }

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("backend", TOKEN_BACKENDS)
    def test_virtual_time_pinned(self, backend, shared, monkeypatch):
        paths = []
        source = direction._adjacency_source

        def spy(db, candidates):
            it = source(db, candidates)
            if db._overlay_view() is not None:
                paths.append(it.__name__)
            return it

        monkeypatch.setattr(direction, "_adjacency_source", spy)
        edges = pubmed_like(400, seed=5)
        cut = len(edges) * 3 // 5
        m = MSSG(MSSGConfig(num_frontends=2, num_backends=4, backend=backend,
                            streaming=True, direction_opt=True))
        try:
            m.ingest(edges[:cut])
            rep = m.query_many(self.PAIRS,
                               stream_batches=np.array_split(edges[cut:], 4),
                               max_inflight=4, shared_scans=shared)
        finally:
            m.close()
        # Bottom-up levels merged overlays through the path under test.
        assert ("merged" in paths) is shared
        assert "scan_adjacency" in paths
        assert [q.result for q in rep.queries] == self.DISTANCES
        got = (
            repr(rep.seconds),
            [(repr(q.seconds), q.edges_examined, q.edges_skipped, q.snapshot_seq)
             for q in rep.queries],
        )
        assert got == self.PINNED[(backend, shared)]


# ---------------------------------------------------------------------------
# Reopen recovers the vertex-id space
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("replication", [1, 2])
@pytest.mark.parametrize("backend", TOKEN_BACKENDS)
def test_reopen_recovers_vertex_space(tmp_path, backend, replication):
    """``ingest`` keeps the vertex-id space in RAM; a reopen re-derives it
    from the stores (base + pending overlay), charging no virtual time, so
    direction-optimized BFS and vertex programs keep working.

    The forced schedule makes the BFS go bottom-up regardless of the
    degree census (not recovered at reopen), so equal directions show the
    hybrid ran with a correctly sized fringe bitmap."""
    d = str(tmp_path)
    edges = pubmed_like(300, seed=3)
    cut = len(edges) * 3 // 4

    def run(m):
        bfs = m.query_bfs(3, 250, direction_schedule=("top-down", "bottom-up"))
        pr = m.query("pagerank", max_iters=5, tol=0.0, return_ranks=True)
        return m.queries.num_vertices, bfs.result, bfs.directions, pr.result["ranks"]

    m = deploy(backend, storage_dir=d, replication=replication, num_backends=3)
    try:
        m.ingest(edges[:cut])
        m.ingest_stream(edges[cut:])  # stays in the delta logs (no compact)
        before = run(m)
    finally:
        m.close()
    assert before[0] == int(edges.max()) + 1
    assert before[2] == ("top-down", "bottom-up")
    m2 = deploy(backend, storage_dir=d, replication=replication, num_backends=3)
    try:
        clocks = [node.clock.now for node in m2.cluster.nodes]
        m2._recover_vertex_space()
        assert [node.clock.now for node in m2.cluster.nodes] == clocks
        assert run(m2) == before
    finally:
        m2.close()


def test_reopen_leaves_vertex_space_unknown_when_a_partition_is_lost(tmp_path):
    """A partition with no enumerable holder leaves the id space ``None``
    (an undersized bitmap would raise); BFS falls back to top-down."""
    d = str(tmp_path)
    edges = pubmed_like(300, seed=3)
    m = deploy("StreamDB", storage_dir=d, num_backends=3)
    try:
        m.ingest(edges)
        want = m.query_bfs(3, 250).result
    finally:
        m.close()
    plan = FaultPlan([DiskFault(node=2, device="streamdb", kind="fail", after_ops=0)])
    m2 = deploy("StreamDB", storage_dir=d, num_backends=3, plan=plan)
    try:
        assert m2.queries.num_vertices is None
        rep = m2.query_bfs(3, 250)
        assert rep.directions == ()
        assert rep.partial or rep.result == want
    finally:
        m2.close()
