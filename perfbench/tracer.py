"""Out-of-process-style tracing of the MSSG layers, from the benchmark's side.

The tracer wraps public *synchronous* functions of each layer's module and
records one span per call: layer, function, start, end, parent span.  It
never wraps a coroutine generator (rank programs, ``Comm.recv``,
collectives): the simulator's single-threaded scheduler interleaves ranks
across their yields, so a span around one would swallow other ranks' work.
Iterators (``GraphDB.scan_adjacency``) are timed per ``next()``.

``from x import f`` binds a module-local name, so a function is patched in
every ``repro`` module that holds it, not only where it is defined.

Virtual time is split by wrapping ``VirtualClock.advance``/``advance_to``:
each ``advance`` is charged to the innermost open span's bucket, each
``advance_to`` jump counts as wait.  Patches are installed only for the
timed section of a traced iteration and removed afterwards, so untraced
iterations run the unmodified code.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict

#: Virtual-time bucket of the innermost open span's layer; anything else
#: (no span, bitset, block cache, varint, delta log, declustering) is
#: ``other``.  ``advance_to`` jumps are ``wait`` wherever they happen.
VT_BUCKET = {"simcluster.disk": "disk", "simcluster.comm": "comm_send", "graphdb": "graphdb_cpu"}
VT_BUCKETS = ("disk", "comm_send", "wait", "graphdb_cpu", "other")

#: GraphDB entry points.  Shared bottom-up sweeps call the backend's
#: ``_scan_adjacency`` directly, so that one is timed too (per ``next()``).
GRAPHDB_CALLS = (
    "store_edges", "expand_fringe", "get_adjacency", "degree_many",
    "scan_adjacency", "_scan_adjacency",
)


def _targets():
    """(layer, owner, attribute) of every function the tracer wraps."""
    from repro.graphdb.interface import GraphDB
    from repro.services.declustering import Declusterer
    from repro.simcluster.comm import Comm
    from repro.simcluster.disk import BlockDevice
    from repro.storage.blockcache import CachePartition, LRUBlockCache
    from repro.storage.deltalog import DeltaLog
    from repro.util import varint
    from repro.util.bitset import Bitset

    out = [("simcluster.disk", BlockDevice, name) for name in ("read", "readv", "write")]
    for cls in (LRUBlockCache, CachePartition):
        out += [("storage.blockcache", cls, name) for name in ("get", "put")]
    out += [
        ("util.varint", varint, name)
        for name in varint.__all__
        if name.startswith(("encode_", "decode_"))
    ]
    out.append(("util.bitset", Bitset, "get_many"))
    out += [
        ("graphdb", cls, name)
        for cls in _subclasses(GraphDB)
        for name in GRAPHDB_CALLS
        if name in vars(cls)
    ]
    out.append(("simcluster.comm", Comm, "send"))
    out.append(("storage.deltalog", DeltaLog, "append"))
    out += [
        ("services.declustering", cls, name)
        for cls in _subclasses(Declusterer)
        for name in ("prepare", "assign", "assign_at", "assign_routed")
        if name in vars(cls)
    ]
    return out


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in seen:
            seen.append(c)
            todo.extend(c.__subclasses__())
    return seen


class Tracer:
    """Span recorder plus virtual-time attribution for one process."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._clock_rank: dict[int, int] = {}
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded (called per traced iteration)."""
        #: Open spans: [span id, layer, name, start, child seconds].
        self._stack: list[list] = []
        self._depth: Counter = Counter()
        self._next_id = 0
        #: Closed spans: (id, parent id, layer, name, start, end).
        self.spans: list[tuple] = []
        self.self_wall: dict[str, float] = defaultdict(float)
        self.top_wall = 0.0  # wall covered by outermost spans
        self.calls: Counter = Counter()
        self.varint_calls: Counter = Counter()
        self.varint_values: Counter = Counter()
        self.deltalog_bytes = 0
        self.vt: dict[int, dict[str, float]] = defaultdict(lambda: dict.fromkeys(VT_BUCKETS, 0.0))

    # -- spans ----------------------------------------------------------------

    def _enter(self, layer: str, name: str) -> bool:
        """Open a span; True when no span of the same layer is open, i.e.
        this is the caller's call and not the layer calling itself."""
        outer = not self._depth[layer]
        if outer:
            self.calls[name] += 1
        self._depth[layer] += 1
        self._stack.append([self._next_id, layer, name, time.perf_counter(), 0.0])
        self._next_id += 1
        return outer

    def _exit(self) -> None:
        end = time.perf_counter()
        sid, layer, name, start, child = self._stack.pop()
        self._depth[layer] -= 1
        dur = end - start
        self.self_wall[layer] += dur - child
        if self._stack:
            parent = self._stack[-1]
            parent[4] += dur
            self.spans.append((sid, parent[0], layer, name, start, end))
        else:
            self.top_wall += dur
            self.spans.append((sid, -1, layer, name, start, end))

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        attr = name.rsplit(".", 1)[1]
        if attr.endswith("scan_adjacency"):

            @functools.wraps(fn)
            def scan(*args, **kwargs):
                tracer._enter(layer, name)
                try:
                    it = fn(*args, **kwargs)
                finally:
                    tracer._exit()
                return _TimedIter(tracer, layer, name + ".next", it)

            return scan
        if layer == "util.varint":
            kind = "encode" if attr.startswith("encode_") else "decode"

            @functools.wraps(fn)
            def codec(*args, **kwargs):
                outer = tracer._enter(layer, name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit()
                if outer:  # codec functions call each other; count the caller's
                    tracer.varint_calls[kind] += 1
                    # encoders take the values, decoders return (values, used)
                    values = args[0] if kind == "encode" else result[0]
                    tracer.varint_values[kind] += len(values)
                return result

            return codec
        if layer == "storage.deltalog":

            @functools.wraps(fn)
            def append(*args, **kwargs):
                tracer._enter(layer, name)
                try:
                    nbytes = fn(*args, **kwargs)
                finally:
                    tracer._exit()
                tracer.deltalog_bytes += nbytes
                return nbytes

            return append

        @functools.wraps(fn)
        def call(*args, **kwargs):
            tracer._enter(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()

        return call

    # -- virtual time ---------------------------------------------------------

    def _charge(self, clock, seconds: float, wait: bool) -> None:
        rank = self._clock_rank.get(id(clock))
        if rank is None:
            return  # a private device/engine clock, not a node's
        if wait:
            bucket = "wait"
        else:
            bucket = VT_BUCKET.get(self._stack[-1][1], "other") if self._stack else "other"
        self.vt[rank][bucket] += seconds

    # -- installation ---------------------------------------------------------

    def install(self, nodes) -> None:
        """Patch every target and the node clocks of ``nodes`` (by rank)."""
        from repro.simcluster.virtualtime import VirtualClock

        if self._patches:
            raise RuntimeError("tracer already installed")
        self._clock_rank = {id(node.clock): rank for rank, node in enumerate(nodes)}
        modules = [m for k, m in list(sys.modules.items()) if k.startswith("repro") and m]
        for layer, owner, attr in _targets():
            fn = vars(owner)[attr]
            if isinstance(owner, type):
                self._patch(owner, attr, self._wrap(layer, f"{owner.__name__}.{attr}", fn))
                continue
            wrapped = self._wrap(layer, f"{owner.__name__.rsplit('.', 1)[1]}.{attr}", fn)
            for mod in modules:  # every module-local binding of the function
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapped)

        tracer = self
        advance, advance_to = VirtualClock.advance, VirtualClock.advance_to

        def traced_advance(clock, seconds):
            now = advance(clock, seconds)
            tracer._charge(clock, seconds, wait=False)
            return now

        def traced_advance_to(clock, when):
            jump = when - clock.now
            now = advance_to(clock, when)
            if jump > 0:
                tracer._charge(clock, jump, wait=True)
            return now

        self._patch(VirtualClock, "advance", traced_advance)
        self._patch(VirtualClock, "advance_to", traced_advance_to)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans left open")

    # -- output ---------------------------------------------------------------

    def write_chrome_trace(self, path, meta: dict) -> None:
        """Write the recorded spans as gzipped Chrome/Perfetto trace-event
        JSON (Perfetto opens it as is)."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": round((start - t0) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 0,
                "tid": 0,
                "args": {"id": sid, "parent": parent},
            }
            for sid, parent, layer, name, start, end in self.spans
        ]
        with gzip.open(path, "wt", compresslevel=1) as f:
            json.dump({"traceEvents": events, "otherData": meta}, f)


class _TimedIter:
    """Iterator proxy timing every ``next()`` of a wrapped scan as a span."""

    def __init__(self, tracer: Tracer, layer: str, name: str, it):
        self._tracer, self._layer, self._name, self._it = tracer, layer, name, it

    def __iter__(self):
        return self

    def __next__(self):
        self._tracer._enter(self._layer, self._name)
        try:
            return next(self._it)
        finally:
            self._tracer._exit()

    def close(self) -> None:
        close = getattr(self._it, "close", None)
        if close is not None:
            close()
