"""Outside-in tracer: spans around calls into each layer's public functions.

Nothing under ``src/`` is edited.  :meth:`Tracer.install` replaces the
public entry points listed in :data:`ENTRY_POINTS` with thin wrappers that
record one span per call, and installs a counting
:class:`~repro.store.oslayer.OsLayer` as the process default so every
durable write, fsync and rename is counted.  :meth:`Tracer.uninstall` puts
the originals back, so untraced iterations in the same process run the
unmodified code.

A span is ``(id, parent, name, start_ns, end_ns, campaign, thread)``.
Each thread keeps its own stack, so the service's two lease threads nest
their spans independently; a span's parent is always on its own thread.
Spans inherit the campaign id of their parent; ``Campaign.run``,
``ScanService.submit``, ``CampaignQueue.next_lease`` and
``CampaignQueue.complete`` set it.  Spans stay in memory until
:meth:`Tracer.write` dumps them.

Install the tracer before any ``Scanner`` is built (the block loop hoists
``network.inject`` into a local) and before any store or queue is opened
(they capture the default ``OsLayer`` at construction).
"""

from __future__ import annotations

import itertools
import json
import re
import statistics
import threading
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def check_name(name: str) -> str:
    """Return ``name`` if it is a valid metric or span name, else raise."""
    if not isinstance(name, str) or not NAME_RE.match(name):
        raise ValueError(f"bad metric name {name!r}: want [A-Za-z0-9_.-]+")
    return name


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    start_ns: int
    end_ns: int
    campaign: Optional[str]
    thread: int


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Self time of every span: its duration minus its direct children's.

    Children of one span run on the span's own thread and never overlap,
    so subtracting their durations leaves the time the span spent in its
    own code (including calls nobody traced).
    """
    spans = list(spans)
    own = {s.id: s.end_ns - s.start_ns for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.end_ns - s.start_ns
    return own


def by_name(spans: Iterable[Span]) -> Dict[str, Tuple[int, int]]:
    """``{span name: (count, total self ns)}``."""
    spans = list(spans)
    own = self_times(spans)
    out: Dict[str, Tuple[int, int]] = {}
    for s in spans:
        count, total = out.get(s.name, (0, 0))
        out[s.name] = (count + 1, total + own[s.id])
    return out


#: (module, owner attribute path, span name).  The owner is a class, or the
#: module itself for a module-level function.  ``execute_job`` is patched in
#: the executor module, where the serial executor looks it up at call time.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.net.spec", "TopologySpec.build", "isp.build"),
    ("repro.core.scanner", "Scanner.run", "core.scan"),
    ("repro.core.scanner", "Scanner.run_batched", "core.scan"),
    ("repro.core.target", "TargetGenerator.address", "core.targets"),
    ("repro.core.target", "TargetGenerator.addresses_block", "core.targets"),
    ("repro.core.validate", "Validator.tag", "core.validate"),
    ("repro.core.validate", "Validator.prime", "core.validate"),
    ("repro.core.probes.icmp", "IcmpEchoProbe.build", "core.build"),
    ("repro.core.probes.icmp", "IcmpEchoProbe.classify", "core.classify"),
    ("repro.core.probes.tcp", "TcpSynProbe.build", "core.build"),
    ("repro.core.probes.tcp", "TcpSynProbe.classify", "core.classify"),
    ("repro.core.probes.udp", "UdpProbe.build", "core.build"),
    ("repro.core.probes.udp", "UdpProbe.classify", "core.classify"),
    ("repro.net.network", "Network.inject", "net.inject"),
    ("repro.net.network", "Network.inject_block", "net.inject"),
    ("repro.store.segment", "SegmentWriter.append", "store.append"),
    ("repro.store.segment", "SegmentWriter.append_many", "store.append"),
    ("repro.store.segment", "SegmentWriter.seal", "store.seal"),
    ("repro.store.store", "ResultStore.commit", "store.commit"),
    ("repro.engine.executor", "execute_job", "engine.shard"),
    ("repro.engine.campaign", "Campaign.run", "engine.campaign"),
    ("repro.engine.checkpoint", "CheckpointStore.write_shard", "engine.checkpoint"),
    ("repro.core.scanner", "ScanResult.merge", "engine.merge"),
    ("repro.service.daemon", "ScanService.submit", "service.submit"),
    ("repro.service.queue", "CampaignQueue.submit", "service.queue_submit"),
    ("repro.service.queue", "CampaignQueue.save", "service.queue_save"),
    ("repro.service.queue", "CampaignQueue.next_lease", "service.lease"),
    ("repro.service.queue", "CampaignQueue.complete", "service.complete"),
)

#: Entry points that are counted but get no span (too frequent or too
#: small to time usefully).
COUNTED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.telemetry.events", "EventLog.emit", "telemetry.events"),
    ("repro.telemetry.events", "WorkerEventBuffer.emit", "telemetry.events"),
)

#: Spans whose durable writes are attributed to their own layer.
BYTE_OWNERS = ("engine.checkpoint", "service.queue_save")


def _resolve(module: str, path: str):
    import importlib

    owner = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Records spans and counts from patched entry points."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[object, str, object]] = []
        self._previous_os = None
        #: Stamps keyed by campaign id, for the submit -> lease wait.
        self.submitted_at: Dict[str, float] = {}
        self.leased_at: Dict[str, float] = {}

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def enclosing(self, names: Tuple[str, ...]) -> Optional[str]:
        """The innermost open span on this thread named in ``names``."""
        for frame in reversed(self._stack()):
            if frame[1] in names:
                return frame[1]
        return None

    def span(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        """Wrap ``fn`` so each call records a span named ``name``.

        ``before(frame, args)`` runs on entry and may set ``frame[2]`` (the
        campaign id) or stash state in ``frame[3]``; ``after(frame, args,
        result)`` runs on a normal return.
        """
        tracer = self
        check_name(name)

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = [next(tracer._ids), name,
                     parent[2] if parent is not None else None, None]
            if before is not None:
                before(frame, args)
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, parent, start)
                raise
            end = time.perf_counter_ns()
            if after is not None:
                after(frame, args, result)
            tracer._close(frame, parent, start, end)
            return result

        return traced

    def _close(self, frame: list, parent: Optional[list], start: int,
               end: Optional[int] = None) -> None:
        if end is None:
            end = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(Span(
            frame[0], parent[0] if parent is not None else None, frame[1],
            start, end, frame[2], threading.get_ident(),
        ))

    def counted(self, key: str, fn: Callable) -> Callable:
        tracer = self

        def counting(*args, **kwargs):
            tracer.add(key)
            return fn(*args, **kwargs)

        return counting

    # -- per-entry-point hooks ----------------------------------------------

    def _scan_before(self, frame, args) -> None:
        net = args[0].network
        outer = self.enclosing(("core.scan",)) is None
        frame[3] = (outer, net.total_hops, net.flow_hits, net.flow_misses)

    def _scan_after(self, frame, args, result) -> None:
        outer, hops, hits, misses = frame[3]
        if not outer:
            return  # ``run`` delegating to ``run_batched``: count once
        net = args[0].network
        self.add("core.probes", result.stats.sent)
        self.add("net.hops", net.total_hops - hops)
        self.add("net.flow_hits", net.flow_hits - hits)
        self.add("net.flow_misses", net.flow_misses - misses)

    def _seal_after(self, frame, args, result) -> None:
        self.add("store.rows", int(result["rows"]))

    def _campaign_before(self, frame, args) -> None:
        frame[2] = args[0].events.campaign_id

    def _complete_before(self, frame, args) -> None:
        frame[2] = args[1]

    def _submit_after(self, frame, args, result) -> None:
        frame[2] = str(result["campaign_id"])
        with self._lock:
            self.submitted_at[frame[2]] = time.perf_counter()

    def _lease_after(self, frame, args, result) -> None:
        if result is not None:
            frame[2] = result.campaign_id
            with self._lock:
                self.leased_at[result.campaign_id] = time.perf_counter()

    HOOKS = {
        "Scanner.run": ("_scan_before", "_scan_after"),
        "Scanner.run_batched": ("_scan_before", "_scan_after"),
        "SegmentWriter.seal": (None, "_seal_after"),
        "Campaign.run": ("_campaign_before", None),
        "ScanService.submit": (None, "_submit_after"),
        "CampaignQueue.next_lease": (None, "_lease_after"),
        "CampaignQueue.complete": ("_complete_before", None),
    }

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module, path, name in ENTRY_POINTS:
            owner, attr = _resolve(module, path)
            before, after = self.HOOKS.get(path, (None, None))
            self._patch(owner, attr, self.span(
                name, getattr(owner, attr),
                before=getattr(self, before) if before else None,
                after=getattr(self, after) if after else None,
            ))
        for module, path, key in COUNTED:
            owner, attr = _resolve(module, path)
            self._patch(owner, attr, self.counted(key, getattr(owner, attr)))
        from repro.store.oslayer import set_default_os

        self._previous_os = set_default_os(counting_os(self))
        return self

    def uninstall(self) -> None:
        from repro.store.oslayer import set_default_os

        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        if self._previous_os is not None:
            set_default_os(self._previous_os)
            self._previous_os = None

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path: str) -> None:
        """Dump every span, one JSON array per line."""
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(json.dumps(list(s)) + "\n")


def counting_os(tracer: Tracer):
    """A passthrough ``OsLayer`` that counts and times durable operations."""
    from repro.store.oslayer import RealOs

    class CountingOs(RealOs):
        def write(self, handle, data: bytes) -> None:
            super().write(handle, data)
            tracer.add("store.bytes_written", len(data))
            owner = tracer.enclosing(BYTE_OWNERS)
            if owner is not None:
                tracer.add(owner + ".bytes", len(data))

        def replace(self, src, dst) -> None:
            super().replace(src, dst)
            tracer.add("store.renames")

    fsync = tracer.span("store.fsync", RealOs.fsync)
    fsync_dir = tracer.span("store.fsync", RealOs.fsync_dir)
    CountingOs.fsync = fsync  # type: ignore[method-assign]
    CountingOs.fsync_dir = fsync_dir  # type: ignore[method-assign]
    return CountingOs()


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics of one traced iteration (trace.overhead_frac
    is added by the caller, which also times the untraced iterations)."""
    stats = by_name(tracer.spans)
    counts = tracer.counts

    def n(name: str) -> int:
        return stats.get(name, (0, 0))[0]

    def s(*names: str) -> float:
        return sum(stats.get(name, (0, 0))[1] for name in names) / 1e9

    probes = counts.get("core.probes", 0)
    hops = counts.get("net.hops", 0)
    hits = counts.get("net.flow_hits", 0)
    lookups = hits + counts.get("net.flow_misses", 0)
    core_s = s("core.scan", "core.targets", "core.build", "core.validate",
               "core.classify")
    waits = [
        tracer.leased_at[cid] - at
        for cid, at in tracer.submitted_at.items() if cid in tracer.leased_at
    ]
    return {
        "core.probes": probes,
        "core.scan_self_s": s("core.scan"),
        "core.targets_s": s("core.targets"),
        "core.probe_build_s": s("core.build"),
        "core.validate_s": s("core.validate"),
        "core.classify_s": s("core.classify"),
        "core.ns_per_probe": core_s * 1e9 / probes if probes else 0.0,
        "net.inject_calls": n("net.inject"),
        "net.inject_s": s("net.inject"),
        "net.hops": hops,
        "net.ns_per_hop": s("net.inject") * 1e9 / hops if hops else 0.0,
        "net.flow_hit_ratio": hits / lookups if lookups else 0.0,
        "store.segments": n("store.seal"),
        "store.rows": counts.get("store.rows", 0),
        "store.append_s": s("store.append"),
        "store.seal_s": s("store.seal"),
        "store.commit_s": s("store.commit"),
        "store.fsyncs": n("store.fsync"),
        "store.fsync_s": s("store.fsync"),
        "store.bytes_written": counts.get("store.bytes_written", 0),
        "engine.shards": n("engine.shard"),
        "engine.checkpoint_writes": n("engine.checkpoint"),
        "engine.checkpoint_s": s("engine.checkpoint"),
        "engine.checkpoint_bytes": counts.get("engine.checkpoint.bytes", 0),
        "engine.merge_s": s("engine.merge"),
        "isp.builds": n("isp.build"),
        "isp.build_s": s("isp.build"),
        "service.submits": n("service.submit"),
        "service.submit_s": s("service.submit", "service.queue_submit"),
        "service.queue_saves": n("service.queue_save"),
        "service.queue_save_s": s("service.queue_save"),
        "service.queue_bytes": counts.get("service.queue_save.bytes", 0),
        "service.lease_wait_p50_s": _median(waits),
        "telemetry.events": counts.get("telemetry.events", 0),
    }
