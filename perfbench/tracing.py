"""Tracing for the benchmark's traced runs, from outside the program.

Three instruments, each installed only for the pass that uses it and
removed afterwards, so an untraced pass in the same process runs the
program exactly as shipped:

* :class:`HopCounter` counts switch-ingress and port-TX events by packet
  class (background CBR, task data, probe, ack, probe report, other).  It wraps the
  per-instance attributes the simulator resolves on every delivery
  (``node.on_ingress``, ``port._tx_complete_cb``), because compiled
  forwarding closures can bypass a patched class attribute.  The wrappers
  carry the handler's qualname, so the engine profiler still files the
  events under ``Switch.on_ingress`` and ``Port._tx_complete``.
* :class:`SpanRecorder` keeps in memory one span (name, parent, cell,
  start, end, and the profiler phase path it opened under) per call to a
  coarse public entry point: experiment build and run, telemetry ingest,
  store updates, ranking, path inference, observatory sampling and
  snapshots, result serialization and cache traffic.
* The program's own ``EngineProfiler`` (``Runner(profile=True)``) supplies
  the per-packet handler and phase times; :func:`layer_breakdown` joins
  them with the spans into per-layer counts and self times.

Self time is a span's (or profiler phase's) duration minus the part its
children cover.  A span that opened inside a profiled event is a child of
the profiler phase it opened under.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.simnet.addressing import PORT_IPERF, PROTO_TCP, PROTO_UDP
from repro.simnet.packet import FLAG_ACK, FLAG_PROBE
from repro.telemetry.probe import PORT_PROBE_REPORT

__all__ = [
    "HOP_CLASSES",
    "HopCounter",
    "SpanRecorder",
    "layer_breakdown",
]

HOP_CLASSES = ("cbr", "task", "probe", "ack", "report", "other")


def _named(fn: Callable, qualname: str) -> Callable:
    fn.__name__ = qualname.rsplit(".", 1)[-1]
    fn.__qualname__ = qualname
    return fn


class HopCounter:
    """Exact per-packet-class counts of switch-ingress plus port-TX events."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = dict.fromkeys(HOP_CLASSES, 0)

    def install(self, network: Any) -> None:
        counts = self.counts

        def count(packet: Any) -> None:
            flags = packet.flags
            if flags & FLAG_PROBE:
                counts["probe"] += 1
            elif packet.protocol == PROTO_TCP:
                counts["ack" if flags & FLAG_ACK else "task"] += 1
            elif packet.protocol == PROTO_UDP and packet.dst_port == PORT_IPERF:
                counts["cbr"] += 1
            elif packet.dst_port == PORT_PROBE_REPORT:
                counts["report"] += 1
            else:
                counts["other"] += 1

        for node in list(network.switches.values()) + list(network.hosts.values()):
            inner_ingress = node.on_ingress
            if node.name in network.switches:
                def on_ingress(packet, port, _inner=inner_ingress):
                    count(packet)
                    _inner(packet, port)
                node.on_ingress = _named(on_ingress, "Switch.on_ingress")
            elif "on_ingress" in node.__dict__:
                # A packet tracer already wrapped this host; restore the
                # handler's name so its events stay filed under it.
                def host_ingress(packet, port, _inner=inner_ingress):
                    _inner(packet, port)
                node.on_ingress = _named(host_ingress, "Host.on_ingress")
            for port in node.ports:
                inner_tx = port._tx_complete_cb

                def tx_complete(packet, _inner=inner_tx):
                    count(packet)
                    _inner(packet)
                port._tx_complete_cb = _named(tx_complete, "Port._tx_complete")


class SpanRecorder:
    """In-memory spans around coarse calls into the program's layers.

    A span is ``[name, parent index, cell, profiler path, start, end]``.
    :meth:`install` patches the entry points; :meth:`uninstall` restores
    them.  Hooks also capture each cell's simulator (for the profiler path),
    network (for the hop counter) and probe senders (for the delivery
    ratio)."""

    def __init__(self, hop_counter: Optional[HopCounter] = None) -> None:
        self.spans: List[List[Any]] = []
        self.hop_counter = hop_counter
        self.probes_sent = 0
        # perf_counter reading the span times are exported relative to.
        self.origin = 0.0
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []
        self._cell = ""
        self._sim: Any = None
        self._network: Any = None
        self._senders: List[Any] = []

    # -- patching ----------------------------------------------------------

    def _patch(self, owner: Any, attr: str, new: Callable) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _span(
        self,
        owner: Any,
        attr: str,
        name: str,
        before: Optional[Callable[[tuple], None]] = None,
        after: Optional[Callable[[Any], None]] = None,
    ) -> None:
        orig = owner.__dict__[attr]
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        recorder = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                # An override calling up to its base: one span, not two.
                return orig(*args, **kwargs)
            if before is not None:
                before(args)
            sim = recorder._sim
            prof = sim.profiler if sim is not None else None
            index = len(spans)
            spans.append([
                name,
                stack[-1] if stack else -1,
                recorder._cell,
                prof._path if prof is not None else "",
                clock(),
                0.0,
            ])
            stack.append(index)
            try:
                result = orig(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][5] = clock()
            if after is not None:
                after(result)
            return result

        self._patch(owner, attr, wrapper)

    def install(self, layers: bool = True) -> None:
        """Patch the entry points.  ``layers=False`` keeps only the per-cell
        hooks (experiment build and run, probe senders), which the hop
        counter and the delivery ratio need, and leaves every per-report
        and per-query call unwrapped."""
        from repro.core.baselines import NearestScheduler, RandomScheduler
        from repro.core.scheduler import NetworkAwareScheduler, SchedulerService
        from repro.core.telemetry_store import TelemetryStore
        from repro.core.topology_inference import InferredTopology
        from repro.experiments import harness
        from repro.obs import Observability
        from repro.runner.cache import ResultCache
        from repro.runner.runner import RunResult
        from repro.telemetry.collector import IntCollector
        from repro.telemetry.probe import ProbeSender

        def start_cell(args: tuple) -> None:
            config = args[0]
            self._cell = f"{config.size_class.label}/{config.policy}"
            self._senders = []

        def end_cell(_result: Any) -> None:
            self.probes_sent += sum(s.probes_sent for s in self._senders)
            self._sim = self._network = None

        def capture_sim(args: tuple) -> None:
            self._sim = args[0]

        def capture_network(topo: Any) -> None:
            self._network = topo.network

        def count_hops(_args: tuple) -> None:
            # build_plan runs after the probes (and any packet tracer) are
            # wired and before the first event: the network is final.
            if self.hop_counter is not None and self._network is not None:
                self.hop_counter.install(self._network)

        self._span(harness, "run_experiment", "experiments.run", start_cell, end_cell)
        self._span(
            harness, "build_fig4_network", "experiments.build",
            capture_sim, capture_network,
        )
        self._span(harness, "build_plan", "experiments.build", count_hops)
        orig_start = ProbeSender.__dict__["start"]

        def start(sender, _orig=orig_start):
            self._senders.append(sender)
            return _orig(sender)

        self._patch(ProbeSender, "start", functools.wraps(orig_start)(start))
        if not layers:
            return
        self._span(IntCollector, "ingest_probe", "telemetry.ingest")
        self._span(TelemetryStore, "update", "core.store_update")
        for cls in (SchedulerService, NetworkAwareScheduler, NearestScheduler,
                    RandomScheduler):
            self._span(cls, "rank", "core.rank")
        self._span(InferredTopology, "observe_path", "core.path")
        self._span(InferredTopology, "path", "core.path")
        self._span(Observability, "sample_tick", "obs.sample_tick")
        self._span(Observability, "snapshot_records", "obs.snapshot")
        self._span(Observability, "trace_records", "obs.snapshot")
        self._span(RunResult, "to_json", "runner.serialize")
        self._span(ResultCache, "put", "runner.cache_put")
        self._span(ResultCache, "get", "runner.cache_get")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- export ------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, times in seconds from :attr:`origin`."""
        origin = self.origin
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, parent, cell, prof_path, start, end) in enumerate(
                self.spans
            ):
                out.write(json.dumps({
                    "id": index,
                    "parent": parent,
                    "name": name,
                    "cell": cell,
                    "profiler_path": prof_path,
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                }) + "\n")


# ---------------------------------------------------------------------------
# Self-time analysis
# ---------------------------------------------------------------------------

_HANDLER_METRIC = {
    "Switch.on_ingress": "simnet.switch_ingress",
    "Port._tx_complete": "simnet.port_tx",
    "Host.on_ingress": "simnet.host_ingress",
    "UdpCbrFlow._emit": "simnet.cbr_emit",
}
_PHASE_METRIC = {
    "p4_pipeline": "p4.pipeline",
    "int_stamp": "p4.int_stamp",
    "routing": "p4.routing",
    "egress_stage": "p4.egress",
    "ProbeSender._tick": "telemetry.probe_tick",
}
_EDGE_CLASSES = {"EdgeServer", "EdgeDevice", "WorkloadGenerator", "BackgroundTraffic"}
_CORE_CLASSES = {"SchedulerService", "SchedulerClient"}


def _path_metric(path: str) -> str:
    """The layer metric that owns a profiler path's self time."""
    leaf = path.rsplit(";", 1)[-1]
    if leaf in _PHASE_METRIC:
        return _PHASE_METRIC[leaf]
    root = path.split(";", 1)[0]
    if root in _HANDLER_METRIC:
        return _HANDLER_METRIC[root]
    cls = root.split(".", 1)[0]
    if cls in _EDGE_CLASSES:
        return "edge.handlers"
    if cls in _CORE_CLASSES:
        return "core.handlers"
    return "simnet.other"


def layer_breakdown(
    profiles: Iterable[Dict[str, Any]], spans: List[List[Any]]
) -> Dict[str, Dict[str, float]]:
    """Join engine profiles and spans into ``{metric: {"n", "incl", "self"}}``.

    Profiler handler and phase times are inclusive; a phase's self time
    subtracts its direct child phases and the top-level spans that opened
    under it.  A span's self time subtracts its direct child spans; the
    experiment-run span additionally subtracts the simulation loop (the
    profiler's wall time), which the profiler paths account for."""
    incl: Dict[str, float] = defaultdict(float)
    count: Dict[str, int] = defaultdict(int)
    loop_wall = 0.0
    for profile in profiles:
        loop_wall += profile["wall_s"]
        for name, stats in profile["by_type"].items():
            incl[name] += stats["wall_s"]
            count[name] += stats["count"]
        for path, stats in profile["phases"].items():
            incl[path] += stats["wall_s"]
            count[path] += stats["count"]

    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"n": 0, "incl": 0.0, "self": 0.0}
    )
    self_time = dict(incl)
    for path in incl:
        parent, sep, _ = path.rpartition(";")
        if sep:
            self_time[parent] = self_time.get(parent, 0.0) - incl[path]

    # A span that opened inside the simulation loop under a span that did
    # not (the experiment run) belongs to the profiler phase it opened
    # under; the loop's time is taken off the run span below.
    child_span_time: Dict[int, float] = defaultdict(float)
    for name, parent, _cell, prof_path, start, end in spans:
        duration = end - start
        if prof_path and (parent < 0 or not spans[parent][3]):
            self_time[prof_path] = self_time.get(prof_path, 0.0) - duration
        elif parent >= 0:
            child_span_time[parent] += duration
    for index, (name, parent, _cell, prof_path, start, end) in enumerate(spans):
        duration = end - start
        entry = out[name]
        entry["n"] += 1
        entry["incl"] += duration
        entry["self"] += duration - child_span_time.get(index, 0.0)
    if "experiments.run" in out:
        out["experiments.run"]["self"] -= loop_wall

    for path, value in self_time.items():
        metric = _path_metric(path)
        out[metric]["self"] += value
        # Counts are events for a handler and scopes for a named phase; a
        # handler's unnamed sub-phases add self time only.
        if ";" not in path or path.rsplit(";", 1)[-1] in _PHASE_METRIC:
            out[metric]["n"] += count.get(path, 0)
            out[metric]["incl"] += incl.get(path, 0.0)
    return dict(out)
