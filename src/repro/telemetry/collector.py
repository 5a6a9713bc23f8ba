"""The INT collector running on the scheduler node (Fig. 1, step 2).

Decodes probe payloads into :class:`~repro.telemetry.records.ProbeReport`
objects and fans them out to subscribers — in practice the scheduler core's
:class:`~repro.core.telemetry_store.TelemetryStore`.  Also accepts the
wrapped reports that remote probe responders forward in mesh-probing mode.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import PacketError
from repro.p4.headers import decode_probe_payload
from repro.simnet.addressing import PROTO_UDP
from repro.simnet.host import Host
from repro.simnet.packet import Packet
from repro.telemetry.probe import PORT_PROBE_REPORT
from repro.telemetry.records import ProbeReport

__all__ = ["IntCollector"]

ReportSubscriber = Callable[[ProbeReport], None]


class IntCollector:
    """Probe decoding and distribution at the scheduler."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self._subscribers: List[ReportSubscriber] = []
        self.reports_ingested = 0
        self.reports_malformed = 0
        self.probes_lost = 0
        self.last_report: Optional[ProbeReport] = None
        # Per (src, dst) probe stream: (last seq, inferred seq stride).
        # Senders share one seq counter across round-robined targets, so the
        # per-stream stride is len(targets); it is inferred from the first
        # two arrivals and refined downward, making seq-gap loss detection a
        # heuristic (reordering can mask or split gaps) — good enough to
        # surface systematic probe loss on congested paths.
        self._streams: Dict[Tuple[int, int], Tuple[int, Optional[int]]] = {}
        host.bind(PROTO_UDP, PORT_PROBE_REPORT, self._on_wrapped_report)

    def subscribe(self, fn: ReportSubscriber) -> None:
        self._subscribers.append(fn)

    # -- ingestion entry points ---------------------------------------------

    def ingest_probe(
        self,
        *,
        probe_src: int,
        probe_dst: int,
        seq: int,
        sent_at: float,
        received_at: float,
        payload: bytes,
        final_link_latency: Optional[float],
    ) -> Optional[ProbeReport]:
        """Decode one probe payload and publish the report.  Malformed
        payloads are counted and dropped, as a hardened collector would."""
        obs = self.host.sim.obs
        try:
            records = decode_probe_payload(payload)
        except PacketError as exc:
            self.reports_malformed += 1
            if obs:
                obs.probe_malformed(
                    reason="malformed_probe_payload",
                    src=probe_src, dst=probe_dst, seq=seq, error=str(exc),
                )
            return None
        report = ProbeReport(
            probe_src=probe_src,
            probe_dst=probe_dst,
            seq=seq,
            sent_at=sent_at,
            received_at=received_at,
            records=records,
            final_link_latency=final_link_latency,
            collected_at=self.host.sim.now,
        )
        self.reports_ingested += 1
        self.last_report = report
        if obs:
            obs.probe_received(report)
            self._track_loss(obs, probe_src, probe_dst, seq)
        for fn in self._subscribers:
            fn(report)
        return report

    def _track_loss(self, obs, src: int, dst: int, seq: int) -> None:
        """Seq-gap loss heuristic over one (src, dst) probe stream."""
        key = (src, dst)
        prev = self._streams.get(key)
        if prev is None:
            self._streams[key] = (seq, None)
            return
        last, stride = prev
        delta = seq - last
        if delta == 0:  # duplicate delivery: keep the current front
            return
        if delta < 0:
            # A slightly-late arrival (within a few strides of the front) is
            # ordinary reordering: keep the newest front.  Anything further
            # back means the sender restarted or its counter wrapped — reset
            # the stream state instead of waiting for seq to climb past the
            # stale front and then booking the whole climb as "lost" probes.
            tolerance = 3 * stride if stride is not None else 0
            if -delta <= tolerance:
                return
            self._streams[key] = (seq, None)
            return
        if stride is None or delta < stride:
            stride = delta
        elif delta > stride:
            lost = round(delta / stride) - 1
            if lost > 0:
                self.probes_lost += lost
                obs.probe_lost(src=src, dst=dst, seq=seq, lost=lost)
        self._streams[key] = (seq, stride)

    def _on_wrapped_report(self, packet: Packet) -> None:
        """Mesh-mode path: a remote responder forwarded a probe's contents."""
        msg = packet.message
        obs = self.host.sim.obs
        if not (isinstance(msg, tuple) and len(msg) == 7):
            self.reports_malformed += 1
            if obs:
                obs.probe_malformed(
                    reason="malformed_wrapped_report",
                    src=packet.src_addr, seq=packet.seq,
                )
            return
        probe_src, probe_dst, seq, sent_at, received_at, payload, final_latency = msg
        if not isinstance(payload, (bytes, bytearray)):
            self.reports_malformed += 1
            if obs:
                obs.probe_malformed(
                    reason="wrapped_report_payload_not_bytes",
                    src=probe_src, dst=probe_dst, seq=seq,
                )
            return
        self.ingest_probe(
            probe_src=probe_src,
            probe_dst=probe_dst,
            seq=seq,
            sent_at=sent_at,
            received_at=received_at,
            payload=bytes(payload),
            final_link_latency=final_latency,
        )
