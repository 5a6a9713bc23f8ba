"""Network ports: the egress queue + serializer at each end of a link.

A :class:`Port` implements the store-and-forward path of one interface:

1. :meth:`send` enqueues a packet on the drop-tail egress queue (recording
   the depth it observed, the INT ``enq_qdepth`` signal);
2. when the serializer is idle, the head packet starts transmission, which
   takes ``size * 8 / rate`` seconds;
3. at transmission **start** the owning node's egress hook runs — this is
   where a P4 egress stage executes (probe timestamping / INT collection,
   Section III-A of the paper);
4. after transmission + propagation delay, the packet is delivered to the
   peer port's node.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.simnet.link import Link
from repro.simnet.packet import FLAG_PROBE, Packet
from repro.simnet.queueing import DEFAULT_QUEUE_CAPACITY, DropTailQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.node import Node

__all__ = ["Port"]


class Port:
    """One interface of a node, permanently attached to one link."""

    def __init__(
        self,
        node: "Node",
        port_index: int,
        link: Link,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        queue: Optional["DropTailQueue"] = None,
    ) -> None:
        self.node = node
        self.port_index = port_index
        self.link = link
        # A custom queue discipline (e.g. RedEcnQueue) may be supplied;
        # default is the BMv2-like drop-tail FIFO.
        self.queue = queue if queue is not None else DropTailQueue(queue_capacity)
        # Exactly-plain drop-tail queues get their push/pop bodies inlined
        # on the hot path; subclasses (RedEcnQueue, test doubles) keep
        # virtual dispatch.
        self._plain_queue = type(self.queue) is DropTailQueue
        self._transmitting = False
        self.packets_sent = 0
        self.packets_dropped = 0
        # Hot-path caches: the simulator reference, the bound completion
        # callback (so scheduling does not rebuild a method object per
        # frame), and the peer port (resolved lazily — links are wired
        # after construction, then never change).
        self._sim = node.sim
        self._tx_complete_cb = self._tx_complete
        self._peer: Optional["Port"] = None
        self._peer_node: Optional["Node"] = None
        # This port's direction key on the link ("a"/"b"), resolved lazily —
        # ports are registered on the link after construction.
        self._dir_key: Optional[str] = None

    # -- identity -----------------------------------------------------------

    @property
    def rate_bps(self) -> float:
        """Serialization rate of this port's outbound direction."""
        return self.link.rate_from(self)

    @property
    def peer(self) -> "Port":
        peer = self._peer
        if peer is None:
            peer = self._peer = self.link.peer_of(self)
            self._peer_node = peer.node
        return peer

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Port {self.node.name}[{self.port_index}] on {self.link.name}>"

    # -- egress path ----------------------------------------------------------

    def send(self, packet: Packet) -> bool:
        """Queue ``packet`` for transmission.  Returns False on drop-tail."""
        queue = self.queue
        if self._plain_queue:
            # Inlined DropTailQueue.push — keep in lockstep with
            # queueing.py (the queueing test suite pins the semantics).
            items = queue._items
            depth = len(items)
            if depth >= queue.capacity:
                queue.stats.dropped += 1
                self.packets_dropped += 1
                self.node.on_packet_dropped(packet, self)
                return False
            stats = queue.stats
            packet.enq_depth = depth
            items.append(packet)
            stats.enqueued += 1
            stats.bytes_enqueued += packet.size_bytes
            if depth > stats.max_depth_seen:
                stats.max_depth_seen = depth
            threshold = queue.threshold
            if (
                threshold is not None
                and depth + 1 == threshold
                and queue.on_threshold
            ):
                queue.on_threshold(threshold, "up")
        else:
            depth = queue.push(packet)
            if depth is None:
                self.packets_dropped += 1
                self.node.on_packet_dropped(packet, self)
                return False
        if not self._transmitting:
            self._start_next()
        return True

    def _start_next(self) -> None:
        queue = self.queue
        if self._plain_queue:
            # Inlined DropTailQueue.pop — keep in lockstep with queueing.py.
            items = queue._items
            if not items:
                self._transmitting = False
                return
            queue.stats.dequeued += 1
            packet = items.popleft()
            threshold = queue.threshold
            if (
                threshold is not None
                and len(items) == threshold - 1
                and queue.on_threshold
            ):
                queue.on_threshold(len(items), "down")
        else:
            packet = queue.pop()
            if packet is None:
                self._transmitting = False
                return
        enq_depth = packet.enq_depth
        self._transmitting = True
        # P4 egress stage: runs as the packet leaves the queue and begins
        # serialization.  May mutate the packet (probe payload growth).
        # Phase scope for probes only: the probe path does the expensive
        # work (INT record collection + payload growth), while the data-
        # packet egress is a single register update not worth two clock
        # reads per packet — it stays in the enclosing phase's self-time.
        node = self.node
        prof = self._sim.profiler
        if prof is None or not packet.flags & FLAG_PROBE:
            node.on_egress(packet, self, enq_depth)
        else:
            prof.phase_begin("egress_stage")
            node.on_egress(packet, self, enq_depth)
            prof.phase_end()
        # rate_factor is 1.0 unless a fault degraded the link; x * 1.0 is
        # exact, so the fault-free path is byte-identical.
        link = self.link
        tx_time = (packet.size_bytes * 8.0) / (
            link.rate_from(self) * link.rate_factor
        )
        # Software switches (BMv2) forward with noticeable per-packet service
        # variance; the node's jitter factor reproduces it.  Mean unchanged.
        # Jitter-free nodes skip the call outright: eliding `x *= 1.0` is
        # exact, so the result is bit-identical.
        if node.service_jitter != 0.0:
            tx_time *= node.service_time_factor()
        # Fire-and-forget: completion events are never cancelled, so the
        # handle-free post() path applies.
        self._sim.post(tx_time, self._tx_complete_cb, packet)

    def _tx_complete(self, packet: Packet) -> None:
        # Phase laps (profiled runs only): propagate covers the wire
        # loss-check + delivery scheduling, dequeue covers pulling the next
        # packet (with the probe-only egress_stage sub-phase inside).
        prof = self._sim.profiler
        self.packets_sent += 1
        self._propagate(packet)
        if prof is not None:
            prof.lap("propagate", "dequeue")
        self._start_next()
        if prof is not None:
            prof.lap("dequeue")

    def _propagate(self, packet: Packet) -> None:
        link = self.link
        if link.impaired and link.should_drop(packet):
            # Lost on the wire (link down or probabilistic fault loss): the
            # frame consumed serializer time but is never delivered.
            link.packets_lost += 1
            obs = self._sim.obs
            if obs:
                obs.packet_dropped(
                    queue=f"wire:{link.name}",
                    flow_id=packet.flow_id,
                    seq=packet.seq,
                    size_bytes=packet.size_bytes,
                    is_probe=packet.is_probe,
                )
        else:
            # Inlined Link.record_carried — keep in lockstep with link.py.
            key = self._dir_key
            if key is None:
                key = self._dir_key = "a" if self is link.port_a else "b"
            link.bytes_carried[key] += packet.size_bytes
            if link.obs_counters is not None:
                link.obs_counters[key].inc(packet.size_bytes)
            peer_node = self._peer_node
            if peer_node is None:
                peer = self._peer = link.peer_of(self)
                peer_node = self._peer_node = peer.node
            # on_ingress is resolved per delivery (never cached): packet
            # tracers wrap it in the instance dict at run time.  extra_delay
            # is 0.0 unless a fault degraded the link (x + 0.0 is exact).
            self._sim.post(
                link.propagation_delay + link.extra_delay,
                peer_node.on_ingress, packet, self._peer,
            )

    # -- introspection ----------------------------------------------------------

    @property
    def busy(self) -> bool:
        return self._transmitting

    @property
    def backlog(self) -> int:
        """Packets waiting behind the one in service."""
        return self.queue.depth
