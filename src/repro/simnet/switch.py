"""Switches: nodes that run a programmable data-plane pipeline.

A :class:`Switch` delegates every forwarding decision to its bound
:class:`~repro.p4.pipeline.P4Program`:

* packet arrival -> ``program.process_ingress`` (parser + ingress control);
* packet leaving an egress queue -> ``program.process_egress`` (parser +
  egress control + deparser), with the queue depth the packet observed at
  enqueue time — the BMv2 ``enq_qdepth`` intrinsic the INT program records.

The program is bound *after* the topology is wired (``Network.finalize``),
because programs size per-port resources (the INT registers) from the final
port count.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional

from repro.errors import DataPlaneError
from repro.simnet.engine import Simulator
from repro.simnet.nic import Port
from repro.simnet.node import Clock, Node
from repro.simnet.packet import FLAG_PROBE, Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.p4.pipeline import P4Program

__all__ = ["Switch"]


class Switch(Node):
    """A store-and-forward switch with a P4-style pipeline."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        addr: int,
        switch_id: int,
        clock: Optional[Clock] = None,
    ) -> None:
        super().__init__(sim, name, addr, clock)
        self.switch_id = switch_id
        self.program: Optional["P4Program"] = None
        self.packets_forwarded = 0
        self.packets_dropped_pipeline = 0
        # Compiled per-packet-class closures (P4Program.compile), or None
        # when the program has no fast path / REPRO_SLOWPATH=1 forces the
        # staged oracle path.
        self._fast_ingress = None
        self._fast_egress = None

    def bind_program(self, program: "P4Program") -> None:
        if self.program is not None:
            raise DataPlaneError(f"switch {self.name} already has a program")
        self.program = program
        program.bind(self)
        if os.environ.get("REPRO_SLOWPATH", "") != "1":
            compiled = program.compile()
            if compiled is not None:
                self._fast_ingress, self._fast_egress = compiled

    # -- data path ----------------------------------------------------------

    def on_ingress(self, packet: Packet, in_port: Port) -> None:
        # Phase laps (profiled runs only): p4_pipeline covers the parser +
        # ingress control, enqueue covers the egress-port send.
        prof = self.sim.profiler
        self.packets_received += 1
        fast = self._fast_ingress
        if fast is not None and not packet.flags & FLAG_PROBE:
            # Compiled fast path for the common data-packet hop: the
            # program's parser + ingress control folded into one closure,
            # zero context allocations.
            egress_port = fast(packet)
        else:
            # Staged pipeline: probes, uncompiled programs, and every packet
            # under REPRO_SLOWPATH=1.  Its routing / int_stamp scopes nest
            # under p4_pipeline; self.port() rejects a bad egress port.
            if prof is not None:
                prof.lap("", "p4_pipeline")
            if self.program is None:
                raise DataPlaneError(f"switch {self.name} has no data-plane program")
            ctx = self.program.process_ingress(packet, in_port.port_index)
            egress_port = -1 if ctx.dropped else self.port(ctx.egress_port).port_index
        if egress_port < 0:
            self.packets_dropped_pipeline += 1
            if prof is not None:
                prof.lap("p4_pipeline")
            return
        packet.hop_count += 1
        self.packets_forwarded += 1
        if prof is not None:
            prof.lap("p4_pipeline", "enqueue")
        self.ports[egress_port].send(packet)
        if prof is not None:
            prof.lap("enqueue")

    def on_egress(self, packet: Packet, out_port: Port, enq_depth: int) -> None:
        fast = self._fast_egress
        if fast is not None and not packet.flags & FLAG_PROBE:
            fast(packet, out_port.port_index, enq_depth)
            return
        assert self.program is not None
        self.program.process_egress(packet, out_port.port_index, enq_depth)
