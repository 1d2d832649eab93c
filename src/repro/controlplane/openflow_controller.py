"""Baseline centralized OpenFlow controller (Floodlight-like reactive control).

This is the comparison point of the paper's evaluation: a logically
centralized controller that handles **every** flow in the network.  Each new
flow triggers a ``Packet_In``; the controller learns host locations through
ARP flooding (the Floodlight ``learning-switch`` behaviour the paper
mentions), installs a reactive flow rule on the ingress switch and forwards
the packet.  Its workload therefore scales with the total flow-arrival rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.addresses import MacAddress
from repro.common.packets import FlowKey, Packet
from repro.datastructures.flow_table import ActionType, FlowAction
from repro.dataplane.openflow_switch import OpenFlowEdgeSwitch
from repro.obs.events import FlowInstallEvent, FlowRemovedEvent, PacketInEvent
from repro.obs.tracer import NULL_TRACER
from repro.perf.recorder import NULL_RECORDER
from repro.simulation.metrics import CounterSeries, WorkloadMeter


@dataclass(frozen=True, slots=True)
class PacketInResult:
    """What the baseline controller did with one Packet_In."""

    ingress_switch_id: int
    egress_switch_id: Optional[int]
    needed_location_learning: bool
    installed_rule: bool


class OpenFlowController:
    """Reactive centralized controller handling every flow setup itself."""

    def __init__(self, *, workload_bucket_seconds: float = 7200.0) -> None:
        self._switches: Dict[int, OpenFlowEdgeSwitch] = {}
        self._learned_locations: Dict[MacAddress, int] = {}
        self.workload_series = CounterSeries(workload_bucket_seconds)
        self.workload_meter = WorkloadMeter(window_seconds=60.0)
        self.perf = NULL_RECORDER
        self.tracer = NULL_TRACER
        self.total_requests = 0
        self.arp_floods = 0
        self.flow_mods_sent = 0
        self.flow_removed_received = 0

    # -- switch registration ---------------------------------------------------

    def register_switch(self, switch: OpenFlowEdgeSwitch) -> None:
        """Connect an edge switch to the controller."""
        self._switches[switch.switch_id] = switch
        switch.flow_removed_handler = self.handle_flow_removed

    def switch(self, switch_id: int) -> OpenFlowEdgeSwitch:
        """Return a registered switch by id."""
        return self._switches[switch_id]

    def switches(self) -> List[OpenFlowEdgeSwitch]:
        """All registered switches ordered by id."""
        return [self._switches[switch_id] for switch_id in sorted(self._switches)]

    def switch_count(self) -> int:
        """Number of connected switches."""
        return len(self._switches)

    # -- location learning -------------------------------------------------------

    def knows_location(self, mac: MacAddress) -> bool:
        """Whether the controller has already learned where ``mac`` lives."""
        return mac in self._learned_locations

    def learn_location(self, mac: MacAddress, switch_id: int) -> None:
        """Record a learned host location (from a Packet_In source or ARP reply)."""
        self._learned_locations[mac] = switch_id

    def forget_location(self, mac: MacAddress) -> None:
        """Drop a learned location (cache expiry; used by cold-cache experiments)."""
        self._learned_locations.pop(mac, None)

    def located_switch(self, mac: MacAddress) -> Optional[int]:
        """The switch the controller believes hosts ``mac``."""
        return self._learned_locations.get(mac)

    # -- Packet_In handling -------------------------------------------------------

    def handle_packet_in(
        self,
        ingress_switch_id: int,
        packet: Packet,
        now: float,
        *,
        true_destination_switch: Optional[int] = None,
    ) -> PacketInResult:
        """Process one Packet_In.

        ``true_destination_switch`` is the ground-truth location of the
        destination host, supplied by the experiment harness; when the
        controller has not learned that location yet it performs an ARP-flood
        learning round (extra workload) before it can install the rule, which
        is what makes baseline cold-cache latency high.
        """
        self._record_request(now)
        if self.tracer.enabled:
            self.tracer.emit(
                PacketInEvent(time=now, switch_id=ingress_switch_id, kind="reactive")
            )
        # Learning-switch behaviour: the Packet_In itself teaches the
        # controller where the source lives.
        self.learn_location(packet.src_mac, ingress_switch_id)

        needed_learning = False
        egress = self.located_switch(packet.dst_mac)
        if egress is None:
            needed_learning = True
            self.arp_floods += 1
            # The flood itself generates additional controller work (one more
            # round of Packet_Ins carrying the replies).
            self._record_request(now)
            if self.tracer.enabled:
                self.tracer.emit(
                    PacketInEvent(time=now, switch_id=ingress_switch_id, kind="arp_flood")
                )
            egress = true_destination_switch
            if egress is not None:
                self.learn_location(packet.dst_mac, egress)

        installed = False
        if egress is not None:
            self._install_rule(ingress_switch_id, packet, egress, now)
            installed = True
        return PacketInResult(
            ingress_switch_id=ingress_switch_id,
            egress_switch_id=egress,
            needed_location_learning=needed_learning,
            installed_rule=installed,
        )

    def handle_flow_removed(self, switch_id: int, rule, now: float, reason) -> None:
        """Note a ``flow_removed`` from a switch whose table aged out a rule.

        Counted separately from ``total_requests``: the removal itself is
        bookkeeping; the cost of finite tables shows up as the re-install
        ``Packet_In`` the next packet of the flow triggers.
        """
        self.flow_removed_received += 1
        self.perf.count("controller.flow_removed")
        if self.tracer.enabled:
            self.tracer.emit(
                FlowRemovedEvent(time=now, switch_id=switch_id, reason=reason.value)
            )

    # -- helpers ---------------------------------------------------------------

    def current_load_rps(self, now: float) -> float:
        """Controller load (requests per second) over the recent window."""
        return self.workload_meter.rate(now)

    def _record_request(self, now: float) -> None:
        self.total_requests += 1
        self.workload_series.record(now)
        self.workload_meter.record(now)
        self.perf.count("controller.requests")

    def _install_rule(self, ingress_switch_id: int, packet: Packet, egress_switch_id: int, now: float) -> None:
        switch = self._switches.get(ingress_switch_id)
        if switch is None:
            return
        key = FlowKey(src_mac=packet.src_mac, dst_mac=packet.dst_mac, tenant_id=packet.tenant_id)
        if egress_switch_id == ingress_switch_id:
            port = switch.local_host(packet.dst_mac) or 1
            action = FlowAction(ActionType.FORWARD_LOCAL, port)
        else:
            action = FlowAction(ActionType.ENCAP_TO_SWITCH, egress_switch_id)
        switch.install_flow_rule(key, action, now=now)
        self.flow_mods_sent += 1
        if self.tracer.enabled:
            self.tracer.emit(
                FlowInstallEvent(
                    time=now,
                    switch_id=ingress_switch_id,
                    egress_switch_id=egress_switch_id,
                )
            )
