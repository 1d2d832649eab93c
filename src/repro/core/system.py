"""The two systems under test: LazyCtrl and the baseline OpenFlow control.

Both classes implement the :class:`~repro.traffic.replay.FlowSink` protocol,
so the trace replayer can drive either one.  For every replayed flow the
system decides which mechanism handles the first packet (flow table, L-FIB,
G-FIB, or the controller), asks the latency model what that path costs,
accounts controller workload, and records latency samples for every packet
of the flow.  Only the first-packet decision differs between the two, so
everything around it lives once, in :class:`EdgeSystem`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bandwidth.meter import build_link_meter
from repro.common.config import LazyCtrlConfig
from repro.common.packets import make_data_packet
from repro.controlplane.lazyctrl_controller import LazyCtrlController
from repro.controlplane.openflow_controller import OpenFlowController
from repro.controlplane.state_dissemination import StateDisseminator
from repro.dataplane.decisions import ForwardingOutcome
from repro.dataplane.edge_switch import LazyCtrlEdgeSwitch
from repro.dataplane.openflow_switch import OpenFlowEdgeSwitch
from repro.core.results import (
    FlowHandlingResult,
    FlowPathKind,
    SystemCounters,
    TableUsageResult,
)
from repro.obs.events import (
    EvictionEvent,
    LinkCongestedEvent,
    OverflowEvent,
    ReinstallEvent,
)
from repro.obs.tracer import NULL_TRACER
from repro.partitioning.sgi import Grouping
from repro.perf.recorder import NULL_RECORDER
from repro.simulation.latency import LatencyModel
from repro.simulation.metrics import LatencyRecorder
from repro.topology.network import DataCenterNetwork
from repro.traffic.flow import FlowRecord


def _attach_table_tracer(tracer, switch) -> None:
    """Tap one switch's flow table into the event bus with its switch id.

    The table itself knows only pressure *kinds*; the closure re-attaches
    the switch identity and maps each kind onto its typed event.
    """
    switch_id = switch.switch_id

    def on_pressure(kind: str, now: float) -> None:
        if kind == "overflow":
            tracer.emit(OverflowEvent(time=now, switch_id=switch_id))
        elif kind == "reinstall":
            tracer.emit(ReinstallEvent(time=now, switch_id=switch_id))
        else:
            # Removal reasons: evicted / idle_timeout / hard_timeout.
            tracer.emit(EvictionEvent(time=now, switch_id=switch_id, reason=kind))

    switch.flow_table.pressure_listener = on_pressure


class EdgeSystem:
    """The flow-accounting skeleton both systems under test share.

    A subclass builds ``self.controller`` and its edge switches, and
    implements :meth:`_first_packet` — the one step the designs differ in —
    plus ``periodic``, ``prepare`` and ``updates_per_hour``.
    """

    def __init__(
        self, network: DataCenterNetwork, config: LazyCtrlConfig | None, *, latency_bucket_seconds: float
    ) -> None:
        self.network = network
        self.config = config or LazyCtrlConfig()
        self.latency_model = LatencyModel(self.config.latency)
        self.latency_recorder = LatencyRecorder(latency_bucket_seconds)
        self.counters = SystemCounters()
        self.perf = NULL_RECORDER
        self.tracer = NULL_TRACER
        #: Per-uplink utilization meter, or ``None`` when the topology
        #: carries no link capacities.
        self.link_meter = build_link_meter(network)
        self._last_table_sweep = 0.0

    def switch(self, switch_id: int):
        """Return one of this system's edge switches."""
        return self.controller.switch(switch_id)

    def switches(self) -> list:
        """All edge switches, ordered by id."""
        return self.controller.switches()

    # -- FlowSink protocol ----------------------------------------------------------

    def handle_flow_arrival(self, flow: FlowRecord, now: float) -> Optional[FlowHandlingResult]:
        """Handle one replayed flow: first-packet path decision + accounting."""
        network = self.network
        counters = self.counters
        src_host = network.host_if_present(flow.src_host_id)
        dst_host = network.host_if_present(flow.dst_host_id)
        if src_host is None or dst_host is None:
            # An endpoint's tenant departed mid-run (workload churn): the
            # flow never materializes and generates no control-plane work.
            counters.departed_flows += 1
            return None
        packet = make_data_packet(
            src_host.mac,
            dst_host.mac,
            src_host.tenant_id,
            created_at=now,
            flow_id=flow.flow_id,
        )
        path, first, steady, controller_involved, duplicates, false_positive_drop = (
            self._first_packet(src_host, dst_host, packet, now)
        )

        meter = self.link_meter
        if meter is not None and src_host.switch_id != dst_host.switch_id:
            # Queueing delay of the traversed uplinks: charge the flow's bytes
            # to both capacitated uplinks of the one-hop underlay and price
            # each one's accounting-window utilization through the M/M/1
            # term.  Capacity-less topologies and edge-local flows never touch
            # the meter, keeping them bit-identical to runs without it.
            observation = meter.observe(flow, src_host.switch_id, dst_host.switch_id, now)
            if observation.congested:
                counters.congested_flows += 1
            if self.tracer.enabled:
                for switch_id, utilization in observation.newly_congested:
                    self.tracer.emit(
                        LinkCongestedEvent(time=now, switch_id=switch_id, utilization=utilization)
                    )
            model = self.latency_model
            penalty = model.queueing_delay_ms(observation.src_utilization) + model.queueing_delay_ms(
                observation.dst_utilization
            )
            if penalty > 0.0:
                first += penalty
                steady += penalty

        counters.flows_handled += 1
        counters.duplicate_deliveries += duplicates
        if false_positive_drop:
            counters.false_positive_drops += 1

        self.latency_recorder.record(now, first)
        if flow.packet_count > 1:
            self.latency_recorder.record(now, steady, count=flow.packet_count - 1)
        if self.tracer.enabled:
            self.tracer.flow(now, first)

        return FlowHandlingResult(
            flow_id=flow.flow_id,
            path=path,
            src_switch_id=src_host.switch_id,
            dst_switch_id=dst_host.switch_id,
            controller_involved=controller_involved,
            first_packet_latency_ms=first,
            steady_packet_latency_ms=steady,
            duplicate_deliveries=duplicates,
            false_positive_drop=false_positive_drop,
        )

    def _first_packet(self, src_host, dst_host, packet, now: float) -> tuple:
        """One flow's ``(path, first_ms, steady_ms, controller_involved, duplicates, fp_drop)``."""
        raise NotImplementedError

    # -- periodic housekeeping ---------------------------------------------------------

    def _sweep_tables(self, now: float) -> None:
        """Eagerly expire aged flow rules, at most once per sweep interval.

        The periodic tick fires every couple of replay minutes; the sweep is
        rate-limited by ``flow_table.sweep_interval_seconds`` so large
        deployments do not walk every table on every tick.  Lookups expire
        rules lazily in between, so the sweep only changes *when* a removal
        is noticed, never whether it happens.
        """
        with self.perf.timeit("table_sweep"):
            if now - self._last_table_sweep < self.config.flow_table.sweep_interval_seconds:
                return
            self._last_table_sweep = now
            for switch in self.switches():
                switch.advance_tables(now)

    def _sample_gauges(self, now: float) -> None:
        """Sample the occupancy and utilization gauges.

        Runs at every tick, independent of the sweep rate limit, so both
        systems' timelines share a cadence.
        """
        tracer = self.tracer
        if tracer.enabled:
            tracer.gauge(
                "table_occupancy", now, sum(len(switch.flow_table) for switch in self.switches())
            )
            if self.link_meter is not None:
                tracer.gauge("link_utilization", now, self.link_meter.max_utilization(now))

    # -- ControlPlane protocol (runner-facing) ------------------------------------------

    def set_perf_recorder(self, recorder) -> None:
        """Attach a perf recorder to the system and its controller."""
        self.perf = recorder
        self.controller.perf = recorder

    def set_tracer(self, tracer) -> None:
        """Attach an event tracer to the system, its controller, and its tables."""
        self.tracer = tracer
        self.controller.tracer = tracer
        for switch in self.switches():
            _attach_table_tracer(tracer, switch)

    def fold_perf_counters(self) -> None:
        """Fold data-plane counters into the recorder (end-of-replay snapshot).

        The per-packet counters live on the switches themselves so the hot
        path never pays for instrumentation; this aggregates them into the
        recorder's registry once, when a snapshot is about to be taken.
        """
        perf = self.perf
        if not perf.enabled:
            return
        switches = self.switches()
        perf.count("edge.packets_processed", sum(switch.packets_processed for switch in switches))
        perf.count("edge.packets_to_controller", sum(switch.packets_to_controller for switch in switches))
        perf.count("edge.flow_table_hits", sum(switch.flow_table.stats.hits for switch in switches))
        perf.count("edge.flow_table_misses", sum(switch.flow_table.stats.misses for switch in switches))
        perf.count("controller.flow_mods", self.controller.flow_mods_sent)
        self._fold_extra_counters(perf)
        usage = self.table_usage()
        for name in ("overflows", "evictions", "idle_timeouts", "hard_timeouts", "reinstalls"):
            perf.count(f"edge.table_{name}", getattr(usage, name))
        perf.gauge("edge.table_peak_occupancy", usage.peak_occupancy)
        perf.gauge("edge.table_final_occupancy", usage.final_occupancy)

    def _fold_extra_counters(self, perf) -> None:
        """Design-specific counters for :meth:`fold_perf_counters`."""

    def table_usage(self) -> TableUsageResult:
        """Flow-table pressure accounting aggregated over all edge switches."""
        tables = [switch.flow_table for switch in self.switches()]
        stats = [table.stats for table in tables]
        return TableUsageResult(
            capacity=self.config.flow_table.capacity,
            policy=self.config.flow_table.policy,
            installs=sum(entry.installs for entry in stats),
            overflows=sum(entry.overflows for entry in stats),
            evictions=sum(entry.evictions for entry in stats),
            idle_timeouts=sum(entry.timeouts for entry in stats),
            hard_timeouts=sum(entry.hard_timeouts for entry in stats),
            reinstalls=sum(entry.reinstalls for entry in stats),
            flow_removed_messages=self.controller.flow_removed_received,
            peak_occupancy=max((entry.peak_occupancy for entry in stats), default=0),
            final_occupancy=sum(len(table) for table in tables),
        )

    def link_usage(self, duration_seconds: float):
        """Per-uplink utilization matrix, or ``None`` without capacities."""
        if self.link_meter is None:
            return None
        return self.link_meter.usage(duration_seconds)

    def workload_series(self):
        """Controller requests bucketed over simulation time."""
        return self.controller.workload_series

    def total_controller_requests(self) -> int:
        """Total requests the controller served."""
        return self.controller.total_requests


class LazyCtrlSystem(EdgeSystem):
    """The full LazyCtrl deployment: edge switches, LCGs and the lazy controller."""

    def __init__(
        self,
        network: DataCenterNetwork,
        *,
        config: LazyCtrlConfig | None = None,
        dynamic_grouping: bool = True,
        workload_bucket_seconds: float = 7200.0,
        latency_bucket_seconds: float = 7200.0,
    ) -> None:
        super().__init__(network, config, latency_bucket_seconds=latency_bucket_seconds)
        self.controller = LazyCtrlController(
            network,
            config=self.config,
            dynamic_grouping=dynamic_grouping,
            workload_bucket_seconds=workload_bucket_seconds,
        )
        self.failover_records: List = []

        for info in network.switches():
            switch = LazyCtrlEdgeSwitch(
                info.switch_id,
                underlay_ip=info.underlay_ip,
                management_mac=info.management_mac,
                bloom_config=self.config.bloom,
                flow_table_config=self.config.flow_table,
            )
            self.controller.register_switch(switch)
        self.controller.bootstrap_host_locations()
        self.disseminator = StateDisseminator(network, self.controller)

    # -- grouping lifecycle -------------------------------------------------------

    def install_initial_grouping(self, warmup_trace, *, warmup_end: float, now: float = 0.0) -> Grouping:
        """Run IniGroup on the warm-up window of a trace and provision the groups."""
        matrix = warmup_trace.switch_intensity(start=0.0, end=warmup_end)
        grouping = self.controller.grouping_manager.initial_grouping(matrix, now=now)
        self.controller.apply_grouping(grouping, now=now)
        return grouping

    def install_grouping(self, grouping: Grouping, *, now: float = 0.0) -> None:
        """Provision an externally computed grouping (used by ablation benches)."""
        self.controller.grouping_manager.current_grouping = grouping
        self.controller.apply_grouping(grouping, now=now)

    # -- first-packet decision ------------------------------------------------------

    def _first_packet(self, src_host, dst_host, packet, now: float) -> tuple:
        """Flow table → L-FIB → G-FIB → controller (Fig. 5)."""
        controller = self.controller
        counters = self.counters
        latency_model = self.latency_model
        controller.grouping_manager.observe_flow(src_host.switch_id, dst_host.switch_id)
        decision = controller.switch(src_host.switch_id).process_packet(packet, now)

        false_positive_drop = False
        controller_involved = False
        if decision.outcome == ForwardingOutcome.LOCAL_DELIVERY:
            path = FlowPathKind.LOCAL
            first = latency_model.local_delivery_ms()
            steady = first
            counters.local_flows += 1
        elif decision.outcome == ForwardingOutcome.FLOW_TABLE_HIT:
            path = FlowPathKind.FLOW_TABLE
            first = latency_model.flow_table_hit_ms()
            steady = first
        elif decision.outcome == ForwardingOutcome.INTRA_GROUP_FORWARD:
            path = FlowPathKind.INTRA_GROUP
            first = latency_model.intra_group_ms(len(decision.target_switches))
            steady = latency_model.intra_group_ms()
            counters.intra_group_flows += 1
            false_positive_drop = self._deliver_intra_group_copies(decision, now)
        else:
            # The group could not resolve the destination: inter-group flow.
            path = FlowPathKind.INTER_GROUP
            controller_involved = True
            load = controller.current_load_rps(now)
            result = controller.handle_packet_in(src_host.switch_id, packet, now)
            first = latency_model.inter_group_setup_ms(load)
            steady = latency_model.flow_table_hit_ms()
            counters.inter_group_flows += 1
            counters.controller_requests += 1
            if result.egress_switch_id is None:
                path = FlowPathKind.DROPPED
        return path, first, steady, controller_involved, decision.duplicate_count, false_positive_drop

    def _deliver_intra_group_copies(self, decision, now: float) -> bool:
        """Deliver the encapsulated copies of an intra-group packet.

        Copies sent to false-positive switches are dropped there after an
        L-FIB miss (Fig. 5 line 28); returns whether any copy was dropped.
        """
        dropped_any = False
        for target_id in decision.target_switches:
            target = self.controller.switch(target_id)
            header = self.controller.switch(decision.switch_id).make_encap_header(
                target_id, self.network.switch(target_id).underlay_ip
            )
            copy = decision.packet.encapsulate(header)
            outcome = target.process_packet(copy, now)
            if outcome.outcome == ForwardingOutcome.DROPPED_FALSE_POSITIVE:
                dropped_any = True
        return dropped_any

    # -- periodic housekeeping ---------------------------------------------------------

    def periodic(self, now: float) -> None:
        """Periodic housekeeping: state reports, regrouping, table aging."""
        perf = self.perf
        with perf.timeit("dissemination"):
            self.controller.collect_state_reports(now=now)
        with perf.timeit("regrouping"):
            self.controller.periodic_check(now)
        self._sweep_tables(now)
        self._sample_gauges(now)

    # -- ControlPlane protocol (runner-facing) ------------------------------------------

    def prepare(self, trace, *, warmup_end: float, now: float = 0.0) -> None:
        """Provision the initial grouping from the trace's warm-up window."""
        self.install_initial_grouping(trace, warmup_end=warmup_end, now=now)

    def set_tracer(self, tracer) -> None:
        """Attach an event tracer to the system, its controller, and its tables."""
        super().set_tracer(tracer)
        self.controller.grouping_manager.tracer = tracer

    def _fold_extra_counters(self, perf) -> None:
        gfibs = [switch.gfib for switch in self.switches()]
        perf.count("edge.gfib_queries", sum(gfib.query_count for gfib in gfibs))
        perf.count("edge.gfib_query_cache_hits", sum(gfib.query_cache_hits for gfib in gfibs))
        perf.count("controller.arp_relays", self.controller.arp_relays)
        perf.count("controller.group_config_messages", self.controller.group_config_messages)

    def updates_per_hour(self, *, hours: int) -> List[float]:
        """Grouping updates per hour bucket (Fig. 8)."""
        return self.controller.grouping_manager.updates_per_hour(hours=hours)

    # -- churn hooks (workload dynamics) ------------------------------------------------

    def churn_migrate_host(self, host_id: int, new_switch_id: int, *, now: float = 0.0) -> None:
        """Live-migrate one VM; L-FIB/G-FIB/C-LIB state follows (§III-D.3)."""
        self.disseminator.migrate_host(host_id, new_switch_id, now=now)
        self.controller.grouping_manager.note_churn()

    def churn_tenant_arrival(self, name: str, placements, *, now: float = 0.0) -> int:
        """A tenant arrives: one VM per placement switch boots and ARPs."""
        tenant = self.network.tenants.create_tenant(name)
        for switch_id in placements:
            host = self.network.attach_host(switch_id, tenant.tenant_id)
            self.disseminator.host_appeared(host.host_id, now=now)
            self.controller.clib.record_host(host.mac, host.switch_id, host.tenant_id)
            self.controller.tenant_manager.note_host_location(host.tenant_id, host.switch_id)
        self.controller.grouping_manager.note_churn(len(placements))
        return tenant.tenant_id

    def churn_tenant_departure(self, tenant_id: int, *, now: float = 0.0) -> int:
        """A tenant departs: every VM is decommissioned and state cleaned up."""
        host_ids = list(self.network.tenants.get(tenant_id).host_ids)
        for host_id in host_ids:
            self.disseminator.host_departed(host_id, now=now)
        self.network.remove_tenant(tenant_id)
        self.controller.tenant_manager.refresh()
        self.controller.grouping_manager.note_churn(len(host_ids))
        return len(host_ids)

    def churn_attributed_regroupings(self) -> int:
        """Grouping updates applied while topology churn was pending."""
        return self.controller.grouping_manager.churn_attributed_update_count

    # -- failure injection -------------------------------------------------------------

    def inject_failures(self, *, count: int = 1, now: float = 0.0) -> List:
        """Fail the designated switch of the ``count`` largest groups.

        Each victim goes through the full §III-E cycle: the keep-alive wheel
        detects the failure, the failover manager promotes a backup and
        issues the remote reboot, and the switch then comes back and
        re-synchronizes group state.  Returns the recovery records and
        appends them to :attr:`failover_records`.
        """
        from repro.failover.detection import FailureDetector
        from repro.failover.recovery import FailoverManager

        records: List = []
        groups = sorted(self.controller.groups.values(), key=len, reverse=True)
        for group in groups[:count]:
            if len(group) < 2 or not group.backup_switch_ids:
                continue
            victim = group.designated_switch_id
            group.member(victim).failed = True
            detector = FailureDetector(group, keepalive_interval=self.config.keepalive_interval_seconds)
            manager = FailoverManager(self.controller, group)
            records.extend(manager.handle_all(detector.detect(now=now), now=now))
            group.member(victim).failed = False
            records.extend(manager.complete_switch_recovery(victim, now=now))
        self.failover_records.extend(records)
        return records


class OpenFlowSystem(EdgeSystem):
    """The baseline: every flow set up reactively by the central controller."""

    def __init__(
        self,
        network: DataCenterNetwork,
        *,
        config: LazyCtrlConfig | None = None,
        workload_bucket_seconds: float = 7200.0,
        latency_bucket_seconds: float = 7200.0,
    ) -> None:
        super().__init__(network, config, latency_bucket_seconds=latency_bucket_seconds)
        self.controller = OpenFlowController(workload_bucket_seconds=workload_bucket_seconds)
        for info in network.switches():
            switch = OpenFlowEdgeSwitch(
                info.switch_id,
                underlay_ip=info.underlay_ip,
                management_mac=info.management_mac,
                flow_table_config=self.config.flow_table,
            )
            self.controller.register_switch(switch)
        for host in network.hosts():
            self.switch(host.switch_id).attach_host(host.mac, host.port, host.tenant_id)

    # -- first-packet decision ------------------------------------------------------

    def _first_packet(self, src_host, dst_host, packet, now: float) -> tuple:
        """Flow table → controller: every table miss is set up reactively."""
        controller = self.controller
        latency_model = self.latency_model
        decision = controller.switch(src_host.switch_id).process_packet(packet, now)

        controller_involved = False
        if decision.outcome == ForwardingOutcome.LOCAL_DELIVERY:
            path = FlowPathKind.LOCAL
            first = latency_model.local_delivery_ms()
            steady = first
            self.counters.local_flows += 1
        elif decision.outcome == ForwardingOutcome.FLOW_TABLE_HIT:
            path = FlowPathKind.FLOW_TABLE
            first = latency_model.flow_table_hit_ms()
            steady = first
        else:
            path = FlowPathKind.CONTROLLER_REACTIVE
            controller_involved = True
            load = controller.current_load_rps(now)
            result = controller.handle_packet_in(
                src_host.switch_id,
                packet,
                now,
                true_destination_switch=dst_host.switch_id,
            )
            first = latency_model.openflow_reactive_ms(
                load, needs_location_learning=result.needed_location_learning
            )
            steady = latency_model.flow_table_hit_ms()
            self.counters.controller_requests += 1
        return path, first, steady, controller_involved, 0, False

    def periodic(self, now: float) -> None:
        """Periodic housekeeping: the baseline only ages its flow tables."""
        self._sample_gauges(now)
        self._sweep_tables(now)

    # -- ControlPlane protocol (runner-facing) -----------------------------------------

    def prepare(self, trace, *, warmup_end: float, now: float = 0.0) -> None:
        """The reactive baseline needs no warm-up provisioning."""

    def _fold_extra_counters(self, perf) -> None:
        perf.count("controller.arp_floods", self.controller.arp_floods)

    def updates_per_hour(self, *, hours: int) -> List[float]:
        """The baseline never regroups; every hour bucket is zero."""
        return [0.0] * max(0, hours)

    # -- churn hooks (workload dynamics) ------------------------------------------------
    #
    # The baseline experiences the identical churn stream as LazyCtrl; a
    # migration or boot shows up as the usual hypervisor-driven gratuitous
    # ARP, which the learning controller absorbs without regrouping.

    def churn_migrate_host(self, host_id: int, new_switch_id: int, *, now: float = 0.0) -> None:
        """Live-migrate one VM; the learning switch tables follow."""
        host = self.network.host(host_id)
        old_switch_id = host.switch_id
        if old_switch_id == new_switch_id:
            return
        migrated = self.network.migrate_host(host_id, new_switch_id)
        self.switch(old_switch_id).detach_host(migrated.mac)
        self.switch(new_switch_id).attach_host(migrated.mac, migrated.port, migrated.tenant_id)
        # The gratuitous ARP after migration re-teaches the controller.
        self.controller.learn_location(migrated.mac, new_switch_id)

    def churn_tenant_arrival(self, name: str, placements, *, now: float = 0.0) -> int:
        """A tenant arrives: one VM per placement switch boots and ARPs."""
        tenant = self.network.tenants.create_tenant(name)
        for switch_id in placements:
            host = self.network.attach_host(switch_id, tenant.tenant_id)
            self.switch(switch_id).attach_host(host.mac, host.port, host.tenant_id)
            self.controller.learn_location(host.mac, switch_id)
        return tenant.tenant_id

    def churn_tenant_departure(self, tenant_id: int, *, now: float = 0.0) -> int:
        """A tenant departs: every VM is decommissioned and forgotten."""
        host_ids = list(self.network.tenants.get(tenant_id).host_ids)
        for host_id in host_ids:
            host = self.network.host(host_id)
            self.switch(host.switch_id).detach_host(host.mac)
            self.controller.forget_location(host.mac)
            self.network.remove_host(host_id)
        self.network.tenants.remove_tenant(tenant_id)
        return len(host_ids)

    def churn_attributed_regroupings(self) -> int:
        """The baseline has no grouping to update."""
        return 0
