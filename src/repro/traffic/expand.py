"""Trace expansion: the paper's "+30 % extra flows" stress scenario (§V-D).

To test whether LazyCtrl keeps the controller lazy when the traffic pattern
drifts, the paper expands the real trace "by introducing 30 % extra flows
among the hosts that did not communicate with each other in the real trace
during the time interval from 8 to 24".  These extra flows deliberately break
the locality that the initial grouping exploited, which is what makes the
incremental-update machinery earn its keep (Fig. 7 and Fig. 8, "expanded"
curves).
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.errors import TrafficError
from repro.common.rng import make_rng
from repro.traffic.flow import FlowBatch, FlowRecord
from repro.traffic.trace import Trace


def expand_trace(
    trace: Trace,
    *,
    extra_fraction: float = 0.30,
    window_start_hour: float = 8.0,
    window_end_hour: float = 24.0,
    seed: int = 2015,
    name: Optional[str] = None,
) -> Trace:
    """Return a new trace with extra flows among previously silent host pairs.

    ``extra_fraction`` extra flows (relative to the original flow count) are
    added, uniformly spread over ``[window_start_hour, window_end_hour)``,
    between host pairs that never communicated in the original trace.
    """
    if not 0.0 <= extra_fraction <= 5.0:
        raise TrafficError("extra_fraction must be in [0, 5]")
    if window_end_hour <= window_start_hour:
        raise TrafficError("the expansion window must have positive length")
    network = trace.network
    host_count = network.host_count()
    if host_count < 4:
        raise TrafficError("the topology is too small to expand the trace")

    rng = make_rng(seed, "expand-trace", trace.name)
    existing_pairs = trace.communicating_pairs()
    extra_count = int(round(trace.flow_count() * extra_fraction))
    next_flow_id = max(trace.flows.flow_ids, default=-1) + 1

    window_start = window_start_hour * 3600.0
    window_span = (window_end_hour - window_start_hour) * 3600.0

    extra_flows: List[FlowRecord] = []
    attempts = 0
    max_attempts = extra_count * 80 + 1000
    while len(extra_flows) < extra_count and attempts < max_attempts:
        attempts += 1
        a = rng.randrange(host_count)
        b = rng.randrange(host_count)
        if a == b:
            continue
        pair = (a, b) if a < b else (b, a)
        if pair in existing_pairs:
            continue
        timestamp = window_start + rng.random() * window_span
        packet_count = max(1, int(rng.expovariate(1.0 / 10.0)) + 1)
        extra_flows.append(
            FlowRecord(
                start_time=timestamp,
                flow_id=next_flow_id + len(extra_flows),
                src_host_id=a,
                dst_host_id=b,
                packet_count=packet_count,
                byte_count=packet_count * 1400,
                duration=min(60.0, packet_count * 0.05),
            )
        )
    if len(extra_flows) < extra_count:
        # Small topologies can run out of silent pairs; in that case reuse
        # arbitrary cross-pairs rather than failing the experiment, but keep
        # the count faithful.
        while len(extra_flows) < extra_count:
            a = rng.randrange(host_count)
            b = rng.randrange(host_count)
            if a == b:
                continue
            timestamp = window_start + rng.random() * window_span
            extra_flows.append(
                FlowRecord(
                    start_time=timestamp,
                    flow_id=next_flow_id + len(extra_flows),
                    src_host_id=a,
                    dst_host_id=b,
                )
            )

    combined = FlowBatch.concat((trace.flows, extra_flows))
    return Trace(name or f"{trace.name}-expanded", network, combined)
