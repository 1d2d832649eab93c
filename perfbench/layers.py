"""Per-layer metrics of the traced round, and the end-to-end metric each should move.

Layers are named after the program's packages.  Times come from the
benchmark's own spans (:mod:`perfbench.spans`) and from the program's
``PerfRecorder`` stage timers; counts from its perf counters and results.
Every value is summed over the systems of the round unless its name ends in
a system.  ``trace_overhead_ratio`` needs the untraced rounds and
``host.speed`` the round's host-speed samples, so :mod:`perfbench.run` adds
both.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping

from perfbench.spans import SpanRecorder


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric and where a change to it should show end to end."""

    name: str
    unit: str
    better: str
    moves: str


LAYER_METRICS = (
    LayerMetric("traffic.generate_s", "s", "lower",
                "setup_s and e2e_flows_per_s on fig7-vec; replay_flows_per_s on "
                "tables-scalar and incast-vec, whose streams generate inside the replay"),
    LayerMetric("traffic.us_per_flow", "us", "lower", "as traffic.generate_s"),
    LayerMetric("traffic.chunks", "count", "lower", "as traffic.generate_s"),
    LayerMetric("topology.build_s", "s", "lower", "setup_s; expected flat everywhere"),
    LayerMetric("controlplane.build_s", "s", "lower", "e2e_flows_per_s; expected flat"),
    LayerMetric("controlplane.prepare_s", "s", "lower",
                "e2e_flows_per_s on every workload (IniGroup warm-up, generation excluded)"),
    LayerMetric("controlplane.periodic_s", "s", "lower",
                "replay_flows_per_s on fig7-vec (lazyctrl-dynamic regrouping)"),
    LayerMetric("controlplane.regrouping_s", "s", "lower", "as controlplane.periodic_s"),
    LayerMetric("controlplane.dissemination_s", "s", "lower", "as controlplane.periodic_s"),
    LayerMetric("controlplane.requests", "count", "lower", "none: a simulated output, must repeat"),
    LayerMetric("controlplane.flow_mods", "count", "lower", "none: must repeat exactly"),
    LayerMetric("controlplane.group_config_messages", "count", "lower",
                "none: must repeat exactly"),
    LayerMetric("replay.loop_self_s", "s", "lower", "replay_flows_per_s on every workload"),
    LayerMetric("replay.batches", "count", "lower",
                "replay_flows_per_s on every workload; the sample count of the batch percentiles"),
    LayerMetric("replay.batch_p50_ms", "ms", "lower", "replay_flows_per_s on every workload"),
    LayerMetric("replay.batch_p99_ms", "ms", "lower", "replay_flows_per_s on every workload"),
    LayerMetric("kernel.classify_s", "s", "lower", "replay_flows_per_s on fig7-vec"),
    LayerMetric("kernel.fallback_s", "s", "lower",
                "replay_flows_per_s on incast-vec and for openflow on fig7-vec"),
    LayerMetric("kernel.accumulate_s", "s", "lower", "replay_flows_per_s on fig7-vec"),
    LayerMetric("kernel.flows_vectorized", "count", "higher",
                "replay_flows_per_s on fig7-vec and incast-vec; zero on tables-scalar"),
    LayerMetric("kernel.flows_fallback", "count", "lower",
                "replay_flows_per_s on incast-vec; zero on tables-scalar"),
    LayerMetric("kernel.coverage", "ratio", "higher", "as kernel.flows_vectorized"),
    LayerMetric("kernel.coverage.openflow", "ratio", "higher",
                "replay_flows_per_s on fig7-vec and incast-vec"),
    LayerMetric("kernel.coverage.lazyctrl-dynamic", "ratio", "higher",
                "replay_flows_per_s on fig7-vec and incast-vec"),
    LayerMetric("kernel.fallback_us_per_flow", "us", "lower",
                "replay_flows_per_s on incast-vec"),
    LayerMetric("dataplane.handle_s", "s", "lower", "replay_flows_per_s on tables-scalar"),
    LayerMetric("dataplane.us_per_flow", "us", "lower", "replay_flows_per_s on tables-scalar"),
    LayerMetric("dataplane.packets_processed", "count", "lower", "none: must repeat exactly"),
    LayerMetric("dataplane.flow_table_hit_ratio", "ratio", "higher",
                "none: a simulated output, must repeat"),
    LayerMetric("dataplane.gfib_queries", "count", "lower", "none: must repeat exactly"),
    LayerMetric("dataplane.gfib_cache_hit_ratio", "ratio", "higher",
                "none: a simulated output, must repeat"),
    LayerMetric("tables.sweep_s", "s", "lower", "replay_flows_per_s on tables-scalar"),
    LayerMetric("tables.overflows", "count", "lower", "none: exercised on tables-scalar"),
    LayerMetric("tables.evictions", "count", "lower", "none: exercised on tables-scalar"),
    LayerMetric("tables.reinstalls", "count", "lower", "none: exercised on tables-scalar"),
    LayerMetric("bandwidth.congested_flows", "count", "lower", "none: exercised on incast-vec"),
    LayerMetric("bandwidth.link_congested_cells", "count", "lower",
                "none: exercised on incast-vec"),
    LayerMetric("core.prepare_collect_s", "s", "lower",
                "replay_flows_per_s: replay_system time outside the replay loop"),
    LayerMetric("trace_overhead_ratio", "ratio", "lower",
                "none: traced round wall over the untraced rounds' median wall, "
                "both at the reference host's speed"),
    LayerMetric("host.speed", "ratio", "higher",
                "none: the host's speed over the traced round against the reference "
                "host (perfbench/hostspeed.py); the per-layer times are wall clock"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile_ms(samples: List[float], fraction: float) -> float:
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0] * 1e3
    return statistics.quantiles(samples, n=100, method="inclusive")[round(fraction * 100) - 1] * 1e3


def layer_metrics(
    spans: SpanRecorder,
    systems: Mapping[str, Mapping[str, Any]],
    flows_generated: int,
) -> Dict[str, float]:
    """Per-layer values of one traced round (all but the two run.py adds).

    ``systems`` maps each replayed system to its ``counters`` (perf
    counters), ``stages`` (perf stage totals, seconds), ``flows``,
    ``link_congested_cells`` and ``outputs`` (the deterministic
    ``RunResult`` dict).  ``flows_generated`` counts every flow the traffic
    layer produced, warm-up passes over a stream included.
    """

    def counter(name: str) -> int:
        return sum(row["counters"].get(name, 0) for row in systems.values())

    def stage(name: str) -> float:
        return sum(row["stages"].get(name, 0.0) for row in systems.values())

    def output_sum(section: str, key: str) -> int:
        return sum((row["outputs"].get(section) or {}).get(key, 0) for row in systems.values())

    flows = sum(row["flows"] for row in systems.values())
    generate_s = spans.total("traffic.build_trace") + spans.total("traffic.chunk")
    batch_seconds = [span.seconds for span in spans.named("replay.batch")]
    classify_s = stage("kernel_classify")
    fallback_s = stage("kernel_fallback")
    accumulate_s = stage("kernel_accumulate")
    vectorized = counter("kernel.flows_vectorized")
    fallback = counter("kernel.flows_fallback")
    handle_s = sum(batch_seconds) - classify_s - accumulate_s

    def coverage(system: str) -> float:
        row = systems.get(system)
        if row is None:
            return 0.0
        return _ratio(row["counters"].get("kernel.flows_vectorized", 0), row["flows"])

    table_hits = counter("edge.flow_table_hits")
    gfib_queries = counter("edge.gfib_queries")
    return {
        "traffic.generate_s": generate_s,
        "traffic.us_per_flow": _ratio(generate_s, flows_generated) * 1e6,
        "traffic.chunks": counter("replay.chunks_drained"),
        "topology.build_s": spans.total("topology.build_network"),
        "controlplane.build_s": spans.total("controlplane.build"),
        "controlplane.prepare_s": spans.self_seconds("controlplane.prepare"),
        "controlplane.periodic_s": spans.total("controlplane.periodic"),
        "controlplane.regrouping_s": stage("regrouping"),
        "controlplane.dissemination_s": stage("dissemination"),
        "controlplane.requests": sum(
            row["outputs"]["total_controller_requests"] for row in systems.values()
        ),
        "controlplane.flow_mods": counter("controller.flow_mods"),
        "controlplane.group_config_messages": counter("controller.group_config_messages"),
        "replay.loop_self_s": spans.self_seconds("replay.replay"),
        "replay.batches": len(batch_seconds),
        "replay.batch_p50_ms": _percentile_ms(batch_seconds, 0.50),
        "replay.batch_p99_ms": _percentile_ms(batch_seconds, 0.99),
        "kernel.classify_s": classify_s,
        "kernel.fallback_s": fallback_s,
        "kernel.accumulate_s": accumulate_s,
        "kernel.flows_vectorized": vectorized,
        "kernel.flows_fallback": fallback,
        "kernel.coverage": _ratio(vectorized, flows),
        "kernel.coverage.openflow": coverage("openflow"),
        "kernel.coverage.lazyctrl-dynamic": coverage("lazyctrl-dynamic"),
        "kernel.fallback_us_per_flow": _ratio(fallback_s, fallback) * 1e6,
        "dataplane.handle_s": handle_s,
        "dataplane.us_per_flow": _ratio(handle_s, flows) * 1e6,
        "dataplane.packets_processed": counter("edge.packets_processed"),
        "dataplane.flow_table_hit_ratio": _ratio(
            table_hits, table_hits + counter("edge.flow_table_misses")
        ),
        "dataplane.gfib_queries": gfib_queries,
        "dataplane.gfib_cache_hit_ratio": _ratio(
            counter("edge.gfib_query_cache_hits"), gfib_queries
        ),
        "tables.sweep_s": stage("table_sweep"),
        "tables.overflows": output_sum("tables", "overflows"),
        "tables.evictions": output_sum("tables", "evictions"),
        "tables.reinstalls": output_sum("tables", "reinstalls"),
        "bandwidth.congested_flows": output_sum("counters", "congested_flows"),
        "bandwidth.link_congested_cells": sum(
            row["link_congested_cells"] for row in systems.values()
        ),
        "core.prepare_collect_s": (
            spans.total("core.replay_system") - spans.total("replay.replay")
        ),
    }
