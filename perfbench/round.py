"""One benchmark round: a workload's whole scenario, replayed in this process.

Run as ``python -m perfbench.round --workload <name> --seed <n> [--traced]``
from the repository root with ``src`` on ``PYTHONPATH``;
:mod:`perfbench.run` starts one fresh process per round.  The round does what
``repro run``/``repro bench`` do for a serial scenario — build the network,
build the trace (or a stream per system), then ``ScenarioRunner.replay_system``
each control plane with a per-bucket timeline — and prints one JSON line with
its timestamps, per-system outputs checks, the host-speed samples of
:mod:`perfbench.hostspeed` and, when traced, per-layer metrics.

Timestamps are ``time.monotonic()``, a clock shared by every process on the
machine, so the parent can measure from the moment it started this process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import traceback
from pathlib import Path
from time import monotonic
from typing import Any, Dict, List, Optional, Tuple

from repro import EventTracer, MetricsTimeline, PerfRecorder, ScenarioRunner
from repro.core.results import RunResult
from perfbench import digest as outputs_check
from perfbench.hostspeed import HostSpeedSampler
from perfbench.layers import layer_metrics
from perfbench.spans import SpanRecorder, TimedStream, instrument
from perfbench.workloads import DEFAULT_SEED, Workload, get_workload

#: The committed ``repro bench`` baselines.
BASELINE_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"


def run_round(
    workload: Workload,
    seed: int,
    *,
    flows: Optional[int] = None,
    traced: bool = False,
    setup_only: bool = False,
) -> Dict[str, Any]:
    """Replay every system of ``workload`` once and check its outputs.

    Returns the round record: ``first_replay``/``last_result`` timestamps,
    summed ``replay_seconds`` and ``flows``, and per system its flows, digest
    and ``errors`` (an empty list when every check passed).  A traced round
    also carries ``layers`` and ``spans``.  With ``setup_only`` the round
    stops where the first replay would start and returns ``first_replay``
    alone.
    """
    spans = SpanRecorder()
    span = spans.span if traced else (lambda name: contextlib.nullcontext())
    origin = monotonic()
    spec = workload.spec(seed, flows=flows)
    config = spec.effective_config()
    runner = ScenarioRunner()
    trace = None
    flows_generated = 0
    if not spec.stream:
        with span("topology.build_network"):
            network = spec.build_network()
        with span("traffic.build_trace"):
            trace = spec.build_trace(network)
        flows_generated = trace.total_flows

    first_replay: Optional[float] = None
    replay_seconds = 0.0
    runs: Dict[str, Tuple[RunResult, Any]] = {}
    errors: Dict[str, List[str]] = {name: [] for name in spec.systems}
    with instrument(spans) if traced else contextlib.nullcontext():
        for name in spec.systems:
            spans.system = name
            try:
                source = trace
                if source is None:
                    with span("topology.build_network"):
                        network = spec.build_network()
                    with span("traffic.build_stream"):
                        source = spec.build_stream(network)
                    if traced:
                        source = TimedStream(source, spans)
                perf = PerfRecorder() if traced else None
                tracer = EventTracer(
                    system=name, timeline=MetricsTimeline(spec.schedule.bucket_seconds)
                )
                started = monotonic()
                if setup_only:
                    return {"first_replay": started}
                if first_replay is None:
                    first_replay = started
                with span("core.replay_system"):
                    run = runner.replay_system(
                        name,
                        source,
                        schedule=spec.schedule,
                        config=config,
                        perf=perf,
                        tracer=tracer,
                        kernel=spec.execution.kernel,
                    )
                replay_seconds += monotonic() - started
            except Exception:  # one failed operation; the other systems still run
                errors[name].append(traceback.format_exc(limit=8))
                continue
            runs[name] = (run, source)
    last_result = monotonic()

    # Checks run after the clock stops, so they cost the measurement nothing.
    systems: Dict[str, Dict[str, Any]] = {}
    layer_rows: Dict[str, Dict[str, Any]] = {}
    for name in spec.systems:
        row: Dict[str, Any] = {"flows": 0, "digest": None, "errors": errors[name]}
        systems[name] = row
        if name not in runs:
            continue
        run, source = runs[name]
        run_outputs = outputs_check.outputs(run)
        row["flows"] = outputs_check.flows_replayed(run)
        row["digest"] = outputs_check.digest(run_outputs)
        row["record"] = outputs_check.bench_record(run)
        if row["flows"] != source.total_flows:
            row["errors"].append(
                f"{name}: replayed {row['flows']} flows of {source.total_flows} generated"
            )
        if isinstance(source, TimedStream):
            flows_generated += source.flows_generated
        if run.perf is not None:
            row["counters"] = dict(run.perf.counters)
            layer_rows[name] = {
                "counters": row["counters"],
                "stages": {stage.name: stage.total_seconds for stage in run.perf.stages},
                "flows": row["flows"],
                "link_congested_cells": run.links.congested_cells if run.links else 0,
                "outputs": run_outputs,
            }

    _check_recorded(workload, seed, flows, systems)
    record: Dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "traced": traced,
        "first_replay": first_replay if first_replay is not None else last_result,
        "last_result": last_result,
        "replay_seconds": replay_seconds,
        "flows": sum(row["flows"] for row in systems.values()),
        "systems": {
            name: {key: row[key] for key in ("flows", "digest", "errors", "counters") if key in row}
            for name, row in systems.items()
        },
    }
    if traced:
        record["layers"] = layer_metrics(spans, layer_rows, flows_generated)
        record["spans"] = spans.to_dict(origin)
    return record


def _check_recorded(
    workload: Workload,
    seed: int,
    flows: Optional[int],
    systems: Dict[str, Dict[str, Any]],
) -> None:
    """At the default seed and scale, check recorded digests and the baseline."""
    if seed != DEFAULT_SEED or flows is not None:
        return
    done = {name: row for name, row in systems.items() if row["digest"] is not None}
    recorded = outputs_check.load_recorded(workload.name)
    for name, row in done.items():
        if recorded is None:
            row["errors"].append(f"{name}: no recorded digest for {workload.name!r}")
        else:
            row["errors"].extend(
                outputs_check.check_recorded(recorded, name, row["digest"], row.get("counters"))
            )
    if workload.baseline is None or not done:
        return
    spec = workload.spec(seed)
    switches, hosts = spec.topology.dimensions()
    failures = outputs_check.baseline_failures(
        {"scenario": spec.name, "flows": spec.traffic.total_flows,
         "switches": switches, "hosts": hosts},
        {name: row["record"] for name, row in done.items()},
        BASELINE_DIR / workload.baseline,
    )
    for name, row in done.items():
        row["errors"].extend(failures.get(name, []) + failures.get("*", []))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--flows", type=int, default=None)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args(argv)
    sampler = HostSpeedSampler()
    sampler.start()
    try:
        record = run_round(
            get_workload(args.workload),
            args.seed,
            flows=args.flows,
            traced=args.traced,
            setup_only=args.setup_only,
        )
    finally:
        sampler.stop()
    record["host_samples"] = sampler.samples
    spans = record.pop("spans", None)
    if args.spans_out is not None and spans is not None:
        args.spans_out.parent.mkdir(parents=True, exist_ok=True)
        args.spans_out.write_text(json.dumps(spans) + "\n", encoding="utf-8")
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
