"""Shard execution: one replay loop for every execution shape.

:func:`execute_plan` runs a shard plan in this process — a serial run is
the degenerate plan of one whole-timeline shard per system — or over a fork
pool.  Both run every shard through :func:`execute_shard`, which is what
makes sharded output independent of the worker count.  Cross-process
transport goes through plain dicts (``spec.to_dict`` / ``run.to_dict``)
rather than pickled dataclasses, matching ``run_many``'s convention and
keeping Python 3.10 workers happy; dict round-trips preserve every float
exactly, so the transport is invisible in the results.

Imports of the runner happen lazily inside functions: this module is
imported by :mod:`repro.core.runner` itself.
"""

from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.common.errors import SimulationError
from repro.replay.merge import ShardOutcome
from repro.replay.sharding import Shard, ShardPlan

#: Set by the pool initializer.  Executor workers are not daemonic, so
#: ``multiprocessing`` alone would let them start pools of their own.
_IN_POOL_WORKER = False


def _mark_pool_worker() -> None:
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True


def can_fork_workers() -> bool:
    """Whether this process may create worker processes.

    A scenario whose spec asks for parallel shards degrades to in-process
    sequential execution when it is itself being run inside a pool worker
    (a ``run_many`` fan-out) — same results, no nested pool.
    """
    return not _IN_POOL_WORKER and not multiprocessing.current_process().daemon


def fork_pool_map(
    function: Callable[[Any], Any], payloads: Sequence[Any], *, workers: int, describe: Callable[[Any], str]
) -> List[Any]:
    """Map ``function`` over ``payloads`` in a fork pool, in payload order.

    A worker that dies without returning (a SIGKILL, an OOM kill) raises
    :class:`~repro.common.errors.SimulationError` naming, via ``describe``,
    every payload that never returned; no partial result list escapes.
    """
    # Imported here: only pooled runs pay for concurrent.futures.
    from concurrent.futures import ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    if "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
    else:  # pragma: no cover - Windows/macOS spawn fallback
        context = multiprocessing.get_context()
    with ProcessPoolExecutor(
        max_workers=min(workers, len(payloads)),
        mp_context=context,
        initializer=_mark_pool_worker,
    ) as pool:
        futures = [pool.submit(function, payload) for payload in payloads]
        wait(futures)
    lost = [
        describe(payload)
        for payload, future in zip(payloads, futures)
        if isinstance(future.exception(), BrokenProcessPool)
    ]
    if lost:
        raise SimulationError(
            "a pool worker died before returning (killed by a signal, e.g. "
            f"out of memory); lost: {', '.join(lost)}"
        )
    return [future.result() for future in futures]


def execute_shard(
    spec,
    shard: Shard,
    *,
    trace=None,
    collect_perf: bool = False,
    timeline_bucket_seconds: Optional[float] = None,
    events_sink=None,
    events_sample: float = 1.0,
) -> ShardOutcome:
    """Replay one shard and package its outcome.

    Without ``trace`` the shard builds its own network and trace/stream
    (deterministic generation makes them identical across shards and
    processes).  The control plane is warmed from the scenario's warm-up
    window, replays exactly ``[shard.start, shard.end)``, and the raw
    mergeable forms of the workload and latency series ride along with the
    finished ``RunResult``.  A timeline bucket or an events sink traces the
    replay; without either it keeps the shared null tracer.
    """
    from repro.core.registry import get_control_plane
    from repro.core.runner import ScenarioRunner
    from repro.obs.timeline import MetricsTimeline
    from repro.obs.tracer import NULL_TRACER, EventTracer, JsonlEventListener
    from repro.perf.recorder import PerfRecorder

    started = perf_counter()
    if trace is None:
        network = spec.build_network()
        trace = spec.build_stream(network) if spec.execution.stream else spec.build_trace(network)

    tracer = NULL_TRACER
    if timeline_bucket_seconds is not None or events_sink is not None:
        system = get_control_plane(shard.system).name
        timeline = None if timeline_bucket_seconds is None else MetricsTimeline(timeline_bucket_seconds)
        tracer = EventTracer(system=system, timeline=timeline)
        if events_sink is not None:
            tracer.add_listener(
                JsonlEventListener(events_sink, system=system, scenario=spec.name, sample=events_sample)
            )

    run, plane = ScenarioRunner()._replay_system(
        shard.system,
        trace,
        schedule=spec.schedule,
        config=spec.effective_config(),
        failures=spec.failures,
        churn=spec.churn,
        perf=PerfRecorder() if collect_perf else None,
        tracer=tracer,
        start=shard.start,
        end=shard.end,
        kernel=spec.execution.kernel,
    )
    wall_seconds = perf_counter() - started

    # Raw request counts over the same bucket grid the run's Krps series covers.
    buckets = (0, len(run.workload.krps))
    workload_counts = [count for _, count in plane.workload_series().series(bucket_range=buckets)]
    return ShardOutcome(
        shard=shard,
        run=run,
        wall_seconds=wall_seconds,
        workload_counts=workload_counts,
        latency_totals=plane.latency_recorder.bucket_totals(),
    )


def execute_plan(
    spec, plan: ShardPlan, *, collect_perf: bool = False, obs=None, use_pool: bool = False
) -> List[ShardOutcome]:
    """Execute every shard of ``plan``, in-process or over a fork pool.

    ``obs`` (a :class:`~repro.obs.tracer.TraceOptions`) asks for per-shard
    timelines and, in-process only, for the events JSONL stream.  Shard
    outcomes come back in plan order either way; the merge sorts by shard
    index again regardless, so results never depend on completion order.
    """
    timeline_bucket: Optional[float] = None
    if obs is not None and obs.timeline:
        timeline_bucket = obs.timeline_bucket_seconds or spec.schedule.bucket_seconds
    if use_pool:
        spec_dict = spec.to_dict()
        payloads = [
            {
                "spec": spec_dict,
                "shard": dataclasses.asdict(shard),
                "collect_perf": collect_perf,
                "timeline_bucket_seconds": timeline_bucket,
            }
            for shard in plan.shards
        ]
        raw = fork_pool_map(
            _execute_shard_payload,
            payloads,
            workers=plan.workers,
            describe=lambda payload: "shard {index} ({system} [{start:g}, {end:g}))".format(**payload["shard"]),
        )
        return [_outcome_from_dict(data) for data in raw]

    from repro.traffic.trace import Trace

    # A stream is consumed by its replay, so every shard drains a fresh one;
    # a materialized trace is generated once and shared by every shard.
    base_trace = None if spec.execution.stream else spec.build_trace(spec.build_network())
    events_path = obs.events_path if obs is not None else None
    sink = open(events_path, "w", encoding="utf-8") if events_path is not None else contextlib.nullcontext()
    with sink as events_sink:
        outcomes = []
        for shard in plan.shards:
            if base_trace is None:
                trace = spec.build_stream(spec.build_network())
            elif spec.churn_active:
                # Churn mutates the topology during a replay, so each shard
                # starts from its own pristine network.  The deterministic
                # builder yields an identical copy, and the already-generated
                # flows are simply rebound to it.
                trace = Trace(base_trace.name, spec.build_network(), base_trace.flows)
            else:
                trace = base_trace
            outcomes.append(
                execute_shard(
                    spec,
                    shard,
                    trace=trace,
                    collect_perf=collect_perf,
                    timeline_bucket_seconds=timeline_bucket,
                    events_sink=events_sink,
                    events_sample=obs.sample if obs is not None else 1.0,
                )
            )
        return outcomes


def _execute_shard_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-side shard body (module-level for pickling)."""
    from repro.core.scenario import ScenarioSpec

    outcome = execute_shard(
        ScenarioSpec.from_dict(payload["spec"]),
        Shard(**payload["shard"]),
        collect_perf=payload["collect_perf"],
        timeline_bucket_seconds=payload["timeline_bucket_seconds"],
    )
    return _outcome_to_dict(outcome)


def _outcome_to_dict(outcome: ShardOutcome) -> Dict[str, Any]:
    return {
        "shard": dataclasses.asdict(outcome.shard),
        "run": outcome.run.to_dict(),
        "wall_seconds": outcome.wall_seconds,
        "workload_counts": outcome.workload_counts,
        "latency_totals": outcome.latency_totals,
    }


def _outcome_from_dict(data: Dict[str, Any]) -> ShardOutcome:
    from repro.core.results import RunResult

    return ShardOutcome(
        shard=Shard(**data["shard"]),
        run=RunResult.from_dict(data["run"]),
        wall_seconds=data["wall_seconds"],
        workload_counts=data["workload_counts"],
        latency_totals=data["latency_totals"],
    )
