"""Correctness checks of a round's simulated outputs.

Every replay is checked, traced or not:

* flows replayed equal flows generated, for any seed;
* at the default seed and full scale, the digest of each system's outputs
  equals the one recorded in ``digests.json``, and where the workload has a
  committed bench baseline, its exact-gated keys match too.  A traced round
  additionally reproduces the recorded deterministic work counters.

The digest is a SHA-256 over a system's whole ``RunResult`` minus its host
timings: counters and total controller requests, latency totals, the
per-bucket workload and latency series, the timeline, and table and link
usage.  Rounds of one run must agree on it, the traced round included.

Re-record after a deliberate change of the simulated outputs with
``PYTHONPATH=src python3 -m perfbench.digest`` from the repository root.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.core.results import RunResult
from repro.perf.baseline import compare_payloads

#: Recorded digests and work counters at the default seed, per workload.
DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: Perf counters that must repeat exactly in a traced round at the default seed.
WORK_COUNTERS = (
    "replay.flows_replayed",
    "controller.requests",
    "controller.flow_mods",
    "controller.group_config_messages",
    "edge.packets_processed",
    "edge.gfib_queries",
    "edge.gfib_query_cache_hits",
    "edge.flow_table_hits",
    "edge.flow_table_misses",
    "kernel.flows_vectorized",
    "kernel.flows_fallback",
)


def outputs(run: RunResult) -> Dict[str, Any]:
    """A run's deterministic outputs: everything but the host-time perf snapshot."""
    data = run.to_dict()
    data.pop("perf", None)
    return data


def digest(run_outputs: Mapping[str, Any]) -> str:
    """SHA-256 of the canonical JSON of a run's outputs (floats repr-exact)."""
    text = json.dumps(run_outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def flows_replayed(run: RunResult) -> int:
    """Flows a system handled, departed endpoints included (as bench counts them)."""
    return run.counters.flows_handled + run.counters.departed_flows


def bench_record(run: RunResult) -> Dict[str, Any]:
    """The gated keys of one system's ``repro bench`` record.

    Built from public ``RunResult`` fields the way ``repro bench`` builds
    its payload, so the benchmark does not lean on the CLI's private helpers.
    """
    record: Dict[str, Any] = {
        "flows_handled": flows_replayed(run),
        "total_controller_requests": run.total_controller_requests,
        "mean_krps": run.workload.mean_krps(),
        "peak_krps": run.workload.peak_krps(),
        "mean_latency_ms": run.latency.overall_mean_ms,
        "grouping_updates": sum(run.updates_per_hour),
        "churn_events": run.churn.total_events() if run.churn is not None else 0,
        "churn_attributed_regroupings": (
            run.churn.churn_attributed_regroupings if run.churn is not None else 0
        ),
    }
    if run.tables is not None:
        record.update(
            table_overflows=run.tables.overflows,
            table_evictions=run.tables.evictions,
            table_timeouts=run.tables.idle_timeouts + run.tables.hard_timeouts,
            table_reinstalls=run.tables.reinstalls,
            table_peak_occupancy=run.tables.peak_occupancy,
            flow_removed_messages=run.tables.flow_removed_messages,
        )
    if run.timeline is not None:
        record["timeline"] = {
            "bucket_seconds": run.timeline.bucket_seconds,
            "counts": {
                series: values
                for series, values in run.timeline.counts.items()
                if series != "chunks_drained"
            },
        }
        for label, fraction in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            value = run.timeline.latency_percentile(fraction)
            if value is not None:
                record[f"latency_{label}_ms"] = value
    if run.links is not None:
        record.update(
            congested_flows=run.counters.congested_flows,
            link_congested_cells=run.links.congested_cells,
            link_peak_utilization=run.links.peak_utilization,
        )
    return record


def baseline_failures(
    spec_payload: Mapping[str, Any], records: Mapping[str, Dict[str, Any]], baseline_path: Path
) -> Dict[str, List[str]]:
    """Per-system failures of the exact-gated baseline keys (``"*"``: whole scenario).

    Wall-clock keys are left out of the payload, so only the deterministic
    keys are compared.
    """
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    payload = {**spec_payload, "systems": dict(records)}
    failures: Dict[str, List[str]] = {}
    for failure in compare_payloads(payload, baseline).failures:
        system = failure.split(".", 1)[0]
        failures.setdefault(system if system in records else "*", []).append(failure)
    return failures


def load_recorded(workload: str) -> Optional[Dict[str, Any]]:
    """The recorded digests and work counters of a workload, if any."""
    if not DIGESTS_PATH.is_file():
        return None
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8")).get(workload)


def check_recorded(
    recorded: Mapping[str, Any],
    system: str,
    run_digest: str,
    counters: Optional[Mapping[str, int]],
) -> List[str]:
    """Mismatches of one system against its recorded digest and work counters."""
    expected = recorded["systems"].get(system)
    if expected is None:
        return [f"{system}: no recorded digest"]
    problems = []
    if run_digest != expected["digest"]:
        problems.append(f"{system}: output digest {run_digest} != recorded {expected['digest']}")
    for name, value in expected["work_counters"].items():
        if counters is not None and counters.get(name, 0) != value:
            problems.append(f"{system}: {name} {counters.get(name, 0)} != recorded {value}")
    return problems


def record_digests() -> None:
    """Replay every workload traced at the default seed and record its outputs."""
    from perfbench.round import run_round
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    table = {}
    for name, workload in WORKLOADS.items():
        result = run_round(workload, DEFAULT_SEED, traced=True)
        table[name] = {
            "seed": DEFAULT_SEED,
            "systems": {
                system: {
                    "digest": row["digest"],
                    "work_counters": {key: row["counters"].get(key, 0) for key in WORK_COUNTERS},
                }
                for system, row in result["systems"].items()
            },
        }
        print(f"recorded {name}: {', '.join(table[name]['systems'])}")
    DIGESTS_PATH.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record_digests()
