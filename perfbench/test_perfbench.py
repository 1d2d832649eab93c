"""Tests of the benchmark itself, on tiny versions of its workloads."""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import digest as outputs_check
from perfbench.hostspeed import REFERENCE_SAMPLE_SECONDS, HostSpeedSampler, speed
from perfbench.layers import LAYER_METRICS
from perfbench.round import BASELINE_DIR, run_round
from perfbench.run import Round, count_failures
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY_FLOWS = 1500


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_completes_traced_equal_to_untraced(name):
    workload = WORKLOADS[name]
    untraced = run_round(workload, 7, flows=TINY_FLOWS)
    traced = run_round(workload, 7, flows=TINY_FLOWS, traced=True)
    assert set(untraced["systems"]) == set(workload.spec().systems)
    for system, row in untraced["systems"].items():
        assert row["errors"] == []
        assert row["flows"] == TINY_FLOWS
        assert traced["systems"][system]["digest"] == row["digest"]
    assert set(traced["layers"]) == {metric.name for metric in LAYER_METRICS} - {
        "trace_overhead_ratio", "host.speed"
    }
    assert traced["layers"]["replay.batches"] > 0
    assert untraced["last_result"] > untraced["first_replay"]


def test_metric_names_are_well_formed_and_match_the_code():
    names = [metric["name"] for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(set(names)) == len(names)
    assert BENCHMARK["per_layer"] == [
        {"name": metric.name, "unit": metric.unit, "better": metric.better}
        for metric in LAYER_METRICS
    ]
    assert BENCHMARK["workloads"] == [
        {"name": workload.name, "why": workload.why} for workload in WORKLOADS.values()
    ]


def test_perturbed_output_fails_the_digest_check():
    round_record = run_round(WORKLOADS["tables-scalar"], 3, flows=TINY_FLOWS, traced=True)
    row = round_record["systems"]["openflow"]
    recorded = {
        "systems": {"openflow": {"digest": row["digest"], "work_counters": {
            "controller.flow_mods": row["counters"]["controller.flow_mods"]}}}
    }
    assert outputs_check.check_recorded(recorded, "openflow", row["digest"], row["counters"]) == []
    perturbed = dict(row["counters"], **{"controller.flow_mods": 0})
    assert outputs_check.check_recorded(recorded, "openflow", "0" * 64, perturbed) == [
        f"openflow: output digest {'0' * 64} != recorded {row['digest']}",
        f"openflow: controller.flow_mods 0 != recorded {row['counters']['controller.flow_mods']}",
    ]


def test_one_changed_output_changes_the_digest():
    outputs = {"counters": {"flows_handled": 10}, "latency": {"mean_latency_ms": [0.5, 0.25]}}
    changed = {"counters": {"flows_handled": 10}, "latency": {"mean_latency_ms": [0.5, 0.2500001]}}
    assert outputs_check.digest(outputs) == outputs_check.digest(json.loads(json.dumps(outputs)))
    assert outputs_check.digest(outputs) != outputs_check.digest(changed)


def test_perturbed_output_fails_the_committed_baseline():
    path = BASELINE_DIR / WORKLOADS["incast-vec"].baseline
    baseline = json.loads(path.read_text(encoding="utf-8"))
    scenario = {key: baseline[key] for key in ("scenario", "flows", "switches", "hosts")}
    records = {name: dict(record) for name, record in baseline["systems"].items()}
    assert outputs_check.baseline_failures(scenario, records, path) == {}
    records["openflow"]["total_controller_requests"] += 1
    records["lazyctrl-dynamic"]["timeline"] = {
        **records["lazyctrl-dynamic"]["timeline"], "bucket_seconds": 1.0
    }
    failures = outputs_check.baseline_failures(scenario, records, path)
    assert sorted(failures) == ["lazyctrl-dynamic", "openflow"]


def test_a_round_whose_digest_differs_counts_as_failed():
    def fake(digest):
        record = {"systems": {"openflow": {"digest": digest, "errors": []}}}
        return Round(spawned=0.0, record=record, peak_rss_bytes=1)

    assert count_failures([fake("a"), fake("a")])[:2] == (2, 0)
    attempted, failed, problems = count_failures([fake("a"), fake("b"), fake("a")])
    assert (attempted, failed) == (3, 1)
    assert problems == ["openflow: round 1 output digest differs from round 0"]


def test_host_speed_is_the_reference_loop_time_over_the_sampled_mean():
    ref = REFERENCE_SAMPLE_SECONDS
    samples = [(1.0, 2 * ref), (2.0, ref), (3.0, ref)]
    assert speed(samples, 0.0, 1.5) == 0.5
    assert speed(samples, 1.5, 3.0) == 1.0
    assert speed(samples, 5.0, 6.0) == pytest.approx(0.75)  # none inside: every sample


def test_sampler_samples_on_its_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = HostSpeedSampler(interval=0.02)
    sampler.start()
    deadline = time.monotonic() + 0.2
    while time.monotonic() < deadline:
        pass
    sampler.stop()
    assert len(sampler.samples) >= 3
    assert all(seconds > 0 for _, seconds in sampler.samples)
    assert signal.getsignal(signal.SIGALRM) == before


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_command_prints_one_result_line():
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        done = _bench(ROOT, "--workload", "incast-vec", "--seed", "5", "--seconds", "0",
                      "--trace", trace, "--flows", str(TINY_FLOWS))
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] == (4 if trace == "1" else 2)
        expected = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
        assert {name: value["unit"] for name, value in result["metrics"].items()} == expected


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "fig7-vec", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
