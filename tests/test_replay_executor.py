"""The one replay loop: shared trace generation and loud pool-worker deaths."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.churn.spec import ChurnSpec
from repro.core.runner import ScenarioRunner
from repro.core.scenario import ScenarioSpec, ScheduleSpec, TraceSpec
from repro.replay.executor import can_fork_workers, fork_pool_map
from repro.replay.spec import ExecutionSpec
from repro.topology.builder import TopologyProfile

SRC = str(Path(__file__).resolve().parents[1] / "src")


def tiny_spec(**overrides):
    defaults = dict(
        name="tiny",
        topology=TopologyProfile(switch_count=8, host_count=60, seed=2015),
        traffic=TraceSpec.realistic(total_flows=600, seed=2015),
        systems=("openflow", "lazyctrl-static", "lazyctrl-dynamic"),
        schedule=ScheduleSpec(duration_hours=6.0, bucket_hours=2.0),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


@pytest.fixture
def generation_calls(monkeypatch):
    """Count trace and stream generations during a run."""
    calls = {"build_trace": 0, "build_stream": 0}
    for name in calls:
        original = getattr(ScenarioSpec, name)

        def counted(self, network, _original=original, _name=name):
            calls[_name] += 1
            return _original(self, network)

        monkeypatch.setattr(ScenarioSpec, name, counted)
    return calls


class TestInProcessPlansGenerateTheTraceOnce:
    def test_three_system_serial_run(self, generation_calls):
        result = ScenarioRunner().run(tiny_spec())
        assert len(result.runs) == 3
        assert result.shards is None
        assert generation_calls == {"build_trace": 1, "build_stream": 0}

    def test_three_window_time_window_run(self, generation_calls):
        spec = tiny_spec(
            systems=("lazyctrl-dynamic",),
            execution=ExecutionSpec(shard_strategy="time-window", shard_count=3),
        )
        result = ScenarioRunner().run(spec)
        assert result.shards["windows_per_system"] == 3
        assert result.shards["pooled"] is False
        assert generation_calls == {"build_trace": 1, "build_stream": 0}

    def test_churn_run_rebinds_one_trace(self, generation_calls):
        spec = tiny_spec(
            systems=("openflow", "lazyctrl-dynamic"),
            churn=ChurnSpec(seed=7, migration_rate_per_hour=6.0),
        )
        result = ScenarioRunner().run(spec)
        assert all(run.churn.total_events() > 0 for run in result.runs.values())
        assert generation_calls == {"build_trace": 1, "build_stream": 0}

    def test_streams_stay_one_per_shard(self, generation_calls):
        ScenarioRunner().run(tiny_spec(execution=ExecutionSpec(stream=True)))
        assert generation_calls == {"build_trace": 0, "build_stream": 3}


# A control plane whose warm-up SIGKILLs the pool worker running it — what an
# OOM kill looks like from the parent.  The main process never kills itself.
_VICTIM_SCRIPT = textwrap.dedent(
    """
    import os, signal, sys

    from repro.core.registry import register_control_plane
    from repro.core.runner import ScenarioRunner
    from repro.core.scenario import ScenarioSpec, ScheduleSpec, TraceSpec
    from repro.core.system import OpenFlowSystem
    from repro.replay.spec import ExecutionSpec
    from repro.topology.builder import TopologyProfile

    MAIN = os.getpid()


    class Victim(OpenFlowSystem):
        def prepare(self, trace, *, warmup_end, now=0.0):
            if os.getpid() != MAIN:
                os.kill(os.getpid(), signal.SIGKILL)


    @register_control_plane("test-victim", label="Victim")
    def _build(network, **kwargs):
        return Victim(network, **kwargs)


    def spec(name, systems):
        return ScenarioSpec(
            name=name,
            topology=TopologyProfile(switch_count=8, host_count=60, seed=2015),
            traffic=TraceSpec.realistic(total_flows=300, seed=2015),
            systems=systems,
            schedule=ScheduleSpec(duration_hours=4.0, bucket_hours=2.0),
            execution=ExecutionSpec(workers=2),
        )


    if sys.argv[1] == "run":
        ScenarioRunner().run(spec("pooled", ("openflow", "test-victim")))
    else:
        ScenarioRunner().run_many(
            [spec("healthy", ("openflow",)), spec("doomed", ("test-victim",))],
            execution=ExecutionSpec(workers=2),
        )
    """
)


@pytest.mark.parametrize(
    "mode, culprit",
    [("run", "test-victim [0, 14400)"), ("run_many", "spec 'doomed'")],
)
def test_killed_pool_worker_fails_loudly_and_names_its_work(mode, culprit):
    completed = subprocess.run(
        [sys.executable, "-c", _VICTIM_SCRIPT, mode],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert completed.returncode != 0
    last_line = completed.stderr.strip().splitlines()[-1]
    assert last_line.startswith("repro.common.errors.SimulationError: ")
    assert "pool worker died" in last_line
    assert culprit in last_line


def _worker_may_fork(_):
    return can_fork_workers()


def test_pool_workers_never_start_nested_pools():
    # Executor workers are not daemonic; the pool initializer must still
    # mark them so a scenario run inside one stays in-process.
    assert can_fork_workers()
    assert fork_pool_map(_worker_may_fork, [0, 1], workers=2, describe=str) == [False, False]
