"""Run one benchmark workload and print its metrics; the last line is one JSON object.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig7-vec --seed 2015 --seconds 40 --trace 0

Each round replays the workload's whole scenario in a fresh process
(:mod:`perfbench.round`), so peak RSS is that process's own.  Rounds repeat,
one after another, while the next one should end closer to ``--seconds``
than the run stands now (never past :data:`OVERRUN` times them); then
set-up-only rounds top the set-up samples up to :data:`MIN_SETUP_SAMPLES`.
The end-to-end metrics are printed, and are the result line's metrics with
``--trace 0``.  With ``--trace 1`` one more round runs traced: its per-layer
metrics are printed too and replace them in the result line, and its spans
go to ``.perfbench/spans-<workload>-seed<n>.json``.

End-to-end metrics, timed on the host and taken to the reference host's
speed (:mod:`perfbench.hostspeed`: every stretch of a round is multiplied by
the host's speed over that stretch, measured inside the round process):

* ``e2e_flows_per_s``: flows replayed, summed over systems and rounds, over
  the rounds' summed time from starting each round's process to its last
  ``RunResult``;
* ``replay_flows_per_s``: the same flows over the summed
  ``ScenarioRunner.replay_system`` time;
* ``setup_s``: process start to the first ``replay_system`` call, the
  median over the set-up samples;
* ``peak_rss_mb``: the round processes' median peak resident memory (not
  a time, so not scaled).

The same figures as the wall clock read them are printed too.  The two
throughputs are whole-run rates rather than medians over rounds: a run holds
only two to five rounds, and a rate over all of the run's time averages
what drift the host-speed scaling leaves better than the middle round does
(see ``perfbench/NOTES.md``).

One operation is one system's replay in one round.  It fails if it raises,
if its outputs fail a check of :mod:`perfbench.digest`, or if its output
digest differs from that of the run's first round.  A failed operation makes
the exit code 1; a round that ends without a record, or a tree without the
program's sources, makes it 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import monotonic
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: A run never starts a round that could end past this multiple of
#: ``--seconds``, so a run's length stays bounded whatever a round takes.
OVERRUN = 1.25
#: A run stops starting rounds once it could no longer finish within this.
RUN_BUDGET_SECONDS = 150.0
#: A round process is killed after this long.
ROUND_TIMEOUT_SECONDS = 170.0
#: Set-up samples per run (set-up-only rounds make up the difference).
MIN_SETUP_SAMPLES = 3

END_TO_END_UNITS = {
    "e2e_flows_per_s": "1/s",
    "replay_flows_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result at all."""


@dataclass
class Round:
    """One round process: when it started, what it reported, its peak RSS."""

    spawned: float
    record: Dict[str, Any]
    peak_rss_bytes: int

    @property
    def setup_seconds(self) -> float:
        return self.record["first_replay"] - self.spawned

    @property
    def wall_seconds(self) -> float:
        return self.record["last_result"] - self.spawned

    def at_reference(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` at the reference host's speed."""
        from perfbench.hostspeed import speed

        return (end - start) * speed(self.record["host_samples"], start, end)

    @property
    def reference_setup_seconds(self) -> float:
        return self.at_reference(self.spawned, self.record["first_replay"])

    @property
    def reference_wall_seconds(self) -> float:
        return self.at_reference(self.spawned, self.record["last_result"])

    @property
    def reference_replay_seconds(self) -> float:
        """Summed ``replay_system`` time, at the speed over the replays' span."""
        record = self.record
        return record["replay_seconds"] * self.at_reference(
            record["first_replay"], record["last_result"]
        ) / (record["last_result"] - record["first_replay"])


def spawn_round(
    workload: str,
    seed: int,
    *,
    flows: Optional[int] = None,
    traced: bool = False,
    setup_only: bool = False,
    spans_out: Optional[Path] = None,
) -> Round:
    """Run one round in a fresh process and reap it with its resource usage."""
    command = [sys.executable, "-m", "perfbench.round", "--workload", workload,
               "--seed", str(seed)]
    if flows is not None:
        command += ["--flows", str(flows)]
    if traced:
        command.append("--traced")
    if setup_only:
        command.append("--setup-only")
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    spawned = monotonic()
    process = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    killer = threading.Timer(ROUND_TIMEOUT_SECONDS, process.kill)
    killer.start()
    try:
        output = process.stdout.read().decode("utf-8")
        # wait4 reaps this very process and returns its own rusage.
        _, status, usage = os.wait4(process.pid, 0)
        process.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        process.stdout.close()
    lines = output.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise BenchError(f"{workload} round exited with {process.returncode} and no record")
    return Round(spawned=spawned, record=json.loads(lines[-1]), peak_rss_bytes=usage.ru_maxrss * 1024)


def run_rounds(
    workload: str, seed: int, seconds: float, *, traced: bool, flows: Optional[int]
) -> tuple[List[Round], List[Round], Optional[Round]]:
    """Untraced rounds for ``seconds``, the rounds timing set-up, the traced round."""
    started = monotonic()
    rounds: List[Round] = []
    longest = 0.0
    while True:
        round_started = monotonic()
        rounds.append(spawn_round(workload, seed, flows=flows))
        now = monotonic()
        longest = max(longest, now - round_started)
        elapsed = now - started
        typical = elapsed / len(rounds)
        # Another round if the run should then end nearer to ``seconds``.
        if (
            elapsed + typical / 2 >= seconds
            or elapsed + longest > seconds * OVERRUN
            or elapsed + longest * (2.5 if traced else 1.3) > RUN_BUDGET_SECONDS
        ):
            break
    setups = list(rounds)
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(spawn_round(workload, seed, flows=flows, setup_only=True))
    traced_round = None
    if traced:
        spans_out = ROOT / ".perfbench" / f"spans-{workload}-seed{seed}.json"
        traced_round = spawn_round(workload, seed, flows=flows, traced=True, spans_out=spans_out)
    return rounds, setups, traced_round


def count_failures(rounds: List[Round]) -> tuple[int, int, List[str]]:
    """Attempted and failed operations, with the reasons for the failures."""
    attempted = failed = 0
    problems: List[str] = []
    reference: Dict[str, str] = {}
    for index, item in enumerate(rounds):
        for system, row in item.record["systems"].items():
            attempted += 1
            errors = list(row["errors"])
            expected = reference.setdefault(system, row["digest"])
            if row["digest"] != expected:
                errors.append(f"{system}: round {index} output digest differs from round 0")
            if errors:
                failed += 1
                problems.extend(errors)
    return attempted, failed, problems


def end_to_end(
    rounds: List[Round], setups: List[Round], *, reference: bool = True
) -> Dict[str, float]:
    """End-to-end metrics over the untraced rounds: whole-run rates and medians.

    ``reference=False`` gives the same figures as the wall clock read them.
    """
    flows = sum(item.record["flows"] for item in rounds)
    if reference:
        walls = [item.reference_wall_seconds for item in rounds]
        replays = [item.reference_replay_seconds for item in rounds]
        setup_seconds = [item.reference_setup_seconds for item in setups]
    else:
        walls = [item.wall_seconds for item in rounds]
        replays = [item.record["replay_seconds"] for item in rounds]
        setup_seconds = [item.setup_seconds for item in setups]
    return {
        "e2e_flows_per_s": flows / sum(walls),
        "replay_flows_per_s": flows / sum(replays),
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": statistics.median(item.peak_rss_bytes / 1e6 for item in rounds),
    }


def per_layer(rounds: List[Round], traced_round: Round) -> Dict[str, float]:
    """The traced round's per-layer metrics, its overhead and the host's speed."""
    from perfbench.hostspeed import speed

    layers = dict(traced_round.record["layers"])
    untraced = statistics.median(item.reference_wall_seconds for item in rounds)
    layers["trace_overhead_ratio"] = traced_round.reference_wall_seconds / untraced
    layers["host.speed"] = speed(
        traced_round.record["host_samples"], traced_round.spawned,
        traced_round.record["last_result"],
    )
    return layers


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--flows", type=int, default=None, help="shrink the workload (tests only)"
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.layers import LAYER_METRICS
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        rounds, setups, traced_round = run_rounds(
            args.workload, args.seed, args.seconds, traced=bool(args.trace), flows=args.flows
        )
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    attempted, failed, problems = count_failures(
        rounds + ([traced_round] if traced_round is not None else [])
    )
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    values, units = end_to_end(rounds, setups), END_TO_END_UNITS
    wall = end_to_end(rounds, setups, reference=False)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{len(setups)} set-ups, {attempted - failed}/{attempted} replays correct")
    print(f"  {'metric':36s} {'reference host':>16s} {'wall clock':>16s}")
    for name, unit in units.items():
        print(f"  {name:36s} {values[name]:>16.6g} {wall[name]:>16.6g} {unit}")
    if traced_round is not None:
        values = per_layer(rounds, traced_round)
        units = {metric.name: metric.unit for metric in LAYER_METRICS}
        print("traced round, per layer (summed over systems):")
        for name, unit in units.items():
            print(f"  {name:36s} {values[name]:>16.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
