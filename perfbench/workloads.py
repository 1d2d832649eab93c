"""The benchmark's workloads, each a committed preset with its seed as an argument.

The seed replaces the preset's traffic seed: the trace is the input the
program receives.  Everything else stays as committed, the topology
included, so every seed replays the same data center; a topology seed would
also change how much work the replay does (up to 36 % more controller requests
across three topology seeds of ``fig7-vec``), which the benchmark must not
mistake for a speed change.  At
:data:`DEFAULT_SEED`, the presets' own seed, a workload's spec equals the
preset's, so its outputs can be checked against the committed
``benchmarks/baselines/BENCH_<preset>.json`` where one exists.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro import ScenarioSpec, get_preset
from repro.replay.spec import ExecutionSpec

#: The presets' own seed: the only seed with recorded digests and baselines.
DEFAULT_SEED = 2015


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how to build its spec and what checks it."""

    name: str
    why: str
    #: Builds the full-scale spec.
    build: Callable[[], ScenarioSpec]
    #: Committed bench payload whose exact keys the default seed must match.
    baseline: Optional[str] = None

    def spec(self, seed: int = DEFAULT_SEED, *, flows: Optional[int] = None) -> ScenarioSpec:
        """The scenario to replay, with ``seed`` as its traffic seed.

        ``flows`` shrinks the workload (tests run tiny ones); ``None`` keeps
        the committed scale.
        """
        spec = self.build()
        traffic = spec.traffic.with_params(seed=seed)
        if flows is not None:
            traffic = traffic.with_params(total_flows=flows)
        return dataclasses.replace(spec, traffic=traffic)


def _preset(name: str) -> ScenarioSpec:
    (spec,) = get_preset(name).specs()
    return spec


#: Flows of the ``tables-scalar`` workload: enough that OpenFlow's 32-entry
#: tables still overflow and evict, small enough for a ~15 s round.
TABLES_SCALAR_FLOWS = 200_000


def _tables_scalar() -> ScenarioSpec:
    spec = _preset("table-pressure")
    return dataclasses.replace(
        spec,
        name="table-pressure-200k",
        traffic=spec.traffic.with_params(total_flows=TABLES_SCALAR_FLOWS),
    )


def _incast_vec() -> ScenarioSpec:
    spec = _preset("incast-congestion")
    return dataclasses.replace(
        spec, execution=ExecutionSpec(stream=True, kernel="vectorized")
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="fig7-vec",
            why=(
                "Fig. 7 at 500k flows, materialized trace, 3 systems on the vectorized "
                "kernel: trace generation and the kernel fast path dominate"
            ),
            build=functools.partial(_preset, "paper-fig7-vectorized"),
            baseline="BENCH_paper-fig7-vectorized.json",
        ),
        Workload(
            name="tables-scalar",
            why=(
                "200k streamed flows vs 32-entry tables on the scalar path: per-flow "
                "dataplane handling and table writes; the kernel does no work"
            ),
            build=_tables_scalar,
        ),
        Workload(
            name="incast-vec",
            why=(
                "200k streamed incast flows vs 1 Mbps uplinks on the vectorized kernel: "
                "the kernel's fallback path and the bandwidth meter dominate"
            ),
            build=_incast_vec,
            baseline="BENCH_incast-congestion.json",
        ),
    )
}


def get_workload(name: str) -> Workload:
    """Look a workload up by name (``KeyError`` names the known ones)."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}") from None
