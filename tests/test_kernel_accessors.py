"""The kernel's window on switch state: public accessors and fallback reasons.

The vectorized kernel reads flow tables and G-FIBs only through
``FlowTable.resident_rules`` and ``GroupFib.probe`` / ``is_query_cached`` /
``query_cache_size`` / ``prime_queries``; the unit tests pin what each
accessor promises.  The run-level tests pin the ``kernel.fallback.<reason>``
counters: on real presets they must sum exactly to
``kernel.flows_fallback``, and ``repro profile`` must print them.
"""

import dataclasses

import pytest

pytest.importorskip("numpy")

from repro.common.addresses import MacAddress
from repro.common.packets import FlowKey
from repro.core.presets import get_preset
from repro.core.runner import ScenarioRunner
from repro.datastructures.fib import GroupFib
from repro.datastructures.flow_table import ActionType, FlowAction, FlowTable
from repro.perf.report import FALLBACK_REASONS, format_kernel_breakdown
from repro.replay.spec import ExecutionSpec
from repro.tables.spec import TableSpec


def _mac(value: int) -> MacAddress:
    return MacAddress(value)


class TestGroupFibAccessors:
    def _gfib(self):
        gfib = GroupFib()
        gfib.install_peer(1, [_mac(10), _mac(11)])
        gfib.install_peer(2, [_mac(11), _mac(12)])
        return gfib

    def test_probe_answers_like_query_without_side_effects(self):
        gfib = self._gfib()
        for value in (10, 11, 12, 99):
            answer = gfib.probe(_mac(value))
            assert gfib.query_count == 0 and gfib.query_cache_size == 0
            assert not gfib.is_query_cached(_mac(value))
            assert GroupFib.query(self._gfib(), _mac(value)) == answer
        assert gfib.probe(_mac(11)) == (1, 2)

    def test_prime_queries_matches_the_query_sequence(self):
        queries = [_mac(11), _mac(10), _mac(11), _mac(11), _mac(10)]
        live = self._gfib()
        live.query(_mac(12))
        for mac in queries:
            live.query(mac)
        primed = self._gfib()
        primed.query(_mac(12))
        primed.prime_queries({mac: primed.probe(mac) for mac in (_mac(11), _mac(10))}, len(queries))
        assert (primed.query_count, primed.query_cache_hits) == (live.query_count, live.query_cache_hits)
        assert primed.query_cache_size == live.query_cache_size
        assert all(primed.is_query_cached(mac) for mac in queries)

    def test_prime_queries_rejects_what_would_reorder(self):
        gfib = self._gfib()
        gfib.query(_mac(10))
        with pytest.raises(ValueError, match="uncached"):
            gfib.prime_queries({_mac(10): (1,)}, 1)
        with pytest.raises(ValueError, match="uncached"):
            gfib.prime_queries({_mac(11): (1, 2)}, 0)
        too_many = {_mac(1000 + i): () for i in range(GroupFib.QUERY_CACHE_LIMIT)}
        with pytest.raises(ValueError, match="threshold"):
            gfib.prime_queries(too_many, len(too_many))
        assert (gfib.query_count, gfib.query_cache_size) == (1, 1)


class TestFlowTableResidentRules:
    def test_live_read_only_view_without_side_effects(self):
        table = FlowTable()
        key = FlowKey(src_mac=_mac(1), dst_mac=_mac(2), tenant_id=0)
        view = table.resident_rules
        assert key not in view
        rule = table.install(key, FlowAction(ActionType.FORWARD_LOCAL, 3), now=1.0)
        assert view[key] is rule and view.get(key) is rule
        assert (table.stats.hits, table.stats.misses) == (0, 0)
        with pytest.raises(TypeError):
            view[key] = rule
        table.remove(key)
        assert len(view) == 0


def _preset_spec(name: str, flows: int, **execution):
    (spec,) = get_preset(name).specs()
    return dataclasses.replace(
        spec,
        traffic=spec.traffic.with_params(total_flows=flows),
        execution=ExecutionSpec(kernel="vectorized", **execution),
    )


def _assert_reasons_sum(result):
    for name, run in result.runs.items():
        counters = run.perf.counters
        reasons = {reason: counters[f"kernel.fallback.{reason}"] for reason in FALLBACK_REASONS}
        assert sum(reasons.values()) == counters["kernel.flows_fallback"], (name, reasons)
        assert counters["kernel.flows_fallback"] + counters["kernel.flows_vectorized"] == (
            counters["replay.flows_replayed"]
        )
        text = format_kernel_breakdown(run.perf)
        assert f"(sum {counters['kernel.flows_fallback']:,})" in text
    return {name: run.perf.counters for name, run in result.runs.items()}


class TestFallbackReasons:
    def test_reasons_sum_to_fallback_on_paper_fig7(self):
        counters = _assert_reasons_sum(
            ScenarioRunner().run(_preset_spec("paper-fig7", 4000), collect_perf=True)
        )
        assert counters["openflow"]["kernel.fallback.controller_miss"] > 0

    def test_reasons_sum_to_fallback_on_incast_congestion(self):
        _assert_reasons_sum(
            ScenarioRunner().run(_preset_spec("incast-congestion", 4000), collect_perf=True)
        )

    def test_tiny_tables_demote_hits_through_the_slack_guard(self):
        spec = _preset_spec("paper-fig7", 3000)
        spec = dataclasses.replace(spec, tables=TableSpec(capacity=4, policy="lru"))
        counters = _assert_reasons_sum(ScenarioRunner().run(spec, collect_perf=True))
        assert any(run["kernel.fallback.slack_guard"] > 0 for run in counters.values())

    def test_adaptive_tables_count_stale_rules(self):
        spec = _preset_spec("paper-fig7", 3000)
        spec = dataclasses.replace(
            spec,
            tables=TableSpec(
                capacity=8,
                policy="adaptive",
                idle_timeout_seconds=900.0,
                params={"min_timeout_seconds": 60.0, "max_timeout_seconds": 1800.0},
            ),
        )
        counters = _assert_reasons_sum(ScenarioRunner().run(spec, collect_perf=True))
        assert any(run["kernel.fallback.stale_rule"] > 0 for run in counters.values())
