"""The columnar chunk type: ``FlowBatch`` rows, order, host checks and the oracle.

Every stream chunk is a :class:`~repro.traffic.flow.FlowBatch` and every
:class:`~repro.traffic.flow.FlowRecord` is a view of one of its rows.  The
property at the top pins the change that introduced the batches: for every
registered traffic model, each chunk's rows equal the records the
record-per-flow construction produced — kept below as ``_record_chunks``,
the oracle — so the columnar pipeline is bit-identical to it.
"""

import bisect
import heapq
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.bandwidth.profile import RateProfile
from repro.common.errors import UnknownHostError
from repro.common.rng import make_rng
from repro.topology.builder import TopologyProfile, build_multi_tenant_datacenter
from repro.traffic.flow import FlowBatch, FlowRecord
from repro.traffic.registry import available_traffic_models, get_traffic_model
from repro.traffic.stream import GeneratedStream, MaterializedStream, MergedStream
from repro.traffic.trace import Trace

#: The source tree a subprocess imports ``repro`` from.
SRC = os.path.dirname(os.path.dirname(repro.__file__))

_NETWORK = build_multi_tenant_datacenter(
    TopologyProfile(switch_count=6, host_count=48, seed=23, home_switches_per_tenant=2)
)

#: Small params per registered model; ``mix`` nests two other models.
MODEL_PARAMS = {
    "realistic": {"total_flows": 300},
    "synthetic": {"total_flows": 300},
    "elephant-mice": {"total_flows": 300, "elephant_pair_count": 4},
    "incast-hotspot": {"total_flows": 300, "hotspot_count": 2, "burst_window_hours": [0.25, 0.75]},
    "all-to-all-shuffle": {"total_flows": 300, "phase_count": 2, "phase_duration_hours": 0.25},
    "uniform": {"total_flows": 300},
    "mix": {
        "components": [
            {"model": "uniform", "params": {}, "weight": 1.0},
            {"model": "elephant-mice", "params": {"elephant_pair_count": 3}, "weight": 2.0},
            {
                "model": "incast-hotspot",
                "params": {"hotspot_count": 2},
                "weight": 0.5,
                "window_hours": [0.25, 0.75],
            },
        ],
        "total_flows": 300,
    },
}


def _record_chunks(stream):
    """The record-per-flow chunk construction the batches replaced (the oracle)."""
    if isinstance(stream, GeneratedStream):
        flow_id = 0
        for window in stream._windows:
            if window.flow_count <= 0:
                continue
            rng = make_rng(stream._seed, *stream._rng_labels, "chunk", str(window.index))
            draws = stream._emit(rng, window)
            draws.sort()
            chunk = [
                FlowRecord(
                    start_time=draw[0],
                    flow_id=flow_id + offset,
                    src_host_id=draw[1],
                    dst_host_id=draw[2],
                    packet_count=draw[3],
                    byte_count=draw[4],
                    duration=draw[5],
                )
                for offset, draw in enumerate(draws)
            ]
            flow_id += len(chunk)
            yield chunk
    elif isinstance(stream, MergedStream):

        def shifted(component, offset, span):
            for chunk in _record_chunks(component):
                for flow in chunk:
                    if flow.start_time >= span:
                        return
                    key = (
                        flow.start_time,
                        flow.src_host_id,
                        flow.dst_host_id,
                        flow.packet_count,
                        flow.byte_count,
                        flow.duration,
                    )
                    yield (key[0] + offset, *key[1:]) if offset else key

        merged = heapq.merge(*(shifted(*part) for part in stream._parts))
        chunk = []
        for flow_id, key in enumerate(merged):
            chunk.append(FlowRecord(key[0], flow_id, *key[1:]))
            if len(chunk) >= stream._chunk_flows:
                yield chunk
                chunk = []
        if chunk:
            yield chunk
    else:
        raise AssertionError(f"no oracle for {type(stream).__name__}")


def _fields(record):
    return (
        record.start_time.hex(),
        record.flow_id,
        record.src_host_id,
        record.dst_host_id,
        record.packet_count,
        record.byte_count,
        float(record.duration).hex(),
    )


def test_model_params_cover_every_registered_model():
    assert {entry.name for entry in available_traffic_models()} == set(MODEL_PARAMS)


class TestChunksMatchRecordConstruction:
    @given(
        model=st.sampled_from(sorted(MODEL_PARAMS)),
        seed=st.integers(min_value=0, max_value=2**16),
        duration=st.sampled_from([1.0, 1.5, 2.25]),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_the_record_oracle(self, model, seed, duration):
        params = {**MODEL_PARAMS[model], "seed": seed, "duration_hours": duration}
        stream = get_traffic_model(model).build_stream(_NETWORK, params, name="oracle")
        chunks = list(stream.chunks())
        expected = list(_record_chunks(stream))
        assert all(isinstance(chunk, FlowBatch) for chunk in chunks)
        assert [len(chunk) for chunk in chunks] == [len(chunk) for chunk in expected]
        for chunk, records in zip(chunks, expected):
            assert [_fields(row) for row in chunk] == [_fields(record) for record in records]
            assert list(chunk) == records


def _flow(t, flow_id, src=0, dst=1, **extra):
    return FlowRecord(start_time=t, flow_id=flow_id, src_host_id=src, dst_host_id=dst, **extra)


class TestTraceConstruction:
    def test_shuffled_records_come_out_sorted(self):
        records = [_flow(float(i % 7), i, src=i % 5, dst=5 + i % 3) for i in range(60)]
        shuffled = list(records)
        random.Random(4).shuffle(shuffled)
        trace = Trace("t", _NETWORK, shuffled)
        assert list(trace) == sorted(records)
        assert trace.flows.is_sorted()

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.5, 1.0, 7.25]),
                st.integers(0, 3),
                st.integers(0, 2),
                st.integers(3, 5),
                st.integers(1, 2),
                st.booleans(),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_sorting_matches_sorting_the_records(self, rows):
        # Few distinct values, so start times, ids and whole keys all tie;
        # the rate profile (outside the order) shows the sort is stable.
        records = [
            _flow(t, flow_id, src=src, dst=dst, packet_count=packets,
                  rate_profile=RateProfile.constant(8.0 + index, 1.0) if profiled else None)
            for index, (t, flow_id, src, dst, packets, profiled) in enumerate(rows)
        ]
        rows_out = list(Trace("t", _NETWORK, records))
        expected = sorted(records)
        assert rows_out == expected
        assert [row.rate_profile for row in rows_out] == [record.rate_profile for record in expected]

    def test_ties_on_start_time_order_by_flow_id(self):
        trace = Trace("t", _NETWORK, [_flow(1.0, 3), _flow(1.0, 1), _flow(0.5, 2)])
        assert [flow.flow_id for flow in trace] == [2, 1, 3]

    def test_ordered_input_is_adopted_without_copying(self):
        batch = FlowBatch.from_records([_flow(float(i), i) for i in range(5)])
        assert Trace("t", _NETWORK, batch).flows is batch

    def test_rate_profile_survives_sorting_and_slicing(self):
        profile = RateProfile.constant(800.0, 2.0)
        records = [_flow(3.0, 0), _flow(1.0, 1, duration=2.0, rate_profile=profile), _flow(2.0, 2)]
        trace = Trace("t", _NETWORK, records)
        assert [flow.flow_id for flow in trace] == [1, 2, 0]
        assert trace.flows[0].rate_profile is profile
        assert trace.flows[1].rate_profile is None
        assert trace.window(0.0, 1.5)[0].rate_profile is profile
        assert trace.window(1.5, 4.0).rate_profiles is None

    def test_host_outside_topology_is_named(self):
        missing = _NETWORK.host_count() + 17
        with pytest.raises(UnknownHostError, match=f"unknown host {missing}"):
            Trace("t", _NETWORK, [_flow(0.0, 0), _flow(1.0, 1, src=2, dst=missing)])

    def test_merged_with_sorts_the_combined_timeline(self):
        first = Trace("a", _NETWORK, [_flow(0.0, 0), _flow(2.0, 1)])
        second = Trace("b", _NETWORK, [_flow(1.0, 2), _flow(3.0, 3)])
        merged = first.merged_with(second)
        assert [flow.flow_id for flow in merged] == [0, 2, 1, 3]


class TestFlowBatch:
    @pytest.fixture
    def batch(self):
        return FlowBatch.from_records(
            [_flow(float(i), 10 + i, src=i, dst=i + 1, packet_count=i + 1) for i in range(10)]
        )

    def test_indexing_builds_record_views(self, batch):
        assert batch[0] == _flow(0.0, 10, src=0, dst=1, packet_count=1)
        assert batch[-1].flow_id == 19
        with pytest.raises(IndexError):
            batch[10]

    def test_slicing_yields_batches(self, batch):
        window = batch[2:5]
        assert isinstance(window, FlowBatch)
        assert [flow.flow_id for flow in window] == [12, 13, 14]
        assert [flow.flow_id for flow in batch[::4]] == [10, 14, 18]
        assert len(batch[7:3]) == 0

    def test_iteration_matches_indexing(self, batch):
        assert list(batch) == [batch[i] for i in range(len(batch))]

    def test_bisect_on_the_start_column(self, batch):
        assert bisect.bisect_left(batch.start_times, 3.5) == 4
        assert bisect.bisect_left(batch.start_times, 3.0) == 3

    def test_pickle_round_trip(self, batch):
        profiled = FlowBatch.from_records([_flow(0.0, 0, rate_profile=RateProfile.constant(8.0, 1.0))])
        for original in (batch, profiled, FlowBatch()):
            clone = pickle.loads(pickle.dumps(original))
            assert clone == original
            assert list(clone) == list(original)
        assert pickle.loads(pickle.dumps(profiled))[0].rate_profile is not None

    def test_concat_and_equality(self, batch):
        assert FlowBatch.concat([batch[:4], list(batch[4:])]) == batch
        assert FlowBatch.concat([]) == FlowBatch()
        assert batch != batch[1:]

    @pytest.mark.parametrize(
        "column,value,message",
        [
            ("start_times", [-1.0], "start_time"),
            ("dst_host_ids", [0], "distinct hosts"),
            ("packet_counts", [0], "packet_count"),
            ("byte_counts", [0], "byte_count"),
            ("durations", [0.0], "duration"),
        ],
    )
    def test_columns_enforce_the_record_invariants(self, column, value, message):
        columns = {
            "start_times": [0.0],
            "flow_ids": [0],
            "src_host_ids": [0],
            "dst_host_ids": [1],
            "packet_counts": [1],
            "byte_counts": [1],
            "durations": [1.0],
        }
        FlowBatch(**columns)
        columns[column] = value
        with pytest.raises(ValueError, match=message):
            FlowBatch(**columns)

    def test_ragged_columns_are_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            FlowBatch([0.0, 1.0], [0], [0], [1], [1], [1], [1.0])

    def test_materialized_stream_chunks_are_batches(self):
        stream = MaterializedStream("m", _NETWORK, [_flow(float(i), i) for i in range(7)], chunk_flows=3)
        chunks = list(stream.chunks())
        assert all(isinstance(chunk, FlowBatch) for chunk in chunks)
        assert [len(chunk) for chunk in chunks] == [3, 3, 1]


def test_traffic_layer_never_imports_numpy():
    code = (
        "import sys\n"
        "import repro.traffic\n"
        "assert 'numpy' not in sys.modules, 'importing repro.traffic loaded numpy'\n"
        "from repro import ScenarioRunner, get_preset\n"
        "from repro.replay.spec import ExecutionSpec\n"
        "import dataclasses\n"
        "(spec,) = get_preset('table-pressure').specs()\n"
        "spec = dataclasses.replace(spec, traffic=spec.traffic.with_params(total_flows=1500),\n"
        "                           execution=ExecutionSpec(stream=True))\n"
        "assert ScenarioRunner().run(spec).runs\n"
        "assert 'numpy' not in sys.modules, 'a scalar streamed replay loaded numpy'\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert completed.returncode == 0, completed.stderr
