"""Spans recorded from outside the program, for the traced round.

A span is one timed call across a layer boundary: its name, start, end, the
span that was open when it started (its parent) and the control plane being
replayed.  Spans stay in memory and are written out when the round ends.

Nothing here changes the program.  :func:`instrument` swaps two names the
runner module looks up at call time for timing pass-throughs and restores
them afterwards:

* ``get_control_plane`` returns an entry whose ``build`` is timed and whose
  plane gets a timed ``prepare``;
* ``TraceReplayer`` becomes a subclass that times ``replay``, each batch
  between two periodic ticks, and each periodic callback (``plane.periodic``).

:class:`TimedStream` is a pass-through :class:`FlowStream` that times the
generation of each chunk, wherever the program asks for one.
"""

from __future__ import annotations

import contextlib
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.core import runner as runner_module
from repro.traffic.flow import FlowRecord
from repro.traffic.stream import FlowStream, FlowStreamBase


@dataclass(slots=True)
class Span:
    """One timed call: ``parent`` is the index of the enclosing span."""

    index: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    system: Optional[str]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects nested spans in memory; ``system`` tags the spans opened next."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.system: Optional[str] = None
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        record = Span(
            index=len(self.spans),
            name=name,
            start=perf_counter(),
            end=0.0,
            parent=self._open[-1] if self._open else None,
            system=self.system,
        )
        self.spans.append(record)
        self._open.append(record.index)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._open.pop()

    def named(self, name: str) -> List[Span]:
        """Every span called ``name``, in start order."""
        return [span for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        """Summed duration of the spans called ``name``."""
        return sum(span.seconds for span in self.named(name))

    def self_seconds(self, name: str) -> float:
        """Summed self time of the spans called ``name``.

        A span's self time is its duration minus that of its direct
        children (children do not overlap: the program is single-threaded).
        """
        child_seconds: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_seconds[span.parent] = child_seconds.get(span.parent, 0.0) + span.seconds
        return sum(
            span.seconds - child_seconds.get(span.index, 0.0) for span in self.named(name)
        )

    def to_dict(self, origin: float) -> List[Dict[str, Any]]:
        """The spans as JSON-ready dicts, times in seconds since ``origin``."""
        rows = []
        for span in self.spans:
            row = asdict(span)
            row["start"] = span.start - origin
            row["end"] = span.end - origin
            rows.append(row)
        return rows


class TimedStream(FlowStreamBase):
    """A pass-through stream that times and counts each chunk it hands out."""

    def __init__(self, inner: FlowStream, spans: SpanRecorder) -> None:
        self.name = inner.name
        self.network = inner.network
        self.flows_generated = 0
        self._inner = inner
        self._spans = spans

    @property
    def total_flows(self) -> int:
        return self._inner.total_flows

    @property
    def duration(self) -> float:
        return self._inner.duration

    def chunks(self) -> Iterator[Sequence[FlowRecord]]:
        source = iter(self._inner.chunks())
        while True:
            with self._spans.span("traffic.chunk"):
                chunk = next(source, None)
            if chunk is None:
                return
            self.flows_generated += len(chunk)
            yield chunk


class _TimedEntry:
    """A control-plane registry entry whose ``build`` and ``prepare`` are timed."""

    def __init__(self, entry: Any, spans: SpanRecorder) -> None:
        self._entry = entry
        self._spans = spans

    def __getattr__(self, name: str) -> Any:
        return getattr(self._entry, name)

    def build(self, network: Any, **kwargs: Any) -> Any:
        spans = self._spans
        with spans.span("controlplane.build"):
            plane = self._entry.build(network, **kwargs)
        prepare = plane.prepare

        def timed_prepare(trace: Any, **prepare_kwargs: Any) -> None:
            with spans.span("controlplane.prepare"):
                prepare(trace, **prepare_kwargs)

        plane.prepare = timed_prepare
        return plane


def _timed_replayer(spans: SpanRecorder) -> type:
    """A ``TraceReplayer`` subclass timing the replay, its batches and ticks."""
    base = runner_module.TraceReplayer

    class TimedReplayer(base):
        def __init__(
            self,
            trace: Any,
            sink: Any,
            *,
            periodic_callbacks: Any = None,
            event_engine: Any = None,
            batch_handler: Any = None,
            **kwargs: Any,
        ) -> None:
            if batch_handler is None and event_engine is None:
                # The replayer's own scalar branch, as a batch handler, so
                # scalar and kernel batches are timed at the same boundary.
                handle = sink.handle_flow_arrival

                def batch_handler(batch: Sequence[FlowRecord]) -> None:
                    for flow in batch:
                        handle(flow, flow.start_time)

            inner_batch = batch_handler

            def timed_batch(batch: Sequence[FlowRecord]) -> None:
                with spans.span("replay.batch"):
                    inner_batch(batch)

            def timed(callback: Any) -> Any:
                def timed_callback(now: float) -> None:
                    with spans.span("controlplane.periodic"):
                        callback(now)

                return timed_callback

            super().__init__(
                trace,
                sink,
                periodic_callbacks=[timed(callback) for callback in periodic_callbacks or ()],
                event_engine=event_engine,
                batch_handler=timed_batch if inner_batch is not None else None,
                **kwargs,
            )

        def replay(self, **kwargs: Any) -> Any:
            with spans.span("replay.replay"):
                return super().replay(**kwargs)

    return TimedReplayer


@contextlib.contextmanager
def instrument(spans: SpanRecorder) -> Iterator[SpanRecorder]:
    """Time the runner's calls into the control plane and the replayer."""
    original_lookup = runner_module.get_control_plane
    original_replayer = runner_module.TraceReplayer
    runner_module.get_control_plane = lambda name: _TimedEntry(original_lookup(name), spans)
    runner_module.TraceReplayer = _timed_replayer(spans)
    try:
        yield spans
    finally:
        runner_module.get_control_plane = original_lookup
        runner_module.TraceReplayer = original_replayer
