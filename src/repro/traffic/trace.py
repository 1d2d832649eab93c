"""Trace container and trace-level statistics.

A :class:`Trace` couples a time-sorted :class:`~repro.traffic.flow.FlowBatch`
with the :class:`~repro.topology.network.DataCenterNetwork` the hosts live
in.  It is the *materialized convenience wrapper* over the chunked
pipeline: every built-in generator natively emits a
:class:`~repro.traffic.stream.FlowStream`, and :meth:`Trace.from_stream`
(or passing the stream straight to the constructor) concatenates the
chunks' columns into one resident batch for callers that want random
access.  :class:`~repro.traffic.flow.FlowRecord` objects exist only as
views: iterating or indexing the trace builds them on demand.

Construction works on columns.  Input already in record order — every
generated stream — passes an O(n) order check and is adopted as is;
unordered input (an expanded or merged trace, hand-built records) is
sorted.  Hosts are checked once per distinct host id, and an unknown one
raises an error naming it.

The derived views the rest of the library needs —

* the switch-level intensity matrix over an arbitrary time window (input to
  the grouping algorithms and the replayer),
* pair-activity statistics (distinct communicating host pairs, share of
  flows contributed by the busiest pairs — the paper's motivation numbers),
* per-hour flow-arrival counts (the diurnal shape used by Fig. 7)

— are all computed by one accumulating
:class:`~repro.traffic.stream.TraceStatistics` pass rather than a re-scan
per view: the topology-independent views (pair activity, hourly counts,
communicating pairs) share a single cached pass, while the intensity matrix
is re-accumulated per call because it reflects host placement *now* (VM
churn moves hosts between switches mid-replay).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional

from repro.common.errors import TrafficError
from repro.datastructures.intensity import IntensityMatrix
from repro.topology.network import DataCenterNetwork
from repro.traffic.flow import FlowBatch, FlowRecord
from repro.traffic.stream import FlowStream, TraceStatistics, accumulate_intensity


@dataclass(frozen=True, slots=True)
class PairActivity:
    """Summary of how concentrated the traffic is across host pairs."""

    total_flows: int
    distinct_pairs: int
    top_decile_share: float


def _collect(flows: Iterable[FlowRecord] | FlowStream) -> FlowBatch:
    """One batch from a batch, a stream (or trace) or any record iterable."""
    if isinstance(flows, FlowBatch):
        return flows
    chunks = getattr(flows, "chunks", None)
    if chunks is not None:
        return FlowBatch.concat(chunks())
    return FlowBatch.from_records(flows)


class Trace:
    """A named, time-sorted batch of flows bound to a topology.

    ``flows`` may be a :class:`FlowBatch` (adopted without copying), a
    :class:`FlowStream` or trace (its chunks concatenated), or any iterable
    of :class:`FlowRecord`.
    """

    def __init__(
        self, name: str, network: DataCenterNetwork, flows: Iterable[FlowRecord] | FlowStream
    ) -> None:
        self.name = name
        self.network = network
        batch = _collect(flows)
        self._flows: FlowBatch = batch if batch.is_sorted() else batch.sorted()
        self._pair_stats: Optional[TraceStatistics] = None
        # Fail fast on flows referencing hosts outside the topology.
        host_ids = set(batch.src_host_ids)
        host_ids.update(batch.dst_host_ids)
        for host_id in sorted(host_ids):
            network.host(host_id)

    @classmethod
    def from_stream(cls, stream: FlowStream, *, name: Optional[str] = None) -> "Trace":
        """Materialize a chunked flow stream into a trace."""
        return cls(name or stream.name, stream.network, stream)

    # -- basic accessors ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._flows)

    def __iter__(self) -> Iterator[FlowRecord]:
        return iter(self._flows)

    @property
    def flows(self) -> FlowBatch:
        """The time-sorted flows (a batch; its rows are :class:`FlowRecord` views)."""
        return self._flows

    @property
    def total_flows(self) -> int:
        """Number of flow arrivals (the stream-protocol spelling)."""
        return len(self._flows)

    @property
    def duration(self) -> float:
        """Time of the last flow arrival (0 for an empty trace)."""
        return self._flows.start_times[-1] if self._flows else 0.0

    def flow_count(self) -> int:
        """Number of flow arrivals in the trace."""
        return len(self._flows)

    def chunks(self) -> Iterator[FlowBatch]:
        """The whole trace as a single chunk (the stream protocol).

        A materialized trace is already resident, so presenting it as one
        chunk costs nothing and lets every stream consumer (the replayer
        first of all) treat traces and streams uniformly.
        """
        if self._flows:
            yield self._flows

    def window(self, start: float, end: float) -> FlowBatch:
        """Flows whose arrival time falls in ``[start, end)``."""
        if end < start:
            raise TrafficError(f"invalid window [{start}, {end})")
        start_times = self._flows.start_times
        lo = bisect.bisect_left(start_times, start)
        hi = bisect.bisect_left(start_times, end, lo)
        return self._flows[lo:hi]

    # -- derived statistics ---------------------------------------------------

    def _cached_pair_statistics(self) -> TraceStatistics:
        """The single shared pass behind every topology-independent view."""
        if self._pair_stats is None:
            stats = TraceStatistics(self.network, track_pairs=True, track_intensity=False)
            self._pair_stats = stats.observe_all(self._flows)
        return self._pair_stats

    def statistics(self, *, track_pairs: bool = True) -> TraceStatistics:
        """Accumulate every derived view (intensity included) in one fresh pass."""
        stats = TraceStatistics(self.network, track_pairs=track_pairs)
        return stats.observe_all(self._flows)

    def pair_activity(self) -> PairActivity:
        """Distinct communicating pairs and the share of the busiest 10 % of pairs."""
        return self._cached_pair_statistics().pair_activity()

    def switch_intensity(self, *, start: float = 0.0, end: Optional[float] = None) -> IntensityMatrix:
        """Build the switch-level intensity matrix for a time window.

        Every flow contributes one unit of intensity between the switches of
        its two endpoints; same-switch flows only register the switch.  The
        matrix is what SGI partitions and what Fig. 6 is computed from.

        ``end=None`` means the window is inclusive of the trace's last
        arrival: a flow arriving exactly at ``duration`` is counted once.
        An explicit ``end`` keeps the usual half-open ``[start, end)``
        semantics.  The matrix reflects host placement at call time, so it
        is accumulated fresh per call rather than cached.
        """
        window_end = float("inf") if end is None else end
        return accumulate_intensity(self.network, self.window(start, window_end))

    def hourly_flow_counts(self, *, hours: int = 24) -> List[int]:
        """Flow arrivals per hour over the first ``hours`` hours."""
        return self._cached_pair_statistics().hourly_flow_counts(hours=hours)

    def communicating_pairs(self) -> set[tuple[int, int]]:
        """The set of unordered host pairs that exchanged at least one flow."""
        return self._cached_pair_statistics().communicating_pairs()

    def subtrace(self, *, start: float, end: float, name: Optional[str] = None) -> "Trace":
        """A new trace restricted to flows arriving in ``[start, end)``."""
        return Trace(name or f"{self.name}[{start:.0f},{end:.0f})", self.network, self.window(start, end))

    def merged_with(self, other: "Trace", *, name: Optional[str] = None) -> "Trace":
        """Merge two traces defined over the same topology.

        The topologies may be distinct objects as long as they are
        structurally equal (same switches, host placement and tenancy) —
        rebuilding a network from the same spec yields an equal topology,
        and traces over it merge fine.  Genuinely different topologies are
        still rejected.
        """
        if other.network is not self.network and not self.network.structurally_equal(other.network):
            raise TrafficError("cannot merge traces defined over different topologies")
        return Trace(
            name or f"{self.name}+{other.name}",
            self.network,
            FlowBatch.concat((self._flows, other.flows)),
        )
