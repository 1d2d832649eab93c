"""Flow records: the unit of the paper's traces.

A trace is a time-ordered sequence of *flow arrivals*: at ``start_time`` a
new flow opens between two hosts and subsequently carries ``packet_count``
packets / ``byte_count`` bytes.  Flow arrivals are what stresses the control
plane (each new flow may require a controller interaction), so the evaluation
is phrased almost entirely in terms of flow arrivals per second.

Flows travel through the pipeline as :class:`FlowBatch` chunks: one stdlib
``array`` column per field (start, flow id, endpoints, packets, bytes,
duration) instead of one object per flow.  A :class:`FlowRecord` is the
per-flow *view* of a batch row, built on demand by indexing or iterating
the batch — the scalar replay path, meter walks and tests read flows that
way, while the hot consumers (the replayer's tick boundaries, intensity
accumulation, the vectorized kernel) read the columns directly.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from itertools import compress
from operator import eq, le
from typing import Iterable, Iterator, List, Optional, Tuple, overload

from repro.bandwidth.profile import RateProfile


@dataclass(frozen=True, slots=True, order=True)
class FlowRecord:
    """One flow of a traffic trace.

    Records are ordered by start time (then flow id) so a sorted list of
    records is a valid replay order.
    """

    start_time: float
    flow_id: int
    src_host_id: int
    dst_host_id: int
    packet_count: int = 10
    byte_count: int = 15_000
    duration: float = 1.0
    # Excluded from ordering: flow ids are unique within a trace, so the
    # comparison never gets this far, and a None/profile mix must not break
    # sorting if it somehow did.
    rate_profile: Optional[RateProfile] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.start_time < 0:
            raise ValueError("flow start_time must be non-negative")
        if self.src_host_id == self.dst_host_id:
            raise ValueError("a flow must connect two distinct hosts")
        if self.packet_count <= 0:
            raise ValueError("packet_count must be positive")
        if self.byte_count <= 0:
            raise ValueError("byte_count must be positive")
        # A zero duration would divide-by-zero in rate derivation; negative
        # durations were always nonsense.
        if self.duration <= 0:
            raise ValueError("duration must be positive")

    @property
    def host_pair(self) -> tuple[int, int]:
        """The ordered (source, destination) host pair."""
        return (self.src_host_id, self.dst_host_id)

    @property
    def unordered_pair(self) -> tuple[int, int]:
        """The unordered host pair (used for pair-activity statistics)."""
        a, b = self.src_host_id, self.dst_host_id
        return (a, b) if a <= b else (b, a)

    @property
    def end_time(self) -> float:
        """Time at which the flow's last packet is sent."""
        return self.start_time + self.duration

    def resolved_rate_profile(self) -> RateProfile:
        """The attached rate profile, or the constant profile its totals imply.

        The derivation is deterministic — ``byte_count * 8 / duration`` over
        ``duration`` — so two replays of the same trace always account the
        same bytes to the same instants.
        """
        if self.rate_profile is not None:
            return self.rate_profile
        return RateProfile.constant(self.byte_count * 8.0 / self.duration, self.duration)


# Views of batch rows skip ``__init__``: the frozen dataclass's per-field
# ``object.__setattr__`` plus ``__post_init__`` would re-check invariants the
# batch already checked per column.  Writing each slot through its member
# descriptor stores exactly what ``__init__`` stores; the unpacking fails at
# import if FlowRecord's fields ever change.
(
    _set_start_time,
    _set_flow_id,
    _set_src_host_id,
    _set_dst_host_id,
    _set_packet_count,
    _set_byte_count,
    _set_duration,
    _set_rate_profile,
) = (vars(FlowRecord)[record_field.name].__set__ for record_field in fields(FlowRecord))
_new_record = object.__new__


def _record_view(
    start_time: float,
    flow_id: int,
    src_host_id: int,
    dst_host_id: int,
    packet_count: int,
    byte_count: int,
    duration: float,
    rate_profile: Optional[RateProfile] = None,
) -> FlowRecord:
    """A :class:`FlowRecord` over already-checked row values."""
    record = _new_record(FlowRecord)
    _set_start_time(record, start_time)
    _set_flow_id(record, flow_id)
    _set_src_host_id(record, src_host_id)
    _set_dst_host_id(record, dst_host_id)
    _set_packet_count(record, packet_count)
    _set_byte_count(record, byte_count)
    _set_duration(record, duration)
    _set_rate_profile(record, rate_profile)
    return record


#: Column typecodes: IEEE-754 doubles for times, signed 64-bit for counts/ids
#: (both exactly what the vectorized kernel wraps zero-copy as float64/int64).
_FLOAT = "d"
_INT = "q"

#: A flow before it has an identity: (start_time, src, dst, packets, bytes,
#: duration).  Generators emit draws; a stream sorts them and mints ids.
FlowDraw = Tuple[float, int, int, int, int, float]


def _check_columns(starts, srcs, dsts, packets, sizes, durations) -> None:
    """The five :class:`FlowRecord` invariants, checked once per column."""
    if not starts:
        return
    if min(starts) < 0:
        raise ValueError("flow start_time must be non-negative")
    if any(map(eq, srcs, dsts)):
        raise ValueError("a flow must connect two distinct hosts")
    if min(packets) <= 0:
        raise ValueError("packet_count must be positive")
    if min(sizes) <= 0:
        raise ValueError("byte_count must be positive")
    if min(durations) <= 0:
        raise ValueError("duration must be positive")


class FlowBatch(Sequence):
    """A struct-of-arrays chunk of flows: the unit every flow stream yields.

    Seven parallel ``array`` columns hold the :class:`FlowRecord` fields
    (``start_times`` and ``durations`` as doubles, the rest as signed 64-bit
    integers); ``rate_profiles`` is ``None`` unless some row carries an
    explicit :class:`~repro.bandwidth.profile.RateProfile`, in which case it
    is a row-aligned list.  Indexing a row or iterating yields
    :class:`FlowRecord` views; slicing yields a batch over copied column
    slices.  Batches are treated as immutable once built.

    Construction from raw columns checks the five :class:`FlowRecord`
    invariants once per column (a negative start, a self flow, a
    non-positive packet/byte count or duration raises the same
    ``ValueError`` the record would).
    """

    __slots__ = (
        "start_times",
        "flow_ids",
        "src_host_ids",
        "dst_host_ids",
        "packet_counts",
        "byte_counts",
        "durations",
        "rate_profiles",
    )

    def __init__(
        self,
        start_times: Iterable[float] = (),
        flow_ids: Iterable[int] = (),
        src_host_ids: Iterable[int] = (),
        dst_host_ids: Iterable[int] = (),
        packet_counts: Iterable[int] = (),
        byte_counts: Iterable[int] = (),
        durations: Iterable[float] = (),
        rate_profiles: Optional[Iterable[Optional[RateProfile]]] = None,
    ) -> None:
        self._adopt(
            array(_FLOAT, start_times),
            array(_INT, flow_ids),
            array(_INT, src_host_ids),
            array(_INT, dst_host_ids),
            array(_INT, packet_counts),
            array(_INT, byte_counts),
            array(_FLOAT, durations),
            None if rate_profiles is None else list(rate_profiles),
        )
        size = len(self.start_times)
        if any(len(column) != size for column in self._columns()) or (
            self.rate_profiles is not None and len(self.rate_profiles) != size
        ):
            raise ValueError("flow batch columns must all have the same length")
        _check_columns(
            self.start_times,
            self.src_host_ids,
            self.dst_host_ids,
            self.packet_counts,
            self.byte_counts,
            self.durations,
        )

    @classmethod
    def _wrap(cls, *columns, rate_profiles=None) -> "FlowBatch":
        """Adopt already-typed, already-checked columns without copying."""
        batch = cls.__new__(cls)
        batch._adopt(*columns, rate_profiles)
        return batch

    def _adopt(
        self,
        start_times: array,
        flow_ids: array,
        src_host_ids: array,
        dst_host_ids: array,
        packet_counts: array,
        byte_counts: array,
        durations: array,
        rate_profiles: Optional[List[Optional[RateProfile]]],
    ) -> None:
        self.start_times = start_times
        self.flow_ids = flow_ids
        self.src_host_ids = src_host_ids
        self.dst_host_ids = dst_host_ids
        self.packet_counts = packet_counts
        self.byte_counts = byte_counts
        self.durations = durations
        if rate_profiles is not None and all(profile is None for profile in rate_profiles):
            rate_profiles = None
        self.rate_profiles = rate_profiles

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_draws(cls, draws: Sequence[FlowDraw], first_flow_id: int = 0) -> "FlowBatch":
        """Transpose draws into columns, minting ids ``first_flow_id`` upwards.

        The draws keep their order (a generated chunk sorts them first).
        """
        if not draws:
            return cls()
        starts, srcs, dsts, packets, sizes, durations = zip(*draws)
        # Checked on the transposed tuples, whose values already exist as
        # objects; reading the arrays back would box every value again.
        _check_columns(starts, srcs, dsts, packets, sizes, durations)
        return cls._wrap(
            array(_FLOAT, starts),
            array(_INT, range(first_flow_id, first_flow_id + len(draws))),
            array(_INT, srcs),
            array(_INT, dsts),
            array(_INT, packets),
            array(_INT, sizes),
            array(_FLOAT, durations),
        )

    @classmethod
    def from_records(cls, records: Iterable["FlowRecord"]) -> "FlowBatch":
        """Columns of already-validated records (their rate profiles kept)."""
        records = records if isinstance(records, (list, tuple)) else list(records)
        profiles = [record.rate_profile for record in records]
        return cls._wrap(
            array(_FLOAT, [record.start_time for record in records]),
            array(_INT, [record.flow_id for record in records]),
            array(_INT, [record.src_host_id for record in records]),
            array(_INT, [record.dst_host_id for record in records]),
            array(_INT, [record.packet_count for record in records]),
            array(_INT, [record.byte_count for record in records]),
            array(_FLOAT, [record.duration for record in records]),
            rate_profiles=profiles,
        )

    @classmethod
    def coerce(cls, flows: Iterable["FlowRecord"]) -> "FlowBatch":
        """``flows`` itself when it is a batch, else its records as one."""
        return flows if isinstance(flows, FlowBatch) else cls.from_records(flows)

    @classmethod
    def concat(cls, parts: Iterable[Iterable["FlowRecord"]]) -> "FlowBatch":
        """Concatenate batches (or record sequences) row-wise, in order."""
        batches = [cls.coerce(part) for part in parts]
        if not batches:
            return cls()
        if len(batches) == 1:
            return batches[0]
        columns = [array(column.typecode) for column in batches[0]._columns()]
        for batch in batches:
            for column, part in zip(columns, batch._columns()):
                column.extend(part)
        profiles: Optional[List[Optional[RateProfile]]] = None
        if any(batch.rate_profiles is not None for batch in batches):
            profiles = []
            for batch in batches:
                profiles.extend(batch.rate_profiles or [None] * len(batch))
        return cls._wrap(*columns, rate_profiles=profiles)

    def _columns(self) -> Tuple[array, ...]:
        return (
            self.start_times,
            self.flow_ids,
            self.src_host_ids,
            self.dst_host_ids,
            self.packet_counts,
            self.byte_counts,
            self.durations,
        )

    # -- record order ----------------------------------------------------------

    def is_sorted(self) -> bool:
        """Whether the rows are already in :class:`FlowRecord` order — O(n).

        Record order is ``(start_time, flow_id, src, dst, packets, bytes,
        duration)``.  Start times are compared column-wise; only rows tied on
        start time fall back to comparing their whole keys.
        """
        starts = self.start_times
        later = starts[1:]
        if not all(map(le, starts, later)):
            return False
        for row in compress(range(len(later)), map(eq, starts, later)):
            if self._key(row) > self._key(row + 1):
                return False
        return True

    def sorted(self) -> "FlowBatch":
        """The rows in :class:`FlowRecord` order (stable, like ``sorted``).

        Rows are sorted by start time alone — one float key per row — and
        only runs tied on start time are then sorted by their whole record
        key, so the result is what sorting the records would give.
        """
        starts = self.start_times
        order = sorted(range(len(starts)), key=starts.__getitem__)
        ordered = array(_FLOAT, map(starts.__getitem__, order))
        run_end = 0
        for row in compress(range(1, len(order)), map(eq, ordered, ordered[1:])):
            if row < run_end:
                continue  # inside a run already sorted
            run_start, run_end = row - 1, row + 1
            while run_end < len(order) and ordered[run_end] == ordered[run_start]:
                run_end += 1
            order[run_start:run_end] = sorted(order[run_start:run_end], key=self._key)
        profiles = self.rate_profiles
        return FlowBatch._wrap(
            *(array(column.typecode, map(column.__getitem__, order)) for column in self._columns()),
            rate_profiles=None if profiles is None else [profiles[row] for row in order],
        )

    def _key(self, row: int) -> tuple:
        return tuple(column[row] for column in self._columns())

    # -- the sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.start_times)

    @overload
    def __getitem__(self, index: int) -> "FlowRecord": ...

    @overload
    def __getitem__(self, index: slice) -> "FlowBatch": ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            profiles = self.rate_profiles
            return FlowBatch._wrap(
                *(column[index] for column in self._columns()),
                rate_profiles=None if profiles is None else profiles[index],
            )
        return _record_view(
            self.start_times[index],
            self.flow_ids[index],
            self.src_host_ids[index],
            self.dst_host_ids[index],
            self.packet_counts[index],
            self.byte_counts[index],
            self.durations[index],
            None if self.rate_profiles is None else self.rate_profiles[index],
        )

    def __iter__(self) -> Iterator["FlowRecord"]:
        columns = self._columns()
        if self.rate_profiles is None:
            return map(_record_view, *columns)
        return map(_record_view, *columns, self.rate_profiles)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowBatch):
            return NotImplemented
        return self._columns() == other._columns()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if not self.start_times:
            return "FlowBatch(0 flows)"
        return (
            f"FlowBatch({len(self)} flows, "
            f"[{self.start_times[0]:g}, {self.start_times[-1]:g}])"
        )
