"""The partition log: an append-only sequence of timestamped records."""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Any, Iterator, Sequence

import numpy as _np

from repro.broker.errors import OffsetOutOfRangeError, QueueFullError
from repro.broker.records import ConsumerRecord, RecordSlice, TimestampType
from repro.dataflow.kernels import FieldColumn, SlabColumn
from repro.simtime import SimClock


def _append_items(buffers: tuple, start: int, stop: int, items: tuple) -> tuple:
    """Write ``items[k]`` past ``buffers[k][start:stop]`` for every ``k``;
    returns the buffers and their new ``(start, stop)``.

    Equal-length buffers with spare capacity past ``stop`` are written in
    place.  When they run out, each doubles into a fresh buffer that
    keeps only ``[start, stop)``, dropping a trimmed prefix.  Columns
    handed out by reads share the old buffers but never read past their
    own ``stop``, so writing beyond it changes none of them.
    """
    count = len(items[0])
    if stop + count > len(buffers[0]):
        kept = stop - start
        size = max(2 * kept, kept + count)
        grown = []
        for buffer in buffers:
            fresh = _np.empty(size, buffer.dtype)
            fresh[:kept] = buffer[start:stop]
            grown.append(fresh)
        buffers, start, stop = tuple(grown), 0, kept
    for buffer, item in zip(buffers, items):
        buffer[stop : stop + count] = item
    return buffers, start, stop + count


class PartitionLog:
    """An append-only log for a single topic partition.

    Records receive consecutive offsets starting at zero.  When the owning
    topic is configured with ``LogAppendTime`` (the paper's setting), the
    broker stamps each record with the simulated clock at append time,
    ignoring any producer-provided timestamp; with ``CreateTime`` the
    producer's timestamp is preserved.

    Storage is column-oriented (parallel columns for values and keys) —
    the benchmark appends tens of millions of records, and per-record
    objects would dominate memory and time.  Timestamps are stored as
    *runs*, one ``(start offset, stamp)`` pair per append call in two
    compact arrays, as Kafka writes LogAppendTime once in each record
    batch's header: a 1,000-record :meth:`append_batch` adds 16 bytes,
    not 1,000 stamps.
    Runs are never merged.  Only :meth:`read_timestamps` and
    :meth:`read_columns` expand them, into per-record ``array('d')``
    slabs built by one C-level repeat of each run's double; the bounds
    (:meth:`timestamp_bounds`, :meth:`first_timestamp`,
    :meth:`last_timestamp`) read the runs directly.  Values read out are
    exact C doubles, i.e. bit-identical to the floats that went in.

    **Column adoption** (the columnar data plane's zero-copy ingest and
    emit): when a batch arrives as a keyless
    :class:`~repro.dataflow.kernels.SlabColumn` — a window from the
    sender, or a window or row selection a query emitted — or as a
    keyless :class:`~repro.dataflow.kernels.FieldColumn` — wordcount's
    word ids and counts, statistics' minima, maxima and means — an empty
    log's value column *becomes* a log-private copy of it: a column over
    the same shared slab, or copies of the field arrays sharing the
    lookup.  A window contiguous with an adopted window widens it; a
    selection over the slab of an adopted selection appends its rows; a
    field column with the same lookup object and field dtypes appends
    its items (both amortised O(rows): the buffers grow by doubling).
    So ingesting a million-record workload, or emitting its identity,
    sample, grep, projection, wordcount or statistics output, appends no
    per-record objects at all, and the log never retains the caller's
    object.  Every other semantic is unchanged: timestamps are still
    stamped per batch with the broker clock, idempotent-produce
    sequencing is untouched (the sequence check runs before append, so a
    replayed batch never widens the column), and any operation the
    column cannot serve — a keyed or plain-list append, a non-contiguous
    or foreign-slab window, a window after a selection, a field column
    with another lookup or other dtypes — first *degrades* the column
    back to an ordinary list (materialising the records once) and
    proceeds exactly as before.  While adopted, the key column stays
    empty (adopted batches carry no keys); readers treat missing keys as
    ``None``.  Reads hand out columns over the same slab or arrays;
    trims and :meth:`truncate` narrow or drop the adopted column.

    **Bounded queues** (flow control): ``max_queue`` caps the number of
    *in-flight* records — appended but not yet acknowledged as consumed
    via :meth:`mark_consumed`.  An append that would exceed the bound
    raises the retryable :class:`QueueFullError` before touching any
    state; producers back off on simulated time and re-offer.  Bounded
    logs additionally *trim* consumed records (list storage and adopted
    columns alike), so broker-resident memory stays
    O(bound) no matter the offered load; ``start_offset`` then advances
    past the trimmed prefix and reads below it raise
    :class:`OffsetOutOfRangeError`, as in Kafka after retention kicks in.
    A trim drops the runs that end at or below the new start offset, and
    every run once the log is fully consumed.
    Unbounded logs (the default) never trim — the measurement path reads
    the full history, exactly as before.
    """

    def __init__(
        self,
        topic: str,
        partition: int,
        clock: SimClock,
        timestamp_type: TimestampType = TimestampType.LOG_APPEND_TIME,
        max_queue: int | None = None,
    ) -> None:
        if max_queue is not None and max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.topic = topic
        self.partition = partition
        self.timestamp_type = timestamp_type
        self.max_queue = max_queue
        self._clock = clock
        self._values: list[Any] = []
        self._keys: list[Any] = []
        #: Timestamp runs: the append call that stored offsets
        #: ``[_run_starts[i], _run_starts[i + 1])`` stamped them all with
        #: ``_run_stamps[i]`` (the last run ends at :attr:`end_offset`).
        self._run_starts: array = array("q")
        self._run_stamps: array = array("d")
        #: Offset of the first *retained* record (> 0 once a bounded log
        #: has trimmed its consumed prefix).
        self._base = 0
        #: Offset the next appended record receives: ``_base`` plus the
        #: value column's length, kept as a count so that reading it
        #: never asks an adopted column for its length.
        self._end = 0
        #: Consumption watermark: offsets below it are acknowledged.
        self._consumed = 0
        #: Idempotent-produce state: highest sequence number appended per
        #: producer id (Kafka's per-partition producer epoch/sequence check).
        self._producer_sequences: dict[int, int] = {}

    def __len__(self) -> int:
        """Number of broker-resident (retained) records."""
        return len(self._values)

    @property
    def start_offset(self) -> int:
        """Offset of the first retained record (0 until a bounded trim)."""
        return self._base

    @property
    def end_offset(self) -> int:
        """Offset that the *next* appended record will receive."""
        return self._end

    @property
    def consumed_offset(self) -> int:
        """The consumption watermark set by :meth:`mark_consumed`."""
        return self._consumed

    def queue_depth(self) -> int:
        """Records in flight: appended but not yet marked consumed."""
        return self._end - self._consumed

    def remaining_capacity(self) -> int | None:
        """How many more records fit under the bound (``None``: unbounded)."""
        if self.max_queue is None:
            return None
        return max(0, self.max_queue - (self._end - self._consumed))

    def ensure_capacity(self, count: int) -> None:
        """Raise :class:`QueueFullError` unless ``count`` records fit.

        Producers call this before registering idempotent sequences, so a
        rejected batch stays replayable verbatim.
        """
        depth = self._end - self._consumed
        if self.max_queue is not None and depth + count > self.max_queue:
            raise QueueFullError(self.topic, self.partition, depth, self.max_queue, count)

    def mark_consumed(self, offset: int) -> None:
        """Advance the consumption watermark to ``offset`` (monotonic).

        On bounded logs this also trims the consumed prefix out of the
        column storage — the backpressure loop's memory guarantee.
        Acknowledging beyond the log end raises
        :class:`OffsetOutOfRangeError`.
        """
        if offset > self._end:
            raise OffsetOutOfRangeError(self.topic, self.partition, offset)
        if offset > self._consumed:
            self._consumed = offset
        if self.max_queue is not None:
            self._trim_to(self._consumed)

    def _trim_to(self, offset: int) -> None:
        """Drop retained records below ``offset`` (bounded logs only)."""
        count = offset - self._base
        if count <= 0:
            return
        values = self._values
        if type(values) is list:
            del values[:count]
        else:  # adopted column: narrow it from the front, zero-copy
            values.start += count
        del self._keys[: min(count, len(self._keys))]
        self._base += count
        # Keep the run holding the new start offset, unless nothing is left.
        drop = len(self._run_starts)
        if self._end > self._base:
            drop = bisect_right(self._run_starts, self._base) - 1
        del self._run_starts[:drop]
        del self._run_stamps[:drop]

    def append(self, value: Any, key: Any = None, create_time: float | None = None) -> int:
        """Append one record and return its offset.

        The stored timestamp depends on the topic's timestamp type, exactly
        as in Kafka: ``LogAppendTime`` stamps with the broker clock,
        ``CreateTime`` keeps the producer timestamp (falling back to the
        broker clock when the producer did not set one).
        """
        self.ensure_capacity(1)
        if self.timestamp_type is TimestampType.LOG_APPEND_TIME:
            timestamp = self._clock.now()
        else:
            timestamp = create_time if create_time is not None else self._clock.now()
        if type(self._values) is not list:
            self._degrade()
        offset = self._end
        self._values.append(value)
        self._end = offset + 1
        self._keys.append(key)
        self._run_starts.append(offset)
        self._run_stamps.append(timestamp)
        return offset

    def append_batch(
        self, values: Sequence[Any], keys: Sequence[Any] | None = None
    ) -> int:
        """Append many records with the current LogAppendTime; returns the
        first assigned offset.

        Only valid for ``LogAppendTime`` topics (batch appends share one
        broker arrival instant, as a Kafka produce request does).  The
        sequences are copied into the log's column storage, never retained
        (a keyless :class:`~repro.dataflow.kernels.SlabColumn` or
        :class:`~repro.dataflow.kernels.FieldColumn` is adopted as a
        private copy of the column, not of its records).  A rejected
        batch (key count mismatch, full queue) changes no column.
        """
        if self.timestamp_type is not TimestampType.LOG_APPEND_TIME:
            raise ValueError("append_batch requires LogAppendTime")
        first = self._end
        count = len(values)
        if keys is not None and len(keys) != count:
            raise ValueError("keys and values must have equal length")
        if count == 0:
            return first
        self.ensure_capacity(count)
        self._store(values, keys, count)
        self._end = first + count
        # One LogAppendTime per batch, as in Kafka's batch header.
        self._run_starts.append(first)
        self._run_stamps.append(self._clock.now())
        return first

    def append_requests(
        self, values: Sequence[Any], batch_size: int, stamps: Sequence[float]
    ) -> int:
        """Append keyless ``values`` as consecutive produce requests of
        ``batch_size`` records; returns the first assigned offset.

        Request ``i`` holds ``values[i * batch_size : (i + 1) * batch_size]``
        and is stamped ``stamps[i]``: the log then holds what one
        :meth:`append_batch` per request would have stored had the clock
        read ``stamps[i]`` at request ``i``, from one extend of the value
        column and one run per request.  The caller computes the stamps
        (:meth:`~repro.broker.producer.Producer.send_values` replays a paced
        request timeline).  Only valid for ``LogAppendTime`` topics; a
        rejected call (bad batch size or stamp count, full queue) changes no
        column.
        """
        if self.timestamp_type is not TimestampType.LOG_APPEND_TIME:
            raise ValueError("append_requests requires LogAppendTime")
        first = self._end
        count = len(values)
        if batch_size < 1 or len(stamps) != -(-count // batch_size):
            raise ValueError("append_requests needs batch_size >= 1 and one stamp per request")
        if count == 0:
            return first
        self.ensure_capacity(count)
        self._store(values, None, count)
        self._end = first + count
        self._run_starts.extend(range(first, first + count, batch_size))
        self._run_stamps.extend(stamps)
        return first

    def _store(self, values: Sequence[Any], keys: Sequence[Any] | None, count: int) -> None:
        """Extend the value and key columns (adopting a keyless column)."""
        kind = type(values)
        if keys is None and (kind is SlabColumn or kind is FieldColumn):
            current = self._values
            if type(current) is kind and self._widen(current, values):
                return
            if not current:
                self._values = self._private_copy(values)
                return
        if type(self._values) is not list:
            self._degrade()
        self._values.extend(values)
        self._keys.extend([None] * count if keys is None else keys)

    @staticmethod
    def _widen(current, column) -> bool:
        """Append ``column`` in place to ``current``, the adopted column of
        the same type; ``False``, changing nothing, where it cannot.

        A window contiguous with an adopted window widens it, and a
        selection over the slab of an adopted selection appends its rows.
        A field column appends its items to an adopted field column with
        the same lookup object and field dtypes.
        """
        if type(column) is FieldColumn:
            dtypes = [field.dtype for field in column.fields]
            if column.lookup is not current.lookup or dtypes != [
                field.dtype for field in current.fields
            ]:
                return False
            items = tuple(field[column.start : column.stop] for field in column.fields)
            current.fields, current.start, current.stop = _append_items(
                current.fields, current.start, current.stop, items
            )
            return True
        if current.slab is not column.slab:
            return False
        if current.rows is None and column.rows is None:
            if column.start != current.stop:
                return False
            current.stop = column.stop
            return True
        if current.rows is None or column.rows is None:
            return False
        (current.rows,), current.start, current.stop = _append_items(
            (current.rows,), current.start, current.stop,
            (column.rows[column.start : column.stop],),
        )
        return True

    @staticmethod
    def _private_copy(column):
        """A column of the log's own over the same slab, rows or items, so
        the caller's object is never aliased."""
        if type(column) is FieldColumn:
            return FieldColumn(
                tuple(field[column.start : column.stop].copy() for field in column.fields),
                column.lookup,
            )
        if column.rows is None:
            return SlabColumn(column.slab, column.start, column.stop)
        return SlabColumn(column.slab, rows=column.rows[column.start : column.stop].copy())

    def _degrade(self) -> None:
        """Convert an adopted column back to plain list storage."""
        if type(self._values) is not list:
            self._values = list(self._values)
        if len(self._keys) < len(self._values):
            self._keys.extend([None] * (len(self._values) - len(self._keys)))

    def is_replay(self, producer_id: int, base_sequence: int) -> bool:
        """Non-mutating replay check: has this batch already landed?

        ``True`` when ``base_sequence`` does not advance past the highest
        sequence seen from ``producer_id`` — the batch was appended and
        only its acknowledgement was lost.  Producers consult this before
        :meth:`ensure_capacity`: a replay occupies no *new* queue space
        (its records are already resident), so flow control must not
        reject it even when the queue is full.
        """
        return base_sequence <= self._producer_sequences.get(producer_id, -1)

    def register_producer_batch(
        self, producer_id: int, base_sequence: int, count: int
    ) -> bool:
        """Record an idempotent producer batch; ``False`` if it is a replay.

        Mirrors Kafka's per-partition sequence check: a batch whose
        ``base_sequence`` does not advance past the highest sequence seen
        from ``producer_id`` has already been appended (its acknowledgement
        was lost in flight) and must be dropped, not re-appended.  The
        caller appends the records only when this returns ``True``.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        last = self._producer_sequences.get(producer_id, -1)
        if base_sequence <= last:
            return False
        self._producer_sequences[producer_id] = base_sequence + count - 1
        return True

    def read_columns(self, offset: int, max_records: int | None = None) -> RecordSlice:
        """Up to ``max_records`` records starting at ``offset``, as column slices.

        Reading at the log end returns an empty slice (a consumer catching
        up); reading beyond it — or below :attr:`start_offset` on a
        bounded log that trimmed — raises :class:`OffsetOutOfRangeError`.
        Column indices are offsets shifted down by the trimmed prefix.
        """
        if offset < self._base or offset > self._end:
            raise OffsetOutOfRangeError(self.topic, self.partition, offset)
        end = self._end if max_records is None else min(
            self._end, offset + max_records
        )
        lo, hi = offset - self._base, end - self._base
        keys = self._keys
        return RecordSlice(
            self.topic,
            self.partition,
            offset,
            self.timestamp_type,
            self._values[lo:hi],
            # An adopted value column carries no keys.
            keys[lo:hi] if len(keys) >= hi else None,
            self._stamps(offset, end),
        )

    def read(self, offset: int, max_records: int | None = None) -> list[ConsumerRecord]:
        """:meth:`read_columns` as :class:`ConsumerRecord` objects."""
        return self.read_columns(offset, max_records).records()

    def read_values(
        self, offset: int, max_records: int | None = None, copy: bool = True
    ) -> Sequence[Any]:
        """Like :meth:`read` but returns bare values (fast path).

        A slice of the value column: a ``list``, or, while the column is
        an adopted :class:`~repro.dataflow.kernels.SlabColumn` or
        :class:`~repro.dataflow.kernels.FieldColumn`, a column over the
        same slab or arrays (no record is copied or decoded).
        ``copy=False`` is a zero-copy full read: for ``offset == 0`` with
        no record cap it returns the live value column itself instead of
        a slice.  Callers requesting it must treat it as immutable (it
        *is* the log).  Handing out one stable list object also lets
        downstream kernel slabs cache per list identity across runs.
        """
        if offset < self._base or offset > self._end:
            raise OffsetOutOfRangeError(self.topic, self.partition, offset)
        index = offset - self._base
        if max_records is None:
            if not copy and index == 0:
                return self._values
            return self._values[index:]
        return self._values[index : index + max_records]

    def read_timestamps(self, offset: int, max_records: int | None = None) -> array:
        """Bulk-read the timestamp column starting at ``offset``.

        Returns a fresh ``array('d')`` slab with one stamp per record,
        expanded from the timestamp runs.  Pairs with :meth:`read_values`
        for consumers that need values + timestamps without
        ``ConsumerRecord`` objects.
        """
        if offset < self._base or offset > self._end:
            raise OffsetOutOfRangeError(self.topic, self.partition, offset)
        end = self._end
        if max_records is not None:
            end = min(end, offset + max_records)
        return self._stamps(offset, end)

    def _stamps(self, lo: int, hi: int) -> array:
        """Per-record stamps of offsets ``[lo, hi)``, expanded from the runs.

        Each run's share is one C-level repeat of a one-double slice: a
        drain that spans two runs costs a few microseconds, where NumPy's
        ``repeat`` costs several times that in call overhead.
        """
        starts, stamps = self._run_starts, self._run_stamps
        first = bisect_right(starts, lo)  # runs [first, last) start inside (lo, hi)
        last = bisect_left(starts, hi, first)
        if first == last:
            return stamps[first - 1 : first] * (hi - lo)
        out = stamps[first - 1 : first] * (starts[first] - lo)
        for run in range(first, last - 1):
            out += stamps[run : run + 1] * (starts[run + 1] - starts[run])
        out += stamps[last - 1 : last] * (hi - starts[last - 1])
        return out

    def record_at(self, offset: int) -> ConsumerRecord:
        """Return the single record at ``offset``."""
        if offset < self._base or offset >= self._end:
            raise OffsetOutOfRangeError(self.topic, self.partition, offset)
        return self.read_columns(offset, 1).records()[0]

    def first_timestamp(self) -> float | None:
        """Timestamp of the first record, or ``None`` for an empty log."""
        return self._run_stamps[0] if self._run_stamps else None

    def last_timestamp(self) -> float | None:
        """Timestamp of the last record, or ``None`` for an empty log."""
        return self._run_stamps[-1] if self._run_stamps else None

    def timestamp_bounds(self) -> tuple[float, float] | None:
        """``(first, last)`` timestamps off the runs, ``None`` when empty.

        One guarded read for the measurement path: the first retained
        run's stamp and the last run's — nothing is expanded.
        """
        stamps = self._run_stamps
        if not stamps:
            return None
        return stamps[0], stamps[-1]

    def iter_all(self) -> Iterator[ConsumerRecord]:
        """Iterate over every retained record in offset order."""
        return iter(self.read_columns(self._base).records())

    def truncate(self) -> None:
        """Drop all records (used when a topic is deleted and recreated)."""
        if type(self._values) is list:
            self._values.clear()
        else:  # adopted column: the slab is shared, just drop the window
            self._values = []
        self._keys.clear()
        # array has no clear() on py<=3.12
        del self._run_starts[:]
        del self._run_stamps[:]
        self._producer_sequences.clear()
        self._base = 0
        self._end = 0
        self._consumed = 0
