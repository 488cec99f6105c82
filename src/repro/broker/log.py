"""The partition log: an append-only sequence of timestamped records."""

from __future__ import annotations

from array import array
from typing import Any, Iterator, Sequence

from repro.broker.errors import OffsetOutOfRangeError, QueueFullError
from repro.broker.records import ConsumerRecord, RecordSlice, TimestampType
from repro.dataflow.kernels import SlabColumn
from repro.simtime import SimClock


class PartitionLog:
    """An append-only log for a single topic partition.

    Records receive consecutive offsets starting at zero.  When the owning
    topic is configured with ``LogAppendTime`` (the paper's setting), the
    broker stamps each record with the simulated clock at append time,
    ignoring any producer-provided timestamp; with ``CreateTime`` the
    producer's timestamp is preserved.

    Storage is column-oriented (parallel columns for values, keys and
    timestamps) — the benchmark appends tens of millions of records, and
    per-record objects would dominate memory and time.  The timestamp
    column is a compact ``array('d')`` slab, 8 bytes per record; values
    read out of it are exact C doubles, i.e. bit-identical to the floats
    that went in.  :meth:`append_batch` stamps a whole batch with one
    LogAppendTime, as Kafka writes it once in the batch header, and fills
    the column with a single C-level repeat of that double instead of
    unboxing one Python float per record.

    **Slab adoption** (the columnar data plane's zero-copy ingest): when a
    batch arrives as a keyless :class:`~repro.dataflow.kernels.SlabColumn`
    window, the value column *becomes* a log-private window over the same
    shared slab — contiguous follow-up batches just widen it, so ingesting
    a million-record workload appends no per-record objects at all.  Every
    other semantic is unchanged: timestamps are still stamped per batch
    with the broker clock, idempotent-produce sequencing is untouched (the
    sequence check runs before append, so a replayed batch never widens
    the window), and any operation the window cannot serve — a keyed or
    plain-list append, a non-contiguous window — first *degrades* the
    column back to an ordinary list (materialising the records once) and
    proceeds exactly as before.  While adopted, the key column stays empty
    (adopted batches carry no keys); readers treat missing keys as
    ``None``.

    **Bounded queues** (flow control): ``max_queue`` caps the number of
    *in-flight* records — appended but not yet acknowledged as consumed
    via :meth:`mark_consumed`.  An append that would exceed the bound
    raises the retryable :class:`QueueFullError` before touching any
    state; producers back off on simulated time and re-offer.  Bounded
    logs additionally *trim* consumed records (both list storage and
    adopted slab windows), so broker-resident memory stays O(bound) no
    matter the offered load; ``start_offset`` then advances past the
    trimmed prefix and reads below it raise
    :class:`OffsetOutOfRangeError`, as in Kafka after retention kicks in.
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
        self._timestamps: array = array("d")
        #: Offset of the first *retained* record (> 0 once a bounded log
        #: has trimmed its consumed prefix).
        self._base = 0
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
        return self._base + len(self._values)

    @property
    def consumed_offset(self) -> int:
        """The consumption watermark set by :meth:`mark_consumed`."""
        return self._consumed

    def queue_depth(self) -> int:
        """Records in flight: appended but not yet marked consumed."""
        return self.end_offset - self._consumed

    def remaining_capacity(self) -> int | None:
        """How many more records fit under the bound (``None``: unbounded)."""
        if self.max_queue is None:
            return None
        return max(0, self.max_queue - self.queue_depth())

    def ensure_capacity(self, count: int) -> None:
        """Raise :class:`QueueFullError` unless ``count`` records fit.

        Producers call this before registering idempotent sequences, so a
        rejected batch stays replayable verbatim.
        """
        if self.max_queue is not None and self.queue_depth() + count > self.max_queue:
            raise QueueFullError(
                self.topic, self.partition, self.queue_depth(), self.max_queue, count
            )

    def mark_consumed(self, offset: int) -> None:
        """Advance the consumption watermark to ``offset`` (monotonic).

        On bounded logs this also trims the consumed prefix out of the
        column storage — the backpressure loop's memory guarantee.
        Acknowledging beyond the log end raises
        :class:`OffsetOutOfRangeError`.
        """
        if offset > self.end_offset:
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
        else:  # adopted slab window: narrow it from the front, zero-copy
            values.start += count
        del self._keys[: min(count, len(self._keys))]
        del self._timestamps[:count]
        self._base += count

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
        offset = self.end_offset
        self._values.append(value)
        self._keys.append(key)
        self._timestamps.append(timestamp)
        return offset

    def append_batch(
        self, values: Sequence[Any], keys: Sequence[Any] | None = None
    ) -> int:
        """Append many records with the current LogAppendTime; returns the
        first assigned offset.

        Only valid for ``LogAppendTime`` topics (batch appends share one
        broker arrival instant, as a Kafka produce request does).  The
        sequences are copied into the log's column storage, never retained.
        A rejected batch (key count mismatch, full queue) changes no column.
        """
        if self.timestamp_type is not TimestampType.LOG_APPEND_TIME:
            raise ValueError("append_batch requires LogAppendTime")
        first = self.end_offset
        count = len(values)
        if keys is not None and len(keys) != count:
            raise ValueError("keys and values must have equal length")
        if count == 0:
            return first
        self.ensure_capacity(count)
        # One LogAppendTime per batch, repeated by a C memcpy rather than
        # unboxed from a Python float once per record.
        stamps = array("d", (self._clock.now(),)) * count
        if keys is None and type(values) is SlabColumn:
            self._adopt_column(values)
        else:
            if type(self._values) is not list:
                self._degrade()
            self._values.extend(values)
            self._keys.extend([None] * count if keys is None else keys)
        self._timestamps.extend(stamps)
        return first

    def _adopt_column(self, view: SlabColumn) -> None:
        """Take a slab window as (part of) the value column, zero-copy.

        A window contiguous with the current adopted column widens it in
        place; a window arriving on an empty log becomes the column (a
        log-private copy of the window object, so the producer's batch
        views are never aliased).  Anything else materialises — except a
        foreign-slab window hitting a log whose adopted column was trimmed
        empty: that *re-adopts* (and releases the previous chunk's slab),
        which is what keeps a chunk-streamed ingest of per-chunk slabs
        resident-bounded at O(chunk) instead of materialising every chunk.
        """
        current = self._values
        if type(current) is SlabColumn:
            if current.slab is view.slab and view.start == current.stop:
                current.extend_to(view.stop)
                return
            if len(current) == 0:
                # Trimmed empty: re-adopt without degrading — degrading
                # would decode the *old* slab's full record list just to
                # copy zero rows out of it.
                self._values = SlabColumn(view.slab, view.start, view.stop)
                return
            self._degrade()
            current = self._values
        if not current:
            self._values = SlabColumn(view.slab, view.start, view.stop)
            return
        current.extend(view)
        self._keys.extend([None] * len(view))

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
        if offset < self._base or offset > self.end_offset:
            raise OffsetOutOfRangeError(self.topic, self.partition, offset)
        end = self.end_offset if max_records is None else min(
            self.end_offset, offset + max_records
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
            self._timestamps[lo:hi],
        )

    def read(self, offset: int, max_records: int | None = None) -> list[ConsumerRecord]:
        """:meth:`read_columns` as :class:`ConsumerRecord` objects."""
        return self.read_columns(offset, max_records).records()

    def read_values(
        self, offset: int, max_records: int | None = None, copy: bool = True
    ) -> list[Any]:
        """Like :meth:`read` but returns bare values (fast path).

        ``copy=False`` is a zero-copy full read: for ``offset == 0`` with
        no record cap it returns the live value column itself instead of
        a slice.  Callers requesting it must treat the list as immutable
        (it *is* the log).  Handing out one stable list object also lets
        downstream kernel slabs cache per list identity across runs.
        """
        if offset < self._base or offset > self.end_offset:
            raise OffsetOutOfRangeError(self.topic, self.partition, offset)
        index = offset - self._base
        if max_records is None:
            if not copy and index == 0:
                return self._values
            return self._values[index:]
        return self._values[index : index + max_records]

    def read_timestamps(self, offset: int, max_records: int | None = None) -> array:
        """Bulk-read the timestamp column starting at ``offset``.

        Returns an ``array('d')`` slab (a compact copy of the column
        slice; the backing store keeps growing, so a live view cannot be
        handed out).  Pairs with :meth:`read_values` for consumers that
        need values + timestamps without ``ConsumerRecord`` objects.
        """
        if offset < self._base or offset > self.end_offset:
            raise OffsetOutOfRangeError(self.topic, self.partition, offset)
        index = offset - self._base
        if max_records is None:
            return self._timestamps[index:]
        return self._timestamps[index : index + max_records]

    def record_at(self, offset: int) -> ConsumerRecord:
        """Return the single record at ``offset``."""
        if offset < self._base or offset >= self.end_offset:
            raise OffsetOutOfRangeError(self.topic, self.partition, offset)
        return self.read_columns(offset, 1).records()[0]

    def first_timestamp(self) -> float | None:
        """Timestamp of the first record, or ``None`` for an empty log."""
        return self._timestamps[0] if self._timestamps else None

    def last_timestamp(self) -> float | None:
        """Timestamp of the last record, or ``None`` for an empty log."""
        return self._timestamps[-1] if self._timestamps else None

    def timestamp_bounds(self) -> tuple[float, float] | None:
        """``(first, last)`` timestamps off the column, ``None`` when empty.

        One guarded read for the measurement path: both bounds come from
        the ``array('d')`` column directly — no record materialisation.
        """
        timestamps = self._timestamps
        if not timestamps:
            return None
        return timestamps[0], timestamps[-1]

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
        del self._timestamps[:]  # array('d') has no clear() on py<=3.12
        self._producer_sequences.clear()
        self._base = 0
        self._consumed = 0
