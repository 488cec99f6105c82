"""LogAppendTime runs against a per-record timestamp column.

``PartitionLog`` stores one ``(start offset, stamp)`` run per append call
and expands runs only when a read asks for per-record stamps.  The
property below drives a run-stored log and a model that keeps one double
per record, as the log did before runs, through the same random
sequence of appends, acknowledgements and truncations, and requires
every timestamp read to give the same bytes on both.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.broker.errors import OffsetOutOfRangeError, QueueFullError
from repro.broker.log import PartitionLog
from repro.broker.records import TimestampType
from repro.simtime import SimClock
from tests.slabs import slab_column

#: Clock steps whose sums are not exact in binary, plus zero.
STEPS = (0.0, 0.1 + 0.2, 1e-9, 1.0 / 3.0, 2e-4, 1e-7 * 999)

#: One slab whose windows the column appends take.
COLUMN = slab_column([f"line {i}" for i in range(400)])


def bits(stamps) -> bytes:
    return array("d", stamps).tobytes()


class PerRecordLog:
    """The model: values and one LogAppendTime double per record."""

    def __init__(self, max_queue: int | None) -> None:
        self.max_queue = max_queue
        self.values: list = []
        self.stamps = array("d")
        self.base = 0
        self.consumed = 0

    @property
    def end(self) -> int:
        return self.base + len(self.values)

    def fits(self, count: int) -> bool:
        return self.max_queue is None or self.end - self.consumed + count <= self.max_queue

    def append(self, values, stamps) -> None:
        self.values.extend(values)
        self.stamps.extend(stamps)

    def mark_consumed(self, offset: int) -> None:
        self.consumed = max(self.consumed, offset)
        if self.max_queue is not None and self.consumed > self.base:
            del self.values[: self.consumed - self.base]
            del self.stamps[: self.consumed - self.base]
            self.base = self.consumed

    def truncate(self) -> None:
        self.values.clear()
        del self.stamps[:]
        self.base = self.consumed = 0

    def read(self, offset: int, max_records: int | None) -> tuple[list, array]:
        lo = offset - self.base
        hi = len(self.values) if max_records is None else lo + max_records
        return self.values[lo:hi], self.stamps[lo:hi]


operations = st.one_of(
    st.tuples(st.just("advance"), st.sampled_from(STEPS)),
    st.tuples(st.just("batch"), st.integers(0, 6), st.sampled_from(["list", "window"])),
    st.tuples(st.just("requests"), st.integers(0, 9), st.integers(1, 4)),
    st.tuples(
        st.just("append"),
        st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
    ),
    st.tuples(st.just("consume"), st.integers(0, 5)),
    st.tuples(st.just("truncate")),
    st.tuples(st.just("read"), st.integers(0, 60), st.one_of(st.none(), st.integers(1, 8))),
)


def check_read(log: PartitionLog, model: PerRecordLog, offset: int, max_records) -> None:
    if offset < model.base or offset > model.end:
        with pytest.raises(OffsetOutOfRangeError):
            log.read_timestamps(offset, max_records)
        with pytest.raises(OffsetOutOfRangeError):
            log.read_columns(offset, max_records)
        return
    values, stamps = model.read(offset, max_records)
    read = log.read_timestamps(offset, max_records)
    assert read.typecode == "d"
    assert read.tobytes() == stamps.tobytes()
    columns = log.read_columns(offset, max_records)
    assert bits(columns.timestamps) == stamps.tobytes()
    assert list(columns.values) == values


def check_bounds(log: PartitionLog, model: PerRecordLog) -> None:
    assert log.start_offset == model.base
    assert log.end_offset == model.end
    if not model.stamps:
        assert log.timestamp_bounds() is None
        assert log.first_timestamp() is None and log.last_timestamp() is None
        return
    edges = bits((model.stamps[0], model.stamps[-1]))
    assert bits(log.timestamp_bounds()) == edges
    assert bits((log.first_timestamp(), log.last_timestamp())) == edges


@settings(max_examples=200, deadline=None)
@given(
    timestamp_type=st.sampled_from(list(TimestampType)),
    max_queue=st.sampled_from([None, 4, 12]),
    ops=st.lists(operations, max_size=30),
)
def test_runs_read_like_a_per_record_column(timestamp_type, max_queue, ops):
    clock = SimClock()
    log = PartitionLog("t", 0, clock, timestamp_type, max_queue=max_queue)
    model = PerRecordLog(max_queue)
    log_append_time = timestamp_type is TimestampType.LOG_APPEND_TIME
    next_row = 0  # the column appends take consecutive windows of COLUMN
    for op in ops:
        kind = op[0]
        if kind == "advance":
            clock.advance(op[1])
        elif kind in ("batch", "requests"):
            count = op[1]
            if kind == "batch" and op[2] == "window" and next_row + count <= len(COLUMN):
                values = COLUMN[next_row : next_row + count]
                next_row += count
            else:
                values = [f"v{model.end + i}" for i in range(count)]
            if kind == "batch":
                batch_size, stamps = max(count, 1), [clock.now()] if count else []
            else:
                batch_size, stamps, now = op[2], [], clock.now()
                for request in range(-(-count // batch_size)):
                    now += STEPS[request % len(STEPS)]
                    stamps.append(now)

            def append():
                if kind == "batch":
                    return log.append_batch(values)
                return log.append_requests(values, batch_size, stamps)

            if not log_append_time:
                with pytest.raises(ValueError):
                    append()
            elif count and not model.fits(count):
                with pytest.raises(QueueFullError):
                    append()
            else:
                assert append() == model.end
                per_record = array("d")
                for index, stamp in enumerate(stamps):
                    size = min(batch_size, count - index * batch_size)
                    per_record.extend(array("d", (stamp,)) * size)
                model.append(list(values), per_record)
        elif kind == "append":
            if not model.fits(1):
                with pytest.raises(QueueFullError):
                    log.append("x", create_time=op[1])
            else:
                value = f"a{model.end}"
                stamp = clock.now() if log_append_time or op[1] is None else op[1]
                assert log.append(value, create_time=op[1]) == model.end
                model.append([value], array("d", (stamp,)))
        elif kind == "consume":
            offset = min(model.consumed + op[1], model.end)
            log.mark_consumed(offset)
            model.mark_consumed(offset)
        elif kind == "truncate":
            log.truncate()
            model.truncate()
        else:
            check_read(log, model, op[1], op[2])
        check_bounds(log, model)
    for offset in range(model.base - 1, model.end + 2):
        for max_records in (None, 1, 2, 5):
            check_read(log, model, offset, max_records)
        if model.base <= offset < model.end:
            stamp = model.stamps[offset - model.base]
            assert bits((log.record_at(offset).timestamp,)) == bits((stamp,))

