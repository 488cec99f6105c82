"""Tests for repro.broker.log."""

from array import array

import numpy as np
import pytest

from repro.broker.errors import OffsetOutOfRangeError
from repro.broker.log import PartitionLog
from repro.broker.records import TimestampType
from repro.dataflow.kernels import FieldColumn, SlabColumn, slab_from_columns
from repro.simtime import SimClock
from repro.workloads.columnar import generate_columns


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def log(clock):
    return PartitionLog("t", 0, clock)


class TestAppend:
    def test_offsets_are_consecutive(self, log):
        assert [log.append(i) for i in range(5)] == [0, 1, 2, 3, 4]

    def test_end_offset_tracks_appends(self, log):
        assert log.end_offset == 0
        log.append("a")
        assert log.end_offset == 1

    def test_log_append_time_stamps_with_clock(self, clock, log):
        clock.advance(2.5)
        log.append("a")
        assert log.record_at(0).timestamp == 2.5

    def test_log_append_time_ignores_producer_timestamp(self, clock, log):
        clock.advance(2.5)
        log.append("a", create_time=99.0)
        assert log.record_at(0).timestamp == 2.5

    def test_create_time_keeps_producer_timestamp(self, clock):
        log = PartitionLog("t", 0, clock, TimestampType.CREATE_TIME)
        log.append("a", create_time=99.0)
        assert log.record_at(0).timestamp == 99.0

    def test_create_time_falls_back_to_clock(self, clock):
        log = PartitionLog("t", 0, clock, TimestampType.CREATE_TIME)
        clock.advance(1.0)
        log.append("a")
        assert log.record_at(0).timestamp == 1.0

    def test_timestamps_monotonic_as_clock_advances(self, clock, log):
        for i in range(10):
            clock.advance(0.5)
            log.append(i)
        stamps = [r.timestamp for r in log.iter_all()]
        assert stamps == sorted(stamps)


class TestAppendBatch:
    def test_batch_shares_append_time(self, clock, log):
        clock.advance(3.0)
        first = log.append_batch(["a", "b", "c"])
        assert first == 0
        assert all(r.timestamp == 3.0 for r in log.iter_all())

    def test_batch_returns_first_offset(self, log):
        log.append("x")
        assert log.append_batch(["a", "b"]) == 1

    def test_batch_with_keys(self, log):
        log.append_batch(["a", "b"], keys=["k1", "k2"])
        assert [r.key for r in log.iter_all()] == ["k1", "k2"]

    def test_batch_key_length_mismatch(self, log):
        """A rejected batch touches no column: the next append gets offset 0."""
        with pytest.raises(ValueError):
            log.append_batch(["a"], keys=["k1", "k2"])
        assert log.end_offset == 0
        assert len(log) == 0
        assert log.read(0) == []
        assert len(log.read_timestamps(0)) == 0
        assert log.append("b") == 0
        assert [(r.value, r.key) for r in log.read(0)] == [("b", None)]

    def test_batch_rejected_for_create_time(self, clock):
        log = PartitionLog("t", 0, clock, TimestampType.CREATE_TIME)
        with pytest.raises(ValueError):
            log.append_batch(["a"])


def slab_column(num_records: int, seed: int) -> SlabColumn:
    """A generated workload wrapped as a keyless slab column."""
    return SlabColumn(slab_from_columns(*generate_columns(num_records, seed)))


# Each scenario drives one ``append_batch`` path and returns the type of
# value column that path leaves behind.


def plain_list(log, append):
    append(["a", "b", "c"])
    append(["d"])
    append(["e", "f"])
    return list


def keyed_list(log, append):
    append(["a", "b"], keys=["k1", "k2"])
    append(["c", "d", "e"], keys=["k3", None, "k5"])
    return list


def first_adopted_window(log, append):
    append(slab_column(10, seed=2006).view(0, 4))
    return SlabColumn


def contiguous_widen(log, append):
    column = slab_column(10, seed=2006)
    for start, stop in ((0, 4), (4, 7), (7, 10)):
        append(column.view(start, stop))
    return SlabColumn


def foreign_window_degrade(log, append):
    append(slab_column(10, seed=2006).view(0, 4))
    append(slab_column(10, seed=2007).view(2, 5))
    append(["x", "y"])
    return list


def trimmed_then_readopted(log, append):
    append(slab_column(10, seed=2006).view(0, 4))
    log.mark_consumed(log.end_offset)  # a bounded log trims itself empty
    column = slab_column(10, seed=2007)
    append(column.view(0, 5))
    append(column.view(5, 8))
    return SlabColumn


#: The word lookup of the wordcount-shaped field columns below.
WORDS = np.array(["alpha", "beta", "gamma", "delta"], dtype=object)


def word_counts(codes, counts, lookup=WORDS) -> FieldColumn:
    """``(word, count)`` pairs as a field column of word ids and counts."""
    return FieldColumn((np.array(codes, np.int32), np.array(counts, np.int64)), lookup)


def first_adopted_fields(log, append):
    append(word_counts([0, 1, 0], [1, 1, 2]))
    return FieldColumn


def fields_widen(log, append):
    for codes in ([0, 1], [2, 0, 3], [1], [3, 3, 2, 0]):
        append(word_counts(codes, range(len(codes))))
    return FieldColumn


def foreign_lookup_degrade(log, append):
    append(word_counts([0, 1], [1, 1]))
    append(word_counts([0, 1], [1, 1], WORDS.copy()))
    return list


class TestBatchStamps:
    """Every ``append_batch`` path stores the batch's one LogAppendTime per
    record, bit for bit as a per-record ``[now] * count`` reference."""

    #: Clock advances between batches: doubles with untidy bit patterns.
    STEPS = (0.1 + 0.2, 1e-9, 1.0 / 3.0, 1e-9, 0.1 + 0.2)

    @pytest.mark.parametrize(
        "scenario",
        [
            plain_list,
            keyed_list,
            first_adopted_window,
            contiguous_widen,
            foreign_window_degrade,
            trimmed_then_readopted,
            first_adopted_fields,
            fields_widen,
            foreign_lookup_degrade,
        ],
    )
    def test_stamps_match_per_record_reference(self, clock, scenario):
        # Bounded, so that acknowledging records trims them.
        log = PartitionLog("t", 0, clock, max_queue=100)
        reference: list[float] = []  # indexed by offset
        steps = iter(self.STEPS)

        def append(values, keys=None):
            clock.advance(next(steps))
            log.append_batch(values, keys=keys)
            reference.extend([clock.now()] * len(values))

        storage = scenario(log, append)
        assert type(log._values) is storage
        start = log.start_offset
        retained = reference[start:]
        expected = array("d", retained).tobytes()
        assert log.read_timestamps(start).tobytes() == expected
        assert array("d", log.read_columns(start).timestamps).tobytes() == expected
        bounds = array("d", log.timestamp_bounds())
        assert bounds.tobytes() == array("d", (retained[0], retained[-1])).tobytes()


class TestRead:
    def test_read_all(self, log):
        log.append_batch(list(range(5)))
        assert [r.value for r in log.read(0)] == [0, 1, 2, 3, 4]

    def test_read_from_offset(self, log):
        log.append_batch(list(range(5)))
        assert [r.value for r in log.read(3)] == [3, 4]

    def test_read_with_limit(self, log):
        log.append_batch(list(range(5)))
        assert [r.value for r in log.read(1, max_records=2)] == [1, 2]

    def test_read_at_end_returns_empty(self, log):
        log.append("a")
        assert log.read(1) == []

    def test_read_past_end_raises(self, log):
        log.append("a")
        with pytest.raises(OffsetOutOfRangeError):
            log.read(2)

    def test_read_negative_raises(self, log):
        with pytest.raises(OffsetOutOfRangeError):
            log.read(-1)

    def test_read_values_fast_path(self, log):
        log.append_batch(list(range(5)))
        assert log.read_values(2) == [2, 3, 4]
        assert log.read_values(0, max_records=2) == [0, 1]

    def test_record_at_out_of_range(self, log):
        with pytest.raises(OffsetOutOfRangeError):
            log.record_at(0)

    def test_consumer_record_fields(self, clock, log):
        clock.advance(1.0)
        log.append("v", key="k")
        record = log.record_at(0)
        assert record.topic == "t"
        assert record.partition == 0
        assert record.offset == 0
        assert record.key == "k"
        assert record.value == "v"
        assert record.timestamp_type is TimestampType.LOG_APPEND_TIME


class TestTimestampSlab:
    """Timestamp reads are compact ``array('d')`` slabs, bit-exact."""

    def test_column_is_a_double_array(self, clock, log):
        clock.advance(0.1 + 0.2)
        log.append_batch(["a", "b"])
        clock.advance(1.0 / 3.0)
        log.append("c")
        stamps = log.read_timestamps(0)
        assert isinstance(stamps, array)
        assert stamps.typecode == "d"
        first, second = 0.1 + 0.2, 0.1 + 0.2 + 1.0 / 3.0
        assert stamps.tobytes() == array("d", (first, first, second)).tobytes()

    def test_read_timestamps_matches_records(self, clock, log):
        for i in range(6):
            clock.advance(0.1 + i * 0.01)
            log.append(i)
        stamps = log.read_timestamps(0)
        assert list(stamps) == [r.timestamp for r in log.iter_all()]

    def test_read_timestamps_offset_and_limit(self, clock, log):
        for i in range(5):
            clock.advance(1.0)
            log.append(i)
        assert list(log.read_timestamps(2)) == [3.0, 4.0, 5.0]
        assert list(log.read_timestamps(1, max_records=2)) == [2.0, 3.0]

    def test_read_timestamps_bounds(self, log):
        log.append("a")
        with pytest.raises(OffsetOutOfRangeError):
            log.read_timestamps(2)
        with pytest.raises(OffsetOutOfRangeError):
            log.read_timestamps(-1)

    def test_doubles_round_trip_exactly(self, clock, log):
        """array('d') stores C doubles: values read out are bit-identical."""
        awkward = 0.1 + 0.2  # not representable prettily, still exact
        clock.advance(awkward)
        log.append("a")
        assert log.read_timestamps(0)[0] == awkward

    def test_truncate_clears_timestamps(self, clock, log):
        clock.advance(1.0)
        log.append_batch(["a", "b"])
        log.truncate()
        assert len(log) == 0
        stamps = log.read_timestamps(0)
        assert stamps.typecode == "d"
        assert stamps.tobytes() == b""
        assert log.first_timestamp() is None
        assert log.last_timestamp() is None


class TestZeroCopyRead:
    """``read_values(copy=False)`` hands out the live column itself."""

    def test_full_read_from_zero_returns_live_column(self, log):
        log.append_batch(list(range(5)))
        values = log.read_values(0, copy=False)
        assert values is log._values

    def test_default_read_is_a_copy(self, log):
        log.append_batch(list(range(5)))
        values = log.read_values(0)
        assert values == list(range(5))
        assert values is not log._values

    def test_offset_or_capped_reads_always_copy(self, log):
        log.append_batch(list(range(5)))
        assert log.read_values(1, copy=False) is not log._values
        assert log.read_values(0, max_records=3, copy=False) is not log._values

    def test_live_column_sees_later_appends(self, log):
        """The zero-copy list IS the log: growth is visible (callers that
        requested it treat the list as read-only)."""
        log.append_batch(["a"])
        values = log.read_values(0, copy=False)
        log.append("b")
        assert values == ["a", "b"]


class TestTimestampsAndTruncate:
    def test_first_last_none_when_empty(self, log):
        assert log.first_timestamp() is None
        assert log.last_timestamp() is None

    def test_first_last_timestamps(self, clock, log):
        clock.advance(1.0)
        log.append("a")
        clock.advance(1.0)
        log.append("b")
        assert log.first_timestamp() == 1.0
        assert log.last_timestamp() == 2.0

    def test_truncate_clears(self, log):
        log.append_batch(["a", "b"])
        log.truncate()
        assert len(log) == 0
        assert log.first_timestamp() is None


class TestFieldColumnAdoption:
    """A keyless :class:`FieldColumn` becomes the value column and widens
    in place; everything the log hands out equals what the same records
    appended as a list of tuples give."""

    #: Batches of word ids; each batch's counts are its positions.
    BATCHES = ([0, 1, 0], [2], [3, 1, 1, 0, 2], [0, 3], [1, 2, 3, 0, 1, 2, 3])

    def batches(self):
        return [word_counts(codes, range(len(codes))) for codes in self.BATCHES]

    def twin_logs(self, clock, columns, max_queue=None):
        """A log fed ``columns`` and a log fed the same records as lists."""
        log = PartitionLog("t", 0, clock, max_queue=max_queue)
        reference = PartitionLog("t", 0, clock, max_queue=max_queue)
        for step, column in enumerate(columns):
            clock.advance(0.1 + step)
            log.append_batch(column)
            reference.append_batch(list(column))
        return log, reference

    def test_empty_log_copies_the_callers_arrays(self, log):
        column = word_counts([0, 1, 2], [1, 1, 1])
        expected = list(column)
        log.append_batch(column)
        adopted = log._values
        assert type(adopted) is FieldColumn and adopted is not column
        assert adopted.lookup is WORDS
        for mine, theirs in zip(adopted.fields, column.fields):
            assert not np.shares_memory(mine, theirs)
            theirs[:] = 3  # the caller reuses its arrays
        assert log.read_values(0) == expected

    def test_same_lookup_widens_in_place_across_a_doubling(self, clock):
        log, reference = self.twin_logs(clock, self.batches()[:1])
        adopted = log._values
        early = log.read_values(0)
        grown = kept = 0
        for column in self.batches()[1:]:
            buffer = adopted.fields[0]
            log.append_batch(column)
            reference.append_batch(list(column))
            if adopted.fields[0] is buffer:
                kept += 1
            else:
                grown += 1
        assert log._values is adopted  # widened, never replaced
        assert grown and kept  # appends both doubled and wrote in place
        assert len(adopted.fields[0]) >= len(log)
        assert log.read_values(0) == reference.read_values(0)
        assert early == reference.read_values(0, max_records=len(early))

    @pytest.mark.parametrize(
        "values, keys",
        [
            (["plain"], None),
            ([("alpha", 9)], ["k"]),
            (word_counts([1], [5], WORDS.copy()), None),
            (FieldColumn((np.array([1], np.int64), np.array([5], np.int64)), WORDS), None),
            (FieldColumn((np.array([1.0]), np.array([2.0]), np.array([3.0]))), None),
        ],
        ids=["list", "keyed", "foreign-lookup", "other-dtype", "other-fields"],
    )
    def test_degrades_to_the_per_tuple_list(self, clock, values, keys):
        log, reference = self.twin_logs(clock, self.batches())
        log.append_batch(values, keys=keys)
        reference.append_batch(list(values), keys=keys)
        assert type(log._values) is list
        assert repr(log._values) == repr(reference._values)
        assert log._keys == reference._keys

    def test_one_field_columns_adopt_widen_and_degrade(self, clock):
        """Distinct-count's one-field columns of running counts are
        adopted and widened in place like any field column, every read
        gives Python ints, and a list append degrades the log to the
        list of ints."""
        counts = ([1, 2, 2], [3], [3, 4, 5, 5])
        columns = [FieldColumn((np.array(batch, np.int64),)) for batch in counts]
        log, reference = self.twin_logs(clock, columns[:1])
        adopted = log._values
        assert type(adopted) is FieldColumn and len(adopted.fields) == 1
        for column in columns[1:]:
            log.append_batch(column)
            reference.append_batch(list(column))
        assert log._values is adopted
        expected = [count for batch in counts for count in batch]
        assert repr(list(log.read_values(0))) == repr(expected)
        assert repr(list(log.read_values(2, 3))) == repr(expected[2:5])
        assert log.record_at(4) == reference.record_at(4)
        assert type(log.record_at(4).value) is int
        log.append_batch(["plain"])
        reference.append_batch(["plain"])
        assert type(log._values) is list
        assert repr(log._values) == repr(reference._values) == repr([*expected, "plain"])

    def test_reads_match_the_list_path(self, clock):
        log, reference = self.twin_logs(clock, self.batches())
        end = log.end_offset
        for offset in range(end + 1):
            for cap in (None, 1, 3, end):
                mine = log.read_values(offset, cap)
                assert type(mine) is FieldColumn
                assert repr(list(mine)) == repr(reference.read_values(offset, cap))
                columns = log.read_columns(offset, cap)
                theirs = reference.read_columns(offset, cap)
                assert list(columns.values) == theirs.values
                assert columns.keys is None and theirs.keys == [None] * len(theirs)
                assert columns.timestamps == theirs.timestamps
        for offset in range(end):
            assert log.record_at(offset) == reference.record_at(offset)
        log.truncate()
        reference.truncate()
        assert log.read_values(0) == reference.read_values(0) == []
        assert log.read(0) == reference.read(0) == []
        column = word_counts([2, 3], [1, 1])
        log.append_batch(column)
        assert type(log._values) is FieldColumn
        assert log.read_values(0) == list(column)
