"""Chunked workload generation: identity, pins and re-adoption.

``iter_column_chunks`` is the chunked generator :func:`generate_columns`
is built on: it yields the workload as O(chunk)-byte column pairs whose
concatenation must be **bit-identical** to :func:`generate_columns` — the
RNG word stream runs seamlessly across chunk boundaries, whatever the
chunk size.  The golden SHA-256 pins freeze the byte stream at 200k
records so a generator change that silently alters the workload (and
therefore every benchmark number) fails loudly.  The re-adoption tests
cover a bounded log fed columns of different slabs: a drained log takes
the new slab's window as its value column, zero-copy, and a partly
drained one keeps its data.
"""

from __future__ import annotations

import hashlib
from array import array

import pytest

from repro.broker.log import PartitionLog
from repro.dataflow.kernels import SlabColumn, slab_from_columns
from repro.simtime import SimClock
from repro.workloads import columnar
from repro.workloads.columnar import generate_columns, iter_column_chunks

#: Frozen digests of the 200k-record workload (seed 2006), computed from
#: ``generate_columns`` — the stream must reproduce them byte for byte.
GOLDEN_RECORDS = 200_000
GOLDEN_DATA_SHA256 = (
    "b0b538e4c1d6f0e6e8be0a798e09df4dd706b704e33bfd9fa3b20ee520d641e9"
)
GOLDEN_STARTS_SHA256 = (
    "d80cec90329d8fde6fbdea5330a9cdf7efa05a7d3a32f2e8370ffe9b16683141"
)


def assemble(num_records: int, seed: int = 2006, chunk_records: int = 50_000):
    """Reassemble a chunk stream into (data, absolute starts)."""
    parts: list[bytes] = []
    starts = array("q")
    offset = 0
    for data, chunk_starts in iter_column_chunks(
        num_records, seed, chunk_records=chunk_records
    ):
        starts.extend(s + offset for s in chunk_starts)
        parts.append(data)
        offset += len(data) + 1
    return b"\n".join(parts), starts


class TestGoldenPins:
    @pytest.fixture(scope="class")
    def generated(self):
        return generate_columns(GOLDEN_RECORDS)

    def test_generate_columns_matches_pinned_digests(self, generated):
        data, starts = generated
        assert hashlib.sha256(bytes(data)).hexdigest() == GOLDEN_DATA_SHA256
        raw = starts.tobytes() if hasattr(starts, "tobytes") else bytes(starts)
        assert hashlib.sha256(raw).hexdigest() == GOLDEN_STARTS_SHA256

    def test_chunk_stream_matches_pinned_digest(self, generated):
        data, starts = assemble(GOLDEN_RECORDS, chunk_records=33_333)
        assert hashlib.sha256(data).hexdigest() == GOLDEN_DATA_SHA256
        assert hashlib.sha256(starts.tobytes()).hexdigest() == GOLDEN_STARTS_SHA256
        assert bytes(generated[0]) == data


class TestChunkBoundaries:
    """The stream is chunk-size-invariant: any split, same bytes."""

    @pytest.mark.parametrize("chunk_records", [1, 7, 999, 2_337, 10_000])
    def test_any_chunk_size_reassembles_identically(self, chunk_records):
        reference_data, reference_starts = generate_columns(2_337)
        data, starts = assemble(2_337, chunk_records=chunk_records)
        assert data == bytes(reference_data)
        assert list(starts) == list(reference_starts)

    def test_chunk_starts_are_chunk_relative(self):
        for data, starts in iter_column_chunks(3_000, chunk_records=1_000):
            assert starts[0] == 0
            assert len(data) > int(starts[-1])

    def test_zero_records_yields_nothing(self):
        assert list(iter_column_chunks(0)) == []

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError, match="num_records"):
            list(iter_column_chunks(-1))
        with pytest.raises(ValueError, match="chunk_records"):
            list(iter_column_chunks(10, chunk_records=0))


class TestPythonFallbackStream:
    def test_python_stream_matches_public_stream(self):
        """The pure-Python chunk iterator yields the identical stream."""
        chunks = list(columnar._iter_columns_python(2_000, 2006, 700))
        native = list(iter_column_chunks(2_000, chunk_records=700))
        assert [c[0] for c in chunks] == [bytes(c[0]) for c in native]
        assert [list(c[1]) for c in chunks] == [list(c[1]) for c in native]


@pytest.fixture
def bounded_log():
    return PartitionLog("t", 0, SimClock(), max_queue=1_000)


def chunk_column(num_records: int, seed: int = 2006):
    """One generated chunk wrapped as a SlabColumn."""
    data, starts = generate_columns(num_records, seed)
    return SlabColumn(slab_from_columns(data, starts))


class TestTrimmedLogReAdoption:
    """Drained logs adopt the next slab's column."""

    def test_foreign_slab_readopts_after_trim_to_empty(self, bounded_log):
        first = chunk_column(500, seed=2006)
        second = chunk_column(500, seed=2007)
        bounded_log.append_batch(first.view(0, 500))
        bounded_log.mark_consumed(bounded_log.end_offset)  # trims empty
        bounded_log.append_batch(second.view(0, 500))
        # A fresh zero-copy window over the *new* chunk's slab — not a
        # materialised list of the old one, whose slab stays undecoded.
        assert type(bounded_log._values) is SlabColumn
        assert bounded_log._values.slab is second.slab
        assert first.slab.records is None
        assert bounded_log.read_values(bounded_log.start_offset) == second[0:500]

    def test_partial_trim_still_degrades_on_foreign_slab(self, bounded_log):
        """Only a *fully* drained log may re-adopt — data must survive."""
        first = chunk_column(500, seed=2006)
        second = chunk_column(500, seed=2007)
        bounded_log.append_batch(first.view(0, 500))
        bounded_log.mark_consumed(bounded_log.end_offset - 100)
        bounded_log.append_batch(second.view(0, 500))
        assert type(bounded_log._values) is list
        assert (
            bounded_log.read_values(bounded_log.start_offset)
            == first[400:500] + second[0:500]
        )

    def test_streamed_chunks_stay_bounded(self, bounded_log):
        """Chunk in, drain, chunk in: depth never exceeds one chunk, and
        each chunk's slab is adopted as a column."""
        for seed in (2006, 2007, 2008):
            column = chunk_column(1_000, seed=seed)
            for start in range(0, 1_000, 250):
                bounded_log.append_batch(column.view(start, start + 250))
            assert bounded_log.queue_depth() == 1_000
            assert type(bounded_log._values) is SlabColumn
            bounded_log.mark_consumed(bounded_log.end_offset)
            assert bounded_log.queue_depth() == 0
        assert bounded_log.end_offset == 3_000
