"""Tests for the synthetic AOL workload."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.aol import (
    AolWorkload,
    FULL_SCALE_GREP_MATCHES,
    FULL_SCALE_RECORDS,
    GENERATOR_VERSION,
    GREP_NEEDLE,
    expected_grep_matches,
    generate_records,
    iter_record_chunks,
    parse_record,
)


class TestGeneration:
    def test_record_count(self):
        assert len(generate_records(500)) == 500

    def test_zero_records(self):
        assert generate_records(0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            generate_records(-1)

    def test_deterministic_given_seed(self):
        assert generate_records(200, seed=5) == generate_records(200, seed=5)

    def test_different_seeds_differ(self):
        assert generate_records(200, seed=5) != generate_records(200, seed=6)

    def test_five_tab_separated_columns(self):
        for line in generate_records(300):
            assert len(line.split("\t")) == 5

    def test_parse_roundtrip(self):
        for line in generate_records(50):
            assert parse_record(line).line() == line

    def test_parse_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            parse_record("a\tb")

    def test_grep_matches_exact(self):
        lines = generate_records(10_000)
        actual = sum(1 for line in lines if GREP_NEEDLE in line)
        assert actual == expected_grep_matches(10_000)

    def test_full_scale_match_count_is_papers(self):
        assert expected_grep_matches(FULL_SCALE_RECORDS) == FULL_SCALE_GREP_MATCHES

    def test_matches_spread_not_clustered(self):
        lines = generate_records(10_000)
        positions = [i for i, line in enumerate(lines) if GREP_NEEDLE in line]
        assert positions[0] < 1_000
        assert positions[-1] > 9_000

    def test_rank_and_url_sometimes_empty(self):
        records = [parse_record(line) for line in generate_records(500)]
        with_click = sum(1 for r in records if r.click_url)
        assert 100 < with_click < 400
        for r in records:
            assert bool(r.item_rank) == bool(r.click_url)

    def test_query_times_shape(self):
        record = parse_record(generate_records(1)[0])
        assert record.query_time.startswith("2006-03-")
        assert len(record.query_time) == len("2006-03-01 07:17:12")


class TestChunkedGeneration:
    """The bulk generator is the same byte stream, chunked."""

    #: SHA-256 of "\n".join(lines) for generator version 1.  A change here
    #: means the generated workload changed: bump GENERATOR_VERSION (the
    #: disk cache keys entries by it) and re-derive these pins.
    GOLDEN_SHA256 = {
        (2_000, 2006): "db0f5a6ed7d719c49f86bfe186dc9c2c180b19c84b983b8a02eb7c3f4cddb3d5",
        (2_000, 7): "679fa7b341046657bfc6e08a9b296c43c1c7f62335131baa674899295dbf477c",
        (10_000, 2006): "974a53809244cbd4bdef380a4f7f586c0b45f8ba9857a1444d0e6176a7abe04b",
    }

    def test_generated_bytes_pinned(self):
        assert GENERATOR_VERSION == 1
        for (n, seed), expected in self.GOLDEN_SHA256.items():
            digest = hashlib.sha256(
                "\n".join(generate_records(n, seed)).encode("utf-8")
            ).hexdigest()
            assert digest == expected, (n, seed)

    @pytest.mark.parametrize("chunk_size", [1, 7, 999, 5_000, 100_000])
    def test_chunks_concatenate_to_flat_generation(self, chunk_size):
        chunks = list(iter_record_chunks(5_000, seed=13, chunk_size=chunk_size))
        assert all(len(c) <= chunk_size for c in chunks)
        flat = [line for chunk in chunks for line in chunk]
        assert flat == generate_records(5_000, seed=13)

    def test_zero_records_yields_nothing(self):
        assert list(iter_record_chunks(0)) == []

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            list(iter_record_chunks(10, chunk_size=0))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            list(iter_record_chunks(-1))


class TestWorkloadWrapper:
    def test_lazy_and_cached(self):
        workload = AolWorkload(100)
        assert workload._columnar is None
        first = workload.records
        assert workload.records is first

    def test_grep_matches_property(self):
        workload = AolWorkload(10_000)
        assert workload.grep_matches == expected_grep_matches(10_000)

    def test_verify_passes(self):
        AolWorkload(2_000).verify()

    def test_verify_samples_whole_stream(self, monkeypatch):
        """A malformed record far beyond the first 100 lines is caught."""
        workload = AolWorkload(5_000)
        lines = list(workload.records)
        lines[4_999] = "no tabs at all"
        monkeypatch.setattr(AolWorkload, "records", lines)
        with pytest.raises(ValueError):
            workload.verify()

    def test_verify_stride_covers_interior(self, monkeypatch):
        workload = AolWorkload(5_000)
        lines = list(workload.records)
        lines[2_500] = "broken\tline"
        monkeypatch.setattr(AolWorkload, "records", lines)
        with pytest.raises(ValueError):
            workload.verify(sample_stride=1)

    def test_verify_empty_workload(self):
        AolWorkload(0).verify()

    def test_verify_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            AolWorkload(100).verify(sample_stride=0)


class TestProperties:
    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=20, deadline=None)
    def test_match_count_exact_at_any_scale(self, n):
        lines = generate_records(n, seed=3)
        assert sum(1 for s in lines if GREP_NEEDLE in s) == expected_grep_matches(n)

    @given(st.integers(min_value=1, max_value=5_000))
    @settings(max_examples=20, deadline=None)
    def test_columns_always_five(self, n):
        lines = generate_records(n, seed=4)
        assert all(len(line.split("\t")) == 5 for line in lines)

    @given(st.integers(min_value=0, max_value=FULL_SCALE_RECORDS))
    def test_expected_matches_proportional(self, n):
        matches = expected_grep_matches(n)
        assert 0 <= matches <= n or n == 0
        assert matches == round(n * FULL_SCALE_GREP_MATCHES / FULL_SCALE_RECORDS)
