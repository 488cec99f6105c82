"""The record list as the versioned on-disk workload cache serves it.

``AolWorkload.records`` is the decode of the cached byte columns, so a
list read back from a disk entry must equal generation, a write that
fails must leave no entry behind, and a corrupted, truncated, edited or
stale entry must count as a miss.  ``test_columnar_cache.py`` checks the
columns themselves.
"""

from __future__ import annotations

import os

import pytest

from repro.workloads import aol
from repro.workloads.cache import (
    WorkloadCache,
    clear_memo,
    load_columnar_workload,
)


@pytest.fixture(autouse=True)
def fresh_memo():
    """Each test sees an empty in-process memo."""
    clear_memo()
    yield
    clear_memo()


@pytest.fixture
def cache(tmp_path):
    """A disk cache in a temp directory with no size threshold."""
    return WorkloadCache(tmp_path / "workloads", min_records=0)


class TestRoundTrip:
    def test_load_equals_generation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOAD_CACHE_DIR", str(tmp_path / "disk"))
        monkeypatch.setenv("REPRO_WORKLOAD_CACHE_MIN", "0")
        monkeypatch.delenv("REPRO_WORKLOAD_CACHE", raising=False)
        lines = aol.AolWorkload(3_000, seed=11).records
        assert lines == aol.generate_records(3_000, seed=11)
        clear_memo()
        # The second workload decodes its list from the mmap'ed entry.
        warm = aol.AolWorkload(3_000, seed=11)
        assert warm.columnar().mmap_backed
        assert warm.records == lines

    def test_entry_created_atomically(self, cache, monkeypatch):
        def fail_replace(src, dst):
            raise OSError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", fail_replace)
            lines = load_columnar_workload(2_000, seed=11, cache=cache).records
        # The failed write left neither a partial entry nor a temp file.
        assert lines == aol.generate_records(2_000, seed=11)
        assert list(cache.directory.iterdir()) == []
        clear_memo()
        load_columnar_workload(2_000, seed=11, cache=cache)
        entries = list(cache.directory.iterdir())
        assert [e.name for e in entries] == [cache.columns_path(11, 2_000).name]
        assert not any(e.name.endswith(".tmp") for e in entries)

    def test_memo_shares_one_list(self, cache):
        first = load_columnar_workload(1_000, seed=1, cache=cache).records
        assert load_columnar_workload(1_000, seed=1, cache=cache).records is first


class TestCorruptionAndStaleness:
    def test_corrupted_payload_detected_and_regenerated(self, cache):
        reference = load_columnar_workload(2_000, seed=9, cache=cache).records
        path = cache.columns_path(9, 2_000)
        data = bytearray(path.read_bytes())
        # The checksum covers the starts column, the part of the entry
        # that locates every record; flip a byte in its middle.
        header_len = data.index(b"\n") + 1
        data[header_len + 4 * 2_000] ^= 0xFF
        path.write_bytes(bytes(data))
        clear_memo()

        assert cache.load_columns(9, 2_000) is None
        assert not path.exists()  # the bad entry was dropped
        regenerated = load_columnar_workload(2_000, seed=9, cache=cache).records
        assert regenerated == reference
        assert path.exists()  # ... and replaced by a valid one
        clear_memo()
        assert cache.load_columns(9, 2_000).records == reference

    def test_truncated_entry_is_a_miss(self, cache):
        load_columnar_workload(2_000, seed=9, cache=cache)
        path = cache.columns_path(9, 2_000)
        # Losing only the last byte of the last record is enough.
        path.write_bytes(path.read_bytes()[:-1])
        clear_memo()
        assert cache.load_columns(9, 2_000) is None
        assert not path.exists()

    def test_stale_generator_version_is_a_miss(self, cache, monkeypatch):
        load_columnar_workload(2_000, seed=9, cache=cache)
        stale_path = cache.columns_path(9, 2_000)
        monkeypatch.setattr(aol, "GENERATOR_VERSION", aol.GENERATOR_VERSION + 1)
        # The new version keys a different path, so the old entry is
        # simply never consulted again.
        assert cache.columns_path(9, 2_000) != stale_path
        assert cache.load_columns(9, 2_000) is None
        assert stale_path.exists()

    def test_edited_header_is_a_miss(self, cache):
        load_columnar_workload(2_000, seed=9, cache=cache)
        path = cache.columns_path(9, 2_000)
        data = path.read_bytes()
        path.write_bytes(data.replace(b"records=2000", b"records=2001", 1))
        clear_memo()
        assert cache.load_columns(9, 2_000) is None
        assert not path.exists()
