"""The workload cache: the in-process memo and the memmap-backed disk tier.

Round trips, corruption and staleness: a loaded entry must be
bit-identical to generation, and any invalid file — truncated, edited
offsets, foreign header — must count as a miss, be unlinked, and be
replaced by regeneration.  Tiering: small workloads stay memory-only,
the environment knobs switch the disk tier, and an unwritable directory
falls back to generation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads import aol
from repro.workloads.cache import (
    WorkloadCache,
    clear_memo,
    load_columnar_workload,
)
from repro.workloads.columnar import generate_columns


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_memo()
    yield
    clear_memo()


@pytest.fixture
def cache(tmp_path):
    return WorkloadCache(tmp_path / "workloads", min_records=0)


class TestRoundTrip:
    def test_load_equals_generation(self, cache):
        workload = load_columnar_workload(3_000, seed=11, cache=cache)
        assert workload.records == aol.generate_records(3_000, seed=11)
        clear_memo()
        # Second load comes from the mmap'ed entry, not generation.
        warm = load_columnar_workload(3_000, seed=11, cache=cache)
        assert warm is not workload
        assert warm._mmap is not None
        assert bytes(warm.data) == bytes(workload.data)
        assert list(warm.starts) == list(workload.starts)
        assert warm.records == workload.records

    def test_empty_workload(self, cache):
        assert load_columnar_workload(0, seed=3, cache=cache).records == []
        clear_memo()
        assert load_columnar_workload(0, seed=3, cache=cache).records == []

    def test_keys_are_independent(self, cache):
        a = load_columnar_workload(1_000, seed=1, cache=cache)
        b = load_columnar_workload(1_000, seed=2, cache=cache)
        c = load_columnar_workload(1_500, seed=1, cache=cache)
        assert a.records != b.records
        assert len(c.records) == 1_500
        assert len(list(cache.directory.iterdir())) == 3

    def test_memo_shares_one_workload(self, cache):
        first = load_columnar_workload(1_000, seed=1, cache=cache)
        assert load_columnar_workload(1_000, seed=1, cache=cache) is first

    def test_entry_created_atomically(self, cache):
        load_columnar_workload(2_000, seed=11, cache=cache)
        entries = list(cache.directory.iterdir())
        assert [e.name for e in entries] == [cache.columns_path(11, 2_000).name]
        assert not any(e.name.endswith(".tmp") for e in entries)

    def test_mmap_columns_are_zero_copy_views(self, cache):
        load_columnar_workload(2_500, seed=5, cache=cache)
        clear_memo()
        warm = load_columnar_workload(2_500, seed=5, cache=cache)
        assert isinstance(warm.data, memoryview)
        assert isinstance(warm.starts, np.ndarray)
        assert not warm.starts.flags.owndata


class TestCorruption:
    def _seed_entry(self, cache, n=1_500, seed=7):
        load_columnar_workload(n, seed=seed, cache=cache)
        clear_memo()
        return cache.columns_path(seed, n)

    def test_truncated_entry_regenerates(self, cache):
        path = self._seed_entry(cache)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        workload = load_columnar_workload(1_500, seed=7, cache=cache)
        assert workload.records == aol.generate_records(1_500, seed=7)
        # The invalid file was replaced by a fresh, valid entry.
        clear_memo()
        assert cache.load_columns(7, 1_500) is not None

    def test_corrupted_offsets_detected(self, cache):
        path = self._seed_entry(cache)
        blob = bytearray(path.read_bytes())
        header_len = blob.index(b"\n") + 1
        # Flip bytes inside the starts column: checksum must catch it.
        blob[header_len + 16] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert cache.load_columns(7, 1_500) is None
        assert not path.exists()

    def test_header_edit_detected(self, cache):
        path = self._seed_entry(cache)
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b"seed=7", b"seed=8", 1))
        assert cache.load_columns(7, 1_500) is None
        assert not path.exists()

    def test_foreign_magic_detected(self, cache):
        path = self._seed_entry(cache)
        blob = path.read_bytes()
        path.write_bytes(b"not-a-columns-file\n" + blob)
        assert cache.load_columns(7, 1_500) is None
        assert not path.exists()

    def test_store_rejects_wrong_record_count(self, cache):
        data, starts = generate_columns(3, seed=1)
        with pytest.raises(ValueError):
            cache.store_columns(1, 10, data, starts)
        assert not cache.directory.exists()


class TestStaleness:
    def test_version_bump_changes_file_name(self, cache, monkeypatch):
        old = cache.columns_path(2, 800)
        monkeypatch.setattr(aol, "GENERATOR_VERSION", aol.GENERATOR_VERSION + 1)
        assert cache.columns_path(2, 800) != old

    def test_stale_record_count_regenerates(self, cache):
        # A file claiming the right name but holding the wrong number of
        # records (e.g. renamed by hand) must be rejected and replaced.
        data, starts = generate_columns(900, seed=3)
        cache.store_columns(3, 900, data, starts)
        wrong = cache.columns_path(3, 1_000)
        cache.columns_path(3, 900).rename(wrong)
        workload = load_columnar_workload(1_000, seed=3, cache=cache)
        assert workload.num_records == 1_000
        assert workload.records == aol.generate_records(1_000, seed=3)
        clear_memo()
        assert cache.load_columns(3, 1_000) is not None


class TestTiering:
    @pytest.mark.parametrize(
        "env, on_disk",
        [
            ({}, False),
            ({"REPRO_WORKLOAD_CACHE_MIN": "100", "REPRO_WORKLOAD_CACHE": "0"}, False),
            ({"REPRO_WORKLOAD_CACHE_MIN": "100"}, True),
        ],
        ids=["below-default-min", "cache-disabled", "min-env-engages"],
    )
    def test_env_selects_the_disk_tier(self, tmp_path, monkeypatch, env, on_disk):
        directory = tmp_path / "disk"
        monkeypatch.setenv("REPRO_WORKLOAD_CACHE_DIR", str(directory))
        monkeypatch.delenv("REPRO_WORKLOAD_CACHE", raising=False)
        monkeypatch.delenv("REPRO_WORKLOAD_CACHE_MIN", raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        workload = load_columnar_workload(500, seed=4)
        assert workload.records == aol.generate_records(500, seed=4)
        assert directory.exists() is on_disk
        if on_disk:
            assert WorkloadCache().load_columns(4, 500).records == workload.records

    def test_unwritable_directory_degrades_gracefully(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        cache = WorkloadCache(blocked / "sub", min_records=0)
        workload = load_columnar_workload(800, seed=2, cache=cache)
        assert workload.records == aol.generate_records(800, seed=2)
        assert cache.load_columns(2, 800) is None


class TestWorkloadIntegration:
    def test_aol_workload_uses_memo(self):
        a = aol.AolWorkload(1_200, seed=8)
        b = aol.AolWorkload(1_200, seed=8)
        # ``records`` is the one shared decode of the memoised columns.
        assert a.records is a.columnar().records
        assert a.records is b.records
        assert a.records == aol.generate_records(1_200, seed=8)

    def test_harness_workloads_share_one_list(self):
        from repro.benchmark import BenchmarkConfig, StreamBenchHarness

        config = BenchmarkConfig(records=1_200, runs=1)
        first = StreamBenchHarness(config)
        second = StreamBenchHarness(config)
        assert first.workload.records is second.workload.records
