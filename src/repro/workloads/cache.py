"""Versioned workload cache: the AOL workload's byte columns, generated once.

Generating the paper's 1,000,001-record AOL workload is the largest
start-up cost of a campaign, paid once per invocation.  This module makes
generation a once-per-machine cost with two tiers:

* an **in-process memo** shares one
  :class:`~repro.workloads.columnar.ColumnarWorkload` between every
  workload/harness with the same key, so the matrix's isolated cell
  worlds all read one copy;
* a **versioned on-disk cache** persists the columns, keyed by
  ``(generator version, seed, record count)`` — the version comes from
  :data:`repro.workloads.aol.GENERATOR_VERSION`, so a changed generator
  never serves stale bytes.  Entries are written **atomically** (temp
  file + ``os.replace`` in the cache directory).

An entry stores the workload in the data plane's native layout — one
header line, the ``int64`` line-start column, then the raw byte blob::

    repro-aol-columns\tversion=1\tseed=2006\trecords=N\tdata_size=B\tchecksum=<32 hex>
    <starts: N little-endian int64>
    <data: B bytes, newline-joined lines, no trailing newline>

A warm load is O(1) work: the file is ``mmap``\\ ed read-only, ``starts``
becomes a zero-copy ``np.frombuffer`` view and ``data`` a ``memoryview``
— the OS pages bytes in as kernels scan them, and nothing is decoded
until a record string is actually requested.  Validation stays cheap:
the checksum covers the starts column, and the header's exact byte
length, record count and data size must all agree with the file
(truncation, header edits and offset corruption are all caught; the
check targets corruption, not adversaries).
Invalid entries are unlinked and regenerated, and a generator bump
changes the file name, so staleness is a plain miss.

Environment knobs: ``REPRO_WORKLOAD_CACHE=0`` disables the disk tier,
``REPRO_WORKLOAD_CACHE_DIR`` overrides the directory (default:
``.cache/workloads`` at the repository root), and
``REPRO_WORKLOAD_CACHE_MIN`` overrides the record count below which
workloads stay memory-only (default 100,000 — tiny test workloads never
touch the disk).
"""

from __future__ import annotations

import hashlib
import mmap
import os
import pathlib
import tempfile

import numpy as _np

from repro.workloads import aol
from repro.workloads.columnar import ColumnarWorkload, generate_columns

#: Set to ``0`` to disable the on-disk tier entirely.
CACHE_ENV = "REPRO_WORKLOAD_CACHE"
#: Overrides the cache directory.
CACHE_DIR_ENV = "REPRO_WORKLOAD_CACHE_DIR"
#: Overrides the minimum record count for the disk tier.
CACHE_MIN_ENV = "REPRO_WORKLOAD_CACHE_MIN"

#: Workloads smaller than this stay in the in-process memo only.
DEFAULT_MIN_RECORDS = 100_000

_COLUMNS_MAGIC = "repro-aol-columns"
#: blake2b is the fastest hash in the standard library; 16 bytes is ample
#: for corruption (not adversarial) detection.
_DIGEST_SIZE = 16

_DEFAULT_DIR = pathlib.Path(__file__).resolve().parents[3] / ".cache" / "workloads"


def disk_cache_enabled() -> bool:
    """Whether the on-disk tier is enabled (``REPRO_WORKLOAD_CACHE`` != 0)."""
    return os.environ.get(CACHE_ENV, "1") not in ("0", "")


class WorkloadCache:
    """The on-disk tier: load/store generated workload columns atomically.

    ``directory`` defaults to ``$REPRO_WORKLOAD_CACHE_DIR`` or
    ``.cache/workloads`` under the repository root; ``min_records``
    (default ``$REPRO_WORKLOAD_CACHE_MIN`` or 100,000) is the smallest
    workload :func:`load_columnar_workload` will persist.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str] | None = None,
        min_records: int | None = None,
    ) -> None:
        if directory is None:
            directory = os.environ.get(CACHE_DIR_ENV) or _DEFAULT_DIR
        self.directory = pathlib.Path(directory)
        if min_records is None:
            min_records = int(os.environ.get(CACHE_MIN_ENV, DEFAULT_MIN_RECORDS))
        self.min_records = min_records

    def columns_path(self, seed: int, num_records: int) -> pathlib.Path:
        """Where the columnar entry for ``(version, seed, count)`` lives."""
        return self.directory / (
            f"aol-v{aol.GENERATOR_VERSION}-seed{seed}-n{num_records}.col"
        )

    def _columns_header(
        self, seed: int, num_records: int, data_size: int, checksum: str
    ) -> bytes:
        return (
            f"{_COLUMNS_MAGIC}\tversion={aol.GENERATOR_VERSION}\tseed={seed}"
            f"\trecords={num_records}\tdata_size={data_size}"
            f"\tchecksum={checksum}\n"
        ).encode("ascii")

    def load_columns(self, seed: int, num_records: int) -> ColumnarWorkload | None:
        """``mmap`` a cached columnar entry, or ``None`` on miss.

        An invalid entry — wrong header, wrong size, bad starts checksum,
        non-monotonic offsets — is unlinked so regeneration replaces it.
        The returned workload keeps the mapping alive; its columns are
        zero-copy views into the page cache.
        """
        if num_records < 1:
            return None
        path = self.columns_path(seed, num_records)
        try:
            with open(path, "rb") as handle:
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError):
            return None
        workload = self._parse_columns(mapped, seed, num_records)
        if workload is None:
            mapped.close()
            try:
                path.unlink()
            except OSError:
                pass
        return workload

    def _parse_columns(
        self, mapped: mmap.mmap, seed: int, num_records: int
    ) -> ColumnarWorkload | None:
        head = bytes(mapped[:256])
        newline = head.find(b"\n")
        if newline < 0:
            return None
        fields = head[:newline].decode("ascii", "replace").split("\t")
        if len(fields) != 6 or fields[0] != _COLUMNS_MAGIC:
            return None
        try:
            data_size = int(fields[4].removeprefix("data_size="))
        except ValueError:
            return None
        header_len = newline + 1
        starts_size = 8 * num_records
        if len(mapped) != header_len + starts_size + data_size:
            return None
        starts_view = memoryview(mapped)[header_len : header_len + starts_size]
        checksum = hashlib.blake2b(starts_view, digest_size=_DIGEST_SIZE).hexdigest()
        if head[: newline + 1] != self._columns_header(
            seed, num_records, data_size, checksum
        ):
            return None
        starts = _np.frombuffer(mapped, _np.int64, num_records, header_len)
        # Structural sanity on the offsets the checksum vouches for: the
        # first line starts at 0, offsets strictly increase, and the last
        # line has at least one byte of data.
        if int(starts[0]) != 0 or int(starts[-1]) >= data_size:
            return None
        if num_records > 1 and not bool((starts[1:] > starts[:-1]).all()):
            return None
        data = memoryview(mapped)[header_len + starts_size :]
        return ColumnarWorkload(num_records, seed, data, starts, mmap_obj=mapped)

    def store_columns(
        self, seed: int, num_records: int, data, starts
    ) -> pathlib.Path:
        """Persist generated columns atomically (temp file + ``os.replace``)."""
        if len(starts) != num_records:
            raise ValueError(
                f"starts has {len(starts)} entries, expected {num_records}"
            )
        path = self.columns_path(seed, num_records)
        self.directory.mkdir(parents=True, exist_ok=True)
        starts_bytes = starts.tobytes()
        checksum = hashlib.blake2b(starts_bytes, digest_size=_DIGEST_SIZE).hexdigest()
        header = self._columns_header(seed, num_records, len(data), checksum)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.directory, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(header)
                handle.write(starts_bytes)
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path


# ----------------------------------------------------------------------
# The in-process memo tier plus orchestration.
# ----------------------------------------------------------------------

#: (generator version, seed, num_records) -> shared ColumnarWorkload.  The
#: slab (and its lazily decoded record list) is shared across every
#: harness and matrix cell with the same key.
_COLUMNS_MEMO: dict[tuple[int, int, int], ColumnarWorkload] = {}
_COLUMNS_MEMO_MAX_ENTRIES = 2


def clear_memo() -> None:
    """Drop the in-process memo (tests and benchmarks use this)."""
    _COLUMNS_MEMO.clear()


def load_columnar_workload(
    num_records: int, seed: int = 2006, cache: WorkloadCache | None = None
) -> ColumnarWorkload:
    """The workload as columns for ``(num_records, seed)``, cheapest tier first.

    Memo hit → the shared
    :class:`~repro.workloads.columnar.ColumnarWorkload` (zero cost); disk
    hit → an O(1) ``mmap`` of the entry; miss → slab-direct generation,
    stored to disk when the workload is large enough
    (``cache.min_records``) and the disk tier is enabled.  Passing an
    explicit ``cache`` forces the disk tier regardless of size (tests use
    this).  The returned workload (and everything derived from it) must
    be treated as immutable.
    """
    key = (aol.GENERATOR_VERSION, seed, num_records)
    hit = _COLUMNS_MEMO.get(key)
    if hit is not None:
        return hit
    use_disk = cache is not None or disk_cache_enabled()
    effective = cache or WorkloadCache()
    if cache is None and num_records < effective.min_records:
        use_disk = False
    workload = None
    if use_disk:
        workload = effective.load_columns(seed, num_records)
    if workload is None:
        data, starts = generate_columns(num_records, seed)
        workload = ColumnarWorkload(num_records, seed, data, starts)
        if use_disk and num_records >= 1:
            try:
                effective.store_columns(seed, num_records, data, starts)
            except OSError:
                pass  # an unwritable cache directory never fails the campaign
    while len(_COLUMNS_MEMO) >= _COLUMNS_MEMO_MAX_ENTRIES:
        _COLUMNS_MEMO.pop(next(iter(_COLUMNS_MEMO)))
    _COLUMNS_MEMO[key] = workload
    return workload
