"""Slab-direct workload generation: the columnar data plane's source.

:func:`generate_columns` produces the AOL workload directly as the
contiguous layout the kernel tier consumes — one ASCII byte buffer plus an
``int64`` line-start column (a :class:`~repro.dataflow.kernels.WorkloadSlab`
without the detour through a million Python strings).  The byte stream is
**bit-identical** to ``"\\n".join(generate_records(n, seed))``: the same
RNG, the same draw protocol, the same lines (the equivalence is pinned by
``tests/workloads/test_columnar.py`` against the SHA-golden-pinned
reference generator).

How it stays bit-identical *and* fast:

* ``random.Random.getrandbits(32 * k)`` returns exactly ``k`` consecutive
  MT19937 output words (little-endian), so the generator sources the raw
  word stream in bulk instead of calling ``randrange`` per draw, then
  replays CPython's own draw protocol over it: ``randrange(n)`` is
  ``word >> (32 - n.bit_length())`` with rejection resampling, and
  ``random()`` consumes two words (``a``, ``b``) of which the click test
  ``random() < 0.5`` only inspects ``a < 2**31``.
* Every record is a concatenation of a 6-digit user id and four pieces
  from small precomputed tables (query text + date prefix, day/hour,
  minute/second, rank/url tail), so the hot path is table lookups and
  ``memcpy`` — no per-record string formatting.
* The plain-record hot loop (99.7% of records) runs in a ~100-line C
  kernel compiled on demand with the system C compiler (``cc -O2 -shared
  -fPIC``, cached under ``.cache/native/`` keyed by a source hash).  The
  0.3% of records that embed the grep needle are produced by a pure-Python
  replica of the same protocol reading the *same* buffered word stream, so
  the two paths interleave seamlessly.  Records are atomic: when the C
  kernel runs out of buffered words or output space it returns early at a
  record boundary and Python refills — no rollback, no state transplant.
* Without a C compiler (or with ``REPRO_NATIVE=0``) generation falls back
  to a pure-Python slab-direct pass over
  :func:`repro.workloads.aol.iter_record_chunks` — same bytes, reference
  speed.

This is the only way the benchmark harness and the capacity probes ingest
the AOL workload.  Record lists stay a public input of the sender, broker
and pump, and a campaign fed the materialised list instead of the column
reports bit-identical results, which
``tests/benchmark/test_columnar_plane.py`` proves over the full grid.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import pathlib
import shutil
import subprocess
import tempfile
from array import array

import numpy as np

from repro.simtime.randomness import RandomSource
from repro.workloads import aol

#: Set to ``0`` to disable the compiled C generator (pure-Python fallback).
NATIVE_ENV = "REPRO_NATIVE"
#: Overrides the directory holding compiled native helpers.
NATIVE_DIR_ENV = "REPRO_NATIVE_DIR"

_DEFAULT_NATIVE_DIR = (
    pathlib.Path(__file__).resolve().parents[3] / ".cache" / "native"
)

#: Upper bound on one generated line's byte length (6-digit uid + three
#: longest words + needle term + timestamp + rank + url).  The C kernel
#: sizes its per-chunk output buffer with this.
MAX_LINE_BYTES = 104

#: Records generated per C-kernel output buffer.
_CHUNK_RECORDS = 100_000

#: Piece-table layout: index bases of each piece family in the table.
_OFF_Q2 = 31
_OFF_Q3 = _OFF_Q2 + 31 * 31
_OFF_DH = _OFF_Q3 + 31 * 31 * 31
_OFF_MS = _OFF_DH + 28 * 24
_OFF_RU = _OFF_MS + 60 * 60
_OFF_NC = _OFF_RU + 10 * 5 * 31


def native_enabled() -> bool:
    """Whether the compiled C generator may be used (``REPRO_NATIVE``)."""
    return os.environ.get(NATIVE_ENV, "1") not in ("0", "")


# ---------------------------------------------------------------------------
# Piece tables: every record is uid + q-piece + dh-piece + ms-piece + tail.


def _build_tables() -> tuple[bytes, array, array]:
    """One concatenated piece blob plus per-piece offset/length columns.

    Families, in table order (``\\n`` is part of the tail pieces, so a
    generated buffer is a valid newline-terminated line stream):

    * ``q1``/``q2``/``q3`` — ``"\\t" + query + "\\t2006-03-"`` for 1-, 2-
      and 3-word queries (indices compose as base-31 digits of the word
      draws);
    * ``dh`` — ``"DD HH:"`` for day 1..28, hour 0..23;
    * ``ms`` — ``"MM:SS\\t"``;
    * ``ru`` — ``"{rank}\\thttp://{host}/{first_word}\\n"`` click tails;
    * the single no-click tail ``"\\t\\n"``.
    """
    words = aol._WORDS
    hosts = aol._URL_HOSTS
    two = aol._TWO_DIGITS
    pieces = ["\t" + w + "\t2006-03-" for w in words]
    pieces += ["\t" + a + " " + b + "\t2006-03-" for a in words for b in words]
    pieces += [
        "\t" + a + " " + b + " " + c + "\t2006-03-"
        for a in words
        for b in words
        for c in words
    ]
    pieces += [two[1 + d] + " " + two[h] + ":" for d in range(28) for h in range(24)]
    pieces += [two[m] + ":" + two[s] + "\t" for m in range(60) for s in range(60)]
    pieces += [
        str(1 + r) + "\thttp://" + h + "/" + w
        + "\n" for r in range(10) for h in hosts for w in words
    ]
    pieces.append("\t\n")
    lengths = array("q", (len(p) for p in pieces))
    offsets = array("q", bytes(8 * len(pieces)))
    acc = 0
    for i, length in enumerate(lengths):
        offsets[i] = acc
        acc += length
    return "".join(pieces).encode("ascii"), offsets, lengths


_TABLES: tuple[bytes, array, array] | None = None


def _tables() -> tuple[bytes, array, array]:
    global _TABLES
    if _TABLES is None:
        _TABLES = _build_tables()
    return _TABLES


# ---------------------------------------------------------------------------
# The C kernel: plain (needle-free) records only.

_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

typedef struct {
    int64_t words_used;
    int64_t bytes_out;
    int64_t records_done;
} gen_result;

/* Generate up to n_records plain AOL lines from the MT19937 word stream
 * words[word_start:n_words], replaying CPython's randrange/random draw
 * protocol exactly.  Returns early (at a record boundary) when words or
 * output space run out; res->words_used then points at the first word of
 * the incomplete record so the caller can refill and resume. */
void repro_gen_plain(
    const uint32_t *words, int64_t word_start, int64_t n_words,
    int64_t n_records,
    const uint8_t *tab, const int64_t *tab_off, const int64_t *tab_len,
    int64_t off_q2, int64_t off_q3, int64_t off_dh, int64_t off_ms,
    int64_t off_ru, int64_t off_nc,
    uint8_t *out, int64_t out_cap,
    int64_t *starts, int64_t start_base,
    gen_result *res)
{
    int64_t i = word_start, o = 0, r = 0;
    int64_t last_i = i;
    for (r = 0; r < n_records; r++) {
        last_i = i;
        uint32_t w, v;
        /* user id: 100000 + randrange(900000); 900000 needs 20 bits */
        for (;;) { if (i >= n_words) goto exhausted;
            w = words[i++]; v = w >> 12; if (v < 900000u) break; }
        uint32_t uid = 100000u + v;
        /* term count - 1: randrange(3) */
        uint32_t t;
        for (;;) { if (i >= n_words) goto exhausted;
            w = words[i++]; t = w >> 30; if (t < 3u) break; }
        /* word indices: randrange(31) each */
        uint32_t i1 = 0, i2 = 0, i3 = 0;
        for (uint32_t k = 0; k <= t; k++) {
            for (;;) { if (i >= n_words) goto exhausted;
                w = words[i++]; v = w >> 27; if (v < 31u) break; }
            if (k == 0) i1 = v; else if (k == 1) i2 = v; else i3 = v;
        }
        /* date-time: randrange(28), (24), (60), (60) */
        uint32_t dd, hh, mm, ss;
        for (;;) { if (i >= n_words) goto exhausted; w = words[i++]; dd = w >> 27; if (dd < 28u) break; }
        for (;;) { if (i >= n_words) goto exhausted; w = words[i++]; hh = w >> 27; if (hh < 24u) break; }
        for (;;) { if (i >= n_words) goto exhausted; w = words[i++]; mm = w >> 26; if (mm < 60u) break; }
        for (;;) { if (i >= n_words) goto exhausted; w = words[i++]; ss = w >> 26; if (ss < 60u) break; }
        /* click test: random() consumes two words, compares only the
         * high one (rand < 0.5  <=>  a < 2^31) */
        if (i + 1 >= n_words) goto exhausted;
        uint32_t a = words[i]; i += 2;
        uint32_t rk = 0, ho = 0;
        int click = a < 2147483648u;
        if (click) {
            for (;;) { if (i >= n_words) goto exhausted; w = words[i++]; rk = w >> 28; if (rk < 10u) break; }
            for (;;) { if (i >= n_words) goto exhausted; w = words[i++]; ho = w >> 29; if (ho < 5u) break; }
        }
        int64_t pid_q = (t == 0) ? (int64_t)i1
                      : (t == 1) ? off_q2 + (int64_t)i1 * 31 + i2
                                 : off_q3 + ((int64_t)i1 * 31 + i2) * 31 + i3;
        int64_t pid_dh = off_dh + (int64_t)dd * 24 + hh;
        int64_t pid_ms = off_ms + (int64_t)mm * 60 + ss;
        int64_t pid_ru = click ? off_ru + ((int64_t)rk * 5 + ho) * 31 + i1 : off_nc;
        int64_t need = 6 + tab_len[pid_q] + tab_len[pid_dh]
                     + tab_len[pid_ms] + tab_len[pid_ru];
        if (o + need > out_cap) goto exhausted;
        starts[r] = start_base + o;
        uint32_t u = uid;
        out[o + 5] = '0' + u % 10u; u /= 10u;
        out[o + 4] = '0' + u % 10u; u /= 10u;
        out[o + 3] = '0' + u % 10u; u /= 10u;
        out[o + 2] = '0' + u % 10u; u /= 10u;
        out[o + 1] = '0' + u % 10u; u /= 10u;
        out[o] = '0' + u;
        o += 6;
        memcpy(out + o, tab + tab_off[pid_q], (size_t)tab_len[pid_q]); o += tab_len[pid_q];
        memcpy(out + o, tab + tab_off[pid_dh], (size_t)tab_len[pid_dh]); o += tab_len[pid_dh];
        memcpy(out + o, tab + tab_off[pid_ms], (size_t)tab_len[pid_ms]); o += tab_len[pid_ms];
        memcpy(out + o, tab + tab_off[pid_ru], (size_t)tab_len[pid_ru]); o += tab_len[pid_ru];
    }
    res->words_used = i; res->bytes_out = o; res->records_done = r;
    return;
exhausted:
    res->words_used = last_i; res->bytes_out = o; res->records_done = r;
}
"""


class _GenResult(ctypes.Structure):
    _fields_ = [
        ("words_used", ctypes.c_int64),
        ("bytes_out", ctypes.c_int64),
        ("records_done", ctypes.c_int64),
    ]


#: Loader memo: ``False`` = not tried yet, ``None`` = tried and unavailable.
_NATIVE: object = False


def _native_dir() -> pathlib.Path:
    override = os.environ.get(NATIVE_DIR_ENV)
    return pathlib.Path(override) if override else _DEFAULT_NATIVE_DIR


def _compile_native() -> pathlib.Path | None:
    """Compile the C kernel into the native cache, or ``None`` on failure.

    The shared object is keyed by a hash of the C source, so editing the
    kernel never serves a stale binary; compilation happens at most once
    per source version per machine.
    """
    compiler = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if compiler is None:
        return None
    source = _C_SOURCE.encode("ascii")
    tag = hashlib.blake2b(source, digest_size=8).hexdigest()
    directory = _native_dir()
    so_path = directory / f"slabgen-{tag}.so"
    if so_path.exists():
        return so_path
    try:
        directory.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=directory) as tmp:
            c_path = pathlib.Path(tmp) / "slabgen.c"
            c_path.write_bytes(source)
            tmp_so = pathlib.Path(tmp) / "slabgen.so"
            result = subprocess.run(
                [compiler, "-O2", "-shared", "-fPIC", "-o", str(tmp_so), str(c_path)],
                capture_output=True,
                timeout=120,
            )
            if result.returncode != 0:
                return None
            os.replace(tmp_so, so_path)
    except (OSError, subprocess.SubprocessError):
        return None
    return so_path


def _load_native():
    """The configured C entry point, or ``None`` when unavailable."""
    global _NATIVE
    if _NATIVE is not False:
        return _NATIVE
    fn = None
    if native_enabled():
        so_path = _compile_native()
        if so_path is not None:
            try:
                lib = ctypes.CDLL(str(so_path))
                fn = lib.repro_gen_plain
            except OSError:
                fn = None
            if fn is not None:
                fn.restype = None
                # argtypes are load-bearing: without them ctypes truncates
                # 64-bit addresses to C ints.
                fn.argtypes = [
                    ctypes.c_char_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                    ctypes.c_char_p, ctypes.c_void_p, ctypes.c_void_p,
                    ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                    ctypes.c_int64, ctypes.c_int64,
                    ctypes.c_void_p, ctypes.c_int64,
                    ctypes.c_void_p, ctypes.c_int64,
                    ctypes.POINTER(_GenResult),
                ]
    _NATIVE = fn
    return fn


def native_generator_available() -> bool:
    """Whether the compiled fast path is usable on this machine."""
    return _load_native() is not None


def reset_native_cache() -> None:
    """Forget the loaded C kernel (tests toggle ``REPRO_NATIVE`` around this)."""
    global _NATIVE
    _NATIVE = False


# ---------------------------------------------------------------------------
# Generation


def generate_columns(
    num_records: int, seed: int = 2006
) -> tuple[bytes, array]:
    """The workload as ``(data, starts)`` columns, bit-identical to
    :func:`repro.workloads.aol.generate_records`.

    ``data`` is the newline-joined ASCII byte stream (no trailing newline,
    exactly ``"\\n".join(lines).encode()``); ``starts`` is an ``array('q')``
    with the byte offset of every line.  Uses the compiled C fast path when
    available, the pure-Python slab-direct pass otherwise — same bytes
    either way.
    """
    if num_records < 0:
        raise ValueError(f"num_records must be >= 0, got {num_records}")
    if num_records == 0:
        return b"", array("q")
    parts: list[bytes] = []
    starts = array("q")
    offset = 0
    for data, chunk_starts in iter_column_chunks(num_records, seed):
        starts.extend(_shift_starts(chunk_starts, offset) if offset else chunk_starts)
        parts.append(data)
        offset += len(data) + 1
    return b"\n".join(parts), starts


def iter_column_chunks(
    num_records: int, seed: int = 2006, chunk_records: int = _CHUNK_RECORDS
):
    """Stream the workload as per-chunk ``(data, starts)`` column pairs.

    The chunked generator :func:`generate_columns` is built on: each
    yielded chunk holds at most ``chunk_records`` records as its own
    contiguous byte buffer plus a *chunk-relative* ``array('q')``
    line-start column, and nothing larger than one chunk is ever resident
    in the generator.  Joining the chunk buffers with ``b"\\n"`` reproduces
    :func:`generate_columns`'s byte stream exactly (each chunk is itself
    ``"\\n".join(chunk_lines).encode()``, no trailing newline); the RNG
    word stream runs seamlessly across chunk boundaries, so the chunking
    never changes a single byte.
    """
    if num_records < 0:
        raise ValueError(f"num_records must be >= 0, got {num_records}")
    if chunk_records < 1:
        raise ValueError(f"chunk_records must be >= 1, got {chunk_records}")
    if num_records == 0:
        return
    if _load_native() is not None:
        yield from _iter_columns_native(num_records, seed, chunk_records)
    else:
        yield from _iter_columns_python(num_records, seed, chunk_records)


def _shift_starts(starts: array, offset: int) -> array:
    """A copy of ``starts`` with ``offset`` added to every element."""
    shifted = array("q", bytes(8 * len(starts)))
    out = np.frombuffer(shifted, dtype=np.int64)
    np.add(np.frombuffer(starts, dtype=np.int64), offset, out=out)
    return shifted


def _iter_columns_python(num_records: int, seed: int, chunk_records: int):
    """Slab-direct reference path: stream record chunks into column pairs."""
    for chunk in aol.iter_record_chunks(num_records, seed, chunk_size=chunk_records):
        starts = array("q")
        offset = 0
        for line in chunk:
            starts.append(offset)
            offset += len(line) + 1
        yield "\n".join(chunk).encode("ascii"), starts


def _iter_columns_native(num_records: int, seed: int, chunk_records: int):
    """C fast path: bulk word sourcing + native assembly of plain records.

    Python produces only the needle-bearing records (0.3% of the stream)
    with an exact replica of the draw protocol, reading the same buffered
    word stream the C kernel consumes, so the interleaving is seamless.
    """
    fn = _load_native()
    table, table_off, table_len = _tables()
    rng = RandomSource(seed).stream("aol")
    words = aol._WORDS
    hosts = aol._URL_HOSTS
    two = aol._TWO_DIGITS
    needle_term = aol.GREP_NEEDLE + " scores"
    match_rows = sorted(
        aol._spread_positions(num_records, aol.expected_grep_matches(num_records))
    )

    # The buffered MT19937 word stream: wb holds whole little-endian words,
    # wpos is the next unconsumed word index.  refill() preserves the
    # unconsumed tail, so the stream continues seamlessly across C calls,
    # Python draws and chunk boundaries.
    wb = b""
    wpos = 0

    def refill(min_words: int) -> None:
        nonlocal wb, wpos
        need = max(min_words, 1 << 16)
        fresh = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        wb = wb[wpos * 4 :] + fresh
        wpos = 0

    def draw(shift: int, limit: int) -> int:
        # CPython randrange(limit): top-bits of one word, rejection-resampled.
        nonlocal wpos
        while True:
            if wpos >= len(wb) // 4:
                refill(64)
            value = int.from_bytes(wb[wpos * 4 : wpos * 4 + 4], "little") >> shift
            wpos += 1
            if value < limit:
                return value

    def match_line() -> str:
        # The reference per-record protocol with the needle term inserted;
        # draw-for-draw identical to iter_record_chunks on a match row.
        nonlocal wpos
        uid = 100000 + draw(12, 900000)
        term_count = 1 + draw(30, 3)
        terms = [words[draw(27, 31)] for _ in range(term_count)]
        n = len(terms) + 1
        terms.insert(draw(30 if n <= 3 else 29, n), needle_term)
        dd = draw(27, 28)
        hh = draw(27, 24)
        mm = draw(26, 60)
        ss = draw(26, 60)
        if wpos + 2 > len(wb) // 4:
            refill(64)
        a = int.from_bytes(wb[wpos * 4 : wpos * 4 + 4], "little")
        wpos += 2  # random() consumes two words; only the high one decides
        if a < 2147483648:
            rank = draw(28, 10)
            host = draw(29, 5)
            tail = str(1 + rank) + "\thttp://" + hosts[host] + "/" + terms[0]
        else:
            tail = "\t"
        return (
            str(uid) + "\t" + " ".join(terms) + "\t2006-03-" + two[1 + dd] + " "
            + two[hh] + ":" + two[mm] + ":" + two[ss] + "\t" + tail + "\n"
        )

    off_buf = (ctypes.c_int64 * len(table_off)).from_buffer(table_off)
    len_buf = (ctypes.c_int64 * len(table_len)).from_buffer(table_len)
    result = _GenResult()
    record = 0
    match_index = 0
    # One output buffer serves every chunk, and each chunk is copied out
    # of it once: a buffer and an extra copy per chunk leave freed blocks
    # on the heap, and their layout would set the peak resident memory.
    chunk_out = bytearray(min(chunk_records, num_records) * MAX_LINE_BYTES)
    while record < num_records:
        n_chunk = min(chunk_records, num_records - record)
        starts = array("q", bytes(8 * n_chunk))
        starts_buf = (ctypes.c_int64 * n_chunk).from_buffer(starts)
        out_buf = (ctypes.c_char * len(chunk_out)).from_buffer(chunk_out)
        chunk_offset = 0
        done = 0
        while done < n_chunk:
            row = record + done
            if match_index < len(match_rows) and match_rows[match_index] == row:
                line = match_line().encode("ascii")
                starts[done] = chunk_offset
                chunk_out[chunk_offset : chunk_offset + len(line)] = line
                chunk_offset += len(line)
                done += 1
                match_index += 1
                continue
            # Run of plain records up to the next match row (or chunk end).
            next_stop = (
                match_rows[match_index] - record
                if match_index < len(match_rows)
                else n_chunk
            )
            n_plain = min(next_stop, n_chunk) - done
            while n_plain > 0:
                if len(wb) // 4 - wpos < 32:
                    # ~11.5 words/record expected; 13 covers rejection waste.
                    refill(13 * n_plain + 64)
                fn(
                    wb, wpos, len(wb) // 4, n_plain,
                    table, ctypes.addressof(off_buf), ctypes.addressof(len_buf),
                    _OFF_Q2, _OFF_Q3, _OFF_DH, _OFF_MS, _OFF_RU, _OFF_NC,
                    ctypes.addressof(out_buf) + chunk_offset,
                    len(chunk_out) - chunk_offset,
                    ctypes.addressof(starts_buf) + 8 * done,
                    chunk_offset,
                    ctypes.byref(result),
                )
                wpos = result.words_used
                chunk_offset += result.bytes_out
                done += result.records_done
                n_plain -= result.records_done
                if n_plain > 0:  # stalled on words (or, rarely, space)
                    refill(13 * n_plain + 64)
        # Release the exported buffers before resizing/handing them out.
        del out_buf, starts_buf
        record += n_chunk
        # Every line ends with '\n'; strip the last so each chunk is
        # exactly "\n".join(chunk_lines).encode() — join-compatible.
        yield bytes(memoryview(chunk_out)[: chunk_offset - 1]), starts


# ---------------------------------------------------------------------------
# The workload object


class ColumnarWorkload:
    """The AOL workload carried as slab columns end to end.

    ``data``/``starts`` are the generated byte columns (``data`` may be any
    readable buffer — ``bytes`` or a ``memoryview`` over an ``mmap``\\ ped
    cache entry).  Record strings materialise lazily and only at API
    boundaries: :meth:`column` is what the columnar ingest path ships to
    the broker, and its records are decoded per record (or per window) on
    first access.
    """

    __slots__ = ("num_records", "seed", "data", "starts", "_slab", "_column", "_mmap")

    def __init__(
        self, num_records: int, seed: int, data, starts, mmap_obj=None
    ) -> None:
        self.num_records = num_records
        self.seed = seed
        self.data = data
        self.starts = starts
        self._slab = None
        self._column = None
        #: Keeps an mmap-backed cache entry alive as long as the workload.
        self._mmap = mmap_obj

    @classmethod
    def generate(cls, num_records: int, seed: int = 2006) -> "ColumnarWorkload":
        data, starts = generate_columns(num_records, seed)
        return cls(num_records, seed, data, starts)

    @property
    def mmap_backed(self) -> bool:
        """Whether the columns are views over an ``mmap``\\ ped cache entry."""
        return self._mmap is not None

    def to_slab(self):
        """The shared :class:`~repro.dataflow.kernels.WorkloadSlab` (cached)."""
        if self._slab is None:
            from repro.dataflow.kernels import slab_from_columns

            self._slab = slab_from_columns(self.data, self.starts)
        return self._slab

    def column(self):
        """The full-workload :class:`~repro.dataflow.kernels.SlabColumn`."""
        if self._column is None:
            from repro.dataflow.kernels import SlabColumn

            self._column = SlabColumn(self.to_slab())
        return self._column

    @property
    def records(self) -> list[str]:
        """The materialised record list (lazy; shared with the slab)."""
        return self.column()._lines()
