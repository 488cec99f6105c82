"""Compiled batch kernels: the pump's closure-free fast execution tier.

The pump executes operators at one of two tiers (see
``docs/architecture.md``, *Execution tiers*):

1. **reference** — the per-record loop (``StreamPump.vectorized = False``),
   the semantic oracle;
2. **kernel** — this module (the default): the logical shape of a
   function, declared as a :class:`KernelSpec`, is compiled into a fused
   batch kernel that processes a whole chunk without entering a
   per-record closure.  A function that declares no spec runs its
   chunk-at-a-time ``process_batch`` on this tier instead.

A kernel is a *host-side* optimisation only: it must produce bit-identical
outputs to the reference loop (the simulated clock depends only on record
counts, which are unchanged).  Every kernel therefore carries exact cheap
guards and falls back to a plain comprehension — and the pump falls back
to ``process_batch`` — whenever the data or the function shape is not
provably uniform.

Kernels are column fast paths.  A kernel keeps a fast path only for the
containers the pump hands it in practice: slab windows and selections,
pair columns, encoded Nexmark lines.  A list chunk of a stateful or keyed
function runs that function's own ``process_batch``, and grep's list
chunk runs the reference comprehension; no second copy of a query's
semantics is kept for a container nothing delivers.

Kernel shapes (mirroring the StreamBench queries on the Figure-5 path):

- ``contains`` (grep): on a slab window, a selection of the slab's hit
  rows.  One scan of the whole slab finds them: the needle's first two
  bytes are compared as aligned ``uint16`` lanes (two phases cover every
  offset), and the remaining needle bytes are verified by sparse gathers
  at the candidate positions.  A match can never span lines because the
  needle contains no newline.
- ``column`` (projection): ``v.partition(sep)[0]`` per line — exact by
  construction for column 0 (``partition`` and ``split`` agree on the
  prefix before the first separator, including separator-free lines).
- **workload slabs**: the columnar plane's records live in a shared
  :class:`WorkloadSlab` — one newline-joined ASCII buffer with a
  line-start offset column — and travel as :class:`SlabColumn` windows
  and row selections: the broker's reads, the pump's chunks and the
  kernels' outputs are all columns over the slab, and the output log
  adopts them.  Every chunk that is a window takes its kernel's slab
  path.  Sample draws the window's mask and returns its kept rows as a
  selection.  The other slab paths cut their window from a whole-slab
  result that depends only on the slab's bytes and the spec's
  parameters, which :meth:`WorkloadSlab.derived` builds at most once
  per slab, so every kernel, pool shard and cell over one slab shares
  it: grep returns a selection of the slab's hit rows, and projection a
  window of a fixed-width column slab built by one NumPy row take, when
  every line has the separator at the same verified offset.  No record
  string is built on these paths.  A plain records list takes the
  kernels' list paths: the reference comprehension for grep, per-chunk
  ``partition`` for projection, the same mask for sample.
- ``bernoulli`` (sample): a pre-drawn Bernoulli mask.  The seeded
  ``random.Random`` state is transplanted into a NumPy ``RandomState``
  (both are MT19937 with the same double recipe), the whole chunk's mask
  is drawn in one call, and the state is transplanted back on
  :meth:`Kernel.flush` — the Python RNG observes the exact same stream,
  draw for draw, as the reference loop.  A kernel adopts its ``rng``
  between flushes, so two live kernels must not share one ``rng`` object
  (no query in this repo does).
- ``identity``: zero-copy passthrough (chunks are private slices).
- **KafkaIO's KV stages**: ``record_kv`` (``withoutMetadata``) builds no
  record object for a :class:`RecordColumn` chunk.  Keyless value
  slices that are adjacent windows of one slab become a
  :class:`KvColumn` of ``(None, value)`` pairs over their joined window;
  other slices are zipped from their key and value columns, and any
  other chunk calls each record's ``kv()``.  ``ensure_kv`` (``write()``'s
  EnsureKV) wraps a slab column as a pair column, and ``item(1)`` or
  ``kv_value`` on its own hands a pair column's value column on, so a
  Beam pipeline's windows reach its query's slab path and the output
  log without a pair or a string being built.
- ``item`` / ``kv_value`` otherwise: closure-free generated
  comprehensions.
- chains (``ComposedFunction``): consecutive ``item`` / ``kv_value``
  maps are fused into one generated comprehension; every other part
  runs as its dedicated kernel in sequence, each through
  :func:`run_kernel` — the same window dispatch the pump applies to each
  stage.

Stateful kernels (the Table-2/Nexmark path; see
``repro.dataflow.compiler`` for how stages are lowered):

- Stateful kernels never *own* state.  Each holds a reference to the
  function that declared the spec (``KernelSpec.owner``) and mutates that
  function's own state containers in place, re-fetching them on every
  call because ``restore()`` rebinds them.  Snapshots, recovery and the
  drain phase therefore observe exactly the state the reference loop
  would have produced.  The distinct-count and windowed slab paths
  alone adopt state, as the sample kernel adopts its RNG: distinct-count
  holds ``seen``'s membership per query id of one slab and writes the
  queries it added into ``seen`` on ``flush``, and windowed tallies
  pane ids and writes them into the owner's panes on ``flush``, which
  the pump calls before any of those observers reads them.
- ``wordcount`` / ``distinct_count`` / ``statistics``: the stateful
  StreamBench queries, served on slab windows (below); a list chunk
  runs the owner's ``process_batch``.  Statistics folds with NumPy's
  sequential accumulates, exact because every quantity is an
  integer-valued double.  Wordcount's and distinct-count's slab paths
  and statistics' bulk fold emit a :class:`FieldColumn` — word ids and
  counts, running distinct counts, or minima, maxima and means —
  instead of one object per output record, and the output log adopts
  it.
- The engines' keyed operators (Flink ``KeyedStream.reduce``, Spark
  ``updateStateByKey``, Beam GroupByKey) declare no spec: their chunks
  are lists of pairs, and they run ``process_batch`` on the kernel tier.
- **AOL slab paths**: on a slab window, wordcount, distinct-count,
  statistics and the AOL windowed count read the slab's memoised
  fields, never its records.  One shared field locator (one tab scan
  and one ``searchsorted`` per block) gives every line's first tab
  offsets; a second helper decodes ragged byte spans into one
  newline-joined ``str``.  The query field (every query column as one
  newline-terminated ``str`` plus line offsets) serves three kernels:
  statistics folds offset differences without reading a string,
  wordcount reads the field's words and distinct-count its query
  columns, each interned once per slab as ids in first-occurrence order
  with links to their previous occurrence, so a window's running counts
  are NumPy arithmetic over its ids: only wordcount's first occurrences
  touch the owner's counts, and distinct-count's adopted membership
  tests ``seen`` at most once per query of the slab.  Windowed tallies
  the window's rows of the slab's pane ids, interned once per slab from
  the first word and the ``QueryTime`` digit bytes, with each pane's
  key computed once.
- ``nexmark_q3`` / ``nexmark_q4`` / ``nexmark_q5``: running-state kernels
  for the stateful Nexmark queries over decoded events; when composed
  directly after ``nexmark_decode`` the plan compiler fuses the pair into
  a *wire kernel* that parses only the fields the query consumes and
  skips event types it ignores entirely.  The spec's promise for wire
  kernels: lines tagged ``P``/``A``/``B`` are generator-conformant
  (fields the query never consumes are not re-validated); any other line
  takes the exact reference path (decode then process) and raises
  identically.
- ``windowed_aggregate``: trigger-less windowed panes
  (``repro.dataflow.windowing``); ``AfterCount`` triggers deliberately
  declare no spec and run ``process_batch`` (a documented fallback
  edge).  The slab path serves only owners that count per
  ``first_word`` over ``event_time`` (:mod:`repro.workloads.aol`); a
  window with a line it cannot prove the reference parses the same way,
  and any list chunk, flushes the tally and runs the owner's
  ``process_batch``.
"""

from __future__ import annotations

import random
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import compress, repeat
from typing import Any, Callable

import numpy as _np
from numpy.lib.stride_tricks import sliding_window_view as _sliding_window_view

_NL = 10  # ord("\n")
_MIN_BULK = 32  # below this, statistics folds Python floats, not arrays
#: Rows a whole-slab derivation (:meth:`WorkloadSlab.derived`) parses at
#: once: about 1 MB of AOL lines, so its temporaries stay near that size.
_DERIVE_BLOCK = 1 << 14


# ---------------------------------------------------------------------------
# Workload slabs


class WorkloadSlab:
    """An immutable record stream as one contiguous byte buffer.

    ``data`` is the newline-joined ASCII blob (``bytes``, or any readable
    buffer such as a ``memoryview`` over an ``mmap``\\ ped cache file),
    ``arr`` a zero-copy ``uint8`` view and ``starts`` the byte offset of
    every line (one entry per record — offsets are unambiguous because no
    record embeds a newline).  Because the blob is ASCII, byte offsets
    equal character offsets and slices of ``text`` are bit-identical to
    the original records.

    A slab is the columnar data plane's primary representation, built by
    :func:`slab_from_columns` over generated or ``mmap``-loaded byte
    columns.  ``records`` starts as ``None`` and the decoded list
    materialises lazily, at most once, via :class:`SlabColumn`; ``text``
    likewise decodes on first access.

    The slab paths' whole-slab results — grep's hit rows, the projected
    column, the query field, its word and query ids and the windowed
    pane ids — are pure functions of the bytes and a spec's parameters, so
    :meth:`derived` builds each at most once per slab: every kernel,
    pool shard and campaign cell over the slab reads a window of the
    same result.  Distinct-count and windowed read each window's first
    occurrences off the links to each line's previous occurrence, so
    they touch a Python object once per distinct query or pane of a
    window, not once per line.
    """

    __slots__ = ("records", "_text", "data", "arr", "starts", "size", "_derived")

    def __init__(self, data, arr, starts) -> None:
        self.records = None
        self._text = None
        self.data = data
        self.arr = arr
        self.starts = starts
        self.size = len(data)
        self._derived: dict = {}

    @property
    def text(self) -> str:
        """The decoded blob (lazy for column-built slabs)."""
        if self._text is None:
            self._text = str(self.data, "ascii")
        return self._text

    def derived(self, key, build: Callable[["WorkloadSlab"], Any]):
        """``build(self)``, computed at most once per ``key``.

        ``key`` names the derivation and every spec parameter its result
        depends on.  Every array the result holds (the result itself or
        the items of a tuple) is made read-only, so a kernel output that
        is a view of one cannot corrupt it.  Nothing is evicted: the memo
        lives and dies with the slab.
        """
        try:
            return self._derived[key]
        except KeyError:
            pass
        value = self._derived[key] = build(self)
        for item in value if type(value) is tuple else (value,):
            if isinstance(item, _np.ndarray):
                item.flags.writeable = False
        return value


def _line_end(slab: WorkloadSlab, row: int) -> int:
    """The byte offset just past ``row``'s last byte (its newline excluded)."""
    starts = slab.starts
    return int(starts[row + 1]) - 1 if row + 1 < len(starts) else slab.size


def slab_from_columns(data, starts) -> WorkloadSlab:
    """A slab over pre-built byte columns (the columnar plane's layout).

    ``data`` is the newline-joined ASCII buffer (no trailing newline) and
    ``starts`` the per-line byte offsets — ``bytes``/``memoryview`` and
    ``array('q')``/``int64 ndarray`` respectively, exactly what
    :func:`repro.workloads.columnar.generate_columns` produces and the
    memmap cache tier loads.  No validation happens here beyond shape:
    the columns are trusted to describe a newline-unambiguous ASCII
    stream (generation guarantees it; the cache tier checksums it).
    """
    arr = _np.frombuffer(data, _np.uint8)
    if not isinstance(starts, _np.ndarray):
        starts = _np.frombuffer(starts, _np.int64)
    return WorkloadSlab(data, arr, starts)


class _ValueColumn(Sequence):
    """A read-only column that acts as the list of its elements: it
    compares equal, by value, to a list or another column with equal
    elements, in either operand order; ``+`` with a list or a column
    gives a list; it is unhashable, like a list."""

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, (list, _ValueColumn)):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    def __add__(self, other):
        if not isinstance(other, (list, _ValueColumn)):
            return NotImplemented
        return list(self) + list(other)

    def __radd__(self, other):
        if not isinstance(other, list):
            return NotImplemented
        return other + list(self)


class SlabColumn(_ValueColumn):
    """Rows of one :class:`WorkloadSlab` as a read-only sequence of records.

    The columnar plane's stand-in for a ``list`` of record strings, in one
    of two shapes over the shared slab:

    - a **window** (``rows is None``): the contiguous rows
      ``[start, stop)``;
    - a **selection**: the rows ``rows[start:stop]`` of an ascending
      ``int64`` row array — what grep and sample keep of a window.

    A step-1 slice of either is the same shape over the same slab, so
    the sender's batches, the broker's reads and the pump's chunks stay
    columns, and a kernel's output column travels through the emit to
    the output log, which adopts it (:class:`~repro.broker.log.PartitionLog`).
    Slab-aware kernels read a window's bytes directly: rows
    ``[start, stop)`` of ``slab``.

    It compares equal, by value, to a list or another column with equal
    records, in either operand order; ``+`` with a list or a column gives
    a list; it is unhashable, like a list.  Iteration, non-unit-step
    slices and comparison of a non-empty column decode the whole slab at
    most once, into ``slab.records`` — the one decoded list every column
    over the slab shares — while single-record indexing decodes just that
    line until the shared list exists.  A column must be treated as
    immutable, the contract cached record lists carry too; only the log
    grows its own private copy.
    """

    __slots__ = ("slab", "start", "stop", "rows")

    def __init__(
        self, slab: WorkloadSlab, start: int = 0, stop: int | None = None, rows=None
    ) -> None:
        self.slab = slab
        self.start = start
        if stop is None:
            stop = len(slab.starts) if rows is None else len(rows)
        self.stop = stop
        self.rows = rows

    def __len__(self) -> int:
        return self.stop - self.start

    def _lines(self) -> list:
        slab = self.slab
        if slab.records is None:
            slab.records = slab.text.split("\n") if len(slab.starts) else []
        return slab.records

    def _row_list(self) -> list:
        """The absolute slab rows of a selection, as Python ints."""
        return self.rows[self.start : self.stop].tolist()

    def __iter__(self):
        if self.start == self.stop:
            return iter(())
        lines = self._lines()
        if self.rows is not None:
            return map(lines.__getitem__, self._row_list())
        if self.start == 0 and self.stop == len(lines):
            return iter(lines)
        return iter(lines[self.start : self.stop])

    def __reversed__(self):
        if self.start == self.stop:
            return iter(())
        lines = self._lines()
        if self.rows is not None:
            return map(lines.__getitem__, reversed(self._row_list()))
        return reversed(lines[self.start : self.stop])

    def __getitem__(self, index):
        if isinstance(index, slice):
            span = range(self.start, self.stop)[index]
            if span.step == 1:
                stop = max(span.start, span.stop)
                return SlabColumn(self.slab, span.start, stop, self.rows)
            if not span:
                return []
            lines = self._lines()
            if self.rows is not None:
                return [lines[row] for row in self._row_list()[index]]
            # A reversed slice through row 0 stops at -1, which a list
            # slice would read as the last row.
            return lines[span.start : span.stop if span.stop >= 0 else None : span.step]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("slab column index out of range")
        row = self.start + index
        return self._record(row if self.rows is None else int(self.rows[row]))

    def _record(self, row: int) -> str:
        slab = self.slab
        if slab.records is not None:
            return slab.records[row]
        return str(slab.data[int(slab.starts[row]) : _line_end(slab, row)], "ascii")

    def view(self, start: int, stop: int) -> "SlabColumn":
        """A window at absolute rows ``[start, stop)`` of the slab."""
        return SlabColumn(self.slab, start, stop)


class KvColumn(_ValueColumn):
    """``(None, value)`` pairs over a :class:`SlabColumn` of values.

    The columnar plane's stand-in for the list of keyless KV pairs that
    KafkaIO's stages pass along: ``withoutMetadata`` (``record_kv``) over
    a keyless slab window and ``write()``'s EnsureKV (``ensure_kv``) over
    a column return one, and ``Values`` (``item(1)``), Spark's
    ``kv_value`` and the Beam sinks take :attr:`values` back, so no pair
    is built and the output log still adopts the window or selection.

    Like :class:`SlabColumn` it compares equal, by value, to a list or
    another column with equal elements, in either operand order; ``+``
    with a list or a column gives a list; a step-1 slice is a pair column
    over the same slice of values; it is unhashable.  Iteration and
    comparison build the pairs, decoding the value column.
    """

    __slots__ = ("values",)

    def __init__(self, values: SlabColumn) -> None:
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return zip(repeat(None), self.values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            values = self.values[index]
            if type(values) is SlabColumn:  # a step-1 slice
                return KvColumn(values)
            return [(None, value) for value in values]
        return (None, self.values[index])



class FieldColumn(_ValueColumn):
    """Tuples, or scalars, stored as equal-length NumPy field arrays.

    Element ``i`` is the tuple of every field's item ``start + i``, as
    Python scalars; a column of one field holds the scalars themselves,
    not 1-tuples.  With a ``lookup`` array, field 0 holds integer codes
    and the element carries ``lookup[code]`` in their place.  Wordcount
    emits its ``(word, count)`` pairs this way (word ids that the slab's
    memoised word list decodes), statistics its ``(min, max, mean)``
    triples and distinct-count its running counts, so none builds an
    object per output record, and the output log adopts the column
    (:class:`~repro.broker.log.PartitionLog`).

    Like :class:`SlabColumn` it compares equal, by value, to a list or
    another column with equal elements, in either operand order; ``+``
    with a list or a column gives a list; a step-1 slice is a field
    column over the same arrays; it is unhashable.  Iteration, indexing
    and comparison build the elements.  A column must be treated as
    immutable; only the log grows its own private copy.
    """

    __slots__ = ("fields", "lookup", "start", "stop")

    def __init__(
        self, fields: tuple, lookup=None, start: int = 0, stop: int | None = None
    ) -> None:
        self.fields = fields
        self.lookup = lookup
        self.start = start
        self.stop = len(fields[0]) if stop is None else stop

    def __len__(self) -> int:
        return self.stop - self.start

    def _items(self, start: int, stop: int) -> list:
        """Rows ``[start, stop)`` of every field as lists of Python scalars."""
        items = [field[start:stop] for field in self.fields]
        if self.lookup is not None:
            items[0] = self.lookup[items[0]]
        return [item.tolist() for item in items]

    def __iter__(self):
        items = self._items(self.start, self.stop)
        return iter(items[0]) if len(items) == 1 else zip(*items)

    def __getitem__(self, index):
        if isinstance(index, slice):
            span = range(self.start, self.stop)[index]
            if span.step == 1:
                stop = max(span.start, span.stop)
                return FieldColumn(self.fields, self.lookup, span.start, stop)
            return list(self)[index]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("field column index out of range")
        row = self.start + index
        return next(iter(FieldColumn(self.fields, self.lookup, row, row + 1)))


def as_output(values: Sequence[Any]) -> Sequence[Any]:
    """``values`` as a kernel output: a ``list``, a :class:`SlabColumn`, a
    :class:`KvColumn` or a :class:`FieldColumn`."""
    if isinstance(values, (list, SlabColumn, KvColumn, FieldColumn)):
        return values
    return list(values)


class RecordColumn(Sequence):
    """A read-only record sequence stored as key and value columns.

    A source that keeps its records columnar subclasses this (the Beam
    KafkaIO read's ``KafkaRecordColumn``) and builds record objects only
    when an element is indexed or iterated.  The identity kernel passes a
    column through untouched and the ``record_kv`` kernel zips
    :meth:`kv_slices` instead of building records, so a chunk that only
    needs keys and values never materialises them.
    """

    __slots__ = ()

    def kv_slices(self) -> list[tuple[Sequence[Any] | None, Sequence[Any]]]:
        """Aligned ``(keys, values)`` column pairs, in element order.

        ``keys`` is ``None`` where every key of the pair's rows is ``None``.
        """
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Specs


@dataclass(frozen=True)
class KernelSpec:
    """A declarative promise about what a :class:`StreamFunction` computes.

    Attaching a spec to a function asserts that its per-record semantics
    are exactly the named shape; the equivalence suite enforces this for
    every spec shipped in the repo.  Stateless kinds: ``contains``,
    ``bernoulli``, ``column``, ``identity``, ``item``, ``kv_value``,
    ``record_kv``, ``ensure_kv``, ``nexmark_decode``.  Stateful kinds
    (which carry the declaring function as ``owner``): ``wordcount``,
    ``distinct_count``, ``statistics``, ``nexmark_q3``, ``nexmark_q4``,
    ``nexmark_q5``, ``windowed_aggregate``.
    """

    kind: str
    needle: str | None = None
    fraction: float | None = None
    rng: Any = None
    index: int | None = None
    sep: str | None = None
    #: The declaring function, for stateful kinds whose kernel mutates the
    #: function's own state in place.  Excluded from equality/hash: a
    #: spec's identity is its semantic shape, not which instance owns it.
    owner: Any = field(default=None, compare=False, repr=False)

    @classmethod
    def contains(cls, needle: str) -> "KernelSpec":
        """``filter(lambda v: needle in v)``."""
        return cls("contains", needle=needle)

    @classmethod
    def bernoulli(cls, fraction: float, rng: random.Random) -> "KernelSpec":
        """``filter(lambda v: rng.random() < fraction)`` — one draw/record."""
        return cls("bernoulli", fraction=fraction, rng=rng)

    @classmethod
    def column(cls, index: int, sep: str = "\t") -> "KernelSpec":
        """``map(lambda v: v.split(sep)[index])``."""
        return cls("column", index=index, sep=sep)

    @classmethod
    def identity(cls) -> "KernelSpec":
        """``map(lambda v: v)`` / flat-map to a singleton of itself."""
        return cls("identity")

    @classmethod
    def item(cls, index: int) -> "KernelSpec":
        """``map(lambda v: v[index])``."""
        return cls("item", index=index)

    @classmethod
    def kv_value(cls) -> "KernelSpec":
        """``map(extract_kv_value)``: ``v[1]`` for 2-tuples, else ``v``."""
        return cls("kv_value")

    @classmethod
    def record_kv(cls) -> "KernelSpec":
        """``map(lambda record: record.kv())`` — KafkaIO's ``withoutMetadata``."""
        return cls("record_kv")

    @classmethod
    def ensure_kv(cls) -> "KernelSpec":
        """``map``: ``v`` for 2-tuples, else ``(None, v)`` — KafkaIO
        ``write()``'s EnsureKV."""
        return cls("ensure_kv")

    @classmethod
    def nexmark_decode(cls) -> "KernelSpec":
        """``map(repro.workloads.nexmark.decode_event)`` over wire lines."""
        return cls("nexmark_decode")

    @classmethod
    def wordcount(cls, owner: Any) -> "KernelSpec":
        """Running per-word counts of the query column, one ``(word,
        count)`` output per word, state in ``owner.counts``."""
        return cls("wordcount", owner=owner)

    @classmethod
    def distinct_count(cls, owner: Any) -> "KernelSpec":
        """Running distinct-query count, one output per record, state in
        ``owner.seen``."""
        return cls("distinct_count", owner=owner)

    @classmethod
    def statistics(cls, owner: Any) -> "KernelSpec":
        """Running ``(min, max, mean)`` of the query-column length, state
        in ``owner.minimum``/``maximum``/``total``/``count``."""
        return cls("statistics", owner=owner)

    @classmethod
    def nexmark_q3(cls, owner: Any) -> "KernelSpec":
        """Nexmark Q3 incremental person⋈auction join (state in
        ``owner.persons``).  Wire-fusable after ``nexmark_decode``."""
        return cls("nexmark_q3", owner=owner)

    @classmethod
    def nexmark_q4(cls, owner: Any) -> "KernelSpec":
        """Nexmark Q4 running category price mean (state in
        ``owner.categories``/``sums``/``counts``).  Wire-fusable after
        ``nexmark_decode``."""
        return cls("nexmark_q4", owner=owner)

    @classmethod
    def nexmark_q5(cls, owner: Any) -> "KernelSpec":
        """Nexmark Q5 hot items: per-``(auction, fixed window)`` bid
        counts in ``owner.panes`` (a trigger-less windowed count whose
        filter is exactly ``isinstance(event, Bid)``, key the bid's
        auction and timestamp the bid's ``date_time``).  Wire-fusable
        after ``nexmark_decode``."""
        return cls("nexmark_q5", owner=owner)

    @classmethod
    def windowed_aggregate(cls, owner: Any) -> "KernelSpec":
        """Trigger-less windowed aggregation panes
        (:class:`repro.dataflow.windowing.WindowedAggregateFunction`),
        state in ``owner.panes``."""
        return cls("windowed_aggregate", owner=owner)


# ---------------------------------------------------------------------------
# Kernels


class Kernel:
    """A compiled chunk-at-a-time operator: a sequence in, a sequence out.

    The output is a ``list``, a :class:`SlabColumn` over the input's
    slab (or, for projection, over the input slab's column slab), a
    :class:`KvColumn` over such a column or, from wordcount,
    distinct-count and statistics, a :class:`FieldColumn`.
    """

    #: Whether :meth:`call_slab` beats :meth:`__call__` for this kernel.
    #: :func:`run_kernel` takes the slab path for every chunk that is a
    #: :class:`SlabColumn` window.
    supports_slab: bool = False

    def __call__(self, values: Sequence[Any]) -> Sequence[Any]:
        raise NotImplementedError

    def call_slab(
        self, slab: WorkloadSlab, base: int, values: Sequence[Any]
    ) -> Sequence[Any]:
        """Process ``values``, which are rows ``[base, base + len(values))``
        of ``slab``."""
        return self(values)

    def flush(self) -> None:
        """Return adopted state to its owner: the sample kernel's RNG
        state, the distinct-count kernel's ``seen`` membership, the
        windowed kernel's pane tally.

        Idempotent.  The pump flushes at the end of a run and before its
        drain calls any ``finish()``, a capacity probe and its pump pool
        at the end of the probe, and the recovery path after every
        chunk, so external observers always see the true state.
        """

    def describe(self) -> str:
        return type(self).__name__


def run_kernel(kernel: Kernel, values: Sequence[Any]) -> Sequence[Any]:
    """``kernel`` over ``values``, through its slab path for a window.

    The kernel tier's one dispatch rule: the pump applies it to every
    stage and chain and segment kernels to every op, so a window reaches
    each slab-aware op however the stages are fused.
    """
    if kernel.supports_slab and type(values) is SlabColumn and values.rows is None:
        return kernel.call_slab(values.slab, values.start, values)
    return kernel(values)


class IdentityKernel(Kernel):
    """Zero-copy passthrough (the pump's chunks are private slices).

    :class:`SlabColumn`, :class:`KvColumn` and :class:`FieldColumn`
    chunks also pass through unchanged, so a window keeps a downstream
    kernel's slab path and a column reaches the output log as a column;
    so do :class:`RecordColumn` chunks, which a downstream ``record_kv``
    kernel reads without building their records.
    """

    def __call__(self, values: Sequence[Any]) -> Sequence[Any]:
        if isinstance(values, (list, SlabColumn, KvColumn, FieldColumn, RecordColumn)):
            return values
        return list(values)

    def describe(self) -> str:
        return "identity[zero-copy]"


def joined_window(columns: Sequence[Any]) -> SlabColumn | None:
    """``columns`` as one window when they are adjacent windows of one
    slab, in order; ``None`` for any other columns."""
    if not columns or type(columns[0]) is not SlabColumn:
        return None
    first = columns[0]
    stop = first.start
    for column in columns:
        if (
            type(column) is not SlabColumn
            or column.rows is not None
            or column.slab is not first.slab
            or column.start != stop
        ):
            return None
        stop = column.stop
    return SlabColumn(first.slab, first.start, stop)


class RecordKvKernel(Kernel):
    """``record_kv``: each record's ``(key, value)`` pair.

    A :class:`RecordColumn` chunk builds no record object: when its
    keyless value slices are adjacent windows of one slab it becomes a
    :class:`KvColumn` over their joined window, and otherwise its key and
    value columns are zipped.  Any other chunk calls each record's
    ``kv()``, which is the reference semantics.
    """

    def __call__(self, values: Sequence[Any]) -> Sequence[Any]:
        if not isinstance(values, RecordColumn):
            return [record.kv() for record in values]
        slices = values.kv_slices()
        window = None
        if all(keys is None for keys, _ in slices):
            window = joined_window([column for _, column in slices])
        if window is not None:
            return KvColumn(window)
        pairs: list = []
        for keys, column in slices:
            pairs.extend(zip(repeat(None) if keys is None else keys, column))
        return pairs

    def describe(self) -> str:
        return "record_kv[column zip]"


class EnsureKvKernel(Kernel):
    """``ensure_kv``: each 2-tuple as it is, any other value as
    ``(None, value)``.

    A :class:`SlabColumn`'s rows are strings, never pairs, so it becomes
    a :class:`KvColumn` over itself, and a :class:`KvColumn` is pairs
    already; any other chunk is mapped element by element.
    """

    def __call__(self, values: Sequence[Any]) -> Sequence[Any]:
        if type(values) is SlabColumn:
            return KvColumn(values)
        if type(values) is KvColumn:
            return values
        return [
            v if isinstance(v, tuple) and len(v) == 2 else (None, v) for v in values
        ]

    def describe(self) -> str:
        return "ensure_kv[pair column]"


class PairValueKernel(Kernel):
    """``item(1)`` or ``kv_value`` on its own: each pair's value.

    Every element of a :class:`KvColumn` is a pair, so both shapes give
    its value column; any other chunk runs the fused comprehension.
    """

    def __init__(self, fused: "FusedKernel") -> None:
        self.fused = fused

    def __call__(self, values: Sequence[Any]) -> Sequence[Any]:
        if type(values) is KvColumn:
            return values.values
        return self.fused(values)

    def describe(self) -> str:
        return f"pair-value[{self.fused.describe()}]"


class GrepKernel(Kernel):
    """``contains`` over a slab as a memoised selection of its hit rows.

    On a slab window the hits come back as a :class:`SlabColumn`
    selection of the slab, cut from the slab's memoised hit rows
    (:meth:`WorkloadSlab.derived`): no string is built, and every grep
    over the slab after the first scans nothing.  One scan of the whole
    slab, in blocks of :data:`_DERIVE_BLOCK` rows, builds them: the first
    two needle bytes are compared as aligned little-endian ``uint16``
    lanes at both phases (covering every byte offset), and the remaining
    needle bytes are checked by sparse gathers at the candidate positions
    only.  Any other chunk runs the reference comprehension.
    """

    def __init__(self, needle: str) -> None:
        self.needle = needle
        self.supports_slab = len(needle) >= 2 and needle.isascii() and "\n" not in needle
        if self.supports_slab:
            encoded = needle.encode("ascii")
            self._word = int.from_bytes(encoded[:2], "little")
            self._tail = _np.frombuffer(encoded[2:], _np.uint8)
            self._u2 = _np.dtype("<u2")
            self._key = ("contains", needle)

    def _scan(self, data, size: int):
        """Sorted byte positions of every needle occurrence in ``data``, a
        ``uint8`` array of ``size`` bytes, or ``None``."""
        word = self._word
        candidates = []
        for phase in range(2):
            count = (size - phase) // 2
            if count <= 0:
                continue
            lanes = _np.frombuffer(data, self._u2, count, phase)
            pos = _np.flatnonzero(lanes == word)
            if len(pos):
                candidates.append(pos * 2 + phase)
        if not candidates:
            return None
        pos = candidates[0] if len(candidates) == 1 else _np.concatenate(candidates)
        tail = self._tail
        if len(tail):
            pos = pos[pos <= size - (len(tail) + 2)]
            if len(pos):
                ok = data[pos + 2] == tail[0]
                for j in range(1, len(tail)):
                    ok &= data[pos + 2 + j] == tail[j]
                pos = pos[ok]
        if not len(pos):
            return None
        pos.sort()
        return pos

    def __call__(self, values: Sequence[Any]) -> list:
        needle = self.needle
        return [v for v in values if needle in v]

    def call_slab(
        self, slab: WorkloadSlab, base: int, values: Sequence[Any]
    ) -> SlabColumn:
        hits = slab.derived(self._key, self._hits)
        lo, hi = hits.searchsorted((base, base + len(values))).tolist()
        return SlabColumn(slab, rows=hits[lo:hi])

    def _hits(self, slab: WorkloadSlab):
        """The ascending rows of every ``slab`` line holding the needle."""
        starts = slab.starts
        parts = [_np.empty(0, _np.int64)]
        for base in range(0, len(starts), _DERIVE_BLOCK):
            block = starts[base : base + _DERIVE_BLOCK]
            begin = int(block[0])
            end = _line_end(slab, base + len(block) - 1)
            positions = self._scan(slab.arr[begin:end], end - begin)
            if positions is not None:
                # A hit lies inside one line (the needle holds no
                # newline); several hits in one line keep it once.
                rows = _np.unique(block.searchsorted(positions + begin, "right") - 1)
                rows += base
                parts.append(rows)
        return _np.concatenate(parts)

    def describe(self) -> str:
        return f"grep[u2-scan {self.needle!r}]" if self.supports_slab else (
            f"grep[comprehension {self.needle!r}]"
        )


#: Generators that sample kernels adopted and flushed, for the next
#: adoption to overwrite: building a ``RandomState`` seeds an MT19937,
#: which costs more than the adoption itself.  A kernel takes one off the
#: list while it holds a state, so kernels stepped in alternation never
#: share a generator.
_SPARE_STATES: list = []
_SPARE_STATES_MAX = 8


class SampleKernel(Kernel):
    """``bernoulli`` as a pre-drawn mask from the transplanted MT19937.

    ``random.Random`` and ``numpy.random.RandomState`` share the MT19937
    core and the same 53-bit double recipe, so moving the 624-word state
    across produces the *identical* stream.  The state lives in NumPy
    between :meth:`flush` calls; the pump flushes at the end of a run or
    capacity probe (and after every chunk on the recovery path) so that
    any outside observer of the Python ``rng`` — checkpoints, subsequent
    runs — sees the true state.  The NumPy generator comes from a free
    list of flushed ones (``_SPARE_STATES``) and goes back on flush.
    On a slab window the kept rows come back as a :class:`SlabColumn`
    selection, drawn from the same mask, without building a string.
    """

    supports_slab = True

    def __init__(self, fraction: float, rng: random.Random) -> None:
        self.fraction = fraction
        self.rng = rng
        self._bulk = True
        self._state = None
        self._gauss = None

    def __call__(self, values: Sequence[Any]) -> list:
        if not self._bulk:
            rng_random = self.rng.random
            fraction = self.fraction
            return [v for v in values if rng_random() < fraction]
        if not values:
            return []
        mask = self._mask(len(values))
        if mask is None:  # unknown state version: stay per-record
            return self(values)
        return list(compress(values, mask.tolist()))

    def call_slab(
        self, slab: WorkloadSlab, base: int, values: Sequence[Any]
    ) -> Sequence[Any]:
        if not values:
            return []
        mask = self._mask(len(values))
        if mask is None:
            return self(values)
        rows = _np.flatnonzero(mask)
        rows += base
        return SlabColumn(slab, rows=rows)

    def _mask(self, count: int):
        """The next ``count`` Bernoulli draws as a boolean array.

        Adopts the Python RNG state into NumPy on first use; an unknown
        state version returns ``None`` and demotes the kernel to the
        per-record path.
        """
        state = self._state
        if state is None:
            py_state = self.rng.getstate()
            if py_state[0] != 3:
                self._bulk = False
                return None
            try:
                state = _SPARE_STATES.pop()
            except IndexError:
                state = _np.random.RandomState()
            state.set_state(
                ("MT19937", _np.array(py_state[1][:-1], dtype=_np.uint32),
                 py_state[1][-1])
            )
            self._state = state
            self._gauss = py_state[2]
        return state.random_sample(count) < self.fraction

    def flush(self) -> None:
        state = self._state
        if state is None:
            return
        self._state = None
        _, keys, pos, _, _ = state.get_state()
        self.rng.setstate((3, tuple(keys.tolist()) + (int(pos),), self._gauss))
        if len(_SPARE_STATES) < _SPARE_STATES_MAX:
            _SPARE_STATES.append(state)

    def describe(self) -> str:
        return f"sample[mask p={self.fraction}]" if self._bulk else (
            f"sample[comprehension p={self.fraction}]"
        )


class ColumnKernel(Kernel):
    """``column`` as closure-free prefix extraction.

    Per chunk, column 0 is ``v.partition(sep)[0]`` — exact by construction
    (``partition`` and ``split`` agree on the prefix before the first
    separator, including separator-free lines).  With a slab, the column
    width is learned from the first line and *proved* uniform for every
    line vectorized (separator at the learned offset, none earlier, line
    long enough); the whole column then becomes one fixed-width NumPy
    row take, kept as a slab of its own, and each window's output is the
    matching window of that column slab.  The column is memoised on the
    input slab (:meth:`WorkloadSlab.derived`), so every kernel and pool
    shard over one slab shares one column slab: consecutive windows come
    out contiguous (the output log widens one adopted window) and
    nothing projects a slab twice.  Any failed proof falls back to the
    per-chunk path, and non-str values fall through to the reference
    ``v.split(sep)[index]`` semantics.
    """

    def __init__(self, index: int, sep: str) -> None:
        self.index = index
        self.sep = sep
        self._fast = index == 0 and isinstance(sep, str) and len(sep) == 1
        self.supports_slab = self._fast and ord(sep) < 128
        self._key = ("column", index, sep)

    def __call__(self, values: Sequence[Any]) -> list:
        sep = self.sep
        if self._fast:
            try:
                return [v.partition(sep)[0] for v in values]
            except (TypeError, AttributeError):
                pass  # non-str values: the reference semantics decide
        return [v.split(sep)[self.index] for v in values]

    def call_slab(
        self, slab: WorkloadSlab, base: int, values: Sequence[Any]
    ) -> Sequence[Any]:
        column = slab.derived(self._key, self._project_slab)
        if column is None:  # non-uniform width: per-chunk path for this slab
            return self(values)
        return column[base : base + len(values)]

    def _project_slab(self, slab: WorkloadSlab) -> SlabColumn | None:
        """The full column as a window over its own slab, or ``None`` when
        uniform width cannot be proved."""
        starts = slab.starts
        n = len(starts)
        size = slab.size
        sep_byte = ord(self.sep)
        first_end = int(starts[1]) - 1 if n > 1 else size
        # Probe the first line with a byte scan, not ``text.find`` — for a
        # column-built slab ``text`` would decode the whole buffer just to
        # learn one offset.
        first_sep = _np.flatnonzero(slab.arr[:first_end] == sep_byte)
        if not len(first_sep):
            return None
        width = int(first_sep[0])
        lengths = _np.empty(n, _np.int64)
        lengths[:-1] = starts[1:] - starts[:-1] - 1  # newline excluded
        lengths[-1] = size - starts[-1]
        # Every line must own the byte at offset ``width`` (no read past a
        # short line into its neighbour), carry the separator exactly
        # there, and nowhere earlier.
        if not bool((lengths > width).all()):
            return None
        # One row take of each line's first ``width + 1`` bytes from a
        # strided view: no ``n x (width + 1)`` index array.  Every start
        # is a valid row, because every line is longer than ``width``.
        gathered = _sliding_window_view(slab.arr, width + 1)[starts]
        if not bool((gathered[:, width] == sep_byte).all()):
            return None
        if bool((gathered[:, :width] == sep_byte).any()):
            return None
        # Overwrite the separator column with newlines: the gathered rows
        # are then the column slab's bytes, one line per input line, and
        # the final newline is the only byte left out.  A prefix can never
        # contain a newline (the slab has exactly one per boundary).
        gathered[:, width] = _NL
        # Read-only, like the memoised arrays: the column slab is shared.
        gathered.flags.writeable = False
        data = memoryview(gathered.reshape(-1))[:-1]
        starts = _np.arange(0, n * (width + 1), width + 1, dtype=_np.int64)
        starts.flags.writeable = False
        return SlabColumn(slab_from_columns(data, starts))

    def describe(self) -> str:
        return f"column[{self.index} sep={self.sep!r}]"


class FusedKernel(Kernel):
    """A generated single-comprehension kernel (closure-free)."""

    def __init__(self, fn: Callable, source: str) -> None:
        self._fn = fn
        self.source = source

    def __call__(self, values: Sequence[Any]) -> list:
        return self._fn(values)

    def describe(self) -> str:
        return f"fused[{self.source.splitlines()[1].strip()}]"


class ChainKernel(Kernel):
    """Sequential composition of kernels (a compiled ``ComposedFunction``).

    Each op runs through :func:`run_kernel`, so a window that reaches a
    slab-aware op anywhere in the chain takes its slab path.
    """

    def __init__(self, ops: list) -> None:
        self.ops = ops

    def __call__(self, values: Sequence[Any]) -> Sequence[Any]:
        for op in self.ops:
            values = run_kernel(op, values)
            if not values:
                break
        return as_output(values)

    def flush(self) -> None:
        for op in self.ops:
            op.flush()

    def describe(self) -> str:
        return " → ".join(op.describe() for op in self.ops)


# ---------------------------------------------------------------------------
# Stateful kernels
#
# Each kernel below compiles one stateful operator shape.  None of them
# owns state: they mutate the owner function's containers in place and
# re-fetch them on every call (restore() rebinds them), so snapshots,
# recovery and drain always observe reference-identical state.  Only the
# distinct-count and windowed slab paths adopt state, a membership and a
# pane tally that flush() writes into the owner's seen and panes; the
# pump flushes before any of those observers.  The
# AOL query kernels serve slab windows; a list chunk runs the owner's own
# process_batch.


class StatefulKernel(Kernel):
    """Base for kernels that mutate their owner function's state in place.

    A chunk the kernel has no fast path for runs the owner's own
    ``process_batch``.
    """

    def __init__(self, fn: Any) -> None:
        self._fn = fn

    def __call__(self, values: Sequence[Any]) -> Sequence[Any]:
        return self._fn.process_batch(values)

    def describe(self) -> str:
        label = getattr(self._fn, "name", type(self._fn).__name__)
        return f"{type(self).__name__}[{label}]"


#: Sentinel window bound: every comparison with NaN is false, so a
#: locality test against it always takes the recompute path.
_NAN = float("nan")

_TAB = 9  # ord("\t")
_SPACE = 32  # ord(" ")

#: Byte offsets of the eight ``QueryTime`` digits inside the fixed-width
#: ``2006-03-DD HH:MM:SS`` field, and each digit's weight in seconds.
_TIME_DIGITS = _np.array([8, 9, 11, 12, 14, 15, 17, 18])
_TIME_WEIGHTS = _np.array([864000, 86400, 36000, 3600, 600, 60, 10, 1])
_TIME_WIDTH = 19

#: A pane code is ``window index << _WORD_BITS | first-word id``.
_WORD_BITS = 20
_WORD_MASK = (1 << _WORD_BITS) - 1
#: Window indices a pane code holds (``|index| < 2**42``; int64 has room).
_MAX_WINDOW = float(1 << 42)


def _byte_offsets(arr, byte: int, positions, stop: int, count: int = 1) -> list:
    """The first ``count`` offsets of ``byte`` at or after each position.

    ``positions`` ascend, and only ``arr[positions[0]:stop]`` is scanned:
    one ``flatnonzero`` finds every occurrence and one ``searchsorted``
    places each position's first; its next occurrences follow it in the
    sorted offsets.  ``count`` sentinels equal to ``stop`` stand in where
    there are fewer occurrences.
    """
    begin = int(positions[0])
    found = _np.flatnonzero(arr[begin:stop] == byte)
    offsets = _np.full(len(found) + count, stop, _np.int64)
    offsets[: len(found)] = found + begin
    first = offsets.searchsorted(positions)
    return [offsets[first + j] for j in range(count)]


def _line_tabs(slab: WorkloadSlab, base: int, n: int, count: int):
    """Byte bounds and first ``count`` tab offsets of rows ``[base, base + n)``.

    Returns ``(begins, ends, tabs)``: ``ends`` excludes the newline, and
    in each of the ``count`` arrays of ``tabs`` an offset ``>= ends``
    means the line has fewer tabs.
    """
    begins = slab.starts[base : base + n]
    stop = _line_end(slab, base + n - 1)
    ends = _np.empty(n, _np.int64)
    ends[:-1] = begins[1:] - 1
    ends[-1] = stop
    return begins, ends, _byte_offsets(slab.arr, _TAB, begins, stop, count)


def _query_spans(slab: WorkloadSlab, base: int, n: int):
    """Byte spans of :func:`repro.workloads.aol.query_column` per line.

    The span runs from the first tab to the second, or to the line end
    when there is no second; a tab-less line is its own query column.
    """
    begins, ends, (tab1, tab2) = _line_tabs(slab, base, n, 2)
    return _np.where(tab1 < ends, tab1 + 1, begins), _np.minimum(tab2, ends)


def _gather_spans(arr, begins, ends) -> str:
    """The byte spans ``[begins, ends)`` decoded, each followed by a newline.

    One gather copies every span together with the byte after it, and
    that byte is overwritten with a newline: ``ColumnKernel``'s
    overwrite-decode-split trick over ragged widths.  A span never
    contains a newline (the slab has exactly one per line boundary), so
    ``split("\\n")`` of the result is exact.
    """
    if not len(arr):  # a slab of one empty line: nothing to gather
        return "\n" * len(begins)
    seps = _np.cumsum(ends - begins + 1) - 1  # output offset of each newline
    # Source offsets as a running sum: +1 inside a span, then a jump from
    # one span's separator byte to the next span's first byte.
    steps = _np.ones(int(seps[-1]) + 1, _np.int64)
    steps[0] = begins[0]
    steps[seps[:-1] + 1] = begins[1:] - ends[:-1]
    index = _np.cumsum(steps)
    index[seps] = 0  # the last span may end at the end of the buffer
    out = arr[index]
    out[seps] = _NL
    return out.tobytes().decode("ascii")


#: :meth:`WorkloadSlab.derived` key of :func:`_query_field`.
_QUERY_FIELD = ("query",)


def _query_field(slab: WorkloadSlab) -> tuple:
    """Every line's query column as ``(text, offsets)``.

    ``text`` holds each line's query column followed by a newline, and
    the ``n + 1`` int64 ``offsets`` place line ``i``'s column at
    ``text[offsets[i] : offsets[i + 1] - 1]``, so rows ``[b, b + n)`` are
    ``text[offsets[b] : offsets[b + n]]``.  Built in blocks of
    :data:`_DERIVE_BLOCK` rows.
    """
    n = len(slab.starts)
    offsets = _np.zeros(n + 1, _np.int64)
    pieces = []
    for base in range(0, n, _DERIVE_BLOCK):
        count = min(_DERIVE_BLOCK, n - base)
        begins, ends = _query_spans(slab, base, count)
        offsets[base + 1 : base + count + 1] = ends - begins + 1
        pieces.append(_gather_spans(slab.arr, begins, ends))
    _np.cumsum(offsets, out=offsets)
    return "".join(pieces), offsets


def _previous(ids, count: int, dtype):
    """Each entry's previous occurrence: the index of the last earlier
    entry with the same id, ``-1`` where there is none, from one stable
    sort of the ``count`` distinct ``ids`` (as uint16 while they fit:
    NumPy's stable sort of them is a radix sort)."""
    if count <= 1 << 16:
        ids = ids.astype(_np.uint16)
    order = _np.argsort(ids, kind="stable")
    ordered = ids[order]
    same = ordered[1:] == ordered[:-1]  # entry k + 1 repeats entry k's id
    prev = _np.full(len(ids), -1, dtype)
    prev[order[1:][same]] = order[:-1][same]
    return prev


def _index_dtype(n: int):
    """The integer type of indices into ``n`` entries."""
    return _np.int32 if n < 1 << 31 else _np.int64


#: :meth:`WorkloadSlab.derived` key of :func:`_query_words`.
_QUERY_WORDS = ("words",)

#: The bytes ``str.split()`` splits an ASCII text on.
_WHITESPACE = _np.array([chr(byte).isspace() for byte in range(128)] + [False] * 128)


def _query_words(slab: WorkloadSlab) -> tuple:
    """Every word of the query field (:func:`_query_field`) as an id, as
    ``(codes, lines, ranks, prev, following, lookup)``.

    ``codes`` holds the id of each word of the field's text, in order,
    with ids numbered in first-occurrence order, and the object
    array ``lookup`` maps an id back to its word; the ``n + 1`` int64
    ``lines`` place line ``i``'s words at
    ``codes[lines[i] : lines[i + 1]]``.  For the word at index ``j``,
    ``ranks[j]`` counts the earlier occurrences of the same word, and
    ``prev[j]`` and ``following[j]`` are the indices of its previous and
    next occurrence (``-1`` and ``len(codes)`` where there is none), so
    a window ``[lo, hi)`` of words finds each word's first and last
    occurrence in it without a sort.  Words are split, as the reference
    splits them, and interned in blocks of :data:`_DERIVE_BLOCK` lines;
    one stable sort of the ids gives the occurrence links.  Ids are
    uint16 up to 2**16 distinct words; ids past that, ranks and links are
    int32, or int64 for 2**31 words or more.
    """
    text, offsets = slab.derived(_QUERY_FIELD, _query_field)
    n = len(offsets) - 1
    lines = _np.zeros(n + 1, _np.int64)
    parts = [_np.empty(0, _np.int64)]
    ids: defaultdict = defaultdict()  # word -> id
    ids.default_factory = ids.__len__  # a new word gets the next id
    total = 0
    for base in range(0, n, _DERIVE_BLOCK):
        stop = min(base + _DERIVE_BLOCK, n)
        begin = int(offsets[base])
        block = text[begin : int(offsets[stop])]
        space = _WHITESPACE[_np.frombuffer(block.encode("ascii"), _np.uint8)]
        # A word starts at a non-space byte after a space; the block
        # starts at a line start, so its first byte follows a newline.
        after_space = _np.ones(len(space), bool)
        after_space[1:] = space[:-1]
        starts = _np.flatnonzero(~space & after_space)
        lines[base:stop] = starts.searchsorted(offsets[base:stop] - begin) + total
        words = block.split()
        parts.append(_np.fromiter(map(ids.__getitem__, words), _np.int64, len(words)))
        total += len(words)
    lines[n] = total
    index = _index_dtype(total)
    # uint16 ids while they fit: NumPy's stable sort of them is a radix sort.
    codes = _np.concatenate(parts).astype(_np.uint16 if len(ids) <= 1 << 16 else index)
    order = _np.argsort(codes, kind="stable")
    ordered = codes[order]
    # ``order`` lists each word's occurrences consecutively, in order.
    same = ordered[1:] == ordered[:-1]  # entry k + 1 repeats entry k's word
    group = _np.zeros(total, _np.int64)
    group[1:] = _np.where(same, 0, _np.arange(1, total))
    _np.maximum.accumulate(group, out=group)  # each entry's word's first entry
    ranks = _np.empty(total, index)
    ranks[order] = _np.arange(total) - group
    prev = _np.full(total, -1, index)
    prev[order[1:][same]] = order[:-1][same]
    following = _np.full(total, total, index)
    following[order[:-1][same]] = order[1:][same]
    return codes, lines, ranks, prev, following, _np.array(list(ids), dtype=object)


#: Prior counts the wordcount slab path adds to in int64: well inside its
#: range, so that a prior plus a window's occurrence rank cannot wrap.
_COUNT_LIMIT = 1 << 62


class WordCountKernel(StatefulKernel):
    """Running word count over slab windows, as NumPy arithmetic on ids.

    On a slab window it builds no word and no pair: it reads the window's
    words as ids from the slab's memoised word codes
    (:func:`_query_words`).  Each word's running count is the owner's
    prior count of it, plus one, plus its occurrences in the window
    before it: its slab rank less the rank of its first occurrence in the
    window.  Only the window's distinct words touch ``owner.counts``:
    one lookup each for the prior and one update each, in
    first-occurrence order, with the count at the word's last occurrence
    in the window.  The output is a :class:`FieldColumn` of the word ids,
    decoded by the slab's word lookup, and the counts.  A prior count
    that is not an ``int``, or not far inside int64's range, sends the
    whole window through the hoisted loop over its slice of the memoised
    query field (newline is whitespace, so per-line word order is
    preserved), so a restored float count is added to one word at a
    time, as the reference adds it.  Any other chunk runs the owner's
    ``process_batch``.
    """

    supports_slab = True

    def call_slab(
        self, slab: WorkloadSlab, base: int, values: Sequence[Any]
    ) -> Sequence[Any]:
        codes, lines, ranks, prev, following, lookup = slab.derived(
            _QUERY_WORDS, _query_words
        )
        lo, hi = int(lines[base]), int(lines[base + len(values)])
        if lo == hi:
            return []
        window, window_ranks = codes[lo:hi], ranks[lo:hi]
        first = prev[lo:hi] < lo
        distinct = window[first]  # ids in first-occurrence order
        words = lookup[distinct].tolist()
        counts = self._fn.counts
        priors = list(map(counts.get, words, repeat(0)))
        if {*map(type, priors)} != {int} or not (
            -_COUNT_LIMIT < min(priors) and max(priors) < _COUNT_LIMIT
        ):
            text, offsets = slab.derived(_QUERY_FIELD, _query_field)
            return self._count(text[offsets[base] : offsets[base + len(values)]])
        # Per id: what a window rank adds up to the word's running count.
        shift = _np.empty(len(lookup), _np.int64)
        shift[distinct] = _np.array(priors, _np.int64) + 1 - window_ranks[first]
        running = window_ranks + shift[window]
        last = following[lo:hi] >= hi
        shift[window[last]] = running[last]  # each id has one last occurrence
        counts.update(zip(words, shift[distinct].tolist()))
        return FieldColumn((window, running), lookup)

    def _count(self, text: str) -> list:
        counts = self._fn.counts
        out: list = []
        append = out.append
        get = counts.get
        for word in text.split():
            count = get(word, 0) + 1
            counts[word] = count
            append((word, count))
        return out


#: :meth:`WorkloadSlab.derived` key of :func:`_query_ids`.
_QUERY_IDS = ("query ids",)


def _query_ids(slab: WorkloadSlab) -> tuple:
    """Every line's query column (:func:`_query_field`) as an id, as
    ``(ids, prev, lookup)``.

    ``ids`` numbers the distinct query columns in first-occurrence
    order, the object array ``lookup`` maps an id back to its query
    column, and ``prev[i]`` is the previous line with line ``i``'s query
    column (``-1`` where there is none), so a window ``[b, b + n)``'s
    first occurrences are its lines with ``prev < b``.  Interned in
    blocks of :data:`_DERIVE_BLOCK` lines; ids and links are int32, or
    int64 for 2**31 lines or more.
    """
    text, offsets = slab.derived(_QUERY_FIELD, _query_field)
    n = len(offsets) - 1
    index = _index_dtype(n)
    ids = _np.empty(n, index)
    interned: defaultdict = defaultdict()  # query column -> id
    interned.default_factory = interned.__len__  # a new column gets the next id
    for base in range(0, n, _DERIVE_BLOCK):
        stop = min(base + _DERIVE_BLOCK, n)
        columns = text[offsets[base] : offsets[stop]].split("\n")
        columns.pop()  # the empty piece after the final newline
        ids[base:stop] = _np.fromiter(map(interned.__getitem__, columns), index, stop - base)
    lookup = _np.empty(len(interned), object)
    lookup[:] = list(interned)
    return ids, _previous(ids, len(lookup), index), lookup


class DistinctCountKernel(StatefulKernel):
    """Running distinct-query count over slab windows, as NumPy arithmetic
    on ids.

    On a slab window it reads the window's query columns as ids from the
    slab's memoised query ids (:func:`_query_ids`).  The kernel adopts
    ``owner.seen``'s membership for one slab, as the sample kernel adopts
    its RNG: per query id of the slab whether it is decided and whether
    it is a member, the running size of ``seen``, and the ids the
    windows added, in first-occurrence order.  A window tests
    ``owner.seen`` only for its first occurrences whose id is still
    undecided: in an in-order walk the slab's own first occurrences, and
    none when ``seen`` was empty at adoption.  The running count is the
    size before the window plus the cumulative sum of the rows that added
    a query, returned as a one-field :class:`FieldColumn` that the output
    log adopts.  ``flush`` writes the added queries with one
    ``seen.update`` in the reference's insertion order and drops the
    adoption (``open()`` clears ``seen`` in place, so nothing of it may
    outlive a flush); the kernel flushes before a window of another slab
    and before any other chunk runs the owner's ``process_batch``.
    """

    supports_slab = True

    def __init__(self, fn: Any) -> None:
        super().__init__(fn)
        self._lookup = None  # the adopted slab's id -> query lookup
        self._decided = None  # per query id: its membership is known
        self._member = None  # per query id: it is in ``seen``
        self._size = 0  # the running size of ``seen``
        self._added: list = []  # the ids each window added

    def call_slab(
        self, slab: WorkloadSlab, base: int, values: Sequence[Any]
    ) -> Sequence[Any]:
        n = len(values)
        if not n:
            return []
        ids, prev, lookup = slab.derived(_QUERY_IDS, _query_ids)
        if lookup is not self._lookup:  # a window of another slab
            self.flush()
            seen = self._fn.seen
            self._lookup = lookup
            self._decided = _np.full(len(lookup), not seen)
            self._member = _np.zeros(len(lookup), bool)
            self._size = len(seen)
        window = ids[base : base + n]
        firsts = _np.flatnonzero(prev[base : base + n] < base)
        first_ids = window[firsts]
        member = self._member
        decided = self._decided
        open_ids = first_ids[~decided[first_ids]]
        if len(open_ids):
            contains = self._fn.seen.__contains__
            queries = lookup[open_ids].tolist()
            member[open_ids] = _np.fromiter(map(contains, queries), bool, len(queries))
            decided[open_ids] = True
        fresh = ~member[first_ids]
        new = first_ids[fresh]
        member[new] = True
        self._added.append(new)
        running = _np.zeros(n, _np.int64)
        running[firsts[fresh]] = 1  # the rows that add their query
        _np.cumsum(running, out=running)
        running += self._size
        self._size += len(new)
        return FieldColumn((running,))

    def flush(self) -> None:
        """Write the added queries into ``owner.seen`` and drop the adoption."""
        lookup = self._lookup
        if lookup is None:
            return
        added = _np.concatenate(self._added)
        self._lookup = self._decided = self._member = None
        self._added = []
        self._fn.seen.update(lookup[added].tolist())

    def __call__(self, values: Sequence[Any]) -> Sequence[Any]:
        self.flush()
        return super().__call__(values)


class StatisticsKernel(StatefulKernel):
    """Running ``(min, max, mean)`` of the query length over slab windows.

    A slab window's lengths are the differences of the slab's memoised
    query-field offsets (:func:`_query_field`), less each column's
    newline; no string is read.  Every accumulated quantity is an
    integer-valued double far below 2**53, so NumPy's sequential
    accumulates are exact and folding the prior totals in after the fact
    equals the reference's running fold.  The bulk fold returns its
    minima, maxima and means arrays as a :class:`FieldColumn` of ``(min,
    max, mean)`` triples, which the output log adopts; a window shorter
    than :data:`_MIN_BULK` takes a hoisted reference-shaped loop that
    returns a list.  Any other chunk runs the owner's ``process_batch``.
    """

    supports_slab = True

    def call_slab(
        self, slab: WorkloadSlab, base: int, values: Sequence[Any]
    ) -> Sequence[Any]:
        if not values:
            return []
        _, offsets = slab.derived(_QUERY_FIELD, _query_field)
        lengths = _np.diff(offsets[base : base + len(values) + 1]) - 1
        return self._fold(lengths.astype(_np.float64))

    def _fold(self, lengths) -> Sequence[Any]:
        """Fold a float64 array of lengths into the owner state (reference
        order)."""
        fn = self._fn
        n = len(lengths)
        if n < _MIN_BULK:
            # Python floats, like the reference's ``float(len(...))``: no
            # NumPy scalar may reach the owner state.
            lengths = lengths.tolist()
            out: list = []
            emit = out.append
            minimum, maximum = fn.minimum, fn.maximum
            total, count = fn.total, fn.count
            for length in lengths:
                minimum = min(minimum, length)
                maximum = max(maximum, length)
                total += length
                count += 1
                emit((minimum, maximum, total / count))
            fn.minimum, fn.maximum, fn.total, fn.count = (
                minimum, maximum, total, count,
            )
            return out
        minima = _np.minimum(_np.minimum.accumulate(lengths), fn.minimum)
        maxima = _np.maximum(_np.maximum.accumulate(lengths), fn.maximum)
        totals = _np.cumsum(lengths)
        totals += fn.total
        counts = _np.arange(fn.count + 1, fn.count + n + 1, dtype=_np.float64)
        fn.minimum = float(minima[-1])
        fn.maximum = float(maxima[-1])
        fn.total = float(totals[-1])
        fn.count += n
        return FieldColumn((minima, maxima, totals / counts))


class NexmarkDecodeKernel(Kernel):
    """Wire-format decode as a bare comprehension (no per-record closure)."""

    def __init__(self) -> None:
        from repro.workloads.nexmark import decode_event

        self._decode = decode_event

    def __call__(self, values: Sequence[Any]) -> list:
        decode = self._decode
        return [decode(line) for line in values]

    def describe(self) -> str:
        return "nexmark-decode"


class NexmarkQ3Kernel(StatefulKernel):
    """Q3 incremental join over decoded events (one hoisted loop)."""

    def __init__(self, fn: Any) -> None:
        super().__init__(fn)
        from repro.workloads.nexmark import Auction, Person
        from repro.workloads.nexmark_queries import Q3_STATES

        self._person = Person
        self._auction = Auction
        self._states = Q3_STATES

    def __call__(self, values: Sequence[Any]) -> list:
        persons = self._fn.persons
        get = persons.get
        person_type, auction_type = self._person, self._auction
        states = self._states
        out: list = []
        append = out.append
        for event in values:
            if isinstance(event, auction_type):
                person = get(event.seller)
                if person is not None:
                    append(
                        (person.name, person.city, person.state, event.auction_id)
                    )
            elif isinstance(event, person_type) and event.state in states:
                persons[event.person_id] = event
        return out


class NexmarkQ4Kernel(StatefulKernel):
    """Q4 running category mean over decoded events (one hoisted loop)."""

    def __init__(self, fn: Any) -> None:
        super().__init__(fn)
        from repro.workloads.nexmark import Auction, Bid

        self._auction = Auction
        self._bid = Bid

    def __call__(self, values: Sequence[Any]) -> list:
        fn = self._fn
        categories, sums, counts = fn.categories, fn.sums, fn.counts
        cat_get, sum_get, count_get = categories.get, sums.get, counts.get
        auction_type, bid_type = self._auction, self._bid
        out: list = []
        append = out.append
        for event in values:
            if isinstance(event, bid_type):
                category = cat_get(event.auction)
                if category is None:
                    continue
                total = sum_get(category, 0.0) + event.price
                sums[category] = total
                count = count_get(category, 0) + 1
                counts[category] = count
                append((category, total / count))
            elif isinstance(event, auction_type):
                categories[event.auction_id] = event.category
        return out


def _pane_ids(slab: WorkloadSlab, size: float, offset: float) -> tuple:
    """Every line's pane in ``FixedWindows(size, offset)`` panes per first
    word, as ``(ids, prev, valid, keys)``.

    ``ids`` numbers the slab's distinct panes in first-occurrence order,
    ``keys`` holds each pane's ``(first word, start, end)`` key, as the
    reference computes it, and ``prev[i]`` is the previous line in line
    ``i``'s pane (``-1`` where there is none), so a window ``[b, b + n)``'s
    first occurrences are its lines with ``prev < b``.  ``valid`` marks
    the lines the reference parses the same way: at least two tabs, a
    time field of 19 bytes or more with digits at the eight digit
    positions, a window with ``end > start`` and an index below 2**42,
    and a first word among the slab's first 2**20; an invalid line's id
    and link mean nothing.  Each line's pane is first an int64 code,
    ``window index << _WORD_BITS | first-word id``, interned to its id in
    blocks of :data:`_DERIVE_BLOCK` rows; ids and links are int32, or
    int64 for 2**31 lines or more.
    """
    n = len(slab.starts)
    arr = slab.arr
    index = _index_dtype(n)
    ids = _np.zeros(n, index)
    valid = _np.zeros(n, bool)
    words: dict = {}  # first word -> id
    panes: defaultdict = defaultdict()  # pane code -> id
    panes.default_factory = panes.__len__  # a new pane gets the next id
    if not slab.size:  # no line has a tab
        return ids, _np.full(n, -1, index), valid, ()
    for base in range(0, n, _DERIVE_BLOCK):
        count = min(_DERIVE_BLOCK, n - base)
        begins, ends, (tab1, tab2, tab3) = _line_tabs(slab, base, count, 3)
        times = tab2 + 1
        # A line with fewer than two tabs fails this too: its second tab
        # offset lies at or past its end.
        ok = _np.minimum(tab3, ends) - times >= _TIME_WIDTH
        # Clipped: an invalid row's digit positions may lie past the slab.
        digits = arr.take(times[:, None] + _TIME_DIGITS, mode="clip") - 48
        ok &= (digits <= 9).all(axis=1)  # uint8: wraps below "0"
        timestamps = (digits @ _TIME_WEIGHTS).astype(_np.float64)
        windows = _np.floor_divide(timestamps - offset, size)
        lows = windows * size + offset
        ok &= (lows + size > lows) & (_np.abs(windows) < _MAX_WINDOW)
        # Clipped, so that every position lies inside the scanned bytes.
        queries = _np.minimum(tab1 + 1, ends)
        spaces = _byte_offsets(arr, _SPACE, queries, int(ends[-1]))[0]
        # An invalid row's span may run backwards: give it an empty word.
        word_begins = _np.where(ok, queries, begins)
        word_ends = _np.where(ok, _np.minimum(spaces, tab2), begins)
        first_words = _gather_spans(arr, word_begins, word_ends).split("\n")
        first_words.pop()  # the empty piece after the final newline
        for word in dict.fromkeys(first_words):
            words.setdefault(word, len(words))
        word_ids = _np.fromiter(map(words.__getitem__, first_words), _np.int64, count)
        ok &= word_ids <= _WORD_MASK
        codes = (windows[ok].astype(_np.int64) << _WORD_BITS | word_ids[ok]).tolist()
        block = ids[base : base + count]
        block[ok] = _np.fromiter(map(panes.__getitem__, codes), index, len(codes))
        valid[base : base + count] = ok
    codes = _np.fromiter(panes, _np.int64, len(panes))
    lows = (codes >> _WORD_BITS).astype(_np.float64) * size + offset
    keys = tuple(
        zip(
            map(list(words).__getitem__, (codes & _WORD_MASK).tolist()),
            lows.tolist(),
            (lows + size).tolist(),
        )
    )
    return ids, _previous(ids, len(keys), index), valid, keys


class WindowedAggregateKernel(StatefulKernel):
    """Trigger-less windowed panes over slab windows, as a pane-id tally.

    Only trigger-less owners declare the spec — ``AfterCount`` runs
    ``process_batch``.  The slab path serves owners that count per
    :func:`~repro.workloads.aol.first_word` over
    :func:`~repro.workloads.aol.event_time` in ``FixedWindows`` from an
    ``int`` initial value (no filter, no reducer).  A slab window reads
    its rows of the slab's memoised pane ids (:func:`_pane_ids`, keyed
    by the window size and offset): the event time comes from the eight
    ``QueryTime`` digits in integer arithmetic, the window index from the
    same double operations as ``FixedWindows.assign``, and each first
    word from the query span up to its first space; each pane's key is
    computed once per slab.  The tally is an int64 count per pane id of
    the slab, which each window adds its ``bincount`` to, and the ids
    each window added, in first-occurrence order: its first occurrences
    whose count was 0.  It is adopted state, like the sample kernel's
    RNG, and belongs to one slab: ``flush`` writes it into
    ``owner.panes`` once per tallied pane, in that order, under the
    slab's memoised keys, and zeroes the counts it wrote; the kernel
    flushes before it tallies a window of another slab.  Any other
    chunk, and a window with any line the reference would parse
    differently or reject — fewer than two tabs, a time field shorter
    than 19 bytes, a non-digit at a digit position, a window with
    ``end <= start``, a window index of 2**42 or more, a first word past
    the slab's 2**20th — flushes the tally and runs the owner's
    ``process_batch`` whole, so values, pane order and the state at a
    raise stay the reference's.
    """

    def __init__(self, fn: Any) -> None:
        super().__init__(fn)
        from repro.beam.window import FixedWindows
        from repro.workloads.aol import event_time, first_word

        fixed = type(fn.window_fn) is FixedWindows
        self.supports_slab = (
            fixed
            and fn.filter_fn is None
            and fn.reducer is None
            and fn.key_fn is first_word
            and fn.timestamp_fn is event_time
            and type(fn.initial) is int
        )
        if fixed:
            self._key = ("panes", fn.window_fn.size, fn.window_fn.offset)
        self._keys = None  # the tally's slab's pane keys
        self._counts = None  # the tally: an int64 count per pane id
        self._added: list = []  # the tallied pane ids, per window

    def call_slab(self, slab: WorkloadSlab, base: int, values: Sequence[Any]) -> list:
        n = len(values)
        if not n:
            return []
        ids, prev, valid, keys = slab.derived(self._key, self._panes)
        if not valid[base : base + n].all():
            return self(values)
        if keys is not self._keys:  # a window of another slab
            self.flush()
            self._keys = keys
            self._counts = _np.zeros(len(keys), _np.int64)
        window = ids[base : base + n]
        counts = self._counts
        firsts = window[prev[base : base + n] < base]
        self._added.append(firsts[counts[firsts] == 0])
        counts += _np.bincount(window, minlength=len(counts))
        return []

    def _panes(self, slab: WorkloadSlab) -> tuple:
        _, size, offset = self._key
        return _pane_ids(slab, size, offset)

    def flush(self) -> None:
        """Write the tally into ``owner.panes``, one update per pane.

        When the tallied ids are exactly ``0 .. k - 1``, as in any
        in-order walk from the slab's first row, the keys are one slice
        of the slab's memoised keys; an ``initial`` of 0 adds nothing to
        the counts.
        """
        if not self._added:
            return
        added = _np.concatenate(self._added)
        self._added = []
        counts = self._counts
        k = len(added)
        if _np.array_equal(added, _np.arange(k)):
            keys = self._keys[:k]
            tally = counts[:k].tolist()
            counts[:k] = 0
        else:
            keys = list(map(self._keys.__getitem__, added.tolist()))
            tally = counts[added].tolist()
            counts[added] = 0
        fn = self._fn
        panes = fn.panes
        initial = fn.initial
        if not panes:
            panes.update(zip(keys, map(initial.__add__, tally) if initial else tally))
            if len(panes) == len(keys):
                return
            panes.clear()  # two panes share a float key: merge them below
        get = panes.get
        for key, count in zip(keys, tally):
            value = get(key, initial)
            if type(value) is int:
                value += count
            else:  # restored state: the reference's additions, one by one
                for _ in repeat(None, count):
                    value = value + 1
            panes[key] = value

    def __call__(self, values: Sequence[Any]) -> Sequence[Any]:
        self.flush()
        return super().__call__(values)


class NexmarkQ3WireKernel(StatefulKernel):
    """Fused decode→Q3 over wire-format lines.

    Q3 consumes no bids, so bid lines (~92% of the stream) are skipped
    without being parsed; person lines parse fully only when the state
    filter passes, constructing real :class:`Person` objects so
    ``owner.persons`` stays snapshot-identical to the reference's.  Lines
    whose two-byte tag is not a known event type take the exact reference
    path (decode, then process) and raise identically; consumed-field
    conformance is the spec's promise.
    """

    def __init__(self, fn: Any) -> None:
        super().__init__(fn)
        from repro.workloads.nexmark import Person, decode_event
        from repro.workloads.nexmark_queries import Q3_STATES

        self._person = Person
        self._decode = decode_event
        self._states = Q3_STATES

    def __call__(self, values: Sequence[Any]) -> list:
        fn = self._fn
        persons = fn.persons
        get = persons.get
        person_type = self._person
        states = self._states
        decode = self._decode
        process = fn.process
        out: list = []
        append = out.append
        extend = out.extend
        for line in values:
            tag = line[:2] if type(line) is str else None
            if tag == "B\t":
                continue
            if tag == "A\t":
                parts = line.split("\t")
                person = get(int(parts[5]))
                if person is not None:
                    append(
                        (person.name, person.city, person.state, int(parts[1]))
                    )
            elif tag == "P\t":
                parts = line.split("\t")
                if parts[5] in states:
                    persons[int(parts[1])] = person_type(
                        person_id=int(parts[1]),
                        name=parts[2],
                        email=parts[3],
                        city=parts[4],
                        state=parts[5],
                        date_time=float(parts[6]),
                    )
            else:
                extend(process(decode(line)))
        return out


class NexmarkQ4WireKernel(StatefulKernel):
    """Fused decode→Q4 over wire-format lines.

    Bid lines lean-parse just the auction and price fields; auction lines
    record their category; person lines are skipped unparsed (Q4 ignores
    them).  Unknown tags take the exact reference path.
    """

    def __init__(self, fn: Any) -> None:
        super().__init__(fn)
        from repro.workloads.nexmark import decode_event

        self._decode = decode_event

    def __call__(self, values: Sequence[Any]) -> list:
        fn = self._fn
        categories, sums, counts = fn.categories, fn.sums, fn.counts
        cat_get, sum_get, count_get = categories.get, sums.get, counts.get
        decode = self._decode
        process = fn.process
        out: list = []
        append = out.append
        extend = out.extend
        for line in values:
            tag = line[:2] if type(line) is str else None
            if tag == "B\t":
                parts = line.split("\t", 4)
                category = cat_get(int(parts[1]))
                if category is None:
                    continue
                total = sum_get(category, 0.0) + int(parts[3])
                sums[category] = total
                count = count_get(category, 0) + 1
                counts[category] = count
                append((category, total / count))
            elif tag == "A\t":
                parts = line.split("\t")
                categories[int(parts[1])] = int(parts[6])
            elif tag != "P\t":
                extend(process(decode(line)))
        return out


class NexmarkQ5WireKernel(StatefulKernel):
    """Fused decode→Q5 over wire-format lines.

    Bid lines lean-parse the auction id and timestamp and bump the
    ``(auction, window)`` pane count in place (identical double
    arithmetic to ``FixedWindows.assign``); person and auction lines are
    skipped unparsed (Q5's filter keeps only bids).  Unknown tags take
    the exact reference path.  Pane results surface from the owner's
    ``finish()`` at drain, exactly as in the reference.

    The hot loop exploits *window locality*: event times are (near-)
    monotonic, so consecutive bids overwhelmingly land in the window of
    their predecessor.  While the window holds, counts accumulate in a
    private per-auction dict — an int key, no per-bid window arithmetic
    or key-tuple construction; when a bid falls outside (or the chunk
    ends, or an unknown line needs the reference path) the buffer is
    merged into the owner's pane dict.  Merging flushes whole windows in
    the order they were entered and per-auction in first-bid order, and
    revisited windows update existing keys in place — exactly the
    first-occurrence insertion order the reference loop produces, so
    ``finish()`` output and snapshots stay bit-identical.  The merge
    runs in a ``finally`` so a mid-chunk parse error leaves the pane
    dict in the same state the reference would have at the same record.
    """

    def __init__(self, fn: Any) -> None:
        super().__init__(fn)
        from repro.workloads.nexmark import decode_event

        self._decode = decode_event
        self._size = fn.window_fn.size
        self._offset = fn.window_fn.offset

    def __call__(self, values: Sequence[Any]) -> list:
        fn = self._fn
        panes = fn.panes
        get = panes.get
        size, offset = self._size, self._offset
        window_fn = fn.window_fn
        decode = self._decode
        process = fn.process
        out: list = []
        extend = out.extend
        # Current window and its per-auction counts (the locality buffer).
        # NaN bounds make the locality test fail closed before any window
        # is established (every comparison with NaN is false).
        cur_start = cur_end = _NAN
        buffer: dict = {}
        buffer_get = buffer.get

        def merge() -> None:
            for auction, count in buffer.items():
                key = (auction, cur_start, cur_end)
                panes[key] = get(key, 0) + count
            buffer.clear()

        try:
            for line in values:
                if type(line) is str:
                    # Split first and dispatch on the tag field, exactly as
                    # ``decode_event`` does (P/A skipping still requires a
                    # tab after the tag, as tag-prefix matching did).
                    parts = line.split("\t")
                    tag = parts[0]
                else:
                    tag = None
                if tag == "B":
                    ts = float(parts[4])
                    if cur_start <= ts < cur_end:
                        auction = int(parts[1])
                        buffer[auction] = buffer_get(auction, 0) + 1
                        continue
                    start = ((ts - offset) // size) * size + offset
                    end = start + size
                    if not end > start:  # inf/NaN timestamps: validate exactly
                        window_fn.assign(ts)
                    merge()
                    cur_start, cur_end = start, end
                    buffer[int(parts[1])] = 1
                elif (tag == "P" or tag == "A") and len(parts) > 1:
                    continue
                else:
                    merge()  # the reference path reads/writes the pane dict
                    cur_start = cur_end = _NAN
                    extend(process(decode(line)))
        finally:
            merge()
        return out


#: Stateful spec kinds -> kernel builders (over ``spec.owner``).
_STATEFUL_KINDS: dict[str, Callable[[KernelSpec], Kernel]] = {
    "wordcount": lambda spec: WordCountKernel(spec.owner),
    "distinct_count": lambda spec: DistinctCountKernel(spec.owner),
    "statistics": lambda spec: StatisticsKernel(spec.owner),
    "nexmark_q3": lambda spec: NexmarkQ3Kernel(spec.owner),
    "nexmark_q4": lambda spec: NexmarkQ4Kernel(spec.owner),
    "nexmark_q5": lambda spec: WindowedAggregateKernel(spec.owner),
    "windowed_aggregate": lambda spec: WindowedAggregateKernel(spec.owner),
}

#: Query kinds the plan compiler fuses with a preceding ``nexmark_decode``
#: into a wire kernel (builders over ``spec.owner``).
_WIRE_FUSED_KINDS: dict[str, Callable[[Any], Kernel]] = {
    "nexmark_q3": NexmarkQ3WireKernel,
    "nexmark_q4": NexmarkQ4WireKernel,
    "nexmark_q5": NexmarkQ5WireKernel,
}


# ---------------------------------------------------------------------------
# Fused-comprehension codegen

# Comprehension fragments per spec kind: map templates over ``{v}`` that
# nest into each other textually.
#
# The compiled-function memo is bounded like the slab cache: long matrix
# runs over many distinct operator chains evict oldest-first instead of
# growing without limit (re-exec'ing an evicted shape is cheap).
_FUSE_CACHE: dict = {}
_FUSE_CACHE_MAX = 128


def _fragment(spec: KernelSpec) -> str:
    if spec.kind == "item":
        return "{v}[%d]" % spec.index
    if spec.kind == "kv_value":
        return "({v}[1] if isinstance({v}, tuple) and len({v}) == 2 else {v})"
    raise ValueError(f"spec kind {spec.kind!r} has no comprehension fragment")


def _fuse(templates: list) -> FusedKernel:
    """Generate one comprehension that applies the map templates in order."""
    expr = "v"
    for template in templates:
        expr = template.format(v=expr)
    source = f"def _fused(values):\n    return [{expr} for v in values]"
    fn = _FUSE_CACHE.get(source)
    if fn is None:
        namespace: dict = {}
        exec(compile(source, "<repro.dataflow.kernels>", "exec"), namespace)
        while len(_FUSE_CACHE) >= _FUSE_CACHE_MAX:
            _FUSE_CACHE.pop(next(iter(_FUSE_CACHE)))
        fn = _FUSE_CACHE[source] = namespace["_fused"]
    return FusedKernel(fn, source)


# ---------------------------------------------------------------------------
# Compilation


_BULK_KINDS = {
    "contains": lambda spec: GrepKernel(spec.needle),
    "bernoulli": lambda spec: SampleKernel(spec.fraction, spec.rng),
    "column": lambda spec: ColumnKernel(spec.index, spec.sep),
    "nexmark_decode": lambda spec: NexmarkDecodeKernel(),
    "record_kv": lambda spec: RecordKvKernel(),
    "ensure_kv": lambda spec: EnsureKvKernel(),
}


def _build_chain(specs: list) -> Kernel:
    ops: list[Kernel] = []
    pending: list = []  # map templates awaiting fusion

    def flush_pending() -> None:
        if pending:
            ops.append(_fuse(pending))
            pending.clear()

    for spec in specs:
        if spec.kind == "identity":
            continue  # a no-op in any position
        builder = _BULK_KINDS.get(spec.kind) or _STATEFUL_KINDS.get(spec.kind)
        if builder is not None:
            flush_pending()
            ops.append(builder(spec))
            continue
        if not pending and (
            spec.kind == "kv_value" or (spec.kind == "item" and spec.index == 1)
        ):
            # Both map a (None, value) pair to its value; on its own, the
            # kernel can hand a pair column's value column on.
            ops.append(PairValueKernel(_fuse([_fragment(spec)])))
            continue
        pending.append(_fragment(spec))
    flush_pending()
    if not ops:
        return IdentityKernel()
    if len(ops) == 1:
        return ops[0]
    return ChainKernel(ops)
