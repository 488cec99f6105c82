"""Partition-parallel kernel execution (the query-side shard plane).

PR 8 sharded the *ingest* plane across broker nodes; this module shards
*query execution*: one chunk is cut into P partition groups and each group
runs through its own kernel instance, with a deterministic merge that
keeps every observable — emission values, emission order, per-chunk
record counts, owner-function state and its dict insertion order — **bit
identical to the serial kernel at any P**.  Host-side parallelism is a
pure performance knob, exactly like ``REPRO_COLUMNAR`` and
``REPRO_BROKER_NODES``: it is env-only (never a config field), so reports
embedding a config can never diverge across hosts.

Five shard disciplines, chosen per operator shape:

* **Chunk sharding** (stateless operators): the chunk splits into P
  *contiguous* spans; each span runs through a private kernel instance
  (private, because slab-scan caches on kernels such as
  :class:`~repro.dataflow.kernels.GrepKernel` are not thread-safe to
  share); outputs concatenate in span order.  Record-wise stateless
  operators are span-invariant, so the concatenation equals the serial
  output exactly.
* **Hash partitioning by key** (keyed stateful operators): every shard
  scans the chunk but processes only keys it owns (``hash(key) % P``),
  producing *position-tagged* emissions and per-key state deltas.  The
  driver merges emissions back into chunk-position order and applies the
  state deltas with a pinned order — existing keys update in place, new
  keys insert in first-occurrence order — so the owner dict's insertion
  order (which ``finish()`` output and snapshots depend on) matches the
  serial kernel's.  Because all occurrences of one key land on one
  shard, its running aggregate is computed sequentially, exactly as the
  serial loop would.
* **Split-stream RNG** (``bernoulli``): the draw sequence is one
  ``random()`` per record, so draw index == global record index.  The
  sharded sample kernel materialises the whole chunk's Bernoulli mask in
  one vectorised call from the transplanted MT19937 state — the
  identical draw stream, draw for draw, with the exact post-chunk
  generator state restored on ``flush`` — then slices the mask per
  :func:`shard_spans` span and fans only the gather work across P tasks.
* **Parallel extract / ordered fold** (``statistics``): shards parse the
  per-span query-length arrays in parallel (the hot part, stateless);
  the driver concatenates them in span order and replays the reference
  accumulation over the combined array, so the floating-point fold order
  — and with it every emitted ``(min, max, mean)`` triple — never
  changes.
* **Pane partitioning** (``windowed_aggregate``, decoded-object
  ``nexmark_q5``): a serial driver pass replays the reference's
  per-record callable order (filter, timestamp, window assignment, key
  extraction), then shards fold only panes they own
  (``hash(pane key) % P``) and the driver applies the deltas with the
  same pinned first-occurrence merge order the keyed kernels use.  An
  honest whole-chunk serial fallback remains for degenerate window
  bounds (inf/NaN timestamps) and user-callable exceptions;
  ``AfterCount`` triggers never lower to the kernel tier at all.

The decoded-object Nexmark Q3/Q4 joins keep the serial kernel at any P
(the wire-fused Q3/Q4/Q5 kernels *are* sharded — see
:func:`shard_wire_kernel`).

The partition *assignment* uses Python's built-in ``hash``, which is
randomized per process for strings.  That is deliberate and safe: the
merge reconstructs the serial order from positions, so outputs are
independent of which shard owned which key — assignment only affects
load balance, never results.

Shard tasks run on a shared thread pool when the host has more than one
usable CPU (``os.sched_getaffinity``); on a single-CPU host they run
sequentially on the calling thread.  Either way the merge is
order-pinned, so scheduling cannot leak into results.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from itertools import compress
from threading import Lock
from typing import Any, Callable, Sequence

from repro.dataflow import kernels as _kernels
from repro.dataflow.kernels import Kernel, WorkloadSlab

#: Environment variable selecting the query-execution shard count.
#: Distinct from ``REPRO_PARALLEL`` (matrix-cell fan-out over processes):
#: this knob shards *within* one pump's chunks.  Host-side only — results
#: are bit-identical at any value.
QUERY_PARALLELISM_ENV = "REPRO_QUERY_PARALLELISM"

#: Chunks smaller than this run unsharded through one kernel instance
#: (identical output either way; splitting tiny chunks only costs).
#: Overridable per process via ``REPRO_SHARD_MIN_CHUNK`` — see
#: :func:`shard_min_chunk`, which every sharded kernel consults per call.
SHARD_MIN_CHUNK = 512

#: Environment variable overriding :data:`SHARD_MIN_CHUNK`.  A host-side
#: tuning knob exactly like ``REPRO_QUERY_PARALLELISM``: the bypass takes
#: the serial kernel, whose output is bit-identical, so the boundary can
#: never leak into results.
SHARD_MIN_CHUNK_ENV = "REPRO_SHARD_MIN_CHUNK"

#: Stateless spec kinds that are chunk-shardable (record-wise, no state,
#: no ordered RNG).  ``bernoulli`` is excluded: its draw sequence is
#: ordered across the whole chunk, so it gets the dedicated
#: split-stream-RNG kernel (:class:`ShardedSampleKernel`) instead.
PURE_SHARD_KINDS = frozenset(
    {
        "contains",
        "column",
        "item",
        "kv_value",
        "record_kv",
        "identity",
        "nexmark_decode",
    }
)

#: Keyed stateful spec kinds with a hash-partitioned shard executor.
KEYED_SHARD_KINDS = frozenset(
    {"wordcount", "distinct_count", "keyed_reduce", "update_state", "group_by_key"}
)

#: Wire-fused Nexmark kinds with a hash-partitioned shard executor.
WIRE_SHARD_KINDS = frozenset({"nexmark_q3", "nexmark_q4", "nexmark_q5"})

#: Windowed-pane spec kinds with a pane-partitioned shard executor (the
#: decoded-object Q5 owner *is* a windowed-aggregate function).
WINDOWED_SHARD_KINDS = frozenset({"windowed_aggregate", "nexmark_q5"})

_MISSING = object()


def shard_min_chunk() -> int:
    """The small-chunk bypass boundary, env-overridable per process.

    ``REPRO_SHARD_MIN_CHUNK`` must parse as an integer (anything else
    raises ``ValueError`` naming the variable); values below 1 clamp to
    1, the smallest meaningful boundary (a 0-record chunk bypasses
    vacuously either way).  Unset or empty falls back to the module's
    :data:`SHARD_MIN_CHUNK` default.
    """
    raw = os.environ.get(SHARD_MIN_CHUNK_ENV, "")
    if not raw:
        return SHARD_MIN_CHUNK
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{SHARD_MIN_CHUNK_ENV} must be an integer, got {raw!r}"
        ) from None
    return max(1, value)


def affinity_count() -> int:
    """Usable CPUs of this process (``sched_getaffinity``, else cpu_count)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def query_parallelism() -> int:
    """The requested query-shard count (``REPRO_QUERY_PARALLELISM``, >= 1)."""
    raw = os.environ.get(QUERY_PARALLELISM_ENV, "")
    if raw in ("", "0"):
        return 1
    value = int(raw)
    if value < 1:
        raise ValueError(
            f"{QUERY_PARALLELISM_ENV} must be >= 1, got {value}"
        )
    return value


def effective_parallelism(requested: int) -> int:
    """``requested`` capped by the CPUs this process may actually use.

    Reports record this next to requested parallelism so single-CPU
    container numbers are honestly annotated rather than silently flat.
    """
    return max(1, min(requested, affinity_count()))


def shard_spans(total: int, parallelism: int) -> list[tuple[int, int]]:
    """Contiguous, balanced ``[start, stop)`` spans covering ``total``."""
    return [
        (s * total // parallelism, (s + 1) * total // parallelism)
        for s in range(parallelism)
    ]


# ---------------------------------------------------------------------------
# Host-side task execution

_pool: ThreadPoolExecutor | None = None
_pool_size = 0
_pool_lock = Lock()

#: Test hook: force thread-pool execution even on a single-CPU host.
FORCE_THREADS = False


def _forget_pool() -> None:
    """Drop the pool in a forked child: its threads stayed in the parent.

    A process-pool worker forked after the parent ran shard tasks would
    otherwise queue work on a pool with no threads and wait forever.
    """
    global _pool, _pool_size, _pool_lock
    _pool, _pool_size, _pool_lock = None, 0, Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _use_threads() -> bool:
    return FORCE_THREADS or affinity_count() > 1


def run_shard_tasks(tasks: Sequence[Callable[[], Any]]) -> list[Any]:
    """Run shard thunks, in parallel when the host allows, results in order.

    Shard tasks must not touch the simulator, metrics, or any shared
    mutable state — they read owner state and return deltas; the caller
    merges.  Results are returned in task order, so the pool is
    observationally equivalent to the sequential loop.
    """
    if len(tasks) <= 1 or not _use_threads():
        return [task() for task in tasks]
    global _pool, _pool_size
    with _pool_lock:
        if _pool is None or _pool_size < len(tasks):
            if _pool is not None:
                _pool.shutdown(wait=False)
            _pool_size = len(tasks)
            _pool = ThreadPoolExecutor(
                max_workers=_pool_size, thread_name_prefix="repro-shard"
            )
        pool = _pool
    return list(pool.map(lambda task: task(), tasks))


# ---------------------------------------------------------------------------
# Chunk sharding (stateless operators)


class ShardedPureKernel(Kernel):
    """P private instances of one stateless kernel over contiguous spans.

    Outputs concatenate in span order — exactly the serial output, since
    record-wise stateless operators are span-invariant.  Each shard owns
    a private kernel instance because slab-scan caches
    (:class:`~repro.dataflow.kernels.GrepKernel`,
    :class:`~repro.dataflow.kernels.ColumnKernel`) mutate themselves
    per run and must not race across shard threads.
    """

    def __init__(self, inners: Sequence[Kernel], parallelism: int) -> None:
        assert len(inners) == parallelism
        self.inners = list(inners)
        self.parallelism = parallelism
        self.supports_slab = self.inners[0].supports_slab

    def __call__(self, values: Sequence[Any]) -> list:
        total = len(values)
        if total < shard_min_chunk():
            return self.inners[0](values)
        spans = shard_spans(total, self.parallelism)
        results = run_shard_tasks(
            [
                (lambda inner=self.inners[s], a=a, b=b: inner(values[a:b]))
                for s, (a, b) in enumerate(spans)
                if b > a
            ]
        )
        out: list = []
        for result in results:
            out.extend(result)
        return out

    def call_slab(
        self, slab: WorkloadSlab, base: int, values: Sequence[Any]
    ) -> list:
        total = len(values)
        if total < shard_min_chunk():
            return self.inners[0].call_slab(slab, base, values)
        spans = shard_spans(total, self.parallelism)
        # A span of an untransformed slab window is itself one: the
        # ``values == slab.records[base:base+len]`` contract holds with
        # the span's shifted base.
        results = run_shard_tasks(
            [
                (
                    lambda inner=self.inners[s], a=a, b=b: inner.call_slab(
                        slab, base + a, values[a:b]
                    )
                )
                for s, (a, b) in enumerate(spans)
                if b > a
            ]
        )
        out: list = []
        for result in results:
            out.extend(result)
        return out

    def flush(self) -> None:
        for inner in self.inners:
            inner.flush()

    def describe(self) -> str:
        return f"sharded[p={self.parallelism}] {self.inners[0].describe()}"


# ---------------------------------------------------------------------------
# Hash-partitioned keyed executors
#
# Every executor below has the same shape: a read-only scan phase per
# shard (owner state is never mutated while shard tasks may be running)
# returning position-tagged emissions plus state deltas, then a merge
# phase on the calling thread that rebuilds the serial emission order and
# applies the deltas with pinned key-insertion order.


def _merge_keyed_state(state: dict, results: list) -> None:
    """Apply per-shard ``(news, totals)`` deltas to an owner dict.

    Existing keys update in place (dict order unchanged); new keys insert
    in global first-occurrence order — the order the serial loop would
    have inserted them, which ``finish()`` output and snapshots observe.
    """
    news: list = []
    for shard_news, totals in results:
        news.extend(shard_news)
        for key, value in totals.items():
            if key in state:
                state[key] = value
    news.sort(key=lambda item: item[0])
    for _pos, key, value in news:
        state[key] = value


def _query_columns(values: Sequence[Any]) -> list:
    """The query column per record — the exact reference extraction."""
    columns: list = []
    append = columns.append
    for line in values:
        parts = line.split("\t", 2)
        append(parts[1] if len(parts) > 1 else line)
    return columns


def _exec_wordcount(owner: Any, values: Sequence[Any], parallelism: int) -> list:
    tokens = "\n".join(_query_columns(values)).split()
    return _wordcount_tokens(owner, tokens, parallelism)


def _wordcount_tokens(owner: Any, tokens: list, parallelism: int) -> list:
    counts = owner.counts
    prior_get = counts.get

    def shard(s: int):
        local: dict = {}
        local_get = local.get
        emits: list = []
        news: list = []
        append = emits.append
        for pos, word in enumerate(tokens):
            if hash(word) % parallelism != s:
                continue
            count = local_get(word)
            if count is None:
                count = prior_get(word)
                if count is None:
                    news.append((pos, word))
                    count = 0
            count += 1
            local[word] = count
            append((pos, (word, count)))
        return emits, news, local

    results = run_shard_tasks(
        [lambda s=s: shard(s) for s in range(parallelism)]
    )
    out: list = [None] * len(tokens)
    for emits, _news, _local in results:
        for pos, pair in emits:
            out[pos] = pair
    _merge_keyed_state(
        counts,
        [
            ([(pos, word, local[word]) for pos, word in news], local)
            for _emits, news, local in results
        ],
    )
    return out


def _exec_distinct_count(
    owner: Any, values: Sequence[Any], parallelism: int
) -> list:
    columns = _query_columns(values)
    seen = owner.seen

    def shard(s: int):
        local: set = set()
        add = local.add
        new_pos: list = []
        append = new_pos.append
        for pos, column in enumerate(columns):
            if hash(column) % parallelism != s:
                continue
            if column not in seen and column not in local:
                add(column)
                append(pos)
        return new_pos, local

    results = run_shard_tasks(
        [lambda s=s: shard(s) for s in range(parallelism)]
    )
    flags = bytearray(len(columns))
    for new_pos, local in results:
        for pos in new_pos:
            flags[pos] = 1
        seen |= local  # a set: no insertion order to pin
    running = len(seen) - sum(flags)
    out: list = []
    append = out.append
    for flag in flags:
        running += flag
        append(running)
    return out


def _exec_keyed_reduce(
    owner: Any, values: Sequence[Any], parallelism: int
) -> list:
    key_of = owner.key_selector
    value_of = owner.value_selector
    reduce = owner.reducer
    state = owner.state
    keys = [key_of(value) for value in values]
    incoming = [value_of(value) for value in values]

    def shard(s: int):
        local: dict = {}
        local_get = local.get
        emits: list = []
        news: list = []
        append = emits.append
        for pos, key in enumerate(keys):
            if hash(key) % parallelism != s:
                continue
            current = local_get(key, _MISSING)
            if current is _MISSING:
                if key in state:
                    current = state[key]
                else:
                    news.append((pos, key))
                    current = _MISSING
            value = incoming[pos]
            if current is not _MISSING:
                value = reduce(current, value)
            local[key] = value
            append((pos, (key, value)))
        return emits, news, local

    results = run_shard_tasks(
        [lambda s=s: shard(s) for s in range(parallelism)]
    )
    out: list = [None] * len(keys)
    for emits, _news, _local in results:
        for pos, pair in emits:
            out[pos] = pair
    _merge_keyed_state(
        state,
        [
            ([(pos, key, local[key]) for pos, key in news], local)
            for _emits, news, local in results
        ],
    )
    return out


def _exec_update_state(
    owner: Any, values: Sequence[Any], parallelism: int
) -> list:
    update = owner.update_fn
    state = owner.state
    keys: list = []
    payloads: list = []
    bad: Exception | None = None
    for value in values:
        try:
            key, payload = value
        except Exception as exc:  # the reference's unpack error, deferred
            bad = exc
            break
        keys.append(key)
        payloads.append(payload)

    def shard(s: int):
        local: dict = {}
        local_get = local.get
        emits: list = []
        news: list = []
        append = emits.append
        for pos, key in enumerate(keys):
            if hash(key) % parallelism != s:
                continue
            prior = local_get(key, _MISSING)
            if prior is _MISSING:
                if key in state:
                    prior = state[key]
                else:
                    news.append((pos, key))
                    prior = None
            new_state = update(payloads[pos], prior)
            local[key] = new_state
            append((pos, (key, new_state)))
        return emits, news, local

    results = run_shard_tasks(
        [lambda s=s: shard(s) for s in range(parallelism)]
    )
    out: list = [None] * len(keys)
    for emits, _news, _local in results:
        for pos, pair in emits:
            out[pos] = pair
    _merge_keyed_state(
        state,
        [
            ([(pos, key, local[key]) for pos, key in news], local)
            for _emits, news, local in results
        ],
    )
    if bad is not None:
        # State now reflects exactly the prefix the reference would have
        # processed before raising at the offending record.
        raise bad
    return out


def _exec_group_by_key(
    owner: Any, values: Sequence[Any], parallelism: int
) -> list:
    groups = owner.groups
    keys: list = []
    bad: Any = _MISSING
    for value in values:
        if not (isinstance(value, tuple) and len(value) == 2):
            bad = value
            break
        keys.append(value[0])

    def shard(s: int):
        local: dict = {}
        news: list = []
        for pos, key in enumerate(keys):
            if hash(key) % parallelism != s:
                continue
            bucket = local.get(key)
            if bucket is None:
                bucket = local[key] = []
                if key not in groups:
                    news.append((pos, key))
            bucket.append(values[pos][1])
        return news, local

    results = run_shard_tasks(
        [lambda s=s: shard(s) for s in range(parallelism)]
    )
    news: list = []
    for shard_news, local in results:
        news.extend(shard_news)
        for key, bucket in local.items():
            if key in groups:
                groups[key].extend(bucket)
    news.sort(key=lambda item: item[0])
    for _pos, key in news:
        for shard_news, local in results:
            bucket = local.get(key)
            if bucket is not None:
                groups[key] = bucket
                break
    if bad is not _MISSING:
        from repro.beam.errors import BeamError

        raise BeamError(
            f"GroupByKey expects (key, value) pairs, got {bad!r}"
        )
    return []


_KEYED_EXECUTORS: dict[str, Callable[[Any, Sequence[Any], int], list]] = {
    "wordcount": _exec_wordcount,
    "distinct_count": _exec_distinct_count,
    "keyed_reduce": _exec_keyed_reduce,
    "update_state": _exec_update_state,
    "group_by_key": _exec_group_by_key,
}


class ShardedStatefulKernel(Kernel):
    """Hash-partitioned execution of one keyed stateful operator.

    Owner state is current after every call (the merge runs per chunk),
    so snapshots, recovery ``restore()`` (which rebinds the owner
    containers the executors re-fetch per call) and the drain observe
    reference-identical state mid-run.  ``flush`` stays the inherited
    no-op — nothing is adopted between calls.
    """

    def __init__(self, kind: str, owner: Any, parallelism: int) -> None:
        self.kind = kind
        self.owner = owner
        self.parallelism = parallelism
        self._executor = _KEYED_EXECUTORS[kind]
        self.supports_slab = kind == "wordcount"

    def __call__(self, values: Sequence[Any]) -> list:
        return self._executor(self.owner, values, self.parallelism)

    def call_slab(
        self, slab: WorkloadSlab, base: int, values: Sequence[Any]
    ) -> list:
        # Wordcount only: extract the query column with the serial
        # kernel's one-regex-pass slab scan, then shard over tokens.
        n = len(values)
        starts = slab.starts
        begin = int(starts[base])
        end = int(starts[base + n]) - 1 if base + n < len(starts) else slab.size
        columns = _kernels._QUERY_COLUMN.findall(slab.text[begin:end])
        if len(columns) != n:  # a line has no separator: exact per-line path
            return self(values)
        tokens = "\n".join(columns).split()
        return _wordcount_tokens(self.owner, tokens, self.parallelism)

    def describe(self) -> str:
        label = getattr(self.owner, "name", type(self.owner).__name__)
        return f"sharded[p={self.parallelism}] {self.kind}[{label}]"


# ---------------------------------------------------------------------------
# Hash-partitioned Nexmark wire executors
#
# The wire kernels fuse decode into the query; sharding them partitions
# by the query's key domain: Q3 by person/seller id, Q4 phase one by
# auction id and phase two by category, Q5 by auction id.  Any line that
# is not a recognisable B/A/P wire event (or, for Q5, any bid whose
# timestamp fails window validation) sends the *whole chunk* down the
# serial wire kernel, whose reference path reproduces mid-chunk error
# state exactly.


class _ShardedWireKernel(Kernel):
    """Base: owns the owner function, P, and a lazy serial fallback."""

    kind: str = ""

    def __init__(self, owner: Any, parallelism: int) -> None:
        self.owner = owner
        self.parallelism = parallelism
        self._serial: Kernel | None = None

    def _fallback(self, values: Sequence[Any]) -> list:
        if self._serial is None:
            self._serial = _kernels._WIRE_FUSED_KINDS[self.kind](self.owner)
        return self._serial(values)

    def flush(self) -> None:
        if self._serial is not None:
            self._serial.flush()

    def describe(self) -> str:
        return f"sharded[p={self.parallelism}] {self.kind}-wire"


class ShardedNexmarkQ3WireKernel(_ShardedWireKernel):
    """Q3 person⋈auction join, partitioned by person/seller id."""

    kind = "nexmark_q3"

    def __call__(self, values: Sequence[Any]) -> list:
        parallelism = self.parallelism
        if len(values) < shard_min_chunk():
            return self._fallback(values)
        tags = []
        append_tag = tags.append
        for line in values:
            tag = line[:2] if type(line) is str else None
            if tag != "B\t" and tag != "A\t" and tag != "P\t":
                return self._fallback(values)
            append_tag(tag)
        owner = self.owner
        persons = owner.persons
        persons_get = persons.get
        from repro.workloads.nexmark import Person
        from repro.workloads.nexmark_queries import Q3_STATES

        def shard(s: int):
            local: dict = {}
            local_get = local.get
            emits: list = []
            news: list = []
            append = emits.append
            for pos, line in enumerate(values):
                tag = tags[pos]
                if tag == "B\t":
                    continue
                parts = line.split("\t")
                if tag == "A\t":
                    seller = int(parts[5])
                    if seller % parallelism != s:
                        continue
                    person = local_get(seller)
                    if person is None:
                        person = persons_get(seller)
                    if person is not None:
                        append(
                            (
                                pos,
                                (
                                    person.name,
                                    person.city,
                                    person.state,
                                    int(parts[1]),
                                ),
                            )
                        )
                else:  # "P\t"
                    person_id = int(parts[1])
                    if person_id % parallelism != s:
                        continue
                    if parts[5] in Q3_STATES:
                        if person_id not in local and person_id not in persons:
                            news.append((pos, person_id))
                        local[person_id] = Person(
                            person_id=person_id,
                            name=parts[2],
                            email=parts[3],
                            city=parts[4],
                            state=parts[5],
                            date_time=float(parts[6]),
                        )
            return emits, news, local

        try:
            results = run_shard_tasks(
                [lambda s=s: shard(s) for s in range(parallelism)]
            )
        except (ValueError, IndexError):
            # Malformed numeric field: no owner state touched yet, so a
            # whole-chunk serial replay reproduces the reference error
            # state (prefix mutations + the exact exception) verbatim.
            return self._fallback(values)
        tagged: list = []
        for emits, _news, _local in results:
            tagged.extend(emits)
        tagged.sort(key=lambda item: item[0])
        _merge_keyed_state(
            persons,
            [
                ([(pos, key, local[key]) for pos, key in news], local)
                for _emits, news, local in results
            ],
        )
        return [pair for _pos, pair in tagged]


class ShardedNexmarkQ4WireKernel(_ShardedWireKernel):
    """Q4 category means: auction-partitioned resolve, then a category
    repartition for the running means — a real two-phase shuffle, with
    both phases position-merged."""

    kind = "nexmark_q4"

    def __call__(self, values: Sequence[Any]) -> list:
        parallelism = self.parallelism
        if len(values) < shard_min_chunk():
            return self._fallback(values)
        tags = []
        append_tag = tags.append
        for line in values:
            tag = line[:2] if type(line) is str else None
            if tag != "B\t" and tag != "A\t" and tag != "P\t":
                return self._fallback(values)
            append_tag(tag)
        owner = self.owner
        categories = owner.categories
        categories_get = categories.get

        def resolve_shard(s: int):
            local: dict = {}
            local_get = local.get
            news: list = []
            resolved: list = []
            append = resolved.append
            for pos, line in enumerate(values):
                tag = tags[pos]
                if tag == "B\t":
                    parts = line.split("\t", 4)
                    auction = int(parts[1])
                    if auction % parallelism != s:
                        continue
                    category = local_get(auction, _MISSING)
                    if category is _MISSING:
                        category = categories_get(auction)
                    if category is None:
                        continue
                    append((pos, category, int(parts[3])))
                elif tag == "A\t":
                    parts = line.split("\t")
                    auction = int(parts[1])
                    if auction % parallelism != s:
                        continue
                    if auction not in local and auction not in categories:
                        news.append((pos, auction))
                    local[auction] = int(parts[6])
            return resolved, news, local

        try:
            resolve_results = run_shard_tasks(
                [lambda s=s: resolve_shard(s) for s in range(parallelism)]
            )
        except (ValueError, IndexError):
            # Malformed numeric field before any state mutation: replay
            # the whole chunk serially for the exact reference error state.
            return self._fallback(values)
        _merge_keyed_state(
            categories,
            [
                ([(pos, key, local[key]) for pos, key in news], local)
                for _resolved, news, local in resolve_results
            ],
        )
        bids: list = []
        for resolved, _news, _local in resolve_results:
            bids.extend(resolved)
        bids.sort(key=lambda item: item[0])

        sums, counts = owner.sums, owner.counts
        sums_get, counts_get = sums.get, counts.get

        def mean_shard(s: int):
            local_sum: dict = {}
            local_count: dict = {}
            sum_get = local_sum.get
            count_get = local_count.get
            emits: list = []
            news: list = []
            append = emits.append
            for pos, category, price in bids:
                if category % parallelism != s:
                    continue
                total = sum_get(category, _MISSING)
                if total is _MISSING:
                    if category in sums:
                        total = sums[category]
                    else:
                        news.append((pos, category))
                        total = 0.0
                count = count_get(category)
                if count is None:
                    count = counts_get(category, 0)
                total += price
                count += 1
                local_sum[category] = total
                local_count[category] = count
                append((pos, (category, total / count)))
            return emits, news, local_sum, local_count

        mean_results = run_shard_tasks(
            [lambda s=s: mean_shard(s) for s in range(parallelism)]
        )
        tagged: list = []
        for emits, _news, _ls, _lc in mean_results:
            tagged.extend(emits)
        tagged.sort(key=lambda item: item[0])
        # sums and counts gain new categories at the same record, in the
        # same order — merge both against the same first-occurrence list.
        _merge_keyed_state(
            sums,
            [
                ([(pos, key, local_sum[key]) for pos, key in news], local_sum)
                for _e, news, local_sum, _lc in mean_results
            ],
        )
        _merge_keyed_state(
            counts,
            [
                ([(pos, key, local_count[key]) for pos, key in news], local_count)
                for _e, news, _ls, local_count in mean_results
            ],
        )
        return [pair for _pos, pair in tagged]


class ShardedNexmarkQ5WireKernel(_ShardedWireKernel):
    """Q5 hot-item pane counts, partitioned by auction id.

    The driver parses every bid's auction and window once (the same
    double arithmetic as ``FixedWindows.assign``); shards only bump
    owned pane counters.  Emits nothing — panes surface from the owner's
    ``finish()``, whose output order the pinned merge preserves.
    """

    kind = "nexmark_q5"

    def __call__(self, values: Sequence[Any]) -> list:
        parallelism = self.parallelism
        if len(values) < shard_min_chunk():
            return self._fallback(values)
        owner = self.owner
        window_fn = owner.window_fn
        size, offset = window_fn.size, window_fn.offset
        entries: list = []
        append_entry = entries.append
        bad = False
        # The fallback must run *outside* this try: it replays the chunk
        # through the serial kernel, whose own mid-chunk ValueError would
        # otherwise be caught here and trigger a second, state-doubling
        # replay.
        try:
            for line in values:
                if type(line) is not str:
                    bad = True
                    break
                parts = line.split("\t")
                tag = parts[0]
                if tag == "B":
                    ts = float(parts[4])
                    start = ((ts - offset) // size) * size + offset
                    end = start + size
                    if not end > start:  # inf/NaN: the serial kernel decides
                        bad = True
                        break
                    append_entry((int(parts[1]), start, end))
                elif (tag == "P" or tag == "A") and len(parts) > 1:
                    append_entry(None)
                else:
                    bad = True
                    break
        except (ValueError, IndexError):  # malformed field: reference path
            bad = True
        if bad:
            return self._fallback(values)
        panes = owner.panes

        def shard(s: int):
            local: dict = {}
            local_get = local.get
            news: list = []
            for pos, entry in enumerate(entries):
                if entry is None:
                    continue
                auction, start, end = entry
                if auction % parallelism != s:
                    continue
                key = (auction, start, end)
                count = local_get(key)
                if count is None:
                    count = 0
                    if key not in panes:
                        news.append((pos, key))
                local[key] = count + 1
            return news, local

        results = run_shard_tasks(
            [lambda s=s: shard(s) for s in range(parallelism)]
        )
        news: list = []
        for shard_news, local in results:
            news.extend((pos, key, local[key]) for pos, key in shard_news)
            for key, count in local.items():
                if key in panes:
                    panes[key] = panes[key] + count
        news.sort(key=lambda item: item[0])
        for _pos, key, count in news:
            panes[key] = count
        return []


_WIRE_SHARD_BUILDERS = {
    "nexmark_q3": ShardedNexmarkQ3WireKernel,
    "nexmark_q4": ShardedNexmarkQ4WireKernel,
    "nexmark_q5": ShardedNexmarkQ5WireKernel,
}


# ---------------------------------------------------------------------------
# Order-sensitive kernels: split-stream RNG, parallel-extract/ordered-fold,
# pane partitioning.
#
# These three shapes look inherently sequential — an ordered draw stream,
# a global scalar accumulator, arbitrary user reducers — but each has a
# decomposition that keeps the *order-sensitive* part serial (and cheap)
# while fanning the hot part across shards.  Every fallback below replays
# the whole chunk through the serial kernel *outside* the guarding try,
# the PR 9 wire-kernel rule: the replay's own mid-chunk exception must
# propagate, never trigger a second, state-doubling replay.


class ShardedSampleKernel(_kernels.SampleKernel):
    """``bernoulli`` with a split-stream mask: draw once, gather per span.

    Inherits :class:`~repro.dataflow.kernels.SampleKernel`'s MT19937
    state transplant wholesale — the NumPy state is adopted between
    ``flush`` calls and restored exactly, so any outside observer of the
    Python ``rng`` (checkpoints, subsequent runs) sees the true
    post-chunk state.  Per chunk the whole uniform vector materialises in
    one vectorised draw (:meth:`SampleKernel._mask` — the identical
    stream, draw for draw, because draw index == global record index);
    only the expensive survivor gather (``compress`` into fresh lists)
    fans out across :func:`shard_spans` spans.  Mask slices are
    position-aligned with value spans, so span concatenation equals the
    serial output bit for bit.

    Small chunks, a NumPy-less host and unknown RNG state versions all
    take the inherited serial paths — identical output either way.
    """

    def __init__(self, fraction: float, rng: Any, parallelism: int) -> None:
        super().__init__(fraction, rng)
        self.parallelism = parallelism

    def __call__(self, values: Sequence[Any]) -> list:
        total = len(values)
        if not self._bulk or total < shard_min_chunk():
            return _kernels.SampleKernel.__call__(self, values)
        mask = self._mask(total)
        if mask is None:  # unknown RNG state version: per-record reference
            return _kernels.SampleKernel.__call__(self, values)
        spans = shard_spans(total, self.parallelism)
        results = run_shard_tasks(
            [
                (lambda a=a, b=b: list(compress(values[a:b], mask[a:b])))
                for a, b in spans
                if b > a
            ]
        )
        out: list = []
        for result in results:
            out.extend(result)
        return out

    def describe(self) -> str:
        return (
            f"sharded[p={self.parallelism}] "
            + _kernels.SampleKernel.describe(self)
        )


class ShardedStatisticsKernel(Kernel):
    """``statistics`` as parallel per-span extraction + one ordered fold.

    Shards run :meth:`StatisticsKernel.extract` (the parse-heavy,
    stateless phase) over contiguous spans in parallel; the driver
    concatenates the per-span length arrays in span order and hands the
    combined array to the serial kernel's :meth:`StatisticsKernel.fold`,
    which replays the reference accumulation verbatim — same
    floating-point fold order, same owner mutations, same emitted
    ``(min, max, mean)`` stream.

    Malformed records (non-string, un-sizable) raise during extraction,
    strictly *before* any owner-state mutation — the serial kernel has
    the same phase order — so the whole-chunk serial replay reproduces
    the reference error state exactly: untouched accumulators and the
    identical exception from the identical record.
    """

    def __init__(self, owner: Any, parallelism: int) -> None:
        self.owner = owner
        self.parallelism = parallelism
        self._serial = _kernels.StatisticsKernel(owner)

    def __call__(self, values: Sequence[Any]) -> list:
        total = len(values)
        if total < shard_min_chunk():
            return self._serial(values)
        spans = shard_spans(total, self.parallelism)
        extract = _kernels.StatisticsKernel.extract
        bad = False
        # Fallback outside the try: the serial replay's own extraction
        # error must propagate, not trigger a second replay.
        try:
            results = run_shard_tasks(
                [
                    (lambda a=a, b=b: extract(values[a:b]))
                    for a, b in spans
                    if b > a
                ]
            )
        except (AttributeError, TypeError, ValueError, IndexError):
            bad = True
        if bad:
            return self._serial(values)
        lengths: list = []
        for result in results:
            lengths.extend(result)
        return self._serial.fold(lengths)

    def describe(self) -> str:
        label = getattr(self.owner, "name", type(self.owner).__name__)
        return f"sharded[p={self.parallelism}] statistics[{label}]"


class ShardedWindowedAggregateKernel(Kernel):
    """Trigger-less windowed panes, hash-partitioned by window pane.

    A serial driver pass replays the reference's per-record callable
    order exactly — filter, timestamp extraction, window assignment
    (the inlined ``FixedWindows`` arithmetic, or ``assign`` per element
    for other window functions), key extraction — and precomputes every
    surviving record's pane key and owning shard.  Shards then fold only
    panes they own into private dicts: all occurrences of one pane land
    on one shard, so its accumulator folds sequentially in record order,
    exactly as the serial loop would.  The driver applies the per-shard
    deltas with the pinned first-occurrence merge order
    (:func:`_merge_keyed_state`), keeping the owner pane dict's insertion
    order — which ``finish()`` output and snapshots observe — serial-
    identical.

    The honest whole-chunk serial fallback is retained for degenerate
    window bounds (inf/NaN timestamps: the serial kernel delegates
    validation to ``window_fn.assign``) and for exceptions out of the
    user callables or reducer — in every such case no owner state has
    been mutated yet (driver and shards work on locals), so the serial
    replay reproduces the reference error state verbatim: the prefix
    pane mutations plus the identical exception.  ``AfterCount``
    triggers never lower to the kernel tier at all (the owner declares
    no spec), so mid-stream firing never needs replication here.
    """

    def __init__(self, owner: Any, parallelism: int) -> None:
        self.owner = owner
        self.parallelism = parallelism
        self._serial = _kernels.WindowedAggregateKernel(owner)

    def __call__(self, values: Sequence[Any]) -> list:
        total = len(values)
        parallelism = self.parallelism
        if total < shard_min_chunk():
            return self._serial(values)
        fn = self.owner
        keep = fn.filter_fn
        key_of = fn.key_fn
        ts_of = fn.timestamp_fn
        window_fn = fn.window_fn
        fixed = self._serial._fixed
        if fixed:
            size, offset = window_fn.size, window_fn.offset
        keys: list = [None] * total
        owners = [-1] * total
        bad = False
        # Fallback outside the try (the PR 9 wire-kernel rule): the
        # serial replay's own mid-chunk exception must propagate, never
        # trigger a second, state-doubling replay.
        try:
            for pos, value in enumerate(values):
                if keep is not None and not keep(value):
                    continue
                timestamp = ts_of(value)
                if fixed:
                    start = ((timestamp - offset) // size) * size + offset
                    end = start + size
                    if not end > start:  # inf/NaN: the serial kernel decides
                        bad = True
                        break
                else:
                    window = window_fn.assign(timestamp)
                    start, end = window.start, window.end
                keys[pos] = key = (key_of(value), start, end)
                owners[pos] = hash(key) % parallelism
        except Exception:
            # A user callable raised (or a pane key is unhashable): no
            # owner state touched yet — the replay reproduces the
            # reference's prefix mutations and the identical exception.
            bad = True
        if bad:
            return self._serial(values)
        panes = fn.panes
        reducer = fn.reducer
        initial = fn.initial

        def shard(s: int):
            local: dict = {}
            local_get = local.get
            news: list = []
            for pos, owner_id in enumerate(owners):
                if owner_id != s:
                    continue
                key = keys[pos]
                acc = local_get(key, _MISSING)
                if acc is _MISSING:
                    if key in panes:
                        acc = panes[key]
                    else:
                        news.append((pos, key))
                        acc = initial
                if reducer is None:
                    acc = acc + 1
                else:
                    acc = reducer(acc, values[pos])
                local[key] = acc
            return news, local

        bad = False
        try:
            results = run_shard_tasks(
                [lambda s=s: shard(s) for s in range(parallelism)]
            )
        except Exception:
            # A reducer raised on a shard: only shard-local dicts were
            # touched, so the serial replay reproduces the reference's
            # prefix pane mutations and the identical exception.
            bad = True
        if bad:
            return self._serial(values)
        _merge_keyed_state(
            panes,
            [
                ([(pos, key, local[key]) for pos, key in news], local)
                for news, local in results
            ],
        )
        return []

    def describe(self) -> str:
        label = getattr(self.owner, "name", type(self.owner).__name__)
        return f"sharded[p={self.parallelism}] windowed-panes[{label}]"


# ---------------------------------------------------------------------------
# Lowering entry points (used by the plan compiler's shard context)


def shard_pure_chain(specs: list, parallelism: int) -> Kernel:
    """A chunk-sharded kernel for a run of pure stateless specs."""
    inners = [_kernels._build_chain(list(specs)) for _ in range(parallelism)]
    if isinstance(inners[0], _kernels.IdentityKernel):
        return inners[0]  # zero work: sharding a no-op only costs
    return ShardedPureKernel(inners, parallelism)


def shard_stateful_kernel(spec: Any, parallelism: int) -> Kernel:
    """A hash-partitioned kernel for one keyed stateful spec."""
    return ShardedStatefulKernel(spec.kind, spec.owner, parallelism)


def shard_wire_kernel(kind: str, owner: Any, parallelism: int) -> Kernel:
    """A hash-partitioned wire kernel for a fused decode→Qn pair."""
    return _WIRE_SHARD_BUILDERS[kind](owner, parallelism)


def shard_sample_kernel(spec: Any, parallelism: int) -> Kernel:
    """A split-stream RNG kernel for one ``bernoulli`` spec."""
    return ShardedSampleKernel(spec.fraction, spec.rng, parallelism)


def shard_statistics_kernel(spec: Any, parallelism: int) -> Kernel:
    """A parallel-extract/ordered-fold kernel for one ``statistics`` spec."""
    return ShardedStatisticsKernel(spec.owner, parallelism)


def shard_windowed_kernel(spec: Any, parallelism: int) -> Kernel:
    """A pane-partitioned kernel for one trigger-less windowed spec."""
    return ShardedWindowedAggregateKernel(spec.owner, parallelism)
