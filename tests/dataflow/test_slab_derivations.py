"""The slab paths that cut their windows from memoised slab derivations.

Grep (hit rows), projection (the column slab), statistics (the query
field), wordcount (the query field's word ids), distinct-count (the query
field's query ids) and windowed (the pane ids) each read a window of one
whole-slab result that ``WorkloadSlab.derived`` builds at most once per
slab.  The property below feeds two owners' kernels windows of two slabs
alternately, in random chunkings with list chunks interleaved, each
slab's windows in order or shuffled, and checks after every flush that
each owner's outputs and state equal a reference ``process`` loop over
the same records, also after ``restore()`` set both to one edited state
mid-walk: wordcount counts that the slab path must not add to in int64
(floats, a bool, an int past its guard), another statistics state, a
distinct-count ``seen`` holding queries of the slabs and foreign ones,
and windowed panes with non-``int`` values and foreign keys.  The unit
tests pin the memo itself: one build per key, read-only arrays, and a
full stateful cell that never decodes the workload slab and hands its
wordcount, statistics and distinct-count outputs to the log as field
columns.  Two more pin distinct-count's adopted membership: it ends at
every flush, so a pump run after ``open()`` counts afresh, and a
restored ``seen`` is tested once per query of the slab.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.beam.window import FixedWindows
from repro.benchmark import BenchmarkConfig, StreamBenchHarness
from repro.benchmark.queries import get_query
from repro.dataflow.compiler import lower_stage
from repro.dataflow import kernels
from repro.dataflow.kernels import FieldColumn, SlabColumn, run_kernel
from repro.engines.common.costs import RunVariance, StageCosts
from repro.engines.common.pump import StreamPump
from repro.engines.common.stages import PhysicalStage, StageKind
from repro.simtime import Simulator
from repro.workloads.aol import event_time, first_word, query_column
from tests.dataflow.test_aol_slab_paths import WORDS, aol_lines, malformed_lines
from tests.slabs import slab_of

MEMOISED_QUERIES = (
    "grep", "projection", "wordcount", "statistics", "distinct-count", "windowed",
)

#: Empty lines (a slab of one has an empty buffer), and lines around the
#: grep needle ``test``: across a tab, at a line's end or start (so
#: across a newline in the slab), or whole.
EDGE_LINES = ("", "te\tst", "7\tte\tst", "7\tmy tes", "t\tx", "7\ttest\t", "test", "tes")


#: A pool of up to four AOL lines that both slabs of a walk draw from.
line_pools = st.lists(aol_lines(), min_size=1, max_size=4)


@st.composite
def slab_lines(draw, pool=None) -> list:
    """AOL lines drawn from ``pool``, so that queries, words and panes
    repeat across windows and slabs and no line raises, or, without a
    pool, fresh AOL lines with up to two malformed, empty or
    needle-straddling lines spliced in (few, so that most windows take
    the slab path)."""
    if pool is not None:
        return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    lines = draw(st.lists(aol_lines(), max_size=30))
    for _ in range(draw(st.integers(0 if lines else 1, 2))):
        odd = draw(st.one_of(malformed_lines(), st.sampled_from(EDGE_LINES)))
        lines.insert(draw(st.integers(0, len(lines))), odd)
    return lines


@st.composite
def walks(draw, sizes):
    """One owner's walk over two slabs: chunks of each slab in order or
    shuffled, alternating between the slabs, each a window or a list,
    each optionally followed by a flush and by a restore."""
    queues = []
    for slab_index, size in enumerate(sizes):
        cuts = draw(st.sets(st.integers(1, size), max_size=5))
        bounds = [0, *sorted(cuts | {size})]
        queue = [(slab_index, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        if draw(st.booleans()):
            queue = draw(st.permutations(queue))
        queues.append(queue)
    steps = []
    while any(queues):
        for queue in queues:
            if queue:
                steps.append((*queue.pop(0), *(draw(st.booleans()) for _ in range(3))))
    return steps


#: Restored wordcount counts: ints the slab path adds to, and counts it
#: must leave to the hoisted loop, one addition at a time: floats, a bool
#: and an int past the int64 guard.
PRIORS = (0, 7, -3, 0.1, 1e16, True, 2**63 - 1)


#: Restored windowed pane values: ints the tally adds to, and values it
#: must leave to one addition at a time: floats and a bool.
PANE_VALUES = (0, 5, 0.5, 1e16, True)


def _pane_key(line):
    """``line``'s windowed pane key, or ``None`` where the reference
    raises on it."""
    try:
        window = FixedWindows(3600.0).assign(event_time(line))
    except (IndexError, ValueError):
        return None
    return first_word(line), window.start, window.end


@st.composite
def restored_states(draw, query, state, lines):
    """A state to ``restore()`` mid-walk: the reference's snapshot
    ``state``, with a few wordcount counts replaced, another statistics
    state, a distinct-count ``seen`` with queries of ``lines`` and
    foreign ones added, or windowed panes with a few values replaced by
    non-``int`` ones and foreign or not yet seen keys added."""
    if query == "wordcount":
        edits = st.dictionaries(st.sampled_from(WORDS), st.sampled_from(PRIORS), max_size=3)
        return {**state, **draw(edits)}
    if query == "statistics":
        return draw(st.sampled_from((state, (3.0, 40.0, 120.0, 9), (7.0, 7.0, 7.0, 1))))
    if query == "distinct-count":
        queries = [query_column(line) for line in lines] + ["foreign", "also foreign"]
        return state | draw(st.sets(st.sampled_from(queries), max_size=4))
    if query == "windowed":
        panes, pane_counts = state
        keys = [*panes, ("foreign", 0.0, 3600.0), *filter(None, map(_pane_key, lines))]
        edits = st.dictionaries(st.sampled_from(keys), st.sampled_from(PANE_VALUES), max_size=4)
        return {**panes, **draw(edits)}, pane_counts
    return state


def _owner_state(function):
    """The owner's state, by ``repr`` where a type or order could differ."""
    if hasattr(function, "counts"):
        return repr(list(function.counts.items()))
    if hasattr(function, "seen"):
        return list(function.seen), len(function.seen)
    if hasattr(function, "panes"):
        return [
            (repr(key), repr(value), type(value)) for key, value in function.panes.items()
        ]
    if hasattr(function, "minimum"):
        return repr(function.snapshot())
    return None


def _reference(function, lines):
    out: list = []
    try:
        for line in lines:
            out.extend(function.process(line))
    except Exception as err:  # noqa: BLE001 - compared with the kernel's
        return out, (type(err), str(err))
    return out, None


@settings(max_examples=250, deadline=None)
@given(query=st.sampled_from(MEMOISED_QUERIES), data=st.data())
def test_memoised_slab_paths_equal_the_reference(query, data):
    """Two owners walk windows of two slabs alternately; after every
    flush their outputs so far and their state equal the reference's,
    also across restores of both to one edited state."""
    pool = data.draw(st.one_of(st.none(), line_pools))
    line_lists = [data.draw(slab_lines(pool)) for _ in range(2)]
    columns = [SlabColumn(slab_of(lines)) for lines in line_lists]
    owners = []
    for _ in range(2):
        function = get_query(query).make_function(random.Random(0))
        reference = get_query(query).make_function(random.Random(0))
        function.open()
        reference.open()
        kernel = lower_stage(function)
        assert kernel.supports_slab
        walk = data.draw(walks([len(lines) for lines in line_lists]))
        owners.append((function, reference, kernel, walk, [], []))
    for index in range(max(len(owner[3]) for owner in owners)):
        for function, reference, kernel, walk, out, ref_out in owners:
            if index >= len(walk):
                continue
            slab_index, lo, hi, as_list, flush, restore = walk[index]
            chunk = columns[slab_index][lo:hi]
            error = None
            try:
                out.extend(run_kernel(kernel, list(chunk) if as_list else chunk))
            except Exception as err:  # noqa: BLE001 - compared with the reference's
                error = (type(err), str(err))
            produced, ref_error = _reference(reference, line_lists[slab_index][lo:hi])
            ref_out.extend(produced)
            assert error == ref_error
            if flush or error is not None:
                kernel.flush()
                assert out == ref_out
                assert _owner_state(function) == _owner_state(reference)
            if error is not None:
                return
            if restore:
                kernel.flush()  # as the recovery path flushes before a restore
                lines = [line for lines in line_lists for line in lines]
                state = data.draw(restored_states(query, reference.snapshot(), lines))
                function.restore(state)
                reference.restore(state)
    for function, reference, kernel, _, out, ref_out in owners:
        kernel.flush()
        assert out == ref_out
        assert _owner_state(function) == _owner_state(reference)


@pytest.mark.parametrize("query", MEMOISED_QUERIES)
def test_slab_of_one_empty_line(query):
    """A slab of one empty line has an empty byte buffer: every slab path
    still equals the reference, error included."""
    function = get_query(query).make_function(random.Random(0))
    reference = get_query(query).make_function(random.Random(0))
    kernel = lower_stage(function)
    error = None
    try:
        out = list(run_kernel(kernel, SlabColumn(slab_of([""]))))
    except Exception as err:  # noqa: BLE001 - compared with the reference's
        out, error = [], (type(err), str(err))
    kernel.flush()
    assert (out, error) == _reference(reference, [""])
    assert _owner_state(function) == _owner_state(reference)


def test_derived_builds_once_per_key():
    slab = slab_of(["a\tb", "c\td"])
    calls: list = []

    def build(key):
        def run(built_slab):
            assert built_slab is slab
            calls.append(key)
            return None if key == "none" else np.arange(3)

        return run

    first = slab.derived(("x", 1), build("x"))
    assert slab.derived(("x", 1), build("x")) is first
    assert slab.derived(("x", 2), build("x2")) is not first
    assert slab.derived("none", build("none")) is None
    assert slab.derived("none", build("none")) is None
    assert calls == ["x", "x2", "none"]


@pytest.mark.parametrize("query", MEMOISED_QUERIES)
def test_memo_arrays_are_read_only(query):
    """Every array every derivation holds, and the projected column's
    bytes and offsets, refuse writes, so no kernel output can corrupt
    them; windowed's pane keys are a tuple of tuples.  Wordcount and
    distinct-count memoise two derivations, the query field and the
    word or query ids built from it."""
    lines = [f"{100000 + i}\tq test {i % 7}\t2006-03-0{i % 9 + 1} 10:00:00" for i in range(200)]
    slab = slab_of(lines)
    kernel = lower_stage(get_query(query).make_function(random.Random(0)))
    out = run_kernel(kernel, SlabColumn(slab)[0:100])
    kernel.flush()
    values = list(slab._derived.values())
    assert len(values) == (2 if query in ("wordcount", "distinct-count") else 1)
    for value in values:
        arrays = [item for item in (value if type(value) is tuple else (value,))
                  if isinstance(item, np.ndarray)]
        if type(value) is SlabColumn:  # the projected column slab
            arrays += [value.slab.arr, value.slab.starts]
        assert arrays
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[:1] = 0
    if query == "grep":
        assert not out.rows.flags.writeable
    if query == "wordcount":  # the output's word ids are a view of the memo
        assert not out.fields[0].flags.writeable
    if query == "windowed":
        ids, prev, valid, keys = values[0]
        assert type(keys) is tuple and {type(key) for key in keys} == {tuple}
        assert len(keys) == 9 and ids.dtype == prev.dtype == np.int32  # 9 days of q


def test_windowed_word_limit_applies_per_slab(monkeypatch):
    """With room for four first-word ids, a slab's rows past its fourth
    distinct first word are invalid and their windows run the owner's
    ``process_batch``; a second slab gets ids of its own, and the panes
    stay the reference's."""
    monkeypatch.setattr(kernels, "_WORD_BITS", 2)
    monkeypatch.setattr(kernels, "_WORD_MASK", 3)
    words = ("w0", "w1", "w2", "w3", "w4", "w5")
    lines = [f"7\t{words[i % 6]} q\t2006-03-01 0{i % 3}:00:00" for i in range(24)]
    others = [f"7\tv{i % 4}\t2006-03-02 00:00:00" for i in range(8)]
    function = get_query("windowed").make_function(random.Random(0))
    reference = get_query("windowed").make_function(random.Random(0))
    kernel = lower_stage(function)
    slab, other = slab_of(lines), slab_of(others)
    _, _, valid, keys = slab.derived(kernel._key, kernel._panes)
    assert valid.tolist() == [i % 6 < 4 for i in range(24)]
    assert [word for word, _, _ in keys] == ["w0", "w1", "w2", "w3"]
    for column, chunk in ((SlabColumn(slab), 3), (SlabColumn(other), 4)):
        for lo in range(0, len(column), chunk):
            run_kernel(kernel, column[lo : lo + chunk])
    kernel.flush()
    for line in lines + others:
        reference.process(line)
    assert _owner_state(function) == _owner_state(reference)


#: A workload seed used by no other test, so no earlier test can have
#: decoded the shared slab.
STATEFUL_SEED = 7141


def test_stateful_cells_decode_nothing():
    """A full native cell of every memoised stateful query reads only the
    slab's derivations: the workload slab is never decoded.  Wordcount's,
    statistics' and distinct-count's outputs reach the output log as
    field columns, which it adopts for the whole run on every system."""
    harness = StreamBenchHarness(BenchmarkConfig(records=20_000, runs=2, seed=STATEFUL_SEED))
    harness.ingest()
    slab = harness.workload.columnar().to_slab()
    for system in ("flink", "spark", "apex"):
        for query in ("wordcount", "distinct-count", "statistics", "windowed"):
            harness.run_setup(system, query, "native", 1)
            assert slab.records is None, (system, query)
            log = harness.broker.partition_log(harness.config.output_topic, 0)
            if query in ("wordcount", "statistics", "distinct-count"):
                assert type(log._values) is FieldColumn, (system, query)
                assert len(log._values) == len(log) > 0


def test_wordcount_restored_float_count_takes_the_hoisted_loop():
    """A window whose words include one with a restored non-``int`` count
    runs the hoisted loop and returns a list; any other window returns a
    field column.  Both equal the reference."""
    lines = ["7\tmaps a\t2006-03-01 00:00:00", "7\ttest maps\t2006-03-01 00:00:01"] * 40
    function = get_query("wordcount").make_function(random.Random(0))
    reference = get_query("wordcount").make_function(random.Random(0))
    for owner in (function, reference):
        owner.restore({"test": 0.1, "maps": 3})
    kernel = lower_stage(function)
    column = SlabColumn(slab_of(lines))
    out = run_kernel(kernel, column[0:1])  # "maps a": int priors only
    assert type(out) is FieldColumn
    floated = run_kernel(kernel, column[1:80])  # reaches "test"
    assert type(floated) is list
    assert repr(list(out) + floated) == repr(_reference(reference, lines)[0])
    assert _owner_state(function) == _owner_state(reference)
    assert type(function.counts["test"]) is float


class CountingSet(set):
    """A ``set`` that counts its membership tests."""

    tests = 0

    def __contains__(self, item) -> bool:
        self.tests += 1
        return super().__contains__(item)


def _distinct_owner(state=()):
    """A distinct-count owner restored to ``state``, held in a
    :class:`CountingSet`."""
    function = get_query("distinct-count").make_function(random.Random(0))
    function.restore(set(state))
    function.seen = CountingSet(function.seen)
    return function


def test_distinct_count_pump_runs_readopt_after_open():
    """Two pump runs of one owner over one slab, with ``open()`` between
    them, each equal the reference: the first run's flush drops the
    adopted membership, so the second run counts from the cleared ``seen``
    again, and a run that starts from an empty ``seen`` never tests it."""
    lines = [f"7\tq{i % 13} test\t2006-03-01 00:00:00" for i in range(300)]
    column = SlabColumn(slab_of(lines))
    function = _distinct_owner()
    stages = [
        PhysicalStage("source", StageKind.SOURCE, StageCosts(per_record_in=1e-6)),
        PhysicalStage("op", StageKind.OPERATOR, StageCosts(per_weight=1e-6), function=function),
        PhysicalStage("sink", StageKind.SINK, StageCosts(per_record_out=1e-6)),
    ]
    emitted: list = []
    pump = StreamPump(
        Simulator(seed=5), stages, RunVariance(), random.Random(0),
        emit=emitted.extend, chunk_size=40,
    )
    for _ in range(2):
        function.open()
        emitted.clear()
        pump.run(column)
        reference = _distinct_owner()
        assert emitted == _reference(reference, lines)[0]
        assert _owner_state(function) == _owner_state(reference)
    assert function.seen.tests == 0


def test_distinct_count_restored_seen_holds_later_queries():
    """A restored ``seen`` holding queries that the walk reaches only in
    later windows: ``seen`` itself changes only at the flush, each query
    of the slab is tested against it once, when a window first reaches
    it, and the counts and the flushed ``seen`` equal the reference's."""
    lines = [f"7\tq{i // 10}\t2006-03-01 00:00:00" for i in range(200)]
    state = {"q15", "q19", "foreign"}
    function, reference = _distinct_owner(state), _distinct_owner(state)
    kernel = lower_stage(function)
    column = SlabColumn(slab_of(lines))
    out: list = []
    for lo in range(0, 200, 25):
        out.extend(run_kernel(kernel, column[lo : lo + 25]))
    assert set(function.seen) == state
    kernel.flush()
    assert out == _reference(reference, lines)[0]
    assert _owner_state(function) == _owner_state(reference)
    assert function.seen.tests == 20  # q0 .. q19, once each
