"""The slab paths that cut their windows from memoised slab derivations.

Grep (hit rows), projection (the column slab), wordcount, statistics and
distinct-count (the query field) and windowed (the pane codes) each read
a window of one whole-slab result that ``WorkloadSlab.derived`` builds at
most once per slab.  The property below feeds two owners' kernels
windows of two slabs alternately, in random chunkings with list chunks
interleaved, and checks after every flush that each owner's outputs and
state equal a reference ``process`` loop over the same records.  The
unit tests pin the memo itself: one build per key, read-only arrays, and
a full stateful cell that never decodes the workload slab.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.benchmark import BenchmarkConfig, StreamBenchHarness
from repro.benchmark.queries import get_query
from repro.dataflow.compiler import lower_stage
from repro.dataflow import kernels
from repro.dataflow.kernels import SlabColumn, run_kernel
from tests.dataflow.test_aol_slab_paths import aol_lines, malformed_lines
from tests.slabs import slab_of

MEMOISED_QUERIES = (
    "grep", "projection", "wordcount", "statistics", "distinct-count", "windowed",
)

#: Empty lines (a slab of one has an empty buffer), and lines around the
#: grep needle ``test``: across a tab, at a line's end or start (so
#: across a newline in the slab), or whole.
EDGE_LINES = ("", "te\tst", "7\tte\tst", "7\tmy tes", "t\tx", "7\ttest\t", "test", "tes")


@st.composite
def slab_lines(draw) -> list:
    """AOL lines with up to two malformed, empty or needle-straddling
    lines spliced in (few, so that most windows take the slab path)."""
    lines = draw(st.lists(aol_lines(), max_size=30))
    for _ in range(draw(st.integers(0 if lines else 1, 2))):
        odd = draw(st.one_of(malformed_lines(), st.sampled_from(EDGE_LINES)))
        lines.insert(draw(st.integers(0, len(lines))), odd)
    return lines


@st.composite
def walks(draw, sizes):
    """One owner's walk over two slabs: chunks of each slab in order,
    alternating between the slabs, each a window or a list, each
    optionally followed by a flush."""
    queues = []
    for slab_index, size in enumerate(sizes):
        cuts = draw(st.sets(st.integers(1, size), max_size=5))
        bounds = [0, *sorted(cuts | {size})]
        queues.append([(slab_index, lo, hi) for lo, hi in zip(bounds, bounds[1:])])
    steps = []
    while any(queues):
        for queue in queues:
            if queue:
                steps.append((*queue.pop(0), draw(st.booleans()), draw(st.booleans())))
    return steps


def _owner_state(function):
    """The owner's state, by ``repr`` where a type or order could differ."""
    if hasattr(function, "counts"):
        return repr(list(function.counts.items()))
    if hasattr(function, "seen"):
        return sorted(function.seen), len(function.seen)
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
    flush their outputs so far and their state equal the reference's."""
    line_lists = [data.draw(slab_lines()) for _ in range(2)]
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
            slab_index, lo, hi, as_list, flush = walk[index]
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
    """Every array a derivation holds, and the projected column's bytes
    and offsets, refuse writes, so no kernel output can corrupt them."""
    lines = [f"{100000 + i}\tq test {i % 7}\t2006-03-0{i % 9 + 1} 10:00:00" for i in range(200)]
    slab = slab_of(lines)
    kernel = lower_stage(get_query(query).make_function(random.Random(0)))
    out = run_kernel(kernel, SlabColumn(slab)[0:100])
    kernel.flush()
    (value,) = slab._derived.values()
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


def test_windowed_word_limit_applies_per_slab(monkeypatch):
    """With room for four first-word ids, a slab's rows past its fourth
    distinct first word are invalid and their windows take the hoisted
    loop; a second slab gets ids of its own, and the panes stay the
    reference's."""
    monkeypatch.setattr(kernels, "_WORD_BITS", 2)
    monkeypatch.setattr(kernels, "_WORD_MASK", 3)
    words = ("w0", "w1", "w2", "w3", "w4", "w5")
    lines = [f"7\t{words[i % 6]} q\t2006-03-01 0{i % 3}:00:00" for i in range(24)]
    others = [f"7\tv{i % 4}\t2006-03-02 00:00:00" for i in range(8)]
    function = get_query("windowed").make_function(random.Random(0))
    reference = get_query("windowed").make_function(random.Random(0))
    kernel = lower_stage(function)
    slab, other = slab_of(lines), slab_of(others)
    _, valid, slab_words = slab.derived(kernel._key, kernel._panes)
    assert valid.tolist() == [i % 6 < 4 for i in range(24)]
    assert slab_words[:4] == ["w0", "w1", "w2", "w3"]
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
    slab's derivations: the workload slab is never decoded."""
    harness = StreamBenchHarness(BenchmarkConfig(records=20_000, runs=2, seed=STATEFUL_SEED))
    harness.ingest()
    slab = harness.workload.columnar().to_slab()
    for query in ("wordcount", "distinct-count", "statistics", "windowed"):
        harness.run_setup("flink", query, "native", 1)
        assert slab.records is None, query
