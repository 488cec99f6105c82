"""The AOL slab paths of the windowed, statistics and wordcount kernels.

Each property builds a slab over random lines with ``tests.slabs.slab_of``,
cuts it at random chunk boundaries and feeds every chunk to the kernel's
``call_slab`` the way the pump does: as a window (a slice) of the
slab's ``SlabColumn``, flushing the kernel when the chunks are done, as
the pump does at the end of a run.  The lines are AOL-shaped, with
``QueryTime`` digits 00–99, empty queries and leading or double spaces,
and are mixed with malformed lines: no tab or one tab, a time field of
0–18 bytes, a digit replaced by a space, ``+``, ``-``, ``_`` or a letter,
and trailing text or extra fields.  The outputs, the owner's state
(compared by ``repr``, so a NumPy scalar or a reordered dict fails) and
any raised exception must equal a reference ``process`` loop over the
same records.  The windowed kernel's pane tally is also checked after
flushes in mid-stream, with list chunks in between and restored panes.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.beam.window import FixedWindows, SlidingWindows
from repro.benchmark.queries import get_query
from repro.dataflow.compiler import lower_stage
from repro.dataflow.kernels import (
    SlabColumn,
    WindowedAggregateKernel,
    run_kernel,
)
from repro.dataflow.windowing import WindowedAggregateFunction
from repro.workloads.aol import event_time, first_word, generate_records
from tests.slabs import slab_of

#: Query words, with whitespace that is not a space (``str.split``
#: splits on it, ``partition(" ")`` does not).
WORDS = ("weather", "test", "a", "maps", "x\x0by", "\x1c", "tab\rcr", "f\x0c")
TIME_DIGITS = (8, 9, 11, 12, 14, 15, 17, 18)

two_digits = st.integers(0, 99).map("{:02d}".format)


@st.composite
def queries(draw) -> str:
    words = draw(st.lists(st.sampled_from(WORDS), max_size=4))
    lead = draw(st.sampled_from(("", "", " ", "  ")))
    seps = [draw(st.sampled_from((" ", " ", "  "))) for _ in words]
    return lead + "".join(w + s for w, s in zip(words, seps)).rstrip(" ")


@st.composite
def times(draw) -> str:
    day, hour, minute, second = (draw(two_digits) for _ in range(4))
    return f"2006-03-{day} {hour}:{minute}:{second}"


@st.composite
def aol_lines(draw) -> str:
    """A line every kernel parses: two tabs and an all-digit time."""
    user = draw(st.sampled_from(("", "7", "4242")))
    tail = draw(st.sampled_from(("", "", "\t", "\t3\thttp://x/y", "\t\t\tmore", " late")))
    return f"{user}\t{draw(queries())}\t{draw(times())}{tail}"


@st.composite
def malformed_lines(draw) -> str:
    shape = draw(st.sampled_from(("no-tab", "one-tab", "short-time", "bad-digit")))
    query = draw(queries())
    if shape == "no-tab":
        return query
    if shape == "one-tab":
        return f"7\t{query}"
    time = draw(times())
    if shape == "short-time":
        time = time[: draw(st.integers(0, 18))]
    else:
        pos = draw(st.sampled_from(TIME_DIGITS))
        time = time[:pos] + draw(st.sampled_from(" +-_a")) + time[pos + 1 :]
    tail = draw(st.sampled_from(("", "\t1\thttp://x/y")))
    return f"7\t{query}\t{time}{tail}"


@st.composite
def chunked_lines(draw, lines=st.lists(aol_lines(), min_size=1, max_size=60)):
    """Lines with a few malformed ones spliced in, and chunk bounds."""
    lines = draw(lines)
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(malformed_lines()))
    cuts = draw(st.sets(st.integers(1, len(lines)), max_size=8))
    return lines, [0, *sorted(cuts | {len(lines)})]


def _run_slab(function, lines, bounds):
    kernel = lower_stage(function)
    assert kernel.supports_slab
    slab = slab_of(lines)
    column = SlabColumn(slab)
    out: list = []
    try:
        for lo, hi in zip(bounds, bounds[1:]):
            out.extend(kernel.call_slab(slab, lo, column[lo:hi]))
    except Exception as err:  # noqa: BLE001 - compared with the reference's
        return out, (type(err), str(err))
    finally:
        # Adopted state (the windowed pane tally) reaches the owner here,
        # as at the end of a pump run.
        kernel.flush()
    return out, None


def _run_reference(function, lines):
    out: list = []
    try:
        for line in lines:
            out.extend(function.process(line))
    except Exception as err:  # noqa: BLE001 - compared with the kernel's
        return out, (type(err), str(err))
    return out, None


def _assert_equivalent(make, state, lines, bounds):
    function, reference = make(), make()
    function.open()
    reference.open()
    out, error = _run_slab(function, lines, bounds)
    ref_out, ref_error = _run_reference(reference, lines)
    assert error == ref_error
    if error is None:
        assert repr(out) == repr(ref_out)
    assert repr(state(function)) == repr(state(reference))


def _stateful(name):
    return lambda: get_query(name).make_function(random.Random(0))


@settings(max_examples=150, deadline=None)
@given(
    chunked=chunked_lines(),
    size=st.sampled_from((3600.0, 60.0, 7.3, 0.1)),
    offset=st.sampled_from((0.0, 0.05, 1.25, 1800.0, 12345.6)),
)
def test_windowed_slab_path_equals_reference(chunked, size, offset):
    def make():
        return WindowedAggregateFunction(
            window_fn=FixedWindows(size, offset),
            key_fn=first_word,
            timestamp_fn=event_time,
        )

    _assert_equivalent(
        make,
        lambda fn: (list(fn.panes.items()), list(fn.pane_counts.items())),
        *chunked,
    )


def _pane_state(function) -> list:
    """Each pane's key and value by ``repr``, and the value's type
    (``2 == 2.0``, so only the type tells them apart)."""
    return [
        (repr(key), repr(value), type(value)) for key, value in function.panes.items()
    ]


@settings(max_examples=150, deadline=None)
@given(
    # Few distinct lines, so that panes repeat between flushes.
    chunked=chunked_lines(
        st.lists(aol_lines(), min_size=1, max_size=6).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=60)
        )
    ),
    as_list=st.lists(st.booleans(), min_size=9, max_size=9),
    flush_after=st.lists(st.booleans(), min_size=9, max_size=9),
    # 1e16 + 1 + 1 != 1e16 + 2: a float prior takes its additions one by one.
    priors=st.lists(st.sampled_from((2, 0.1, 1e16, True)), max_size=6),
    initial=st.sampled_from((0, 3, 0.0)),
    size=st.sampled_from((3600.0, 7.3, 0.1)),
    offset=st.sampled_from((0.0, 1.25, 12345.6)),
)
def test_windowed_pane_tally_equals_reference(
    chunked, as_list, flush_after, priors, initial, size, offset
):
    """After every flush the panes equal the reference loop's: slab
    windows mixed with list chunks, over panes that ``restore()`` filled
    with int, float and bool values.  An owner whose initial value is
    not an ``int`` does not take the slab path."""
    lines, bounds = chunked
    window_fn = FixedWindows(size, offset)

    def make():
        return WindowedAggregateFunction(
            window_fn=window_fn,
            key_fn=first_word,
            timestamp_fn=event_time,
            initial=initial,
        )

    keys = []
    for line in lines:
        try:
            window = window_fn.assign(event_time(line))
        except (IndexError, ValueError):  # a malformed line
            continue
        keys.append((first_word(line), window.start, window.end))
    restored = {("unseen", -1.0, 0.0): 1, **dict(zip(dict.fromkeys(keys), priors))}
    function, reference = make(), make()
    function.restore((restored, {}))
    reference.restore((restored, {}))
    kernel = lower_stage(function)
    assert kernel.supports_slab == (type(initial) is int)
    column = SlabColumn(slab_of(lines))
    error = ref_error = None
    for (lo, hi), listed, flush in zip(zip(bounds, bounds[1:]), as_list, flush_after):
        chunk = column[lo:hi]
        try:
            run_kernel(kernel, list(chunk) if listed else chunk)
        except Exception as err:  # noqa: BLE001 - compared with the reference's
            error = (type(err), str(err))
        _, ref_error = _run_reference(reference, lines[lo:hi])
        if flush or error is not None:
            kernel.flush()
            assert _pane_state(function) == _pane_state(reference)
        assert error == ref_error
        if error is not None:
            return
    kernel.flush()
    assert _pane_state(function) == _pane_state(reference)


@settings(max_examples=150, deadline=None)
@given(chunked=chunked_lines())
def test_statistics_slab_path_equals_reference(chunked):
    _assert_equivalent(_stateful("statistics"), lambda fn: fn.snapshot(), *chunked)


@settings(max_examples=150, deadline=None)
@given(chunked=chunked_lines())
def test_wordcount_slab_path_equals_reference(chunked):
    _assert_equivalent(
        _stateful("wordcount"), lambda fn: list(fn.counts.items()), *chunked
    )


class _NoLoop(WindowedAggregateKernel):
    def __call__(self, values):
        raise AssertionError("the chunk fell back to process_batch")


def test_windowed_slab_path_parses_clean_aol_chunks():
    """The properties above are not vacuous: generated AOL lines take the
    slab path without falling back."""
    lines = generate_records(3_000, seed=5)
    function = get_query("windowed").make_function(random.Random(0))
    kernel = _NoLoop(function)
    assert kernel.supports_slab
    slab = slab_of(lines)
    column = SlabColumn(slab)
    try:
        for lo in range(0, len(lines), 700):
            hi = min(lo + 700, len(lines))
            kernel.call_slab(slab, lo, column[lo:hi])
    finally:
        kernel.flush()
    reference = get_query("windowed").make_function(random.Random(0))
    _run_reference(reference, lines)
    assert list(function.panes.items()) == list(reference.panes.items())


@pytest.mark.parametrize(
    "change",
    (
        {"filter_fn": bool},
        {"reducer": lambda acc, line: acc + 1},
        {"key_fn": lambda line: first_word(line)},
        {"timestamp_fn": lambda line: event_time(line)},
        {"window_fn": SlidingWindows(3600.0, 600.0)},
    ),
    ids=("filter", "reducer", "other-key", "other-time", "sliding-windows"),
)
def test_windowed_slab_path_needs_the_aol_counting_owner(change):
    fields = {
        "window_fn": FixedWindows(3600.0),
        "key_fn": first_word,
        "timestamp_fn": event_time,
        **change,
    }
    assert not WindowedAggregateKernel(WindowedAggregateFunction(**fields)).supports_slab
