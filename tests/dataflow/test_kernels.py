"""Unit tests for the compiled kernel layer (``repro.dataflow.kernels``).

The equivalence suite (``tests/engines/test_kernel_equivalence.py``)
proves tier bit-identity end to end; this file exercises each kernel's
guards, fallbacks and adversarial inputs directly — the cases where a
kernel must *refuse* its fast path to stay exact.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.dataflow.kernels as kernels
from repro.dataflow.compiler import lower_stage
from repro.dataflow.functions import (
    FilterFunction,
    IdentityFunction,
    MapFunction,
    compose,
)
from repro.dataflow.kernels import (
    ChainKernel,
    ColumnKernel,
    FusedKernel,
    GrepKernel,
    IdentityKernel,
    KernelSpec,
    SampleKernel,
    SlabColumn,
    WorkloadSlab,
    run_kernel,
)
from tests.slabs import slab_column, slab_of


def ref_grep(needle, values):
    return [v for v in values if needle in v]


def ref_column(index, sep, values):
    return [v.split(sep)[index] for v in values]


# ---------------------------------------------------------------------------
# GrepKernel


class TestGrepKernel:
    """The u2 scan runs only inside the slab's hit-row derivation, so its
    edge cases go through the slab path; any other chunk runs the
    reference comprehension."""

    def grep(self, needle, values):
        """``needle``'s grep over ``values`` as one slab window, which
        must come back as a selection of the slab's rows."""
        out = run_kernel(GrepKernel(needle), slab_column(values))
        assert type(out) is SlabColumn and out.rows is not None
        return out

    def test_bulk_matches_reference(self):
        values = [f"row {i} of the test data" if i % 3 else f"row {i}" for i in range(500)]
        assert self.grep("test", values) == ref_grep("test", values)

    def test_needle_at_line_boundaries(self, monkeypatch):
        """Hits at line starts and ends, and at the first and last byte of
        the buffer and of every derivation block."""
        values = ["XYab", "abXY", "XY", "aXYb", "noope", "xXY"]
        for block in (kernels._DERIVE_BLOCK, 1, 2, 4):
            monkeypatch.setattr(kernels, "_DERIVE_BLOCK", block)
            assert self.grep("XY", values) == ref_grep("XY", values)
            assert self.grep("XYa", values) == ref_grep("XYa", values)

    def test_needle_spanning_lines_never_matches(self):
        """The needle's first two bytes end one line and its tail begins
        the next; the newline between them fails the tail verify, also
        where the buffer ends mid-needle."""
        values = ["my te", "st", "te", "xtest", "a te"]
        assert self.grep("test", values) == ["xtest"]
        assert self.grep("test", values[:3]) == []

    def test_multiple_hits_in_one_line_dedup(self):
        values = ["XY and XY and XY", "plain", "XYXY"] * 40
        assert self.grep("XY", values) == ref_grep("XY", values)

    def test_non_ascii_needle_falls_back(self):
        values = ["héllo", "hello"] * 40
        kernel = GrepKernel("é")
        assert not kernel.supports_slab
        assert kernel(values) == ref_grep("é", values)

    def test_single_char_needle_falls_back(self):
        """The u2 scan needs two needle bytes; a window under a one-byte
        needle stays exact through the comprehension."""
        values = ["abc", "xyz", "a"] * 40
        kernel = GrepKernel("a")
        assert not kernel.supports_slab
        assert run_kernel(kernel, slab_column(values)) == ref_grep("a", values)

    def test_needle_with_newline_falls_back(self):
        values = ["one\ntwo", "three"] * 40
        kernel = GrepKernel("e\nt")
        assert not kernel.supports_slab
        assert kernel(values) == ref_grep("e\nt", values)

    # A list chunk runs the reference comprehension whatever it holds,
    # including values that no slab can: non-ASCII lines, embedded
    # newlines and non-str values.

    def test_non_ascii_values_fall_back(self):
        values = ["héllo test", "plain test", "nope"] * 20
        kernel = GrepKernel("test")
        assert kernel(values) == ref_grep("test", values)

    def test_values_with_embedded_newlines_fall_back(self):
        values = ["a\nXYb" if i % 5 == 0 else f"row{i}XY" for i in range(200)]
        kernel = GrepKernel("XY")
        assert kernel(values) == ref_grep("XY", values)

    def test_non_str_values_fall_back_to_reference_semantics(self):
        """Lists support ``in`` as membership, which the comprehension
        applies exactly as the reference does."""
        values = [["xx", 2], [2, 3]] * 40
        kernel = GrepKernel("xx")
        assert kernel(values) == [v for v in values if "xx" in v]

    def test_small_chunks_use_comprehension(self):
        values = ["a test", "nope"]
        kernel = GrepKernel("test")
        assert kernel(values) == ["a test"]

    def test_two_byte_needle_no_tail(self):
        """Needle of exactly two bytes skips the tail verify entirely."""
        values = [f"{i:04d}ab" if i % 2 else f"{i:04d}" for i in range(300)]
        assert self.grep("ab", values) == ref_grep("ab", values)

    def test_describe_names_the_path(self):
        assert "u2-scan" in GrepKernel("test").describe()
        assert "comprehension" in GrepKernel("é").describe()


# ---------------------------------------------------------------------------
# ColumnKernel


class TestColumnKernel:
    def test_column_zero_matches_split(self):
        values = [f"user{i}\tquery {i}\t{i}" for i in range(100)]
        kernel = ColumnKernel(0, "\t")
        assert kernel(values) == ref_column(0, "\t", values)

    def test_separator_free_lines_exact(self):
        """split(sep)[0] of a separator-free line is the whole line."""
        values = ["no-tabs-here", "a\tb", "also no tabs"] * 10
        kernel = ColumnKernel(0, "\t")
        assert kernel(values) == ref_column(0, "\t", values)

    def test_nonzero_index_falls_back(self):
        values = [f"a\tb{i}\tc" for i in range(50)]
        kernel = ColumnKernel(1, "\t")
        assert not kernel._fast
        assert kernel(values) == ref_column(1, "\t", values)

    def test_multichar_sep_falls_back(self):
        values = [f"a::b{i}" for i in range(50)]
        kernel = ColumnKernel(0, "::")
        assert kernel(values) == ref_column(0, "::", values)

    def test_non_str_values_fall_back_to_reference_semantics(self):
        kernel = ColumnKernel(0, "\t")
        with pytest.raises(AttributeError):
            kernel([object()])

    def test_missing_column_raises_like_reference(self):
        values = ["only-one-field"]
        kernel = ColumnKernel(2, "\t")
        with pytest.raises(IndexError):
            kernel(values)


class TestColumnSlabProjection:
    def test_uniform_width_projects_exactly(self):
        values = [f"{100000 + i}\tquery {i}" for i in range(300)]
        kernel = ColumnKernel(0, "\t")
        column = kernel._project_slab(slab_of(values))
        assert column == ref_column(0, "\t", values)

    def test_nonuniform_width_refused(self):
        values = [f"{'x' * (5 + i % 3)}\trest" for i in range(100)]
        kernel = ColumnKernel(0, "\t")
        assert kernel._project_slab(slab_of(values)) is None

    def test_short_line_cannot_read_into_neighbour(self):
        """A line shorter than the learned width must refuse the gather —
        the byte at ``start + width`` belongs to the *next* line."""
        values = ["abcdef\trest"] * 50 + ["ab"] + ["abcdef\trest"] * 50
        kernel = ColumnKernel(0, "\t")
        assert kernel._project_slab(slab_of(values)) is None

    def test_earlier_separator_refused(self):
        values = ["abcdef\trest"] * 50 + ["ab\tcdef\trest"] + ["abcdef\trest"] * 50
        kernel = ColumnKernel(0, "\t")
        assert kernel._project_slab(slab_of(values)) is None

    def test_no_separator_in_first_line_refused(self):
        values = ["nosep"] + [f"abc\tdef{i}" for i in range(50)]
        kernel = ColumnKernel(0, "\t")
        assert kernel._project_slab(slab_of(values)) is None

    def test_width_zero_column(self):
        values = ["\trest of line"] * 80
        kernel = ColumnKernel(0, "\t")
        assert kernel._project_slab(slab_of(values)) == [""] * 80

    def test_call_slab_serves_windows(self):
        values = [f"{100000 + i}\tq{i}" for i in range(200)]
        slab = slab_of(values)
        kernel, other = ColumnKernel(0, "\t"), ColumnKernel(0, "\t")
        expected = ref_column(0, "\t", values)
        first = kernel.call_slab(slab, 0, values[0:64])
        assert first == expected[0:64]
        assert kernel.call_slab(slab, 64, values[64:128]) == expected[64:128]
        assert kernel.call_slab(slab, 128, values[128:200]) == expected[128:200]
        kernel.flush()
        # One projection per slab: a flush keeps it, and a second kernel
        # over the slab reads a window of the same column slab.
        again = other.call_slab(slab, 64, values[64:128])
        assert again == expected[64:128]
        assert again.slab is first.slab

    def test_call_slab_nonuniform_falls_back_per_chunk(self):
        values = [f"{'x' * (5 + i % 3)}\trest{i}" for i in range(120)]
        slab = slab_of(values)
        kernel = ColumnKernel(0, "\t")
        out = kernel.call_slab(slab, 0, values[:60]) + kernel.call_slab(
            slab, 60, values[60:]
        )
        assert out == ref_column(0, "\t", values)

    def test_projected_strings_are_real_strs(self):
        values = [f"{100000 + i}\tq" for i in range(100)]
        kernel = ColumnKernel(0, "\t")
        column = kernel._project_slab(slab_of(values))
        assert all(type(v) is str for v in column)


# ---------------------------------------------------------------------------
# SampleKernel


class TestSampleKernel:
    def test_identical_stream_to_python_rng(self):
        values = list(range(1000))
        for bulk in (True, False):  # NumPy mask, and the per-record path
            rng = random.Random(42)
            kernel = SampleKernel(0.3, rng)
            kernel._bulk = bulk
            picked = kernel(values)
            kernel.flush()
            ref_rng = random.Random(42)
            assert picked == [v for v in values if ref_rng.random() < 0.3]
            assert rng.getstate() == ref_rng.getstate()

    def test_flush_is_idempotent(self):
        rng = random.Random(1)
        kernel = SampleKernel(0.5, rng)
        kernel(list(range(64)))
        kernel.flush()
        state = rng.getstate()
        kernel.flush()
        assert rng.getstate() == state

    def test_state_resumes_across_chunks(self):
        rng = random.Random(7)
        kernel = SampleKernel(0.5, rng)
        out = kernel(list(range(100))) + kernel(list(range(100, 200)))
        kernel.flush()
        ref_rng = random.Random(7)
        assert out == [v for v in range(200) if ref_rng.random() < 0.5]

    def test_empty_chunk_draws_nothing(self):
        rng = random.Random(3)
        before = rng.getstate()
        kernel = SampleKernel(0.5, rng)
        assert kernel([]) == []
        kernel.flush()
        assert rng.getstate() == before

    def test_kernels_adopting_in_alternation_end_in_the_reference_states(self):
        """A flushed kernel's NumPy generator serves the next adoption;
        two kernels that adopt, step and flush in alternation never hold
        one generator together and draw exactly their own streams."""
        seeds = (11, 12)
        rngs = [random.Random(seed) for seed in seeds]
        first, second = (SampleKernel(0.4, rng) for rng in rngs)
        refs = [random.Random(seed) for seed in seeds]
        picked: list[list] = [[], []]
        expected: list[list] = [[], []]

        def step(index, kernel, values):
            picked[index].extend(kernel(values))
            expected[index].extend(v for v in values if refs[index].random() < 0.4)
            if first._state is not None and second._state is not None:
                assert first._state is not second._state

        step(0, first, list(range(40)))
        held = first._state
        step(1, second, list(range(100, 170)))
        first.flush()
        step(1, second, list(range(170, 200)))
        step(0, first, list(range(40, 90)))
        assert first._state is held  # the flushed generator, reused
        second.flush()
        step(1, second, list(range(200, 230)))
        step(0, first, list(range(90, 95)))
        first.flush()
        second.flush()
        assert picked == expected
        assert [rng.getstate() for rng in rngs] == [ref.getstate() for ref in refs]


# ---------------------------------------------------------------------------
# Identity, fusion, chains, compilation


class TestIdentityKernel:
    def test_zero_copy_list(self):
        values = [1, 2, 3]
        assert IdentityKernel()(values) is values

    def test_slab_column_passes_through(self):
        window = _slab_column(1, 3)
        assert IdentityKernel()(window) is window

    def test_other_sequences_materialize(self):
        assert IdentityKernel()((1, 2)) == [1, 2]


#: Slice bounds and steps around a 10-row window, out-of-range and
#: negative ones included.
_BOUNDS = (None, 0, 3, 9, 20, -1, -4, -20)
_STEPS = (None, 1, 3, -1, -2, -3)
SLICES = [slice(a, b, c) for a in _BOUNDS for b in _BOUNDS for c in _STEPS]


def _slab_column(start, stop):
    slab = slab_of([f"row{i}" for i in range(20)])
    return kernels.SlabColumn(slab, start, stop)


def _selection(rows):
    slab = slab_of([f"row{i}" for i in range(20)])
    return kernels.SlabColumn(slab, rows=np.array(rows, np.int64))


@pytest.mark.parametrize(
    "make",
    (
        lambda: _slab_column(0, 10),
        lambda: _slab_column(4, 14),
        lambda: _selection(range(0, 20, 2)),
        lambda: _selection(range(4, 14)),
        lambda: _slab_column(0, 20)[0:10],
        lambda: _slab_column(0, 20)[4:14],
    ),
    ids=(
        "slab-column-at-0",
        "slab-column-at-4",
        "selection-of-even-rows",
        "selection-at-4",
        "slice-of-slab-column-at-0",
        "slice-of-slab-column-at-4",
    ),
)
def test_window_slices_match_list_slices(make):
    """Every slice of a window or a selection equals the same slice of
    its rows as a list, reversed slices through row 0 of the slab
    included."""
    window = make()
    rows = list(window)
    assert len(rows) == 10
    for index in SLICES:
        assert window[index] == rows[index], index


@pytest.mark.parametrize(
    "make",
    (lambda: _slab_column(4, 14), lambda: _selection(range(0, 20, 2))),
    ids=("window", "selection"),
)
@pytest.mark.parametrize("k", (0, 5, 10))
def test_empty_column_decodes_nothing(make, k):
    """Iterating an empty column, forwards or backwards, leaves its slab
    undecoded: a drained log copies one without touching the slab."""
    column = make()
    empty = column[k:k]
    assert list(empty) == []
    assert list(reversed(empty)) == []
    assert empty == [] and not empty
    assert column.slab.records is None


#: Short lines from a tiny alphabet, so duplicates (for ``index`` and
#: ``count``) and equal columns over different rows are common.
_lines = st.lists(st.text(alphabet="ab\t ", max_size=3), min_size=1, max_size=24)


@st.composite
def slab_columns(draw):
    """A window (at row 0, mid-slab or empty) or a masked selection over a
    fresh column-built slab, with its records as a list built from the
    lines (not from the column)."""
    lines = draw(_lines)
    slab = slab_of(lines)
    n = len(lines)
    shape = draw(st.sampled_from(("window-at-0", "window", "empty", "selection")))
    if shape == "selection":
        mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        rows = np.flatnonzero(mask).astype(np.int64)
        return kernels.SlabColumn(slab, rows=rows), [lines[r] for r in rows]
    start = 0 if shape == "window-at-0" else draw(st.integers(0, n))
    stop = start if shape == "empty" else draw(st.integers(start, n))
    return kernels.SlabColumn(slab, start, stop), lines[start:stop]


_bounds = st.one_of(st.none(), st.integers(-30, 30))
_steps = st.sampled_from((None, 1, 2, 3, -1, -2, -3))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_slab_column_behaves_like_its_list(data):
    """Every ``Sequence`` operation of a window or selection gives what
    the same operation gives on its records as a list."""
    column, rows = data.draw(slab_columns())
    # Indexing and step-1 slices first: they decode nothing, so these
    # checks run on the undecoded single-line path.
    for index in range(-len(rows) - 2, len(rows) + 2):
        if -len(rows) <= index < len(rows):
            assert column[index] == rows[index]
        else:
            with pytest.raises(IndexError):
                column[index]
    assert column.slab.records is None
    assert len(column) == len(rows)
    assert bool(column) is bool(rows)
    assert list(column) == rows
    assert list(reversed(column)) == rows[::-1]
    for _ in range(8):
        index = slice(data.draw(_bounds), data.draw(_bounds), data.draw(_steps))
        assert list(column[index]) == rows[index], index
    for probe in ("", "a", "b", "a\tb", "zz"):
        assert (probe in column) is (probe in rows)
        assert column.count(probe) == rows.count(probe)
        if probe in rows:
            assert column.index(probe) == rows.index(probe)
        else:
            with pytest.raises(ValueError):
                column.index(probe)
    other, other_rows = data.draw(slab_columns())
    for candidate in (rows, rows + ["x"], rows[:-1], tuple(rows), other, other_rows):
        expected = rows == (other_rows if candidate is other else candidate)
        assert (column == candidate) is expected
        assert (candidate == column) is expected
        assert (column != candidate) is (not expected)
        assert (candidate != column) is (not expected)
    assert column + ["x"] == rows + ["x"]
    assert ["x"] + column == ["x"] + rows
    assert column + other == rows + other_rows
    with pytest.raises(TypeError):
        column + ("x",)
    with pytest.raises(TypeError):
        ("x",) + column
    with pytest.raises(TypeError):
        hash(column)


@st.composite
def pair_columns(draw):
    """A pair column over a window or selection, with its pairs as a list
    built from the lines."""
    column, rows = draw(slab_columns())
    return kernels.KvColumn(column), [(None, row) for row in rows]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pair_column_behaves_like_its_list(data):
    """Every ``Sequence`` operation of a pair column gives what the same
    operation gives on its ``(None, value)`` pairs as a list."""
    column, pairs = data.draw(pair_columns())
    # Indexing and step-1 slices first: they decode nothing.
    for index in range(-len(pairs) - 2, len(pairs) + 2):
        if -len(pairs) <= index < len(pairs):
            assert column[index] == pairs[index]
        else:
            with pytest.raises(IndexError):
                column[index]
    assert type(column[:]) is kernels.KvColumn
    assert column.values.slab.records is None
    assert len(column) == len(pairs)
    assert bool(column) is bool(pairs)
    assert list(column) == pairs
    assert list(reversed(column)) == pairs[::-1]
    for _ in range(8):
        index = slice(data.draw(_bounds), data.draw(_bounds), data.draw(_steps))
        piece = column[index]
        assert list(piece) == pairs[index], index
        if index.step in (None, 1):
            assert type(piece) is kernels.KvColumn, index
    for probe in ((None, ""), (None, "a"), (None, "a\tb"), ("a", "a"), "a"):
        assert (probe in column) is (probe in pairs)
        assert column.count(probe) == pairs.count(probe)
        if probe in pairs:
            assert column.index(probe) == pairs.index(probe)
        else:
            with pytest.raises(ValueError):
                column.index(probe)
    other, other_pairs = data.draw(pair_columns())
    extra = [(None, "x")]
    for candidate in (
        pairs, pairs + extra, pairs[:-1], tuple(pairs), other, other_pairs
    ):
        expected = pairs == (other_pairs if candidate is other else candidate)
        assert (column == candidate) is expected
        assert (candidate == column) is expected
        assert (column != candidate) is (not expected)
        assert (candidate != column) is (not expected)
    assert column + extra == pairs + extra
    assert extra + column == extra + pairs
    assert column + other == pairs + other_pairs
    with pytest.raises(TypeError):
        column + tuple(extra)
    with pytest.raises(TypeError):
        tuple(extra) + column
    with pytest.raises(TypeError):
        hash(column)


_WORDS = np.array(["a", "b", "a b", ""], dtype=object)


@st.composite
def field_columns(draw):
    """A field column, ``(word, count)`` pairs over a word lookup,
    ``(min, max, mean)``-shaped float triples or one field of
    distinct-count-shaped ints, over part of its arrays, with its
    elements as a list built from Python values."""
    n = draw(st.integers(0, 12))
    start = draw(st.integers(0, n))
    stop = draw(st.integers(start, n))
    shape = draw(st.sampled_from(("pairs", "triples", "scalars")))
    if shape == "pairs":
        codes = draw(st.lists(st.integers(0, len(_WORDS) - 1), min_size=n, max_size=n))
        counts = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        fields = (np.array(codes, np.int32), np.array(counts, np.int64))
        rows = [(_WORDS[code], count) for code, count in zip(codes, counts)]
        column = kernels.FieldColumn(fields, _WORDS, start, stop)
    elif shape == "scalars":
        rows = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        column = kernels.FieldColumn((np.array(rows, np.int64),), None, start, stop)
    else:
        floats = [
            draw(st.lists(st.sampled_from((0.5, 1.0, 2.0)), min_size=n, max_size=n))
            for _ in range(3)
        ]
        column = kernels.FieldColumn(tuple(map(np.array, floats)), None, start, stop)
        rows = list(zip(*floats))
    return column, rows[start:stop]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_field_column_behaves_like_its_list(data):
    """Every ``Sequence`` operation of a field column gives what the same
    operation gives on its elements as a list, element types included: a
    one-field column's elements are Python scalars, not 1-tuples."""
    column, rows = data.draw(field_columns())
    for index in range(-len(rows) - 2, len(rows) + 2):
        if -len(rows) <= index < len(rows):
            assert repr(column[index]) == repr(rows[index])
        else:
            with pytest.raises(IndexError):
                column[index]
    assert len(column) == len(rows)
    assert bool(column) is bool(rows)
    assert repr(list(column)) == repr(rows)
    assert list(reversed(column)) == rows[::-1]
    for _ in range(8):
        index = slice(data.draw(_bounds), data.draw(_bounds), data.draw(_steps))
        piece = column[index]
        assert repr(list(piece)) == repr(rows[index]), index
        if index.step in (None, 1):
            assert type(piece) is kernels.FieldColumn, index
    for probe in (("a", 1), ("a b", -3), (0.5, 0.5, 0.5), "a", 2, (2,)):
        assert (probe in column) is (probe in rows)
        assert column.count(probe) == rows.count(probe)
    other, other_rows = data.draw(field_columns())
    pairs, pair_rows = data.draw(pair_columns())
    extra = [("x", 1)]
    for candidate, expected_rows in (
        (rows, rows), (rows + extra, rows + extra), (rows[:-1], rows[:-1]),
        (tuple(rows), None), (other, other_rows), (other_rows, other_rows),
        (pairs, pair_rows),
    ):
        expected = rows == expected_rows
        assert (column == candidate) is expected
        assert (candidate == column) is expected
        assert (column != candidate) is (not expected)
        assert (candidate != column) is (not expected)
    assert column + extra == rows + extra
    assert extra + column == extra + rows
    assert column + other == rows + other_rows
    assert pairs + column == pair_rows + rows
    assert column + pairs == rows + pair_rows
    with pytest.raises(TypeError):
        column + tuple(extra)
    with pytest.raises(TypeError):
        tuple(extra) + column
    with pytest.raises(TypeError):
        hash(column)


class TestFusionAndChains:
    def test_composed_all_spec_compiles(self):
        rng = random.Random(5)
        fn = compose(
            [
                FilterFunction(
                    lambda v: rng.random() < 0.5,
                    kernel_spec=KernelSpec.bernoulli(0.5, rng),
                ),
                MapFunction(
                    lambda v: v.split("\t")[0], kernel_spec=KernelSpec.column(0, "\t")
                ),
                IdentityFunction(),
            ]
        )
        kernel = lower_stage(fn)
        assert kernel is not None
        values = [f"a{i}\tb" for i in range(200)]
        ref_rng = random.Random(5)
        expected = [
            v.split("\t")[0] for v in values if ref_rng.random() < 0.5
        ]
        out = kernel(values)
        kernel.flush()
        assert out == expected

    def test_unspecced_function_does_not_compile(self):
        assert lower_stage(MapFunction(str.upper)) is None

    def test_identity_only_chain_is_identity(self):
        fn = compose([IdentityFunction(), IdentityFunction()])
        kernel = lower_stage(fn)
        assert isinstance(kernel, IdentityKernel)

    def test_fused_comprehension_cache_reused(self):
        spec_a = [KernelSpec.item(0), KernelSpec.item(1)]
        spec_b = [KernelSpec.item(0), KernelSpec.item(1)]
        ka = kernels._build_chain(spec_a)
        kb = kernels._build_chain(spec_b)
        assert isinstance(ka, FusedKernel) and isinstance(kb, FusedKernel)
        assert ka._fn is kb._fn  # compiled once, parameterized per instance

    def test_filter_after_map_breaks_fusion_segment(self):
        """Only maps fuse: a map→filter chain runs as sequential kernels,
        the filter testing the mapped values."""
        fn = compose(
            [
                MapFunction(lambda v: v[0], kernel_spec=KernelSpec.item(0)),
                FilterFunction(
                    lambda v: "x" in v, kernel_spec=KernelSpec.contains("xx")
                ),
            ]
        )
        kernel = lower_stage(fn)
        assert [type(op) for op in kernel.ops] == [FusedKernel, GrepKernel]
        values = [("xxab",), ("cd",)] * 40
        assert kernel(values) == [v[0] for v in values if "xx" in v[0]]

    def test_chain_flush_cascades(self):
        rng = random.Random(9)
        specs = [KernelSpec.bernoulli(0.5, rng), KernelSpec.contains("ab")]
        kernel = kernels._build_chain(specs)
        assert isinstance(kernel, ChainKernel)
        kernel(["ab", "cd"] * 40)
        kernel.flush()
        # after flush, the sample op has returned its adopted state
        sample_op = kernel.ops[0]
        assert sample_op._state is None


# ---------------------------------------------------------------------------
# Workload slabs


class TestWorkloadSlab:
    def test_build_and_offsets(self):
        records = ["alpha", "b", "", "gamma"]
        slab = slab_of(records)
        assert isinstance(slab, WorkloadSlab)
        assert slab.text == "alpha\nb\n\ngamma"
        assert slab.starts.tolist() == [0, 6, 8, 9]
        for i, rec in enumerate(records):
            start = int(slab.starts[i])
            assert slab.text[start : start + len(rec)] == rec


class TestGrepSlabPath:
    def test_call_slab_serves_original_objects(self):
        records = [f"row {i} test" if i % 3 == 0 else f"row {i}" for i in range(100)]
        slab = slab_of(records)
        kernel = GrepKernel("test")
        out = kernel.call_slab(slab, 0, records[:50]) + kernel.call_slab(
            slab, 50, records[50:]
        )
        kernel.flush()
        expected = ref_grep("test", records)
        assert out == expected
        # Hits are rows of the slab's one decoded list, not copies.
        assert all(any(o is r for r in slab.records) for o in out)

    def test_window_scan_keeps_no_state(self):
        """Only the window's rows are scanned and reported, and nothing
        of the slab stays on the kernel."""
        records = ["a test", "b"] * 40
        slab = slab_of(records)
        kernel = GrepKernel("test")
        hits = kernel.call_slab(slab, 10, records[10:50])
        assert hits.rows[hits.start : hits.stop].tolist() == list(range(10, 50, 2))
        assert hits == records[10:50:2]
        assert not any(isinstance(v, WorkloadSlab) for v in vars(kernel).values())

    def test_no_hits(self):
        records = [f"row {i}" for i in range(80)]
        slab = slab_of(records)
        kernel = GrepKernel("zzz")
        assert kernel.call_slab(slab, 0, records) == []
        kernel.flush()

    def test_multiple_hits_one_record_emitted_once(self):
        records = ["XY XY XY", "plain"] * 40
        slab = slab_of(records)
        kernel = GrepKernel("XY")
        out = kernel.call_slab(slab, 0, records)
        kernel.flush()
        assert out == ref_grep("XY", records)


# ---------------------------------------------------------------------------
# Stateful kernels (keyed tier)


def make_wordcount():
    from repro.benchmark.queries import get_query

    return get_query("wordcount").make_function(random.Random(0))


def make_distinct():
    from repro.benchmark.queries import get_query

    return get_query("distinct-count").make_function(random.Random(0))


def make_statistics():
    from repro.benchmark.queries import get_query

    return get_query("statistics").make_function(random.Random(0))


def ref_process(function, values):
    out = []
    for value in values:
        out.extend(function.process(value))
    return out


AOL_LIKE = [
    f"user{i % 7}\tsome query words {i % 5} here\t{i}" for i in range(200)
] + ["no-separator-line", "user9\t\t3"]


def slab_then_list(kernel, values, cut):
    """``values`` through ``kernel``: rows before ``cut`` as a slab window
    (the slab path), the rest as a list (the owner's ``process_batch``)."""
    column = slab_column(values)
    return list(run_kernel(kernel, column[:cut])) + run_kernel(
        kernel, list(column[cut:])
    )


class TestWordCountKernel:
    def test_matches_reference_across_chunks(self):
        fn = make_wordcount()
        kernel = lower_stage(fn)
        assert isinstance(kernel, kernels.WordCountKernel)
        out = slab_then_list(kernel, AOL_LIKE, 101)
        ref = make_wordcount()
        assert out == ref_process(ref, AOL_LIKE)
        assert fn.counts == ref.counts

    def test_slab_path_matches(self):
        records = [f"u{i}\tquery {i % 3} words" for i in range(120)]
        slab = slab_of(records)
        fn = make_wordcount()
        kernel = kernels.WordCountKernel(fn)
        out = kernel.call_slab(slab, 0, records[:60]) + kernel.call_slab(
            slab, 60, records[60:]
        )
        ref = make_wordcount()
        assert out == ref_process(ref, records)
        assert fn.counts == ref.counts

    def test_slab_count_mismatch_falls_back(self):
        """A separator-free line is its own query column: the field
        locator must span the whole line, as the reference does."""
        records = ["a\tone two", "no-separator here", "b\tthree"] * 30
        slab = slab_of(records)
        fn = make_wordcount()
        kernel = kernels.WordCountKernel(fn)
        out = kernel.call_slab(slab, 0, records)
        ref = make_wordcount()
        assert out == ref_process(ref, records)
        assert fn.counts == ref.counts


class TestDistinctCountKernel:
    def test_matches_reference_across_chunks(self):
        fn = make_distinct()
        kernel = lower_stage(fn)
        assert isinstance(kernel, kernels.DistinctCountKernel)
        out = slab_then_list(kernel, AOL_LIKE, 77)
        ref = make_distinct()
        assert out == ref_process(ref, AOL_LIKE)
        assert fn.seen == ref.seen

    def test_slab_window_emits_a_one_field_column_of_ints(self):
        """A slab window's running counts are a one-field field column of
        Python ints, counted from a restored ``seen`` that holds one of
        the window's queries and a foreign one; the new queries enter
        ``seen`` at the flush, in the reference's insertion order."""
        state = {"some query words 3 here", "foreign"}
        fn, ref = make_distinct(), make_distinct()
        fn.restore(state)
        ref.restore(state)
        kernel = lower_stage(fn)
        out = run_kernel(kernel, slab_column(AOL_LIKE)[1:202])
        assert type(out) is kernels.FieldColumn and len(out.fields) == 1
        assert {type(count) for count in out} == {type(out[0])} == {int}
        assert repr(list(out)) == repr(ref_process(ref, AOL_LIKE[1:202]))
        kernel.flush()
        assert list(fn.seen) == list(ref.seen)


class TestStatisticsKernel:
    def test_bulk_matches_reference(self):
        fn = make_statistics()
        kernel = lower_stage(fn)
        column = slab_column(AOL_LIKE)
        first, second = run_kernel(kernel, column[:150]), run_kernel(kernel, column[150:])
        assert type(first) is type(second) is kernels.FieldColumn
        ref = make_statistics()
        assert list(first) + list(second) == ref_process(ref, AOL_LIKE)
        assert fn.snapshot() == ref.snapshot()

    def test_small_chunk_takes_hoisted_loop(self):
        """A window below _MIN_BULK rows folds Python floats into a list,
        exactly as the reference does."""
        values = AOL_LIKE[: kernels._MIN_BULK - 1]
        fn = make_statistics()
        out = run_kernel(kernels.StatisticsKernel(fn), slab_column(values))
        assert type(out) is list
        ref = make_statistics()
        assert repr(out) == repr(ref_process(ref, values))
        assert repr(fn.snapshot()) == repr(ref.snapshot())


# ---------------------------------------------------------------------------
# Nexmark wire kernels (fused decode -> query)


def nexmark_lines(count=400, seed=13):
    from repro.workloads.nexmark import NexmarkGenerator

    return NexmarkGenerator(count, seed=seed).encoded()


def ref_nexmark(make_query, lines):
    """Reference decode-then-process, stopping where an exception raises."""
    from repro.workloads.nexmark import decode_event

    fn = make_query()
    out = []
    for line in lines:
        out.extend(fn.process(decode_event(line)))
    return out, fn


class TestNexmarkQ3WireKernel:
    def test_matches_reference(self):
        from repro.workloads.nexmark_queries import q3_local_item_suggestion

        lines = nexmark_lines()
        fn = q3_local_item_suggestion()
        kernel = kernels.NexmarkQ3WireKernel(fn)
        out = kernel(lines[:123]) + kernel(lines[123:])
        ref_out, ref_fn = ref_nexmark(q3_local_item_suggestion, lines)
        assert out == ref_out
        assert fn.snapshot() == ref_fn.snapshot()

    def test_bid_lines_skipped_unparsed(self):
        """Q3 consumes no bid fields, so even a malformed bid body is
        skipped (consumed-field conformance is the spec's promise)."""
        from repro.workloads.nexmark_queries import q3_local_item_suggestion

        fn = q3_local_item_suggestion()
        kernel = kernels.NexmarkQ3WireKernel(fn)
        assert kernel(["B\tnot\teven\tclose"]) == []

    def test_unknown_tag_delegates_to_reference(self):
        from repro.workloads.nexmark_queries import q3_local_item_suggestion

        fn = q3_local_item_suggestion()
        kernel = kernels.NexmarkQ3WireKernel(fn)
        with pytest.raises(ValueError, match="unknown event tag"):
            kernel(["Z\t1\t2"])
        with pytest.raises(ValueError, match="unknown event tag"):
            kernel([""])
        with pytest.raises(TypeError):
            kernel([b"P\t1"])  # non-str: the reference path raises


class TestNexmarkQ4WireKernel:
    def test_matches_reference(self):
        from repro.workloads.nexmark_queries import q4_category_average

        lines = nexmark_lines()
        fn = q4_category_average()
        kernel = kernels.NexmarkQ4WireKernel(fn)
        out = kernel(lines[:97]) + kernel(lines[97:])
        ref_out, ref_fn = ref_nexmark(q4_category_average, lines)
        assert out == ref_out
        assert fn.snapshot() == ref_fn.snapshot()

    def test_person_lines_skipped_unparsed(self):
        from repro.workloads.nexmark_queries import q4_category_average

        fn = q4_category_average()
        kernel = kernels.NexmarkQ4WireKernel(fn)
        assert kernel(["P\tgarbage"]) == []

    def test_unknown_tag_delegates_to_reference(self):
        from repro.workloads.nexmark_queries import q4_category_average

        fn = q4_category_average()
        kernel = kernels.NexmarkQ4WireKernel(fn)
        with pytest.raises(ValueError, match="unknown event tag"):
            kernel(["Q\t9"])


class TestNexmarkQ5WireKernel:
    def make(self, window_seconds=10.0):
        from repro.workloads.nexmark_queries import q5_hot_items

        return q5_hot_items(window_seconds=window_seconds)

    def bid(self, auction, ts, bidder=1, price=100):
        return f"B\t{auction}\t{bidder}\t{price}\t{ts!r}"

    def test_matches_reference_including_pane_order(self):
        lines = nexmark_lines(600)
        fn = self.make()
        kernel = kernels.NexmarkQ5WireKernel(fn)
        out = kernel(lines[:211]) + kernel(lines[211:])
        ref_out, ref_fn = ref_nexmark(self.make, lines)
        assert out == ref_out == []
        assert fn.snapshot() == ref_fn.snapshot()
        # finish() order is the pane dict's insertion order — pin it.
        assert list(fn.panes) == list(ref_fn.panes)
        assert list(fn.finish()) == list(ref_fn.finish())

    def test_out_of_order_timestamps_keep_insertion_order(self):
        """Window revisits merge in place; new panes append in first-bid
        order — exactly the reference's first-occurrence order."""
        lines = [
            self.bid(1, 1.0),
            self.bid(2, 11.0),
            self.bid(1, 2.0),   # back to the first window
            self.bid(2, 12.0),
            self.bid(3, 3.0),
            self.bid(1, 1.5),
        ]
        fn = self.make()
        kernel = kernels.NexmarkQ5WireKernel(fn)
        assert kernel(lines) == []
        _, ref_fn = ref_nexmark(self.make, lines)
        assert list(fn.panes.items()) == list(ref_fn.panes.items())

    def test_mid_chunk_error_leaves_reference_state(self):
        """A malformed bid raises the reference's exception with the pane
        dict in the exact state the reference has at that record (the
        locality buffer merges in the finally)."""
        good = [self.bid(1, 1.0), self.bid(2, 2.0), self.bid(1, 11.0)]
        bad = "B\t3\t1\t100\tnot-a-float"
        tail = [self.bid(4, 12.0)]
        fn = self.make()
        kernel = kernels.NexmarkQ5WireKernel(fn)
        with pytest.raises(ValueError) as kernel_err:
            kernel(good + [bad] + tail)
        ref_fn = self.make()
        from repro.workloads.nexmark import decode_event

        with pytest.raises(ValueError) as ref_err:
            for line in good + [bad] + tail:
                ref_fn.process(decode_event(line))
        assert str(kernel_err.value) == str(ref_err.value)
        assert list(fn.panes.items()) == list(ref_fn.panes.items())

    def test_bare_tag_lines_delegate_like_reference(self):
        """'P' with no tab is not a skippable person line: decode_event
        raises IndexError on it, and so must the kernel."""
        for line in ("P", "A"):
            fn = self.make()
            kernel = kernels.NexmarkQ5WireKernel(fn)
            with pytest.raises(IndexError):
                kernel([line])

    def test_unknown_tag_merges_buffer_before_delegating(self):
        """The reference path reads the pane dict, so buffered counts must
        be merged before the unknown line is processed."""
        lines = [self.bid(1, 1.0), self.bid(1, 2.0), "Z\toops"]
        fn = self.make()
        kernel = kernels.NexmarkQ5WireKernel(fn)
        with pytest.raises(ValueError, match="unknown event tag"):
            kernel(lines)
        assert fn.panes == {(1, 0.0, 10.0): 2}

    def test_inf_timestamp_raises_like_reference(self):
        fn = self.make()
        kernel = kernels.NexmarkQ5WireKernel(fn)
        with pytest.raises(ValueError, match="window end must exceed"):
            kernel([self.bid(1, float("inf"))])


# ---------------------------------------------------------------------------
# Windowed aggregation kernel


class TestWindowedAggregateKernel:
    def make(self, **kwargs):
        from repro.beam.window import FixedWindows
        from repro.dataflow.windowing import WindowedAggregateFunction

        defaults = dict(
            window_fn=FixedWindows(10.0),
            key_fn=lambda v: v[0],
            timestamp_fn=lambda v: v[1],
        )
        defaults.update(kwargs)
        return WindowedAggregateFunction(**defaults)

    def test_fixed_windows_match_reference(self):
        values = [(f"k{i % 3}", float(i % 37)) for i in range(150)]
        fn = self.make()
        kernel = lower_stage(fn)
        assert isinstance(kernel, kernels.WindowedAggregateKernel)
        assert kernel(values[:70]) + kernel(values[70:]) == []
        ref = self.make()
        ref_process(ref, values)
        assert list(fn.panes.items()) == list(ref.panes.items())
        assert list(fn.finish()) == list(ref.finish())

    def test_sliding_windows_call_assign_per_element(self):
        from repro.beam.window import SlidingWindows

        values = [(f"k{i % 2}", float(i)) for i in range(60)]
        fn = self.make(window_fn=SlidingWindows(10.0, 5.0))
        kernel = lower_stage(fn)
        assert isinstance(kernel, kernels.WindowedAggregateKernel)
        kernel(values)
        ref = self.make(window_fn=SlidingWindows(10.0, 5.0))
        ref_process(ref, values)
        assert list(fn.panes.items()) == list(ref.panes.items())

    def test_reducer_and_filter_match_reference(self):
        values = [("k", float(i), i) for i in range(50)]
        make = lambda: self.make(
            key_fn=lambda v: v[0],
            timestamp_fn=lambda v: v[1],
            reducer=lambda acc, v: acc + v[2],
            filter_fn=lambda v: v[2] % 3 != 0,
        )
        fn = make()
        lower_stage(fn)(values)
        ref = make()
        ref_process(ref, values)
        assert list(fn.panes.items()) == list(ref.panes.items())

    def test_inf_timestamp_validates_identically(self):
        fn = self.make()
        kernel = kernels.WindowedAggregateKernel(fn)
        with pytest.raises(ValueError, match="window end must exceed"):
            kernel([("k", float("inf"))])

    def test_after_count_trigger_declares_no_spec(self):
        """AfterCount fires mid-stream; the kernel tier must refuse it and
        leave the function on ``process_batch``."""
        from repro.beam.window import AfterCount

        fn = self.make(trigger=AfterCount(5))
        assert getattr(fn, "kernel_spec", None) is None
        assert lower_stage(fn) is None


# ---------------------------------------------------------------------------
# Mid-chunk errors


def _guard_sum(acc, value):
    if value > 900.0:
        raise RuntimeError(f"poisoned value {value}")
    return acc + value


def make_windowed_sum():
    from repro.beam.window import FixedWindows
    from repro.dataflow.windowing import WindowedAggregateFunction

    return WindowedAggregateFunction(
        window_fn=FixedWindows(10.0),
        key_fn=lambda v: int(v) % 5,
        timestamp_fn=float,
        reducer=_guard_sum,
        initial=0.0,
        name="WindowedSum",
    )


_rng = random.Random(13)
TIMESTAMPS = [_rng.uniform(0.0, 200.0) for _ in range(400)]


def _owner_state(fn):
    """Every scalar and dict of the owner, dicts with insertion order."""
    return {
        name: list(value.items()) if isinstance(value, dict) else value
        for name, value in vars(fn).items()
        if isinstance(value, (dict, int, float))
    }


@pytest.mark.parametrize(
    "make, values",
    (
        (make_statistics, AOL_LIKE[:150] + [None] + AOL_LIKE[150:]),
        (make_wordcount, ["u1\tfoo bar", "u2\tbaz foo", None, "u3\tqux"]),
        (make_windowed_sum, TIMESTAMPS[:350] + ["not-a-time"] + TIMESTAMPS[350:]),
        (make_windowed_sum, TIMESTAMPS[:310] + [950.0] + TIMESTAMPS[310:]),
    ),
    ids=(
        "statistics-malformed",
        "wordcount-malformed",
        "windowed-malformed",
        "windowed-raising-reducer",
    ),
)
def test_mid_chunk_error_leaves_reference_state(make, values):
    """The kernel raises the reference loop's exception and leaves the
    owner exactly as the reference loop leaves it at that record."""
    fn = make()
    fn.open()
    with pytest.raises(Exception) as kernel_err:
        lower_stage(fn)(values)
    ref = make()
    ref.open()
    with pytest.raises(Exception) as ref_err:
        ref_process(ref, values)
    assert type(kernel_err.value) is type(ref_err.value)
    assert str(kernel_err.value) == str(ref_err.value)
    assert _owner_state(fn) == _owner_state(ref)
    assert _owner_state(fn) != _owner_state(make())  # the prefix was folded


# ---------------------------------------------------------------------------
# Fuse-cache bound


class TestFuseCacheEviction:
    def test_cache_stays_bounded_and_evicted_shapes_recompile(self, monkeypatch):
        monkeypatch.setattr(kernels, "_FUSE_CACHE_MAX", 4)
        kernels._FUSE_CACHE.clear()
        built = []
        for index in range(7):
            kernel = kernels._fuse(["{v}[%d]" % index])
            built.append(kernel)
            assert kernel([("a", "b", "c", "d", "e", "f", "g")]) == [
                ("a", "b", "c", "d", "e", "f", "g")[index]
            ]
        assert len(kernels._FUSE_CACHE) <= 4
        # An evicted shape rebuilds transparently and still computes.
        again = kernels._fuse(["{v}[0]"])
        assert again([("x", "y")]) == ["x"]
