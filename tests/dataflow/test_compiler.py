"""Unit tests for the plan compiler (``repro.dataflow.compiler``).

:func:`lower_stage` is the pump's single lowering entry point; these
tests pin its segmentation rules — kernel runs, batch runs for spec-less
parts, peephole wire fusion — and that every lowered shape computes
exactly what ``ComposedFunction.process_batch`` computes.
"""

from __future__ import annotations

import random

import pytest

import repro.dataflow.kernels as kernels
from repro.dataflow.compiler import BatchSegment, SegmentKernel, lower_stage
from repro.dataflow.functions import (
    FilterFunction,
    IdentityFunction,
    MapFunction,
    compose,
)
from repro.dataflow.kernels import ChainKernel, GrepKernel, KernelSpec


def grep_fn(needle="xx"):
    return FilterFunction(
        lambda v: needle in v, name="Grep", kernel_spec=KernelSpec.contains(needle)
    )


def upper_fn():
    return MapFunction(str.upper, name="Upper")  # deliberately spec-less


class TestLowerStage:
    def test_none_function_lowers_to_none(self):
        assert lower_stage(None) is None

    def test_specless_function_lowers_to_none(self):
        assert lower_stage(upper_fn()) is None

    def test_single_spec_lowers_to_kernel(self):
        assert isinstance(lower_stage(grep_fn()), GrepKernel)

    def test_all_specless_composition_lowers_to_none(self):
        """Nothing to gain over the composed batch path."""
        assert lower_stage(compose([upper_fn(), upper_fn()])) is None

    def test_all_specced_composition_lowers_to_chain(self):
        rng = random.Random(1)
        fn = compose(
            [
                FilterFunction(
                    lambda v: rng.random() < 0.5,
                    kernel_spec=KernelSpec.bernoulli(0.5, rng),
                ),
                grep_fn(),
            ]
        )
        kernel = lower_stage(fn)
        assert isinstance(kernel, ChainKernel)


class TestMixedSegmentation:
    def test_mixed_chain_segments_and_matches_batch(self):
        """specced | opaque | specced -> kernel, batch, kernel segments,
        computing exactly what the composed batch path computes."""
        fn = compose([grep_fn("a"), upper_fn(), grep_fn("A")])
        kernel = lower_stage(fn)
        assert isinstance(kernel, SegmentKernel)
        assert len(kernel.segments) == 3
        assert isinstance(kernel.segments[1], BatchSegment)
        values = ["alpha", "beta", "nope", "gamma"] * 30
        assert kernel(values) == fn.process_batch(values)

    def test_adjacent_opaque_parts_share_one_batch_segment(self):
        fn = compose([upper_fn(), upper_fn(), grep_fn("A")])
        kernel = lower_stage(fn)
        assert isinstance(kernel, SegmentKernel)
        assert len(kernel.segments) == 2
        assert isinstance(kernel.segments[0], BatchSegment)
        assert len(kernel.segments[0].parts) == 2

    def test_single_segment_unwrapped(self):
        """A lone trailing batch run after fused specs still segments, but
        one segment total returns unwrapped."""
        fn = compose([grep_fn("a"), IdentityFunction()])
        kernel = lower_stage(fn)
        assert isinstance(kernel, GrepKernel)

    def test_empty_chunk_short_circuits(self):
        calls = []

        class Spy(MapFunction):
            def process_batch(self, values):
                calls.append(len(values))
                return super().process_batch(values)

        fn = compose([grep_fn("zzz"), Spy(str.upper)])
        kernel = lower_stage(fn)
        assert kernel(["nope", "nada"]) == []
        assert calls == []  # downstream segment never ran

    def test_describe_names_segments(self):
        fn = compose([grep_fn("a"), upper_fn()])
        description = lower_stage(fn).describe()
        assert "batch[" in description and "=>" in description

    def test_segment_kernel_flush_cascades(self):
        rng = random.Random(2)
        sample = FilterFunction(
            lambda v: rng.random() < 0.5,
            kernel_spec=KernelSpec.bernoulli(0.5, rng),
        )
        fn = compose([sample, upper_fn()])
        kernel = lower_stage(fn)
        assert isinstance(kernel, SegmentKernel)
        kernel(["a", "b"] * 40)
        kernel.flush()
        assert kernel.segments[0]._state is None

    def test_slab_support_follows_first_segment(self):
        fn_slab_first = compose([grep_fn(), upper_fn()])
        assert lower_stage(fn_slab_first).supports_slab is True
        fn_batch_first = compose([upper_fn(), grep_fn()])
        assert lower_stage(fn_batch_first).supports_slab is False


class TestWireFusionPeephole:
    def q(self, name):
        from repro.workloads import nexmark_queries as nq

        return {
            "q3": nq.q3_local_item_suggestion,
            "q4": nq.q4_category_average,
            "q5": lambda: nq.q5_hot_items(window_seconds=5.0),
        }[name]()

    def decode(self):
        from repro.workloads.nexmark_queries import nexmark_decode

        return nexmark_decode()

    @pytest.mark.parametrize(
        "name, wire",
        [
            ("q3", "NexmarkQ3WireKernel"),
            ("q4", "NexmarkQ4WireKernel"),
            ("q5", "NexmarkQ5WireKernel"),
        ],
    )
    def test_decode_query_pair_fuses(self, name, wire):
        kernel = lower_stage(compose([self.decode(), self.q(name)]))
        assert type(kernel) is getattr(kernels, wire)

    def test_fused_pair_matches_batch_path(self):
        from repro.workloads.nexmark import NexmarkGenerator

        lines = NexmarkGenerator(500, seed=21).encoded()
        fn = compose([self.decode(), self.q("q4")])
        kernel = lower_stage(fn)
        ref = compose([self.decode(), self.q("q4")])
        assert kernel(lines) == ref.process_batch(lines)

    def test_decode_alone_does_not_wire_fuse(self):
        kernel = lower_stage(compose([self.decode(), IdentityFunction()]))
        assert isinstance(kernel, kernels.NexmarkDecodeKernel)

    def test_decode_then_opaque_keeps_decode_kernel_segment(self):
        fn = compose([self.decode(), upper_fn()])
        kernel = lower_stage(fn)
        assert isinstance(kernel, SegmentKernel)
        assert isinstance(kernel.segments[0], kernels.NexmarkDecodeKernel)

    def test_wire_pair_inside_longer_chain(self):
        """Opaque head, fused pair tail: the peephole still fires."""
        head = MapFunction(lambda v: v, name="opaque-head")
        fn = compose([head, self.decode(), self.q("q3")])
        kernel = lower_stage(fn)
        assert isinstance(kernel, SegmentKernel)
        assert isinstance(kernel.segments[0], BatchSegment)
        assert type(kernel.segments[1]) is kernels.NexmarkQ3WireKernel
