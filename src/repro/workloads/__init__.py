"""Benchmark workloads: the AOL search log and the NEXMark auction stream."""

from repro.workloads import nexmark, nexmark_queries
from repro.workloads.aol import (
    AolRecord,
    AolWorkload,
    FULL_SCALE_RECORDS,
    GENERATOR_VERSION,
    GREP_NEEDLE,
    expected_grep_matches,
    generate_records,
    iter_record_chunks,
    parse_record,
)
from repro.workloads.cache import WorkloadCache

__all__ = [
    "nexmark",
    "nexmark_queries",
    "AolRecord",
    "AolWorkload",
    "FULL_SCALE_RECORDS",
    "GENERATOR_VERSION",
    "GREP_NEEDLE",
    "WorkloadCache",
    "expected_grep_matches",
    "generate_records",
    "iter_record_chunks",
    "parse_record",
]
