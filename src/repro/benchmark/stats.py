"""Benchmark statistics: means, relative standard deviation, slowdowns.

Implements the paper's formulas (Section III-C-3):

.. math::

    \\bar t(dsps, query, k, p) = \\frac{1}{N_{run}} \\sum_r t(dsps, query, k, p, r)

    sf(dsps, query) = \\frac{1}{N_p} \\sum_p
        \\frac{\\bar t(dsps, query, Beam, p)}{\\bar t(dsps, query, native, p)}

and the relative standard deviation of Figure 10, computed per
system-query-SDK combination with the two parallelism series pooled
("deviations for the two parallelism factors are averaged and condensed").
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on empty input."""
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def std(values: Sequence[float]) -> float:
    """Population standard deviation; raises on empty input."""
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))


def relative_std(values: Sequence[float]) -> float:
    """Coefficient of variation: std / mean."""
    mu = mean(values)
    if mu == 0:
        raise ValueError("relative std undefined for zero mean")
    return std(values) / mu


def pooled_relative_std(series: Iterable[Sequence[float]]) -> float:
    """Figure 10's condensation: average the per-parallelism CoVs."""
    covs = [relative_std(s) for s in series if s]
    if not covs:
        raise ValueError("no series to pool")
    return mean(covs)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (inclusive); raises on empty input.

    The nearest-rank method returns an actual observed value and involves
    no interpolation arithmetic, so results are bit-identical wherever the
    same sample multiset is supplied — the property the capacity report's
    serial-vs-parallel equality check relies on.
    """
    return percentiles(values, (q,))[0]


def percentiles(values: Sequence[float], qs: Sequence[float]) -> list[float]:
    """:func:`percentile` at each of ``qs``, sorting ``values`` once."""
    ranks = _nearest_ranks(len(values), qs)
    ordered = sorted(values)
    return [ordered[rank] for rank in ranks]


def array_percentiles(values: np.ndarray, qs: Sequence[float]) -> list[float]:
    """:func:`percentiles` of a float array, as Python floats: the same
    order statistics, placed by one ``np.partition`` instead of a sort."""
    ranks = np.array(_nearest_ranks(len(values), qs), np.intp)
    return np.partition(values, ranks)[ranks].tolist()


def _nearest_ranks(count: int, qs: Sequence[float]) -> list[int]:
    """The 0-based nearest-rank index of each of ``qs`` among ``count``
    ordered values."""
    if not count:
        raise ValueError("percentile of empty sequence")
    for q in qs:
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
    return [max(1, math.ceil(q / 100.0 * count)) - 1 for q in qs]


def slowdown_factor(
    beam_means: Mapping[int, float], native_means: Mapping[int, float]
) -> float:
    """The paper's sf(dsps, query): per-parallelism ratios, averaged.

    ``beam_means`` and ``native_means`` map parallelism → mean execution
    time and must cover the same parallelisms.
    """
    if set(beam_means) != set(native_means):
        raise ValueError(
            f"parallelism mismatch: {sorted(beam_means)} vs {sorted(native_means)}"
        )
    if not beam_means:
        raise ValueError("no parallelisms given")
    ratios = []
    for parallelism, beam_mean in beam_means.items():
        native = native_means[parallelism]
        if native <= 0:
            raise ValueError(f"non-positive native mean at parallelism {parallelism}")
        ratios.append(beam_mean / native)
    return mean(ratios)
