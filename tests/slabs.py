"""Build columnar-plane slabs from record lists, for tests.

The program builds slabs only over generated or cached byte columns
(:func:`~repro.dataflow.kernels.slab_from_columns`); tests that want a
slab over hand-written records join and encode them here.
"""

from __future__ import annotations

import numpy as np

from repro.dataflow.kernels import SlabColumn, WorkloadSlab, slab_from_columns


def slab_of(records: list[str]) -> WorkloadSlab:
    """``records`` (ASCII strings without newlines) as one slab."""
    starts = np.zeros(len(records), np.int64)
    starts[1:] = np.cumsum([len(record) + 1 for record in records[:-1]])
    return slab_from_columns("\n".join(records).encode("ascii"), starts)


def slab_column(records: list[str]) -> SlabColumn:
    """``records`` as a window over all rows of their own slab."""
    return SlabColumn(slab_of(records))
