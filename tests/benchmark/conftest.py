"""The list-fed reference world for the data-plane identity checks."""

import contextlib

import pytest

from repro.workloads import aol
from repro.workloads.columnar import ColumnarWorkload


@contextlib.contextmanager
def _list_fed():
    """Feed the harness and the capacity probes the materialised record list.

    ``ColumnarWorkload.column`` hands out :func:`aol.generate_records`
    instead of the slab column, so the sender, the broker log and the pump
    take their list paths: the reference the column-fed world must equal
    per field.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            ColumnarWorkload,
            "column",
            lambda self: aol.generate_records(self.num_records, self.seed),
        )
        yield


@pytest.fixture(scope="session")
def list_world():
    """``with list_world(): ...`` runs its body in the list-fed world."""
    return _list_fed
