"""Branch types."""

from repro.traces.types import BranchType


def test_types_are_stable_ints():
    """Trace files depend on these values; they must never change."""
    assert [int(bt) for bt in BranchType] == [0, 1, 2, 3, 4, 5]
