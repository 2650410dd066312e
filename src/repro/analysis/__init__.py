"""Analysis studies: working set (Fig 3), context locality (Fig 5),
LLBP effectiveness breakdown (Fig 15), workload characterization."""

from repro.analysis.working_set import (
    top_branch_share,
    useful_patterns_study,
)
from repro.analysis.contexts import patterns_per_context_study, ContextStudyResult
from repro.analysis.breakdown import override_breakdown, OverrideBreakdown

__all__ = [
    "top_branch_share",
    "useful_patterns_study",
    "patterns_per_context_study",
    "ContextStudyResult",
    "override_breakdown",
    "OverrideBreakdown",
]
