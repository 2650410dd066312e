"""Branch types.

Branch types follow the taxonomy the paper uses in §IV: conditional
branches are what the predictor predicts; unconditional branches (jumps,
calls, returns and their indirect forms) are what forms *program context*.
"""

from __future__ import annotations

from enum import IntEnum


class BranchType(IntEnum):
    """Branch categories; integer-valued so traces pack into numpy arrays."""

    COND = 0        # conditional direct branch
    JUMP = 1        # unconditional direct jump
    CALL = 2        # direct call
    RET = 3         # return
    IND_JUMP = 4    # indirect jump
    IND_CALL = 5    # indirect call
