"""Named predictor configurations used throughout the paper.

* ``tsl_64k``      — the 64KiB-class TAGE-SC-L baseline ("64K TSL").
* ``tsl_scaled``   — the same design with TAGE table entries scaled by a
  power-of-two factor (128K…1M TSL; the paper's 512K TSL is factor 8).
* ``tage_infinite``— unbounded TAGE tables, baseline-sized SC and loop
  ("Inf TAGE").
* ``tsl_infinite`` — unbounded TAGE tables plus enlarged SC/loop
  ("Inf TSL").

The 21 baseline history lengths are a geometric ladder from 4 to 3000
that contains, as a subset, the 16 lengths LLBP uses (§VI); matching
lengths is what lets LLBP arbitrate against TAGE by comparing history
lengths directly.
"""

from __future__ import annotations

from repro.predictors.infinite import InfiniteTage
from repro.predictors.tage import TageConfig
from repro.predictors.tage_sc_l import TageScL, TslConfig

#: Baseline TAGE history lengths (21 tables, §VI: "64K TSL uses 21
#: different history lengths").
TAGE_HISTORY_LENGTHS = (
    4, 6, 8, 12, 16, 21, 26, 38, 54, 78, 112, 161,
    232, 336, 482, 695, 1000, 1444, 2048, 2560, 3000,
)

#: The 12 distinct lengths LLBP draws its 16 slots from (§VI; the four
#: starred duplicates reuse a length with a modified hash).
LLBP_HISTORY_LENGTHS = (
    12, 26, 54, 78, 112, 161, 232, 336, 482, 695, 1444, 3000,
)

# Every LLBP length must exist in the baseline ladder for length-rank
# arbitration to be meaningful.
assert set(LLBP_HISTORY_LENGTHS) <= set(TAGE_HISTORY_LENGTHS)


def _log2_exact(value: int) -> int:
    if value < 1 or value & (value - 1):
        raise ValueError("scale factor must be a positive power of two")
    return value.bit_length() - 1


#: All predictor capacities are scaled down by this factor relative to the
#: paper's hardware sizes, matching the ~4x scale-down of the synthetic
#: workloads' branch working sets versus the paper's server traces
#: (DESIGN.md §1).  Named sizes ("64K TSL", "512K TSL") keep the paper's
#: names; they denote the same *relative* capacity points.
CAPACITY_SCALE = 4


def tage_config_64k() -> TageConfig:
    """TAGE geometry of the 64K-class baseline.

    The paper's 64K TSL uses 1K entries per table; divided by
    :data:`CAPACITY_SCALE` that is 256 entries (index_bits=8).
    """
    return TageConfig(
        history_lengths=TAGE_HISTORY_LENGTHS,
        index_bits=8,
        tag_bits=12,
        bimodal_index_bits=11,
    )


def tsl_64k() -> TageScL:
    """The paper's baseline: 64KiB-class TAGE-SC-L."""
    config = TslConfig(tage=tage_config_64k(), sc_index_bits=8, name="64K TSL")
    return TageScL(config)


def tsl_scaled(factor: int) -> TageScL:
    """TSL with TAGE table entries scaled by ``factor`` (a power of two).

    Matches the paper's scaling methodology (§VI): only the TAGE pattern
    tables grow; SC and the loop predictor stay at baseline size.
    """
    extra_bits = _log2_exact(factor)
    base = tage_config_64k()
    config = TslConfig(
        tage=TageConfig(
            history_lengths=base.history_lengths,
            index_bits=base.index_bits + extra_bits,
            tag_bits=base.tag_bits,
            bimodal_index_bits=base.bimodal_index_bits + extra_bits,
        ),
        sc_index_bits=8,
        name=f"{64 * factor}K TSL",
    )
    return TageScL(config)


def tage_infinite() -> TageScL:
    """Inf TAGE: unbounded TAGE tables, baseline-size SC and loop."""
    config = TslConfig(tage=tage_config_64k(), sc_index_bits=8, name="Inf TAGE")
    return TageScL(config, tage=InfiniteTage(config.tage))


def tsl_infinite() -> TageScL:
    """Inf TSL: unbounded TAGE tables plus enlarged auxiliary components."""
    config = TslConfig(
        tage=tage_config_64k(),
        sc_index_bits=14,
        loop_index_bits=8,
        name="Inf TSL",
    )
    return TageScL(config, tage=InfiniteTage(config.tage))
