"""The predictor registry: one public factory for every predictor key.

Predictor keys are strings so results can be cached on disk and shared
across figures.  This module is the single public home for that grammar:

* :func:`parse_key` — key string → :class:`PredictorSpec` (family plus a
  fully resolved config), without building tables;
* :func:`make_predictor` — key string → live predictor instance;
* :func:`key_of` — predictor instance → canonical key string (the inverse
  of :func:`make_predictor`, config-wise);
* :func:`known_keys` — every plain key the registry accepts.

Grammar
-------

Plain keys name the paper's standard configurations (``bimodal``,
``gshare``, ``perfect``, ``tsl64`` … ``tsl1m``, ``inf-tage``, ``inf-tsl``,
``llbp``).  ``llbp`` accepts a ``:``-separated parameter suffix of
comma-separated tokens for the sensitivity studies::

    llbp                       the evaluated design (timed prefetch)
    llbp:lat0                  LLBP-0Lat
    llbp:lat0,w=16,d=0         context window / prefetch distance override
    llbp:src=callret           RCR source (uncond | callret | all)
    llbp:cd_bits=10,ps=32      directory sets / patterns per set
    llbp:unbucketed,lru        ablation switches
    llbp:exclusive             the paper's exclusive provider training

``tsl:`` names a TAGE-SC-L geometry off the preset ladder, for the
design-space exploration harness (:mod:`repro.explore`)::

    tsl:x=4                    TAGE entries scaled 4x (== tsl256)
    tsl:t=11                   11 tagged tables subsampled from the ladder
    tsl:x=2,t=15,tag=10,sc=9   scale, table count, tag bits, SC index bits

``bimode:`` and ``percep:`` name the PR-10 comparison families (plain
``bimode`` / ``percep`` are the default geometries)::

    bimode:c=14,d=14,h=12      choice bits, direction-bank bits, history
    percep:t=4,r=11,h=24       tables, row bits, total history bits
    percep:w=6,theta=40        weight width, training threshold

The token grammar is *declarative*: each family lists flag tokens (a bare
word pinning one config field to one value) and parameter tokens
(``name=value`` with a parser per name).  Unknown plain keys raise
``KeyError``; malformed suffix tokens raise ``ValueError`` — the same
error contract the deprecated helpers always had, which the experiment
CLIs and cache filenames rely on.

A key has exactly one *canonical* spelling (:func:`canonical_key`):
flags before parameters, tokens in declaration order, defaults omitted,
and a parameterised spelling that lands on a preset collapses to the
preset's plain key (``tsl:x=4`` → ``tsl256``, ``llbp:`` → ``llbp``).
Cache filenames and the explore harness dedup through it.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Tuple, Union

from repro.llbp.config import ContextSource, LLBPConfig
from repro.llbp.predictor import LLBPTageScL
from repro.predictors.base import BranchPredictor
from repro.predictors.bimodal import Bimodal
from repro.predictors.bimode import BiMode, BiModeConfig
from repro.predictors.gshare import GShare
from repro.predictors.perceptron import (
    HashedPerceptron,
    PerceptronConfig,
    default_threshold,
)
from repro.predictors.perfect import PerfectPredictor
from repro.predictors.presets import (
    TAGE_HISTORY_LENGTHS,
    tage_config_64k,
    tage_infinite,
    tsl_64k,
    tsl_infinite,
    tsl_scaled,
)
from repro.predictors.tage import TageConfig
from repro.predictors.tage_sc_l import TageScL, TslConfig


@dataclasses.dataclass(frozen=True)
class PredictorSpec:
    """A parsed predictor key: the family plus its resolved config.

    ``config`` is ``None`` for families without tunable tokens; for
    ``llbp`` it is the fully resolved :class:`LLBPConfig` with every
    token applied, for ``tsl`` the resolved :class:`TslGeometry`, and
    for ``bimode``/``percep`` the :class:`BiModeConfig` /
    :class:`PerceptronConfig`.
    """

    family: str
    config: Union[LLBPConfig, "TslGeometry", BiModeConfig,
                  PerceptronConfig, None] = None


# ---------------------------------------------------------------------------
# Families without a token grammar: one factory per plain key.

_SIMPLE_FACTORIES: Dict[str, Callable[[], BranchPredictor]] = {
    "bimodal": Bimodal,
    "gshare": GShare,
    "perfect": PerfectPredictor,
    "tsl64": tsl_64k,
    "tsl128": lambda: tsl_scaled(2),
    "tsl256": lambda: tsl_scaled(4),
    "tsl512": lambda: tsl_scaled(8),
    "tsl1m": lambda: tsl_scaled(16),
    "inf-tage": tage_infinite,
    "inf-tsl": tsl_infinite,
}

#: TSL preset configs carry a display name; it doubles as the reverse map
#: for :func:`key_of` (each preset's name is unique by construction).
_TSL_NAME_TO_KEY = {
    "64K TSL": "tsl64",
    "128K TSL": "tsl128",
    "256K TSL": "tsl256",
    "512K TSL": "tsl512",
    "1024K TSL": "tsl1m",
    "Inf TAGE": "inf-tage",
    "Inf TSL": "inf-tsl",
}

# ---------------------------------------------------------------------------
# The ``tsl:`` token grammar: TAGE-SC-L geometry off the preset ladder.
# All parameters default to the 64K TSL baseline, so the empty suffix is
# the baseline itself and pure power-of-two scales collapse to the named
# presets (which keeps one canonical key — and one cache file — per
# geometry).


@dataclasses.dataclass(frozen=True)
class TslGeometry:
    """A ``tsl:`` key's resolved geometry (defaults == 64K TSL).

    ``scale`` multiplies the TAGE table entry counts (power of two, the
    paper's §VI scaling methodology); ``tables`` picks that many history
    lengths from the 21-length baseline ladder, subsampled end-to-end so
    any table count still spans 4…3000 (:func:`tsl_history_lengths`);
    ``tag_bits`` and ``sc_index_bits`` size the tagged entries and the
    statistical corrector.
    """

    scale: int = 1
    tables: int = len(TAGE_HISTORY_LENGTHS)
    tag_bits: int = 12
    sc_index_bits: int = 8

    def __post_init__(self) -> None:
        if self.scale < 1 or self.scale & (self.scale - 1):
            raise ValueError("tsl scale (x=) must be a positive power of two")
        if not 1 <= self.tables <= len(TAGE_HISTORY_LENGTHS):
            raise ValueError(
                f"tsl table count (t=) must be in "
                f"1..{len(TAGE_HISTORY_LENGTHS)}")
        if self.tag_bits < 2:
            raise ValueError("tsl tag bits (tag=) must be at least 2")
        if self.sc_index_bits < 1:
            raise ValueError("tsl SC index bits (sc=) must be positive")


#: token name -> (geometry field, value parser, value formatter)
_TSL_PARAMS: Tuple[Tuple[str, str, Callable, Callable], ...] = (
    ("x", "scale", int, str),
    ("t", "tables", int, str),
    ("tag", "tag_bits", int, str),
    ("sc", "sc_index_bits", int, str),
)

_TSL_PARAM_MAP = {token: (field, parse) for token, field, parse, _ in _TSL_PARAMS}

#: pure power-of-two scale deviations land on the preset ladder.
_TSL_SCALE_TO_KEY = {1: "tsl64", 2: "tsl128", 4: "tsl256", 8: "tsl512",
                     16: "tsl1m"}


def parse_tsl_spec(spec: str) -> TslGeometry:
    """Parse a ``tsl`` key suffix (the part after ``tsl:``).

    Same contract as :func:`parse_llbp_spec`: whitespace and empty
    tokens are ignored, unknown tokens raise ``ValueError``, and so do
    values :class:`TslGeometry` itself rejects.
    """
    changes: Dict[str, int] = {}
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise ValueError(f"unknown TSL token {token!r}")
        name, value = token.split("=", 1)
        try:
            field, parse = _TSL_PARAM_MAP[name]
        except KeyError:
            raise ValueError(f"unknown TSL parameter {name!r}") from None
        changes[field] = parse(value)
    return TslGeometry(**changes)


def tsl_key_suffix(geometry: TslGeometry) -> str:
    """Canonical token list for ``geometry`` (inverse of :func:`parse_tsl_spec`)."""
    default = TslGeometry()
    tokens = []
    for token, field, _, fmt in _TSL_PARAMS:
        current = getattr(geometry, field)
        if current != getattr(default, field):
            tokens.append(f"{token}={fmt(current)}")
    return ",".join(tokens)


def tsl_canonical_key(geometry: TslGeometry) -> str:
    """Canonical key for ``geometry``: a preset name where one matches."""
    suffix = tsl_key_suffix(geometry)
    if not suffix:
        return "tsl64"
    if suffix == f"x={geometry.scale}":
        preset = _TSL_SCALE_TO_KEY.get(geometry.scale)
        if preset is not None:
            return preset
    return f"tsl:{suffix}"


def tsl_history_lengths(tables: int) -> Tuple[int, ...]:
    """``tables`` lengths subsampled from the baseline 21-length ladder.

    Both endpoints (4 and 3000) are always kept for ``tables >= 2`` so a
    shallower TAGE still spans the full geometric range; the single-table
    degenerate case keeps the shortest history.  The result is strictly
    increasing, as :class:`~repro.predictors.tage.TageConfig` requires.
    """
    ladder = TAGE_HISTORY_LENGTHS
    if not 1 <= tables <= len(ladder):
        raise ValueError(f"table count must be in 1..{len(ladder)}")
    if tables == 1:
        return (ladder[0],)
    step = (len(ladder) - 1) / (tables - 1)
    return tuple(ladder[round(i * step)] for i in range(tables))


def _make_tsl(geometry: TslGeometry) -> TageScL:
    canonical = tsl_canonical_key(geometry)
    if canonical in _SIMPLE_FACTORIES:
        # A geometry that IS a preset must build the preset, so caches,
        # display names and key_of cannot tell the two spellings apart.
        return _SIMPLE_FACTORIES[canonical]()
    extra_bits = geometry.scale.bit_length() - 1
    base = tage_config_64k()
    config = TslConfig(
        tage=TageConfig(
            history_lengths=tsl_history_lengths(geometry.tables),
            index_bits=base.index_bits + extra_bits,
            tag_bits=geometry.tag_bits,
            bimodal_index_bits=base.bimodal_index_bits + extra_bits,
            seed=base.seed,
        ),
        sc_index_bits=geometry.sc_index_bits,
        name=canonical,
    )
    return TageScL(config)

# ---------------------------------------------------------------------------
# The ``bimode:`` and ``percep:`` token grammars.  Both follow the tsl
# pattern: every parameter defaults to the family's standard geometry,
# so the empty suffix collapses to the plain key.

#: token name -> (BiModeConfig field, value parser, value formatter)
_BIMODE_PARAMS: Tuple[Tuple[str, str, Callable, Callable], ...] = (
    ("c", "choice_bits", int, str),
    ("d", "direction_bits", int, str),
    ("h", "history_bits", int, str),
)

_BIMODE_PARAM_MAP = {token: (field, parse)
                     for token, field, parse, _ in _BIMODE_PARAMS}

#: token name -> (PerceptronConfig field, value parser, value formatter)
_PERCEP_PARAMS: Tuple[Tuple[str, str, Callable, Callable], ...] = (
    ("t", "tables", int, str),
    ("r", "row_bits", int, str),
    ("w", "weight_bits", int, str),
    ("h", "history_bits", int, str),
    ("theta", "threshold", int, str),
)

_PERCEP_PARAM_MAP = {token: (field, parse)
                     for token, field, parse, _ in _PERCEP_PARAMS}


def _parse_param_spec(spec: str, param_map: Dict, family: str) -> Dict:
    """Shared ``name=value`` token parser for the bimode/percep grammars."""
    changes: Dict[str, int] = {}
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise ValueError(f"unknown {family} token {token!r}")
        name, value = token.split("=", 1)
        try:
            field, parse = param_map[name]
        except KeyError:
            raise ValueError(f"unknown {family} parameter {name!r}") from None
        changes[field] = parse(value)
    return changes


def parse_bimode_spec(spec: str) -> BiModeConfig:
    """Parse a ``bimode`` key suffix (the part after ``bimode:``)."""
    return BiModeConfig(**_parse_param_spec(spec, _BIMODE_PARAM_MAP, "bimode"))


def bimode_key_suffix(config: BiModeConfig) -> str:
    """Canonical token list for ``config`` (defaults omitted)."""
    default = BiModeConfig()
    tokens = []
    for token, field, _, fmt in _BIMODE_PARAMS:
        current = getattr(config, field)
        if current != getattr(default, field):
            tokens.append(f"{token}={fmt(current)}")
    return ",".join(tokens)


def bimode_canonical_key(config: BiModeConfig) -> str:
    suffix = bimode_key_suffix(config)
    return f"bimode:{suffix}" if suffix else "bimode"


def parse_percep_spec(spec: str) -> PerceptronConfig:
    """Parse a ``percep`` key suffix (the part after ``percep:``)."""
    return PerceptronConfig(**_parse_param_spec(spec, _PERCEP_PARAM_MAP,
                                                "percep"))


def percep_key_suffix(config: PerceptronConfig) -> str:
    """Canonical token list for ``config`` (defaults omitted).

    An explicit ``theta=`` equal to the classic fit for the config's
    history length is dropped: ``percep:theta=122`` and ``percep`` are
    the same predictor, so they must share one key (and one cache file).
    """
    if (config.threshold is not None
            and config.threshold == default_threshold(config.history_bits)):
        config = dataclasses.replace(config, threshold=None)
    default = PerceptronConfig()
    tokens = []
    for token, field, _, fmt in _PERCEP_PARAMS:
        current = getattr(config, field)
        if current != getattr(default, field):
            tokens.append(f"{token}={fmt(current)}")
    return ",".join(tokens)


def percep_canonical_key(config: PerceptronConfig) -> str:
    suffix = percep_key_suffix(config)
    return f"percep:{suffix}" if suffix else "percep"


# ---------------------------------------------------------------------------
# The LLBP token grammar, declaratively.  A flag token pins one config
# field to one value; a parameter token parses ``name=value`` into one
# field.  Order matters for :func:`key_of`: the canonical key emits flags
# first, in declaration order, then parameters.

#: token -> (config field, pinned value)
_LLBP_FLAGS: Tuple[Tuple[str, str, object], ...] = (
    ("lat0", "simulate_timing", False),
    # §V-A's future-work variant: pattern sets live in the L2 rather than
    # a dedicated array, so fetches pay an L2-like latency instead of the
    # 6-cycle dedicated-array access.
    ("virt", "prefetch_latency_cycles", 16),
    ("unbucketed", "bucketed", False),
    ("lru", "cd_replacement", "lru"),
    ("exclusive", "exclusive_provider_training", True),
    ("frontend", "model_frontend_redirects", True),
    ("noguard", "weak_override_guard", False),
)

_SOURCES = {
    "uncond": ContextSource.UNCONDITIONAL,
    "callret": ContextSource.CALL_RET,
    "all": ContextSource.ALL,
}


def _parse_source(value: str) -> ContextSource:
    return _SOURCES[value]


#: token name -> (config field, value parser, value formatter)
_LLBP_PARAMS: Tuple[Tuple[str, str, Callable, Callable], ...] = (
    ("w", "context_window", int, str),
    ("d", "prefetch_distance", int, str),
    ("src", "context_source", _parse_source, lambda v: v.value),
    ("cd_bits", "cd_set_bits", int, str),
    ("ps", "patterns_per_set", int, str),
    ("pb", "pb_entries", int, str),
    ("lat", "prefetch_latency_cycles", int, str),
)

_LLBP_FLAG_MAP = {token: (field, value) for token, field, value in _LLBP_FLAGS}
_LLBP_PARAM_MAP = {token: (field, parse) for token, field, parse, _ in _LLBP_PARAMS}


def parse_llbp_spec(spec: str) -> LLBPConfig:
    """Parse an ``llbp`` key suffix (the part after ``llbp:``).

    Whitespace around tokens and empty tokens are ignored.  Raises
    ``ValueError`` for unknown tokens/parameters and for token
    combinations :class:`LLBPConfig` itself rejects (e.g. ``ps=48``
    without ``unbucketed``).
    """
    config = LLBPConfig()
    if not spec:
        return config
    changes: Dict[str, object] = {}
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token in _LLBP_FLAG_MAP:
            field, value = _LLBP_FLAG_MAP[token]
            changes[field] = value
        elif "=" in token:
            name, value = token.split("=", 1)
            try:
                field, parse = _LLBP_PARAM_MAP[name]
            except KeyError:
                raise ValueError(f"unknown LLBP parameter {name!r}") from None
            changes[field] = parse(value)
        else:
            raise ValueError(f"unknown LLBP token {token!r}")
    return dataclasses.replace(config, **changes)


def llbp_key_suffix(config: LLBPConfig) -> str:
    """Canonical token list for ``config`` (inverse of :func:`parse_llbp_spec`).

    Raises ``ValueError`` if some field deviating from the default has no
    token spelling (such a config cannot round-trip through a key).
    """
    default = LLBPConfig()
    handled = set()
    tokens = []
    for token, field, value in _LLBP_FLAGS:
        if field in handled:
            continue
        if getattr(config, field) == value != getattr(default, field):
            tokens.append(token)
            handled.add(field)
    for token, field, _, fmt in _LLBP_PARAMS:
        if field in handled:
            continue
        current = getattr(config, field)
        if current != getattr(default, field):
            tokens.append(f"{token}={fmt(current)}")
            handled.add(field)
    for field in dataclasses.fields(config):
        if field.name in handled:
            continue
        if getattr(config, field.name) != getattr(default, field.name):
            raise ValueError(
                f"LLBPConfig.{field.name} deviates from the default but has "
                f"no key token; this config cannot be expressed as a key")
    return ",".join(tokens)


def parse_key(key: str) -> PredictorSpec:
    """Parse ``key`` into a :class:`PredictorSpec` without building tables.

    Raises ``KeyError`` for unknown plain keys and ``ValueError`` for a
    malformed ``llbp`` suffix.
    """
    if key in _SIMPLE_FACTORIES:
        return PredictorSpec(family=key)
    if key == "llbp":
        return PredictorSpec(family="llbp", config=LLBPConfig())
    if key.startswith("llbp:"):
        return PredictorSpec(family="llbp",
                             config=parse_llbp_spec(key[len("llbp:"):]))
    if key.startswith("tsl:"):
        return PredictorSpec(family="tsl",
                             config=parse_tsl_spec(key[len("tsl:"):]))
    if key == "bimode":
        return PredictorSpec(family="bimode", config=BiModeConfig())
    if key.startswith("bimode:"):
        return PredictorSpec(family="bimode",
                             config=parse_bimode_spec(key[len("bimode:"):]))
    if key == "percep":
        return PredictorSpec(family="percep", config=PerceptronConfig())
    if key.startswith("percep:"):
        return PredictorSpec(family="percep",
                             config=parse_percep_spec(key[len("percep:"):]))
    raise KeyError(f"unknown predictor key {key!r}")


def canonical_key(key: str) -> str:
    """The canonical spelling of ``key`` (see module docstring).

    Idempotent, and consistent with :func:`key_of`:
    ``canonical_key(k) == key_of(make_predictor(k))`` for every key the
    registry can instantiate.  Same errors as :func:`parse_key`.
    """
    spec = parse_key(key)
    if spec.family == "llbp":
        suffix = llbp_key_suffix(spec.config)
        return f"llbp:{suffix}" if suffix else "llbp"
    if spec.family == "tsl":
        return tsl_canonical_key(spec.config)
    if spec.family == "bimode":
        return bimode_canonical_key(spec.config)
    if spec.family == "percep":
        return percep_canonical_key(spec.config)
    return spec.family


def make_predictor(key: str) -> BranchPredictor:
    """Instantiate the predictor named by ``key`` (see module docstring)."""
    spec = parse_key(key)
    if spec.family == "llbp":
        return LLBPTageScL(spec.config)
    if spec.family == "tsl":
        return _make_tsl(spec.config)
    if spec.family == "bimode":
        return BiMode(spec.config)
    if spec.family == "percep":
        return HashedPerceptron(spec.config)
    return _SIMPLE_FACTORIES[spec.family]()


def key_of(predictor: BranchPredictor) -> str:
    """Canonical registry key for ``predictor``.

    The inverse of :func:`make_predictor` up to configuration:
    ``parse_key(key_of(p))`` resolves to the same family and config.
    Raises ``ValueError`` for predictors the registry cannot express.
    """
    if isinstance(predictor, LLBPTageScL):
        suffix = llbp_key_suffix(predictor.config)
        return f"llbp:{suffix}" if suffix else "llbp"
    if isinstance(predictor, TageScL):
        name = predictor.config.name
        if name.startswith("tsl:"):
            # Parameterised geometries carry their canonical key as the
            # display name (set by _make_tsl).
            return name
        try:
            return _TSL_NAME_TO_KEY[name]
        except KeyError:
            raise ValueError(
                f"no registry key for TageScL preset named {name!r}") from None
    if type(predictor) is BiMode:
        return bimode_canonical_key(predictor.config)
    if type(predictor) is HashedPerceptron:
        return percep_canonical_key(predictor.config)
    if type(predictor) is Bimodal:
        return "bimodal"
    if type(predictor) is GShare:
        return "gshare"
    if type(predictor) is PerfectPredictor:
        return "perfect"
    raise ValueError(f"no registry key for {type(predictor).__name__}")


def known_keys() -> Tuple[str, ...]:
    """Every plain key the registry accepts (some take a suffix too)."""
    return tuple(_SIMPLE_FACTORIES) + ("llbp", "bimode", "percep")


def parameterized_families() -> Tuple[str, ...]:
    """Families that accept a ``:``-separated token suffix."""
    return ("llbp", "tsl", "bimode", "percep")
