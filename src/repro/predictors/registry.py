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

The token grammar is *declarative*: one table (``_FAMILIES``) lists, per
parameterised family, its config type, flag tokens (a bare word pinning
one config field to one value), parameter tokens (``name=value`` with a
parser per name) and builder, and one parser and one spelling emitter
read it.  Unknown plain keys raise ``KeyError``; malformed suffix tokens
raise ``ValueError`` — the contract the experiment CLIs and cache
filenames rely on.

A key has exactly one *canonical* spelling (:func:`canonical_key`):
flags before parameters, tokens in declaration order, defaults omitted,
and a parameterised spelling that lands on a preset collapses to the
preset's plain key (``tsl:x=4`` → ``tsl256``, ``llbp:`` → ``llbp``).
Cache filenames and the explore harness dedup through it.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

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

    ``config`` is ``None`` for plain keys without tokens; for a
    parameterised family it is the family's config with every token
    applied (:class:`LLBPConfig`, :class:`TslGeometry`,
    :class:`BiModeConfig` or :class:`PerceptronConfig`).
    """

    family: str
    config: Any = None

    @property
    def key(self) -> str:
        """The canonical key of this spec (see module docstring).

        Raises ``ValueError`` if the config deviates from its default in
        a field no token spells (it cannot round-trip through a key).
        """
        if self.config is None:
            return self.family
        family = _FAMILIES[self.family]
        config = self.config
        if family.normalise is not None:
            config = family.normalise(config)
        default = family.config()
        tokens = []
        handled = set()
        for token, (field, value) in family.flags.items():
            if getattr(config, field) == value != getattr(default, field):
                tokens.append(token)
                handled.add(field)
        for token, (field, _, fmt) in family.params.items():
            current = getattr(config, field)
            if field not in handled and current != getattr(default, field):
                tokens.append(f"{token}={fmt(current)}")
                handled.add(field)
        for field in dataclasses.fields(config):
            if (field.name not in handled and getattr(config, field.name)
                    != getattr(default, field.name)):
                raise ValueError(
                    f"{type(config).__name__}.{field.name} deviates from the "
                    f"default but has no key token; this config cannot be "
                    f"expressed as a key")
        suffix = ",".join(tokens)
        fallback = f"{self.family}:{suffix}" if suffix else self.family
        return family.presets.get(suffix, fallback)


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
    canonical = PredictorSpec("tsl", geometry).key
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
        ),
        sc_index_bits=geometry.sc_index_bits,
        name=canonical,
    )
    return TageScL(config)


def _drop_default_theta(config: PerceptronConfig) -> PerceptronConfig:
    """An explicit ``theta=`` equal to the classic fit for the config's
    history length is the default: ``percep:theta=122`` and ``percep``
    are the same predictor, so they must share one key (and one cache
    file)."""
    if config.threshold == default_threshold(config.history_bits):
        return dataclasses.replace(config, threshold=None)
    return config


# ---------------------------------------------------------------------------
# The token grammar of every parameterised family, declaratively.


@dataclasses.dataclass(frozen=True)
class _Family:
    """One parameterised family's grammar.

    ``flags`` maps a bare token to the (config field, pinned value) it
    sets; ``params`` maps a ``name=value`` token to its (config field,
    value parser, value formatter).  The canonical spelling emits flags,
    then parameters, each in declaration order, omitting defaults.
    ``presets`` maps a canonical suffix to the plain key it collapses
    to; a family whose default (empty suffix) is a preset has no bare
    key.  ``normalise`` rewrites a config to the equivalent one that
    spells canonically.
    """

    config: Callable[..., Any]
    build: Callable[[Any], BranchPredictor]
    params: Mapping[str, Tuple[str, Callable[[str], Any], Callable[[Any], str]]]
    flags: Mapping[str, Tuple[str, Any]] = dataclasses.field(
        default_factory=dict)
    presets: Mapping[str, str] = dataclasses.field(default_factory=dict)
    normalise: Optional[Callable[[Any], Any]] = None


_SOURCES = {source.value: source for source in ContextSource}

_FAMILIES: Dict[str, _Family] = {
    "llbp": _Family(
        LLBPConfig, LLBPTageScL,
        flags={
            "lat0": ("simulate_timing", False),
            # §V-A's future-work variant: pattern sets live in the L2
            # rather than a dedicated array, so fetches pay an L2-like
            # latency instead of the 6-cycle dedicated-array access.
            "virt": ("prefetch_latency_cycles", 16),
            "unbucketed": ("bucketed", False),
            "lru": ("cd_replacement", "lru"),
            "exclusive": ("exclusive_provider_training", True),
            "noguard": ("weak_override_guard", False),
        },
        params={
            "w": ("context_window", int, str),
            "d": ("prefetch_distance", int, str),
            "src": ("context_source", _SOURCES.__getitem__,
                    lambda source: source.value),
            "cd_bits": ("cd_set_bits", int, str),
            "ps": ("patterns_per_set", int, str),
            "pb": ("pb_entries", int, str),
            "lat": ("prefetch_latency_cycles", int, str),
        }),
    # Every parameter defaults to the 64K TSL baseline, so pure
    # power-of-two scales collapse onto the preset ladder (one canonical
    # key — and one cache file — per geometry).
    "tsl": _Family(
        TslGeometry, _make_tsl,
        params={
            "x": ("scale", int, str),
            "t": ("tables", int, str),
            "tag": ("tag_bits", int, str),
            "sc": ("sc_index_bits", int, str),
        },
        presets={"": "tsl64", "x=2": "tsl128", "x=4": "tsl256",
                 "x=8": "tsl512", "x=16": "tsl1m"}),
    "bimode": _Family(
        BiModeConfig, BiMode,
        params={
            "c": ("choice_bits", int, str),
            "d": ("direction_bits", int, str),
            "h": ("history_bits", int, str),
        }),
    "percep": _Family(
        PerceptronConfig, HashedPerceptron,
        params={
            "t": ("tables", int, str),
            "r": ("row_bits", int, str),
            "w": ("weight_bits", int, str),
            "h": ("history_bits", int, str),
            "theta": ("threshold", int, str),
        },
        normalise=_drop_default_theta),
}


def parse_key(key: str) -> PredictorSpec:
    """Parse ``key`` into a :class:`PredictorSpec` without building tables.

    Raises ``KeyError`` for unknown plain keys and ``ValueError`` for a
    malformed token suffix, including token combinations the config
    itself rejects (e.g. ``llbp:ps=48`` without ``unbucketed``).
    Whitespace around tokens and empty tokens are ignored.
    """
    if key in _SIMPLE_FACTORIES:
        return PredictorSpec(key)
    name, colon, suffix = key.partition(":")
    family = _FAMILIES.get(name)
    if family is None or (not colon and "" in family.presets):
        raise KeyError(f"unknown predictor key {key!r}")
    changes: Dict[str, Any] = {}
    for token in suffix.split(","):
        token = token.strip()
        if not token:
            continue
        if token in family.flags:
            field, value = family.flags[token]
        elif "=" in token:
            token, value = token.split("=", 1)
            try:
                field, parse, _ = family.params[token]
            except KeyError:
                raise ValueError(
                    f"unknown {name.upper()} parameter {token!r}") from None
            value = parse(value)
        else:
            raise ValueError(f"unknown {name.upper()} token {token!r}")
        changes[field] = value
    return PredictorSpec(name, dataclasses.replace(family.config(), **changes))


def canonical_key(key: str) -> str:
    """The canonical spelling of ``key`` (see module docstring).

    Idempotent, and consistent with :func:`key_of`:
    ``canonical_key(k) == key_of(make_predictor(k))`` for every key the
    registry can instantiate.  Same errors as :func:`parse_key`.
    """
    return parse_key(key).key


def make_predictor(key: str) -> BranchPredictor:
    """Instantiate the predictor named by ``key`` (see module docstring)."""
    spec = parse_key(key)
    if spec.config is None:
        return _SIMPLE_FACTORIES[spec.family]()
    return _FAMILIES[spec.family].build(spec.config)


def key_of(predictor: BranchPredictor) -> str:
    """Canonical registry key for ``predictor``.

    The inverse of :func:`make_predictor` up to configuration:
    ``parse_key(key_of(p))`` resolves to the same family and config.
    Raises ``ValueError`` for predictors the registry cannot express.
    """
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
    # Exact-type matches: a builder or factory that is a class names the
    # predictor type it builds (a subclass may behave differently).
    for name, family in _FAMILIES.items():
        if type(predictor) is family.build:
            return PredictorSpec(name, predictor.config).key
    for key, factory in _SIMPLE_FACTORIES.items():
        if type(predictor) is factory:
            return key
    raise ValueError(f"no registry key for {type(predictor).__name__}")


def known_keys() -> Tuple[str, ...]:
    """Every plain key the registry accepts (some take a suffix too)."""
    return tuple(_SIMPLE_FACTORIES) + tuple(
        name for name, family in _FAMILIES.items()
        if "" not in family.presets)


def parameterized_families() -> Tuple[str, ...]:
    """Families that accept a ``:``-separated token suffix."""
    return tuple(_FAMILIES)
