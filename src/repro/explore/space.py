"""Declarative search spaces over registry predictor keys.

A :class:`SearchSpace` is a named list of :class:`Template` objects.  A
template is pure data — a predictor family plus per-axis token
alternatives — and expands to the cross product of its axes, rendered as
registry key strings and canonicalised through
:func:`repro.predictors.registry.canonical_key`.  Working in key space
(rather than config objects) is what lets the explore driver reuse the
whole execution stack unchanged: the result cache, the journal, the
process pool and the TCP backend all already speak keys.

Axis values are raw token *fragments* of the family's suffix grammar,
so one axis value may pin several tokens at once (``"unbucketed,ps=8"``
— the unbucketed flag is what makes the non-default pattern count
legal).  The empty fragment ``""`` means "axis absent" and is how an
axis expresses "default or variant".

Built-in spaces (``SPACES``):

``smoke``
    7 configs (2 TSL scales, 4 LLBP budgets, bimodal anchor) — the
    fixed-seed mini-search checked against ``tests/explore/
    golden_frontier.json`` by tier-1 and CI.
``tage``
    TAGE geometry: entry scale × table count.
``llbp``
    LLBP backing-storage budget (directory sets × patterns per set) and
    context hashing (window × prefetch distance).
``default``
    ``tage`` + the LLBP capacity sweep + cheap plain anchors.
``full``
    ``default`` plus the LLBP context sweep and the bimode/percep
    geometry sweeps.
``families``
    The PR-10 comparison families (bimode × percep geometries) plus the
    cheap plain anchors.
``baselines``
    Every plain registry key, including the infinite-storage oracles —
    coverage for drift tests and a cheap "just rank the paper configs"
    search.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, List, Tuple

from repro.predictors import registry


@dataclasses.dataclass(frozen=True)
class Template:
    """One family's slice of a search space (pure data).

    ``family`` is either a registry family that takes a token suffix
    (``"tsl"``, ``"llbp"``) with ``axes`` giving per-axis token
    alternatives, or ``"plain"`` with ``keys`` listing plain registry
    keys verbatim.
    """

    name: str
    family: str
    axes: Tuple[Tuple[str, ...], ...] = ()
    keys: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.family == "plain":
            if self.axes or not self.keys:
                raise ValueError(
                    f"template {self.name!r}: plain templates list keys, "
                    "not axes")
        elif self.family in registry.parameterized_families():
            if self.keys or not self.axes:
                raise ValueError(
                    f"template {self.name!r}: {self.family} templates "
                    "list axes, not keys")
        else:
            raise ValueError(
                f"template {self.name!r}: unknown family {self.family!r}")

    def expand(self) -> List[str]:
        """Every config of this template as a canonical registry key.

        Raises ``ValueError``/``KeyError`` (with the template named) if
        any combination renders to a key the registry rejects — a space
        must be well-formed by construction, not at evaluation time.
        """
        if self.family == "plain":
            raw = list(self.keys)
        else:
            raw = []
            for combo in itertools.product(*self.axes):
                suffix = ",".join(fragment for fragment in combo if fragment)
                raw.append(f"{self.family}:{suffix}" if suffix
                           else self.family)
        expanded = []
        for key in raw:
            try:
                expanded.append(registry.canonical_key(key))
            except (KeyError, ValueError) as error:
                raise ValueError(
                    f"template {self.name!r} expands to invalid key "
                    f"{key!r}: {error}") from error
        return expanded


@dataclasses.dataclass(frozen=True)
class SearchSpace:
    """A named collection of templates; expansion dedups canonically."""

    name: str
    templates: Tuple[Template, ...]

    def expand(self) -> List[str]:
        """Unique canonical keys, in first-occurrence order."""
        return list(dict.fromkeys(
            key for template in self.templates for key in template.expand()))


# ---------------------------------------------------------------------------
# Built-in templates.  Kept individually addressable so the drift test can
# assert every registry family is reachable from at least one of them.

TSL_SCALE_SMOKE = Template(
    "tsl-scale-smoke", "tsl",
    axes=(("x=1", "x=4"),))

LLBP_BUDGET_SMOKE = Template(
    "llbp-budget-smoke", "llbp",
    axes=(("cd_bits=8", "cd_bits=9"),
          ("", "unbucketed,ps=8")))

SMOKE_ANCHORS = Template("smoke-anchors", "plain", keys=("bimodal",))

TSL_GEOMETRY = Template(
    "tsl-geometry", "tsl",
    axes=(("x=1", "x=2", "x=4", "x=8", "x=16"),
          ("t=11", "t=16", "t=21")))

LLBP_CAPACITY = Template(
    "llbp-capacity", "llbp",
    # ps != 16 needs the unbucketed flag: the bucketed slot schedule has
    # exactly 16 entries, so the fragments pin both tokens together.
    axes=(("cd_bits=7", "cd_bits=8", "cd_bits=9", "cd_bits=10",
           "cd_bits=11"),
          ("", "unbucketed,ps=8", "unbucketed,ps=32")))

LLBP_CONTEXT = Template(
    "llbp-context", "llbp",
    axes=(("w=4", "w=8", "w=16"),
          ("d=0", "d=4")))

PLAIN_ANCHORS = Template("plain-anchors", "plain",
                         keys=("bimodal", "gshare"))

BIMODE_GEOMETRY = Template(
    "bimode-geometry", "bimode",
    axes=(("c=12", "c=13", "c=14"),
          ("", "d=14", "d=15"),
          ("", "h=10")))

PERCEP_GEOMETRY = Template(
    "percep-geometry", "percep",
    # history must split evenly over tables-1 segments, so the table
    # count and history length are pinned together per fragment.
    axes=(("", "t=4,h=24", "t=12,h=44"),
          ("r=9", "r=10", "r=11")))

BASELINES = Template("baselines", "plain", keys=registry.known_keys())

#: Every built-in template (drift tests iterate this, not SPACES, so a
#: template is covered even if no built-in space currently uses it).
TEMPLATES: Tuple[Template, ...] = (
    TSL_SCALE_SMOKE, LLBP_BUDGET_SMOKE, SMOKE_ANCHORS, TSL_GEOMETRY,
    LLBP_CAPACITY, LLBP_CONTEXT, PLAIN_ANCHORS, BIMODE_GEOMETRY,
    PERCEP_GEOMETRY, BASELINES,
)

SPACES: Dict[str, SearchSpace] = {
    space.name: space for space in (
        SearchSpace("smoke", (TSL_SCALE_SMOKE, LLBP_BUDGET_SMOKE,
                              SMOKE_ANCHORS)),
        SearchSpace("tage", (TSL_GEOMETRY,)),
        SearchSpace("llbp", (LLBP_CAPACITY, LLBP_CONTEXT)),
        SearchSpace("default", (TSL_GEOMETRY, LLBP_CAPACITY,
                                PLAIN_ANCHORS)),
        SearchSpace("full", (TSL_GEOMETRY, LLBP_CAPACITY, LLBP_CONTEXT,
                             PLAIN_ANCHORS, BIMODE_GEOMETRY,
                             PERCEP_GEOMETRY)),
        SearchSpace("families", (BIMODE_GEOMETRY, PERCEP_GEOMETRY,
                                 PLAIN_ANCHORS)),
        SearchSpace("baselines", (BASELINES,)),
    )
}


def resolve_space(spec: str) -> SearchSpace:
    """A built-in space by name, or a ``;``-separated literal key list.

    The separator is ``;`` because ``,`` already separates suffix tokens
    inside a single key (``llbp:cd_bits=10,ps=32``).
    """
    spec = spec.strip()
    if spec in SPACES:
        return SPACES[spec]
    keys = tuple(key.strip() for key in spec.split(";") if key.strip())
    if not keys:
        raise ValueError(
            f"unknown space {spec!r}; built-ins: {', '.join(SPACES)}")
    return SearchSpace("custom", (Template("custom", "plain", keys=keys),))
