"""Infinite-capacity TAGE tables for the limit study (§II-C).

Following the paper's methodology: hash functions and table count are
unchanged, but every pattern is additionally tagged with the full branch
PC and associativity is unbounded — so capacity evictions and destructive
aliasing disappear while the algorithmic behaviour (provider selection,
geometric histories) is preserved.

The class also hosts the *useful pattern* instrumentation behind the
working-set studies (Figs 3b and 5): a pattern is useful when it provides
a correct prediction while the alternative prediction is wrong.  With
``trace_useful`` set, every such event is appended to ``useful_events``
as ``(ordinal, pc, pattern)``, where ``ordinal`` numbers the conditional
branches this predictor has trained on, so analysis code can attribute
each event to a static branch or to the program context it occurred in.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.predictors.tage import Tage, TageConfig, TageResult

# A pattern's identity: (table, index, tag, pc).
PatternKey = Tuple[int, int, int, int]

# One useful-pattern event: (conditional-branch ordinal, pc, pattern).
UsefulEvent = Tuple[int, int, PatternKey]


def useful_pattern_counts(events: Iterable[UsefulEvent]) -> Dict[int, int]:
    """Unique useful patterns observed per static branch PC."""
    patterns: Dict[int, Set[PatternKey]] = {}
    for _ordinal, pc, pattern in events:
        patterns.setdefault(pc, set()).add(pattern)
    return {pc: len(keys) for pc, keys in patterns.items()}


class InfiniteTage(Tage):
    """TAGE with per-PC-tagged, unbounded-associativity tables."""

    name = "tage-inf"

    def __init__(self, config: TageConfig) -> None:
        # Reuse Tage's folded-history setup but replace array tables.
        super().__init__(config)
        del self.ctrs, self.tags, self.useful, self._valid
        n = config.num_tables
        # table -> {(idx, tag, pc): [ctr, useful]}
        self.entries: List[Dict[Tuple[int, int, int], List[int]]] = [
            dict() for _ in range(n)
        ]
        self.trace_useful = False
        self.useful_events: List[UsefulEvent] = []
        # Conditional branches trained on so far (the next event ordinal).
        self.updates = 0

    # -- prediction ----------------------------------------------------------

    def lookup(self, pc: int) -> TageResult:
        indices, tags = self._hashes(pc)
        provider = -1
        alt = -1
        provider_ctr = 0
        alt_ctr = 0
        for t, (entries_t, idx, tag) in enumerate(
                zip(self.entries, indices, tags)):
            entry = entries_t.get((idx, tag, pc))
            if entry is not None:
                alt, alt_ctr = provider, provider_ctr
                provider, provider_ctr = t, entry[0]
        return self._result(pc, indices, tags, provider, provider_ctr,
                            alt, alt_ctr)

    # -- training ------------------------------------------------------------

    def update(self, pc: int, taken: bool, res: TageResult,
               suppress_provider: bool = False) -> None:
        ordinal = self.updates
        self.updates = ordinal + 1
        provider = res.provider
        mispredicted = res.pred != taken

        if provider >= 0:
            key = (res.indices[provider], res.tags[provider], pc)
            entry = self.entries[provider][key]
            if res.provider_pred != res.alt_pred:
                if res.provider_pred == taken:
                    entry[1] = 1
                    if self.trace_useful:
                        self.useful_events.append(
                            (ordinal, pc, (provider, key[0], key[1], pc)))
                elif entry[1] > 0:
                    entry[1] = 0
                if res.provider_weak:
                    if res.alt_pred == taken and self._use_alt < self._use_alt_max:
                        self._use_alt += 1
                    elif res.provider_pred == taken and self._use_alt > 0:
                        self._use_alt -= 1
            if not suppress_provider:
                ctr = entry[0]
                if taken:
                    if ctr < self._ctr_hi:
                        entry[0] = ctr + 1
                elif ctr > self._ctr_lo:
                    entry[0] = ctr - 1
                if res.provider_weak and res.alt_provider < 0:
                    self.bimodal.update(pc, taken)
        elif not suppress_provider:
            self.bimodal.update(pc, taken)

        if mispredicted:
            self.allocate(pc, taken, res)

    def allocate(self, pc: int, taken: bool, res: TageResult) -> None:
        """Allocate longer-history patterns; never fails (infinite space)."""
        provider = res.provider
        n = self.config.num_tables
        if provider >= n - 1:
            return
        start = provider + 1
        if start < n - 1 and self._rng.chance(1, 2):
            start += 1
        allocated = 0
        t = start
        while t < n and allocated < self.config.max_allocations:
            key = (res.indices[t], res.tags[t], pc)
            if key not in self.entries[t]:
                self.entries[t][key] = [0 if taken else -1, 0]
                allocated += 1
                t += 2
            else:
                t += 1

    # -- instrumentation ----------------------------------------------------------

    def num_patterns(self) -> int:
        """Total live patterns across all tables."""
        return sum(len(t) for t in self.entries)

    def storage_bits(self) -> int:
        entry_bits = self.config.counter_bits + self.config.tag_bits + 1
        return self.bimodal.storage_bits() + self.num_patterns() * entry_bits

    def state_arrays(self) -> dict:
        """Snapshot of the mutable table state as numpy arrays.

        ``entries`` lists every pattern as ``(table, idx, tag, pc, ctr,
        useful)`` rows, table by table in insertion order (the order is
        part of the state: it is what a dict iteration sees).  Traced
        predictors add their ``useful_events`` as ``(ordinal, pc, table,
        idx, tag)`` rows.
        """
        import numpy as np

        arrays = {
            "entries": np.array(
                [(t, idx, tag, pc, ctr, useful)
                 for t, entries_t in enumerate(self.entries)
                 for (idx, tag, pc), (ctr, useful) in entries_t.items()],
                dtype=np.int64).reshape(-1, 6),
            "bimodal": np.array(self.bimodal.table, dtype=np.int16),
            "use_alt": np.array(self._use_alt, dtype=np.int64),
            "rng": np.array(self._rng.state, dtype=np.uint64),
        }
        if self.trace_useful:
            arrays["useful_events"] = np.array(
                [(ordinal, pc, table, idx, tag)
                 for ordinal, pc, (table, idx, tag, _pc) in self.useful_events],
                dtype=np.int64).reshape(-1, 5)
        return arrays
