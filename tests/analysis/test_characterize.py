"""Characterization pipeline: metric properties, artifact bytes, winners.

Three layers:

* **hypothesis properties** on arbitrary traces — the bias-family
  metrics are order-free (invariant under any record permutation), all
  entropies are bounded, the history ladder is monotone (a longer
  window never loses information), and the whole metric dict is a pure
  function of the trace;
* **artifact byte-determinism** — the same workloads + budget render
  the same bytes whichever engine computed the MPKI column, and the
  pinned metrics-only artifact hashes to its committed sha256;
* **the predicted-winner contract** — the metrics-only rule names the
  measured-best family on at least 10 of the 14 catalog workloads at
  the pinned budget.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.characterize import (
    FAMILIES,
    HISTORY_LENGTHS,
    artifact_json,
    characterize,
    characterize_trace,
    main,
    measured_winner,
    predicted_winner,
    render_table,
)
from repro.traces.trace import TraceBuilder
from repro.traces.types import BranchType

#: Budget for the full-catalog winner assertion.  Small budgets are too
#: cold for LLBP's prefetch machinery (the tsl64/llbp gap is decided by
#: warmup noise); 120k is past that regime and stays test-sized.
WINNER_INSTRUCTIONS = 120_000

#: Minimum catalog workloads on which the metrics-only rule must name
#: the measured-best family.
WINNER_FLOOR = 10

_BRANCH_TYPES = [BranchType.COND, BranchType.COND, BranchType.CALL,
                 BranchType.RET, BranchType.JUMP]


def _records(steps):
    records = []
    for i, (pc_pick, bt_pick, taken) in enumerate(steps):
        bt = _BRANCH_TYPES[bt_pick]
        pc = 0x1000 + 4 * pc_pick
        records.append((pc, bt, True if bt != BranchType.COND else taken,
                        pc + 16, 1 + (i % 4)))
    return records


def _build(records):
    builder = TraceBuilder("char-prop")
    for record in records:
        builder.append(*record)
    return builder.build()


steps_strategy = st.lists(
    st.tuples(st.integers(0, 24), st.integers(0, 4), st.booleans()),
    min_size=30, max_size=250,
)


class TestMetricProperties:
    @given(steps_strategy)
    @settings(max_examples=30, deadline=None)
    def test_bounds_and_ladder(self, steps):
        records = _records(steps)
        assume(any(r[1] == BranchType.COND for r in records))
        metrics = characterize_trace(_build(records))

        be = metrics["branch_entropy"]
        ladder = [metrics["history_entropy"][str(length)]
                  for length in HISTORY_LENGTHS]
        eps = 1e-9
        for value in (metrics["taken_rate"], metrics["taken_skew"], be,
                      metrics["transition_entropy"],
                      metrics["context_entropy"], *ladder):
            assert -eps <= value <= 1.0 + eps

        # Conditioning on anything refines the per-PC partition, so no
        # conditional entropy may exceed the per-PC outcome entropy...
        assert metrics["transition_entropy"] <= be + eps
        assert metrics["context_entropy"] <= be + eps
        for value in ladder:
            assert value <= be + eps
        # ...and a longer window refines a shorter one.
        for shorter, longer in zip(ladder, ladder[1:]):
            assert longer <= shorter + eps

    @given(steps_strategy, st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_bias_metrics_are_order_free(self, steps, rnd):
        """taken_rate / branch_entropy / taken_skew count per-PC outcome
        multisets, so any permutation of the records preserves them."""
        records = _records(steps)
        assume(any(r[1] == BranchType.COND for r in records))
        shuffled = list(records)
        rnd.shuffle(shuffled)
        a = characterize_trace(_build(records))
        b = characterize_trace(_build(shuffled))
        for metric in ("cond_branches", "static_branches", "taken_rate",
                       "branch_entropy", "taken_skew"):
            assert a[metric] == pytest.approx(b[metric], abs=1e-12)

    @given(steps_strategy)
    @settings(max_examples=15, deadline=None)
    def test_metrics_are_a_pure_function_of_the_trace(self, steps):
        records = _records(steps)
        assume(any(r[1] == BranchType.COND for r in records))
        trace = _build(records)
        assert characterize_trace(trace) == characterize_trace(trace)

    def test_rejects_trace_without_conditionals(self):
        builder = TraceBuilder("no-cond")
        builder.append(0x100, BranchType.JUMP, True, 0x200, 2)
        with pytest.raises(ValueError, match="no conditional"):
            characterize_trace(builder.build())


class TestPredictedWinner:
    @staticmethod
    def _metrics(longest, context, bias, shorter=None):
        ladder = {str(length): (shorter if shorter is not None else longest)
                  for length in HISTORY_LENGTHS}
        ladder[str(HISTORY_LENGTHS[-1])] = longest
        return {"branch_entropy": bias, "context_entropy": context,
                "history_entropy": ladder}

    def test_short_history_saturation_names_gshare(self):
        assert predicted_winner(self._metrics(0.0, 0.0, 0.0)) == "gshare"

    def test_beyond_horizon_noise_names_percep(self):
        assert predicted_winner(self._metrics(0.95, 0.99, 1.0)) == "percep"

    def test_informative_context_names_llbp(self):
        assert predicted_winner(self._metrics(0.10, 0.20, 0.35)) == "llbp"

    def test_history_only_structure_names_tsl(self):
        assert predicted_winner(self._metrics(0.30, 0.60, 0.60,
                                              shorter=0.6)) == "tsl64"

    def test_measured_winner_tie_break_is_family_order(self):
        mpki = {family: 1.0 for family in FAMILIES}
        assert measured_winner(mpki) == FAMILIES[0]
        mpki["tsl64"] = 0.5
        assert measured_winner(mpki) == "tsl64"


@pytest.fixture()
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_INSTRUCTIONS", raising=False)
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    from repro.experiments.runner import clear_memory_cache

    clear_memory_cache()
    yield
    clear_memory_cache()


SMALL_WORKLOADS = ("Kafka", "adv:xor")
SMALL_INSTRUCTIONS = 30_000

#: The pinned characterization digest: the metrics-only artifact for
#: these workloads at this budget.  Metrics never touch an engine or the
#: process pool, so the sha256 is the same on every host; it moves only
#: when a metric, the workload generators or the serialisation change.
DIGEST_WORKLOADS = ("Kafka", "adv:xor")
DIGEST_INSTRUCTIONS = 60_000
DIGEST_SHA256 = "2c9d94da33029e1fd98ab554ba8838accf5a0595b96e1053c6425df502c3323d"


class TestArtifactDeterminism:
    def test_engines_render_identical_bytes(self, isolated_cache,
                                            monkeypatch):
        """The artifact must not care which engine simulated the MPKI
        column: python and array runs are bit-identical by contract and
        the serialisation rounds before dumping."""
        from repro.experiments.runner import clear_memory_cache

        monkeypatch.setenv("REPRO_ENGINE", "python")
        py = artifact_json(characterize(SMALL_WORKLOADS,
                                        instructions=SMALL_INSTRUCTIONS))
        clear_memory_cache()
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        monkeypatch.setenv("REPRO_ENGINE", "array")
        arr = artifact_json(characterize(SMALL_WORKLOADS,
                                         instructions=SMALL_INSTRUCTIONS))
        assert py == arr

    def test_metrics_only_digest_is_pinned(self, isolated_cache):
        artifact = characterize(DIGEST_WORKLOADS,
                                instructions=DIGEST_INSTRUCTIONS,
                                with_mpki=False)
        digest = hashlib.sha256(
            artifact_json(artifact).encode("ascii")).hexdigest()
        assert digest == DIGEST_SHA256

    def test_repeat_run_renders_identical_bytes(self, isolated_cache):
        a = characterize(SMALL_WORKLOADS, instructions=SMALL_INSTRUCTIONS)
        b = characterize(SMALL_WORKLOADS, instructions=SMALL_INSTRUCTIONS)
        assert artifact_json(a) == artifact_json(b)
        # and the table renderer is deterministic too
        assert render_table(a) == render_table(b)

    def test_artifact_shape(self, isolated_cache):
        artifact = characterize(["Kafka"], instructions=SMALL_INSTRUCTIONS,
                                with_mpki=False)
        data = json.loads(artifact_json(artifact))
        entry = data["workloads"]["Kafka"]
        assert data["schema"] == 1
        assert data["history_lengths"] == list(HISTORY_LENGTHS)
        assert set(entry["metrics"]["history_entropy"]) == {
            str(length) for length in HISTORY_LENGTHS}
        assert entry["predicted_winner"] in FAMILIES
        assert "mpki" not in entry


class TestWinnerContract:
    def test_rule_names_measured_best_on_most_of_the_catalog(
            self, isolated_cache, monkeypatch):
        """The acceptance bar: >= 10 of the 14 catalog workloads."""
        monkeypatch.setenv("REPRO_ENGINE", "array")
        artifact = characterize(instructions=WINNER_INSTRUCTIONS)
        entries = artifact["workloads"]
        assert len(entries) == 14
        hits = sum(entry["predicted_winner"] == entry["measured_winner"]
                   for entry in entries.values())
        assert hits >= WINNER_FLOOR, {
            workload: (entry["predicted_winner"], entry["measured_winner"])
            for workload, entry in entries.items()
            if entry["predicted_winner"] != entry["measured_winner"]}


class TestCLI:
    def test_out_then_check_round_trip(self, isolated_cache, tmp_path,
                                       capsys):
        out = tmp_path / "char.json"
        assert main(["--workloads", "Kafka", "--instructions", "8000",
                     "--no-mpki", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["workloads"]["Kafka"]
        assert main(["--workloads", "Kafka", "--instructions", "8000",
                     "--no-mpki", "--check", str(out)]) == 0
        assert "byte-identical" in capsys.readouterr().out

    def test_check_flags_mismatch(self, isolated_cache, tmp_path, capsys):
        out = tmp_path / "char.json"
        out.write_text("{}\n")
        assert main(["--workloads", "Kafka", "--instructions", "8000",
                     "--no-mpki", "--check", str(out)]) == 1
        assert "MISMATCH" in capsys.readouterr().err

    def test_unknown_workload_exits(self, isolated_cache):
        with pytest.raises(SystemExit):
            main(["--workloads", "NoSuchWorkload", "--no-mpki"])

    def test_adv_suite_spelling(self, isolated_cache, capsys):
        assert main(["--workloads", "adv:hist,l=4", "--instructions",
                     "8000", "--no-mpki"]) == 0
        assert "adv:hist,l=4" in capsys.readouterr().out
