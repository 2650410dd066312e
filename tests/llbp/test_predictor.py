"""The composite LLBP + TAGE-SC-L predictor."""

import dataclasses

from repro.llbp.config import LLBPConfig
from repro.llbp.predictor import LLBPTageScL
from repro.predictors.presets import TAGE_HISTORY_LENGTHS, tsl_64k
from repro.sim.engine import run_simulation
from repro.traces.types import BranchType


def make(**overrides):
    config = dataclasses.replace(LLBPConfig(), **overrides)
    return LLBPTageScL(config)


def drive(predictor, pc, taken, branch_type=0, target=0):
    predictor.advance(2)
    meta = None
    if branch_type == 0:
        meta = predictor.predict(pc)
        predictor.train(pc, taken, meta)
    predictor.update_history(pc, branch_type, taken, target)
    return meta


class TestBasics:
    def test_names(self):
        assert make().name == "llbp"
        assert make(simulate_timing=False).name == "llbp-0lat"

    def test_slot_ranks_match_tage_ladder(self):
        predictor = make()
        for h, length in enumerate(predictor.config.slot_lengths):
            rank = predictor._slot_rank[h]
            assert TAGE_HISTORY_LENGTHS[rank - 1] == length

    def test_slot_tags_fit_width(self):
        predictor = make()
        for pc in range(0, 2000, 4):
            drive(predictor, pc, True)
        tags = predictor.compute_slot_tags(0x1234)
        assert len(tags) == 16
        assert all(0 <= t < (1 << 13) for t in tags)

    def test_starred_slots_differ(self):
        """Duplicate lengths use different hash salts (§VI)."""
        predictor = make()
        for pc in range(0, 4000, 4):
            drive(predictor, pc, pc % 8 == 0)
        tags = predictor.compute_slot_tags(0x1234)
        # Slots 2 and 3 share length 54 but must not always collide.
        assert tags[2] != tags[3]

    def test_storage_bits_include_all_structures(self):
        predictor = make()
        assert predictor.storage_bits() > tsl_64k().storage_bits()


class TestPredictionFlow:
    def test_prediction_works_cold(self):
        predictor = make()
        meta = predictor.predict(0x100)
        assert meta.pred in (True, False)
        assert meta.pattern_set is None
        predictor.train(0x100, True, meta)

    def test_context_created_on_provider_mispredict(self):
        predictor = make(simulate_timing=False)
        # Teach the bimodal taken, then surprise it -> LLBP allocates.
        for i in range(30):
            drive(predictor, 0x100, True)
            drive(predictor, 0x200, True, branch_type=int(BranchType.CALL),
                  target=0x300)
            drive(predictor, 0x300, True, branch_type=int(BranchType.RET),
                  target=0x204)
        before = predictor.counts["context_creations"]
        for i in range(10):
            drive(predictor, 0x100, False)
            drive(predictor, 0x200, True, branch_type=int(BranchType.CALL),
                  target=0x300)
            drive(predictor, 0x300, True, branch_type=int(BranchType.RET),
                  target=0x204)
        assert predictor.counts["context_creations"] > before
        assert predictor.counts["allocations"] > 0

    def test_run_counters_exports_counters(self):
        predictor = make()
        drive(predictor, 0x100, True)
        counters = predictor.run_counters()
        for key in ("predictions", "llbp_provided", "pb_accesses",
                    "cd_accesses", "llbp_accesses", "read_bits", "write_bits"):
            assert key in counters
        assert counters["predictions"] == 1


class TestEndToEnd:
    def test_llbp_not_much_worse_than_baseline(self, tiny_workload_trace):
        base = run_simulation(tiny_workload_trace, tsl_64k())
        llbp = run_simulation(tiny_workload_trace,
                              make(simulate_timing=False))
        assert llbp.mpki <= base.mpki * 1.10

    def test_breakdown_counters_consistent(self, tiny_workload_trace):
        result = run_simulation(tiny_workload_trace, make(simulate_timing=False))
        e = result.extra
        overrides = (e["override_good"] + e["override_bad"]
                     + e["override_both_correct"] + e["override_both_wrong"])
        assert e["llbp_provided"] == overrides + e["no_override"]
        assert e["predictions"] >= e["llbp_provided"]

    def test_timed_vs_zero_latency(self, tiny_workload_trace):
        timed = run_simulation(tiny_workload_trace, make())
        zero = run_simulation(tiny_workload_trace, make(simulate_timing=False))
        # Timing can only delay pattern sets, so coverage must not grow by
        # a large amount (allow simulation noise).
        assert timed.extra["llbp_provided"] <= zero.extra["llbp_provided"] * 1.1

    def test_bandwidth_counters(self, tiny_workload_trace):
        result = run_simulation(tiny_workload_trace, make(simulate_timing=False))
        assert result.extra["read_bits"] % 288 == 0
        assert result.extra["write_bits"] % 288 == 0
        assert result.extra["read_bits"] > 0

    def test_exclusive_training_mode_runs(self, tiny_workload_trace):
        result = run_simulation(
            tiny_workload_trace,
            make(simulate_timing=False, exclusive_provider_training=True),
        )
        assert result.cond_branches > 0

    def test_deterministic(self, tiny_workload_trace):
        a = run_simulation(tiny_workload_trace, make())
        b = run_simulation(tiny_workload_trace, make())
        assert a.mispredictions == b.mispredictions
        assert a.extra == b.extra
