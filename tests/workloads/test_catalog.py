"""Workload catalog and trace caching."""

import pytest

from repro.traces.stats import compute_stats
from repro.traces.types import BranchType
from repro.workloads.adversarial import adversarial_names
from repro.workloads.catalog import (
    WORKLOADS,
    generate_workload,
    get_spec,
    parse_workloads,
    workload_names,
)


@pytest.fixture(autouse=True)
def _cache_root(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


PAPER_WORKLOADS = [
    "NodeApp", "PHPWiki", "TPCC", "Twitter", "Wikipedia", "Kafka", "Spring",
    "Tomcat", "Chirper", "HTTP", "Charlie", "Delta", "Merced", "Whiskey",
]


def test_all_fourteen_paper_workloads_present():
    assert workload_names() == PAPER_WORKLOADS


def test_specs_have_unique_seeds():
    seeds = [spec.seed for spec in WORKLOADS.values()]
    assert len(seeds) == len(set(seeds))


def test_get_spec_unknown():
    with pytest.raises(KeyError):
        get_spec("nope")


class TestParseWorkloads:
    def test_suites(self):
        assert parse_workloads("all") == workload_names()
        assert parse_workloads(" ADV ") == adversarial_names()

    def test_adv_names_keep_their_tokens(self):
        assert parse_workloads("Kafka, adv:alias,bits=4,n=8 ,adv:hist,l=4") \
            == ["Kafka", "adv:alias,bits=4,n=8", "adv:hist,l=4"]

    @pytest.mark.parametrize("value", [
        "Kafka,Kafak", "adv:bogus", "adv:hist,x=1", "l=4", "adv:hist,l=many",
    ])
    def test_every_name_is_checked(self, value):
        with pytest.raises(ValueError):
            parse_workloads(value)


def test_generate_writes_through_the_store(tmp_path):
    trace = generate_workload("Kafka", 30_000)
    assert trace.name == "Kafka"
    assert trace.num_instructions >= 30_000
    assert trace.store_path.parent == tmp_path / "traces"
    assert trace.store_path.is_file()


def test_cache_roundtrip():
    first = generate_workload("Kafka", 30_000)
    second = generate_workload("Kafka", 30_000)
    assert second.store_path == first.store_path
    assert list(first.pcs) == list(second.pcs)
    assert list(first.takens) == list(second.takens)


def test_generated_records_are_well_formed():
    """In every catalog and ``adv:`` trace, each record retires at least
    one instruction and every unconditional branch is taken."""
    for name in workload_names() + adversarial_names():
        trace = generate_workload(name, 20_000)
        assert len(trace), name
        assert (trace.gaps >= 1).all(), name
        unconditional = trace.types != BranchType.COND
        assert unconditional.any(), name
        assert (trace.takens[unconditional] == 1).all(), name


def test_trace_shape_is_server_like():
    """The catalog must produce the branch mix §IV measures."""
    stats = compute_stats(generate_workload("Tomcat", 60_000))
    assert 2.0 < stats.cond_per_uncond < 8.0        # paper: ~3.89
    assert 0.10 < stats.uncond_fraction < 0.35      # paper: ~20%
    assert stats.branches_per_instruction < 0.35
    assert stats.unique_conditional_pcs > 300       # large working set


def test_workloads_differ():
    a = generate_workload("Kafka", 30_000)
    b = generate_workload("Tomcat", 30_000)
    sa, sb = compute_stats(a), compute_stats(b)
    assert sa.unique_conditional_pcs != sb.unique_conditional_pcs
