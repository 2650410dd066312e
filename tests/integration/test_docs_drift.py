"""Documentation drift pins: the docs must track the code, by test.

Prose can't be asserted, but its load-bearing inventories can: every
``REPRO_*`` environment variable the code reads, every experiment the
CLI registers, every predictor family the registry parses and every
workload stressor kind must appear in the user-facing reference docs
(``EXPERIMENTS.md``, ``docs/API.md``, ``docs/WORKLOADS.md``).  A new
knob without a doc line fails here, in CI, not in a user's terminal.

The pins run both ways where the inventory is closed: a ``REPRO_*``
variable or a CLI flag the docs still describe after its code is gone
fails too.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

#: The user-facing reference documents that together must cover every
#: inventory below.
REFERENCE_DOCS = ("EXPERIMENTS.md", "docs/API.md", "docs/WORKLOADS.md")

_ENV_VAR = re.compile(r"REPRO_[A-Z0-9_]*[A-Z0-9]")


def _reference_text() -> str:
    return "\n".join((REPO / name).read_text() for name in REFERENCE_DOCS)


def _code_env_vars() -> set:
    found = set()
    for root in ("src", "scripts"):
        for path in (REPO / root).rglob("*.py"):
            found.update(_ENV_VAR.findall(path.read_text()))
    return found


def test_every_env_var_is_documented():
    documented = set(_ENV_VAR.findall(_reference_text()))
    missing = _code_env_vars() - documented
    assert not missing, (
        f"REPRO_* variables read by the code but absent from "
        f"{REFERENCE_DOCS}: {sorted(missing)}")


def test_every_documented_env_var_is_read_by_the_code():
    stale = set(_ENV_VAR.findall(_reference_text())) - _code_env_vars()
    assert not stale, (
        f"REPRO_* variables documented in {REFERENCE_DOCS} that no code "
        f"under src/ or scripts/ reads: {sorted(stale)}")


_FLAG = re.compile(r"(?<![\w-])--?[a-z][a-z0-9-]*")


def _common_flags_table() -> set:
    """Flags named in the first column of EXPERIMENTS.md's flag table."""
    text = (REPO / "EXPERIMENTS.md").read_text()
    lines = text[text.index("Common flags"):].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    flags = set()
    for line in lines[start + 2:]:  # past the header and |---| rows
        if not line.startswith("|"):
            break
        flags.update(_FLAG.findall(line.split("|")[1]))
    return flags


def test_flag_table_matches_the_experiments_parser():
    from repro.experiments.__main__ import build_parser

    options = {option for action in build_parser()._actions
               for option in action.option_strings} - {"-h", "--help"}
    assert _common_flags_table() == options


def test_every_experiment_is_documented():
    from repro.experiments.__main__ import _EXPERIMENTS

    text = _reference_text()
    missing = [name for name in _EXPERIMENTS if name not in text]
    assert not missing, (
        f"experiments registered in the CLI but absent from "
        f"{REFERENCE_DOCS}: {missing}")


def test_every_predictor_family_is_documented():
    from repro.predictors import registry

    text = _reference_text()
    missing = [key for key in registry.known_keys() if key not in text]
    missing += [f"{family}:" for family in registry.parameterized_families()
                if f"{family}:" not in text]
    assert not missing, (
        f"registry keys/families absent from {REFERENCE_DOCS}: {missing}")


def test_every_stressor_kind_is_documented():
    from repro.workloads.adversarial import adversarial_names

    text = _reference_text()
    missing = [name for name in adversarial_names() if name not in text]
    assert not missing, (
        f"adversarial stressors absent from {REFERENCE_DOCS}: {missing}")


def test_workloads_doc_is_linked_from_readme():
    readme = (REPO / "README.md").read_text()
    assert "docs/WORKLOADS.md" in readme
