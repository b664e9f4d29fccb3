"""The interpreter differential check: its seeded programs and how
`scripts/evm_diff.py` groups the programs whose outcomes differ."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import evm_programs

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "evm_diff.py"
_SPEC = importlib.util.spec_from_file_location("evm_diff", _PATH)
evm_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(evm_diff)


def test_a_seed_draws_the_same_program_every_time() -> None:
    assert evm_programs.generate(7) == evm_programs.generate(7)
    assert evm_programs.generate(7) != evm_programs.generate(8)


def test_programs_reach_the_outcomes_the_check_compares() -> None:
    programs = [evm_programs.generate(seed) for seed in range(200)]
    assert min(p.gas for p in programs) >= 20
    assert max(p.gas for p in programs) <= 3_000_000
    statuses = {evm_programs.digests(p)["status"] for p in programs}
    # success, revert, out of gas and invalid each hash to their own value
    assert len(statuses) >= 4
    assert {p.policy for p in programs} == set(evm_programs.POLICIES)


def test_digests_hash_every_field_and_repeat() -> None:
    program = evm_programs.generate(3)
    first = evm_programs.digests(program)
    assert tuple(first) == evm_programs.FIELDS
    assert evm_programs.digests(program) == first


def _hashes(**fields: str) -> dict[str, str]:
    return {name: fields.get(name, "h") for name in evm_programs.FIELDS}


def test_compare_groups_programs_by_their_first_differing_field() -> None:
    base = [_hashes(), _hashes(), _hashes(), _hashes()]
    change = [_hashes(), _hashes(events="x", state="y"), _hashes(state="y"),
              _hashes(gas_used="z", state="y")]
    summary = evm_diff.compare(base, change)
    assert summary["programs"] == 4 and summary["differing"] == 3
    assert summary["first_differing_field"] == {
        "events": {"programs": 1, "example_seeds": [1]},
        "state": {"programs": 1, "example_seeds": [2]},
        "gas_used": {"programs": 1, "example_seeds": [3]},
    }


def test_compare_of_equal_hashes_reports_nothing() -> None:
    hashes = [_hashes(), _hashes(status="s")]
    assert evm_diff.compare(hashes, hashes) == {
        "programs": 2, "differing": 0, "first_differing_field": {}}
