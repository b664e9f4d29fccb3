"""The interpreter differential check: its seeded programs and how
`scripts/evm_diff.py` groups the programs whose outcomes differ."""

from __future__ import annotations

import functools
import importlib.util
from pathlib import Path
from unittest import mock

import evm_programs
from dogefuzz import evm
from dogefuzz.cfg import analyze

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


def test_reapplied_net_changes_leave_what_a_persisted_run_leaves() -> None:
    """Each successful program's net changes, added to the state it started
    from, leave the state its persisted run leaves; a program that wrote
    code is refused and its state left as it was."""
    reapplied = refused = 0
    for seed in range(300):
        state, tx = evm_programs.world(evm_programs.generate(seed))
        persisted = evm.snapshot_state(state)
        trace = evm.execute_transaction(state, tx, persist=False)
        evm.execute_transaction(persisted, tx)
        start = evm.snapshot_state(state)
        if evm.reapply(state, trace.writes):
            assert state == persisted, seed
            reapplied += bool(trace.writes)
        else:
            assert state == start, seed
            refused += 1
    assert reapplied >= 15 and refused >= 3


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


def test_a_quarter_of_the_programs_enter_a_compiled_chain() -> None:
    # the first entry of a chain compiles it; each program gets a decode
    # of its own, so that no chain is compiled before the program runs
    programs = 2000
    entered = set()
    compile_chain = evm._compile_chain
    for seed in range(programs):
        program = evm_programs.generate(seed)
        with mock.patch.object(evm, "analyze", functools.cache(analyze.__wrapped__)), \
                mock.patch.object(evm, "_compile_chain",
                                  wraps=compile_chain) as compiler:
            evm_programs.digests(program)
        if compiler.called:
            entered.add(seed)
    assert len(entered) >= programs // 4
