"""Transaction-level behavior: agent policies, reentrancy flow, snapshots,
deployment modes, balance conservation, and randomized cross-checks."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dogefuzz import evm
from dogefuzz import opcodes as op
from dogefuzz.asm import Assembler
from dogefuzz.evm import (
    AGENT_ADDRESS,
    AGENT_CALL_GAS,
    BALANCE,
    CODE,
    DEPLOYER_ADDRESS,
    NONCE,
    PRESENT,
    DeploymentError,
    EventKind,
    PolicyKind,
    Transaction,
    TxStatus,
    WorldState,
    contract_address,
    deploy_contract,
    execute_transaction,
    reapply,
    snapshot_state,
)

from evm_utils import MAX, P, RETURN_TOP, code, dynamic_edges, run, run_top


def fresh_state() -> WorldState:
    state = WorldState()
    state.account(AGENT_ADDRESS).balance = 10 ** 18
    state.account(DEPLOYER_ADDRESS).balance = 10 ** 18
    return state


def vault_code() -> bytes:
    """Deposit on empty calldata; withdraw-and-zero (checked call) otherwise."""
    a = Assembler()
    a.op("CALLDATASIZE").push_label("withdraw").op("JUMPI")
    # deposit: balances[caller] += value
    a.op("CALLVALUE", "CALLER", "SLOAD", "ADD", "CALLER", "SSTORE", "STOP")
    a.dest("withdraw")
    a.push(0).push(0).push(0).push(0)
    a.op("CALLER", "SLOAD", "CALLER", "GAS", "CALL")
    a.op("ISZERO").push_label("fail").op("JUMPI")
    a.push(0).op("CALLER", "SSTORE", "STOP")
    a.dest("fail")
    a.push(0).push(0).op("REVERT")
    return a.assemble()


def deploy_vault(extra_liquidity: int = 1000) -> tuple[WorldState, bytes]:
    state = fresh_state()
    address = deploy_contract(state, vault_code(), endowment=extra_liquidity)
    return state, address


WITHDRAW = b"\x01"  # any nonempty calldata selects the withdraw branch


# --- agent behaviors ------------------------------------------------------

def test_benign_agent_accepts_and_charges_fee() -> None:
    state, vault = deploy_vault()
    deposit = execute_transaction(state, Transaction(target=vault, value=100))
    assert deposit.status is TxStatus.SUCCESS
    withdraw = execute_transaction(state, Transaction(target=vault, calldata=WITHDRAW))
    assert withdraw.status is TxStatus.SUCCESS
    assert withdraw.gas_used > AGENT_CALL_GAS
    assert state.balance_of(AGENT_ADDRESS) == 10 ** 18  # deposit came back
    assert state.account(vault).storage == {}


def test_thrower_agent_makes_checked_call_revert() -> None:
    state, vault = deploy_vault()
    execute_transaction(state, Transaction(target=vault, value=100))
    policy = PolicyKind.THROWER
    withdraw = execute_transaction(
        state, Transaction(target=vault, calldata=WITHDRAW, agent_policy=policy))
    assert withdraw.status is TxStatus.REVERTED
    # balance entry still intact, money still in the vault
    assert state.account(vault).storage == {int.from_bytes(AGENT_ADDRESS, "big"): 100}
    assert state.balance_of(vault) == 1100
    assert all(e.kind is not EventKind.EXCEPTION_DISORDER for e in withdraw.events)


def test_reentrant_agent_drains_vault() -> None:
    state, vault = deploy_vault(extra_liquidity=1000)
    execute_transaction(state, Transaction(target=vault, value=100))
    policy = PolicyKind.REENTRANT
    withdraw = execute_transaction(
        state, Transaction(target=vault, calldata=WITHDRAW, agent_policy=policy))
    assert withdraw.status is TxStatus.SUCCESS
    kinds = [e.kind for e in withdraw.events]
    assert EventKind.REENTRANCY in kinds
    assert EventKind.ETHER_TRANSFER in kinds
    reentry = next(e for e in withdraw.events if e.kind is EventKind.REENTRANCY)
    assert reentry.data == (vault,)
    assert reentry.depth == 3  # vault -> agent -> vault again
    # the inner frame transferred at depth >= the re-entered depth
    deep = [e for e in withdraw.events
            if e.kind in (EventKind.ETHER_TRANSFER, EventKind.STORAGE_CHANGED)
            and e.depth >= reentry.depth]
    assert deep
    # double payout: 100 deposited, 200 withdrawn
    assert state.balance_of(vault) == 900
    assert state.balance_of(AGENT_ADDRESS) == 10 ** 18 + 100


def test_reentrant_withdraw_emits_one_reentrancy_event() -> None:
    # the agent is never a live frame, so the re-entered vault's call back
    # into the agent is not a second re-entry
    state, vault = deploy_vault()
    execute_transaction(state, Transaction(target=vault, value=100))
    withdraw = execute_transaction(
        state, Transaction(target=vault, calldata=WITHDRAW,
                           agent_policy=PolicyKind.REENTRANT))
    reentries = [(e.depth, e.data) for e in withdraw.events
                 if e.kind is EventKind.REENTRANCY]
    assert reentries == [(3, (vault,))]


def test_reentries_bounded_by_policy(monkeypatch) -> None:
    # the shipped cap, then a larger one to show the count follows it
    for cap in (evm.MAX_REENTRIES, 3):
        monkeypatch.setattr(evm, "MAX_REENTRIES", cap)
        state, vault = deploy_vault(extra_liquidity=10_000)
        execute_transaction(state, Transaction(target=vault, value=100))
        withdraw = execute_transaction(
            state, Transaction(target=vault, calldata=WITHDRAW,
                               agent_policy=PolicyKind.REENTRANT))
        assert withdraw.status is TxStatus.SUCCESS
        reentries = [e for e in withdraw.events
                     if e.kind is EventKind.REENTRANCY and e.data == (vault,)]
        assert len(reentries) == cap
        assert state.balance_of(AGENT_ADDRESS) == 10 ** 18 + 100 * cap


def test_agent_under_stipend_runs_out_of_gas() -> None:
    # unchecked send pattern: gasless-send event regardless of policy kind
    a = Assembler()
    a.push(0).push(0).push(0).push(0).push(1)
    a.push_address(AGENT_ADDRESS).push(0).op("CALL", "POP", "STOP")
    for kind in (PolicyKind.BENIGN, PolicyKind.REENTRANT):
        trace, _, _ = run(a.assemble(), endowment=5, policy=kind)
        assert trace.status is TxStatus.SUCCESS
        assert any(e.kind is EventKind.GASLESS_SEND for e in trace.events), kind
    thrower, _, _ = run(a.assemble(), endowment=5, policy=PolicyKind.THROWER)
    # throws before spending the stipend: a swallowed revert, not gasless
    assert all(e.kind is not EventKind.GASLESS_SEND for e in thrower.events)
    assert any(e.kind is EventKind.EXCEPTION_DISORDER for e in thrower.events)


def _agent_call_flag(gas_req: int) -> bytes:
    """A CALL into the agent forwarding `gas_req`; returns its flag."""
    a = Assembler()
    a.push(0).push(0).push(0).push(0).push(0)
    a.push_address(AGENT_ADDRESS).push(gas_req).op("CALL")
    return a.assemble() + RETURN_TOP


def _agent_call(gas_req: int, policy: PolicyKind) -> tuple[int, int, list[EventKind]]:
    """(flag, gas used, event kinds) of a transaction making one such call."""
    trace, _, _ = run(_agent_call_flag(gas_req), policy=policy)
    assert trace.status is TxStatus.SUCCESS
    return (int.from_bytes(trace.return_data, "big"), trace.gas_used,
            [e.kind for e in trace.events])


def test_thrower_agent_under_three_gas_runs_out_of_it() -> None:
    _, spent_without_gas, _ = _agent_call(0, PolicyKind.THROWER)
    # under 3 gas it cannot even throw: all 2 are gone
    flag, used, kinds = _agent_call(2, PolicyKind.THROWER)
    assert flag == 0 and used == spent_without_gas + 2
    assert kinds == [EventKind.EXCEPTION_DISORDER]
    # with 5 it throws for 3 and returns the other 2
    flag, used, _ = _agent_call(5, PolicyKind.THROWER)
    assert flag == 0 and used == spent_without_gas + 3


def test_reentrant_agent_that_cannot_pay_the_reentry_call_runs_out_of_gas() -> None:
    _, spent_without_gas, _ = _agent_call(0, PolicyKind.REENTRANT)
    short = AGENT_CALL_GAS + op.GAS_CALL_BASE - 1
    flag, used, kinds = _agent_call(short, PolicyKind.REENTRANT)
    assert flag == 0 and used == spent_without_gas + short
    assert EventKind.REENTRANCY not in kinds
    flag, _, kinds = _agent_call(short + 50_000, PolicyKind.REENTRANT)
    assert flag == 1 and EventKind.REENTRANCY in kinds


# --- state lifecycle ------------------------------------------------------

def test_snapshot_restore_roundtrip() -> None:
    state, vault = deploy_vault()
    snap = snapshot_state(state)
    execute_transaction(state, Transaction(target=vault, value=100))
    assert state != snap
    restored = snapshot_state(snap)
    assert restored == snap
    # the snapshot survives mutations of the restored copy
    restored.account(vault).storage[99] = 1
    assert snapshot_state(snap) == snap


def test_failed_transaction_leaves_state_intact() -> None:
    state, vault = deploy_vault()
    snap = snapshot_state(state)
    trace = execute_transaction(
        state, Transaction(target=vault, calldata=WITHDRAW,
                           agent_policy=PolicyKind.THROWER, value=3))
    assert trace.status is TxStatus.REVERTED
    assert state == snap


def test_persist_false_rolls_back_but_reports_diff() -> None:
    state, vault = deploy_vault()
    snap = snapshot_state(state)
    trace = execute_transaction(
        state, Transaction(target=vault, value=100), persist=False)
    assert trace.status is TxStatus.SUCCESS
    assert [e.data for e in trace.events if e.kind is EventKind.STORAGE_CHANGED] == [
        (vault, int.from_bytes(AGENT_ADDRESS, "big"), 0, 100)]
    assert state == snap


def _child_writes_then_reverts() -> tuple[WorldState, bytes]:
    """A parent that calls a child which stores a new value and reverts."""
    state = fresh_state()
    child = deploy_contract(state, code(P(1), P(0), op.SSTORE,
                                        P(0), P(0), op.REVERT))
    parent = deploy_contract(state, code(
        P(0), P(0), P(0), P(0), P(0), bytes([op.PUSH1 + 19]) + child,
        P(100_000, 4), op.CALL, op.POP, op.STOP))
    return state, parent


def _changes_state_case(name: str) -> tuple[WorldState, Transaction]:
    if name == "child_reverts":
        state, target = _child_writes_then_reverts()
        return state, Transaction(target=target)
    state = fresh_state()
    value = 0
    if name == "same_value":
        body = code(P(5), P(0), op.SSTORE, op.STOP)
    elif name == "revert":
        body = code(P(5), P(1), op.SSTORE, P(0), P(0), op.REVERT)
    elif name == "transfer":
        body, value = code(op.STOP), 7
    elif name == "new_value":
        body = code(P(6), P(0), op.SSTORE, op.STOP)
    else:  # create: an empty-init CREATE bumps the nonce and makes an account
        body = code(P(0), P(0), P(0), op.CREATE, op.POP, op.STOP)
    target = deploy_contract(state, body)
    state.account(target).storage[0] = 5
    return state, Transaction(target=target, value=value)


@pytest.mark.parametrize("persist", [True, False])
@pytest.mark.parametrize("name,changes", [
    ("same_value", False), ("revert", False), ("child_reverts", False),
    ("transfer", True), ("new_value", True), ("create", True),
])
def test_changes_state_flags_left_journal_writes(name, changes, persist) -> None:
    state, tx = _changes_state_case(name)
    snap = snapshot_state(state)
    trace = execute_transaction(state, tx, persist=persist)
    assert trace.status is (TxStatus.REVERTED if name == "revert"
                            else TxStatus.SUCCESS)
    assert bool(trace.writes) is changes
    # each location's net change: an amount added, new code, or None for a
    # created account
    created = contract_address(tx.target, 0)
    assert trace.writes == {
        "transfer": {(AGENT_ADDRESS, BALANCE): -7, (tx.target, BALANCE): 7},
        "new_value": {(tx.target, 0): 1},
        "create": {(tx.target, NONCE): 1, (created, PRESENT): None,
                   (created, CODE): b""},
    }.get(name, {})
    if persist:
        assert (state != snap) is changes
        return
    assert state == snap
    # the net changes leave what the persisted run leaves, but those of a
    # run that wrote code are refused, touching nothing
    persisted = snapshot_state(snap)
    execute_transaction(persisted, tx)
    applied = reapply(state, trace.writes)
    assert applied is (name != "create")
    assert state == (persisted if applied else snap)


@pytest.mark.parametrize("persist", [True, False])
def test_selfdestruct_journals_each_field_it_clears(persist) -> None:
    """A contract holding slot 3 and 50 wei writes slots 1 and 2, then
    self-destructs to itself: the balance burns and everything rolls back
    or is kept, and the net changes name every field cleared."""
    state = fresh_state()
    target = deploy_contract(state, code(
        P(7), P(1), op.SSTORE, P(8), P(2), op.SSTORE,
        op.ADDRESS, op.SELFDESTRUCT), endowment=50)
    state.account(target).storage[3] = 9
    snap = snapshot_state(state)
    trace = execute_transaction(state, Transaction(target=target),
                                persist=persist)
    assert trace.status is TxStatus.SUCCESS
    assert trace.writes.keys() == {(target, CODE), (target, BALANCE),
                                   (target, 1), (target, 2), (target, 3)}
    # slots 1 and 2 were set and cleared; slot 3 lost 9, the balance 50
    assert trace.writes == {(target, 1): 0, (target, 2): 0, (target, 3): -9,
                            (target, BALANCE): -50, (target, CODE): b""}
    if not persist:
        assert state == snap
        return
    acct = state.accounts[target]
    assert (acct.balance, acct.code, acct.storage) == (0, b"", {})


def test_value_above_sender_balance_is_rejected() -> None:
    state, vault = deploy_vault()
    with pytest.raises(ValueError):
        execute_transaction(state, Transaction(target=vault, value=10 ** 19))


def test_negative_value_is_rejected_before_anything_runs() -> None:
    state, vault = deploy_vault()
    snap = snapshot_state(state)
    with pytest.raises(ValueError, match="negative"):
        execute_transaction(state, Transaction(target=vault, value=-1))
    assert state == snap


def test_transaction_to_codeless_account() -> None:
    state = fresh_state()
    trace = execute_transaction(
        state, Transaction(target=b"\x07" * 20, value=25))
    assert trace.status is TxStatus.SUCCESS
    assert trace.events == [] and trace.executed_pcs == {}
    assert state.balance_of(b"\x07" * 20) == 25


def test_balance_conservation_across_transfers() -> None:
    state, vault = deploy_vault()
    total = sum(a.balance for a in state.accounts.values())
    rng = random.Random(7)
    for _ in range(20):
        calldata = WITHDRAW if rng.random() < 0.5 else b""
        value = rng.randrange(0, 50)
        policy = rng.choice(list(PolicyKind))
        execute_transaction(
            state, Transaction(target=vault, calldata=calldata, value=value,
                               agent_policy=policy))
        assert sum(a.balance for a in state.accounts.values()) == total


def test_trace_is_deterministic_from_equal_states() -> None:
    state, vault = deploy_vault()
    execute_transaction(state, Transaction(target=vault, value=100))
    snap = snapshot_state(state)
    tx = Transaction(target=vault, calldata=WITHDRAW,
                     agent_policy=PolicyKind.REENTRANT)
    first = execute_transaction(snapshot_state(snap), tx)
    second = execute_transaction(snapshot_state(snap), tx)
    assert first.events == second.events
    assert first.executed_pcs == second.executed_pcs
    assert dynamic_edges(first, vault) == dynamic_edges(second, vault)
    assert first.gas_used == second.gas_used


def test_executed_pcs_keyed_by_code_address() -> None:
    state = fresh_state()
    callee = deploy_contract(state, code(op.STOP))
    call_site = code(P(0, 2), P(0, 2), P(0, 2), P(0, 2), P(0, 2),
                     bytes([op.PUSH1 + 19]) + callee, P(100_000, 4))
    caller = deploy_contract(state, call_site + code(op.CALL, op.POP, op.STOP))
    trace = execute_transaction(state, Transaction(target=caller))
    assert set(trace.executed_pcs) == {caller, callee}
    assert trace.executed_pcs[callee] == {0}
    # dynamic edges are tracked for the fuzzed target only
    assert all(src < len(call_site) + 3
               for src, _ in dynamic_edges(trace, caller))


# --- deployment -----------------------------------------------------------

def test_runtime_mode_installs_verbatim() -> None:
    state = fresh_state()
    address = deploy_contract(state, code(op.STOP), "runtime", endowment=9)
    assert state.code_of(address) == code(op.STOP)
    assert state.balance_of(address) == 9
    assert address == contract_address(DEPLOYER_ADDRESS, 0)


def test_deploy_addresses_follow_nonce() -> None:
    state = fresh_state()
    first = deploy_contract(state, code(op.STOP))
    second = deploy_contract(state, code(op.STOP))
    assert first != second
    assert second == contract_address(DEPLOYER_ADDRESS, 1)


def _constructor_fixture() -> bytes:
    """Init code: store the deployer, copy one arg word, return the runtime."""
    runtime = code(P(0), op.SLOAD) + RETURN_TOP
    a = Assembler()
    a.op("CALLER").push(0).op("SSTORE")
    # constructor argument: one word appended after the code body
    a.push(32).push_label("args").push(0).op("CODECOPY")
    a.push(0).op("MLOAD").push(1).op("SSTORE")
    a.push(len(runtime)).push_label("body").push(0).op("CODECOPY")
    a.push(len(runtime)).push(0).op("RETURN")
    a.label("body").raw(runtime)
    a.label("args")
    return a.assemble()


def test_creation_mode_runs_init_code() -> None:
    state = fresh_state()
    address = deploy_contract(
        state, _constructor_fixture(), "creation",
        constructor_args=(777).to_bytes(32, "big"), endowment=5)
    storage = state.account(address).storage
    assert storage[0] == int.from_bytes(DEPLOYER_ADDRESS, "big")
    assert storage[1] == 777
    assert state.balance_of(address) == 5
    # the installed runtime serves transactions
    trace = execute_transaction(state, Transaction(target=address))
    assert int.from_bytes(trace.return_data, "big") == int.from_bytes(DEPLOYER_ADDRESS, "big")


def test_creation_mode_origin_and_caller_are_the_deployer() -> None:
    state = fresh_state()
    init = code(op.ORIGIN, P(0), op.SSTORE, op.CALLER, P(1), op.SSTORE,
                P(0), P(0), op.RETURN)
    address = deploy_contract(state, init, "creation")
    deployer = int.from_bytes(DEPLOYER_ADDRESS, "big")
    assert state.account(address).storage == {0: deployer, 1: deployer}


def test_creation_failure_raises_and_rolls_back() -> None:
    state = fresh_state()
    snap = snapshot_state(state)
    with pytest.raises(DeploymentError):
        deploy_contract(state, code(P(0), P(0), op.REVERT), "creation")
    assert state == snap


def test_failed_creation_into_empty_world_leaves_it_unchanged() -> None:
    # the deployer's account and nonce bump roll back with the init code
    state = WorldState()
    snap = snapshot_state(state)
    with pytest.raises(DeploymentError):
        deploy_contract(state, code(P(0), P(0), op.REVERT), "creation")
    assert state == snap


@pytest.mark.parametrize("mode", ["runtime", "creation"])
def test_endowment_above_deployer_balance_is_rejected(mode: str) -> None:
    state = fresh_state()
    snap = snapshot_state(state)
    with pytest.raises(ValueError, match="deployer balance"):
        deploy_contract(state, code(op.STOP), mode, endowment=10 ** 19)
    assert state == snap


def test_unknown_mode_rejected() -> None:
    with pytest.raises(ValueError):
        deploy_contract(fresh_state(), code(op.STOP), "linked")


# --- randomized cross-checks ---------------------------------------------

def test_arithmetic_against_bigint_oracle_1000_pairs() -> None:
    rng = random.Random(42)
    operations = [
        (op.ADD, lambda a, b: (a + b) & MAX),
        (op.SUB, lambda a, b: (a - b) & MAX),
        (op.MUL, lambda a, b: (a * b) & MAX),
    ]
    state = fresh_state()
    addresses = {
        opcode: deploy_contract(
            state,
            code(P(0), op.CALLDATALOAD, P(32), op.CALLDATALOAD, opcode) + RETURN_TOP)
        for opcode, _ in operations
    }
    for _ in range(1000):
        a = rng.getrandbits(256)
        b = rng.getrandbits(rng.choice((8, 64, 256)))
        opcode, model = rng.choice(operations)
        calldata = b.to_bytes(32, "big") + a.to_bytes(32, "big")
        trace = execute_transaction(
            state, Transaction(target=addresses[opcode], calldata=calldata))
        assert int.from_bytes(trace.return_data, "big") == model(a, b)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, MAX), st.integers(0, MAX))
def test_signed_division_matches_reference(a: int, b: int) -> None:
    def to_signed(x: int) -> int:
        return x - (1 << 256) if x >> 255 else x

    got = run_top(code(P(b, 32), P(a, 32), op.SDIV))
    sa, sb = to_signed(a), to_signed(b)
    if sb == 0:
        expected = 0
    else:
        q = abs(sa) // abs(sb)
        expected = (-q if (sa < 0) != (sb < 0) else q) & MAX
    assert got == expected


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=0, max_size=64))
def test_random_code_failure_never_mutates_state(junk: bytes) -> None:
    state = fresh_state()
    address = deploy_contract(state, junk)
    snap = snapshot_state(state)
    trace = execute_transaction(
        state, Transaction(target=address, calldata=b"\x01\x02", gas_limit=60_000))
    if trace.status is not TxStatus.SUCCESS:
        assert state == snap
    # coverage never exceeds the code length
    for pcs in trace.executed_pcs.values():
        assert all(0 <= pc < max(1, len(junk)) for pc in pcs)
