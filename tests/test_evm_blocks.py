"""Coverage at basic-block boundaries: faults inside a block, fall-through
after a JUMPI, rejected jumps, truncated pushes, reentrant frames, and the
order of `executed_pcs` keys."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dogefuzz import opcodes as op
from dogefuzz.asm import Assembler
from dogefuzz.evm import (
    AGENT_ADDRESS,
    EventKind,
    PolicyKind,
    Transaction,
    TxStatus,
    WorldState,
    contract_address,
    deploy_contract,
    execute_transaction,
)

from evm_utils import P, code, dynamic_edges, run


def _instruction_starts(raw: bytes) -> list[int]:
    """Independent linear sweep: the pc of every instruction in `raw`."""
    starts, pc = [], 0
    while pc < len(raw):
        starts.append(pc)
        pc += 1 + op.push_size(raw[pc])
    return starts


def _blocks(raw: bytes) -> list[list[int]]:
    """Instruction pcs grouped by the leader rule: a block starts at pc 0,
    at each JUMPDEST and after each jump, halting or undefined byte."""
    blocks: list[list[int]] = []
    ends_previous = True
    for pc in _instruction_starts(raw):
        byte = raw[pc]
        if ends_previous or byte == op.JUMPDEST:
            blocks.append([])
        blocks[-1].append(pc)
        ends_previous = (byte in (op.JUMP, op.JUMPI) or byte in op.HALTING
                         or byte not in op.MNEMONICS)
    return blocks


def _chain(*pcs: int) -> set[tuple[int, int]]:
    return set(zip(pcs, pcs[1:]))


# --- faults inside a block ------------------------------------------------

def test_out_of_gas_on_third_instruction_stops_coverage() -> None:
    # one five-instruction block: PUSH1, PUSH1, ADD, POP, STOP
    snippet = code(P(1), P(2), op.ADD, op.POP, op.STOP)
    assert _blocks(snippet) == [[0, 2, 4, 5, 6]]
    trace, _, address = run(snippet, gas=8)  # the ADD needs gas 9
    assert trace.status is TxStatus.OUT_OF_GAS
    assert trace.gas_used == 8
    assert trace.executed_pcs == {address: {0, 2, 4}}
    assert dynamic_edges(trace, address) == _chain(0, 2, 4)


def test_stack_underflow_mid_block_stops_coverage() -> None:
    snippet = code(P(1), op.ADD, P(3), op.STOP)
    trace, _, address = run(snippet, gas=50_000)
    assert trace.status is TxStatus.INVALID_OPCODE
    assert trace.gas_used == 50_000
    assert trace.executed_pcs == {address: {0, 2}}
    assert dynamic_edges(trace, address) == _chain(0, 2)


@pytest.mark.parametrize("probe,kind,fault", [
    (op.TIMESTAMP, EventKind.TIMESTAMP, code(P(1), P(0), op.SSTORE)),
    (op.NUMBER, EventKind.BLOCK_NUMBER, code(P(1 << 20, 3), op.MLOAD)),
], ids=["sstore", "memory"])
def test_dynamic_out_of_gas_keeps_earlier_event(probe: int, kind: EventKind,
                                                fault: bytes) -> None:
    snippet = code(probe, op.POP, fault, op.STOP)
    faulting = len(snippet) - 2
    expected = [pc for pc in _instruction_starts(snippet) if pc <= faulting]
    assert len(_blocks(snippet)) == 1
    trace, state, address = run(snippet, gas=5_000)
    assert trace.status is TxStatus.OUT_OF_GAS
    assert [(e.kind, e.pc) for e in trace.events] == [(kind, 0)]
    assert trace.executed_pcs == {address: set(expected)}
    assert dynamic_edges(trace, address) == _chain(*expected)
    assert state.account(address).storage == {}


# every opcode that pushes one word without popping, bar PUSH and DUP
CONTEXT_PUSHES = ("ADDRESS ORIGIN CALLER CALLVALUE CALLDATASIZE CODESIZE "
                  "RETURNDATASIZE COINBASE TIMESTAMP NUMBER DIFFICULTY "
                  "GASLIMIT PC MSIZE GAS").split()


def test_context_pushes_are_the_zero_in_one_out_row() -> None:
    assert {op.OPCODES[name] for name in CONTEXT_PUSHES} == {
        byte for byte, effect in op.STACK_EFFECTS.items() if effect == (0, 1)}


@pytest.mark.parametrize("name", CONTEXT_PUSHES)
def test_push_past_the_stack_limit_faults_at_its_pc(name: str) -> None:
    opcode = op.OPCODES[name]
    trace, _, _ = run(code(bytes([opcode]) * 1024, op.STOP))
    assert trace.status is TxStatus.SUCCESS, "1024 slots are allowed"

    snippet = code(bytes([opcode]) * 1030, op.STOP)
    trace, _, address = run(snippet, gas=50_000)
    assert trace.status is TxStatus.INVALID_OPCODE
    assert trace.gas_used == 50_000
    # the 1025th push is the faulting instruction; nothing after it runs
    assert trace.executed_pcs == {address: set(range(1025))}
    assert dynamic_edges(trace, address) == _chain(*range(1025))
    assert all(event.pc < 1024 for event in trace.events)


@pytest.mark.parametrize("name", ["PUSH1", "DUP1"])
def test_push_or_dup_past_the_stack_limit_faults_at_its_pc(name: str) -> None:
    # a PUSH1 0 first, then the opcode under test over and over
    unit = P(0) if name == "PUSH1" else code(op.DUP1)
    trace, _, _ = run(code(P(0), unit * 1023, op.STOP))
    assert trace.status is TxStatus.SUCCESS, "1024 slots are allowed"

    trace, _, address = run(code(P(0), unit * 1029, op.STOP), gas=50_000)
    assert trace.status is TxStatus.INVALID_OPCODE
    assert trace.gas_used == 50_000
    # the instruction pushing the 1025th entry faults; nothing after it runs
    ran = [0, *range(2, 2 + 1024 * len(unit), len(unit))]
    assert trace.executed_pcs == {address: set(ran)}
    assert dynamic_edges(trace, address) == _chain(*ran)


# --- gas segments ---------------------------------------------------------
# A block pays its base gas and checks its stack room once per segment, and
# a segment ends after each instruction whose charge depends on operands or
# state.  Each case below is one block with such a charge inside it, run at
# gas limits on both sides of every boundary: the run stops at the exact
# instruction where the gas runs out or the stack overflows or underflows,
# and keeps the events before it.

def _assert_stops_at(snippet: bytes, gas: int, status: TxStatus, last: int,
                     events: list[tuple[EventKind, int]]) -> None:
    """Running `snippet` with `gas` ends with `status` after running every
    instruction up to pc `last`, and emits the `events` before `last`."""
    assert len(_blocks(snippet)) == 1
    trace, _, address = run(snippet, gas=gas)
    assert trace.status is status
    if status is not TxStatus.SUCCESS:
        assert trace.gas_used == gas
    ran = [pc for pc in _instruction_starts(snippet) if pc <= last]
    assert trace.executed_pcs == {address: set(ran)}
    assert dynamic_edges(trace, address) == _chain(*ran)
    assert [(e.kind, e.pc) for e in trace.events] == \
        [(kind, pc) for kind, pc in events if pc < last]


# 0 TIMESTAMP (2 gas); 1 PUSH1 0; 3 MLOAD, 3 gas and 3 for its new word;
# 4 NUMBER (2); 5 ADD; 6 STOP: 16 gas in all
_EVENT_MLOAD_EVENT_ADD = code(op.TIMESTAMP, P(0), op.MLOAD, op.NUMBER, op.ADD,
                              op.STOP)


@pytest.mark.parametrize("gas,status,last", [
    (10, TxStatus.OUT_OF_GAS, 3),  # MLOAD's base gas fits, its word does not
    (12, TxStatus.OUT_OF_GAS, 4),  # NUMBER
    (15, TxStatus.OUT_OF_GAS, 5),  # the ADD, after both events
    (16, TxStatus.SUCCESS, 6),
    (18, TxStatus.SUCCESS, 6),
])
def test_memory_charge_mid_block_faults_where_gas_runs_out(
        gas: int, status: TxStatus, last: int) -> None:
    _assert_stops_at(_EVENT_MLOAD_EVENT_ADD, gas, status, last,
                     [(EventKind.TIMESTAMP, 0), (EventKind.BLOCK_NUMBER, 4)])


# 0 PUSH1 0; 2 MLOAD (3 + 3); 3 POP; 4 GAS; 5 PUSH1 0; 7 MSTORE, no new
# word; 8 PUSH1 32; 10 PUSH1 0; 12 RETURN of what GAS read: 25 gas in all
_GAS_AFTER_MLOAD = code(P(0), op.MLOAD, op.POP, op.GAS, P(0), op.MSTORE,
                        P(32), P(0), op.RETURN)


@pytest.mark.parametrize("gas,status,last", [
    (22, TxStatus.OUT_OF_GAS, 10),
    (24, TxStatus.OUT_OF_GAS, 10),
    (25, TxStatus.SUCCESS, 12),
    (10_000, TxStatus.SUCCESS, 12),
])
def test_gas_ends_its_segment_and_reads_what_is_left(
        gas: int, status: TxStatus, last: int) -> None:
    _assert_stops_at(_GAS_AFTER_MLOAD, gas, status, last, [])
    if status is TxStatus.SUCCESS:
        trace, _, _ = run(_GAS_AFTER_MLOAD, gas=gas)
        assert trace.gas_used == 25
        # PUSH1, MLOAD and its word, POP and GAS paid; the rest, in the
        # segment after GAS, not yet
        assert int.from_bytes(trace.return_data, "big") == gas - 13


# 1021 PUSH1 0, then 2042 TIMESTAMP (2 gas); 2043 PUSH1 0; 2045 MLOAD
# (3 + 3), the 1023rd slot; 2046 NUMBER (2), the 1024th; 2047 PC, one too
# many; 2048 STOP.  Through NUMBER that costs 3076 gas, through PC 3078
_OVERFLOW_AFTER_EVENTS = code(P(0) * 1021, op.TIMESTAMP, P(0), op.MLOAD,
                              op.NUMBER, op.PC, op.STOP)


@pytest.mark.parametrize("gas,status", [
    (3076, TxStatus.OUT_OF_GAS),  # the memory word leaves PC unpaid
    (3077, TxStatus.OUT_OF_GAS),
    (3078, TxStatus.INVALID_OPCODE),
    (3080, TxStatus.INVALID_OPCODE),
    (50_000, TxStatus.INVALID_OPCODE),
])
def test_stack_overflow_mid_block_keeps_earlier_events(
        gas: int, status: TxStatus) -> None:
    _assert_stops_at(_OVERFLOW_AFTER_EVENTS, gas, status, 2047,
                     [(EventKind.TIMESTAMP, 2042), (EventKind.BLOCK_NUMBER, 2046)])


# 0 TIMESTAMP (2 gas); 1 PUSH1 0; 3 MLOAD (3 + 3); 4 ADD; 5 ADD, one word
# short; 6, 8, 10 PUSH1 1; 12 STOP.  The segment after MLOAD starts with
# 11 gas paid and needs 15
_UNDERFLOW_AFTER_MLOAD = code(op.TIMESTAMP, P(0), op.MLOAD, op.ADD, op.ADD,
                              P(1), P(1), P(1), op.STOP)


@pytest.mark.parametrize("gas,status,last", [
    (13, TxStatus.OUT_OF_GAS, 4),
    (16, TxStatus.OUT_OF_GAS, 5),
    (17, TxStatus.INVALID_OPCODE, 5),  # the segment cannot pay its PUSHes
    (18, TxStatus.INVALID_OPCODE, 5),
    (20, TxStatus.INVALID_OPCODE, 5),
    (50_000, TxStatus.INVALID_OPCODE, 5),
])
def test_underflow_before_a_segment_runs_out_of_gas(
        gas: int, status: TxStatus, last: int) -> None:
    _assert_stops_at(_UNDERFLOW_AFTER_MLOAD, gas, status, last,
                     [(EventKind.TIMESTAMP, 0)])


# --- control transfer -----------------------------------------------------

def test_untaken_jumpi_falls_into_plain_block() -> None:
    # 0 PUSH1 0; 2 PUSH1 9; 4 JUMPI; 5 PUSH1 1; 7 POP; 8 STOP; 9 JUMPDEST; 10 STOP
    snippet = code(P(0), P(9), op.JUMPI, P(1), op.POP, op.STOP,
                   op.JUMPDEST, op.STOP)
    assert _blocks(snippet) == [[0, 2, 4], [5, 7, 8], [9, 10]]
    trace, _, address = run(snippet)
    assert trace.status is TxStatus.SUCCESS
    assert trace.executed_pcs == {address: {0, 2, 4, 5, 7, 8}}
    assert dynamic_edges(trace, address) == _chain(0, 2, 4, 5, 7, 8)
    # the fall-through is the block edge the static graph already has
    assert trace.transitions == {(0, 5)}


def test_taken_jump_records_the_site_to_jumpdest_pair() -> None:
    snippet = code(P(1), P(9), op.JUMPI, P(1), op.POP, op.STOP,
                   op.JUMPDEST, op.STOP)
    trace, _, address = run(snippet)
    assert trace.status is TxStatus.SUCCESS
    assert trace.executed_pcs == {address: {0, 2, 4, 9, 10}}
    assert dynamic_edges(trace, address) == _chain(0, 2, 4, 9, 10)
    # recorded as the edge from the jumping block's start: the JUMPI at
    # pc 4 ends the block that starts at 0
    assert trace.transitions == {(0, 9)}


def test_jump_into_push_data_is_rejected() -> None:
    # 0 PUSH1 4; 2 JUMP; 3 PUSH2 0x5b00 (the 0x5b at pc 4 is data); 6 STOP
    snippet = code(P(4), op.JUMP, bytes([op.PUSH1 + 1, op.JUMPDEST, 0x00]),
                   op.STOP)
    trace, _, address = run(snippet, gas=50_000)
    assert trace.status is TxStatus.INVALID_OPCODE
    assert trace.gas_used == 50_000
    assert trace.executed_pcs == {address: {0, 2}}
    assert dynamic_edges(trace, address) == _chain(0, 2)


def test_truncated_final_push_runs_off_the_end() -> None:
    # PUSH3 with two of its three immediate bytes, then end of code
    snippet = code(P(1), op.POP, op.PUSH1 + 2, 0xAB, 0xCD)
    assert _instruction_starts(snippet) == [0, 2, 3]
    trace, _, address = run(snippet)
    assert trace.status is TxStatus.SUCCESS
    assert trace.gas_used == 3 + 2 + 3
    assert trace.executed_pcs == {address: {0, 2, 3}}
    assert dynamic_edges(trace, address) == _chain(0, 2, 3)


# --- frames ---------------------------------------------------------------

def _flagged_reentry() -> tuple[bytes, dict[str, int]]:
    """Set a flag and call the agent; a frame entered with the flag set
    jumps straight to `inner` and stops."""
    a = Assembler()
    a.push(1).op("SLOAD").push_label("inner").op("JUMPI")
    a.push(1).push(1).op("SSTORE")
    a.push(0).push(0).push(0).push(0).push(0)
    a.push_address(AGENT_ADDRESS).op("GAS", "CALL")
    a.op("POP", "STOP")
    a.dest("inner").op("STOP")
    raw = a.assemble()
    call = raw.index(bytes([op.GAS, op.CALL])) + 1
    inner = len(raw) - 2
    return raw, {"jumpi": 6, "call": call, "inner": inner}


def test_reentrant_frame_adds_its_own_edges() -> None:
    raw, at = _flagged_reentry()
    policy = PolicyKind.REENTRANT
    trace, _, address = run(raw, policy=policy)
    assert trace.status is TxStatus.SUCCESS
    assert any(e.kind is EventKind.REENTRANCY for e in trace.events)
    edges = dynamic_edges(trace, address)
    # only the reentrant frame takes the JUMPI into `inner`, an edge from
    # the entry block; the outer frame falls through to the call
    assert (0, at["inner"]) in trace.transitions
    assert (0, at["jumpi"] + 1) in trace.transitions
    assert (at["jumpi"], at["inner"]) in edges
    assert (at["inner"], at["inner"] + 1) in edges
    assert {at["inner"], at["inner"] + 1} <= trace.executed_pcs[address]
    # no pair joins the outer frame's CALL to the inner frame or back
    assert all(dst != 0 for _, dst in edges)
    assert (at["call"], at["call"] + 1) in edges
    assert all(src != at["inner"] + 1 for src, _ in edges)
    benign, _, benign_address = run(raw)
    benign_edges = dynamic_edges(benign, benign_address)
    assert (at["jumpi"], at["inner"]) not in benign_edges
    assert benign_edges < edges
    assert benign.transitions == {(0, at["jumpi"] + 1)}
    assert benign.transitions < trace.transitions


def test_executed_pcs_keys_follow_frame_entry_order() -> None:
    state = WorldState()
    state.account(AGENT_ADDRESS).balance = 10 ** 18
    first = deploy_contract(state, code(P(1), op.POP, op.STOP))
    second = deploy_contract(state, code(op.STOP))

    def call(to: bytes) -> bytes:
        return code(P(0), P(0), P(0), P(0), P(0), bytes([op.PUSH1 + 19]) + to,
                    op.GAS, op.CALL, op.POP)

    # calls `second`, then `first`, then CREATE with empty init code
    caller_code = code(call(second), call(first), P(0), P(0), P(0), op.CREATE,
                       op.POP, op.STOP)
    caller = deploy_contract(state, caller_code)
    created = contract_address(caller, 0)
    trace = execute_transaction(state, Transaction(target=caller))
    assert trace.status is TxStatus.SUCCESS
    assert list(trace.executed_pcs) == [caller, second, first, created]
    assert trace.executed_pcs[first] == {0, 2, 3}
    assert trace.executed_pcs[second] == {0}
    assert trace.executed_pcs[created] == set()
    # edges come from the target's frame only: its straight-line run
    assert dynamic_edges(trace, caller) == \
        _chain(*_instruction_starts(caller_code))


# --- random bytecode ------------------------------------------------------

_ATOMS = st.one_of(
    st.sampled_from([op.JUMPDEST, op.JUMP, op.JUMPI, op.POP, op.ADD, op.DUP1,
                     op.SWAP1, op.ISZERO, op.CALLVALUE, op.SLOAD, op.SSTORE,
                     op.MSTORE, op.TIMESTAMP, op.STOP, op.INVALID, 0x0C,
                     # child frames, the agent and init code
                     op.CALL, op.CALLCODE, op.DELEGATECALL, op.STATICCALL,
                     op.CREATE, op.ADDRESS, op.CALLER, op.GAS])
    .map(lambda byte: bytes([byte])),
    st.integers(0, 63).map(lambda v: bytes([op.PUSH1, v])),
    st.binary(min_size=1, max_size=4),
    # whole call and create sites, so that programs do reach child frames:
    # themselves (ADDRESS), the agent (CALLER) and init code from memory
    st.builds(lambda opcode, to: P(0) * (5 if opcode in (op.CALL, op.CALLCODE) else 4)
              + bytes([to, op.GAS, opcode]),
              st.sampled_from([op.CALL, op.CALLCODE, op.DELEGATECALL, op.STATICCALL]),
              st.sampled_from([op.ADDRESS, op.CALLER])),
    st.integers(0, 64).map(lambda size: code(P(size), P(0), P(0), op.CREATE)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ATOMS, max_size=40).map(b"".join),
       st.sampled_from(list(PolicyKind)),
       st.integers(30, 200_000))
def test_random_code_coverage_is_block_consistent(raw: bytes,
                                                  policy: PolicyKind,
                                                  gas: int) -> None:
    trace, _, address = run(raw, gas=gas, policy=policy)
    starts = _instruction_starts(raw)
    executed = trace.executed_pcs.get(address, set())
    assert executed <= set(starts)
    for block in _blocks(raw):
        ran = [pc in executed for pc in block]
        assert ran == sorted(ran, reverse=True), (block, executed)
    # transitions are edges between block starts, each leaving a block
    # that ran whole
    blocks = {block[0]: block for block in _blocks(raw)}
    for src, dst in trace.transitions:
        assert dst in blocks and blocks[src][-1] in executed, (src, dst)
    following = dict(zip(starts, starts[1:]))
    for src, dst in dynamic_edges(trace, address):
        assert {src, dst} <= executed
        jumped = (raw[src] in (op.JUMP, op.JUMPI) and dst in starts
                  and raw[dst] == op.JUMPDEST)
        assert dst == following.get(src) or jumped, (src, dst)
