"""Coverage at basic-block boundaries: faults inside a block, fall-through
after a JUMPI, rejected jumps, truncated pushes, reentrant frames, and the
order of `executed_pcs` keys."""

from __future__ import annotations

import io
import re
import tokenize
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dogefuzz import evm
from dogefuzz import opcodes as op
from dogefuzz.asm import Assembler
from dogefuzz.cfg import STACK_LIMIT, analyze
from dogefuzz.evm import (
    AGENT_ADDRESS,
    EventKind,
    ExecutionTrace,
    PolicyKind,
    Transaction,
    TxStatus,
    WorldState,
    contract_address,
    deploy_contract,
    execute_transaction,
)

from evm_utils import (
    RETURN_TOP,
    P,
    block_runs,
    code,
    dynamic_edges,
    run,
    transitions,
)


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
    assert transitions(trace, address) == {(0, 5)}


def test_taken_jump_records_the_site_to_jumpdest_pair() -> None:
    snippet = code(P(1), P(9), op.JUMPI, P(1), op.POP, op.STOP,
                   op.JUMPDEST, op.STOP)
    trace, _, address = run(snippet)
    assert trace.status is TxStatus.SUCCESS
    assert trace.executed_pcs == {address: {0, 2, 4, 9, 10}}
    assert dynamic_edges(trace, address) == _chain(0, 2, 4, 9, 10)
    # recorded as the edge from the jumping block's start: the JUMPI at
    # pc 4 ends the block that starts at 0
    assert transitions(trace, address) == {(0, 9)}


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
    taken = transitions(trace, address)
    assert (0, at["inner"]) in taken
    assert (0, at["jumpi"] + 1) in taken
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
    assert transitions(benign, benign_address) == {(0, at["jumpi"] + 1)}
    assert transitions(benign, benign_address) < taken


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
    for src, dst in transitions(trace, address):
        assert dst in blocks and blocks[src][-1] in executed, (src, dst)
    following = dict(zip(starts, starts[1:]))
    for src, dst in dynamic_edges(trace, address):
        assert {src, dst} <= executed
        jumped = (raw[src] in (op.JUMP, op.JUMPI) and dst in starts
                  and raw[dst] == op.JUMPDEST)
        assert dst == following.get(src) or jumped, (src, dst)


# --- compiled chains ------------------------------------------------------
# A chain of stack-only blocks runs compiled when its gate passes.  Each
# case runs one program twice, on a fresh decode each time: as it is, with
# the starts of the chains it enters recorded, and with the chain lookup
# mocked to None, so that every block runs in the loop.  The two runs must
# agree on everything a trace and the state say.

def _observed(trace: ExecutionTrace, state: WorldState, address: bytes) -> tuple:
    # block runs in the order the trace gives them
    return (trace.status, trace.gas_used, trace.events,
            [(key, list(runs.items())) for key, runs in block_runs(trace).items()],
            transitions(trace, address), trace.return_data,
            sorted((address, acct.balance, acct.code, sorted(acct.storage.items()))
                   for address, acct in state.accounts.items()))


def _chained(raw: bytes, **kwargs) -> tuple[ExecutionTrace, list[int]]:
    """Run `raw` with and without chains; the trace, and the start of each
    chain entered, once per frame."""
    entered: list[int] = []
    compile_chain = evm._compile_chain

    def spy(source: str, tables: dict, start: int):
        entered.append(start)
        return compile_chain(source, tables, start)

    with mock.patch.object(evm, "analyze", analyze.__wrapped__), \
            mock.patch.object(evm, "_compile_chain", spy):
        trace, state, address = run(raw, **kwargs)
        with_chains = _observed(trace, state, address)
    with mock.patch.object(evm, "analyze", analyze.__wrapped__), \
            mock.patch.object(evm, "_stand_in", return_value=None):
        assert _observed(*run(raw, **kwargs)) == with_chains
    return trace, entered


_SELECTORS = (0x11111111, 0x22222222, 0x33333333)


def _dispatcher() -> bytes:
    """solc's selector load and three compares, a three-block chain of 78
    gas (12 for the load, 22 per compare); each function stores its number
    in memory, which no chain holds, and returns it."""
    a = Assembler()
    a.push(0).op("CALLDATALOAD").push(0xE0).op("SHR")
    for i, selector in enumerate(_SELECTORS):
        a.op("DUP1").push(selector, 4).op("EQ").push_label(f"f{i}").op("JUMPI")
    a.push(0).op("DUP1", "REVERT")
    for i in range(len(_SELECTORS)):
        a.dest(f"f{i}").push(i + 1).push(0).op("MSTORE")
        a.push(32).push(0).op("RETURN")
    return a.assemble()


@pytest.mark.parametrize("match", [0, 1, 2, None])
@pytest.mark.parametrize("gas", [12, 33, 34, 56, 60, 77, 78, 79, 10_000])
def test_chain_runs_only_when_it_can_pay_for_every_block(
        match: int | None, gas: int) -> None:
    calldata = b"" if match is None else _SELECTORS[match].to_bytes(4, "big")
    trace, entered = _chained(_dispatcher(), calldata=calldata, gas=gas)
    # short of the whole chain, even with enough for the compares up to a
    # match, the loop runs block by block
    assert entered == ([0] if gas >= 78 else [])
    if gas == 10_000:
        assert trace.status is (TxStatus.REVERTED if match is None else TxStatus.SUCCESS)
        if match is not None:  # the taken JUMPI left the chain at its block
            assert int.from_bytes(trace.return_data, "big") == match + 1


@pytest.mark.parametrize("gas", [40, 60, 77])
def test_a_refused_chain_path_is_walked_once(gas: int) -> None:
    # short of gas for the whole chain, the loop runs the compares block by
    # block; each refused stand-in hands the rest of the path to the next
    # block's, so only the landing at pc 0 walks the path
    with mock.patch.object(evm, "analyze", analyze.__wrapped__), \
            mock.patch.object(evm, "_chain_path", wraps=evm._chain_path) as walk:
        trace, _, _ = run(_dispatcher(), gas=gas)
    assert trace.status is TxStatus.OUT_OF_GAS
    assert [call.args[2] for call in walk.call_args_list] == [0]


def _after_mload(prefix: bytes) -> bytes:
    """`prefix` and an MLOAD in a block no chain holds, so the chain at the
    JUMPDEST after it is entered with what `prefix` left on the stack."""
    return code(prefix, P(0), op.MLOAD, op.POP, op.JUMPDEST)


@pytest.mark.parametrize("words", [0, 1, 2, 3])
def test_chain_runs_only_when_the_stack_holds_what_it_reads(words: int) -> None:
    # a chain of two blocks that adds three words it does not push
    a = Assembler().raw(_after_mload(P(7) * words))
    a.push(1).push_label("next").op("JUMP")
    a.dest("next").op("ADD", "ADD", "ADD", "STOP")
    trace, entered = _chained(a.assemble())
    assert entered == ([2 * words + 4] if words == 3 else [])
    assert trace.status is (TxStatus.SUCCESS if words == 3 else TxStatus.INVALID_OPCODE)


@pytest.mark.parametrize("height", [1019, 1020, 1021])
def test_chain_runs_only_when_the_stack_has_room_for_its_pushes(height: int) -> None:
    # a chain whose stack rises at most four words above its entry height
    a = Assembler().raw(_after_mload(P(0) * height))
    a.push(1).push(2).push(3).push_label("next").op("JUMP")
    a.dest("next").push(4).op("POP", "POP", "POP", "POP", "STOP")
    trace, entered = _chained(a.assemble())
    assert entered == ([2 * height + 4] if height <= 1020 else [])
    assert trace.status is (TxStatus.SUCCESS if height <= 1020 else TxStatus.INVALID_OPCODE)


# A stack underflow is found at a segment's gate, as an overflow is, so no
# frame ends on an IndexError.  One raised in building, compiling or running
# a chain, or by the loop's own stack access past a gate that let it
# through, is a fault of the interpreter: it escapes `execute_transaction`,
# also from a called frame, where it would otherwise read as the callee's
# underflow.

def _two_block_chain() -> bytes:
    a = Assembler().push(1).push(2).push_label("next").op("JUMP")
    a.dest("next").op("ADD", "STOP")
    return a.assemble()


def _caller_of(callee: bytes) -> bytes:
    """CALLs `callee` with all its gas, then stops."""
    a = Assembler().push(0).push(0).push(0).push(0).push(0)
    a.push(int.from_bytes(callee, "big"), width=20).op("GAS", "CALL", "STOP")
    return a.assemble()


_FAULT = IndexError("a fault of the interpreter")


def _broken_chain(*frame: object) -> None:
    raise _FAULT


@pytest.mark.parametrize("called", [False, True], ids=["top", "called"])
@pytest.mark.parametrize("patched,fault", [
    ("_chain_source", {"side_effect": _FAULT}),
    ("_compile_chain", {"side_effect": _FAULT}),
    ("_compile_chain", {"return_value": _broken_chain}),
], ids=["build", "compile", "run"])
def test_a_chain_fault_escapes_execute_transaction(
        patched: str, fault: dict, called: bool) -> None:
    state = WorldState()
    target = deploy_contract(state, _two_block_chain())
    if called:
        target = deploy_contract(state, _caller_of(target))
    with mock.patch.object(evm, "analyze", analyze.__wrapped__), \
            mock.patch.object(evm, patched, **fault), \
            pytest.raises(IndexError) as raised:
        execute_transaction(state, Transaction(target=target))
    assert raised.value is _FAULT


@pytest.mark.parametrize("called", [False, True], ids=["top", "called"])
def test_a_gate_that_under_reports_need_lets_the_index_error_escape(
        called: bool) -> None:
    # ADD's segment claims to read no entry word, so its gate passes an
    # empty stack and the loop's own pop raises
    raw = code(op.ADD, op.STOP)
    analysis = analyze.__wrapped__(raw)
    (block,) = analysis.blocks.values()
    ((body, gas, need, room),) = block.segments
    assert need == 2
    block.__dict__["segments"] = ((body, gas, 0, room),)
    state = WorldState()
    target = deploy_contract(state, raw)
    if called:
        target = deploy_contract(state, _caller_of(target))
    with mock.patch.object(evm, "analyze", lambda code_bytes: analysis
                           if code_bytes == raw else analyze(code_bytes)), \
            pytest.raises(IndexError):
        execute_transaction(state, Transaction(target=target))


def test_blocks_run_only_in_a_chain_keep_no_segments() -> None:
    # a chain's gates are walked, not read from `BasicBlock.segments`, so
    # the blocks only a compiled chain runs keep no segment tuple
    raw = _two_block_chain()
    analysis = analyze.__wrapped__(raw)
    with mock.patch.object(evm, "analyze", lambda code_bytes: analysis
                           if code_bytes == raw else analyze(code_bytes)):
        trace, _, address = run(raw)
    assert trace.status is TxStatus.SUCCESS
    runs, exits = trace.records[(address, raw)]
    assert runs == {} and len(exits) == 1
    assert all("segments" not in block.__dict__
               for block in analysis.blocks.values())


def _underflow_behind_a_refused_gate() -> bytes:
    # a two-block chain reading three words, entered with two
    a = Assembler().raw(_after_mload(P(7) * 2))
    a.push(1).push_label("next").op("JUMP")
    a.dest("next").op("ADD", "ADD", "ADD", "STOP")
    return a.assemble()


@pytest.mark.parametrize("raw", [code(P(1), op.ADD),
                                 _underflow_behind_a_refused_gate()],
                         ids=["loop", "refused-gate"])
def test_a_stack_underflow_still_ends_invalid_opcode(raw: bytes) -> None:
    # no chain is built: the faulty source builder is never reached
    with mock.patch.object(evm, "analyze", analyze.__wrapped__), \
            mock.patch.object(evm, "_chain_source", side_effect=_FAULT):
        trace, _, _ = run(raw)
    assert trace.status is TxStatus.INVALID_OPCODE
    assert trace.gas_used == evm.DEFAULT_TX_GAS


def _hops(last: bytes) -> bytes:
    """Three `PUSH2 JUMP` hops, then `last` in the third hop's block."""
    a = Assembler()
    a.push(5).push_label("b").op("JUMP")
    a.dest("a").push(6).push_label("c").op("JUMP")
    a.dest("b").push(7).push_label("a").op("JUMP")
    a.dest("c").raw(last)
    return a.assemble()


@pytest.mark.parametrize("last,status", [
    (code(op.ADD, op.STOP), TxStatus.SUCCESS),
    (code(op.ADD, op.MUL), TxStatus.SUCCESS),  # runs off the end
    (code(op.ADD, P(3, 32)), TxStatus.SUCCESS),
    (code(op.ADD, op.PUSH1 + 2, 0xAB), TxStatus.SUCCESS),  # a PUSH cut off
    (code(P(0), op.JUMP), TxStatus.INVALID_OPCODE),  # no JUMPDEST at pc 0
    (code(P(1), P(0), op.JUMPI), TxStatus.INVALID_OPCODE),
    (code(P(0), P(0), op.JUMPI, op.STOP), TxStatus.SUCCESS),
    (code(op.CALLDATASIZE, op.JUMP), TxStatus.INVALID_OPCODE),  # PUSH2 data
    (code(op.PC, op.JUMP), TxStatus.INVALID_OPCODE),
], ids=["stop", "off-the-end", "push32-off-the-end", "truncated-push",
        "jump-to-non-jumpdest", "jumpi-to-non-jumpdest", "jumpi-not-taken",
        "computed-jump-into-push-data", "pc-jump"])
def test_chain_exits(last: bytes, status: TxStatus) -> None:
    trace, entered = _chained(_hops(last), calldata=bytes(4))
    assert entered == [0]
    assert trace.status is status


def test_chain_exit_by_a_computed_jump_puts_the_stack_back() -> None:
    # `c` adds the hops' last two words and jumps to the JUMPDEST whose pc
    # the call value names, which returns the sum
    head = _hops(code(op.ADD, op.CALLVALUE, op.JUMP))
    trace, entered = _chained(head + code(op.JUMPDEST, RETURN_TOP),
                              value=len(head))
    assert entered == [0]
    assert trace.status is TxStatus.SUCCESS
    assert int.from_bytes(trace.return_data, "big") == 7 + 6


@pytest.mark.parametrize("gas", [150, 151, 152, 160, 2_000])
def test_chain_exit_to_a_computed_jumpdest_goes_on(gas: int) -> None:
    # CALLVALUE names hop `a`: from `c`, the chain through `a` and `c` loops
    # until a round of 28 gas cannot be paid, and the loop runs out of gas
    # in it
    raw = _hops(code(op.POP, op.CALLVALUE, op.JUMP))
    assert raw[6] == op.JUMPDEST
    trace, entered = _chained(raw, value=6, gas=gas)
    assert entered == [0, 6]
    assert trace.status is TxStatus.OUT_OF_GAS


def test_self_call_shorter_run_of_a_chain_block_keeps_the_longer() -> None:
    # the outer frame runs `entry` whole in a chain, then calls itself with
    # gas for only part of `entry`, whose run there stops short
    a = Assembler()
    a.push(1).push(2).op("ADD").push(3).op("MUL").push_label("next").op("JUMP")
    a.dest("next").op("POP").push_label("call").op("JUMP")
    a.dest("call").push(0).push(0).push(0).push(0).push(0)
    a.op("ADDRESS").push(7).op("CALL", "STOP")
    raw = a.assemble()
    trace, entered = _chained(raw)
    assert trace.status is TxStatus.SUCCESS
    assert entered == [0]
    ((_, runs),) = block_runs(trace).items()
    assert runs[0] == 7
    # what the call's frame runs: up to the ADD it cannot pay for
    inner, _, _ = run(raw, gas=7)
    assert inner.status is TxStatus.OUT_OF_GAS
    assert next(iter(block_runs(inner).values())) == {0: 3}


# names a compiled chain's source may hold: the fixed template text, and
# numbered locals (entry words `i`, results `t`) and tables (exits `X`,
# blocks `B`)
_CHAIN_VOCABULARY = frozenset(
    "def chain stack gas calldata value exits transitions if or not len return "
    "None pop del append extend raise _InvalidOp nxt jumpdests get is "
    "add start else _sdiv _smod _signextend _sar _signed _calldataload".split())
_CHAIN_NUMBERED = re.compile(r"[itXB][0-9]+")

_CHAIN_ATOMS = st.one_of(
    st.sampled_from(sorted(evm._CHAINABLE)).map(lambda byte: bytes([byte])),
    st.integers(0, 80).map(lambda dest: P(dest, 2) + bytes([op.JUMP])),
    st.integers(0, 80).map(lambda dest: P(dest, 2) + bytes([op.JUMPI])),
    st.binary(min_size=1, max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_CHAIN_ATOMS, max_size=60).map(b"".join))
def test_chain_source_holds_only_template_names_and_integers(raw: bytes) -> None:
    analysis = analyze(raw)
    for start in analysis.blocks:
        path, _ = evm._chain_path(analysis.blocks, analysis.jumpdests, start)
        if len(path) < evm.CHAIN_MIN_BLOCKS:
            continue
        source, _ = evm._chain_source(analysis.blocks, analysis.jumpdests, path,
                                      evm._chain_gates(path))
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.NAME:
                assert (token.string in _CHAIN_VOCABULARY
                        or _CHAIN_NUMBERED.fullmatch(token.string)), token
            elif token.type == tokenize.NUMBER:
                assert token.string.isdigit(), token
            else:
                assert token.type in (tokenize.OP, tokenize.NEWLINE, tokenize.NL,
                                      tokenize.INDENT, tokenize.DEDENT,
                                      tokenize.ENDMARKER), token
        compile(source, "<chain>", "exec")


@settings(max_examples=300, deadline=None)
@given(st.lists(_CHAIN_ATOMS, max_size=60).map(b"".join))
def test_chain_gates_are_the_gates_of_one_walk_over_each_suffix(raw: bytes) -> None:
    # the gate of the chain through `path[k:]`, folded from its blocks'
    # segment gates, is what one walk over its instructions gives
    analysis = analyze(raw)
    for start in analysis.blocks:
        path, _ = evm._chain_path(analysis.blocks, analysis.jumpdests, start)
        gates = evm._chain_gates(path)
        assert len(gates) == len(path)
        for k in range(len(path)):
            gas = need = height = growth = 0
            for block in path[k:]:
                for _, byte, _ in block.instructions:
                    gas += op.BASE_GAS[byte]
                    need = max(need, op.STACK_READS[byte] - height)
                    height += op.STACK_GROWTH[byte]
                    growth = max(growth, height)
            assert gates[k] == (gas, need, STACK_LIMIT - growth)


_EDGE_WORDS = (0, 1, 2, 31, 32, 255, 256, (1 << 255) - 1, 1 << 255, (1 << 256) - 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_CHAIN_ATOMS,
                          st.sampled_from(_EDGE_WORDS).map(P),
                          st.just(bytes([op.JUMPDEST]))), max_size=60).map(b"".join),
       st.binary(max_size=40), st.sampled_from((0, 6, 10 ** 6)),
       st.integers(30, 200_000))
def test_random_chains_run_as_the_loop_runs(raw: bytes, calldata: bytes,
                                            value: int, gas: int) -> None:
    _chained(raw, calldata=calldata, value=value, gas=gas)


# where each op that divides has its divisor or modulus, top first
_DIVISORS = {op.DIV: 1, op.SDIV: 1, op.MOD: 1, op.SMOD: 1,
             op.ADDMOD: 2, op.MULMOD: 2}


def _operand_rows(byte: int) -> list[tuple[int, ...]]:
    """Operands for `byte`, top first: each edge word in each position,
    and for an op that divides, three rows with a zero divisor."""
    reads, n = op.STACK_READS[byte], len(_EDGE_WORDS)
    rows = [tuple(_EDGE_WORDS[(i + 3 * j) % n] for j in range(reads))
            for i in range(n)]
    if byte in _DIVISORS:
        at = _DIVISORS[byte]
        rows += [row[:at] + (0,) + row[at + 1:] for row in rows[1:4]]
    return rows


@pytest.mark.parametrize("byte", sorted(evm._TEMPLATES),
                         ids=lambda byte: op.MNEMONICS[byte])
def test_every_template_runs_in_a_chain_as_in_the_loop(byte: int) -> None:
    # the chain and the loop take the op's word from one template, so this
    # checks what the chain adds around it: the order it hands the
    # operands in, its stack bookkeeping, its exit and its gas; the words
    # themselves are `STACK_CASES`'s (tests/test_evm_opcodes.py).  A
    # two-block chain: the operands and a hop, then the op and a hop to a
    # block no chain holds, which returns the word the op left
    for operands in _operand_rows(byte):
        a = Assembler()
        for word in reversed(operands):
            a.push(word)
        a.push_label("op").op("JUMP")
        a.dest("op").raw(bytes([byte])).push_label("out").op("JUMP")
        a.dest("out").raw(RETURN_TOP)
        trace, entered = _chained(a.assemble(), calldata=bytes(range(1, 41)),
                                  value=6)
        assert entered == [0], operands
        assert trace.status is TxStatus.SUCCESS, operands
        word = int.from_bytes(trace.return_data, "big")
        if byte in _DIVISORS and operands[_DIVISORS[byte]] == 0:
            assert word == 0, operands


# a stack-only instruction for the chain differential below
_CHAIN_STEP = st.one_of(
    st.sampled_from(_EDGE_WORDS).map(P),
    st.sampled_from(sorted(evm._TEMPLATES)).map(lambda byte: bytes([byte])),
    st.builds(lambda words, byte: b"".join(map(P, words)) + bytes([byte]),
              st.lists(st.sampled_from(_EDGE_WORDS), min_size=3, max_size=3),
              st.sampled_from(sorted(evm._TEMPLATES))),
    st.integers(0, 3).map(lambda n: bytes([op.DUP1 + n])),
    st.integers(0, 3).map(lambda n: bytes([op.SWAP1 + n])),
    st.sampled_from([op.POP, op.PC]).map(lambda byte: bytes([byte])),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.lists(_CHAIN_STEP, max_size=8).map(b"".join),
                          st.sampled_from(("fall", "hop", "branch"))),
                min_size=1, max_size=6),
       st.binary(max_size=40), st.sampled_from((0, 6, 10 ** 6)))
def test_chains_compute_the_words_the_loop_computes(
        blocks: list[tuple[bytes, str]], calldata: bytes, value: int) -> None:
    # chain and loop compute each word from the same template, so what this
    # compares is the operand order, the chain's stack bookkeeping across
    # blocks, the exits it takes and the gas they pay.  Stack-only blocks
    # joined by fallthroughs, hops and branches on the top word, then, like
    # each branch, a return of the top three words
    a = Assembler()
    for word in _EDGE_WORDS[-4:]:
        a.push(word)
    for i, (body, join) in enumerate(blocks):
        a.dest(f"b{i}").raw(body)
        if join == "hop":
            a.push_label(f"b{i + 1}").op("JUMP")
        elif join == "branch":
            a.op("DUP1").push_label("out").op("JUMPI")
    a.dest(f"b{len(blocks)}").dest("out")
    a.push(0).op("MSTORE").push(32).op("MSTORE").push(64).op("MSTORE")
    a.push(96).push(0).op("RETURN")
    _chained(a.assemble(), calldata=calldata, value=value)
