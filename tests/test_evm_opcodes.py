"""Per-opcode semantics: wraparound arithmetic, environment, memory, storage,
control flow, the call family, gas exactness, and failure modes."""

from __future__ import annotations

import pytest

from dogefuzz import opcodes as op
from dogefuzz.asm import Assembler
from dogefuzz.evm import (
    AGENT_ADDRESS,
    AGENT_CALL_GAS,
    BALANCE,
    BLOCK_GAS_LIMIT,
    CALL_DEPTH_LIMIT,
    COINBASE_ADDRESS,
    DEFAULT_TX_GAS,
    DEPLOYER_ADDRESS,
    BlockContext,
    EventKind,
    PolicyKind,
    Transaction,
    TxStatus,
    WorldState,
    contract_address,
    deploy_contract,
    execute_transaction,
    _Machine,
)
from dogefuzz.oracles import FineBugClass, detect_trace

from evm_utils import MAX, P, RETURN_TOP, code, run, run_top
from keccak_oracle import keccak256_reference

# --- pure stack ops, parametrized ----------------------------------------
# each row: id, code computing one word on the stack, expected word

STACK_CASES = [
    ("add", code(P(1), P(2), op.ADD), 3),
    ("add_wraparound", code(P(1), P(MAX, 32), op.ADD), 0),
    ("sub", code(P(3), P(10), op.SUB), 7),
    ("sub_underflow", code(P(1), P(0), op.SUB), MAX),
    ("mul", code(P(6), P(7), op.MUL), 42),
    ("mul_wraparound", code(P(2), P(1 << 255, 32), op.MUL), 0),
    ("div", code(P(2), P(7), op.DIV), 3),
    ("div_by_zero", code(P(0), P(7), op.DIV), 0),
    ("sdiv_negative", code(P(2), P((-8) & MAX, 32), op.SDIV), (-4) & MAX),
    ("sdiv_truncates_toward_zero", code(P(2), P((-7) & MAX, 32), op.SDIV), (-3) & MAX),
    ("sdiv_overflow_wraps", code(P(MAX, 32), P(1 << 255, 32), op.SDIV), 1 << 255),
    ("sdiv_by_zero", code(P(0), P(5), op.SDIV), 0),
    ("mod", code(P(3), P(10), op.MOD), 1),
    ("mod_by_zero", code(P(0), P(10), op.MOD), 0),
    ("smod_sign_of_dividend", code(P(3), P((-10) & MAX, 32), op.SMOD), (-1) & MAX),
    ("smod_positive_dividend", code(P((-3) & MAX, 32), P(10), op.SMOD), 1),
    ("smod_by_zero", code(P(0), P((-5) & MAX, 32), op.SMOD), 0),
    ("addmod_full_precision", code(P(3), P(2), P(MAX, 32), op.ADDMOD), (MAX + 2) % 3),
    ("addmod_modulus_zero", code(P(0), P(2), P(1), op.ADDMOD), 0),
    ("mulmod_full_precision", code(P(97), P(1 << 200, 32), P(1 << 200, 32), op.MULMOD),
     ((1 << 200) * (1 << 200)) % 97),
    ("mulmod_modulus_zero", code(P(0), P(4), P(5), op.MULMOD), 0),
    ("exp", code(P(10), P(2), op.EXP), 1024),
    ("exp_wraparound", code(P(200), P(3), op.EXP), pow(3, 200, 1 << 256)),
    ("signextend_negative_byte", code(P(0xFF), P(0), op.SIGNEXTEND), MAX),
    ("signextend_positive_byte", code(P(0x7F), P(0), op.SIGNEXTEND), 0x7F),
    ("signextend_out_of_range", code(P(0xFF), P(32), op.SIGNEXTEND), 0xFF),
    ("lt_true", code(P(2), P(1), op.LT), 1),
    ("lt_false", code(P(1), P(2), op.LT), 0),
    ("lt_is_unsigned", code(P(1), P(MAX, 32), op.LT), 0),
    ("gt", code(P(1), P(2), op.GT), 1),
    ("slt_signed", code(P(0), P(MAX, 32), op.SLT), 1),
    ("sgt_signed", code(P(MAX, 32), P(0), op.SGT), 1),
    ("eq_true", code(P(5), P(5), op.EQ), 1),
    ("eq_false", code(P(5), P(6), op.EQ), 0),
    ("iszero_zero", code(P(0), op.ISZERO), 1),
    ("iszero_nonzero", code(P(5), op.ISZERO), 0),
    ("and", code(P(0x0F), P(0xF0), op.AND), 0),
    ("or", code(P(0x0F), P(0xF0), op.OR), 0xFF),
    ("xor_self_cancels", code(P(0xAB), P(0xAB), op.XOR), 0),
    ("not", code(P(0), op.NOT), MAX),
    ("byte_lowest", code(P(0xFF), P(31), op.BYTE), 0xFF),
    ("byte_highest", code(P(1 << 248, 32), P(0), op.BYTE), 1),
    ("byte_out_of_range", code(P(0xFF), P(32), op.BYTE), 0),
    ("shl", code(P(1), P(4), op.SHL), 16),
    ("shl_overflow", code(P(1), P(256, 2), op.SHL), 0),
    ("shr", code(P(16), P(4), op.SHR), 1),
    ("shr_overflow", code(P(MAX, 32), P(256, 2), op.SHR), 0),
    ("sar_negative", code(P((-16) & MAX, 32), P(2), op.SAR), (-4) & MAX),
    ("sar_negative_big_shift", code(P((-1) & MAX, 32), P(300, 2), op.SAR), MAX),
    ("sar_positive", code(P(16), P(2), op.SAR), 4),
    ("pc", code(op.JUMPDEST, op.PC), 1),
    ("msize_initial", code(op.MSIZE), 0),
    ("pop", code(P(7), P(9), op.POP), 7),
    ("dup1", code(P(7), op.DUP1, op.ADD), 14),
    ("swap1", code(P(10), P(3), op.SWAP1, op.SUB), 7),
]


@pytest.mark.parametrize("name,snippet,expected", STACK_CASES,
                         ids=[c[0] for c in STACK_CASES])
def test_stack_op(name: str, snippet: bytes, expected: int) -> None:
    assert run_top(snippet) == expected


def test_push_widths() -> None:
    for width in (1, 2, 3, 16, 31, 32):
        value = (1 << (8 * width)) - 1
        assert run_top(P(value, width)) == value


def test_dup16_and_swap16() -> None:
    deep = code(*([P(9)] + [P(0)] * 15), op.DUP16)
    assert run_top(deep) == 9
    swapped = code(P(5), *[P(0)] * 15, P(7), op.SWAP16, op.POP,
                   *[op.POP] * 15)
    assert run_top(swapped) == 7


def test_sha3_empty() -> None:
    got = run_top(code(P(0), P(0), op.SHA3))
    assert got == int.from_bytes(keccak256_reference(b""), "big")


def test_sha3_charges_per_word_and_for_memory() -> None:
    # hashing 100 words costs 6 gas each and their memory 3 gas each; one
    # gas short of either runs out
    words = 100
    snippet = code(P(32 * words, 2), P(0), op.SHA3, op.STOP)
    fixed = 2 * 3 + op.BASE_GAS[op.SHA3]
    hashing = op.GAS_SHA3_WORD * words
    memory = op.GAS_MEMORY_WORD * words
    for gas, status in ((fixed + hashing - 1, TxStatus.OUT_OF_GAS),
                        (fixed + hashing + memory - 1, TxStatus.OUT_OF_GAS),
                        (fixed + hashing + memory, TxStatus.SUCCESS)):
        trace, _, _ = run(snippet, gas=gas)
        assert trace.status is status, gas
        assert trace.gas_used == gas


def test_sha3_of_stored_word() -> None:
    snippet = code(P(0xAB), P(0), op.MSTORE, P(32), P(0), op.SHA3)
    expected = keccak256_reference((0xAB).to_bytes(32, "big"))
    assert run_top(snippet) == int.from_bytes(expected, "big")


# --- environment ----------------------------------------------------------

def test_address() -> None:
    trace, _, address = run(code(op.ADDRESS) + RETURN_TOP)
    assert trace.return_data[-20:] == address


def test_caller_is_agent_account() -> None:
    assert run_top(code(op.CALLER)) == int.from_bytes(AGENT_ADDRESS, "big")


def test_origin_matches_sender() -> None:
    assert run_top(code(op.ORIGIN)) == int.from_bytes(AGENT_ADDRESS, "big")


def test_callvalue() -> None:
    assert run_top(code(op.CALLVALUE), value=5) == 5


def test_balance_of_self() -> None:
    assert run_top(code(op.ADDRESS, op.BALANCE), endowment=77) == 77


def test_calldataload() -> None:
    word = (0xDEADBEEF).to_bytes(32, "big")
    assert run_top(code(P(0), op.CALLDATALOAD), calldata=word) == 0xDEADBEEF


def test_calldataload_beyond_end_is_zero() -> None:
    assert run_top(code(P(100), op.CALLDATALOAD), calldata=b"\x01" * 4) == 0


def test_calldataload_zero_pads_partial_word() -> None:
    got = run_top(code(P(0), op.CALLDATALOAD), calldata=b"\xFF")
    assert got == 0xFF << 248


def test_calldatasize() -> None:
    assert run_top(code(op.CALLDATASIZE), calldata=b"\x00" * 7) == 7


def test_calldatacopy() -> None:
    snippet = code(P(32), P(0), P(0), op.CALLDATACOPY, P(0), op.MLOAD)
    word = (42).to_bytes(32, "big")
    assert run_top(snippet, calldata=word) == 42


def test_calldatacopy_zero_pads() -> None:
    snippet = code(P(32), P(0), P(0), op.CALLDATACOPY, P(0), op.MLOAD)
    assert run_top(snippet, calldata=b"\x01") == 1 << 248


def test_codesize() -> None:
    snippet = code(op.CODESIZE)
    assert run_top(snippet) == len(snippet + RETURN_TOP)


def test_codecopy_reads_own_bytes() -> None:
    snippet = code(P(1), P(0), P(0), op.CODECOPY, P(0), op.MLOAD)
    # first byte of this program is PUSH1
    assert run_top(snippet) == op.PUSH1 << 248


@pytest.mark.parametrize("copy", [op.CALLDATACOPY, op.CODECOPY], ids=op.mnemonic)
def test_copy_from_far_past_the_source_end_zero_fills(copy: int) -> None:
    # a word of ones is overwritten with zeros read from offset 2**255
    snippet = code(P(MAX), P(0), op.MSTORE,
                   P(32), P(1 << 255), P(0), copy, P(0), op.MLOAD)
    assert run_top(snippet, calldata=b"\x01" * 64) == 0


def test_codecopy_partly_past_the_end_zero_fills_the_rest() -> None:
    # the source offset is a PUSH2, so the program's length is known before
    # it is chosen: copying from its last byte, RETURN, zero-fills the rest
    head = code(P(MAX), P(0), op.MSTORE, P(32))
    body = code(P(0), op.CODECOPY, P(0), op.MLOAD)
    last = len(head) + 3 + len(body) + len(RETURN_TOP) - 1
    assert run_top(head + P(last, 2) + body) == op.RETURN << 248


def test_returndatasize_starts_at_zero() -> None:
    assert run_top(code(op.RETURNDATASIZE)) == 0


def test_timestamp_pushes_and_emits() -> None:
    block = BlockContext(timestamp=1_700_000_123)
    trace, _, _ = run(code(op.TIMESTAMP) + RETURN_TOP, block=block)
    assert int.from_bytes(trace.return_data, "big") == 1_700_000_123
    assert [e.kind for e in trace.events] == [EventKind.TIMESTAMP]
    assert trace.events[0].pc == 0


def test_number_pushes_and_emits() -> None:
    block = BlockContext(number=123_456)
    trace, _, _ = run(code(op.NUMBER) + RETURN_TOP, block=block)
    assert int.from_bytes(trace.return_data, "big") == 123_456
    assert [e.kind for e in trace.events] == [EventKind.BLOCK_NUMBER]


def test_gaslimit_and_coinbase_and_difficulty() -> None:
    assert run_top(code(op.GASLIMIT)) == BLOCK_GAS_LIMIT
    assert run_top(code(op.COINBASE)) == int.from_bytes(COINBASE_ADDRESS, "big")
    assert run_top(code(op.DIFFICULTY)) == 0


# --- memory and storage ---------------------------------------------------

def test_mload_uninitialized_is_zero() -> None:
    assert run_top(code(P(64), op.MLOAD)) == 0


def test_mstore_mload_roundtrip() -> None:
    assert run_top(code(P(42), P(7), op.MSTORE, P(7), op.MLOAD)) == 42


def test_mstore8_writes_one_byte() -> None:
    snippet = code(P(0xABCD, 2), P(0), op.MSTORE8, P(0), op.MLOAD)
    assert run_top(snippet) == 0xCD << 248


def test_msize_rounds_to_words() -> None:
    assert run_top(code(P(1), P(0), op.MSTORE8, op.MSIZE)) == 32
    assert run_top(code(P(1), P(32), op.MSTORE8, op.MSIZE)) == 64


def test_memory_expansion_costs_linear_gas() -> None:
    base, _, _ = run(code(P(0), op.MLOAD, op.STOP))
    ten_words, _, _ = run(code(P(288), op.MLOAD, op.STOP))
    assert ten_words.gas_used - base.gas_used == 9 * op.GAS_MEMORY_WORD


def test_sload_preset() -> None:
    assert run_top(code(P(3), op.SLOAD), storage={3: 99}) == 99


def test_sload_absent_is_zero() -> None:
    assert run_top(code(P(5), op.SLOAD)) == 0


def test_sstore_then_sload() -> None:
    assert run_top(code(P(7), P(1), op.SSTORE, P(1), op.SLOAD)) == 7


def test_sstore_fresh_gas() -> None:
    trace, _, _ = run(code(P(1), P(0), op.SSTORE, op.STOP))
    assert trace.gas_used == 3 + 3 + op.GAS_SSTORE_FRESH


def test_sstore_update_gas() -> None:
    trace, _, _ = run(code(P(2), P(0), op.SSTORE, op.STOP), storage={0: 1})
    assert trace.gas_used == 3 + 3 + op.GAS_SSTORE_UPDATE


def test_sstore_emits_event_on_change_only() -> None:
    changed, _, _ = run(code(P(5), P(0), op.SSTORE, op.STOP))
    assert [e.kind for e in changed.events] == [EventKind.STORAGE_CHANGED]
    same, _, _ = run(code(P(5), P(0), op.SSTORE, op.STOP), storage={0: 5})
    assert same.events == []


def test_sstore_zeroing_deletes_slot() -> None:
    trace, state, address = run(code(P(0), P(0), op.SSTORE, op.STOP), storage={0: 9})
    assert trace.events[0].data[2:] == (9, 0)
    assert state.account(address).storage == {}


# --- control flow and halting --------------------------------------------

def test_jump() -> None:
    # jump over a would-be revert
    snippet = code(P(6), op.JUMP, op.INVALID, op.INVALID, op.INVALID,
                   op.JUMPDEST, P(1)) + RETURN_TOP
    trace, _, _ = run(snippet)
    assert trace.status is TxStatus.SUCCESS


def test_jump_to_non_jumpdest_fails() -> None:
    trace, _, _ = run(code(P(3), op.JUMP, op.STOP))
    assert trace.status is TxStatus.INVALID_OPCODE


def test_taken_jumpi_to_non_jumpdest_fails() -> None:
    # pc 6 holds a STOP, not a JUMPDEST; only a true condition checks it
    snippet = code(P(1), P(6), op.JUMPI, op.STOP, op.STOP)
    trace, _, _ = run(snippet, gas=10_000)
    assert trace.status is TxStatus.INVALID_OPCODE
    assert trace.gas_used == 10_000
    trace, _, _ = run(code(P(0), snippet[2:]))
    assert trace.status is TxStatus.SUCCESS


def test_jumpdest_inside_push_immediate_is_invalid() -> None:
    # 0x5B inside a PUSH2 immediate is data, not a destination
    snippet = code(P(3), op.JUMP, bytes([op.PUSH1 + 1, op.JUMPDEST, 0x00]), op.STOP)
    trace, _, _ = run(snippet)
    assert trace.status is TxStatus.INVALID_OPCODE


def test_jumpi_taken_and_not_taken() -> None:
    taken = code(P(1), P(6), op.JUMPI, op.INVALID, op.JUMPDEST, P(3))
    assert run_top(taken) == 3
    skipped = code(P(0), P(7), op.JUMPI, P(4), op.STOP, op.JUMPDEST, op.INVALID)
    trace, _, _ = run(skipped)
    assert trace.status is TxStatus.SUCCESS


def test_running_off_code_end_is_implicit_stop() -> None:
    trace, _, _ = run(code(P(1), op.POP))
    assert trace.status is TxStatus.SUCCESS


def test_stop_halts_before_later_code() -> None:
    trace, _, _ = run(code(op.STOP, op.INVALID))
    assert trace.status is TxStatus.SUCCESS
    assert trace.executed_pcs[list(trace.executed_pcs)[0]] == {0}


def test_return_data() -> None:
    trace, _, _ = run(code(P(0xBEEF, 2), P(0), op.MSTORE, P(2), P(30), op.RETURN))
    assert trace.return_data == b"\xBE\xEF"


def test_revert_returns_data_and_rolls_back() -> None:
    snippet = code(P(9), P(0), op.SSTORE, P(0xAB), P(0), op.MSTORE8, P(1), P(0), op.REVERT)
    trace, state, address = run(snippet)
    assert trace.status is TxStatus.REVERTED
    assert trace.return_data == b"\xAB"
    assert state.account(address).storage == {}


def test_invalid_opcode_consumes_all_gas() -> None:
    trace, _, _ = run(code(op.INVALID), gas=50_000)
    assert trace.status is TxStatus.INVALID_OPCODE
    assert trace.gas_used == 50_000


def test_unassigned_byte_is_invalid() -> None:
    trace, _, _ = run(code(0x0C))
    assert trace.status is TxStatus.INVALID_OPCODE


def test_stack_underflow_fails_frame() -> None:
    trace, _, _ = run(code(op.ADD))
    assert trace.status is TxStatus.INVALID_OPCODE


def test_out_of_gas() -> None:
    trace, _, _ = run(code(P(1), P(0), op.SSTORE, op.STOP), gas=100)
    assert trace.status is TxStatus.OUT_OF_GAS
    assert trace.gas_used == 100


def test_out_of_gas_rolls_back_state() -> None:
    # the SSTORE itself fits the budget; a later huge memory expansion
    # exhausts the frame, and the completed write must not survive
    snippet = code(P(7), P(0), op.SSTORE, P(0), P(2 ** 20), op.MSTORE, op.STOP)
    trace, state, address = run(snippet, gas=21_000)
    assert trace.status is TxStatus.OUT_OF_GAS
    assert state.account(address).storage == {}


def test_gas_opcode_reports_remaining() -> None:
    # GAS pushes what is left after paying for GAS itself
    got = run_top(code(op.GAS), gas=10_000)
    # PUSH1 0, MSTORE, ... of the return scaffold still ahead; only GAS paid so far
    assert got == 10_000 - op.BASE_GAS[op.GAS]


# --- which opcodes charge more than their base gas ------------------------

def _operand_count(opcode: int) -> int:
    """Stack words `opcode` reads: DUPn n of them, SWAPn n + 1, PUSH none."""
    if op.DUP1 <= opcode <= op.DUP16:
        return opcode - op.DUP1 + 1
    if op.SWAP1 <= opcode <= op.SWAP16:
        return opcode - op.SWAP1 + 2
    return op.STACK_EFFECTS.get(opcode, (0, 0))[0]


# INVALID takes all the gas there is
@pytest.mark.parametrize("opcode", sorted(set(op.MNEMONICS) - op.DYNAMIC_GAS
                                          - {op.INVALID}), ids=op.mnemonic)
def test_opcode_outside_dynamic_gas_charges_its_base_gas(opcode: int) -> None:
    pops = _operand_count(opcode)
    if opcode == op.JUMP:  # to the JUMPDEST right after it
        snippet = code(P(3), op.JUMP, op.JUMPDEST, op.STOP)
        expected = 3 + op.BASE_GAS[op.JUMP] + op.BASE_GAS[op.JUMPDEST]
    else:  # zero operands
        snippet = code(P(0) * pops, bytes([opcode]) + bytes(op.push_size(opcode)),
                       op.STOP)
        expected = 3 * pops + op.BASE_GAS[opcode]
    trace, _, _ = run(snippet)
    assert trace.status is TxStatus.SUCCESS
    assert trace.gas_used == expected


# init code that costs 6 gas: PUSH1 0, PUSH1 0, RETURN, as one memory word
_INIT_WORD = bytes.fromhex("60006000f3").ljust(32, b"\x00")
# the first contract deployed into a fresh state, which returns that word
_RETURNER = contract_address(DEPLOYER_ADDRESS, 0)

# operands, the first on top, for which each opcode in DYNAMIC_GAS charges
# more than for zeros: a new memory word past the first, a fresh storage
# slot, an exponent byte, a word to hash, gas forwarded to code that spends
# it, or init code
_DYNAMIC_OPERANDS = {
    op.MLOAD: [32], op.MSTORE: [32, 0], op.MSTORE8: [32, 0],
    op.SSTORE: [0, 1], op.EXP: [2, 1], op.SHA3: [0, 32],
    op.CALLDATACOPY: [32, 0, 32], op.CODECOPY: [32, 0, 32],
    op.RETURNDATACOPY: [32, 0, 32], op.RETURN: [32, 32], op.REVERT: [32, 32],
    **{op.LOG0 + topics: [32, 32] + [0] * topics for topics in range(5)},
    **{call: [1000, int.from_bytes(_RETURNER, "big")] + [0] * (5 if value else 4)
       for call, value in ((op.CALL, True), (op.CALLCODE, True),
                           (op.DELEGATECALL, False), (op.STATICCALL, False))},
    op.CREATE: [0, 0, 32],
}


def _gas_after_return_data(opcode: int, operands: list[int]) -> int:
    """Gas used by a call that copies `_INIT_WORD` to memory word 0 and
    leaves it as return data, then `opcode` over `operands`, then STOP."""
    state = WorldState()
    returner = deploy_contract(state, code(P(int.from_bytes(_INIT_WORD, "big")),
                                           P(0), op.MSTORE, P(32), P(0), op.RETURN))
    assert returner == _RETURNER
    call = code(P(32), P(0) * 3, bytes([op.PUSH1 + 19]) + returner, op.GAS,
                op.STATICCALL, op.POP)
    pushes = code(*(P(value) for value in reversed(operands)))
    target = deploy_contract(state, call + pushes + code(opcode, op.STOP))
    return execute_transaction(state, Transaction(target=target)).gas_used


def test_dynamic_gas_lists_every_opcode_with_operand_dependent_cost() -> None:
    assert set(_DYNAMIC_OPERANDS) == op.DYNAMIC_GAS


@pytest.mark.parametrize("opcode", sorted(op.DYNAMIC_GAS), ids=op.mnemonic)
def test_opcode_in_dynamic_gas_charges_more_for_some_operands(opcode: int) -> None:
    operands = _DYNAMIC_OPERANDS[opcode]
    assert (_gas_after_return_data(opcode, operands)
            > _gas_after_return_data(opcode, [0] * len(operands)))


def _range_site(opcode: int, arg_size: int, ret_size: int) -> bytes:
    """`opcode` over ranges at memory 0: a call into an empty account with
    an argument range of `arg_size` bytes and a return range of `ret_size`,
    or CREATE of `arg_size` bytes of init code; leaves MSIZE on the stack."""
    if opcode == op.CREATE:
        operands = code(P(arg_size), P(0), P(0))
    else:
        value = P(0) if opcode in (op.CALL, op.CALLCODE) else b""
        operands = code(P(ret_size), P(0), P(arg_size), P(0), value,
                        bytes([op.PUSH1 + 19]) + _SINK, P(0))
    return operands + code(opcode, op.POP, op.MSIZE)


_CALLS = (op.CALL, op.CALLCODE, op.DELEGATECALL, op.STATICCALL)


@pytest.mark.parametrize("opcode,arg_size,ret_size", [
    *((call, 1, 0) for call in _CALLS),
    *((call, 0, 1) for call in _CALLS),
    (op.CREATE, 32, 0),
], ids=[*(f"{op.mnemonic(call)}-args" for call in _CALLS),
        *(f"{op.mnemonic(call)}-return" for call in _CALLS), "CREATE-init"])
def test_memory_ranges_of_calls_and_create_cost_their_new_word(
        opcode: int, arg_size: int, ret_size: int) -> None:
    """A call's argument or return range, or CREATE's 32 bytes of init code
    (32 STOPs), that reaches into a fresh word costs one memory word more
    than the same site with empty ranges, and grows MSIZE by that word."""
    empty, _, _ = run(_range_site(opcode, 0, 0) + code(op.STOP))
    one_word, _, _ = run(_range_site(opcode, arg_size, ret_size) + code(op.STOP))
    assert empty.status is one_word.status is TxStatus.SUCCESS
    assert one_word.gas_used - empty.gas_used == op.GAS_MEMORY_WORD
    assert run_top(_range_site(opcode, 0, 0)) == 0
    assert run_top(_range_site(opcode, arg_size, ret_size)) == 32


# --- Istanbul prices ------------------------------------------------------

_ISTANBUL_PRICES = [
    *((push, 2) for push in (op.ADDRESS, op.ORIGIN, op.CALLER, op.CALLVALUE,
                             op.CALLDATASIZE, op.CODESIZE, op.RETURNDATASIZE,
                             op.COINBASE, op.TIMESTAMP, op.NUMBER, op.DIFFICULTY,
                             op.GASLIMIT)),
    (op.SLOAD, 800), (op.BALANCE, 700),
    (op.LOG0, 375), (op.LOG1, 750), (op.LOG2, 1125), (op.LOG3, 1500),
    (op.LOG4, 1875),
]


@pytest.mark.parametrize("opcode,price", _ISTANBUL_PRICES,
                         ids=[op.mnemonic(opcode) for opcode, _ in _ISTANBUL_PRICES])
def test_istanbul_base_price(opcode: int, price: int) -> None:
    # over zero operands: no memory, no bytes logged, an absent slot or account
    pops = _operand_count(opcode)
    trace, _, _ = run(code(P(0) * pops, opcode, op.STOP))
    assert trace.status is TxStatus.SUCCESS
    assert trace.gas_used == 3 * pops + price


@pytest.mark.parametrize("copy", [op.CALLDATACOPY, op.CODECOPY, op.RETURNDATACOPY],
                         ids=op.mnemonic)
def test_copy_charges_three_gas_per_word_copied(copy: int) -> None:
    # into memory word 0, which the call before it already grew
    nothing = _gas_after_return_data(copy, [0, 0, 0])
    assert _gas_after_return_data(copy, [0, 0, 1]) - nothing == 3
    assert _gas_after_return_data(copy, [0, 0, 32]) - nothing == 3
    assert _gas_after_return_data(copy, [32, 0, 32]) - nothing == 3 + 3  # and a new word


def test_log_charges_eight_gas_per_byte() -> None:
    nothing = _gas_after_return_data(op.LOG0, [0, 0])
    assert _gas_after_return_data(op.LOG0, [0, 1]) - nothing == 8
    assert _gas_after_return_data(op.LOG0, [0, 32]) - nothing == 256
    assert _gas_after_return_data(op.LOG0, [0, 33]) - nothing == 264 + 3  # and a new word


@pytest.mark.parametrize("exponent,used", [
    (0, 16), (1, 66), (255, 66), (256, 116), (1 << 255, 1616),
], ids=["0", "1", "255", "256", "2**255"])
def test_exp_charges_fifty_gas_per_exponent_byte(exponent: int, used: int) -> None:
    # two pushes and EXP's 10, then 50 per byte the exponent spans
    snippet = code(P(exponent), P(2), op.EXP, op.STOP)
    trace, _, _ = run(snippet)
    assert trace.status is TxStatus.SUCCESS and trace.gas_used == used
    trace, _, address = run(snippet, gas=used - 1)
    assert trace.status is TxStatus.OUT_OF_GAS
    assert max(trace.executed_pcs[address]) == len(snippet) - 2  # the EXP


def test_log_is_a_noop_consuming_operands() -> None:
    snippet = code(P(1), P(2), P(0), P(0), op.LOG2, P(1))
    assert run_top(snippet) == 1
    trace, _, _ = run(code(P(0), P(0), op.LOG0, op.STOP))
    assert trace.status is TxStatus.SUCCESS and trace.events == []


# --- call family ----------------------------------------------------------

def _call_args(gas_req: int, to: bytes, value: int, in_off: int = 0,
               in_size: int = 0, out_off: int = 0, out_size: int = 0) -> bytes:
    """Operands for CALL/CALLCODE pushed in stack order."""
    return code(P(out_size, 2), P(out_off, 2), P(in_size, 2), P(in_off, 2),
                P(value, 4), bytes([op.PUSH1 + 19]) + to, P(gas_req, 4))


def _fresh_state() -> WorldState:
    state = WorldState()
    state.account(AGENT_ADDRESS).balance = 10 ** 18
    state.account(DEPLOYER_ADDRESS).balance = 10 ** 18
    return state


def test_call_to_empty_account_succeeds() -> None:
    target = b"\x00" * 19 + b"\x09"
    snippet = _call_args(50_000, target, 0) + code(op.CALL) + RETURN_TOP
    assert run_top(snippet) == 1


def test_call_transfers_value() -> None:
    sink = b"\x00" * 19 + b"\x09"
    snippet = _call_args(0, sink, 40) + code(op.CALL, op.STOP)
    trace, state, address = run(snippet, endowment=100)
    assert trace.status is TxStatus.SUCCESS
    assert state.balance_of(address) == 60
    assert state.balance_of(sink) == 40
    ether = [e for e in trace.events if e.kind is EventKind.ETHER_TRANSFER]
    assert len(ether) == 1
    assert ether[0].data == (address, sink, 40)


def test_call_insufficient_balance_pushes_zero_without_event() -> None:
    sink = b"\x00" * 19 + b"\x09"
    assert run_top(_call_args(0, sink, 40) + code(op.CALL), endowment=10) == 0
    trace, state, _ = run(_call_args(0, sink, 40) + code(op.CALL, op.STOP), endowment=10)
    assert all(e.kind is not EventKind.ETHER_TRANSFER for e in trace.events)
    assert state.balance_of(sink) == 0


# a contract that returns the gas it sees at entry
GAS_RECORDER = code(op.GAS, P(0), op.MSTORE, P(32), P(0), op.RETURN)


def _copy_return_word() -> bytes:
    return code(P(32), P(0), P(0), op.RETURNDATACOPY, P(32), P(0), op.RETURN)


def test_value_call_stipend_is_exactly_2300() -> None:
    state = _fresh_state()
    recorder = deploy_contract(state, GAS_RECORDER)
    caller = deploy_contract(
        state,
        _call_args(0, recorder, 1) + code(op.CALL, op.POP) + _copy_return_word(),
        endowment=5,
    )
    trace = execute_transaction(state, Transaction(target=caller))
    assert trace.status is TxStatus.SUCCESS
    seen = int.from_bytes(trace.return_data, "big")
    assert seen == op.GAS_STIPEND - op.BASE_GAS[op.GAS]


def test_forwarded_gas_is_min_of_requested_and_remaining() -> None:
    state = _fresh_state()
    recorder = deploy_contract(state, GAS_RECORDER)
    caller = deploy_contract(
        state,
        _call_args(2 ** 30, recorder, 0) + code(op.CALL, op.POP) + _copy_return_word(),
    )
    gas_limit = 100_000
    trace = execute_transaction(state, Transaction(target=caller, gas_limit=gas_limit))
    assert trace.status is TxStatus.SUCCESS
    seen = int.from_bytes(trace.return_data, "big")
    spent_before_call = 7 * 3 + op.GAS_CALL_BASE
    assert seen == gas_limit - spent_before_call - op.BASE_GAS[op.GAS]


def test_value_call_one_short_of_its_surcharge_runs_out_at_the_call() -> None:
    # gas for seven pushes, the CALL, its one-word return range and the
    # value surcharge; the empty callee hands its stipend back
    sink = b"\x00" * 19 + b"\x09"
    snippet = _call_args(0, sink, 1, out_size=32) + code(op.CALL, op.STOP)
    enough = 7 * 3 + op.GAS_CALL_BASE + op.GAS_MEMORY_WORD + op.GAS_VALUE_SURCHARGE
    trace, _, address = run(snippet, endowment=5, gas=enough - 1)
    assert trace.status is TxStatus.OUT_OF_GAS
    assert max(trace.executed_pcs[address]) == len(snippet) - 2  # the CALL
    trace, state, _ = run(snippet, endowment=5, gas=enough)
    assert trace.status is TxStatus.SUCCESS
    assert trace.gas_used == enough - op.GAS_STIPEND
    assert state.balance_of(sink) == 1


STORAGE_WRITER = code(P(7), P(1), op.SSTORE, op.STOP)


def test_gasless_send_event_on_stipend_oog() -> None:
    state = _fresh_state()
    writer = deploy_contract(state, STORAGE_WRITER)
    caller = deploy_contract(
        state, _call_args(0, writer, 1) + code(op.CALL, op.POP, op.STOP), endowment=5)
    trace = execute_transaction(state, Transaction(target=caller))
    assert trace.status is TxStatus.SUCCESS
    kinds = [e.kind for e in trace.events]
    assert EventKind.GASLESS_SEND in kinds
    assert state.account(writer).storage == {}


def test_stipend_send_to_a_callee_of_three_sloads_is_gasless() -> None:
    """At 800 gas each, three SLOADs overrun the 2300-gas stipend, so a
    1-wei send on the bare stipend fails and its failure is swallowed."""
    reader = Assembler()
    for slot in range(3):
        reader.push(slot).op("SLOAD", "POP")
    state = _fresh_state()
    callee = deploy_contract(state, reader.op("STOP").assemble())
    # CALL(gas 0, callee, 1 wei, no input, no output), result dropped
    sender = (Assembler().push(0).push(0).push(0).push(0).push(1)
              .push_address(callee).push(0).op("CALL", "POP", "STOP"))
    caller = deploy_contract(state, sender.assemble(), endowment=5)
    trace = execute_transaction(state, Transaction(target=caller))
    assert trace.status is TxStatus.SUCCESS
    assert [f.fine for f in detect_trace(trace)] == [
        FineBugClass.GASLESS_SEND, FineBugClass.EXCEPTION_DISORDER]
    assert state.balance_of(callee) == 0


def test_no_gasless_send_when_callee_reverts() -> None:
    state = _fresh_state()
    reverter = deploy_contract(state, code(P(0), P(0), op.REVERT))
    caller = deploy_contract(
        state, _call_args(0, reverter, 1) + code(op.CALL, op.POP, op.STOP), endowment=5)
    trace = execute_transaction(state, Transaction(target=caller))
    assert all(e.kind is not EventKind.GASLESS_SEND for e in trace.events)


def test_exception_disorder_on_swallowed_failure() -> None:
    state = _fresh_state()
    failing = deploy_contract(state, code(P(9), P(0), op.SSTORE, P(0), P(0), op.REVERT))
    call_site = _call_args(100_000, failing, 0)
    caller = deploy_contract(state, call_site + code(op.CALL, op.POP, op.STOP))
    trace = execute_transaction(state, Transaction(target=caller))
    assert trace.status is TxStatus.SUCCESS
    disorder = [e for e in trace.events if e.kind is EventKind.EXCEPTION_DISORDER]
    assert len(disorder) == 1
    assert disorder[0].pc == len(call_site)  # the CALL site
    assert state.account(failing).storage == {}  # child effects rolled back


def test_no_exception_disorder_when_caller_also_fails() -> None:
    state = _fresh_state()
    failing = deploy_contract(state, code(P(0), P(0), op.REVERT))
    caller = deploy_contract(
        state,
        _call_args(100_000, failing, 0) + code(op.CALL, op.POP, P(0), P(0), op.REVERT),
    )
    trace = execute_transaction(state, Transaction(target=caller))
    assert trace.status is TxStatus.REVERTED
    assert all(e.kind is not EventKind.EXCEPTION_DISORDER for e in trace.events)


def test_callcode_runs_in_caller_storage_context() -> None:
    state = _fresh_state()
    library = deploy_contract(state, STORAGE_WRITER)
    user = deploy_contract(
        state, _call_args(200_000, library, 0) + code(op.CALLCODE, op.POP, op.STOP))
    trace = execute_transaction(state, Transaction(target=user))
    assert trace.status is TxStatus.SUCCESS
    assert state.account(user).storage == {1: 7}
    assert state.account(library).storage == {}


def test_delegatecall_preserves_caller_value_and_storage() -> None:
    state = _fresh_state()
    helper = deploy_contract(
        state, code(op.CALLER, P(2), op.SSTORE, op.CALLVALUE, P(3), op.SSTORE, op.STOP))
    # delegatecall takes six operands (no value slot)
    call_site = code(P(0, 2), P(0, 2), P(0, 2), P(0, 2),
                     bytes([op.PUSH1 + 19]) + helper, P(200_000, 4))
    user = deploy_contract(state, call_site + code(op.DELEGATECALL, op.POP, op.STOP))
    trace = execute_transaction(state, Transaction(target=user, value=5))
    assert trace.status is TxStatus.SUCCESS
    # helper wrote the original caller and value into the user's storage
    assert state.account(user).storage == {
        2: int.from_bytes(AGENT_ADDRESS, "big"), 3: 5}
    assert state.account(helper).storage == {}


def test_delegate_event_when_target_appears_in_calldata() -> None:
    state = _fresh_state()
    helper = deploy_contract(state, code(op.STOP))
    # read the target address from calldata word 0, then delegatecall it
    call_site = code(P(0, 2), P(0, 2), P(0, 2), P(0, 2),
                     P(0), op.CALLDATALOAD, P(200_000, 4))
    user = deploy_contract(state, call_site + code(op.DELEGATECALL, op.POP, op.STOP))
    with_addr = execute_transaction(
        state, Transaction(target=user, calldata=helper.rjust(32, b"\x00")))
    assert any(e.kind is EventKind.DELEGATE for e in with_addr.events)
    # control: a hardcoded target never tainted by transaction input
    fixed_site = code(P(0, 2), P(0, 2), P(0, 2), P(0, 2),
                      bytes([op.PUSH1 + 19]) + helper, P(200_000, 4))
    fixed_user = deploy_contract(state, fixed_site + code(op.DELEGATECALL, op.POP, op.STOP))
    without = execute_transaction(
        state, Transaction(target=fixed_user, calldata=b"\x11" * 32))
    assert all(e.kind is not EventKind.DELEGATE for e in without.events)


def test_callcode_emits_delegate_event_too() -> None:
    state = _fresh_state()
    helper = deploy_contract(state, code(op.STOP))
    call_site = code(P(0, 2), P(0, 2), P(0, 2), P(0, 2), P(0, 4),
                     P(0), op.CALLDATALOAD, P(200_000, 4))
    user = deploy_contract(state, call_site + code(op.CALLCODE, op.POP, op.STOP))
    trace = execute_transaction(
        state, Transaction(target=user, calldata=helper.rjust(32, b"\x00")))
    assert any(e.kind is EventKind.DELEGATE for e in trace.events)


def test_callcode_value_moves_to_self() -> None:
    helper = b"\x00" * 19 + b"\x09"
    trace, state, address = run(
        _call_args(50_000, helper, 40) + code(op.CALLCODE, op.POP, op.STOP),
        endowment=100)
    assert trace.status is TxStatus.SUCCESS
    assert state.balance_of(address) == 100
    ether = [e for e in trace.events if e.kind is EventKind.ETHER_TRANSFER]
    assert [e.data for e in ether] == [(address, address, 40)]


def test_staticcall_rejects_writes() -> None:
    state = _fresh_state()
    writer = deploy_contract(state, STORAGE_WRITER)
    call_site = code(P(0, 2), P(0, 2), P(0, 2), P(0, 2),
                     bytes([op.PUSH1 + 19]) + writer, P(200_000, 4))
    user = deploy_contract(state, call_site + code(op.STATICCALL) + RETURN_TOP)
    trace = execute_transaction(state, Transaction(target=user))
    assert trace.status is TxStatus.SUCCESS
    assert int.from_bytes(trace.return_data, "big") == 0  # child frame failed
    assert state.account(writer).storage == {}


def test_staticcall_allows_reads() -> None:
    state = _fresh_state()
    reader = deploy_contract(state, code(P(1), op.SLOAD, P(0), op.MSTORE, P(32), P(0), op.RETURN))
    state.account(reader).storage[1] = 55
    call_site = code(P(32, 2), P(0, 2), P(0, 2), P(0, 2),
                     bytes([op.PUSH1 + 19]) + reader, P(200_000, 4))
    user = deploy_contract(state, call_site + code(op.STATICCALL, op.POP, P(0), op.MLOAD) + RETURN_TOP)
    trace = execute_transaction(state, Transaction(target=user))
    assert int.from_bytes(trace.return_data, "big") == 55


def test_returndatacopy_reads_callee_output() -> None:
    state = _fresh_state()
    producer = deploy_contract(
        state, code(P(0xCAFE, 2), P(0), op.MSTORE, P(32), P(0), op.RETURN))
    caller = deploy_contract(
        state,
        _call_args(200_000, producer, 0) + code(op.CALL, op.POP) + _copy_return_word(),
    )
    trace = execute_transaction(state, Transaction(target=caller))
    assert int.from_bytes(trace.return_data, "big") == 0xCAFE


def test_returndatacopy_out_of_bounds_fails() -> None:
    state = _fresh_state()
    producer = deploy_contract(state, code(P(1), P(0), op.MSTORE8, P(1), P(0), op.RETURN))
    caller = deploy_contract(
        state,
        _call_args(200_000, producer, 0)
        + code(op.CALL, op.POP, P(2), P(0), P(0), op.RETURNDATACOPY, op.STOP),
    )
    trace = execute_transaction(state, Transaction(target=caller))
    assert trace.status is TxStatus.INVALID_OPCODE


def _create_site(init: bytes, endowment: int = 0) -> bytes:
    """Store `init` (at most 32 bytes) in memory and push CREATE's operands."""
    return code(bytes([op.PUSH1 + len(init) - 1]) + init, P(0), op.MSTORE,
                P(len(init)), P(32 - len(init)), P(endowment))


def test_create_installs_returned_code() -> None:
    # init code returning the single byte 0x00 (STOP)
    init = code(P(op.STOP), P(0), op.MSTORE8, P(1), P(0), op.RETURN)
    trace, state, address = run(_create_site(init) + code(op.CREATE) + RETURN_TOP)
    assert trace.status is TxStatus.SUCCESS
    created = int.from_bytes(trace.return_data, "big").to_bytes(32, "big")[-20:]
    assert created == contract_address(address, 0)
    assert state.code_of(created) == code(op.STOP)


def test_create_failure_pushes_zero() -> None:
    site = _create_site(code(P(0), P(0), op.REVERT))
    trace, _, _ = run(site + code(op.CREATE) + RETURN_TOP)
    assert trace.status is TxStatus.SUCCESS
    assert int.from_bytes(trace.return_data, "big") == 0
    # the init code ran and failed: a swallowed exception at the CREATE
    disorder = [e for e in trace.events if e.kind is EventKind.EXCEPTION_DISORDER]
    assert [e.pc for e in disorder] == [len(site)]


# store the two stack words below the top (created address, then GAS) at
# memory 0 and 32 and return both
_RETURN_CREATED_AND_GAS = code(P(32), op.MSTORE, P(0), op.MSTORE,
                               P(64), P(0), op.RETURN)


def test_create_refused_for_short_endowment_keeps_gas() -> None:
    site = _create_site(code(P(0), P(0), op.REVERT), endowment=50)
    gas_limit = 100_000
    trace, _, _ = run(site + code(op.CREATE, op.GAS) + _RETURN_CREATED_AND_GAS,
                      endowment=10, gas=gas_limit)
    assert trace.status is TxStatus.SUCCESS
    created = int.from_bytes(trace.return_data[:32], "big")
    seen = int.from_bytes(trace.return_data[32:], "big")
    assert created == 0
    spent_before_gas = (5 * 3 + op.BASE_GAS[op.MSTORE] + op.GAS_MEMORY_WORD
                        + op.BASE_GAS[op.CREATE])
    assert seen == gas_limit - spent_before_gas - op.BASE_GAS[op.GAS]
    assert all(e.kind is not EventKind.EXCEPTION_DISORDER for e in trace.events)


@pytest.mark.parametrize("create", [False, True])
def test_create_empties_the_return_data_buffer(create: bool) -> None:
    """EIP-211: after a successful CREATE the buffer is empty, whatever
    the call before it returned."""
    state = _fresh_state()
    returner = deploy_contract(
        state, code(P(0xCAFE, 2), P(0), op.MSTORE, P(32), P(0), op.RETURN))
    empty_create = code(P(0), P(0), P(0), op.CREATE, op.POP) if create else b""
    user = deploy_contract(state, _static_call(returner) + code(op.POP) + empty_create
                           + code(op.RETURNDATASIZE) + RETURN_TOP)
    trace = execute_transaction(state, Transaction(target=user))
    assert trace.status is TxStatus.SUCCESS
    assert int.from_bytes(trace.return_data, "big") == (0 if create else 32)


def test_reverted_create_leaves_its_revert_data() -> None:
    """EIP-211: init code that reverts with 5 bytes leaves them as return
    data, which RETURNDATACOPY can read."""
    init = code(P(0x0102030405, 5), P(0), op.MSTORE, P(5), P(27), op.REVERT)
    copy = code(P(5), P(0), P(64), op.RETURNDATACOPY)
    trace, _, _ = run(_create_site(init) + code(op.CREATE, op.POP) + copy
                      + code(op.RETURNDATASIZE, P(0), op.MSTORE, P(69), P(0), op.RETURN))
    assert trace.status is TxStatus.SUCCESS
    assert int.from_bytes(trace.return_data[:32], "big") == 5
    assert trace.return_data[64:] == bytes.fromhex("0102030405")


def test_call_from_init_code_to_its_own_address_is_not_reentrancy() -> None:
    # the init code calls its own address, which holds no code yet, then
    # returns a one-byte STOP runtime
    init = code(P(0), P(0), P(0), P(0), P(0), op.ADDRESS, op.GAS, op.CALL,
                op.POP, P(op.STOP), P(0), op.MSTORE8, P(1), P(0), op.RETURN)
    trace, state, address = run(_create_site(init) + code(op.CREATE) + RETURN_TOP)
    assert trace.status is TxStatus.SUCCESS
    created = contract_address(address, 0)
    assert trace.return_data[-20:] == created
    assert state.code_of(created) == code(op.STOP)
    assert all(e.kind is not EventKind.REENTRANCY for e in trace.events)


def test_selfdestruct_transfers_balance_and_clears_account() -> None:
    sink = b"\x00" * 19 + b"\x08"
    trace, state, address = run(
        code(bytes([op.PUSH1 + 19]) + sink, op.SELFDESTRUCT), endowment=50)
    assert trace.status is TxStatus.SUCCESS
    assert state.balance_of(sink) == 50
    assert state.balance_of(address) == 0
    assert state.code_of(address) == b""
    ether = [e for e in trace.events if e.kind is EventKind.ETHER_TRANSFER]
    assert ether and ether[0].data == (address, sink, 50)


def test_selfdestruct_with_zero_balance_emits_nothing() -> None:
    sink = b"\x00" * 19 + b"\x08"
    trace, _, _ = run(code(bytes([op.PUSH1 + 19]) + sink, op.SELFDESTRUCT))
    assert trace.status is TxStatus.SUCCESS
    assert trace.events == []


_SINK = b"\x00" * 19 + b"\x08"


def test_one_balance_test_per_moved_value() -> None:
    """A value CALL and an endowed CREATE test the mover's balance once
    each; SELFDESTRUCT moves all there is and reads it exactly."""
    trace, _, address = run(_call_args(0, _SINK, 40) + code(op.CALL, op.STOP),
                            endowment=100)
    assert trace.status is TxStatus.SUCCESS
    assert trace.balance_tests == [(address, 40, True)]

    site = _create_site(code(op.STOP), endowment=5)
    trace, state, address = run(site + code(op.CREATE, op.STOP), endowment=100)
    assert trace.status is TxStatus.SUCCESS
    assert trace.balance_tests == [(address, 5, True)]
    assert state.balance_of(contract_address(address, 0)) == 5

    # to a sink, then to itself: the balance burns
    for beneficiary, paid in ((bytes([op.PUSH1 + 19]) + _SINK, 50),
                              (code(op.ADDRESS), 0)):
        trace, state, address = run(code(beneficiary, op.SELFDESTRUCT),
                                    endowment=50)
        assert trace.status is TxStatus.SUCCESS
        assert trace.balance_tests == []
        assert (address, BALANCE) in trace.reads
        assert state.balance_of(address) == 0
        assert state.balance_of(_SINK) == paid


def _static_call(target: bytes) -> bytes:
    """STATICCALL `target` with no input or output; leaves the flag."""
    return code(P(0, 2), P(0, 2), P(0, 2), P(0, 2),
                bytes([op.PUSH1 + 19]) + target, P(200_000, 4), op.STATICCALL)


@pytest.mark.parametrize("body", [
    code(P(0), P(0), op.LOG0),
    code(op.ADDRESS, op.SELFDESTRUCT),
    _call_args(0, _SINK, 1) + code(op.CALL),
    _create_site(code(op.STOP)) + code(op.CREATE),
], ids=["log", "selfdestruct", "value_call", "create"])
def test_static_frame_rejects_state_changes(body: bytes) -> None:
    state = _fresh_state()
    callee = deploy_contract(state, body + code(op.STOP), endowment=10)
    # outside a static frame the same code runs
    direct = execute_transaction(state, Transaction(target=callee),
                                 persist=False)
    assert direct.status is TxStatus.SUCCESS
    user = deploy_contract(state, _static_call(callee) + RETURN_TOP)
    trace = execute_transaction(state, Transaction(target=user))
    assert trace.status is TxStatus.SUCCESS
    assert int.from_bytes(trace.return_data, "big") == 0
    callee_acct = state.account(callee)
    assert (callee_acct.balance, callee_acct.nonce) == (10, 0)
    assert callee_acct.code == body + code(op.STOP)
    assert state.balance_of(_SINK) == 0
    assert [e.kind for e in trace.events] == [EventKind.EXCEPTION_DISORDER]


def test_static_frame_allows_a_zero_value_call() -> None:
    state = _fresh_state()
    callee = deploy_contract(
        state, _call_args(0, _SINK, 0) + code(op.CALL, op.STOP))
    user = deploy_contract(state, _static_call(callee) + RETURN_TOP)
    trace = execute_transaction(state, Transaction(target=user))
    assert int.from_bytes(trace.return_data, "big") == 1


@pytest.mark.parametrize("value,depth,balance", [
    (0, CALL_DEPTH_LIMIT, 100),
    (7, CALL_DEPTH_LIMIT, 100),
    (7, 1, 6),
], ids=["0", "7", "7-balance-too-low"])
def test_call_at_the_depth_limit_pushes_zero_and_keeps_callee_gas(
        value: int, depth: int, balance: int) -> None:
    """A frame at depth 1024 can call no deeper, and a frame holding less
    than the value it sends cannot send it: either way the flag is 0, the
    callee never runs, no value moves, and the gas meant for the callee
    (with the stipend of a value call) comes back."""
    state = _fresh_state()
    writer = deploy_contract(state, STORAGE_WRITER)
    frame = b"\x01" * 20
    state.account(frame).balance = balance
    snippet = (_call_args(5_000, writer, value) + code(op.CALL, op.GAS)
               + _RETURN_CREATED_AND_GAS)
    machine = _Machine(state, Transaction(target=frame))
    status, ret, _ = machine.run_frame(snippet, frame, frame, AGENT_ADDRESS, 0,
                                       b"", 100_000, depth, False)
    assert status is TxStatus.SUCCESS
    assert int.from_bytes(ret[:32], "big") == 0  # the flag
    seen = int.from_bytes(ret[32:], "big")
    spent = 7 * 3 + op.BASE_GAS[op.CALL] + op.BASE_GAS[op.GAS]
    if value:
        spent += op.GAS_VALUE_SURCHARGE - op.GAS_STIPEND
    assert seen == 100_000 - spent
    assert state.account(writer).storage == {}
    assert state.balance_of(frame) == balance
    assert machine.journal == [] and machine.events == []


@pytest.mark.parametrize("spare", [-1, 0, 50_000])
def test_reentrant_agent_below_the_depth_limit_cannot_reenter(spare: int) -> None:
    """A frame at depth 1023 calls a reentrant agent, whose re-entry would
    be frame 1025: the agent pays its logging fee and the re-entry call,
    emits the Reentrancy event and returns the rest of its gas, but the
    caller is not entered again.  One gas short of both charges, it runs
    out of gas before the event."""
    state = _fresh_state()
    frame = b"\x01" * 20
    charge = AGENT_CALL_GAS + op.GAS_CALL_BASE
    call_site = code(op.TIMESTAMP, op.POP) + _call_args(charge + spare, AGENT_ADDRESS, 0)
    snippet = call_site + code(op.CALL, op.GAS) + _RETURN_CREATED_AND_GAS
    state.account(frame).code = snippet
    machine = _Machine(state, Transaction(target=frame,
                                          agent_policy=PolicyKind.REENTRANT))
    depth = CALL_DEPTH_LIMIT - 1
    status, ret, _ = machine.run_frame(snippet, frame, frame, AGENT_ADDRESS, 0,
                                       b"", 100_000, depth, False)
    assert status is TxStatus.SUCCESS
    flag = int.from_bytes(ret[:32], "big")
    seen = int.from_bytes(ret[32:], "big")
    spent = (op.BASE_GAS[op.TIMESTAMP] + op.BASE_GAS[op.POP] + 7 * 3
             + op.BASE_GAS[op.CALL] + op.BASE_GAS[op.GAS])
    events = [(e.kind, e.pc, e.depth) for e in machine.events]
    entered = (EventKind.TIMESTAMP, 0, depth)  # once per entry of the frame
    if spare < 0:
        assert flag == 0
        assert seen == 100_000 - spent - (charge + spare)
        assert events == [entered, (EventKind.EXCEPTION_DISORDER, len(call_site), depth)]
    else:
        assert flag == 1
        assert seen == 100_000 - spent - charge
        assert events == [entered, (EventKind.REENTRANCY, len(call_site), depth + 2)]
        assert machine.events[1].data == (frame,)


def test_self_call_recurses_to_the_depth_limit() -> None:
    """A contract that calls itself with all its gas nests frames down to
    depth 1024, whose call is refused: each call before that one enters a
    live frame again, and each frame pays its base gas once."""
    body = code(P(0), P(0), P(0), P(0), P(0), op.ADDRESS, op.GAS, op.CALL,
                op.POP, op.STOP)
    trace, _, address = run(body)
    assert trace.status is TxStatus.SUCCESS
    reentries = [e for e in trace.events if e.kind is EventKind.REENTRANCY]
    assert len(trace.events) == len(reentries) == CALL_DEPTH_LIMIT - 1
    assert [e.depth for e in reentries] == list(range(2, CALL_DEPTH_LIMIT + 1))
    assert all(e.data == (address,) for e in reentries)
    assert trace.gas_used == 738_304 == CALL_DEPTH_LIMIT * sum(
        op.BASE_GAS[opcode] for opcode in (*[op.PUSH1] * 5, op.ADDRESS, op.GAS,
                                           op.CALL, op.POP))


def test_reentrancy_event_on_nested_self_call() -> None:
    # when entered with empty calldata, call self with one byte of calldata;
    # the nested entry jumps straight to the tail and stops
    call_site = code(P(0, 2), P(0, 2), P(1, 2), P(0, 2), P(0, 4))
    prefix = code(op.CALLDATASIZE)
    # compute destination after assembling the skeleton once
    skeleton = prefix + P(0, 2) + code(op.JUMPI) + call_site + code(
        op.ADDRESS, op.GAS, op.CALL, op.POP, op.STOP, op.JUMPDEST, op.STOP)
    dest = len(skeleton) - 2
    program = prefix + P(dest, 2) + code(op.JUMPI) + call_site + code(
        op.ADDRESS, op.GAS, op.CALL, op.POP, op.STOP, op.JUMPDEST, op.STOP)
    trace, _, address = run(program)
    assert trace.status is TxStatus.SUCCESS
    reentry = [e for e in trace.events if e.kind is EventKind.REENTRANCY]
    assert len(reentry) == 1
    assert reentry[0].pc == len(program) - 5  # the CALL that re-entered
    assert reentry[0].depth == 2
    assert reentry[0].data == (address,)
