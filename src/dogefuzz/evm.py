"""Bytecode interpreter with execution instrumentation for fuzzing.

Implements an Istanbul-era stack machine over a journaled world state and
records, besides coverage, the eight event kinds the bug oracles consume:
Delegate, GaslessSend, ExceptionDisorder, BlockNumber, Timestamp,
Reentrancy, StorageChanged, EtherTransfer.

Each frame runs over `cfg.analyze`, the one decode of its code into basic
blocks shared with `build_cfg`: instructions come pre-decoded with their
PUSH operands, and JUMP/JUMPI end a block.  A block runs as gas segments,
each ending after an instruction whose charge depends on operands or
state (`opcodes.DYNAMIC_GAS`), or after GAS, which reads the gas left.  A
segment that can pay all its base gas (`opcodes.BASE_GAS`) and has stack
room for all its pushes pays at entry, in one step; one that cannot runs
up to the first instruction that would fault and faults there, so every
fault keeps its exact pc.  Coverage is recorded once per block.  Per code
address and code, a trace keeps each block start that ran with how many of
its instructions ran: all of them, or for a block that faulted the prefix
up to the faulting instruction, the longest run winning.  For frames of
the fuzzed target it also keeps each transition between blocks as the
edge (block start, next block start) that `build_cfg` draws.  A block's
instructions always run together, so the executed pcs are the covered
prefixes, and the pairs of successive instructions within each target
frame are the pairs inside those prefixes plus one pair (last pc, next
block start) per edge.

An instruction's dynamic charge is tested once, in `_expand`: an
instruction that touches memory passes it the gas less its other dynamic
charges (SHA3's and the copies' words, LOG's bytes, a value call's
surcharge), and `_expand` takes the words the range adds and tests the gas
left before memory grows.  SSTORE and EXP, which touch no memory, test
their own charges.

A trace also says what the transaction observed of the world state, so a
cached outcome can outlive state changes it never read.  Storage slots
(SLOAD, and SSTORE's old value) and exact balances (BALANCE, SELFDESTRUCT)
are reads of a location; so are an account's code, nonce and presence.  A
value move only tests `balance >= amount`, and is recorded as that test
against the balance the transaction started with.  Opcodes that do not
touch the world state record nothing.  The journal holds each state change
as (location, old value) in the same vocabulary, a created account as
((address, PRESENT), None), so a kept change's write set is its locations.

Every frame is entered through `_Machine.run_frame`, which keeps its address
on the stack of live frames that the reentrancy check reads; every contract,
by CREATE or by creation-mode deployment, is made by `_Machine.create`.

Transactions originate from a built-in agent account whose behavior on being
called back is driven by a per-transaction policy (accept, re-enter the
caller, or throw). Every plain call into the agent pays a fixed storage-write
scale fee first, modelling a logging fallback: a 2300-gas stipend send to the
agent therefore always runs out of gas.  The agent runs no frame, so it is
never on the stack of live frames: its re-entry of the caller is its one
Reentrancy event.  A Reentrancy event is anchored at the CALL that entered
the live frame again, or at the CALL into the agent that re-entered it.
"""

from __future__ import annotations

import logging
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from . import opcodes as op
from .cfg import Instruction, analyze
from .keccak import keccak256

logger = logging.getLogger(__name__)

# an EVM frame nests two Python frames (run_frame, _dispatch_loop) below a
# CALL-family site, three below CREATE or the agent's re-entry; the
# default interpreter limit is below the 1024 EVM depth cap
sys.setrecursionlimit(max(sys.getrecursionlimit(), 15000))

UINT256_MASK = (1 << 256) - 1
SIGN_BIT = 1 << 255
ADDRESS_MASK = (1 << 160) - 1
CALL_DEPTH_LIMIT = 1024
STACK_LIMIT = 1024
DEFAULT_TX_GAS = 1_000_000
DEPLOY_GAS = 5_000_000  # init code budget of a creation-mode deployment
BLOCK_GAS_LIMIT = 8_000_000  # what GASLIMIT pushes

# cost of the agent's virtual logging fallback on any plain call into it
AGENT_CALL_GAS = 20_000
# times a reentrant agent re-enters its caller within one transaction
MAX_REENTRIES = 1


def _addr(tag: int) -> bytes:
    return bytes([tag]) * 20

ZERO_ADDRESS = b"\x00" * 20
AGENT_ADDRESS = _addr(0xAA)
DEPLOYER_ADDRESS = _addr(0xD1)
EOA_ADDRESS = _addr(0x5E)
COINBASE_ADDRESS = _addr(0xC0)


# --- domain types ---------------------------------------------------------

class TxStatus(str, Enum):
    SUCCESS = "Success"
    REVERTED = "Reverted"
    OUT_OF_GAS = "OutOfGas"
    INVALID_OPCODE = "InvalidOpcode"


class EventKind(str, Enum):
    DELEGATE = "Delegate"
    GASLESS_SEND = "GaslessSend"
    EXCEPTION_DISORDER = "ExceptionDisorder"
    BLOCK_NUMBER = "BlockNumber"
    TIMESTAMP = "Timestamp"
    REENTRANCY = "Reentrancy"
    STORAGE_CHANGED = "StorageChanged"
    ETHER_TRANSFER = "EtherTransfer"


class PolicyKind(str, Enum):
    BENIGN = "Benign"
    REENTRANT = "Reentrant"
    THROWER = "Thrower"


class BlockContext(NamedTuple):
    number: int = 1_000_000
    timestamp: int = 1_600_000_000


DEFAULT_BLOCK = BlockContext()

# the second half of a world-state location: a storage slot is
# (address, key), and these name an account's other fields, each spelled
# as its `Account` attribute, and whether the account exists
BALANCE = "balance"
NONCE = "nonce"
CODE = "code"
PRESENT = "present"
Location = tuple[bytes, int | str]


class Transaction(NamedTuple):
    target: bytes
    calldata: bytes = b""
    value: int = 0
    sender: bytes = AGENT_ADDRESS
    gas_limit: int = DEFAULT_TX_GAS
    agent_policy: PolicyKind = PolicyKind.BENIGN
    block: BlockContext = DEFAULT_BLOCK


class ExecutionEvent(NamedTuple):
    kind: EventKind
    pc: int
    depth: int
    data: tuple = ()


@dataclass
class ExecutionTrace:
    """Outcome and instrumentation of one transaction.

    `block_runs` maps (code address, code) to {block start: instructions
    run}, in frame entry order; `transitions` holds the block edges the
    target's frames took.

    `reads` holds every location the transaction read: (address, key) for
    a storage slot, and (address, BALANCE), (address, NONCE),
    (address, CODE) or (address, PRESENT) for an exact balance, a nonce,
    code or whether the account exists.  Each `balance_tests` entry
    (address, need, passed) says a value move tested the address's balance
    and whether it held enough: it does exactly when the balance the
    transaction starts with is at least `need`.  SELFDESTRUCT, which moves
    all the balance there is, reads it exactly instead.  Rerun against a
    state that differs in none of its reads and fails none of its tests,
    the transaction takes the same path with the same outcome.  `writes` holds
    the locations a successful transaction left in its journal, whether or
    not it was persisted; it is empty for a failed one, and when it is
    empty, persisting the transaction leaves the state as it was.
    """

    status: TxStatus
    gas_used: int
    block_runs: dict[tuple[bytes, bytes], dict[int, int]]
    transitions: set[tuple[int, int]]
    events: list[ExecutionEvent]
    return_data: bytes = b""
    reads: set[Location] = field(default_factory=set)
    balance_tests: list[tuple[bytes, int, bool]] = field(default_factory=list)
    writes: frozenset[Location] = frozenset()

    @property
    def executed_pcs(self) -> dict[bytes, set[int]]:
        """Code address -> executed instruction pcs, derived from the runs."""
        executed: dict[bytes, set[int]] = {}
        for (address, code), runs in self.block_runs.items():
            pcs = executed.setdefault(address, set())
            blocks = analyze(code).blocks
            for start, ran in runs.items():
                pcs.update(blocks[start].pcs[:ran])
        return executed


@dataclass
class Account:
    balance: int = 0
    code: bytes = b""
    storage: dict[int, int] = field(default_factory=dict)
    nonce: int = 0

    def copy(self) -> "Account":
        return Account(self.balance, self.code, dict(self.storage), self.nonce)


@dataclass(slots=True)
class WorldState:
    """Mutable account mapping; absent accounts read as empty."""

    accounts: dict[bytes, Account] = field(default_factory=dict)

    def account(self, address: bytes) -> Account:
        acct = self.accounts.get(address)
        if acct is None:
            acct = Account()
            self.accounts[address] = acct
        return acct

    def balance_of(self, address: bytes) -> int:
        acct = self.accounts.get(address)
        return acct.balance if acct is not None else 0

    def code_of(self, address: bytes) -> bytes:
        acct = self.accounts.get(address)
        return acct.code if acct is not None else b""


class DeploymentError(Exception):
    """Raised when a creation-mode deployment fails."""


# --- state lifecycle ------------------------------------------------------

def snapshot_state(state: WorldState) -> WorldState:
    """Deep copy of the world state; copy and original evolve independently."""
    return WorldState({address: acct.copy() for address, acct in state.accounts.items()})


def contract_address(deployer: bytes, nonce: int) -> bytes:
    """Deterministic deployment address from deployer and nonce."""
    return keccak256(deployer + nonce.to_bytes(8, "big"))[12:]


# --- interpreter ----------------------------------------------------------

class _OutOfGas(Exception):
    pass


class _InvalidOp(Exception):
    pass


# pseudo-opcode past the byte range: an instruction that cannot pay its gas
_CANNOT_PAY = 0x100


def _up_to_fault(instructions: tuple[Instruction, ...], gas: int,
                 height: int) -> tuple[int, tuple[Instruction, ...]]:
    """A segment refused at entry, cut at its first fault.

    The first instruction that cannot pay its base gas or, having paid,
    would push the stack past `STACK_LIMIT` is found statically, as gas and
    stack heights within a segment are fixed relative to its entry.  The
    instructions before it are returned with a pseudo-instruction at its pc
    that faults as it would: out of gas, or invalid for the overflow.  The
    gas returned has paid for the instructions before it.
    """
    for k, (pc, opcode, _) in enumerate(instructions):
        cost = op.BASE_GAS[opcode]
        height += op.STACK_GROWTH[opcode]
        if cost > gas or height > STACK_LIMIT:  # gas is checked first
            fault = _CANNOT_PAY if cost > gas else op.INVALID
            return gas, instructions[:k] + ((pc, fault, None),)
        gas -= cost
    raise AssertionError("the segment fits: nothing to cut")


def _expand(mem: bytearray, offset: int, size: int, gas: int) -> int:
    """Charge for the words a nonempty range adds to `mem`, test the gas
    left, then zero-fill them; returns the gas left.  This is the one
    out-of-gas test of an instruction's dynamic charge: a caller passes
    `gas` less its other charges, so a range no gas can pay for allocates
    nothing.  Every write lands in a range expanded first, so `len(mem)`
    stays a whole number of words."""
    grown = ((offset + size + 31) >> 5) - (len(mem) >> 5) if size else 0
    if grown > 0:
        gas -= op.GAS_MEMORY_WORD * grown
    if gas < 0:
        raise _OutOfGas
    if grown > 0:
        mem.extend(bytes(grown << 5))
    return gas


def _signed(x: int) -> int:
    return x - (1 << 256) if x & SIGN_BIT else x


class _Machine:
    """One transaction's execution: frames, journal, instrumentation."""

    def __init__(self, state: WorldState, tx: Transaction) -> None:
        self.state = state
        self.tx = tx
        self.journal: list[tuple[Location, object]] = []
        self.events: list[ExecutionEvent] = []
        self.block_runs: dict[tuple[bytes, bytes], dict[int, int]] = {}
        self.transitions: set[tuple[int, int]] = set()
        self.address_stack: list[bytes] = []
        self.reentries_used = 0
        self.reads: set[Location] = set()
        self.balance_tests: list[tuple[bytes, int, bool]] = []
        # each address's balance before the transaction first moved value
        self.start_balances: dict[bytes, int] = {}

    # -- journaled state mutation --

    def rollback(self, mark: int) -> None:
        accounts = self.state.accounts
        journal = self.journal
        while len(journal) > mark:
            (address, key), old = journal.pop()
            if isinstance(key, int):
                storage = accounts[address].storage
                if old:
                    storage[key] = old
                else:
                    storage.pop(key, None)
            elif key == PRESENT:
                del accounts[address]
            else:
                setattr(accounts[address], key, old)

    def touch_account(self, address: bytes) -> Account:
        acct = self.state.accounts.get(address)
        if acct is None:
            # absence is read; a present account never goes away, as a
            # SELFDESTRUCT clears its fields instead
            self.reads.add((address, PRESENT))
            acct = Account()
            self.state.accounts[address] = acct
            self.journal.append(((address, PRESENT), None))
        return acct

    def code_of(self, address: bytes) -> bytes:
        self.reads.add((address, CODE))
        return self.state.code_of(address)

    def has_balance(self, address: bytes, amount: int) -> bool:
        """Whether `address` holds at least `amount`; recorded as a test of
        the balance it started with, which every move shifts by a fixed
        amount along the same path."""
        balance = self.state.balance_of(address)
        start = self.start_balances.get(address, balance)
        passed = balance >= amount
        self.balance_tests.append((address, amount - balance + start, passed))
        return passed

    def set_balance(self, address: bytes, value: int) -> None:
        acct = self.touch_account(address)
        self.start_balances.setdefault(address, acct.balance)
        self.journal.append(((address, BALANCE), acct.balance))
        acct.balance = value

    def move(self, src: bytes, dst: bytes, value: int) -> None:
        """Move `value` from `src` to `dst`; the caller tested the balance."""
        self.set_balance(src, self.state.balance_of(src) - value)
        self.set_balance(dst, self.state.balance_of(dst) + value)

    def transfer(self, src: bytes, dst: bytes, value: int) -> bool:
        """Move a nonzero `value` if `src` holds it; whether it did."""
        if not self.has_balance(src, value):
            return False
        self.move(src, dst, value)
        return True

    def emit(self, kind: EventKind, pc: int, depth: int, data: tuple = ()) -> None:
        self.events.append(ExecutionEvent(kind, pc, depth, data))

    # -- frames --

    def run_frame(self, code: bytes, code_address: bytes, self_address: bytes,
                  caller: bytes, value: int, calldata: bytes, gas: int,
                  depth: int, static: bool) -> tuple[TxStatus, bytes, int]:
        """Execute one call frame; returns (status, return data, gas left).

        The only way into a frame: `self_address` is on `address_stack` while
        the frame runs, and a fault ends the frame with a status.  Every
        caller refuses a frame past `CALL_DEPTH_LIMIT` before entering it.  A
        frame that succeeds after swallowing the failure of a call or CREATE
        it made emits one ExceptionDisorder per such site."""
        self.address_stack.append(self_address)
        swallowed: list[int] = []
        try:
            status, ret, gas = self._dispatch_loop(
                code, code_address, self_address, caller, value, calldata, gas,
                depth, static, swallowed)
        except _OutOfGas:
            return TxStatus.OUT_OF_GAS, b"", 0
        except (_InvalidOp, IndexError):
            return TxStatus.INVALID_OPCODE, b"", 0
        finally:
            self.address_stack.pop()
        if status is TxStatus.SUCCESS:
            for site in swallowed:
                self.emit(EventKind.EXCEPTION_DISORDER, site, depth)
        return status, ret, gas

    def create(self, creator: bytes, endowment: int, init_code: bytes, gas: int,
               depth: int) -> tuple[TxStatus | None, bytes, bytes, int]:
        """Create a contract at the address the creator's nonce names.

        Bumps the nonce, then refuses with status None and all gas kept at
        the depth limit, on an address holding code, or on a balance below
        the endowment.  Otherwise moves the endowment, runs `init_code` with
        all of `gas`, and installs the returned code or rolls back.  Returns
        (status, address, the init frame's output, gas left).
        """
        acct = self.touch_account(creator)
        self.reads.add((creator, NONCE))
        self.journal.append(((creator, NONCE), acct.nonce))
        address = contract_address(creator, acct.nonce)
        acct.nonce += 1
        if (depth + 1 > CALL_DEPTH_LIMIT or self.code_of(address)
                or endowment and not self.has_balance(creator, endowment)):
            return None, address, b"", gas
        mark = len(self.journal)
        self.touch_account(address)
        if endowment:
            self.move(creator, address, endowment)
        status, ret, gas = self.run_frame(init_code, address, address, creator,
                                          endowment, b"", gas, depth + 1, False)
        if status is TxStatus.SUCCESS:
            created = self.state.accounts[address]
            self.journal.append(((address, CODE), created.code))
            created.code = ret
        else:
            self.rollback(mark)
        return status, address, ret, gas

    def _dispatch_loop(self, code: bytes, code_address: bytes, self_address: bytes,
                       caller: bytes, value: int, calldata: bytes, gas: int,
                       depth: int, static: bool,
                       swallowed: list[int]) -> tuple[TxStatus, bytes, int]:
        state = self.state
        tx = self.tx
        _, blocks, jumpdests, _, _ = analyze(code)
        pushes_one = op.PUSHES_ONE
        runs = self.block_runs.setdefault((code_address, code), {})
        # a frame not of the target draws its edges into a throwaway set
        transitions = self.transitions if code_address == tx.target else set()
        reads = self.reads

        stack: list[int] = []
        mem = bytearray()
        returndata = b""
        n = len(code)

        block = blocks.get(0)
        while block is not None:
            nxt = None  # a taken jump's destination block
            try:
                for instructions, seg_gas, growth in block.segments:
                    # a segment pays its base gas and checks its stack room at
                    # entry; only its last instruction may charge more, and
                    # underflow stays an IndexError
                    if gas >= seg_gas and len(stack) + growth <= STACK_LIMIT:
                        gas -= seg_gas
                    else:
                        gas, instructions = _up_to_fault(instructions, gas, len(stack))
                    # literal opcodes, most frequent first
                    for pc, opcode, push in instructions:
                        if push is not None:  # PUSH1..PUSH32
                            stack.append(push)
                        elif 0x80 <= opcode <= 0x8F:  # DUP1..DUP16
                            stack.append(stack[0x7F - opcode])
                        elif opcode == 0x57:  # JUMPI
                            dest, cond = stack.pop(), stack.pop()
                            if cond:
                                nxt = jumpdests.get(dest)
                                if nxt is None:
                                    raise _InvalidOp
                        elif opcode == 0x14:  # EQ
                            stack.append(1 if stack.pop() == stack.pop() else 0)
                        elif opcode == 0x5B:  # JUMPDEST
                            pass
                        elif opcode == 0x35:  # CALLDATALOAD
                            offset = stack.pop()
                            if offset >= len(calldata):
                                stack.append(0)
                            else:
                                stack.append(int.from_bytes(
                                    calldata[offset:offset + 32].ljust(32, b"\x00"), "big"))
                        elif opcode == 0x50:  # POP
                            stack.pop()
                        elif opcode == 0x1C:  # SHR
                            shift, v = stack.pop(), stack.pop()
                            stack.append(v >> shift if shift < 256 else 0)
                        elif opcode in pushes_one:  # the (0, 1) row: one word from context
                            if opcode == 0x58:  # PC
                                stack.append(pc)
                            elif opcode == 0x33:  # CALLER
                                stack.append(int.from_bytes(caller, "big"))
                            elif opcode == 0x5A:  # GAS: it ends its segment
                                stack.append(gas)
                            elif opcode == 0x34:  # CALLVALUE
                                stack.append(value)
                            elif opcode == 0x30:  # ADDRESS
                                stack.append(int.from_bytes(self_address, "big"))
                            elif opcode == 0x36:  # CALLDATASIZE
                                stack.append(len(calldata))
                            elif opcode == 0x42:  # TIMESTAMP
                                self.emit(EventKind.TIMESTAMP, pc, depth)
                                stack.append(tx.block.timestamp)
                            elif opcode == 0x43:  # NUMBER
                                self.emit(EventKind.BLOCK_NUMBER, pc, depth)
                                stack.append(tx.block.number)
                            elif opcode == 0x32:  # ORIGIN
                                stack.append(int.from_bytes(tx.sender, "big"))
                            elif opcode == 0x38:  # CODESIZE
                                stack.append(n)
                            elif opcode == 0x3D:  # RETURNDATASIZE
                                stack.append(len(returndata))
                            elif opcode == 0x41:  # COINBASE
                                stack.append(int.from_bytes(COINBASE_ADDRESS, "big"))
                            elif opcode == 0x44:  # DIFFICULTY
                                stack.append(0)
                            elif opcode == 0x45:  # GASLIMIT
                                stack.append(BLOCK_GAS_LIMIT)
                            elif opcode == 0x59:  # MSIZE
                                stack.append(len(mem))
                        elif opcode == 0x56:  # JUMP
                            nxt = jumpdests.get(stack.pop())
                            if nxt is None:
                                raise _InvalidOp
                        elif opcode == 0x00:  # STOP
                            return TxStatus.SUCCESS, b"", gas
                        elif opcode == 0x52:  # MSTORE
                            offset, val = stack.pop(), stack.pop()
                            gas = _expand(mem, offset, 32, gas)
                            mem[offset:offset + 32] = val.to_bytes(32, "big")
                        elif opcode == 0x01:  # ADD
                            stack.append((stack.pop() + stack.pop()) & UINT256_MASK)
                        elif opcode == 0x15:  # ISZERO
                            stack.append(1 if stack.pop() == 0 else 0)
                        elif opcode == 0x55:  # SSTORE
                            if static:
                                raise _InvalidOp
                            key, val = stack.pop(), stack.pop()
                            slot = (self_address, key)
                            reads.add(slot)
                            acct = self.touch_account(self_address)
                            old = acct.storage.get(key, 0)
                            gas -= (op.GAS_SSTORE_FRESH if old == 0 and val != 0
                                    else op.GAS_SSTORE_UPDATE)
                            if gas < 0:
                                raise _OutOfGas
                            if val != old:
                                self.journal.append((slot, old))
                                if val:
                                    acct.storage[key] = val
                                else:
                                    del acct.storage[key]
                                self.emit(EventKind.STORAGE_CHANGED, pc, depth,
                                          (self_address, key, old, val))
                        elif opcode == 0x54:  # SLOAD
                            key = stack.pop()
                            reads.add((self_address, key))
                            acct = state.accounts.get(self_address)
                            stack.append(acct.storage.get(key, 0) if acct is not None else 0)
                        elif 0x90 <= opcode <= 0x9F:  # SWAP1..SWAP16
                            k = opcode - 0x8F
                            stack[-1], stack[-1 - k] = stack[-1 - k], stack[-1]
                        elif opcode == 0x20:  # SHA3
                            offset, size = stack.pop(), stack.pop()
                            gas = _expand(mem, offset, size,
                                          gas - op.GAS_SHA3_WORD * ((size + 31) >> 5))
                            digest = keccak256(bytes(mem[offset:offset + size]))
                            stack.append(int.from_bytes(digest, "big"))
                        elif opcode in (0xF1, 0xF2, 0xF4, 0xFA):  # the CALL family
                            gas_req = stack.pop()
                            target = (stack.pop() & ADDRESS_MASK).to_bytes(20, "big")
                            call_value = stack.pop() if opcode in (op.CALL, op.CALLCODE) else 0
                            in_off, in_size = stack.pop(), stack.pop()
                            out_off, out_size = stack.pop(), stack.pop()
                            if static and opcode == op.CALL and call_value > 0:
                                raise _InvalidOp
                            gas = _expand(mem, in_off, in_size, gas)
                            gas = _expand(mem, out_off, out_size,
                                          gas - op.GAS_VALUE_SURCHARGE if call_value else gas)
                            forwarded = gas_req if gas_req < gas else gas
                            gas -= forwarded
                            callee_gas = forwarded + op.GAS_STIPEND if call_value else forwarded
                            # a delegated call whose target is spelled out in
                            # the transaction input is attacker-controlled dispatch
                            if opcode in (op.DELEGATECALL, op.CALLCODE) and target in tx.calldata:
                                self.emit(EventKind.DELEGATE, pc, depth, (target,))
                            mark = len(self.journal)
                            # CALLCODE's value stays within the account, still
                            # an observable move
                            receiver = target if opcode == op.CALL else self_address
                            if (depth + 1 > CALL_DEPTH_LIMIT or call_value
                                    and not self.transfer(self_address, receiver, call_value)):
                                # refused: the callee's gas comes back, stipend included
                                stack.append(0)
                                gas += callee_gas
                                returndata = b""
                                continue
                            if call_value:
                                self.emit(EventKind.ETHER_TRANSFER, pc, depth,
                                          (self_address, receiver, call_value))
                            child_self = (target if opcode in (op.CALL, op.STATICCALL)
                                          else self_address)
                            delegated = opcode == op.DELEGATECALL  # inherits caller and value
                            child_static = static or opcode == op.STATICCALL
                            child_code = self.code_of(target)
                            if opcode == op.CALL and child_code and target in self.address_stack:
                                self.emit(EventKind.REENTRANCY, pc, depth + 1, (target,))
                            if child_self == AGENT_ADDRESS:  # CALL or STATICCALL into the agent
                                status, returndata, child_left = self._run_agent(
                                    callee_gas, pc, depth + 1, self_address, calldata,
                                    child_static)
                            elif child_code:
                                status, returndata, child_left = self.run_frame(
                                    child_code, target, child_self,
                                    caller if delegated else self_address,
                                    value if delegated else call_value,
                                    bytes(mem[in_off:in_off + in_size]), callee_gas,
                                    depth + 1, child_static)
                            else:
                                status, returndata, child_left = TxStatus.SUCCESS, b"", callee_gas
                            gas += child_left
                            if status is TxStatus.SUCCESS:
                                stack.append(1)
                                if out_size:
                                    chunk = returndata[:out_size]
                                    mem[out_off:out_off + len(chunk)] = chunk
                            else:
                                self.rollback(mark)
                                swallowed.append(pc)
                                if (status is TxStatus.OUT_OF_GAS and call_value
                                        and opcode == op.CALL and callee_gas == op.GAS_STIPEND):
                                    self.emit(EventKind.GASLESS_SEND, pc, depth, (target,))
                                stack.append(0)
                                if status is not TxStatus.REVERTED:
                                    returndata = b""
                        elif opcode == 0x16:  # AND
                            stack.append(stack.pop() & stack.pop())
                        elif opcode == 0x10:  # LT
                            a, b = stack.pop(), stack.pop()
                            stack.append(1 if a < b else 0)
                        elif opcode == 0x11:  # GT
                            a, b = stack.pop(), stack.pop()
                            stack.append(1 if a > b else 0)
                        elif opcode == 0x03:  # SUB
                            a, b = stack.pop(), stack.pop()
                            stack.append((a - b) & UINT256_MASK)
                        elif opcode == 0x51:  # MLOAD
                            offset = stack.pop()
                            gas = _expand(mem, offset, 32, gas)
                            stack.append(int.from_bytes(mem[offset:offset + 32], "big"))
                        elif opcode in (0xF3, 0xFD):  # RETURN, REVERT
                            offset, size = stack.pop(), stack.pop()
                            gas = _expand(mem, offset, size, gas)
                            return (TxStatus.SUCCESS if opcode == 0xF3 else TxStatus.REVERTED,
                                    bytes(mem[offset:offset + size]), gas)
                        # --- the rest, by opcode value ---
                        elif opcode == 0x02:  # MUL
                            stack.append((stack.pop() * stack.pop()) & UINT256_MASK)
                        elif opcode == 0x04:  # DIV
                            a, b = stack.pop(), stack.pop()
                            stack.append(a // b if b else 0)
                        elif opcode == 0x05:  # SDIV
                            a, b = _signed(stack.pop()), _signed(stack.pop())
                            if b == 0:
                                stack.append(0)
                            else:
                                q = abs(a) // abs(b)
                                stack.append((-q if (a < 0) != (b < 0) else q) & UINT256_MASK)
                        elif opcode == 0x06:  # MOD
                            a, b = stack.pop(), stack.pop()
                            stack.append(a % b if b else 0)
                        elif opcode == 0x07:  # SMOD
                            a, b = _signed(stack.pop()), _signed(stack.pop())
                            if b == 0:
                                stack.append(0)
                            else:
                                r = abs(a) % abs(b)
                                stack.append((-r if a < 0 else r) & UINT256_MASK)
                        elif opcode == 0x08:  # ADDMOD
                            a, b, m = stack.pop(), stack.pop(), stack.pop()
                            stack.append((a + b) % m if m else 0)
                        elif opcode == 0x09:  # MULMOD
                            a, b, m = stack.pop(), stack.pop(), stack.pop()
                            stack.append((a * b) % m if m else 0)
                        elif opcode == 0x0A:  # EXP
                            a, b = stack.pop(), stack.pop()
                            gas -= op.GAS_EXP_BYTE * ((b.bit_length() + 7) >> 3)
                            if gas < 0:
                                raise _OutOfGas
                            stack.append(pow(a, b, 1 << 256))
                        elif opcode == 0x0B:  # SIGNEXTEND
                            b, x = stack.pop(), stack.pop()
                            if b > 31:
                                stack.append(x)
                            else:
                                bit = 8 * b + 7
                                mask = (1 << (bit + 1)) - 1
                                if x & (1 << bit):
                                    stack.append((x | ~mask) & UINT256_MASK)
                                else:
                                    stack.append(x & mask)
                        elif opcode == 0x12:  # SLT
                            a, b = _signed(stack.pop()), _signed(stack.pop())
                            stack.append(1 if a < b else 0)
                        elif opcode == 0x13:  # SGT
                            a, b = _signed(stack.pop()), _signed(stack.pop())
                            stack.append(1 if a > b else 0)
                        elif opcode == 0x17:  # OR
                            stack.append(stack.pop() | stack.pop())
                        elif opcode == 0x18:  # XOR
                            stack.append(stack.pop() ^ stack.pop())
                        elif opcode == 0x19:  # NOT
                            stack.append(stack.pop() ^ UINT256_MASK)
                        elif opcode == 0x1A:  # BYTE
                            i, x = stack.pop(), stack.pop()
                            stack.append((x >> (8 * (31 - i))) & 0xFF if i < 32 else 0)
                        elif opcode == 0x1B:  # SHL
                            shift, v = stack.pop(), stack.pop()
                            stack.append((v << shift) & UINT256_MASK if shift < 256 else 0)
                        elif opcode == 0x1D:  # SAR
                            shift, v = stack.pop(), _signed(stack.pop())
                            if shift > 255:
                                stack.append(0 if v >= 0 else UINT256_MASK)
                            else:
                                stack.append((v >> shift) & UINT256_MASK)
                        elif opcode == 0x31:  # BALANCE
                            address = (stack.pop() & ADDRESS_MASK).to_bytes(20, "big")
                            reads.add((address, BALANCE))
                            stack.append(state.balance_of(address))
                        elif opcode in (0x37, 0x39, 0x3E):  # CALLDATACOPY, CODECOPY, RETURNDATACOPY
                            dst, src, size = stack.pop(), stack.pop(), stack.pop()
                            if opcode == 0x37:
                                source = calldata
                            elif opcode == 0x39:
                                source = code
                            else:  # only the return data faults on a read past its end
                                source = returndata
                                if src + size > len(returndata):
                                    raise _InvalidOp
                            gas = _expand(mem, dst, size,
                                          gas - op.GAS_COPY_WORD * ((size + 31) >> 5))
                            # a slice clamps any index, so a source too short zero-fills
                            mem[dst:dst + size] = source[src:src + size].ljust(size, b"\x00")
                        elif opcode == 0x53:  # MSTORE8
                            offset, val = stack.pop(), stack.pop()
                            gas = _expand(mem, offset, 1, gas)
                            mem[offset] = val & 0xFF
                        elif 0xA0 <= opcode <= 0xA4:  # LOG0..LOG4
                            if static:
                                raise _InvalidOp
                            offset, size = stack.pop(), stack.pop()
                            gas = _expand(mem, offset, size, gas - op.GAS_LOG_BYTE * size)
                            for _ in range(opcode - 0xA0):
                                stack.pop()
                        elif opcode == 0xF0:  # CREATE
                            if static:
                                raise _InvalidOp
                            endowment, offset, size = stack.pop(), stack.pop(), stack.pop()
                            gas = _expand(mem, offset, size, gas)
                            status, address, ret, gas = self.create(
                                self_address, endowment, bytes(mem[offset:offset + size]),
                                gas, depth)
                            stack.append(int.from_bytes(address, "big")
                                         if status is TxStatus.SUCCESS else 0)
                            # EIP-211: only a reverted init frame leaves return data
                            returndata = ret if status is TxStatus.REVERTED else b""
                            if status not in (None, TxStatus.SUCCESS):  # init code failed
                                swallowed.append(pc)
                        elif opcode == 0xFF:  # SELFDESTRUCT
                            if static:
                                raise _InvalidOp
                            beneficiary = (stack.pop() & ADDRESS_MASK).to_bytes(20, "big")
                            reads.add((self_address, BALANCE))
                            held = state.balance_of(self_address)
                            if held > 0:
                                self.emit(EventKind.ETHER_TRANSFER, pc, depth,
                                          (self_address, beneficiary, held))
                                if beneficiary == self_address:  # burnt
                                    self.set_balance(self_address, 0)
                                else:
                                    self.move(self_address, beneficiary, held)
                            acct = state.accounts[self_address]  # it runs code
                            self.journal.append(((self_address, CODE), acct.code))
                            self.journal.extend(((self_address, key), old)
                                                for key, old in acct.storage.items())
                            acct.code = b""
                            acct.storage = {}
                            return TxStatus.SUCCESS, b"", gas
                        else:  # INVALID, undefined bytes and a segment's fault
                            raise _OutOfGas if opcode == _CANNOT_PAY else _InvalidOp
            finally:
                # coverage once per block: how many of its instructions ran,
                # the faulting one included; a shorter run of the block in
                # another frame never lowers a longer one
                block_pcs = block.pcs
                if pc == block_pcs[-1]:
                    runs[block.start] = len(block_pcs)
                else:
                    ran = block_pcs.index(pc) + 1
                    if runs.get(block.start, 0) < ran:
                        runs[block.start] = ran
            if nxt is None:
                nxt = blocks.get(block.fallthrough)
                if nxt is None:  # ran off the end of the code
                    break
            transitions.add((block.start, nxt.start))
            block = nxt
        return TxStatus.SUCCESS, b"", gas

    def _run_agent(self, gas: int, pc: int, depth: int, caller_address: bytes,
                   caller_calldata: bytes, static: bool) -> tuple[TxStatus, bytes, int]:
        """The agent's virtual fallback: charge the logging fee, then act.

        `pc` is the caller's instruction that called the agent; a re-entry
        is anchored there."""
        policy = self.tx.agent_policy
        if policy is PolicyKind.THROWER:
            # throws before doing any work
            if gas < 3:
                return TxStatus.OUT_OF_GAS, b"", 0
            return TxStatus.REVERTED, b"", gas - 3
        gas -= AGENT_CALL_GAS
        if gas < 0:
            return TxStatus.OUT_OF_GAS, b"", 0
        if (policy is PolicyKind.REENTRANT and not static
                and self.reentries_used < MAX_REENTRIES
                and self.code_of(caller_address)):
            self.reentries_used += 1
            gas -= op.GAS_CALL_BASE
            if gas < 0:
                return TxStatus.OUT_OF_GAS, b"", 0
            # the caller's frame is live below the agent: re-entering it
            self.emit(EventKind.REENTRANCY, pc, depth + 1, (caller_address,))
            if depth + 1 <= CALL_DEPTH_LIMIT:  # a refused re-entry keeps its gas
                mark = len(self.journal)
                status, _, gas = self.run_frame(
                    self.code_of(caller_address), caller_address,
                    caller_address, AGENT_ADDRESS, 0, caller_calldata,
                    gas, depth + 1, static)
                if status is not TxStatus.SUCCESS:
                    self.rollback(mark)
        return TxStatus.SUCCESS, b"", gas


# --- public operations ----------------------------------------------------

def execute_transaction(state: WorldState, tx: Transaction,
                        persist: bool = True) -> ExecutionTrace:
    """Run one transaction against `state` and return the instrumented trace.

    State changes are applied only when the transaction succeeds; pass
    `persist=False` to roll back unconditionally (the trace still reflects
    the run). Raises ValueError when the sender cannot cover `tx.value`.
    """
    if tx.value < 0:
        raise ValueError("negative transaction value")

    machine = _Machine(state, tx)
    if tx.value and not machine.transfer(tx.sender, tx.target, tx.value):
        raise ValueError("sender balance below transaction value")
    code = machine.code_of(tx.target)
    if code:
        status, ret, gas_left = machine.run_frame(
            code, tx.target, tx.target, tx.sender, tx.value, tx.calldata,
            tx.gas_limit, 1, False)
    else:
        status, ret, gas_left = TxStatus.SUCCESS, b"", tx.gas_limit

    # every mutation is journaled and a failed child frame pops its own
    # entries, so what is left in the journal is what the transaction wrote
    writes = frozenset()
    if status is TxStatus.SUCCESS:
        writes = frozenset(location for location, _ in machine.journal)
    if status is not TxStatus.SUCCESS or not persist:
        machine.rollback(0)

    return ExecutionTrace(
        status=status,
        gas_used=tx.gas_limit - gas_left,
        block_runs=machine.block_runs,
        transitions=machine.transitions,
        events=machine.events,
        return_data=ret,
        reads=machine.reads,
        balance_tests=machine.balance_tests,
        writes=writes,
    )


def deploy_contract(state: WorldState, code: bytes, mode: str = "runtime",
                    constructor_args: bytes = b"", endowment: int = 0) -> bytes:
    """Install a contract from `DEPLOYER_ADDRESS` and return its address.

    `mode` is "runtime" (bytes become the account code verbatim) or
    "creation" (bytes plus appended constructor args run as init code with
    `DEPLOY_GAS`, as CREATE runs it, and the returned buffer becomes the
    account code). The address derives from the deployer's nonce. A failed
    creation raises DeploymentError and leaves `state` as it was.
    """
    if mode not in ("runtime", "creation"):
        raise ValueError(f"unknown deployment mode {mode!r}")
    if endowment and state.balance_of(DEPLOYER_ADDRESS) < endowment:
        raise ValueError("deployer balance below endowment")

    if mode == "runtime":
        deployer_acct = state.account(DEPLOYER_ADDRESS)
        address = contract_address(DEPLOYER_ADDRESS, deployer_acct.nonce)
        deployer_acct.nonce += 1
        acct = state.account(address)
        acct.code = code
        if endowment:
            deployer_acct.balance -= endowment
            acct.balance = endowment
        return address

    # a creation has no target, and no code runs at the zero address; the
    # deployer is its origin and its caller
    machine = _Machine(state, Transaction(target=ZERO_ADDRESS,
                                          sender=DEPLOYER_ADDRESS))
    status, address, _, _ = machine.create(DEPLOYER_ADDRESS, endowment,
                                           code + constructor_args, DEPLOY_GAS, 0)
    if status is not TxStatus.SUCCESS:
        machine.rollback(0)
        raise DeploymentError(f"{address.hex()} already holds code" if status is None
                              else f"init code halted with {status.value}")
    return address
