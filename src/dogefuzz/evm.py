"""Bytecode interpreter with execution instrumentation for fuzzing.

Implements an Istanbul-era stack machine over a journaled world state and
records, besides coverage, the eight event kinds the bug oracles consume:
Delegate, GaslessSend, ExceptionDisorder, BlockNumber, Timestamp,
Reentrancy, StorageChanged, EtherTransfer.

Each frame runs over `cfg.analyze`, the one decode of its code into basic
blocks shared with `build_cfg`: instructions come pre-decoded with their
PUSH operands, and JUMP/JUMPI end a block.  A block runs as gas segments,
each ending after an instruction whose charge depends on operands or
state (`opcodes.DYNAMIC_GAS`), or after GAS, which reads the gas left.
Each segment has one static gate (`BasicBlock.segments`): its base gas
(`opcodes.BASE_GAS`), how many words of the entry stack it reads, and the
highest entry height with room for all its pushes.  A segment whose gate
passes pays at entry, in one step, and cannot underflow or overflow the
stack; one whose gate fails runs up to the first instruction that would
fault and faults there, out of gas or, for a stack underflow or overflow,
invalid, so every fault keeps its exact pc.  Coverage is recorded once
per block: per code address and code, a trace keeps how many instructions
of each block ran (for a block that faulted, the prefix up to the fault;
the longest run wins), and for frames of the fuzzed target each edge
(block start, next block start) that `build_cfg` draws.

Where the loop lands on the first of a chain of stack-only blocks, the
chain runs as one generated Python function that keeps the chain's stack
in locals.  Its blocks hold only stack, arithmetic, comparison and bitwise
work at fixed gas, JUMPDEST, PC, CALLDATALOAD, CALLDATASIZE and CALLVALUE
(`_CHAINABLE`), and end in JUMP, JUMPI, STOP or a fallthrough.  A chain
follows fallthroughs, untaken JUMPIs and every JUMP whose constant target
(`BasicBlock.jump_target`) is a JUMPDEST, over `CHAIN_MIN_BLOCKS` to
`CHAIN_MAX_BLOCKS` blocks.  Its gate is folded from its blocks' segment
gates: it is entered only when the gas pays the base gas of all its blocks
and the stack holds what it reads and has room for all it pushes, so
nothing inside it can fault but a jump to a non-JUMPDEST; otherwise its
blocks run in the loop.  An exit after block k
pays the base gas of blocks 0..k, puts the stack back and records itself:
each exit is one prebuilt `ChainExit` holding blocks 0..k, all run whole,
and the edges between them, which the frame appends to its record beside
the runs the loop recorded, and which a campaign folds into its coverage
once.  Chains derive from code bytes alone, so `CodeAnalysis.chains`
caches them, and each is compiled when it is first entered.

Each opcode that computes a word from the stack alone, ADD to SAR, is
spelled once, as a Python expression in `_TEMPLATES`: a chain inlines it
over its locals, and the dispatch loop calls the function compiled from
it at import (`_WORDS`).  EXP, whose gas depends on its operand, runs in
the loop only.

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
((address, PRESENT), None).  A successful run's journal gives its net
changes: per location, the end value less the first entry's old value, or
the new code, or None for a created account.  `reapply` adds them to a
state a cached outcome is still valid against, as a rerun would.

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
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from . import opcodes as op
from .cfg import STACK_LIMIT, BasicBlock, Instruction, analyze, segment_gate
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


# the members, unpacked in declaration order: the interpreter tests them
# so, sparing an enum class read (about 150 ns on Python 3.11) on every run
_SUCCESS, _REVERTED, _OUT_OF_GAS, _INVALID_OPCODE = TxStatus
(_DELEGATE, _GASLESS_SEND, _EXCEPTION_DISORDER, _BLOCK_NUMBER, _TIMESTAMP,
 _REENTRANCY, _STORAGE_CHANGED, _ETHER_TRANSFER) = EventKind
_REENTRANT, _THROWER = PolicyKind.REENTRANT, PolicyKind.THROWER


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


class ChainExit:
    """One exit of a compiled chain: the blocks it runs, every one whole,
    as {block start: instructions}, and the block edges it takes, in path
    order.

    Each is built once, with its chain, and a frame that leaves the chain
    there records the object itself, so an exit costs a run one append and
    a campaign that has folded it into its coverage can skip it after.
    The edges are a tuple, not a set: a campaign reads them once, and a
    set takes several times the memory (216 against 64 bytes for three).
    """

    __slots__ = ("runs", "edges")

    def __init__(self, runs: dict[int, int],
                 edges: tuple[tuple[int, int], ...]) -> None:
        self.runs = runs
        self.edges = edges


# what the frames of one code record: the block runs the loop recorded, and
# the chain exits taken, in order
FrameRecord = tuple[dict[int, int], list[ChainExit]]


@dataclass
class ExecutionTrace:
    """Outcome and instrumentation of one transaction.

    `records` maps (code address, code), in frame entry order, to what the
    frames running that code recorded: block runs from the loop, and the
    chain exits they took.  `edges` holds the block edges the target's
    frames took outside those exits: in the loop, and by a computed jump
    out of a chain.

    `reads` holds every location the transaction read: (address, key) for
    a storage slot, and (address, BALANCE), (address, NONCE),
    (address, CODE) or (address, PRESENT) for an exact balance, a nonce,
    code or whether the account exists.  Each `balance_tests` entry
    (address, need, passed) says a value move tested the address's balance
    and whether it held enough: it does exactly when the balance the
    transaction starts with is at least `need`.  SELFDESTRUCT, which moves
    all the balance there is, reads it exactly instead.  Rerun against a
    state that differs in none of its reads and fails none of its tests,
    the transaction takes the same path with the same outcome.  `writes` maps
    each location a successful transaction left in its journal, whether or
    not it was persisted, to its net change: the amount added to a slot, a
    balance or a nonce, the new code, or None for a created account.  It is
    empty for a failed transaction, and when it is empty, persisting the
    transaction leaves the state as it was.
    """

    status: TxStatus
    gas_used: int
    events: list[ExecutionEvent]
    return_data: bytes = b""
    reads: set[Location] = field(default_factory=set)
    balance_tests: list[tuple[bytes, int, bool]] = field(default_factory=list)
    writes: Mapping[Location, int | bytes | None] = field(default_factory=dict)
    records: dict[tuple[bytes, bytes], FrameRecord] = field(default_factory=dict)
    edges: set[tuple[int, int]] = field(default_factory=set)

    @property
    def executed_pcs(self) -> dict[bytes, set[int]]:
        """Code address -> executed instruction pcs, read off the records:
        every run is a prefix of its block, so the union of a block's runs
        is its longest."""
        executed: dict[bytes, set[int]] = {}
        for (address, code), (runs, exits) in self.records.items():
            pcs = executed.setdefault(address, set())
            blocks = analyze(code).blocks
            for start, ran in runs.items():
                pcs.update(blocks[start].pcs[:ran])
            for chain_exit in exits:
                for start in chain_exit.runs:  # a chain's blocks run whole
                    pcs.update(blocks[start].pcs)
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
# what `CodeAnalysis.chains` gives for a block start not yet looked at
_UNSEEN = object()


def _up_to_fault(instructions: tuple[Instruction, ...], gas: int,
                 height: int) -> tuple[int, tuple[Instruction, ...]]:
    """A segment refused at its gate, cut at its first fault.

    The first instruction that cannot pay its base gas or, having paid,
    would read below the stack or push it past `STACK_LIMIT` is found
    statically, as gas and stack heights within a segment are fixed
    relative to its entry.  The instructions before it are returned with a
    pseudo-instruction at its pc that faults as it would: out of gas, or
    invalid for the underflow or overflow.  The gas returned has paid for
    the instructions before it.
    """
    for k, (pc, opcode, _) in enumerate(instructions):
        cost = op.BASE_GAS[opcode]
        if (cost > gas or height < op.STACK_READS[opcode]  # gas is checked first
                or height + op.STACK_GROWTH[opcode] > STACK_LIMIT):
            fault = _CANNOT_PAY if cost > gas else op.INVALID
            return gas, instructions[:k] + ((pc, fault, None),)
        gas -= cost
        height += op.STACK_GROWTH[opcode]
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


# the semantics of the opcodes that take more than one line, called from
# their templates (and CALLDATALOAD's by the dispatch loop too); operands
# come top first

def _sdiv(a: int, b: int) -> int:
    a, b = _signed(a), _signed(b)
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return (-q if (a < 0) != (b < 0) else q) & UINT256_MASK


def _smod(a: int, b: int) -> int:
    a, b = _signed(a), _signed(b)
    if b == 0:
        return 0
    r = abs(a) % abs(b)
    return (-r if a < 0 else r) & UINT256_MASK


def _signextend(b: int, x: int) -> int:
    if b > 31:
        return x
    bit = 8 * b + 7
    mask = (1 << (bit + 1)) - 1
    return (x | ~mask) & UINT256_MASK if x & (1 << bit) else x & mask


def _sar(shift: int, v: int) -> int:
    v = _signed(v)
    if shift > 255:
        return 0 if v >= 0 else UINT256_MASK
    return (v >> shift) & UINT256_MASK


def _calldataload(calldata: bytes, offset: int) -> int:
    if offset >= len(calldata):
        return 0
    return int.from_bytes(calldata[offset:offset + 32].ljust(32, b"\x00"), "big")


# --- compiled chains ------------------------------------------------------

# a compiled chain follows at most this many blocks; a shorter path than
# the minimum is left to the dispatch loop
CHAIN_MAX_BLOCKS = 64
CHAIN_MIN_BLOCKS = 2

# the Python expression of each stack-only opcode that computes a word,
# over its operands `{0}`, `{1}`, `{2}` (top first) and the word mask `{M}`:
# the one spelling of each, which compiled chains inline and the dispatch
# loop runs as `_WORDS`
_TEMPLATES: dict[int, str] = {
    op.ADD: "({0} + {1}) & {M}",
    op.MUL: "({0} * {1}) & {M}",
    op.SUB: "({0} - {1}) & {M}",
    op.DIV: "{0} // {1} if {1} else 0",
    op.SDIV: "_sdiv({0}, {1})",
    op.MOD: "{0} % {1} if {1} else 0",
    op.SMOD: "_smod({0}, {1})",
    op.ADDMOD: "({0} + {1}) % {2} if {2} else 0",
    op.MULMOD: "({0} * {1}) % {2} if {2} else 0",
    op.SIGNEXTEND: "_signextend({0}, {1})",
    op.LT: "1 if {0} < {1} else 0",
    op.GT: "1 if {0} > {1} else 0",
    op.SLT: "1 if _signed({0}) < _signed({1}) else 0",
    op.SGT: "1 if _signed({0}) > _signed({1}) else 0",
    op.EQ: "1 if {0} == {1} else 0",
    op.ISZERO: "0 if {0} else 1",
    op.AND: "{0} & {1}",
    op.OR: "{0} | {1}",
    op.XOR: "{0} ^ {1}",
    op.NOT: "{0} ^ {M}",
    op.BYTE: "({1} >> (248 - 8 * {0})) & 255 if {0} < 32 else 0",
    op.SHL: "({1} << {0}) & {M} if {0} < 256 else 0",
    op.SHR: "{1} >> {0} if {0} < 256 else 0",
    op.SAR: "_sar({0}, {1})",
    op.CALLDATALOAD: "_calldataload(calldata, {0})",
    op.CALLDATASIZE: "len(calldata)",
    op.CALLVALUE: "value",
}

# what a chain's blocks may hold: no dynamic gas, no state, no event, and
# no fault but underflow, overflow and a jump to a non-JUMPDEST
_CHAINABLE = frozenset(
    set(_TEMPLATES) | set(range(op.PUSH0, op.SWAP16 + 1))
    | {op.POP, op.JUMPDEST, op.PC, op.JUMP, op.JUMPI, op.STOP})

# what compiled source may name besides its locals and tables
_COMPILED_GLOBALS = {"_sdiv": _sdiv, "_smod": _smod, "_signextend": _signextend,
                     "_sar": _sar, "_signed": _signed,
                     "_calldataload": _calldataload, "_InvalidOp": _InvalidOp}


def _compiled(source: str, tables: dict[str, object], label: str) -> dict:
    """The names `source` defines, compiled as `label` and run over
    `_COMPILED_GLOBALS` and `tables`: how chains and `_WORDS` are built."""
    namespace = {**_COMPILED_GLOBALS, **tables}
    exec(compile(source, label, "exec"), namespace)
    return namespace


def _word(byte: int) -> Callable[[list[int]], None]:
    """The function that pops the operands of `byte`, top first, and
    pushes the word its template computes."""
    operands = [f"x{j}" for j in range(op.STACK_READS[byte])]
    source = "\n    ".join(
        ["def word(stack):", *(f"{x} = stack.pop()" for x in operands),
         f"stack.append({_TEMPLATES[byte].format(*operands, M=UINT256_MASK)})\n"])
    return _compiled(source, {}, f"<{op.MNEMONICS[byte]}>")["word"]


# what the dispatch loop runs for each template that reads only the stack;
# the other three read the frame, which the loop holds in its own locals
_WORDS = {byte: _word(byte) for byte in _TEMPLATES
          if byte not in (op.CALLDATALOAD, op.CALLDATASIZE, op.CALLVALUE)}


def _chain_path(blocks: dict[int, BasicBlock], jumpdests: dict[int, BasicBlock],
                start: int) -> tuple[list[BasicBlock], int]:
    """The stack-only blocks a chain entered at `start` runs through, and
    how many of its first blocks each start a chain through the rest of it.

    It follows fallthroughs, a JUMPI's fallthrough and a JUMP whose
    `jump_target` is a JUMPDEST, and stops after STOP, before a block it
    holds already or one with an instruction outside `_CHAINABLE`, and at
    `CHAIN_MAX_BLOCKS`.  Only a path cut short goes on from a later block:
    one cut at `CHAIN_MAX_BLOCKS` from any, one cut before a block it holds
    from those after that block.
    """
    path: list[BasicBlock] = []
    index: dict[int, int] = {}
    block = blocks[start]
    while (block is not None
           and _CHAINABLE.issuperset([ins[1] for ins in block.instructions])):
        if block.start in index or len(path) == CHAIN_MAX_BLOCKS:
            return path, index.get(block.start, 0) + 1
        index[block.start] = len(path)
        path.append(block)
        last = block.instructions[-1][1]
        if last == op.STOP:
            break
        block = (jumpdests.get(block.jump_target) if last == op.JUMP
                 else blocks.get(block.fallthrough))
    return path, len(path)


def _chain_gates(path: list[BasicBlock]) -> list[tuple[int, int, int]]:
    """The gate of the chain through each suffix of `path`, longest first:
    the base gas of all its blocks, how many words of the entry stack it
    reads, and the highest entry stack with room for all its pushes.  Each
    is folded from the next one and its first block's gate, shifted by
    that block's net stack growth `height`.  A chain's block holds no
    dynamic charge and no GAS, so its gate is its one segment's; it is
    walked here rather than read from `BasicBlock.segments`, which would
    keep a segment tuple on every block that only ever runs in a chain."""
    gates = []
    gas, need, room = 0, 0, STACK_LIMIT
    for block in reversed(path):
        seg_gas, reads, space, height = segment_gate(block.instructions)
        gas, need, room = (gas + seg_gas, max(reads, need - height),
                           min(space, room - height))
        gates.append((gas, need, room))
    return gates[::-1]


def _chain_source(blocks: dict[int, BasicBlock], jumpdests: dict[int, BasicBlock],
                  path: list[BasicBlock], gates: list[tuple[int, int, int]]
                  ) -> tuple[str, dict[str, object]]:
    """Python source of the chain through `path`, whose suffixes' gates
    `_chain_gates` gives as `gates`, and the tables it reads.

    The function `chain(stack, gas, calldata, value, exits, transitions)`
    returns None, touching nothing, unless `gas` and `stack` pass the gate.
    Otherwise it keeps the chain's stack in locals and leaves at the first
    taken jump or at the end of the path.  An exit at block k puts the
    stack back once, appends to `exits` its `ChainExit`, which holds every
    block up to k as run whole and each edge it took, and returns the gas
    less the blocks' base gas and the block to go on at, None when the
    frame stops; a computed jump's one edge goes to `transitions`.  A jump
    to a non-JUMPDEST records the same exit and raises `_InvalidOp`.  Only
    template text, local and table names and decimal integers reach the
    source.
    """
    gas, need, room = gates[0]
    # the chain's stack, bottom first: the entry words it reads, then
    # local names and literals
    entry = [f"i{depth}" for depth in range(need, 0, -1)]
    stack = list(entry)
    lines = ["def chain(stack, gas, calldata, value, exits, transitions):",
             f"    if gas < {gas} or not {need} <= len(stack) <= {room}:",
             "        return None"]
    if need == 1:
        lines.append("    i1 = stack.pop()")
    elif need:
        lines.extend((f"    {', '.join(entry)} = stack[-{need}:]",
                      f"    del stack[-{need}:]"))
    tables: dict[str, object] = {"jumpdests": jumpdests}
    runs: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    temps = 0

    def leave(indent: str, source: int, dest: str | None,
              after: BasicBlock | None) -> None:
        """An exit at the block starting at `source`: to `dest` if a jump
        is taken, else on to `after`."""
        x = len(tables)
        if dest is not None and dest.isdigit():
            after = jumpdests.get(int(dest))
            if after is None:
                tables[f"X{x}"] = ChainExit(dict(runs), tuple(edges))
                lines.extend((f"{indent}exits.append(X{x})",
                              f"{indent}raise _InvalidOp"))
                return
            dest = None
        if dest is not None:
            lines.append(f"{indent}nxt = jumpdests.get({dest})")
        if (dest is not None or after is not None) and stack:  # the frame goes on
            lines.append(f"{indent}stack.append({stack[0]})" if len(stack) == 1
                         else f"{indent}stack.extend(({', '.join(stack)}))")
        tables[f"X{x}"] = ChainExit(dict(runs), tuple(edges) if after is None
                                    else (*edges, (source, after.start)))
        lines.append(f"{indent}exits.append(X{x})")
        if dest is not None:
            lines.extend((f"{indent}if nxt is None:",
                          f"{indent}    raise _InvalidOp",
                          f"{indent}transitions.add(({source}, nxt.start))",
                          f"{indent}return gas - {paid}, nxt"))
        else:
            tables[f"B{x}"] = after
            lines.append(f"{indent}return gas - {paid}, B{x}")

    for k, block in enumerate(path):
        runs[block.start] = len(block.pcs)
        last = k == len(path) - 1
        # an exit comes only at a block's end, having paid the base gas of
        # every block up to it: all but the gate of the path after it
        paid = gas - (0 if last else gates[k + 1][0])
        for pc, byte, push in block.instructions:
            if push is not None:
                stack.append(str(push))
            elif op.DUP1 <= byte <= op.DUP16:
                stack.append(stack[op.DUP1 - byte - 1])
            elif op.SWAP1 <= byte <= op.SWAP16:
                depth = byte - op.SWAP1 + 2
                stack[-1], stack[-depth] = stack[-depth], stack[-1]
            elif byte == op.POP:
                stack.pop()
            elif byte == op.PC:
                stack.append(str(pc))
            elif byte in _TEMPLATES:
                operands = [stack.pop() for _ in range(op.STACK_READS[byte])]
                temps += 1
                lines.append(f"    t{temps} = "
                             + _TEMPLATES[byte].format(*operands, M=UINT256_MASK))
                stack.append(f"t{temps}")
            elif byte == op.JUMPI:
                dest, cond = stack.pop(), stack.pop()
                lines.append(f"    if {cond}:")
                leave("        ", block.start, dest, None)
            elif byte == op.JUMP:
                dest = stack.pop()
                if last:
                    leave("    ", block.start, dest, None)
        ending = block.instructions[-1][1]
        if not last:
            edges.append((block.start, path[k + 1].start))
        elif ending != op.JUMP:  # a JUMPI not taken, STOP or a fallthrough
            leave("    ", block.start, None,
                  None if ending == op.STOP else blocks.get(block.fallthrough))
    return "\n".join(lines) + "\n", tables


def _compile_chain(source: str, tables: dict[str, object], start: int) -> Callable:
    return _compiled(source, tables, f"<chain {start}>")["chain"]


def _stand_in(chains: dict[int, Callable | None], blocks: dict[int, BasicBlock],
              jumpdests: dict[int, BasicBlock], path: list[BasicBlock],
              shared: int, gates: list[tuple[int, int, int]],
              k: int) -> Callable | None:
    """What `chains` holds for `path[k].start`, for k below `shared`, before
    the chain there is first entered: None where the rest of the path holds
    fewer than `CHAIN_MIN_BLOCKS` blocks or no stack passes its gate, else a
    stand-in that tests the gate and, the first time it passes, compiles
    the chain, puts it in `chains` in its own place and runs it.  So a
    chain never entered is never compiled.  A stand-in refused at its gate
    puts the next block's in `chains`, so a loop that lands on each block
    of a refused path in turn walks it once."""
    if len(path) - k < CHAIN_MIN_BLOCKS or gates[k][1] > gates[k][2]:
        return None
    gas, need, room = gates[k]
    start = path[k].start

    def enter_first(stack: list[int], gas_left: int, *frame: object):
        if gas_left < gas or not need <= len(stack) <= room:
            if k + 1 < shared and path[k + 1].start not in chains:
                chains[path[k + 1].start] = _stand_in(
                    chains, blocks, jumpdests, path, shared, gates, k + 1)
            return None
        source, tables = _chain_source(blocks, jumpdests, path[k:], gates[k:])
        compiled = chains[start] = _compile_chain(source, tables, start)
        return compiled(stack, gas_left, *frame)

    return enter_first


class _Machine:
    """One transaction's execution: frames, journal, instrumentation."""

    def __init__(self, state: WorldState, tx: Transaction) -> None:
        self.state = state
        self.tx = tx
        self.journal: list[tuple[Location, object]] = []
        self.events: list[ExecutionEvent] = []
        self.records: dict[tuple[bytes, bytes], FrameRecord] = {}
        self.edges: set[tuple[int, int]] = set()
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
        it made emits one ExceptionDisorder per such site.  Stack faults are
        found at segment gates, so any other exception, an IndexError
        included, is a fault of the interpreter and escapes."""
        self.address_stack.append(self_address)
        swallowed: list[int] = []
        try:
            status, ret, gas = self._dispatch_loop(
                code, code_address, self_address, caller, value, calldata, gas,
                depth, static, swallowed)
        except _OutOfGas:
            return _OUT_OF_GAS, b"", 0
        except _InvalidOp:
            return _INVALID_OPCODE, b"", 0
        finally:
            self.address_stack.pop()
        if status is _SUCCESS:
            for site in swallowed:
                self.emit(_EXCEPTION_DISORDER, site, depth)
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
        if status is _SUCCESS:
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
        _, blocks, jumpdests, _, _, chains = analyze(code)
        pushes_one = op.PUSHES_ONE
        words = _WORDS
        runs, exits = self.records.setdefault((code_address, code), ({}, []))
        # a frame not of the target draws its edges into a throwaway set
        transitions = self.edges if code_address == tx.target else set()
        reads = self.reads

        stack: list[int] = []
        mem = bytearray()
        returndata = b""
        n = len(code)

        block = blocks.get(0)
        while block is not None:
            # a chain of stack-only blocks from here runs compiled when it
            # can pay all its base gas and has the stack it needs
            chain = chains.get(block.start, _UNSEEN)
            if chain is _UNSEEN:
                path, shared = _chain_path(blocks, jumpdests, block.start)
                chain = chains[block.start] = _stand_in(
                    chains, blocks, jumpdests, path, shared, _chain_gates(path), 0)
            if chain is not None:
                entered = chain(stack, gas, calldata, value, exits, transitions)
                if entered is not None:
                    gas, block = entered
                    continue
            nxt = None  # a taken jump's destination block
            try:
                for instructions, seg_gas, need, room in block.segments:
                    # a segment pays its base gas and checks its stack at
                    # entry; only its last instruction may charge more
                    if gas >= seg_gas and need <= len(stack) <= room:
                        gas -= seg_gas
                    else:
                        gas, instructions = _up_to_fault(instructions, gas, len(stack))
                    # literal opcodes, most frequent first by the loop's
                    # counts over the bench workloads, but the CALL family
                    # after the cheap ones: its work dwarfs the tests ahead
                    # of it, and its own test would slow each one after it
                    for pc, opcode, push in instructions:
                        if push is not None:  # PUSH0..PUSH32
                            stack.append(push)
                        elif opcode in pushes_one:  # the (0, 1) row: one word from context
                            if opcode == 0x33:  # CALLER
                                stack.append(int.from_bytes(caller, "big"))
                            elif opcode == 0x5A:  # GAS: it ends its segment
                                stack.append(gas)
                            elif opcode == 0x34:  # CALLVALUE
                                stack.append(value)
                            elif opcode == 0x30:  # ADDRESS
                                stack.append(int.from_bytes(self_address, "big"))
                            elif opcode == 0x42:  # TIMESTAMP
                                self.emit(_TIMESTAMP, pc, depth)
                                stack.append(tx.block.timestamp)
                            elif opcode == 0x43:  # NUMBER
                                self.emit(_BLOCK_NUMBER, pc, depth)
                                stack.append(tx.block.number)
                            elif opcode == 0x58:  # PC
                                stack.append(pc)
                            elif opcode == 0x36:  # CALLDATASIZE
                                stack.append(len(calldata))
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
                        elif opcode == 0x5B:  # JUMPDEST
                            pass
                        elif opcode in words:  # the word ops: ADD .. SAR
                            words[opcode](stack)
                        elif opcode == 0x00:  # STOP
                            return _SUCCESS, b"", gas
                        elif opcode == 0x52:  # MSTORE
                            offset, val = stack.pop(), stack.pop()
                            gas = _expand(mem, offset, 32, gas)
                            mem[offset:offset + 32] = val.to_bytes(32, "big")
                        elif 0x80 <= opcode <= 0x8F:  # DUP1..DUP16
                            stack.append(stack[0x7F - opcode])
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
                                self.emit(_STORAGE_CHANGED, pc, depth,
                                          (self_address, key, old, val))
                        elif opcode == 0x54:  # SLOAD
                            key = stack.pop()
                            reads.add((self_address, key))
                            acct = state.accounts.get(self_address)
                            stack.append(acct.storage.get(key, 0) if acct is not None else 0)
                        elif opcode == 0x57:  # JUMPI
                            dest, cond = stack.pop(), stack.pop()
                            if cond:
                                nxt = jumpdests.get(dest)
                                if nxt is None:
                                    raise _InvalidOp
                        elif opcode == 0x50:  # POP
                            stack.pop()
                        elif opcode == 0x35:  # CALLDATALOAD
                            stack.append(_calldataload(calldata, stack.pop()))
                        elif opcode == 0x20:  # SHA3
                            offset, size = stack.pop(), stack.pop()
                            gas = _expand(mem, offset, size,
                                          gas - op.GAS_SHA3_WORD * ((size + 31) >> 5))
                            digest = keccak256(bytes(mem[offset:offset + size]))
                            stack.append(int.from_bytes(digest, "big"))
                        elif 0x90 <= opcode <= 0x9F:  # SWAP1..SWAP16
                            k = opcode - 0x8F
                            stack[-1], stack[-1 - k] = stack[-1 - k], stack[-1]
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
                                self.emit(_DELEGATE, pc, depth, (target,))
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
                                self.emit(_ETHER_TRANSFER, pc, depth,
                                          (self_address, receiver, call_value))
                            child_self = (target if opcode in (op.CALL, op.STATICCALL)
                                          else self_address)
                            delegated = opcode == op.DELEGATECALL  # inherits caller and value
                            child_static = static or opcode == op.STATICCALL
                            child_code = self.code_of(target)
                            if opcode == op.CALL and child_code and target in self.address_stack:
                                self.emit(_REENTRANCY, pc, depth + 1, (target,))
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
                                status, returndata, child_left = _SUCCESS, b"", callee_gas
                            gas += child_left
                            if status is _SUCCESS:
                                stack.append(1)
                                if out_size:
                                    chunk = returndata[:out_size]
                                    mem[out_off:out_off + len(chunk)] = chunk
                            else:
                                self.rollback(mark)
                                swallowed.append(pc)
                                if (status is _OUT_OF_GAS and call_value
                                        and opcode == op.CALL and callee_gas == op.GAS_STIPEND):
                                    self.emit(_GASLESS_SEND, pc, depth, (target,))
                                stack.append(0)
                                if status is not _REVERTED:
                                    returndata = b""
                        elif opcode in (0xF3, 0xFD):  # RETURN, REVERT
                            offset, size = stack.pop(), stack.pop()
                            gas = _expand(mem, offset, size, gas)
                            return (_SUCCESS if opcode == 0xF3 else _REVERTED,
                                    bytes(mem[offset:offset + size]), gas)
                        elif opcode == 0x56:  # JUMP
                            nxt = jumpdests.get(stack.pop())
                            if nxt is None:
                                raise _InvalidOp
                        # --- the rest, by opcode value ---
                        elif opcode == 0x0A:  # EXP
                            a, b = stack.pop(), stack.pop()
                            gas -= op.GAS_EXP_BYTE * ((b.bit_length() + 7) >> 3)
                            if gas < 0:
                                raise _OutOfGas
                            stack.append(pow(a, b, 1 << 256))
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
                        elif opcode == 0x51:  # MLOAD
                            offset = stack.pop()
                            gas = _expand(mem, offset, 32, gas)
                            stack.append(int.from_bytes(mem[offset:offset + 32], "big"))
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
                                         if status is _SUCCESS else 0)
                            # EIP-211: only a reverted init frame leaves return data
                            returndata = ret if status is _REVERTED else b""
                            if status not in (None, _SUCCESS):  # init code failed
                                swallowed.append(pc)
                        elif opcode == 0xFF:  # SELFDESTRUCT
                            if static:
                                raise _InvalidOp
                            beneficiary = (stack.pop() & ADDRESS_MASK).to_bytes(20, "big")
                            reads.add((self_address, BALANCE))
                            held = state.balance_of(self_address)
                            if held > 0:
                                self.emit(_ETHER_TRANSFER, pc, depth,
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
                            return _SUCCESS, b"", gas
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
        return _SUCCESS, b"", gas

    def _run_agent(self, gas: int, pc: int, depth: int, caller_address: bytes,
                   caller_calldata: bytes, static: bool) -> tuple[TxStatus, bytes, int]:
        """The agent's virtual fallback: charge the logging fee, then act.

        `pc` is the caller's instruction that called the agent; a re-entry
        is anchored there."""
        policy = self.tx.agent_policy
        if policy is _THROWER:
            # throws before doing any work
            if gas < 3:
                return _OUT_OF_GAS, b"", 0
            return _REVERTED, b"", gas - 3
        gas -= AGENT_CALL_GAS
        if gas < 0:
            return _OUT_OF_GAS, b"", 0
        if (policy is _REENTRANT and not static
                and self.reentries_used < MAX_REENTRIES
                and self.code_of(caller_address)):
            self.reentries_used += 1
            gas -= op.GAS_CALL_BASE
            if gas < 0:
                return _OUT_OF_GAS, b"", 0
            # the caller's frame is live below the agent: re-entering it
            self.emit(_REENTRANCY, pc, depth + 1, (caller_address,))
            if depth + 1 <= CALL_DEPTH_LIMIT:  # a refused re-entry keeps its gas
                mark = len(self.journal)
                status, _, gas = self.run_frame(
                    self.code_of(caller_address), caller_address,
                    caller_address, AGENT_ADDRESS, 0, caller_calldata,
                    gas, depth + 1, static)
                if status is not _SUCCESS:
                    self.rollback(mark)
        return _SUCCESS, b"", gas


# --- net changes ----------------------------------------------------------

# the `writes` of every run that leaves its journal empty, shared
_NO_WRITES: Mapping[Location, int | bytes | None] = MappingProxyType({})


def _net_changes(state: WorldState, journal: list[tuple[Location, object]]
                 ) -> dict[Location, int | bytes | None]:
    """Each journaled location's net change, read before any rollback: a
    location's first entry holds its value before the transaction, as
    every earlier write to it was rolled back."""
    accounts = state.accounts
    changes: dict[Location, int | bytes | None] = {}
    # reversed, each location keeps its first entry's old value
    for location, old in dict(reversed(journal)).items():
        address, key = location
        if isinstance(key, int):
            changes[location] = accounts[address].storage.get(key, 0) - old
        elif key == PRESENT:
            changes[location] = None
        elif key == CODE:
            changes[location] = accounts[address].code
        else:
            changes[location] = getattr(accounts[address], key) - old
    return changes


def reapply(state: WorldState, writes: Mapping[Location, int | bytes | None]
            ) -> bool:
    """Add a successful run's net changes `writes` to `state`, leaving it as
    a rerun would; whether it did.

    A cached outcome is still valid against `state`, so every slot and
    nonce it wrote, which its run also read, holds the value that run
    started from.  A balance may not: a value move records only a balance
    test, so each change is added rather than the end value set.  Refuses,
    touching nothing, when the run wrote code: a SELFDESTRUCT clears slots
    the run never read, so its net changes may not hold for this state.
    """
    if any(key == CODE for _, key in writes):
        return False
    for (address, key), change in writes.items():
        acct = state.account(address)
        if isinstance(key, int):
            value = acct.storage.get(key, 0) + change
            if value:
                acct.storage[key] = value
            else:
                acct.storage.pop(key, None)
        elif key != PRESENT:
            setattr(acct, key, getattr(acct, key) + change)
    return True


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
        status, ret, gas_left = _SUCCESS, b"", tx.gas_limit

    # every mutation is journaled and a failed child frame pops its own
    # entries, so what is left in the journal is what the transaction wrote
    writes = _NO_WRITES
    if machine.journal:
        if status is _SUCCESS:
            writes = _net_changes(state, machine.journal)
        if status is not _SUCCESS or not persist:
            machine.rollback(0)

    # by position, in field order: cheaper than by keyword on every run
    return ExecutionTrace(status, tx.gas_limit - gas_left, machine.events, ret,
                          machine.reads, machine.balance_tests, writes,
                          machine.records, machine.edges)


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
    if status is not _SUCCESS:
        machine.rollback(0)
        raise DeploymentError(f"{address.hex()} already holds code" if status is None
                              else f"init code halted with {status.value}")
    return address
