"""Seeded random programs for differential checks of the interpreter.

`generate(seed)` draws one program: a target contract, a callee contract
and one transaction into the target, as plain bytes and numbers that do
not depend on the interpreter's revision.  `digests(program)` runs it
with whatever `dogefuzz` is importable and returns a sha256 per
observable field, so that two revisions can be compared field by field
(`scripts/evm_diff.py`).

The programs gather what gas and stack boundaries touch: call sites of
all four kinds (into the callee, the agent, the target itself, an empty
account, an address read from calldata, a contract just created), CREATE
sites whose init code returns, reverts or faults, SSTORE, SHA3 and memory
at small and large offsets, copies of calldata and code from within and
far past their end, context reads, jumps to real and bogus JUMPDESTs,
runs of up to 1030 DUPs, truncated PUSHes at the end of the code, and gas
limits log-uniform from 20 to 3M.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import NamedTuple

from dogefuzz.opcodes import OPCODES

TARGET = bytes([0x7A]) * 20
CALLEE = bytes([0xCE]) * 20
EMPTY = bytes([0x0E]) * 20
AGENT = bytes([0xAA]) * 20  # the interpreter's built-in agent account
POLICIES = ("Benign", "Reentrant", "Thrower")
FIELDS = ("status", "gas_used", "events", "block_runs", "transitions",
          "return_data", "state")

# init codes a CREATE site copies to memory, each under 32 bytes: return
# one byte of zeros (code STOP), revert, fault, write storage then return
# the PUSH1 32 / PUSH1 0 / RETURN runtime, and none at all
_INIT_CODES = (
    bytes.fromhex("60016000f3"),
    bytes.fromhex("60006000fd"),
    bytes.fromhex("fe"),
    bytes.fromhex("6001600055" "6460206000f3" "600052" "6005601bf3"),
    b"",
)
_BINARY = ("ADD MUL SUB DIV SDIV MOD SMOD EXP SIGNEXTEND LT GT SLT SGT EQ "
           "AND OR XOR BYTE SHL SHR SAR").split()
_CONTEXT = ("ADDRESS ORIGIN CALLER CALLVALUE CALLDATASIZE CODESIZE "
            "RETURNDATASIZE COINBASE TIMESTAMP NUMBER DIFFICULTY GASLIMIT "
            "PC MSIZE GAS").split()
_CALLS = ("CALL", "CALLCODE", "DELEGATECALL", "STATICCALL")


class Program(NamedTuple):
    seed: int
    target_code: bytes
    callee_code: bytes
    target_storage: tuple[tuple[int, int], ...]
    target_balance: int
    callee_balance: int
    calldata: bytes
    value: int
    gas: int
    policy: str


class _Code:
    """Bytes with JUMPDEST labels whose PUSH2 references are patched last."""

    def __init__(self, rng: random.Random, labels: int) -> None:
        self.rng = rng
        self.labels = labels
        # bytes, a JUMPDEST label (None), or the number of the label whose
        # pc a PUSH2 pushes; a number past the last label is a bogus one
        self.items: list[bytes | int | None] = []

    def op(self, *names: str) -> None:
        self.items.append(bytes(OPCODES[name] for name in names))

    def push(self, value: int) -> None:
        width = max(1, (value.bit_length() + 7) // 8)
        self.items.append(bytes([0x5F + width]) + value.to_bytes(width, "big"))

    def word(self) -> int:
        """A stack operand: mostly small, sometimes anything."""
        rng = self.rng
        pick = rng.random()
        if pick < 0.6:
            return rng.randrange(40)
        if pick < 0.8:
            return rng.randrange(1 << 16)
        return rng.getrandbits(256)

    def offset(self) -> int:
        """A memory offset: mostly within a few words, rarely far."""
        rng = self.rng
        pick = rng.random()
        if pick < 0.85:
            return rng.randrange(160)
        if pick < 0.98:
            return rng.randrange(1 << 13)
        return rng.getrandbits(64)

    def assemble(self) -> bytes:
        starts: list[int] = []
        pc = 0
        for item in self.items:
            if item is None:
                starts.append(pc)
            pc += 1 if item is None else 3 if isinstance(item, int) else len(item)
        out = bytearray()
        for item in self.items:
            if item is None:
                out.append(OPCODES["JUMPDEST"])
            elif isinstance(item, int):
                dest = starts[item] if item < len(starts) else pc + item
                out += bytes([OPCODES["PUSH2"]]) + (dest & 0xFFFF).to_bytes(2, "big")
            else:
                out += item
        return bytes(out)


def _atom(c: _Code, addresses: tuple[bytes, ...], created: bool) -> bool:
    """Append one random fragment; whether it left a created address on
    top of the stack, as `created` says the one before did."""
    rng = c.rng
    kind = rng.choices(
        ("binary", "memory", "sha3", "storage", "context", "call", "create",
         "returndata", "jump", "dups", "shuffle", "log", "calldata", "balance"),
        weights=(8, 6, 3, 4, 5, 5, 2, 2, 4, 1, 3, 1, 2, 1))[0]
    if kind == "binary":
        c.push(c.word())
        c.push(c.word())
        c.op(rng.choice(_BINARY))
        if rng.random() < 0.5:
            c.op("POP")
    elif kind == "memory":
        which = rng.choice(("MSTORE", "MSTORE8", "MLOAD"))
        if which != "MLOAD":
            c.push(c.word())
        c.push(c.offset())
        c.op(which)
        if which == "MLOAD" and rng.random() < 0.5:
            c.op("POP")
    elif kind == "sha3":
        c.push(rng.choice((0, 32, rng.randrange(200))))
        c.push(c.offset())
        c.op("SHA3")
    elif kind == "storage":
        if rng.random() < 0.6:
            c.push(rng.choice((0, 1, c.word())))
            c.push(rng.randrange(4))
            c.op("SSTORE")
        else:
            c.push(rng.randrange(4))
            c.op("SLOAD")
    elif kind == "context":
        c.op(rng.choice(_CONTEXT))
        if rng.random() < 0.5:
            c.op("POP")
    elif kind == "call":
        name = rng.choice(_CALLS)
        for _ in range(2):  # out then in: (size, offset)
            c.push(rng.choice((0, 32, rng.randrange(100))))
            c.push(c.offset() if rng.random() < 0.3 else rng.randrange(64))
        if name in ("CALL", "CALLCODE"):
            c.push(rng.choice((0, 0, 1, 10 ** 6, 10 ** 20)))
        to = rng.random()
        if created and to < 0.3:
            # below the four memory operands and the value, if any
            c.op("DUP6" if name in ("CALL", "CALLCODE") else "DUP5")
        elif to < 0.45:
            c.push(rng.choice((0, 4, 36)))
            c.op("CALLDATALOAD")
        else:
            c.push(int.from_bytes(rng.choice(addresses), "big"))
        if rng.random() < 0.3:
            c.op("GAS")
        else:
            c.push(rng.choice((0, 2, 2299, 2300, 20_500, 25_000, 100_000,
                               rng.randrange(1 << 20))))
        c.op(name)
        if rng.random() < 0.5:
            c.op("POP")
    elif kind == "create":
        init = rng.choice(_INIT_CODES)
        c.push(int.from_bytes(init.ljust(32, b"\x00"), "big"))
        c.push(0)
        c.op("MSTORE")
        c.push(len(init))
        c.push(0)
        c.push(rng.choice((0, 0, 1, 10 ** 20)))
        c.op("CREATE")
    elif kind == "returndata":
        if rng.random() < 0.5:
            c.op("RETURNDATASIZE")
        else:
            c.push(rng.choice((0, 1, 32)))
            c.push(rng.choice((0, 0, 1)))
            c.push(c.offset())
            c.op("RETURNDATACOPY")
    elif kind == "jump":
        # a real label, a label past the last (bogus), or pc 0
        dest = rng.randrange(c.labels + 1)
        if rng.random() < 0.5:
            c.op(rng.choice(("TIMESTAMP", "GAS", "CALLDATASIZE")))
            c.push(rng.choice((2, 3, 5)))
            c.op("SWAP1", "MOD")
            c.items.append(dest)
            c.op("JUMPI")
        elif rng.random() < 0.2:
            c.push(0)
            c.op("JUMP")
        else:
            c.items.append(dest)
            c.op("JUMP")
    elif kind == "dups":
        c.push(c.word())
        count = int(math.exp(rng.uniform(0, math.log(1030))))
        c.items.append(bytes([OPCODES["DUP1"]]) * count)
    elif kind == "shuffle":  # deep ones may underflow
        depth = rng.randrange(1, 5) if rng.random() < 0.9 else rng.randrange(1, 17)
        c.op(rng.choice(("DUP", "SWAP")) + str(depth) if rng.random() < 0.7 else "POP")
    elif kind == "log":
        topics = rng.randrange(5)
        for _ in range(topics):
            c.push(c.word())
        c.push(rng.choice((0, 32, rng.randrange(100))))
        c.push(c.offset())
        c.op(f"LOG{topics}")
    elif kind == "calldata":
        if rng.random() < 0.5:
            c.push(rng.choice((0, 4, 36, 100)))
            c.op("CALLDATALOAD")
        else:
            c.push(rng.randrange(80))
            # a source offset mostly within the source, sometimes far past it
            c.push(rng.randrange(40) if rng.random() < 0.8 else 1 << rng.randrange(6, 256))
            c.push(c.offset())
            c.op(rng.choice(("CALLDATACOPY", "CODECOPY")))
    else:  # balance
        c.push(int.from_bytes(rng.choice(addresses), "big"))
        c.op("BALANCE")
    return kind == "create"


def _contract(rng: random.Random, atoms: int,
              addresses: tuple[bytes, ...]) -> bytes:
    labels = rng.randrange(4)
    c = _Code(rng, labels)
    for _ in range(rng.randrange(5)):
        c.push(c.word())
    placed = sorted(rng.sample(range(atoms + labels), labels))
    created = False
    for index in range(atoms + labels):
        if placed and index == placed[0]:
            placed.pop(0)
            c.items.append(None)
        else:
            created = _atom(c, addresses, created)
    end = rng.random()
    if end < 0.25:
        c.op("STOP")
    elif end < 0.45:
        c.push(rng.choice((0, 32, 64)))
        c.push(rng.randrange(64))
        c.op("RETURN")
    elif end < 0.55:
        c.push(rng.randrange(64))
        c.push(0)
        c.op("REVERT")
    elif end < 0.6:
        c.op("INVALID")
    elif end < 0.65:
        c.push(int.from_bytes(rng.choice(addresses), "big"))
        c.op("SELFDESTRUCT")
    elif end < 0.7:
        c.items.append(bytes([rng.choice((0x0C, 0x21, 0x46, 0xEF))]))
    code = c.assemble()
    if rng.random() < 0.15:  # a PUSH cut off by the end of the code
        width = rng.randrange(2, 33)
        code += bytes([0x5F + width]) + bytes(rng.randrange(1, 256)
                                              for _ in range(rng.randrange(width)))
    return code


def generate(seed: int) -> Program:
    """The program of one seed; the same bytes on every revision."""
    rng = random.Random(seed)
    addresses = (TARGET, CALLEE, AGENT, EMPTY)
    callee = _contract(rng, rng.randrange(1, 8), addresses)
    target = _contract(rng, rng.randrange(1, 24), addresses)
    calldata = bytearray(rng.randbytes(rng.randrange(0, 100)))
    if len(calldata) >= 36 and rng.random() < 0.5:
        # a delegated call to an address named in the input is reported
        calldata[16:36] = rng.choice((CALLEE, TARGET))
    return Program(
        seed=seed,
        target_code=target,
        callee_code=callee,
        target_storage=tuple((key, rng.randrange(1, 1000))
                             for key in range(4) if rng.random() < 0.3),
        target_balance=rng.choice((0, 5, 10 ** 6)),
        callee_balance=rng.choice((0, 10 ** 6)),
        calldata=bytes(calldata),
        value=rng.choice((0, 0, 0, 1, 10 ** 9)),
        gas=int(math.exp(rng.uniform(math.log(20), math.log(3_000_000)))),
        policy=rng.choice(POLICIES),
    )


def digests(program: Program) -> dict[str, str]:
    """Run `program` once; a short sha256 per field of `FIELDS`."""
    from dogefuzz import evm

    state = evm.WorldState()
    state.account(AGENT).balance = 10 ** 18
    target = state.account(TARGET)
    target.code = program.target_code
    target.balance = program.target_balance
    target.storage = dict(program.target_storage)
    callee = state.account(CALLEE)
    callee.code = program.callee_code
    callee.balance = program.callee_balance
    tx = evm.Transaction(
        target=TARGET, calldata=program.calldata, value=program.value,
        gas_limit=program.gas, agent_policy=evm.PolicyKind(program.policy))
    try:
        trace = evm.execute_transaction(state, tx)
    except Exception as exc:  # a crash is an outcome to compare too
        observed = {"status": f"raised {type(exc).__name__}: {exc}"}
    else:
        observed = {
            "status": trace.status.value,
            "gas_used": trace.gas_used,
            "events": [(e.kind.value, e.pc, e.depth, e.data)
                       for e in trace.events],
            "block_runs": [(address, hashlib.sha256(code).hexdigest(),
                            sorted(runs.items()))
                           for (address, code), runs in trace.block_runs.items()],
            "transitions": sorted(trace.transitions),
            "return_data": trace.return_data,
            "state": sorted((address, acct.balance, acct.nonce, acct.code,
                             sorted(acct.storage.items()))
                            for address, acct in state.accounts.items()),
        }
    return {name: hashlib.sha256(repr(observed.get(name)).encode()).hexdigest()[:16]
            for name in FIELDS}
