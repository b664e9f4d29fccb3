"""Istanbul-era opcode table and its gas schedule.

Base, per-word and per-byte prices are Istanbul's (Yellow Paper, Appendix G; EIP-160
for EXP's exponent bytes, EIP-1884 for SLOAD and BALANCE).  What stays
flattened: memory grows linearly at 3 per word, with no `words²/512` term;
SSTORE costs 20000 for a fresh slot and 5000 otherwise, without EIP-2200's
net metering; there are no refunds, no new-account or code-deposit charge,
and no 63/64 forwarding rule (EIP-150).
"""

from __future__ import annotations

# --- opcode bytes ---------------------------------------------------------

STOP = 0x00
ADD = 0x01
MUL = 0x02
SUB = 0x03
DIV = 0x04
SDIV = 0x05
MOD = 0x06
SMOD = 0x07
ADDMOD = 0x08
MULMOD = 0x09
EXP = 0x0A
SIGNEXTEND = 0x0B
LT = 0x10
GT = 0x11
SLT = 0x12
SGT = 0x13
EQ = 0x14
ISZERO = 0x15
AND = 0x16
OR = 0x17
XOR = 0x18
NOT = 0x19
BYTE = 0x1A
SHL = 0x1B
SHR = 0x1C
SAR = 0x1D
SHA3 = 0x20
ADDRESS = 0x30
BALANCE = 0x31
ORIGIN = 0x32
CALLER = 0x33
CALLVALUE = 0x34
CALLDATALOAD = 0x35
CALLDATASIZE = 0x36
CALLDATACOPY = 0x37
CODESIZE = 0x38
CODECOPY = 0x39
RETURNDATASIZE = 0x3D
RETURNDATACOPY = 0x3E
COINBASE = 0x41
TIMESTAMP = 0x42
NUMBER = 0x43
DIFFICULTY = 0x44
GASLIMIT = 0x45
POP = 0x50
MLOAD = 0x51
MSTORE = 0x52
MSTORE8 = 0x53
SLOAD = 0x54
SSTORE = 0x55
JUMP = 0x56
JUMPI = 0x57
PC = 0x58
MSIZE = 0x59
GAS = 0x5A
JUMPDEST = 0x5B
PUSH1 = 0x60
PUSH32 = 0x7F
DUP1 = 0x80
DUP16 = 0x8F
SWAP1 = 0x90
SWAP16 = 0x9F
LOG0 = 0xA0
LOG1 = 0xA1
LOG2 = 0xA2
LOG3 = 0xA3
LOG4 = 0xA4
CREATE = 0xF0
CALL = 0xF1
CALLCODE = 0xF2
RETURN = 0xF3
DELEGATECALL = 0xF4
STATICCALL = 0xFA
REVERT = 0xFD
INVALID = 0xFE
SELFDESTRUCT = 0xFF

# --- mnemonic table -------------------------------------------------------

# the constants above are spelled as their mnemonics, and nothing else
# defined above this table is an uppercase int, so the names are read off
# the module; the loops below fill the ranges those constants bound
MNEMONICS: dict[int, str] = {
    byte: name for name, byte in globals().items()
    if name.isupper() and type(byte) is int}
for _i in range(32):
    MNEMONICS[PUSH1 + _i] = f"PUSH{_i + 1}"
for _i in range(16):
    MNEMONICS[DUP1 + _i] = f"DUP{_i + 1}"
    MNEMONICS[SWAP1 + _i] = f"SWAP{_i + 1}"
for _i in range(5):
    MNEMONICS[LOG0 + _i] = f"LOG{_i}"

OPCODES: dict[str, int] = {name: byte for byte, name in MNEMONICS.items()}


def push_size(op: int) -> int:
    """Immediate width in bytes of a PUSH opcode, 0 for anything else."""
    return op - PUSH1 + 1 if PUSH1 <= op <= PUSH32 else 0


def mnemonic(op: int) -> str:
    """Name of an opcode byte; undefined bytes get a placeholder."""
    return MNEMONICS.get(op, f"UNKNOWN_0x{op:02x}")


# --- gas schedule ---------------------------------------------------------

GAS_STIPEND = 2300
GAS_VALUE_SURCHARGE = 9000
GAS_MEMORY_WORD = 3
GAS_SHA3_WORD = 6
GAS_COPY_WORD = 3
GAS_LOG_BYTE = 8
GAS_EXP_BYTE = 50
GAS_SSTORE_FRESH = 20000
GAS_SSTORE_UPDATE = 5000
GAS_CALL_BASE = 700

_BASE_GAS: dict[int, int] = {
    STOP: 0, RETURN: 0, REVERT: 0, JUMPDEST: 1,
    POP: 2, PC: 2, MSIZE: 2, GAS: 2,
    ADDRESS: 2, ORIGIN: 2, CALLER: 2, CALLVALUE: 2, CALLDATASIZE: 2,
    CODESIZE: 2, RETURNDATASIZE: 2, COINBASE: 2, TIMESTAMP: 2, NUMBER: 2,
    DIFFICULTY: 2, GASLIMIT: 2,
    MUL: 5, DIV: 5, SDIV: 5, MOD: 5, SMOD: 5, SIGNEXTEND: 5,
    ADDMOD: 8, MULMOD: 8, EXP: 10,
    BALANCE: 700,
    SHA3: 30,
    SLOAD: 800,
    SSTORE: 0,          # charged dynamically (fresh vs update)
    JUMP: 8, JUMPI: 10,
    LOG0: 375, LOG1: 750, LOG2: 1125, LOG3: 1500, LOG4: 1875,
    CREATE: 32000,
    CALL: GAS_CALL_BASE, CALLCODE: GAS_CALL_BASE,
    DELEGATECALL: GAS_CALL_BASE, STATICCALL: GAS_CALL_BASE,
    SELFDESTRUCT: 5000,
    INVALID: 0,         # consumes all remaining gas in the interpreter
}

BASE_GAS: list[int] = [3] * 256
for _op, _cost in _BASE_GAS.items():
    BASE_GAS[_op] = _cost

# opcodes that charge more than BASE_GAS for some operands or state: memory
# expansion, SSTORE's fresh or update price, EXP's exponent bytes, SHA3's
# and the copies' words, LOG's bytes, a call's memory ranges, value
# surcharge and forwarded gas, CREATE's init code and its memory.  The
# interpreter pays a run of base costs at once and ends each such run after
# one of these
DYNAMIC_GAS = frozenset({
    MLOAD, MSTORE, MSTORE8, SSTORE, EXP, SHA3,
    CALLDATACOPY, CODECOPY, RETURNDATACOPY, RETURN, REVERT,
    LOG0, LOG1, LOG2, LOG3, LOG4,
    CALL, CALLCODE, DELEGATECALL, STATICCALL, CREATE,
})

# --- stack arity ----------------------------------------------------------

# (pops, pushes) per opcode; PUSH, DUP and SWAP are left out because their
# effect on a simulated stack depends on which slots they read
STACK_EFFECTS: dict[int, tuple[int, int]] = {}
for _names, _effect in (
        ("STOP JUMPDEST INVALID", (0, 0)),
        ("ADD MUL SUB DIV SDIV MOD SMOD EXP SIGNEXTEND LT GT SLT SGT EQ "
         "AND OR XOR BYTE SHL SHR SAR SHA3", (2, 1)),
        ("ADDMOD MULMOD", (3, 1)),
        ("ISZERO NOT BALANCE CALLDATALOAD MLOAD SLOAD", (1, 1)),
        ("ADDRESS ORIGIN CALLER CALLVALUE CALLDATASIZE CODESIZE "
         "RETURNDATASIZE COINBASE TIMESTAMP NUMBER DIFFICULTY GASLIMIT "
         "PC MSIZE GAS", (0, 1)),
        ("CALLDATACOPY CODECOPY RETURNDATACOPY", (3, 0)),
        ("POP SELFDESTRUCT JUMP", (1, 0)),
        ("MSTORE MSTORE8 SSTORE RETURN REVERT JUMPI", (2, 0)),
        ("CREATE", (3, 1)),
        ("CALL CALLCODE", (7, 1)),
        ("DELEGATECALL STATICCALL", (6, 1))):
    for _name in _names.split():
        STACK_EFFECTS[OPCODES[_name]] = _effect
for _i in range(5):
    STACK_EFFECTS[LOG0 + _i] = (_i + 2, 0)

# net stack growth per opcode byte: PUSH and DUP add one word, SWAP and
# undefined bytes none
STACK_GROWTH: list[int] = [0] * 256
for _op, (_pops, _pushes) in STACK_EFFECTS.items():
    STACK_GROWTH[_op] = _pushes - _pops
for _op in range(PUSH1, DUP16 + 1):  # PUSH1..PUSH32, then DUP1..DUP16
    STACK_GROWTH[_op] = 1

# opcodes that push one word without popping, bar PUSH and DUP
PUSHES_ONE = frozenset(b for b, effect in STACK_EFFECTS.items() if effect == (0, 1))

# --- classification used by the CFG and the fuzzer ------------------------

# instructions that end a basic block unconditionally
HALTING = frozenset({STOP, RETURN, REVERT, INVALID, SELFDESTRUCT})

# the four instruction kinds treated as critical targets for directed fuzzing
CRITICAL = frozenset({CALL, CALLCODE, DELEGATECALL, SELFDESTRUCT})
