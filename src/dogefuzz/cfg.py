"""Static control-flow recovery for EVM bytecode.

A linear sweep partitions code into basic blocks (new block at every
JUMPDEST and after every jump or halting instruction).  Jump targets are
resolved where a bounded constant-stack simulation of the block can prove
them; everything else is marked unresolved and may later be filled in from
edges observed at run time via `augment_edges`.  Distances to critical
instructions are computed at block granularity with one reverse
breadth-first search; as run-time edges arrive, `relax_distances` lowers
only the hop counts those edges shorten, so keeping the directed fuzzing
schedule current costs time proportional to what changed, not to code size.
"""

from __future__ import annotations

import heapq
import logging
import math
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Iterable

from . import opcodes as op

logger = logging.getLogger(__name__)

# Constant-stack simulation keeps at most this many slots per block.
SIM_STACK_DEPTH = 32


# --- disassembly ----------------------------------------------------------

@dataclass(frozen=True)
class Instruction:
    """One decoded instruction; `immediate` holds PUSH payload bytes."""

    pc: int
    opcode: int
    immediate: bytes | None = None
    truncated: bool = False

    @property
    def mnemonic(self) -> str:
        return op.MNEMONICS.get(self.opcode, f"UNKNOWN_0x{self.opcode:02x}")

    @property
    def size(self) -> int:
        return 1 + (len(self.immediate) if self.immediate is not None else 0)

    @property
    def push_value(self) -> int | None:
        """PUSH operand as an integer; truncated immediates zero-pad."""
        if not op.is_push(self.opcode):
            return None
        width = op.push_size(self.opcode)
        return int.from_bytes((self.immediate or b"").ljust(width, b"\x00"), "big")

    def __str__(self) -> str:
        if self.immediate is not None:
            return f"{self.pc:#06x} {self.mnemonic} 0x{self.immediate.hex() or '00'}"
        return f"{self.pc:#06x} {self.mnemonic}"


def disassemble(code: bytes) -> list[Instruction]:
    """Linear sweep; a PUSH cut off by end-of-code keeps its partial bytes."""
    out: list[Instruction] = []
    pc, n = 0, len(code)
    while pc < n:
        byte = code[pc]
        if op.is_push(byte):
            width = op.push_size(byte)
            chunk = code[pc + 1:pc + 1 + width]
            out.append(Instruction(pc, byte, chunk, truncated=len(chunk) < width))
            pc += 1 + len(chunk)
        else:
            out.append(Instruction(pc, byte))
            pc += 1
    return out


def reassemble(instructions: Iterable[Instruction]) -> bytes:
    parts = []
    for ins in instructions:
        parts.append(bytes([ins.opcode]))
        if ins.immediate is not None:
            parts.append(ins.immediate)
    return b"".join(parts)


# --- block structure ------------------------------------------------------

class Terminator(str, Enum):
    JUMP = "Jump"
    JUMPI = "JumpI"
    FALLTHROUGH = "Fallthrough"
    HALT = "Halt"
    UNRESOLVED = "Unresolved"


@dataclass(frozen=True)
class BasicBlock:
    start: int
    instructions: tuple[Instruction, ...]
    terminator: Terminator

    @property
    def end(self) -> int:
        """First pc past the block."""
        last = self.instructions[-1]
        return last.pc + last.size

    @property
    def pcs(self) -> tuple[int, ...]:
        return tuple(ins.pc for ins in self.instructions)


@dataclass(frozen=True)
class Cfg:
    """Blocks plus edges between block start pcs.

    `unresolved` lists starts of blocks whose jump target could not be
    proven statically; observed edges can be merged in later without
    mutating this instance.  Every cached property derives from `blocks`
    alone, so `with_edges` hands them on to the refined copy.
    """

    code: bytes
    blocks: tuple[BasicBlock, ...]
    edges: frozenset[tuple[int, int]]
    unresolved: frozenset[int]

    @cached_property
    def _block_of(self) -> dict[int, BasicBlock]:
        return {pc: block for block in self.blocks for pc in block.pcs}

    @cached_property
    def block_starts(self) -> frozenset[int]:
        return frozenset(block.start for block in self.blocks)

    @cached_property
    def pcs(self) -> frozenset[int]:
        """Every instruction pc in the code."""
        return frozenset(self._block_of)

    @cached_property
    def jump_site_starts(self) -> dict[int, int]:
        """pc of each block-ending JUMP/JUMPI -> start of its block."""
        return {block.instructions[-1].pc: block.start for block in self.blocks
                if block.instructions[-1].opcode in (op.JUMP, op.JUMPI)}

    @cached_property
    def jumpdest_starts(self) -> frozenset[int]:
        """Starts of blocks led by a JUMPDEST: the only valid jump targets."""
        return frozenset(block.start for block in self.blocks
                         if block.instructions[0].opcode == op.JUMPDEST)

    def block_at(self, pc: int) -> BasicBlock:
        """Block containing the instruction at `pc` (KeyError otherwise)."""
        return self._block_of[pc]

    def with_edges(self, edges: frozenset[tuple[int, int]]) -> Cfg:
        """Copy with another edge set, keeping the block-derived caches."""
        refined = replace(self, edges=edges)
        for name, value in self.__dict__.items():
            refined.__dict__.setdefault(name, value)  # fields are already set
        return refined


def _ends_block(opcode: int) -> bool:
    if opcode in (op.JUMP, op.JUMPI):
        return True
    if opcode in op.HALTING:
        return True
    return opcode not in op.MNEMONICS  # undefined bytes abort execution


# Stack arity (pops, pushes) for block-local jump target inference.
def _stack_effects() -> dict[int, tuple[int, int]]:
    table: dict[int, tuple[int, int]] = {}

    def fill(names: str, pops: int, pushes: int) -> None:
        for name in names.split():
            table[getattr(op, name)] = (pops, pushes)

    fill("STOP JUMPDEST INVALID", 0, 0)
    fill("ADD MUL SUB DIV SDIV MOD SMOD EXP SIGNEXTEND LT GT SLT SGT EQ "
         "AND OR XOR BYTE SHL SHR SAR SHA3", 2, 1)
    fill("ADDMOD MULMOD", 3, 1)
    fill("ISZERO NOT BALANCE CALLDATALOAD MLOAD SLOAD", 1, 1)
    fill("ADDRESS ORIGIN CALLER CALLVALUE CALLDATASIZE CODESIZE "
         "RETURNDATASIZE COINBASE TIMESTAMP NUMBER DIFFICULTY GASLIMIT "
         "PC MSIZE GAS", 0, 1)
    fill("CALLDATACOPY CODECOPY RETURNDATACOPY", 3, 0)
    fill("POP SELFDESTRUCT JUMP", 1, 0)
    fill("MSTORE MSTORE8 SSTORE RETURN REVERT JUMPI", 2, 0)
    fill("CREATE", 3, 1)
    fill("CALL CALLCODE", 7, 1)
    fill("DELEGATECALL STATICCALL", 6, 1)
    for n in range(5):
        table[op.LOG0 + n] = (n + 2, 0)
    return table


_STACK_EFFECTS = _stack_effects()


def _resolve_jump_target(instructions: tuple[Instruction, ...]) -> int | None:
    """Constant the block provably leaves on top of the stack, if any.

    Values inherited from outside the block are unknown; only PUSH
    produces constants, DUP/SWAP move them around, everything else
    clobbers per its arity.
    """
    stack: list[int | None] = []
    for ins in instructions[:-1]:
        byte = ins.opcode
        if op.is_push(byte):
            stack.append(ins.push_value)
        elif op.DUP1 <= byte <= op.DUP16:
            depth = byte - op.DUP1 + 1
            while len(stack) < depth:
                stack.insert(0, None)
            stack.append(stack[-depth])
        elif op.SWAP1 <= byte <= op.SWAP16:
            depth = byte - op.SWAP1 + 1
            while len(stack) < depth + 1:
                stack.insert(0, None)
            stack[-1], stack[-depth - 1] = stack[-depth - 1], stack[-1]
        else:
            pops, pushes = _STACK_EFFECTS.get(byte, (0, 0))
            for _ in range(pops):
                if stack:
                    stack.pop()
            stack.extend([None] * pushes)
        if len(stack) > SIM_STACK_DEPTH:
            del stack[:-SIM_STACK_DEPTH]
    return stack[-1] if stack else None


def build_cfg(code: bytes) -> Cfg:
    instructions = disassemble(code)
    if not instructions:
        return Cfg(code=code, blocks=(), edges=frozenset(), unresolved=frozenset())

    leaders = {0}
    for i, ins in enumerate(instructions):
        if ins.opcode == op.JUMPDEST:
            leaders.add(ins.pc)
        if _ends_block(ins.opcode) and i + 1 < len(instructions):
            leaders.add(instructions[i + 1].pc)

    groups: list[list[Instruction]] = []
    for ins in instructions:
        if ins.pc in leaders:
            groups.append([ins])
        else:
            groups[-1].append(ins)

    starts = [group[0].pc for group in groups]
    jumpdest_starts = {group[0].pc for group in groups
                       if group[0].opcode == op.JUMPDEST}
    edges: set[tuple[int, int]] = set()
    unresolved: set[int] = set()
    blocks: list[BasicBlock] = []
    for idx, group in enumerate(groups):
        start, last = group[0].pc, group[-1]
        following = starts[idx + 1] if idx + 1 < len(groups) else None
        body = tuple(group)
        if last.opcode == op.JUMP:
            target = _resolve_jump_target(body)
            if target is None:
                terminator = Terminator.UNRESOLVED
                unresolved.add(start)
            else:
                terminator = Terminator.JUMP
                if target in jumpdest_starts:
                    edges.add((start, target))
        elif last.opcode == op.JUMPI:
            terminator = Terminator.JUMPI
            if following is not None:
                edges.add((start, following))
            target = _resolve_jump_target(body)
            if target is None:
                unresolved.add(start)
            elif target in jumpdest_starts:
                edges.add((start, target))
        elif _ends_block(last.opcode):
            terminator = Terminator.HALT
        elif following is not None:
            terminator = Terminator.FALLTHROUGH
            edges.add((start, following))
        else:
            terminator = Terminator.HALT  # running off the end stops cleanly
        blocks.append(BasicBlock(start, body, terminator))

    cfg = Cfg(code=code, blocks=tuple(blocks), edges=frozenset(edges),
              unresolved=frozenset(unresolved))
    logger.debug("built cfg: %d blocks, %d edges, %d unresolved",
                 len(cfg.blocks), len(cfg.edges), len(cfg.unresolved))
    return cfg


# --- dynamic refinement ---------------------------------------------------

def augment_edges(cfg: Cfg, observed: Iterable[tuple[int, int]]) -> Cfg:
    """Merge run-time (from_pc, to_pc) pairs into the static edge set.

    Only pairs that are genuine jumps are kept: the source must be the
    jump instruction ending a block and the destination a JUMPDEST block
    start.  Returns `cfg` itself when nothing new was learned, so callers
    can use identity to detect novelty.  The cost is proportional to
    `observed`: the jump indexes are cached on the `Cfg` and carried into
    the refined copy, so callers should pass only pairs not offered
    before.  Feed the new edges to `relax_distances` to bring hop counts
    up to date instead of recomputing `distance_map`.
    """
    jump_site_starts = cfg.jump_site_starts
    jumpdest_starts = cfg.jumpdest_starts
    extra = {
        (jump_site_starts[src], dst)
        for src, dst in observed
        if src in jump_site_starts and dst in jumpdest_starts
    }
    if extra <= cfg.edges:
        return cfg
    return cfg.with_edges(cfg.edges | extra)


# --- critical instructions and distances ----------------------------------

def critical_sites(cfg: Cfg) -> list[int]:
    """pcs of money- or control-transferring instructions, ascending."""
    return [ins.pc for block in cfg.blocks for ins in block.instructions
            if ins.opcode in op.CRITICAL]


def distance_map(cfg: Cfg, sites: Iterable[int]) -> dict[int, int]:
    """pc -> block-granular hop count to the nearest site, by reverse BFS.

    Every pc inside a block containing a site maps to zero; blocks that
    cannot reach any site are omitted.
    """
    site_starts = {cfg.block_at(pc).start for pc in sites if pc in cfg.pcs}
    predecessors = predecessor_map(cfg.edges)
    hops = {start: 0 for start in site_starts}
    frontier = deque(sorted(site_starts))
    while frontier:
        current = frontier.popleft()
        for pred in sorted(predecessors.get(current, ())):
            if pred not in hops:
                hops[pred] = hops[current] + 1
                frontier.append(pred)

    return {pc: hops[block.start] for block in cfg.blocks
            if block.start in hops for pc in block.pcs}


def predecessor_map(edges: Iterable[tuple[int, int]]) -> dict[int, set[int]]:
    """Block start -> starts of the blocks with an edge into it."""
    predecessors: dict[int, set[int]] = {}
    for src, dst in edges:
        predecessors.setdefault(dst, set()).add(src)
    return predecessors


def relax_distances(hops: dict[int, int], predecessors: dict[int, set[int]],
                    new_edges: Iterable[tuple[int, int]]) -> None:
    """Fold new block edges into block-level hop counts, in place.

    `hops` maps block starts to their hop count to the nearest site, as
    `distance_map` gives it at block starts, and `predecessors` is the
    `predecessor_map` of the same edges; both are updated to include
    `new_edges`.  Adding edges can only shorten distances, so relaxation
    starts from each source whose count drops and walks backwards through
    predecessors in order of the new count.  The result is the reverse-BFS
    fixpoint of the enlarged graph, at a cost proportional to the counts
    that changed.
    """
    frontier: list[tuple[int, int]] = []
    for src, dst in new_edges:
        predecessors.setdefault(dst, set()).add(src)
        if dst in hops:
            candidate = hops[dst] + 1
            if candidate < hops.get(src, math.inf):
                hops[src] = candidate
                frontier.append((candidate, src))
    heapq.heapify(frontier)
    while frontier:
        dist, current = heapq.heappop(frontier)
        if dist > hops[current]:
            continue  # lowered again after this entry was queued
        for pred in predecessors.get(current, ()):
            if dist + 1 < hops.get(pred, math.inf):
                hops[pred] = dist + 1
                heapq.heappush(frontier, (dist + 1, pred))


# --- export ---------------------------------------------------------------

def to_dot(cfg: Cfg, highlight: Iterable[int] = ()) -> str:
    """Graphviz rendering; blocks containing `highlight` pcs get a border."""
    marked = {cfg.block_at(pc).start for pc in highlight if pc in cfg.pcs}
    lines = ["digraph cfg {", '    node [shape=box, fontname="monospace"];']
    for block in cfg.blocks:
        listing = "\\l".join(str(ins) for ins in block.instructions)
        attrs = f'label="{listing}\\l[{block.terminator.value}]"'
        if block.start in marked:
            attrs += ", color=red, penwidth=2"
        lines.append(f"    b{block.start} [{attrs}];")
    for src, dst in sorted(cfg.edges):
        lines.append(f"    b{src} -> b{dst};")
    lines.append("}")
    return "\n".join(lines) + "\n"
