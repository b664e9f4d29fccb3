"""Static control-flow recovery for EVM bytecode.

`analyze` is the only decoder and the one owner of every index that
derives from code bytes alone: one linear sweep per code, cached by code
bytes, partitions it into basic blocks (new block at every JUMPDEST and
after every jump, halting or undefined instruction) of pre-decoded
(pc, opcode, PUSH operand) instructions, indexed by start pc, by
JUMPDEST and by pc, and lists the critical instructions' pcs.  The
interpreter runs on these blocks, checking gas and stack once per gas
segment of a block, at the segment's static gate (`BasicBlock.segments`),
and records coverage once per block: the block's start and how many of
its instructions ran (a block's pc tuple turns that back into pcs), and
each transition between blocks as the edge it took, the same edge
`build_cfg` draws.  Chains of stack-only blocks that the interpreter
compiles also derive from code bytes alone, so the analysis carries their
cache (`CodeAnalysis.chains`), which the interpreter fills lazily.

A `Cfg` is that analysis plus what `build_cfg` decides: edges between
block starts and the blocks whose jump is unresolved.  Jump targets are
resolved where a bounded constant-stack simulation of the block can prove
them; everything else is marked unresolved and may later be filled in from
the edges the interpreter records at run time via `augment_edges`.
`build_cfg` is cached per code like `analyze`, so every target, strategy
and campaign over one code shares one immutable static graph, and with it
the predecessor map that its distance searches read.  What a campaign
learns at run time is an overlay: a refined `Cfg` shares the static edges
and holds only the learned jump edges beside them.  Distances to critical
instructions are hop counts per block start from one reverse breadth-first
search; as run-time edges arrive, `relax_distances` lowers only the hop
counts those edges shorten, reading the shared static predecessors and
writing only the campaign's own learned ones, so keeping the directed
fuzzing schedule current costs time proportional to what changed, not to
code size.
"""

from __future__ import annotations

import heapq
import logging
import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import chain
from typing import Callable, Iterable, KeysView, NamedTuple, ValuesView

from . import opcodes as op

logger = logging.getLogger(__name__)

# Constant-stack simulation keeps at most this many slots per block.
SIM_STACK_DEPTH = 32
# most words an EVM stack holds
STACK_LIMIT = 1024


# --- shared decode --------------------------------------------------------

# (pc, opcode, PUSH operand or None): what the bytes say, nothing more
Instruction = tuple[int, int, int | None]
# (instructions, their base gas, entry words read, highest entry height)
Segment = tuple[tuple[Instruction, ...], int, int, int]

# opcodes after which a new block starts: jumps, halts and undefined bytes
_ENDS_BLOCK = frozenset(
    byte for byte in range(256)
    if byte in (op.JUMP, op.JUMPI) or byte in op.HALTING
    or byte not in op.MNEMONICS)

# opcodes after which a gas segment ends: the operand-dependent charges,
# and GAS, which then reads the gas left with none of its segment paid ahead
_ENDS_SEGMENT = op.DYNAMIC_GAS | {op.GAS}


def segment_gate(instructions: Iterable[Instruction]
                 ) -> tuple[int, int, int, int]:
    """The gate of a straight run of instructions, and its net stack
    growth: the sum of their `opcodes.BASE_GAS`, how many words of the
    entry stack they read, the highest entry height at which their pushes
    stay within `STACK_LIMIT`, and the height they leave over the entry."""
    gas = height = need = growth = 0
    for _, byte, _ in instructions:
        gas += op.BASE_GAS[byte]
        need = max(need, op.STACK_READS[byte] - height)
        height += op.STACK_GROWTH[byte]
        growth = max(growth, height)
    return gas, need, STACK_LIMIT - growth, height


class Terminator(str, Enum):
    JUMP = "Jump"
    JUMPI = "JumpI"
    FALLTHROUGH = "Fallthrough"
    HALT = "Halt"
    UNRESOLVED = "Unresolved"


@dataclass(frozen=True)
class BasicBlock:
    """A straight run of pre-decoded instructions entered only at `start`.

    `pcs` lists the instructions' pcs; a run of its first `r` instructions
    covers `pcs[:r]`.  `fallthrough` is the pc where execution continues
    when the block neither jumps nor halts, None at the end of the code.
    """

    start: int
    instructions: tuple[Instruction, ...]
    pcs: tuple[int, ...]
    fallthrough: int | None

    @cached_property
    def jump_target(self) -> int | None:
        """Constant destination of the closing JUMP/JUMPI, if provable; ask
        only of a block that ends in one."""
        return _resolve_jump_target(self.instructions)

    @cached_property
    def segments(self) -> tuple[Segment, ...]:
        """The block cut after each instruction in `opcodes.DYNAMIC_GAS`
        and after each GAS.

        Each segment is (instructions, base gas, need, room), its gate as
        `segment_gate` gives it.  A block with one segment shares its
        `instructions`.
        """
        instructions = self.instructions
        n = len(instructions)
        segments: list[Segment] = []
        start = 0
        for end, (_, byte, _) in enumerate(instructions, 1):
            if byte in _ENDS_SEGMENT or end == n:
                body = instructions[start:end] if end - start < n else instructions
                segments.append((body, *segment_gate(body)[:3]))
                start = end
        return tuple(segments)

    @property
    def terminator(self) -> Terminator:
        last = self.instructions[-1][1]
        if last == op.JUMP:
            if self.jump_target is None:
                return Terminator.UNRESOLVED
            return Terminator.JUMP
        if last == op.JUMPI:
            return Terminator.JUMPI
        if last in _ENDS_BLOCK or self.fallthrough is None:
            return Terminator.HALT  # running off the end stops cleanly
        return Terminator.FALLTHROUGH


class CodeAnalysis(NamedTuple):
    """Every index that derives from code bytes alone: blocks by start pc,
    ascending; the JUMPDEST-led ones among them, the only valid jump
    destinations; the block of every instruction pc; the pcs of the
    critical (money- or control-transferring) instructions, ascending; and
    the interpreter's chains of stack-only blocks by entry block start,
    None where none starts, filled in as the interpreter first lands on
    each block and compiled when first entered.  A decode of its own needs
    a `chains` of its own."""

    code: bytes
    blocks: dict[int, BasicBlock]
    jumpdests: dict[int, BasicBlock]
    block_of: dict[int, BasicBlock]
    critical: tuple[int, ...]
    chains: dict[int, Callable | None]


@lru_cache(maxsize=4096)
def analyze(code: bytes) -> CodeAnalysis:
    """Decode `code` into basic blocks in one linear sweep, once per code.

    A block starts at pc 0, at every JUMPDEST and after every JUMP, JUMPI,
    halting or undefined byte.  PUSH0 decodes as a push of 0, and a PUSH
    cut off by end-of-code reads as zero-padded.  The interpreter,
    `build_cfg` and everything that reads a `Cfg` share the result.
    """
    critical_ops = op.CRITICAL
    blocks: dict[int, BasicBlock] = {}
    body: list[Instruction] = []
    critical: list[int] = []

    def close(fallthrough: int | None) -> None:
        pcs = tuple(ins[0] for ins in body)
        blocks[pcs[0]] = BasicBlock(pcs[0], tuple(body), pcs, fallthrough)
        body.clear()

    pc, n = 0, len(code)
    while pc < n:
        byte = code[pc]
        if byte == op.JUMPDEST and body:
            close(pc)
        if op.PUSH0 <= byte <= op.PUSH32:
            width = byte - op.PUSH0
            chunk = code[pc + 1:pc + 1 + width]
            body.append((pc, byte, int.from_bytes(chunk.ljust(width, b"\x00"), "big")))
            pc += 1 + width
        else:
            body.append((pc, byte, None))
            if byte in critical_ops:
                critical.append(pc)
            pc += 1
            if byte in _ENDS_BLOCK:
                close(pc if pc < n else None)
    if body:
        close(None)
    jumpdests = {start: block for start, block in blocks.items()
                 if block.instructions[0][1] == op.JUMPDEST}
    block_of = {pc: block for block in blocks.values() for pc in block.pcs}
    return CodeAnalysis(code, blocks, jumpdests, block_of, tuple(critical), {})


# --- control-flow graph ---------------------------------------------------

@dataclass(frozen=True)
class Cfg:
    """Edges between block start pcs over the shared analysis of one code.

    `static_edges` are the edges `build_cfg` resolves, and `unresolved`
    lists starts of blocks whose jump target could not be proven
    statically.  `build_cfg` returns one static graph per code, with no
    `learned_edges`.  Jump edges observed at run time are overlaid by
    `augment_edges`, which returns a copy sharing `analysis` and
    `static_edges` whose `learned_edges` hold only what the static graph
    lacks, so the two sets are disjoint.
    """

    analysis: CodeAnalysis
    static_edges: frozenset[tuple[int, int]]
    unresolved: frozenset[int]
    learned_edges: frozenset[tuple[int, int]] = frozenset()

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Static and learned edges together, derived on first read."""
        if not self.learned_edges:
            return self.static_edges
        return self.static_edges | self.learned_edges

    @cached_property
    def predecessors(self) -> dict[int, tuple[int, ...]]:
        """Block start -> starts of the blocks with an edge into it,
        ascending; built once per graph, and read-only like the graph."""
        return {dst: tuple(sorted(srcs))
                for dst, srcs in predecessor_map(self.edges).items()}

    @property
    def code(self) -> bytes:
        return self.analysis.code

    @property
    def blocks(self) -> ValuesView[BasicBlock]:
        return self.analysis.blocks.values()

    @property
    def pcs(self) -> KeysView[int]:
        """Every instruction pc in the code."""
        return self.analysis.block_of.keys()

    def block_at(self, pc: int) -> BasicBlock:
        """Block containing the instruction at `pc` (KeyError otherwise)."""
        return self.analysis.block_of[pc]


def _resolve_jump_target(instructions: tuple[Instruction, ...]) -> int | None:
    """Constant the block provably leaves on top of the stack, if any.

    Values inherited from outside the block are unknown; only PUSH
    produces constants, DUP/SWAP move them around, everything else
    clobbers per its arity.
    """
    stack: list[int | None] = []
    for _, byte, value in instructions[:-1]:
        if value is not None:
            stack.append(value)
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
            pops, pushes = op.STACK_EFFECTS.get(byte, (0, 0))
            for _ in range(pops):
                if stack:
                    stack.pop()
            stack.extend([None] * pushes)
        if len(stack) > SIM_STACK_DEPTH:
            del stack[:-SIM_STACK_DEPTH]
    return stack[-1] if stack else None


@lru_cache(maxsize=4096)
def build_cfg(code: bytes) -> Cfg:
    """Graph over the shared block decode, with statically resolved jumps.

    Cached by code bytes like `analyze`: every caller over one code shares
    one static graph, which nothing may mutate.
    """
    analysis = analyze(code)
    edges: set[tuple[int, int]] = set()
    unresolved: set[int] = set()
    for start, block in analysis.blocks.items():
        if block.instructions[-1][1] in (op.JUMP, op.JUMPI):
            target = block.jump_target
            if target is None:
                unresolved.add(start)
            elif target in analysis.jumpdests:
                edges.add((start, target))
        if (block.terminator in (Terminator.JUMPI, Terminator.FALLTHROUGH)
                and block.fallthrough is not None):
            edges.add((start, block.fallthrough))

    cfg = Cfg(analysis, frozenset(edges), frozenset(unresolved))
    logger.debug("built cfg: %d blocks, %d edges, %d unresolved",
                 len(cfg.blocks), len(cfg.edges), len(cfg.unresolved))
    return cfg


# --- dynamic refinement ---------------------------------------------------

def augment_edges(cfg: Cfg, observed: Iterable[tuple[int, int]]) -> Cfg:
    """Overlay the run-time block edges in `observed` that `cfg` lacks.

    `build_cfg` holds every fall-through, so such an edge is a taken
    JUMP/JUMPI into a JUMPDEST.  Returns a copy sharing `cfg`'s analysis
    and static edges whose `learned_edges` add the new ones, or `cfg`
    itself when nothing new was learned, so callers can use identity to
    detect novelty.  The cost is proportional to `observed` plus the
    learned edges, never to the static graph.  Feed the newly learned
    edges to `relax_distances` to bring hop counts up to date instead of
    recomputing `distance_map`.
    """
    if not isinstance(observed, (set, frozenset)):
        observed = set(observed)
    extra = observed - cfg.static_edges - cfg.learned_edges
    if not extra:
        return cfg
    return Cfg(cfg.analysis, cfg.static_edges, cfg.unresolved,
               cfg.learned_edges | extra)


# --- critical instructions and distances ----------------------------------

def critical_sites(cfg: Cfg) -> list[int]:
    """pcs of money- or control-transferring instructions, ascending."""
    return list(cfg.analysis.critical)


def distance_map(cfg: Cfg, sites: Iterable[int]) -> dict[int, int]:
    """Block start -> hop count to the nearest site, by reverse BFS.

    A block containing a site counts zero, whichever of its pcs the site
    is; blocks that cannot reach any site are omitted.  The search reads
    `cfg.predecessors`, built once per graph; the result is the caller's
    to update.
    """
    block_of = cfg.analysis.block_of
    site_starts = {block_of[pc].start for pc in sites if pc in block_of}
    predecessors = cfg.predecessors
    hops = {start: 0 for start in site_starts}
    frontier = deque(sorted(site_starts))
    while frontier:
        current = frontier.popleft()
        hop = hops[current] + 1
        for pred in predecessors.get(current, ()):
            if pred not in hops:
                hops[pred] = hop
                frontier.append(pred)
    return hops


def predecessor_map(edges: Iterable[tuple[int, int]]) -> dict[int, set[int]]:
    """Block start -> starts of the blocks with an edge into it."""
    predecessors: dict[int, set[int]] = {}
    for src, dst in edges:
        predecessors.setdefault(dst, set()).add(src)
    return predecessors


def relax_distances(hops: dict[int, int],
                    predecessors: dict[int, tuple[int, ...]],
                    learned: dict[int, set[int]],
                    new_edges: Iterable[tuple[int, int]]) -> bool:
    """Fold new block edges into block-level hop counts, in place; returns
    whether any count went down.

    `hops` maps block starts to their hop count to the nearest site, as
    `distance_map` returns it for the graph whose `predecessors` are
    given; that map is shared and only read.  `learned` is the
    `predecessor_map` of the edges added since, and it and `hops` are
    updated to include `new_edges`, which should be edges neither map
    holds yet.  Adding edges can only shorten distances, so relaxation
    starts from each source whose count drops and walks backwards through
    both maps in order of the new count.  The result is the reverse-BFS
    fixpoint of the enlarged graph, at a cost proportional to the counts
    that changed.
    """
    frontier: list[tuple[int, int]] = []
    for src, dst in new_edges:
        learned.setdefault(dst, set()).add(src)
        if dst in hops:
            candidate = hops[dst] + 1
            if candidate < hops.get(src, math.inf):
                hops[src] = candidate
                frontier.append((candidate, src))
    # every count lowered below is lowered from one of these
    lowered = bool(frontier)
    heapq.heapify(frontier)
    while frontier:
        dist, current = heapq.heappop(frontier)
        if dist > hops[current]:
            continue  # lowered again after this entry was queued
        for pred in chain(predecessors.get(current, ()),
                          learned.get(current, ())):
            if dist + 1 < hops.get(pred, math.inf):
                hops[pred] = dist + 1
                heapq.heappush(frontier, (dist + 1, pred))
    return lowered


# --- export ---------------------------------------------------------------

def _listing(code: bytes, ins: Instruction) -> str:
    pc, opcode, _ = ins
    text = f"{pc:#06x} {op.mnemonic(opcode)}"
    if not op.push_size(opcode):
        return text
    return f"{text} 0x{code[pc + 1:pc + 1 + op.push_size(opcode)].hex() or '00'}"


def to_dot(cfg: Cfg) -> str:
    """Graphviz rendering; blocks holding a critical site get a border."""
    marked = {cfg.block_at(pc).start for pc in cfg.analysis.critical}
    lines = ["digraph cfg {", '    node [shape=box, fontname="monospace"];']
    for block in cfg.blocks:
        listing = "\\l".join(_listing(cfg.code, ins) for ins in block.instructions)
        attrs = f'label="{listing}\\l[{block.terminator.value}]"'
        if block.start in marked:
            attrs += ", color=red, penwidth=2"
        lines.append(f"    b{block.start} [{attrs}];")
    for src, dst in sorted(cfg.edges):
        lines.append(f"    b{src} -> b{dst};")
    lines.append("}")
    return "\n".join(lines) + "\n"
