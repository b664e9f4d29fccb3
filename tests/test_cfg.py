"""Assembly, disassembly, block recovery, edge resolution, and distance
maps."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dogefuzz import opcodes as op
from dogefuzz.asm import Assembler
from dogefuzz.cfg import (
    STACK_LIMIT,
    Terminator,
    analyze,
    augment_edges,
    build_cfg,
    critical_sites,
    distance_map,
    predecessor_map,
    relax_distances,
    to_dot,
)

from cfg_oracle import distance_fixpoint, random_block_graph
from evm_utils import code, run, transitions


P1 = op.PUSH1


# --- assembly -------------------------------------------------------------

def test_assembler_patches_labels_placed_later() -> None:
    a = Assembler().push_label("end").op("JUMP").push(0xAB, width=2)
    a.dest("end").op("STOP")
    assert a.assemble() == code(op.PUSH1 + 1, 0, 7, op.JUMP,
                                op.PUSH1 + 1, 0, 0xAB, op.JUMPDEST, op.STOP)


def test_assembler_rejects_bad_labels_and_pushes() -> None:
    with pytest.raises(ValueError, match="undefined label 'nowhere'"):
        Assembler().push_label("nowhere").assemble()
    a = Assembler().label("here")
    with pytest.raises(ValueError, match="duplicate label 'here'"):
        a.label("here")
    for value, width in ((256, 1), (1 << 256, None), (1, 0), (1, 33)):
        with pytest.raises(ValueError, match="does not fit"):
            Assembler().push(value, width=width)


# --- disassembly ----------------------------------------------------------

def instructions(raw: bytes) -> list[tuple]:
    return [ins for block in analyze(raw).blocks.values()
            for ins in block.instructions]


def test_disassemble_simple_sequence() -> None:
    decoded = instructions(code(P1, 7, op.POP, op.STOP))
    assert [(pc, op.mnemonic(opcode)) for pc, opcode, _ in decoded] == [
        (0, "PUSH1"), (2, "POP"), (3, "STOP")]
    assert decoded[0] == (0, P1, 7)
    assert decoded[1][2] is None


def test_push0_decodes_as_a_push_of_zero() -> None:
    raw = code(op.JUMPDEST, 0x5F, 0x5F, op.JUMP)
    (block,) = analyze(raw).blocks.values()
    assert block.instructions == ((0, op.JUMPDEST, None), (1, 0x5F, 0),
                                  (2, 0x5F, 0), (3, op.JUMP, None))
    assert op.mnemonic(0x5F) == "PUSH0" and op.push_size(0x5F) == 0
    assert block.jump_target == 0
    assert build_cfg(raw).static_edges == {(0, 0)}
    assert "0x0001 PUSH0\\l" in to_dot(build_cfg(raw))


def test_truncated_push_keeps_partial_bytes_and_pads_value() -> None:
    (block,) = analyze(code(op.PUSH1 + 3, 0xAB, 0xCD)).blocks.values()
    (ins,) = block.instructions
    assert ins[2] == 0xABCD0000
    assert block.fallthrough is None


def test_unknown_byte_gets_placeholder_mnemonic() -> None:
    (ins,) = instructions(b"\x0c")
    assert op.mnemonic(ins[1]) == "UNKNOWN_0x0c"
    assert ins[2] is None


def test_mnemonic_table_is_read_off_the_opcode_constants() -> None:
    assert len(op.MNEMONICS) == len(op.OPCODES) == 135
    assert all(0 <= byte < 256 and op.OPCODES[op.mnemonic(byte)] == byte
               for byte in op.MNEMONICS)
    ranges = {f"{stem}{n}" for stem, first, last in (
        ("PUSH", 1, 32), ("DUP", 1, 16), ("SWAP", 1, 16), ("LOG", 0, 4))
        for n in range(first, last + 1)}
    constants = {name for name, value in vars(op).items()
                 if name.isupper() and type(value) is int}
    # each name is an opcode constant spelled as its mnemonic or fills a
    # range; the module's other uppercase ints are gas prices, none of them
    # in the table
    assert all(getattr(op, name, byte) == byte
               and (name in constants or name in ranges)
               for name, byte in op.OPCODES.items())
    assert {name for name in constants if name not in op.OPCODES} == {
        name for name in constants if name.startswith("GAS_")}
    assert (op.mnemonic(op.SHA3), op.mnemonic(0x5A), op.mnemonic(0xFE)) == (
        "SHA3", "GAS", "INVALID")


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=0, max_size=300))
def test_disassembly_round_trips(raw: bytes) -> None:
    decoded = instructions(raw)
    joined = b"".join(
        bytes([opcode]) + (b"" if value is None
                           else value.to_bytes(op.push_size(opcode), "big"))
        for _, opcode, value in decoded)
    # a PUSH cut off by end-of-code reads as zero-padded
    assert joined[:len(raw)] == raw
    assert not any(joined[len(raw):])
    pcs = [ins[0] for ins in decoded]
    assert pcs == sorted(set(pcs))
    if decoded:
        last_pc, last_opcode = decoded[-1][:2]
        assert last_pc < len(raw) <= last_pc + 1 + op.push_size(last_opcode)


# --- block partition ------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=0, max_size=300))
def test_blocks_tile_the_instruction_stream(raw: bytes) -> None:
    cfg = build_cfg(raw)
    starts, pc = [], 0
    while pc < len(raw):
        starts.append(pc)
        pc += 1 + op.push_size(raw[pc])
    assert [pc for block in cfg.blocks for pc in block.pcs] == starts
    blocks = list(cfg.blocks)
    for block, following in zip(blocks, blocks[1:] + [None]):
        assert block.instructions, "blocks are never empty"
        assert block.pcs == tuple(ins[0] for ins in block.instructions)
        assert block.start == block.pcs[0]
        assert block.fallthrough == (following.start if following else None)
    for block in cfg.blocks:
        for pc, opcode, _ in block.instructions[:-1]:
            assert opcode != op.JUMPDEST or pc == block.start
    for src, dst in cfg.edges:
        assert src in cfg.analysis.blocks and dst in cfg.analysis.blocks


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=0, max_size=300))
def test_segments_tile_each_block_and_end_after_dynamic_charges(raw: bytes) -> None:
    # GAS ends its segment too, so that it reads the gas left with nothing
    # of its segment paid ahead
    ends = op.DYNAMIC_GAS | {op.GAS}
    for block in analyze(raw).blocks.values():
        segments = block.segments
        assert tuple(ins for body, *_ in segments for ins in body) == \
            block.instructions
        for body, gas, need, room in segments:
            assert gas == sum(op.BASE_GAS[opcode] for _, opcode, _ in body)
            # stack heights over the entry height, before each instruction
            # and after the last
            heights = [0]
            for _, opcode, _ in body:
                heights.append(heights[-1] + op.STACK_GROWTH[opcode])
            assert need == max(0, *(op.STACK_READS[opcode] - height
                                    for (_, opcode, _), height in zip(body, heights)))
            assert room == STACK_LIMIT - max(heights)
            assert all(opcode not in ends for _, opcode, _ in body[:-1])
        assert all(body[-1][1] in ends for body, *_ in segments[:-1])


def test_segments_of_a_block() -> None:
    # 0 PUSH1 0; 2 MLOAD; 3 PUSH1 1; 5 PUSH1 2; 7 DUP1; 8 SSTORE; 9 POP;
    # 10 GAS; 11 PUSH1 3; 13 SWAP1; 14 STOP.  Heights over each segment's
    # entry, before each instruction: 0 1 | 0 1 2 3 | 0 -1 | 0 1 1; MLOAD,
    # DUP1 and SSTORE read only words their segment pushed, POP reads one
    # entry word, and SWAP1 reads two, one of them an entry word
    raw = code(P1, 0, op.MLOAD, P1, 1, P1, 2, op.DUP1, op.SSTORE, op.POP,
               op.GAS, P1, 3, op.SWAP1, op.STOP)
    (block,) = analyze(raw).blocks.values()
    assert [(tuple(ins[0] for ins in body), gas, need, room)
            for body, gas, need, room in block.segments] == [
        ((0, 2), 6, 0, STACK_LIMIT - 1), ((3, 5, 7, 8), 9, 0, STACK_LIMIT - 3),
        ((9, 10), 4, 1, STACK_LIMIT), ((11, 13, 14), 6, 1, STACK_LIMIT - 1)]
    # a block without a dynamic charge is one segment over its own tuple
    (block,) = analyze(code(P1, 1, P1, 2, op.ADD, op.STOP)).blocks.values()
    assert block.segments == ((block.instructions, 9, 0, STACK_LIMIT - 2),)
    assert block.segments[0][0] is block.instructions


def test_leaders_at_jumpdest_and_after_terminators() -> None:
    cfg = build_cfg(code(P1, 1, op.POP, op.STOP, op.JUMPDEST, op.STOP,
                         0x0C, P1, 2))
    assert [b.start for b in cfg.blocks] == [0, 4, 6, 7]
    assert [b.terminator for b in cfg.blocks] == [
        Terminator.HALT, Terminator.HALT, Terminator.HALT, Terminator.HALT]


def test_fallthrough_into_jumpdest_block() -> None:
    cfg = build_cfg(code(P1, 9, op.POP, op.JUMPDEST, op.STOP))
    assert [b.terminator for b in cfg.blocks] == [
        Terminator.FALLTHROUGH, Terminator.HALT]
    assert cfg.edges == {(0, 3)}


# --- jump resolution ------------------------------------------------------

def test_static_jump_resolves_to_edge() -> None:
    a = Assembler()
    a.push_label("done").op("JUMP")
    a.op("STOP")
    a.dest("done").op("STOP")
    cfg = build_cfg(a.assemble())
    starts = [b.start for b in cfg.blocks]
    assert list(cfg.blocks)[0].terminator is Terminator.JUMP
    assert cfg.edges == {(0, starts[2])}
    assert not cfg.unresolved


def test_jumpi_gets_both_edges() -> None:
    a = Assembler()
    a.op("CALLVALUE").push_label("yes").op("JUMPI")
    a.op("STOP")
    a.dest("yes").op("STOP")
    cfg = build_cfg(a.assemble())
    first, fallthrough, taken = (block.start for block in cfg.blocks)
    assert cfg.block_at(first).terminator is Terminator.JUMPI
    assert cfg.edges == {(0, fallthrough), (0, taken)}


def test_resolved_but_invalid_target_has_no_edge() -> None:
    cfg = build_cfg(code(P1, 3, op.JUMP, op.STOP))
    assert list(cfg.blocks)[0].terminator is Terminator.JUMP
    assert cfg.edges == set()
    assert not cfg.unresolved


def test_dynamic_target_is_unresolved() -> None:
    cfg = build_cfg(code(P1, 0, op.CALLDATALOAD, op.JUMP, op.JUMPDEST, op.STOP))
    assert list(cfg.blocks)[0].terminator is Terminator.UNRESOLVED
    assert cfg.unresolved == {0}
    assert cfg.edges == set()


def test_unresolved_jumpi_keeps_fallthrough() -> None:
    cfg = build_cfg(code(P1, 0, op.CALLDATALOAD, op.DUP1, op.JUMPI,
                         op.STOP, op.JUMPDEST, op.STOP))
    assert list(cfg.blocks)[0].terminator is Terminator.JUMPI
    assert 0 in cfg.unresolved
    assert (0, list(cfg.blocks)[1].start) in cfg.edges


def test_constants_survive_dup_and_swap() -> None:
    a = Assembler()
    a.push(0).push_label("out").op("SWAP1", "POP", "JUMP")
    a.dest("out").op("STOP")
    cfg = build_cfg(a.assemble())
    assert cfg.edges == {(0, list(cfg.blocks)[1].start)}

    b = Assembler()
    b.push_label("out").op("DUP1", "POP", "JUMP")
    b.dest("out").op("STOP")
    cfg2 = build_cfg(b.assemble())
    assert cfg2.edges == {(0, list(cfg2.blocks)[1].start)}


def test_simulation_depth_is_bounded() -> None:
    a = Assembler()
    a.push_label("out")
    for _ in range(35):
        a.push(0)
    for _ in range(35):
        a.op("POP")
    a.op("JUMP")
    a.dest("out").op("STOP")
    cfg = build_cfg(a.assemble())
    # the target constant fell out of the bounded window
    assert list(cfg.blocks)[0].terminator is Terminator.UNRESOLVED
    assert cfg.edges == set()


# --- critical sites -------------------------------------------------------

def _dispatcher_with_call() -> bytes:
    a = Assembler()
    a.push(0).op("CALLDATALOAD").push_label("go").op("JUMPI")
    a.push(0).push(0).op("REVERT")
    a.dest("go")
    for _ in range(7):
        a.push(0)
    a.op("CALL", "POP", "STOP")
    return a.assemble()


def test_critical_sites_ascending_with_counts() -> None:
    a = Assembler()
    for _ in range(7):
        a.push(0)
    a.op("CALL", "POP")
    for _ in range(6):
        a.push(0)
    a.op("DELEGATECALL", "POP")
    a.push(0).op("SELFDESTRUCT")
    cfg = build_cfg(a.assemble())
    sites = critical_sites(cfg)
    assert sites == sorted(sites)
    assert len(sites) == 3


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(sorted(op.CRITICAL)),
                          st.integers(0, 255)), max_size=300).map(bytes))
def test_critical_sites_match_a_full_scan(raw: bytes) -> None:
    scanned = [pc for block in analyze(raw).blocks.values()
               for pc, opcode, _ in block.instructions
               if opcode in op.CRITICAL]
    assert critical_sites(build_cfg(raw)) == scanned


def test_no_critical_sites_yields_empty_dict() -> None:
    cfg = build_cfg(code(P1, 1, op.POP, op.STOP))
    assert critical_sites(cfg) == []


# --- distances ------------------------------------------------------------

def test_distance_map_block_granularity() -> None:
    cfg = build_cfg(_dispatcher_with_call())
    sites = critical_sites(cfg)
    assert len(sites) == 1
    distances = distance_map(cfg, sites)
    call_block = cfg.block_at(sites[0])
    # the site block scores zero at its start, before the site itself
    assert sites[0] != call_block.start
    # the revert block cannot reach the call and is omitted
    assert list(cfg.blocks)[1].start not in distances
    assert distances == {0: 1, call_block.start: 0}


def test_distance_map_empty_without_sites() -> None:
    cfg = build_cfg(_dispatcher_with_call())
    assert distance_map(cfg, []) == {}


@pytest.mark.parametrize("seed", range(6))
def test_distance_map_matches_fixpoint_oracle(seed: int) -> None:
    rng = random.Random(seed)
    cfg = build_cfg(random_block_graph(rng))
    assert not cfg.unresolved
    pcs = sorted(cfg.pcs)
    sites = rng.sample(pcs, k=min(3, len(pcs)))
    distances = distance_map(cfg, sites)

    site_starts = {cfg.block_at(pc).start for pc in sites}
    expected = distance_fixpoint(set(cfg.edges), set(cfg.analysis.blocks),
                                 site_starts)
    # block for block, with absence meaning unreachable on both sides
    assert distances == expected


# --- dynamic augmentation -------------------------------------------------

def _unresolved_cfg() -> tuple[bytes, int, int]:
    raw = code(P1, 0, op.CALLDATALOAD, op.JUMP, op.JUMPDEST, op.STOP)
    return raw, 3, 4  # jump pc, jumpdest pc


def test_augment_adds_observed_jump_edge() -> None:
    raw, _, dest_pc = _unresolved_cfg()
    cfg = build_cfg(raw)
    # the interpreter records the jump as an edge between block starts
    trace, _, address = run(raw, calldata=dest_pc.to_bytes(32, "big"))
    taken = transitions(trace, address)
    assert taken == {(0, dest_pc)}
    updated = augment_edges(cfg, taken)
    assert updated is not cfg
    assert (0, dest_pc) in updated.edges
    assert cfg.edges == frozenset(), "augmentation does not mutate the input"


def test_augment_rejects_non_jump_pairs() -> None:
    # an unresolved JUMPI: its fall-through is static, its jump is not
    raw = code(P1, 1, P1, 0, op.CALLDATALOAD, op.JUMPI, op.STOP,
               op.JUMPDEST, op.STOP)
    cfg = build_cfg(raw)
    assert cfg.static_edges == {(0, 6)} and cfg.unresolved == {0}
    assert augment_edges(cfg, [(0, 6)]) is cfg
    assert augment_edges(cfg, []) is cfg
    assert augment_edges(cfg, [(0, 6), (0, 7)]).learned_edges == {(0, 7)}


def test_augment_leaves_an_observed_set_unchanged() -> None:
    raw, _, dest_pc = _unresolved_cfg()
    cfg = build_cfg(raw)
    for observed in ({(0, dest_pc)}, frozenset({(0, dest_pc)})):
        before = set(observed)
        updated = augment_edges(cfg, observed)
        assert updated.learned_edges == {(0, dest_pc)}
        assert observed == before
    learned = {(0, dest_pc)}
    assert augment_edges(updated, learned) is updated
    assert learned == {(0, dest_pc)}


def test_augment_is_idempotent() -> None:
    raw, _, dest_pc = _unresolved_cfg()
    cfg = build_cfg(raw)
    once = augment_edges(cfg, [(0, dest_pc)])
    assert augment_edges(once, [(0, dest_pc)]) is once


def test_augmented_edges_extend_distances() -> None:
    raw, _, dest_pc = _unresolved_cfg()
    cfg = build_cfg(raw)
    assert distance_map(cfg, [dest_pc]) == {dest_pc: 0}
    updated = augment_edges(cfg, [(0, dest_pc)])
    distances = distance_map(updated, [dest_pc])
    assert distances[0] == 1


def test_refinement_keeps_block_indexes() -> None:
    raw, jump_pc, dest_pc = _unresolved_cfg()
    cfg = build_cfg(raw)
    assert set(cfg.analysis.jumpdests) == {dest_pc}
    assert cfg.pcs == {0, 2, 3, 4, 5}
    assert cfg.code == raw and cfg.block_at(jump_pc).start == 0
    updated = augment_edges(cfg, [(0, dest_pc)])
    assert updated == replace(cfg, learned_edges=frozenset({(0, dest_pc)}))
    # a refinement overlays learned edges on the one static edge set
    assert updated.static_edges is cfg.static_edges
    # the indexes depend only on the code: one analysis per code owns them
    assert updated.analysis is cfg.analysis is analyze(raw)
    assert build_cfg(raw).analysis is cfg.analysis


# --- incremental distances ------------------------------------------------

def _refine(cfg, hops, predecessors, learned, observed):
    refined = augment_edges(cfg, observed)
    before = dict(hops)
    # it says whether any count went down
    assert relax_distances(hops, predecessors, learned,
                           refined.learned_edges - cfg.learned_edges) \
        is (hops != before)
    return refined


def _assert_overlay(static, refined, learned, static_predecessors) -> None:
    """The campaign-side maps cover exactly the learned edges, and the
    static graph they overlay is untouched."""
    assert learned == predecessor_map(refined.learned_edges)
    assert static.predecessors == static_predecessors
    assert refined.edges == static.static_edges | refined.learned_edges
    assert not static.static_edges & refined.learned_edges


def test_relax_distances_batches_by_kind() -> None:
    a = Assembler()
    a.push(0).op("CALLDATALOAD").op("JUMP")            # entry: unresolved
    a.dest("far").push_label("mid").op("JUMP")
    a.dest("mid").push_label("site").op("JUMP")
    a.dest("site")
    for _ in range(7):
        a.push(0)
    a.op("CALL", "POP", "STOP")
    a.dest("dead").push_label("sink").op("JUMP")        # cannot reach a site
    a.dest("sink").op("STOP")
    a.dest("lone").push(0).op("CALLDATALOAD", "JUMP")   # unresolved, unlinked
    cfg = static = build_cfg(a.assemble())
    start = {name: block.start for name, block in zip(
        ("entry", "far", "mid", "site", "dead", "sink", "lone"), cfg.blocks)}
    sites = critical_sites(cfg)
    site_starts = {cfg.block_at(pc).start for pc in sites}
    hops = distance_map(cfg, sites)
    predecessors, learned = static.predecessors, {}
    static_before = dict(predecessors)
    assert hops == {start["far"]: 2, start["mid"]: 1, start["site"]: 0}

    def jump(src: str, dst: str) -> tuple[int, int]:
        return start[src], start[dst]

    batches = [
        # a new edge that shortens nothing
        ([jump("mid", "far")], {}),
        # edges into a region that cannot reach a site
        ([jump("far", "dead"), jump("entry", "lone")], {}),
        # an edge that links previously unreachable blocks, transitively
        ([jump("lone", "mid")], {"lone": 2, "entry": 3}),
        # a shortcut lowers an already reached block
        ([jump("entry", "site")], {"entry": 1}),
    ]
    for observed, lowered in batches:
        before = dict(hops)
        refined = _refine(cfg, hops, predecessors, learned, observed)
        assert refined is not cfg, "every batch adds an edge"
        cfg = refined
        expected = distance_fixpoint(set(cfg.edges), set(cfg.analysis.blocks),
                                     site_starts)
        assert hops == expected == distance_map(cfg, sites)
        changed = {pc: d for pc, d in hops.items() if before.get(pc) != d}
        assert changed == {start[name]: d for name, d in lowered.items()}
        _assert_overlay(static, cfg, learned, static_before)


class _Visits(dict):
    """A predecessor map that records which blocks relaxation expands."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.expanded: list[int] = []

    def get(self, key, default=None):
        self.expanded.append(key)
        return super().get(key, default)


def test_relax_distances_skips_a_stale_heap_entry() -> None:
    a = Assembler()
    a.op("STOP")
    a.dest("up").push_label("lone").op("JUMP")
    a.dest("lone").push(0).op("CALLDATALOAD", "JUMP")   # unresolved
    a.dest("far").push_label("mid").op("JUMP")
    a.dest("mid").push_label("site").op("JUMP")
    a.dest("site")
    for _ in range(7):
        a.push(0)
    a.op("CALL", "POP", "STOP")
    cfg = build_cfg(a.assemble())
    start = {name: block.start for name, block in zip(
        ("entry", "up", "lone", "far", "mid", "site"), cfg.blocks)}
    sites = critical_sites(cfg)
    hops = distance_map(cfg, sites)
    assert hops == {start["far"]: 2, start["mid"]: 1, start["site"]: 0}
    predecessors = _Visits(cfg.predecessors)
    # `lone` is queued at 3 through `far`, then again at 1 through `site`
    new_edges = [(start["lone"], start["far"]), (start["lone"], start["site"])]
    assert relax_distances(hops, predecessors, {}, new_edges) is True
    assert hops == distance_map(augment_edges(cfg, new_edges), sites)
    assert hops[start["lone"]] == 1 and hops[start["up"]] == 2
    # the entry at 3 was lowered before it was popped: expanded once
    assert predecessors.expanded == [start["lone"], start["up"]]


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_relax_distances_matches_fixpoint_oracle(rng: random.Random) -> None:
    cfg = static = build_cfg(random_block_graph(rng))
    pcs = sorted(cfg.pcs)
    sites = rng.sample(pcs, k=rng.randrange(0, min(3, len(pcs)) + 1))
    site_starts = {cfg.block_at(pc).start for pc in sites}
    hops = distance_map(cfg, sites)
    predecessors, learned = static.predecessors, {}
    static_before = dict(predecessors)
    # the starts of the blocks a JUMP or JUMPI ends
    jump_blocks = sorted(block.start for block in cfg.blocks
                         if block.instructions[-1][1] in (op.JUMP, op.JUMPI))
    targets = sorted(cfg.analysis.jumpdests)
    if not jump_blocks:
        return
    for _ in range(rng.randrange(1, 6)):
        observed = [(rng.choice(jump_blocks), rng.choice(targets))
                    for _ in range(rng.randrange(1, 5))]
        cfg = _refine(cfg, hops, predecessors, learned, observed)
        assert hops == distance_fixpoint(
            set(cfg.edges), set(cfg.analysis.blocks), site_starts)
        _assert_overlay(static, cfg, learned, static_before)


# --- export ---------------------------------------------------------------

def test_dot_output_lists_blocks_and_edges() -> None:
    cfg = build_cfg(_dispatcher_with_call())
    rendered = to_dot(cfg)
    assert rendered.startswith("digraph cfg {")
    for block in cfg.blocks:
        assert f"b{block.start} [" in rendered
    for src, dst in cfg.edges:
        assert f"b{src} -> b{dst};" in rendered
    assert "color=red" in rendered


def test_dot_labels_a_fallthrough_block_and_one_that_runs_off_the_end() -> None:
    # 0 PUSH1 1; 2 POP; 3 JUMPDEST; 4 PUSH1 2, then the code ends
    cfg = build_cfg(code(P1, 1, op.POP, op.JUMPDEST, P1, 2))
    assert to_dot(cfg).splitlines()[2:] == [
        '    b0 [label="0x0000 PUSH1 0x01\\l0x0002 POP\\l[Fallthrough]"];',
        '    b3 [label="0x0003 JUMPDEST\\l0x0004 PUSH1 0x02\\l[Halt]"];',
        "    b0 -> b3;",
        "}",
    ]
