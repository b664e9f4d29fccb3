"""Reference coverage for cross-checking block-level recording.

`reference_coverage` keeps the per-instruction rule: every instruction that
runs is covered, and so is every pair of successive instructions within a
frame of the transaction's target.  It gets them from the interpreter
itself, run over a decode in which each instruction is a basic block of
its own: each block run is then one instruction and each block transition
one pair, whatever the real block boundaries are.  It is slow and only used
by tests, which check the pcs and pairs that production code derives from
runs of whole blocks against it.
"""

from __future__ import annotations

from unittest import mock

from dogefuzz import evm
from dogefuzz.cfg import BasicBlock, CodeAnalysis, analyze


def per_instruction_analysis(code: bytes) -> CodeAnalysis:
    """`analyze(code)` with every instruction split into its own block."""
    analysis = analyze(code)
    blocks: dict[int, BasicBlock] = {}
    for block in analysis.blocks.values():
        following = block.pcs[1:] + (block.fallthrough,)
        for ins, nxt in zip(block.instructions, following):
            blocks[ins[0]] = BasicBlock(ins[0], (ins,), (ins[0],), nxt)
    return analysis._replace(
        blocks=blocks,
        jumpdests={pc: blocks[pc] for pc in analysis.jumpdests},
        block_of=blocks)


def reference_coverage(state: evm.WorldState, tx: evm.Transaction,
                       persist: bool = True,
                       ) -> tuple[evm.ExecutionTrace, dict[bytes, set[int]],
                                  set[tuple[int, int]]]:
    """Run `tx` one instruction per block.

    Returns the trace, the executed pcs per code address and the pairs of
    successive instructions in the target's frames.
    """
    with mock.patch.object(evm, "analyze", per_instruction_analysis):
        trace = evm.execute_transaction(state, tx, persist=persist)
    executed: dict[bytes, set[int]] = {}
    for (address, _), runs in trace.block_runs.items():
        assert set(runs.values()) <= {1}, "a one-instruction block runs whole"
        executed.setdefault(address, set()).update(runs)
    return trace, executed, set(trace.transitions)
