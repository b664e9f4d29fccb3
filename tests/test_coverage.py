"""Coverage recorded per basic block equals the per-instruction rule.

The interpreter records block runs and block transitions; the campaign
keeps the longest run of each block.  Both are checked against
`coverage_oracle.reference_coverage`, which records every instruction and
every pair of successive instructions one at a time.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dogefuzz import opcodes as op
from dogefuzz.cfg import analyze, augment_edges, build_cfg
from dogefuzz.evm import (
    AGENT_ADDRESS,
    AGENT_CALL_GAS,
    DEPLOYER_ADDRESS,
    EventKind,
    ExecutionTrace,
    PolicyKind,
    Transaction,
    TxStatus,
    WorldState,
    contract_address,
    deploy_contract,
    execute_transaction,
    snapshot_state,
)
from dogefuzz.fuzzer import BlockCoverage

from coverage_oracle import reference_coverage
from evm_utils import P, block_runs, code, dynamic_edges, transitions
from test_evm_blocks import (
    _CHAIN_ATOMS,
    _EDGE_WORDS,
    _SELECTORS,
    _dispatcher,
    _flagged_reentry,
)

Run = tuple[PolicyKind, int]  # agent policy and gas limit of one transaction


def _check_sequence(raw: bytes, runs: list[Run]) -> list[ExecutionTrace]:
    """Run each transaction in turn on one evolving state, comparing block
    coverage and its accumulation with the per-instruction reference."""
    state = WorldState()
    state.account(AGENT_ADDRESS).balance = 10 ** 18
    address = deploy_contract(state, raw)
    analysis = analyze(raw)
    cfg = build_cfg(raw)
    coverage = BlockCoverage()
    by_exits = BlockCoverage()  # folds each trace as a campaign does
    seen_pcs: set[int] = set()
    seen_pairs: set[tuple[int, int]] = set()
    traces = []
    for policy, gas in runs:
        tx = Transaction(target=address, gas_limit=gas,
                         agent_policy=policy)
        reference, ref_pcs, ref_pairs = reference_coverage(
            snapshot_state(state), tx)
        trace = execute_transaction(state, tx)
        assert (trace.status, trace.gas_used, trace.events) == \
            (reference.status, reference.gas_used, reference.events)

        # one trace: derived pcs and pairs
        assert trace.executed_pcs == ref_pcs
        assert list(trace.executed_pcs) == list(ref_pcs)
        assert dynamic_edges(trace, address) == ref_pairs
        target_runs = block_runs(trace).get((address, raw), {})
        target_pcs = ref_pcs.get(address, set())
        assert set(target_runs) == {analysis.block_of[pc].start
                                    for pc in target_pcs}

        # a sequence: new pcs and pairs as the campaign counts them
        new_edges, fresh = coverage.add(target_runs,
                                        transitions(trace, address), ())
        assert new_edges == len(ref_pairs - seen_pairs)
        loop_runs, exits = trace.records.get((address, raw), ({}, []))
        assert by_exits.add(loop_runs, trace.edges, exits) == (new_edges, fresh)
        # each new block edge is the new pair that leaves its block's end
        assert {(analysis.blocks[src].pcs[-1], dst) for src, dst in fresh} \
            == {(src, dst) for src, dst in ref_pairs - seen_pairs
                if analysis.block_of[src].pcs[-1] == src}
        # a new edge the static graph lacks is a jump it left unresolved
        learned = augment_edges(cfg, fresh).learned_edges
        assert learned == fresh - cfg.static_edges
        assert {src for src, _ in learned} <= cfg.unresolved
        seen_pcs |= target_pcs
        seen_pairs |= ref_pairs
        assert coverage.pcs == len(seen_pcs)
        traces.append(trace)
    return traces


def _reentry_faults_in_a_whole_block() -> bytes:
    """A block run whole by the outer frame, then by a re-entered frame
    that runs out of gas on its third instruction."""
    inner_gas = 3 + 2 + 2  # PUSH1, POP, then one short of the PUSH1
    return code(P(1), op.POP, P(2), op.POP,
                op.JUMPDEST, P(0), P(0), P(0), P(0), P(0),
                bytes([op.PUSH1 + 19]) + AGENT_ADDRESS,
                P(AGENT_CALL_GAS + op.GAS_CALL_BASE + inner_gas), op.CALL,
                op.POP, op.STOP)


BENIGN, REENTRANT = PolicyKind.BENIGN, PolicyKind.REENTRANT
# the first contract deployed on a fresh state: every case's target
TARGET = contract_address(DEPLOYER_ADDRESS, 0)
CASES = {
    "out_of_gas_mid_block": (
        code(P(1), P(2), op.ADD, op.POP, op.STOP),
        [(BENIGN, 8), (BENIGN, 10), (BENIGN, 100)],
        lambda traces: traces[0].status is TxStatus.OUT_OF_GAS),
    "stack_underflow_mid_block": (
        code(P(1), op.ADD, P(3), op.STOP),
        [(BENIGN, 50_000)],
        lambda traces: traces[0].status is TxStatus.INVALID_OPCODE),
    "bad_jump": (
        code(P(4), op.JUMP, bytes([op.PUSH1 + 1, op.JUMPDEST, 0x00]),
             op.STOP),
        [(BENIGN, 50_000)],
        lambda traces: traces[0].status is TxStatus.INVALID_OPCODE),
    "jumpi_fall_through": (
        code(P(0), P(9), op.JUMPI, P(1), op.POP, op.STOP,
             op.JUMPDEST, op.STOP),
        [(BENIGN, 50_000), (BENIGN, 5)],
        lambda traces: traces[0].status is TxStatus.SUCCESS),
    # 0 CALLVALUE; 1 PUSH1 5; 3 ADD; 4 JUMP; 5 JUMPDEST; 6 STOP: the ADD
    # hides the destination, so the jump is learned on its first run only
    "unresolved_jump_is_learned": (
        code(op.CALLVALUE, P(5), op.ADD, op.JUMP, op.JUMPDEST, op.STOP),
        [(BENIGN, 50_000), (BENIGN, 50_000)],
        lambda traces: [transitions(t, TARGET) for t in traces] == [{(0, 5)}] * 2),
    "reentrant_frame_takes_its_own_jump": (
        _flagged_reentry()[0],
        [(REENTRANT, 1_000_000), (BENIGN, 1_000_000)],
        lambda traces: any(e.kind is EventKind.REENTRANCY
                           for e in traces[0].events)),
    "reentrant_frame_faults_in_a_whole_block": (
        _reentry_faults_in_a_whole_block(),
        [(REENTRANT, 1_000_000)],
        lambda traces: any(e.kind is EventKind.REENTRANCY
                           for e in traces[0].events)),
}


@pytest.mark.parametrize("name", CASES)
def test_block_coverage_matches_reference(name: str) -> None:
    raw, runs, exercised = CASES[name]
    assert exercised(_check_sequence(raw, runs))


def test_a_shorter_reentrant_run_keeps_the_whole_block() -> None:
    raw = _reentry_faults_in_a_whole_block()
    trace, = _check_sequence(raw, [(REENTRANT, 1_000_000)])
    first = analyze(raw).blocks[0]
    ((_, runs),) = block_runs(trace).items()
    assert runs[0] == len(first.pcs) == 4


_ATOMS = st.one_of(
    st.sampled_from([op.JUMPDEST, op.JUMP, op.JUMPI, op.POP, op.ADD, op.DUP1,
                     op.SWAP1, op.ISZERO, op.CALLVALUE, op.SLOAD, op.SSTORE,
                     op.MSTORE, op.TIMESTAMP, op.STOP, op.INVALID, 0x0C])
    .map(lambda byte: bytes([byte])),
    st.integers(0, 63).map(lambda v: bytes([op.PUSH1, v])),
    # set the flag a re-entered frame can branch on, or call the agent
    st.just(code(P(1), P(1), op.SSTORE)),
    st.just(code(P(0), P(0), P(0), P(0), P(0),
                 bytes([op.PUSH1 + 19]) + AGENT_ADDRESS, op.GAS, op.CALL)),
    st.binary(min_size=1, max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ATOMS, max_size=40).map(b"".join),
       st.lists(st.tuples(st.sampled_from(list(PolicyKind)),
                          st.integers(30, 200_000)),
                min_size=1, max_size=4))
def test_random_code_block_coverage_matches_reference(raw: bytes,
                                                      runs: list[Run]) -> None:
    _check_sequence(raw, runs)


# --- folding chain exits --------------------------------------------------

def _fold_both_ways(raw: bytes, txs: list[tuple[bytes, int, int]],
                    ) -> tuple[int, int]:
    """Run each (calldata, value, gas) transaction in turn on one state and
    fold each trace into two coverages: one takes the target's chain
    exits, the loop's runs and the other edges, as a campaign does, the
    other the complete record.  They agree trace after trace.  Returns how
    many exits the traces took and how many of those were folded already."""
    state = WorldState()
    state.account(AGENT_ADDRESS).balance = 10 ** 18
    address = deploy_contract(state, raw)
    by_exits, by_record = BlockCoverage(), BlockCoverage()
    taken = skipped = 0
    for calldata, value, gas in txs:
        trace = execute_transaction(state, Transaction(
            target=address, calldata=calldata, value=value, gas_limit=gas))
        loop_runs, exits = trace.records.get((address, raw), ({}, []))
        taken += len(exits)
        skipped += sum(chain_exit in by_exits.folded for chain_exit in exits)
        folded = by_exits.add(loop_runs, trace.edges, exits)
        assert folded == by_record.add(
            block_runs(trace).get((address, raw), {}),
            transitions(trace, address), ())
        assert by_exits.runs == by_record.runs
        assert by_exits.transitions == by_record.transitions
        assert by_exits.pcs == by_record.pcs
    return taken, skipped


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_CHAIN_ATOMS,
                          st.sampled_from(_EDGE_WORDS).map(P),
                          st.just(bytes([op.JUMPDEST]))), max_size=60).map(b"".join),
       st.lists(st.tuples(st.binary(max_size=40), st.sampled_from((0, 6, 10 ** 6)),
                          st.integers(30, 200_000)),
                min_size=1, max_size=5))
def test_folding_exits_once_matches_folding_the_complete_record(
        raw: bytes, txs: list[tuple[bytes, int, int]]) -> None:
    _fold_both_ways(raw, txs)


def test_a_repeated_dispatch_folds_each_exit_once() -> None:
    # each function once, then again: the second round's chain exits were
    # all folded in the first
    calls = [(selector.to_bytes(4, "big"), 0, 100_000)
             for selector in (*_SELECTORS, 0)]
    taken, skipped = _fold_both_ways(_dispatcher(), calls + calls)
    assert taken == 2 * skipped > 0
