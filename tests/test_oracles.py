"""Detection rules: synthetic event streams plus live interpreter traces."""

from __future__ import annotations

import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dogefuzz import opcodes as op
from dogefuzz.asm import Assembler
from dogefuzz.cfg import analyze
from dogefuzz.evm import (
    AGENT_ADDRESS,
    EventKind,
    ExecutionEvent,
    ExecutionTrace,
    PolicyKind,
    Transaction,
    TxStatus,
    deploy_contract,
    execute_transaction,
)
from dogefuzz.oracles import (
    CLASSIFICATION,
    BugFinding,
    CoarseClass,
    FineBugClass,
    detect_trace,
)

from detect_oracle import detect_reference
from evm_utils import run
from test_evm_exec import WITHDRAW, deploy_vault, fresh_state


def ev(kind: EventKind, pc: int = 0, depth: int = 1) -> ExecutionEvent:
    return ExecutionEvent(kind=kind, pc=pc, depth=depth)


def snap(*events: ExecutionEvent,
         status: TxStatus = TxStatus.SUCCESS) -> ExecutionTrace:
    return ExecutionTrace(status=status, gas_used=0, events=list(events))


def classes(findings: list[BugFinding]) -> set[FineBugClass]:
    return {f.fine for f in findings}


# --- classification table -------------------------------------------------

def test_every_fine_class_is_classified() -> None:
    assert set(CLASSIFICATION) == set(FineBugClass)


@pytest.mark.parametrize("fine,swc,coarse", [
    (FineBugClass.REENTRANCY, "SWC-107", CoarseClass.RE),
    (FineBugClass.DANGEROUS_DELEGATE_CALL, "SWC-112", CoarseClass.ME),
    (FineBugClass.GASLESS_SEND, "SWC-104", CoarseClass.ME),
    (FineBugClass.EXCEPTION_DISORDER, "SWC-104", CoarseClass.ME),
    (FineBugClass.TIMESTAMP_DEPENDENCY, "SWC-120", CoarseClass.BD),
    (FineBugClass.NUMBER_DEPENDENCY, "SWC-120", CoarseClass.BD),
])
def test_classification_table(fine, swc, coarse) -> None:
    assert CLASSIFICATION[fine] == (swc, coarse)
    finding = BugFinding(fine, 7)
    assert (finding.swc, finding.coarse) == (swc, coarse)


# --- rule: re-entered frame with deep effects -----------------------------

def test_reentrancy_needs_deep_transfer_or_write() -> None:
    qualifying = snap(ev(EventKind.REENTRANCY, depth=3),
                      ev(EventKind.ETHER_TRANSFER, pc=9, depth=3))
    assert classes(detect_trace(qualifying)) == {FineBugClass.REENTRANCY}

    shallow = snap(ev(EventKind.REENTRANCY, depth=3),
                   ev(EventKind.ETHER_TRANSFER, pc=9, depth=2))
    assert detect_trace(shallow) == []

    via_write = snap(ev(EventKind.REENTRANCY, depth=3),
                     ev(EventKind.STORAGE_CHANGED, pc=4, depth=4))
    assert classes(detect_trace(via_write)) == {FineBugClass.REENTRANCY}


def test_reentrancy_anchors_first_qualifying_event() -> None:
    snapshot = snap(
        ev(EventKind.REENTRANCY, pc=11, depth=9),   # nothing at depth >= 9
        ev(EventKind.REENTRANCY, pc=22, depth=3),
        ev(EventKind.ETHER_TRANSFER, pc=30, depth=4),
    )
    findings = detect_trace(snapshot)
    assert [f.pc for f in findings if f.fine is FineBugClass.REENTRANCY] == [22]


def test_reentrancy_alone_is_silent() -> None:
    assert detect_trace(snap(ev(EventKind.REENTRANCY, depth=2))) == []


# --- rule: delegate target from the outside -------------------------------

def test_delegate_fires_regardless_of_status() -> None:
    for status in TxStatus:
        findings = detect_trace(snap(ev(EventKind.DELEGATE, pc=17),
                                     status=status))
        assert classes(findings) == {FineBugClass.DANGEROUS_DELEGATE_CALL}
        assert findings[0].pc == 17


# --- rules gated on success -----------------------------------------------

def test_gasless_send_requires_success() -> None:
    hit = detect_trace(snap(ev(EventKind.GASLESS_SEND, pc=33)))
    assert classes(hit) == {FineBugClass.GASLESS_SEND}
    assert hit[0].pc == 33
    assert detect_trace(snap(ev(EventKind.GASLESS_SEND, pc=33),
                       status=TxStatus.REVERTED)) == []


def test_exception_disorder_requires_success() -> None:
    hit = detect_trace(snap(ev(EventKind.EXCEPTION_DISORDER, pc=40)))
    assert classes(hit) == {FineBugClass.EXCEPTION_DISORDER}
    assert detect_trace(snap(ev(EventKind.EXCEPTION_DISORDER, pc=40),
                       status=TxStatus.OUT_OF_GAS)) == []


# --- rules: block field reads plus a transfer -----------------------------

def test_timestamp_dependency_needs_transfer() -> None:
    assert detect_trace(snap(ev(EventKind.TIMESTAMP, pc=2))) == []
    findings = detect_trace(snap(ev(EventKind.TIMESTAMP, pc=2),
                           ev(EventKind.TIMESTAMP, pc=8),
                           ev(EventKind.ETHER_TRANSFER, pc=20)))
    assert [(f.fine, f.pc) for f in findings] == [
        (FineBugClass.TIMESTAMP_DEPENDENCY, 2)]


def test_number_dependency_needs_transfer() -> None:
    assert detect_trace(snap(ev(EventKind.BLOCK_NUMBER, pc=5))) == []
    findings = detect_trace(snap(ev(EventKind.BLOCK_NUMBER, pc=5),
                           ev(EventKind.ETHER_TRANSFER, pc=9)))
    assert classes(findings) == {FineBugClass.NUMBER_DEPENDENCY}


def test_multiple_classes_one_snapshot() -> None:
    snapshot = snap(
        ev(EventKind.DELEGATE, pc=3),
        ev(EventKind.GASLESS_SEND, pc=10),
        ev(EventKind.GASLESS_SEND, pc=50),
        ev(EventKind.TIMESTAMP, pc=1),
        ev(EventKind.ETHER_TRANSFER, pc=12),
    )
    findings = detect_trace(snapshot)
    assert classes(findings) == {
        FineBugClass.DANGEROUS_DELEGATE_CALL,
        FineBugClass.GASLESS_SEND,
        FineBugClass.TIMESTAMP_DEPENDENCY,
    }
    gasless = [f for f in findings if f.fine is FineBugClass.GASLESS_SEND]
    assert [f.pc for f in gasless] == [10]


def test_findings_are_logged_at_debug(caplog) -> None:
    snapshot = snap(ev(EventKind.DELEGATE, pc=3),
                    ev(EventKind.GASLESS_SEND, pc=10))
    with caplog.at_level(logging.INFO, logger="dogefuzz.oracles"):
        detect_trace(snapshot)
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="dogefuzz.oracles"):
        detect_trace(snapshot)
    assert [r.getMessage() for r in caplog.records] == [
        "detected ['DangerousDelegateCall', 'GaslessSend']"]


# --- one pass agrees with the per-rule reference --------------------------

_EVENTS = st.builds(ExecutionEvent, kind=st.sampled_from(list(EventKind)),
                    pc=st.integers(0, 64), depth=st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(st.lists(_EVENTS, max_size=12))
def test_one_pass_detect_matches_reference(events) -> None:
    for status in TxStatus:
        trace = snap(*events, status=status)
        assert detect_trace(trace) == detect_reference(trace)


# --- live traces ----------------------------------------------------------

def test_vault_drain_detected_as_reentrancy() -> None:
    state, vault = deploy_vault()
    execute_transaction(state, Transaction(target=vault, value=100))
    trace = execute_transaction(
        state, Transaction(target=vault, calldata=WITHDRAW,
                           agent_policy=PolicyKind.REENTRANT))
    findings = detect_trace(trace)
    assert FineBugClass.REENTRANCY in classes(findings)


def test_two_reentrant_functions_are_two_sites() -> None:
    # each function pays its caller through its own CALL; a re-entry is
    # anchored at the CALL that let the agent back in
    a = Assembler()
    a.op("CALLDATASIZE").push(2).op("EQ").push_label("second").op("JUMPI")
    a.push(0).push(0).push(0).push(0).push(10)
    a.op("CALLER", "GAS", "CALL", "POP", "STOP")
    a.dest("second")
    a.push(0).push(0).push(0).push(0).push(20)
    a.op("CALLER", "GAS", "CALL", "POP", "STOP")
    code = a.assemble()
    state = fresh_state()
    bank = deploy_contract(state, code, endowment=1000)
    sites = set()
    for calldata in (b"\x01", b"\x01\x02"):
        trace = execute_transaction(
            state, Transaction(target=bank, calldata=calldata,
                               agent_policy=PolicyKind.REENTRANT))
        sites |= {f.pc for f in detect_trace(trace)
                  if f.fine is FineBugClass.REENTRANCY}
    calls = {pc for pc in analyze(code).critical if code[pc] == op.CALL}
    assert len(calls) == 2
    assert sites == calls


def test_stipend_send_to_contract_detected_as_gasless() -> None:
    a = Assembler()
    a.push(0).push(0).push(0).push(0).push(1)
    a.push_address(AGENT_ADDRESS).push(0).op("CALL", "POP", "STOP")
    trace, _, _ = run(a.assemble(), endowment=5)
    findings = detect_trace(trace)
    # an ignored out-of-gas send is simultaneously a swallowed exception
    assert classes(findings) == {FineBugClass.GASLESS_SEND,
                                 FineBugClass.EXCEPTION_DISORDER}
    send_pc = {f.pc for f in findings}
    assert len(send_pc) == 1, "both findings anchor at the call site"


def test_rolled_back_transfer_still_counts() -> None:
    # the rule for events of rolled-back moves: the ETHER_TRANSFER is
    # emitted before the callee runs and stays when its move is undone
    a = Assembler()
    a.op("TIMESTAMP", "POP")
    a.push(0).push(0).push(0).push(0).push(1)
    a.push_address(AGENT_ADDRESS).op("GAS", "CALL", "POP", "STOP")
    trace, state, address = run(a.assemble(), endowment=10,
                                policy=PolicyKind.THROWER)
    assert state.balance_of(address) == 10
    findings = detect_trace(trace)
    assert {(f.fine, f.pc) for f in findings} == {
        (FineBugClass.TIMESTAMP_DEPENDENCY, 0),
        (FineBugClass.EXCEPTION_DISORDER, 34)}


def test_timestamp_gated_send_detected() -> None:
    sink = b"\x00" * 19 + b"\x09"
    a = Assembler()
    a.op("TIMESTAMP", "POP")
    a.push(0).push(0).push(0).push(0).push(1)
    a.push_address(sink).push(0).op("CALL", "POP", "STOP")
    trace, _, _ = run(a.assemble(), endowment=5)
    findings = detect_trace(trace)
    assert classes(findings) == {FineBugClass.TIMESTAMP_DEPENDENCY}
    (finding,) = findings
    assert finding.pc == 0
    assert finding.swc == "SWC-120" and finding.coarse is CoarseClass.BD
