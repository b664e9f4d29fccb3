"""Reference detection rules for cross-checking
`dogefuzz.oracles.detect_trace`.

`detect_reference` keeps the rules in their plainest form: one scan of the
events per rule, with the reentrancy rule re-scanning every event for each
re-entry.  It is slow and only used by tests, which check that the
one-pass production `detect_trace` returns the same findings in the same
order.
"""

from __future__ import annotations

from dogefuzz.evm import EventKind, ExecutionEvent, ExecutionTrace, TxStatus
from dogefuzz.oracles import BugFinding, FineBugClass


def detect_reference(trace: ExecutionTrace) -> list[BugFinding]:
    """All findings for one transaction, at most one per fine class."""
    events = trace.events
    succeeded = trace.status is TxStatus.SUCCESS
    findings: list[BugFinding] = []

    def first(kind: EventKind) -> ExecutionEvent | None:
        return next((e for e in events if e.kind is kind), None)

    # a frame was entered twice and the nested execution moved money or
    # rewrote storage at or below the re-entered depth
    for event in events:
        if event.kind is not EventKind.REENTRANCY:
            continue
        deep = any(
            e.kind in (EventKind.ETHER_TRANSFER, EventKind.STORAGE_CHANGED)
            and e.depth >= event.depth
            for e in events)
        if deep:
            findings.append(BugFinding(FineBugClass.REENTRANCY, event.pc))
            break

    delegate = first(EventKind.DELEGATE)
    if delegate is not None:
        findings.append(
            BugFinding(FineBugClass.DANGEROUS_DELEGATE_CALL, delegate.pc))

    if succeeded:
        gasless = first(EventKind.GASLESS_SEND)
        if gasless is not None:
            findings.append(BugFinding(FineBugClass.GASLESS_SEND, gasless.pc))
        disorder = first(EventKind.EXCEPTION_DISORDER)
        if disorder is not None:
            findings.append(
                BugFinding(FineBugClass.EXCEPTION_DISORDER, disorder.pc))

    transferred = any(e.kind is EventKind.ETHER_TRANSFER for e in events)
    if transferred:
        stamp = first(EventKind.TIMESTAMP)
        if stamp is not None:
            findings.append(
                BugFinding(FineBugClass.TIMESTAMP_DEPENDENCY, stamp.pc))
        number = first(EventKind.BLOCK_NUMBER)
        if number is not None:
            findings.append(
                BugFinding(FineBugClass.NUMBER_DEPENDENCY, number.pc))

    return findings
