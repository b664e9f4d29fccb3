"""Bug detection over instrumented execution traces.

Each rule inspects the events of a single transaction and reports at most
one finding per fine-grained class, anchored at the first event that
satisfies the rule.  A campaign keeps only the first hit of each
(class, pc) pair.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum

from .evm import EventKind, ExecutionEvent, ExecutionTrace, TxStatus

logger = logging.getLogger(__name__)

# the members `detect_trace` tests on every run, bound to module names:
# a read off the enum class costs about 150 ns on Python 3.11
_SUCCESS = TxStatus.SUCCESS
(_DELEGATE, _GASLESS_SEND, _EXCEPTION_DISORDER, _BLOCK_NUMBER, _TIMESTAMP,
 _REENTRANCY, _STORAGE_CHANGED, _ETHER_TRANSFER) = EventKind


class FineBugClass(str, Enum):
    REENTRANCY = "Reentrancy"
    DANGEROUS_DELEGATE_CALL = "DangerousDelegateCall"
    GASLESS_SEND = "GaslessSend"
    EXCEPTION_DISORDER = "ExceptionDisorder"
    TIMESTAMP_DEPENDENCY = "TimestampDependency"
    NUMBER_DEPENDENCY = "NumberDependency"


class CoarseClass(str, Enum):
    """Report-level grouping labels."""

    RE = "RE"
    ME = "ME"
    BD = "BD"


# fine class -> (weakness registry id, coarse report label)
CLASSIFICATION: dict[FineBugClass, tuple[str, CoarseClass]] = {
    FineBugClass.REENTRANCY: ("SWC-107", CoarseClass.RE),
    FineBugClass.DANGEROUS_DELEGATE_CALL: ("SWC-112", CoarseClass.ME),
    FineBugClass.GASLESS_SEND: ("SWC-104", CoarseClass.ME),
    FineBugClass.EXCEPTION_DISORDER: ("SWC-104", CoarseClass.ME),
    FineBugClass.TIMESTAMP_DEPENDENCY: ("SWC-120", CoarseClass.BD),
    FineBugClass.NUMBER_DEPENDENCY: ("SWC-120", CoarseClass.BD),
}


@dataclass(frozen=True)
class BugFinding:
    fine: FineBugClass
    pc: int

    @property
    def swc(self) -> str:
        return CLASSIFICATION[self.fine][0]

    @property
    def coarse(self) -> CoarseClass:
        return CLASSIFICATION[self.fine][1]


# --- detection rules ------------------------------------------------------

def detect_trace(trace: ExecutionTrace) -> list[BugFinding]:
    """All findings for one transaction, at most one per fine class.

    One pass over the events records the first event of each kind, the
    re-entry events, and the deepest depth that moved money or rewrote
    storage; the rules then read only those.  Findings come out in the
    order RE, DDC, GS, ED, TD, ND.
    """
    events = trace.events
    if not events:
        return []
    firsts: dict[EventKind, ExecutionEvent] = {}
    reentries: list[ExecutionEvent] = []
    deepest_effect: int | None = None
    for event in events:
        kind = event.kind
        if kind not in firsts:
            firsts[kind] = event
        if kind is _REENTRANCY:
            reentries.append(event)
        elif kind in (_ETHER_TRANSFER, _STORAGE_CHANGED):
            if deepest_effect is None or event.depth > deepest_effect:
                deepest_effect = event.depth
    findings: list[BugFinding] = []

    # a frame was entered twice and the nested execution moved money or
    # rewrote storage at or below the re-entered depth
    if deepest_effect is not None:
        for event in reentries:
            if event.depth <= deepest_effect:
                findings.append(BugFinding(FineBugClass.REENTRANCY, event.pc))
                break

    delegate = firsts.get(_DELEGATE)
    if delegate is not None:
        findings.append(
            BugFinding(FineBugClass.DANGEROUS_DELEGATE_CALL, delegate.pc))

    if trace.status is _SUCCESS:
        gasless = firsts.get(_GASLESS_SEND)
        if gasless is not None:
            findings.append(BugFinding(FineBugClass.GASLESS_SEND, gasless.pc))
        disorder = firsts.get(_EXCEPTION_DISORDER)
        if disorder is not None:
            findings.append(
                BugFinding(FineBugClass.EXCEPTION_DISORDER, disorder.pc))

    if _ETHER_TRANSFER in firsts:
        stamp = firsts.get(_TIMESTAMP)
        if stamp is not None:
            findings.append(
                BugFinding(FineBugClass.TIMESTAMP_DEPENDENCY, stamp.pc))
        number = firsts.get(_BLOCK_NUMBER)
        if number is not None:
            findings.append(
                BugFinding(FineBugClass.NUMBER_DEPENDENCY, number.pc))

    # the list is built only for a log that keeps it
    if findings and logger.isEnabledFor(logging.DEBUG):
        logger.debug("detected %s", [f.fine.value for f in findings])
    return findings
