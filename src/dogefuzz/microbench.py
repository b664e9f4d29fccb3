"""Hand-assembled benchmark contracts with known planted bugs.

Each vulnerable fixture comes with a fixed twin of the same shape whose
defect is repaired, so detection quality can be judged as both recall on
the dirty half and precision on the clean half; `_twins` builds both from
one body.  Balance bookkeeping uses the caller address directly as the
storage key.  The `gated_send` fixture hides its bug behind three
magic-constant guards with progressively larger code regions, which rewards
strategies that can steer toward the money transfer at the end.

`write_benchmark` writes the bundle layout that `dogefuzz.harness` loads;
see its module docstring and README "Bundle format".
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from .abi import parse_abi, selector
from .asm import Assembler
from .oracles import FineBugClass

logger = logging.getLogger(__name__)

# codeless account used as a harmless payout sink (transfers always land)
SINK_ADDRESS = b"\x00" * 19 + b"\x09"
# hardcoded delegate target for the fixed forwarder; never occurs in calldata
TRUSTED_LIBRARY = b"\x1f" * 20

DEFAULT_ENDOWMENT = 100_000


@dataclass(frozen=True)
class Fixture:
    """One benchmark contract: runtime code, interface, and planted bugs."""

    name: str
    runtime: bytes
    abi: tuple[dict, ...]
    labels: tuple[FineBugClass, ...]
    endowment: int = DEFAULT_ENDOWMENT


# --- assembly helpers -----------------------------------------------------

def _fn(name: str, inputs: tuple[str, ...] = (),
        mutability: str = "nonpayable") -> dict:
    return {
        "type": "function",
        "name": name,
        "inputs": [{"name": f"arg{i}", "type": t} for i, t in enumerate(inputs)],
        "outputs": [],
        "stateMutability": mutability,
    }


def _dispatcher(a: Assembler, entries: tuple[dict, ...],
                fallback_reverts: bool) -> None:
    """Selector match chain; unmatched calldata falls through."""
    a.push(0).op("CALLDATALOAD").push(0xE0).op("SHR")
    for spec in parse_abi(entries):
        sel = int.from_bytes(spec.selector_bytes, "big")
        a.op("DUP1").push(sel, width=4).op("EQ")
        a.push_label(spec.name).op("JUMPI")
    a.op("POP")
    if fallback_reverts:
        a.push(0).push(0).op("REVERT")
    else:
        a.op("STOP")


def _call_out_zeros(a: Assembler) -> None:
    """Zeroed return/out and input regions for a plain transfer call."""
    a.push(0).push(0).push(0).push(0)


def _checked_tail(a: Assembler) -> None:
    """Require the call flag on top of the stack, else revert."""
    a.op("ISZERO").push_label("fail").op("JUMPI")
    a.op("STOP")
    a.dest("fail")
    a.push(0).push(0).op("REVERT")


# --- vulnerable/fixed pairs ----------------------------------------------

def _twins(kind: str, entries: tuple[dict, ...], fallback_reverts: bool,
           labels: tuple[FineBugClass, ...],
           body: Callable[[Assembler, bool], None]) -> list[Fixture]:
    """`<kind>_vulnerable` and `<kind>_fixed`: the same dispatcher over
    `entries`, then `body(a, vulnerable)`; only the vulnerable twin is
    labelled."""
    twins = []
    for vulnerable in (True, False):
        a = Assembler()
        _dispatcher(a, entries, fallback_reverts)
        body(a, vulnerable)
        twins.append(Fixture(
            name=f"{kind}_{'vulnerable' if vulnerable else 'fixed'}",
            runtime=a.assemble(),
            abi=entries,
            labels=labels if vulnerable else ()))
    return twins


def _reentrancy(a: Assembler, vulnerable: bool) -> None:
    """Deposit/withdraw vault; the vulnerable twin updates state after the
    payout call."""
    a.dest("deposit")
    a.op("CALLVALUE", "CALLER", "SLOAD", "ADD", "CALLER", "SSTORE", "STOP")

    a.dest("withdraw")
    if vulnerable:
        # pay first, zero the balance entry afterwards
        _call_out_zeros(a)
        a.op("CALLER", "SLOAD", "CALLER", "GAS", "CALL")
        a.op("ISZERO").push_label("fail").op("JUMPI")
        a.push(0).op("CALLER", "SSTORE", "STOP")
    else:
        # zero the entry before any external interaction
        a.op("CALLER", "SLOAD")
        a.push(0).op("CALLER", "SSTORE")
        _call_out_zeros(a)
        a.op("SWAP4", "CALLER", "GAS", "CALL")
        a.op("ISZERO").push_label("fail").op("JUMPI")
        a.op("STOP")
    a.dest("fail")
    a.push(0).push(0).op("REVERT")


def _delegate(a: Assembler, vulnerable: bool) -> None:
    """Library forwarder; the vulnerable twin lets the caller pick the
    delegate target."""
    a.dest("forward")
    _call_out_zeros(a)
    if vulnerable:
        a.push(4).op("CALLDATALOAD")
    else:
        a.push_address(TRUSTED_LIBRARY)
    a.op("GAS", "DELEGATECALL", "POP", "STOP")


def _gasless(a: Assembler, vulnerable: bool) -> None:
    """One-coin refund to the caller; the vulnerable twin sends on the bare
    stipend and ignores the outcome."""
    a.dest("pay")
    _call_out_zeros(a)
    a.push(1).op("CALLER")
    if vulnerable:
        # bare-stipend refund with the result thrown away
        a.push(0).op("CALL", "POP", "STOP")
    else:
        # enough gas for the callee, result enforced, no re-entry budget
        a.push(25_000).op("CALL")
        _checked_tail(a)


def _disorder(a: Assembler, vulnerable: bool) -> None:
    """Internal relay; the vulnerable twin ignores a child call that always
    fails."""
    a.dest("relay")
    if vulnerable:
        # self-call with empty calldata lands in the reverting fallback;
        # the failure is dropped on the floor
        _call_out_zeros(a)
        a.push(0).op("ADDRESS", "GAS", "CALL", "POP", "STOP")
    else:
        sel = int.from_bytes(selector("ping()"), "big")
        a.push(sel, width=4).push(224).op("SHL").push(0).op("MSTORE")
        a.push(0).push(0).push(4).push(0).push(0)
        a.op("ADDRESS", "GAS", "CALL")
        _checked_tail(a)
    a.dest("ping")
    a.op("STOP")


def _lottery(field_op: str, a: Assembler, vulnerable: bool) -> None:
    """Lottery paying to a sink; the vulnerable twin pays only on the parity
    of the block field `field_op`, the fixed twin unconditionally."""
    a.dest("win")
    if vulnerable:
        a.push(2).op(field_op, "MOD")
        a.op("ISZERO").push_label("payout").op("JUMPI")
        a.op("STOP")
        a.dest("payout")
        _call_out_zeros(a)
        a.push(1).push_address(SINK_ADDRESS).push(0)
        a.op("CALL", "POP", "STOP")
    else:
        _call_out_zeros(a)
        a.push(1).push_address(SINK_ADDRESS).push(0)
        a.op("CALL")
        _checked_tail(a)


# --- staged guards for directed search ------------------------------------

GATED_GUARDS = (65_535, 4_294_967_297, 2)
_STAGE_PADDING = (30, 60, 90)


def _gated() -> Fixture:
    """Unchecked stipend send hidden behind three magic-word guards with
    growing code regions."""
    entries = (_fn("hunt", ("uint256", "uint256", "uint256")),)
    a = Assembler()
    _dispatcher(a, entries, fallback_reverts=False)

    a.dest("hunt")
    for stage, (guard, padding) in enumerate(zip(GATED_GUARDS, _STAGE_PADDING)):
        a.push(4 + 32 * stage).op("CALLDATALOAD")
        a.push(guard).op("EQ")
        a.push_label(f"stage{stage}").op("JUMPI")
        a.op("STOP")
        a.dest(f"stage{stage}")
        for _ in range(padding):
            a.op("PC", "POP")
    _call_out_zeros(a)
    a.push(1).op("CALLER").push(0)
    a.op("CALL", "POP", "STOP")

    return Fixture(
        name="gated_send",
        runtime=a.assemble(),
        abi=entries,
        labels=(FineBugClass.GASLESS_SEND, FineBugClass.EXCEPTION_DISORDER),
    )


# --- registry -------------------------------------------------------------

def all_fixtures() -> list[Fixture]:
    return [
        *_twins("reentrancy", (_fn("deposit", (), "payable"), _fn("withdraw")),
                True, (FineBugClass.REENTRANCY,), _reentrancy),
        *_twins("delegate", (_fn("forward", ("address",)),), False,
                (FineBugClass.DANGEROUS_DELEGATE_CALL,), _delegate),
        *_twins("gasless", (_fn("pay"),), False,
                (FineBugClass.GASLESS_SEND, FineBugClass.EXCEPTION_DISORDER),
                _gasless),
        *_twins("disorder", (_fn("relay"), _fn("ping")), True,
                (FineBugClass.EXCEPTION_DISORDER,), _disorder),
        *_twins("timestamp", (_fn("win"),), False,
                (FineBugClass.TIMESTAMP_DEPENDENCY,),
                partial(_lottery, "TIMESTAMP")),
        *_twins("number", (_fn("win"),), False,
                (FineBugClass.NUMBER_DEPENDENCY,),
                partial(_lottery, "NUMBER")),
        _gated(),
    ]


def fixture(name: str) -> Fixture:
    for candidate in all_fixtures():
        if candidate.name == name:
            return candidate
    raise KeyError(name)


def write_benchmark(root: str | Path, fixtures: list[Fixture] | None = None) -> Path:
    """Write the bundle tree for `fixtures` (default: all) under `root`.

    Clean contracts get no labels.json; the file is reserved for planted bugs.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    chosen = fixtures if fixtures is not None else all_fixtures()
    for fx in chosen:
        directory = root / fx.name
        directory.mkdir(exist_ok=True)
        (directory / "manifest.json").write_text(json.dumps({
            "name": fx.name,
            "mode": "runtime",
            "constructor_args": "",
            "initial_balance": fx.endowment,
        }, indent=2) + "\n")
        (directory / "code.hex").write_text(fx.runtime.hex() + "\n")
        (directory / "abi.json").write_text(
            json.dumps(list(fx.abi), indent=2) + "\n")
        if fx.labels:
            (directory / "labels.json").write_text(json.dumps(
                {"bugs": [label.value for label in fx.labels]}, indent=2) + "\n")
    logger.info("wrote %d fixtures to %s", len(chosen), root)
    return root
