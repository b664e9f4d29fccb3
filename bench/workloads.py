"""The benchmark's three workloads, generated from a seed and written as bundles.

* micro-corpus: the thirteen `dogefuzz.microbench` fixtures, unchanged.
* wide-cfg: one synthetic contract of 3-4k basic blocks whose size makes
  directed feedback (edge augmentation, distance maps) the dominant cost.
* mapping-hash: a token vault laid out the way Solidity stores mappings
  and arrays, so most executions hash storage keys with `SHA3`.

Every generator is deterministic in its seed and checks its own shape
before anything is timed (`self_check`).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from dogefuzz import cfg as cfg_mod
from dogefuzz import evm, harness, microbench
from dogefuzz.abi import encode_call, parse_abi, selector
from dogefuzz.asm import Assembler
from dogefuzz.fuzzer import CampaignConfig, Strategy
from dogefuzz.oracles import FineBugClass

from tracing import Tracer

MICRO = "micro-corpus"
WIDE = "wide-cfg"
MAPPING = "mapping-hash"
NAMES = (MICRO, WIDE, MAPPING)

WIDE_BLOCK_BAND = (3000, 4000)
WIDE_BYTE_BAND = (20_000, 30_000)
WIDE_FUNCTIONS = 44
WIDE_PLANTED = 4
WIDE_TREE_DEPTH = 3
WIDE_CHAIN_BLOCKS = (6, 10)

MAPPING_LOOP_MASK = 3
MAPPING_MINT = 1_000
ENDOWMENT = 100_000


class WorkloadError(RuntimeError):
    """A generated workload does not have the shape it promises."""


@dataclass(frozen=True)
class Contract:
    """One bundle: code, interface and the bugs planted in it."""

    name: str
    code: bytes                 # init code when mode is "creation"
    abi: tuple[dict, ...]
    labels: tuple[FineBugClass, ...]
    mode: str = "runtime"
    endowment: int = ENDOWMENT


def _entry(name: str, inputs: tuple[str, ...] = (),
           mutability: str = "nonpayable") -> dict:
    return {
        "type": "function",
        "name": name,
        "inputs": [{"name": f"arg{i}", "type": t}
                   for i, t in enumerate(inputs)],
        "outputs": [],
        "stateMutability": mutability,
    }


def _signature(entry: dict) -> str:
    return f"{entry['name']}({','.join(i['type'] for i in entry['inputs'])})"


def _dispatch(a: Assembler, entries: list[dict]) -> None:
    """Selector compare chain; unknown selectors stop quietly."""
    a.push(0).op("CALLDATALOAD").push(0xE0).op("SHR")
    for entry in entries:
        word = int.from_bytes(selector(_signature(entry)), "big")
        a.op("DUP1").push(word, width=4).op("EQ")
        a.push_label(entry["name"]).op("JUMPI")
    a.op("STOP")


def _stipend_send(a: Assembler) -> None:
    """Unchecked one-wei send on the bare stipend (GaslessSend + disorder)."""
    a.push(0).push(0).push(0).push(0).push(1).op("CALLER").push(0)
    a.op("CALL", "POP")


# --- wide-cfg -------------------------------------------------------------

def wide_cfg(seed: int) -> Contract:
    """A selector dispatcher over many two-argument functions.

    Each function first calls a shared subroutine whose return `JUMP` takes
    its target from the caller, so no return edge is known statically and
    the directed strategy refines its graph at run time.  The returned value
    then walks a binary guard tree whose leaves are padded jump chains.
    Some functions carry a stipend send gated on their second argument.
    """
    rng = random.Random(f"{WIDE}:{seed}")
    entries = [_entry(f"w{i:02d}_{rng.getrandbits(16):04x}",
                      ("uint256", "uint256"))
               for i in range(WIDE_FUNCTIONS)]
    planted = set(rng.sample(range(WIDE_FUNCTIONS), WIDE_PLANTED))

    a = Assembler()
    _dispatch(a, entries)
    a.dest("sub")                       # stack: return label, argument
    a.push(1).op("ADD", "SWAP1", "JUMP")

    counter = 0

    def fresh(stem: str) -> str:
        nonlocal counter
        counter += 1
        return f"{stem}{counter}"

    def chain() -> None:
        for _ in range(rng.randint(*WIDE_CHAIN_BLOCKS)):
            for _ in range(rng.randrange(3)):
                a.op("PC", "POP")
            hop = fresh("hop")
            a.push_label(hop).op("JUMP")
            a.dest(hop)
        a.op("STOP")

    def tree(depth: int) -> None:
        if depth == 0:
            chain()
            return
        right = fresh("right")
        a.op("DUP1").push(rng.randrange(8, 248)).op("SHR")
        a.push(1).op("AND").push_label(right).op("JUMPI")
        tree(depth - 1)
        a.dest(right)
        tree(depth - 1)

    for index, entry in enumerate(entries):
        back = fresh("back")
        a.dest(entry["name"])
        a.push_label(back).push(4).op("CALLDATALOAD")
        a.push_label("sub").op("JUMP")
        a.dest(back)                    # stack: selector, argument + 1
        if index in planted:
            skip = fresh("skip")
            a.push(36).op("CALLDATALOAD", "ISZERO")
            a.push_label(skip).op("JUMPI")
            _stipend_send(a)
            a.dest(skip)
        tree(WIDE_TREE_DEPTH)

    labels = (FineBugClass.GASLESS_SEND, FineBugClass.EXCEPTION_DISORDER)
    return Contract("wide", a.assemble(), tuple(entries),
                    labels * WIDE_PLANTED)


# --- mapping-hash ---------------------------------------------------------

def _hash_key(a: Assembler, slot: int) -> None:
    """key on the stack -> keccak256(key . slot), Solidity mapping layout."""
    a.push(0).op("MSTORE").push(slot).push(32).op("MSTORE")
    a.push(64).push(0).op("SHA3")


def _push_word(a: Assembler, source: str | int) -> None:
    """An opcode's result (by name) or a calldata word (by offset)."""
    if isinstance(source, str):
        a.op(source)
    else:
        a.push(source).op("CALLDATALOAD")


def _nested_key(a: Assembler, owner: str | int, spender: str | int,
                slot: int) -> None:
    """-> keccak256(spender . keccak256(owner . slot)): a mapping of mappings."""
    _push_word(a, owner)
    _hash_key(a, slot)
    a.push(32).op("MSTORE")
    _push_word(a, spender)
    a.push(0).op("MSTORE").push(64).push(0).op("SHA3")


def _debit(a: Assembler, amount_offset: int) -> None:
    """[key] -> []: storage[key] -= calldata word, reverting on shortfall."""
    a.op("DUP1", "SLOAD").push(amount_offset).op("CALLDATALOAD")
    a.op("DUP1", "DUP3", "LT").push_label("fail").op("JUMPI")
    a.op("SWAP1", "SUB", "SWAP1", "SSTORE")


def _credit(a: Assembler, amount: str | int) -> None:
    """[key] -> []: storage[key] += amount."""
    a.op("DUP1", "SLOAD")
    _push_word(a, amount)
    a.op("ADD", "SWAP1", "SSTORE")


def _pay_then_zero(a: Assembler, slot: int) -> None:
    """DAO-style withdrawal: send the caller's entry, then clear it."""
    a.op("CALLER")
    _hash_key(a, slot)
    a.push(0).push(0).push(0).push(0)
    a.op("DUP5", "SLOAD", "CALLER", "GAS", "CALL")
    a.op("ISZERO").push_label("fail").op("JUMPI")
    a.push(0).op("SWAP1", "SSTORE", "STOP")


def _minting_init(runtime: bytes, slots: tuple[int, ...]) -> bytes:
    """Creation code crediting the agent in each mapping, then returning
    `runtime`, like a token constructor minting an initial supply."""

    def build(init_size: int) -> bytes:
        a = Assembler()
        for slot in slots:
            a.push_address(evm.AGENT_ADDRESS)
            _hash_key(a, slot)
            a.push(MAPPING_MINT).op("SWAP1", "SSTORE")
        a.push(len(runtime), width=2).push(init_size, width=2).push(0)
        a.op("CODECOPY")
        a.push(len(runtime), width=2).push(0).op("RETURN")
        return a.assemble()

    return build(len(build(0))) + runtime


def mapping_hash(seed: int) -> Contract:
    """Token vault: balances, nested allowances, a hashed array, two vaults.

    Storage slots and dispatch order come from the seed.  `withdraw` and
    `redeem` both pay before zeroing the caller's entry, so each is a
    separate reentrancy bug; the constructor credits the agent in both
    mappings so either can be drained from the first transaction.
    """
    rng = random.Random(f"{MAPPING}:{seed}")
    bal, allow, arr, credit, total = rng.sample(range(16), 5)
    entries = [
        _entry("deposit", (), "payable"),
        _entry("transfer", ("address", "uint256")),
        _entry("approve", ("address", "uint256")),
        _entry("transferFrom", ("address", "address", "uint256")),
        _entry("record", ("uint256",)),
        _entry("withdraw"),
        _entry("redeem"),
    ]
    rng.shuffle(entries)

    def deposit(a: Assembler) -> None:
        for slot in (bal, credit):
            a.op("CALLER")
            _hash_key(a, slot)
            _credit(a, "CALLVALUE")
        a.push(total)
        _credit(a, "CALLVALUE")
        a.op("STOP")

    def transfer(a: Assembler) -> None:
        a.op("CALLER")
        _hash_key(a, bal)
        _debit(a, 36)
        a.push(4).op("CALLDATALOAD")
        _hash_key(a, bal)
        _credit(a, 36)
        a.op("STOP")

    def approve(a: Assembler) -> None:
        _nested_key(a, "CALLER", 4, allow)
        a.push(36).op("CALLDATALOAD", "SWAP1", "SSTORE", "STOP")

    def transfer_from(a: Assembler) -> None:
        _nested_key(a, 4, "CALLER", allow)
        _debit(a, 68)
        a.push(4).op("CALLDATALOAD")
        _hash_key(a, bal)
        _debit(a, 68)
        a.push(36).op("CALLDATALOAD")
        _hash_key(a, bal)
        _credit(a, 68)
        a.op("STOP")

    def record(a: Assembler) -> None:
        # for i < n & mask: entries[i] += caller, re-hashing the array slot
        # every iteration the way unoptimised Solidity does
        a.push(4).op("CALLDATALOAD").push(MAPPING_LOOP_MASK).op("AND")
        a.push(0)
        a.dest("loop")
        a.op("DUP2", "DUP2", "LT", "ISZERO").push_label("done").op("JUMPI")
        a.push(arr).push(0).op("MSTORE").push(32).push(0).op("SHA3")
        a.op("DUP2", "ADD")
        _credit(a, "CALLER")
        a.push(1).op("ADD").push_label("loop").op("JUMP")
        a.dest("done")
        a.op("POP").push(arr).op("SSTORE", "STOP")

    bodies = {
        "deposit": deposit,
        "transfer": transfer,
        "approve": approve,
        "transferFrom": transfer_from,
        "record": record,
        "withdraw": lambda a: _pay_then_zero(a, bal),
        "redeem": lambda a: _pay_then_zero(a, credit),
    }

    a = Assembler()
    _dispatch(a, entries)
    for entry in entries:
        a.dest(entry["name"])
        bodies[entry["name"]](a)
    a.dest("fail")
    a.push(0).push(0).op("REVERT")

    return Contract("vault", _minting_init(a.assemble(), (bal, credit)),
                    tuple(entries),
                    (FineBugClass.REENTRANCY, FineBugClass.REENTRANCY),
                    mode="creation")


# --- materialising and checking -------------------------------------------

def generate(workload: str, seed: int) -> list[Contract]:
    """The contracts of `workload`; micro-corpus ignores the seed."""
    if workload == MICRO:
        return [Contract(fx.name, fx.runtime, fx.abi, fx.labels,
                         endowment=fx.endowment)
                for fx in microbench.all_fixtures()]
    if workload == WIDE:
        return [wide_cfg(seed)]
    if workload == MAPPING:
        return [mapping_hash(seed)]
    raise ValueError(f"unknown workload {workload!r}")


def write(contracts: list[Contract], root: Path) -> None:
    """One bundle directory per contract, in the harness's bundle format."""
    for contract in contracts:
        directory = root / contract.name
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "manifest.json").write_text(json.dumps({
            "name": contract.name,
            "mode": contract.mode,
            "constructor_args": "",
            "initial_balance": contract.endowment,
        }, indent=2) + "\n")
        (directory / "code.hex").write_text(contract.code.hex() + "\n")
        (directory / "abi.json").write_text(
            json.dumps(list(contract.abi), indent=2) + "\n")
        if contract.labels:
            (directory / "labels.json").write_text(json.dumps(
                {"bugs": [label.value for label in contract.labels]},
                indent=2) + "\n")


def _keccak_calls(run: Callable[[], None]) -> int:
    tracer = Tracer()
    with tracer:
        tracer.wrap(evm, "keccak256")
        run()
    return len(tracer.spans)


def _check_wide(contracts: list[Contract]) -> None:
    (contract,) = contracts
    graph = cfg_mod.build_cfg(contract.code)
    low, high = WIDE_BLOCK_BAND
    if not low <= len(graph.blocks) <= high:
        raise WorkloadError(f"wide-cfg has {len(graph.blocks)} blocks, "
                            f"outside {low}-{high}")
    low, high = WIDE_BYTE_BAND
    if not low <= len(contract.code) <= high:
        raise WorkloadError(f"wide-cfg has {len(contract.code)} bytes, "
                            f"outside {low}-{high}")
    if not graph.unresolved:
        raise WorkloadError("wide-cfg has no statically unresolved jump")
    if len(cfg_mod.critical_sites(graph)) != WIDE_PLANTED:
        raise WorkloadError("wide-cfg critical sites differ from the planted "
                            "sends")


_SAMPLE_ARGS = {"address": evm.AGENT_ADDRESS, "uint256": 5}


def _check_mapping(contracts: list[Contract], bundle_root: Path) -> None:
    """Every function hashes a storage key when called with plain arguments."""
    (contract,) = contracts
    target = harness.prepare_target(
        harness.load_bundle(bundle_root / contract.name))
    for spec in parse_abi(contract.abi):
        args = [_SAMPLE_ARGS[t.canonical] for t in spec.inputs]
        tx = evm.Transaction(target=target.address,
                             calldata=encode_call(spec, args))
        calls = _keccak_calls(
            lambda: evm.execute_transaction(target.state, tx, persist=False))
        if calls == 0:
            raise WorkloadError(f"mapping-hash {spec.signature} never runs "
                                "SHA3")


def _check_micro(bundle_root: Path) -> None:
    """Campaigns on the fixtures never reach the SHA3 opcode."""
    targets = [harness.prepare_target(b)
               for b in harness.load_benchmark(bundle_root)]
    config = CampaignConfig(strategy=Strategy.GREYBOX, budget=60, rng_seed=0)
    calls = _keccak_calls(
        lambda: [harness.run_campaign(t, config) for t in targets])
    if calls:
        raise WorkloadError(f"micro-corpus campaigns hashed {calls} times")


def self_check(workload: str, contracts: list[Contract],
               bundle_root: Path) -> None:
    """Raise WorkloadError unless the workload has the shape it promises."""
    if workload == WIDE:
        _check_wide(contracts)
    elif workload == MAPPING:
        _check_mapping(contracts, bundle_root)
    else:
        _check_micro(bundle_root)
