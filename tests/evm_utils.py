"""Shared helpers for interpreter tests: build code, deploy, run, observe."""

from __future__ import annotations

from dogefuzz import opcodes as op
from dogefuzz.cfg import analyze
from dogefuzz.evm import (
    AGENT_ADDRESS,
    DEPLOYER_ADDRESS,
    DEFAULT_TX_GAS,
    BlockContext,
    ExecutionTrace,
    PolicyKind,
    Transaction,
    WorldState,
    deploy_contract,
    execute_transaction,
)

MAX = (1 << 256) - 1


def code(*items: int | bytes) -> bytes:
    """Concatenate opcode bytes and raw byte strings into code."""
    out = bytearray()
    for item in items:
        if isinstance(item, bytes):
            out += item
        else:
            out.append(item)
    return bytes(out)


def P(value: int, width: int | None = None) -> bytes:
    """A PUSH instruction for `value`, minimal width unless forced."""
    if width is None:
        width = max(1, (value.bit_length() + 7) // 8)
    return bytes([op.PUSH1 + width - 1]) + value.to_bytes(width, "big")


# store the stack top at memory 0 and return it as one word
RETURN_TOP = code(P(0), op.MSTORE, P(32), P(0), op.RETURN)


def run(code_bytes: bytes, calldata: bytes = b"", value: int = 0,
        storage: dict[int, int] | None = None, endowment: int = 0,
        gas: int = DEFAULT_TX_GAS, policy: PolicyKind | None = None,
        block: BlockContext | None = None, persist: bool = True,
        ) -> tuple[ExecutionTrace, WorldState, bytes]:
    """Deploy `code_bytes` fresh and execute one transaction against it."""
    state = WorldState()
    state.account(AGENT_ADDRESS).balance = 10 ** 18
    state.account(DEPLOYER_ADDRESS).balance = 10 ** 18
    address = deploy_contract(state, code_bytes, "runtime", endowment=endowment)
    if storage:
        state.account(address).storage.update(storage)
    tx = Transaction(
        target=address,
        calldata=calldata,
        value=value,
        gas_limit=gas,
        agent_policy=policy or PolicyKind.BENIGN,
        block=block or BlockContext(),
    )
    return execute_transaction(state, tx, persist=persist), state, address


def run_top(code_bytes: bytes, **kwargs) -> int:
    """Run code that leaves its result on the stack; return that word."""
    trace, _, _ = run(code_bytes + RETURN_TOP, **kwargs)
    assert trace.status.value == "Success", trace.status
    return int.from_bytes(trace.return_data, "big")


def dynamic_edges(trace: ExecutionTrace, address: bytes) -> set[tuple[int, int]]:
    """Pairs of successive instructions run in the frames of `address`, the
    transaction's target: the pairs inside each covered block prefix plus,
    for each block edge taken, the pair of the block's last pc and the
    next block's start."""
    edges = set()
    for (code_address, code_bytes), runs in trace.block_runs.items():
        if code_address == address:
            blocks = analyze(code_bytes).blocks
            edges.update((blocks[src].pcs[-1], dst)
                         for src, dst in trace.transitions if src in runs)
            for start, ran in runs.items():
                pcs = blocks[start].pcs[:ran]
                edges.update(zip(pcs, pcs[1:]))
    return edges
