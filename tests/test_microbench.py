"""Behavioral verification of the benchmark fixtures.

Every dirty fixture must produce exactly its planted classes under the
triggering conditions, and every fixed twin must stay finding-free under
all agent behaviors.
"""

from __future__ import annotations

import json

import pytest

from dogefuzz.abi import FunctionSpec, encode_call, parse_abi
from dogefuzz.evm import (
    AGENT_ADDRESS,
    DEPLOYER_ADDRESS,
    PolicyKind,
    Transaction,
    TxStatus,
    WorldState,
    deploy_contract,
    execute_transaction,
)
from dogefuzz.microbench import (
    GATED_GUARDS,
    Fixture,
    SINK_ADDRESS,
    all_fixtures,
    fixture,
    write_benchmark,
)
from dogefuzz.oracles import FineBugClass, detect_trace


ALL_POLICIES = tuple(PolicyKind)
EOA = b"\x5e" * 20


def deploy_fixture(fx: Fixture) -> tuple[WorldState, bytes]:
    state = WorldState()
    state.account(AGENT_ADDRESS).balance = 10 ** 18
    state.account(DEPLOYER_ADDRESS).balance = 10 ** 18
    address = deploy_contract(state, fx.runtime, endowment=fx.endowment)
    return state, address


def spec_of(fx: Fixture, name: str) -> FunctionSpec:
    for spec in parse_abi(list(fx.abi)):
        if spec.name == name:
            return spec
    raise KeyError(name)


def call(state: WorldState, address: bytes, fx: Fixture, name: str,
         args: list = (), value: int = 0,
         policy: PolicyKind = PolicyKind.BENIGN):
    calldata = encode_call(spec_of(fx, name), list(args))
    return execute_transaction(state, Transaction(
        target=address, calldata=calldata, value=value, agent_policy=policy))


def found(trace) -> set[FineBugClass]:
    return {f.fine for f in detect_trace(trace)}


# --- corpus shape ---------------------------------------------------------

def test_corpus_has_six_pairs_and_the_gated_fixture() -> None:
    fixtures = all_fixtures()
    names = [fx.name for fx in fixtures]
    assert len(names) == 13 and len(set(names)) == 13
    vulnerable = [fx for fx in fixtures if fx.labels]
    clean = [fx for fx in fixtures if not fx.labels]
    assert len(vulnerable) == 7 and len(clean) == 6
    covered = {label for fx in vulnerable for label in fx.labels}
    assert covered == set(FineBugClass)


def test_fixture_generation_is_deterministic() -> None:
    first = {fx.name: fx.runtime for fx in all_fixtures()}
    second = {fx.name: fx.runtime for fx in all_fixtures()}
    assert first == second


def test_fixture_lookup() -> None:
    assert fixture("gated_send").labels
    with pytest.raises(KeyError):
        fixture("missing")


# --- reentrancy pair ------------------------------------------------------

def test_reentrancy_vulnerable_drains_under_reentrant_agent() -> None:
    fx = fixture("reentrancy_vulnerable")
    state, address = deploy_fixture(fx)
    assert call(state, address, fx, "deposit", value=100).status is TxStatus.SUCCESS
    trace = call(state, address, fx, "withdraw",
                 policy=PolicyKind.REENTRANT)
    assert trace.status is TxStatus.SUCCESS
    assert found(trace) == {FineBugClass.REENTRANCY}
    # double payout happened
    assert state.balance_of(AGENT_ADDRESS) == 10 ** 18 + 100


def test_reentrancy_vulnerable_quiet_under_benign_agent() -> None:
    fx = fixture("reentrancy_vulnerable")
    state, address = deploy_fixture(fx)
    call(state, address, fx, "deposit", value=100)
    assert found(call(state, address, fx, "withdraw")) == set()


def test_reentrancy_fixed_is_clean_and_pays_once() -> None:
    fx = fixture("reentrancy_fixed")
    for policy in ALL_POLICIES:
        state, address = deploy_fixture(fx)
        call(state, address, fx, "deposit", value=100)
        trace = call(state, address, fx, "withdraw", policy=policy)
        assert found(trace) == set(), policy
    # under the re-entrant agent the second entry sees a zeroed balance
    state, address = deploy_fixture(fx)
    call(state, address, fx, "deposit", value=100)
    trace = call(state, address, fx, "withdraw",
                 policy=PolicyKind.REENTRANT)
    assert trace.status is TxStatus.SUCCESS
    assert state.balance_of(AGENT_ADDRESS) == 10 ** 18


# --- delegate pair --------------------------------------------------------

def test_delegate_vulnerable_flags_caller_chosen_target() -> None:
    fx = fixture("delegate_vulnerable")
    state, address = deploy_fixture(fx)
    trace = call(state, address, fx, "forward", [EOA])
    assert trace.status is TxStatus.SUCCESS
    assert found(trace) == {FineBugClass.DANGEROUS_DELEGATE_CALL}


def test_delegate_vulnerable_self_target_adds_nothing() -> None:
    fx = fixture("delegate_vulnerable")
    state, address = deploy_fixture(fx)
    trace = call(state, address, fx, "forward", [address])
    assert trace.status is TxStatus.SUCCESS
    assert found(trace) == {FineBugClass.DANGEROUS_DELEGATE_CALL}


def test_delegate_fixed_is_clean() -> None:
    fx = fixture("delegate_fixed")
    for policy in ALL_POLICIES:
        state, address = deploy_fixture(fx)
        trace = call(state, address, fx, "forward", [EOA], policy=policy)
        assert trace.status is TxStatus.SUCCESS
        assert found(trace) == set()


# --- gasless send pair ----------------------------------------------------

def test_gasless_vulnerable_flags_both_send_classes() -> None:
    fx = fixture("gasless_vulnerable")
    for policy in (PolicyKind.BENIGN,
                   PolicyKind.REENTRANT):
        state, address = deploy_fixture(fx)
        trace = call(state, address, fx, "pay", policy=policy)
        assert trace.status is TxStatus.SUCCESS
        assert found(trace) == {FineBugClass.GASLESS_SEND,
                                FineBugClass.EXCEPTION_DISORDER}
        # the failed send rolled back: nothing actually left the contract
        assert state.balance_of(address) == fx.endowment


def test_gasless_fixed_is_clean_under_all_policies() -> None:
    fx = fixture("gasless_fixed")
    for policy in ALL_POLICIES:
        state, address = deploy_fixture(fx)
        trace = call(state, address, fx, "pay", policy=policy)
        assert found(trace) == set(), policy
        if policy is PolicyKind.THROWER:
            assert trace.status is TxStatus.REVERTED
        else:
            assert trace.status is TxStatus.SUCCESS
            assert state.balance_of(AGENT_ADDRESS) == 10 ** 18 + 1


# --- swallowed exception pair ---------------------------------------------

def test_disorder_vulnerable_fires_under_any_policy() -> None:
    fx = fixture("disorder_vulnerable")
    for policy in ALL_POLICIES:
        state, address = deploy_fixture(fx)
        trace = call(state, address, fx, "relay", policy=policy)
        assert trace.status is TxStatus.SUCCESS
        assert found(trace) == {FineBugClass.EXCEPTION_DISORDER}, policy


def test_disorder_fixed_relays_cleanly() -> None:
    fx = fixture("disorder_fixed")
    for policy in ALL_POLICIES:
        state, address = deploy_fixture(fx)
        trace = call(state, address, fx, "relay", policy=policy)
        assert trace.status is TxStatus.SUCCESS
        assert found(trace) == set()
        assert found(call(state, address, fx, "ping", policy=policy)) == set()


def test_disorder_fallback_reverts_without_findings() -> None:
    fx = fixture("disorder_vulnerable")
    state, address = deploy_fixture(fx)
    trace = execute_transaction(state, Transaction(target=address))
    assert trace.status is TxStatus.REVERTED
    assert found(trace) == set()


# --- block dependency pairs -----------------------------------------------

@pytest.mark.parametrize("kind,fine", [
    ("timestamp", FineBugClass.TIMESTAMP_DEPENDENCY),
    ("number", FineBugClass.NUMBER_DEPENDENCY),
])
def test_block_dependent_payout_flags_only_its_class(kind, fine) -> None:
    fx = fixture(f"{kind}_vulnerable")
    state, address = deploy_fixture(fx)
    trace = call(state, address, fx, "win")
    assert trace.status is TxStatus.SUCCESS
    # default block context has even parity, so the payout branch runs
    assert found(trace) == {fine}
    assert state.balance_of(SINK_ADDRESS) == 1


@pytest.mark.parametrize("kind", ["timestamp", "number"])
def test_block_dependent_fixed_twin_is_clean(kind) -> None:
    fx = fixture(f"{kind}_fixed")
    for policy in ALL_POLICIES:
        state, address = deploy_fixture(fx)
        trace = call(state, address, fx, "win", policy=policy)
        assert trace.status is TxStatus.SUCCESS
        assert found(trace) == set()
        assert state.balance_of(SINK_ADDRESS) == 1


# --- staged guards --------------------------------------------------------

def test_gated_send_fires_only_with_all_guards() -> None:
    fx = fixture("gated_send")
    k1, k2, k3 = GATED_GUARDS
    state, address = deploy_fixture(fx)
    full = call(state, address, fx, "hunt", [k1, k2, k3])
    assert full.status is TxStatus.SUCCESS
    assert found(full) == {FineBugClass.GASLESS_SEND,
                           FineBugClass.EXCEPTION_DISORDER}
    for partial in ([0, 0, 0], [k1, 0, 0], [k1, k2, 0], [0, k2, k3]):
        trace = call(state, address, fx, "hunt", partial)
        assert trace.status is TxStatus.SUCCESS
        assert found(trace) == set(), partial


def test_gated_send_coverage_grows_per_stage() -> None:
    fx = fixture("gated_send")
    state, address = deploy_fixture(fx)
    k1, k2, k3 = GATED_GUARDS
    sizes = []
    for args in ([0, 0, 0], [k1, 0, 0], [k1, k2, 0], [k1, k2, k3]):
        trace = call(state, address, fx, "hunt", args)
        sizes.append(len(trace.executed_pcs[address]))
    assert sizes == sorted(sizes)
    assert len(set(sizes)) == 4
    # each stage unlocks more new code than everything before it combined
    gains = [b - a for a, b in zip(sizes, sizes[1:])]
    assert gains[1] > sizes[1] - gains[1] or gains[1] > gains[0]
    assert gains[2] > gains[1]


# --- bundle output --------------------------------------------------------

def test_write_benchmark_layout(tmp_path) -> None:
    root = write_benchmark(tmp_path / "bench")
    names = sorted(p.name for p in root.iterdir() if p.is_dir())
    assert names == sorted(fx.name for fx in all_fixtures())
    for name in names:
        directory = root / name
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["name"] == name
        assert manifest["mode"] == "runtime"
        assert manifest["constructor_args"] == ""
        assert manifest["initial_balance"] > 0
        code = bytes.fromhex((directory / "code.hex").read_text().strip())
        assert code == fixture(name).runtime
        abi = json.loads((directory / "abi.json").read_text())
        assert parse_abi(abi), "interface parses and has functions"
        label_file = directory / "labels.json"
        if fixture(name).labels:
            labels = json.loads(label_file.read_text())
            assert set(labels) == {"bugs"}
            for label in labels["bugs"]:
                FineBugClass(label)  # raises on anything unknown
        else:
            assert not label_file.exists(), "clean contracts carry no labels"
