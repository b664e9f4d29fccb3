"""Seed handling, scheduling, and end-to-end campaign behavior."""

from __future__ import annotations

import math
import random

import pytest

from dogefuzz import fuzzer
from dogefuzz.abi import encode_call, parse_abi, selector
from dogefuzz.asm import Assembler
from dogefuzz.cfg import (
    augment_edges,
    build_cfg,
    critical_sites,
    distance_map,
    predecessor_map,
)
from dogefuzz.evm import (
    AGENT_ADDRESS,
    CODE,
    DEPLOYER_ADDRESS,
    NONCE,
    BlockContext,
    PolicyKind,
    Transaction,
    WorldState,
    deploy_contract,
    execute_transaction,
    snapshot_state,
)
from dogefuzz.fuzzer import (
    DIRECTED_BONUS_WEIGHT,
    OUTCOME_CACHE_SIZE,
    SEEDS_PER_FUNCTION,
    CampaignConfig,
    FuzzTarget,
    Seed,
    Strategy,
    generate_seed,
    initial_corpus,
    mutate_seed,
    run_campaign,
    select_seed,
)
from dogefuzz.microbench import Fixture, GATED_GUARDS, all_fixtures, fixture
from dogefuzz.oracles import FineBugClass, detect_trace

from evm_utils import block_runs, merge_runs, transitions


EOA = b"\x5e" * 20


def make_target(fx: Fixture) -> FuzzTarget:
    state = WorldState()
    state.account(AGENT_ADDRESS).balance = 10 ** 18
    state.account(DEPLOYER_ADDRESS).balance = 10 ** 18
    address = deploy_contract(state, fx.runtime, endowment=fx.endowment)
    return FuzzTarget(
        name=fx.name,
        address=address,
        state=state,
        specs=tuple(parse_abi(list(fx.abi))),
        cfg=build_cfg(fx.runtime),
        pools=(address, AGENT_ADDRESS, EOA, b"\x00" * 20),
    )


POOLS = (EOA, b"\x00" * 20)


def classes(result) -> set[FineBugClass]:
    return {row[1].fine for row in result.findings}


def _key(seed: Seed) -> tuple:
    """The transaction key a seed names: its calldata, value, policy and
    block."""
    return seed.calldata, seed.value, seed.policy, seed.block


def _generated(rng: random.Random, spec, ordinal: int = 0) -> Seed:
    """`generate_seed`'s input for `spec`, as a seed."""
    args, key = generate_seed(rng, spec, POOLS, ordinal)
    return Seed(spec, args, *key)


def _mutant(rng: random.Random, seed: Seed) -> Seed:
    """`mutate_seed`'s child of `seed`, as a seed."""
    args, key = mutate_seed(rng, seed, POOLS)
    return Seed(seed.spec, args, *key)


def _run(campaign, seed: Seed, persist: bool):
    """One step of `campaign` on `seed`, as the loop runs a queued seed:
    sets the seed's energy and returns the step's outcome."""
    seed.energy, outcome = campaign._execute(seed.spec, seed.args, _key(seed),
                                             persist)
    return outcome


# --- corpus ---------------------------------------------------------------

def test_initial_corpus_two_seeds_per_function() -> None:
    target = make_target(fixture("reentrancy_vulnerable"))
    seeds = initial_corpus(random.Random(0), target)
    assert [s.spec.name for s in seeds] == [
        "deposit", "deposit", "withdraw", "withdraw"]
    # the second payable seed carries a token value
    assert [s.value for s in seeds] == [0, 1, 0, 0]
    assert all(s.policy is PolicyKind.BENIGN for s in seeds)


def test_initial_corpus_skips_view_functions() -> None:
    abi = [
        {"type": "function", "name": "peek", "inputs": [],
         "stateMutability": "view"},
        {"type": "function", "name": "poke", "inputs": [],
         "stateMutability": "nonpayable"},
    ]
    fx = fixture("gasless_fixed")
    target = make_target(fx)
    target = FuzzTarget(name=fx.name, address=target.address,
                        state=target.state, specs=tuple(parse_abi(abi)),
                        cfg=target.cfg, pools=target.pools)
    seeds = initial_corpus(random.Random(0), target)
    assert {s.spec.name for s in seeds} == {"poke"}


def test_initial_corpus_requires_entry_points() -> None:
    fx = fixture("gasless_fixed")
    base = make_target(fx)
    target = FuzzTarget(name=fx.name, address=base.address, state=base.state,
                        specs=tuple(parse_abi(
                            [{"type": "function", "name": "peek",
                              "inputs": [], "stateMutability": "view"}])),
                        cfg=base.cfg, pools=base.pools)
    with pytest.raises(ValueError):
        initial_corpus(random.Random(0), target)


def test_fallback_seeds_use_raw_calldata() -> None:
    specs = parse_abi([{"type": "fallback", "stateMutability": "payable"}])
    first = _generated(random.Random(1), specs[0], ordinal=0)
    second = _generated(random.Random(1), specs[0], ordinal=1)
    assert first.calldata == b"" and first.value == 0
    assert len(second.calldata) == 8 and second.value == 1


# --- mutation -------------------------------------------------------------

RICH_ABI = [{
    "type": "function", "name": "rich", "stateMutability": "payable",
    "inputs": [
        {"type": "bytes"}, {"type": "string"}, {"type": "uint8[]"},
        {"type": "address[2]"},
        {"type": "tuple", "components": [{"type": "uint256"},
                                         {"type": "bool"}]},
    ],
}]


def _stale_check_specs():
    for fx in all_fixtures():
        yield from parse_abi(list(fx.abi))
    yield from parse_abi(RICH_ABI)
    yield from parse_abi([{"type": "fallback", "stateMutability": "payable"}])


def _one_byte_edit(parent: bytes, child: bytes) -> bool:
    if len(child) == len(parent) + 1:
        return child[:-1] == parent
    if len(child) == len(parent) - 1:
        return child == parent[:-1]
    return len(child) == len(parent) and \
        sum(a != b for a, b in zip(parent, child)) == 1


def test_mutant_calldata_is_never_stale() -> None:
    rng = random.Random(11)
    for spec in _stale_check_specs():
        changed = 0
        for ordinal in range(SEEDS_PER_FUNCTION):
            seed = _generated(rng, spec, ordinal)
            if not spec.is_fallback:
                assert seed.calldata == encode_call(spec, seed.args)
            for _ in range(40):
                child = _mutant(rng, seed)
                changed += child.calldata != seed.calldata
                if spec.is_fallback:
                    # the raw bytes are the calldata: when they change,
                    # nothing else does, and by one grown, dropped or
                    # flipped byte
                    assert child.args == ()
                    if child.calldata != seed.calldata:
                        assert (child.value, child.policy, child.block) == \
                            (seed.value, seed.policy, seed.block)
                        assert _one_byte_edit(seed.calldata, child.calldata)
                else:
                    assert child.calldata == encode_call(spec, child.args)
                seed = child
        # the walk re-encoded arguments (or edited raw bytes) along the way
        assert changed or not (spec.inputs or spec.is_fallback)


# calldata of 50 chained mutants of a payable fallback seed under
# random.Random(2024): one grown, two shrunk and two flipped bytes
FALLBACK_WALK = (["86dd57786e49842e"] * 7 + ["86dd57786e4984"] * 4
                 + ["86dd57786e2284"] * 8 + ["86dd57786e22"] * 14
                 + ["86dd57786e22f0"] * 15 + ["863857786e22f0"] * 2)


def test_fallback_raw_mutation_walk_is_pinned() -> None:
    spec = parse_abi([{"type": "fallback", "stateMutability": "payable"}])[0]
    rng = random.Random(2024)
    seed = _generated(rng, spec, ordinal=1)
    walk = []
    for _ in range(50):
        seed = _mutant(rng, seed)
        walk.append(seed.calldata.hex())
    assert walk == FALLBACK_WALK


def _withdraw_seed() -> Seed:
    target = make_target(fixture("reentrancy_vulnerable"))
    return initial_corpus(random.Random(0), target)[2]


def test_mutation_changes_one_dimension() -> None:
    rng = random.Random(7)
    seed = _withdraw_seed()
    for _ in range(60):
        child = _mutant(rng, seed)
        changed = [
            child.policy is not seed.policy,
            child.block != seed.block,
            child.value != seed.value,
            child.args != seed.args,
        ]
        assert sum(changed) == 1


def test_policy_mutation_walks_the_cycle() -> None:
    seed = _withdraw_seed()  # no args, not payable: policy or block only
    rng = random.Random(0)
    seen = set()
    current = seed
    for _ in range(50):
        child = _mutant(rng, current)
        if child.policy is not current.policy:
            seen.add((current.policy, child.policy))
            current = child
    assert (PolicyKind.BENIGN, PolicyKind.REENTRANT) in seen
    assert (PolicyKind.REENTRANT, PolicyKind.THROWER) in seen
    assert (PolicyKind.THROWER, PolicyKind.BENIGN) in seen


def test_block_mutation_uses_fixed_offsets() -> None:
    seed = _withdraw_seed()
    base = BlockContext()
    rng = random.Random(3)
    ts_deltas, num_deltas = set(), set()
    for _ in range(300):
        child = _mutant(rng, seed)
        if child.block != seed.block:
            ts_deltas.add(child.block.timestamp - base.timestamp)
            num_deltas.add(child.block.number - base.number)
    assert ts_deltas <= {-86_400, -3_600, -1, 0, 1, 3_600, 86_400}
    assert num_deltas <= {-256, -1, 0, 1, 256}
    assert len(ts_deltas) > 3 and len(num_deltas) > 2


def test_a_mutated_block_is_keyed_as_a_called_block_context() -> None:
    """A block mutation builds its `BlockContext` without calling the
    NamedTuple, yet the result is one, equal to and hashed as the one the
    call builds, so cache keys built either way match; a block never goes
    below zero."""
    seed = _withdraw_seed()
    seed.block = BlockContext(number=100, timestamp=10)
    rng = random.Random(3)
    clamped = mutated = 0
    for _ in range(300):
        _, key = mutate_seed(rng, seed, POOLS)
        block = key[3]
        if block == seed.block:
            continue
        mutated += 1
        called = BlockContext(block.number, block.timestamp)
        assert type(block) is BlockContext
        assert block == called and hash(block) == hash(called)
        assert (*key[:3], called) in {key: None}
        assert block.number >= 0 and block.timestamp >= 0
        clamped += 0 in block
    assert mutated > 100 and clamped > 0


def test_mutation_is_deterministic_per_rng_seed() -> None:
    seed = _withdraw_seed()
    a = [_mutant(random.Random(5), seed) for _ in range(3)]
    b = [_mutant(random.Random(5), seed) for _ in range(3)]
    assert a == b


# --- scoring and selection ------------------------------------------------

def test_selection_is_energy_proportional() -> None:
    spec = parse_abi([{"type": "fallback"}])[0]
    weak = Seed(spec=spec)
    strong = Seed(spec=spec)
    strong.energy = 100.0
    rng = random.Random(11)
    total = weak.energy + strong.energy
    picks = [select_seed(rng, [weak, strong], total) for _ in range(300)]
    ratio = sum(1 for p in picks if p is strong) / len(picks)
    assert ratio > 0.9


def test_selection_covers_low_energy_seeds_eventually() -> None:
    spec = parse_abi([{"type": "fallback"}])[0]
    seeds = [Seed(spec=spec) for _ in range(3)]
    rng = random.Random(2)
    picked = {id(select_seed(rng, seeds, 3.0))
              for _ in range(100)}
    assert len(picked) == 3


# --- campaigns ------------------------------------------------------------

def test_campaign_is_deterministic() -> None:
    target = make_target(fixture("gated_send"))
    config = CampaignConfig(strategy=Strategy.DIRECTED, budget=300, rng_seed=9)
    first = run_campaign(target, config)
    second = run_campaign(target, config)
    assert first.findings == second.findings
    assert first.coverage_curve == second.coverage_curve
    assert first.executions == second.executions == 300
    assert first.admitted_seeds == second.admitted_seeds


def test_campaign_budget_and_sampling_grid() -> None:
    target = make_target(fixture("timestamp_fixed"))
    config = CampaignConfig(strategy=Strategy.GREYBOX, budget=130, rng_seed=1)
    result = run_campaign(target, config)
    assert result.executions == 130
    assert [tick for tick, _ in result.coverage_curve] == [50, 100, 130]
    assert len(result.coverage_curve) == math.ceil(130 / 50)
    fractions = [cov for _, cov in result.coverage_curve]
    assert all(0.0 <= f <= 1.0 for f in fractions)
    assert fractions == sorted(fractions), "coverage never regresses"
    assert result.final_coverage == fractions[-1]


def test_stop_classes_ends_campaign_early() -> None:
    target = make_target(fixture("gasless_vulnerable"))
    config = CampaignConfig(
        strategy=Strategy.GREYBOX, budget=500, rng_seed=0,
        stop_classes=frozenset({FineBugClass.GASLESS_SEND}))
    result = run_campaign(target, config)
    assert FineBugClass.GASLESS_SEND in classes(result)
    assert result.executions < 500


def test_time_budget_smoke() -> None:
    target = make_target(fixture("number_fixed"))
    config = CampaignConfig(strategy=Strategy.BLACKBOX, budget=None,
                            seconds=0.2, rng_seed=4)
    result = run_campaign(target, config)
    assert result.executions > 0
    assert result.elapsed >= 0.2
    assert result.coverage_curve, "per-second samples recorded"


def test_config_requires_some_budget() -> None:
    target = make_target(fixture("number_fixed"))
    with pytest.raises(ValueError):
        run_campaign(target, CampaignConfig(budget=None, seconds=None))


@pytest.mark.parametrize("strategy,name", [
    (Strategy.GREYBOX, "gated_send"),
    # two findings first hit in one run, which builds one reproducer
    (Strategy.BLACKBOX, "gasless_vulnerable"),
])
def test_only_queued_inputs_and_reproducers_build_seeds(monkeypatch,
                                                        strategy,
                                                        name) -> None:
    """A campaign builds a `Seed` for each initial-corpus input, each
    admitted child and each run that first hit a finding, the findings'
    reproducer; no other lane, and so no replay, builds one."""
    built = []

    class Counted(Seed):
        __slots__ = ()

        def __init__(self, *args, **kwargs) -> None:
            built.append(None)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(fuzzer, "Seed", Counted)
    target = make_target(fixture(name))
    result = run_campaign(target, CampaignConfig(strategy=strategy,
                                                 budget=1000, rng_seed=1))
    corpus = len(target.eligible_specs()) * SEEDS_PER_FUNCTION
    first_hit_runs = len({tick for tick, _, _ in result.findings})
    assert len(built) == corpus + result.admitted_seeds + first_hit_runs
    assert all(type(row[2]) is Counted for row in result.findings)
    assert first_hit_runs and result.replayed > 0
    if strategy is Strategy.BLACKBOX:
        assert result.admitted_seeds == 0
        assert len(result.findings) > first_hit_runs
    else:
        assert result.admitted_seeds > 0


def test_greybox_admits_strictly_improving_children() -> None:
    target = make_target(fixture("gated_send"))
    config = CampaignConfig(strategy=Strategy.GREYBOX, budget=400, rng_seed=3)
    result = run_campaign(target, config)
    assert result.admitted_seeds > 0


@pytest.mark.parametrize("name,expected", [
    ("delegate_vulnerable", {FineBugClass.DANGEROUS_DELEGATE_CALL}),
    ("gasless_vulnerable", {FineBugClass.GASLESS_SEND,
                            FineBugClass.EXCEPTION_DISORDER}),
    ("disorder_vulnerable", {FineBugClass.EXCEPTION_DISORDER}),
    ("timestamp_vulnerable", {FineBugClass.TIMESTAMP_DEPENDENCY}),
    ("number_vulnerable", {FineBugClass.NUMBER_DEPENDENCY}),
])
def test_campaign_finds_planted_bug_classes(name, expected) -> None:
    target = make_target(fixture(name))
    config = CampaignConfig(strategy=Strategy.DIRECTED, budget=400, rng_seed=0)
    result = run_campaign(target, config)
    assert classes(result) == expected


def test_campaign_finds_stateful_reentrancy() -> None:
    target = make_target(fixture("reentrancy_vulnerable"))
    config = CampaignConfig(strategy=Strategy.DIRECTED, budget=1500, rng_seed=0)
    result = run_campaign(target, config)
    assert FineBugClass.REENTRANCY in classes(result)


@pytest.mark.parametrize("name", [fx.name for fx in all_fixtures()
                                  if not fx.labels])
def test_campaign_stays_silent_on_fixed_twins(name) -> None:
    target = make_target(fixture(name))
    config = CampaignConfig(strategy=Strategy.DIRECTED, budget=600, rng_seed=0)
    result = run_campaign(target, config)
    assert classes(result) == set()


def test_directed_outpaces_blackbox_on_gated_guards() -> None:
    target_fx = fixture("gated_send")

    def first_hit(strategy: Strategy, rng_seed: int) -> int:
        config = CampaignConfig(
            strategy=strategy, budget=4000, rng_seed=rng_seed,
            stop_classes=frozenset({FineBugClass.GASLESS_SEND}))
        result = run_campaign(make_target(target_fx), config)
        hits = [tick for tick, f, _ in result.findings
                if f.fine is FineBugClass.GASLESS_SEND]
        return hits[0] if hits else config.budget + 1

    directed = sorted(first_hit(Strategy.DIRECTED, s) for s in range(5))
    blind = sorted(first_hit(Strategy.BLACKBOX, s) for s in range(5))
    assert directed[len(directed) // 2] < blind[len(blind) // 2]


# --- incremental directed feedback ----------------------------------------

def _shared_return_target() -> FuzzTarget:
    """Four functions call one subroutine whose return JUMP is unresolved.

    Function i returns into a chain of i padding jumps, then a guard whose
    passing branch jumps, again through a label pushed on entry, to a
    stipend send.  Return edges are learned on each function's first call,
    the edges to the sends only once a guard passes.
    """
    names = [f"f{i}" for i in range(4)]
    a = Assembler()
    a.push(0).op("CALLDATALOAD").push(0xE0).op("SHR")
    for name in names:
        sel = int.from_bytes(selector(f"{name}(uint256)"), "big")
        a.op("DUP1").push(sel, width=4).op("EQ").push_label(name).op("JUMPI")
    a.op("STOP")
    a.dest("sub").op("CALLER", "POP", "JUMP")  # returns to a pushed label
    for i, name in enumerate(names):
        a.dest(name).push_label(f"send{i}").push_label(f"ret{i}")
        a.push_label("sub").op("JUMP")
        a.dest(f"ret{i}")
        for k in range(i):
            a.push_label(f"pad{i}.{k}").op("JUMP").dest(f"pad{i}.{k}")
        a.push(4).op("CALLDATALOAD").push(1 << 128).op("GT")
        a.push_label(f"guard{i}").op("JUMPI", "STOP")
        a.dest(f"guard{i}").op("JUMP")
        a.dest(f"send{i}")
        a.push(0).push(0).push(0).push(0).push(1).op("CALLER").push(0)
        a.op("CALL", "POP", "STOP")
    runtime = a.assemble()
    abi = [{"type": "function", "name": name,
            "inputs": [{"name": "x", "type": "uint256"}], "outputs": [],
            "stateMutability": "nonpayable"} for name in names]
    state = WorldState()
    state.account(AGENT_ADDRESS).balance = 10 ** 18
    state.account(DEPLOYER_ADDRESS).balance = 10 ** 18
    address = deploy_contract(state, runtime, endowment=10 ** 6)
    return FuzzTarget(name="shared_return", address=address, state=state,
                      specs=tuple(parse_abi(abi)), cfg=build_cfg(runtime),
                      pools=POOLS)


def test_incremental_distances_match_full_recomputation(monkeypatch) -> None:
    target = _shared_return_target()
    assert target.cfg.unresolved
    # the latest trace of each transaction: a step replayed from the
    # outcome cache has that trace's block runs, since a kept state change
    # drops every outcome it could alter
    traces = {}
    real_execute = fuzzer.execute_transaction

    def execute(state, tx, persist=True):
        trace = real_execute(state, tx, persist=persist)
        traces[tx.calldata, tx.value, tx.agent_policy, tx.block] = trace
        return trace

    steps = []
    real_step = fuzzer._Campaign._execute

    def step(campaign, spec, args, key, persist):
        energy, outcome = real_step(campaign, spec, args, key, persist)
        trace = traces[key]
        # the outcome's merged record: the loop's runs and the chain exits'
        runs = merge_runs(outcome[0], outcome[6])
        assert runs == block_runs(trace).get(campaign.runs_key, {})
        reached = [campaign.hops[s] for s in runs if s in campaign.hops]
        d_min = min(reached) if reached else None
        # the graph the campaign's learned edges refine, rebuilt from the
        # transitions it has seen
        cfg = augment_edges(target.cfg, campaign.coverage.transitions)
        steps.append((campaign, d_min, cfg, trace))
        return energy, outcome

    monkeypatch.setattr(fuzzer, "execute_transaction", execute)
    monkeypatch.setattr(fuzzer._Campaign, "_execute", step)
    run_campaign(target, CampaignConfig(strategy=Strategy.DIRECTED,
                                        budget=150, rng_seed=1))
    assert len(steps) == 150

    # the old algorithm: a full distance map per refinement, then a
    # minimum over the blocks of every executed pc
    sites = critical_sites(target.cfg)
    full_maps: dict[frozenset, dict[int, int]] = {}
    for _, d_min, cfg, trace in steps:
        if cfg.learned_edges not in full_maps:
            full_maps[cfg.learned_edges] = distance_map(cfg, sites)
        distances = full_maps[cfg.learned_edges]
        starts = {cfg.block_at(pc).start
                  for pc in trace.executed_pcs.get(target.address, ())}
        reached = [distances[start] for start in starts if start in distances]
        assert d_min == (min(reached) if reached else None)
    learned = [cfg.learned_edges for _, _, cfg, _ in steps]
    refined_at = [i for i in range(1, len(steps))
                  if learned[i] != learned[i - 1]]
    assert len(refined_at) >= 4 and refined_at[-1] >= 8, \
        "edges were learned in the initial corpus and after it"
    assert len({d_min for _, d_min, _, _ in steps}) > 2

    campaign, _, final_cfg, _ = steps[-1]
    assert campaign.hops == distance_map(final_cfg, sites)
    # the campaign's one record of its learned edges
    assert campaign.learned_predecessors == \
        predecessor_map(final_cfg.learned_edges)
    assert campaign.replayed > 0, "some steps were replayed from the cache"


def test_directed_offers_augment_edges_only_fresh_transitions(
        monkeypatch) -> None:
    # a replay, or a run that took no new transition, cannot learn an edge
    offered = []
    real_augment = fuzzer.augment_edges

    def augment(cfg, observed):
        offered.append(len(observed))
        return real_augment(cfg, observed)

    monkeypatch.setattr(fuzzer, "augment_edges", augment)
    result = run_campaign(_shared_return_target(), CampaignConfig(
        strategy=Strategy.DIRECTED, budget=150, rng_seed=1))
    assert result.replayed > 0
    assert offered and 0 not in offered
    assert len(offered) < result.executions


def test_only_a_lowered_count_empties_the_outcome_cache(monkeypatch) -> None:
    # seed 1 refines the graph five times, and two of those refinements
    # lower no count: the outcomes cached before them stay, while each of
    # the other three empties the cache, which then holds at most the
    # outcome of the step that lowered
    lowered = []
    real_relax = fuzzer.relax_distances

    def relax(*args):
        lowered.append(real_relax(*args))
        return lowered[-1]

    emptied, kept = [], []  # outcomes cached before each such step
    real_step = fuzzer._Campaign._execute

    def step(campaign, spec, args, key, persist):
        relaxed = len(lowered)
        cached = set(campaign.outcomes)
        energy, outcome = real_step(campaign, spec, args, key, persist)
        if any(lowered[relaxed:]):
            assert set(campaign.outcomes) <= {key}
            emptied.append(len(cached - {key}))
        elif lowered[relaxed:]:
            assert not persist and len(cached) < OUTCOME_CACHE_SIZE
            assert cached <= set(campaign.outcomes)
            kept.append(len(cached))
        return energy, outcome

    monkeypatch.setattr(fuzzer, "relax_distances", relax)
    monkeypatch.setattr(fuzzer._Campaign, "_execute", step)
    run_campaign(_shared_return_target(), CampaignConfig(
        strategy=Strategy.DIRECTED, budget=150, rng_seed=1))
    assert len(lowered) == 5 and lowered.count(False) == 2
    assert len(emptied) == 3 and max(emptied) > 0
    assert len(kept) == 2 and max(kept) > 0


def test_a_key_cached_before_a_lowered_count_runs_again(monkeypatch) -> None:
    """Every step's energy is its new edges plus its blocks' bonus over the
    hop counts at that step, also after learned edges lowered them; a
    replay records no finding and adds no edge.  A lowered count empties
    the outcome cache, so no replay follows a lowering of its counts, and
    the key runs again instead.  At seed 1 the one refinement after the
    initial corpus lowers counts only on blocks that no later step runs
    again; seed 3 runs again keys whose counts it lowered."""
    ran = []
    real_execute = fuzzer.execute_transaction

    def execute(state, tx, persist=True):
        ran.append(tx)
        return real_execute(state, tx, persist=persist)

    added = []          # the new edges of each coverage fold
    real_add = fuzzer.BlockCoverage.add

    def add(coverage, *args):
        result = real_add(coverage, *args)
        added.append(result[0])
        return result

    derived = {}        # transaction -> the counts over its blocks at its run
    rerun = hits = 0    # runs after a lowered count; steps adding a hit
    real_step = fuzzer._Campaign._execute

    def step(campaign, spec, args, key, persist):
        nonlocal rerun, hits
        runs_before, hits_before = len(ran), dict(campaign.first_hits)
        folds_before = len(added)
        energy, outcome = real_step(campaign, spec, args, key, persist)
        counts = {start: campaign.hops.get(start, math.inf)
                  for start in merge_runs(outcome[0], outcome[6])}
        d_min = min(counts.values(), default=math.inf)
        bonus = 0.0 if d_min == math.inf else \
            DIRECTED_BONUS_WEIGHT / (1.0 + d_min)
        if len(ran) > runs_before:
            (new_edges,) = added[folds_before:]
            assert energy == 1.0 + new_edges + bonus
            if key in derived:
                rerun += any(counts[start] < derived[key][start]
                             for start in counts)
            derived[key] = counts
            hits += campaign.first_hits != hits_before
            return energy, outcome
        assert len(added) == folds_before
        assert campaign.first_hits == hits_before
        assert counts == derived[key]
        assert energy == 1.0 + bonus
        return energy, outcome

    monkeypatch.setattr(fuzzer, "execute_transaction", execute)
    monkeypatch.setattr(fuzzer.BlockCoverage, "add", add)
    monkeypatch.setattr(fuzzer._Campaign, "_execute", step)
    for rng_seed in (1, 3):
        ran.clear()
        derived.clear()
        result = run_campaign(_shared_return_target(), CampaignConfig(
            strategy=Strategy.DIRECTED, budget=150, rng_seed=rng_seed))
        assert result.replayed == 150 - len(ran) > 0
    assert rerun >= 1, "some key ran again after a lowered count on its blocks"
    assert hits >= 1, "some interpreter run added a first hit"


# --- outcome cache --------------------------------------------------------

def _probe_target() -> FuzzTarget:
    """Every kind of world-state read and write, on a contract holding 300
    wei: `load(s)` branches on slot `s % 4` and `store(s, v)` writes `v`
    there; `pay(a)` sends `a % 512` wei to its caller; `check()` branches
    on the contract's balance and `deposit()` takes value; `spawn()`
    creates an empty contract and `kill()` self-destructs once the balance
    is below 100."""
    signatures = ("load(uint256)", "store(uint256,uint256)", "pay(uint256)",
                  "check()", "deposit()", "spawn()", "kill()")
    a = Assembler()
    a.push(0).op("CALLDATALOAD").push(0xE0).op("SHR")
    for signature in signatures:
        sel = int.from_bytes(selector(signature), "big")
        a.op("DUP1").push(sel, width=4).op("EQ")
        a.push_label(signature.split("(")[0]).op("JUMPI")
    a.op("STOP")
    a.dest("load").push(3).push(4).op("CALLDATALOAD", "AND", "SLOAD")
    a.push_label("set").op("JUMPI", "STOP")
    a.dest("set").op("STOP")
    a.dest("store").push(36).op("CALLDATALOAD")
    a.push(3).push(4).op("CALLDATALOAD", "AND", "SSTORE", "STOP")
    a.dest("pay").push(0).push(0).push(0).push(0)
    a.push(0x1FF).push(4).op("CALLDATALOAD", "AND")
    a.op("CALLER", "GAS", "CALL", "POP", "STOP")
    a.dest("check").push(200).op("ADDRESS", "BALANCE", "LT")
    a.push_label("poor").op("JUMPI", "STOP")
    a.dest("poor").op("STOP")
    a.dest("deposit").op("STOP")
    a.dest("spawn").push(0).push(0).push(0).op("CREATE", "POP", "STOP")
    a.dest("kill").push(100).op("ADDRESS", "BALANCE", "LT")
    a.push_label("die").op("JUMPI", "STOP")
    a.dest("die").op("CALLER", "SELFDESTRUCT")
    runtime = a.assemble()
    abi = [{"type": "function", "name": signature.split("(")[0],
            "inputs": [{"name": f"x{i}", "type": "uint256"}
                       for i in range(signature.count("uint256"))],
            "outputs": [],
            "stateMutability": ("payable" if signature == "deposit()"
                                else "nonpayable")}
           for signature in signatures]
    state = WorldState()
    state.account(AGENT_ADDRESS).balance = 10 ** 18
    state.account(DEPLOYER_ADDRESS).balance = 10 ** 18
    address = deploy_contract(state, runtime, endowment=300)
    return FuzzTarget(name="probe", address=address, state=state,
                      specs=tuple(parse_abi(abi)), cfg=build_cfg(runtime),
                      pools=POOLS)


@pytest.mark.parametrize("strategy", list(Strategy))
def test_replayed_outcomes_match_fresh_executions(monkeypatch,
                                                  strategy) -> None:
    """Every step, hit or miss, equals a fresh run on a copy of the base
    state it started from, and leaves the same base state behind; each
    seed's energy follows from the fresh run, and a campaign's findings
    are the earliest hit of each site."""
    real_step = fuzzer._Campaign._execute
    checked = []
    survivals = []      # outcomes left after each kept state change
    hits = []           # (tick, finding, input as a seed) of each finding
    reapplied = []      # kept lanes served from the cache that wrote

    def step(campaign, spec, args, key, persist):
        before = snapshot_state(campaign.base_state)
        coverage = fuzzer.BlockCoverage()
        coverage.runs = dict(campaign.coverage.runs)
        coverage.transitions = set(campaign.coverage.transitions)
        replayed = campaign.replayed
        step_energy, outcome = real_step(campaign, spec, args, key, persist)
        findings, writes = outcome[1:3]
        replayed_runs = merge_runs(outcome[0], outcome[6])
        calldata, value, policy, block = key
        tx = Transaction(target=campaign.target.address,
                         calldata=calldata, value=value,
                         agent_policy=policy,
                         block=block)
        trace = execute_transaction(before, tx, persist=persist)
        runs = block_runs(trace).get(campaign.runs_key, {})
        assert list(replayed_runs.items()) == list(runs.items())
        assert findings == detect_trace(trace)
        hits.extend((campaign.executions, f,
                     Seed(spec, args, *key, step_energy)) for f in findings)
        # a SELFDESTRUCT clears slots its run never read, so only the net
        # changes of runs that wrote no code must repeat exactly
        if any(key == CODE for _, key in (*writes, *trace.writes)):
            assert bool(writes) is bool(trace.writes)
        else:
            assert writes == trace.writes
        energy = 1.0 + coverage.add(runs, transitions(trace, tx.target), ())[0]
        if strategy is Strategy.DIRECTED:
            reached = [campaign.hops[s] for s in runs if s in campaign.hops]
            if reached:
                energy += DIRECTED_BONUS_WEIGHT / (1.0 + min(reached))
        assert step_energy == energy
        assert campaign.base_state == before
        if persist and writes:
            survivals.append((campaign.target.name, len(campaign.outcomes)))
            if campaign.replayed > replayed:
                reapplied.append(campaign.target.name)
        checked.append(campaign)
        return step_energy, outcome

    probe = _probe_target()
    kept_writes = []    # of the probe's kept state changes
    real_execute = fuzzer.execute_transaction

    def execute(state, tx, persist=True):
        trace = real_execute(state, tx, persist=persist)
        if persist and trace.writes and tx.target == probe.address:
            kept_writes.append(trace.writes)
        return trace

    monkeypatch.setattr(fuzzer._Campaign, "_execute", step)
    monkeypatch.setattr(fuzzer, "execute_transaction", execute)
    executions = replayed = 0
    for target in [make_target(fx) for fx in all_fixtures()] + [probe]:
        for rng_seed in (0, 1):
            hits.clear()
            result = run_campaign(target, CampaignConfig(
                strategy=strategy, budget=3000, rng_seed=rng_seed))
            earliest = {}
            for tick, finding, seed in hits:
                site = (finding.fine, finding.pc)
                if site not in earliest or tick < earliest[site][0]:
                    earliest[site] = (tick, finding, seed)
            assert result.findings == sorted(
                earliest.values(),
                key=lambda row: (row[0], row[1].fine.value, row[1].pc))
            # a reproducer is the input of the finding's earliest hit
            assert all(row[2] == earliest[row[1].fine, row[1].pc][2]
                       for row in result.findings)
            executions += result.executions
            replayed += result.replayed
    assert len(checked) == executions
    assert 0 < replayed < executions
    assert reapplied, "some kept lane re-applied a cached outcome's writes"
    assert any(left for name, left in survivals if name == "probe"), \
        "some cached probe outcome outlived a kept state change"
    assert any((probe.address, CODE) in writes
               for writes in kept_writes), "the probe self-destructed"
    assert any((probe.address, NONCE) in writes
               for writes in kept_writes), "the probe created a contract"


def _cache_target() -> FuzzTarget:
    """`bump()` adds one to slot 0, `keep()` stores slot 0's own value
    back, `fail()` writes slot 1 and reverts."""
    names = ("bump", "keep", "fail")
    a = Assembler()
    a.push(0).op("CALLDATALOAD").push(0xE0).op("SHR")
    for name in names:
        sel = int.from_bytes(selector(f"{name}()"), "big")
        a.op("DUP1").push(sel, width=4).op("EQ").push_label(name).op("JUMPI")
    a.op("STOP")
    a.dest("bump").push(0).op("SLOAD").push(1).op("ADD").push(0)
    a.op("SSTORE", "STOP")
    a.dest("keep").push(0).op("SLOAD").push(0).op("SSTORE", "STOP")
    a.dest("fail").push(1).push(1).op("SSTORE").push(0).push(0).op("REVERT")
    runtime = a.assemble()
    abi = [{"type": "function", "name": name, "inputs": [], "outputs": [],
            "stateMutability": "nonpayable"} for name in names]
    state = WorldState()
    state.account(AGENT_ADDRESS).balance = 10 ** 18
    state.account(DEPLOYER_ADDRESS).balance = 10 ** 18
    address = deploy_contract(state, runtime)
    return FuzzTarget(name="cache", address=address, state=state,
                      specs=tuple(parse_abi(abi)), cfg=build_cfg(runtime),
                      pools=POOLS)


def _cache_campaign(monkeypatch, target: FuzzTarget | None = None):
    """A GreyBox campaign on `target` (by default `_cache_target`), its
    seeds by function name and arguments, and the list of interpreter runs
    it makes."""
    target = target or _cache_target()
    campaign = fuzzer._Campaign(target, CampaignConfig(budget=100))
    ran = []
    real_execute = fuzzer.execute_transaction

    def execute(state, tx, persist=True):
        ran.append(tx.calldata)
        return real_execute(state, tx, persist=persist)

    monkeypatch.setattr(fuzzer, "execute_transaction", execute)

    def seed(name: str, *args: int, block: BlockContext = BlockContext(),
             value: int = 0, policy: PolicyKind = PolicyKind.BENIGN) -> Seed:
        spec = next(s for s in target.specs if s.name == name)
        return Seed(spec=spec, args=args, calldata=encode_call(spec, args),
                    value=value, policy=policy, block=block)

    return campaign, seed, ran


def _counter(campaign) -> int:
    return campaign.base_state.account(campaign.target.address).storage.get(0, 0)


def test_outcome_cache_replays_a_repeat(monkeypatch) -> None:
    campaign, seed, ran = _cache_campaign(monkeypatch)
    keep = seed("keep")
    first = _run(campaign, keep, persist=False)
    assert keep.energy > 1.0
    again = seed("keep")
    assert _run(campaign, again, persist=False) is first
    assert again.energy == 1.0
    assert len(ran) == 1 and campaign.replayed == 1
    assert campaign.executions == 2


def test_persisted_counter_write_invalidates_the_cache(monkeypatch) -> None:
    campaign, seed, ran = _cache_campaign(monkeypatch)
    _run(campaign, seed("keep"), persist=False)
    writes = _run(campaign, seed("bump"), persist=False)[2]
    assert writes == {(campaign.target.address, 0): 1}
    assert len(campaign.outcomes) == 2 and _counter(campaign) == 0
    # a kept lane re-applies the cached `bump`, whose write drops both
    # outcomes, as a run of it would
    _run(campaign, seed("bump"), persist=True)
    assert _counter(campaign) == 1 and campaign.outcomes == {}
    assert len(ran) == 2 and campaign.replayed == 1
    # nothing is cached now, so the next kept `bump` runs
    _run(campaign, seed("bump"), persist=True)
    assert _counter(campaign) == 2 and campaign.outcomes == {}
    _run(campaign, seed("keep"), persist=False)
    assert len(ran) == 4 and campaign.replayed == 1


def test_persisted_success_without_writes_keeps_the_cache(monkeypatch) -> None:
    campaign, seed, ran = _cache_campaign(monkeypatch)
    _run(campaign, seed("bump"), persist=False)
    _run(campaign, seed("keep"), persist=True)
    assert len(campaign.outcomes) == 2
    _run(campaign, seed("keep"), persist=True)
    _run(campaign, seed("bump"), persist=False)
    assert len(ran) == 2 and campaign.replayed == 2
    assert _counter(campaign) == 0


def test_reverted_persisted_lane_keeps_the_cache(monkeypatch) -> None:
    campaign, seed, ran = _cache_campaign(monkeypatch)
    _run(campaign, seed("bump"), persist=False)
    writes = _run(campaign, seed("fail"), persist=True)[2]
    assert not writes
    assert len(campaign.outcomes) == 2
    _run(campaign, seed("fail"), persist=True)
    _run(campaign, seed("bump"), persist=False)
    assert len(ran) == 2 and campaign.replayed == 2
    assert campaign.base_state.account(campaign.target.address).storage == {}


def test_outcome_cache_is_bounded(monkeypatch) -> None:
    campaign, seed, ran = _cache_campaign(monkeypatch)
    sizes = []
    for timestamp in range(3 * OUTCOME_CACHE_SIZE):
        _run(campaign, seed("keep", block=BlockContext(timestamp=timestamp)),
             persist=False)
        sizes.append(len(campaign.outcomes))
    assert sizes == list(range(1, OUTCOME_CACHE_SIZE + 1)) * 3
    assert len(ran) == 3 * OUTCOME_CACHE_SIZE and campaign.replayed == 0


def _cached_calls(campaign) -> set[bytes]:
    return {calldata for calldata, _, _, _ in campaign.outcomes}


def test_kept_write_keeps_outcomes_that_never_read_it(monkeypatch) -> None:
    campaign, seed, ran = _cache_campaign(monkeypatch, _probe_target())
    _run(campaign, seed("load", 0), persist=False)
    _run(campaign, seed("load", 1), persist=False)
    _run(campaign, seed("store", 1, 5), persist=True)
    assert _cached_calls(campaign) == {seed("load", 0).calldata}
    _run(campaign, seed("load", 0), persist=False)
    assert len(ran) == 3 and campaign.replayed == 1


def test_kept_payout_drops_only_flipped_balance_tests(monkeypatch) -> None:
    campaign, seed, ran = _cache_campaign(monkeypatch, _probe_target())
    address = campaign.target.address
    for amount in (150, 250, 400):
        _run(campaign, seed("pay", amount), persist=False)
    _run(campaign, seed("pay", 100), persist=True)
    assert campaign.base_state.balance_of(address) == 200
    # 300 >= 150 and 200 >= 150; 300 < 400 and 200 < 400; 250 flips
    assert _cached_calls(campaign) == {seed("pay", 150).calldata,
                                       seed("pay", 400).calldata}
    # a deposit raises the balance past 400 and flips that test
    _run(campaign, seed("deposit", value=201), persist=True)
    assert _cached_calls(campaign) == {seed("pay", 150).calldata}
    _run(campaign, seed("pay", 150), persist=False)
    assert len(ran) == 5 and campaign.replayed == 1


def test_balance_tests_count_the_transactions_own_moves(monkeypatch) -> None:
    """A re-entered `pay(100)` pays twice: from 300 its second test needs
    200 to start with, not 100."""
    campaign, seed, _ = _cache_campaign(monkeypatch, _probe_target())
    twice = seed("pay", 100, policy=PolicyKind.REENTRANT)
    _run(campaign, twice, persist=False)
    _run(campaign, seed("pay", 50), persist=True)
    assert _cached_calls(campaign) == {twice.calldata}
    # 150 still covers one payout, but no longer the second
    _run(campaign, seed("pay", 100), persist=True)
    assert campaign.outcomes == {}


def test_balance_read_is_exact(monkeypatch) -> None:
    campaign, seed, _ = _cache_campaign(monkeypatch, _probe_target())
    _run(campaign, seed("check"), persist=False)
    _run(campaign, seed("load", 0), persist=False)
    # 300 -> 299 leaves `check` on the same branch, but it read the balance
    _run(campaign, seed("pay", 1), persist=True)
    assert _cached_calls(campaign) == {seed("load", 0).calldata}
    _run(campaign, seed("check"), persist=False)
    _run(campaign, seed("deposit", value=1), persist=True)
    assert _cached_calls(campaign) == {seed("load", 0).calldata}


def test_kept_create_or_selfdestruct_drops_what_read_them(monkeypatch) -> None:
    campaign, seed, _ = _cache_campaign(monkeypatch, _probe_target())
    _run(campaign, seed("load", 0), persist=False)
    _run(campaign, seed("store", 1, 5), persist=True)
    assert _cached_calls(campaign) == {seed("load", 0).calldata}
    # a CREATE writes the creator's nonce and the new account, neither
    # of which `load` reads
    _run(campaign, seed("spawn"), persist=True)
    assert _cached_calls(campaign) == {seed("load", 0).calldata}

    _run(campaign, seed("pay", 250), persist=True)
    _run(campaign, seed("load", 0), persist=False)
    assert _cached_calls(campaign) == {seed("load", 0).calldata}
    # a SELFDESTRUCT writes the target's code, which every run reads
    _run(campaign, seed("kill"), persist=True)
    assert campaign.outcomes == {}
    assert campaign.base_state.code_of(campaign.target.address) == b""


def test_kept_lane_adds_a_cached_payout_to_a_moved_balance(monkeypatch) -> None:
    """`pay(5)` tests only that the balance covers 5, so its outcome
    outlives a kept deposit of 1; a kept `pay(5)` then takes 5 from 301,
    as a run does, not back to the 295 its first run ended at."""
    campaign, seed, ran = _cache_campaign(monkeypatch, _probe_target())
    address = campaign.target.address
    _run(campaign, seed("pay", 5), persist=False)
    _run(campaign, seed("deposit", value=1), persist=True)
    assert campaign.base_state.balance_of(address) == 301
    assert _cached_calls(campaign) >= {seed("pay", 5).calldata}
    fresh = snapshot_state(campaign.base_state)
    execute_transaction(fresh, Transaction(target=address,
                                           calldata=seed("pay", 5).calldata))
    _run(campaign, seed("pay", 5), persist=True)
    assert campaign.base_state.balance_of(address) == 296
    assert campaign.base_state == fresh
    assert len(ran) == 2 and campaign.replayed == 1


@pytest.mark.parametrize("name", ["spawn", "kill"])
def test_kept_lane_runs_a_cached_outcome_that_wrote_code(monkeypatch,
                                                         name) -> None:
    """A CREATE installs code and a SELFDESTRUCT clears it, so a kept lane
    runs them again even when their outcome is cached."""
    campaign, seed, ran = _cache_campaign(monkeypatch, _probe_target())
    if name == "kill":  # below 100 wei, `kill` self-destructs
        _run(campaign, seed("pay", 250), persist=True)
    writes = _run(campaign, seed(name), persist=False)[2]
    assert (any(key == CODE for _, key in writes)
            and seed(name).calldata in _cached_calls(campaign))
    runs = len(ran)
    _run(campaign, seed(name), persist=True)
    assert len(ran) == runs + 1 and campaign.replayed == 0


def _gated_pay_target() -> FuzzTarget:
    """`gate()` sends its caller 150 wei when slot 0 is set, `set(v)`
    stores `v` in slot 0 and `pay(a)` sends its caller `a` wei, from a
    contract holding 300 wei."""
    signatures = ("gate()", "set(uint256)", "pay(uint256)")
    a = Assembler()
    a.push(0).op("CALLDATALOAD").push(0xE0).op("SHR")
    for signature in signatures:
        sel = int.from_bytes(selector(signature), "big")
        a.op("DUP1").push(sel, width=4).op("EQ")
        a.push_label(signature.split("(")[0]).op("JUMPI")
    a.op("STOP")
    a.dest("gate").push(0).op("SLOAD").push_label("send").op("JUMPI", "STOP")
    a.dest("send").push(0).push(0).push(0).push(0).push(150)
    a.op("CALLER", "GAS", "CALL", "POP", "STOP")
    a.dest("set").push(4).op("CALLDATALOAD").push(0).op("SSTORE", "STOP")
    a.dest("pay").push(0).push(0).push(0).push(0).push(4).op("CALLDATALOAD")
    a.op("CALLER", "GAS", "CALL", "POP", "STOP")
    runtime = a.assemble()
    abi = [{"type": "function", "name": signature.split("(")[0],
            "inputs": [{"name": "x", "type": "uint256"}
                       for _ in range(signature.count("uint256"))],
            "outputs": [], "stateMutability": "nonpayable"}
           for signature in signatures]
    state = WorldState()
    state.account(AGENT_ADDRESS).balance = 10 ** 18
    state.account(DEPLOYER_ADDRESS).balance = 10 ** 18
    address = deploy_contract(state, runtime, endowment=300)
    return FuzzTarget(name="gated-pay", address=address, state=state,
                      specs=tuple(parse_abi(abi)), cfg=build_cfg(runtime),
                      pools=POOLS)


def test_a_stale_index_entry_drops_nothing(monkeypatch) -> None:
    """`gate()` cached while slot 0 was set tested the balance, and a kept
    payout of 1 wei that left the test standing indexed it; dropped by a
    kept `set(0)` and cached again, it tests nothing, but the index still
    holds the first test.  A payout that flips that test keeps `gate()`,
    as a scan of the cache would."""
    campaign, seed, ran = _cache_campaign(monkeypatch, _gated_pay_target())
    gate = seed("gate").calldata
    _run(campaign, seed("set", 1), persist=True)
    assert _run(campaign, seed("gate"), persist=False)[4]
    _run(campaign, seed("pay", 1), persist=True)
    assert gate in _cached_calls(campaign)
    _run(campaign, seed("set", 0), persist=True)
    assert gate not in _cached_calls(campaign)
    assert not _run(campaign, seed("gate"), persist=False)[4]
    _run(campaign, seed("pay", 200), persist=True)
    assert campaign.base_state.balance_of(campaign.target.address) == 99
    assert gate in _cached_calls(campaign)
    _run(campaign, seed("gate"), persist=False)
    assert len(ran) == 6 and campaign.replayed == 1


def _scan_survivors(campaign, writes) -> list:
    """The cached keys a scan of every outcome keeps after the kept state
    change `writes`, in cache order: those that read none of it and whose
    balance tests all answer as they did."""
    balance_of = campaign.base_state.balance_of
    return [key for key, (_, _, _, reads, tests, _, _)
            in campaign.outcomes.items()
            if reads.isdisjoint(writes)
            and all((balance_of(address) >= need) is passed
                    for address, need, passed in tests)]


def _assert_index_covers(campaign) -> None:
    """Each cached outcome not waiting in `unindexed` is listed under every
    location it read and with every balance test it made, and the index
    names at most `2 * OUTCOME_CACHE_SIZE` keys no longer cached."""
    waiting = set(campaign.unindexed)
    for key, (_, _, _, reads, tests, _, _) in campaign.outcomes.items():
        if key not in waiting:
            assert all(key in campaign.readers[at] for at in reads)
            assert all((key, need, passed) in campaign.testers[at]
                       for at, need, passed in tests)
    named = {key for keys in campaign.readers.values() for key in keys}
    named |= {entry[0] for entries in campaign.testers.values()
              for entry in entries}
    assert len(named - campaign.outcomes.keys()) <= 2 * OUTCOME_CACHE_SIZE


@pytest.mark.parametrize("strategy", list(Strategy))
def test_invalidation_index_drops_what_a_scan_drops(monkeypatch,
                                                   strategy) -> None:
    """Over micro-corpus campaigns and the probe's, every kept state change
    leaves the cache holding the keys a scan of all outcomes keeps, in
    order, and the index covers the cache after it and at the end; the
    index is rebuilt along the way."""
    real = fuzzer._Campaign._invalidate
    changes = dropped = flipped = rebuilt = 0

    def checked(campaign, writes) -> None:
        nonlocal changes, dropped, flipped, rebuilt
        survivors = _scan_survivors(campaign, writes)
        rebuilt += campaign.dropped >= OUTCOME_CACHE_SIZE
        # dropped for a balance test alone
        flipped += sum(outcome[3].isdisjoint(writes) and key not in survivors
                       for key, outcome in campaign.outcomes.items())
        dropped += len(campaign.outcomes) - len(survivors)
        real(campaign, writes)
        assert list(campaign.outcomes) == survivors
        assert campaign.unindexed == []
        _assert_index_covers(campaign)
        changes += 1

    monkeypatch.setattr(fuzzer._Campaign, "_invalidate", checked)
    # the probe's payouts flip balance tests, which no fixture's do
    targets = [make_target(fx) for fx in all_fixtures()] + [_probe_target()]
    for target in targets:
        for rng_seed in (1000, 1001):
            campaign = fuzzer._Campaign(target, CampaignConfig(
                strategy=strategy, budget=2000, rng_seed=rng_seed))
            campaign.run()
            _assert_index_covers(campaign)
    assert changes > 1000 and dropped > 1000 and flipped > 0 and rebuilt > 0


def test_campaign_replays_some_steps() -> None:
    result = run_campaign(_cache_target(), CampaignConfig(budget=300,
                                                          rng_seed=2))
    assert result.executions == 300
    assert 0 < result.replayed < result.executions
