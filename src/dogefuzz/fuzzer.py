"""Mutation-based fuzzing campaigns over a deployed contract.

Three strategies share one loop.  BlackBox draws fresh random inputs every
cycle.  GreyBox keeps a seed queue, assigns each executed input an energy
of one plus the number of previously unseen edges it exercised, admits a
mutant only when its energy strictly exceeds its parent's, and picks
parents with probability proportional to energy.  DirectedGreyBox adds a
proximity bonus of ``10 / (1 + d)`` where ``d`` is the lowest hop count,
among the blocks the seed executed, to a money- or control-transferring
instruction.
Hop counts are kept per block start: computed once per campaign over the
static graph every campaign on the code shares, and lowered incrementally
as run-time jumps take edges that graph lacks.

An edge is a pair of successive instructions within a frame of the
target; `BlockCoverage` counts them from recorded block runs and edges.

Each cycle executes `MUTANTS_PER_CYCLE` mutants against the unchanged base
state plus one more whose effects are kept when it succeeds, so
storage-dependent bugs stay reachable without giving up reproducibility.

Many mutants repeat an earlier transaction: a policy mutation of a parent
always yields the same child, and value and block mutations draw from a
few choices.  The interpreter is deterministic, so a campaign keeps, per
transaction, the outcome a repeat needs: the target's block runs, the
findings and whether it changes state, with what the run read of the
world state.  A repeat is replayed from that outcome without running the
interpreter or the oracles; it adds no coverage, since its first run was
already folded in.  An outcome stays valid while the base state keeps
what it read, so a kept state change drops the outcomes that read what it
wrote, and those whose balance tests it flips; reaching
`OUTCOME_CACHE_SIZE` entries clears the cache.  A kept lane whose
outcome changes nothing is replayed too.

A seed carries the calldata it runs with.  It is encoded once when the
seed is generated; a mutant inherits its parent's bytes and is re-encoded
only when the mutation changed an argument, so mutants that vary the
value, the agent policy or the block cost no ABI work.
"""

from __future__ import annotations

import logging
import math
import random
import time
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

from .abi import (
    AbiType,
    FunctionSpec,
    TypeKind,
    encode_call,
    generate_value,
    mutate_value,
)
from .cfg import (
    Cfg,
    augment_edges,
    critical_sites,
    distance_map,
    relax_distances,
)
from .evm import (
    BlockContext,
    Location,
    PolicyKind,
    Transaction,
    WorldState,
    execute_transaction,
    snapshot_state,
)
from .oracles import BugFinding, FineBugClass, detect_trace

logger = logging.getLogger(__name__)

DIRECTED_BONUS_WEIGHT = 10.0
TIMESTAMP_OFFSETS = (-86_400, -3_600, -1, 1, 3_600, 86_400)
NUMBER_OFFSETS = (-256, -1, 1, 256)
SEEDS_PER_FUNCTION = 2
MUTANTS_PER_CYCLE = 8           # plus one mutant whose effects are kept
COVERAGE_SAMPLE_INTERVAL = 50   # executions between coverage samples
OUTCOME_CACHE_SIZE = 64         # outcomes kept before the cache is cleared

# what a repeat of a transaction needs: the target's block runs, the
# findings and whether the transaction changes state, then the trace's
# `reads` and `balance_tests` that say when the first three still hold; a
# plain tuple, as one is built for every execution that runs
_Outcome = tuple[dict[int, int], list[BugFinding], bool, set[Location],
                 list[tuple[bytes, int, bool]]]
# a seed's calldata, value, policy and block: with the campaign's fixed
# target they name the transaction
_TxKey = tuple[bytes, int, PolicyKind, BlockContext]

_POLICY_CYCLE = (PolicyKind.BENIGN, PolicyKind.REENTRANT, PolicyKind.THROWER)
# a fallback seed's raw calldata mutates as an ABI `bytes` value
_RAW_CALLDATA = AbiType(TypeKind.BYTES)


class Strategy(str, Enum):
    BLACKBOX = "BlackBox"
    GREYBOX = "GreyBox"
    DIRECTED = "DirectedGreyBox"


@dataclass(slots=True)
class Seed:
    """One input point: function, arguments, and transaction context.

    `calldata` is the transaction input the seed runs with: the selector
    plus the encoded `args`, or for a fallback seed the raw bytes sent
    instead of arguments.  `generate_seed` and `mutate_seed` keep it in
    step with `args`; a seed built by hand starts with empty calldata.
    `energy` is set once, when the seed runs; the seed that first hit a
    finding is that finding's reproducer.
    """

    spec: FunctionSpec
    args: tuple = ()
    calldata: bytes = b""
    value: int = 0
    policy: PolicyKind = PolicyKind.BENIGN
    block: BlockContext = BlockContext()
    energy: float = 1.0


@dataclass(frozen=True)
class FuzzTarget:
    """Everything a campaign needs about one deployed contract."""

    name: str
    address: bytes
    state: WorldState
    specs: tuple[FunctionSpec, ...]
    cfg: Cfg
    pools: tuple[bytes, ...]    # addresses generation and mutation favor

    def eligible_specs(self) -> tuple[FunctionSpec, ...]:
        return tuple(s for s in self.specs if not s.is_view)


@dataclass
class CampaignConfig:
    strategy: Strategy = Strategy.GREYBOX
    budget: int | None = 1000           # execution count
    seconds: float | None = None        # wall-clock alternative
    rng_seed: int = 0
    stop_classes: frozenset[FineBugClass] = frozenset()


@dataclass
class CampaignResult:
    strategy: Strategy
    executions: int
    # (first hit tick, finding, the seed that hit it), in (tick, class, pc)
    # order
    findings: list[tuple[int, BugFinding, Seed]]
    coverage_curve: list[tuple[int, float]]     # (tick, covered fraction)
    admitted_seeds: int
    final_coverage: float
    elapsed: float
    replayed: int                   # executions served from the cache


class BlockCoverage:
    """Coverage of one code: the longest run of each block and every
    block edge taken, with the count of covered pcs.

    A run of `r` instructions of a block whose first `h` were covered adds
    `r - h` pcs and `r - max(h, 1)` pairs inside the block; a transition
    not seen before adds one more edge.
    """

    __slots__ = ("runs", "transitions", "pcs")

    def __init__(self) -> None:
        self.runs: dict[int, int] = {}
        self.transitions: set[tuple[int, int]] = set()
        self.pcs = 0

    def add(self, runs: dict[int, int], transitions: set[tuple[int, int]],
            ) -> tuple[int, set[tuple[int, int]]]:
        """Fold in one trace's block runs and transitions of the code.

        Returns the number of edges not seen before and the transitions
        among them.
        """
        fresh = transitions - self.transitions
        self.transitions |= fresh
        new_edges = len(fresh)
        covered = self.runs
        if not runs.items() <= covered.items():
            for start, ran in runs.items():
                had = covered.get(start, 0)
                if ran > had:
                    covered[start] = ran
                    self.pcs += ran - had
                    new_edges += ran - (had or 1)
        return new_edges, fresh


# --- seed construction ----------------------------------------------------

def generate_seed(rng: random.Random, spec: FunctionSpec,
                  pools: tuple[bytes, ...], ordinal: int = 0) -> Seed:
    """Fresh input for `spec`; ordinal 1 favors a value-carrying variant."""
    if spec.is_fallback:
        raw = rng.randbytes(8) if ordinal else b""
        return Seed(spec=spec, calldata=raw,
                    value=ordinal if spec.is_payable else 0)
    args = tuple(generate_value(rng, t, pools) for t in spec.inputs)
    value = ordinal if spec.is_payable else 0
    return Seed(spec=spec, args=args, calldata=encode_call(spec, args),
                value=value)


def initial_corpus(rng: random.Random, target: FuzzTarget) -> list[Seed]:
    """Two seeds per state-changing function, in interface order."""
    eligible = target.eligible_specs()
    if not eligible:
        raise ValueError(f"{target.name}: no state-changing entry points")
    return [generate_seed(rng, spec, target.pools, ordinal)
            for spec in eligible
            for ordinal in range(SEEDS_PER_FUNCTION)]


def mutate_seed(rng: random.Random, seed: Seed,
                pools: tuple[bytes, ...]) -> Seed:
    """Change exactly one dimension of the input.

    The child starts from the parent's calldata: only an argument mutation
    re-encodes it, and only a raw-bytes mutation of a fallback seed edits it.
    """
    choice = rng.choice(seed.spec.mutation_dims)

    child = Seed(seed.spec, seed.args, seed.calldata, seed.value, seed.policy,
                 seed.block)
    if choice == "raw":
        child.calldata = mutate_value(rng, _RAW_CALLDATA, seed.calldata, pools)
    elif choice == "value":
        child.value = rng.choice((0, 1, 2, seed.value + 1,
                                  max(seed.value - 1, 0), seed.value * 2))
    elif choice == "policy":
        index = _POLICY_CYCLE.index(seed.policy)
        child.policy = _POLICY_CYCLE[(index + 1) % len(_POLICY_CYCLE)]
    elif choice == "block":
        block = seed.block
        if rng.random() < 0.5:
            offset = rng.choice(TIMESTAMP_OFFSETS)
            child.block = BlockContext(block.number,
                                       max(0, block.timestamp + offset))
        else:
            offset = rng.choice(NUMBER_OFFSETS)
            child.block = BlockContext(max(0, block.number + offset),
                                       block.timestamp)
    else:
        _, index = choice
        args = list(seed.args)
        args[index] = mutate_value(rng, seed.spec.inputs[index], args[index],
                                   pools)
        child.args = tuple(args)
        child.calldata = encode_call(seed.spec, child.args)
    return child


def select_seed(rng: random.Random, queue: list[Seed], total: float) -> Seed:
    """Energy-proportional draw, scanning newest entries first.

    `total` is the sum of the queue's energies, added front to back.
    """
    point = rng.uniform(0.0, total)
    for seed in reversed(queue):
        point -= seed.energy
        if point <= 0.0:
            return seed
    return queue[0]


# --- campaign loop --------------------------------------------------------

class _Campaign:
    def __init__(self, target: FuzzTarget, config: CampaignConfig) -> None:
        if config.budget is None and config.seconds is None:
            raise ValueError("campaign needs an execution or time budget")
        self.target = target
        self.config = config
        self.rng = random.Random(config.rng_seed)
        self.base_state = snapshot_state(target.state)
        if config.strategy is Strategy.DIRECTED:
            # block start -> hops to the nearest critical site, lowered by
            # `relax_distances` as run-time jumps add edges; the learned
            # edges' predecessors are this campaign's one record of them
            self.hops = distance_map(target.cfg, critical_sites(target.cfg))
            self.learned_predecessors: dict[int, set[int]] = {}
        # the code object the interpreter runs, so lookups match by identity
        self.runs_key = (target.address,
                         self.base_state.code_of(target.address))
        self.coverage = BlockCoverage()
        # transaction -> its outcome, valid against the current base state
        self.outcomes: dict[_TxKey, _Outcome] = {}
        self.replayed = 0
        self.queue_energy = 0.0  # sum of the queue's energies, front to back
        self.executions = 0
        self.admitted = 0
        # each finding's first hit; ticks only grow, so the first kept is
        # the earliest
        self.first_hits: dict[BugFinding, tuple[int, BugFinding, Seed]] = {}
        self.coverage_rows: list[tuple[int, float]] = []
        self.started = time.monotonic()
        self.last_second_sampled = -1
        self.stop = False

    # -- bookkeeping -------------------------------------------------------

    def _coverage_fraction(self) -> float:
        total = len(self.target.cfg.pcs)
        return self.coverage.pcs / total if total else 0.0

    def _within_budget(self) -> bool:
        if self.stop:
            return False
        if self.config.budget is not None:
            if self.executions >= self.config.budget:
                return False
        if self.config.seconds is not None:
            if time.monotonic() - self.started >= self.config.seconds:
                return False
        return True

    def _sample_coverage(self) -> None:
        """Add a coverage row at this tick, or in seconds mode at most one
        per second; called when a row may be due."""
        if self.config.seconds is not None:
            second = int(time.monotonic() - self.started)
            if second > self.last_second_sampled:
                self.last_second_sampled = second
                self.coverage_rows.append((second, self._coverage_fraction()))
            return
        self.coverage_rows.append((self.executions, self._coverage_fraction()))

    def _invalidate(self, writes: frozenset[Location]) -> None:
        """Drop the outcomes a kept state change may alter: those that read
        a location it wrote or whose balance test now answers otherwise."""
        outcomes = self.outcomes
        balance_of = self.base_state.balance_of
        stale = [key for key, (_, _, _, reads, tests) in outcomes.items()
                 if not reads.isdisjoint(writes)
                 or tests and any((balance_of(address) >= need) is not passed
                                  for address, need, passed in tests)]
        for key in stale:
            del outcomes[key]

    def _execute(self, seed: Seed, persist: bool) -> _Outcome:
        """Run `seed`, or replay it from the outcome cache; returns the
        outcome the step used."""
        key = (seed.calldata, seed.value, seed.policy, seed.block)
        self.executions += 1
        outcomes = self.outcomes
        outcome = outcomes.get(key)
        # a kept lane must run a transaction that changes state to apply it
        if outcome is None or persist and outcome[2]:
            tx = Transaction(
                target=self.target.address,
                calldata=seed.calldata,
                value=seed.value,
                agent_policy=seed.policy,
                block=seed.block,
            )
            trace = execute_transaction(self.base_state, tx, persist=persist)
            runs = trace.block_runs.get(self.runs_key, {})
            findings = detect_trace(trace)
            # only whether the transaction writes is kept: a SELFDESTRUCT
            # journals every slot it clears, read or not, so a repeat's
            # write set can differ from its first run's
            changes_state = bool(trace.writes)
            outcome = (runs, findings, changes_state, trace.reads,
                       trace.balance_tests)
            new_edges, fresh = self.coverage.add(runs, trace.transitions)
            if persist and changes_state:
                self._invalidate(trace.writes)
            else:
                if len(outcomes) >= OUTCOME_CACHE_SIZE:
                    outcomes.clear()
                outcomes[key] = outcome
        else:
            runs, findings = outcome[0], outcome[1]
            self.replayed += 1
            new_edges, fresh = 0, ()

        seed.energy = 1.0 + new_edges
        if self.config.strategy is Strategy.DIRECTED:
            # `fresh` holds only transitions never seen before, so the jump
            # edges the static graph lacks among them are newly learned; a
            # replay's `fresh` is empty
            if fresh:
                static = self.target.cfg
                refined = augment_edges(static, fresh)
                if refined is not static:
                    relax_distances(self.hops, static.predecessors,
                                    self.learned_predecessors,
                                    refined.learned_edges)
            d_min = min(map(self.hops.get, runs, repeat(math.inf)),
                        default=math.inf)
            if d_min != math.inf:
                seed.energy += DIRECTED_BONUS_WEIGHT / (1.0 + d_min)

        tick = self.executions
        for finding in findings:
            self.first_hits.setdefault(finding, (tick, finding, seed))
            if finding.fine in self.config.stop_classes:
                self.stop = True
        if (self.config.seconds is not None
                or tick % COVERAGE_SAMPLE_INTERVAL == 0
                or tick == self.config.budget):
            self._sample_coverage()
        return outcome

    # -- cycles ------------------------------------------------------------

    def run(self) -> CampaignResult:
        rng = self.rng
        queue = initial_corpus(rng, self.target)
        for seed in queue:
            if not self._within_budget():
                break
            self._execute(seed, persist=False)
        # a seed's energy is fixed once it has run
        for seed in queue:
            self.queue_energy += seed.energy

        eligible = self.target.eligible_specs()
        while self._within_budget():
            blind = self.config.strategy is Strategy.BLACKBOX
            if not blind:
                parent = select_seed(rng, queue, self.queue_energy)
            for lane in range(MUTANTS_PER_CYCLE + 1):
                if not self._within_budget():
                    break
                persist = lane == MUTANTS_PER_CYCLE
                if blind:
                    child = generate_seed(rng, rng.choice(eligible),
                                          self.target.pools,
                                          ordinal=rng.randrange(2))
                else:
                    child = mutate_seed(rng, parent, self.target.pools)
                self._execute(child, persist=persist)
                if not blind and child.energy > parent.energy:
                    queue.append(child)
                    self.queue_energy += child.energy
                    self.admitted += 1

        return CampaignResult(
            strategy=self.config.strategy,
            executions=self.executions,
            findings=sorted(self.first_hits.values(),
                            key=lambda row: (row[0], row[1].fine.value,
                                             row[1].pc)),
            coverage_curve=self.coverage_rows,
            admitted_seeds=self.admitted,
            final_coverage=self._coverage_fraction(),
            elapsed=time.monotonic() - self.started,
            replayed=self.replayed,
        )


def run_campaign(target: FuzzTarget, config: CampaignConfig) -> CampaignResult:
    """Fuzz one contract; deterministic for a fixed config and target."""
    result = _Campaign(target, config).run()
    logger.info(
        "%s on %s: %d executions (%d replayed), %.1f%% coverage, "
        "%d finding sites",
        config.strategy.value, target.name, result.executions,
        result.replayed, 100.0 * result.final_coverage, len(result.findings))
    return result
