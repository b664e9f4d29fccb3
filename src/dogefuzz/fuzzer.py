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
Most of a run is recorded as exits of compiled chains (`evm.ChainExit`),
each an object shared by every run that takes it and holding only whole
blocks, so a campaign folds each exit into its coverage once, and the
Directed bonus keeps each exit's lowest hop count until the counts drop.

Each cycle executes `MUTANTS_PER_CYCLE` mutants against the unchanged base
state plus one more whose effects are kept when it succeeds, so
storage-dependent bugs stay reachable without giving up reproducibility.

Many mutants repeat an earlier transaction: a policy mutation of a parent
always yields the same child, and value and block mutations draw from a
few choices.  The interpreter is deterministic, so a campaign keeps, per
transaction, the outcome a repeat needs: the target's block runs and
chain exits, the findings, the net changes it writes and the Directed
bonus its blocks earned, with what the run read of the world state.  A
repeat is replayed from that outcome without running the interpreter or
the oracles, and takes its energy from it; it adds no coverage and
records no finding, since its first run did both.  An outcome stays
valid while the base state keeps what it read, so a kept state change
drops the outcomes that read what it wrote, and those whose balance tests
it flips, found through an index from each location to the outcomes that
read it and from each address to the tests of its balance.  Reaching
`OUTCOME_CACHE_SIZE` entries clears the cache, and so do learned edges
that lower a hop count, since a cached bonus may then be too low.  A kept
lane is replayed too: it adds its outcome's net changes to the base state
(`evm.reapply`) and drops outcomes as a run would.  Only an outcome that
wrote code is run again, since a SELFDESTRUCT clears slots its run never
read.

A lane hands around only its arguments and its transaction key: the
calldata, value, agent policy and block that, with the campaign's fixed
target, name the transaction and its cached outcome.  The calldata is
encoded once when an input is generated, and a function without
arguments sends its selector alone; its two inputs depend only on the
ordinal and draw no bits, so a BlackBox campaign builds them once and
its lanes only draw the function and the ordinal.  A mutant inherits its
parent's bytes and is re-encoded only when the mutation changed an
argument, so mutants that vary the value, the agent policy or the block
cost no ABI work.  Those mutations can make only 17 children of a parent
(six value picks, the next policy, six timestamp and four number
offsets), so a parent keeps each one it has made in its `children`
table, by draw: the draws are made as before, and a repeated draw hands
back the same arguments and key objects without building them again.
A `Seed` is what the queue keeps, and a finding's
reproducer: one is built for each initial-corpus input, each admitted
child and each run that first hit a finding, so a replay builds none.

A campaign draws everything from one `random.Random` seeded with its
`rng_seed`.  A draw among `n` choices goes through `abi._below`, which
asks `getrandbits` for the same bits `Random.choice` and
`Random.randrange` would, at a quarter of their cost; so a seed, a
mutant and every report stay what those methods made them, and
`tests/test_draws.py` pins the streams.
"""

from __future__ import annotations

import logging
import math
import random
import time
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from typing import Iterable, Mapping

from .abi import (
    AbiType,
    FunctionSpec,
    TypeKind,
    _below,
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
    AGENT_ADDRESS,
    BALANCE,
    DEFAULT_BLOCK,
    DEFAULT_TX_GAS,
    BlockContext,
    ChainExit,
    Location,
    PolicyKind,
    Transaction,
    WorldState,
    execute_transaction,
    reapply,
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

# what a repeat of a transaction needs: the block runs the loop recorded in
# the target, the findings and the trace's `writes`, the net changes a kept
# repeat re-applies, then the trace's `reads` and `balance_tests` that say
# when the first three still hold, then the proximity bonus the blocks
# earn (0.0 but for Directed), and last the chain exits the target took; a
# plain tuple, as one is built for every execution that runs
_Outcome = tuple[dict[int, int], list[BugFinding],
                 Mapping[Location, int | bytes | None], set[Location],
                 list[tuple[bytes, int, bool]], float, list[ChainExit]]
# an input's calldata, value, policy and block: with the campaign's fixed
# target they name the transaction
_TxKey = tuple[bytes, int, PolicyKind, BlockContext]

# the policy a policy mutation moves to from each: benign, reentrant,
# thrower and round again
_NEXT_POLICY = {PolicyKind.BENIGN: PolicyKind.REENTRANT,
                PolicyKind.REENTRANT: PolicyKind.THROWER,
                PolicyKind.THROWER: PolicyKind.BENIGN}
# the draws that name a value, policy or block child in a parent's
# `children` table: value picks 0-5, then the policy, then an index into
# `TIMESTAMP_OFFSETS` and one into `NUMBER_OFFSETS`
_POLICY_DRAW = 6
_TIMESTAMP_DRAWS = _POLICY_DRAW + 1
_NUMBER_DRAWS = _TIMESTAMP_DRAWS + len(TIMESTAMP_OFFSETS)
_KEPT_CHILDREN = _NUMBER_DRAWS + len(NUMBER_OFFSETS)
# the record of a target no frame ran
_NO_RECORD: tuple[dict[int, int], tuple[ChainExit, ...]] = ({}, ())
# a fallback seed's raw calldata mutates as an ABI `bytes` value
_RAW_CALLDATA = AbiType(TypeKind.BYTES)


class Strategy(str, Enum):
    BLACKBOX = "BlackBox"
    GREYBOX = "GreyBox"
    DIRECTED = "DirectedGreyBox"


@dataclass(slots=True)
class Seed:
    """One input point: function, arguments, and transaction context.

    A seed is what the queue keeps, and a finding's reproducer; a lane
    that is neither stays its arguments and transaction key.
    `calldata` is the transaction input the seed runs with: the selector
    plus the encoded `args`, or for a fallback seed the raw bytes sent
    instead of arguments.  `generate_seed` and `mutate_seed` keep it in
    step with `args`; a seed built by hand starts with empty calldata.
    `energy` is what the input earned when it ran.
    `children` is the table of the value, policy and block children
    `mutate_seed` has made of the seed, by draw: it takes no part in
    comparison or `repr`, and holds while the fields it was built from
    stay as they are.
    """

    spec: FunctionSpec
    args: tuple = ()
    calldata: bytes = b""
    value: int = 0
    policy: PolicyKind = PolicyKind.BENIGN
    block: BlockContext = DEFAULT_BLOCK
    energy: float = 1.0
    children: dict[int, tuple[tuple, _TxKey]] | None = field(
        default=None, compare=False, repr=False)


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
    block edge taken, with the count of covered pcs, and the chain exits
    folded in so far.

    A run of `r` instructions of a block whose first `h` were covered adds
    `r - h` pcs and `r - max(h, 1)` pairs inside the block; a transition
    not seen before adds one more edge.
    """

    __slots__ = ("runs", "transitions", "pcs", "folded")

    def __init__(self) -> None:
        self.runs: dict[int, int] = {}
        self.transitions: set[tuple[int, int]] = set()
        self.pcs = 0
        self.folded: set[ChainExit] = set()

    def add(self, runs: dict[int, int], transitions: set[tuple[int, int]],
            exits: Iterable[ChainExit]) -> tuple[int, set[tuple[int, int]]]:
        """Fold in one trace's block runs, transitions and chain exits of
        the code.

        An exit is folded once: its runs are whole blocks, which no later
        run lengthens, and its edges stay seen, so a second fold of it
        would add nothing.  Returns the number of edges not seen before and
        the transitions among them, as a fold of the complete record would.
        """
        seen = self.transitions
        fresh = transitions - seen
        covered = self.runs
        new_edges = pcs = 0
        folded = self.folded
        for chain_exit in exits:
            if chain_exit in folded:
                continue
            folded.add(chain_exit)
            for edge in chain_exit.edges:
                if edge not in seen:
                    fresh.add(edge)
            for start, ran in chain_exit.runs.items():
                had = covered.get(start, 0)
                if ran > had:
                    covered[start] = ran
                    pcs += ran - had
                    new_edges += ran - (had or 1)
        seen |= fresh
        new_edges += len(fresh)
        if not runs.items() <= covered.items():
            for start, ran in runs.items():
                had = covered.get(start, 0)
                if ran > had:
                    covered[start] = ran
                    pcs += ran - had
                    new_edges += ran - (had or 1)
        self.pcs += pcs
        return new_edges, fresh


# --- seed construction ----------------------------------------------------

def generate_seed(rng: random.Random, spec: FunctionSpec,
                  pools: tuple[bytes, ...],
                  ordinal: int = 0) -> tuple[tuple, _TxKey]:
    """Fresh input for `spec`, its arguments and transaction key; ordinal
    1 favors a value-carrying variant."""
    value = ordinal if spec.is_payable else 0
    if spec.is_fallback:
        return (), (rng.randbytes(8) if ordinal else b"", value,
                    PolicyKind.BENIGN, DEFAULT_BLOCK)
    if not spec.inputs:
        return (), (spec.selector_bytes, value, PolicyKind.BENIGN,
                    DEFAULT_BLOCK)
    args = tuple([generate_value(rng, t, pools) for t in spec.inputs])
    return args, (encode_call(spec, args), value, PolicyKind.BENIGN,
                  DEFAULT_BLOCK)


def initial_corpus(rng: random.Random, target: FuzzTarget) -> list[Seed]:
    """Two seeds per state-changing function, in interface order."""
    eligible = target.eligible_specs()
    if not eligible:
        raise ValueError(f"{target.name}: no state-changing entry points")
    seeds = []
    for spec in eligible:
        for ordinal in range(SEEDS_PER_FUNCTION):
            args, key = generate_seed(rng, spec, target.pools, ordinal)
            seeds.append(Seed(spec, args, *key))
    return seeds


def mutate_seed(rng: random.Random, seed: Seed,
                pools: tuple[bytes, ...]) -> tuple[tuple, _TxKey]:
    """Change exactly one dimension of the input; returns the child's
    arguments and transaction key.

    The child starts from the parent's calldata: only an argument mutation
    re-encodes it, and only a raw-bytes mutation of a fallback seed edits it.
    A value, policy or block mutation draws one of `_KEPT_CHILDREN`
    children, which the parent's `children` table builds on its first draw
    and hands out again after.
    """
    getrandbits = rng.getrandbits
    dims = seed.spec.mutation_dims
    choice = dims[_below(getrandbits, len(dims))]
    if choice == "value":
        # of 0, 1, 2, value + 1, value - 1 (not below 0) and value * 2
        draw = _below(getrandbits, 6)
    elif choice == "policy":
        draw = _POLICY_DRAW
    elif choice == "block":
        if rng.random() < 0.5:
            draw = _TIMESTAMP_DRAWS + _below(getrandbits,
                                             len(TIMESTAMP_OFFSETS))
        else:
            draw = _NUMBER_DRAWS + _below(getrandbits, len(NUMBER_OFFSETS))
    elif choice == "raw":
        return (), (mutate_value(rng, _RAW_CALLDATA, seed.calldata, pools),
                    seed.value, seed.policy, seed.block)
    else:
        _, index = choice
        spec = seed.spec
        args = list(seed.args)
        args[index] = mutate_value(rng, spec.inputs[index], args[index],
                                   pools)
        args = tuple(args)
        return args, (encode_call(spec, args), seed.value, seed.policy,
                      seed.block)
    children = seed.children
    if children is None:
        children = seed.children = {}
    child = children.get(draw)
    if child is None:
        child = children[draw] = _child(seed, draw)
    return child


def _child(seed: Seed, draw: int) -> tuple[tuple, _TxKey]:
    """The child of `seed` that value, policy or block draw `draw` names."""
    value, policy, block = seed.value, seed.policy, seed.block
    if draw < _POLICY_DRAW:
        if draw < 3:
            value = draw
        elif draw == 3:
            value += 1
        elif draw == 4:
            value = max(value - 1, 0)
        else:
            value *= 2
    elif draw == _POLICY_DRAW:
        policy = _NEXT_POLICY[policy]
    else:
        number, timestamp = block
        if draw < _NUMBER_DRAWS:
            timestamp = max(
                timestamp + TIMESTAMP_OFFSETS[draw - _TIMESTAMP_DRAWS], 0)
        else:
            number = max(number + NUMBER_OFFSETS[draw - _NUMBER_DRAWS], 0)
        # `_make` skips the Python-level `__new__` a NamedTuple call runs
        block = BlockContext._make((number, timestamp))
    return seed.args, (seed.calldata, value, policy, block)


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
        # read on every execution, so kept off `config`
        self.budget = config.budget
        self.seconds = config.seconds
        self.rng = random.Random(config.rng_seed)
        self.base_state = snapshot_state(target.state)
        self.directed = config.strategy is Strategy.DIRECTED
        if self.directed:
            # block start -> hops to the nearest critical site, lowered by
            # `relax_distances` as run-time jumps add edges; the learned
            # edges' predecessors are this campaign's one record of them
            self.hops = distance_map(target.cfg, critical_sites(target.cfg))
            self.learned_predecessors: dict[int, set[int]] = {}
            # chain exit -> the lowest count over its blocks, until a count
            # is lowered
            self.exit_hops: dict[ChainExit, float] = {}
        # the code object the interpreter runs, so lookups match by identity
        self.runs_key = (target.address,
                         self.base_state.code_of(target.address))
        self.coverage = BlockCoverage()
        # transaction -> its outcome, valid against the current base state
        # and, for a bonus, the current hop counts
        self.outcomes: dict[_TxKey, _Outcome] = {}
        # what a kept state change looks up to find the outcomes it may
        # alter: location -> keys of cached outcomes that read it, and
        # address -> (key, need, passed) of each balance test a cached
        # outcome made of it.  The outcomes cached since the last kept
        # change (`unindexed`) join it only when the next one has tested
        # them (`_invalidate`).  A dropped outcome's entries stay until they
        # are looked up or the index is rebuilt, once `dropped` outcomes
        # reach `OUTCOME_CACHE_SIZE`
        self.readers: dict[Location, list[_TxKey]] = {}
        self.testers: dict[bytes, list[tuple[_TxKey, int, bool]]] = {}
        self.unindexed: list[_TxKey] = []
        self.dropped = 0
        self.replayed = 0
        self.queue_energy = 0.0  # sum of the queue's energies, front to back
        self.executions = 0
        self.admitted = 0
        # each finding's first hit, with a seed built as its reproducer;
        # ticks only grow, so the first kept is the earliest
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
        if self.budget is not None and self.executions >= self.budget:
            return False
        if (self.seconds is not None
                and time.monotonic() - self.started >= self.seconds):
            return False
        return True

    def _sample_coverage(self) -> None:
        """Add a coverage row at this tick, or in seconds mode at most one
        per second; called when a row may be due."""
        if self.seconds is not None:
            second = int(time.monotonic() - self.started)
            if second > self.last_second_sampled:
                self.last_second_sampled = second
                self.coverage_rows.append((second, self._coverage_fraction()))
            return
        self.coverage_rows.append((self.executions, self._coverage_fraction()))

    def _clear_outcomes(self) -> None:
        """Empty the outcome cache and its index."""
        self.outcomes.clear()
        self.readers.clear()
        self.testers.clear()
        self.unindexed.clear()
        self.dropped = 0

    def _invalidate(self, writes: Mapping[Location, object]) -> None:
        """Drop the outcomes a kept state change may alter: those that read
        a location it wrote or whose balance test now answers otherwise.

        The outcomes cached since the last kept change are tested as a
        scan tests them, and those kept join the index.  Every change of a
        balance is a write of it, so of the indexed outcomes only those
        that read a written location or tested a written balance can be
        altered: the index names them, and maybe some no longer cached or
        cached again since, and each named one is tested as a scan would
        test it.  So exactly the outcomes a scan of the whole cache would
        drop are dropped.  No outcome left reads a written location, so
        those entries go."""
        outcomes = self.outcomes
        readers, testers = self.readers, self.testers
        balance_of = self.base_state.balance_of

        def altered(outcome: _Outcome) -> bool:
            tests = outcome[4]
            return (not outcome[3].isdisjoint(writes)
                    or tests and any((balance_of(address) >= need) is not passed
                                     for address, need, passed in tests))

        if self.dropped >= OUTCOME_CACHE_SIZE:
            readers.clear()
            testers.clear()
            self.unindexed = list(outcomes)
            self.dropped = 0
        # not `setdefault`, which builds a list to throw away on each hit
        for key in self.unindexed:
            outcome = outcomes.get(key)
            if outcome is None:
                continue
            if altered(outcome):
                del outcomes[key]
                self.dropped += 1
                continue
            for location in outcome[3]:
                keys = readers.get(location)
                if keys is None:
                    readers[location] = [key]
                else:
                    keys.append(key)
            for address, need, passed in outcome[4]:
                entries = testers.get(address)
                if entries is None:
                    testers[address] = [(key, need, passed)]
                else:
                    entries.append((key, need, passed))
        self.unindexed.clear()

        named: list[_TxKey] = []
        for location in writes:
            keys = readers.pop(location, None)
            if keys:
                named += keys
            address, field = location
            entries = testers.get(address) if field == BALANCE else None
            if entries:
                balance = balance_of(address)
                flipped = [key for key, need, passed in entries
                           if (balance >= need) is not passed]
                if flipped:
                    named += flipped
                    testers[address] = [entry for entry in entries
                                        if (balance >= entry[1]) is entry[2]]
        for key in named:
            outcome = outcomes.get(key)
            if outcome is not None and altered(outcome):
                del outcomes[key]
                self.dropped += 1

    def _bonus(self, runs: dict[int, int], exits: list[ChainExit]) -> float:
        """The Directed proximity bonus of a run of these blocks and exits
        over the current hop counts: 0.0 when none of them reaches a
        site."""
        hops = self.hops
        # most runs are chains alone, and record no block the loop ran
        d_min = (min(map(hops.get, runs, repeat(math.inf))) if runs
                 else math.inf)
        exit_hops = self.exit_hops
        for chain_exit in exits:
            d_exit = exit_hops.get(chain_exit)
            if d_exit is None:
                d_exit = exit_hops[chain_exit] = min(
                    map(hops.get, chain_exit.runs, repeat(math.inf)),
                    default=math.inf)
            if d_exit < d_min:
                d_min = d_exit
        if d_min == math.inf:
            return 0.0
        return DIRECTED_BONUS_WEIGHT / (1.0 + d_min)

    def _execute(self, spec: FunctionSpec, args: tuple, key: _TxKey,
                 persist: bool) -> float:
        """Run the input `spec`, `args` and `key` name, or replay it from
        the outcome cache; returns the energy it earned.  Only a run that
        first hits a finding builds a `Seed`, the finding's reproducer."""
        self.executions += 1
        tick = self.executions
        outcomes = self.outcomes
        outcome = outcomes.get(key)
        # what a kept lane adds to the base state from a cached outcome; it
        # runs the transaction instead where `reapply` refuses
        kept = outcome[2] if persist and outcome is not None else None
        if outcome is not None and (not kept or reapply(self.base_state, kept)):
            # a replay adds no coverage and records no finding: its first
            # run did both, and called any stop its findings asked for
            self.replayed += 1
            energy = 1.0 + outcome[5]
            if kept:
                self._invalidate(kept)
        else:
            calldata, value, policy, block = key
            # by position, in field order: cheaper than by keyword
            tx = Transaction(self.target.address, calldata, value,
                             AGENT_ADDRESS, DEFAULT_TX_GAS, policy, block)
            trace = execute_transaction(self.base_state, tx, persist=persist)
            runs, exits = trace.records.get(self.runs_key, _NO_RECORD)
            findings = detect_trace(trace)
            new_edges, fresh = self.coverage.add(runs, trace.edges, exits)
            bonus = 0.0
            if self.directed:
                # `fresh` holds only transitions never seen before, so the
                # jump edges the static graph lacks among them are newly
                # learned
                if fresh:
                    static = self.target.cfg
                    refined = augment_edges(static, fresh)
                    if refined is not static and relax_distances(
                            self.hops, static.predecessors,
                            self.learned_predecessors, refined.learned_edges):
                        # every cached bonus may now be too low
                        self._clear_outcomes()
                        self.exit_hops.clear()
                bonus = self._bonus(runs, exits)
            writes = trace.writes
            outcome = (runs, findings, writes, trace.reads,
                       trace.balance_tests, bonus, exits)
            if persist and writes:
                self._invalidate(writes)
            else:
                if len(outcomes) >= OUTCOME_CACHE_SIZE:
                    self._clear_outcomes()
                outcomes[key] = outcome
                self.unindexed.append(key)
            energy = 1.0 + new_edges + bonus
            if findings:
                first_hits = self.first_hits
                reproducer = None
                for finding in findings:
                    if finding not in first_hits:
                        if reproducer is None:
                            reproducer = Seed(spec, args, *key, energy)
                        first_hits[finding] = (tick, finding, reproducer)
                    if finding.fine in self.config.stop_classes:
                        self.stop = True

        if (self.seconds is not None
                or tick % COVERAGE_SAMPLE_INTERVAL == 0
                or tick == self.budget):
            self._sample_coverage()
        return energy

    # -- cycles ------------------------------------------------------------

    def run(self) -> CampaignResult:
        rng = self.rng
        queue = initial_corpus(rng, self.target)
        for seed in queue:
            if not self._within_budget():
                break
            seed.energy = self._execute(
                seed.spec, seed.args,
                (seed.calldata, seed.value, seed.policy, seed.block), False)
        for seed in queue:
            self.queue_energy += seed.energy

        eligible = self.target.eligible_specs()
        pools = self.target.pools
        getrandbits = rng.getrandbits
        blind = self.config.strategy is Strategy.BLACKBOX
        if blind:
            # per eligible function, its inputs at ordinals 0 and 1 when
            # building them draws no bits: it takes no arguments and is not
            # the fallback, whose ordinal 1 draws random bytes
            built = [None if spec.inputs or spec.is_fallback else
                     (generate_seed(rng, spec, pools, 0),
                      generate_seed(rng, spec, pools, 1))
                     for spec in eligible]
        # without a time budget a lane need not read the clock
        timed = self.seconds is not None
        budget = self.budget
        while self._within_budget():
            if not blind:
                parent = select_seed(rng, queue, self.queue_energy)
                spec = parent.spec
            for lane in range(MUTANTS_PER_CYCLE + 1):
                if timed:
                    if not self._within_budget():
                        break
                elif self.stop or self.executions >= budget:
                    break
                if blind:
                    # a function, then an ordinal, each drawn as
                    # `rng.choice` and `rng.randrange` would draw it
                    index = _below(getrandbits, len(eligible))
                    spec = eligible[index]
                    inputs = built[index]
                    if inputs is None:
                        args, key = generate_seed(rng, spec, pools,
                                                  _below(getrandbits, 2))
                    else:
                        args, key = inputs[_below(getrandbits, 2)]
                else:
                    args, key = mutate_seed(rng, parent, pools)
                energy = self._execute(spec, args, key,
                                       lane == MUTANTS_PER_CYCLE)
                if not blind and energy > parent.energy:
                    queue.append(Seed(spec, args, *key, energy))
                    self.queue_energy += energy
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
