"""Rounds, correctness checks and metrics of the dogefuzz benchmark.

A round does what one `dogefuzz bench` invocation per strategy does: load
the workload's bundles, deploy each once per strategy, fuzz it with every
strategy, score the findings against the planted labels and write the
report.  Round r seeds its campaigns with `seed * 1000 + r`, so later rounds
add fresh inputs rather than repeats.  Every campaign is timed on its own and
calibrated by the host-speed samples taken just before and after it.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from dogefuzz import cfg as cfg_mod
from dogefuzz import evm, fuzzer, harness, microbench
from dogefuzz.evm import DeploymentError
from dogefuzz.fuzzer import CampaignConfig, Strategy

import workloads
from calibration import Calibrator, scale_duration, speed_factor
from tracing import Tracer, self_times

# Executions per campaign.  Small enough that many campaigns fit in a run,
# large enough that the feedback strategies find the planted reentrancy.
BUDGETS = {workloads.MICRO: 500, workloads.WIDE: 300, workloads.MAPPING: 300}
STRATEGIES = {"blackbox": Strategy.BLACKBOX, "greybox": Strategy.GREYBOX,
              "directed": Strategy.DIRECTED}
STRATEGY_KEYS = tuple(STRATEGIES)
# Rounds every run completes (traced runs: traced rounds); quality metrics
# and per-layer counts pool over them, so they are the same for every run
# with the same seed, however fast the host.
QUALITY_ROUNDS = 6


@dataclass
class CampaignRun:
    strategy: str
    executions: int
    raw_s: float
    factor: float           # calibration time around the campaign / nominal
    campaign_id: int


@dataclass
class RoundRun:
    index: int
    traced: bool
    setup_raw_s: float
    setup_s: float
    wall_raw_s: float
    wall_s: float
    campaigns: list[CampaignRun]
    attempted: int
    failed: int
    coverage: float
    tp: int
    fp: int
    fn: int
    digest: str
    blocks: int
    unresolved: int
    admitted: dict[int, int]       # campaign id -> seeds admitted
    sites: dict[int, int]          # campaign id -> distinct finding sites


class Bench:
    """One workload, one seed: generation, rounds, checks and metrics."""

    def __init__(self, workload: str, seed: int, out: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.budget = BUDGETS[workload]
        self.out = out
        self.bundles = self.out / "bundles"
        self.calibrator = Calibrator()
        self.problems: list[str] = []
        self.failures: list[str] = []
        self.next_campaign = 0

        self.contracts = workloads.generate(workload, seed)
        self.planted = sum(len(c.labels) for c in self.contracts)
        workloads.write(self.contracts, self.bundles)
        workloads.self_check(workload, self.contracts, self.bundles)

    # -- one round ---------------------------------------------------------

    def run_round(self, index: int, tracer: Tracer | None = None) -> RoundRun:
        sample = self.calibrator.sample
        attempted = failed = 0
        before = sample()
        start = time.perf_counter()
        skipped: list[tuple[str, str]] = []
        bundles = harness.load_benchmark(self.bundles, skipped)
        for name, reason in skipped:
            self.failures.append(f"round {index}: skipped {name}: {reason}")
        attempted += len(skipped) * len(STRATEGIES)
        failed += len(skipped) * len(STRATEGIES)
        targets = []
        for key in STRATEGIES:
            for bundle in bundles:
                try:
                    target = harness.prepare_target(bundle)
                except (DeploymentError, ValueError) as exc:
                    self.failures.append(
                        f"round {index}: {bundle.name} did not deploy: {exc}")
                    attempted += 1
                    failed += 1
                    continue
                cfg_mod.distance_map(target.cfg,
                                     cfg_mod.critical_sites(target.cfg))
                targets.append((key, bundle, target))
        setup_raw = time.perf_counter() - start
        after = sample()
        setup_s = scale_duration(setup_raw, speed_factor(before, after))
        wall_raw, wall_s = setup_raw, setup_s

        reports, campaigns = [], []
        admitted, sites = {}, {}
        for key, bundle, target in targets:
            attempted += 1
            config = CampaignConfig(strategy=STRATEGIES[key],
                                    budget=self.budget,
                                    rng_seed=self.seed * 1000 + index)
            campaign_id = self.next_campaign
            self.next_campaign += 1
            if tracer is not None:
                tracer.campaign = campaign_id
            before = after
            start = time.perf_counter()
            try:
                result = harness.run_campaign(target, config)
            except Exception:
                failed += 1
                self.failures.append(f"round {index}: {key} on {bundle.name} "
                                     f"raised\n{traceback.format_exc()}")
                result = None
            raw = time.perf_counter() - start
            if tracer is not None:
                tracer.campaign = -1
            after = sample()
            factor = speed_factor(before, after)
            wall_raw += raw
            wall_s += scale_duration(raw, factor)
            if result is None:
                continue
            self._check_campaign(index, key, bundle.name, target, result)
            campaigns.append(CampaignRun(key, result.executions, raw, factor,
                                         campaign_id))
            reports.append(harness.ContractReport(bundle.name, result, config))
            admitted[campaign_id] = result.admitted_seeds
            sites[campaign_id] = len(result.findings)

        before = after
        start = time.perf_counter()
        labels = {b.name: b.labels for b in bundles}
        pooled: dict = {}           # class -> Metrics summed over strategies
        for strategy in STRATEGIES.values():
            found = {r.contract: [row[1] for row in r.result.findings]
                     for r in reports if r.result.strategy is strategy}
            for cls, m in harness.score_results(found, labels).items():
                old = pooled.get(cls, harness.Metrics())
                pooled[cls] = harness.Metrics(old.tp + m.tp, old.fp + m.fp,
                                              old.fn + m.fn)
        report_path, _, _ = harness.emit_report(reports, pooled,
                                                self.out / "report")
        digest = hashlib.sha256(report_path.read_bytes()).hexdigest()
        raw = time.perf_counter() - start
        after = sample()
        wall_raw += raw
        wall_s += scale_duration(raw, speed_factor(before, after))

        tp = sum(m.tp for m in pooled.values())
        fp = sum(m.fp for m in pooled.values())
        fn = sum(m.fn for m in pooled.values())
        if not failed and tp + fn != self.planted * len(STRATEGIES):
            self.problems.append(
                f"round {index}: scored {tp + fn} labels, planted "
                f"{self.planted * len(STRATEGIES)}")
        coverages = [r.result.final_coverage for r in reports]
        graphs = [t.cfg for k, _, t in targets if k == STRATEGY_KEYS[0]]
        return RoundRun(
            index=index, traced=tracer is not None,
            setup_raw_s=setup_raw, setup_s=setup_s,
            wall_raw_s=wall_raw, wall_s=wall_s, campaigns=campaigns,
            attempted=attempted, failed=failed,
            coverage=statistics.fmean(coverages) if coverages else 0.0,
            tp=tp, fp=fp, fn=fn, digest=digest,
            blocks=sum(len(g.blocks) for g in graphs),
            unresolved=sum(len(g.unresolved) for g in graphs),
            admitted=admitted, sites=sites)

    def _check_campaign(self, index, key, name, target, result) -> None:
        where = f"round {index}: {key} on {name}"
        if result.executions != self.budget:
            self.problems.append(f"{where}: {result.executions} executions, "
                                 f"budget {self.budget}")
        curve = [ratio for _, ratio in result.coverage_curve]
        if curve != sorted(curve) or not 0.0 < result.final_coverage <= 1.0:
            self.problems.append(f"{where}: coverage curve is not valid")
        stray = [f.pc for _, f, _ in result.findings
                 if f.pc not in target.cfg.pcs]
        if stray:
            self.problems.append(
                f"{where}: findings at non-instruction pcs {stray}")

    # -- schedules ---------------------------------------------------------

    def run_untraced(self, seconds: float) -> list[RoundRun]:
        rounds: list[RoundRun] = []
        start = time.perf_counter()
        while (len(rounds) < QUALITY_ROUNDS
               or time.perf_counter() - start < seconds):
            rounds.append(self.run_round(len(rounds)))
        return rounds

    def run_traced(self, seconds: float
                   ) -> tuple[list[RoundRun], list[RoundRun], Tracer]:
        """Untraced round r, then its traced replay, until time is up."""
        plain: list[RoundRun] = []
        traced: list[RoundRun] = []
        tracer = Tracer()
        start = time.perf_counter()
        while (len(traced) < QUALITY_ROUNDS
               or time.perf_counter() - start < seconds):
            plain.append(self.run_round(len(traced)))
            with tracer:
                _install(tracer)
                if not traced and workloads.generate(
                        self.workload, self.seed) != self.contracts:
                    self.problems.append(
                        "workload generation is not deterministic")
                traced.append(self.run_round(len(traced), tracer))
            if traced[-1].digest != plain[-1].digest:
                self.problems.append(f"round {traced[-1].index}: traced "
                                     "report differs from the untraced one")
        return plain, traced, tracer


# --- tracing hooks --------------------------------------------------------

def _on_transaction(tracer, args, trace) -> None:
    tracer.count(f"evm.tx_status.{trace.status.value}")
    tracer.count("evm.pcs", sum(len(p) for p in trace.executed_pcs.values()))


def _on_augment(tracer, args, refined) -> None:
    if refined is not args[0]:
        tracer.count("cfg.refinements")


def _on_detect(tracer, args, findings) -> None:
    tracer.count("oracles.raw_findings", len(findings))


def _keccak_observer():
    seen: dict[int, set[bytes]] = defaultdict(set)

    def observe(tracer, args, digest) -> None:
        data = bytes(args[0])
        tracer.count("keccak.bytes", len(data))
        hashed = seen[tracer.campaign]
        if data in hashed:
            tracer.count("keccak.repeats")
        hashed.add(data)

    return observe


def _install(tracer) -> None:
    """Wrap every module-level name the campaign and the harness look up."""
    for name, label, observe in (
            ("execute_transaction", "evm.execute_transaction",
             _on_transaction),
            ("augment_edges", "cfg.augment_edges", _on_augment),
            ("distance_map", "cfg.distance_map", None),
            ("encode_call", "abi.encode_call", None),
            ("generate_value", "abi.generate_value", None),
            ("mutate_value", "abi.mutate_value", None),
            ("mutate_seed", "fuzzer.mutate_seed", None),
            ("select_seed", "fuzzer.select_seed", None),
            ("detect_trace", "oracles.detect_trace", _on_detect)):
        tracer.wrap(fuzzer, name, observe, label)
    tracer.wrap(evm, "keccak256", _keccak_observer(), "keccak.keccak256")
    for name, label in (
            ("run_campaign", "fuzzer.run_campaign"),
            ("build_cfg", "cfg.build_cfg"),
            ("deploy_contract", "evm.deploy_contract"),
            ("load_benchmark", "harness.load_benchmark"),
            ("prepare_target", "harness.prepare_target"),
            ("score_results", "harness.score_results"),
            ("emit_report", "harness.emit_report")):
        tracer.wrap(harness, name, None, label)
    tracer.wrap(microbench, "all_fixtures", None, "microbench.all_fixtures")


# --- metrics --------------------------------------------------------------

TX_STATUSES = ("Success", "Reverted", "OutOfGas", "InvalidOpcode",
               "DepthExceeded")
CAMPAIGN_METRICS = (
    [("evm.execute_transaction.calls", "count"),
     ("evm.execute_transaction.self_s", "s"),
     ("evm.execute_transaction.p50_us", "us"),
     ("evm.execute_transaction.p99_us", "us")]
    + [(f"evm.tx_status.{s}", "count") for s in TX_STATUSES]
    + [("evm.success_ratio", "ratio"), ("evm.pcs_per_tx", "pcs"),
       ("keccak.keccak256.calls", "count"), ("keccak.keccak256.self_s", "s"),
       ("keccak.keccak256.us_per_call", "us"),
       ("keccak.bytes_per_call", "bytes"), ("keccak.repeat_ratio", "ratio"),
       ("cfg.augment_edges.calls", "count"), ("cfg.augment_edges.self_s", "s"),
       ("cfg.refinements", "count"), ("cfg.refine_ratio", "ratio"),
       ("cfg.distance_map.calls", "count"), ("cfg.distance_map.self_s", "s"),
       ("abi.encode_call.calls", "count"), ("abi.encode_call.self_s", "s"),
       ("abi.generate_value.self_s", "s"), ("abi.mutate_value.self_s", "s"),
       ("fuzzer.run_campaign.self_s", "s"), ("fuzzer.mutate_seed.self_s", "s"),
       ("fuzzer.select_seed.self_s", "s"), ("fuzzer.admit_ratio", "ratio"),
       ("oracles.detect_trace.calls", "count"),
       ("oracles.detect_trace.self_s", "s"), ("oracles.site_ratio", "ratio")])
WORKLOAD_METRICS = (
    ("cfg.build_cfg.self_s", "s"), ("cfg.blocks", "count"),
    ("cfg.unresolved", "count"), ("evm.deploy_contract.self_s", "s"),
    ("harness.load_benchmark.self_s", "s"),
    ("harness.prepare_target.self_s", "s"),
    ("harness.score_results.self_s", "s"), ("harness.emit_report.self_s", "s"),
    ("microbench.all_fixtures.self_s", "s"), ("calibration.spread", "ratio"))
END_TO_END = (
    [(f"exec_per_s.{key}", "exec/s") for key in STRATEGY_KEYS]
    + [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
       ("coverage", "fraction"), ("recall", "fraction"),
       ("precision", "fraction")])


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name the traced run prints, with its unit."""
    units = {f"{key}.{name}": unit for key in STRATEGY_KEYS
             for name, unit in CAMPAIGN_METRICS}
    units.update(WORKLOAD_METRICS)
    units.update({f"trace.overhead.{key}": "ratio" for key in STRATEGY_KEYS})
    return units


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _percentile_us(durations: list[float], share: float) -> float:
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))] * 1e6


def exec_rates(rounds: list[RoundRun]) -> dict[str, tuple[float, float]]:
    """Per strategy: (calibrated, raw) executions per second, pooled."""
    rates = {}
    for key in STRATEGY_KEYS:
        runs = [c for r in rounds for c in r.campaigns if c.strategy == key]
        executions = sum(c.executions for c in runs)
        calibrated = sum(scale_duration(c.raw_s, c.factor) for c in runs)
        raw = sum(c.raw_s for c in runs)
        rates[key] = (_ratio(executions, calibrated), _ratio(executions, raw))
    return rates


def end_to_end(rounds: list[RoundRun]) -> tuple[dict, dict]:
    """(calibrated metrics, raw counterparts of the timings)."""
    rates = exec_rates(rounds)
    metrics = {f"exec_per_s.{k}": v[0] for k, v in rates.items()}
    raw = {f"exec_per_s.{k}": v[1] for k, v in rates.items()}
    metrics["wall_s"] = statistics.median(r.wall_s for r in rounds)
    raw["wall_s"] = statistics.median(r.wall_raw_s for r in rounds)
    metrics["setup_s"] = statistics.median(r.setup_s for r in rounds)
    raw["setup_s"] = statistics.median(r.setup_raw_s for r in rounds)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    quality = rounds[:QUALITY_ROUNDS]
    tp = sum(r.tp for r in quality)
    fp = sum(r.fp for r in quality)
    fn = sum(r.fn for r in quality)
    metrics["coverage"] = statistics.fmean(r.coverage for r in quality)
    metrics["recall"] = _ratio(tp, tp + fn)
    metrics["precision"] = 1.0 if tp + fp == 0 else tp / (tp + fp)
    return metrics, raw


def round_document(r: RoundRun) -> dict:
    """One round's timings, calibrated and raw, for results.json."""
    return {
        "index": r.index, "traced": r.traced, "digest": r.digest,
        "setup_s": r.setup_s, "setup_raw_s": r.setup_raw_s,
        "wall_s": r.wall_s, "wall_raw_s": r.wall_raw_s,
        "exec_per_s": {k: v[0] for k, v in exec_rates([r]).items()},
        "exec_per_s_raw": {k: v[1] for k, v in exec_rates([r]).items()},
    }


def report_digest(rounds: list[RoundRun]) -> str:
    """SHA-256 over the report digests of the quality rounds, in order."""
    joined = "".join(r.digest for r in rounds[:QUALITY_ROUNDS])
    return hashlib.sha256(joined.encode()).hexdigest()


def per_layer(bench: Bench, plain: list[RoundRun], traced: list[RoundRun],
              tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the traced rounds, per round.

    Times average over every traced round.  Counts and ratios come from the
    first `QUALITY_ROUNDS` traced rounds only, so they are the same for
    every run with the same seed.
    """
    spans = tracer.spans
    own = self_times(spans)
    strategy_of = {c.campaign_id: c.strategy
                   for r in traced for c in r.campaigns}
    n = len(traced)
    counted = traced[:QUALITY_ROUNDS]
    per_round = len(counted)
    counted_ids = {c.campaign_id for r in counted for c in r.campaigns}
    calls: dict[tuple[str, str], int] = defaultdict(int)
    timed_calls: dict[tuple[str, str], int] = defaultdict(int)
    self_s: dict[tuple[str, str], float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for span, seconds in zip(spans, own):
        scope = strategy_of.get(span.campaign, "workload")
        timed_calls[(scope, span.name)] += 1
        self_s[(scope, span.name)] += seconds
        if span.campaign in counted_ids:
            calls[(scope, span.name)] += 1
        if span.name == "evm.execute_transaction":
            durations[scope].append(span.duration)
    counts: dict[tuple[str, str], int] = defaultdict(int)
    for (campaign, name), amount in tracer.counts.items():
        if campaign in counted_ids:
            counts[(strategy_of[campaign], name)] += amount
    admitted: dict[str, int] = defaultdict(int)
    sites: dict[str, int] = defaultdict(int)
    for r in counted:
        for campaign_id, amount in r.admitted.items():
            admitted[strategy_of[campaign_id]] += amount
        for campaign_id, amount in r.sites.items():
            sites[strategy_of[campaign_id]] += amount

    out: dict[str, float] = {}
    for key in STRATEGY_KEYS:
        def c(name: str) -> int:
            return calls[(key, name)]

        def per(name: str) -> float:
            return calls[(key, name)] / per_round

        def t(name: str) -> float:
            return self_s[(key, name)] / n

        def k(name: str) -> int:
            return counts[(key, name)]

        tx = c("evm.execute_transaction")
        hashes = c("keccak.keccak256")
        augments = c("cfg.augment_edges")
        values = {
            "evm.execute_transaction.calls": per("evm.execute_transaction"),
            "evm.execute_transaction.self_s": t("evm.execute_transaction"),
            "evm.execute_transaction.p50_us": _percentile_us(
                durations[key], 0.50),
            "evm.execute_transaction.p99_us": _percentile_us(
                durations[key], 0.99),
            "evm.success_ratio": _ratio(k("evm.tx_status.Success"), tx),
            "evm.pcs_per_tx": _ratio(k("evm.pcs"), tx),
            "keccak.keccak256.calls": per("keccak.keccak256"),
            "keccak.keccak256.self_s": t("keccak.keccak256"),
            "keccak.keccak256.us_per_call": _ratio(
                self_s[(key, "keccak.keccak256")],
                timed_calls[(key, "keccak.keccak256")]) * 1e6,
            "keccak.bytes_per_call": _ratio(k("keccak.bytes"), hashes),
            "keccak.repeat_ratio": _ratio(k("keccak.repeats"), hashes),
            "cfg.augment_edges.calls": per("cfg.augment_edges"),
            "cfg.augment_edges.self_s": t("cfg.augment_edges"),
            "cfg.refinements": k("cfg.refinements") / per_round,
            "cfg.refine_ratio": _ratio(k("cfg.refinements"), augments),
            "cfg.distance_map.calls": per("cfg.distance_map"),
            "cfg.distance_map.self_s": t("cfg.distance_map"),
            "abi.encode_call.calls": per("abi.encode_call"),
            "abi.encode_call.self_s": t("abi.encode_call"),
            "abi.generate_value.self_s": t("abi.generate_value"),
            "abi.mutate_value.self_s": t("abi.mutate_value"),
            "fuzzer.run_campaign.self_s": t("fuzzer.run_campaign"),
            "fuzzer.mutate_seed.self_s": t("fuzzer.mutate_seed"),
            "fuzzer.select_seed.self_s": t("fuzzer.select_seed"),
            "fuzzer.admit_ratio": _ratio(admitted[key],
                                         c("fuzzer.mutate_seed")),
            "oracles.detect_trace.calls": per("oracles.detect_trace"),
            "oracles.detect_trace.self_s": t("oracles.detect_trace"),
            "oracles.site_ratio": _ratio(sites[key],
                                         k("oracles.raw_findings")),
        }
        for status in TX_STATUSES:
            name = f"evm.tx_status.{status}"
            values[name] = k(name) / per_round
        out.update({f"{key}.{name}": value for name, value in values.items()})

    for name in ("cfg.build_cfg", "evm.deploy_contract",
                 "harness.load_benchmark", "harness.prepare_target",
                 "harness.score_results", "harness.emit_report"):
        out[f"{name}.self_s"] = self_s[("workload", name)] / n
    # fixtures are assembled once per run, when the workload is regenerated
    out["microbench.all_fixtures.self_s"] = self_s[
        ("workload", "microbench.all_fixtures")]
    out["cfg.blocks"] = traced[0].blocks
    out["cfg.unresolved"] = traced[0].unresolved
    out["calibration.spread"] = bench.calibrator.spread()
    untraced_rates, traced_rates = exec_rates(plain), exec_rates(traced)
    for key in STRATEGY_KEYS:
        out[f"trace.overhead.{key}"] = _ratio(traced_rates[key][0],
                                              untraced_rates[key][0])
    return out


