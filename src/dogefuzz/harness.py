"""Benchmark bundles: loading, campaign orchestration, scoring, reports.

A benchmark is a directory holding one sub-directory per contract:

    <dir>/<name>/manifest.json   {"name": str, "mode": "runtime"|"creation",
                                  "constructor_args": hex string,
                                  "initial_balance": int}
    <dir>/<name>/code.hex        bytecode as hex, one line
    <dir>/<name>/abi.json        standard contract interface JSON
    <dir>/<name>/labels.json     optional, {"bugs": [fine class names]}

Malformed bundles are skipped with a named reason rather than aborting the
whole run.  Scoring matches findings to labels per contract at taxonomy
granularity (RE / ME / BD) with multiplicity: each label consumes at most
one distinct finding site of its class, leftovers on either side count as
false negatives or false positives.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from pathlib import Path

from .abi import AbiError, FunctionSpec, parse_abi
from .cfg import build_cfg
from .evm import (
    AGENT_ADDRESS,
    DEPLOYER_ADDRESS,
    EOA_ADDRESS,
    MAX_REENTRIES,
    ZERO_ADDRESS,
    DeploymentError,
    WorldState,
    deploy_contract,
)
from .fuzzer import (
    COVERAGE_SAMPLE_INTERVAL,
    MUTANTS_PER_CYCLE,
    CampaignConfig,
    CampaignResult,
    FuzzTarget,
    Seed,
    run_campaign,
)
from .oracles import CLASSIFICATION, BugFinding, CoarseClass, FineBugClass

logger = logging.getLogger(__name__)

# wei granted to the deployer and the agent before any campaign
FUNDING = 10 ** 18


class BundleError(ValueError):
    """A contract bundle on disk is malformed."""


# --- bundle loading -------------------------------------------------------

@dataclass(frozen=True)
class TargetBundle:
    """One benchmark contract as stored on disk."""

    name: str
    code: bytes
    mode: str                                   # "runtime" | "creation"
    specs: tuple[FunctionSpec, ...]
    constructor_args: bytes = b""
    initial_balance: int = 0
    fine_labels: tuple[FineBugClass, ...] = ()  # one per planted bug

    @property
    def labels(self) -> tuple[CoarseClass, ...]:
        """Taxonomy class of each planted bug."""
        return tuple(CLASSIFICATION[fine][1] for fine in self.fine_labels)


def _read_json(path: Path) -> object:
    if not path.is_file():
        raise BundleError(f"{path.name} missing")
    try:
        return json.loads(path.read_text())
    # unreadable, undecodable, not JSON, or nested past the recursion limit
    except (OSError, ValueError, RecursionError) as exc:
        raise BundleError(f"{path.name}: {exc}") from exc


def load_bundle(directory: str | Path) -> TargetBundle:
    """Parse and validate one contract sub-directory."""
    directory = Path(directory)
    manifest = _read_json(directory / "manifest.json")
    if not isinstance(manifest, dict):
        raise BundleError("manifest.json: expected an object")

    mode = manifest.get("mode", "runtime")
    if mode not in ("runtime", "creation"):
        raise BundleError(f"manifest.json: unknown mode {mode!r}")
    try:
        constructor_args = bytes.fromhex(manifest.get("constructor_args", ""))
    except (TypeError, ValueError) as exc:
        raise BundleError("manifest.json: constructor_args is not hex") from exc
    balance = manifest.get("initial_balance", 0)
    # a JSON boolean is a Python int too
    if type(balance) is not int or balance < 0:
        raise BundleError("manifest.json: initial_balance must be a count")
    name = manifest.get("name", directory.name)
    if not isinstance(name, str) or not name:
        raise BundleError("manifest.json: name must be a non-empty string")

    code_path = directory / "code.hex"
    if not code_path.is_file():
        raise BundleError("code.hex missing")
    try:
        code = bytes.fromhex(code_path.read_text().strip())
    except ValueError as exc:
        raise BundleError(f"code.hex: {exc}") from exc
    if not code:
        raise BundleError("code.hex is empty")

    raw_abi = _read_json(directory / "abi.json")
    if not isinstance(raw_abi, list) or not all(
            isinstance(entry, dict) for entry in raw_abi):
        raise BundleError("abi.json: expected a list of interface entries")
    try:
        specs = tuple(parse_abi(raw_abi))
    except AbiError as exc:
        raise BundleError(f"abi.json: {exc}") from exc
    if all(spec.is_view for spec in specs):
        raise BundleError("abi.json: no state-changing entry points")

    fine_labels: list[FineBugClass] = []
    label_path = directory / "labels.json"
    if label_path.is_file():
        raw_labels = _read_json(label_path)
        if (not isinstance(raw_labels, dict)
                or not isinstance(raw_labels.get("bugs"), list)):
            raise BundleError('labels.json: expected {"bugs": [...]}')
        for item in raw_labels["bugs"]:
            try:
                fine_labels.append(FineBugClass(item))
            except ValueError as exc:
                raise BundleError(
                    f"labels.json: unknown bug class {item!r}") from exc

    return TargetBundle(
        name=name,
        code=code,
        mode=mode,
        specs=specs,
        constructor_args=constructor_args,
        initial_balance=balance,
        fine_labels=tuple(fine_labels),
    )


def load_benchmark(
    directory: str | Path,
    skipped: list[tuple[str, str]] | None = None,
) -> list[TargetBundle]:
    """Load every contract bundle under `directory`, in name order.

    Malformed bundles, and every bundle whose name repeats an earlier
    one's, are logged and appended to `skipped` as (directory name,
    reason) when a list is supplied.  An empty benchmark directory is an
    error; individual bad bundles are not.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"benchmark directory {directory} not found")
    subdirs = sorted(p for p in directory.iterdir() if p.is_dir())
    if not subdirs:
        raise BundleError(f"no contract sub-directories under {directory}")

    bundles: list[TargetBundle] = []
    first_dir: dict[str, str] = {}  # bundle name -> directory that has it
    for subdir in subdirs:
        try:
            bundle = load_bundle(subdir)
            if bundle.name in first_dir:
                raise BundleError(f"name {bundle.name!r} repeats the bundle "
                                  f"in {first_dir[bundle.name]}")
            first_dir[bundle.name] = subdir.name
            bundles.append(bundle)
        except BundleError as exc:
            logger.warning("skipping bundle %s: %s", subdir.name, exc)
            if skipped is not None:
                skipped.append((subdir.name, str(exc)))
    logger.info("loaded %d bundles from %s (%d skipped)",
                len(bundles), directory,
                len(subdirs) - len(bundles))
    return bundles


# --- deployment -----------------------------------------------------------

def prepare_target(bundle: TargetBundle) -> FuzzTarget:
    """Deploy a bundle into a fresh world and wrap it for fuzzing.

    Raises DeploymentError when creation-mode init code halts abnormally.
    """
    state = WorldState()
    state.account(DEPLOYER_ADDRESS).balance = FUNDING + bundle.initial_balance
    state.account(AGENT_ADDRESS).balance = FUNDING
    address = deploy_contract(
        state,
        bundle.code,
        mode=bundle.mode,
        constructor_args=bundle.constructor_args,
        endowment=bundle.initial_balance,
    )
    return FuzzTarget(
        name=bundle.name,
        address=address,
        state=state,
        specs=bundle.specs,
        cfg=build_cfg(state.code_of(address)),
        pools=(address, AGENT_ADDRESS, EOA_ADDRESS, ZERO_ADDRESS),
    )


# --- orchestration --------------------------------------------------------

@dataclass(frozen=True)
class ContractReport:
    """One finished campaign plus the identity needed to report it."""

    contract: str
    result: CampaignResult
    config: CampaignConfig


def run_benchmark(
    bundles: list[TargetBundle],
    config: CampaignConfig,
) -> tuple[list[ContractReport], list[tuple[str, str]]]:
    """Fuzz every bundle with one shared config.

    Returns the finished reports and a list of (name, reason) for bundles
    that could not be deployed; any other fault propagates.
    """
    reports: list[ContractReport] = []
    failures: list[tuple[str, str]] = []
    for bundle in bundles:
        try:
            target = prepare_target(bundle)
            result = run_campaign(target, config)
        except DeploymentError as exc:
            logger.warning("campaign on %s failed: %s", bundle.name, exc)
            failures.append((bundle.name, str(exc)))
            continue
        reports.append(ContractReport(bundle.name, result, config))
    return reports, failures


# --- scoring --------------------------------------------------------------

@dataclass(frozen=True)
class Metrics:
    """Detection quality counts for one taxonomy class."""

    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        return 1.0 if self.tp + self.fp == 0 else self.tp / (self.tp + self.fp)

    @property
    def recall(self) -> float:
        return 1.0 if self.tp + self.fn == 0 else self.tp / (self.tp + self.fn)

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def score_results(
    findings_by_contract: dict[str, list[BugFinding]],
    labels_by_contract: dict[str, tuple[CoarseClass, ...]],
) -> dict[CoarseClass, Metrics]:
    """Match findings against labels per contract, taxonomy class by class.

    Each label of a class is consumed by at most one distinct finding site
    (fine class, pc) of that class; unmatched labels count as false
    negatives, unconsumed sites as false positives.  Totals are symmetric
    in contract and finding order.
    """
    totals = {cls: [0, 0, 0] for cls in CoarseClass}       # tp, fp, fn
    for contract in set(findings_by_contract) | set(labels_by_contract):
        sites = {(f.fine, f.pc) for f in findings_by_contract.get(contract, [])}
        labels = labels_by_contract.get(contract, ())
        for cls in CoarseClass:
            found = sum(1 for fine, _ in sites
                        if CLASSIFICATION[fine][1] is cls)
            wanted = sum(1 for label in labels if label is cls)
            matched = min(found, wanted)
            totals[cls][0] += matched
            totals[cls][1] += found - matched
            totals[cls][2] += wanted - matched
    return {cls: Metrics(tp, fp, fn) for cls, (tp, fp, fn) in totals.items()}


# --- report emission ------------------------------------------------------

def _config_document(config: CampaignConfig) -> dict:
    return {
        "strategy": config.strategy.value,
        "budget": config.budget,
        "seconds": config.seconds,
        "rng_seed": config.rng_seed,
        "mutants_per_cycle": MUTANTS_PER_CYCLE,
        "coverage_sample_interval": COVERAGE_SAMPLE_INTERVAL,
        "max_reentries": MAX_REENTRIES,
        "stop_classes": sorted(cls.value for cls in config.stop_classes),
    }


def _finding_document(tick: int, finding: BugFinding, seed: Seed) -> dict:
    return {
        "fine": finding.fine.value,
        "swc": finding.swc,
        "class": finding.coarse.value,
        "pc": finding.pc,
        "first_hit": tick,
        "reproducer": {
            "function": seed.spec.signature,
            "calldata": seed.calldata.hex(),
            "value": seed.value,
            "agent_policy": seed.policy.value,
            "block": {
                "number": seed.block.number,
                "timestamp": seed.block.timestamp,
            },
        },
    }


def report_document(
    reports: list[ContractReport],
    metrics: dict[CoarseClass, Metrics] | None = None,
) -> dict:
    """The report.json payload as a plain dict, fully deterministic."""
    campaigns = []
    for item in sorted(reports,
                       key=lambda r: (r.contract, r.result.strategy.value)):
        campaigns.append({
            "contract": item.contract,
            "strategy": item.result.strategy.value,
            "config": _config_document(item.config),
            "executions": item.result.executions,
            "final_coverage": item.result.final_coverage,
            "findings": [_finding_document(tick, finding, seed)
                         for tick, finding, seed in item.result.findings],
        })
    document = {"campaigns": campaigns}
    if metrics is not None:
        document["metrics"] = {
            cls.value: {
                "tp": m.tp, "fp": m.fp, "fn": m.fn,
                "precision": m.precision,
                "recall": m.recall,
                "f1": m.f1,
            }
            for cls, m in sorted(metrics.items(), key=lambda kv: kv[0].value)
        }
    return document


def emit_report(
    reports: list[ContractReport],
    metrics: dict[CoarseClass, Metrics] | None,
    out_dir: str | Path,
) -> tuple[Path, Path, Path]:
    """Write report.json, coverage.csv, and bugs.csv under `out_dir`.

    Identical campaigns produce byte-identical files; all numbers are
    rendered locale-independently.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ordered = sorted(reports,
                     key=lambda r: (r.contract, r.result.strategy.value))

    report_path = out_dir / "report.json"
    report_path.write_text(
        json.dumps(report_document(ordered, metrics),
                   indent=2, sort_keys=True) + "\n")

    coverage_path = out_dir / "coverage.csv"
    with coverage_path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["contract", "strategy", "tick", "coverage"])
        for item in ordered:
            for tick, ratio in item.result.coverage_curve:
                writer.writerow(
                    [item.contract, item.result.strategy.value, tick,
                     repr(ratio)])

    bugs_path = out_dir / "bugs.csv"
    with bugs_path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["contract", "strategy", "class", "fine", "pc", "first_hit_tick"])
        for item in ordered:
            for tick, finding, _ in item.result.findings:
                writer.writerow(
                    [item.contract, item.result.strategy.value,
                     finding.coarse.value, finding.fine.value, finding.pc,
                     tick])

    logger.info("report written to %s", out_dir)
    return report_path, coverage_path, bugs_path
