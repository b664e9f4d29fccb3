"""Command-line front end: run, bench, score, and cfg subcommands.

Exit codes: 0 on success, 1 on usage errors, 2 on I/O or data errors.
The DOGE_LOG environment variable selects log verbosity (debug, info,
warning, error); the default is warning.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from pathlib import Path

from .cfg import build_cfg, critical_sites, distance_map, to_dot
from .evm import DeploymentError
from .fuzzer import CampaignConfig, Strategy
from .harness import (
    BundleError,
    emit_report,
    load_benchmark,
    load_bundle,
    run_benchmark,
    score_results,
)
from .oracles import BugFinding, CoarseClass, FineBugClass

logger = logging.getLogger(__name__)

STRATEGIES = {
    "blackbox": Strategy.BLACKBOX,
    "greybox": Strategy.GREYBOX,
    "directed": Strategy.DIRECTED,
}


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures reported as exit code 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_budget(text: str) -> tuple[int | None, float | None]:
    """'5000' or '5000iter' -> iterations; '90s' -> wall-clock seconds."""
    raw = text.strip().lower()
    try:
        if raw.endswith("iter"):
            iterations, seconds = int(raw[: -len("iter")]), None
        elif raw.endswith("s"):
            iterations, seconds = None, float(raw[:-1])
        else:
            iterations, seconds = int(raw), None
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"budget {text!r} is neither an iteration count nor seconds")
    if iterations is not None and iterations <= 0:
        raise argparse.ArgumentTypeError("iteration budget must be positive")
    if seconds is not None and not 0 < seconds < math.inf:
        raise argparse.ArgumentTypeError(
            "time budget must be a positive, finite number of seconds")
    return iterations, seconds


def _campaign_config(args: argparse.Namespace) -> CampaignConfig:
    iterations, seconds = args.budget
    return CampaignConfig(
        strategy=STRATEGIES[args.strategy],
        budget=iterations,
        seconds=seconds,
        rng_seed=args.rng_seed,
    )


# --- subcommand handlers --------------------------------------------------

def _cmd_run(args: argparse.Namespace) -> int:
    bundle = load_bundle(args.bundle)
    config = _campaign_config(args)
    reports, failures = run_benchmark([bundle], config)
    if failures:
        print(f"error: {failures[0][0]}: {failures[0][1]}", file=sys.stderr)
        return 2
    metrics = None
    if bundle.labels:
        metrics = score_results(
            {bundle.name: [row[1] for row in reports[0].result.findings]},
            {bundle.name: bundle.labels},
        )
    emit_report(reports, metrics, args.out)
    result = reports[0].result
    print(f"{bundle.name}: {result.executions} executions, "
          f"{len(result.findings)} finding sites, "
          f"coverage {result.final_coverage:.3f}, report in {args.out}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    skipped: list[tuple[str, str]] = []
    bundles = load_benchmark(args.dir, skipped)
    config = _campaign_config(args)
    reports, failures = run_benchmark(bundles, config)
    skipped.extend(failures)
    metrics = score_results(
        {r.contract: [row[1] for row in r.result.findings] for r in reports},
        {b.name: b.labels for b in bundles},
    )
    emit_report(reports, metrics, args.out)
    found = sum(len(r.result.findings) for r in reports)
    print(f"{len(reports)} contracts fuzzed, {len(skipped)} skipped, "
          f"{found} finding sites, report in {args.out}")
    for name, reason in skipped:
        print(f"  skipped {name}: {reason}")
    return 0


def _parse_report_findings(
    document: dict,
) -> dict[str, dict[str, list[BugFinding]]]:
    """Findings per strategy per contract out of a report.json payload."""
    by_strategy: dict[str, dict[str, list[BugFinding]]] = {}
    for campaign in document["campaigns"]:
        per_contract = by_strategy.setdefault(campaign["strategy"], {})
        rows = per_contract.setdefault(campaign["contract"], [])
        rows.extend(BugFinding(FineBugClass(entry["fine"]), entry["pc"])
                    for entry in campaign["findings"])
    return by_strategy


def _cmd_score(args: argparse.Namespace) -> int:
    try:
        document = json.loads(Path(args.report).read_text())
        by_strategy = _parse_report_findings(document)
    # not UTF-8, not JSON, nested past the recursion limit, or not a report
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        print(f"error: malformed report: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    bundles = load_benchmark(args.labels, skipped=[])
    labels = {b.name: b.labels for b in bundles}
    for strategy in sorted(by_strategy):
        findings = by_strategy[strategy]
        for name in labels:
            findings.setdefault(name, [])
        metrics = score_results(findings, labels)
        print(f"strategy {strategy}")
        print(f"{'class':<6}{'tp':>4}{'fp':>4}{'fn':>4}"
              f"{'precision':>11}{'recall':>8}{'f1':>7}")
        for cls in CoarseClass:
            m = metrics[cls]
            print(f"{cls.value:<6}{m.tp:>4}{m.fp:>4}{m.fn:>4}"
                  f"{m.precision:>11.3f}{m.recall:>8.3f}{m.f1:>7.3f}")
    return 0


def _cmd_cfg(args: argparse.Namespace) -> int:
    try:
        code = bytes.fromhex(Path(args.code).read_text().strip())
    except ValueError as exc:  # not UTF-8, or not hex
        print(f"error: {args.code}: {exc}", file=sys.stderr)
        return 2
    graph = build_cfg(code)
    sites = critical_sites(graph)
    if args.dot:
        Path(args.dot).write_text(to_dot(graph))
    if args.distances:
        hops = distance_map(graph, sites)
        with Path(args.distances).open("w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["pc", "distance"])
            for pc in sorted(graph.pcs):
                value = hops.get(graph.block_at(pc).start, "Unreachable")
                writer.writerow([pc, value])
    print(f"{len(graph.blocks)} blocks, {len(graph.edges)} edges, "
          f"{len(graph.unresolved)} unresolved, {len(sites)} critical sites")
    return 0


# --- argument plumbing ----------------------------------------------------

def _add_campaign_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--strategy", choices=sorted(STRATEGIES),
                        default="greybox")
    parser.add_argument("--budget", type=_parse_budget, default=(1000, None),
                        metavar="N|Ns",
                        help="iteration count (N or Niter) or seconds (Ns)")
    parser.add_argument("--rng-seed", type=int, default=0, metavar="N")
    parser.add_argument("--out", required=True, metavar="DIR",
                        help="directory for report.json and CSV output")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dogefuzz", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="fuzz a single contract bundle")
    run.add_argument("--bundle", required=True, metavar="DIR")
    _add_campaign_flags(run)
    run.set_defaults(handler=_cmd_run)

    bench = commands.add_parser("bench",
                                help="fuzz every bundle in a benchmark")
    bench.add_argument("--dir", required=True, metavar="DIR")
    _add_campaign_flags(bench)
    bench.set_defaults(handler=_cmd_bench)

    score = commands.add_parser("score",
                                help="score a report against labels")
    score.add_argument("--report", required=True, metavar="FILE")
    score.add_argument("--labels", required=True, metavar="DIR",
                       help="benchmark directory carrying labels.json files")
    score.set_defaults(handler=_cmd_score)

    cfg = commands.add_parser("cfg",
                              help="recover a control-flow graph from code")
    cfg.add_argument("--code", required=True, metavar="FILE",
                     help="bytecode as hex text")
    cfg.add_argument("--dot", metavar="FILE", help="write Graphviz output")
    cfg.add_argument("--distances", metavar="FILE",
                     help="write per-pc distances to critical sites as CSV")
    cfg.set_defaults(handler=_cmd_cfg)
    return parser


def _configure_logging() -> None:
    name = os.environ.get("DOGE_LOG", "warning").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.handler(args)
    except (OSError, BundleError, DeploymentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
