#!/usr/bin/env python3
"""Before/after benchmark pairs: a base revision against the working tree.

    python3 scripts/bench_pairs.py --base HEAD --workload wide-cfg \\
        --seeds 21-30 --seconds 30 --out BENCH.json

Unpacks the base revision with `git archive` into a temporary directory
and runs `bench/run.py --trace 0` there and in this checkout once per
seed, alternating which side runs first so that slow drift of the host
does not favour one side.  Each run's end-to-end metrics come from the
last JSON line it prints, its report digest from the `results.json` it
writes.  The summary gives, per metric, the base and change medians, the
base quartiles, how many pairs the change won (strictly better, in the
direction `BENCHMARK.json` gives) and a verdict, and the Python version,
since timings compare only within one version; it is printed as the last
line and written to `--out` when given.  A metric's verdict is `gain` when
the change won at least nine tenths of the pairs and its median is better
than the base median by more than the base's interquartile range, `worse`
when its median is worse than the base median by more than the metric's
`bound` in `BENCHMARK.json` (a fraction of the base median), and `flat`
otherwise.  The exit code is 1 when a run failed a
correctness check or the two sides' reports differ on some seed.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")


def parse_seeds(text: str) -> list[int]:
    """`A-B` (inclusive) or a single seed."""
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run: its metrics, correctness and report digest."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{root}: bench/run.py exited {done.returncode} "
                           f"without a summary\n{done.stderr}")
    summary = json.loads(lines[-1])
    results = root / "bench" / "out" / workload / f"seed-{seed}" / "results.json"
    return {
        "correct": summary["correct"] and done.returncode == 0,
        "failed": summary["failed"],
        "report_sha256": json.loads(results.read_text())["report_sha256"],
        "metrics": {name: entry["value"]
                    for name, entry in summary["metrics"].items()},
    }


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(sign: int, base_median: float, change_median: float,
            spread: float, wins: int, pairs: int,
            bound: float | None) -> str:
    """`gain`, `worse` or `flat` for one metric; `sign` is 1 when higher
    is better and -1 when lower is, and `spread` the base's q3 - q1."""
    gain = sign * (change_median - base_median)
    if 10 * wins >= 9 * pairs and gain > spread:
        return "gain"
    if bound is not None and -gain > bound * abs(base_median):
        return "worse"
    return "flat"


def summarize(pairs: list[dict], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """Per-metric medians, base quartiles, win counts and verdicts over
    the pairs.

    Each pair holds a `base` and a `change` run as `run_bench` returns
    them.  `better` maps a metric name to "higher" or "lower"; a metric
    without a direction gets no win count and no verdict.  `bounds` maps
    a metric name to the fraction of its base median by which the change
    median may be worse; a metric without one is never `worse`.
    """
    bounds = bounds or {}
    metrics = {}
    for name in pairs[0]["base"]["metrics"]:
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        q1, q3 = _quartiles(base)
        direction = better.get(name)
        sign = {"higher": 1, "lower": -1}.get(direction)
        base_median = statistics.median(base)
        change_median = statistics.median(change)
        wins = None if sign is None else sum(
            sign * (c - b) > 0 for b, c in zip(base, change))
        metrics[name] = {
            "better": direction,
            "base_median": base_median,
            "change_median": change_median,
            "base_q1": q1,
            "base_q3": q3,
            "wins": wins,
            "verdict": None if sign is None else verdict(
                sign, base_median, change_median, q3 - q1, wins,
                len(pairs), bounds.get(name)),
        }
    return {
        "pairs": len(pairs),
        "report_sha256_match": all(
            p["base"]["report_sha256"] == p["change"]["report_sha256"]
            for p in pairs),
        "correct": all(p[side]["correct"] for p in pairs for side in SIDES),
        "metrics": metrics,
    }


def _declared(root: Path) -> tuple[dict[str, str], dict[str, float]]:
    """Each end-to-end metric's direction and bound in `BENCHMARK.json`."""
    declared = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    return ({m["name"]: m["better"] for m in declared},
            {m["name"]: m["bound"] for m in declared if "bound" in m})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, metavar="REV")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, metavar="A-B")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path, metavar="FILE")
    args = parser.parse_args(argv)

    revision = subprocess.run(
        ["git", "rev-parse", "--verify", f"{args.base}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-base-") as base_root:
        archive = subprocess.Popen(["git", "archive", revision], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", base_root], stdin=archive.stdout,
                       check=True)
        if archive.wait():
            raise RuntimeError(f"git archive {revision} failed")
        roots = {"base": Path(base_root), "change": ROOT}
        for index, seed in enumerate(parse_seeds(args.seeds)):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_bench(roots[side], args.workload, seed,
                                       args.seconds)
            pairs.append(pair)
            print(f"seed {seed} done, {order[0]} first", file=sys.stderr)

    summary = {"base": revision, "python": platform.python_version(),
               "workload": args.workload,
               "seconds": args.seconds,
               **summarize(pairs, *_declared(ROOT)), "runs": pairs}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps({k: v for k, v in summary.items() if k != "runs"}))
    return 0 if summary["correct"] and summary["report_sha256_match"] else 1


if __name__ == "__main__":
    sys.exit(main())
