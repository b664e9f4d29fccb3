#!/usr/bin/env python3
"""dogefuzz benchmark: executions per second, detection quality, per-layer cost.

    python3 bench/run.py --workload micro-corpus --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the program from its
`src/`.  One process, one thread, closed loop: each campaign runs to its
fixed execution budget before the next one starts.

Workloads come from the seed alone (see `workloads.py`).  A run repeats
rounds of every contract under every strategy (see `measure.py`) until
`--seconds` have passed, and completes at least `QUALITY_ROUNDS` rounds.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates untraced
rounds with traced replays of them, prints the per-layer metrics of the
traced ones and writes every span to `bench/out/.../spans.csv.gz`.  Each
run also writes `results.json` beside its bundles and report, with the raw
(uncalibrated) timings, the calibration samples and the report digests.
The last line of standard output is one JSON object; the exit code is 1
when a correctness check failed and 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"


def _parse(argv: list[str] | None, workloads: tuple[str, ...]
           ) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "dogefuzz" / "__init__.py").is_file():
        print(f"error: no dogefuzz sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import calibration
    import measure
    import workloads

    args = _parse(argv, workloads.NAMES)
    out = OUT / args.workload / f"seed-{args.seed}"
    try:
        bench = measure.Bench(args.workload, args.seed, out)
    except workloads.WorkloadError as exc:
        print(f"error: workload self-check failed: {exc}", file=sys.stderr)
        return 1

    raw: dict[str, float] = {}
    if args.trace:
        plain, traced, tracer = bench.run_traced(args.seconds)
        rounds = plain + traced
        metrics = measure.per_layer(bench, plain, traced, tracer)
        units = measure.per_layer_units()
        tracer.write(out / "spans.csv.gz")
        digest = measure.report_digest(plain)
    else:
        rounds = bench.run_untraced(args.seconds)
        metrics, raw = measure.end_to_end(rounds)
        units = dict(measure.END_TO_END)
        digest = measure.report_digest(rounds)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    samples = bench.calibrator.samples
    calibration_doc = {
        "nominal_s": calibration.NOMINAL_S,
        "median_s": statistics.median(samples),
        "spread": bench.calibrator.spread(),
        "samples": len(samples),
    }
    results = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "budget": bench.budget,
        "rounds": len(rounds),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "report_sha256": digest,
        "metrics": metrics,
        "raw": raw,
        "calibration": calibration_doc,
        "per_round": [measure.round_document(r) for r in rounds],
        "problems": bench.problems,
        "failures": bench.failures,
    }
    (out / "results.json").write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} campaigns at {bench.budget} executions, "
          f"{failed} failed, report sha256 {digest[:16]}")
    print(f"calibration: median {calibration_doc['median_s'] * 1e3:.3f} ms "
          f"(nominal {calibration.NOMINAL_S * 1e3:.3f} ms), spread "
          f"{calibration_doc['spread']:.3f} over {len(samples)} samples")
    for name, value in metrics.items():
        extra = f"  (raw {raw[name]:.6g})" if name in raw else ""
        print(f"{name:44s} {value:14.6g} {units[name]}{extra}")
    for message in bench.problems:
        print(f"CHECK FAILED: {message}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if bench.problems else 0


if __name__ == "__main__":
    sys.exit(main())
