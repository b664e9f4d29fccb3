#!/usr/bin/env python3
"""Keccak layer benchmark: a base revision against the working tree.

    python3 scripts/bench_keccak.py --base HEAD --repeat 11 --out BENCH.json

Unpacks the base revision with `git archive` into a temporary directory
and times `dogefuzz.keccak` of each side in a process of its own, `--repeat`
times per side, alternating which side runs first.  A side's figures are
microseconds per `_keccak_f1600` permutation and per uncached hash of
fresh 32-, 64-, 136-, 137- and 4096-byte inputs through `_sponge`, which
the memo of `keccak256` never sees; each is the best of a few timed
batches.  Each side also hashes its permuted state and all its digests
into one SHA-256, its `report_sha256`, which both sides must agree on.
The summary has the shape `scripts/bench_pairs.py` gives: per figure, the
base and change medians, the base quartiles and how many pairs the change
won, and here also the base-to-change speedup of the medians; it is
printed as one JSON line and written to `--out` when given.  The exit code
is 1 when the two sides' digests differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import random
import subprocess
import sys
import tempfile
import timeit
from pathlib import Path

from bench_pairs import summarize

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")
SIZES = (32, 64, 136, 137, 4096)
BATCHES = 3


def measure(src: Path) -> dict:
    """One side's figures and digest, with `dogefuzz` imported from `src`."""
    sys.path.insert(0, str(src))
    from dogefuzz import keccak

    if not Path(keccak.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported {keccak.__file__}, not the one under {src}")
    rng = random.Random(1600)
    digest = hashlib.sha256()
    state = [rng.getrandbits(64) for _ in range(25)]
    keccak._keccak_f1600(state)
    digest.update(repr(state).encode())
    calls = 200
    best = min(timeit.repeat(lambda: keccak._keccak_f1600(state),
                             number=calls, repeat=BATCHES))
    metrics = {"permutation_us": best / calls * 1e6}
    for size in SIZES:
        inputs = [rng.randbytes(size) for _ in range(max(4, 6400 // size))]
        digests = [keccak._sponge(message) for message in inputs]
        digest.update(b"".join(digests))
        best = min(timeit.repeat(
            lambda: [keccak._sponge(message) for message in inputs],
            number=1, repeat=BATCHES))
        metrics[f"sponge_{size}_us"] = best / len(inputs) * 1e6
    return {"correct": True, "failed": 0, "report_sha256": digest.hexdigest(),
            "metrics": metrics}


def _run_side(root: Path) -> dict:
    done = subprocess.run(
        [sys.executable, __file__, "--measure", str(root / "src")],
        capture_output=True, text=True, check=False)
    if done.returncode:
        raise RuntimeError(f"{root}: exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="REV")
    parser.add_argument("--repeat", type=int, default=11, metavar="N")
    parser.add_argument("--out", type=Path, metavar="FILE")
    parser.add_argument("--measure", type=Path, metavar="SRC",
                        help="print the figures of one side, whose "
                             "`dogefuzz` is under SRC, as JSON")
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return 0
    if args.base is None:
        parser.error("--base is required")

    revision = subprocess.run(
        ["git", "rev-parse", "--verify", f"{args.base}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-keccak-") as base_root:
        archive = subprocess.Popen(["git", "archive", revision], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", base_root], stdin=archive.stdout,
                       check=True)
        if archive.wait():
            raise RuntimeError(f"git archive {revision} failed")
        roots = {"base": Path(base_root), "change": ROOT}
        for index in range(args.repeat):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                pair[side] = _run_side(roots[side])
            pairs.append(pair)

    summary = summarize(pairs, {name: "lower"
                                for name in pairs[0]["base"]["metrics"]})
    for entry in summary["metrics"].values():
        entry["speedup"] = entry["base_median"] / entry["change_median"]
    summary = {"base": revision, "python": platform.python_version(),
               **summary, "runs": pairs}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps({k: v for k, v in summary.items() if k != "runs"}))
    return 0 if summary["report_sha256_match"] else 1


if __name__ == "__main__":
    sys.exit(main())
