#!/usr/bin/env python3
"""Differential check of the interpreter: a base revision against the working tree.

    python3 scripts/evm_diff.py --base HEAD --programs 10000 --out DIFF.json

Unpacks the base revision with `git archive` into a temporary directory.
Both sides then run the same seeded random programs, seeds 0 to N-1, drawn
by `tests/evm_programs.py` of this checkout: each side in a process of its
own, importing `dogefuzz` from its own `src`.  Every program's status, gas
used, events, block runs, transitions, return data and world state are
hashed field by field.  The summary counts the programs whose hashes
differ, grouped by their first differing field, with example seeds; it is
printed as the last line and written to `--out` when given.  The exit code
is 1 when some program differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")
EXAMPLES = 5


def digest_programs(src: Path, programs: int) -> list[dict[str, str]]:
    """The field hashes of programs 0 to `programs`-1 under `src`'s
    interpreter; runs in the worker process of one side."""
    sys.path[:0] = [str(src), str(ROOT / "tests")]
    import dogefuzz
    import evm_programs

    if not Path(dogefuzz.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported {dogefuzz.__file__}, not the one under {src}")
    return [evm_programs.digests(evm_programs.generate(seed))
            for seed in range(programs)]


def compare(base: list[dict[str, str]], change: list[dict[str, str]]) -> dict:
    """Differing programs, grouped by their first differing field."""
    by_field: dict[str, list[int]] = {}
    for seed, (old, new) in enumerate(zip(base, change, strict=True)):
        differing = [name for name in old if old[name] != new[name]]
        if differing:
            by_field.setdefault(differing[0], []).append(seed)
    return {
        "programs": len(base),
        "differing": sum(len(seeds) for seeds in by_field.values()),
        "first_differing_field": {
            name: {"programs": len(seeds), "example_seeds": seeds[:EXAMPLES]}
            for name, seeds in by_field.items()},
    }


def _run_side(root: Path, programs: int, out: Path) -> subprocess.Popen:
    with out.open("w") as sink:
        return subprocess.Popen(
            [sys.executable, __file__, "--digests", str(root / "src"),
             "--programs", str(programs)],
            cwd=root, stdout=sink)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="REV")
    parser.add_argument("--programs", type=int, default=1000, metavar="N")
    parser.add_argument("--out", type=Path, metavar="FILE")
    parser.add_argument("--digests", type=Path, metavar="SRC",
                        help="print the hashes of one side, whose "
                             "`dogefuzz` is under SRC, as JSON")
    args = parser.parse_args(argv)
    if args.digests:
        print(json.dumps(digest_programs(args.digests, args.programs)))
        return 0
    if args.base is None:
        parser.error("--base is required")

    revision = subprocess.run(
        ["git", "rev-parse", "--verify", f"{args.base}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="evm-diff-") as scratch:
        base_root = Path(scratch) / "base"
        base_root.mkdir()
        archive = subprocess.Popen(["git", "archive", revision], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", base_root], stdin=archive.stdout,
                       check=True)
        if archive.wait():
            raise RuntimeError(f"git archive {revision} failed")
        roots = {"base": base_root, "change": ROOT}
        outputs = {side: Path(scratch) / f"{side}.json" for side in SIDES}
        workers = {side: _run_side(roots[side], args.programs, outputs[side])
                   for side in SIDES}
        exits = {side: worker.wait() for side, worker in workers.items()}
        if any(exits.values()):
            raise RuntimeError(f"a side failed: exit codes {exits}")
        hashes = {side: json.loads(outputs[side].read_text()) for side in SIDES}

    summary = {"base": revision, **compare(hashes["base"], hashes["change"])}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary))
    return 1 if summary["differing"] else 0


if __name__ == "__main__":
    sys.exit(main())
