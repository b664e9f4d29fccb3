"""Aggregation of before/after benchmark pairs (`scripts/bench_pairs.py`)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(digest: str = "d", correct: bool = True, **metrics) -> dict:
    return {"correct": correct, "failed": 0, "report_sha256": digest,
            "metrics": metrics}


def _pairs(base: list[dict], change: list[dict]) -> list[dict]:
    return [{"seed": seed, "base": b, "change": c}
            for seed, (b, c) in enumerate(zip(base, change))]


def test_parse_seeds_range_and_single() -> None:
    assert bench_pairs.parse_seeds("21-25") == [21, 22, 23, 24, 25]
    assert bench_pairs.parse_seeds("7") == [7]


def test_summary_medians_quartiles_and_wins_follow_direction() -> None:
    pairs = _pairs(
        [_run(rate=r, wall=w) for r, w in ((10, 4), (20, 3), (30, 2), (40, 1))],
        # higher rate wins twice and ties once; lower wall wins three times
        [_run(rate=r, wall=w) for r, w in ((11, 3), (20, 2), (25, 1), (41, 1))])
    summary = bench_pairs.summarize(pairs, {"rate": "higher", "wall": "lower"})
    assert summary["pairs"] == 4
    assert summary["correct"] and summary["report_sha256_match"]
    rate = summary["metrics"]["rate"]
    assert rate["base_median"] == 25 and rate["change_median"] == 22.5
    assert (rate["base_q1"], rate["base_q3"]) == (17.5, 32.5)
    assert rate["wins"] == 2 and rate["better"] == "higher"
    wall = summary["metrics"]["wall"]
    assert wall["wins"] == 3 and wall["change_median"] == 1.5


def test_summary_flags_report_mismatch_failed_runs_and_unknown_metrics() -> None:
    pairs = _pairs([_run("a", x=1), _run("b", x=2)],
                   [_run("a", x=3), _run("c", correct=False, x=4)])
    summary = bench_pairs.summarize(pairs, {})
    assert not summary["report_sha256_match"]
    assert not summary["correct"]
    assert summary["metrics"]["x"]["wins"] is None


def test_single_pair_quartiles_collapse_to_the_value() -> None:
    summary = bench_pairs.summarize(_pairs([_run(x=5.0)], [_run(x=6.0)]),
                                    {"x": "higher"})
    metric = summary["metrics"]["x"]
    assert metric["base_q1"] == metric["base_q3"] == metric["base_median"] == 5.0
    assert metric["wins"] == 1


@pytest.mark.parametrize("text", ["", "a-b"])
def test_parse_seeds_rejects_non_numbers(text: str) -> None:
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds(text)
