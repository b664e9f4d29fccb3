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


def _verdicts(base: list[float], change: list[float], better: str,
              bound: float | None = None) -> str:
    pairs = _pairs([_run(x=v) for v in base], [_run(x=v) for v in change])
    bounds = {} if bound is None else {"x": bound}
    return bench_pairs.summarize(pairs, {"x": better}, bounds)["metrics"]["x"][
        "verdict"]


BASE = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


def test_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_spread() -> None:
    # base q1 102.25, q3 106.75: a spread of 4.5 around a median of 104.5
    assert _verdicts(BASE, [v + 5 for v in BASE], "higher") == "gain"
    # one pair lost of ten is still nine tenths
    assert _verdicts(BASE, [v + 10 for v in BASE[:9]] + [100.0],
                     "higher") == "gain"
    # two lost is not
    assert _verdicts(BASE, [v + 10 for v in BASE[:8]] + [100.0, 100.0],
                     "higher") == "flat"
    # every pair won, by less than the spread
    assert _verdicts(BASE, [v + 4 for v in BASE], "higher") == "flat"
    # lower is better: the same runs read the other way
    assert _verdicts([v + 5 for v in BASE], BASE, "lower") == "gain"
    assert _verdicts(BASE, [v + 5 for v in BASE], "lower") == "flat"


def test_worse_is_a_median_past_the_bound() -> None:
    # medians 104.5 and 78.0: 25.4% lower
    slower = [v - 26.5 for v in BASE]
    assert _verdicts(BASE, slower, "higher", bound=0.25) == "worse"
    assert _verdicts(BASE, slower, "higher", bound=0.30) == "flat"
    # without a bound a metric is never worse
    assert _verdicts(BASE, slower, "higher") == "flat"
    # 9% slower where lower is better, against a 0.1 bound and a 0.05 one
    assert _verdicts(BASE, [v * 1.09 for v in BASE], "lower", 0.1) == "flat"
    assert _verdicts(BASE, [v * 1.09 for v in BASE], "lower", 0.05) == "worse"


def test_a_metric_without_a_direction_gets_no_verdict() -> None:
    summary = bench_pairs.summarize(_pairs([_run(x=1)], [_run(x=2)]), {},
                                    {"x": 0.1})
    assert summary["metrics"]["x"]["verdict"] is None


def test_bounds_come_from_the_declared_end_to_end_metrics() -> None:
    better, bounds = bench_pairs._declared(_PATH.parents[1])
    assert better["exec_per_s.greybox"] == "higher"
    assert better["wall_s"] == "lower"
    assert bounds["peak_rss_mb"] == 0.1 and set(bounds) <= set(better)
