"""Whole-system acceptance gates.

Seven checks pin the externally visible quality bars: scoring arithmetic
against a frozen accuracy table, micro-suite recall and precision under a
fixed budget, feedback-strategy ordering on a guarded fixture, distance-map
agreement with an independent relaxation oracle, breadth of the interpreter
suite, call-encoding conformance, and deterministic reporting.  Budgets,
tolerances, and runtime ceilings are pinned; loosening any of them is a
regression, not a fix.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dogefuzz.abi import encode_arguments, parse_abi, parse_type, selector
from dogefuzz.cfg import build_cfg, distance_map
from dogefuzz.fuzzer import CampaignConfig, FuzzTarget, Strategy, run_campaign
from dogefuzz.harness import (
    TargetBundle,
    emit_report,
    prepare_target,
    run_benchmark,
    score_results,
)
from dogefuzz.microbench import Fixture, fixture
from dogefuzz.oracles import (
    BugFinding,
    CoarseClass,
    FineBugClass,
)

from cfg_oracle import distance_fixpoint, random_block_graph
from keccak_oracle import keccak256_reference
from test_abi import ENCODING_VECTORS


def _target(fx: Fixture) -> FuzzTarget:
    bundle = TargetBundle(
        name=fx.name,
        code=fx.runtime,
        mode="runtime",
        specs=tuple(parse_abi(list(fx.abi))),
        initial_balance=fx.endowment,
    )
    return prepare_target(bundle)


# --- scoring arithmetic ---------------------------------------------------

# (tp, fp, fn, precision, recall, f1): counts with the quality figures they
# must reproduce to within ±0.005.  Every row was re-derived from its counts
# by exact fraction arithmetic; two figures carry six decimals because
# two-decimal rounding would sit outside the shared tolerance.
ACCURACY_ROWS = [
    (5, 0, 8, 1.00, 0.38, 0.56),
    (10, 0, 3, 1.00, 0.77, 0.87),
    (11, 0, 2, 1.00, 0.85, 0.92),
    (9, 1, 4, 0.90, 0.69, 0.78),
    (9, 1, 4, 0.90, 0.69, 0.78),
    (8, 0, 5, 1.00, 0.62, 0.76),
    (11, 0, 39, 1.00, 0.22, 0.36),
    (29, 6, 21, 0.83, 0.58, 0.68),
    (48, 0, 2, 1.00, 0.96, 0.98),
    (39, 9, 11, 0.81, 0.78, 0.80),
    (35, 7, 15, 0.83, 0.70, 0.76),
    (31, 4, 19, 0.89, 0.62, 0.73),
    (18, 2, 1, 0.90, 0.947368, 0.92),
    (5, 20, 14, 0.20, 0.26, 0.227273),
    (19, 0, 0, 1.00, 1.00, 1.00),
    (16, 4, 3, 0.80, 0.84, 0.82),
    (14, 4, 5, 0.78, 0.74, 0.76),
    (7, 4, 12, 0.64, 0.37, 0.47),
]

# one representative fine class per taxonomy class, for synthetic findings
FINE_FOR = {
    CoarseClass.RE: FineBugClass.REENTRANCY,
    CoarseClass.ME: FineBugClass.GASLESS_SEND,
    CoarseClass.BD: FineBugClass.TIMESTAMP_DEPENDENCY,
}


def test_scoring_reproduces_reference_accuracy_rows() -> None:
    start = time.perf_counter()
    for index, (tp, fp, fn, precision, recall, f1) in enumerate(ACCURACY_ROWS):
        coarse = list(CoarseClass)[index % 3]
        fine = FINE_FOR[coarse]
        # one contract holding the true sites, one holding only noise
        findings = {
            "hit": [BugFinding(fine, pc) for pc in range(tp)],
            "noise": [BugFinding(fine, pc) for pc in range(fp)],
        }
        labels = {"hit": (coarse,) * (tp + fn), "noise": ()}
        metrics = score_results(findings, labels)[coarse]
        assert (metrics.tp, metrics.fp, metrics.fn) == (tp, fp, fn)
        assert metrics.precision == pytest.approx(precision, abs=0.005)
        assert metrics.recall == pytest.approx(recall, abs=0.005)
        assert metrics.f1 == pytest.approx(f1, abs=0.005)
    assert time.perf_counter() - start < 1.0


# --- micro-suite recall and precision -------------------------------------

PLANTED = ("reentrancy", "delegate", "gasless", "disorder", "timestamp",
           "number")
FEEDBACK = (Strategy.GREYBOX, Strategy.DIRECTED)


def test_micro_suite_recall_and_precision() -> None:
    start = time.perf_counter()
    for stem in PLANTED:
        fx = fixture(f"{stem}_vulnerable")
        planted = fx.labels[0]
        for strategy in FEEDBACK:
            hits = 0
            for seed in range(5):
                result = run_campaign(_target(fx), CampaignConfig(
                    strategy=strategy, budget=10_000, rng_seed=seed,
                    stop_classes=frozenset({planted})))
                hits += planted in {row[1].fine for row in result.findings}
            assert hits >= 4, f"{fx.name} under {strategy.value}: {hits}/5"
    for stem in PLANTED:
        fx = fixture(f"{stem}_fixed")
        for strategy in FEEDBACK:
            for seed in range(5):
                result = run_campaign(_target(fx), CampaignConfig(
                    strategy=strategy, budget=10_000, rng_seed=seed))
                assert result.findings == [], (
                    f"{fx.name} under {strategy.value}, seed {seed}")
    assert time.perf_counter() - start < 180.0


# --- strategy ordering ----------------------------------------------------

def _first_hit(fx: Fixture, strategy: Strategy, seed: int, budget: int) -> int:
    """Tick of the first planted-class finding, or budget+1 when missed."""
    result = run_campaign(_target(fx), CampaignConfig(
        strategy=strategy, budget=budget, rng_seed=seed,
        stop_classes=frozenset(fx.labels)))
    ticks = [tick for tick, finding, _ in result.findings
             if finding.fine in fx.labels]
    return min(ticks) if ticks else budget + 1


def test_feedback_strategies_beat_blackbox_on_gated_fixture() -> None:
    fx = fixture("gated_send")
    budget = 20_000
    start = time.perf_counter()
    medians = {
        strategy: statistics.median(
            _first_hit(fx, strategy, seed, budget) for seed in range(20))
        for strategy in Strategy
    }
    blackbox = medians[Strategy.BLACKBOX]
    assert medians[Strategy.GREYBOX] <= 0.8 * blackbox, medians
    assert medians[Strategy.DIRECTED] <= 0.8 * blackbox, medians
    assert time.perf_counter() - start < 300.0


# --- distance oracle equivalence ------------------------------------------

def test_distance_map_matches_relaxation_oracle_at_scale() -> None:
    start = time.perf_counter()
    for index in range(50):
        rng = random.Random(index)
        cfg = build_cfg(random_block_graph(rng, max_blocks=40))
        pcs = sorted(cfg.pcs)
        sites = rng.sample(pcs, k=min(3, len(pcs)))
        got = distance_map(cfg, sites)
        site_starts = {cfg.block_at(pc).start for pc in sites}
        expected = distance_fixpoint(
            set(cfg.edges), set(cfg.analysis.blocks), site_starts)
        # block for block, with absence meaning unreachable on both sides
        assert got == expected
    assert time.perf_counter() - start < 10.0


# --- interpreter semantics ------------------------------------------------

def test_interpreter_suite_covers_core_semantics() -> None:
    suite = Path(__file__).with_name("test_evm_opcodes.py")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(suite), "-v",
         "-p", "no:cacheprovider"],
        capture_output=True, text=True, cwd=str(suite.parent.parent))
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout[-2000:]
    passed = [line for line in proc.stdout.splitlines() if " PASSED" in line]
    assert len(passed) >= 60, f"only {len(passed)} interpreter tests passed"
    for marker in ("add_wraparound",
                   "stipend_is_exactly_2300",
                   "revert_returns_data_and_rolls_back",
                   "out_of_gas_rolls_back_state",
                   "staticcall_rejects_writes"):
        assert any(marker in line for line in passed), marker
    assert elapsed < 5.0


# --- call encoding conformance --------------------------------------------

def test_call_encoding_matches_independent_references() -> None:
    start = time.perf_counter()
    signature = "transfer(address,uint256)"
    assert selector(signature) == keccak256_reference(signature.encode())[:4]
    assert selector(signature).hex() == "a9059cbb"

    assert len(ENCODING_VECTORS) >= 10
    covered = {text for types, _, _ in ENCODING_VECTORS for text in types}
    assert "uint256[][2][]" in covered, "depth-3 array nesting exercised"
    assert "((uint8,(uint8,uint8)),bool)" in covered, "depth-3 tuple nesting"
    for types, values, expected in ENCODING_VECTORS:
        parsed = [parse_type(text) for text in types]
        assert encode_arguments(parsed, values).hex() == expected
    assert time.perf_counter() - start < 1.0


# --- deterministic reporting ----------------------------------------------

def test_identical_configs_emit_byte_identical_reports(tmp_path) -> None:
    bundles = []
    for name in ("gated_send", "reentrancy_vulnerable", "timestamp_fixed"):
        fx = fixture(name)
        bundles.append(TargetBundle(
            name=fx.name, code=fx.runtime, mode="runtime",
            specs=tuple(parse_abi(list(fx.abi))),
            initial_balance=fx.endowment))
    config = CampaignConfig(strategy=Strategy.DIRECTED, budget=400, rng_seed=7)

    start = time.perf_counter()
    emitted = []
    for round_dir in ("first", "second"):
        reports, failures = run_benchmark(bundles, config)
        assert failures == []
        for item in reports:
            curve = [ratio for _, ratio in item.result.coverage_curve]
            assert curve == sorted(curve), "coverage never decreases"
            assert 0.0 <= item.result.final_coverage <= 1.0
        emitted.append(emit_report(reports, None, tmp_path / round_dir))
    for first, second in zip(*emitted):
        assert first.read_bytes() == second.read_bytes()

    report = json.loads((tmp_path / "first" / "report.json").read_text())
    names = {campaign["contract"] for campaign in report["campaigns"]}
    assert names == {bundle.name for bundle in bundles}
    assert time.perf_counter() - start < 60.0
