"""Tests of the benchmark itself: generators, span arithmetic, calibration.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import calibration  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402


# --- generators -----------------------------------------------------------

def test_generators_are_deterministic_in_their_seed() -> None:
    for name in (workloads.WIDE, workloads.MAPPING):
        first = workloads.generate(name, 3)
        assert workloads.generate(name, 3) == first
        assert workloads.generate(name, 4) != first


def test_generated_workloads_pass_their_self_checks(tmp_path) -> None:
    for name in workloads.NAMES:
        for seed in (0, 7):
            contracts = workloads.generate(name, seed)
            root = tmp_path / f"{name}-{seed}"
            workloads.write(contracts, root)
            workloads.self_check(name, contracts, root)


def test_wide_self_check_rejects_a_contract_outside_the_band() -> None:
    small = workloads.Contract("tiny", bytes.fromhex("6000600055"), (), ())
    try:
        workloads.self_check(workloads.WIDE, [small], Path("."))
    except workloads.WorkloadError as exc:
        assert "blocks" in str(exc)
    else:
        raise AssertionError("a five-byte contract passed the wide-cfg check")


# --- spans ----------------------------------------------------------------

def test_self_time_subtracts_direct_children_only() -> None:
    spans = [
        Span("outer", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 4.0, 8.0, 0, 0),
        Span("b.inner", 5.0, 6.0, 2, 0),
        Span("solo", 11.0, 12.5, -1, -1),
    ]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0, 1.5]


def test_tracer_records_nesting_and_restores_names() -> None:
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    original_outer = module.outer
    tracer = Tracer()
    with tracer:
        tracer.wrap(module, "inner", label="layer.inner")
        tracer.wrap(module, "outer",
                    observe=lambda t, args, result: t.count("outs", result))
        tracer.campaign = 7
        assert module.outer(1) == 4
    assert module.outer is original_outer
    assert [s.name for s in tracer.spans] == ["outer", "layer.inner"]
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (-1, 0)
    assert outer.campaign == inner.campaign == 7
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert tracer.counts[(7, "outs")] == 4
    own = self_times(tracer.spans)
    assert abs(sum(own) - outer.duration) < 1e-12


# --- calibration ----------------------------------------------------------

def test_calibration_scales_rates_up_and_durations_down_on_a_slow_host() -> None:
    slow = 2 * calibration.NOMINAL_S
    factor = calibration.speed_factor(slow, slow)
    assert factor == 2.0
    # work that takes twice as long on a host half as fast reads the same
    assert calibration.scale_duration(4.0, factor) == 2.0
    assert 1000 / calibration.scale_duration(2.0, factor) == 1000.0
    assert calibration.speed_factor(calibration.NOMINAL_S,
                                    calibration.NOMINAL_S) == 1.0


def test_calibrator_spread_is_the_relative_interquartile_range() -> None:
    calibrator = calibration.Calibrator()
    calibrator.samples = [1.0, 2.0, 3.0, 4.0, 5.0]
    # quantiles (exclusive method) of 1..5 are 1.5, 3, 4.5
    assert calibrator.spread() == (4.5 - 1.5) / 3.0
    calibrator.sample()
    assert len(calibrator.samples) == 6 and calibrator.samples[-1] > 0


# --- the contract with BENCHMARK.json -------------------------------------

def test_benchmark_json_lists_exactly_the_metrics_the_run_prints() -> None:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(
        measure.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        measure.per_layer_units())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
