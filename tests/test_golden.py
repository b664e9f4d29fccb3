"""Golden digests: output bytes that refactors must leave unchanged.

The report and `cfg` digests were recorded before the control-flow graph
was reduced to edges over the shared code analysis; the Directed campaign
digest, whose run learns jump edges at run time, before coverage was
recorded per basic block.  The report digest was re-recorded once since,
when Reentrancy findings moved from pc 0 to the CALL that let the
re-entry in (`reentrancy_vulnerable`: pc 55).  A change that moves one
of them changes what users see (a report, a graph rendering, a distance
table) and must say why instead of re-recording the value.  CI runs this
file under every Python version of its matrix.
"""

from __future__ import annotations

import hashlib
import json

from dogefuzz import cli, fuzzer
from dogefuzz.cfg import augment_edges, build_cfg, critical_sites, distance_map
from dogefuzz.fuzzer import CampaignConfig, Strategy
from dogefuzz.harness import (
    emit_report,
    load_benchmark,
    run_benchmark,
    score_results,
)
from dogefuzz.microbench import write_benchmark

from test_fuzzer import _shared_return_target

MICRO_REPORT_SHA256 = (
    "41108878ddceb98f7cd21bdc881f94968404568b34da7a22e58028563d1f7426")
CFG_DOT_SHA256 = (
    "961bbe8dd853557d6360290e4fda7050c6b1986c85eea3f0e0c157120ad28142")
CFG_DISTANCES_SHA256 = (
    "2b94d6011c251e4082cdf97c366e92cef23e27593dbad8134ba22a679d1eafe2")
DIRECTED_CAMPAIGN_SHA256 = (
    "48da49695637ffd32cef8967466586001a981008fbc2cb5100557ed1628da869")


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_micro_suite_report_is_unchanged(tmp_path) -> None:
    bundles = load_benchmark(write_benchmark(tmp_path / "bench"))
    assert len(bundles) == 13
    reports = []
    for strategy in Strategy:
        config = CampaignConfig(strategy=strategy, budget=300, rng_seed=11)
        done, failures = run_benchmark(bundles, config)
        assert failures == []
        reports.extend(done)
    metrics = score_results(
        {r.contract: [row[1] for row in r.result.findings] for r in reports},
        {b.name: b.labels for b in bundles})
    report, _, _ = emit_report(reports, metrics, tmp_path / "out")
    assert _sha256(report) == MICRO_REPORT_SHA256


def test_cfg_command_output_is_unchanged(tmp_path) -> None:
    code_path = tmp_path / "code.hex"
    code_path.write_text(_shared_return_target().cfg.code.hex())
    dot, distances = tmp_path / "cfg.dot", tmp_path / "distances.csv"
    assert cli.main(["cfg", "--code", str(code_path), "--dot", str(dot),
                     "--distances", str(distances)]) == 0
    assert _sha256(dot) == CFG_DOT_SHA256
    assert _sha256(distances) == CFG_DISTANCES_SHA256


def _directed_campaign_digest(target) -> str:
    campaign = fuzzer._Campaign(target, CampaignConfig(
        strategy=Strategy.DIRECTED, budget=300, rng_seed=1))
    result = campaign.run()
    assert augment_edges(target.cfg, campaign.coverage.transitions) \
        .learned_edges, "the campaign learns run-time jump edges"
    outcome = {
        "findings": [
            [tick, finding.fine.value, finding.pc, repro.spec.signature,
             repro.calldata.hex(), repro.value, repro.policy.value,
             repro.block.number, repro.block.timestamp]
            for tick, finding, repro in result.findings],
        "coverage_curve": result.coverage_curve,
        "admitted_seeds": result.admitted_seeds,
        "hops": sorted(campaign.hops.items()),
    }
    return hashlib.sha256(json.dumps(outcome).encode()).hexdigest()


def test_refining_directed_campaign_is_unchanged() -> None:
    assert _directed_campaign_digest(_shared_return_target()) == \
        DIRECTED_CAMPAIGN_SHA256


def test_campaigns_never_mutate_the_shared_static_graph() -> None:
    first, second = _shared_return_target(), _shared_return_target()
    static = first.cfg
    assert second.cfg is static, "one static graph per code"
    assert build_cfg(static.code) is build_cfg(bytes(bytearray(static.code)))
    # had the first campaign written into the shared graph, the second
    # would start from its learned edges and miss the digest
    for target in (first, second):
        assert _directed_campaign_digest(target) == DIRECTED_CAMPAIGN_SHA256
    fresh = build_cfg.__wrapped__(static.code)
    assert fresh is not static and not static.learned_edges
    assert static.edges == fresh.edges
    assert static.predecessors == fresh.predecessors
    assert distance_map(static, critical_sites(static)) == \
        distance_map(fresh, critical_sites(fresh))
