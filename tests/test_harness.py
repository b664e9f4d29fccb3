"""Bundle loading, scoring arithmetic, and report emission."""

from __future__ import annotations

import json
import random

import pytest

from dogefuzz import fuzzer
from dogefuzz.asm import Assembler
from dogefuzz.evm import (
    AGENT_ADDRESS,
    Transaction,
    BlockContext,
    PolicyKind,
    execute_transaction,
)
from dogefuzz.fuzzer import CampaignConfig, Strategy, run_campaign
from dogefuzz.harness import (
    BundleError,
    FUNDING,
    Metrics,
    emit_report,
    load_benchmark,
    load_bundle,
    prepare_target,
    report_document,
    run_benchmark,
    score_results,
)
from dogefuzz.microbench import all_fixtures, fixture, write_benchmark
from dogefuzz.oracles import (
    BugFinding,
    CoarseClass,
    FineBugClass,
    detect_trace,
)


@pytest.fixture()
def bench_root(tmp_path):
    return write_benchmark(tmp_path / "bench")


# --- bundle loading -------------------------------------------------------

def test_load_bundle_roundtrip(bench_root) -> None:
    fx = fixture("reentrancy_vulnerable")
    bundle = load_bundle(bench_root / fx.name)
    assert bundle.name == fx.name
    assert bundle.code == fx.runtime
    assert bundle.mode == "runtime"
    assert bundle.constructor_args == b""
    assert bundle.initial_balance == fx.endowment
    assert bundle.fine_labels == fx.labels
    assert bundle.labels == (CoarseClass.RE,)
    names = {spec.name for spec in bundle.specs}
    assert {"deposit", "withdraw"} <= names


def test_load_bundle_folds_fine_labels_to_taxonomy(bench_root) -> None:
    bundle = load_bundle(bench_root / "gasless_vulnerable")
    # the stipend send is planted as both a gasless send and a swallowed
    # exception; both fold into the mishandled-exception class
    assert bundle.labels == (CoarseClass.ME, CoarseClass.ME)


def test_load_bundle_without_labels(bench_root) -> None:
    bundle = load_bundle(bench_root / "reentrancy_fixed")
    assert bundle.labels == ()
    assert bundle.fine_labels == ()


def test_load_benchmark_orders_by_name(bench_root) -> None:
    bundles = load_benchmark(bench_root)
    assert [b.name for b in bundles] == sorted(b.name for b in bundles)
    assert len(bundles) == len(all_fixtures())


def test_load_benchmark_skips_malformed_with_reason(bench_root) -> None:
    (bench_root / "broken_abi" ).mkdir()
    for name in ("manifest.json", "code.hex"):
        (bench_root / "broken_abi" / name).write_text(
            (bench_root / "reentrancy_fixed" / name).read_text())
    (bench_root / "broken_abi" / "abi.json").write_text("not json")

    (bench_root / "no_manifest").mkdir()
    (bench_root / "no_manifest" / "code.hex").write_text("6000")

    skipped: list[tuple[str, str]] = []
    bundles = load_benchmark(bench_root, skipped)
    assert len(bundles) == len(all_fixtures())
    reasons = dict(skipped)
    assert set(reasons) == {"broken_abi", "no_manifest"}
    assert "abi.json" in reasons["broken_abi"]
    assert "manifest.json" in reasons["no_manifest"]


@pytest.mark.parametrize("mutation, expected", [
    ({"mode": "solidity"}, "mode"),
    ({"constructor_args": "zz"}, "constructor_args"),
    ({"initial_balance": -3}, "initial_balance"),
    ({"initial_balance": "lots"}, "initial_balance"),
])
def test_load_bundle_rejects_bad_manifest(bench_root, mutation, expected) -> None:
    directory = bench_root / "reentrancy_fixed"
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest.update(mutation)
    (directory / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(BundleError, match=expected):
        load_bundle(directory)


def test_load_bundle_rejects_bad_labels(bench_root) -> None:
    directory = bench_root / "reentrancy_vulnerable"
    (directory / "labels.json").write_text('{"bugs": ["Resonance"]}')
    with pytest.raises(BundleError, match="Resonance"):
        load_bundle(directory)


def _edit_json(name: str, edit):
    """A bundle edit: load `name`, change it in place with `edit`, save."""
    def apply(directory) -> None:
        document = json.loads((directory / name).read_text())
        edit(document)
        (directory / name).write_text(json.dumps(document))
    return apply


def _first_input(abi: list) -> dict:
    return abi[0]["inputs"][0]


DEEP_TYPE = "(" * 20_000 + "uint256" + ")" * 20_000


@pytest.mark.parametrize("edit", [
    _edit_json("manifest.json", lambda m: m.update(constructor_args=5)),
    _edit_json("manifest.json", lambda m: m.update(initial_balance=True)),
    _edit_json("manifest.json", lambda m: m.update(name=None)),
    _edit_json("manifest.json", lambda m: m.update(name="")),
    _edit_json("abi.json", lambda abi: abi[0].update(inputs=5)),
    _edit_json("abi.json", lambda abi: _first_input(abi).pop("type")),
    _edit_json("abi.json", lambda abi: _first_input(abi).update(type=7)),
    _edit_json("abi.json", lambda abi: _first_input(abi).update(
        type="tuple", components=[{"name": "member"}])),
    _edit_json("abi.json", lambda abi: _first_input(abi).update(
        type="tuple", components=5)),
    _edit_json("abi.json", lambda abi: abi[0].update(name=5)),
    _edit_json("abi.json", lambda abi: abi[0].update(name="h\u00fcnt")),
    _edit_json("abi.json", lambda abi: abi[0].update(name="a b(")),
    _edit_json("abi.json", lambda abi: _first_input(abi).update(
        type="uint256[1000000]")),
    _edit_json("abi.json", lambda abi: abi[0].update(
        inputs=[{"type": "uint256[100]"}] * 3)),
    _edit_json("abi.json", lambda abi: _first_input(abi).update(
        type=DEEP_TYPE)),
    lambda directory: (directory / "abi.json").write_bytes(b"\xff["),
    lambda directory: (directory / "abi.json").write_text("[" * 100_000),
    _edit_json("labels.json", lambda labels: labels.update(bugs=5)),
    _edit_json("abi.json", lambda abi: [entry.update(stateMutability="view")
                                        for entry in abi]),
    lambda directory: (directory / "abi.json").write_text("[]"),
], ids=["constructor_args_number", "balance_bool", "name_null",
        "name_empty", "inputs_number", "input_without_type",
        "type_number", "component_without_type", "components_number",
        "name_number", "name_not_ascii", "name_not_identifier",
        "static_array_over_cap", "arguments_over_cap",
        "type_nested_too_deep", "abi_not_text", "json_nested_too_deep",
        "bugs_number", "abi_view_only", "abi_empty"])
def test_load_benchmark_skips_each_malformed_shape(tmp_path, edit) -> None:
    root = write_benchmark(tmp_path / "bench", [fixture("gated_send")])
    (root / "gated_send").rename(root / "good")
    (root / "bad").mkdir()
    for item in (root / "good").iterdir():
        (root / "bad" / item.name).write_bytes(item.read_bytes())
    edit(root / "bad")
    skipped: list[tuple[str, str]] = []
    bundles = load_benchmark(root, skipped)
    assert [b.name for b in bundles] == ["gated_send"]
    assert [name for name, _ in skipped] == ["bad"]


@pytest.mark.parametrize("text", ["uint256]", "]", "tuple]"])
def test_load_benchmark_skips_an_array_type_without_its_opening_bracket(
        tmp_path, text) -> None:
    root = write_benchmark(tmp_path / "bench", [fixture("gasless_fixed"),
                                                fixture("gated_send")])
    _edit_json("abi.json", lambda abi: abi[0]["inputs"].append(
        {"type": text}))(root / "gasless_fixed")
    skipped: list[tuple[str, str]] = []
    bundles = load_benchmark(root, skipped)
    assert [b.name for b in bundles] == ["gated_send"]
    assert [name for name, _ in skipped] == ["gasless_fixed"]
    assert skipped[0][1].startswith("abi.json: ")


def test_load_benchmark_skips_a_repeated_name(tmp_path) -> None:
    root = write_benchmark(tmp_path / "bench", [fixture("reentrancy_fixed"),
                                                fixture("reentrancy_vulnerable")])
    _edit_json("manifest.json", lambda m: m.update(
        name="reentrancy_vulnerable"))(root / "reentrancy_fixed")
    skipped: list[tuple[str, str]] = []
    bundles = load_benchmark(root, skipped)
    # directories load in name order, so the first keeps the name
    assert [b.name for b in bundles] == ["reentrancy_vulnerable"]
    assert [b.fine_labels for b in bundles] == [()]
    assert skipped == [("reentrancy_vulnerable",
                        "name 'reentrancy_vulnerable' repeats the bundle "
                        "in reentrancy_fixed")]


def test_load_bundle_rejects_empty_code(bench_root) -> None:
    directory = bench_root / "reentrancy_fixed"
    (directory / "code.hex").write_text("\n")
    with pytest.raises(BundleError, match="empty"):
        load_bundle(directory)


def test_load_benchmark_empty_directory_errors(tmp_path) -> None:
    empty = tmp_path / "none"
    empty.mkdir()
    with pytest.raises(BundleError, match="no contract"):
        load_benchmark(empty)


def test_load_benchmark_missing_directory_errors(tmp_path) -> None:
    with pytest.raises(FileNotFoundError):
        load_benchmark(tmp_path / "ghost")


# --- deployment -----------------------------------------------------------

def test_prepare_target_funds_and_endows(bench_root) -> None:
    bundle = load_bundle(bench_root / "reentrancy_vulnerable")
    target = prepare_target(bundle)
    assert target.state.balance_of(target.address) == bundle.initial_balance
    assert target.state.balance_of(AGENT_ADDRESS) == FUNDING
    assert target.state.code_of(target.address) == bundle.code
    assert target.pools[0] == target.address
    assert AGENT_ADDRESS in target.pools
    assert len(target.cfg.blocks) > 1


def wrap_creation(runtime: bytes) -> bytes:
    a = Assembler()
    a.push(len(runtime)).push_label("body").push(0).op("CODECOPY")
    a.push(len(runtime)).push(0).op("RETURN")
    a.label("body").raw(runtime)
    return a.assemble()


def test_creation_mode_matches_runtime_mode(bench_root, tmp_path) -> None:
    source = bench_root / "timestamp_vulnerable"
    clone = tmp_path / "clone"
    clone.mkdir()
    runtime = bytes.fromhex((source / "code.hex").read_text().strip())
    manifest = json.loads((source / "manifest.json").read_text())
    manifest["mode"] = "creation"
    (clone / "manifest.json").write_text(json.dumps(manifest))
    (clone / "code.hex").write_text(wrap_creation(runtime).hex())
    (clone / "abi.json").write_text((source / "abi.json").read_text())

    direct = prepare_target(load_bundle(source))
    staged = prepare_target(load_bundle(clone))
    assert staged.state.code_of(staged.address) == runtime
    assert staged.state.code_of(staged.address) == \
        direct.state.code_of(direct.address)
    assert staged.state.balance_of(staged.address) == manifest["initial_balance"]


# --- campaign orchestration ----------------------------------------------

def test_run_benchmark_reports_deployment_failures(bench_root, tmp_path) -> None:
    bad = tmp_path / "bad_init"
    bad.mkdir()
    source = bench_root / "reentrancy_fixed"
    manifest = json.loads((source / "manifest.json").read_text())
    manifest["mode"] = "creation"
    (bad / "manifest.json").write_text(json.dumps(manifest))
    (bad / "code.hex").write_text("fe")        # init code traps immediately
    (bad / "abi.json").write_text((source / "abi.json").read_text())

    bundles = [load_bundle(source), load_bundle(bad)]
    config = CampaignConfig(strategy=Strategy.GREYBOX, budget=30, rng_seed=1)
    reports, failures = run_benchmark(bundles, config)
    assert [r.contract for r in reports] == ["reentrancy_fixed"]
    assert len(failures) == 1 and failures[0][0] == "reentrancy_fixed"


def test_run_benchmark_propagates_a_fault_inside_a_campaign(
        bench_root, monkeypatch) -> None:
    """Only a failed deployment is a bundle's failure; a fault in the
    fuzzer is not reported as a skipped bundle."""
    def fault(spec, args):
        raise UnicodeEncodeError("ascii", spec.name, 0, 1, "fault")

    monkeypatch.setattr(fuzzer, "encode_call", fault)
    config = CampaignConfig(strategy=Strategy.GREYBOX, budget=30, rng_seed=1)
    with pytest.raises(ValueError, match="fault"):
        run_benchmark([load_bundle(bench_root / "delegate_fixed")], config)


def test_reproducer_replays_stateless_finding(bench_root) -> None:
    bundle = load_bundle(bench_root / "timestamp_vulnerable")
    config = CampaignConfig(strategy=Strategy.GREYBOX, budget=400, rng_seed=0)
    reports, _ = run_benchmark([bundle], config)
    rows = reports[0].result.findings
    assert rows, "campaign should expose the planted timestamp dependency"
    tick, found, repro = rows[0]

    fresh = prepare_target(bundle)
    trace = execute_transaction(fresh.state, Transaction(
        target=fresh.address,
        calldata=repro.calldata,
        value=repro.value,
        agent_policy=repro.policy,
        block=repro.block,
    ), persist=False)
    replayed = detect_trace(trace)
    assert (found.fine, found.pc) in {(f.fine, f.pc) for f in replayed}


def test_reproducer_names_the_triggering_call(bench_root) -> None:
    # stateful findings replay only on top of the campaign's evolved state,
    # so the reproducer records the final call rather than a full session
    bundle = load_bundle(bench_root / "reentrancy_vulnerable")
    config = CampaignConfig(strategy=Strategy.GREYBOX, budget=600, rng_seed=0)
    reports, _ = run_benchmark([bundle], config)
    rows = reports[0].result.findings
    assert rows
    _, found, repro = rows[0]
    assert found.fine is FineBugClass.REENTRANCY
    assert repro.spec.signature.startswith("withdraw(")
    assert repro.policy is PolicyKind.REENTRANT
    assert repro.calldata[:4] != b"", "calldata preserved for replay"


# --- metrics --------------------------------------------------------------

@pytest.mark.parametrize("tp, fp, fn, precision, recall, f1", [
    (16, 4, 3, 0.80, 16 / 19, 2 * 0.8 * (16 / 19) / (0.8 + 16 / 19)),
    (19, 0, 0, 1.0, 1.0, 1.0),
    (0, 0, 0, 1.0, 1.0, 1.0),
    (0, 5, 2, 0.0, 0.0, 0.0),
    (0, 0, 4, 1.0, 0.0, 0.0),
    (7, 0, 3, 1.0, 0.7, 2 * 0.7 / 1.7),
])
def test_metrics_formulas(tp, fp, fn, precision, recall, f1) -> None:
    m = Metrics(tp, fp, fn)
    assert m.precision == pytest.approx(precision, abs=1e-12)
    assert m.recall == pytest.approx(recall, abs=1e-12)
    assert m.f1 == pytest.approx(f1, abs=1e-12)


def test_score_results_consumption_matching() -> None:
    RE = FineBugClass.REENTRANCY
    metrics = score_results(
        {"a": [BugFinding(RE, 5)], "b": [BugFinding(RE, 1), BugFinding(RE, 9),
                                      BugFinding(RE, 12)]},
        {"a": (CoarseClass.RE, CoarseClass.RE), "b": (CoarseClass.RE,)},
    )
    # a: two labels, one site -> 1 TP 1 FN; b: one label, three sites -> 2 FP
    assert metrics[CoarseClass.RE] == Metrics(tp=2, fp=2, fn=1)
    assert metrics[CoarseClass.ME] == Metrics()
    assert metrics[CoarseClass.BD] == Metrics()


def test_score_results_duplicate_sites_count_once() -> None:
    RE = FineBugClass.REENTRANCY
    metrics = score_results(
        {"a": [BugFinding(RE, 5), BugFinding(RE, 5), BugFinding(RE, 5)]},
        {"a": (CoarseClass.RE,)},
    )
    assert metrics[CoarseClass.RE] == Metrics(tp=1, fp=0, fn=0)


def test_score_results_unlabeled_findings_are_false_positives() -> None:
    metrics = score_results(
        {"clean": [BugFinding(FineBugClass.TIMESTAMP_DEPENDENCY, 3)]},
        {"clean": ()},
    )
    assert metrics[CoarseClass.BD] == Metrics(tp=0, fp=1, fn=0)


def test_score_results_silent_labels_are_false_negatives() -> None:
    metrics = score_results(
        {},
        {"quiet": (CoarseClass.ME, CoarseClass.BD)},
    )
    assert metrics[CoarseClass.ME] == Metrics(tp=0, fp=0, fn=1)
    assert metrics[CoarseClass.BD] == Metrics(tp=0, fp=0, fn=1)


def test_score_results_classes_do_not_cross_match() -> None:
    metrics = score_results(
        {"a": [BugFinding(FineBugClass.GASLESS_SEND, 2)]},
        {"a": (CoarseClass.RE,)},
    )
    assert metrics[CoarseClass.RE] == Metrics(tp=0, fp=0, fn=1)
    assert metrics[CoarseClass.ME] == Metrics(tp=0, fp=1, fn=0)


def test_score_results_order_invariance() -> None:
    RE, TS = FineBugClass.REENTRANCY, FineBugClass.TIMESTAMP_DEPENDENCY
    findings = {
        "a": [BugFinding(RE, 5), BugFinding(TS, 2)],
        "b": [BugFinding(RE, 8)],
        "c": [],
    }
    labels = {
        "a": (CoarseClass.RE,),
        "b": (CoarseClass.BD,),
        "c": (CoarseClass.ME,),
    }
    baseline = score_results(findings, labels)
    rng = random.Random(4)
    for _ in range(10):
        names = list(findings)
        rng.shuffle(names)
        shuffled_f = {n: list(reversed(findings[n])) for n in names}
        shuffled_l = {n: labels[n] for n in reversed(names)}
        assert score_results(shuffled_f, shuffled_l) == baseline


# --- report emission ------------------------------------------------------

def bench_reports(bench_root, names, **overrides):
    defaults = dict(strategy=Strategy.GREYBOX, budget=200, rng_seed=3)
    defaults.update(overrides)
    config = CampaignConfig(**defaults)
    bundles = [load_bundle(bench_root / name) for name in names]
    reports, failures = run_benchmark(bundles, config)
    assert not failures
    return bundles, reports


def test_emit_report_writes_three_files(bench_root, tmp_path) -> None:
    bundles, reports = bench_reports(
        bench_root, ["reentrancy_vulnerable", "timestamp_fixed"])
    metrics = score_results(
        {r.contract: [row[1] for row in r.result.findings] for r in reports},
        {b.name: b.labels for b in bundles},
    )
    out = tmp_path / "out"
    report_path, coverage_path, bugs_path = emit_report(reports, metrics, out)

    document = json.loads(report_path.read_text())
    assert [c["contract"] for c in document["campaigns"]] == \
        ["reentrancy_vulnerable", "timestamp_fixed"]
    assert set(document["metrics"]) == {"RE", "ME", "BD"}
    for campaign in document["campaigns"]:
        assert campaign["config"]["budget"] == 200
        assert 0.0 <= campaign["final_coverage"] <= 1.0

    coverage_rows = coverage_path.read_text().splitlines()
    assert coverage_rows[0] == "contract,strategy,tick,coverage"
    # one sampled row per interval boundary: ceil(200 / 50) per contract
    per_contract = 200 // 50
    assert len(coverage_rows) == 1 + 2 * per_contract

    bug_rows = bugs_path.read_text().splitlines()
    assert bug_rows[0] == "contract,strategy,class,fine,pc,first_hit_tick"
    total = sum(len(r.result.findings) for r in reports)
    assert len(bug_rows) == 1 + total


def test_emit_report_zero_findings_still_writes(bench_root, tmp_path) -> None:
    _, reports = bench_reports(bench_root, ["reentrancy_fixed"], budget=60)
    report_path, coverage_path, bugs_path = emit_report(
        reports, None, tmp_path / "out")
    document = json.loads(report_path.read_text())
    assert document["campaigns"][0]["findings"] == []
    assert "metrics" not in document
    assert bugs_path.read_text().splitlines() == \
        ["contract,strategy,class,fine,pc,first_hit_tick"]
    assert coverage_path.exists()


def test_report_findings_carry_reproducers(bench_root, tmp_path) -> None:
    _, reports = bench_reports(
        bench_root, ["timestamp_vulnerable"], budget=400)
    document = report_document(reports)
    entries = document["campaigns"][0]["findings"]
    assert entries, "timestamp dependency should surface in 400 iterations"
    for entry in entries:
        repro = entry["reproducer"]
        assert set(repro) == {"function", "calldata", "value",
                              "agent_policy", "block"}
        bytes.fromhex(repro["calldata"])
        PolicyKind(repro["agent_policy"])
        assert repro["block"]["number"] > 0
        assert entry["first_hit"] >= 1
        assert entry["swc"].startswith("SWC-")


def test_identical_configs_emit_identical_bytes(bench_root, tmp_path) -> None:
    outputs = []
    for run in ("first", "second"):
        bundles, reports = bench_reports(
            bench_root,
            ["reentrancy_vulnerable", "gasless_vulnerable", "number_fixed"],
            strategy=Strategy.DIRECTED, budget=250, rng_seed=11)
        metrics = score_results(
            {r.contract: [row[1] for row in r.result.findings]
             for r in reports},
            {b.name: b.labels for b in bundles},
        )
        paths = emit_report(reports, metrics, tmp_path / run)
        outputs.append(tuple(path.read_bytes() for path in paths))
    assert outputs[0] == outputs[1]


def test_coverage_curve_rows_are_monotone(bench_root, tmp_path) -> None:
    _, reports = bench_reports(bench_root, ["gated_send"],
                               strategy=Strategy.DIRECTED, budget=500)
    curve = reports[0].result.coverage_curve
    ratios = [ratio for _, ratio in curve]
    assert ratios == sorted(ratios)
    assert all(0.0 <= ratio <= 1.0 for ratio in ratios)
