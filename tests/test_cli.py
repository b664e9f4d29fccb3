"""Command-line behavior: flags, exit codes, and emitted files."""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess

import pytest

from dogefuzz.cli import _parse_budget, main
from dogefuzz.microbench import all_fixtures, fixture, write_benchmark


@pytest.fixture()
def bench_root(tmp_path):
    chosen = [fixture(name) for name in
              ("reentrancy_vulnerable", "reentrancy_fixed",
               "timestamp_vulnerable")]
    return write_benchmark(tmp_path / "bench", chosen)


# --- budget parsing -------------------------------------------------------

@pytest.mark.parametrize("text, expected", [
    ("500", (500, None)),
    ("500iter", (500, None)),
    (" 10000ITER ", (10000, None)),
    ("2s", (None, 2.0)),
    ("1.5s", (None, 1.5)),
])
def test_budget_formats(text, expected) -> None:
    assert _parse_budget(text) == expected


@pytest.mark.parametrize("text", ["", "soon", "0", "-4", "0s", "-1.5s", "xiter",
                                  "nans", "infs", "1e400s"])
def test_budget_rejects_nonsense(text) -> None:
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_budget(text)


# --- run ------------------------------------------------------------------

def test_run_emits_report_with_metrics(bench_root, tmp_path, capsys) -> None:
    out = tmp_path / "out"
    code = main(["run", "--bundle", str(bench_root / "reentrancy_vulnerable"),
                 "--strategy", "greybox", "--budget", "600",
                 "--rng-seed", "0", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "reentrancy_vulnerable" in stdout and "executions" in stdout

    document = json.loads((out / "report.json").read_text())
    campaign, = document["campaigns"]
    assert campaign["strategy"] == "GreyBox"
    assert campaign["executions"] == 600
    assert document["metrics"]["RE"]["tp"] == 1
    assert (out / "coverage.csv").exists()
    assert (out / "bugs.csv").exists()


def test_run_without_labels_omits_metrics(bench_root, tmp_path) -> None:
    out = tmp_path / "out"
    code = main(["run", "--bundle", str(bench_root / "reentrancy_fixed"),
                 "--budget", "100", "--out", str(out)])
    assert code == 0
    document = json.loads((out / "report.json").read_text())
    assert "metrics" not in document
    assert document["campaigns"][0]["findings"] == []


# --- bench + score --------------------------------------------------------

def test_bench_then_score_roundtrip(bench_root, tmp_path, capsys) -> None:
    (bench_root / "junk").mkdir()       # malformed bundle: no manifest
    out = tmp_path / "out"
    code = main(["bench", "--dir", str(bench_root), "--strategy", "directed",
                 "--budget", "400iter", "--rng-seed", "1", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "3 contracts fuzzed, 1 skipped" in stdout
    assert "skipped junk" in stdout

    code = main(["score", "--report", str(out / "report.json"),
                 "--labels", str(bench_root)])
    assert code == 0
    table = capsys.readouterr().out
    assert "strategy DirectedGreyBox" in table
    for cls in ("RE", "ME", "BD"):
        assert any(line.startswith(cls) for line in table.splitlines())


# --- cfg ------------------------------------------------------------------

def test_cfg_writes_dot_and_distances(bench_root, tmp_path, capsys) -> None:
    dot = tmp_path / "graph.dot"
    distances = tmp_path / "distances.csv"
    code = main(["cfg",
                 "--code", str(bench_root / "reentrancy_vulnerable" / "code.hex"),
                 "--dot", str(dot), "--distances", str(distances)])
    assert code == 0
    assert "critical sites" in capsys.readouterr().out
    assert dot.read_text().startswith("digraph")
    rows = distances.read_text().splitlines()
    assert rows[0] == "pc,distance"
    assert len(rows) > 10
    values = {row.split(",")[1] for row in rows[1:]}
    assert values & {"0", "1", "2"}, "some pcs sit near a critical site"


# --- exit codes -----------------------------------------------------------

@pytest.mark.parametrize("argv", [
    [],
    ["run"],
    ["run", "--bundle", "somewhere"],                      # missing --out
    ["run", "--bundle", "x", "--out", "y", "--budget", "soon"],
    ["run", "--bundle", "x", "--out", "y", "--budget", "nans"],
    ["run", "--bundle", "x", "--out", "y", "--strategy", "psychic"],
    ["bench", "--dir", "x"],                               # missing --out
    ["mine"],
])
def test_usage_errors_exit_one(argv, capsys) -> None:
    assert main(argv) == 1
    capsys.readouterr()


def test_missing_inputs_exit_two(bench_root, tmp_path, capsys) -> None:
    assert main(["bench", "--dir", str(tmp_path / "ghost"),
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["run", "--bundle", str(tmp_path / "ghost"),
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["score", "--report", str(tmp_path / "ghost.json"),
                 "--labels", str(bench_root)]) == 2
    assert main(["cfg", "--code", str(tmp_path / "ghost.hex")]) == 2
    capsys.readouterr()


def test_score_rejects_malformed_report(bench_root, tmp_path, capsys) -> None:
    report = tmp_path / "report.json"
    report.write_text('{"campaigns": [{"strategy": "GreyBox"}]}')
    assert main(["score", "--report", str(report),
                 "--labels", str(bench_root)]) == 2
    assert "malformed report" in capsys.readouterr().err


@pytest.mark.parametrize("command, name, content", [
    pytest.param("cfg", "code.hex", b"\xff" * 4096, id="cfg-not-utf8"),
    pytest.param("score", "report.json", b"\xff" * 4096, id="score-not-utf8"),
    pytest.param("score", "report.json", b"[" * 100_000, id="score-too-deep"),
])
def test_undecodable_inputs_exit_two_on_one_line(
        bench_root, tmp_path, capsys, command, name, content) -> None:
    path = tmp_path / name
    path.write_bytes(content)
    flag = "--code" if command == "cfg" else "--report"
    argv = [command, flag, str(path)]
    if command == "score":
        argv += ["--labels", str(bench_root)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 200, err


def test_help_exits_zero(capsys) -> None:
    assert main(["--help"]) == 0
    assert "run" in capsys.readouterr().out


# --- process-level checks -------------------------------------------------

def test_console_script_help() -> None:
    if shutil.which("dogefuzz") is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(["dogefuzz", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "bench" in proc.stdout


def test_log_verbosity_env_var(bench_root, tmp_path) -> None:
    env = dict(os.environ, DOGE_LOG="info")
    proc = subprocess.run(
        ["python3", "-m", "dogefuzz.cli", "bench", "--dir", str(bench_root),
         "--budget", "60", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "INFO" in proc.stderr
