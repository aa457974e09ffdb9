"""Tests of the benchmark itself: the generator, the output check and tracing.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402


def _digest(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


@pytest.fixture(scope="module")
def paper(tmp_path_factory):
    """The paper workload's inputs and the outputs of one backtest and report."""
    from defiparity import cli

    base = tmp_path_factory.mktemp("paper")
    ds = gen.generate("paper", 7)
    inputs = gen.write_inputs(ds, base / "inputs")
    out = base / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([
            "backtest", "--scores", str(inputs["scores"]), "--yields", str(inputs["yields"]),
            "--fx", str(inputs["fx"]), "--method", "ew,tvl,erc",
            "--start", ds.start.isoformat(), "--end", ds.end.isoformat(), "--out", str(out),
        ])
    assert code == 0
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        assert cli.main(["report", "--ledger", str(out), "--format", "json"]) == 0
    return ds, inputs, out, report.getvalue()


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_deterministic(workload, tmp_path):
    first = gen.write_inputs(gen.generate(workload, 3), tmp_path / "a")
    second = gen.write_inputs(gen.generate(workload, 3), tmp_path / "b")
    other = gen.write_inputs(gen.generate(workload, 4), tmp_path / "c")
    assert _digest(tmp_path / "a") == _digest(tmp_path / "b")
    assert first["yields"].read_bytes() != other["yields"].read_bytes()


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generated_shape(workload):
    ds = gen.generate(workload, 5)
    ref = check.Reference(ds)  # raises if FX leaves a day without a rate
    assert len(ref.dates) == ds.workload.backtest_days
    assert ref.active.any(axis=1).all()
    assert (ds.tvl > 0).all()
    distinct_sets = len({row.tobytes() for row in ref.active})
    if workload == "churn":
        assert distinct_sets > 0.9 * len(ref.dates)
    elif workload == "window":
        assert distinct_sets == 1 and ds.observed.all()


def test_check_accepts_program_output(paper):
    ds, _, out, report_json = paper
    ref = check.Reference(ds)
    assert check.check_backtest(ref, out).messages == []
    assert check.check_report(ref, report_json, out).messages == []


def _perturb_ledger_cell(src: Path, dst: Path, column: str, row: int) -> None:
    shutil.copytree(src, dst)
    path = dst / "ledger_erc.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[row].rstrip("\n").split(",")
    index = check.LEDGER_HEADER.index(column)
    if column == "weights":
        weights = cells[index].split(";")
        weights[0] = repr(float(weights[0]) * (1.0 + 1e-6))
        cells[index] = ";".join(weights)
    else:
        cells[index] = repr(float(cells[index]) * (1.0 + 1e-6))
    lines[row] = ",".join(cells) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


@pytest.mark.parametrize("column", ["weights", "daily_return"])
def test_check_rejects_perturbed_ledger(paper, tmp_path, column):
    ds, _, out, _ = paper
    _perturb_ledger_cell(out, tmp_path / "out", column, row=40)
    found = check.check_backtest(check.Reference(ds), tmp_path / "out")
    assert found.count >= 1
    assert any(column in m for m in found.messages)


def test_check_rejects_report_that_differs_from_monthly_csv(paper):
    ds, _, out, report_json = paper
    data = json.loads(report_json)
    data["ew"][0]["perf"] *= 1.0 + 1e-6
    found = check.check_report(check.Reference(ds), json.dumps(data), out)
    assert any("monthly_report.csv" in m for m in found.messages)


def test_traced_call_counts_layers(paper, tmp_path):
    ds, _, out, _ = paper
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["report", "--ledger", str(out), "--format", "json"]
    traced = run.call(env, argv, tmp_path / "report.json", trace=True)
    assert traced.code == 0
    assert traced.trace["calls"]["report.read_ledger_csv"] == 3
    assert traced.trace["counts"]["report.ledger_rows_read"] == 3 * ds.workload.backtest_days
    assert (tmp_path / "report.json").read_text(encoding="utf-8").startswith("{")


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
