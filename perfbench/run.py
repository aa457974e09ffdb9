"""defiparity benchmark: one workload, timed end to end or per layer.

    python3 perfbench/run.py --workload churn --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
`src/`. The run generates the workload's inputs from the seed
(`gen.py`), then repeats rounds until `--seconds` have passed. A round is
one `backtest --method ew,tvl,erc --fx ...` call and one
`report --format json` call on the files it wrote; each call is one
operation and runs in a fresh process that has only imported the package
(`worker.py`). The first outputs of each kind are checked against a
reference computed apart from the program (`check.py`); every later call
must write the same bytes. An operation fails if it exits non-zero or its
outputs fail either test.

With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics: median set-up time, mean call times and peak memory.
With `--trace 1` each round also runs a traced backtest and a traced report
(`tracing.py`), and the object holds the per-layer metrics instead. The
lines before it record the input sizes and the sha256 of every output file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import check
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PROBES = 5  # set-ups measured before the rounds, on top of one per operation
CALL_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "backtest_s": "s", "report_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.startup_s": "s",
    "cli.backtest_self_s": "s",
    "ingest.load_scores_s": "s",
    "ingest.load_yields_s": "s",
    "ingest.load_fx_s": "s",
    "ingest.rows": "count",
    "ingest.rows_per_s": "1/s",
    "backtest.run_backtest_s": "s",
    "backtest.active_universe_s": "s",
    "backtest.active_universe_calls": "count",
    "backtest.accrual_self_s": "s",
    "backtest.days": "count",
    "backtest.active_cells": "count",
    "backtest.weight_reuse_ratio": "ratio",
    "backtest.daily_rate_calls": "count",
    "domain.fill_forward_calls": "count",
    "risk.build_s": "s",
    "risk.build_calls": "count",
    "risk.report_s": "s",
    "allocate.weights_s": "s",
    "allocate.weight_calls": "count",
    "allocate.erc_iterations": "count",
    "report.emit_outputs_s": "s",
    "report.emit_bytes": "count",
    "report.monthly_report_s": "s",
    "report.read_ledger_s": "s",
    "report.ledger_rows_read": "count",
    "trace.overhead_s": "s",
}


class Call:
    """One operation's result as the worker reported it."""

    def __init__(self, setup_s: float, reply: dict | None):
        reply = reply or {}  # None when the worker died without replying
        self.setup_s = setup_s
        self.code = reply.get("code")
        self.seconds = reply.get("seconds")
        self.max_rss_kb = reply.get("max_rss_kb")
        self.trace = reply.get("trace")


def _start_worker(env) -> tuple[subprocess.Popen, float]:
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=ROOT,
                            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    ready = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    if ready != "ready\n":
        proc.kill()
        proc.communicate()
        raise RuntimeError("the worker could not import defiparity.cli")
    return proc, setup_s


def _finish(proc: subprocess.Popen, request: str) -> str:
    try:
        out, _ = proc.communicate(request, timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return out


def probe(env) -> float:
    """Set-up time of one process that starts and exits."""
    proc, setup_s = _start_worker(env)
    _finish(proc, "")
    return setup_s


def call(env, argv: list[str], stdout_path: Path, trace: bool) -> Call:
    proc, setup_s = _start_worker(env)
    request = {"argv": argv, "stdout": str(stdout_path), "trace": trace}
    out = _finish(proc, json.dumps(request) + "\n")
    lines = out.strip().splitlines()
    return Call(setup_s, json.loads(lines[-1]) if proc.returncode == 0 and lines else None)


def _digests(paths) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


class Verifier:
    """Checks the first outputs of each kind in full and later ones by bytes."""

    def __init__(self, ref: check.Reference):
        self.ref = ref
        self.backtest: dict[str, str] | None = None
        self.report: dict[str, str] | None = None
        self.problems: list[str] = []

    def _passes(self, kind: str, check_fn, *args) -> bool:
        try:
            found = check_fn(*args)
        except Exception as exc:  # malformed output fails the operation, not the run
            self.problems.append(f"{kind}: output could not be read: {exc!r}")
            return False
        if found.count:
            self.problems += [f"{kind}: {found.count} mismatches"] + found.messages
        return not found.count

    def _same_bytes(self, kind: str, digests: dict, first: dict) -> bool:
        if digests == first:
            return True
        changed = sorted(k for k in first.keys() | digests.keys()
                         if digests.get(k) != first.get(k))
        self.problems.append(f"{kind}: bytes differ from the first call's in {changed}")
        return False

    def backtest_ok(self, out_dir: Path) -> bool:
        digests = _digests(sorted(out_dir.iterdir())) if out_dir.is_dir() else {}
        if self.backtest is not None:
            return self._same_bytes("backtest", digests, self.backtest)
        if not self._passes("backtest", check.check_backtest, self.ref, out_dir):
            return False
        self.backtest = digests
        return True

    def report_ok(self, stdout_path: Path, out_dir: Path) -> bool:
        digests = _digests([stdout_path])
        if self.report is not None:
            return self._same_bytes("report", digests, self.report)
        text = stdout_path.read_text(encoding="utf-8")
        if not self._passes("report", check.check_report, self.ref, text, out_dir):
            return False
        self.report = digests
        return True


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.fmean(values) if values else 0.0


def end_to_end_metrics(setups, rounds) -> dict[str, float]:
    """Call times are means (seconds busy / calls), not medians: on a machine
    whose speed flips between two levels, the median of a run jumps with
    the share of calls at the slow level, the mean moves in proportion."""
    rss = [max(c.max_rss_kb for c in r if c.max_rss_kb is not None) / 1024.0
           for r in rounds if any(c.max_rss_kb is not None for c in r)]
    return {
        "setup_s": _median(setups),
        "backtest_s": _mean(r[0].seconds for r in rounds),
        "report_s": _mean(r[-1].seconds for r in rounds),
        "peak_rss_mb": _median(rss),
    }


def _layers_of_round(traces: list[dict]) -> dict[str, float]:
    total, own, calls, counts = Counter(), Counter(), Counter(), Counter()
    for t in traces:
        total.update(t["total"])
        own.update(t["self"])
        calls.update(t["calls"])
        counts.update(t["counts"])
    weights = ("allocate.solve_erc", "allocate.equal_weights", "allocate.tvl_weights")
    builds = ("risk.build_risk_matrix", "risk.normalize")
    loads = ("ingest.load_scores", "ingest.load_yields", "ingest.load_fx")
    load_s = sum(total[n] for n in loads)
    method_days = counts["backtest.days"]
    weight_calls = sum(calls[n] for n in weights)
    return {
        "cli.backtest_self_s": own["cli.cmd_backtest"],
        "ingest.load_scores_s": total["ingest.load_scores"],
        "ingest.load_yields_s": total["ingest.load_yields"],
        "ingest.load_fx_s": total["ingest.load_fx"],
        "ingest.rows": counts["ingest.rows"],
        "ingest.rows_per_s": counts["ingest.rows"] / load_s if load_s else 0.0,
        "backtest.run_backtest_s": total["backtest.run_backtest"],
        "backtest.active_universe_s": total["backtest.active_universe"],
        "backtest.active_universe_calls": calls["backtest.active_universe"],
        "backtest.accrual_self_s": own["backtest.run_backtest"],
        "backtest.days": (method_days / calls["backtest.run_backtest"]
                          if calls["backtest.run_backtest"] else 0),
        "backtest.active_cells": counts["backtest.active_cells"],
        "backtest.weight_reuse_ratio": 1.0 - weight_calls / method_days if method_days else 0.0,
        "backtest.daily_rate_calls": calls["backtest.daily_rate"],
        "domain.fill_forward_calls": calls["domain.fill_forward"],
        "risk.build_s": sum(total[n] for n in builds),
        "risk.build_calls": sum(calls[n] for n in builds),
        "risk.report_s": total["risk.portfolio_risk_report"],
        "allocate.weights_s": sum(total[n] for n in weights),
        "allocate.weight_calls": weight_calls,
        "allocate.erc_iterations": counts["allocate.erc_iterations"],
        "report.emit_outputs_s": total["report.emit_outputs"],
        "report.emit_bytes": counts["report.emit_bytes"],
        "report.monthly_report_s": total["report.monthly_report"],
        "report.read_ledger_s": total["report.read_ledger_csv"],
        "report.ledger_rows_read": counts["report.ledger_rows_read"],
    }


def per_layer_metrics(setups, rounds) -> dict[str, float]:
    """Round r is [untraced backtest, traced backtest, traced report]."""
    per_round = [_layers_of_round([c.trace for c in r[1:] if c.trace]) for r in rounds]
    metrics = {name: _median(r[name] for r in per_round) for name in per_round[0]}
    metrics["cli.startup_s"] = _median(setups)
    metrics["trace.overhead_s"] = (_mean(r[1].seconds for r in rounds)
                                   - _mean(r[0].seconds for r in rounds))
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    ds = gen.generate(workload, seed)
    inputs = gen.write_inputs(ds, work / "inputs")
    verifier = Verifier(check.Reference(ds))
    out_dir = work / "out"
    report_stdout = work / "report.json"
    backtest_argv = [
        "backtest", "--scores", str(inputs["scores"]), "--yields", str(inputs["yields"]),
        "--fx", str(inputs["fx"]), "--method", "ew,tvl,erc",
        "--start", ds.start.isoformat(), "--end", ds.end.isoformat(),
        "--out", str(out_dir),
    ]
    report_argv = ["report", "--ledger", str(out_dir), "--format", "json"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    setups = [probe(env) for _ in range(PROBES)]
    rounds: list[list[Call]] = []
    attempted = failed = 0
    begin = time.perf_counter()
    while not rounds or time.perf_counter() - begin < seconds:
        calls = []
        for traced in ([False, True] if trace else [False]):
            shutil.rmtree(out_dir, ignore_errors=True)
            calls.append(call(env, backtest_argv, work / "backtest.out", traced))
            attempted += 1
            failed += not (calls[-1].code == 0 and verifier.backtest_ok(out_dir))
        calls.append(call(env, report_argv, report_stdout, trace))
        attempted += 1
        failed += not (calls[-1].code == 0 and verifier.report_ok(report_stdout, out_dir))
        setups += [c.setup_s for c in calls]
        rounds.append(calls)

    print(f"workload {workload} seed {seed}: {len(ds.ids)} protocols, "
          f"{ds.workload.backtest_days} of {ds.workload.history_days} days backtested, "
          f"{int(ds.observed.sum())} yield rows")
    print(f"{len(rounds)} rounds in {time.perf_counter() - begin:.1f} s, "
          f"{len(setups)} set-ups")
    kinds = ["backtest", "traced backtest"][:len(rounds[0]) - 1] + ["report"]
    for i, kind in enumerate(kinds):
        print(f"{kind} seconds: " + " ".join(
            "-" if r[i].seconds is None else f"{r[i].seconds:.4f}" for r in rounds))
    print("sha256 " + json.dumps({**(verifier.backtest or {}), **(verifier.report or {})},
                                 sort_keys=True))
    for problem in verifier.problems[:check.MAX_ERRORS]:
        print(f"problem: {problem}")
    if trace:
        values, units = per_layer_metrics(setups, rounds), PER_LAYER
    else:
        values, units = end_to_end_metrics(setups, rounds), END_TO_END
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="defiparity benchmark")
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "defiparity" / "cli.py").is_file():
        print(f"error: no defiparity sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
