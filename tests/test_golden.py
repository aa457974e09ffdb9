"""Golden output: the sha256 of every file `backtest` writes for one fixture,
under each APY convention.

Any change to the arithmetic, the row order or the number formatting moves
these hashes.  A change that does so on purpose must say why and re-pin
them; the reference-loop property test bounds how far the figures may move.

The fixture has five protocols, so every NumPy reduction in the engine runs
as a plain sequential loop and the hashes do not depend on the SIMD width.
"""

import csv
import datetime as dt
import hashlib
import os

import pytest

from defiparity import cli
from defiparity.cli import main

START = dt.date(2022, 1, 20)
DAYS = 45

# id, score, tvl, first day observed, days missing (forward-filled)
PROTOCOLS = (
    ("aave", "1.0", "500000000", 0, ()),
    ("comp", "2.5", "120000000", 0, ()),
    ("curve", "4.0", "300000000", 0, (20, 21)),
    ("maker", "1.5", "800000000", 0, ()),
    ("yearn", "6.0", "90000000", 12, ()),
)
FX_MISSING = (30,)

GOLDEN = {
    "comparison.csv":
        "9fac8a377a290e2c090073190170846e907def8d56946f5b6610dbc1aeb25888",
    "ledger_erc.csv":
        "5f4ee7a00a99c806cdcaf19ad66f57b9f4cf0330d73ac588d2312a56ad333053",
    "ledger_ew.csv":
        "ddf59962fb9af3a444835c7c696bf280b230e4153038563bbd853294f687837f",
    "ledger_tvl.csv":
        "e5ca57f1d71313df692f4ea95fd8d8bb9e970c9dc774354c8778d561268964fc",
    "monthly_report.csv":
        "7c824d0c29239f942cc8ed498e84483a496ede7772e789a03adbcef2ce019599",
    "plot_data.json":
        "c724cf6ab73f3c14f3c686a1fbdc59f72285518bf3b84b2c774d1cd7cbabf960",
}

# the same fixture under --apy-convention simple_365, whose daily rates take
# another path through the engine
GOLDEN_SIMPLE_365 = {
    "comparison.csv":
        "a483532d0f121b7ad8307f9c957bcc530318d861ef616799f24fe687f4060bae",
    "ledger_erc.csv":
        "863c474a311c98ed84a45a9c68f5ee8c85fe1cc2e125d83502fb756e502c8d41",
    "ledger_ew.csv":
        "e844b0760ccc8bbb26a92e5a1e60cf1f4b39901419e35c990b52d05c94507061",
    "ledger_tvl.csv":
        "09be07d69c584de2aa6db758750b440b35736682954cace2f89b23a2cdd4ebb9",
    "monthly_report.csv":
        "d8763d7097201be9cb8f0ce31e1a3e21fa91d0194d836e18a0d4f69f8cc9cf10",
    "plot_data.json":
        "b1023b49e0b96aa9946ddedaed1ddd65845cc0f86873a52aff9f988933e408b7",
}


def write_fixture(base):
    with open(base / "scores.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["protocol_id", "name", "chain", "score", "tvl"])
        for pid, score, tvl, _, _ in PROTOCOLS:
            writer.writerow([pid, pid.title(), "Ethereum", score, tvl])
    with open(base / "yields.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date", "protocol_id", "apy"])
        for i in range(DAYS):
            date = (START + dt.timedelta(days=i)).isoformat()
            for k, (pid, _, _, first, missing) in enumerate(PROTOCOLS):
                if i >= first and i not in missing:
                    writer.writerow([date, pid, f"{0.02 + 0.001 * ((i * (k + 3)) % 7):.4f}"])
    with open(base / "fx.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date", "rate"])
        for i in range(DAYS):
            if i not in FX_MISSING:
                date = (START + dt.timedelta(days=i)).isoformat()
                writer.writerow([date, f"{1.0 + 0.0005 * ((i % 5) - 2):.4f}"])


def backtest_digests(base, *options):
    """The sha256 of each file `backtest` writes for the fixture in `base`."""
    write_fixture(base)
    out = base / "out"
    end = START + dt.timedelta(days=DAYS - 1)
    code = main([
        "backtest",
        "--scores", str(base / "scores.csv"),
        "--yields", str(base / "yields.csv"),
        "--fx", str(base / "fx.csv"),
        "--method", "ew,tvl,erc",
        "--start", START.isoformat(),
        "--end", end.isoformat(),
        "--out", str(out),
        *options,
    ])
    assert code == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def test_backtest_outputs_match_golden_hashes(tmp_path):
    assert backtest_digests(tmp_path) == GOLDEN


def test_simple_365_outputs_match_golden_hashes(tmp_path):
    assert backtest_digests(tmp_path, "--apy-convention", "simple_365") == GOLDEN_SIMPLE_365


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the two-process write needs os.fork")
def test_outputs_written_on_two_processes_match_golden_hashes(tmp_path, monkeypatch):
    """A forked child writes a share of the files when their cost is at
    least the floor, here 0, and two CPUs are usable."""
    statuses, reap = [], cli._reap
    monkeypatch.setattr(cli, "_reap", lambda pid: statuses.append(reap(pid)) or statuses[-1])
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "TWO_PROCESS_REPRS", 0)
    assert backtest_digests(tmp_path) == GOLDEN
    assert statuses == [0]


# --- metamorphic properties of the whole command, byte for byte -----------------

END = START + dt.timedelta(days=DAYS - 1)


def backtest_files(base, start, end, out, scores="scores.csv", yields="yields.csv",
                   fx="fx.csv"):
    """The bytes of each file `backtest` writes over [start, end] into base/out."""
    assert main([
        "backtest", "--scores", str(base / scores), "--yields", str(base / yields),
        "--fx", str(base / fx), "--method", "ew,tvl,erc",
        "--start", start.isoformat(), "--end", end.isoformat(), "--out", str(base / out),
    ]) == 0
    return {p.name: p.read_bytes() for p in sorted((base / out).iterdir())}


def _month_rows(monthly: bytes) -> dict[str, list[bytes]]:
    rows = {}
    for line in monthly.splitlines()[1:]:
        rows.setdefault(line.split(b",")[0], []).append(line)
    return rows


def test_split_run_chains_into_the_whole_run(tmp_path):
    # split at a month end, on the day before yearn's first yield: the head's
    # ledgers are prefixes of the whole's, the tail's rows differ from the
    # whole's only in the values (it starts again at 1), and the monthly
    # tables of head and tail are the whole's
    write_fixture(tmp_path)
    split = dt.date(2022, 1, 31)
    whole = backtest_files(tmp_path, START, END, "whole")
    head = backtest_files(tmp_path, START, split, "head")
    tail = backtest_files(tmp_path, split + dt.timedelta(days=1), END, "tail")
    head_days = (split - START).days + 1
    for method in ("erc", "ew", "tvl"):
        name = f"ledger_{method}.csv"
        lines = whole[name].splitlines()
        assert head[name].splitlines() == lines[:1 + head_days]
        tail_lines = tail[name].splitlines()
        assert tail_lines[0] == lines[0] and len(tail_lines) == len(lines) - head_days
        for got, want in zip(tail_lines[1:], lines[1 + head_days:]):
            got, want = got.split(b","), want.split(b",")
            assert got[:2] + got[4:] == want[:2] + want[4:]
    months = _month_rows(whole["monthly_report.csv"])
    head_months, tail_months = (_month_rows(run["monthly_report.csv"]) for run in (head, tail))
    assert set(months) == {b"erc", b"ew", b"tvl"}
    for method, rows in months.items():
        assert rows == head_months[method] + tail_months[method]
        assert len(head_months[method]) == 1


def test_observations_outside_the_window_change_nothing(tmp_path):
    # yields and FX rows dated outside [start - gap, end] are never read;
    # curve has no yields on the start day, which is filled from two days back
    write_fixture(tmp_path)
    start, end, gap = dt.date(2022, 2, 10), dt.date(2022, 2, 25), 3
    first = (start - dt.timedelta(days=gap)).isoformat()
    for name in ("yields", "fx"):
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        kept = [lines[0], *(l for l in lines[1:] if first <= l[:10] <= end.isoformat())]
        assert len(kept) < len(lines) - 10
        (tmp_path / f"{name}_window.csv").write_text("\n".join(kept) + "\n")
    want = backtest_files(tmp_path, start, end, "all")
    got = backtest_files(tmp_path, start, end, "window", yields="yields_window.csv",
                         fx="fx_window.csv")
    assert got == want


def test_scored_protocol_without_yields_changes_nothing(tmp_path):
    # between comp and curve in id order, with the lowest score and the
    # largest TVL: it would dominate ERC and TVL weights if it were ever active
    write_fixture(tmp_path)
    lines = (tmp_path / "scores.csv").read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("curve,"))
    lines.insert(at, "cream,Cream,Ethereum,0.001,1000000000000")
    (tmp_path / "inert.csv").write_text("\n".join(lines) + "\n")
    want = backtest_files(tmp_path, START, END, "plain")
    got = backtest_files(tmp_path, START, END, "inert", scores="inert.csv")
    assert got == want
