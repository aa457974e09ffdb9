import contextlib
import csv
import datetime as dt
import json
import os
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from defiparity import allocate, cli, ingest, report
from defiparity.cli import main
from defiparity.domain import WeightVector
from defiparity.errors import DefiParityError, DuplicateObservation, NotConverged

SCORES_CSV = (
    "protocol_id,name,chain,score,tvl\n"
    "aave,Aave,Ethereum,1.0,500\n"
    "curve,Curve,Ethereum,4.0,300\n"
)
LONG_CELL = "9" * 200_000  # beyond the csv module's field size limit (131 072)


def write_inputs(tmp_path, days=75, third_protocol=False):
    scores = SCORES_CSV
    if third_protocol:
        scores += "yearn,Yearn,Ethereum,6.0,200\n"
    (tmp_path / "scores.csv").write_text(scores)
    start = dt.date(2021, 12, 1)
    with open(tmp_path / "yields.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date", "protocol_id", "apy"])
        for i in range(days):
            d = (start + dt.timedelta(days=i)).isoformat()
            writer.writerow([d, "aave", "0.03"])
            writer.writerow([d, "curve", "0.06"])
            if third_protocol and i >= 30:
                writer.writerow([d, "yearn", "0.09"])
    with open(tmp_path / "fx.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date", "rate"])
        for i in range(days):
            d = (start + dt.timedelta(days=i)).isoformat()
            writer.writerow([d, repr(1.0 + 0.002 * (i % 4))])
    end = start + dt.timedelta(days=days - 1)
    return start, end


def _cell(index, value):
    """An edit of a line that sets one cell; no cell these tests edit is
    quoted (ledger ids cells included), so the line splits on every comma."""
    def edit(line):
        cells = line.split(",")
        cells[index] = value
        return ",".join(cells)
    return edit


def _line_end(index):
    """An edit of a line that quotes one cell with a line end after its text,
    so that its row spans two lines."""
    def edit(line):
        cells = line.split(",")
        cells[index] = f'"{cells[index]}\n"'
        return ",".join(cells)
    return edit


class TestAllocateCommand:
    def test_table_output(self, tmp_path, capsys):
        write_inputs(tmp_path)
        code = main(["allocate", "--scores", str(tmp_path / "scores.csv"),
                     "--method", "erc"])
        out = capsys.readouterr().out
        assert code == 0
        assert "aave" in out and "curve" in out
        # scores (1, 4) -> weights (2/3, 1/3)
        assert "0.666667" in out and "0.333333" in out

    def test_json_output(self, tmp_path, capsys):
        write_inputs(tmp_path)
        code = main(["allocate", "--scores", str(tmp_path / "scores.csv"),
                     "--method", "erc", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "erc"
        assert payload["converged"] is True
        assert payload["weights"]["aave"] == pytest.approx(2 / 3, abs=1e-9)

    def test_ew_and_tvl(self, tmp_path, capsys):
        write_inputs(tmp_path)
        for method, expected in (("ew", 0.5), ("tvl", 0.625)):
            code = main(["allocate", "--scores", str(tmp_path / "scores.csv"),
                         "--method", method, "--json"])
            assert code == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["weights"]["aave"] == pytest.approx(expected, abs=1e-12)

    def test_validation_error_exits_2(self, tmp_path, capsys):
        (tmp_path / "scores.csv").write_text(
            "protocol_id,name,chain,score,tvl\naave,Aave,Ethereum,0,\n"
        )
        code = main(["allocate", "--scores", str(tmp_path / "scores.csv"),
                     "--method", "ew"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_scores_whose_squares_overflow_exit_2(self, tmp_path, capsys):
        (tmp_path / "scores.csv").write_text(
            "protocol_id,name,chain,score,tvl\naave,Aave,Ethereum,1e200,\n"
            "curve,Curve,Ethereum,1.0,\n"
        )
        code = main(["allocate", "--scores", str(tmp_path / "scores.csv"),
                     "--method", "erc"])
        assert code == 2
        err = capsys.readouterr().err
        assert "sum to 0 or overflow" in err and "1e+200 for 'aave'" in err

    def test_missing_file_exits_4(self, tmp_path, capsys):
        code = main(["allocate", "--scores", str(tmp_path / "absent.csv"),
                     "--method", "ew"])
        assert code == 4

    def test_nonconvergence_exits_3(self, tmp_path, capsys, monkeypatch):
        write_inputs(tmp_path)

        def explode(matrix, opts=None):
            raise NotConverged(WeightVector(("aave", "curve"), (0.5, 0.5)), 1e-3, 7)

        monkeypatch.setattr(allocate, "solve_erc", explode)
        code = main(["allocate", "--scores", str(tmp_path / "scores.csv"),
                     "--method", "erc"])
        assert code == 3


class TestBacktestCommand:
    def test_multi_method_run(self, tmp_path, capsys):
        start, end = write_inputs(tmp_path, third_protocol=True)
        out_dir = tmp_path / "out"
        code = main([
            "backtest",
            "--scores", str(tmp_path / "scores.csv"),
            "--yields", str(tmp_path / "yields.csv"),
            "--fx", str(tmp_path / "fx.csv"),
            "--method", "erc,ew,tvl",
            "--start", start.isoformat(),
            "--end", end.isoformat(),
            "--out", str(out_dir),
        ])
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == [
            "comparison.csv", "ledger_erc.csv", "ledger_ew.csv",
            "ledger_tvl.csv", "monthly_report.csv", "plot_data.json",
        ]
        plot = json.loads((out_dir / "plot_data.json").read_text())
        assert sorted(plot["methods"]) == ["erc", "ew", "tvl"]

    def test_merged_output_ordered_by_method(self, tmp_path, capsys):
        start, end = write_inputs(tmp_path)
        out_dir = tmp_path / "out"
        code = main([
            "backtest",
            "--scores", str(tmp_path / "scores.csv"),
            "--yields", str(tmp_path / "yields.csv"),
            "--method", "tvl,erc",  # deliberately unsorted
            "--start", start.isoformat(),
            "--end", end.isoformat(),
            "--out", str(out_dir),
        ])
        assert code == 0
        with open(out_dir / "monthly_report.csv") as fh:
            methods = [row["method"] for row in csv.DictReader(fh)]
        assert methods == sorted(methods)

    def test_unknown_method_exits_2(self, tmp_path, capsys):
        start, end = write_inputs(tmp_path)
        code = main([
            "backtest",
            "--scores", str(tmp_path / "scores.csv"),
            "--yields", str(tmp_path / "yields.csv"),
            "--method", "ew,minvar",
            "--start", start.isoformat(),
            "--end", end.isoformat(),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2

    def test_no_method_exits_2(self, tmp_path, capsys):
        start, end = write_inputs(tmp_path)
        code = main([
            "backtest",
            "--scores", str(tmp_path / "scores.csv"),
            "--yields", str(tmp_path / "yields.csv"),
            "--method", ",",
            "--start", start.isoformat(),
            "--end", end.isoformat(),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: no backtest method given\n"
        assert not (tmp_path / "out").exists()

    def test_bad_start_date_exits_2(self, tmp_path, capsys):
        write_inputs(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([
                "backtest",
                "--scores", str(tmp_path / "scores.csv"),
                "--yields", str(tmp_path / "yields.csv"),
                "--method", "ew",
                "--start", "2022-13-01",
                "--end", "2022-01-31",
                "--out", str(tmp_path / "out"),
            ])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "defiparity backtest: error: argument --start: "
            "not an ISO date (YYYY-MM-DD): '2022-13-01'")
        assert not (tmp_path / "out").exists()

    def fx_run(self, tmp_path, start, end):
        return main([
            "backtest",
            "--scores", str(tmp_path / "scores.csv"),
            "--yields", str(tmp_path / "yields.csv"),
            "--fx", str(tmp_path / "fx.csv"),
            "--method", "ew,erc",
            "--start", start.isoformat(),
            "--end", end.isoformat(),
            "--out", str(tmp_path / "out"),
        ])

    def test_fx_run_builds_one_panel(self, tmp_path, capsys, panel_builds):
        assert self.fx_run(tmp_path, *write_inputs(tmp_path)) == 0
        assert len(panel_builds) == 1
        assert panel_builds[0].fx is not None

    def test_yields_error_reported_before_fx_error(self, tmp_path, capsys):
        start, end = write_inputs(tmp_path)
        (tmp_path / "yields.csv").write_text("date,protocol_id,apy\n2021-12-01,aave,abc\n")
        (tmp_path / "fx.csv").write_text("date,rate\n2021-12-01,0\n")
        assert self.fx_run(tmp_path, start, end) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'yields.csv'}:2: cannot parse apy" in err
        assert "fx.csv" not in err

    @pytest.mark.parametrize("name, index", [
        ("scores.csv", 0), ("scores.csv", 2), ("yields.csv", 4), ("fx.csv", 3),
    ])
    def test_overlong_cell_exits_2_naming_line(self, tmp_path, capsys, name, index):
        start, end = write_inputs(tmp_path)
        path = tmp_path / name
        lines = path.read_text().splitlines()
        lines[index] = lines[index].rsplit(",", 1)[0] + "," + LONG_CELL
        path.write_text("\n".join(lines) + "\n")
        assert self.fx_run(tmp_path, start, end) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}:{index + 1}: unreadable CSV: field larger than field limit")

    @pytest.mark.parametrize("name, index, earlier", [
        pytest.param("scores.csv", 0, None, id="scores.csv-0"),
        pytest.param("scores.csv", 2, None, id="scores.csv-2"),
        pytest.param("yields.csv", 40, None, id="yields.csv-40"),
        pytest.param("fx.csv", 10, None, id="fx.csv-10"),
        # (line index, edit, error): a bad row before the bad byte, in the
        # same 8 KB, is the error reported
        pytest.param("scores.csv", 2, (1, _cell(3, "abc"), "cannot parse score from 'abc'"),
                     id="scores-bad-score"),
        pytest.param("yields.csv", 40, (2, _cell(2, "abc"), "cannot parse apy from 'abc'"),
                     id="yields-bad-apy"),
        pytest.param("yields.csv", 40, (2, _cell(0, "2021-13-01"),
                                        "cannot parse date from '2021-13-01'"),
                     id="yields-bad-date"),
        pytest.param("yields.csv", 40, (3, _cell(0, "2021-12-01"),  # line 2's aave row
                                        "duplicate observation for 'aave' on 2021-12-01"),
                     id="yields-repeat"),
        pytest.param("fx.csv", 10, (2, _cell(1, "abc"), "cannot parse rate from 'abc'"),
                     id="fx-bad-rate"),
        pytest.param("fx.csv", 10, (3, _cell(0, "2021-12-02"),  # line 3's date
                                    "duplicate observation on 2021-12-02"), id="fx-repeat"),
    ])
    def test_non_utf8_byte_exits_2_naming_line(self, tmp_path, capsys, name, index, earlier):
        start, end = write_inputs(tmp_path)
        path = tmp_path / name
        lines = path.read_bytes().split(b"\n")
        if earlier:
            row, edit, message = earlier
            lines[row] = edit(lines[row].decode()).encode()
        lines[index] = lines[index].replace(b",", b"\xff,", 1)
        path.write_bytes(b"\n".join(lines))
        assert self.fx_run(tmp_path, start, end) == 2
        column = lines[index].index(b"\xff") + 1
        assert capsys.readouterr().err == (
            f"error: {path}:{row + 1}: {message}\n" if earlier else
            f"error: {path}:{index + 1}: not UTF-8: byte 0xff at byte {column} "
            "(invalid start byte)\n")

    @pytest.mark.parametrize("name, quoted, row, edit, message", [
        ("scores.csv", 1, 2, _cell(3, "abc"), "cannot parse score from 'abc'"),
        ("yields.csv", 2, 2, _cell(2, "zz"), "cannot parse apy from 'zz'"),
        ("yields.csv", 2, 3, _cell(0, "2021-12-01"),  # line 2's aave row
         "duplicate observation for 'aave' on 2021-12-01"),
        ("fx.csv", 1, 2, _cell(1, "abc"), "cannot parse rate from 'abc'"),
    ], ids=["scores", "yields-bad-apy", "yields-repeat", "fx"])
    def test_row_after_a_quoted_line_end_named_by_its_line(self, tmp_path, capsys, name,
                                                           quoted, row, edit, message):
        # row 1 spans lines 2 and 3, so data row `row` starts on line `row + 2`
        start, end = write_inputs(tmp_path)
        path = tmp_path / name
        lines = path.read_text().splitlines()
        lines[1] = _line_end(quoted)(lines[1])
        lines[row] = edit(lines[row])
        path.write_text("\n".join(lines) + "\n")
        assert self.fx_run(tmp_path, start, end) == 2
        assert capsys.readouterr().err == f"error: {path}:{row + 2}: {message}\n"

    def test_overlong_yields_cell_after_a_repeat_reports_the_repeat(self, tmp_path, capsys):
        start, end = write_inputs(tmp_path)
        path = tmp_path / "yields.csv"
        lines = path.read_text().splitlines()
        lines[3] = lines[1]
        lines[5] = lines[5].rsplit(",", 1)[0] + "," + LONG_CELL
        path.write_text("\n".join(lines) + "\n")
        assert self.fx_run(tmp_path, start, end) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}:4: duplicate observation for 'aave'")

    def test_date_outside_data_exits_2(self, tmp_path, capsys):
        start, end = write_inputs(tmp_path)
        code = main([
            "backtest",
            "--scores", str(tmp_path / "scores.csv"),
            "--yields", str(tmp_path / "yields.csv"),
            "--method", "ew",
            "--start", "2020-01-01",
            "--end", "2020-03-01",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2


class TestReportCommand:
    def run_backtest_cli(self, tmp_path):
        start, end = write_inputs(tmp_path)
        out_dir = tmp_path / "out"
        assert main([
            "backtest",
            "--scores", str(tmp_path / "scores.csv"),
            "--yields", str(tmp_path / "yields.csv"),
            "--method", "ew,erc",
            "--start", start.isoformat(),
            "--end", end.isoformat(),
            "--out", str(out_dir),
        ]) == 0
        return out_dir

    def test_csv_format(self, tmp_path, capsys):
        out_dir = self.run_backtest_cli(tmp_path)
        capsys.readouterr()
        assert main(["report", "--ledger", str(out_dir)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "method,month_end,perf,avg_risk,ratio"
        # 3 months (Dec, Jan, partial Feb) x 2 methods
        assert len(lines) == 1 + 6

    def test_json_format(self, tmp_path, capsys):
        out_dir = self.run_backtest_cli(tmp_path)
        capsys.readouterr()
        assert main(["report", "--ledger", str(out_dir), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"ew", "erc"}
        for rows in payload.values():
            assert rows[0]["month_end"] == "2021-12-31"
            assert rows[0]["ratio"] == pytest.approx(
                rows[0]["perf"] / rows[0]["avg_risk"], rel=1e-9
            )

    def test_table_format(self, tmp_path, capsys):
        out_dir = self.run_backtest_cli(tmp_path)
        capsys.readouterr()
        assert main(["report", "--ledger", str(out_dir), "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "%" in out and "2021-12-31" in out

    def test_csv_stdout_equals_monthly_report_csv(self, tmp_path, capsys):
        out_dir = self.run_backtest_cli(tmp_path)
        capsys.readouterr()
        assert main(["report", "--ledger", str(out_dir), "--format", "csv"]) == 0
        assert capsys.readouterr().out == (out_dir / "monthly_report.csv").read_text()

    def test_missing_dir_exits_4(self, tmp_path, capsys):
        assert main(["report", "--ledger", str(tmp_path / "absent")]) == 4

    def test_ledger_with_only_a_header_exits_2(self, tmp_path, capsys):
        out_dir = self.run_backtest_cli(tmp_path)
        path = out_dir / "ledger_ew.csv"
        path.write_text(path.read_text().splitlines()[0] + "\n")
        capsys.readouterr()
        assert main(["report", "--ledger", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: ledger file {path} has no rows\n"

    def report_after_edit(self, tmp_path, capsys, index, edit):
        """Exit code and stderr of `report` once `edit` has replaced line
        `index` of the EW ledger (a None result drops it); the ledger's path."""
        out_dir = self.run_backtest_cli(tmp_path)
        path = out_dir / "ledger_ew.csv"
        lines = path.read_text().splitlines()
        edited = edit(lines[index])
        if edited is None:
            del lines[index]
        else:
            lines[index] = edited
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["report", "--ledger", str(out_dir)])
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, captured.err, path

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda line: ",".join(line.split(",")[:4]), id="short-row"),
        pytest.param(lambda line: line + ",x", id="extra-field"),
        pytest.param(_cell(1, "abc"), id="bad-float"),
        pytest.param(_cell(0, "2021-13-05"), id="bad-date"),
        pytest.param(_cell(6, "0.5;0.6"), id="weights-not-summing-to-1"),
        pytest.param(_cell(6, "1.0"), id="weights-of-another-set"),
        pytest.param(_cell(4, "nan"), id="nan-risk"),
        pytest.param(_cell(4, "-0.1"), id="negative-risk"),
        pytest.param(_cell(3, "inf"), id="inf-usd"),
        pytest.param(_cell(1, "nan"), id="nan-return"),
        pytest.param(_cell(6, LONG_CELL), id="overlong-cell"),
    ])
    def test_malformed_ledger_row_exits_2_naming_line(self, tmp_path, capsys, edit):
        code, err, path = self.report_after_edit(tmp_path, capsys, 4, edit)
        assert code == 2
        assert err.startswith(f"error: {path}:5: ")

    @pytest.mark.parametrize("earlier", [
        pytest.param(None, id="byte-only"),
        # a bad row on line 3, before the bad byte, is the error reported
        pytest.param(_cell(1, "abc"), id="bad-float-first"),
        pytest.param(_cell(0, "2021-13-05"), id="bad-date-first"),
    ])
    def test_non_utf8_byte_exits_2_naming_line(self, tmp_path, capsys, earlier):
        out_dir = self.run_backtest_cli(tmp_path)
        path = out_dir / "ledger_ew.csv"
        lines = path.read_bytes().split(b"\n")
        if earlier:
            lines[2] = earlier(lines[2].decode()).encode()
        lines[4] = lines[4].replace(b";", b";\xc3", 1)  # a lead byte with no continuation
        path.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        assert main(["report", "--ledger", str(out_dir)]) == 2
        column = lines[4].index(b"\xc3") + 1
        err = capsys.readouterr().err
        if earlier:
            assert err.startswith(f"error: {path}:3: ") and "not UTF-8" not in err
        else:
            assert err == (f"error: {path}:5: not UTF-8: byte 0xc3 at byte {column} "
                           "(invalid continuation byte)\n")

    def test_row_after_a_quoted_line_end_named_by_its_line(self, tmp_path, capsys):
        # row 1's ids cell spans lines 2 and 3, so the bad row 2 starts on line 4
        out_dir = self.run_backtest_cli(tmp_path)
        path = out_dir / "ledger_ew.csv"
        lines = path.read_text().splitlines()
        lines[1] = _line_end(5)(lines[1])
        lines[2] = _cell(1, "abc")(lines[2])
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["report", "--ledger", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:4: ")

    def test_weights_overflowing_fsum_named_as_a_bad_sum(self, tmp_path, capsys):
        code, err, path = self.report_after_edit(tmp_path, capsys, 4, _cell(6, "1e308;1e308"))
        assert code == 2
        assert err == f"error: {path}:5: weights must sum to 1 (got inf)\n"

    def test_missing_day_exits_2_naming_file(self, tmp_path, capsys):
        code, err, path = self.report_after_edit(tmp_path, capsys, 4, lambda line: None)
        assert code == 2
        assert err == f"error: {path}: ledger must hold one row per consecutive day\n"

    def test_total_loss_on_first_day_exits_2(self, tmp_path, capsys):
        code, err, path = self.report_after_edit(tmp_path, capsys, 1, _cell(1, "-1.0"))
        assert code == 2
        assert err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("erc_end", ["2022-03-31", "2022-01-31"])
    def test_table_needs_the_same_months(self, tmp_path, capsys, erc_end):
        # EW covers Dec-Feb; ERC covers Jan-Mar, or January alone
        write_inputs(tmp_path, days=121)
        for method, start, end in (("ew", "2021-12-01", "2022-02-28"),
                                   ("erc", "2022-01-01", erc_end)):
            assert main([
                "backtest", "--scores", str(tmp_path / "scores.csv"),
                "--yields", str(tmp_path / "yields.csv"), "--method", method,
                "--start", start, "--end", end, "--out", str(tmp_path / method),
            ]) == 0
        ledgers = tmp_path / "ledgers"
        ledgers.mkdir()
        for method in ("ew", "erc"):
            name = f"ledger_{method}.csv"
            (ledgers / name).write_bytes((tmp_path / method / name).read_bytes())
        capsys.readouterr()
        assert main(["report", "--ledger", str(ledgers), "--format", "table"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: reports 'erc' and 'ew' cover different month ends\n"
        )
        # the per-method formats carry each report's own months
        assert main(["report", "--ledger", str(ledgers), "--format", "json"]) == 0


USABLE_CPUS = cli._usable_cpus


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the two-process read needs os.fork")
class TestReportOnTwoProcesses:
    """`report` reads a ledger set of any size on two processes once the
    size floor is 0 and two CPUs are usable; its output, error line and
    exit code are those of the read on one process."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of the children `report` forks, each reaped on return."""
        pids, fork = [], os.fork

        def counting_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        return pids

    def ledgers(self, tmp_path, largest="erc"):
        """The fixture's three ledgers, the largest (ERC's, which the child
        reads) renamed to ledger_<largest>.csv."""
        start, end = write_inputs(tmp_path, third_protocol=True)
        out = tmp_path / "out"
        assert main([
            "backtest", "--scores", str(tmp_path / "scores.csv"),
            "--yields", str(tmp_path / "yields.csv"), "--fx", str(tmp_path / "fx.csv"),
            "--method", "ew,tvl,erc", "--start", start.isoformat(),
            "--end", end.isoformat(), "--out", str(out),
        ]) == 0
        (out / "ledger_erc.csv").rename(out / f"ledger_{largest}.csv")
        return out

    def report(self, monkeypatch, capsys, out, fmt, floor):
        monkeypatch.setattr(cli, "TWO_PROCESS_BYTES", floor)
        capsys.readouterr()
        code = main(["report", "--ledger", str(out), "--format", fmt])
        captured = capsys.readouterr()
        with pytest.raises(ChildProcessError):  # no child is left, not even a zombie
            os.waitpid(-1, os.WNOHANG)
        return code, captured.out, captured.err

    def serial_and_split(self, monkeypatch, capsys, forks, out, fmt="csv"):
        serial = self.report(monkeypatch, capsys, out, fmt, floor=10 ** 12)
        assert forks == []
        split = self.report(monkeypatch, capsys, out, fmt, floor=0)
        assert len(forks) == 1
        return serial, split

    @staticmethod
    def shares(out):
        """The sorted ledger paths, and those the child reads."""
        paths = sorted(out.glob("ledger_*.csv"))
        child = cli._child_share([p.stat().st_size for p in paths])
        return paths, [paths[i] for i in child]

    @staticmethod
    def break_last_row(path):
        lines = path.read_text().splitlines()
        lines[-1] = _cell(1, "abc")(lines[-1])
        path.write_text("\n".join(lines) + "\n")
        return len(lines)

    @pytest.mark.parametrize("fmt", ["csv", "json", "table"])
    def test_output_equals_the_serial_bytes(self, tmp_path, monkeypatch, capsys, forks, fmt):
        out = self.ledgers(tmp_path)
        serial, split = self.serial_and_split(monkeypatch, capsys, forks, out, fmt)
        assert split == serial
        assert serial[0] == 0 and serial[1] and not serial[2]
        if fmt == "csv":
            assert serial[1] == (out / "monthly_report.csv").read_text()

    def test_child_splits_off_a_share(self, tmp_path):
        paths, child = self.shares(self.ledgers(tmp_path))
        assert child == [paths[0]]  # ERC's ledger, the largest
        assert cli._child_share([5, 3, 3]) == [0]
        assert cli._child_share([1, 4, 2, 3]) == [0, 1]  # 4 + 1 against 3 + 2

    def test_bad_row_the_child_reads_gives_the_serial_error(
            self, tmp_path, monkeypatch, capsys, forks):
        out = self.ledgers(tmp_path)
        child = self.shares(out)[1]
        line = self.break_last_row(child[0])
        assert self.shares(out)[1] == child
        serial, split = self.serial_and_split(monkeypatch, capsys, forks, out)
        assert split == serial == (
            2, "", f"error: {child[0]}:{line}: could not convert string to float: 'abc'\n")

    @pytest.mark.parametrize("largest", ["erc", "zz"])
    def test_first_broken_ledger_in_sorted_order_wins(
            self, tmp_path, monkeypatch, capsys, forks, largest):
        # the child's ledger sorts first (erc) or last (zz); every ledger is broken
        out = self.ledgers(tmp_path, largest)
        paths, child = self.shares(out)
        assert child == [out / f"ledger_{largest}.csv"]
        lines = [self.break_last_row(p) for p in paths]
        serial, split = self.serial_and_split(monkeypatch, capsys, forks, out)
        assert split == serial
        assert serial[0] == 2 and serial[2].startswith(f"error: {paths[0]}:{lines[0]}: ")

    @pytest.mark.parametrize("end", ["exit-3", "killed"])
    def test_child_that_fails_still_gives_the_output(
            self, tmp_path, monkeypatch, capsys, forks, end):
        out = self.ledgers(tmp_path)
        serial = self.report(monkeypatch, capsys, out, "json", floor=10 ** 12)
        parent, read = os.getpid(), report.read_ledger_csv

        def failing_in_child(path):
            if os.getpid() != parent:
                if end == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(3)
            return read(path)

        monkeypatch.setattr(report, "read_ledger_csv", failing_in_child)
        assert self.report(monkeypatch, capsys, out, "json", floor=0) == serial
        assert len(forks) == 1

    @pytest.mark.parametrize("limit", ["one-cpu", "no-fork", "one-ledger", "below-floor"])
    def test_read_on_one_process(self, tmp_path, monkeypatch, capsys, forks, limit):
        out = self.ledgers(tmp_path)
        serial = self.report(monkeypatch, capsys, out, "csv", floor=10 ** 12)
        floor = 0
        if limit == "one-cpu":
            monkeypatch.setattr(cli, "_usable_cpus", USABLE_CPUS)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
            assert cli._usable_cpus() == 1
        elif limit == "no-fork":
            monkeypatch.delattr(os, "fork")
        elif limit == "one-ledger":
            for name in ("ew", "tvl"):
                (out / f"ledger_{name}.csv").unlink()
            serial = self.report(monkeypatch, capsys, out, "csv", floor=10 ** 12)
        else:
            floor = sum(p.stat().st_size for p in out.glob("ledger_*.csv")) + 1
        assert self.report(monkeypatch, capsys, out, "csv", floor) == serial
        assert forks == []

    def test_read_on_one_process_with_a_second_thread(self, tmp_path, monkeypatch, capsys,
                                                      forks):
        out = self.ledgers(tmp_path)
        serial = self.report(monkeypatch, capsys, out, "csv", floor=10 ** 12)
        done = threading.Event()
        thread = threading.Thread(target=done.wait, args=(10,))
        thread.start()
        try:
            assert self.report(monkeypatch, capsys, out, "csv", floor=0) == serial
        finally:
            done.set()
            thread.join(10)
        assert not thread.is_alive()
        assert forks == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the two-process write needs os.fork")
class TestOutputsOnTwoProcesses:
    """`backtest` writes outputs of any size on two processes once the reprs
    floor is 0 and two CPUs are usable: a forked child writes a share of the
    files.  The files, stdout, error line and exit code are those of the
    writes on one process."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """The wait status of each child the writes fork, once reaped."""
        statuses, reap = [], cli._reap

        def recording_reap(pid):
            statuses.append(reap(pid))
            return statuses[-1]

        monkeypatch.setattr(cli, "_reap", recording_reap)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        return statuses

    @staticmethod
    def backtest(monkeypatch, capsys, base, name, floor, method="ew,tvl,erc"):
        """The exit code, stdout and stderr (the output directory read as
        `<out>`) and the files of a backtest of the fixture in `base` into
        the new directory `name`, with this reprs floor.  Stdout is a
        block-buffered file that holds unwritten text when a child forks."""
        start, end = write_inputs(base, third_protocol=True)
        out, stdout = base / name, base / f"{name}.stdout"
        monkeypatch.setattr(cli, "TWO_PROCESS_REPRS", floor)
        capsys.readouterr()
        with open(stdout, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            fh.write("before ")  # flushed once, by this process
            code = main([
                "backtest", "--scores", str(base / "scores.csv"),
                "--yields", str(base / "yields.csv"), "--fx", str(base / "fx.csv"),
                "--method", method, "--start", start.isoformat(), "--end", end.isoformat(),
                "--out", str(out),
            ])
        with pytest.raises(ChildProcessError):  # no child is left, not even a zombie
            os.waitpid(-1, os.WNOHANG)
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
        return (code, stdout.read_text().replace(str(out), "<out>"),
                capsys.readouterr().err.replace(str(out), "<out>"), files)

    # the fixture's output costs in the order written: 75 days, so 3 months;
    # two sets, of 2 and 3 protocols, one EW weight each
    COSTS = [300 + 5, 300 + 2, 300 + 5, 900, 27, 675]

    @staticmethod
    def child_writes(monkeypatch, names):
        """Give the child the writes of these files (in the order of
        `emit_outputs`: ledgers by method, comparison, monthly, plot)."""
        order = ["ledger_erc.csv", "ledger_ew.csv", "ledger_tvl.csv", "comparison.csv",
                 "monthly_report.csv", "plot_data.json"]
        monkeypatch.setattr(cli, "_child_share", lambda costs: sorted(map(order.index, names)))

    @pytest.mark.parametrize("method", ["ew,tvl,erc", "erc"])
    def test_outputs_equal_the_serial_bytes(self, tmp_path, monkeypatch, capsys, forks, method):
        serial = self.backtest(monkeypatch, capsys, tmp_path, "serial", 10 ** 12, method)
        assert forks == []
        assert self.backtest(monkeypatch, capsys, tmp_path, "split", 0, method) == serial
        code, out, err, files = serial
        names = [f"ledger_{m}.csv" for m in sorted(method.split(","))] + [
            "comparison.csv", "monthly_report.csv", "plot_data.json"]
        assert code == 0 and not err and sorted(files) == sorted(names)
        assert out == "before " + "".join(f"<out>/{name}\n" for name in names)
        assert forks == [0]

    def test_child_takes_a_share_of_the_cost(self, tmp_path):
        start, end = write_inputs(tmp_path, third_protocol=True)
        universe = ingest.load_scores(tmp_path / "scores.csv")
        panel = ingest.load_yields(tmp_path / "yields.csv", universe.ids)
        ledgers = [cli.run_backtest(cli.BacktestConfig(start, end, m), universe, panel)
                   for m in ("erc", "ew", "tvl")]
        paths, writes = report._output_writes(
            ledgers, [report.monthly_report(l) for l in ledgers], tmp_path / "out")
        costs = [cost for _, cost in writes]
        assert costs == self.COSTS
        child = cli._child_share(costs)
        assert [paths[i].name for i in child] == [
            "ledger_tvl.csv", "comparison.csv", "monthly_report.csv"]

    @pytest.mark.parametrize("end", ["exit-3", "killed"])
    def test_child_that_fails_still_gives_the_outputs(self, tmp_path, monkeypatch, capsys,
                                                      forks, end):
        """The child dies as it writes ledger_erc.csv, half of which is on
        disk when it is killed; every file is written again here."""
        serial = self.backtest(monkeypatch, capsys, tmp_path, "serial", 10 ** 12)
        self.child_writes(monkeypatch, ["ledger_erc.csv", "comparison.csv"])
        parent, write = os.getpid(), report._write_ledger_csv
        partial = tmp_path / "partial"

        def failing_in_child(ledger, path, ids_cells):
            if os.getpid() != parent:
                if end == "exit-3":
                    os._exit(3)
                write(ledger, path, ids_cells)
                path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
                partial.write_bytes(path.read_bytes())
                os.kill(os.getpid(), signal.SIGKILL)
            write(ledger, path, ids_cells)

        monkeypatch.setattr(report, "_write_ledger_csv", failing_in_child)
        assert self.backtest(monkeypatch, capsys, tmp_path, "split", 0) == serial
        assert len(forks) == 1
        if end == "killed":
            assert os.WIFSIGNALED(forks[0]) and os.WTERMSIG(forks[0]) == signal.SIGKILL
            assert 0 < len(partial.read_bytes()) < len(serial[3]["ledger_erc.csv"])
        else:
            assert os.WEXITSTATUS(forks[0]) == 3

    def test_oserror_here_gives_the_serial_error(self, tmp_path, monkeypatch, capsys, forks):
        """comparison.csv, which this process writes, is a directory; the
        child writes ledger_erc.csv and is killed or has exited."""
        self.child_writes(monkeypatch, ["ledger_erc.csv"])
        outcomes = []
        for name, floor in (("serial", 10 ** 12), ("split", 0)):
            (tmp_path / name / "comparison.csv").mkdir(parents=True)
            outcomes.append(self.backtest(monkeypatch, capsys, tmp_path, name, floor))
        assert outcomes[0] == outcomes[1]
        assert len(forks) == 1
        code, out, err, files = outcomes[0]
        assert code == 4 and out == "before "
        assert err.startswith("error: [Errno 21] Is a directory: ") and "comparison.csv" in err
        assert sorted(files) == ["ledger_erc.csv", "ledger_ew.csv", "ledger_tvl.csv"]

    @pytest.mark.parametrize("limit", ["one-cpu", "no-fork", "second-thread", "below-floor"])
    def test_writes_on_one_process(self, tmp_path, monkeypatch, capsys, forks, limit):
        serial = self.backtest(monkeypatch, capsys, tmp_path, "serial", 10 ** 12)
        floor, done = 0, threading.Event()
        thread = threading.Thread(target=done.wait, args=(10,))
        if limit == "one-cpu":
            monkeypatch.setattr(cli, "_usable_cpus", USABLE_CPUS)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
            assert cli._usable_cpus() == 1
        elif limit == "no-fork":
            monkeypatch.delattr(os, "fork")
        elif limit == "second-thread":
            thread.start()
        else:
            floor = sum(self.COSTS) + 1
        try:
            assert self.backtest(monkeypatch, capsys, tmp_path, "split", floor) == serial
        finally:
            done.set()
            if thread.is_alive():
                thread.join(10)
        assert not thread.is_alive()
        assert forks == []

    def test_library_call_never_forks(self, tmp_path, monkeypatch, forks):
        start, end = write_inputs(tmp_path)
        universe = ingest.load_scores(tmp_path / "scores.csv")
        panel = ingest.load_yields(tmp_path / "yields.csv", universe.ids)
        ledgers = [cli.run_backtest(cli.BacktestConfig(start, end, m), universe, panel)
                   for m in ("erc", "tvl")]
        monkeypatch.setattr(cli, "TWO_PROCESS_REPRS", 0)
        report.emit_outputs(ledgers, [report.monthly_report(l) for l in ledgers], tmp_path)
        assert forks == []


YIELD_IDS = ("aave", "curve", "yearn")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the two-process read needs os.fork")
class TestYieldsOnTwoProcesses:
    """`backtest` reads a plain yields file of any size on two processes once
    the yields size floor is 0 and two CPUs are usable: a forked child reads
    the lines from the first line start past the middle of the file.  The
    panel, error, line and exit code are those of the read on one process."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """The wait status of each child the yields read forks, once reaped."""
        statuses, reap = [], cli._reap

        def recording_reap(pid):
            statuses.append(reap(pid))
            return statuses[-1]

        monkeypatch.setattr(cli, "_reap", recording_reap)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        return statuses

    @staticmethod
    def lines(days=60):
        """Bare-cell rows of the three ids over `days` days, date by date."""
        dates = [(dt.date(2021, 12, 1) + dt.timedelta(days=i)).isoformat() for i in range(days)]
        return [f"{date},{pid},{0.01 * (k + 1) + 1e-4 * i!r}"
                for i, date in enumerate(dates) for k, pid in enumerate(YIELD_IDS)]

    @staticmethod
    def write(path, lines, newline="\n"):
        path.write_bytes("".join(f"{line}{newline}" for line in ["date,protocol_id,apy", *lines])
                         .encode("utf-8", "surrogateescape"))
        return path

    @staticmethod
    def middle(path):
        """The first line start past the middle of the file: the child's share."""
        data = path.read_bytes()
        return data.index(b"\n", len(data) // 2) + 1

    @staticmethod
    def load(monkeypatch, path, floor, fx=None):
        """The panel the CLI reads from `path` with this size floor (the
        library's read on one process if None), or the error it raises."""
        try:
            if floor is None:
                result = ingest.load_yields(path, YIELD_IDS, fx)
            else:
                monkeypatch.setattr(cli, "TWO_PROCESS_YIELDS_BYTES", floor)
                result = cli._load_yields(path, YIELD_IDS, fx)
        except (DefiParityError, ValueError) as exc:
            result = exc
        with pytest.raises(ChildProcessError):  # no child is left, not even a zombie
            os.waitpid(-1, os.WNOHANG)
        return result

    def serial_and_split(self, monkeypatch, forks, path, fx=None):
        serial = self.load(monkeypatch, path, None, fx)
        assert forks == []
        split = self.load(monkeypatch, path, 0, fx)
        assert len(forks) == 1
        return serial, split

    @staticmethod
    def bits(result):
        """A panel's ids, day ordinals and APY bit patterns, FX too; or an
        error's type and message."""
        if isinstance(result, Exception):
            return type(result), str(result)

        def of(series):
            return series.ordinals.tobytes(), series.levels.tobytes()

        return ([(pid, *of(s)) for pid, s in result.series.items()],
                None if result.fx is None else of(result.fx))

    @staticmethod
    def spy_plain_rows(monkeypatch):
        """Whether each run this process offers `_plain_rows` is taken, and
        its line count."""
        runs, plain_rows = [], ingest._plain_rows

        def spy(run, *args):
            runs.append((plain_rows(run, *args), run.count(b"\n")))
            return runs[-1][0]

        monkeypatch.setattr(ingest, "_plain_rows", spy)
        return runs

    @staticmethod
    def spy_starts(monkeypatch):
        """The `start` of each `_read_rows` call: the byte offset the row path
        reads from and the lines before it."""
        starts, read_rows = [], ingest._read_rows

        def spy(path, header, take, start):
            starts.append(start)
            return read_rows(path, header, take, start)

        monkeypatch.setattr(ingest, "_read_rows", spy)
        return starts

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("run_bytes", [ingest._RUN_BYTES, 50])
    def test_plain_file_gives_the_serial_panel(self, tmp_path, monkeypatch, forks,
                                               newline, run_bytes):
        write_inputs(tmp_path)
        path = self.write(tmp_path / "plain.csv", self.lines(), newline)
        monkeypatch.setattr(ingest, "_RUN_BYTES", run_bytes)
        serial = self.load(monkeypatch, path, None, tmp_path / "fx.csv")
        runs = self.spy_plain_rows(monkeypatch)
        split = self.load(monkeypatch, path, 0, tmp_path / "fx.csv")
        assert self.bits(split) == self.bits(serial)
        assert serial.fx is not None and len(serial.series) == 3
        assert forks == [0]
        # every run here was taken a column at a time: the lines before the
        # middle, the child's columns were used for the rest
        data = path.read_bytes()
        assert all(taken for taken, _ in runs)
        assert sum(lines for _, lines in runs) == data.count(b"\n", 0, self.middle(path)) - 1

    def test_duplicate_across_the_shares_names_the_serial_line(self, tmp_path, monkeypatch,
                                                               forks):
        lines = self.lines()
        lines[-1] = lines[0]  # the child's last line repeats the parent's first
        path = self.write(tmp_path / "yields.csv", lines)
        serial, split = self.serial_and_split(monkeypatch, forks, path)
        assert self.bits(split) == self.bits(serial)
        assert isinstance(serial, DuplicateObservation)
        assert str(serial).startswith(f"{path}:{len(lines) + 1}: duplicate observation")
        assert forks == [0]

    IRREGULAR = {
        "unknown_id": lambda date, pid, apy: f"{date},zz,{apy}",
        "bad_apy": lambda date, pid, apy: f"{date},{pid},abc",
        "non_utf8": lambda date, pid, apy: f"{date},{pid}\udcff,{apy}",
        "quoted_id": lambda date, pid, apy: f'{date},"{pid}",{apy}',
        "blank_line": lambda date, pid, apy: f"\n{date},{pid},{apy}",
        "percent": lambda date, pid, apy: f"{date},{pid},{float(apy) * 100!r}%",
    }

    @pytest.mark.parametrize("share", ["first-run", "parent", "child"])
    @pytest.mark.parametrize("kind", sorted(IRREGULAR))
    def test_irregular_line_gives_the_serial_outcome(self, tmp_path, monkeypatch, forks,
                                                     kind, share):
        """The line is in the parent's first run or its last run (the child is
        killed unread), or in the child's share."""
        monkeypatch.setattr(ingest, "_RUN_BYTES", 100)
        lines = self.lines()
        path = self.write(tmp_path / "yields.csv", lines)
        middle_line = path.read_bytes().count(b"\n", 0, self.middle(path)) - 1
        i = {"first-run": 0, "parent": middle_line - 3, "child": len(lines) - 1}[share]
        lines[i] = self.IRREGULAR[kind](*lines[i].split(","))
        self.write(path, lines)
        if share == "first-run":  # the child is still reading when it is killed
            parent, plain_columns = os.getpid(), ingest._plain_columns

            def slow_in_child(*args):
                if os.getpid() != parent:
                    time.sleep(30)
                return plain_columns(*args)

            monkeypatch.setattr(ingest, "_plain_columns", slow_in_child)
        starts = self.spy_starts(monkeypatch)
        serial = self.load(monkeypatch, path, None)
        split = self.load(monkeypatch, path, 0)
        offsets = [offset for offset, _ in starts]
        assert self.bits(split) == self.bits(serial)
        if kind in ("unknown_id", "bad_apy", "non_utf8"):
            assert isinstance(serial, Exception) and f"{path}:{i + 2}" in str(serial)
        else:
            assert not isinstance(serial, Exception)
        # the row path picks up where the columns stopped, never at byte 0
        header, middle = len("date,protocol_id,apy\n"), self.middle(path)
        assert offsets[0] == 0
        if share == "first-run":
            assert offsets[1:] == [header] and len(forks) == 1
            assert os.WIFSIGNALED(forks[0]) and os.WTERMSIG(forks[0]) == signal.SIGKILL
        elif share == "parent":
            assert header < offsets[1] < middle and len(forks) == 1
        else:
            assert offsets[1:] == [middle] and len(forks) == 1
            assert os.WEXITSTATUS(forks[0]) == 1  # its share is not plain rows

    def test_split_on_the_last_line(self, tmp_path, monkeypatch, forks):
        lines = self.lines(days=4)
        date, pid, _ = lines[-2].split(",")
        lines[-2] = f"{date},{pid},0.05{'0' * 400}"  # holds the middle byte
        path = self.write(tmp_path / "yields.csv", lines)
        assert path.read_bytes()[self.middle(path):] == f"{lines[-1]}\n".encode()
        runs = self.spy_plain_rows(monkeypatch)
        serial, split = self.serial_and_split(monkeypatch, forks, path)
        assert self.bits(split) == self.bits(serial)
        assert serial.series[pid].levels[-1] == 0.05
        assert forks == [0]
        # one run on one process, then the parent's share: all but the last line
        assert runs == [(True, len(lines)), (True, len(lines) - 1)]

    @pytest.mark.parametrize("end", ["exit-3", "killed"])
    def test_child_that_fails_still_gives_the_panel(self, tmp_path, monkeypatch, forks, end):
        path = self.write(tmp_path / "yields.csv", self.lines())
        serial = self.load(monkeypatch, path, None)
        parent, plain_columns = os.getpid(), ingest._plain_columns

        def failing_in_child(*args):
            if os.getpid() != parent:
                if end == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(3)
            return plain_columns(*args)

        monkeypatch.setattr(ingest, "_plain_columns", failing_in_child)
        assert self.bits(self.load(monkeypatch, path, 0)) == self.bits(serial)
        assert len(forks) == 1
        if end == "killed":
            assert os.WIFSIGNALED(forks[0]) and os.WTERMSIG(forks[0]) == signal.SIGKILL
        else:
            assert os.WEXITSTATUS(forks[0]) == 3

    @pytest.mark.parametrize("limit", ["one-cpu", "no-fork", "below-floor", "padded-header"])
    def test_read_on_one_process(self, tmp_path, monkeypatch, forks, limit):
        lines = self.lines()
        path = self.write(tmp_path / "yields.csv", lines)
        serial = self.load(monkeypatch, path, None)
        floor = 0
        if limit == "one-cpu":
            monkeypatch.setattr(cli, "_usable_cpus", USABLE_CPUS)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        elif limit == "no-fork":
            monkeypatch.delattr(os, "fork")
        elif limit == "below-floor":
            floor = path.stat().st_size + 1
        else:
            path.write_bytes(path.read_bytes().replace(b"date,", b"date ,", 1))
        assert self.bits(self.load(monkeypatch, path, floor)) == self.bits(serial)
        assert forks == []

    def test_read_below_the_floor_is_the_library_read(self, tmp_path, monkeypatch, forks):
        """Below the floor nothing is read before the row path, which starts
        at the top: a first run that is not plain rows (a blank line after the
        header) is offered to `_plain_rows` once, as in a library call."""
        lines = self.lines()
        path = self.write(tmp_path / "yields.csv", ["", *lines])
        serial = self.load(monkeypatch, path, None)
        runs, starts = self.spy_plain_rows(monkeypatch), self.spy_starts(monkeypatch)
        split = self.load(monkeypatch, path, path.stat().st_size + 1)
        assert self.bits(split) == self.bits(serial)
        assert not isinstance(serial, Exception) and len(serial.series) == 3
        assert starts == [(0, 0)] and forks == []
        assert runs == [(False, len(lines) + 1)]  # the one run past the header

    @pytest.mark.parametrize("bad", [False, True])
    def test_refused_run_is_offered_once(self, tmp_path, monkeypatch, forks, bad):
        """The CI's `early` copy: a blank line after the header and a `%` APY
        on row 1 (and a bad APY on the last line).  This process refuses its
        first run, so the child is killed; the row path resumes at the header
        and offers `_plain_rows` each later run, but not that one again."""
        monkeypatch.setattr(ingest, "_RUN_BYTES", 100)
        lines = self.lines()
        lines[0] = self.IRREGULAR["percent"](*lines[0].split(","))
        if bad:
            lines[-1] = self.IRREGULAR["bad_apy"](*lines[-1].split(","))
        path = self.write(tmp_path / "yields.csv", ["", *lines])
        serial = self.load(monkeypatch, path, None)
        runs = self.spy_plain_rows(monkeypatch)
        split = self.load(monkeypatch, path, 0)
        assert self.bits(split) == self.bits(serial)
        assert isinstance(serial, Exception) == bad and len(forks) == 1
        # one offer a run: together they hold every line past the header once
        assert [taken for taken, _ in runs] == [False, *[True] * (len(runs) - 2), not bad]
        assert sum(count for _, count in runs) == len(lines) + 1

    def test_read_on_one_process_with_a_second_thread(self, tmp_path, monkeypatch, forks):
        path = self.write(tmp_path / "yields.csv", self.lines())
        serial = self.load(monkeypatch, path, None)
        done = threading.Event()
        thread = threading.Thread(target=done.wait, args=(10,))
        thread.start()
        try:
            assert self.bits(self.load(monkeypatch, path, 0)) == self.bits(serial)
        finally:
            done.set()
            thread.join(10)
        assert not thread.is_alive()
        assert forks == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
    def test_pipe_is_read_once_on_one_process(self, tmp_path, monkeypatch, forks):
        """A pipe's bytes can be read only once, so the split never opens it."""
        path = self.write(tmp_path / "yields.csv", self.lines())
        serial = self.load(monkeypatch, path, None)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        results = []

        def write():
            with open(fifo, "wb") as fh:
                fh.write(path.read_bytes())

        def read():
            results.append(self.load(monkeypatch, fifo, 0))

        threads = [threading.Thread(target=f, daemon=True) for f in (write, read)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        assert self.bits(results[0]) == self.bits(serial)
        assert forks == []

    def test_library_read_never_forks(self, tmp_path, monkeypatch, forks):
        path = self.write(tmp_path / "yields.csv", self.lines())
        monkeypatch.setattr(cli, "TWO_PROCESS_YIELDS_BYTES", 0)
        ingest.load_yields(path, YIELD_IDS)
        assert forks == []

    @pytest.mark.parametrize("bad", [False, True])
    def test_backtest_gives_the_serial_bytes_and_exit(self, tmp_path, monkeypatch, capsys,
                                                      forks, bad):
        start, end = write_inputs(tmp_path, third_protocol=True)
        if bad:  # the child's last line
            lines = (tmp_path / "yields.csv").read_text().splitlines()
            lines[-1] = _cell(2, "abc")(lines[-1])
            (tmp_path / "yields.csv").write_text("\n".join(lines) + "\n")
        outcomes = []
        for floor in (10 ** 12, 0):  # read on one process, then on two
            monkeypatch.setattr(cli, "TWO_PROCESS_YIELDS_BYTES", floor)
            out = tmp_path / f"out{floor}"
            code = main([
                "backtest", "--scores", str(tmp_path / "scores.csv"),
                "--yields", str(tmp_path / "yields.csv"), "--fx", str(tmp_path / "fx.csv"),
                "--method", "ew,tvl,erc", "--start", start.isoformat(),
                "--end", end.isoformat(), "--out", str(out),
            ])
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            files = {p.name: p.read_bytes() for p in out.glob("*")} if out.exists() else {}
            outcomes.append((code, capsys.readouterr().err, files))
        assert outcomes[0] == outcomes[1]
        assert len(forks) == 1
        code, err, files = outcomes[0]
        if bad:
            assert code == 2 and err.startswith(f"error: {tmp_path / 'yields.csv'}:")
            assert not files
        else:
            assert code == 0 and not err and "ledger_erc.csv" in files


class _Handler(BaseHTTPRequestHandler):
    payloads = {}

    def do_GET(self):
        path = self.path.split("?")[0]
        body = self.payloads.get(path)
        if body is None:
            self.send_response(404)
            self.end_headers()
            return
        raw = json.dumps(body).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


@pytest.fixture
def yield_api():
    start = dt.date(2022, 1, 1)
    days = [start + dt.timedelta(days=i) for i in range(5)]
    _Handler.payloads = {
        "/v1/scores": [
            {"protocol_id": "aave", "name": "Aave", "chain": "Ethereum",
             "score": 1.0, "tvl": 500.0},
            {"protocol_id": "curve", "name": "Curve", "chain": "Ethereum",
             "score": 4.0, "tvl": None},
        ],
        "/v1/yields/aave": [{"date": d.isoformat(), "apy": 0.03} for d in days],
        "/v1/yields/curve": [{"date": d.isoformat(), "apy": 0.06} for d in days],
        "/v1/fx": [{"date": d.isoformat(), "rate": 1.0} for d in days],
    }
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()
    thread.join()


class TestFetchCommand:
    def write_config(self, tmp_path, base_url):
        config = tmp_path / "fetch.ini"
        config.write_text(
            "[fetch]\n"
            f"base_url = {base_url}\n"
            "scores_endpoint = /v1/scores\n"
            "yields_endpoint = /v1/yields/{protocol_id}\n"
            "fx_endpoint = /v1/fx\n"
            "\n"
            "[cache]\n"
            f"dir = {tmp_path / 'cache'}\n"
            "ttl_seconds = 3600\n"
            "\n"
            "[universe]\n"
            "ids = aave,curve\n"
            "\n"
            "[range]\n"
            "start = 2022-01-01\n"
            "end = 2022-01-05\n"
        )
        return config

    def test_fetch_materializes_bundle(self, tmp_path, capsys, yield_api):
        config = self.write_config(tmp_path, yield_api)
        out_dir = tmp_path / "bundle"
        assert main(["fetch", "--config", str(config), "--out", str(out_dir)]) == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["fx.csv", "scores.csv", "yields.csv"]
        # the fetched bundle drives a backtest end to end
        capsys.readouterr()
        assert main([
            "backtest",
            "--scores", str(out_dir / "scores.csv"),
            "--yields", str(out_dir / "yields.csv"),
            "--fx", str(out_dir / "fx.csv"),
            "--method", "ew",
            "--start", "2022-01-01",
            "--end", "2022-01-05",
            "--out", str(tmp_path / "bt"),
        ]) == 0

    def test_fetch_twice_hits_cache(self, tmp_path, capsys, yield_api):
        config = self.write_config(tmp_path, yield_api)
        assert main(["fetch", "--config", str(config), "--out", str(tmp_path / "b1")]) == 0
        # break the server; the cache must carry the second fetch
        _Handler.payloads = {}
        assert main(["fetch", "--config", str(config), "--out", str(tmp_path / "b2")]) == 0
        for name in ("scores.csv", "yields.csv", "fx.csv"):
            assert (tmp_path / "b1" / name).read_bytes() == \
                (tmp_path / "b2" / name).read_bytes()

    def test_fields_section_renames_one_field(self, tmp_path, capsys, yield_api):
        # the INI maps only protocol_id; every other field keeps its own name
        for item in _Handler.payloads["/v1/scores"]:
            item["slug"] = item.pop("protocol_id")
        config = self.write_config(tmp_path, yield_api)
        config.write_text(config.read_text() + "\n[fields.scores]\nprotocol_id = slug\n")
        out_dir = tmp_path / "bundle"
        assert main(["fetch", "--config", str(config), "--out", str(out_dir)]) == 0
        assert (out_dir / "scores.csv").read_text() == (
            "protocol_id,name,chain,score,tvl\n"
            "aave,Aave,Ethereum,1.0,500.0\n"
            "curve,Curve,Ethereum,4.0,\n"
        )

    @pytest.mark.parametrize("ttl, message", [
        ("nan", "config file {config}: ttl_seconds must be >= 0, got nan"),
        ("soon", "config file {config}: ttl_seconds must be a number, got 'soon'"),
    ])
    def test_bad_ttl_exits_2(self, tmp_path, capsys, ttl, message):
        # rejected before any request: the base URL is never reached
        config = self.write_config(tmp_path, "http://localhost:9")
        config.write_text(config.read_text().replace("ttl_seconds = 3600", f"ttl_seconds = {ttl}"))
        assert main(["fetch", "--config", str(config), "--out", str(tmp_path / "b")]) == 2
        assert capsys.readouterr().err == f"error: {message.format(config=config)}\n"
        assert not (tmp_path / "b").exists()

    def test_missing_config_exits_4(self, tmp_path, capsys):
        config = tmp_path / "absent.ini"
        assert main(["fetch", "--config", str(config), "--out", str(tmp_path / "b")]) == 4
        assert capsys.readouterr().err == f"error: config file not found: {config}\n"
        assert not (tmp_path / "b").exists()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "fetch.ini"
        config.write_text("[fetch]\nbase_url = http://x\n")
        assert main(["fetch", "--config", str(config), "--out", str(tmp_path / "b")]) == 2
