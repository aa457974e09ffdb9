import csv
import datetime as dt
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from defiparity import allocate
from defiparity.cli import main
from defiparity.domain import WeightVector
from defiparity.errors import NotConverged

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

    def test_bad_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "fetch.ini"
        config.write_text("[fetch]\nbase_url = http://x\n")
        assert main(["fetch", "--config", str(config), "--out", str(tmp_path / "b")]) == 2
