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

    def test_missing_dir_exits_4(self, tmp_path, capsys):
        assert main(["report", "--ledger", str(tmp_path / "absent")]) == 4


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

    def test_bad_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "fetch.ini"
        config.write_text("[fetch]\nbase_url = http://x\n")
        assert main(["fetch", "--config", str(config), "--out", str(tmp_path / "b")]) == 2
