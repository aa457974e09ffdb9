import datetime as dt
import errno
import json
import math
import os
import subprocess
import sys
import threading
import time
from array import array
from pathlib import Path

import pytest

from defiparity.backtest import YieldPanel
from defiparity.domain import DatedSeries, ProtocolRecord, validate_universe
from defiparity import fetch, ingest, rows
from defiparity.errors import (
    DuplicateId,
    DuplicateObservation,
    EmptyUniverse,
    InvalidApy,
    MappingError,
    NetworkError,
    NonPositiveRate,
    NonPositiveScore,
    ParseError,
    UnknownProtocol,
)
from defiparity.fetch import FetchSpec, fetch_remote
from defiparity.ingest import (
    DataBundle,
    load_bundle,
    load_fx,
    load_scores,
    load_yields,
    save_bundle,
)
from reference_loader import reference_load_yields


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadScores:
    def test_happy_path(self, tmp_path):
        path = write(tmp_path / "scores.csv",
                     "protocol_id,name,chain,score,tvl\n"
                     "a,Alpha,ChainX,0.5,1000\n"
                     "b,Beta,ChainY,0.8,\n")
        universe = load_scores(path)
        assert universe.ids == ("a", "b")
        assert [p.tvl for p in universe] == [1000.0, None]

    def test_empty_body(self, tmp_path):
        path = write(tmp_path / "scores.csv", "protocol_id,name,chain,score,tvl\n")
        with pytest.raises(EmptyUniverse):
            load_scores(path)

    def test_zero_score_named_with_line(self, tmp_path):
        path = write(tmp_path / "scores.csv",
                     "protocol_id,name,chain,score,tvl\n"
                     "a,Alpha,ChainX,0,\n")
        with pytest.raises(NonPositiveScore) as exc:
            load_scores(path)
        assert exc.value.protocol_id == "a"
        assert ":2" in str(exc.value)

    @pytest.mark.parametrize("pid", ["a;b", "a b"])
    def test_malformed_id_reports_line(self, tmp_path, pid):
        path = write(tmp_path / "scores.csv",
                     "protocol_id,name,chain,score,tvl\n"
                     "ok,Okay,ChainX,0.5,\n"
                     f"{pid},Alpha,ChainX,0.5,\n")
        with pytest.raises(ParseError) as exc:
            load_scores(path)
        assert exc.value.line == 3
        assert str(exc.value).startswith(f"{path}:3: protocol_id must be a single token")

    def test_bad_float_reports_line(self, tmp_path):
        path = write(tmp_path / "scores.csv",
                     "protocol_id,name,chain,score,tvl\n"
                     "a,Alpha,ChainX,not-a-number,\n")
        with pytest.raises(ParseError) as exc:
            load_scores(path)
        assert exc.value.line == 2

    def test_duplicate_id_names_second_line(self, tmp_path):
        path = write(tmp_path / "scores.csv",
                     "protocol_id,name,chain,score,tvl\n"
                     "aave,Aave,Ethereum,0.5,1000\n"
                     "curve,Curve,Ethereum,0.8,\n"
                     "aave,Aave,Ethereum,0.6,\n")
        with pytest.raises(DuplicateId) as exc:
            load_scores(path)
        assert exc.value.protocol_id == "aave"
        assert f"{path}:4" in str(exc.value)

    def test_missing_header(self, tmp_path):
        path = write(tmp_path / "scores.csv", "a,Alpha,ChainX,0.5,1000\n")
        with pytest.raises(ParseError) as exc:
            load_scores(path)
        assert exc.value.line == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_scores(tmp_path / "nope.csv")


class TestLoadYields:
    def test_happy_path(self, tmp_path):
        path = write(tmp_path / "yields.csv",
                     "date,protocol_id,apy\n"
                     "2022-01-01,a,0.05\n"
                     "2022-01-02,a,0.06\n"
                     "2022-01-03,a,0.07\n"
                     "2022-01-01,b,0.02\n"
                     "2022-01-02,b,0.03\n"
                     "2022-01-03,b,0.04\n")
        panel = load_yields(path, ["a", "b"])
        assert set(panel.series) == {"a", "b"}
        assert len(panel.series["a"]) == 3
        assert panel.series["b"].values == (0.02, 0.03, 0.04)

    def test_percent_suffix(self, tmp_path):
        path = write(tmp_path / "yields.csv",
                     "date,protocol_id,apy\n2022-01-01,a,5%\n")
        panel = load_yields(path, ["a"])
        assert panel.series["a"].values == (0.05,)

    def test_duplicate_observation(self, tmp_path):
        path = write(tmp_path / "yields.csv",
                     "date,protocol_id,apy\n"
                     "2022-01-01,a,0.05\n"
                     "2022-01-01,a,0.06\n")
        with pytest.raises(DuplicateObservation):
            load_yields(path, ["a"])

    def duplicate_line(self, path) -> str:
        with pytest.raises(DuplicateObservation) as exc:
            load_yields(path, ["a", "b"])
        return str(exc.value).removeprefix(f"{path}:").split(":")[0]

    def test_triple_names_second_occurrence(self, tmp_path):
        path = write(tmp_path / "yields.csv",
                     "date,protocol_id,apy\n"
                     "2022-01-01,a,0.05\n"
                     "2022-01-01,a,0.06\n"
                     "2022-01-01,a,0.07\n")
        assert self.duplicate_line(path) == "3"

    def test_non_adjacent_duplicate_names_later_row(self, tmp_path):
        path = write(tmp_path / "yields.csv",
                     "date,protocol_id,apy\n"
                     "2022-01-02,b,0.02\n"
                     "2022-01-01,a,0.05\n"
                     "2022-01-03,b,0.03\n"
                     "2022-01-02,b,0.04\n"
                     "2022-01-01,a,0.06\n")
        assert self.duplicate_line(path) == "5"

    @pytest.mark.parametrize("later", [
        "2022-01-03,zz,0.01",
        "2022-01-03,a,abc",
        "2022-01-03,a," + "1" * 200_000,  # over csv's field size limit: csv.Error
    ])
    def test_duplicate_beats_later_bad_row(self, tmp_path, later):
        path = write(tmp_path / "yields.csv",
                     "date,protocol_id,apy\n"
                     "2022-01-01,a,0.05\n"
                     "2022-01-02,b,0.02\n"
                     "2022-01-01,a,0.06\n"
                     f"{later}\n")
        assert self.duplicate_line(path) == "4"

    def test_blank_lines_before_duplicate(self, tmp_path):
        path = write(tmp_path / "yields.csv",
                     "date,protocol_id,apy\n"
                     "\n"
                     "2022-01-01,a,0.05\n"
                     ",,\n"
                     " , ,\t\n"
                     "2022-01-02,a,0.06\n"
                     "\n"
                     "2022-01-01,a,0.07\n")
        assert self.duplicate_line(path) == "8"

    def test_unknown_protocol(self, tmp_path):
        path = write(tmp_path / "yields.csv",
                     "date,protocol_id,apy\n2022-01-01,zz,0.05\n")
        with pytest.raises(UnknownProtocol) as exc:
            load_yields(path, ["a"])
        assert exc.value.protocol_id == "zz"

    def test_apy_below_floor(self, tmp_path):
        path = write(tmp_path / "yields.csv",
                     "date,protocol_id,apy\n2022-01-01,a,-1.5\n")
        with pytest.raises(InvalidApy) as exc:
            load_yields(path, ["a"])
        assert ":2" in str(exc.value)

    def test_bad_date(self, tmp_path):
        path = write(tmp_path / "yields.csv",
                     "date,protocol_id,apy\n01/02/2022,a,0.05\n")
        with pytest.raises(ParseError) as exc:
            load_yields(path, ["a"])
        assert exc.value.line == 2

    # ids that read as a date and as a float, so cells read three at a time
    # parse whichever column they land in
    ODD_IDS = ("2021-12-02", "0.5")

    @pytest.mark.parametrize("pair", [
        # the six cells, read three at a time, are two rows in their own columns
        "2021-12-01,2021-12-02,0.01,2021-12-02\n0.5,0.02\n",
        # they put an id in the date column and a float id in the APY column
        "2021-12-01,0.5,0.01,2021-12-02\n0.5,0.5\n",
    ], ids=["aligned", "misaligned"])
    def test_four_then_two_fields_refused_a_column_at_a_time(self, tmp_path, pair):
        """A 4-field line and then a 2-field line hold as many separators as
        two rows; `_plain_rows` refuses the run all the same, and the row
        path raises the reference loader's error at the 4-field line."""
        before = "2021-12-01,2021-12-02,0.03\n2021-12-01,0.5,0.04\n"
        run = (before + pair).encode()
        index = {pid: k << ingest._DAY_BITS for k, pid in enumerate(sorted(self.ODD_IDS))}
        keys, apys = array("q"), array("d")
        assert not ingest._plain_rows(run, index, {}, keys, apys)
        assert not keys and not apys
        path = write(tmp_path / "yields.csv", "date,protocol_id,apy\n" + before + pair)
        with pytest.raises(ParseError) as exc:
            load_yields(path, self.ODD_IDS)
        assert str(exc.value) == f"{path}:4: expected 3 fields, got 4"
        with pytest.raises(ParseError) as want:
            reference_load_yields(path, self.ODD_IDS)
        assert str(exc.value) == str(want.value)

    def test_quoted_id_on_row_1_leaves_later_runs_a_column_at_a_time(self, tmp_path,
                                                                      monkeypatch):
        """The csv module reads the run that holds the quoted id alone; every
        later run is taken a column at a time, and the panel is the plain
        file's."""
        start = dt.date(2021, 12, 1)
        lines = [f"{start + dt.timedelta(days=i)},{pid},{0.01 * k + 1e-5 * i!r}"
                 for i in range(100) for k, pid in enumerate(("a", "b", "c"))]
        plain = write(tmp_path / "plain.csv", "date,protocol_id,apy\n" + "\n".join(lines) + "\n")
        date, pid, apy = lines[0].split(",")
        quoted = write(tmp_path / "quoted.csv", plain.read_text().replace(
            lines[0], f'{date},"{pid}",{apy}', 1))
        monkeypatch.setattr(rows, "_RUN_BYTES", 200)
        want = load_yields(plain, ["a", "b", "c"])
        runs, plain_rows = [], ingest._plain_rows

        def spy(run, *args):
            runs.append((plain_rows(run, *args), run.count(b"\n")))
            return runs[-1][0]

        monkeypatch.setattr(ingest, "_plain_rows", spy)
        assert load_yields(quoted, ["a", "b", "c"]) == want
        data = quoted.read_bytes()
        header_end = data.index(b"\n") + 1
        first_run_lines = data.count(b"\n", header_end, data.index(b"\n", header_end + 200) + 1)
        assert len(runs) > 10 and all(taken for taken, _ in runs)
        assert sum(count for _, count in runs) == len(lines) - first_run_lines

    def test_oserror_after_a_repeat_propagates_unchanged(self, tmp_path, monkeypatch):
        """A repeat read before a DefiParityError is the error raised; an
        OSError the run reader raises after a repeat is raised as it is."""
        lines = [f"2022-01-{day:02d},a,0.01" for day in range(1, 29)]
        path = write(tmp_path / "yields.csv",
                     "date,protocol_id,apy\n" + "\n".join([lines[0], *lines]) + "\n")
        runs = rows._runs

        def failing_runs(fh, size=-1):  # the second run of rows cannot be read
            for count, run in enumerate(runs(fh, size)):
                if count:
                    raise OSError(errno.EIO, os.strerror(errno.EIO))
                yield run

        monkeypatch.setattr(rows, "_RUN_BYTES", 50)
        monkeypatch.setattr(rows, "_runs", failing_runs)
        with pytest.raises(OSError) as raised:
            load_yields(path, ["a"])
        assert type(raised.value) is OSError and raised.value.errno == errno.EIO
        monkeypatch.setattr(rows, "_runs", runs)
        with pytest.raises(DuplicateObservation, match=r"yields\.csv:3: "):
            load_yields(path, ["a"])


class TestLoadFx:
    def test_identity_overlay(self, tmp_path):
        path = write(tmp_path / "fx.csv",
                     "date,rate\n2022-01-01,1.0\n2022-01-02,1.0\n")
        series = load_fx(path)
        assert series.values == (1.0, 1.0)

    def test_unsorted_accepted_duplicates_rejected(self, tmp_path):
        path = write(tmp_path / "fx.csv",
                     "date,rate\n2022-01-03,1.01\n2022-01-01,0.99\n")
        series = load_fx(path)
        assert series.dates == (dt.date(2022, 1, 1), dt.date(2022, 1, 3))
        dup = write(tmp_path / "fx2.csv",
                    "date,rate\n2022-01-01,1.0\n2022-01-01,1.0\n")
        with pytest.raises(DuplicateObservation):
            load_fx(dup)

    def test_zero_rate(self, tmp_path):
        path = write(tmp_path / "fx.csv", "date,rate\n2022-01-01,0\n")
        with pytest.raises(NonPositiveRate):
            load_fx(path)

    def test_duplicate_date_names_second_line(self, tmp_path):
        path = write(tmp_path / "fx.csv",
                     "date,rate\n2022-01-01,1.0\n2022-01-02,1.0\n\n2022-01-01,0.99\n")
        with pytest.raises(DuplicateObservation) as exc:
            load_fx(path)
        assert str(exc.value).startswith(f"{path}:5: ")
        assert "2022-01-01" in str(exc.value)


def sample_bundle(with_fx=True):
    universe = validate_universe([
        ProtocolRecord("aave", 0.5, name="Aave", chain="Ethereum", tvl=1234.5),
        ProtocolRecord("curve", 0.8125, name="Curve", chain="Ethereum"),
    ])
    d0 = dt.date(2022, 1, 1)
    series = {
        "aave": DatedSeries.from_pairs(
            [(d0 + dt.timedelta(days=i), 0.03 + 0.0001 * i) for i in range(5)]
        ),
        "curve": DatedSeries.from_pairs(
            [(d0 + dt.timedelta(days=i), 0.07) for i in range(5)]
        ),
    }
    fx = DatedSeries.from_pairs(
        [(d0 + dt.timedelta(days=i), 1.0 + 0.003 * i) for i in range(5)]
    ) if with_fx else None
    return DataBundle(universe, YieldPanel(series=series, fx=fx))


class TestRoundTrip:
    @pytest.mark.parametrize("with_fx", [True, False])
    def test_bundle_roundtrip_exact(self, tmp_path, with_fx):
        bundle = sample_bundle(with_fx)
        save_bundle(bundle, tmp_path)
        reloaded = load_bundle(tmp_path)
        assert reloaded == bundle

    def test_rewrite_is_byte_identical(self, tmp_path):
        bundle = sample_bundle()
        save_bundle(bundle, tmp_path / "one")
        save_bundle(bundle, tmp_path / "two")
        for name in ("scores.csv", "yields.csv", "fx.csv"):
            assert (tmp_path / "one" / name).read_bytes() == \
                (tmp_path / "two" / name).read_bytes()

    def test_fx_bundle_builds_one_panel(self, tmp_path, panel_builds):
        save_bundle(sample_bundle(), tmp_path)
        panel_builds.clear()
        assert load_bundle(tmp_path).panel.fx is not None
        assert len(panel_builds) == 1

    def test_series_id_must_exist_in_universe(self):
        universe = validate_universe([ProtocolRecord("a", 1.0)])
        panel = YieldPanel(series={
            "zz": DatedSeries.from_pairs([(dt.date(2022, 1, 1), 0.05)]),
        })
        with pytest.raises(UnknownProtocol):
            DataBundle(universe, panel)


class StubResponse:
    def __init__(self, payload, status_code=200):
        self._payload = payload
        self.status_code = status_code

    def json(self):
        if isinstance(self._payload, Exception):
            raise self._payload
        return self._payload


class StubSession:
    """Deterministic fixture standing in for requests.Session."""

    def __init__(self, routes):
        self.routes = routes
        self.calls = []
        self.fail_next = 0

    def get(self, url, params=None, timeout=None):
        self.calls.append((url, tuple(sorted((params or {}).items()))))
        if self.fail_next > 0:
            self.fail_next -= 1
            import requests

            raise requests.ConnectionError("stub connection failure")
        for suffix, payload in self.routes.items():
            if url.endswith(suffix):
                if isinstance(payload, int):
                    return StubResponse(None, status_code=payload)
                return StubResponse(payload)
        return StubResponse(None, status_code=404)


class ScriptedSession:
    """Answers each request with the next of `responses`."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = 0

    def get(self, url, params=None, timeout=None):
        self.calls += 1
        return self.responses.pop(0)


D0 = dt.date(2022, 1, 1)
RANGE = (D0, dt.date(2022, 1, 5))


def stub_routes(bundle):
    scores = [
        {
            "protocol_id": p.protocol_id,
            "name": p.name,
            "chain": p.chain,
            "score": p.score,
            "tvl": p.tvl,
        }
        for p in bundle.universe
    ]
    routes = {"/scores": scores}
    for pid, series in bundle.panel.series.items():
        routes[f"/yields/{pid}"] = [
            {"date": d.isoformat(), "apy": v} for d, v in series.entries
        ]
    if bundle.panel.fx is not None:
        routes["/fx"] = [
            {"date": d.isoformat(), "rate": v} for d, v in bundle.panel.fx.entries
        ]
    return routes


def make_spec(tmp_path, **overrides):
    kwargs = dict(
        base_url="https://yields.example",
        endpoints={
            "scores": "/scores",
            "yields": "/yields/{protocol_id}",
            "fx": "/fx",
        },
        cache_dir=tmp_path / "cache",
        cache_ttl=3600.0,
        retry_backoff=0.0,
    )
    kwargs.update(overrides)
    return FetchSpec(**kwargs)


class TestFetchRemote:
    def test_fetch_equals_file_load(self, tmp_path):
        bundle = sample_bundle()
        spec = make_spec(tmp_path)
        session = StubSession(stub_routes(bundle))
        fetched = fetch_remote(spec, bundle.universe.ids, RANGE, session=session)
        assert fetched == bundle
        # byte-for-byte against the file loaders
        save_bundle(bundle, tmp_path / "files")
        save_bundle(fetched, tmp_path / "fetched")
        for name in ("scores.csv", "yields.csv", "fx.csv"):
            assert (tmp_path / "files" / name).read_bytes() == \
                (tmp_path / "fetched" / name).read_bytes()

    def test_warm_cache_skips_network(self, tmp_path):
        bundle = sample_bundle()
        spec = make_spec(tmp_path)
        session = StubSession(stub_routes(bundle))
        first = fetch_remote(spec, bundle.universe.ids, RANGE, session=session)
        calls_after_first = len(session.calls)
        second = fetch_remote(spec, bundle.universe.ids, RANGE, session=session)
        assert len(session.calls) == calls_after_first
        assert first == second

    def test_expired_cache_refetches(self, tmp_path):
        bundle = sample_bundle()
        spec = make_spec(tmp_path, cache_ttl=0.0)
        session = StubSession(stub_routes(bundle))
        fetch_remote(spec, bundle.universe.ids, RANGE, session=session)
        calls_after_first = len(session.calls)
        # rewrite metas into the past so ttl=0 treats them as stale
        for meta in (tmp_path / "cache").rglob("*.meta"):
            stamped = json.loads(meta.read_text())
            stamped["fetched_at"] -= 10.0
            meta.write_text(json.dumps(stamped))
        fetch_remote(spec, bundle.universe.ids, RANGE, session=session)
        assert len(session.calls) == 2 * calls_after_first

    def test_consecutive_fetches_identical(self, tmp_path):
        bundle = sample_bundle()
        spec = make_spec(tmp_path, cache_ttl=0.0)
        session = StubSession(stub_routes(bundle))
        a = fetch_remote(spec, bundle.universe.ids, RANGE, session=session)
        b = fetch_remote(spec, bundle.universe.ids, RANGE, session=session)
        assert a == b

    def test_missing_field_raises_mapping_error(self, tmp_path):
        bundle = sample_bundle()
        routes = stub_routes(bundle)
        for row in routes["/yields/aave"]:
            del row["apy"]
        spec = make_spec(tmp_path)
        session = StubSession(routes)
        with pytest.raises(MappingError) as exc:
            fetch_remote(spec, bundle.universe.ids, RANGE, session=session)
        assert exc.value.field == "apy"

    @pytest.mark.parametrize("route, index, field, value", [
        ("/scores", 1, "score", "abc"),
        ("/yields/curve", 2, "date", "2022-13-01"),
    ])
    def test_unconvertible_value_names_url_and_item(self, tmp_path, route, index,
                                                    field, value):
        bundle = sample_bundle()
        routes = stub_routes(bundle)
        routes[route][index][field] = value
        spec = make_spec(tmp_path)
        with pytest.raises(ParseError) as exc:
            fetch_remote(spec, bundle.universe.ids, RANGE, session=StubSession(routes))
        message = str(exc.value)
        assert message.startswith(f"https://yields.example{route}: item {index}: ")
        assert repr(field) in message and repr(value) in message

    def test_malformed_id_names_url_and_item(self, tmp_path):
        bundle = sample_bundle()
        routes = stub_routes(bundle)
        routes["/scores"][1]["protocol_id"] = "a b"
        with pytest.raises(ParseError) as exc:
            fetch_remote(make_spec(tmp_path), bundle.universe.ids, RANGE,
                         session=StubSession(routes))
        message = str(exc.value)
        assert message.startswith("https://yields.example/scores: item 1: ")
        assert "'a b'" in message

    def test_nonpositive_score_names_url_and_item(self, tmp_path):
        bundle = sample_bundle()
        routes = stub_routes(bundle)
        routes["/scores"][1]["score"] = -1.0
        with pytest.raises(NonPositiveScore) as exc:
            fetch_remote(make_spec(tmp_path), bundle.universe.ids, RANGE,
                         session=StubSession(routes))
        assert exc.value.protocol_id == "curve"
        assert "(https://yields.example/scores item 1)" in str(exc.value)

    @pytest.mark.parametrize("route, index, field, value", [
        ("/scores", 0, "score", True),
        ("/scores", 0, "tvl", True),
        ("/yields/curve", 3, "apy", False),
        ("/fx", 1, "rate", True),
    ])
    def test_boolean_is_not_a_number(self, tmp_path, route, index, field, value):
        bundle = sample_bundle()
        routes = stub_routes(bundle)
        routes[route][index][field] = value
        with pytest.raises(ParseError) as exc:
            fetch_remote(make_spec(tmp_path), bundle.universe.ids, RANGE,
                         session=StubSession(routes))
        message = str(exc.value)
        assert message.startswith(f"https://yields.example{route}: item {index}: ")
        assert repr(field) in message and repr(value) in message

    @pytest.mark.parametrize("payload", [{"date": "2022-01-01", "rate": 1.0}, ["x"]])
    def test_payload_not_a_list_of_objects(self, tmp_path, payload):
        bundle = sample_bundle()
        routes = {**stub_routes(bundle), "/fx": payload}
        with pytest.raises(ParseError) as exc:
            fetch_remote(make_spec(tmp_path), bundle.universe.ids, RANGE,
                         session=StubSession(routes))
        assert str(exc.value).startswith("https://yields.example/fx: ")

    def test_field_map_renames(self, tmp_path):
        bundle = sample_bundle(with_fx=False)
        routes = {"/scores": [
            {"slug": p.protocol_id, "label": p.name, "chain": p.chain,
             "riskScore": p.score, "tvlUsd": p.tvl}
            for p in bundle.universe
        ]}
        for pid, series in bundle.panel.series.items():
            routes[f"/yields/{pid}"] = [
                {"day": d.isoformat(), "apyBase": v} for d, v in series.entries
            ]
        spec = make_spec(
            tmp_path,
            endpoints={"scores": "/scores", "yields": "/yields/{protocol_id}"},
            field_map={
                "scores": {"protocol_id": "slug", "name": "label",
                           "chain": "chain", "score": "riskScore", "tvl": "tvlUsd"},
                "yields": {"date": "day", "apy": "apyBase"},
            },
        )
        fetched = fetch_remote(spec, bundle.universe.ids, RANGE, session=StubSession(routes))
        assert fetched == bundle

    def test_retries_then_succeeds(self, tmp_path):
        bundle = sample_bundle()
        spec = make_spec(tmp_path, max_retries=2)
        session = StubSession(stub_routes(bundle))
        session.fail_next = 2
        fetched = fetch_remote(spec, bundle.universe.ids, RANGE, session=session)
        assert fetched == bundle

    def test_retries_exhausted(self, tmp_path):
        bundle = sample_bundle()
        spec = make_spec(tmp_path, max_retries=1)
        session = StubSession(stub_routes(bundle))
        session.fail_next = 99
        with pytest.raises(NetworkError):
            fetch_remote(spec, bundle.universe.ids, RANGE, session=session)

    def test_client_error_no_retry(self, tmp_path):
        spec = make_spec(tmp_path)
        session = StubSession({"/scores": 403})
        with pytest.raises(NetworkError):
            fetch_remote(spec, ("aave",), RANGE, session=session)
        assert len(session.calls) == 1

    def test_server_error_retried_then_succeeds(self, tmp_path):
        session = ScriptedSession([StubResponse(None, status_code=503), StubResponse([{}])])
        url = "https://yields.example/scores"
        assert fetch._http_get(make_spec(tmp_path), session, url, {}) == [{}]
        assert session.calls == 2

    def test_invalid_json_is_a_network_error(self, tmp_path):
        invalid = json.JSONDecodeError("Expecting value", "<html>", 0)
        session = ScriptedSession([StubResponse(invalid)])
        url = "https://yields.example/scores"
        with pytest.raises(NetworkError) as exc:
            fetch._http_get(make_spec(tmp_path), session, url, {})
        assert str(exc.value) == (f"GET {url} returned invalid JSON: "
                                  "Expecting value: line 1 column 1 (char 0)")
        assert session.calls == 1  # not retried

    def test_partial_payload_never_read_as_hit(self, tmp_path):
        # a payload without its meta sidecar is a miss, not a hit
        bundle = sample_bundle()
        spec = make_spec(tmp_path)
        session = StubSession(stub_routes(bundle))
        fetch_remote(spec, bundle.universe.ids, RANGE, session=session)
        for meta in (tmp_path / "cache").rglob("*.meta"):
            meta.unlink()
        calls_before = len(session.calls)
        fetch_remote(spec, bundle.universe.ids, RANGE, session=session)
        assert len(session.calls) == 2 * calls_before

    def test_concurrent_fetches_consistent(self, tmp_path):
        bundle = sample_bundle()
        spec = make_spec(tmp_path)
        session = StubSession(stub_routes(bundle))
        results = []
        errors = []

        def work():
            try:
                results.append(fetch_remote(spec, bundle.universe.ids, RANGE,
                                            session=session))
            except Exception as exc:  # pragma: no cover - diagnostic aid
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert all(r == bundle for r in results)

    def test_cache_locks_do_not_grow(self, tmp_path):
        # a long-lived fetcher touches ever new cache paths; the lock table
        # must not keep one lock per path
        spec = make_spec(tmp_path)
        locks = fetch._key_locks
        count = len(locks)
        for i in range(1000):
            fetch._cache_write(spec, "yields", f"p{i}", [], "https://yields.example")
        assert fetch._key_locks is locks
        assert len(fetch._key_locks) == count
        assert fetch._cache_read(spec, "yields", "p999") == []

    def test_ttl_must_be_nonnegative(self, tmp_path):
        # NaN and out-of-range times fail here, not at the first cache read,
        # `time.sleep` or request
        for name, value in [("cache_ttl", -1.0), ("cache_ttl", math.nan),
                            ("retry_backoff", -0.5), ("retry_backoff", math.nan),
                            ("retry_backoff", math.inf), ("timeout", 0.0), ("timeout", -1.0),
                            ("timeout", math.nan), ("timeout", math.inf)]:
            with pytest.raises(ValueError, match=f"^{name} must be"):
                make_spec(tmp_path, **{name: value})
        make_spec(tmp_path, cache_ttl=0.0, retry_backoff=0.0, timeout=0.5)
        make_spec(tmp_path, cache_ttl=math.inf)  # a cache that never expires

    def test_negative_max_retries_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"^max_retries must be >= 0$"):
            make_spec(tmp_path, max_retries=-1)

    def test_yields_endpoint_required(self, tmp_path):
        with pytest.raises(ValueError,
                           match=r"^endpoints must define at least 'scores' and 'yields'$"):
            make_spec(tmp_path, endpoints={"scores": "/scores", "fx": "/fx"})

    def test_future_dated_cache_refetches(self, tmp_path):
        # an entry stamped after now (the clock stepped back) is a miss,
        # not a hit for as long as the clock stays behind
        bundle = sample_bundle()
        spec = make_spec(tmp_path)
        session = StubSession(stub_routes(bundle))
        fetch_remote(spec, bundle.universe.ids, RANGE, session=session)
        calls_after_first = len(session.calls)
        for meta in (tmp_path / "cache").rglob("*.meta"):
            stamped = json.loads(meta.read_text())
            stamped["fetched_at"] = time.time() + 3600.0
            meta.write_text(json.dumps(stamped))
        fetch_remote(spec, bundle.universe.ids, RANGE, session=session)
        assert len(session.calls) == 2 * calls_after_first

    def test_cache_not_shared_across_providers(self, tmp_path):
        def routes(score):
            return {
                "/scores": [{"protocol_id": "aave", "score": score}],
                "/yields/aave": [{"date": D0.isoformat(), "apy": 0.05}],
            }

        endpoints = {"scores": "/scores", "yields": "/yields/{protocol_id}"}
        spec_a = make_spec(tmp_path, base_url="https://a.example", endpoints=endpoints)
        spec_b = make_spec(tmp_path, base_url="https://b.example", endpoints=endpoints)
        a = fetch_remote(spec_a, ("aave",), RANGE, session=StubSession(routes(1.0)))
        session_b = StubSession(routes(9.0))
        b = fetch_remote(spec_b, ("aave",), RANGE, session=session_b)
        assert a.universe.scores == (1.0,)
        assert b.universe.scores == (9.0,)
        assert len(session_b.calls) == 2


def test_ingest_names_the_fetch_module_objects():
    """`fetch`'s public names still resolve from `ingest`; the row reader's
    private names, now in `rows`, do not, so a stale patch of one raises."""
    from defiparity.ingest import FetchSpec as spec, fetch_remote as remote

    assert spec is fetch.FetchSpec and remote is fetch.fetch_remote
    for name in ("_RUN_BYTES", "_read_rows", "_http_get", "write_yields"):
        with pytest.raises(AttributeError, match=name):
            getattr(ingest, name)


def test_cli_import_leaves_requests_unloaded():
    # only `fetch` talks HTTP, hashes a cache key or reads a config file, so
    # the other commands should not pay for importing what those need
    import defiparity

    src = str(Path(defiparity.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = ("import sys, defiparity.cli; "
             "print([m in sys.modules for m in ('requests', 'hashlib', 'configparser')])")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[False, False, False]"
