"""Command-line interface: allocate, backtest, report, fetch.

Exit codes: 0 success, 2 input/validation error, 3 solver non-convergence,
4 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import datetime as dt
import json
import sys
from pathlib import Path

from . import allocate as alloc
from . import ingest, report
from .backtest import (
    APY_CONVENTIONS,
    METHODS,
    BacktestConfig,
    run_backtest,
)
from .errors import DefiParityError, NotConverged
from .risk import build_risk_matrix, normalize

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IO = 4


def _parse_iso_date(text: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an ISO date (YYYY-MM-DD): {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defiparity",
        description="Allocate across scored DeFi protocols and backtest "
                    "EW/TVL/ERC portfolios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("allocate", help="compute weights for one method")
    p.add_argument("--scores", required=True, help="scores CSV path")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("backtest", help="run one or more daily backtests")
    p.add_argument("--scores", required=True)
    p.add_argument("--yields", required=True)
    p.add_argument("--fx", default=None)
    p.add_argument("--method", required=True,
                   help="comma-separated subset of ew,tvl,erc")
    p.add_argument("--start", required=True, type=_parse_iso_date)
    p.add_argument("--end", required=True, type=_parse_iso_date)
    p.add_argument("--apy-convention", choices=APY_CONVENTIONS,
                   default="compound_365")
    p.add_argument("--gap-fill", type=int, default=3,
                   help="max days of forward fill for APY and FX gaps")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("report", help="monthly perf/risk/ratio tables from ledgers")
    p.add_argument("--ledger", required=True,
                   help="directory holding ledger_<method>.csv files")
    p.add_argument("--format", choices=("csv", "json", "table"), default="csv")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("fetch", help="fetch a data bundle from a remote API")
    p.add_argument("--config", required=True, help="INI config file")
    p.add_argument("--out", required=True, help="directory for the bundle CSVs")
    p.set_defaults(func=cmd_fetch)

    return parser


def cmd_allocate(args) -> int:
    universe = ingest.load_scores(args.scores)
    extra = {}
    if args.method == "ew":
        weights = alloc.equal_weights(universe)
    elif args.method == "tvl":
        weights = alloc.tvl_weights(universe)
    else:
        matrix = normalize(build_risk_matrix(universe))
        solution = alloc.solve_erc(matrix)
        weights = solution.weights
        extra = {
            "objective": solution.objective,
            "iterations": solution.iterations,
            "converged": solution.converged,
        }
    if args.json:
        print(json.dumps(
            {"method": args.method, "weights": weights.as_dict(), **extra},
            sort_keys=True,
        ))
    else:
        print(f"{'protocol':<16}{'weight':>12}")
        for pid, value in zip(weights.universe_ids, weights.values):
            print(f"{pid:<16}{value:>12.6f}")
        if extra:
            print(f"objective={extra['objective']:.3e} "
                  f"iterations={extra['iterations']} converged={extra['converged']}")
    return EXIT_OK


def cmd_backtest(args) -> int:
    methods = sorted(set(m.strip() for m in args.method.split(",") if m.strip()))
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {','.join(METHODS)}")
    if not methods:
        raise ValueError("no backtest method given")

    universe = ingest.load_scores(args.scores)
    panel = ingest.load_yields(args.yields, universe.ids, args.fx or None)

    ledgers = []
    for method in methods:
        config = BacktestConfig(
            start_date=args.start,
            end_date=args.end,
            method=method,
            max_gap_fill_days=args.gap_fill,
            apy_convention=args.apy_convention,
        )
        ledgers.append(run_backtest(config, universe, panel))
    reports = [report.monthly_report(ledger) for ledger in ledgers]
    written = report.emit_outputs(ledgers, reports, args.out)
    for path in written:
        print(path)
    return EXIT_OK


def cmd_report(args) -> int:
    base = Path(args.ledger)
    ledger_paths = sorted(base.glob("ledger_*.csv"))
    if not ledger_paths:
        raise FileNotFoundError(f"no ledger_*.csv files under {base}")
    reports = [report.monthly_report(report.read_ledger_csv(p)) for p in ledger_paths]
    reports.sort(key=lambda r: r.method)
    if args.format == "json":
        print(json.dumps(
            {
                r.method: [
                    {
                        "month_end": row.month_end.isoformat(),
                        "perf": row.perf,
                        "avg_risk": row.avg_risk,
                        "ratio": row.ratio,
                    }
                    for row in r.rows
                ]
                for r in reports
            },
            sort_keys=True,
        ))
    elif args.format == "table":
        print(report.render_report_table(reports))
    else:
        print("method,month_end,perf,avg_risk,ratio")
        for r in reports:
            for row in r.rows:
                print(f"{r.method},{row.month_end.isoformat()},"
                      f"{row.perf!r},{row.avg_risk!r},{row.ratio!r}")
    return EXIT_OK


def _load_fetch_config(path) -> tuple[ingest.FetchSpec, list[str], tuple[dt.date, dt.date]]:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    try:
        fetch = parser["fetch"]
        base_url = fetch["base_url"]
        endpoints = {"scores": fetch["scores_endpoint"],
                     "yields": fetch["yields_endpoint"]}
        if "fx_endpoint" in fetch:
            endpoints["fx"] = fetch["fx_endpoint"]
        cache = parser["cache"]
        cache_dir = Path(cache["dir"]).expanduser()
        cache_ttl = float(cache.get("ttl_seconds", "3600"))
        ids = [s.strip() for s in parser["universe"]["ids"].split(",") if s.strip()]
        start = dt.date.fromisoformat(parser["range"]["start"])
        end = dt.date.fromisoformat(parser["range"]["end"])
    except KeyError as exc:
        raise ValueError(f"config file {path} is missing key {exc}") from None
    field_map = {}
    for resource in ("scores", "yields", "fx"):
        section = f"fields.{resource}"
        if parser.has_section(section):
            field_map[resource] = dict(parser[section])
    spec = ingest.FetchSpec(
        base_url=base_url,
        endpoints=endpoints,
        cache_dir=cache_dir,
        cache_ttl=cache_ttl,
        field_map={**ingest.DEFAULT_FIELD_MAP, **field_map},
    )
    return spec, ids, (start, end)


def cmd_fetch(args) -> int:
    spec, ids, date_range = _load_fetch_config(args.config)
    bundle = ingest.fetch_remote(spec, ids, date_range)
    written = ingest.save_bundle(bundle, args.out)
    for path in written:
        print(path)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotConverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (DefiParityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
