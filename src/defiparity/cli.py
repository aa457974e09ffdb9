"""Command-line interface: allocate, backtest, report, fetch.

Exit codes: 0 success, 2 input/validation error, 3 solver non-convergence,
4 I/O error.
"""

from __future__ import annotations

import argparse
import datetime as dt
import functools
import gc
import json
import os
import pickle
import sys
import threading
from pathlib import Path

from . import allocate as alloc
from . import fetch, ingest, report
from .backtest import (
    APY_CONVENTIONS,
    METHODS,
    BacktestConfig,
    run_backtest,
)
from .errors import DefiParityError, NotConverged
from .risk import build_risk_matrix, normalize

# what the imports built lives as long as the process: the cyclic garbage
# collector need not scan it again in each command, nor touch its pages in a
# forked child (on a 2-vCPU VM, a collection that landed in a 3-5 ms
# `report` of `window`'s ledgers cost 1-2 ms)
gc.freeze()

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IO = 4

# `report` reads ledgers whose sizes sum to at least this many bytes on two
# processes.  On a 2-vCPU VM, `churn`'s ledgers cut to 1.0, 2.0 and 4.0 MB, and
# whole (6.8 MB), were read faster there in 11, 14, 15 and 15 of 15 fresh-process
# pairs; `paper`'s (0.34 MB) and `window`'s (0.57 MB) took 2.0 and 3.4 ms longer.
TWO_PROCESS_BYTES = 1 << 20

# `backtest` runs its methods as jobs on two processes when their ledgers
# format at least this many float reprs (`_method_cost`).  The floor was set
# for the file writes that those jobs replace: on a 2-vCPU VM, `churn`'s
# outputs cut to 60, 90, 120, 150 and 180 days (5 840 to 25 856 reprs) were
# written faster on two in 7/12, 7/12, 7/12, 9/12 and 9/12 fresh-process pairs
# (paired medians -1.3, -1.7, -1.3, -5.8 and -14.0 ms of 66-120 ms); `paper`'s
# 5 915 and `window`'s 1 442 in 6/12 each.
TWO_PROCESS_REPRS = 20_000


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
    p.add_argument("--format", choices=report.MONTHLY_FORMATS, default="csv")
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

    # the yields read may run on two processes
    token = ingest._run_jobs.set(_run_jobs)
    try:
        universe = ingest.load_scores(args.scores)
        panel = ingest.load_yields(args.yields, universe.ids, args.fx or None)
    finally:
        ingest._run_jobs.reset(token)
    configs = [BacktestConfig(args.start, args.end, method, max_gap_fill_days=args.gap_fill,
                              apy_convention=args.apy_convention) for method in methods]
    written = _methods_on_two_processes(configs, universe, panel, Path(args.out))
    if written is None:
        ledgers = [run_backtest(config, universe, panel) for config in configs]
        reports = [report.monthly_report(ledger) for ledger in ledgers]
        written = report.emit_outputs(ledgers, reports, args.out)
    for path in written:
        print(path)
    return EXIT_OK


def _methods_on_two_processes(configs, universe, panel, out: Path) -> list[Path] | None:
    """The paths `backtest` writes, each method run as one `_run_jobs` job
    (`_method_job`) costed from the set table that the methods share, which
    is built here first (`_method_cost`); once the jobs are done, this process
    writes the shared files and puts every file in place
    (`report._place_outputs`).  None where `_run_jobs` gives None, with the
    jobs' hidden ledgers removed, and `out` and its parents too where this
    made them: the caller then runs every method and writes every file on one
    process, which raises the error a job met."""
    window = panel._window(universe, configs[0])
    tag, ids_cells = os.urandom(6).hex(), {}
    jobs = [(functools.partial(_method_job, config, universe, panel, out, tag, ids_cells),
             _method_cost(window, config.method)) for config in configs]
    made, missing = [], out  # `out` and each parent the jobs may make, deepest first
    while not os.path.lexists(missing):
        made.append(missing)
        missing = missing.parent
    results = None
    try:
        results = _run_jobs(TWO_PROCESS_REPRS, jobs)
    finally:
        if results is None and out.is_dir():
            for config in configs:
                report._hidden(out / f"ledger_{config.method}.csv", tag).unlink(missing_ok=True)
            for path in made:
                try:
                    path.rmdir()
                except OSError:  # not empty, so not this attempt's alone
                    break
    if results is None:
        return None
    reports, figures = zip(*results)
    return report._place_outputs(out, tag, [config.method for config in configs],
                                 list(reports), lambda: figures)


def _method_job(config, universe, panel, out: Path, tag: str, ids_cells: dict):
    """Run one method, fold it by month and write its ledger under its hidden
    name in `out`; the monthly report and the `report._Figures` go back, not
    the ledger and its weights."""
    ledger = run_backtest(config, universe, panel)
    monthly = report.monthly_report(ledger)
    out.mkdir(parents=True, exist_ok=True)
    return monthly, report._write_ledger(ledger, out, tag, ids_cells)


def _method_cost(window, method: str) -> int:
    """The float reprs `method`'s ledger formats over `window`'s set table:
    four a day, and each set's weights once, one for an EW set (its weights
    are equal)."""
    weights = len(window.set_ids) if method == "ew" else sum(map(len, window.set_ids))
    return 4 * len(window.dates) + weights


def cmd_report(args) -> int:
    base = Path(args.ledger)
    try:
        names = os.listdir(base)
    except OSError:  # no directory to list holds no ledger
        names = []
    ledger_paths = [base / name for name in sorted(filter(report._is_ledger, names))]
    if not ledger_paths:
        raise FileNotFoundError(f"no ledger_*.csv files under {base}")
    reports = _monthly_reports(ledger_paths)
    sys.stdout.write(report.format_monthly(reports, args.format))
    return EXIT_OK


def _fold(path) -> report.MonthlyReport:
    return report.monthly_report(report.read_ledger_csv(path))


def _monthly_reports(paths: list[Path]) -> list[report.MonthlyReport]:
    """The monthly report of each ledger, in path order; two or more large
    ledgers are read on two processes (`_run_jobs`, by size in bytes)."""
    try:
        sizes = [p.stat().st_size for p in paths]
    except OSError:  # reading the ledger raises it, in its turn
        return [_fold(p) for p in paths]
    jobs = [(functools.partial(_fold, p), size) for p, size in zip(paths, sizes)]
    return _run_jobs(TWO_PROCESS_BYTES, jobs) or [job() for job, _ in jobs]


def _run_jobs(floor: int, jobs: list) -> list | None:
    """The result of each of `jobs`, (function, cost) pairs, in order, run on
    two processes: a forked child runs a share with about half the cost
    (`_child_share`) and pipes back its results pickled, and this process
    runs the rest.  None, with no job run, for fewer than two jobs, costs
    (input bytes, or float reprs written) that sum to less than `floor`, one
    usable CPU, no `os.fork`, a second thread (a forked child could find a
    lock held) or no pipe or process to spare.  None too if either side
    fails, so that the caller's run on one process raises the error.  On
    every exit the child has ended: it is killed if not waited for, and
    reaped."""
    costs = [cost for _, cost in jobs]
    if (len(jobs) < 2 or sum(costs) < floor or not hasattr(os, "fork")
            or _usable_cpus() < 2 or threading.active_count() > 1):
        return None
    theirs = _child_share(costs)
    child = _fork(lambda: pickle.dumps([jobs[i][0]() for i in theirs]))
    if child is None:
        return None
    pid, read_end = child
    waited = False
    try:
        with open(read_end, "rb") as pipe:
            done = {i: job() for i, (job, _) in enumerate(jobs) if i not in theirs}
            sent = pipe.read()
        waited = True
        if _reap(pid) != 0:
            return None
        done.update(zip(theirs, pickle.loads(sent)))
        return [done[i] for i in range(len(jobs))]
    except Exception:  # raised again by the caller's run on one process
        return None
    finally:
        if not waited:
            import signal  # only a child not waited for needs it

            os.kill(pid, signal.SIGKILL)
            _reap(pid)


def _child_share(costs: list[int]) -> list[int]:
    """Indices of the jobs the second process runs: costliest first, each job
    joins the share with the lower cost so far; the child gets the costliest."""
    shares, loads = ([], []), [0, 0]
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        side = loads[1] < loads[0]
        shares[side].append(i)
        loads[side] += costs[i]
    return sorted(shares[0])


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork(theirs) -> tuple[int, int] | None:
    """The pid of a child that runs `theirs()` and the read end of the pipe
    it sends the bytes `theirs()` returns on, or None if no pipe or process
    is to be had."""
    try:
        read_end, write_end = os.pipe()
    except OSError:  # out of file descriptors
        return None
    try:
        pid = os.fork()
    except OSError:  # out of processes or memory
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:  # the child never returns; it exits 0 once its bytes are sent
        status = 1
        try:
            os.close(read_end)
            sent = theirs()
            with open(write_end, "wb") as pipe:
                pipe.write(sent)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, read_end


def _reap(pid: int) -> int | None:
    """The wait status of child `pid`, once it has ended."""
    try:
        return os.waitpid(pid, 0)[1]
    except ChildProcessError:  # reaped elsewhere, as when SIGCHLD is ignored
        return None


def _load_fetch_config(path) -> tuple[fetch.FetchSpec, list[str], tuple[dt.date, dt.date]]:
    import configparser  # only `fetch` reads a config file

    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    try:
        remote = parser["fetch"]
        base_url = remote["base_url"]
        endpoints = {"scores": remote["scores_endpoint"],
                     "yields": remote["yields_endpoint"]}
        if "fx_endpoint" in remote:
            endpoints["fx"] = remote["fx_endpoint"]
        cache = parser["cache"]
        cache_dir = Path(cache["dir"]).expanduser()
        ttl = cache.get("ttl_seconds", "3600")
        ids = [s.strip() for s in parser["universe"]["ids"].split(",") if s.strip()]
        start = dt.date.fromisoformat(parser["range"]["start"])
        end = dt.date.fromisoformat(parser["range"]["end"])
    except KeyError as exc:
        raise ValueError(f"config file {path} is missing key {exc}") from None
    try:
        cache_ttl = float(ttl)
    except ValueError:
        raise ValueError(f"config file {path}: ttl_seconds must be a number, got {ttl!r}") from None
    field_map = {}
    for resource in ("scores", "yields", "fx"):
        section = f"fields.{resource}"
        if parser.has_section(section):
            field_map[resource] = dict(parser[section])
    try:
        spec = fetch.FetchSpec(base_url=base_url, endpoints=endpoints, cache_dir=cache_dir,
                               cache_ttl=cache_ttl, field_map=field_map)
    except ValueError as exc:  # of the fields it checks, the file sets only cache_ttl
        message = str(exc).removeprefix("cache_ttl ")
        raise ValueError(f"config file {path}: ttl_seconds {message}") from None
    return spec, ids, (start, end)


def cmd_fetch(args) -> int:
    spec, ids, date_range = _load_fetch_config(args.config)
    bundle = fetch.fetch_remote(spec, ids, date_range)
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
