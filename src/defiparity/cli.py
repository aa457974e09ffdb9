"""Command-line interface: allocate, backtest, report, fetch.

Exit codes: 0 success, 2 input/validation error, 3 solver non-convergence,
4 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
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
from . import ingest, report
from .backtest import (
    APY_CONVENTIONS,
    METHODS,
    BacktestConfig,
    YieldPanel,
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
# processes.  On a 2-vCPU VM, three `churn` ledgers cut to 0.9-1.3 MB broke
# even on two processes, and the `paper` (0.34 MB) and `window` (0.57 MB)
# ledgers took 3-5 ms longer there than their 5-7 ms on one.
TWO_PROCESS_BYTES = 1 << 20
# `backtest` reads a plain yields file of at least this many bytes on two
# processes.  On the same VM, `window`'s yields cut to 1, 1.5, 2 and 3 MB made
# a 31-day backtest faster on two in 7/15, 13/20, 19/20 and 20/20 fresh-process
# pairs; `churn`'s 1.9 MB, whose 600-day backtest pays the fork's copy-on-write
# faults for longer, were faster in 4/20, 7/20 and 13/20 on three runs.
TWO_PROCESS_YIELDS_BYTES = 4 << 20
# `backtest` writes outputs that format at least this many float reprs on two
# processes (`report._output_writes`: a ledger's weights counted once per set,
# once for an EW set).  On the same VM, `churn`'s outputs cut to 60, 90, 120,
# 150 and 180 days (5 840 to 25 856 reprs) were written faster on two in 7/12,
# 7/12, 7/12, 9/12 and 9/12 fresh-process pairs (paired medians -1.3, -1.7,
# -1.3, -5.8 and -14.0 ms of 66-120 ms); `paper`'s 5 915 and `window`'s 1 442
# in 6/12 each.
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

    universe = ingest.load_scores(args.scores)
    panel = _load_yields(args.yields, universe.ids, args.fx or None)

    ledgers = []
    for method in methods:
        config = BacktestConfig(args.start, args.end, method, max_gap_fill_days=args.gap_fill,
                                apy_convention=args.apy_convention)
        ledgers.append(run_backtest(config, universe, panel))
    reports = [report.monthly_report(ledger) for ledger in ledgers]
    written = _emit_outputs(ledgers, reports, args.out)
    for path in written:
        print(path)
    return EXIT_OK


def _load_yields(path, ids, fx_path) -> YieldPanel:
    """`ingest.load_yields`, a large plain file read on two processes
    (`ingest._split_columns`)."""
    token = ingest._two_processes.set(
        functools.partial(_two_processes, TWO_PROCESS_YIELDS_BYTES))
    try:
        return ingest.load_yields(path, ids, fx_path)
    finally:
        ingest._two_processes.reset(token)


def _emit_outputs(ledgers, reports, out_dir) -> list[Path]:
    """`report.emit_outputs`, large outputs written on two processes
    (`_run_jobs`, by float reprs formatted)."""
    token = report._run_jobs.set(functools.partial(_run_jobs, TWO_PROCESS_REPRS))
    try:
        return report.emit_outputs(ledgers, reports, out_dir)
    finally:
        report._run_jobs.reset(token)


def cmd_report(args) -> int:
    base = Path(args.ledger)
    ledger_paths = sorted(base.glob("ledger_*.csv"))
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
    return _run_jobs(TWO_PROCESS_BYTES,
                     [(functools.partial(_fold, p), size) for p, size in zip(paths, sizes)])


def _run_jobs(floor: int, jobs: list) -> list:
    """The result of each of `jobs`, (function, cost) pairs, in order.  Two
    or more jobs whose costs sum to at least `floor` run on two processes
    (`_two_processes`): a forked child runs a share with about half the cost
    (`_child_share`) and pipes back its results pickled.  If either side
    fails, every job runs again here in order, so the error raised is the
    one a run on one process raises."""
    costs = [cost for _, cost in jobs]
    if len(jobs) > 1:
        theirs = _child_share(costs)
        try:
            with _two_processes(floor, sum(costs), lambda: pickle.dumps(
                    [jobs[i][0]() for i in theirs])) as wait:
                if wait is not None:
                    done = {i: job() for i, (job, _) in enumerate(jobs) if i not in theirs}
                    if (sent := wait()) is not None:
                        done.update(zip(theirs, pickle.loads(sent)))
                        return [done[i] for i in range(len(jobs))]
        except Exception:  # raised again by the run on one process
            pass
    return [job() for job, _ in jobs]


def _child_share(costs: list[int]) -> list[int]:
    """Indices of the jobs the second process runs: costliest first, each job
    joins the share with the lower cost so far; this one gets the costliest."""
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


@contextlib.contextmanager
def _two_processes(floor: int, size: int, theirs):
    """Run `theirs()` in a forked child and yield a function that waits for
    it and returns the bytes `theirs()` returned, or None if it returned
    None, raised or the child failed.  Yields None, forking nothing, for a
    `size` of work (input bytes, or float reprs written) below `floor`, with
    one usable CPU, without `os.fork`, with a second thread (a forked child
    could find a lock held) or without a pipe or process to spare.  A child not waited for by the
    end of the block is killed; either way it is reaped."""
    child = None
    if (size >= floor and hasattr(os, "fork") and _usable_cpus() > 1
            and threading.active_count() == 1):
        child = _fork(theirs)
    if child is None:
        yield None
        return
    pid, read_end = child
    waited = False

    def wait():
        nonlocal waited
        try:
            sent = pipe.read()
        except OSError:  # the child is killed at the end of the block
            return None
        waited = True
        return sent if _reap(pid) == 0 else None

    with open(read_end, "rb") as pipe:
        try:
            yield wait
        finally:
            if not waited:
                import signal  # only a child not waited for needs it

                os.kill(pid, signal.SIGKILL)
                _reap(pid)


def _fork(theirs) -> tuple[int, int] | None:
    """The pid of a child that runs `theirs()` and the read end of the pipe
    it sends the bytes back on, or None if no pipe or process is to be had."""
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
            if sent is not None:
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


def _load_fetch_config(path) -> tuple[ingest.FetchSpec, list[str], tuple[dt.date, dt.date]]:
    import configparser  # only `fetch` reads a config file

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
        spec = ingest.FetchSpec(base_url=base_url, endpoints=endpoints, cache_dir=cache_dir,
                                cache_ttl=cache_ttl, field_map=field_map)
    except ValueError as exc:  # of the fields it checks, the file sets only cache_ttl
        message = str(exc).removeprefix("cache_ttl ")
        raise ValueError(f"config file {path}: ttl_seconds {message}") from None
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
