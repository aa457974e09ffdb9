"""Per-layer spans and counts, taken from outside defiparity.

`install()` wraps the package's public functions where they are looked up:
every module attribute that holds one of them (so `from .backtest import
run_backtest` in `cli` is wrapped too), and `DatedSeries.fill_forward` on
its class. Timed functions record calls, total time and self time (total
minus the time of timed calls made inside them). Functions called once per
cell are only counted, so the traced run stays close to the untraced one.
Nothing in the package is changed on disk; the wrapping lasts for the
process.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute); a span is named "<layer>.<attribute>"
TIMED = (
    ("cli", "cmd_backtest"),
    ("ingest", "load_scores"),
    ("ingest", "load_yields"),
    ("ingest", "load_fx"),
    ("backtest", "run_backtest"),
    ("backtest", "active_universe"),
    ("risk", "build_risk_matrix"),
    ("risk", "normalize"),
    ("risk", "portfolio_risk_report"),
    ("allocate", "solve_erc"),
    ("allocate", "equal_weights"),
    ("allocate", "tvl_weights"),
    ("report", "monthly_report"),
    ("report", "emit_outputs"),
    ("report", "read_ledger_csv"),
)
COUNTED = (("backtest", "daily_rate"),)


class Tracer:
    """Totals for one process: span times and calls, plus work counts."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._children: list[float] = []  # timed-child seconds per open span
        self._counters: dict[str, itertools.count] = {}

    def timed(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._children.append(0.0)
            start = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = tracer._children.pop()
                if tracer._children:
                    tracer._children[-1] += elapsed
                tracer.total[name] += elapsed
                tracer.self_time[name] += elapsed - children
                tracer.calls[name] += 1
            if on_result is not None:
                on_result(return_value)
            return return_value

        return wrapper

    def counted(self, name: str, fn):
        # next() on itertools.count is the cheapest counter Python offers
        tick = self._counters.setdefault(name, itertools.count())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(tick)
            return fn(*args, **kwargs)

        return wrapper

    def as_dict(self) -> dict:
        """The totals so far; reading them advances the call counters."""
        calls = {**self.calls, **{n: next(t) for n, t in self._counters.items()}}
        return {"total": dict(self.total), "self": dict(self.self_time),
                "calls": calls, "counts": dict(self.counts)}


def _replace_everywhere(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name == "defiparity" or name.startswith("defiparity."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install() -> Tracer:
    """Wrap the functions in TIMED and COUNTED; returns the tracer they feed."""
    import defiparity.cli  # imports every layer module
    from defiparity import domain

    tracer = Tracer()
    counts = tracer.counts

    def rows_loaded(result):
        if hasattr(result, "series"):  # a YieldPanel
            counts["ingest.rows"] += sum(len(s) for s in result.series.values())
        else:  # a Universe or the FX DatedSeries
            counts["ingest.rows"] += len(result)

    def ledger_done(ledger):
        counts["backtest.days"] += len(ledger.rows)
        counts["backtest.active_cells"] += sum(len(r.active_ids) for r in ledger.rows)

    def erc_done(solution):
        counts["allocate.erc_iterations"] += solution.iterations

    def emitted(paths):
        counts["report.emit_bytes"] += sum(Path(p).stat().st_size for p in paths)

    def ledger_read(ledger):
        counts["report.ledger_rows_read"] += len(ledger.rows)

    hooks = {"load_scores": rows_loaded, "load_yields": rows_loaded,
             "load_fx": rows_loaded, "run_backtest": ledger_done,
             "solve_erc": erc_done, "emit_outputs": emitted,
             "read_ledger_csv": ledger_read}
    for layer, attr in TIMED:
        original = getattr(sys.modules[f"defiparity.{layer}"], attr)
        _replace_everywhere(
            original, tracer.timed(f"{layer}.{attr}", original, hooks.get(attr)))
    for layer, attr in COUNTED:
        original = getattr(sys.modules[f"defiparity.{layer}"], attr)
        _replace_everywhere(original, tracer.counted(f"{layer}.{attr}", original))
    domain.DatedSeries.fill_forward = tracer.counted(
        "domain.fill_forward", domain.DatedSeries.fill_forward)
    return tracer
