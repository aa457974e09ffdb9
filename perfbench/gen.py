"""Seeded synthetic inputs for the benchmark workloads.

`generate(name, seed)` draws a workload's raw observations with NumPy's
PCG64 generator; `write_inputs(dataset, directory)` writes them as
`scores.csv`, `yields.csv` and `fx.csv` in the formats the defiparity README
documents. The program under test sees only those files; the output check
(`check.py`) recomputes the expected results from the in-memory `Dataset`.
The same seed gives the same bytes.

Every value is rounded before it is written (APY and FX to 6 decimals,
scores to 3, TVL to whole dollars), so `float(text)` in the program gives
back exactly the value held here.

Run as a script to write one workload's inputs:

    python3 perfbench/gen.py --workload churn --seed 1 --out churn-inputs
"""

from __future__ import annotations

import argparse
import datetime as dt
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GAP_FILL = 3  # the CLI's default --gap-fill, which every workload uses
CHAINS = ("Ethereum", "Arbitrum", "Optimism", "Polygon", "Avalanche", "BSC")


@dataclass(frozen=True)
class Workload:
    name: str
    protocols: int
    history_days: int
    backtest_days: int  # the backtest covers the last days of the history
    first_day: dt.date


WORKLOADS = {
    # the span of the paper's published monthly tables
    "paper": Workload("paper", 20, 173, 173, dt.date(2021, 12, 1)),
    "churn": Workload("churn", 200, 600, 600, dt.date(2018, 6, 1)),
    "window": Workload("window", 200, 1500, 31, dt.date(2018, 6, 1)),
}


@dataclass(frozen=True)
class Dataset:
    """Raw observations of one workload; arrays are indexed [day, protocol]."""

    workload: Workload
    ids: tuple[str, ...]
    scores: np.ndarray
    tvl: np.ndarray
    observed: np.ndarray  # bool; False where the yields file has no row
    apy: np.ndarray  # NaN where not observed
    fx_observed: np.ndarray
    fx: np.ndarray  # NaN where not observed

    @property
    def days(self) -> list[dt.date]:
        first = self.workload.first_day
        return [first + dt.timedelta(days=i) for i in range(self.workload.history_days)]

    @property
    def start(self) -> dt.date:
        return self.days[-self.workload.backtest_days]

    @property
    def end(self) -> dt.date:
        return self.days[-1]


def _short_gaps(rng, observed: np.ndarray, rate: float, protected: int) -> None:
    """Blank 1..GAP_FILL consecutive days at random, leaving the first
    `protected` days alone; such gaps are forward-filled by the program."""
    days, count = observed.shape
    for p in range(count):
        for start in np.flatnonzero(rng.random(days) < rate):
            # the day before must be observed, so two gaps never merge
            if start >= protected and observed[start - 1, p]:
                observed[start:start + rng.integers(1, GAP_FILL + 1), p] = False


def _churn_pattern(rng, days: int, count: int) -> np.ndarray:
    """Protocols alternate on-spells of 20-100 days with off-spells of
    GAP_FILL+1 to GAP_FILL+13 days, so each off-spell drops the protocol out
    of the active set and the next observation brings it back. Most enter
    part-way through the history, on entry days spread evenly so that the
    panel's size hardly varies with the seed. The first four never leave,
    so no day has an empty active set."""
    observed = np.zeros((days, count), dtype=bool)
    observed[:, :4] = True
    churning = count - 4
    from_start = churning // 5
    entries = np.concatenate([
        np.zeros(from_start, dtype=int),
        np.linspace(1, days - 100, churning - from_start).astype(int),
    ])
    for p, day in zip(range(4, count), rng.permutation(entries).tolist()):
        while day < days:
            on = int(rng.integers(20, 101))
            observed[day:day + on, p] = True
            day += on + int(rng.integers(GAP_FILL + 1, GAP_FILL + 14))
    _short_gaps(rng, observed, 0.02, protected=1)
    return observed


def _paper_pattern(rng, days: int, count: int) -> np.ndarray:
    """Everyone is observed from the first day except three late entrants,
    one in each of days 10-29, 40-59 and 70-89; short gaps only, so the
    active set changes just when a protocol enters."""
    observed = np.ones((days, count), dtype=bool)
    _short_gaps(rng, observed, 0.01, protected=1)
    entries = rng.integers(0, 20, 3) + np.array([10, 40, 70])
    for p, entry in zip(rng.choice(count, 3, replace=False), entries):
        observed[:entry, p] = False
    return observed


def generate(name: str, seed: int) -> Dataset:
    workload = WORKLOADS[name]
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    days, count = workload.history_days, workload.protocols
    ids = tuple(f"proto{i:03d}" for i in range(count))
    scores = np.round(rng.uniform(1.0, 10.0, count), 3)
    tvl = np.round(10.0 ** rng.uniform(6.0, 10.0, count))

    if name == "paper":
        observed = _paper_pattern(rng, days, count)
    elif name == "churn":
        observed = _churn_pattern(rng, days, count)
    else:
        observed = np.ones((days, count), dtype=bool)

    # log-APY follows a mean-reverting walk around a per-protocol level
    level = np.log(rng.uniform(0.005, 0.15, count))
    log_apy = np.empty((days, count))
    log_apy[0] = level
    shocks = rng.normal(0.0, 0.05, (days, count))
    for i in range(1, days):
        log_apy[i] = log_apy[i - 1] + 0.05 * (level - log_apy[i - 1]) + shocks[i]
    apy = np.where(observed, np.round(np.exp(log_apy), 6), np.nan)

    # FX gaps of at most two days, so the overlay never runs out (MissingFx)
    fx_observed = rng.random(days) >= 0.03
    run = 0
    for i in range(days):
        run = 0 if fx_observed[i] else run + 1
        if i == 0 or run > 2:
            fx_observed[i], run = True, 0
    fx = np.where(fx_observed, np.round(1.0 + rng.normal(0.0, 0.002, days), 6), np.nan)

    return Dataset(workload, ids, scores, tvl, observed, apy, fx_observed, fx)


def write_inputs(ds: Dataset, directory) -> dict[str, Path]:
    """Write the three CSV files; returns their paths by name."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / f"{name}.csv" for name in ("scores", "yields", "fx")}

    lines = ["protocol_id,name,chain,score,tvl\n"]
    for i, pid in enumerate(ds.ids):
        lines.append(f"{pid},Protocol {i},{CHAINS[i % len(CHAINS)]},"
                     f"{float(ds.scores[i])!r},{float(ds.tvl[i])!r}\n")
    paths["scores"].write_text("".join(lines), encoding="utf-8")

    iso = [d.isoformat() for d in ds.days]
    lines = ["date,protocol_id,apy\n"]
    apy = ds.apy.tolist()
    for i, row in enumerate(ds.observed.tolist()):
        for p, seen in enumerate(row):
            if seen:
                lines.append(f"{iso[i]},{ds.ids[p]},{apy[i][p]!r}\n")
    paths["yields"].write_text("".join(lines), encoding="utf-8")

    lines = ["date,rate\n"]
    lines.extend(f"{iso[i]},{rate!r}\n"
                 for i, rate in enumerate(ds.fx.tolist()) if ds.fx_observed[i])
    paths["fx"].write_text("".join(lines), encoding="utf-8")
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    for path in write_inputs(generate(args.workload, args.seed), args.out).values():
        print(path)


if __name__ == "__main__":
    main()
