"""`defiparity backtest` on the `churn` workload, as is and on one CPU.

Where two CPUs are usable, `backtest` on `churn` (about 560 active sets)
runs its methods as jobs on two processes; pinned to one CPU it runs them on
one. Every file, stdout, error line and exit code must be the same, and each
method run alone must give the ledger and the error of the combined run. The
inputs come from `perfbench/gen.py` (seed 1), and the CLI runs in
subprocesses; a pinned run sets its own affinity (`os.sched_setaffinity` in
`preexec_fn`), so the test's process keeps its CPUs.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHURN_DAYS = ("--start", "2018-06-01", "--end", "2020-01-21")  # churn's 600 backtested days
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

two_cpus = pytest.mark.skipif(
    len(CPUS) < 2 or not hasattr(os, "sched_setaffinity"),
    reason="fewer than two usable CPUs (or no sched_setaffinity): a run as is "
           "cannot use two processes, so it has no one-CPU run to be compared with")


@pytest.fixture(scope="module")
def churn(tmp_path_factory):
    """A function that runs `backtest` on the churn inputs with a method
    list, extra arguments, with or without `--fx`, as is or on one CPU, into
    a directory of its own, once per set of arguments.  It gives the exit
    code, stdout (the output directory read as `<out>`), stderr and the
    output files (None if the directory was not made)."""
    base = tmp_path_factory.mktemp("churn")
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "gen.py"), "--workload", "churn",
                    "--seed", "1", "--out", str(base / "in")],
                   check=True, capture_output=True, timeout=120)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

    @functools.cache
    def backtest(method, *extra, fx=True, one_cpu=False):
        out = base / "-".join([method, *extra, "fx" if fx else "no-fx",
                               "one" if one_cpu else "all"])
        done = subprocess.run(
            [sys.executable, "-m", "defiparity.cli", "backtest",
             "--scores", str(base / "in" / "scores.csv"),
             "--yields", str(base / "in" / "yields.csv"),
             *(["--fx", str(base / "in" / "fx.csv")] if fx else []),
             "--method", method, *CHURN_DAYS, "--out", str(out), *extra],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=(lambda: os.sched_setaffinity(0, CPUS[:1])) if one_cpu else None)
        files = ({p.name: p.read_bytes() for p in sorted(out.iterdir())}
                 if out.is_dir() else None)
        if files and "plot_data.json" in files:  # built by hand in the bytes of json.dumps
            raw = files["plot_data.json"]
            assert raw == (json.dumps(json.loads(raw), sort_keys=True, separators=(",", ":"))
                           + "\n").encode()
        return done.returncode, done.stdout.replace(str(out), "<out>"), done.stderr, files

    return backtest


def test_single_method_ledgers_equal_the_combined_run(churn):
    """The methods of the combined run (erc, ew, tvl in that order) share
    one set table; each ledger equals that of its method run alone."""
    combined = churn("ew,tvl,erc")
    assert combined[0] == 0
    for method in ("erc", "tvl"):
        code, _, _, files = churn(method)
        assert code == 0
        assert files[f"ledger_{method}.csv"] == combined[3][f"ledger_{method}.csv"]


@two_cpus
@pytest.mark.parametrize("method", ["ew,tvl,erc", "tvl"])
def test_outputs_on_one_cpu_equal_those_on_two(churn, method):
    """Every file and stdout of the combined run, whose methods run on two
    processes, and of the TVL run alone (one job, on one process), equal
    those of the run on one CPU, where nothing forks."""
    two, one = churn(method), churn(method, one_cpu=True)
    assert two[0] == 0 and not two[2]
    assert len(two[3]) == (6 if "," in method else 4)
    assert one == two


@two_cpus
def test_outputs_without_fx_on_one_cpu_equal_those_on_two(churn):
    """Without --fx the ledgers' USD cells are empty, comparison.csv has no
    value_usd columns and plot_data.json holds null USD lists; every file
    and stdout on two processes equal those on one CPU."""
    two, one = churn("ew,tvl,erc", fx=False), churn("ew,tvl,erc", fx=False, one_cpu=True)
    assert two[0] == 0 and len(two[3]) == 6
    assert one == two
    assert b"value_usd" not in two[3]["comparison.csv"]
    assert b'"value_usd":[null,' in two[3]["plot_data.json"]


def test_single_method_runs_stop_as_the_combined_run_does(churn):
    """With --gap-fill 0, churn seed 1 has a day without an FX rate; each
    method stops on it alone as the combined run does: exit 2, the same
    one-line error, and no output directory."""
    combined = churn("ew,tvl,erc", "--gap-fill", "0")
    code, out, err, files = combined
    assert code == 2 and out == "" and files is None
    assert err.startswith("error: no FX rate available on ") and err.count("\n") == 1
    for method in ("erc", "ew", "tvl"):
        assert churn(method, "--gap-fill", "0") == combined
