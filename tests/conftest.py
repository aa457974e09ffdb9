# Anchors pytest's rootdir and puts tests/ on sys.path so test modules can
# share helpers by plain import.

import pytest

from defiparity.backtest import YieldPanel


def pytest_runtest_logreport(report):
    # acceptance tests print their own PASS verdict; emit the FAIL side here
    # so every criterion yields exactly one verdict line
    if report.when == "call" and report.failed and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        print(f"\n[acceptance] {name}: FAIL")


@pytest.fixture
def panel_builds(monkeypatch):
    """A list that gains one entry per YieldPanel constructed."""
    built = []
    check = YieldPanel.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(YieldPanel, "__post_init__", counting)
    return built
