"""The negotiated traces are pinned byte for byte.

``data/<day>-run/`` holds the three tables that ``evmarket run`` writes for
each day below.  A change that leaves the price loop and the agents' answers
as they are leaves these bytes as they are; a change that moves a trace
re-pins it and states the difference (``test_trace_bound.py`` bounds how far
the table1 days may drift from their older references).
"""
from pathlib import Path

import pytest

from evmarket.cli import main

from conftest import SCENARIO_DIR

DATA = Path(__file__).resolve().parent / "data"
NO_STORAGE = ["--set", "storage.power_min=0", "--set", "storage.power_max=0"]
# fleet-run's windows are 8-10 slots wide, so it is the day that runs the
# array EV kernel; the others run the scalar one.
DAYS = {
    "table1": (SCENARIO_DIR / "table1.scenario", []),
    "table1-nostorage": (SCENARIO_DIR / "table1.scenario", NO_STORAGE),
    "small": (SCENARIO_DIR / "small.scenario", []),
    "fleet": (DATA / "fleet-run.scenario", []),
}
TABLES = ["slots.csv", "evs.csv", "summary.csv"]


@pytest.fixture(scope="module")
def run_dirs(tmp_path_factory):
    dirs = {}
    for day, (scenario, overrides) in DAYS.items():
        out = tmp_path_factory.mktemp(day)
        assert main(["run", str(scenario), *overrides, "--out", str(out)]) == 0
        dirs[day] = out
    return dirs


@pytest.mark.parametrize("name", TABLES)
@pytest.mark.parametrize("day", DAYS)
def test_run_trace_is_byte_identical(run_dirs, day, name):
    assert (run_dirs[day] / name).read_bytes() == (DATA / f"{day}-run" / name).read_bytes()
