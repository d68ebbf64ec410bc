"""The negotiated traces are pinned byte for byte.

``data/<day>-run/`` holds the three tables that ``evmarket run`` writes for
each day below.  A change that leaves the price loop and the agents' answers
as they are leaves these bytes as they are; a change that moves a trace
re-pins it and states the difference (``test_trace_bound.py`` bounds how far
the table1 days may drift from their older references).
"""
import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from evmarket import mpc_loop, parse_scenario, write_trace
from evmarket.cli import main

from conftest import SCENARIO_DIR

DATA = Path(__file__).resolve().parent / "data"
BENCH = SCENARIO_DIR.parent / "bench"
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


# The benchmark's 200-vehicle day, which runs the array EV kernel on every
# slot, pinned by the SHA-256 of its three tables as ``bench/run.py`` hashes
# them, at the benchmark's seed and at its held-out one.
FLEET_200_SHA256 = {
    1: "b491cedbceefa4b2ef1713eb7e469547b00a41b4c5c17419bf1c25bf87097cbe",
    1009: "8f622676008df51ddd82549875402ac591e7f9f19f981d5bccf64cd384d9916c",
}


@pytest.mark.parametrize("seed", FLEET_200_SHA256)
def test_fleet_200_trace_is_pinned(tmp_path, monkeypatch, seed):
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclass
    spec.loader.exec_module(workloads)
    scenario = parse_scenario(workloads.fleet_200(seed))
    write_trace(mpc_loop.run(scenario), tmp_path)
    digest = hashlib.sha256()
    for name in TABLES:
        digest.update((tmp_path / name).read_bytes())
    assert digest.hexdigest() == FLEET_200_SHA256[seed]
