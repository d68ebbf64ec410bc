"""The table1 trace stays within a fixed bound of a pinned reference.

``data/table1/`` holds the three trace tables that the bisection-based vehicle
solver wrote for ``scenarios/table1.scenario``.  A solver change may move the
trace only within the solvers' tolerances: every slot settles after the same
number of dual iterations with the same convergence flag, and every other
number stays within ``BOUND``.
"""
import csv
from pathlib import Path

import pytest

from evmarket import run, write_trace

REFERENCE = Path(__file__).resolve().parent / "data" / "table1"
BOUND = 1e-4
EXACT = {"slot", "ev_id", "iterations", "converged"}


def read(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def trace_dir(table1_scenario, tmp_path_factory):
    out = tmp_path_factory.mktemp("table1")
    write_trace(run(table1_scenario), out)
    return out


@pytest.mark.parametrize("name", ["slots.csv", "evs.csv", "summary.csv"])
def test_trace_within_bound_of_reference(trace_dir, name):
    expected, actual = read(REFERENCE / name), read(trace_dir / name)
    assert len(actual) == len(expected)
    for row, (want, got) in enumerate(zip(expected, actual)):
        assert got.keys() == want.keys()
        for column, value in want.items():
            if column in EXACT:
                assert got[column] == value, (name, row, column)
            else:
                assert float(got[column]) == pytest.approx(float(value), abs=BOUND), (
                    name,
                    row,
                    column,
                )
