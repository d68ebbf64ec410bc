"""The table1 traces stay within a fixed bound of pinned references.

``data/table1/`` holds the three trace tables that the bisection-based vehicle
solver wrote for ``scenarios/table1.scenario``; ``data/table1-nostorage/``
holds those that the projected-Newton supplier solver wrote for the same day
with the storage pinned at zero power.  A solver change may move a trace only
within the solvers' tolerances: every slot settles after the same number of
dual iterations with the same convergence flag, and every other number stays
within ``BOUND``.  No summary figure may be negative, not even ``-0.000000``.
"""
import csv
from pathlib import Path

import pytest

from evmarket import run, write_trace

DATA = Path(__file__).resolve().parent / "data"
REFERENCE = DATA / "table1"
BOUND = 1e-4
EXACT = {"slot", "ev_id", "iterations", "converged"}
TABLES = ["slots.csv", "evs.csv", "summary.csv"]


def read(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def assert_within_bound(reference: Path, actual: Path) -> None:
    expected, got_rows = read(reference), read(actual)
    name = reference.name
    assert len(got_rows) == len(expected)
    for row, (want, got) in enumerate(zip(expected, got_rows)):
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


@pytest.fixture(scope="module")
def trace_dir(table1_scenario, tmp_path_factory):
    out = tmp_path_factory.mktemp("table1")
    write_trace(run(table1_scenario), out)
    return out


@pytest.fixture(scope="module")
def nostorage_trace_dir(table1_run_no_storage, tmp_path_factory):
    out = tmp_path_factory.mktemp("table1-nostorage")
    write_trace(table1_run_no_storage, out)
    return out


@pytest.mark.parametrize("name", TABLES)
def test_trace_within_bound_of_reference(trace_dir, name):
    assert_within_bound(REFERENCE / name, trace_dir / name)


@pytest.mark.parametrize("name", TABLES)
def test_nostorage_trace_within_bound_of_reference(nostorage_trace_dir, name):
    assert_within_bound(DATA / "table1-nostorage" / name, nostorage_trace_dir / name)


@pytest.mark.parametrize("run_dir", ["trace_dir", "nostorage_trace_dir"])
def test_summary_has_no_negative_figure(run_dir, request):
    (row,) = read(request.getfixturevalue(run_dir) / "summary.csv")
    for column, value in row.items():
        assert not value.startswith("-"), (column, value)
        assert float(value) >= 0.0, (column, value)
