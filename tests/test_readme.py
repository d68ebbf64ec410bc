"""The README documents the code as it is: its scenario example parses with
the solver defaults it shows, and its trace column lists are the headers
that ``write_trace`` writes."""
import re
from pathlib import Path

import pytest

from evmarket import SolverConfig, parse_scenario, run, write_trace

from conftest import SCENARIO_DIR

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def scenario_example() -> str:
    section = README.split("## Scenario files", 1)[1]
    return section.split("```", 2)[1]


def test_scenario_example_parses_with_the_default_solver():
    scenario = parse_scenario(scenario_example())
    assert scenario.solver == SolverConfig()


@pytest.fixture(scope="module")
def headers(tmp_path_factory):
    out = tmp_path_factory.mktemp("small")
    write_trace(run(parse_scenario((SCENARIO_DIR / "small.scenario").read_bytes())), out)
    return {
        name: (out / name).read_text(encoding="utf-8").splitlines()[0]
        for name in ("slots.csv", "evs.csv")
    }


@pytest.mark.parametrize("name", ["slots.csv", "evs.csv"])
def test_column_lists_match_the_written_headers(headers, name):
    listed = re.search(rf"^\* `{re.escape(name)}` - `([^`]*)`", README, re.MULTILINE)
    assert listed is not None, name
    columns = [c.strip() for c in listed.group(1).split(",")]
    assert ",".join(columns) == headers[name]
