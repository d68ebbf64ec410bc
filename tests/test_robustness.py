"""Non-finite inputs fail fast, and the supplier's solver caches stay bounded."""
import math

import numpy as np
import pytest

from evmarket import DSOSpec, ScenarioFormatError, parse_scenario, solve_dso
from evmarket.cli import main
from evmarket.dso_agent import ConvergenceError, _newton_system, _quadratic_form

from conftest import TABLE1_DSO, TABLE1_STORAGE
from test_cli import SMALL
from test_dso_agent import make_sub


def with_entry(text: str, section: str, key: str, value: str) -> str:
    """``text`` with ``section.key`` set to ``value`` (appended if absent)."""
    lines = text.splitlines()
    start = lines.index(f"{section}:")
    for i in range(start + 1, len(lines)):
        if not lines[i].startswith("  "):
            break
        if lines[i].split("=")[0].strip() == key:
            lines[i] = f"  {key} = {value}"
            return "\n".join(lines) + "\n"
    lines.insert(start + 1, f"  {key} = {value}")
    return "\n".join(lines) + "\n"


NUMBERS = [
    ("grid", "slot_minutes"),
    ("dso", "quadratic_cost"),
    ("dso", "linear_cost"),
    ("dso", "power_max"),
    ("storage", "energy_initial"),
    ("solver", "step_size"),
    ("ev", "energy"),
    ("ev", "weight"),
]
# An unbounded supplier (dso.power_max = inf) is allowed.
NON_FINITE = [
    (section, key, value)
    for section, key in NUMBERS
    for value in ("nan", "-inf", "inf")
    if (section, key, value) != ("dso", "power_max", "inf")
]


@pytest.mark.parametrize("section,key,value", NON_FINITE)
def test_non_finite_numbers_are_rejected_with_their_line(section, key, value):
    text = with_entry(SMALL, section, key, value)
    line = text.splitlines().index(f"  {key} = {value}") + 1
    with pytest.raises(ScenarioFormatError, match=f"line {line}: {section}.{key} must be"):
        parse_scenario(text)


def test_unbounded_supplier_is_accepted():
    scenario = parse_scenario(with_entry(SMALL, "dso", "power_max", "inf"))
    assert scenario.dso.power_max == math.inf


def test_cli_rejects_non_finite_numbers(tmp_path, capsys):
    path = tmp_path / "nan.scenario"
    path.write_text(with_entry(SMALL, "dso", "quadratic_cost", "nan"), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert "dso.quadratic_cost must be finite" in capsys.readouterr().err
    path.write_text(SMALL, encoding="utf-8")
    out = str(tmp_path / "out")
    assert main(["run", str(path), "--out", out, "--set", "dso.power_max=nan"]) == 1
    assert "dso.power_max must be finite or inf" in capsys.readouterr().err


def test_supplier_solve_stops_at_a_non_finite_residual():
    dso = DSOSpec(TABLE1_DSO.cost_quadratic, TABLE1_DSO.cost_linear, 0.0, math.nan)
    with pytest.raises(ConvergenceError, match="in iteration 1 of"):
        solve_dso(make_sub([4.0, 2.0], dso=dso, storage=TABLE1_STORAGE))


def test_solver_caches_stay_bounded():
    rng = np.random.default_rng(12)
    for cache in (_quadratic_form, _newton_system):
        cache.cache_clear()
    for _ in range(300):
        n = int(rng.integers(1, 7))
        dso = DSOSpec(float(rng.uniform(0.01, 0.3)), 0.9, 0.0, float(rng.uniform(30, 150)))
        solve_dso(make_sub(rng.uniform(0.0, 8.0, size=n), dso=dso))
    for cache in (_quadratic_form, _newton_system):
        info = cache.cache_info()
        assert info.misses > info.maxsize
        assert info.currsize <= info.maxsize
