"""Non-finite and corrupted inputs fail fast."""
import math
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from evmarket import DSOSpec, ScenarioFormatError, parse_scenario, solve_dso, validate_scenario
from evmarket.cli import main
from evmarket.dso_agent import ConvergenceError
from evmarket.scenario_io import SCHEMA, SECTIONS

from conftest import SCENARIO_DIR, TABLE1_DSO, TABLE1_STORAGE
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
    with pytest.raises(ConvergenceError, match="stalled at residual nan in round") as info:
        solve_dso(make_sub(2, dso=dso, storage=TABLE1_STORAGE), [4.0, 2.0])
    assert math.isnan(info.value.residual)


SMALL_LINES = (SCENARIO_DIR / "small.scenario").read_text().splitlines()
# The lines of small.scenario that hold an entry.
ENTRY_LINES = [i for i, line in enumerate(SMALL_LINES) if "=" in line]
VALUES = [
    "-1", "0", "2.5", "x", "", "nan", "inf", "-0", "1e308", "-1e308", "1e-308", "1e400",
    str(10**6), "99999999999999999999",
]
KEYS = sorted({entry.key for entry in SCHEMA})
# One line of text: str.splitlines breaks at each of these characters.
BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
LINE_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=BREAKS), max_size=24
)
LINES = st.one_of(
    LINE_TEXT,
    st.builds(
        "  {} = {}".format,
        st.sampled_from(KEYS),
        st.one_of(st.sampled_from(VALUES), st.integers(-3, 60).map(str)),
    ),
    st.sampled_from([*SECTIONS, "unknown"]).map("{}:".format),
)


def malformed(line: str) -> bool:
    """A line that no section can hold: neither a known section's header nor
    a known key's entry, once its comment is stripped."""
    body = line.split("#", 1)[0].strip()
    if not body:
        return False
    if body.endswith(":") and "=" not in body:
        return body[:-1].strip() not in SECTIONS
    return "=" not in body or body.partition("=")[0].strip() not in KEYS


@st.composite
def corrupted(draw):
    """small.scenario with one line replaced, deleted or duplicated, or one
    entry set to an odd value; and the numbers of the lines a format error
    may name (None: any)."""
    lines = list(SMALL_LINES)
    change = draw(st.sampled_from(["replace", "delete", "duplicate", "set"]))
    if change == "set":
        i = draw(st.sampled_from(ENTRY_LINES))
        lines[i] = f"{lines[i].partition('=')[0]}= {draw(st.sampled_from(VALUES))}"
        return lines, {i + 1}
    i = draw(st.integers(0, len(lines) - 1))
    if change == "delete":
        del lines[i]
        return lines, None
    if change == "duplicate":
        lines.insert(i, lines[i])
        return lines, {i + 1, i + 2}
    lines[i] = draw(LINES)
    return lines, {i + 1} if malformed(lines[i]) else None


# Each example overwrites one scenario file and its output directory, so the
# function-scoped fixtures are safe to share between examples.
@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=corrupted())
def test_a_corrupted_scenario_runs_or_exits_with_one_message(tmp_path, capsys, case):
    """Any one-line change to a scenario file is run (exit 0 or 2) or refused
    (exit 1), never raised or warned; a refusal prints one ``error:`` line,
    and a malformed line is named."""
    lines, named = case
    path = tmp_path / "day.scenario"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), err
    if code != 1:
        return
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1, err
    if named is not None and not err.startswith("error: invalid scenario"):
        where = re.match(r"error: line (\d+)[:,]", err)
        assert where and int(where[1]) in named, (err, named)


LOSSES = ["0", "0.5", "0.9999999999999999"]


# Each example overwrites one scenario file and its output directory, as above.
@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    slot_minutes=st.floats(math.log(5e-324), math.log(1e3)).map(math.exp),
    losses=st.tuples(st.sampled_from(LOSSES), st.sampled_from(LOSSES)),
)
@example(slot_minutes=5e-324, losses=("0", "0"))
@example(slot_minutes=1e-310, losses=(LOSSES[2], LOSSES[2]))
def test_extreme_slot_lengths_and_losses_are_refused_or_run(tmp_path, capsys, slot_minutes, losses):
    """A slot from 5e-324 minutes to 1e3 and losses up to just below 1:
    either validation refuses the day, or every command runs it to exit 0 or
    2 without raising."""
    text = (SCENARIO_DIR / "small.scenario").read_text()
    text = text.replace("slot_minutes = 15", f"slot_minutes = {slot_minutes!r}")
    head, first, second = text.split("loss_fraction = 0\n")
    text = f"{head}loss_fraction = {losses[0]}\n{first}loss_fraction = {losses[1]}\n{second}"
    path = tmp_path / "day.scenario"
    path.write_text(text)
    if not validate_scenario(parse_scenario(text)).ok:
        return
    for command in ("run", "uncontrolled", "verify"):
        extra = ["--out", str(tmp_path / "out")] if command != "verify" else []
        code = main([command, str(path), "--set", "solver.max_iterations=20", *extra])
        assert code in (0, 2), capsys.readouterr().err
