"""Every name the benchmark's tracer wraps still resolves.

``bench/run.py --trace 1`` wraps program names by string, so a rename there
fails only when the benchmark runs.  Some names are kept in the program only
for it: ``model.PriceVector``, ``model.PowerProfile`` and
``scenario_io.validate_scenario``.
"""
import collections
import importlib.util
import os

import pytest

from conftest import SCENARIO_DIR

BENCH = SCENARIO_DIR.parent / "bench"


@pytest.fixture
def bench_run(monkeypatch):
    """``bench/run.py`` as a module; it pins the BLAS thread variables on
    import, so the environment is put back afterwards."""
    saved = dict(os.environ)
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        os.environ.clear()
        os.environ.update(saved)


class Resolver:
    """A stand-in for the tracer's recorder that checks each name it is
    asked to wrap and wraps nothing."""

    def __init__(self):
        self.counts = collections.Counter()
        self.labels = []

    def patch(self, owner, name, label, **hooks):
        assert callable(getattr(owner, name)), f"{label}: {owner!r}.{name}"
        self.labels.append(label)


def test_every_wrapped_name_resolves(bench_run):
    bench_run.load_program()
    resolver = Resolver()
    bench_run.instrument(resolver)
    assert {"model.PriceVector", "model.PowerProfile", "model.validate_scenario"} <= set(
        resolver.labels
    )
