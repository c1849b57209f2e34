"""The spectral start falls back to random positions on a solver failure only.

A failing factorisation or ARPACK run still yields a placement and counts
one ``place.spectral_fallbacks``; any other error in that path propagates,
so a bug there cannot hide behind a random start.
"""

import pytest
import scipy.sparse.linalg

from repro.bench.generator import DesignRecipe, generate_design
from repro.place.placer import place_design
from repro.runtime.telemetry import Tracer, activate

RECIPE = DesignRecipe(name="fallback", grid_nx=10, grid_ny=10, seed=3)


def _singular_factor(*args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


def _no_convergence(*args, **kwargs):
    raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])


def _bug(*args, **kwargs):
    raise ValueError("a bug, not a solver failure")


def _place_traced():
    design = generate_design(RECIPE)
    tracer = Tracer()
    with activate(tracer):
        place_design(design)
    return design, tracer


@pytest.mark.parametrize(
    "target, broken",
    [("splu", _singular_factor), ("eigsh", _no_convergence)],
    ids=["singular-factor", "arpack-no-convergence"],
)
def test_solver_failure_still_places_and_counts(monkeypatch, target, broken):
    monkeypatch.setattr(scipy.sparse.linalg, target, broken)
    design, tracer = _place_traced()
    assert design.is_placed
    assert all(design.die.contains_rect(c.bbox) for c in design.cells)
    assert tracer.counters["place.spectral_fallbacks"] == 1


def test_other_errors_propagate(monkeypatch):
    monkeypatch.setattr(scipy.sparse.linalg, "splu", _bug)
    with pytest.raises(ValueError, match="a bug"):
        place_design(generate_design(RECIPE))


def test_working_solver_does_not_fall_back():
    design, tracer = _place_traced()
    assert design.is_placed
    assert "place.spectral_fallbacks" not in tracer.counters
