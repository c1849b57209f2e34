"""Integration tests: the Fig. 1 flow and the suite builder."""

import hashlib

import numpy as np
import pytest

from repro.bench.generator import DesignRecipe, generate_design
from repro.bench.suite import suite_recipes
from repro.core.pipeline import build_suite_dataset, checkpoint_dir_for, run_flow
from repro.features.names import NUM_FEATURES
from repro.layout.design_stats import design_statistics
from repro.layout.netlist import MACRO_BLOCKED_METALS


class TestRunFlow:
    def test_all_artifacts_present(self, small_flow):
        flow = small_flow
        assert flow.design.is_placed
        assert flow.X.shape == (flow.grid.num_cells, NUM_FEATURES)
        assert flow.y.shape == (flow.grid.num_cells,)
        assert flow.stats.num_gcells == flow.grid.num_cells
        assert flow.stats.num_hotspots == int(flow.y.sum())

    def test_labels_match_report(self, small_flow):
        mask = small_flow.drc_report.hotspot_mask(small_flow.grid)
        assert int(mask.sum()) == int(small_flow.y.sum())

    def test_dataset_property(self, small_flow):
        d = small_flow.dataset
        assert d.name == small_flow.design.name
        assert d.num_samples == small_flow.grid.num_cells

    def test_flow_deterministic(self):
        recipe = DesignRecipe(name="flowdet", grid_nx=8, grid_ny=8, seed=77)
        f1 = run_flow(recipe)
        f2 = run_flow(recipe)
        assert np.array_equal(f1.X, f2.X)
        assert np.array_equal(f1.y, f2.y)

    def test_stats_row(self, small_flow):
        row = small_flow.stats.format_row()
        assert "testchip" in row

    def test_design_statistics_fields(self, small_flow):
        stats = design_statistics(
            small_flow.design, small_flow.grid,
            small_flow.drc_report.num_hotspots(small_flow.grid),
        )
        assert stats.num_macros == 1
        assert stats.num_cells == small_flow.design.num_cells
        assert stats.layout_width_um == pytest.approx(
            small_flow.design.die.width / 100
        )
        assert 0.0 <= stats.hotspot_rate <= 1.0


class TestSuiteBuilder:
    def test_scaled_suite_with_cache(self, tmp_path):
        cache = tmp_path / "mini.npz"
        suite1, stats1 = build_suite_dataset(0.35, cache_path=cache)
        assert checkpoint_dir_for(cache).is_dir()  # the store is the cache
        assert len(suite1.designs) == 14
        assert {d.group for d in suite1.designs} == {0, 1, 2, 3, 4}

        # second call loads from the store and returns identical data
        suite2, stats2 = build_suite_dataset(0.35, cache_path=cache)
        assert suite2.names == suite1.names
        for d1, d2 in zip(suite1.designs, suite2.designs):
            assert np.array_equal(d1.y, d2.y)
        assert [s.num_hotspots for s in stats1] == [s.num_hotspots for s in stats2]

    def test_group_assignment_matches_table1(self, tmp_path):
        suite, _ = build_suite_dataset(0.35, cache_path=tmp_path / "g.npz")
        from repro.bench.suite import group_index_of

        for d in suite.designs:
            assert d.group == group_index_of(d.name)


# -- the whole flow, pinned byte for byte ------------------------------------------


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _netlist_digest(design) -> str:
    return _sha(
        # the tuple layout is fixed: False is the fixed-cell flag and
        # MACRO_BLOCKED_METALS each macro's blocked layers
        [(c.name, c.width, c.height, False,
          [(p.name, p.offset.as_tuple(), p.is_clock) for p in c.pins])
         for c in design.cells],
        [(m.name, m.bbox.as_tuple(), MACRO_BLOCKED_METALS) for m in design.macros],
        [(n.name, n.ndr, n.is_clock, [p.full_name for p in n.pins])
         for n in design.nets],
    )


@pytest.fixture(scope="module")
def mult_b_flow():
    """``mult_b`` at scale 0.35, the design ``test_router.py`` routes."""
    (recipe,) = [r for r in suite_recipes(0.35) if r.name == "mult_b"]
    return run_flow(recipe)


class TestFlowPinned:
    """SHA-256 digests of each stage's output: the netlist, the placed
    positions, the DRC violations, and X and y.  Any change to generation,
    placement or the DRC simulator's random draws moves one of them, and
    with it the paper's features or labels."""

    def test_generated_netlist(self, mult_b_flow):
        assert _netlist_digest(mult_b_flow.design) == (
            "943557336263f2038a80dcc8519187b56bc0064462240903f2035228959f71c4"
        )

    def test_placed_positions(self, mult_b_flow):
        positions = [c.position.as_tuple() for c in mult_b_flow.design.cells]
        assert _sha(positions) == (
            "ab00836e944c0eed8c10b8fea1ce3879bbe72a83724616be9563d5fda2624cac"
        )

    def test_drc_violations(self, mult_b_flow):
        violations = [(v.vtype.value, v.layer, v.bbox.as_tuple())
                      for v in mult_b_flow.drc_report.violations]
        assert _sha(violations) == (
            "fbecd81af948d689c94e02a45a853752ca301500ffe8e487b45ea0bc6b3844c7"
        )

    def test_features_and_labels(self, mult_b_flow):
        X, y = mult_b_flow.X, mult_b_flow.y
        assert _sha(str(X.dtype), X.shape, X.tobytes(),
                    str(y.dtype), y.shape, y.tobytes()) == (
            "7c7106142c1a1138c1c6264a654d2ccc7904608029a96e6683580abf5e36114e"
        )


def _flow_digest(flow) -> str:
    X, y = flow.X, flow.y
    return _sha(
        _netlist_digest(flow.design),
        [c.position.as_tuple() for c in flow.design.cells],
        str(X.dtype), X.shape, X.tobytes(), str(y.dtype), y.shape, y.tobytes(),
    )


@pytest.fixture(scope="module")
def suite_flow_digests():
    """``(name, digest)`` of every scale-0.35 suite design's flow, in suite order."""
    return [(r.name, _flow_digest(run_flow(r))) for r in suite_recipes(0.35)]


class TestSuitePinned:
    """SHA-256 digests over every suite design, so a faster generator,
    placer or rasteriser must leave each design's output as it was.

    The scale-0.35 digest covers all 14 flows (netlist, legalised
    positions, X and y), dies without macros among them.  The scale-0.5
    netlists add the generator's fallback pick over every cell with a free
    pin, which no scale-0.35 design makes (the scale-0.5 suite makes it 15
    times)."""

    def test_every_design(self, suite_flow_digests):
        assert [name for name, _ in suite_flow_digests] == [
            r.name for r in suite_recipes(0.35)
        ]
        assert _sha(suite_flow_digests) == (
            "1a4ca2e23bda47c7e67a904dbfa670957ffdf146f18e7bdd035740022110edd9"
        )

    def test_every_netlist_at_half_scale(self):
        digests = [(r.name, _netlist_digest(generate_design(r)))
                   for r in suite_recipes(0.5)]
        assert _sha(digests) == (
            "343ebc4fd772635020596833d111f6bf81fee0e453b9ac372a10f409809943a5"
        )
