"""Engine-level invariants of the histogram training engine.

Five contracts keep the fast paths honest:

* the batched split kernel (:func:`repro.ml.tree.best_splits`) picks the
  same cut as a dense scan of every ``(row, cut)`` — scoring only cuts
  after occupied bins is an optimisation, never a model change;
* growing trees in lock-step gives the same arrays as growing each alone:
  every tree's random stream and node order are its own;
* gathering only a node's sampled feature rows and live (non-zero-weight)
  rows leaves every fitted array unchanged — pinned by digests recorded
  before the engine gathered less;
* a forest fit on a runner's process pool is bit-identical to an inline
  one at the same seed — each tree's random stream is a pure function of
  ``(random_state, tree index)``, regardless of scheduling or of a group's
  re-dispatch after its worker crashed;
* stacked :class:`ForestArrays` prediction matches per-tree traversal,
  and the training drivers quantise each split exactly once (proved via
  the ``ml.binning.*`` telemetry counters).
"""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.ml.forest as forest_mod
import repro.ml.tree as tree_mod
from repro.core.experiment import run_experiment
from repro.core.models import ModelSpec
from repro.ml.binning import BinnedDataset
from repro.ml.boosting import RUSBoostClassifier
from repro.ml.forest import ForestArrays, RandomForestClassifier
from repro.ml.model_selection import grid_search
from repro.ml.tree import DecisionTreeClassifier, _impurity, best_splits
from repro.runtime import FaultTolerantRunner, StageFailure
from repro.runtime.telemetry import Tracer, activate
from tests.breaking import breaking, claim, crash
from tests.conftest import make_separable


def _trial_data(trial):
    """One randomized fit problem: data/weights/params all derive from the
    trial number, sweeping the regimes where a changed scan or growth order
    could bite (exact ties on gridded data, fractional and zeroed weights,
    tiny and full-width histograms)."""
    rng = np.random.default_rng(trial)
    n = int(rng.integers(30, 400))
    n_features = int(rng.integers(2, 9))
    kind = trial % 3
    if kind == 0:
        X = rng.normal(size=(n, n_features))
    elif kind == 1:
        X = rng.choice([0.0, 1.0, 2.0, 5.0, 9.0], size=(n, n_features))
    else:
        X = np.round(rng.normal(size=(n, n_features)), 1)
    y = (X[:, 0] + rng.normal(scale=0.5, size=n) > 0).astype(np.int8)
    if y.min() == y.max():
        y[: n // 2] = 1 - y[0]

    wkind = trial % 4
    if wkind == 0:
        w = None
    elif wkind == 1:
        w = rng.uniform(0.1, 5.0, size=n)
    elif wkind == 2:  # bootstrap-like integer counts
        w = rng.multinomial(n, np.full(n, 1.0 / n)).astype(np.float64)
    elif trial % 8 == 3:  # boosting-like: a fifth of the rows carry zero weight
        w = rng.uniform(0.5, 2.0, size=n)
        w[rng.random(n) < 0.2] = 0.0
    else:  # RUSBoost-like undersample: most rows carry zero weight
        w = rng.uniform(0.5, 2.0, size=n)
        w[rng.random(n) < 0.85] = 0.0
    if w is not None and not w.sum() > 0:
        w = None

    max_bins = int(rng.integers(2, 257))
    params = dict(
        min_samples_leaf=int(rng.integers(1, 5)),
        max_features=None if trial % 3 == 0 else "sqrt",
    )
    return X, y, w, max_bins, params


def _assert_trees_identical(a, b):
    assert np.array_equal(a.children_left, b.children_left)
    assert np.array_equal(a.children_right, b.children_right)
    assert np.array_equal(a.feature, b.feature)
    assert np.array_equal(a.threshold, b.threshold, equal_nan=True)
    assert np.array_equal(a.cover, b.cover)
    assert np.array_equal(a.value, b.value)


def _dense_scan(hist_tot, hist_pos, w_tot, w_pos, min_samples_leaf):
    """The per-node dense split scan the batched kernel replaced, kept as
    the reference (gini only, like the kernel): every ``(row, cut)`` of a
    ``(k, B)`` histogram pair scored, first cut within 1e-9 of the best
    wins."""
    B = hist_tot.shape[1]
    # prefix sums: splitting after bin c puts codes <= c on the left
    left_tot = np.cumsum(hist_tot, axis=1)[:, :-1]
    left_pos = np.cumsum(hist_pos, axis=1)[:, :-1]
    right_tot = w_tot - left_tot
    right_pos = w_pos - left_pos

    parent_imp = _impurity(np.array([w_pos]), np.array([w_tot]))[0]
    child_imp = (
        left_tot * _impurity(left_pos, left_tot)
        + right_tot * _impurity(right_pos, right_tot)
    ) / w_tot
    gain = parent_imp - child_imp

    feasible = (left_tot >= min_samples_leaf) & (
        right_tot >= min_samples_leaf
    )
    gain = np.where(feasible, gain, -np.inf)
    best_gain = float(gain.max())
    if not np.isfinite(best_gain) or best_gain <= 1e-12:
        return None
    tol = 1e-9 * max(1.0, abs(best_gain))
    best_flat = int(np.argmax(gain.ravel() >= best_gain - tol))
    f, cut = divmod(best_flat, B - 1)
    return int(f), int(cut)


def _kernel_case(seed):
    """``m`` nodes' histograms built from sampled rows, as a tree builds
    them: unequal node sizes, features of unequal bin counts (many bins
    empty), fractional, integer and zero weights, a duplicated feature row
    (an exact tie across rows) and a few rows with no positive weight."""
    rng = np.random.default_rng(seed)
    m, k, B = int(rng.integers(1, 6)), int(rng.integers(1, 7)), int(rng.integers(2, 40))
    widths = rng.integers(1, B + 1, size=(m, k))
    widths[:, 0] = B  # some row spans the full width
    hist_tot = np.zeros((m, k, B))
    hist_pos = np.zeros((m, k, B))
    w_tot, w_pos = np.zeros(m), np.zeros(m)
    for i in range(m):
        n = int(rng.integers(1, 60))
        codes = rng.integers(0, widths[i], size=(n, k))
        if k > 1 and rng.random() < 0.5:
            codes[:, -1] = codes[:, 0]  # an exactly tied feature row
            widths[i, -1] = widths[i, 0]
        weight_kind = rng.integers(3)
        if weight_kind == 0:
            w = np.ones(n)
        elif weight_kind == 1:
            w = rng.multinomial(n, np.full(n, 1.0 / n)).astype(np.float64)
        else:
            w = rng.uniform(0.1, 3.0, size=n) * (rng.random(n) < 0.7)
        if not w.sum() > 0:
            w[0] = 1.0
        w = w * (n / w.sum())
        y = rng.random(n) < rng.choice([0.0, 0.2, 0.5])
        wy = w * y
        for f in range(k):
            hist_tot[i, f] = np.bincount(codes[:, f], weights=w, minlength=B)
            hist_pos[i, f] = np.bincount(codes[:, f], weights=wy, minlength=B)
        w_tot[i], w_pos[i] = float(w.sum()), float(wy.sum())
    return hist_tot, hist_pos, widths, w_tot, w_pos


def _ragged(hist, widths):
    """Each row cut to its own width: the layout the engine feeds the kernel."""
    m, k, _ = hist.shape
    return np.concatenate([hist[i, f, :widths[i, f]] for i in range(m) for f in range(k)])


class TestSplitKernel:
    @given(st.integers(0, 100_000), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_scan(self, seed, min_samples_leaf):
        hist_tot, hist_pos, widths, w_tot, w_pos = _kernel_case(seed)
        m, k, B = hist_tot.shape
        expected = [
            _dense_scan(hist_tot[i], hist_pos[i], w_tot[i], w_pos[i],
                        min_samples_leaf)
            for i in range(m)
        ]
        row_start = np.zeros(m * k + 1, dtype=np.int64)
        np.cumsum(widths.ravel(), out=row_start[1:])
        layouts = [
            (hist_tot.ravel(), hist_pos.ravel(), np.arange(m * k + 1) * B),
            (_ragged(hist_tot, widths), _ragged(hist_pos, widths), row_start),
        ]
        for tot, pos, starts in layouts:
            rows, cuts, n_scored = best_splits(
                tot, pos, starts, k, w_tot, w_pos, min_samples_leaf
            )
            got = [None if r < 0 else (int(r), int(c)) for r, c in zip(rows, cuts)]
            assert got == expected
            # only cuts after an occupied bin, never after a row's last
            occupied = ((hist_tot != 0) | (hist_pos != 0)).sum(axis=2)
            assert n_scored == np.maximum(occupied - 1, 0).sum()

    def test_empty_and_single_bin_rows_are_leaves(self):
        hist = np.zeros((2, 3, 4))
        hist[:, :, 1] = 5.0  # every row's weight in one bin: no feasible cut
        rows, cuts, n_scored = best_splits(
            hist.ravel(), hist.ravel() * 0.2, np.arange(7) * 4, 3,
            np.array([5.0, 5.0]), np.array([1.0, 1.0]), 1,
        )
        assert list(rows) == [-1, -1] and n_scored == 0


class TestLockStep:
    @given(st.integers(0, 100_000))
    @example(3)  # a fifth of the weights zeroed
    @example(7)  # most weights zeroed, as in a RUSBoost undersample
    @settings(max_examples=30, deadline=None)
    def test_bit_identical_to_single_fits(self, trial):
        X, y, w, max_bins, params = _trial_data(trial)
        n = len(y)
        base = np.ones(n) if w is None else w
        rng = np.random.default_rng(trial + 1)
        weights = [base, base * rng.multinomial(n, np.full(n, 1.0 / n)),
                   base * (rng.random(n) < 0.5)]
        weights = [v if v.sum() > 0 else base for v in weights]
        dataset = BinnedDataset.from_matrix(X, max_bins=max_bins)
        template = DecisionTreeClassifier(**params)
        together, stats = template.grow(
            dataset, y, weights, np.random.default_rng(trial).spawn(3)
        )
        alone = [
            DecisionTreeClassifier(random_state=r, **params).fit(
                None, y, sample_weight=v, binned=dataset
            )
            for v, r in zip(weights, np.random.default_rng(trial).spawn(3))
        ]
        for a, b in zip(together, alone):
            _assert_trees_identical(a, b.tree_)
        for name in ("ml.hist.builds", "ml.hist.cells", "ml.hist.scan_cells",
                     "ml.tree.nodes"):
            assert stats[name] == sum(b.fit_stats_[name] for b in alone)
        # one kernel call per lock-step step that splits anything, not one
        # per tree and node
        alone_batches = [b.fit_stats_["ml.hist.batches"] for b in alone]
        assert max(alone_batches) <= stats["ml.hist.batches"] <= sum(alone_batches)

    @pytest.mark.parametrize("kw", [
        dict(max_depth=4),
        dict(min_samples_leaf=3),
        dict(max_samples=0.05),  # 15 draws of 300 rows: most weights zero
        dict(max_samples=0.6),
        dict(max_depth=8, jobs=2),  # the groups as units on a 2-worker pool
    ])
    def test_forest_equals_trees_grown_one_at_a_time(self, kw):
        X, y = make_separable(n=300, n_features=12, seed=36)
        n_trees = forest_mod.TREES_IN_FLIGHT + 3  # two lock-step groups
        params = {k: v for k, v in kw.items() if k != "jobs"}
        runner = FaultTolerantRunner(jobs=kw["jobs"], fail_fast=True) if "jobs" in kw else None
        rf = RandomForestClassifier(n_estimators=n_trees, random_state=9, **params)
        rf.fit(X, y, runner=runner)
        dataset = BinnedDataset.from_matrix(X)
        n_draw = len(y) if rf.max_samples is None else int(rf.max_samples * len(y))
        builds = batches = 0
        for r, got in zip(np.random.default_rng(9).spawn(n_trees), rf.trees):
            w = r.multinomial(n_draw, np.full(len(y), 1.0 / len(y)))
            tree = DecisionTreeClassifier(
                max_depth=rf.max_depth, min_samples_leaf=rf.min_samples_leaf,
                max_features="sqrt", random_state=r,
            ).fit(None, y, sample_weight=w, binned=dataset)
            _assert_trees_identical(got, tree.tree_)
            builds += tree.fit_stats_["ml.hist.builds"]
            batches += tree.fit_stats_["ml.hist.batches"]
        # the same node histograms, split in strictly fewer kernel calls
        assert rf.fit_stats_["ml.hist.builds"] == builds
        assert 0 < rf.fit_stats_["ml.hist.batches"] < batches


    def test_gather_cap_only_splits_the_bincount(self, monkeypatch):
        X, y = make_separable(n=400, n_features=20, seed=37)
        rf = RandomForestClassifier(n_estimators=6, random_state=2).fit(X, y)
        monkeypatch.setattr(tree_mod, "_BINCOUNT_CELLS", 50)
        capped = RandomForestClassifier(n_estimators=6, random_state=2).fit(X, y)
        for a, b in zip(rf.trees, capped.trees):
            _assert_trees_identical(a, b)
        assert capped.fit_stats_ == rf.fit_stats_


class TestCounters:
    def test_fit_counters_reach_active_tracer(self):
        X, y = make_separable(n=300, seed=34)
        tracer = Tracer()
        with activate(tracer):
            tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        for name, v in tree.fit_stats_.items():
            assert tracer.counters[name] == v
        assert tracer.counters["ml.tree.nodes"] > 1

    def test_sampled_tree_gathers_only_mtry_live_cells(self):
        X, y = make_separable(n=600, n_features=40, seed=35)
        w = np.random.default_rng(35).multinomial(420, np.full(600, 1 / 600.0))
        tree = DecisionTreeClassifier(random_state=0, max_features="sqrt").fit(
            X, y, sample_weight=w.astype(np.float64)
        )
        stats = tree.fit_stats_
        mtry, live = int(np.sqrt(40)), int(np.count_nonzero(w))
        assert 0 < stats["ml.hist.cells"] <= stats["ml.hist.builds"] * mtry * live
        # a batch of one: one kernel call per histogram built
        assert stats["ml.hist.batches"] == stats["ml.hist.builds"]
        assert 0 < stats["ml.hist.scan_cells"] < stats["ml.hist.cells"]


_TREE_FIELDS = (
    "children_left", "children_right", "feature", "threshold", "cover", "value",
)


def _trees_digest(trees) -> str:
    h = hashlib.sha256()
    for tree in trees:
        for name in _TREE_FIELDS:
            h.update(np.ascontiguousarray(getattr(tree, name)).tobytes())
    return h.hexdigest()


def _pin_matrix():
    """320 g-cell-like rows of the paper's 387 features: small-integer
    counts plus a few wide columns that take the quantile-binning path; 40
    positives, so RUSBoost's balanced undersample zeroes 3/4 of the rows."""
    rng = np.random.default_rng(2020)
    n = 320
    X = rng.integers(0, 12, size=(n, 387)).astype(np.float64)
    X[:, 380:] = rng.integers(0, 5000, size=(n, 7)) / 7.0
    score = X[:, 0] + X[:, 5] - X[:, 9] + X[:, 381] / 300.0 + rng.integers(0, 6, size=n)
    y = (score >= np.sort(score)[-40]).astype(np.int8)
    return X, y


class TestPinnedTrees:
    """Every fitted array of two small ensembles on a fixed 387-feature
    matrix, pinned by SHA-256.  The digests were recorded with the engine
    that still built every node's histogram over all features and all rows
    (before mtry-row and live-row gathers), so a match proves the narrower
    gathers change no tree, cover or value bit."""

    def test_random_forest_sqrt_bootstrap(self):
        X, y = _pin_matrix()
        for runner in (None, FaultTolerantRunner(jobs=2, fail_fast=True)):
            rf = RandomForestClassifier(
                n_estimators=4, max_samples=0.7, random_state=5
            ).fit(X, y, runner=runner)
            assert [t.node_count for t in rf.trees] == [39, 41, 39, 31]
            assert _trees_digest(rf.trees) == (
                "eeb669fc3dbacfebcdb3c223db968658a873109a2c7459e3ca7134da7f234ad7"
            )

    def test_rusboost_full_features(self):
        # learning_rate=0 keeps the boosting distribution free of exp/log,
        # whose last-ulp rounding varies with the SIMD/libm build; the
        # rounds still draw fresh balanced undersamples
        X, y = _pin_matrix()
        rus = RUSBoostClassifier(
            n_estimators=4, max_depth=6, learning_rate=0.0, random_state=5
        ).fit(X, y)
        assert [t.node_count for t in rus.trees] == [21, 17, 19, 19]
        assert _trees_digest(rus.trees) == (
            "e0c9b11fb3f8072ea5cd8b86f85eaabee9dc786e82dccefffb24dd7a09ac432c"
        )


class TestParallelFit:
    def test_parallel_fit_bit_identical_to_serial(self):
        X, y = make_separable(n=400, seed=40)
        Xte, _ = make_separable(n=200, seed=41)
        n_trees = 2 * forest_mod.TREES_IN_FLIGHT + 3  # three lock-step groups
        serial = RandomForestClassifier(
            n_estimators=n_trees, max_depth=6, random_state=7
        ).fit(X, y)
        parallel = RandomForestClassifier(
            n_estimators=n_trees, max_depth=6, random_state=7
        ).fit(X, y, runner=FaultTolerantRunner(jobs=3, fail_fast=True))
        assert len(parallel.trees) == n_trees
        for a, b in zip(serial.trees, parallel.trees):
            _assert_trees_identical(a, b)
        assert np.array_equal(serial.predict_proba(Xte), parallel.predict_proba(Xte))

    def test_parallel_fit_reemits_tree_counters(self):
        X, y = make_separable(n=300, seed=42)
        n_trees = 2 * forest_mod.TREES_IN_FLIGHT + 3  # three lock-step groups

        def totals(runner):
            tracer = Tracer()
            with activate(tracer):
                rf = RandomForestClassifier(
                    n_estimators=n_trees, max_depth=4, random_state=1
                ).fit(X, y, runner=runner)
            assert rf.fit_stats_ == {
                k: tracer.counters[k] for k in rf.fit_stats_
            }
            return {
                k: v for k, v in tracer.counters.items() if k.startswith("ml.hist")
                or k.startswith("ml.tree")
            }

        serial = totals(None)
        parallel = totals(FaultTolerantRunner(jobs=2, fail_fast=True))
        assert serial == parallel
        assert serial["ml.tree.nodes"] > 0
        assert serial["ml.hist.cells"] > 0
        assert serial["ml.hist.scan_cells"] > 0
        # lock-step: one kernel call scans a node of every tree in flight
        assert 0 < serial["ml.hist.batches"] < serial["ml.hist.builds"]

    def test_failed_unit_raises_without_fail_fast(self, monkeypatch):
        X, y = make_separable(n=200, seed=44)
        runner = FaultTolerantRunner()
        rf = RandomForestClassifier(n_estimators=20, random_state=0)  # two units
        # the group whose first tree is tree 0 fails
        monkeypatch.setattr(DecisionTreeClassifier, "grow", breaking(
            DecisionTreeClassifier.grow,
            when=lambda self, dataset, y, weights, rngs:
                rngs[0].bit_generator.seed_seq.spawn_key == (0,),
        ))
        with pytest.raises(StageFailure, match="forest/trees0-9"):
            rf.fit(X, y, runner=runner)
        assert runner.failures.units() == ["forest/trees0-9"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retried_group_regrows_identical_trees(self, jobs, tmp_path, monkeypatch):
        # the first group to start draws from its generators, then SIGKILLs
        # its worker; the re-dispatch must regrow from the seeds, not from
        # the advanced streams.  A budget puts even a jobs=1 run on its worker.
        X, y = make_separable(n=300, seed=43)
        n_trees = forest_mod.TREES_IN_FLIGHT + 3  # two lock-step groups
        reference = RandomForestClassifier(
            n_estimators=n_trees, max_depth=5, random_state=4
        ).fit(X, y)
        grow = DecisionTreeClassifier.grow
        marker = tmp_path / "crashed-once"  # a file: workers share no memory

        def crashing_grow(self, dataset, y, weights, rngs):
            if claim(marker):
                for rng in rngs:
                    rng.random(7)
                crash(0.0)
            return grow(self, dataset, y, weights, rngs)

        monkeypatch.setattr(DecisionTreeClassifier, "grow", crashing_grow)
        tracer = Tracer()
        runner = FaultTolerantRunner(
            fail_fast=True, jobs=jobs, timeout_s=60.0 if jobs == 1 else None
        )
        with activate(tracer):
            rf = RandomForestClassifier(
                n_estimators=n_trees, max_depth=5, random_state=4
            ).fit(X, y, runner=runner)
        assert marker.exists() and tracer.counters["runner.worker_crashes"] == 1
        for a, b in zip(reference.trees, rf.trees, strict=True):
            _assert_trees_identical(a, b)


class TestStackedPrediction:
    @pytest.fixture(scope="class")
    def fitted(self):
        X, y = make_separable(n=500, seed=50)
        Xte, _ = make_separable(n=333, seed=51)
        rf = RandomForestClassifier(n_estimators=9, random_state=3).fit(X, y)
        return rf, Xte

    def test_matches_per_tree_traversal(self, fitted):
        rf, Xte = fitted
        leaf = rf.stacked.leaf_values(Xte)
        manual = np.column_stack(
            [t.predict_proba_positive(Xte) for t in rf.trees]
        )
        assert np.array_equal(leaf, manual)
        assert np.array_equal(
            rf.stacked.predict_proba_positive(Xte), manual.mean(axis=1)
        )

    def test_path_lengths_match_per_tree(self, fitted):
        rf, Xte = fitted
        lengths = rf.stacked.decision_path_lengths(Xte, chunk_size=100)
        manual = np.column_stack([t.decision_path_lengths(Xte) for t in rf.trees])
        assert lengths.dtype == manual.dtype
        assert np.array_equal(lengths, manual)

    def test_chunked_traversal_invariant(self, fitted):
        rf, Xte = fitted
        assert np.array_equal(
            rf.stacked.leaf_values(Xte, chunk_size=7), rf.stacked.leaf_values(Xte)
        )

    def test_padding_of_unequal_trees(self):
        X, y = make_separable(n=400, seed=52)
        Xte, _ = make_separable(n=150, seed=53)
        stump = DecisionTreeClassifier(max_depth=1, random_state=0).fit(X, y)
        deep = DecisionTreeClassifier(max_depth=6, random_state=0).fit(X, y)
        fa = ForestArrays.from_trees([stump.tree_, deep.tree_])
        assert fa.n_trees == 2
        leaf = fa.leaf_values(Xte)
        assert np.array_equal(leaf[:, 0], stump.tree_.predict_proba_positive(Xte))
        assert np.array_equal(leaf[:, 1], deep.tree_.predict_proba_positive(Xte))

    def test_refit_invalidates_stack(self):
        X, y = make_separable(n=300, seed=54)
        rf = RandomForestClassifier(n_estimators=3, random_state=0).fit(X, y)
        first = rf.stacked
        rf.fit(X, y)
        assert rf.stacked is not first

    def test_empty_forest_raises(self):
        with pytest.raises(ValueError):
            ForestArrays.from_trees([])

    def test_rusboost_margin_matches_reference(self):
        X, y = make_separable(n=400, seed=55)
        model = RUSBoostClassifier(
            n_estimators=8, max_depth=3, random_state=1
        ).fit(X, y)
        margin = model.decision_function(X)
        alphas = np.asarray(model.alphas_)
        ref = sum(
            a * (2.0 * t.predict_proba_positive(X) - 1.0)
            for a, t in zip(alphas, model.trees)
        ) / alphas.sum()
        assert np.allclose(margin, ref)
        assert margin.min() >= -1.0 and margin.max() <= 1.0


class TestBinOnce:
    def test_grid_search_requantises_nothing(self):
        X, y = make_separable(n=600, seed=70)
        groups = np.repeat(np.arange(3), 200)

        def factory(max_depth=4):
            return RandomForestClassifier(
                n_estimators=4, max_depth=max_depth, random_state=0
            )

        tracer = Tracer()
        with activate(tracer):
            binned = BinnedDataset.from_matrix(X)
            grid_search(factory, {"max_depth": [2, 4]}, X, y, groups, binned=binned)
        # the one from_matrix call is the only quantisation the whole
        # search performs: folds are uint8 row slices of it
        assert tracer.counters["ml.binning.fits"] == 1
        assert tracer.counters["ml.binning.transforms"] == 1

    def test_experiment_bins_each_split_once(self, mini_suite):
        def make_rf(**kw):
            return RandomForestClassifier(
                n_estimators=4, max_depth=4, random_state=0, **kw
            )

        def make_rus(**kw):
            return RUSBoostClassifier(
                n_estimators=4, max_depth=2, random_state=0, **kw
            )

        models = [
            ModelSpec("RF", make_rf, supports_binned=True),
            ModelSpec("RUSBoost", make_rus, supports_binned=True),
        ]
        tracer = Tracer()
        with activate(tracer):
            run_experiment(mini_suite, models, tune=False)
        n_groups = len({d.group for d in mini_suite.designs if d.group >= 0})
        expected = n_groups * len(models)  # one per (binned model, group) split
        assert tracer.counters["ml.binning.fits"] == expected
        assert tracer.counters["ml.binning.transforms"] == expected
