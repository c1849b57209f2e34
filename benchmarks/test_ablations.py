"""E8 — ablations of the paper's design choices.

The paper argues for several methodology decisions without dedicated
experiments; this bench supplies them:

1. **Design-split vs sample-split (Sec. II).**  Splitting samples of the
   *same* designs into train/test (as [4], [6] did) inflates measured
   quality versus the honest design-grouped split.
2. **A_prc vs A_roc (Sec. III-B).**  Under heavy imbalance, A_roc is
   systematically (and misleadingly) higher than A_prc.
3. **3×3 window vs central cell only (Sec. II-A).**  Neighbourhood
   features carry real signal: dropping them hurts A_prc.
4. **Number of trees (Sec. IV-A).**  More trees do not hurt: quality is
   non-decreasing (within tolerance) from 10 to 120 trees.
"""

import numpy as np
import pytest

from repro.features.names import feature_names
from repro.ml.forest import RandomForestClassifier
from repro.ml.metrics import auc_roc, average_precision


@pytest.fixture(scope="module")
def split(suite):
    X_train, y_train, _ = suite.stacked(exclude_groups=(3,))
    tests = [
        suite.by_name(n)
        for n in ("des_perf_1", "mult_c")
        if suite.by_name(n).num_hotspots > 0
    ]
    return X_train, y_train, tests


def _mean_aprc(model, tests):
    return float(
        np.mean(
            [average_precision(t.y, model.predict_proba(t.X)[:, 1]) for t in tests]
        )
    )


#: permutations of the target design's samples into train/test halves
SPLIT_SEEDS = range(5)


def test_ablation_design_split_vs_sample_split(suite, benchmark):
    """Sample-level splits leak design identity and inflate quality.

    Both models are scored on the same held-out half of the target design,
    over several random halvings: the honest model never sees the design,
    the leaky one also trains on its other half.
    """
    target = suite.by_name("des_perf_1")
    X_other, y_other, _ = suite.stacked(exclude_groups=(target.group,))

    def run_both():
        honest_model = RandomForestClassifier(n_estimators=60, random_state=0)
        honest_model.fit(X_other, y_other)
        honest_scores = honest_model.predict_proba(target.X)[:, 1]
        rows = []
        half = target.num_samples // 2
        for seed in SPLIT_SEEDS:
            idx = np.random.default_rng(seed).permutation(target.num_samples)
            tr, te = idx[:half], idx[half:]
            if target.y[te].sum() == 0:
                continue  # A_prc is undefined without a positive
            leaky_model = RandomForestClassifier(n_estimators=60, random_state=0)
            leaky_model.fit(np.vstack([X_other, target.X[tr]]),
                            np.concatenate([y_other, target.y[tr]]))
            rows.append((
                seed,
                average_precision(target.y[te], honest_scores[te]),
                average_precision(target.y[te],
                                  leaky_model.predict_proba(target.X[te])[:, 1]),
            ))
        return rows

    rows = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert rows, "no halving of the design holds a positive"
    for seed, honest, leaky in rows:
        print(f"\nseed {seed}: A_prc honest(design split) = {honest:.4f}, "
              f"leaky(sample split) = {leaky:.4f}")
    honest, leaky = np.mean([r[1:] for r in rows], axis=0)
    print(f"mean over {len(rows)} halvings: honest = {honest:.4f}, leaky = {leaky:.4f}")
    assert leaky > honest, "sample-split evaluation must look optimistic"


def test_ablation_aproc_vs_aprc(split, benchmark):
    """A_roc paints a rosier picture than A_prc on imbalanced data."""
    X_train, y_train, tests = split

    def run():
        model = RandomForestClassifier(n_estimators=60, random_state=0)
        model.fit(X_train, y_train)
        rows = []
        for t in tests:
            s = model.predict_proba(t.X)[:, 1]
            rows.append((t.name, average_precision(t.y, s), auc_roc(t.y, s)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for name, aprc, aroc in rows:
        print(f"\n{name}: A_prc={aprc:.4f}  A_roc={aroc:.4f}")
        assert aroc > aprc, "under imbalance A_roc reads higher than A_prc"


def test_ablation_window_3x3_vs_1x1(split, benchmark):
    """Neighbour features matter: central-cell-only features lose A_prc."""
    X_train, y_train, tests = split
    names = feature_names()
    central = np.array([i for i, n in enumerate(names) if n.endswith("_o")])
    print(f"\ncentral-cell features: {len(central)} of {len(names)}")

    def run():
        full = RandomForestClassifier(n_estimators=80, random_state=0)
        full.fit(X_train, y_train)
        full_score = _mean_aprc(full, tests)

        small = RandomForestClassifier(n_estimators=80, random_state=0)
        small.fit(X_train[:, central], y_train)
        small_score = float(
            np.mean(
                [
                    average_precision(
                        t.y, small.predict_proba(t.X[:, central])[:, 1]
                    )
                    for t in tests
                ]
            )
        )
        return full_score, small_score

    full_score, small_score = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"A_prc 3x3 window = {full_score:.4f}, central-only = {small_score:.4f}")
    assert full_score > small_score, "the 3x3 window must add signal"


def test_ablation_rf_robust_to_noise_features(split, benchmark):
    """Paper Sec. III-A: 'because of the randomization in choosing the
    features to split, RF is robust in the presence of uninformative and
    redundant features.'  We double the feature count with pure noise and
    shuffled copies; RF's A_prc must barely move."""
    X_train, y_train, tests = split
    rng = np.random.default_rng(0)
    n, f = X_train.shape

    def augment(X, noise_rng):
        noise = noise_rng.normal(size=X.shape)
        shuffled = X[noise_rng.permutation(len(X))]  # redundant-but-useless
        return np.hstack([X, noise, shuffled])

    def run():
        clean = RandomForestClassifier(n_estimators=80, random_state=0)
        clean.fit(X_train, y_train)
        clean_score = _mean_aprc(clean, tests)

        noisy_rng = np.random.default_rng(1)
        X_aug = augment(X_train, noisy_rng)
        noisy = RandomForestClassifier(n_estimators=80, random_state=0)
        noisy.fit(X_aug, y_train)
        noisy_score = float(
            np.mean(
                [
                    average_precision(
                        t.y,
                        noisy.predict_proba(
                            augment(t.X, np.random.default_rng(2))
                        )[:, 1],
                    )
                    for t in tests
                ]
            )
        )
        return clean_score, noisy_score

    clean_score, noisy_score = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\nA_prc with 387 features = {clean_score:.4f}, "
        f"with 1161 (2/3 junk) = {noisy_score:.4f}"
    )
    assert noisy_score > 0.6 * clean_score, "RF must shrug off junk features"


def test_ablation_tree_count_sweep(split, benchmark):
    """Paper Sec. IV-A: adding trees 'would not hurt' — quality saturates."""
    X_train, y_train, tests = split

    def run():
        scores = {}
        for n in (10, 40, 120):
            model = RandomForestClassifier(n_estimators=n, random_state=0)
            model.fit(X_train, y_train)
            scores[n] = _mean_aprc(model, tests)
        return scores

    scores = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nA_prc by tree count: { {k: round(v, 4) for k, v in scores.items()} }")
    assert scores[120] >= scores[10] - 0.03
    assert scores[40] >= scores[10] - 0.03
