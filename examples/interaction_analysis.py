"""Feature-interaction analysis of a predicted DRC hotspot.

The paper notes that additive explanations must capture "complex feature
interactions" (Sec. III-C).  SHAP *interaction values* (Lundberg et al.
2018, the paper's [9]) make those interactions explicit: this example
explains the strongest predicted hotspot of a design, then decomposes the
attribution of its top features into main effects (diagonal) and pairwise
interactions (off-diagonal).

Run:  python examples/interaction_analysis.py [--design fft_b] [--k 5]
"""

import argparse

import numpy as np

from repro.bench.suite import SUITE_RECIPES
from repro.core import build_suite_dataset, default_cache_path
from repro.core.explain import train_explanation_forest
from repro.features import feature_names
from repro.ml.forest import ForestArrays
from repro.ml.shap import TreeShapExplainer, top_interactions


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--design", default="des_perf_1", choices=sorted(SUITE_RECIPES))
    parser.add_argument("--k", type=int, default=5, help="top features to analyse")
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()

    suite, _ = build_suite_dataset(args.scale, cache_path=default_cache_path(args.scale))
    dataset = suite.by_name(args.design)
    # interactions enumerate 2^k coalitions per tree: keep the forest modest
    trees = train_explanation_forest(suite, args.design).trees[:30]
    scores = ForestArrays.from_trees(trees).predict_proba_positive(dataset.X)
    row = int(np.argmax(scores))
    x = dataset.X[row]
    cell = dataset.cell_of_sample(row)
    print(f"strongest predicted hotspot of {args.design}: g-cell {cell} "
          f"(P = {scores[row]:.3f})")

    explainer = TreeShapExplainer(trees, dataset.X.shape[1])
    feats, mat = top_interactions(explainer, trees, x, k=args.k)
    names = feature_names()

    print(f"\ninteraction matrix over the top {args.k} features "
          "(diagonal = main effect):")
    header = " " * 14 + "".join(f"{names[f][:12]:>13s}" for f in feats)
    print(header)
    for a, fa in enumerate(feats):
        row_txt = f"{names[fa][:12]:<14s}"
        row_txt += "".join(f"{mat[a, b]:>+13.4f}" for b in range(len(feats)))
        print(row_txt)

    off = mat - np.diag(np.diag(mat))
    a, b = np.unravel_index(np.argmax(np.abs(off)), off.shape)
    print(
        f"\nstrongest pairwise interaction: {names[feats[a]]} x "
        f"{names[feats[b]]} = {mat[a, b]:+.4f}"
    )
    print(
        f"interaction share of the restricted attribution: "
        f"{abs(off).sum() / max(abs(mat).sum(), 1e-12):.1%}"
    )


if __name__ == "__main__":
    main()
