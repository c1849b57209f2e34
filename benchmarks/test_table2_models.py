"""E2 — Table II: the five-model comparison under the paper's protocol.

Runs (via the session fixture) leave-one-group-out evaluation of SVM-RBF,
RUSBoost, NN-1, NN-2 and RF over the 14-design suite, prints the Table II
analogue and asserts the paper's headline claims:

* RF has the best average A_prc (the paper's main metric) and wins the
  most designs on it;
* RF's advantage over SVM-RBF is at least the paper's reported 21 %;
* SVM-RBF needs by far the most prediction operations per sample
  (paper: 110× RF) and stores the most parameters of the kernel models.

The timed kernel is one final RF fit on the group-0 training set.
"""

from repro.core.evaluation import format_table2, summarize_shape
from repro.core.models import rf_spec


def test_table2_model_comparison(suite, experiment_result, benchmark):
    X_train, y_train, _ = suite.stacked(exclude_groups=(0,))
    spec = rf_spec("fast")
    benchmark.pedantic(
        lambda: spec.factory().fit(X_train, y_train), rounds=1, iterations=1
    )

    result = experiment_result
    print("\nTable II analogue — model comparison (fast preset)")
    print(format_table2(result))
    shape = summarize_shape(result)
    print("\nqualitative shape:")
    for k, v in shape.items():
        print(f"  {k}: {v}")

    # --- the paper's headline claims ------------------------------------------
    assert shape["rf_best_average_aprc"], "RF must have the best mean A_prc"
    assert shape["rf_most_wins_aprc"], "RF must win the most designs on A_prc"
    assert shape["svm_most_prediction_ops"], "SVM-RBF must cost the most ops"
    assert shape["rf_vs_svm_aprc_gain"] >= 0.21, (
        "paper: RF is at least 21% better than SVM-RBF in average A_prc"
    )

    # every scored design/model cell carries valid metrics
    for s in result.scores:
        assert 0.0 <= s.metrics.a_prc <= 1.0
        assert 0.0 <= s.metrics.tpr_star <= 1.0

    # RF average TPR*: the paper reports ~0.51 at our 0.5% FPR budget; at
    # 10x smaller designs a positive, nontrivial recall is the check
    rf_tpr, rf_prec, rf_aprc = result.averages("RF")
    print(f"\nRF averages: TPR*={rf_tpr:.4f} Prec*={rf_prec:.4f} A_prc={rf_aprc:.4f}")
    assert rf_aprc > 0.3


def test_rf_parameter_count_largest_tree_model(experiment_result, benchmark):
    """Paper: the 500-tree unpruned RF stores the most parameters among the
    tree models; here we assert RF > RUSBoost (its trees are depth-capped)."""
    stats = {s.model: s for s in experiment_result.run_stats}
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert stats["RF"].num_parameters > stats["RUSBoost"].num_parameters
    # NNs are the smallest models, as in Table II
    assert stats["NN-1"].num_parameters < stats["RF"].num_parameters
    assert stats["NN-1"].num_parameters < stats["SVM-RBF"].num_parameters
