"""Table II assembly and rendering.

Formats an :class:`~repro.core.experiment.ExperimentResult` as the paper's
Table II: one row per design with (TPR*, Prec*, A_prc) per model, winners
bolded (marked ``*`` in text), followed by averages, winning-design counts
and the complexity/cost rows.
"""

from __future__ import annotations

from .experiment import TABLE2_METRICS, ExperimentResult, winners


def _fmt(v: float | None, best: bool) -> str:
    if v is None:
        return "   --   "
    s = f"{v:.4f}"
    return f"{s}*" if best else f"{s} "


def format_table2(result: ExperimentResult) -> str:
    """Render the Table II analogue as fixed-width text."""
    models = result.model_order
    header1 = f"{'Design':<12s}"
    header2 = f"{'':<12s}"
    for m in models:
        header1 += f"| {m:^26s} "
        header2 += f"| {'TPR*':>8s} {'Prec*':>8s} {'Aprc':>8s} "
    lines = [header1, header2, "-" * len(header2)]

    for design in result.design_order:
        per_model = {m: result.score_of(design, m) for m in models}
        row = f"{design:<12s}"
        wins = {
            attr: winners({m: getattr(r, attr) for m, r in per_model.items() if r is not None})
            for attr in TABLE2_METRICS
        }
        for m in models:
            r = per_model[m]
            cells = [
                _fmt(None if r is None else getattr(r, attr), m in wins[attr])
                for attr in TABLE2_METRICS
            ]
            row += "| " + " ".join(cells) + " "
        lines.append(row)

    lines.append("-" * len(header2))
    row = f"{'Average':<12s}"
    avg = {m: result.averages(m) for m in models}
    avg_wins = [winners({m: avg[m][k] for m in models}) for k in range(3)]
    for m in models:
        cells = [_fmt(avg[m][k], m in avg_wins[k]) for k in range(3)]
        row += "| " + " ".join(cells) + " "
    lines.append(row)

    row = f"{'# Win. des.':<12s}"
    for m in models:
        w = result.winning_designs(m)
        row += f"| {w[0]:>8d} {w[1]:>8d} {w[2]:>8d}  "
    lines.append(row)

    stats = {s.model: s for s in result.run_stats}
    for label, getter in [
        ("# Param (k)", lambda s: f"{s.num_parameters / 1000.0:.1f}"),
        ("# Pred op(k)", lambda s: f"{s.prediction_ops / 1000.0:.1f}"),
        ("Train (min)", lambda s: f"{s.train_minutes:.2f}"),
        ("Pred (min)", lambda s: f"{s.predict_minutes_per_design:.4f}"),
    ]:
        row = f"{label:<12s}"
        for m in models:
            row += f"| {getter(stats[m]):>26s}  "
        lines.append(row)
    return "\n".join(lines)


def summarize_shape(result: ExperimentResult) -> dict[str, object]:
    """Machine-checkable qualitative claims of the paper's Sec. IV-A.

    Returns a dict the benchmark asserts on:

    * ``rf_best_average_aprc`` — RF has the best mean A_prc;
    * ``rf_most_wins_aprc`` — RF wins the most designs on A_prc;
    * ``svm_most_prediction_ops`` — SVM needs the most ops per prediction;
    * ``svm_slowest_training`` — SVM has the longest training time;
    * ``rf_vs_svm_aprc_gain`` — relative A_prc gain of RF over SVM-RBF.
    """
    models = result.model_order
    avg_aprc = {m: result.averages(m)[2] for m in models}
    wins_aprc = {m: result.winning_designs(m)[2] for m in models}
    stats = {s.model: s for s in result.run_stats}
    rf = "RF"
    svm = "SVM-RBF"
    out: dict[str, object] = {
        "avg_aprc": avg_aprc,
        "wins_aprc": wins_aprc,
        "rf_best_average_aprc": max(avg_aprc, key=avg_aprc.get) == rf,
        "rf_most_wins_aprc": max(wins_aprc, key=wins_aprc.get) == rf,
        "svm_most_prediction_ops": max(
            stats, key=lambda m: stats[m].prediction_ops
        )
        == svm,
        "svm_slowest_training": max(stats, key=lambda m: stats[m].train_minutes)
        == svm,
    }
    if rf in avg_aprc and avg_aprc.get(svm, 0) > 0:
        out["rf_vs_svm_aprc_gain"] = avg_aprc[rf] / avg_aprc[svm] - 1.0
    return out
