"""Text rendering of precision-recall curves.

The paper's central methodological point (Sec. III-B) is that DRC hotspot
predictors should be judged by *curves*, not single operating points.
This module renders the P-R curve of a scored design as a compact ASCII
plot (terminals are this repo's display surface).
"""

from __future__ import annotations

import numpy as np

from ..ml.metrics import average_precision, pr_curve


def _ascii_plot(
    xs: np.ndarray,
    ys: np.ndarray,
    width: int = 61,
    height: int = 16,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """A dot-matrix plot of a curve over the unit square."""
    canvas = [[" "] * width for _ in range(height)]
    for x, y in zip(xs, ys):
        cx = min(int(round(x * (width - 1))), width - 1)
        cy = min(int(round(y * (height - 1))), height - 1)
        canvas[height - 1 - cy][cx] = "*"
    lines = ["1.0 +" + "".join(canvas[0])]
    for row in canvas[1:-1]:
        lines.append("    |" + "".join(row))
    lines.append("0.0 +" + "".join(canvas[-1]))
    lines.append("     " + "0" + "-" * (width - 2) + "1")
    lines.append(f"     {y_label} vs {x_label}")
    return "\n".join(lines)


def render_pr_curve(y_true: np.ndarray, scores: np.ndarray) -> str:
    """ASCII P-R curve with its area (the paper's A_prc)."""
    precision, recall, _ = pr_curve(y_true, scores)
    ap = average_precision(y_true, scores)
    plot = _ascii_plot(recall, precision, x_label="recall", y_label="precision")
    return f"P-R curve (A_prc = {ap:.4f})\n{plot}"
