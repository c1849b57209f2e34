"""repro — Explainable DRC hotspot prediction with RF and SHAP (DATE 2020).

A full from-scratch reproduction of Zeng, Davoodi & Topaloglu's DATE 2020
paper, including every substrate it depends on:

* :mod:`repro.layout`  — geometry, technology, netlist model, g-cell grid;
* :mod:`repro.bench`   — synthetic ISPD-2015-like benchmark suite;
* :mod:`repro.place`   — force-directed placement + legalisation;
* :mod:`repro.route`   — negotiated-congestion global router;
* :mod:`repro.drc`     — detailed-routing/DRC simulator (label mechanism);
* :mod:`repro.features`— the paper's 387 features;
* :mod:`repro.ml`      — RF, SVM-RBF, RUSBoost, MLPs, metrics, Tree SHAP;
* :mod:`repro.core`    — the paper's workflow: flow, Table II protocol,
  per-hotspot SHAP explanations;
* :mod:`repro.runtime` — fault-tolerant runtime: checkpoints, isolated
  units, validation guards, fault injection;
* :mod:`repro.analysis`— P-R curves, threshold sweeps, calibration, SHAP
  summaries, reports.

Quickstart::

    from repro.core import run_flow
    from repro.bench import DesignRecipe

    flow = run_flow(DesignRecipe(name="demo", grid_nx=16, grid_ny=16))
    print(flow.stats.format_row())
"""

__version__ = "1.0.0"

from . import analysis, bench, core, drc, features, layout, ml, place, route, runtime  # noqa: F401

__all__ = [
    "analysis",
    "bench",
    "core",
    "drc",
    "features",
    "layout",
    "ml",
    "place",
    "route",
    "runtime",
    "__version__",
]
