"""Benchmark smoke run: timing snapshot written to ``BENCH_timing.json``.

Times the three perf-critical paths introduced with the parallel runtime —
suite build (serial vs. ``--jobs``), experiment grid (serial vs. parallel),
and Tree SHAP (one 1000-row batch vs. a loop of one-row calls) — at a small
scale so CI can track the perf trajectory on every push::

    PYTHONPATH=src python benchmarks/smoke.py --scale 0.5 --jobs 4 --check

A second document, ``BENCH_train.json``, micro-benchmarks the histogram
training engine itself: the same sampled-feature (``max_features="sqrt"``)
bootstrap forest is grown twice from one shared
:class:`~repro.ml.binning.BinnedDataset` — as per-tree single fits (a
lock-step batch of one each), then as one lock-step forest fit — and
prediction compares the stacked
:class:`~repro.ml.forest.ForestArrays` kernel against the per-tree
traversal loop it replaced.  The histogram build and split-kernel call
counts in that document are read from the ``ml.hist.*`` telemetry
counters, i.e. the same numbers the run manifest aggregates.

The whole run executes under an active :class:`repro.runtime.Tracer`: every
timed section is a span (``bench/suite_build/serial`` etc.), the numbers in
``BENCH_timing.json`` are *derived* from span wall times, and the full
telemetry — including the flow/router spans collected inside the suite
builds — is aggregated into ``run_manifest.json`` next to the timing file.
``benchmarks/diff_manifest.py`` cross-checks the two documents in CI.

``--check`` additionally asserts the acceptance floors: batched SHAP keeps
local accuracy within 1e-9 on all 1000 rows (always), and parallel >= 2x
serial for suite+experiment (only on machines with >= 4 CPUs — a 1-core
runner cannot speed anything up, but the numbers are still recorded).  The
one-row SHAP loop is timed on a subset and extrapolated linearly (the loop
is exactly linear in n); both raw timings and both group-pass counts are
recorded.  The batch-versus-loop group-pass floor and the local-accuracy
check also run in tier-1 (``tests/test_shap.py::TestBatchedPasses``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.core.experiment import run_experiment
from repro.core.models import model_zoo
from repro.core.pipeline import build_suite_dataset, checkpoint_dir_for
from repro.ml.binning import BinnedDataset
from repro.ml.forest import ForestArrays, RandomForestClassifier
from repro.ml.shap.tree_explainer import TreeShapExplainer
from repro.ml.tree import DecisionTreeClassifier
from repro.runtime import CheckpointStore, FaultTolerantRunner, ParallelRunner
from repro.runtime.telemetry import (
    Tracer,
    activate,
    build_manifest,
    get_tracer,
    new_run_id,
    write_manifest,
    write_trace,
)


def _bench_suite(scale: float, jobs: int, tmp: Path) -> dict:
    tracer = get_tracer()
    serial_npz = tmp / "serial.npz"
    parallel_npz = tmp / "parallel.npz"
    with tracer.span("suite_build"):
        with tracer.span("serial") as serial_span:
            suite, _ = build_suite_dataset(
                scale, cache_path=serial_npz,
                runner=FaultTolerantRunner(fail_fast=True),
            )
        with tracer.span("parallel", jobs=jobs) as parallel_span:
            build_suite_dataset(
                scale, cache_path=parallel_npz,
                runner=ParallelRunner(jobs, fail_fast=True),
            )

    identical = (CheckpointStore(checkpoint_dir_for(serial_npz)).file_digests()
                 == CheckpointStore(checkpoint_dir_for(parallel_npz)).file_digests())
    return {
        "serial_s": round(serial_span.wall_s, 3),
        "parallel_s": round(parallel_span.wall_s, 3),
        "speedup": round(serial_span.wall_s / parallel_span.wall_s, 2),
        "store_byte_identical": identical,
        "_suite": suite,
    }


def _bench_experiment(suite, jobs: int) -> dict:
    tracer = get_tracer()
    models = [m for m in model_zoo("fast") if m.name in ("RUSBoost", "NN-1", "RF")]
    with tracer.span("experiment"):
        with tracer.span("serial") as serial_span:
            run_experiment(suite, models, tune=False,
                           runner=FaultTolerantRunner(fail_fast=True))
        with tracer.span("parallel", jobs=jobs) as parallel_span:
            run_experiment(suite, models, tune=False,
                           runner=ParallelRunner(jobs, fail_fast=True))
    return {
        "serial_s": round(serial_span.wall_s, 3),
        "parallel_s": round(parallel_span.wall_s, 3),
        "speedup": round(serial_span.wall_s / parallel_span.wall_s, 2),
    }


def _bench_shap(batch_size: int = 1000, ref_samples: int = 200) -> dict:
    tracer = get_tracer()
    rng = np.random.default_rng(0)
    X = rng.normal(size=(1500, 40))
    y = (X[:, 0] + X[:, 3] * X[:, 5] - X[:, 7] > 0).astype(np.int8)
    rf = RandomForestClassifier(n_estimators=20, max_depth=8, random_state=0)
    rf.fit(X, y)
    explainer = TreeShapExplainer(rf.trees, X.shape[1])
    batch = X[:batch_size]

    with tracer.span("tree_shap"):
        passes0 = tracer.counters.get("shap.chunks", 0)
        with tracer.span("batched", batch_size=batch_size) as batched_span:
            phi_batch = explainer.shap_values(batch)
        passes1 = tracer.counters.get("shap.chunks", 0)
        ref = batch[:ref_samples]
        with tracer.span("single_ref", samples=ref_samples) as single_span:
            for x in ref:
                explainer.shap_values_single(x)
        passes2 = tracer.counters.get("shap.chunks", 0)

    batched_s = batched_span.wall_s
    ref_s = single_span.wall_s
    single_s_extrapolated = ref_s / ref_samples * batch_size
    fx = rf.predict_proba(batch)[:, 1]

    return {
        "batch_size": batch_size,
        "batched_s": round(batched_s, 3),
        "batched_group_passes": int(passes1 - passes0),
        "single_ref_samples": ref_samples,
        "single_ref_s": round(ref_s, 3),
        "single_ref_group_passes": int(passes2 - passes1),
        "single_s_extrapolated": round(single_s_extrapolated, 3),
        "speedup": round(single_s_extrapolated / batched_s, 1),
        "local_accuracy_max_err": float(
            np.abs(explainer.expected_value + phi_batch.sum(axis=1) - fx).max()
        ),
    }


_HIST_COUNTERS = ("ml.hist.builds", "ml.hist.batches", "ml.hist.scan_cells",
                  "ml.tree.nodes")


def _bench_train(
    n_rows: int = 4000,
    n_features: int = 40,
    n_trees: int = 30,
    n_predict: int = 1000,
) -> dict:
    """Histogram engine micro-benchmark: the BENCH_train.json payload.

    Both fits grow *bit-identical* trees (the same pre-spawned per-tree
    generators draw the same bootstraps and feature subsets over the same
    shared BinnedDataset), so the wall-time gap is purely how the trees are
    batched; the build and kernel-call counts that prove it are deltas of
    the ``ml.hist.*`` tracer counters.
    """
    tracer = get_tracer()
    rng = np.random.default_rng(4)
    X = rng.normal(size=(n_rows, n_features))
    y = (X[:, 0] + X[:, 3] * X[:, 5] - X[:, 7] > 0).astype(np.int8)
    Xte = rng.normal(size=(n_predict, n_features))
    dataset = BinnedDataset.from_matrix(X)

    def fit_single() -> list:
        trees = []
        for r in np.random.default_rng(0).spawn(n_trees):
            w = r.multinomial(n_rows, np.full(n_rows, 1.0 / n_rows)).astype(np.float64)
            tree = DecisionTreeClassifier(random_state=r, max_features="sqrt")
            tree.fit(None, y, sample_weight=w, binned=dataset)
            trees.append(tree.tree_)
        return trees

    def counters() -> dict[str, float]:
        return {k: tracer.counters.get(k, 0) for k in _HIST_COUNTERS}

    with tracer.span("train_predict"):
        c0 = counters()
        with tracer.span("fit_single", n_trees=n_trees) as single_span:
            single = fit_single()
        c1 = counters()
        with tracer.span("fit_lockstep", n_trees=n_trees) as lockstep_span:
            forest = RandomForestClassifier(
                n_estimators=n_trees, max_features="sqrt", random_state=0
            ).fit(None, y, binned=dataset)
        c2 = counters()

        identical = len(single) == len(forest.trees) and all(
            np.array_equal(a.children_left, b.children_left)
            and np.array_equal(a.children_right, b.children_right)
            and np.array_equal(a.feature, b.feature)
            and np.array_equal(a.threshold, b.threshold, equal_nan=True)
            and np.array_equal(a.cover, b.cover)
            and np.array_equal(a.value, b.value)
            for a, b in zip(single, forest.trees)
        )

        stacked = ForestArrays.from_trees(forest.trees)
        with tracer.span("predict_stacked", rows=n_predict) as stacked_span:
            p_stacked = stacked.predict_proba_positive(Xte)
        with tracer.span("predict_loop", rows=n_predict) as loop_span:
            p_loop = np.mean(
                [t.predict_proba_positive(Xte) for t in forest.trees], axis=0
            )

    def delta(name: str, a: dict, b: dict) -> int:
        return int(b[name] - a[name])

    return {
        "n_rows": n_rows,
        "n_features": n_features,
        "n_trees": n_trees,
        "fit_single_s": round(single_span.wall_s, 3),
        "fit_lockstep_s": round(lockstep_span.wall_s, 3),
        "fit_speedup": round(single_span.wall_s / lockstep_span.wall_s, 2),
        "hist_builds_single": delta("ml.hist.builds", c0, c1),
        "hist_builds_lockstep": delta("ml.hist.builds", c1, c2),
        "kernel_calls_single": delta("ml.hist.batches", c0, c1),
        "kernel_calls_lockstep": delta("ml.hist.batches", c1, c2),
        "scan_cells": delta("ml.hist.scan_cells", c1, c2),
        "tree_nodes": delta("ml.tree.nodes", c1, c2),
        "trees_bit_identical": identical,
        "predict_rows": n_predict,
        "predict_stacked_s": round(stacked_span.wall_s, 3),
        "predict_loop_s": round(loop_span.wall_s, 3),
        "predict_speedup": round(loop_span.wall_s / stacked_span.wall_s, 2),
        "predict_max_abs_diff": float(np.abs(p_stacked - p_loop).max()),
    }


#: BENCH_timing.json keys and the manifest stage path each one is derived from.
STAGE_MAP = {
    ("suite_build", "serial_s"): "bench/suite_build/serial",
    ("suite_build", "parallel_s"): "bench/suite_build/parallel",
    ("experiment", "serial_s"): "bench/experiment/serial",
    ("experiment", "parallel_s"): "bench/experiment/parallel",
    ("tree_shap", "batched_s"): "bench/tree_shap/batched",
    ("tree_shap", "single_ref_s"): "bench/tree_shap/single_ref",
}

#: BENCH_train.json keys and the manifest stage path each one is derived from.
TRAIN_STAGE_MAP = {
    ("train", "fit_single_s"): "bench/train_predict/fit_single",
    ("train", "fit_lockstep_s"): "bench/train_predict/fit_lockstep",
    ("train", "predict_stacked_s"): "bench/train_predict/predict_stacked",
    ("train", "predict_loop_s"): "bench/train_predict/predict_loop",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("-j", "--jobs", type=int, default=4)
    parser.add_argument("--out", type=Path, default=Path("BENCH_timing.json"))
    parser.add_argument("--train-out", type=Path, default=Path("BENCH_train.json"),
                        help="training-engine micro-benchmark destination")
    parser.add_argument("--manifest", type=Path, default=Path("run_manifest.json"),
                        help="aggregated telemetry manifest destination")
    parser.add_argument("--trace", type=Path, default=None,
                        help="also write the full JSONL span trace here")
    parser.add_argument("--check", action="store_true",
                        help="assert the acceptance speedup floors")
    args = parser.parse_args(argv)

    cpus = os.cpu_count() or 1
    doc: dict = {
        "scale": args.scale,
        "jobs": args.jobs,
        "cpu_count": cpus,
        "python": sys.version.split()[0],
    }

    tracer = Tracer(enabled=True, run_id=new_run_id())
    with activate(tracer), tracer.span("bench", scale=args.scale, jobs=args.jobs):
        with tempfile.TemporaryDirectory() as td:
            suite_res = _bench_suite(args.scale, args.jobs, Path(td))
        suite = suite_res.pop("_suite")
        doc["suite_build"] = suite_res
        print(f"suite build   : {suite_res}", flush=True)

        doc["experiment"] = _bench_experiment(suite, args.jobs)
        print(f"experiment    : {doc['experiment']}", flush=True)

        doc["tree_shap"] = _bench_shap()
        print(f"tree shap     : {doc['tree_shap']}", flush=True)

        train_doc = {"train": _bench_train()}
        print(f"train engine  : {train_doc['train']}", flush=True)

    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")
    args.train_out.write_text(json.dumps(train_doc, indent=2) + "\n")
    print(f"wrote {args.train_out}")

    manifest = build_manifest(
        tracer, command="bench-smoke", argv=list(argv or sys.argv[1:]),
        config={"scale": args.scale, "jobs": args.jobs, "cpu_count": cpus},
    )
    write_manifest(manifest, args.manifest)
    print(f"wrote {args.manifest}")
    if args.trace is not None:
        write_trace(tracer, args.trace, command="bench-smoke")
        print(f"wrote {args.trace}")

    if args.check:
        assert doc["suite_build"]["store_byte_identical"], "parallel suite store differs"
        shap = doc["tree_shap"]
        assert shap["local_accuracy_max_err"] <= 1e-9, "batched SHAP lost local accuracy"
        if cpus >= 4:
            for key in ("suite_build", "experiment"):
                speedup = doc[key]["speedup"]
                assert speedup >= 2.0, f"{key} speedup {speedup} < 2x"
        else:
            print(f"note: {cpus} CPU(s) — parallel speedup floors not asserted")
        train = train_doc["train"]
        assert train["trees_bit_identical"], "lock-step growth changed the trees"
        assert train["kernel_calls_lockstep"] > 0, "lock-step path never taken"
        assert train["hist_builds_lockstep"] == train["hist_builds_single"], (
            "lock-step growth built a different set of node histograms"
        )
        assert train["kernel_calls_lockstep"] < train["kernel_calls_single"], (
            "lock-step growth did not reduce split-kernel calls"
        )
        assert train["predict_max_abs_diff"] <= 1e-12, "stacked predict drifted"
        # BENCH values are a derived view of the span tree: re-derive them
        # from the manifest stage table and demand agreement.
        stages = {row["path"]: row for row in manifest["stages"]}
        for doc_view, stage_map in ((doc, STAGE_MAP), (train_doc, TRAIN_STAGE_MAP)):
            for (section, key), path in stage_map.items():
                bench_v = doc_view[section][key]
                stage_v = stages[path]["wall_s"]
                assert abs(bench_v - stage_v) <= 2e-3, (
                    f"{section}.{key}={bench_v} != stage {path} wall_s={stage_v}"
                )
        # the manifest's global counters cover at least the bench's own fits
        for name, local in (
            ("ml.hist.builds",
             train["hist_builds_single"] + train["hist_builds_lockstep"]),
            ("ml.hist.batches",
             train["kernel_calls_single"] + train["kernel_calls_lockstep"]),
        ):
            total = manifest["counters"].get(name, 0)
            assert total >= local, f"manifest counter {name} lost bench fits"
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
