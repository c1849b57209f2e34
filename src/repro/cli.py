"""Command-line interface: ``drcshap <command>``.

Commands
--------

``suite``      Run the 14-design flow and print the Table I analogue.
``table2``     Run the leave-one-group-out model comparison (Table II).
``explain``    Train RF and explain the top predicted hotspots of a design
               (Fig. 3 + Fig. 4 analogues).
``report``     Full prediction report for one design (metrics, threshold
               sweep, P-R curve, top predicted hotspots).
``flow``       Run the flow on one ad-hoc design and print its statistics.
``features``   List the 387 canonical feature names.

``trace``      Inspect the run manifest written by ``--trace``: span tree,
               slowest spans, stage table, metric totals, failures.

The heavy commands keep each scale's suite in one checkpoint store (one
checkpoint per design, see :func:`repro.core.pipeline.build_suite_dataset`),
so the 14-design flow runs only once per scale and a warm run trains on
exactly the features a cold one computed.  They accept the resilience flags
``--resume/--no-resume``, ``--timeout`` and ``--fail-fast`` (see
:mod:`repro.runtime`), and ``-j/--jobs N`` to fan design flows and
(model, group) experiment units out across N worker processes (default 1 =
serial; results are bit-identical either way).  ``--no-resume`` ignores
checkpoints and recomputes every unit, except that a suite whose every
design checkpoint verifies is loaded.
Each unit runs once: a unit that raises or overruns ``--timeout`` is
recorded and skipped, and rerunning with ``--resume`` recomputes exactly
the failed units.

Every command also accepts the telemetry flag ``--trace PATH``: write the
run's one telemetry document, the manifest with its span tree (see
:func:`repro.runtime.telemetry.build_manifest`), to PATH itself.  Without
``--trace``, telemetry stays disabled and no file is ever created.

The heavy commands run under two-stage signal handling: the first
SIGTERM/SIGINT stops dispatching new units, drains and checkpoints what is
in flight, writes the ``--trace`` manifest, and exits with the resumable code
4 — rerunning with ``--resume`` (the default) continues exactly where the
run stopped.  A second signal hard-exits immediately.  Units run on worker
processes under ``--jobs N`` and under ``--timeout`` (one worker at the
default ``-j 1``): ``--timeout`` kills an overdue attempt together with its
worker, and a unit whose worker process dies (SIGKILL, OOM, segfault) is
re-dispatched once on a fresh worker; a second crash quarantines it (see
:mod:`repro.runtime.runner`).

Exit codes: 0 success, 1 runtime error, 2 usage error, 3 completed but
degraded (some units failed and were skipped; the failure log is printed
to stderr), 4 interrupted by a shutdown signal but resumable.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable

from .bench.generator import DesignRecipe
from .bench.suite import GROUPS, SUITE_ORDER, suite_recipes
from .core.evaluation import format_table2, summarize_shape
from .core.experiment import run_experiment
from .core.explain import explain_hotspots
from .core.models import ModelSpec, model_zoo
from .core.pipeline import (
    build_suite_dataset,
    default_cache_path,
    run_flow,
)
from .features.dataset import SuiteDataset
from .features.names import describe_feature, feature_names
from .layout.design_stats import DesignStats, format_table1, group_statistics
from .place.legalizer import LegalizationError
from .runtime import (
    FaultTolerantRunner,
    ReproRuntimeError,
    ShutdownRequested,
    blas,
    graceful_shutdown,
)
from .runtime.telemetry import (
    Tracer,
    activate,
    build_manifest,
    get_tracer,
    load_manifest,
    new_run_id,
    render_manifest,
    write_manifest,
)

#: Exit code when a run finished but some units failed and were skipped.
EXIT_DEGRADED = 3

#: Exit code when a shutdown signal interrupted the run after a clean flush:
#: checkpoints and the ``--trace`` manifest are valid, and ``--resume`` continues
#: exactly where the run stopped.
EXIT_INTERRUPTED = 4


def _number(
    kind: type, low: float, *, strict: bool = False, below: float | None = None
) -> Callable[[str], Any]:
    """argparse type: a ``kind`` number ``>= low``, or ``> low`` when ``strict``,
    and ``< below`` when ``below`` is given.

    NaN is rejected like any other value outside the bounds.
    """
    bounds = f"{'>' if strict else '>='} {low}"
    if below is not None:
        bounds += f" and < {below}"

    def parse(text: str) -> Any:
        try:
            value = kind(text)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise argparse.ArgumentTypeError(f"{text!r} is not {noun}") from None
        in_range = value > low if strict else value >= low
        if below is not None:
            in_range = in_range and value < below
        if not in_range:
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value

    return parse


_positive_int = _number(int, 1)  # worker counts, how many rows to list
_nonneg_int = _number(int, 0)  # macro counts, seeds
_positive_float = _number(float, 0, strict=True)  # scales, timeouts
_grid_size = _number(int, 2)  # a 1x1 g-cell die cannot hold the generator's 8 cells
_fraction = _number(float, 0, strict=True, below=1)  # utilisations


def _trace_path(text: str) -> Path:
    """argparse type: a trace destination that is not a directory, and whose
    parent dir exists and is writable."""
    path = Path(text)
    if path.is_dir():
        raise argparse.ArgumentTypeError(f"trace path {path} is a directory")
    parent = path.parent
    if not parent.is_dir():
        raise argparse.ArgumentTypeError(f"trace directory {parent} does not exist")
    if not os.access(parent, os.W_OK):
        raise argparse.ArgumentTypeError(f"trace directory {parent} is not writable")
    return path


def _add_telemetry_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", type=_trace_path, default=None, metavar="PATH",
                   help="write the run manifest (span tree, stage table, "
                        "metrics, failures) to PATH")


def _add_resilience_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("-j", "--jobs", type=_positive_int, default=1, metavar="N",
                   help="worker processes for design flows and experiment "
                        "units (default 1 = serial; same results either way)")
    p.add_argument("--no-resume", dest="resume", action="store_false",
                   help="ignore existing checkpoints; recompute every unit "
                        "(a suite whose every design checkpoint verifies is "
                        "still loaded)")
    p.add_argument("--timeout", type=_positive_float, default=None, metavar="SEC",
                   help="wall-clock budget per unit; every attempt "
                        "then runs on a worker process that is killed at the "
                        "budget (default none)")
    p.add_argument("--fail-fast", action="store_true",
                   help="abort on the first failed unit instead "
                        "of recording + skipping it")


def _runner_from_args(args: argparse.Namespace) -> FaultTolerantRunner:
    return FaultTolerantRunner(
        fail_fast=args.fail_fast, verbose=True, jobs=args.jobs, timeout_s=args.timeout,
    )


def _report_failures(runner: FaultTolerantRunner) -> int:
    """Print the failure log to stderr; exit degraded if anything failed."""
    if runner.failures:
        print(f"\nwarning: degraded run — {runner.failures.summary()}",
              file=sys.stderr)
        return EXIT_DEGRADED
    return 0


def _load_suite(
    args: argparse.Namespace, runner: FaultTolerantRunner, verbose: bool = False
) -> tuple[SuiteDataset, list[DesignStats]]:
    """The suite at ``--scale``, built or resumed in its default store."""
    return build_suite_dataset(
        args.scale, cache_path=default_cache_path(args.scale), verbose=verbose,
        runner=runner, resume=args.resume,
    )


def _suite(args: argparse.Namespace) -> int:
    runner = _runner_from_args(args)
    suite, stats = _load_suite(args, runner, verbose=True)
    by_name = {s.name: s for s in stats}
    rows = []
    for group_name, members in GROUPS.items():
        member_stats = [by_name[m] for m in members if m in by_name]
        rows.append((group_statistics(group_name, member_stats), member_stats))
    print(format_table1(rows))
    print(f"\nTotal samples: {suite.num_samples}")
    return _report_failures(runner)


def _table2(args: argparse.Namespace) -> int:
    models = model_zoo(args.preset)
    if args.models is not None:
        # checked before the suite is built or loaded: that is the slow part
        wanted = args.models.split(",")
        known = [m.name for m in models]
        unknown = [name for name in wanted if name not in known]
        if unknown:
            print(f"error: --models: unknown model(s) {', '.join(map(repr, unknown))}; "
                  f"choose from {', '.join(known)}", file=sys.stderr)
            return 2
        models = [m for m in models if m.name in wanted]
    runner = _runner_from_args(args)
    suite, _ = _load_suite(args, runner)
    ckpt = default_cache_path(args.scale).with_suffix(f".table2-{args.preset}.ckpt")
    result = run_experiment(
        suite, models, tune=True, verbose=True,
        runner=runner, checkpoint_dir=ckpt, resume=args.resume,
    )
    print()
    print(format_table2(result))
    print(_blas_footnote(models, args.jobs))
    print()
    for k, v in summarize_shape(result).items():
        print(f"{k}: {v}")
    return _report_failures(runner)


def _blas_footnote(models: list[ModelSpec], jobs: int) -> str:
    """One line saying how many OpenBLAS threads each model's CPU rows count.

    Built from each spec's budget and this process's count; ``--jobs N``
    workers are pinned to one thread, so there every model ran on one.
    """
    run = 1 if jobs > 1 else max(blas.thread_counts().values(), default=None)
    if run is None:
        return "CPU rows: no OpenBLAS loaded, BLAS thread counts unknown"
    by_count: dict[int, list[str]] = {}
    for spec in models:
        n = run if spec.blas_threads is None else min(spec.blas_threads, run)
        by_count.setdefault(n, []).append(spec.name)
    return "CPU rows count OpenBLAS threads: " + "; ".join(
        f"{n} for {', '.join(names)}" for n, names in sorted(by_count.items())
    )


def _explain(args: argparse.Namespace) -> int:
    runner = _runner_from_args(args)
    suite, _ = _load_suite(args, runner)
    if args.design not in suite.names:  # its flow failed and was skipped
        return _report_failures(runner) or 1
    # the flow of the very recipe the (scaled) suite was built from
    recipe = next(r for r in suite_recipes(args.scale) if r.name == args.design)
    outcome = runner.run_unit("explain", args.design, run_flow, recipe)
    if not outcome.ok:
        return _report_failures(runner) or 1
    reports = explain_hotspots(
        suite, outcome.value, num_hotspots=args.num, preset=args.preset,
        n_jobs=args.jobs,
    )
    for report in reports:
        print(report.render())
        print()
    return _report_failures(runner)


def _report(args: argparse.Namespace) -> int:
    from .analysis import design_report
    from .core.explain import train_explanation_forest

    runner = _runner_from_args(args)
    suite, _ = _load_suite(args, runner)
    if args.design not in suite.names:  # its flow failed and was skipped
        return _report_failures(runner) or 1
    dataset = suite.by_name(args.design)
    outcome = runner.run_unit(
        "report", args.design, train_explanation_forest,
        suite, args.design, preset=args.preset, n_jobs=args.jobs,
    )
    if not outcome.ok:
        return _report_failures(runner) or 1
    scores = outcome.value.predict_proba(dataset.X)[:, 1]
    print(design_report(dataset, scores, top_k=args.top))
    return _report_failures(runner)


def _flow(args: argparse.Namespace) -> int:
    recipe = DesignRecipe(
        name=args.name,
        grid_nx=args.grid,
        grid_ny=args.grid,
        utilization=args.utilization,
        num_macros=args.macros,
        macro_area_frac=0.08 if args.macros else 0.0,
        seed=args.seed,
    )
    # the stage times printed below are the flow span's children, so trace
    # the flow even without --trace (and hand the spans on to a --trace run)
    try:
        with activate(Tracer()) as local:
            result = run_flow(recipe)
    except LegalizationError as exc:
        # whether a utilisation fits depends on the whole design, so it
        # cannot be checked with the other arguments
        print(f"error: LegalizationError: {exc}", file=sys.stderr)
        return 1
    get_tracer().adopt(local.snapshot())
    from .route.report import routing_report

    print(result.stats.format_row())
    print()
    print(routing_report(result.routing, recipe.name))
    print()
    print(f"violations : {result.drc_report.num_violations} "
          f"({result.stats.num_hotspots} hotspot g-cells)")
    for stage in local.roots[0].children:
        print(f"  {stage.name:<12s} {stage.wall_s:6.2f} s")
    return 0


def _features(args: argparse.Namespace) -> int:
    for name in feature_names():
        if args.verbose:
            print(f"{name:<16s} {describe_feature(name)}")
        else:
            print(name)
    return 0


def _trace_cmd(args: argparse.Namespace) -> int:
    """Inspect the run manifest written by ``--trace``."""
    try:
        manifest = load_manifest(args.path)
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(render_manifest(manifest, args.top))
    return 0


def _write_telemetry(tracer: Tracer, args: argparse.Namespace,
                     argv: list[str]) -> None:
    """Persist the run manifest to ``--trace PATH``."""
    config = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in sorted(vars(args).items())
        if k != "func"
    }
    manifest = build_manifest(tracer, args.command, argv, config)
    print(f"telemetry: manifest {write_manifest(manifest, args.trace)}",
          file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="drcshap",
        description="Explainable DRC hotspot prediction (DATE 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("suite", help="run the 14-design flow; print Table I")
    p.add_argument("--scale", type=_positive_float, default=1.0)
    _add_resilience_flags(p)
    _add_telemetry_flags(p)
    p.set_defaults(func=_suite)

    p = sub.add_parser("table2", help="model comparison (Table II)")
    p.add_argument("--scale", type=_positive_float, default=1.0)
    p.add_argument("--preset", choices=("fast", "full"), default="fast")
    p.add_argument("--models", help="comma-separated subset, e.g. RF,SVM-RBF")
    _add_resilience_flags(p)
    _add_telemetry_flags(p)
    p.set_defaults(func=_table2)

    p = sub.add_parser("explain", help="explain hotspots of one design")
    p.add_argument("design", choices=SUITE_ORDER, metavar="design",
                   help="suite design name, e.g. des_perf_1")
    p.add_argument("--num", type=_positive_int, default=3)
    p.add_argument("--scale", type=_positive_float, default=1.0)
    p.add_argument("--preset", choices=("fast", "full"), default="fast")
    _add_resilience_flags(p)
    _add_telemetry_flags(p)
    p.set_defaults(func=_explain)

    p = sub.add_parser("report", help="full prediction report for one design")
    p.add_argument("design", choices=SUITE_ORDER, metavar="design",
                   help="suite design name, e.g. mult_b")
    p.add_argument("--top", type=_positive_int, default=10)
    p.add_argument("--scale", type=_positive_float, default=1.0)
    p.add_argument("--preset", choices=("fast", "full"), default="fast")
    _add_resilience_flags(p)
    _add_telemetry_flags(p)
    p.set_defaults(func=_report)

    p = sub.add_parser("flow", help="run the flow on one ad-hoc design")
    p.add_argument("--name", default="adhoc")
    p.add_argument("--grid", type=_grid_size, default=20)
    p.add_argument("--utilization", type=_fraction, default=0.65)
    p.add_argument("--macros", type=_nonneg_int, default=0)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    _add_telemetry_flags(p)
    p.set_defaults(func=_flow)

    p = sub.add_parser("features", help="list the 387 feature names")
    p.add_argument("-v", "--verbose", action="store_true")
    _add_telemetry_flags(p)
    p.set_defaults(func=_features)

    p = sub.add_parser("trace", help="inspect a run manifest written by --trace")
    p.add_argument("path", help="run manifest .json file")
    p.add_argument("--top", type=_positive_int, default=5, metavar="N",
                   help="how many slowest spans to list (default 5)")
    p.set_defaults(func=_trace_cmd)

    args = parser.parse_args(argv)
    # two-stage SIGTERM/SIGINT handling guards every resumable command:
    # first signal drains + flushes (exit 4, --resume continues), second
    # hard-exits.  Commands without resilience flags finish too fast to need
    # it, and `trace` is read-only.
    supervised = hasattr(args, "resume")
    trace = getattr(args, "trace", None)  # `trace` itself has no --trace
    tracer = Tracer(enabled=trace is not None,
                    run_id=new_run_id() if trace is not None else "")
    try:
        with activate(tracer), tracer.span(args.command):
            with graceful_shutdown() if supervised else nullcontext():
                code = args.func(args)
    except ShutdownRequested as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        code = EXIT_INTERRUPTED
    except ReproRuntimeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 1
    # With --trace the manifest is written for success, degraded, interrupted
    # and error exits alike — a KeyboardInterrupt outside the supervised block
    # propagates before reaching here by design.
    if trace is not None:
        argv_list = list(argv) if argv is not None else sys.argv[1:]
        _write_telemetry(tracer, args, argv_list)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
