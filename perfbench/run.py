"""Run one benchmark workload on the real pipeline and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table2 --seed 0 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the
separate traced run and prints the per-layer metrics.  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The whole
result, with the environment descriptor and the spans of a traced run, is
also written to ``.perfbench/results/`` in the checkout.

``--record-reference`` (seed 0 only) stores the run's outputs as the
workload's reference in ``perfbench/reference.json``; later runs at seed 0
compare against it.  Record ``table2``'s with ``--trace 1``: only its
traced run has the explain stage, whose SHAP rows the reference holds.
"""

from __future__ import annotations

import time

_START = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("suite-j2", "table2")


def _git_commit(root: Path) -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    """What shapes the numbers: CPUs, BLAS and its threads, versions, commit."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},        "blas": blas,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_context().get_start_method(),
        "machine": platform.machine(),
        "git_commit": _git_commit(ROOT),
    }


def _load_reference(workload: str, signature: dict) -> dict | None:
    if not REFERENCE.is_file():
        return None
    entry = json.loads(REFERENCE.read_text()).get(workload)
    if entry is None or entry.get("config") != signature:
        return None
    return entry["outputs"]


def _record_reference(workload: str, signature: dict, outputs: dict) -> None:
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    doc[workload] = {"config": signature, "outputs": outputs}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def run(workload: str, cfg, trace: bool, record: bool = False) -> dict:
    """Set up and measure one workload; returns the full result document."""
    import workloads as wl

    spec = wl.WORKLOADS[workload]
    reference = None
    if (cfg.seed == 0 or not spec.seeded) and not record:
        reference = _load_reference(workload, cfg.signature(workload))

    scratch = ROOT / ".perfbench" / "work"
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        state = spec.setup(cfg)
        setup_s = time.perf_counter() - _START
        if spec.startup_only and not trace:
            setup_s = statistics.median(wl.startup_s() for _ in range(wl.STARTUP_SAMPLES))
        out = spec.measure(cfg, state, workdir, trace, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if record:
        _record_reference(workload, cfg.signature(workload), out.outputs)
    if trace:
        metrics = {name: {"value": float(out.layers.get(name, 0.0)), "unit": unit}
                   for name, unit in wl.PER_LAYER.items()}
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(out.wall_s),
            "cpu_s": statistics.median(out.cpu_s),
            "peak_rss_mb": wl.peak_rss_mb(),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in wl.END_TO_END.items()}
    figures = {"fail_rate": out.failed / max(out.attempted, 1),
               "passes": len(out.wall_s)}
    return {
        "workload": workload,
        "seed": cfg.seed,
        "trace": trace,
        "reference_checked": reference is not None,
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
        "figures": figures,
        "problems": out.problems,
        "wall_s_per_pass": out.wall_s,
        "cpu_s_per_pass": out.cpu_s,
        "environment": environment(),
        "spans": out.spans,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this seed-0 run's outputs as the reference")
    args = parser.parse_args(argv)
    if args.record_reference and args.seed != 0:
        parser.error("--record-reference needs --seed 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads as wl

    cfg = wl.Config(seconds=args.seconds, seed=args.seed)
    result = run(args.workload, cfg, bool(args.trace), args.record_reference)

    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))
    for problem in result["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {result['figures']['passes']}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for name, value in result["figures"].items():
        print(f"  {name:<36s} {value:.6g}")
    for name, m in result["metrics"].items():
        print(f"  {name:<36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
