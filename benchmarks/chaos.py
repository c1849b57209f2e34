"""Chaos run: the crash-safety matrix exercised end to end, with artifacts.

Runs the suite builder under injected worker faults and asserts the
supervision layer's acceptance bar on a real workload::

    PYTHONPATH=src python benchmarks/chaos.py --scale 0.3 --jobs 2 --check

Three phases, one shared tracer:

1. **kill + hang recovery** — one design's flow SIGKILLs its worker once
   and another hangs past the heartbeat once; both must be re-dispatched on
   a respawned pool and the suite must complete with *zero* failures.
2. **quarantine + resume** — a poison design SIGKILLs its worker on every
   attempt; the run must degrade to a structured ``worker_crash`` failure
   (never abort), leave a checkpoint for every design but the poison one,
   and a fault-free resume must complete from the surviving checkpoints.
   The resumed suite store must be byte-identical to phase 1's — same
   scale, so same bytes.
3. **orphan sweep** — a stale atomic-write temp file planted in the store
   root before the resume must be gone afterwards and counted on
   ``runtime.cache.orphans_swept``.

Artifacts (uploaded by the CI ``chaos`` job): ``CHAOS_report.json`` (what
happened, per phase), ``CHAOS_failures.json`` (the structured failure log
from the quarantine phase), and ``run_manifest.json`` (the run's telemetry:
the span tree with one span per phase, plus the crash/respawn/quarantine
counters, which the parallel runner zero-registers).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.bench.suite import SUITE_ORDER
from repro.core.pipeline import build_suite_dataset, checkpoint_dir_for
from repro.runtime import CheckpointStore, FaultTolerantRunner, RetryPolicy
from repro.runtime.faults import FaultSpec, inject_faults
from repro.runtime.telemetry import (
    Tracer,
    activate,
    build_manifest,
    get_tracer,
    new_run_id,
    write_manifest,
)

#: The designs the fault schedule targets (must exist at every scale).
KILL_TARGET = "mult_1"
HANG_TARGET = "fft_a"


def _runner(jobs: int, heartbeat_s: float) -> FaultTolerantRunner:
    return FaultTolerantRunner(
        policy=RetryPolicy(max_retries=1, backoff_base_s=0.1),
        jobs=jobs,
        max_pool_respawns=10,
        quarantine_threshold=2,
        heartbeat_s=heartbeat_s,
        respawn_backoff_s=0.1,
    )


def _assert_complete(store: CheckpointStore, why: str) -> None:
    bad = [n for n in SUITE_ORDER if not store.verify(f"{n}.npz")]
    assert not bad, f"{why}: checkpoints missing or unsound: {bad}"


def _phase_recovery(scale: float, jobs: int, heartbeat_s: float, tmp: Path) -> dict:
    """One kill and one hang, each fired once: the run must self-heal."""
    tracer = get_tracer()
    cache = tmp / "recovered.npz"
    runner = _runner(jobs, heartbeat_s)
    with tracer.span("chaos_recovery"):
        with inject_faults(
            FaultSpec(stage=f"flow/{KILL_TARGET}", kind="kill", times=1, delay_s=0.3),
            FaultSpec(
                stage=f"flow/{HANG_TARGET}", kind="hang", times=1,
                delay_s=heartbeat_s * 100,
            ),
        ) as plan:
            suite, _ = build_suite_dataset(scale, cache_path=cache, runner=runner)
    assert not runner.failures, (
        f"single kill/hang must be recovered, got {runner.failures.records}"
    )
    store = CheckpointStore(checkpoint_dir_for(cache))
    _assert_complete(store, "recovered suite")
    fired = sorted(kind for _stage, kind in plan.triggered)
    assert fired == ["hang", "kill"], f"fault schedule misfired: {plan.triggered}"
    return {
        "designs": len(suite.names),
        "faults_fired": plan.triggered,
        "failures": 0,
        "store_digests": store.file_digests(),
    }


def _phase_quarantine_resume(
    scale: float, jobs: int, heartbeat_s: float, tmp: Path
) -> tuple[dict, list[dict]]:
    """A poison design: degrade + quarantine, then resume to completion."""
    tracer = get_tracer()
    cache = tmp / "quarantined.npz"
    runner = _runner(jobs, heartbeat_s)
    with tracer.span("chaos_quarantine"):
        with inject_faults(
            FaultSpec(stage=f"flow/{KILL_TARGET}", kind="kill", times=99, delay_s=0.3),
        ):
            suite, _ = build_suite_dataset(scale, cache_path=cache, runner=runner)
    records = [rec.to_dict() for rec in runner.failures.records]
    assert runner.failures.units() == [f"flow/{KILL_TARGET}"], (
        f"exactly the poison design must fail, got {records}"
    )
    assert records[0]["kind"] == "worker_crash", records[0]
    assert KILL_TARGET not in suite.names
    store = CheckpointStore(checkpoint_dir_for(cache))
    survivors = sorted(f"{n}.npz" for n in SUITE_ORDER if n != KILL_TARGET)
    assert list(store.keys()) == survivors, (
        f"degraded suite must checkpoint every design but {KILL_TARGET}"
    )

    # plant a stale atomic-write orphan: the resume's startup sweep eats it
    orphan = store.root / f".{KILL_TARGET}.npz.tmp-chaos-orphan"
    orphan.write_bytes(b"torn write")
    two_hours_ago = time.time() - 7200
    os.utime(orphan, (two_hours_ago, two_hours_ago))

    with tracer.span("chaos_resume"):
        build_suite_dataset(
            scale, cache_path=cache, runner=FaultTolerantRunner(fail_fast=True)
        )
    _assert_complete(store, "resume")
    assert not orphan.exists(), "startup sweep must remove the stale temp"
    assert not list(store.root.glob(".*.tmp*")), "no temp residue after resume"
    return (
        {
            "quarantined": KILL_TARGET,
            "failure_kind": records[0]["kind"],
            "orphan_swept": True,
            "resumed_store_digests": store.file_digests(),
        },
        records,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("-j", "--jobs", type=int, default=2)
    parser.add_argument("--heartbeat", type=float, default=30.0,
                        help="hang-detection deadline; must exceed the "
                             "longest honest flow at --scale")
    parser.add_argument("--workdir", type=Path, default=Path("chaos-work"),
                        help="scratch directory for the suite stores")
    parser.add_argument("--out", type=Path, default=Path("CHAOS_report.json"))
    parser.add_argument("--failures-out", type=Path,
                        default=Path("CHAOS_failures.json"))
    parser.add_argument("--manifest", type=Path, default=Path("run_manifest.json"))
    parser.add_argument("--check", action="store_true",
                        help="assert the crash-safety acceptance bar")
    args = parser.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    doc: dict = {
        "scale": args.scale,
        "jobs": args.jobs,
        "heartbeat_s": args.heartbeat,
        "python": sys.version.split()[0],
    }

    tracer = Tracer(enabled=True, run_id=new_run_id())
    with activate(tracer), tracer.span("chaos", scale=args.scale, jobs=args.jobs):
        doc["recovery"] = _phase_recovery(
            args.scale, args.jobs, args.heartbeat, args.workdir
        )
        print(f"recovery   : {doc['recovery']}", flush=True)

        doc["quarantine_resume"], failures = _phase_quarantine_resume(
            args.scale, args.jobs, args.heartbeat, args.workdir
        )
        print(f"quarantine : {doc['quarantine_resume']}", flush=True)

    doc["byte_identical_after_resume"] = (
        doc["recovery"]["store_digests"]
        == doc["quarantine_resume"]["resumed_store_digests"]
    )
    doc["counters"] = {
        k: tracer.counters.get(k, 0)
        for k in (
            "runner.worker_crashes",
            "runner.pool_respawns",
            "runner.quarantined",
            "runner.signal_shutdowns",
            "runtime.cache.orphans_swept",
        )
    }
    print(f"counters   : {doc['counters']}", flush=True)

    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")
    args.failures_out.write_text(json.dumps(failures, indent=2) + "\n")
    print(f"wrote {args.failures_out}")

    manifest = build_manifest(
        tracer, command="bench-chaos", argv=list(argv or sys.argv[1:]),
        config={"scale": args.scale, "jobs": args.jobs,
                "heartbeat_s": args.heartbeat},
    )
    write_manifest(manifest, args.manifest)
    print(f"wrote {args.manifest}")

    if args.check:
        counters = doc["counters"]
        assert doc["byte_identical_after_resume"], (
            "resumed suite store differs from the self-healed run's store"
        )
        # kill in phase 1, hang in phase 1, >= 2 kills in phase 2
        assert counters["runner.worker_crashes"] >= 4, counters
        assert counters["runner.pool_respawns"] >= 4, counters
        assert counters["runner.quarantined"] == 1, counters
        assert counters["runtime.cache.orphans_swept"] >= 1, counters
        assert manifest["counters"]["runner.quarantined"] == 1, (
            "manifest lost the supervision counters"
        )
        assert manifest["failures"], "manifest lost the failure records"
        phases = {span["name"] for span in manifest["spans"][0]["children"]}
        assert {"chaos_recovery", "chaos_quarantine"} <= phases, (
            f"manifest lost the phase spans: {sorted(phases)}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
