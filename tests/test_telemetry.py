"""Telemetry layer: spans, metrics, sinks, CLI surfacing, determinism.

Covers the tracer primitives (nesting, disabled no-ops, snapshot/adopt),
the run manifest (span-tree round-trip, loader rejections, stable_view,
the git revision), the flow/runner instrumentation, the CLI flags and the
``drcshap trace`` inspector — and the headline invariant: a serial and a
``--jobs 2`` suite build produce semantically identical manifests.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

import repro.core.pipeline as pipeline
from repro.cli import main
from repro.runtime import FailureLog, FailureRecord, FaultTolerantRunner, blas
from repro.runtime.telemetry import (
    TELEMETRY_SCHEMA_VERSION,
    Tracer,
    _git_revision,
    activate,
    build_manifest,
    get_tracer,
    load_manifest,
    new_run_id,
    render_manifest,
    stable_view,
    summarize_stages,
    write_manifest,
)
from tests.breaking import breaking


class TestTracer:
    def test_span_nesting_and_timing(self):
        tracer = Tracer()
        with tracer.span("outer", design="d") as outer:
            with tracer.span("inner"):
                pass
        assert [r.name for r in tracer.roots] == ["outer"]
        assert outer.attrs == {"design": "d"}
        assert [c.name for c in outer.children] == ["inner"]
        assert outer.wall_s >= outer.children[0].wall_s >= 0.0
        assert outer.self_s <= outer.wall_s

    def test_span_set_attaches_attrs(self):
        tracer = Tracer()
        with tracer.span("s") as node:
            node.set(iterations=3)
        assert tracer.roots[0].attrs["iterations"] == 3

    def test_counters_and_gauges(self):
        tracer = Tracer()
        tracer.counter("c", 0)  # zero-registration
        tracer.counter("c", 2)
        tracer.counter("c")
        tracer.gauge("g", 1.5)
        tracer.gauge("g", 2.5)
        assert tracer.counters == {"c": 3}
        assert tracer.gauges == {"g": 2.5}

    def test_disabled_tracer_is_noop(self):
        tracer = Tracer(enabled=False)
        with tracer.span("s") as node:
            node.set(x=1)  # must not raise
        tracer.counter("c")
        tracer.gauge("g", 1.0)
        tracer.note_failure({"unit": "u"})
        assert tracer.roots == []
        assert tracer.counters == {}
        assert tracer.gauges == {}
        assert tracer.failures == []

    def test_ambient_default_is_disabled(self):
        assert get_tracer().enabled is False

    def test_activate_installs_and_restores(self):
        tracer = Tracer()
        with activate(tracer):
            assert get_tracer() is tracer
        assert get_tracer() is not tracer

    def test_snapshot_adopt_merges_under_open_span(self):
        worker = Tracer()
        with worker.span("unit"):
            worker.counter("n", 2)
            worker.gauge("g", 7.0)
        parent = Tracer()
        parent.counter("n", 1)
        with parent.span("suite"):
            parent.adopt(worker.snapshot())
        root = parent.roots[0]
        assert [c.name for c in root.children] == ["unit"]
        assert parent.counters == {"n": 3}
        assert parent.gauges == {"g": 7.0}

    def test_adopt_none_and_disabled(self):
        tracer = Tracer()
        tracer.adopt(None)  # no-op
        disabled = Tracer(enabled=False)
        disabled.adopt(Tracer().snapshot())
        assert disabled.roots == []


class TestSinks:
    def _run(self) -> Tracer:
        tracer = Tracer(run_id=new_run_id())
        with tracer.span("suite"):
            with tracer.span("flow", design="a"):
                with tracer.span("place"):
                    pass
            with tracer.span("flow", design="b"):
                with tracer.span("place"):
                    pass
        tracer.counter("cache.hits", 2)
        tracer.gauge("overflow", 0.5)
        tracer.note_failure({"stage": "flow", "unit": "c",
                             "error_type": "RuntimeError",
                             "elapsed_s": 1.0, "last_attempt_s": 0.5,
                             "run_id": tracer.run_id})
        return tracer

    def _write(self, tmp_path, manifest: dict, name: str = "run.json"):
        path = tmp_path / name
        path.write_text(json.dumps(manifest))
        return path

    def test_trace_roundtrip(self, tmp_path):
        tracer = self._run()
        manifest = build_manifest(tracer, "suite", ["--scale", "1"])
        doc = load_manifest(write_manifest(manifest, tmp_path / "run.json"))
        assert doc["schema_version"] == TELEMETRY_SCHEMA_VERSION
        assert doc["run_id"] == tracer.run_id
        assert doc["command"] == "suite"
        assert [r.name for r in doc["spans"]] == ["suite"]
        flows = doc["spans"][0].children
        assert [f.attrs["design"] for f in flows] == ["a", "b"]
        assert [c.name for c in flows[0].children] == ["place"]
        assert flows[0].wall_s == round(tracer.roots[0].children[0].wall_s, 6)
        assert flows[0].pid == tracer.roots[0].children[0].pid
        assert doc["counters"] == {"cache.hits": 2}
        assert doc["gauges"] == {"overflow": 0.5}
        assert len(doc["failures"]) == 1 and doc["failures"][0]["unit"] == "c"

    def test_load_manifest_rejects_malformed(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all\n")
        with pytest.raises(ValueError, match="not a JSON run manifest"):
            load_manifest(bad)
        with pytest.raises(ValueError, match="not a JSON object"):
            load_manifest(self._write(tmp_path, [1, 2]))

    def test_load_manifest_rejects_wrong_schema(self, tmp_path):
        # a schema-1 manifest had a stage table but no span tree
        v1 = build_manifest(self._run(), "suite")
        del v1["spans"]
        v1["schema_version"] = 1
        for version, doc in ((1, v1), (99, {"schema_version": 99})):
            with pytest.raises(ValueError, match=f"unsupported manifest schema {version}"):
                load_manifest(self._write(tmp_path, doc))

    def test_load_manifest_rejects_jsonl_trace(self, tmp_path):
        # the JSONL event log that --trace wrote under schema 1
        bad = tmp_path / "run.jsonl"
        bad.write_text(
            json.dumps({"ev": "meta", "schema_version": 1, "run_id": "r"}) + "\n"
            + json.dumps({"ev": "counter", "name": "c", "value": 1}) + "\n"
        )
        with pytest.raises(ValueError, match="not a JSON run manifest"):
            load_manifest(bad)

    def test_load_manifest_requires_keys(self, tmp_path):
        manifest = build_manifest(self._run(), "suite")
        del manifest["stages"]
        with pytest.raises(ValueError, match="lacks stages"):
            load_manifest(self._write(tmp_path, manifest))
        for corrupt in (
            lambda m: m["spans"][0]["children"][0].pop("attrs"),
            lambda m: m["stages"][0].pop("count"),
            lambda m: m["counters"].update({"cache.hits": "two"}),
            lambda m: m["failures"].append("flow/c"),
        ):
            manifest = build_manifest(self._run(), "suite")
            corrupt(manifest)
            with pytest.raises(ValueError, match="malformed manifest"):
                load_manifest(self._write(tmp_path, manifest))

    def test_render_aligns_long_names(self, tmp_path):
        tracer = Tracer()
        with tracer.span("suite"):
            with tracer.span("a_stage_name_longer_than_the_columns", design="d" * 20):
                pass
        path = write_manifest(build_manifest(tracer), tmp_path / "run.json")
        blocks = render_manifest(load_manifest(path)).split("\n\n")
        for block in (blocks[1], blocks[3]):  # span tree, stage table
            assert len({len(line) for line in block.splitlines()}) == 1

    def test_summarize_stages_collapses_same_name_paths(self):
        tracer = self._run()
        rows = {r["path"]: r for r in summarize_stages(tracer.roots)}
        assert rows["suite"]["count"] == 1
        assert rows["suite/flow"]["count"] == 2  # attrs excluded from the key
        assert rows["suite/flow/place"]["count"] == 2
        assert list(rows) == sorted(rows)

    def test_manifest_and_stable_view(self, tmp_path):
        tracer = self._run()
        manifest = build_manifest(tracer, "suite", ["-j", "2"], {"jobs": 2})
        loaded = json.loads(write_manifest(manifest, tmp_path / "run.json").read_text())
        assert loaded["schema_version"] == TELEMETRY_SCHEMA_VERSION
        assert loaded["versions"]["python"]
        view = stable_view(loaded)
        # volatile fields stripped...
        assert "run_id" not in view and "versions" not in view
        assert all("wall_s" not in s for s in view["stages"])
        assert all("last_attempt_s" not in f and "run_id" not in f
                   for f in view["failures"])
        # ...but semantic content kept
        assert {"path": "suite/flow", "count": 2} in view["stages"]
        assert view["counters"] == {"cache.hits": 2}
        assert view["failures"][0]["unit"] == "c"

    def test_manifest_records_environment(self, tmp_path):
        manifest = build_manifest(self._run(), "suite")
        path = write_manifest(manifest, tmp_path / "run.json")
        versions = load_manifest(path)["versions"]
        assert versions["cpu_count"] == os.cpu_count() >= 1
        assert versions["blas_threads"] == blas.thread_counts()
        assert versions["start_method"] in multiprocessing.get_all_start_methods()
        # the environment is volatile: it never reaches the stable view
        varied = json.loads(path.read_text())
        varied["versions"].update(cpu_count=64, blas_threads={}, start_method="spawn")
        assert stable_view(varied) == stable_view(manifest)


class TestGitRevision:
    def test_packed_branch_ref(self, tmp_path):
        # `git clone` and `git pack-refs` leave HEAD's branch only in packed-refs
        sha = "2921926" + "0" * 33
        git = tmp_path / ".git"
        git.mkdir()
        (git / "HEAD").write_text("ref: refs/heads/main\n")
        (git / "packed-refs").write_text(
            "# pack-refs with: peeled fully-peeled sorted\n"
            f"{'1' * 40} refs/heads/other\n"
            f"{sha} refs/heads/main\n"
        )
        assert _git_revision(tmp_path) == sha

    def test_loose_ref_detached_head_and_no_checkout(self, tmp_path):
        git = tmp_path / ".git"
        (git / "refs" / "heads").mkdir(parents=True)
        (git / "HEAD").write_text("ref: refs/heads/main\n")
        (git / "refs" / "heads" / "main").write_text("a" * 40 + "\n")
        assert _git_revision(tmp_path) == "a" * 40
        (git / "HEAD").write_text("b" * 40 + "\n")
        assert _git_revision(tmp_path) == "b" * 40
        assert _git_revision(tmp_path / "elsewhere") is None


class TestFlowInstrumentation:
    def test_run_flow_spans_cover_all_stages(self):
        tracer = Tracer()
        with activate(tracer):
            result = pipeline.run_flow(
                pipeline.DesignRecipe(name="t", grid_nx=8, grid_ny=8,
                                      utilization=0.55, seed=3)
            )
        flow = tracer.roots[0]
        assert flow.name == "flow" and flow.attrs["design"] == "t"
        stage_names = [c.name for c in flow.children]
        assert stage_names == list(pipeline.FLOW_STAGES)
        assert all(c.wall_s >= 0 for c in flow.children)
        assert sum(c.wall_s for c in flow.children) <= flow.wall_s
        assert result.X.shape[0] == result.grid.num_cells
        # router phase spans nest inside global_route
        gr = flow.children[stage_names.index("global_route")]
        assert {"pattern_pass", "negotiation", "layer_assignment"} <= {
            c.name for c in gr.children
        }

    def test_run_flow_without_tracer_records_nothing(self):
        # ambient tracer disabled: the flow runs untimed and leaves no spans
        tracer = get_tracer()
        assert not tracer.enabled
        result = pipeline.run_flow(
            pipeline.DesignRecipe(name="t", grid_nx=8, grid_ny=8,
                                  utilization=0.55, seed=3)
        )
        assert result.X.shape[0] == result.grid.num_cells
        assert tracer.roots == [] and tracer.counters == {}


class TestFailureTelemetry:
    def test_failure_record_carries_attempt_timing_and_run_id(self):
        rec = FailureRecord(stage="flow", unit="u",
                            error_type="RuntimeError", message="boom",
                            elapsed_s=1.5, last_attempt_s=0.25, run_id="r1")
        doc = rec.to_dict()
        assert doc["last_attempt_s"] == 0.25
        assert doc["run_id"] == "r1"

    def test_failure_log_cross_references_active_tracer(self):
        tracer = Tracer()
        log = FailureLog()
        with activate(tracer):
            log.record(FailureRecord(stage="flow", unit="u",
                                     error_type="E", message="m",
                                     elapsed_s=0.1))
        assert len(tracer.failures) == 1
        assert tracer.failures[0]["unit"] == "u"

    def test_runner_failure_stamps_run_id_and_counters(self):
        tracer = Tracer(run_id="run-x")

        def boom():
            raise RuntimeError("nope")

        with activate(tracer):
            runner = FaultTolerantRunner()
            outcome = runner.run_unit("flow", "bad", boom)
        assert not outcome.ok
        assert outcome.failure.run_id == "run-x"
        assert outcome.failure.last_attempt_s >= 0.0
        assert tracer.counters["runner.failed_units"] == 1
        assert tracer.failures[0]["unit"] == "bad"

    def test_run_units_registers_runner_counters(self):
        tracer = Tracer()
        with activate(tracer):
            FaultTolerantRunner().run_units("s", [("u", lambda: 1, (), {})])
        assert {k: v for k, v in tracer.counters.items() if k.startswith("runner.")} == {
            "runner.timeouts": 0,
            "runner.failed_units": 0,
            "runner.worker_crashes": 0,
            "runner.quarantined": 0,
            "runner.signal_shutdowns": 0,
        }


class TestCLIValidation:
    def test_rejects_jobs_below_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["suite", "--jobs", "0"])
        assert exc.value.code == 2

    def test_rejects_non_integer_jobs(self):
        with pytest.raises(SystemExit) as exc:
            main(["suite", "--jobs", "two"])
        assert exc.value.code == 2

    def test_rejects_unwritable_trace_dir(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "run.json"
        with pytest.raises(SystemExit) as exc:
            main(["suite", "--trace", str(missing)])
        assert exc.value.code == 2


class TestCLITelemetry:
    def test_flow_trace_writes_sinks_and_inspector_reads_them(
        self, tmp_path, capsys
    ):
        trace = tmp_path / "run.json"
        assert main(["flow", "--grid", "8", "--utilization", "0.55",
                     "--seed", "3", "--trace", str(trace)]) == 0
        assert f"telemetry: manifest {trace}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [trace]  # one document, no sibling

        assert main(["trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "  flow design=adhoc" in out  # span tree, with attributes
        for stage in pipeline.FLOW_STAGES:
            assert f"    {stage}" in out
        assert "top 5 spans by self time:" in out
        assert "flow/flow/place" in out  # stage table
        assert "counters:" in out and "gauges:" in out

    def test_flow_without_trace_creates_no_sinks(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["flow", "--grid", "8", "--utilization", "0.55",
                     "--seed", "3"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_trace_inspector_names_the_failed_unit(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.cli as cli

        recipes = pipeline.suite_recipes(0.3)[:2]
        monkeypatch.setattr(pipeline, "suite_recipes", lambda scale: recipes)
        monkeypatch.setattr(cli, "default_cache_path",
                            lambda scale=1.0: tmp_path / "suite.npz")
        victim = recipes[1].name
        monkeypatch.setattr(pipeline, "run_flow", breaking(
            pipeline.run_flow, when=lambda recipe: recipe.name == victim
        ))
        trace = tmp_path / "run.json"
        code = main(["suite", "--scale", "0.3", "--trace", str(trace)])
        assert code == cli.EXIT_DEGRADED
        assert sorted(tmp_path.glob("run*")) == [trace]
        capsys.readouterr()

        assert main(["trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "failures : 1" in out
        assert f"error:flow/{victim} UnitBroken" in out

    def test_trace_written_on_error_exit(self, tmp_path, monkeypatch, capsys):
        import repro.cli as cli

        recipes = pipeline.suite_recipes(0.3)[:1]
        monkeypatch.setattr(pipeline, "suite_recipes", lambda scale: recipes)
        monkeypatch.setattr(cli, "default_cache_path",
                            lambda scale=1.0: tmp_path / "suite.npz")
        monkeypatch.setattr(pipeline, "run_flow", breaking(pipeline.run_flow))
        trace = tmp_path / "run.json"
        code = main(["suite", "--scale", "0.3", "--fail-fast", "--trace", str(trace)])
        assert code == 1
        assert sorted(tmp_path.glob("run*")) == [trace]
        assert load_manifest(trace)["failures"][0]["unit"] == recipes[0].name

    def test_trace_inspector_rejects_malformed_file(self, tmp_path, capsys):
        v1 = build_manifest(Tracer(), "suite")
        del v1["spans"]
        v1["schema_version"] = 1
        jsonl = json.dumps({"ev": "meta", "schema_version": 1}) + "\n" + json.dumps(
            {"ev": "span", "id": 1, "parent": 0, "name": "suite"}) + "\n"
        for name, text in (("bad.json", "garbage\n"),
                           ("v1.json", json.dumps(v1)),
                           ("run.jsonl", jsonl)):
            (tmp_path / name).write_text(text)
            assert main(["trace", str(tmp_path / name)]) == 1
            assert "error:" in capsys.readouterr().err

    def test_trace_inspector_missing_file(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.json")]) == 1
        assert "cannot read" in capsys.readouterr().err


class TestDeterminism:
    """Serial and parallel runs must be semantically indistinguishable."""

    @pytest.fixture()
    def two_design_suite(self, monkeypatch):
        real = pipeline.suite_recipes
        monkeypatch.setattr(
            pipeline, "suite_recipes", lambda scale: real(scale)[:2]
        )

    @pytest.fixture()
    def two_group_suite(self, monkeypatch):
        # a small suite every Table II unit can train and score on: one
        # hotspot-bearing design from each of three groups at scale 0.3
        real = pipeline.suite_recipes
        keep = ("mult_1", "des_perf_1", "bridge32_b")
        monkeypatch.setattr(
            pipeline, "suite_recipes",
            lambda scale: [r for r in real(scale) if r.name in keep],
        )

    def _run_suite(self, tmp_path, monkeypatch, tag: str, jobs: int,
                   command: tuple[str, ...] = ("suite",)) -> dict:
        import repro.cli as cli

        cache = tmp_path / tag / "suite.npz"
        cache.parent.mkdir()
        monkeypatch.setattr(cli, "default_cache_path",
                            lambda scale=1.0: cache)
        trace = tmp_path / tag / "run.json"
        argv = [*command, "--scale", "0.3", "--no-resume", "--trace", str(trace)]
        if jobs > 1:
            argv += ["-j", str(jobs)]
        assert main(argv) == 0
        return json.loads(trace.read_text())

    def test_serial_and_parallel_manifests_identical(
        self, tmp_path, monkeypatch, two_design_suite, capsys
    ):
        serial = self._run_suite(tmp_path, monkeypatch, "serial", jobs=1)
        par = self._run_suite(tmp_path, monkeypatch, "parallel", jobs=2)
        assert stable_view(serial) == stable_view(par)
        # sanity: the view actually covers the flow span structure
        paths = {s["path"] for s in stable_view(serial)["stages"]}
        assert "suite/flow/place" in paths
        assert {s["path"]: s["count"] for s in stable_view(serial)["stages"]}[
            "suite/flow"
        ] == 2

    def test_serial_and_parallel_table2_manifests_identical(
        self, tmp_path, monkeypatch, two_group_suite, capsys
    ):
        table2 = ("table2", "--models", "RF")
        serial = self._run_suite(tmp_path, monkeypatch, "serial", 1, table2)
        par = self._run_suite(tmp_path, monkeypatch, "parallel", 2, table2)
        assert stable_view(serial) == stable_view(par)
        # both record their environment, and every RF unit ran on one thread
        for tag in ("serial", "parallel"):
            doc = load_manifest(tmp_path / tag / "run.json")
            assert {"cpu_count", "blas_threads", "start_method"} <= set(doc["versions"])
            units = [n for root in doc["spans"] for n in root.children
                     if n.name == "experiment_unit"]
            assert len(units) == 3
            if doc["versions"]["blas_threads"]:
                assert {n.attrs["blas_threads"] for n in units} == {1}
        counts = {s["path"]: s["count"] for s in stable_view(serial)["stages"]}
        assert counts["table2/flow"] == 3
        assert counts["table2/experiment_unit"] == 3  # one RF unit per group
        assert serial["counters"]["experiment.designs_scored"] >= 2
