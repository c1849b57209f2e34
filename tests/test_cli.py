"""Smoke tests for the drcshap CLI."""

import shutil

import pytest

from repro.cli import EXIT_DEGRADED, main
from repro.core.pipeline import checkpoint_dir_for
from repro.runtime import CheckpointStore
from tests.breaking import breaking


def _without_runtimes(text: str) -> list[str]:
    """Command output minus its live timing lines."""
    return [line for line in text.splitlines() if "runtime:" not in line]


class TestCLI:
    def test_features_listing(self, capsys):
        assert main(["features"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 387
        assert "edM4_4V" in out

    def test_features_verbose(self, capsys):
        assert main(["features", "-v"]) == 0
        out = capsys.readouterr().out
        assert "margin" in out

    def test_flow_small(self, capsys):
        assert main(["flow", "--grid", "8", "--utilization", "0.55", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "violations" in out
        assert "global_route" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_model_filter(self, tmp_path, capsys, monkeypatch):
        # unknown names exit 2 before the suite is built or loaded; they
        # were dropped without a word, '' ran the whole zoo, and a list
        # matching nothing was rejected only after the suite existed
        cache = tmp_path / "cache"
        monkeypatch.setenv("DRCSHAP_CACHE_DIR", str(cache))
        for models in ("Nope", "RF,XX", ""):
            assert main(["table2", "--scale", "0.3", "--models", models]) == 2
            err = capsys.readouterr().err
            assert f"unknown model(s) {models.split(',')[-1]!r}" in err
            assert "choose from SVM-RBF, RUSBoost, NN-1, NN-2, RF" in err
        assert not cache.exists()


class TestCLIRejectsBadNumbers:
    """Values that would silently fail or truncate every unit are usage errors."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["suite", "--timeout", "0"],
            ["suite", "--timeout", "-5"],
            ["suite", "--timeout", "nan"],
            ["table2", "-j", "0"],
            ["explain", "des_perf_1", "--num", "0"],
            ["explain", "des_perf_1", "--num", "-1"],
            ["report", "mult_b", "--top", "-1"],
            ["report", "mult_b", "--top", "0"],
            ["suite", "--scale", "0"],
            ["table2", "--scale", "-1"],
            ["flow", "--grid", "0"],
            ["flow", "--grid", "-3"],
            ["flow", "--grid", "1"],
            ["flow", "--macros", "-2"],
            ["flow", "--seed", "-1"],
            ["flow", "--utilization", "5"],
            ["flow", "--utilization", "1"],
            ["flow", "--utilization", "nan"],
            ["flow", "--utilization", "0"],
        ],
    )
    def test_exits_2_before_any_flow(self, argv, monkeypatch, capsys):
        import repro.cli as cli

        def no_flow(*args, **kwargs):
            raise AssertionError("a flow ran")

        monkeypatch.setattr(cli, "build_suite_dataset", no_flow)
        monkeypatch.setattr(cli, "run_flow", no_flow)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be" in capsys.readouterr().err

    def test_flow_bounds_are_inclusive_where_they_run(self, capsys):
        assert main(["flow", "--grid", "2", "--macros", "0", "--utilization", "0.01"]) == 0
        assert "violations" in capsys.readouterr().out

    def test_unlegalizable_utilization_is_one_error_line(self, capsys):
        # 0.97 is a valid fraction, but the default 20x20 design cannot
        # legalize it: that is a runtime error, reported without a traceback
        assert main(["flow", "--utilization", "0.97"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: LegalizationError: no legal position for cell")
        assert len(err.strip().splitlines()) == 1

    def test_macros_that_do_not_fit_are_one_error_line(self, capsys):
        # 50 macros overfill the default 20x20 design: no Table I row with
        # fewer macros than asked for
        assert main(["flow", "--macros", "50"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: LegalizationError: placed 30 of 50 requested macros")
        assert len(captured.err.strip().splitlines()) == 1
        assert "violations" not in captured.out

    @pytest.mark.parametrize("command", ["explain", "report"])
    def test_unknown_design_exits_2_before_any_flow(self, command, monkeypatch, capsys):
        import repro.cli as cli

        def no_flow(*args, **kwargs):
            raise AssertionError("the suite was built")

        monkeypatch.setattr(cli, "build_suite_dataset", no_flow)
        with pytest.raises(SystemExit) as exc:
            main([command, "nosuch", "--scale", "0.3"])
        assert exc.value.code == 2
        assert "invalid choice: 'nosuch'" in capsys.readouterr().err

    def test_trace_to_a_directory_exits_2_before_any_flow(self, tmp_path, monkeypatch, capsys):
        # a directory used to be accepted, and the manifest write over it
        # failed with an uncaught IsADirectoryError once the run was done
        import repro.cli as cli

        def no_flow(*args, **kwargs):
            raise AssertionError("a flow ran")

        monkeypatch.setattr(cli, "build_suite_dataset", no_flow)
        with pytest.raises(SystemExit) as exc:
            main(["suite", "--scale", "0.3", "--trace", str(tmp_path)])
        assert exc.value.code == 2
        assert f"trace path {tmp_path} is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        [
            "--heartbeat", "--max-pool-respawns", "--max-retries", "--retry-backoff",
            "--quarantine-threshold",
        ],
    )
    def test_removed_pool_flags_exit_2_before_any_flow(self, flag, monkeypatch, capsys):
        import repro.cli as cli

        def no_flow(*args, **kwargs):
            raise AssertionError("the suite was built")

        monkeypatch.setattr(cli, "build_suite_dataset", no_flow)
        with pytest.raises(SystemExit) as exc:
            main(["suite", flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


class TestCLIHeavyPaths:
    """End-to-end CLI runs on a tiny (scale 0.3) suite, cached in tmp."""

    @pytest.fixture()
    def tiny_cache(self, tmp_path, monkeypatch):
        import repro.cli as cli

        path = tmp_path / "tiny.npz"
        monkeypatch.setattr(cli, "default_cache_path", lambda scale=1.0: path)
        return path

    def test_suite_command(self, tiny_cache, capsys):
        assert main(["suite", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "Group 1" in out
        assert "des_perf_b" in out
        assert "Total samples" in out

    def test_report_command(self, tiny_cache, capsys):
        # build the cache via the suite command, then report a design
        assert main(["suite", "--scale", "0.3"]) == 0
        capsys.readouterr()
        assert main(["report", "des_perf_1", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "prediction report" in out
        assert "top 10 predicted hotspot" in out

    def test_suite_parallel_jobs_matches_serial_cache(self, tiny_cache, capsys):
        store = CheckpointStore(checkpoint_dir_for(tiny_cache))
        assert main(["suite", "--scale", "0.3"]) == 0
        serial = store.file_digests()
        shutil.rmtree(store.root)
        assert main(["suite", "--scale", "0.3", "-j", "2", "--no-resume"]) == 0
        assert store.file_digests() == serial
        assert "Total samples" in capsys.readouterr().out

    def test_explain_runs_under_resilience_layer(self, tiny_cache, monkeypatch, capsys):
        # regression: explain bypassed the runner, so a failing flow unit
        # became an unhandled crash instead of a degraded exit
        import repro.cli as cli

        assert main(["suite", "--scale", "0.3"]) == 0
        capsys.readouterr()
        with monkeypatch.context() as m:
            m.setattr(cli, "run_flow", breaking(cli.run_flow))
            code = main(["explain", "des_perf_1", "--scale", "0.3"])
        assert code == EXIT_DEGRADED
        assert "degraded run" in capsys.readouterr().err
        # under a budget the flow runs on a worker and comes back pickled
        assert main(["explain", "des_perf_1", "--scale", "0.3", "--num", "1"]) == 0
        inline = capsys.readouterr().out
        argv = ["explain", "des_perf_1", "--scale", "0.3", "--num", "1", "--timeout", "600"]
        assert main(argv) == 0
        assert _without_runtimes(capsys.readouterr().out) == _without_runtimes(inline)

    def test_explain_flows_the_scaled_recipe(self, tiny_cache, monkeypatch, capsys):
        # regression: explain ran the unscaled recipe's flow while explaining
        # the scaled suite, so the flow's grid did not match the dataset's
        import repro.cli as cli
        from repro.core.pipeline import build_suite_dataset

        assert main(["suite", "--scale", "0.3"]) == 0
        flows = []
        monkeypatch.setattr(
            cli, "explain_hotspots",
            lambda suite, flow, **kw: flows.append(flow) or [],
        )
        assert main(["explain", "des_perf_1", "--scale", "0.3"]) == 0
        suite, _ = build_suite_dataset(0.3, cache_path=tiny_cache)
        dataset = suite.by_name("des_perf_1")
        assert (flows[0].grid.nx, flows[0].grid.ny) == (dataset.grid_nx, dataset.grid_ny)

    def test_table2_resumed_lone_rf_unit_grows_forest_in_process(
        self, tiny_cache, mini_suite, monkeypatch, capsys
    ):
        # a -j 2 runner runs a lone pending unit inline; its RF must grow in
        # that process too, or the unit's train_minutes (this process's CPU
        # time) would miss the trees grown in forest units elsewhere
        import repro.cli as cli
        from repro.runtime import FaultTolerantRunner

        monkeypatch.setattr(cli, "build_suite_dataset", lambda *a, **kw: (mini_suite, []))
        stages = []
        run_units = FaultTolerantRunner.run_units

        def spy(self, stage, units, on_result=None):
            stages.append(stage)
            return run_units(self, stage, units, on_result)

        monkeypatch.setattr(FaultTolerantRunner, "run_units", spy)
        argv = ["table2", "--scale", "0.3", "--models", "RF"]
        assert main(argv) == 0
        ckpt = tiny_cache.with_suffix(".table2-fast.ckpt")
        (ckpt / "RF__g1.json").unlink()
        assert main(argv + ["-j", "2"]) == 0
        assert "RF" in capsys.readouterr().out
        assert "experiment" in stages and "forest" not in stages

    def test_report_degrades_on_training_fault(self, tiny_cache, monkeypatch, capsys):
        import repro.core.explain as explain

        assert main(["suite", "--scale", "0.3"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(
            explain, "train_explanation_forest", breaking(explain.train_explanation_forest)
        )
        code = main(["report", "mult_b", "--scale", "0.3"])
        assert code == EXIT_DEGRADED
        assert "degraded run" in capsys.readouterr().err

    def test_explain_and_report_of_a_skipped_design_exit_degraded(
        self, tiny_cache, monkeypatch, capsys
    ):
        # regression: when the named design's flow failed and was skipped,
        # both commands died with KeyError "design 'fft_1' not in suite"
        import repro.core.pipeline as pipeline

        monkeypatch.setattr(pipeline, "run_flow", breaking(
            pipeline.run_flow, when=lambda recipe: recipe.name == "fft_1"
        ))
        for command in ("explain", "report"):
            code = main([command, "fft_1", "--scale", "0.2"])
            assert code == EXIT_DEGRADED
            err = capsys.readouterr().err
            assert "degraded run" in err and "fft_1" in err
