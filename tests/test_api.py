"""The ``repro.api`` facade and the deprecation shims it supersedes."""

import pytest

from repro.api import RunOptions, Study, StudyRun
from repro.core.study import EnergyPerformanceStudy, StudyConfig
from repro.sim.engine import Engine
from repro.util.errors import ConfigurationError

CFG = dict(sizes=(128,), threads=(1, 2), execute_max_n=0, verify=False)


class TestRunOptions:
    def test_defaults(self):
        opts = RunOptions()
        assert opts.engine == "fast"
        assert opts.parallel is None
        assert opts.trace is False

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            RunOptions(engine="warp")

    def test_negative_parallel_rejected(self):
        with pytest.raises(ConfigurationError):
            RunOptions(parallel=-1)

    def test_engine_instance_accepted(self, machine):
        opts = RunOptions(engine=Engine(machine))
        assert isinstance(opts.engine, Engine)

    def test_transport_default_defers_to_environment(self):
        """No environment variable is consulted any more; the default
        stays ``None`` and constructing it does not warn."""
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert RunOptions().transport is None

    def test_known_transports_accepted(self):
        """Every 1.2 transport value is still accepted (deprecated)."""
        for transport in ("auto", "shm", "pickle"):
            with pytest.warns(DeprecationWarning, match="transport"):
                opts = RunOptions(transport=transport)
            assert opts.transport == transport

    def test_unknown_transport_rejected(self):
        """A value 1.2 rejected stays an error during the deprecation."""
        with pytest.raises(ConfigurationError, match="transport"):
            RunOptions(transport="osmosis")

    def test_run_with_checkpoint_and_resume(self, machine, tmp_path):
        """The facade plumbs checkpoint/resume through to the driver and
        a resumed run reproduces the original result exactly."""
        journal = tmp_path / "study.jsonl"
        first = Study(machine, **CFG).run(RunOptions(checkpoint=journal))
        assert journal.exists()
        resumed = Study(machine, **CFG).run(RunOptions(resume=journal))
        assert list(first.result.runs) == list(resumed.result.runs)
        for key in first.result.runs:
            a, b = first.result.runs[key], resumed.result.runs[key]
            assert a.elapsed_s == b.elapsed_s, key
            assert a.energy.package == b.energy.package, key

    def test_parallel_matches_serial(self, machine):
        """Workers lower their own cost-only cells; the result is the
        serial one, bit for bit."""
        serial = Study(machine, **CFG).run(RunOptions())
        par = Study(machine, **CFG).run(RunOptions(parallel=2))
        assert list(serial.result.runs) == list(par.result.runs)
        for key in serial.result.runs:
            a, b = serial.result.runs[key], par.result.runs[key]
            assert a.elapsed_s == b.elapsed_s, key
            assert a.energy.package == b.energy.package, key


class TestStudy:
    def test_defaults_to_paper_platform_and_matrix(self):
        study = Study()
        assert study.machine.name == "haswell-e3-1225"
        assert study.config == StudyConfig()

    def test_kwargs_override_config(self, machine):
        study = Study(machine, **CFG)
        assert study.config.sizes == (128,)
        assert study.config.execute_max_n == 0
        assert study.config.verify is False

    def test_config_object_plus_overrides(self, machine):
        study = Study(machine, config=StudyConfig(seed=7), sizes=(64,))
        assert study.config.seed == 7
        assert study.config.sizes == (64,)

    def test_run_returns_studyrun(self, machine):
        run = Study(machine, **CFG).run()
        assert isinstance(run, StudyRun)
        assert len(run.result.runs) == 6
        assert not run.traced
        assert run.tracer is None

    def test_run_options_execute_overrides(self, machine):
        run = Study(machine, sizes=(128,), threads=(1,), verify=False).run(
            RunOptions(execute_max_n=0)
        )
        assert run.result.measurement("openblas", 128, 1) is not None

    def test_untraced_run_rejects_trace_accessors(self, machine):
        run = Study(machine, **CFG).run()
        with pytest.raises(ConfigurationError):
            run.write_trace("nope.json")
        with pytest.raises(ConfigurationError):
            run.phase_summary()
        with pytest.raises(ConfigurationError):
            run.metrics_summary()

    def test_engine_choice_does_not_change_results(self, machine):
        fast = Study(machine, **CFG).run(RunOptions(engine="fast"))
        ref = Study(machine, **CFG).run(RunOptions(engine="reference"))
        for key in fast.result.runs:
            f = fast.result.runs[key]
            r = ref.result.runs[key]
            assert f.elapsed_s == pytest.approx(r.elapsed_s, rel=1e-9)
            assert f.energy.package == pytest.approx(r.energy.package, rel=1e-9)

    def test_facade_matches_legacy_driver(self, machine):
        new = Study(machine, **CFG).run().result
        legacy = EnergyPerformanceStudy(
            machine, config=StudyConfig(**CFG)
        ).run()
        assert set(new.runs) == set(legacy.runs)
        for key in new.runs:
            assert new.runs[key].elapsed_s == legacy.runs[key].elapsed_s
            assert new.runs[key].energy.package == legacy.runs[key].energy.package


class TestTracedFacade:
    def test_trace_true_populates_run(self, machine):
        run = Study(machine, **CFG).run(RunOptions(trace=True))
        assert run.traced
        assert run.wall_s > 0.0
        assert len(run.tracer.find("cell")) == 6
        assert run.metrics  # at least the lowering counters moved
        assert "phase" in run.phase_summary().to_ascii()
        assert "metric" in run.metrics_summary().to_ascii()

    def test_trace_path_writes_file_with_meta(self, machine, tmp_path):
        from repro.observability.export import read_trace_json, validate_chrome_trace

        out = tmp_path / "trace.json"
        run = Study(machine, **CFG).run(RunOptions(trace=out))
        assert run.trace_path == out
        data = read_trace_json(out)
        assert validate_chrome_trace(data) == []
        meta = data["otherData"]["meta"]
        assert meta["command"] == "repro.api.Study.run"
        assert meta["parallel"] == 0
        assert meta["wall_s"] == pytest.approx(run.wall_s)

    def test_facade_never_warns(self, machine, recwarn):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Study(machine, **CFG).run(RunOptions(parallel=1, trace=True))


class TestDeprecationShims:
    def test_removed_spellings_are_gone(self, machine):
        """The 1.1 shims were removed in 1.2.0 (CHANGELOG.md)."""
        with pytest.raises(TypeError):
            EnergyPerformanceStudy(
                machine, config=StudyConfig(**CFG), engine=Engine(machine)
            )
        study = EnergyPerformanceStudy(machine, config=StudyConfig(**CFG))
        with pytest.raises(TypeError):
            study.run(parallel=1)
        assert not hasattr(study.run(), "avg_power")

    def test_run_options_transport_is_a_deprecated_no_op(self, machine):
        """``RunOptions(transport=...)`` (deprecated in 1.3, removed in
        1.4.0) warns and leaves results unchanged."""
        assert RunOptions().transport is None
        plain = Study(machine, **CFG).run(RunOptions(parallel=2))
        for transport in ("auto", "shm", "pickle"):
            with pytest.warns(
                DeprecationWarning, match=r"RunOptions\(transport=\.\.\.\)"
            ):
                opts = RunOptions(parallel=2, transport=transport)
            assert opts.transport == transport
        run = Study(machine, **CFG).run(opts)
        for key in plain.result.runs:
            a, b = plain.result.runs[key], run.result.runs[key]
            assert a.elapsed_s == b.elapsed_s, key
            assert a.energy.package == b.energy.package, key

    def test_transports_constant_is_deprecated(self):
        import repro.api

        with pytest.warns(DeprecationWarning, match="TRANSPORTS"):
            assert repro.api.TRANSPORTS == ("auto", "shm", "pickle")
        assert "TRANSPORTS" not in repro.api.__all__
        with pytest.raises(AttributeError):
            repro.api.NO_SUCH_NAME

    def test_plain_usage_does_not_warn(self, machine, recwarn):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            EnergyPerformanceStudy(machine, config=StudyConfig(**CFG)).run()


class TestAvailableEngines:
    def test_probe_covers_the_registry(self):
        from repro.api import available_engines

        probes = available_engines()
        assert set(probes) == {"reference", "fast", "compiled"}
        assert probes["reference"] == (True, "scalar oracle (pure Python)")
        assert probes["fast"] == (True, "vectorized numpy kernel")
        ok, detail = probes["compiled"]
        assert isinstance(ok, bool) and detail

    def test_compiled_probe_honours_toolchain_override(self, monkeypatch):
        from repro.api import available_engines

        monkeypatch.setenv("REPRO_COMPILED_TOOLCHAIN", "none")
        ok, detail = available_engines()["compiled"]
        assert not ok
        assert "REPRO_COMPILED_TOOLCHAIN=none" in detail

    def test_run_options_accept_compiled(self):
        assert RunOptions(engine="compiled").engine == "compiled"

    def test_compiled_study_matches_fast(self, machine):
        from repro.runtime.compiledpath import compiled_available

        if not compiled_available()[0]:
            pytest.skip("compiled engine unavailable")
        fast = Study(machine, **CFG).run(RunOptions(engine="fast"))
        comp = Study(machine, **CFG).run(RunOptions(engine="compiled"))
        for key in fast.result.runs:
            f, c = fast.result.runs[key], comp.result.runs[key]
            assert f.elapsed_s == c.elapsed_s
            assert f.energy.package == c.energy.package
