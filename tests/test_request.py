"""RunRequest — the normalized knob bundle behind CLI/library/service."""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.config import SCALES
from repro.request import RunRequest
from tests.service.test_server import loop, serve  # noqa: F401


class TestDefaults:
    def test_defaults(self):
        r = RunRequest()
        assert r.scale == "small" and r.jobs == 1
        assert r.timeout is None and r.retries == 1
        assert r.trace is False

    def test_run_scale_resolution(self):
        assert RunRequest(scale="smoke").run_scale is SCALES["smoke"]

    def test_knobs_are_the_fields(self):
        names = [f.name for f in dataclasses.fields(RunRequest)]
        assert names == ["scale", "jobs", "timeout", "retries", "backoff",
                         "grace", "max_worker_deaths", "trace"]
        assert RunRequest.KNOBS == frozenset(names)
        assert list(RunRequest.FLAGS) == names

    @pytest.mark.parametrize("spelling", ["FULL", " full ", "Full"])
    def test_scale_names_are_normalized(self, spelling):
        assert RunRequest(scale=spelling).scale == "full"
        assert RunRequest.make(scale=spelling).scale == "full"


class TestValidation:
    @pytest.mark.parametrize("bad", [
        {"scale": "galactic"}, {"jobs": 0}, {"jobs": -1},
        {"timeout": 0.0}, {"timeout": -5}, {"retries": -1},
        {"backoff": -0.1}, {"grace": 0.0}, {"max_worker_deaths": 0},
        {"scale": " "},
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            RunRequest(**bad)

    def test_replace_revalidates(self):
        r = RunRequest()
        assert r.replace(jobs=8).jobs == 8
        with pytest.raises(ValueError):
            r.replace(jobs=0)


class TestMake:
    def test_env_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        monkeypatch.setenv("REPRO_JOBS", "3")
        r = RunRequest.make()
        assert r.scale == "smoke" and r.jobs == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "medium")
        r = RunRequest.make(scale="smoke", jobs=2)
        assert r.scale == "smoke" and r.jobs == 2

    def test_accepts_runscale_object(self):
        assert RunRequest.make(scale=SCALES["smoke"]).scale == "smoke"

    def test_forwards_knobs(self):
        r = RunRequest.make(scale="smoke", timeout=30, retries=0)
        assert r.timeout == 30 and r.retries == 0

    def test_unknown_knob_is_a_type_error(self):
        with pytest.raises(TypeError, match="cache"):
            RunRequest.make(scale="smoke", cache="off")


class TestFlags:
    """Both CLIs declare their knob flags through add_flags."""

    def _parse(self, *argv, knobs=None):
        import argparse
        parser = argparse.ArgumentParser()
        RunRequest.add_flags(parser, knobs)
        return RunRequest.from_flags(parser.parse_args(list(argv)))

    def test_unset_flags_take_the_field_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert self._parse() == RunRequest()

    def test_unset_scale_and_jobs_read_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", " Smoke ")
        monkeypatch.setenv("REPRO_JOBS", "3")
        r = self._parse("--retries", "0")
        assert (r.scale, r.jobs, r.retries) == ("smoke", 3, 0)

    def test_every_flag_reaches_its_knob(self):
        r = self._parse("--scale", "MEDIUM", "--jobs", "2", "--timeout",
                        "9", "--retries", "4", "--backoff", "0.5",
                        "--grace", "2", "--max-worker-deaths", "7",
                        "--trace")
        assert r == RunRequest(scale="medium", jobs=2, timeout=9.0,
                               retries=4, backoff=0.5, grace=2.0,
                               max_worker_deaths=7, trace=True)

    def test_bad_value_names_its_flag(self):
        with pytest.raises(ValueError, match="^--max-worker-deaths: "):
            self._parse("--max-worker-deaths", "0")

    def test_subset_of_flags(self):
        import argparse
        parser = argparse.ArgumentParser()
        RunRequest.add_flags(parser, ("jobs", "grace"))
        flags = {a.dest for a in parser._actions} - {"help"}
        assert flags == {"jobs", "grace"}
        assert self._parse("--grace", "1", knobs=("grace",)).grace == 1.0

    def test_service_cli_refuses_bad_knobs_before_connecting(
            self, capsys, monkeypatch):
        from repro.service.__main__ import main
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--max-worker-deaths", "0"])
        assert exc.value.code == 2
        assert "--max-worker-deaths: " in capsys.readouterr().err
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(SystemExit) as exc:
            main(["submit", "--address", "unix:/nonexistent", "fig6"])
        assert exc.value.code == 2
        assert "REPRO_JOBS" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["submit", "fig6"], ["status"],
        ["quantize", "--fmt", "posit16es1", "0.1"]],
        ids=["submit", "status", "quantize"])
    def test_service_cli_names_an_unreachable_address(self, argv, tmp_path,
                                                      capsys):
        from repro.service.__main__ import main
        address = f"unix:{tmp_path / 'absent.sock'}"
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--address", address, *argv[1:]])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: cannot reach the service at "
                                f"{address}: No such file or directory\n")

    def test_service_cli_refuses_a_malformed_address(self, capsys):
        from repro.service.__main__ import main
        with pytest.raises(SystemExit) as exc:
            main(["status", "--address", "nonsense"])
        assert exc.value.code == 2
        assert "bad service address 'nonsense'" in capsys.readouterr().err

    @pytest.mark.parametrize("cli", ["runner", "serve"])
    def test_help_lists_the_knob_flags(self, cli, capsys):
        knobs = ["--jobs", "--timeout", "--retries", "--backoff",
                 "--grace", "--max-worker-deaths"]
        if cli == "runner":
            from repro.experiments.runner import main
            argv = ["--help"]
            knobs += ["--scale", "--trace"]
        else:
            from repro.service.__main__ import main
            argv = ["serve", "--help"]
        with pytest.raises(SystemExit):
            main(argv)
        out = capsys.readouterr().out
        for flag in knobs:
            assert flag in out


class TestWireForm:
    def test_round_trip(self):
        r = RunRequest(scale="smoke", jobs=4, timeout=12.5, retries=2,
                       trace=True)
        assert RunRequest.from_dict(r.as_dict()) == r

    def test_from_dict_coerces_json_numbers(self):
        r = RunRequest.from_dict({"scale": "smoke", "jobs": 4,
                                  "timeout": 30, "backoff": 2})
        assert r.timeout == 30.0 and isinstance(r.timeout, float)
        assert r.backoff == 2.0

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown RunRequest"):
            RunRequest.from_dict({"scale": "smoke", "workers": 4})

    def test_from_dict_rejects_invalid_values(self):
        with pytest.raises(ValueError):
            RunRequest.from_dict({"scale": "nope"})


class TestFacade:
    """repro.submit / run_experiment / context share the request."""

    def test_request_is_exported(self):
        import repro
        assert repro.RunRequest is RunRequest
        assert "RunRequest" in repro.__all__
        assert "submit" in repro.__all__

    def test_submit_rejects_mixed_forms(self):
        import repro
        with pytest.raises(TypeError, match="not both"):
            repro.submit(["fig6"], RunRequest(), scale="smoke")

    def test_run_experiment_rejects_mixed_forms(self):
        import repro
        with pytest.raises(TypeError, match="not both"):
            repro.run_experiment("fig6", scale=SCALES["smoke"],
                                 request=RunRequest())

    @pytest.mark.parametrize("facade", ["run_experiment", "submit", "cli",
                                        "service"])
    @pytest.mark.parametrize("scale", ["smoke", " SMOKE ", SCALES["smoke"],
                                       None],
                             ids=["name", "spaced", "RunScale", "None"])
    def test_scale_spellings(self, facade, scale, monkeypatch, request):
        """Every entry point normalizes the scale through RunRequest:
        the façades, the runner CLI (a RunScale given by its name) and
        the service client."""
        import repro
        monkeypatch.setenv("REPRO_SCALE", "smoke")  # what None means
        want = repro.run_experiment("fig6", request=RunRequest(
            scale="smoke"), quiet=True)
        if facade == "run_experiment":
            result = repro.run_experiment("fig6", scale=scale, quiet=True)
            assert result.text == want.text
            return
        if facade == "submit":
            result = repro.submit(["fig6"], scale=scale)["fig6"]
            assert result.text == want.text
            return
        if facade == "cli":
            from repro.experiments.runner import main
            expected = open(want.csv_path, "rb").read()
            os.unlink(want.csv_path)
            name = getattr(scale, "name", scale)
            argv = ["fig6"] + ([] if name is None else ["--scale", name])
            assert main(argv) == 0
            assert open(want.csv_path, "rb").read() == expected
            return
        from repro.service.client import Client
        expected = open(want.csv_path, "rb").read()
        server = request.getfixturevalue("serve")()
        with Client(server.address, name="t") as client:
            job = client.submit_experiments(["fig6"], scale=scale)
        assert job.status == "completed"
        assert open(job.experiments["fig6"]["csv_path"], "rb").read() \
            == expected

    @pytest.mark.parametrize("facade", ["run_experiment", "submit", "cli",
                                        "service"])
    def test_unknown_scale_is_rejected(self, facade, capsys, request):
        import repro
        if facade == "cli":
            from repro.experiments.runner import main
            with pytest.raises(SystemExit):
                main(["fig6", "--scale", "galactic"])
            assert "invalid choice: 'galactic'" in capsys.readouterr().err
            return
        if facade == "service":
            from repro.service.client import Client
            server = request.getfixturevalue("serve")()
            with Client(server.address, name="t") as client:
                with pytest.raises(ValueError,
                                   match="unknown scale 'galactic'"):
                    client.submit_experiments(["fig6"], scale="galactic")
                assert client.status()["jobs_submitted"] == 0
            return
        call = (repro.run_experiment if facade == "run_experiment"
                else repro.submit)
        with pytest.raises(ValueError, match="unknown scale 'galactic'"):
            call("fig6", scale="galactic")

    def test_submit_refuses_the_retired_cache_knob(self):
        import repro
        with pytest.raises(TypeError, match="cache"):
            repro.submit(["fig6"], scale="smoke", cache="off")

    def test_context_accepts_request(self):
        import repro
        ctx = repro.context("fp32", request=RunRequest(trace=True))
        assert ctx.collector is not None
