"""RunRequest — the normalized knob bundle behind CLI/library/service."""

from __future__ import annotations

import pytest

from repro.config import SCALES
from repro.request import RunRequest


class TestDefaults:
    def test_defaults(self):
        r = RunRequest()
        assert r.scale == "small" and r.jobs == 1
        assert r.timeout is None and r.retries == 1
        assert r.cache == "on" and r.trace is False

    def test_run_scale_resolution(self):
        assert RunRequest(scale="smoke").run_scale is SCALES["smoke"]

    def test_cache_enabled(self):
        assert RunRequest().cache_enabled
        assert not RunRequest(cache="off").cache_enabled


class TestValidation:
    @pytest.mark.parametrize("bad", [
        {"scale": "galactic"}, {"jobs": 0}, {"jobs": -1},
        {"timeout": 0.0}, {"timeout": -5}, {"retries": -1},
        {"backoff": -0.1}, {"grace": 0.0}, {"max_worker_deaths": 0},
        {"cache": "maybe"},
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


class TestWireForm:
    def test_round_trip(self):
        r = RunRequest(scale="smoke", jobs=4, timeout=12.5, retries=2,
                       trace=True, cache="off")
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

    @pytest.mark.parametrize("facade", ["run_experiment", "submit"])
    @pytest.mark.parametrize("scale", ["smoke", SCALES["smoke"], None],
                             ids=["name", "RunScale", "None"])
    def test_scale_spellings(self, facade, scale, monkeypatch):
        """Both façades normalize the scale through RunRequest.make."""
        import repro
        monkeypatch.setenv("REPRO_SCALE", "smoke")  # what None means
        if facade == "run_experiment":
            result = repro.run_experiment("fig6", scale=scale, quiet=True)
        else:
            result = repro.submit(["fig6"], scale=scale)["fig6"]
        want = repro.run_experiment("fig6", request=RunRequest(
            scale="smoke"), quiet=True)
        assert result.text == want.text

    @pytest.mark.parametrize("facade", ["run_experiment", "submit"])
    def test_unknown_scale_is_rejected(self, facade):
        import repro
        call = (repro.run_experiment if facade == "run_experiment"
                else repro.submit)
        with pytest.raises(ValueError, match="unknown scale 'galactic'"):
            call("fig6", scale="galactic")

    def test_context_accepts_request(self):
        import repro
        ctx = repro.context("fp32", request=RunRequest(trace=True))
        assert ctx.collector is not None
