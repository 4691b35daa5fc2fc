"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.arith import FPContext
from repro.config import SCALES
from repro.matrices import random_dense_spd

try:  # property tests are skipped gracefully where hypothesis is absent
    from hypothesis import settings as _hyp_settings

    # "ci" pins the example sequence (derandomized ⇒ reproducible runs)
    _hyp_settings.register_profile("ci", derandomize=True,
                                   max_examples=100, print_blob=True)
    _hyp_settings.register_profile("dev", max_examples=100)
    _hyp_settings.load_profile(
        os.environ.get("HYPOTHESIS_PROFILE", "dev"))
except ImportError:  # pragma: no cover
    pass


@pytest.fixture(scope="session", autouse=True)
def _results_dir(tmp_path_factory):
    """Keep test artifacts (CSVs, result cache) out of the repo tree.

    Individual tests still override with their own tmp_path via
    monkeypatch; this only changes the default for tests that call
    suite helpers directly.
    """
    if "REPRO_RESULTS_DIR" not in os.environ:
        os.environ["REPRO_RESULTS_DIR"] = str(
            tmp_path_factory.mktemp("test-results"))
    yield


@pytest.fixture
def folds(monkeypatch):
    """Count the segmented folds ``FPContext.matvec`` makes: one per
    call on a fold tape."""
    from repro.arith import context

    calls = []
    inner = context.segmented_fold

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)
    monkeypatch.setattr(context, "segmented_fold", counted)
    return calls


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture(scope="session")
def small_scale():
    """The 'small' run scale used for all experiment-level tests."""
    return SCALES["small"]


@pytest.fixture(scope="session")
def spd_60():
    """A well-conditioned dense SPD test matrix (n=60, κ=1e3, ‖A‖=1)."""
    return random_dense_spd(60, kappa=1.0e3, seed=42)


@pytest.fixture(scope="session")
def spd_system(spd_60):
    """(A, b, x̂) with the paper's right-hand-side recipe."""
    n = spd_60.shape[0]
    xhat = np.full(n, 1.0 / np.sqrt(n))
    return spd_60, spd_60 @ xhat, xhat


@pytest.fixture(params=["fp32", "posit32es2", "posit16es2", "fp16"])
def any_ctx(request) -> FPContext:
    """An emulated-arithmetic context for each major format."""
    return FPContext(request.param)


@pytest.fixture
def fp64_ctx() -> FPContext:
    return FPContext("fp64")


def pytest_addoption(parser):
    parser.addoption(
        "--tier2", action="store_true", default=False,
        help="run tier-2 exhaustive conformance sweeps (nightly tier); "
             "REPRO_TIER2=1 in the environment has the same effect")


def tier2_enabled(config) -> bool:
    return bool(config.getoption("--tier2")
                or os.environ.get("REPRO_TIER2"))


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running integration test")
    config.addinivalue_line(
        "markers", "tier1: fast conformance checks, run on every PR")
    config.addinivalue_line(
        "markers", "tier2: exhaustive conformance sweeps (nightly); "
                   "skipped unless --tier2 or REPRO_TIER2=1")


def pytest_collection_modifyitems(config, items):
    if tier2_enabled(config):
        return
    skip = pytest.mark.skip(
        reason="tier-2 exhaustive sweep; enable with --tier2 or "
               "REPRO_TIER2=1")
    for item in items:
        if "tier2" in item.keywords:
            item.add_marker(skip)
