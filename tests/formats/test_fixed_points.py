"""Fixed-point contract of ``round``: values it must return unchanged.

``FPContext.outer`` and ``FPContext.sub_outer`` round only the nonzero
block of a rank-1 update.  That is exact because every entry outside
the block is ±0, NaN or an entry of a matrix that already holds format
values, and ``round`` maps each of those to itself, bit for bit.  This
test pins that contract for every registered format, the directed IEEE
modes and stochastic rounding, on every rounding tier (Python float,
0-d, tiny, dense-table and two-level arrays), with the rounding tables
on and off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats import get_format
from repro.formats.registry import available_formats
from repro.formats.rounding_modes import DirectedIEEEFormat, StochasticRounding
from repro.kernels import lut

_REGISTERED = sorted(available_formats())
_DIRECTED = [(p, w, mode) for p, w in ((11, 5), (8, 8))
             for mode in ("toward_zero", "down", "up")]
_STOCHASTIC = ("fp16", "bf16", "posit16es1", "posit32es2", "takum16")

#: array lengths reaching each tier: tiny loop, dense table, two-level
_SIZES = (3, 100, 2000)


def _make(kind: str, spec):
    if kind == "registered":
        return get_format(spec)
    if kind == "directed":
        return DirectedIEEEFormat(*spec)
    return StochasticRounding(get_format(spec), seed=3)


_CASES = ([("registered", n) for n in _REGISTERED]
          + [("directed", s) for s in _DIRECTED]
          + [("stochastic", n) for n in _STOCHASTIC])


def _fixed_points(fmt, rng) -> np.ndarray:
    """±0, NaN, ±max, ±minpos and a sample of format values."""
    base = getattr(fmt, "base", fmt)
    mags = np.exp(rng.uniform(np.log(fmt.min_positive),
                              np.log(fmt.max_value), 64))
    sample = np.asarray(base.round(mags * rng.choice([-1.0, 1.0], 64)))
    special = np.array([0.0, -0.0, np.nan, fmt.max_value, -fmt.max_value,
                        fmt.min_positive, -fmt.min_positive])
    return np.concatenate([special, sample[np.isfinite(sample)]])


def _same_bits(got, want) -> bool:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    nan = np.isnan(want)
    return (got.shape == want.shape
            and np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.int64),
                               want[~nan].view(np.int64)))


def _rng_state(fmt):
    rng = getattr(fmt, "_rng", None)
    return None if rng is None else rng.bit_generator.state


@pytest.mark.parametrize("tables", [True, False], ids=["lut", "nolut"])
@pytest.mark.parametrize("kind,spec", _CASES,
                         ids=[f"{k}-{s}" for k, s in _CASES])
def test_round_returns_fixed_points_unchanged(kind, spec, tables,
                                              monkeypatch):
    monkeypatch.setattr(lut, "_ENABLED", tables)
    fmt = _make(kind, spec)
    values = _fixed_points(fmt, np.random.default_rng(11))
    state = _rng_state(fmt)
    for v in values.tolist():
        for scalar in (v, np.float64(v), np.array(v)):
            assert _same_bits(fmt.round(scalar), v), (fmt, scalar)
    for n in _SIZES:
        arr = np.resize(values, n)
        assert _same_bits(fmt.round(arr), arr), (fmt, n)
    square = np.resize(values, (40, 50))
    assert _same_bits(fmt.round(square), square), fmt
    # a call on fixed points only must not draw random numbers
    assert _rng_state(fmt) == state

