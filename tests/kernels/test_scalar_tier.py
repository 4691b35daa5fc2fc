"""The scalar and tiny-array rounding tier against the array tables.

A Python float, a 0-d value or an array of any shape with at most
``lut.TINY_N`` elements rounds through each table's pure-Python
``round_scalar`` (native fp16/fp32: one scalar cast).  Both must reproduce the array
path bit for bit — compared as int64 views, NaN matched by class — on
the inputs where rounding can tip: signed zeros, subnormals, ±inf,
NaN, ±max, every decision boundary with its float64 neighbours (of the
table's tail and, for ≤ 16-bit formats, of a full-enumeration table),
and a boundary-biased random sample.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats.ieee import IEEEFormat
from repro.formats.native import FLOAT16, NativeIEEEFormat
from repro.formats.registry import get_format
from repro.formats.rounding_modes import (DirectedIEEEFormat,
                                          StochasticRounding)
from repro.kernels import lut
from tests.table_reference import full_table

_REGISTERED = ("posit8es0", "posit16es1", "posit16es2", "posit32es2",
               "posit32es3", "takum16", "takum32", "bf16", "fp8e4m3",
               "fp8e5m2", "fp16", "fp32")


def _formats():
    params = [pytest.param(get_format(n), id=n) for n in _REGISTERED]
    # the base ext-stochastic wraps, then the steps and post hooks the
    # registry does not reach: directed modes and a wide emulated IEEE
    params.append(pytest.param(StochasticRounding(FLOAT16).base,
                               id="fp16_sr-base"))
    for fmt in (DirectedIEEEFormat(8, 4, "down"),
                DirectedIEEEFormat(8, 4, "up"),
                DirectedIEEEFormat(24, 8, "toward_zero"),
                IEEEFormat(24, 8)):
        params.append(pytest.param(fmt, id=fmt.name))
    return params


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _assert_bit_identical(got, want, probes):
    got, want = np.asarray(got), np.asarray(want)
    nan_got, nan_want = np.isnan(got), np.isnan(want)
    bad = (nan_got != nan_want) | ((_bits(got) != _bits(want))
                                   & ~nan_want)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        pytest.fail(f"{bad.sum()} divergences, first at probe "
                    f"{probes[i]!r}: got {got[i]!r}, want {want[i]!r}")


def _array_rounder(fmt):
    """The array path the scalar tier must reproduce."""
    if isinstance(fmt, NativeIEEEFormat):
        return fmt.round  # arrays never take the scalar cast
    return fmt._two_level_table().round_array


def _specials(fmt) -> np.ndarray:
    tiny = np.finfo(np.float64).tiny
    x = np.array([0.0, 5e-324, 3 * 5e-324, tiny / 3, np.nextafter(tiny, 0),
                  tiny, 1.7976931348623157e308, fmt.max_value,
                  fmt.max_value * 1.001, np.nextafter(fmt.max_value, 0),
                  np.nextafter(fmt.max_value, np.inf), fmt.min_positive,
                  fmt.min_positive / 2, fmt.min_positive * 0.75,
                  np.nextafter(fmt.min_positive, 0), 1.0, 0.1, np.inf])
    return np.concatenate([x, -x, [np.nan]])


def _boundaries(fmt) -> np.ndarray:
    """Every decision boundary (for natives: the midpoint between
    adjacent values) with its float64 neighbours."""
    if isinstance(fmt, NativeIEEEFormat):
        if fmt.nbits == 16:  # every finite positive pattern
            v = np.arange(0x7C00, dtype=np.uint16).view(np.float16)
        else:
            rng = np.random.default_rng(32)
            v = rng.integers(0, 0x7F800000, 50_000,
                             dtype=np.uint32).view(np.float32)
        nxt = np.nextafter(v, v.dtype.type(np.inf))
        b = (v.astype(np.float64) + nxt.astype(np.float64)) / 2.0
    else:
        tables = [fmt._two_level_table().tail]
        if fmt.nbits <= lut.MAX_TABLE_BITS:
            tables.append(full_table(fmt))
        b = np.concatenate([t.boundaries for t in tables])
        b = b[np.isfinite(b)]
    with np.errstate(over="ignore"):
        b = np.concatenate([b, np.nextafter(b, -np.inf),
                            np.nextafter(b, np.inf)])
    return np.concatenate([b, -b])


def _sample(fmt, n: int = 4000) -> np.ndarray:
    """Log-uniform over (and past) the format's range, plus each
    value's affine-bucket tie point and its neighbours."""
    rng = np.random.default_rng(fmt.nbits * 7919 + len(fmt.name))
    lo = np.log2(fmt.min_positive) - 4
    hi = min(np.log2(fmt.max_value) + 4, 1023.0)
    x = np.exp2(rng.uniform(lo, hi, n)) * rng.choice([-1.0, 1.0], n)
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(fmt, NativeIEEEFormat):
            g = np.spacing(np.abs(x.astype(fmt.dtype))).astype(np.float64)
        else:
            e = np.frexp(x)[1] - lut.FREXP_E_LO
            g = fmt._two_level_table().granules[e]
        ties = (np.floor(x / g) + 0.5) * g
    ties = ties[np.isfinite(ties)]
    return np.concatenate([x, ties, np.nextafter(ties, -np.inf),
                           np.nextafter(ties, np.inf)])


def _probes(fmt) -> np.ndarray:
    return np.concatenate([_specials(fmt), _boundaries(fmt),
                           _sample(fmt)])


def _tiny_chunks(x: np.ndarray):
    """*x* split into consecutive 1-D arrays of 1..TINY_N elements."""
    i, size = 0, 1
    while i < x.size:
        yield x[i:i + size]
        i += size
        size = size % lut.TINY_N + 1


@pytest.mark.parametrize("fmt", _formats())
class TestScalarTier:
    def test_scalars_match_the_array_path(self, fmt):
        probes = _probes(fmt)
        got = [fmt.round(v) for v in probes.tolist()]
        assert all(type(v) is float for v in got)
        _assert_bit_identical(np.array(got),
                              _array_rounder(fmt)(probes.copy()), probes)

    def test_zero_d_inputs_match_python_floats(self, fmt):
        probes = _specials(fmt)
        want = np.array([fmt.round(v) for v in probes.tolist()])
        _assert_bit_identical(
            np.array([fmt.round(np.float64(v)) for v in probes]), want,
            probes)
        _assert_bit_identical(
            np.array([fmt.round(np.array(v)) for v in probes]), want,
            probes)

    def test_tiny_arrays_match_the_array_path(self, fmt):
        probes = _probes(fmt)
        chunks = list(_tiny_chunks(probes))
        outs = [fmt.round(c) for c in chunks]
        assert all(o.shape == c.shape and o.dtype == np.float64
                   for o, c in zip(outs, chunks))
        got = np.concatenate(outs)
        _assert_bit_identical(got, _array_rounder(fmt)(probes.copy()),
                              probes)


def test_empty_array_keeps_its_shape_and_dtype():
    for name in ("posit32es2", "posit16es1", "fp32"):
        out = get_format(name).round(np.array([]))
        assert out.shape == (0,) and out.dtype == np.float64


def _two_level_formats():
    return [p for p in _formats()
            if not isinstance(p.values[0], NativeIEEEFormat)]


@pytest.mark.parametrize("fmt", _two_level_formats())
@pytest.mark.parametrize("shape", [(1, 1), (4, 1), (8, 1), (2, 2, 2),
                                   (0,)])
def test_tiny_tier_takes_any_shape(fmt, shape, monkeypatch):
    """An array of at most TINY_N elements, whatever its shape, rounds
    through the scalar loop (a lane stack's last fold levels are
    ``(B, 1)``) with the array path's bits and its own shape."""
    table = fmt._two_level_table()
    x = np.array([np.nan, -0.0, np.inf, 0.0, -np.inf, 1.0 / 3.0,
                  -fmt.max_value * 3.0, fmt.min_positive / 3.0])
    x = x[:int(np.prod(shape))].reshape(shape)
    want = table.round_array(x.copy())

    def no_array_path(arr):  # pragma: no cover - must not run
        raise AssertionError(f"{arr.shape} took the array path")
    monkeypatch.setattr(table, "round_array", no_array_path)
    got = fmt.round(x)
    assert got.shape == shape and got.dtype == np.float64
    _assert_bit_identical(got.ravel(), want.ravel(), x.ravel())


@pytest.mark.parametrize("fmt", _two_level_formats())
def test_every_table_scalar_path(fmt):
    """The table's ``round_scalar`` called directly, not through the
    dispatch."""
    probes = _probes(fmt)
    table = fmt._two_level_table()
    got = np.array([table.round_scalar(v) for v in probes.tolist()])
    _assert_bit_identical(got, table.round_array(probes.copy()), probes)


@pytest.mark.parametrize("fmt", _two_level_formats())
def test_two_level_round_array_raises_no_flag(fmt):
    """No input from any frexp bucket raises a floating-point flag.

    The fast path enters no errstate; the post path silences only the
    top bucket's overflow to 2**1024 (emulated IEEE formats)."""
    e = np.arange(lut.FREXP_E_LO, lut.FREXP_E_LO + lut.FREXP_E_TABLE)
    rng = np.random.default_rng(3)
    with np.errstate(over="ignore"):
        top = np.nextafter(np.ldexp(1.0, e), 0.0)  # 2**1024 -> max
    x = np.concatenate([np.ldexp(0.5, e), top,
                        np.ldexp(rng.uniform(0.5, 1.0, e.size), e)])
    x = np.concatenate([x, -x, [0.0, -0.0, np.inf, -np.inf, np.nan]])
    table = fmt._two_level_table()
    with np.errstate(all="raise"):
        table.round_array(x)
        for v in x.tolist():
            table.round_scalar(v)
