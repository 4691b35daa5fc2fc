"""The ``post`` hook lives in level 1 of the two-level table.

Formats with an overflow or saturation rule (emulated IEEE, directed
IEEE, linear takum) apply it only in the *post buckets*: the affine
buckets whose result can leave the hook's identity span — an IEEE
format's top binade and above, takum's two end binades.  Inputs there
must round bit-identically to the reference on every tier (array,
tiny, scalar), and inputs anywhere else must never call the hook nor
enter an ``np.errstate``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats.ieee import IEEEFormat
from repro.formats.registry import get_format
from repro.formats.rounding_modes import DirectedIEEEFormat
from repro.kernels import lut


def _post_formats():
    fmts = [get_format(n) for n in ("bf16", "fp8e4m3", "fp8e5m2",
                                    "takum16", "takum32")]
    fmts += [DirectedIEEEFormat(8, 4, mode)
             for mode in ("toward_zero", "down", "up")]
    fmts += [DirectedIEEEFormat(24, 8, "toward_zero"), IEEEFormat(24, 8)]
    return fmts


def _post_exponents(table) -> np.ndarray:
    """frexp exponents of the table's post buckets."""
    post = ~np.isnan(table._post_granules)
    return np.flatnonzero(np.roll(post, -lut.FREXP_E_LO)) + lut.FREXP_E_LO


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


def _post_probes(fmt) -> np.ndarray:
    """Every post bucket's edges and a random sample inside it, the
    values around max and minpos, ±inf and NaN."""
    e = _post_exponents(fmt._two_level_table())
    rng = np.random.default_rng(fmt.nbits)
    with np.errstate(over="ignore"):
        top = np.nextafter(np.ldexp(1.0, e), 0.0)
        x = [np.ldexp(0.5, e), top,
             np.ldexp(rng.uniform(0.5, 1.0, (4, e.size)), e).ravel(),
             np.nextafter(fmt.max_value, np.inf) * np.array([1.0, 1.001]),
             [fmt.max_value, np.nextafter(fmt.max_value, 0.0),
              fmt.min_positive, fmt.min_positive / 2,
              fmt.min_positive * 0.75,
              np.nextafter(fmt.min_positive, 0.0),
              1.7976931348623157e308, 5e-324, np.inf]]
    x = np.concatenate([np.ravel(a) for a in x])
    x = x[x != 0.0]
    return np.concatenate([x, -x, [np.nan]])


def _in_span_probes(fmt) -> np.ndarray:
    """Finite inputs from every fast bucket, plus the [0.1, 3] band."""
    table = fmt._two_level_table()
    fast = np.roll(~np.isnan(table._fast_granules), -lut.FREXP_E_LO)
    e = np.flatnonzero(fast) + lut.FREXP_E_LO
    rng = np.random.default_rng(fmt.nbits + 1)
    x = np.concatenate([np.ldexp(0.5, e),
                        np.ldexp(rng.uniform(0.5, 1.0, e.size), e),
                        rng.uniform(0.1, 3.0, 64)])
    return np.concatenate([x, -x, [0.0, -0.0]])


@pytest.mark.parametrize("fmt", _post_formats(), ids=lambda f: f.name)
class TestPostBuckets:
    def test_post_buckets_are_the_range_ends(self, fmt):
        """IEEE: the top binade and every bucket above it; takum: the
        bottom and top binades."""
        e = _post_exponents(fmt._two_level_table())
        top = int(np.frexp(fmt.max_value)[1])
        if isinstance(fmt, IEEEFormat):
            np.testing.assert_array_equal(e, np.arange(top, 1025))
        else:
            assert e.tolist() == [-254, top]

    def test_array_tier_matches_the_reference(self, fmt):
        probes = _post_probes(fmt)
        big = np.tile(probes, 2)  # well above TINY_N
        with np.errstate(all="raise"):
            got = fmt.round(big)
        _assert_bit_identical(got, fmt._round_impl(big.copy()), big)

    def test_tiny_and_scalar_tiers_match_the_reference(self, fmt):
        probes = _post_probes(fmt)
        want = fmt._round_impl(probes.copy())
        tiny = np.concatenate([fmt.round(probes[i:i + lut.TINY_N])
                               for i in range(0, probes.size, lut.TINY_N)])
        _assert_bit_identical(tiny, want, probes)
        scalars = np.array([fmt.round(v) for v in probes.tolist()])
        _assert_bit_identical(scalars, want, probes)

    def test_in_span_inputs_skip_the_hook_and_errstate(self, fmt,
                                                       monkeypatch):
        table = fmt._two_level_table()
        probes = _in_span_probes(fmt)
        want = fmt._round_impl(probes.copy())
        hooked, entered = [], []
        post = table._post
        monkeypatch.setattr(table, "_post",
                            lambda r: hooked.append(r.size) or post(r))

        class CountingErrstate(np.errstate):
            def __enter__(self):
                entered.append(1)
                return super().__enter__()
        monkeypatch.setattr(np, "errstate", CountingErrstate)

        got = fmt.round(probes)
        tiny = fmt.round(probes[:lut.TINY_N])
        scalars = np.array([fmt.round(v) for v in probes.tolist()])
        assert hooked == [] and entered == []
        _assert_bit_identical(got, want, probes)
        _assert_bit_identical(tiny, want[:lut.TINY_N], probes)
        _assert_bit_identical(scalars, want, probes)

        # the spies do see the post path
        fmt.round(np.full(2 * lut.TINY_N,
                          np.nextafter(fmt.max_value, np.inf)))
        assert hooked and entered
