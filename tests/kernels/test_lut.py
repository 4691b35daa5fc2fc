"""Table-driven rounding: exhaustive equivalence with the bitwise kernels.

The acceptance bar: for every table format with ≤ 16 bits, ``round``
must agree with the reference rounder on **every pattern value and
every decision-boundary neighbourhood** — compared bit-for-bit (signbit
of zeros included), not just by value.  The probes come from a
test-local table over every bit pattern (:mod:`tests.table_reference`).
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.formats.ieee import IEEEFormat
from repro.formats.posit_format import PositFormat
from repro.formats.registry import get_format
from repro.formats.rounding_modes import DirectedIEEEFormat
from repro.kernels import lut
from tests.table_reference import full_table, registered_narrow_formats


def _hooked_formats():
    """Every registered ≤ 16-bit table format, plus the dynamic
    registrations and directed modes that widen the sweep."""
    return registered_narrow_formats() + [
        get_format("posit12es0"), get_format("ieee10p5e4"),
        DirectedIEEEFormat(8, 4, "toward_zero"),
        DirectedIEEEFormat(8, 4, "up")]


def _reference(fmt):
    return fmt._bitwise_round if isinstance(fmt, PositFormat) \
        else fmt._round_impl


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _assert_bit_identical(got, want):
    g, w = _bits(got), _bits(want)
    both_nan = np.isnan(got) & np.isnan(want)
    bad = (g != w) & ~both_nan
    assert not bad.any(), (
        f"{bad.sum()} divergences, first at index "
        f"{np.flatnonzero(bad)[0]}")


@pytest.mark.parametrize("fmt", _hooked_formats(),
                         ids=lambda f: f.name)
class TestExhaustiveEquivalence:
    def test_every_pattern_and_boundary_neighbourhood(self, fmt):
        table = full_table(fmt)
        ref = _reference(fmt)
        bnd = table.boundaries[np.isfinite(table.boundaries)]
        with np.errstate(over="ignore"):
            probes = np.concatenate([
                table.values[np.isfinite(table.values)],
                bnd,                          # first float rounding up
                np.nextafter(bnd, -np.inf),   # last float rounding down
                np.nextafter(bnd, np.inf),
            ])
        probes = np.concatenate([probes, -probes])
        _assert_bit_identical(fmt.round(probes), ref(probes.copy()))

    def test_specials_and_zero_signs(self, fmt):
        values = full_table(fmt).values
        ref = _reference(fmt)
        tiny = np.min(np.abs(values[values != 0.0]))
        probes = np.array([0.0, -0.0, np.inf, -np.inf, np.nan,
                           5e-324, -5e-324, 1e308, -1e308,
                           tiny / 4, -tiny / 4])
        got = fmt.round(probes)
        want = ref(probes.copy())
        _assert_bit_identical(got, want)
        assert np.signbit(got[1]) == np.signbit(want[1])

    def test_random_wide_range(self, fmt):
        import zlib
        rng = np.random.default_rng(zlib.crc32(fmt.name.encode()))
        probes = rng.standard_normal(5000) * \
            10.0 ** rng.integers(-40, 40, 5000)
        _assert_bit_identical(fmt.round(probes),
                              _reference(fmt)(probes.copy()))


def _spy_scalar_tier(monkeypatch, fmt) -> list:
    """Record every value *fmt* rounds through its scalar tier."""
    seen = []
    rs = fmt._scalar_rounder()
    monkeypatch.setattr(fmt, "_scalar_rounder",
                        lambda: lambda x: seen.append(x) or rs(x))
    return seen


class TestDispatch:
    def test_small_arrays_take_the_table(self, monkeypatch):
        """Up to TINY_N elements take the scalar tier over the
        two-level table; every larger array takes its array path."""
        assert lut.TINY_N == 8
        for name in ("posit8es0", "posit16es1", "bf16", "fp8e4m3",
                     "takum16"):
            fmt = get_format(name)
            table = fmt._two_level_table()
            assert fmt._scalar_rounder().__self__ is table
            calls = []
            orig = table.round_array
            monkeypatch.setattr(table, "round_array",
                                lambda arr, calls=calls, orig=orig:
                                calls.append(arr.size) or orig(arr))
            scalars = _spy_scalar_tier(monkeypatch, fmt)
            fmt.round(np.linspace(0.1, 1.0, 8))
            assert calls == [] and len(scalars) == 8, name
            for n in (9, 256, 257, 1025):
                fmt.round(np.linspace(0.1, 1.0, n))
            assert calls == [9, 256, 257, 1025], name
            assert len(scalars) == 8, name

    @pytest.mark.parametrize("name", ["posit16es1", "posit32es2", "bf16",
                                      "takum32"])
    def test_lut_off_sends_scalars_and_tiny_arrays_to_the_reference(
            self, monkeypatch, name):
        fmt = get_format(name)
        ref = fmt._round_impl
        calls = []
        monkeypatch.setattr(lut, "_ENABLED", False)
        monkeypatch.setattr(fmt, "_scalar_rounder",
                            lambda: pytest.fail("scalar tier with LUT off"))
        monkeypatch.setattr(fmt, "_round_impl",
                            lambda arr: calls.append(arr.size) or ref(arr))
        assert fmt.round(0.3) == float(ref(np.array([0.3]))[0])
        assert fmt.round(np.float64(0.3)) == fmt.round(0.3)
        x = np.linspace(0.1, 1.0, 8)
        np.testing.assert_array_equal(fmt.round(x), ref(x.copy()))
        assert calls == [1, 1, 1, 8]

    def test_wide_formats_never_build_tables(self):
        """Native casts (fp32, fp64) round without any table."""
        lut.clear_tables()
        try:
            for name in ("fp32", "fp64"):
                fmt = get_format(name)
                assert fmt.__class__.__name__ == "NativeIEEEFormat"
                for n in (1, 9, 300):
                    fmt.round(np.linspace(0.1, 1.0, n))
                fmt.round(0.3)
            assert lut._CACHE == {}
        finally:
            lut.clear_tables()

    def test_scalar_round_matches_array_round(self):
        fmt = get_format("posit16es2")
        for v in (0.3, -0.3, 1e30, -0.0, float("inf")):
            got = fmt.round(v)
            want = float(fmt.round(np.array([v]))[0])
            assert (got == want or (np.isnan(got) and np.isnan(want)))
            assert np.signbit(got) == np.signbit(want)

    def test_table_cache_is_keyed_and_shared(self):
        lut.clear_tables()
        try:
            a = PositFormat(10, 1)._two_level_table()
            b = PositFormat(10, 1)._two_level_table()
            c = PositFormat(10, 2)._two_level_table()
            assert a is b
            assert a is not c
            # directed modes key on the mode too
            d = DirectedIEEEFormat(8, 4, "down")._two_level_table()
            e = DirectedIEEEFormat(8, 4, "up")._two_level_table()
            assert d is not e
        finally:
            lut.clear_tables()

    def test_env_off_disables_the_table_path(self):
        code = (
            "import numpy as np\n"
            "from repro.kernels import lut\n"
            "from repro.formats.registry import get_format\n"
            "assert not lut.lut_enabled()\n"
            "fmt = get_format('posit16es1')\n"
            "x = np.linspace(0.1, 1.0, 8)\n"
            "out = fmt.round(x)\n"
            "np.testing.assert_array_equal(out, fmt._bitwise_round(x))\n"
            "assert fmt._table2 is None  # table never built\n"
        )
        env = dict(os.environ, REPRO_LUT="off",
                   PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=env)


class TestBuildContract:
    def test_rejects_degenerate_value_sets(self):
        with pytest.raises(ValueError):
            lut.RoundingTable.build(np.array([1.0, 1.0, np.nan]),
                                    lambda a: a)

    def test_ieee_and_posit_tables_have_full_pattern_coverage(self):
        """Every pattern value is a fixed point of the format's table."""
        p = get_format("posit8es0")
        vals = full_table(p).values
        assert vals.size == 255  # 256 minus NaR
        _assert_bit_identical(p.round(vals), vals)
        f = get_format("fp8e4m3")
        assert isinstance(f, IEEEFormat)
        vals = full_table(f).values
        # ±inf bracket the value set; extremes of the finite range present
        assert np.isneginf(vals[0]) and np.isposinf(vals[-1])
        assert f.max_value in vals and f.min_positive in vals
        _assert_bit_identical(f.round(vals), vals)


def test_microbench_pairs_table_with_bitwise(monkeypatch):
    """The kernel microbench times ``round`` against the bitwise
    rounder and refuses a pair whose bits differ."""
    from repro.kernels.bench import microbench

    def bench():
        return microbench(formats=("posit16es1",), sizes=(32,),
                          ctx_formats=(), repeats=1,
                          only=("quantize/",))["quantize/posit16es1/n32"]
    entry = bench()
    assert entry["speedup_vs_bitwise"] > 0 and entry["bitwise_s"] > 0
    monkeypatch.setattr(get_format("posit16es1"), "_bitwise_round",
                        lambda x: -x)
    with pytest.raises(AssertionError, match="differs from its reference"):
        bench()
