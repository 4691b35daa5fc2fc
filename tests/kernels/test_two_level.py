"""Two-level LUT: exhaustive equivalence with the bitwise kernels.

The two-level (exponent-bucketed) table is the one rounding table of
every table format, so its acceptance bar mirrors
``tests/kernels/test_lut.py``: for every format whose value set can be
enumerated (≤ 16 bits) the two-level path must agree with the
reference rounder on **every representable value, every rounding
decision boundary, and both float64 neighbours of each** — compared
bit-for-bit, with the values taken from a test-local table over every
bit pattern (:mod:`tests.table_reference`).  The wide formats
(posit32es2/es3, binary32) cannot be enumerated; they get
boundary-biased stratified sampling, with the full-depth sweep behind
the ``tier2`` marker like the oracle conformance suites.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats.posit_format import PositFormat
from repro.formats.registry import get_format
from repro.formats.rounding_modes import DirectedIEEEFormat
from repro.kernels import lut
from tests.table_reference import full_table, registered_narrow_formats


def _enumerable_formats():
    """Every ≤ 16-bit table format (full enumeration possible)."""
    fmts = registered_narrow_formats()
    fmts.append(get_format("posit12es0"))
    fmts.append(get_format("ieee10p5e4"))
    fmts.append(DirectedIEEEFormat(8, 4, "toward_zero"))
    fmts.append(DirectedIEEEFormat(8, 4, "down"))
    fmts.append(DirectedIEEEFormat(8, 4, "up"))
    return fmts


def _wide_formats():
    """The beyond-16-bit formats the two-level design targets.

    The registry's ``fp32``/``fp16`` are native casts (never hooked);
    binary32/binary16 emulation goes through explicit ``IEEEFormat``
    instances, exactly as the extension experiments construct them.
    """
    from repro.formats.ieee import IEEEFormat
    return [get_format("posit32es2"), get_format("posit32es3"),
            IEEEFormat(24, 8), IEEEFormat(11, 5)]


def _reference(fmt):
    return fmt._bitwise_round if isinstance(fmt, PositFormat) \
        else fmt._round_impl


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _assert_bit_identical(got, want, probes=None):
    g, w = _bits(got), _bits(want)
    both_nan = np.isnan(got) & np.isnan(want)
    bad = (g != w) & ~both_nan
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        detail = f" probe={probes[i]!r}" if probes is not None else ""
        pytest.fail(f"{bad.sum()} divergences, first at index {i}:"
                    f"{detail} got={got[i]!r} want={want[i]!r}")


def _boundary_probes(values: np.ndarray) -> np.ndarray:
    """Every representable value, every adjacent midpoint, and the
    float64 neighbours of both — the places rounding can tip."""
    v = np.unique(values[np.isfinite(values)])
    mids = (v[:-1] + v[1:]) / 2.0  # exact ties and near-ties
    with np.errstate(over="ignore"):
        probes = np.concatenate([
            v, mids,
            np.nextafter(v, -np.inf), np.nextafter(v, np.inf),
            np.nextafter(mids, -np.inf), np.nextafter(mids, np.inf),
        ])
    return probes


@pytest.mark.parametrize("fmt", _enumerable_formats(),
                         ids=lambda f: f.name)
class TestExhaustiveTwoLevel:
    def test_every_value_boundary_and_neighbourhood(self, fmt):
        ref = _reference(fmt)
        # the full table's values enumerate every finite pattern
        probes = _boundary_probes(full_table(fmt).values)
        probes = np.concatenate([probes, -probes])
        _assert_bit_identical(fmt.round(probes), ref(probes.copy()),
                              probes)

    def test_specials_and_zero_signs(self, fmt):
        ref = _reference(fmt)
        vals = full_table(fmt).values
        tiny = np.min(np.abs(vals[(vals != 0.0) & np.isfinite(vals)]))
        probes = np.array([0.0, -0.0, np.inf, -np.inf, np.nan,
                           5e-324, -5e-324, 1e308, -1e308,
                           tiny / 4, -tiny / 4])
        got = fmt.round(probes)
        want = ref(probes.copy())
        _assert_bit_identical(got, want, probes)
        assert np.signbit(got[1]) == np.signbit(want[1])

    def test_few_slow_lanes_among_fast_ones(self, fmt):
        """0 to TINY_N + 2 lanes outside the fast buckets (tail, post,
        non-finite) in an array of fast ones: the scalar and the vector
        route for the remaining lanes give the reference's bits."""
        ref = _reference(fmt)
        vals = full_table(fmt).values
        vals = vals[np.isfinite(vals)]
        rng = np.random.default_rng(fmt.nbits)
        slow = np.concatenate([
            vals[:4], vals[-4:], vals[:4] / 3, vals[-4:] * 1.5,
            [np.inf, -np.inf, np.nan, 5e-324, -5e-324]])
        for k in range(lut.TINY_N + 3):
            x = rng.uniform(0.75, 1.5, 64) * rng.choice([-1.0, 1.0], 64)
            x[rng.choice(64, k, replace=False)] = rng.choice(slow, k)
            with np.errstate(over="ignore", invalid="ignore"):
                _assert_bit_identical(fmt.round(x), ref(x.copy()), x)


def _stratified_probes(fmt, per_decade: int, seed: int) -> np.ndarray:
    """Boundary-biased stratified sample across the dynamic range.

    Strata are binades (frexp buckets — exactly the two-level table's
    level-1 key): uniform significands per binade, each value also
    perturbed to its float64 neighbours and paired with the midpoint of
    its rounded neighbours, so bucket edges and rounding boundaries are
    hit in every stratum.
    """
    rng = np.random.default_rng(seed)
    lo = int(np.floor(np.log2(fmt.min_positive)))
    hi = int(np.ceil(np.log2(fmt.max_value)))
    exps = np.repeat(np.arange(lo - 1, hi + 1), per_decade)
    mants = rng.uniform(0.5, 1.0, exps.size)
    base = np.ldexp(mants, exps + 1)
    binade_edges = np.ldexp(1.0, np.arange(lo - 1, hi + 2))
    with np.errstate(over="ignore"):
        probes = np.concatenate([
            base, np.nextafter(base, 0), np.nextafter(base, np.inf),
            binade_edges, np.nextafter(binade_edges, 0),
            np.nextafter(binade_edges, np.inf),
        ])
    # midpoints of each probe's rounded bracket: the decision boundary
    r = _reference(fmt)(probes.copy())
    step = np.where(r > 0, np.nextafter(r, np.inf), r)
    mids = (r + step) / 2.0
    probes = np.concatenate([probes, mids[np.isfinite(mids)]])
    return np.concatenate([probes, -probes,
                           np.array([0.0, -0.0, np.inf, -np.inf,
                                     np.nan, fmt.max_value * 1.001,
                                     fmt.min_positive / 2])])


@pytest.mark.parametrize("fobj", _wide_formats(), ids=lambda f: f.name)
def test_wide_formats_stratified(fobj):
    """Smoke-depth stratified sweep: a few probes per binade."""
    probes = _stratified_probes(fobj, per_decade=8, seed=101)
    _assert_bit_identical(fobj._two_level_table().round_array(probes),
                          _reference(fobj)(probes.copy()), probes)


@pytest.mark.tier2
@pytest.mark.parametrize("fobj", _wide_formats(), ids=lambda f: f.name)
def test_wide_formats_stratified_deep(fobj):
    """Tier-2 depth: thousands of boundary-biased probes per binade."""
    for seed in range(5):
        probes = _stratified_probes(fobj, per_decade=2000, seed=seed)
        _assert_bit_identical(
            fobj._two_level_table().round_array(probes),
            _reference(fobj)(probes.copy()), probes)


class TestTwoLevelDispatch:
    def test_above_crossover_takes_two_level(self, monkeypatch):
        """Every ≤ 16-bit array above TINY_N takes the two-level
        table's array path, at any size (no dense tier)."""
        for fmt in registered_narrow_formats():
            table2 = fmt._two_level_table()
            calls = []
            orig = table2.round_array
            monkeypatch.setattr(table2, "round_array",
                                lambda arr, calls=calls, orig=orig:
                                calls.append(arr.size) or orig(arr))
            sizes = (lut.TINY_N + 1, 256, 257, 1025)
            for n in sizes:
                fmt.round(np.linspace(0.1, 1.0, n))
            assert calls == list(sizes), fmt.name

    def test_wide_formats_dispatch_two_level_at_any_size(self,
                                                         monkeypatch):
        """Up to TINY_N elements take the two-level table's scalar
        tier; one more takes its array path."""
        fmt = get_format("posit32es2")
        table2 = fmt._two_level_table()
        assert fmt._scalar_rounder().__self__ is table2
        calls = []
        orig = table2.round_array
        monkeypatch.setattr(table2, "round_array",
                            lambda arr: calls.append(arr.size) or
                            orig(arr))
        seen = []
        rs = fmt._scalar_rounder()
        monkeypatch.setattr(fmt, "_scalar_rounder",
                            lambda: lambda x: seen.append(x) or rs(x))
        assert lut.TINY_N == 8
        fmt.round(np.linspace(0.1, 1.0, 8))
        assert calls == [] and len(seen) == 8
        fmt.round(np.linspace(0.1, 1.0, 9))
        assert calls == [9] and len(seen) == 8

    def test_cache_is_keyed_and_shared(self):
        lut.clear_tables()
        try:
            a = PositFormat(32, 2)._two_level_table()
            b = PositFormat(32, 2)._two_level_table()
            c = PositFormat(32, 3)._two_level_table()
            assert a is b
            assert a is not c
            d = DirectedIEEEFormat(8, 4, "down")._two_level_table()
            e = DirectedIEEEFormat(8, 4, "up")._two_level_table()
            assert d is not e
        finally:
            lut.clear_tables()

    def test_threaded_round_is_race_free(self):
        """The thread-local workspace: concurrent rounds agree."""
        import threading
        fmt = get_format("posit32es2")
        rng = np.random.default_rng(7)
        x = rng.standard_normal(4096) * 10.0 ** rng.integers(-9, 9, 4096)
        want = fmt.round(x)
        results = [None] * 8
        def work(i):
            results[i] = fmt.round(x)
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for r in results:
            np.testing.assert_array_equal(r, want)


class TestWorkspace:
    """The per-thread ``round_array`` workspace pool."""

    @staticmethod
    def _retained():
        ws = lut._WORKSPACE
        held = sum(a.nbytes for bundle in ws.free.values()
                   for a in bundle)
        assert held == ws.nbytes
        return held

    def test_distinct_shapes_stay_within_the_budget(self):
        fmt = get_format("posit16es1")
        rng = np.random.default_rng(5)
        sizes = np.arange(lut.TINY_N + 1, lut.TINY_N + 2201)
        assert lut._Workspace.ITEM_BYTES * sizes.sum() \
            > 2 * lut.WORKSPACE_BUDGET
        for n in rng.permutation(sizes):
            fmt.round(rng.uniform(0.1, 3.0, n))
            assert self._retained() <= lut.WORKSPACE_BUDGET
        # 2-D shapes count too
        for n in range(1, 200):
            fmt.round(rng.uniform(0.1, 3.0, (n, 3)))
        assert self._retained() <= lut.WORKSPACE_BUDGET

    def test_recent_shapes_are_reused(self, monkeypatch):
        fmt = get_format("bf16")
        x = np.linspace(0.1, 3.0, 300)
        fmt.round(x)
        assert (300,) in lut._WORKSPACE.free
        calls = []
        real_empty = np.empty
        monkeypatch.setattr(np, "empty", lambda *a, **k:
                            calls.append(a) or real_empty(*a, **k))
        fmt.round(x)
        assert calls == []

    def test_oversized_arrays_are_not_kept(self):
        fmt = get_format("posit16es1")
        n = lut.WORKSPACE_BUDGET // lut._Workspace.ITEM_BYTES + 1
        fmt.round(np.full(n, 0.5))
        assert (n,) not in lut._WORKSPACE.free
        assert self._retained() <= lut.WORKSPACE_BUDGET
