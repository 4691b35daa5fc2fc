"""One rounding pass for lanes of several table formats.

:class:`repro.kernels.lut.LaneTables` rounds a 1-D lane-ordered array
laid out as runs (run ``i`` belongs to lane ``i % B``) in one pass, and
every entry must come out with the bits of its own lane's format's
``round``: within one storage width and across widths, on both sides
of :data:`~repro.kernels.lut.TINY_N`, and at the values that leave the
fast path (±0, NaN, ±inf, subnormals, tail and post buckets), also for
tables of a directed step.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import get_format
from repro.formats.rounding_modes import DirectedIEEEFormat
from repro.kernels import lut
from repro.kernels.lut import LaneTables

#: every registered format that rounds through a two-level table
TABLE_FORMATS = tuple(get_format(name) for name in (
    "bf16", "fp8e4m3", "fp8e5m2", "posit8es0", "posit16es1", "posit16es2",
    "posit32es2", "posit32es3", "takum16", "takum32"))
#: tables of one directed step (truncation), in two widths
DIRECTED = (DirectedIEEEFormat(8, 4, "toward_zero"),
            DirectedIEEEFormat(24, 8, "toward_zero"))


def _edges(fmt) -> list[float]:
    """Values around the format's range ends: the tail buckets of a
    posit, the post buckets of an IEEE or takum format."""
    big, small = fmt.max_value, fmt.min_positive
    return [big, big * (1 + 2 ** -20), big * 1.5, big * 4.0,
            small, small / 2, small * 0.75, small * 1.5, small / 1024]


SPECIALS = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
            2.2250738585072014e-308, 1.0, -1.0, 1.7976931348623157e308]


@st.composite
def lane_arrays(draw, pool):
    """(formats, runs, values): B lanes of formats from *pool*, runs
    cycling through them one to three times, and one value per
    entry."""
    fmts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    cycles = draw(st.integers(1, 3))
    runs = draw(st.lists(st.one_of(st.integers(0, 3), st.integers(0, 40)),
                         min_size=cycles * len(fmts),
                         max_size=cycles * len(fmts)))
    edges = sorted({v for f in fmts for v in _edges(f)})
    value = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, width=64),
        st.floats(-1e6, 1e6),
        st.sampled_from(SPECIALS + edges + [-v for v in edges]))
    values = draw(st.lists(value, min_size=sum(runs),
                           max_size=sum(runs)))
    return fmts, np.array(runs, dtype=np.int64), np.array(values,
                                                          dtype=np.float64)


def _expected(fmts, runs, values) -> np.ndarray:
    """Each run rounded by its own lane's ``fmt.round``."""
    out, start = [], 0
    for i, n in enumerate(runs.tolist()):
        if n:
            out.append(fmts[i % len(fmts)].round(values[start:start + n]))
        start += n
    return np.concatenate(out) if out else np.empty(0)


def _check(fmts, runs, values) -> None:
    tables = LaneTables([f._two_level_table() for f in fmts])
    got = fmts[0].round(values, runs, tables)
    want = _expected(fmts, runs, values)
    assert got.shape == want.shape
    same = (got.view(np.int64) == want.view(np.int64)) | \
        (np.isnan(got) & np.isnan(want))
    assert same.all(), (values[~same], got[~same], want[~same])


def _widths():
    by_width: dict[int, list] = {}
    for f in TABLE_FORMATS:
        by_width.setdefault(f.nbits, []).append(f)
    return [fs for fs in by_width.values() if len(fs) > 1]


@pytest.mark.parametrize("pool", _widths(),
                         ids=lambda fs: f"{fs[0].nbits}bit")
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_one_width_matches_each_format(pool, data):
    _check(*data.draw(lane_arrays(pool)))


@pytest.mark.parametrize("pool", [TABLE_FORMATS, DIRECTED],
                         ids=["rint", "trunc"])
@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_across_widths_matches_each_format(pool, data):
    _check(*data.draw(lane_arrays(pool)))


def test_every_format_on_its_own_edges():
    """A fixed case per format that reaches its tail or post buckets
    and every special value, laid out past ``TINY_N`` next to a lane of
    another format."""
    for fmt in TABLE_FORMATS + DIRECTED:
        other = (DIRECTED[fmt is DIRECTED[0]] if fmt in DIRECTED else
                 get_format("posit16es2" if fmt.nbits != 16 else "takum16"))
        values = np.array(SPECIALS + _edges(fmt) + [-v for v in
                                                   _edges(fmt)])
        runs = np.array([values.size, 3])
        _check([fmt, other], runs, np.concatenate([values, [1.5, -2.0,
                                                            3e-9]]))


def test_tiny_and_single_table_passes():
    fmts = [get_format("posit32es2"), get_format("takum32")]
    tables = LaneTables([f._two_level_table() for f in fmts])
    x = np.array([1.0 / 3.0, -7.1, np.nan])
    assert lut.TINY_N >= x.size
    _check(fmts, np.array([2, 1]), x)
    one = LaneTables([fmts[0]._two_level_table()] * 3)
    y = np.linspace(-3.0, 3.0, 40)
    assert one.round_array(y, [10, 20, 10]).tobytes() == \
        fmts[0].round(y).tobytes()
    with pytest.raises(ValueError, match="cycle"):
        tables.round_array(y, [10, 20, 10])
    with pytest.raises(ValueError, match="cover"):
        tables.round_array(x, [1, 1])
    with pytest.raises(ValueError, match="one step"):
        LaneTables([fmts[0]._two_level_table(),
                    DIRECTED[0]._two_level_table()])


@pytest.mark.parametrize("rows", [1, 3])
def test_lane_context_rounds_basis_rows_in_each_lane_format(rows):
    """A :class:`~repro.arith.context.LaneContext` takes a ``(k, N)``
    array (GMRES's basis rows) as k rows of the lanes' vectors: every
    entry gets its own lane's format's bits, and a collector counts
    per format what it counts for each lane's rows rounded alone."""
    from repro.arith import FPContext
    from repro.arith.context import LaneContext
    from repro.kernels.segment import LaneSegments
    from repro.telemetry import Collector
    fmts = [get_format(name) for name in ("bf16", "posit16es2", "takum16")]
    segments = LaneSegments([5, 2, 9])
    x = np.random.default_rng(3).standard_normal((rows, segments.total))
    x[0, 1] = np.nan
    lanes, alone = Collector(), Collector()
    got = LaneContext(fmts, segments, collector=lanes).round(x)
    assert got.shape == x.shape
    for k, fmt in enumerate(fmts):
        part = x[:, segments.offsets[k]:segments.offsets[k + 1]]
        expected = FPContext(fmt, collector=alone).round(np.ravel(part))
        assert got[:, segments.offsets[k]:segments.offsets[k + 1]].tobytes() \
            == expected.reshape(part.shape).tobytes(), fmt.name
    assert lanes.snapshot() == alone.snapshot()
