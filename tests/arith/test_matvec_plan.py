"""Dense ``FPContext.matvec``: the fold tape against the whole-array route.

A frozen operand (read-only, owning its data) gets a cached
:class:`repro.kernels.zeroplan.DensePlan` and multiplies, adds and
rounds only its live slots through the segmented fold; a writeable copy
of the same matrix takes the whole-array route.  Every test compares
the two byte for byte (``tobytes()``, so NaN payloads and zero signs
count), over every registered format with the rounding tables on and
off, the directed IEEE modes and stochastic rounding, and checks that
the frozen operand really took the tape.  A collector sees the same
counts on both routes.  Ragged dense lanes
(:class:`repro.kernels.zeroplan.DenseStack`) take either route for all
their lanes at once, and each lane's block must be its own call's.

A NaN entry of a test matrix is the x86 default NaN that ``inf − inf``
and ``0·inf`` give, so all of them carry one sign.  When two NaNs of
opposite sign meet in one add, which one NumPy keeps depends on where
the pair falls in the array: its contiguous ``add`` keeps the first
operand's NaN in its SIMD body and the second operand's in the scalar
tail.  So neither route is row-for-row consistent there
(:func:`test_opposite_nans_of_a_lane_stack_keep_their_lanes_signs`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arith import FPContext
from repro.arith import context as context_module
from repro.arith.context import LaneContext
from repro.config import SCALES
from repro.formats import get_format
from repro.formats.registry import available_formats
from repro.formats.rounding_modes import DirectedIEEEFormat, StochasticRounding
from repro.kernels import lut, zeroplan
from repro.kernels.segment import LaneSegments
from repro.kernels.zeroplan import DenseStack
from repro.linalg import conjugate_gradient_lanes
from repro.matrices.suite import load_matrix, right_hand_side
from repro.telemetry import Collector

_REGISTERED = sorted(set(available_formats()) - {"fp64"})
_DIRECTED = [(p, w, mode) for p, w in ((11, 5), (8, 8))
             for mode in ("toward_zero", "down", "up")]
_STOCHASTIC = ("fp16", "bf16", "posit16es1", "posit32es2", "takum16")
_SIZES = (1, 2, 3, 7, 48, 66, 96)
#: formats whose tableless ``round`` costs tens of microseconds per
#: element stop at n = 48
_SLOW = {"takum_log32": (1, 2, 3, 7, 48)}
_PATTERNS = ("zero", "empty_rows", "dense", "random")
_ORDERS = ("pairwise", "sequential")
#: the NaN ``inf − inf`` gives on x86 (sign bit set)
_NAN = np.float64(np.inf) - np.float64(np.inf)


def _matrix(fmt, rng, pattern: str, shape) -> np.ndarray:
    """Format values in one of the zero patterns, every zero ``+0``;
    nonzero entries include ±max, ±minpos and the odd NaN."""
    base = getattr(fmt, "base", fmt)
    A = np.asarray(base.round(rng.standard_normal(shape)), dtype=np.float64)
    specials = np.array([fmt.max_value, -fmt.max_value,
                         fmt.min_positive, -fmt.min_positive, _NAN])
    hit = rng.random(shape) < 0.05
    A[hit] = rng.choice(specials, hit.sum())
    if pattern == "zero":
        A[:] = 0.0
    elif pattern == "empty_rows":
        A[rng.random(shape) < 0.7] = 0.0
        A[rng.random(shape[:-1]) < 0.4] = 0.0
    elif pattern == "random":
        A[rng.random(shape) < rng.uniform(0.5, 0.97)] = 0.0
    A[A == 0] = 0.0
    return A


def _vectors(fmt, rng, shape):
    """Finite x: ±0, ±max and ±minpos among ordinary values; then all
    of it negative, and all of it ±0 (pads of both signs)."""
    base = getattr(fmt, "base", fmt)
    x = np.asarray(base.round(rng.standard_normal(shape) * 4.0),
                   dtype=np.float64)
    specials = [0.0, -0.0, fmt.max_value, -fmt.max_value,
                fmt.min_positive, -fmt.min_positive]
    hit = rng.random(shape) < 0.3
    x[hit] = rng.choice(specials, hit.sum())
    yield x
    yield -np.abs(x)
    yield np.where(rng.random(shape) < 0.5, 0.0, -0.0)


def _cases(fmt, seed: int):
    rng = np.random.default_rng(seed)
    for n in _SLOW.get(fmt.name, _SIZES):
        for pattern in _PATTERNS:
            A = _matrix(fmt, rng, pattern, (n, n))
            for x in _vectors(fmt, rng, n):
                yield A, x


def _routes(A):
    """(whole-array operand, tape operand) over the same values: of
    an array, or of a list of lanes, a ragged dense stack each."""
    if isinstance(A, list):
        return (DenseStack.of([a.copy() for a in A]),
                DenseStack.of([zeroplan.freeze(a.copy()) for a in A]))
    return A.copy(), zeroplan.freeze(A.copy())


def _alone(ctx, lanes, x):
    """Each of *lanes* multiplied alone by its part of *x* (laid end to
    end), on the whole-array route, the results laid end to end."""
    ends = np.cumsum([0] + [a.shape[1] for a in lanes])
    return np.concatenate([ctx.matvec(a.copy(), x[lo:hi])
                           for a, lo, hi in zip(lanes, ends, ends[1:])])


def _counts(col: Collector) -> dict:
    return {site: {f: c.as_dict() for f, c in by_fmt.items()}
            for site, by_fmt in col.snapshot().items()}


def _same(ctx, A, x, folds) -> None:
    """The frozen operand gives the whole-array route's bits, through
    one fold on the tape in a pairwise context and through none in a
    sequential one (which keeps the whole-array route).  *A* may be a
    list of lanes: their stack, frozen and not, gives each lane's own
    bits (pairwise only; its whole-array route folds segmented too)."""
    whole, taped = _routes(A)
    before = len(folds)
    got = ctx.matvec(taped, x)
    taken = int(ctx.sum_order == "pairwise")
    assert len(folds) == before + taken
    if isinstance(A, list):
        assert got.tobytes() == _alone(ctx, A, x).tobytes()
        taken *= 2
    assert got.tobytes() == ctx.matvec(whole, x).tobytes()
    assert len(folds) == before + taken


@pytest.mark.parametrize("order", _ORDERS)
@pytest.mark.parametrize("tables", [True, False], ids=["lut", "nolut"])
@pytest.mark.parametrize("fmt_name", _REGISTERED)
def test_registered_formats(fmt_name, tables, order, folds, monkeypatch):
    monkeypatch.setattr(lut, "_ENABLED", tables)
    fmt = get_format(fmt_name)
    ctx = FPContext(fmt, sum_order=order)
    for A, x in _cases(fmt, seed=len(fmt_name)):
        _same(ctx, A, x, folds)


@pytest.mark.parametrize("order", _ORDERS)
@pytest.mark.parametrize("spec", _DIRECTED,
                         ids=lambda s: "-".join(map(str, s)))
def test_directed_modes(spec, order, folds):
    fmt = DirectedIEEEFormat(*spec)
    ctx = FPContext(fmt, sum_order=order)
    for A, x in _cases(fmt, seed=spec[0]):
        _same(ctx, A, x, folds)


@pytest.mark.parametrize("order", _ORDERS)
@pytest.mark.parametrize("fmt_name", _STOCHASTIC)
def test_stochastic_rounding_draws_the_same_numbers(fmt_name, order,
                                                    folds):
    """The tape rounds the whole-array route's inexact values in its
    row-major order, so two equally seeded rounders make the same
    draws."""
    base = get_format(fmt_name)
    whole_fmt, tape_fmt = (StochasticRounding(base, seed=9) for _ in range(2))
    whole_ctx = FPContext(whole_fmt, sum_order=order)
    tape_ctx = FPContext(tape_fmt, sum_order=order)
    for A, x in _cases(base, seed=3):
        whole, taped = _routes(A)
        assert (tape_ctx.matvec(taped, x).tobytes()
                == whole_ctx.matvec(whole, x).tobytes())
        assert (tape_fmt._rng.bit_generator.state
                == whole_fmt._rng.bit_generator.state)
    assert bool(folds) == (order == "pairwise")


@pytest.mark.parametrize("fmt_name", ["posit16es1", "bf16", "fp32"])
def test_every_row_width_up_to_69(fmt_name, folds):
    """Every tree shape the fold can take up to width 69, on short and
    full rows and on ragged lane stacks."""
    fmt = get_format(fmt_name)
    ctx = FPContext(fmt)
    rng = np.random.default_rng(69)
    for n in range(1, 70):
        for shapes in ([(5, n)], [(4, n), (3, 70 - n), (2, n // 2 + 1)]):
            lanes = []
            for shape in shapes:
                A = _matrix(fmt, rng, "random", shape)
                A[-1] = _matrix(fmt, rng, "dense", shape[-1:])
                lanes.append(A)
            lanes[0][0] = 0.0
            for x in _vectors(fmt, rng, sum(s[1] for s in shapes)):
                _same(ctx, lanes if len(lanes) > 1 else lanes[0], x,
                      folds)


def test_rectangular_operand(folds):
    """QR and Householder callers pass (m, n) operands with m != n."""
    fmt = get_format("posit16es1")
    ctx = FPContext(fmt)
    rng = np.random.default_rng(4)
    for shape in ((5, 37), (37, 5), (1, 64), (64, 1)):
        A = _matrix(fmt, rng, "random", shape)
        for x in _vectors(fmt, rng, shape[-1]):
            _same(ctx, A, x, folds)
    lanes = [_matrix(fmt, rng, "random", s) for s in ((9, 3), (4, 7))]
    for x in _vectors(fmt, rng, 10):
        _same(ctx, lanes, x, folds)


@pytest.mark.parametrize("fmt_name", ["posit32es2", "fp32", "fp16"])
def test_fully_dense_operand(fmt_name, folds):
    """bcsstk02 has no zero entry: every pair is live-live."""
    ctx = FPContext(fmt_name)
    A = np.asarray(ctx.asarray(load_matrix("bcsstk02", SCALES["small"])))
    assert np.all(A != 0)
    x = np.asarray(ctx.asarray(right_hand_side(A)))
    _same(ctx, A, x, folds)
    _same(ctx, [A, A[::-1]], np.concatenate([x, -x]), folds)


def test_native_cast_formats_take_the_tape(folds):
    """fp16 and fp32 round by a NumPy dtype cast and take the tape
    too, with the whole-array route's bits."""
    for fmt_name in ("fp16", "fp32"):
        ctx = FPContext(fmt_name)
        A = np.asarray(ctx.asarray(load_matrix("nos2", SCALES["small"])))
        x = np.asarray(ctx.asarray(
            np.random.default_rng(2).standard_normal(96)))
        _same(ctx, A, x, folds)
        _same(ctx, [A, A[:48, :48]], np.concatenate([x, -x[:48]]), folds)
    assert len(folds) == 6


@pytest.mark.parametrize("fmt_name", ["posit32es2", "takum16", "bf16",
                                      "fp32"])
def test_planned_route_rounds_fewer_elements(fmt_name, monkeypatch):
    """The comparisons above are not vacuous: on a sparse operand the
    frozen copy sends fewer elements through ``round``, and a level
    without a live-live pair makes no rounding call."""
    fmt = get_format(fmt_name)
    rng = np.random.default_rng(1)
    A = _matrix(fmt, rng, "random", (96, 96))
    A[np.isnan(A)] = 1.0
    x = np.asarray(fmt.round(rng.standard_normal(96)))
    sizes = []
    inner = fmt.round
    monkeypatch.setattr(fmt, "round",
                        lambda v, *a: sizes.append(np.size(v)) or inner(v))
    ctx = FPContext(fmt)
    whole, taped = _routes(A)
    ctx.matvec(whole, x)
    full, sizes[:] = sum(sizes), []
    ctx.matvec(taped, x)
    assert sum(sizes) < full / 2, (sum(sizes), full)
    assert 0 not in sizes
    diagonal = zeroplan.freeze(np.diag(np.asarray(fmt.round(
        rng.standard_normal(96)))))
    sizes.clear()
    ctx.matvec(diagonal, x)
    assert sizes == [96]  # the products; no level has a live-live pair


def test_fall_backs_take_the_whole_array_route(folds):
    """A non-finite x, a stored −0 or the sequential order keep the
    whole-array route, with its bits; a collector takes the tape and
    counts what the whole-array route rounds."""
    fmt = get_format("posit16es2")
    rng = np.random.default_rng(5)
    A = _matrix(fmt, rng, "random", (24, 24))
    x = next(_vectors(fmt, rng, 24))
    whole, taped = _routes(A)
    ctx = FPContext(fmt)
    for bad in (np.inf, -np.inf, np.nan):
        y = x.copy()
        y[3] = bad
        assert ctx.matvec(taped, y).tobytes() == \
            ctx.matvec(whole, y).tobytes()
    sequential = FPContext(fmt, sum_order="sequential")
    assert sequential.matvec(taped, x).tobytes() == \
        sequential.matvec(whole, x).tobytes()
    signed = A.copy()
    signed[signed == 0] = -0.0
    frozen = zeroplan.freeze(signed.copy())
    assert zeroplan.plan_for(frozen) is None
    assert ctx.matvec(frozen, x).tobytes() == \
        ctx.matvec(signed, x).tobytes()
    assert folds == []
    ctx.matvec(taped, x)
    assert folds == [1]
    cols = Collector(), Collector()
    outs = [FPContext(fmt, collector=col).matvec(operand, x)
            for col, operand in zip(cols, (whole, taped))]
    assert folds == [1, 1]
    assert outs[0].tobytes() == outs[1].tobytes()
    assert _counts(cols[0]) == _counts(cols[1])
    assert _counts(cols[1])["matvec.mul"]["posit16es2"]["total"] == 24 * 24


@pytest.mark.parametrize("fmt_name", ["posit16es2", "fp16", "fp8e4m3",
                                      "takum16"])
def test_collector_counts_equal_the_whole_array_route(fmt_name, folds):
    """Under a collector the tape reports the pad products and the
    pairs it skips as exact roundings, so every (site, format) count,
    exact, inexact, NaR, overflow and underflow included, equals the
    whole-array route's, on every zero pattern and on ragged lane
    stacks, whose counts are also their lanes' run alone."""
    fmt = get_format(fmt_name)
    for A, x in _cases(fmt, seed=7):
        half = (A.shape[0] + 1) // 2
        # 0 − A keeps every stored zero +0, so the lane has a tape
        stack = ([A, A[::-1], 0.0 - A[:half, :half]],
                 np.concatenate([x, -x, x[:half]]))
        for operand, v in ((A, x), stack):
            cols = Collector(), Collector()
            whole, taped = _routes(operand)
            outs = [FPContext(fmt, collector=col).matvec(a, v)
                    for col, a in zip(cols, (whole, taped))]
            assert outs[0].tobytes() == outs[1].tobytes()
            assert _counts(cols[0]) == _counts(cols[1])
        alone = Collector()
        _alone(FPContext(fmt, collector=alone), *stack)
        assert _counts(alone) == _counts(cols[1])
    assert folds


def test_lane_context_collector_counts_each_lane_in_its_format(folds):
    """A ragged dense stack under a format-mixed :class:`LaneContext`
    gives a collector, per (site, format), the counts of its lanes run
    alone, and each lane alone counts on the tape what it counts on the
    whole-array route."""
    names = ("posit16es2", "bf16", "takum16", "posit16es2")
    orders = (33, 20, 47, 5)
    rng = np.random.default_rng(12)
    A = [_matrix(get_format(f), rng, pattern, (n, n))
         for f, pattern, n in zip(names, _PATTERNS, orders)]
    x = [np.asarray(get_format(f).round(rng.standard_normal(n)))
         for f, n in zip(names, orders)]
    mixed, taped, whole = Collector(), Collector(), Collector()
    ctx = LaneContext(names, LaneSegments(orders), collector=mixed)
    out = ctx.matvec(DenseStack.of([zeroplan.freeze(a.copy()) for a in A]),
                     np.concatenate(x))
    assert folds == [1]
    for k, name in enumerate(names):
        alone = FPContext(name, collector=taped).matvec(
            zeroplan.freeze(A[k].copy()), x[k])
        assert ctx.segments.lane(out, k).tobytes() == alone.tobytes()
        FPContext(name, collector=whole).matvec(A[k].copy(), x[k])
    assert _counts(mixed) == _counts(taped) == _counts(whole)
    assert set(_counts(mixed)["matvec.sum"]) == set(names)


@pytest.mark.parametrize("names", [("posit16es2", "bf16", "takum16"),
                                   ("posit32es2", "posit32es3")],
                         ids=["16-bit", "32-bit"])
@pytest.mark.parametrize("fallback", ["writeable", "nan"])
def test_format_mixed_stack_on_the_whole_array_route(names, fallback,
                                                     folds):
    """A format-mixed ragged dense stack on the whole-array route (a
    writeable lane, or a NaN in one lane's x) gives each lane the bits
    and the collector counts of its own call: its products and pairs
    round in its own format, never in a neighbour's."""
    rng = np.random.default_rng(21)
    orders = (8, 13, 5, 8)[:len(names) + 1]
    fmts = [names[k % len(names)] for k in range(len(orders))]
    A = [_matrix(get_format(f), rng, "random", (n, n))
         for f, n in zip(fmts, orders)]
    x = [np.asarray(get_format(f).round(rng.standard_normal(n) * 1e3))
         for f, n in zip(fmts, orders)]
    lanes = [zeroplan.freeze(a.copy()) for a in A]
    if fallback == "writeable":
        lanes[1] = A[1].copy()
    else:
        x[1][2] = np.nan
    mixed, alone = Collector(), Collector()
    ctx = LaneContext(fmts, LaneSegments(orders), collector=mixed)
    out = ctx.matvec(DenseStack.of(lanes), np.concatenate(x))
    assert folds == [1]       # the whole-array route's one fold
    for k, name in enumerate(fmts):
        own = FPContext(name, collector=alone).matvec(A[k].copy(), x[k])
        assert ctx.segments.lane(out, k).tobytes() == own.tobytes(), k
    assert _counts(mixed) == _counts(alone)


@pytest.mark.xfail(strict=True, reason="NumPy's contiguous add keeps the "
                   "first operand's NaN in its SIMD body and the second's "
                   "in its scalar tail, so where a lane's pair falls in "
                   "the stacked level decides the sign of its NaN")
def test_opposite_nans_of_a_lane_stack_keep_their_lanes_signs():
    """A frozen fp8e4m3 stack of three ``(6, 60)`` lanes holding
    ``+NaN`` and ``−NaN``: each lane should carry the bits of its own
    call.  One tape level adds every lane's pairs in one call, so a pair
    of opposite NaNs keeps one sign in the stack and the other alone."""
    fmt = get_format("fp8e4m3")
    ctx = FPContext(fmt)
    rng = np.random.default_rng(0)
    A = np.asarray(fmt.round(rng.standard_normal((3, 6, 60))))
    hit = rng.random(A.shape) < 0.1
    A[hit] = rng.choice([np.nan, -np.nan], hit.sum())
    A[rng.random(A.shape) < 0.5] = 0.0
    x = np.asarray(fmt.round(rng.standard_normal((3, 60))))
    stack = DenseStack.of([zeroplan.freeze(a.copy()) for a in A])
    got = ctx.matvec(stack, x.ravel()).reshape(3, 6)
    assert np.array_equal(got, np.stack([  # equal up to NaN signs
        ctx.matvec(zeroplan.freeze(A[k].copy()), x[k]) for k in range(3)]),
        equal_nan=True)
    for k in range(3):
        alone = ctx.matvec(zeroplan.freeze(A[k].copy()), x[k])
        assert got[k].tobytes() == alone.tobytes(), k


@pytest.mark.parametrize("fmt_name", ["posit32es2", "fp32"])
def test_lane_solve_through_retire(fmt_name, monkeypatch):
    """A ragged dense CG lane group sheds lanes as they finish: its
    stack's plan is built once, every smaller stack takes its lanes'
    part of it, and every lane keeps the bits the whole-array route
    gives it."""
    systems = []
    for name in ("bcsstk01", "bcsstk02", "nos2"):
        A = load_matrix(name, SCALES["small"])
        systems += [(A, right_hand_side(A)), (2.0 * A, right_hand_side(A))]
    ctx = FPContext(fmt_name)
    built, kept = [], []
    inner = zeroplan.DensePlan

    class Counted(inner):
        __slots__ = ()

        def __init__(self, lanes):
            built.append(len(lanes))
            super().__init__(lanes)

        def subset(self, lanes):
            kept.append(len(lanes))
            return super().subset(lanes)
    monkeypatch.setattr(zeroplan, "DensePlan", Counted)
    taped = conjugate_gradient_lanes(ctx, systems, max_iterations=300)
    # the stack's plan, then (if one lane runs on alone) that lane's own
    assert built[0] == 6 and built[1:] in ([], [1])
    assert len(kept) > 1 and kept == sorted(kept, reverse=True)
    monkeypatch.setattr(zeroplan, "plan_for", lambda A: None)
    monkeypatch.setattr(context_module, "plan_for", lambda A: None)
    whole = conjugate_gradient_lanes(ctx, systems, max_iterations=300)
    assert len({r.iterations for r in whole}) > 2
    for a, b in zip(taped, whole):
        assert a.iterations == b.iterations
        assert a.x.tobytes() == b.x.tobytes()
        assert a.relative_residual == b.relative_residual \
            or (np.isnan(a.relative_residual)
                and np.isnan(b.relative_residual))


def test_format_mixed_lane_context(monkeypatch):
    """The plan's per-lane runs let one :class:`LaneContext` round a
    ragged dense stack's lanes each in its own format."""
    monkeypatch.setattr(lut, "_ENABLED", True)
    names = ("posit32es2", "takum32", "posit32es3")
    orders = (40, 17, 64)
    rng = np.random.default_rng(11)
    A = [np.asarray(get_format(f).round(
        _matrix(get_format(f), rng, "random", (n, n))))
        for f, n in zip(names, orders)]
    x = [np.asarray(get_format(f).round(rng.standard_normal(n)))
         for f, n in zip(names, orders)]
    ctx = LaneContext(names, LaneSegments(orders))
    out = ctx.matvec(DenseStack.of([zeroplan.freeze(a.copy()) for a in A]),
                     np.concatenate(x))
    for k, name in enumerate(names):
        alone = FPContext(name).matvec(A[k].copy(), x[k])
        assert ctx.segments.lane(out, k).tobytes() == alone.tobytes()
