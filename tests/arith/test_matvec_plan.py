"""Dense ``FPContext.matvec``: the zero-structure plan route against the
whole-array route.

A frozen operand (read-only, owning its data) gets a cached
:class:`repro.kernels.zeroplan.ZeroPlan` and rounds only the products
with a nonzero matrix entry and the fold slots with two structurally
nonzero addends.  A writeable copy of the same matrix takes the
whole-array route.  Every test compares the two byte for byte
(``tobytes()``, so NaN payloads and zero signs count), over every
registered format with the rounding tables on and off, the directed
IEEE modes and stochastic rounding, in both sum orders.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arith import FPContext
from repro.formats import get_format
from repro.formats.native import NativeIEEEFormat
from repro.formats.registry import available_formats
from repro.formats.rounding_modes import DirectedIEEEFormat, StochasticRounding
from repro.kernels import lut, zeroplan
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


def _matrix(fmt, rng, pattern: str, n: int) -> np.ndarray:
    """Format values in one of the zero patterns; nonzero entries
    include ±max, ±minpos and the odd NaN."""
    base = getattr(fmt, "base", fmt)
    A = np.asarray(base.round(rng.standard_normal((n, n))), dtype=np.float64)
    specials = np.array([fmt.max_value, -fmt.max_value,
                         fmt.min_positive, -fmt.min_positive, np.nan])
    hit = rng.random((n, n)) < 0.05
    A[hit] = rng.choice(specials, hit.sum())
    if pattern == "zero":
        A[:] = 0.0
    elif pattern == "empty_rows":
        A[rng.random((n, n)) < 0.7] = 0.0
        A[rng.random(n) < 0.4] = 0.0
    elif pattern == "random":
        A[rng.random((n, n)) < rng.uniform(0.5, 0.97)] = 0.0
    # stored zeros of both signs
    A[(A == 0) & (rng.random((n, n)) < 0.5)] = -0.0
    return A


def _vectors(fmt, rng, n: int):
    """A finite x (the plan route) and one with ±inf and NaN as well
    (the plan is declined per call); both hold ±0, ±max and ±minpos."""
    base = getattr(fmt, "base", fmt)
    x = np.asarray(base.round(rng.standard_normal(n) * 4.0), dtype=np.float64)
    specials = [0.0, -0.0, fmt.max_value, -fmt.max_value,
                fmt.min_positive, -fmt.min_positive]
    hit = rng.random(n) < 0.3
    x[hit] = rng.choice(specials, hit.sum())
    yield x
    y = x.copy()
    hit = rng.random(n) < 0.3
    y[hit] = rng.choice([np.inf, -np.inf, np.nan], hit.sum())
    yield y


def _cases(fmt, seed: int):
    rng = np.random.default_rng(seed)
    for n in _SLOW.get(fmt.name, _SIZES):
        for pattern in _PATTERNS:
            A = _matrix(fmt, rng, pattern, n)
            for x in _vectors(fmt, rng, n):
                yield A, x


def _routes(A):
    """(whole-array operand, planned operand) over the same values."""
    return A.copy(), zeroplan.freeze(A.copy())


def _counts(col: Collector) -> dict:
    return {site: {f: c.as_dict() for f, c in by_fmt.items()}
            for site, by_fmt in col.snapshot().items()}


def _check(make_fmt, order: str, seed: int) -> None:
    """Bits equal on every case; a collector's counts equal too."""
    fmt = make_fmt()
    ctx = FPContext(fmt, sum_order=order)
    for A, x in _cases(fmt, seed):
        whole, planned = _routes(A)
        assert (ctx.matvec(planned, x).tobytes()
                == ctx.matvec(whole, x).tobytes())
    # a collector sees the full arrays: both operands report the same
    # per-(site, format) counts
    cols = Collector(), Collector()
    for A, x in _cases(fmt, seed + 1):
        for col, operand in zip(cols, _routes(A)):
            FPContext(fmt, sum_order=order, collector=col).matvec(operand, x)
    assert _counts(cols[0]) == _counts(cols[1])


@pytest.mark.parametrize("order", _ORDERS)
@pytest.mark.parametrize("tables", [True, False], ids=["lut", "nolut"])
@pytest.mark.parametrize("fmt_name", _REGISTERED)
def test_registered_formats(fmt_name, tables, order, monkeypatch):
    monkeypatch.setattr(lut, "_ENABLED", tables)
    _check(lambda: get_format(fmt_name), order, seed=len(fmt_name))


@pytest.mark.parametrize("order", _ORDERS)
@pytest.mark.parametrize("spec", _DIRECTED,
                         ids=lambda s: "-".join(map(str, s)))
def test_directed_modes(spec, order):
    _check(lambda: DirectedIEEEFormat(*spec), order, seed=spec[0])


@pytest.mark.parametrize("order", _ORDERS)
@pytest.mark.parametrize("fmt_name", _STOCHASTIC)
def test_stochastic_rounding_draws_the_same_numbers(fmt_name, order):
    """Skipped entries are exact and the gathered ones keep row-major
    order, so two equally seeded rounders make the same draws."""
    base = get_format(fmt_name)
    whole_fmt, plan_fmt = (StochasticRounding(base, seed=9) for _ in range(2))
    whole_ctx = FPContext(whole_fmt, sum_order=order)
    plan_ctx = FPContext(plan_fmt, sum_order=order)
    for A, x in _cases(base, seed=3):
        whole, planned = _routes(A)
        assert (plan_ctx.matvec(planned, x).tobytes()
                == whole_ctx.matvec(whole, x).tobytes())
        assert (plan_fmt._rng.bit_generator.state
                == whole_fmt._rng.bit_generator.state)


@pytest.mark.parametrize("fmt_name", ["posit32es2", "takum16", "bf16"])
def test_planned_route_rounds_fewer_elements(fmt_name, monkeypatch):
    """The comparison above is not vacuous: on a sparse operand the
    frozen copy sends fewer elements through ``round``."""
    fmt = get_format(fmt_name)
    rng = np.random.default_rng(1)
    A = _matrix(fmt, rng, "random", 96)
    A[np.isnan(A)] = 1.0
    x = np.asarray(fmt.round(rng.standard_normal(96)))
    rounded = [0]
    inner = fmt.round

    def counting(v):
        rounded[0] += np.size(v)
        return inner(v)
    monkeypatch.setattr(fmt, "round", counting)
    ctx = FPContext(fmt)
    whole, planned = _routes(A)
    ctx.matvec(whole, x)
    full, rounded[0] = rounded[0], 0
    ctx.matvec(planned, x)
    assert rounded[0] < full / 2, (rounded[0], full)


def test_native_cast_formats_take_the_whole_array_route():
    A = zeroplan.freeze(np.eye(8))
    for name in _REGISTERED:
        fmt = get_format(name)
        native = isinstance(fmt, NativeIEEEFormat)
        assert FPContext(fmt)._use_plans == (not native)
    # a native-cast context never asks for a plan, so none is built
    FPContext("fp32").matvec(A, np.ones(8))
    assert id(A) not in zeroplan._PLANS
    FPContext("posit32es2").matvec(A, np.ones(8))
    assert id(A) in zeroplan._PLANS


def test_rectangular_operand():
    """QR and Householder callers pass (m, n) operands with m != n."""
    fmt = get_format("posit16es1")
    rng = np.random.default_rng(4)
    A = np.asarray(fmt.round(rng.standard_normal((5, 37))))
    A[rng.random(A.shape) < 0.8] = 0.0
    x = np.asarray(fmt.round(rng.standard_normal(37)))
    for order in _ORDERS:
        ctx = FPContext(fmt, sum_order=order)
        whole, planned = _routes(A)
        assert (ctx.matvec(planned, x).tobytes()
                == ctx.matvec(whole, x).tobytes())
