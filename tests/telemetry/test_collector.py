"""Conservation laws and bookkeeping for the op-metrics Collector.

The counters are property-tested across **every** registered format:
whatever values flow through a rounding site, ``exact + inexact ==
total``, every exception counter is bounded by ``inexact`` (an
exceptional rounding always moved the value), and each counted event
left its defining fingerprint (±maxpos, ±inf, ±minpos, 0) in the
rounded output.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith.context import FPContext, get_instrument
from repro.formats import available_formats, get_format
from repro.telemetry import Collector, collecting
from tests.strategies import finite_floats

FORMAT_NAMES = tuple(sorted(available_formats()))

#: short arrays of arbitrary finite float64 values (subnormals included)
value_arrays = st.lists(finite_floats, min_size=1, max_size=48).map(
    lambda xs: np.array(xs, dtype=np.float64))


@pytest.fixture(scope="module", autouse=True)
def _tables_built():
    """Round once in every format first, so a first call that builds a
    rounding table (seconds for ``takum_log16``) lands outside
    Hypothesis's per-example deadline."""
    for name in FORMAT_NAMES:
        get_format(name).round(np.ones(2))


def _single(col: Collector, site: str, fmt_name: str):
    counters = col.snapshot()[site][fmt_name]
    return counters.as_dict()


@given(st.sampled_from(FORMAT_NAMES), value_arrays)
@settings(max_examples=150)
def test_conservation_laws(name, x):
    fmt = get_format(name)
    col = Collector()
    r = fmt.round(x)
    col.record("round", x, r, fmt)
    c = _single(col, "round", fmt.name)

    assert c["total"] == x.size
    assert c["exact"] + c["inexact"] == c["total"]
    for field in ("nar", "saturated", "overflow", "underflow_zero",
                  "minpos_clamp"):
        assert 0 <= c[field] <= c["inexact"], field

    # every counted event is visible in the output values
    assert c["nar"] == np.count_nonzero(np.isnan(r) & ~np.isnan(x))
    assert c["saturated"] <= np.count_nonzero(
        np.abs(r) == fmt.max_value)
    assert c["overflow"] == np.count_nonzero(
        np.isinf(r) & np.isfinite(x))
    assert c["underflow_zero"] <= np.count_nonzero(r == 0.0)
    assert c["minpos_clamp"] <= np.count_nonzero(
        np.abs(r) == fmt.min_positive)


@given(st.sampled_from(FORMAT_NAMES), value_arrays)
@settings(max_examples=60)
def test_idempotent_rounding_counts_exact(name, x):
    """Feeding already-representable values records zero inexact."""
    fmt = get_format(name)
    rep = fmt.round(x)
    finite_rep = rep[np.isfinite(rep)]
    col = Collector()
    col.record("round", finite_rep, fmt.round(finite_rep), fmt)
    if finite_rep.size:
        c = _single(col, "round", fmt.name)
        assert c["inexact"] == 0
        assert c["exact"] == c["total"] == finite_rep.size


def _by_definition(x, r, fmt) -> dict:
    """The counters of rounding *x* to *r*, element by element."""
    c = dict.fromkeys(("total", "exact", "inexact", "nar", "saturated",
                       "overflow", "underflow_zero", "minpos_clamp"), 0)
    for e, v in zip(x.tolist(), r.tolist()):
        c["total"] += 1
        exact = e == v or (math.isnan(e) and math.isnan(v))
        c["exact" if exact else "inexact"] += 1
        c["overflow"] += math.isinf(v) and math.isfinite(e)
        if math.isnan(e):
            continue
        c["nar"] += math.isnan(v)
        c["saturated"] += abs(e) > fmt.max_value and \
            abs(v) == fmt.max_value
        c["underflow_zero"] += e != 0.0 and v == 0.0
        c["minpos_clamp"] += (e != 0.0 and abs(e) < fmt.min_positive
                              and abs(v) == fmt.min_positive)
    return c


@given(st.sampled_from(FORMAT_NAMES), value_arrays, st.booleans())
@settings(max_examples=150)
def test_counts_match_their_definitions(name, x, ordinary):
    """Every counter equals its definition applied element by element,
    on arrays whose results are all ordinary (strictly between ±minpos
    and ±maxpos, which the collector counts without looking for
    events) and on arbitrary ones."""
    fmt = get_format(name)
    if ordinary:
        x = np.clip(np.abs(x), 4 * fmt.min_positive, fmt.max_value / 4)
    r = fmt.round(x)
    col = Collector()
    col.record("round", x, r, fmt)
    assert _single(col, "round", fmt.name) == _by_definition(x, r, fmt)


def test_posit_saturates_ieee_overflows():
    """The same huge input saturates a posit but overflows an IEEE fp."""
    huge = np.array([1e30, -1e30])
    posit = get_format("posit16es1")
    ieee = get_format("fp16")
    col = Collector()
    col.record("round", huge, posit.round(huge), posit)
    col.record("round", huge, ieee.round(huge), ieee)
    cp = _single(col, "round", posit.name)
    ci = _single(col, "round", ieee.name)
    assert cp["saturated"] == 2 and cp["overflow"] == 0
    assert ci["overflow"] == 2 and ci["saturated"] == 0


def test_posit_minpos_clamp_ieee_underflows():
    tiny = np.array([1e-30, -1e-30])
    posit = get_format("posit16es1")
    ieee = get_format("fp16")
    col = Collector()
    col.record("round", tiny, posit.round(tiny), posit)
    col.record("round", tiny, ieee.round(tiny), ieee)
    cp = _single(col, "round", posit.name)
    ci = _single(col, "round", ieee.name)
    assert cp["minpos_clamp"] == 2 and cp["underflow_zero"] == 0
    assert ci["underflow_zero"] == 2 and ci["minpos_clamp"] == 0


def test_nan_propagation_counts_exact_not_nar():
    fmt = get_format("posit32es2")
    x = np.array([np.nan, 1.0])
    col = Collector()
    col.record("round", x, fmt.round(x), fmt)
    c = _single(col, "round", fmt.name)
    assert c["nar"] == 0              # NaN in -> NaN out is propagation
    assert c["exact"] == c["total"] == 2


def test_fp64_context_records_nothing():
    """The exact context never rounds, so there is nothing to count."""
    col = Collector()
    ctx = FPContext("fp64", collector=col)
    x = np.linspace(-3, 3, 17)
    ctx.add(x, x)
    ctx.dot(x, x)
    ctx.matvec(np.outer(x, x), x)
    assert col.total() == 0


def test_context_sites_and_conservation():
    """A posit context reports every op through its named site."""
    col = Collector()
    ctx = FPContext("posit16es1", collector=col)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(24)
    A = rng.standard_normal((24, 24))
    ctx.asarray(x)
    ctx.add(x, x)
    ctx.mul(x, 3.0)
    ctx.dot(x, x)
    ctx.matvec(A, x)
    totals = col.site_totals()
    for site in ("storage", "add", "mul", "dot.mul", "dot.sum",
                 "matvec.mul", "matvec.sum"):
        assert totals[site] > 0, site
    for per_fmt in col.snapshot().values():
        for c in per_fmt.values():
            assert c.exact + c.inexact == c.total


def test_collection_is_observation_only():
    """Results are bit-identical with and without a collector."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal(40)
    A = rng.standard_normal((40, 40))
    plain = FPContext("posit32es2")
    observed = FPContext("posit32es2", collector=Collector())
    np.testing.assert_array_equal(plain.matvec(A, x),
                                  observed.matvec(A, x))
    assert plain.dot(x, x) == observed.dot(x, x)


def test_determinism_identical_runs_identical_events():
    def run() -> list[dict]:
        col = Collector()
        ctx = FPContext("posit16es2", collector=col)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(32)
        ctx.dot(x, x)
        ctx.add(x, 1.0)
        return col.events()

    assert run() == run()


def test_merge_and_reset():
    fmt = get_format("posit8es0")
    x = np.linspace(0.1, 2.0, 9)
    a, b = Collector(), Collector()
    a.record("add", x, fmt.round(x), fmt)
    b.record("add", x, fmt.round(x), fmt)
    b.record("mul", x, fmt.round(x), fmt)
    a.merge(b)
    assert a.site_totals() == {"add": 18, "mul": 9}
    assert a.total() == 27
    a.reset()
    assert a.total() == 0 and a.events() == []


def test_collecting_installs_and_restores_ambient():
    assert get_instrument("collector") is None
    with collecting() as outer:
        assert get_instrument("collector") is outer
        # ambient collector observes contexts that never heard of it
        ctx = FPContext("posit16es1")
        ctx.add(np.array([0.1]), np.array([0.2]))
        with collecting(Collector()) as inner:
            assert get_instrument("collector") is inner
        assert get_instrument("collector") is outer
    assert get_instrument("collector") is None
    assert outer.site_totals()["add"] == 1


def test_counters_events_shape():
    col = Collector()
    fmt = get_format("posit16es1")
    col.record("add", np.array([1e30]), fmt.round(np.array([1e30])), fmt)
    (event,) = col.events()
    assert event["type"] == "counters"
    assert event["site"] == "add"
    assert event["format"] == "posit16es1"
    assert event["total"] == 1 and event["saturated"] == 1


@pytest.mark.parametrize("name", FORMAT_NAMES)
def test_adversarial_sweep_every_format(name):
    """Edge values (±maxpos, ±minpos, inf, NaN, 0) conserve for all."""
    fmt = get_format(name)
    x = np.array([0.0, -0.0, 1.0, -1.0, fmt.max_value,
                  fmt.max_value * 1.5, fmt.min_positive,
                  fmt.min_positive / 3, 1e300, -1e300, 1e-300,
                  np.inf, -np.inf, np.nan])
    col = Collector()
    col.record("round", x, fmt.round(x), fmt)
    c = _single(col, "round", fmt.name)
    assert c == _by_definition(x, fmt.round(x), fmt)
    assert c["total"] == x.size
    assert c["exact"] + c["inexact"] == c["total"]
