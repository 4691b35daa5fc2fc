"""Lockstep CG lanes give every lane the bits of its own solve.

:func:`repro.linalg.cg.conjugate_gradient_lanes` runs B dense or B CSR
systems of any orders (ragged lanes) as lanes of one iteration body;
each lane must come out as ``conjugate_gradient`` gives it alone,
payload for payload (compared as
``benchmarks.e2e.child.canonical`` text: flags, counts and every float
as ``float.hex``), whatever the other lanes do.  Under a tracer and a
collector, each lane's trace events must be its solo run's too, reach
the tracer in system order, and the lanes must round what the solo
runs round.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from benchmarks.e2e.child import canonical
from repro.arith import CSRMatrix, FPContext
from repro.config import SCALES
from repro.experiments import common
from repro.kernels.segment import LaneSegments
from repro.kernels.zeroplan import DenseStack, freeze
from repro.linalg import conjugate_gradient, conjugate_gradient_lanes
from repro.matrices import random_dense_spd
from repro.matrices.suite import load_matrix, right_hand_side
from repro.telemetry import Collector, collecting, tracing

N = 8
#: solver options shared by every lane of the adversarial group
OPTS = {"max_iterations": 5, "divergence_factor": 1e4}


def _adversarial():
    """(name, A, b) lanes of order N, each ending a different way under
    :data:`OPTS`."""
    rng = np.random.default_rng(7)
    b = rng.standard_normal(N)
    # indefinite, with pAp = 1 - (1 - 2**-22)**2 ≈ 2**-21 on p0 = b
    indefinite = np.diag([1.0, -1.0] + [1.0] * (N - 2))
    near_null = np.zeros(N)
    near_null[:2] = 1.0, 1.0 - 2.0 ** -22
    bad_b = b.copy()
    bad_b[3] = np.inf
    return [
        ("one-step", np.eye(N), b),                       # converges at 1
        ("zero-rhs", np.eye(N), np.zeros(N)),             # 0 iterations
        ("breakdown", np.zeros((N, N)), b),               # pAp == 0
        ("blowup", indefinite, near_null),                # ‖r‖ explodes
        ("budget", random_dense_spd(N, kappa=1e6, seed=3), b),
        ("nonfinite-b", random_dense_spd(N, kappa=10.0, seed=4), bad_b),
        # three distinct eigenvalues: exact CG ends in three steps
        ("converges", np.diag(np.resize([1.0, 2.0, 3.0], N)), b),
    ]


def _observed(solve, collector):
    """``solve()``'s value under a fresh tracer and *collector*, and
    the solver events the tracer received."""
    with collecting(collector), tracing() as tracer:
        value = solve()
    return value, [e for e in tracer.events if e["type"] == "solver"]


def check_observed_lanes(lanes, solve_lanes, solve_alone):
    """Under a tracer and a collector, each of *lanes* (``(name, A, b,
    *extra)``) comes out of ``solve_lanes(systems)`` as
    ``solve_alone(A, b, *extra)`` gives it (with its trace, for a
    result that carries one); the tracer receives the lanes' events in
    system order, and the collector counts, per (site, format) and
    field by field, what it counts for the solves one by one."""
    counted = Collector()
    got, events = _observed(
        lambda: solve_lanes([(A, b) for _, A, b, *_ in lanes]), counted)
    expected, expected_counts = [], Collector()
    for (name, A, b, *extra), res in zip(lanes, got):
        alone, alone_events = _observed(lambda: solve_alone(A, b, *extra),
                                        expected_counts)
        assert canonical(res) == canonical(alone), name
        assert alone_events, name
        expected += alone_events
    assert canonical(events) == canonical(expected)
    assert counted.snapshot() == expected_counts.snapshot()


@pytest.mark.parametrize("fmt", ["fp64", "fp32", "posit32es2",
                                 "posit16es1", "takum16"])
@pytest.mark.parametrize("order", ["pairwise", "sequential"])
def test_adversarial_lanes_match_their_own_solves(fmt, order):
    check_observed_lanes(
        _adversarial(),
        lambda systems: conjugate_gradient_lanes(
            FPContext(fmt, sum_order=order), systems, **OPTS),
        lambda A, b: conjugate_gradient(FPContext(fmt, sum_order=order),
                                        A, b, **OPTS))


def test_adversarial_lanes_reach_the_intended_ends():
    got = dict(zip([name for name, _, _ in _adversarial()],
                   conjugate_gradient_lanes(
                       FPContext("posit32es2"),
                       [(A, b) for _, A, b in _adversarial()], **OPTS)))
    assert got["one-step"].converged and got["one-step"].iterations == 1
    assert got["zero-rhs"].converged and got["zero-rhs"].iterations == 0
    assert got["breakdown"].diverged and got["breakdown"].iterations == 1
    assert got["blowup"].diverged and got["blowup"].iterations == 1
    assert got["blowup"].relative_residual >= OPTS["divergence_factor"]
    assert (not got["budget"].converged and not got["budget"].diverged
            and got["budget"].iterations == 5)
    assert got["nonfinite-b"].diverged
    assert got["converges"].converged and \
        1 < got["converges"].iterations <= 5


@pytest.mark.parametrize("fmt", ["fp64", "posit32es2"])
def test_jacobi_lanes_match(fmt):
    systems = [(random_dense_spd(N, kappa=100.0, seed=s) * (s + 1),
                np.linspace(1.0, 2.0, N)) for s in range(3)]
    got = conjugate_gradient_lanes(FPContext(fmt), systems, jacobi=True)
    for (A, b), res in zip(systems, got):
        alone = conjugate_gradient(FPContext(fmt), A, b, jacobi=True)
        assert canonical(res) == canonical(alone)


def test_every_cg_small_cell_matches_its_run_alone():
    """The Fig. 6/7 benchmark grid (five matrices of orders 48, 66 and
    96, four formats, plain and rescaled), grouped by lane key as the
    serial engine groups it: ragged groups of fp64 and of fp32, and one
    group of both 32-bit posits, each lane in its own format."""
    scale = SCALES["small"]
    names = ("bcsstk01", "bcsstk02", "494_bus", "nos1", "nos2")
    cells = (common.cg_cells(scale, names=names)
             + common.cg_cells(scale, names=names, rescaled=True))
    groups: dict = {}
    for cell in cells:
        groups.setdefault(common.lane_key(cell, scale), []).append(cell)
    assert None not in groups
    assert sorted(len(g) for g in groups.values()) == [10, 10, 20]
    for group in groups.values():
        for cell, value in zip(group, common.compute_lanes(group, scale)):
            assert canonical(value) == canonical(_alone(cell, scale)), \
                cell.cell_id


def _alone(cell, scale):
    """The CG cell's payload from ``conjugate_gradient`` on its system
    alone."""
    A, b = common._cg_system(cell, scale)
    return conjugate_gradient(FPContext(cell.fmt), A, b,
                              rtol=cell.option("rtol", 1e-5),
                              max_iterations=scale.cg_max_iterations)


def test_every_sparse_full_cell_matches_its_run_alone():
    """The full-scale CSR benchmark grid (Fig. 6/7 CG and the X13 grid's
    CG column over four suite matrices), grouped by lane key as the
    serial engine groups it: one ragged group each for fp64, fp32 and
    fp16, and one per storage width for the table formats, each lane
    rounding in its own format."""
    scale = SCALES["full"]
    names = ("bcsstk02", "bcsstk22", "lund_b", "nos5")
    cells = (common.cg_cells(scale, names=names)
             + common.grid_cells(scale, solvers=("cg",), names=names))
    groups: dict = {}
    for cell in cells:
        groups.setdefault(common.lane_key(cell, scale), []).append(cell)
    assert None not in groups
    assert sorted(len(g) for g in groups.values()) == [4, 4, 8, 12, 16]
    for group in groups.values():
        for cell, value in zip(group, common.compute_lanes(group, scale)):
            assert canonical(value) == canonical(_alone(cell, scale)), \
                cell.cell_id


#: solver options shared by every lane of the ragged adversarial group
RAGGED_OPTS = {"max_iterations": 30, "divergence_factor": 1e4}


def _ragged_adversarial():
    """(name, A, b) CSR lanes of different orders and row patterns,
    each ending its own way under :data:`RAGGED_OPTS`."""
    rng = np.random.default_rng(11)
    # an arrow: one full row and column on a dominant diagonal
    arrow = np.diag(np.full(17, 20.0))
    arrow[0, 1:] = arrow[1:, 0] = rng.uniform(0.5, 1.0, 16)
    arrow_b = rng.standard_normal(17)
    arrow_b[0] = -1.5                # p0 = b: x[0] < 0, a -0.0 pad
    holes = random_dense_spd(11, kappa=30.0, seed=5)
    holes[rng.random((11, 11)) < 0.6] = 0.0
    holes = holes + holes.T + np.diag(np.full(11, 8.0))
    holes[[3, 8], :] = 0.0           # empty rows: a singular system
    lanes = [
        # full rows: no padding at all
        ("padded", random_dense_spd(9, kappa=50.0, seed=2),
         np.linspace(-1.0, 1.0, 9)),
        ("skewed", arrow, arrow_b),
        # one entry per row, three eigenvalues: done in three steps
        ("single-entry", np.diag(np.resize([1.0, 2.0, 4.0], 5)),
         rng.standard_normal(5)),
        ("empty-rows", holes, rng.standard_normal(11)),
        ("breakdown", np.zeros((6, 6)), np.ones(6)),   # pAp == 0
        ("zero-rhs", np.eye(4), np.zeros(4)),          # 0 iterations
        ("budget", random_dense_spd(23, kappa=1e7, seed=3),
         rng.standard_normal(23)),
        ("one-by-one", np.array([[3.0]]), np.array([-2.0])),
    ]
    return [(name, CSRMatrix.from_dense(A), b) for name, A, b in lanes]


#: the formats the ragged adversarial lanes run in
RAGGED_FORMATS = ("fp64", "fp32", "posit32es2", "posit16es1", "takum16",
                  "bf16")


@pytest.mark.parametrize("fmt", RAGGED_FORMATS)
def test_ragged_adversarial_lanes_match_their_own_solves(fmt):
    check_observed_lanes(
        _ragged_adversarial(),
        lambda systems: conjugate_gradient_lanes(FPContext(fmt), systems,
                                                 **RAGGED_OPTS),
        lambda A, b: conjugate_gradient(FPContext(fmt), A, b,
                                        **RAGGED_OPTS))


def _mixed(lanes, monkeypatch):
    """``conjugate_gradient_lanes`` over *lanes* (``(name, A, b,
    fmt)``), one context per lane, and the format sets of the lane
    contexts it built."""
    from repro.linalg import lanes as lanes_module
    made, real = [], lanes_module.LaneContext

    def recorded(fmts, *args):
        made.append([f.name for f in fmts])
        return real(fmts, *args)
    monkeypatch.setattr(lanes_module, "LaneContext", recorded)

    def solve(systems):
        return conjugate_gradient_lanes(
            [FPContext(fmt) for *_, fmt in lanes], systems, **RAGGED_OPTS)
    return solve, made


def _alone_in(A, b, fmt):
    return conjugate_gradient(FPContext(fmt), A, b, **RAGGED_OPTS)


def test_six_format_ragged_lanes_run_as_one_call(monkeypatch):
    """Every ragged adversarial lane in all six formats, interleaved, in
    one call: the table formats' lanes (both widths) share one lane
    context, fp64 and fp32 run as groups of their own, and each lane
    matches its run alone, its trace (in its own format) and its
    collector counts included."""
    lanes = [(f"{name}/{fmt}", A, b, fmt)
             for name, A, b in _ragged_adversarial()
             for fmt in RAGGED_FORMATS]
    solve, made = _mixed(lanes, monkeypatch)
    check_observed_lanes(lanes, solve, _alone_in)
    tables = {"posit32es2", "posit16es1", "takum16", "bf16"}
    assert set(made[0]) == tables
    # every lane but the zero right-hand side's, solved at the start
    assert len(made[0]) == 4 * (len(_ragged_adversarial()) - 1)
    # retirements narrow the lanes' formats with the lanes
    assert all(set(m) <= tables and len(m) > 1 for m in made)
    assert [len(m) for m in made] == sorted((len(m) for m in made),
                                            reverse=True)


def test_last_lane_finishes_in_its_own_format(monkeypatch):
    """A mixed group whose last lane differs in format from its first:
    once the others leave, that lane runs alone in its own context, so
    its result, trace events and counts are its own run's."""
    ragged = {name: (A, b) for name, A, b in _ragged_adversarial()}
    lanes = [("one-step", *ragged["single-entry"], "posit32es2"),
             ("skewed", *ragged["skewed"], "bf16"),
             ("budget", *ragged["budget"], "takum16")]
    solve, made = _mixed(lanes, monkeypatch)
    check_observed_lanes(lanes, solve, _alone_in)
    got = solve([(A, b) for _, A, b, _ in lanes])
    assert got[2].iterations == RAGGED_OPTS["max_iterations"]
    assert max(r.iterations for r in got[:2]) < got[2].iterations
    assert made[0] == ["posit32es2", "bf16", "takum16"]
    assert got[2].trace is None or got[2].trace.fmt == "takum16"


def test_ragged_adversarial_lanes_reach_the_intended_ends():
    lanes = _ragged_adversarial()
    got = dict(zip([name for name, _, _ in lanes],
                   conjugate_gradient_lanes(
                       FPContext("posit32es2"),
                       [(A, b) for _, A, b in lanes], **RAGGED_OPTS)))
    assert got["breakdown"].diverged and got["breakdown"].iterations == 1
    assert got["zero-rhs"].converged and got["zero-rhs"].iterations == 0
    assert got["single-entry"].converged and \
        got["single-entry"].iterations <= 4
    assert got["one-by-one"].converged and \
        got["one-by-one"].iterations == 1
    assert (not got["budget"].converged and not got["budget"].diverged
            and got["budget"].iterations == RAGGED_OPTS["max_iterations"])
    # lanes leave at many different steps
    assert len({r.iterations for r in got.values()}) >= 5


@pytest.mark.parametrize("fmt", ["fp64", "posit32es2", "fp16"])
def test_jacobi_csr_lanes_match(fmt):
    systems = [(CSRMatrix.from_dense(random_dense_spd(n, kappa=100.0,
                                                      seed=n) * n),
                np.linspace(1.0, 2.0, n)) for n in (5, 12, 8)]
    got = conjugate_gradient_lanes(FPContext(fmt), systems, jacobi=True)
    for (A, b), res in zip(systems, got):
        alone = conjugate_gradient(FPContext(fmt), A, b, jacobi=True)
        assert canonical(res) == canonical(alone)


def test_sequential_context_solves_csr_lanes_one_by_one():
    systems = [(A, b) for _, A, b in _ragged_adversarial()]
    got = conjugate_gradient_lanes(
        FPContext("posit16es1", sum_order="sequential"), systems,
        **RAGGED_OPTS)
    for (A, b), res in zip(systems, got):
        alone = conjugate_gradient(
            FPContext("posit16es1", sum_order="sequential"), A, b,
            **RAGGED_OPTS)
        assert canonical(res) == canonical(alone)


def test_lanes_leave_their_inputs_alone():
    A = random_dense_spd(N, kappa=10.0, seed=1)
    b = np.ones(N)
    A0, b0 = A.copy(), b.copy()
    conjugate_gradient_lanes(FPContext("posit32es2"), [(A, b), (A, 2 * b)])
    assert np.array_equal(A, A0) and np.array_equal(b, b0)
    assert A.flags.writeable


def test_empty_and_single_lane():
    ctx = FPContext("posit32es2")
    assert conjugate_gradient_lanes(ctx, []) == []
    A = random_dense_spd(N, kappa=10.0, seed=2)
    [res] = conjugate_gradient_lanes(ctx, [(A, np.ones(N))])
    assert canonical(res) == canonical(
        conjugate_gradient(FPContext("posit32es2"), A, np.ones(N)))


def test_lanes_reject_a_mix_of_dense_and_csr_systems():
    ctx = FPContext("posit32es2")
    with pytest.raises(ValueError, match="dense and CSR"):
        conjugate_gradient_lanes(
            ctx, [(CSRMatrix.from_dense(np.eye(3)), np.ones(3)),
                  (np.eye(3), np.ones(3))])


# -- the context's lane ops ---------------------------------------------

def _lanes(orders, seed: int = 0):
    """One operand and one vector per entry of *orders*.  Lane 0 is
    ~70 % nonzero, past the half-share line its own plan draws, the
    others ~20 %: a rule applied to the whole stack would round a
    different set of entries."""
    rng = np.random.default_rng(seed)
    A = [rng.standard_normal((n, n)) for n in orders]
    A[0][rng.random(A[0].shape) < 0.3] = 0.0
    for a in A[1:]:
        a[rng.random(a.shape) < 0.8] = 0.0
    return A, [rng.standard_normal(n) for n in orders]


@pytest.mark.parametrize("fmt", ["fp64", "fp32", "posit32es2", "posit16es1",
                                 "bf16"])
@pytest.mark.parametrize("order", ["pairwise", "sequential"])
@pytest.mark.parametrize("n", [1, 7, 33])
def test_dot_and_matvec_lanes_equal_single_calls(fmt, order, n):
    """Lane dots and a ragged dense stack's matvec (frozen lanes on the
    tape, writeable ones on the whole-array route) give each lane its
    single call's bits; a sequential context, whose folds have no
    ragged form, refuses both but in float64, which folds nothing."""
    orders = (n, n + 5, max(1, n // 2), 2 * n)
    A, x = _lanes(orders)
    ctx = FPContext(fmt, sum_order=order)
    segments = LaneSegments(orders)
    frozen = [freeze(np.array(ctx.asarray(a))) for a in A]
    flat, other = np.concatenate(x), np.concatenate(x[::-1])
    stacks = (DenseStack.of(frozen),                       # tape
              DenseStack.of([a.copy() for a in frozen]))   # whole-array
    if order == "sequential" and fmt != "fp64":
        with pytest.raises(ValueError, match="pairwise only"):
            ctx.dot(flat, other, segments=segments)
        for stack in stacks:
            with pytest.raises(ValueError, match="pairwise only"):
                ctx.matvec(stack, flat)
        return
    dots = ctx.dot(flat, other, segments=segments)
    assert dots.shape == (4,)
    for k in range(4):
        assert dots[k].hex() == ctx.dot(
            segments.lane(flat, k), segments.lane(other, k)).hex()
    for stack in stacks:
        out = ctx.matvec(stack, flat)
        assert out.shape == (sum(orders),)
        for k in range(4):
            single = ctx.matvec(frozen[k], x[k])
            assert segments.lane(out, k).tobytes() == single.tobytes()


@pytest.mark.parametrize("route", ["tape", "whole"])
def test_stacked_plan_rounds_what_the_lanes_would(route, monkeypatch):
    """A ragged stack rounds each lane's products and pairs, so it
    rounds as many elements as its lanes do one by one: on the tape
    their live products and live-live pairs, on the whole-array route
    every product and pair."""
    from repro.formats import get_format
    fmt = get_format("posit32es2")
    ctx = FPContext(fmt)
    A, x = _lanes((24, 9, 31), seed=1)
    frozen = [freeze(np.array(ctx.asarray(a))) for a in A]
    lanes = frozen if route == "tape" else [a.copy() for a in frozen]
    counted = []
    rnd = fmt.round
    monkeypatch.setattr(fmt, "round",
                        lambda v: counted.append(np.size(v)) or rnd(v))
    ctx = FPContext(fmt)
    ctx.matvec(DenseStack.of(lanes), np.concatenate(x))
    stacked = sum(counted)
    counted.clear()
    for a, v in zip(lanes, x):
        ctx.matvec(a, v)
    assert stacked == sum(counted)


# -- ragged and format-mixed dense lanes --------------------------------

#: small-scale suite matrices of orders 48, 66 and 96
DENSE_NAMES = ("bcsstk01", "bcsstk02", "nos1")
#: a budget some lanes reach and others do not
DENSE_OPTS = {"max_iterations": 200}


def _dense_suite(names=DENSE_NAMES):
    """(name, A, b) dense lanes of orders 48, 66 and 96, each plain and
    scaled by 2⁴ (a rescaled twin converges at another step)."""
    out = []
    for name in names:
        A = load_matrix(name, SCALES["small"])
        b = right_hand_side(A)
        out += [(name, A, b), (f"{name}x16", 16.0 * A, b)]
    return out


@pytest.mark.parametrize("jacobi", [False, True], ids=["plain", "jacobi"])
@pytest.mark.parametrize("fmt", ["fp64", "fp32", "posit32es2", "bf16"])
def test_ragged_dense_lanes_match_their_own_solves(fmt, jacobi):
    """Dense lanes of orders 48, 66 and 96 in one group: without any
    instrument each lane is its solo run, and under a tracer and a
    collector so are its trace events and its counts."""
    lanes = _dense_suite()
    opts = dict(DENSE_OPTS, jacobi=jacobi)
    got = conjugate_gradient_lanes(FPContext(fmt),
                                   [(A, b) for _, A, b in lanes], **opts)
    for (name, A, b), res in zip(lanes, got):
        alone = conjugate_gradient(FPContext(fmt), A, b, **opts)
        assert canonical(res) == canonical(alone), name
    assert len({r.iterations for r in got}) > 1  # lanes retire mid-run
    check_observed_lanes(
        lanes,
        lambda systems: conjugate_gradient_lanes(FPContext(fmt), systems,
                                                 **opts),
        lambda A, b: conjugate_gradient(FPContext(fmt), A, b, **opts))


#: format-mixed dense groups: 32-bit posits (the cg_small table group),
#: and 16-bit and 32-bit table formats of one step together
MIXED = {"posits": ("posit32es2", "posit32es3"),
         "zoo": ("posit16es2", "bf16", "takum16", "posit32es2", "takum32")}


@pytest.mark.parametrize("jacobi", [False, True], ids=["plain", "jacobi"])
@pytest.mark.parametrize("mix", list(MIXED))
def test_format_mixed_dense_lanes_match_their_own_solves(mix, jacobi,
                                                         monkeypatch):
    """Dense lanes of several table formats and orders run in one lane
    context, each in its own format: without any instrument each lane
    is its solo run, and under a tracer and a collector so are its
    trace events and its per-(site, format) counts."""
    fmts = MIXED[mix]
    lanes = [(f"{name}/{fmt}", A, b, fmt)
             for k, (name, A, b) in enumerate(_dense_suite())
             for fmt in [fmts[k % len(fmts)]]]
    opts = dict(DENSE_OPTS, jacobi=jacobi)
    _, made = _mixed(lanes, monkeypatch)

    def lanes_solve(systems):
        return conjugate_gradient_lanes(
            [FPContext(fmt) for *_, fmt in lanes], systems, **opts)

    def alone(A, b, fmt):
        return conjugate_gradient(FPContext(fmt), A, b, **opts)
    got = lanes_solve([(A, b) for _, A, b, _ in lanes])
    for (name, A, b, fmt), res in zip(lanes, got):
        assert canonical(res) == canonical(alone(A, b, fmt)), name
    assert made and set(made[0]) == set(fmts)
    check_observed_lanes(lanes, lanes_solve, alone)


def test_every_dense_retirement_order_matches_their_own_solves():
    """Four ragged dense lanes that leave at four different steps, in
    every order of the group: whichever lanes a retirement keeps, the
    stitched stack gives each its own solve's bits."""
    rng = np.random.default_rng(5)
    lanes = []
    for n, eigenvalues in ((5, 1), (9, 2), (12, 3), (7, 5)):
        # exact CG ends after as many steps as distinct eigenvalues
        lanes.append((np.diag(np.resize(np.arange(1.0, eigenvalues + 1),
                                        n)), rng.standard_normal(n)))
    ctx = FPContext("posit32es2")
    alone = [canonical(conjugate_gradient(ctx, A, b)) for A, b in lanes]
    ends = set()
    for order in itertools.permutations(range(4)):
        got = conjugate_gradient_lanes(ctx, [lanes[k] for k in order])
        for k, res in zip(order, got):
            assert canonical(res) == alone[k], order
        ends.add(tuple(r.iterations for r in got))
    assert len({r.iterations for r in conjugate_gradient_lanes(
        ctx, lanes)}) == 4
    assert len(ends) == 24
