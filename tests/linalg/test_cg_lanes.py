"""Lockstep CG lanes give every lane the bits of its own solve.

:func:`repro.linalg.cg.conjugate_gradient_lanes` runs B dense systems of
one order, or CSR systems of any orders (ragged lanes), as lanes of one
iteration body; each lane must come out as ``conjugate_gradient`` gives
it alone, payload for payload (compared as
``benchmarks.e2e.child.canonical`` text: flags, counts and every float
as ``float.hex``), whatever the other lanes do.  Under a tracer and a
collector, each lane's trace events must be its solo run's too, reach
the tracer in system order, and the lanes must round what the solo
runs round.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.e2e.child import canonical
from repro.arith import CSRMatrix, FPContext
from repro.config import SCALES
from repro.experiments import common
from repro.kernels.zeroplan import freeze
from repro.linalg import conjugate_gradient, conjugate_gradient_lanes
from repro.matrices import random_dense_spd
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
    """Under a tracer and a collector, each of *lanes* (``(name, A,
    b)``) comes out of ``solve_lanes(systems)`` as ``solve_alone(A, b)``
    gives it (with its trace, for a result that carries one); the
    tracer receives the lanes' events in system order, and the
    collector counts, per (site, format) and field by field, what it
    counts for the solves one by one."""
    counted = Collector()
    got, events = _observed(
        lambda: solve_lanes([(A, b) for _, A, b in lanes]), counted)
    expected, expected_counts = [], Collector()
    for (name, A, b), res in zip(lanes, got):
        alone, alone_events = _observed(lambda: solve_alone(A, b),
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
    """The Fig. 6/7 benchmark grid (five matrices, four formats, plain
    and rescaled), grouped by lane key as the serial engine groups it."""
    scale = SCALES["small"]
    names = ("bcsstk01", "bcsstk02", "494_bus", "nos1", "nos2")
    cells = (common.cg_cells(scale, names=names)
             + common.cg_cells(scale, names=names, rescaled=True))
    groups: dict = {}
    for cell in cells:
        groups.setdefault(common.lane_key(cell, scale), []).append(cell)
    assert None not in groups
    assert sorted(len(g) for g in groups.values()) == [2] * 8 + [6] * 4
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
    serial engine groups it: one ragged group per format."""
    scale = SCALES["full"]
    names = ("bcsstk02", "bcsstk22", "lund_b", "nos5")
    cells = (common.cg_cells(scale, names=names)
             + common.grid_cells(scale, solvers=("cg",), names=names))
    groups: dict = {}
    for cell in cells:
        groups.setdefault(common.lane_key(cell, scale), []).append(cell)
    assert None not in groups
    assert sorted(len(g) for g in groups.values()) == [4] * 7 + [8] * 2
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
        # full rows: the padded route's case when alone
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


@pytest.mark.parametrize("fmt", ["fp64", "fp32", "posit32es2",
                                 "posit16es1", "takum16", "bf16"])
def test_ragged_adversarial_lanes_match_their_own_solves(fmt):
    check_observed_lanes(
        _ragged_adversarial(),
        lambda systems: conjugate_gradient_lanes(FPContext(fmt), systems,
                                                 **RAGGED_OPTS),
        lambda A, b: conjugate_gradient(FPContext(fmt), A, b,
                                        **RAGGED_OPTS))


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


def test_lanes_reject_mixed_orders_and_sparse_systems():
    ctx = FPContext("posit32es2")
    with pytest.raises(ValueError, match="one order"):
        conjugate_gradient_lanes(ctx, [(np.eye(3), np.ones(3)),
                                       (np.eye(4), np.ones(4))])
    with pytest.raises(ValueError, match="dense and CSR"):
        conjugate_gradient_lanes(
            ctx, [(CSRMatrix.from_dense(np.eye(3)), np.ones(3)),
                  (np.eye(3), np.ones(3))])


# -- the context's lane ops ---------------------------------------------

def _stack(B: int, n: int, seed: int = 0):
    """B operands and B vectors.  Lane 0 is ~70 % nonzero, past the
    half-share line its own plan draws, the others ~20 %: a rule
    applied to the whole stack (~32 % nonzero) would round a different
    set of entries."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((B, n, n))
    A[0][rng.random((n, n)) < 0.3] = 0.0
    for k in range(1, B):
        A[k][rng.random((n, n)) < 0.8] = 0.0
    return A, rng.standard_normal((B, n))


@pytest.mark.parametrize("fmt", ["fp64", "fp32", "posit32es2", "posit16es1",
                                 "bf16"])
@pytest.mark.parametrize("order", ["pairwise", "sequential"])
@pytest.mark.parametrize("n", [1, 7, 33])
def test_dot_and_matvec_lanes_equal_single_calls(fmt, order, n):
    A, x = _stack(4, n)
    ctx = FPContext(fmt, sum_order=order)
    frozen = [freeze(np.array(ctx.asarray(a))) for a in A]
    stack = freeze(np.stack(frozen))
    dots = ctx.dot(x, x[::-1])
    assert dots.shape == (4,)
    for k in range(4):
        assert dots[k].hex() == ctx.dot(x[k], x[::-1][k]).hex()
    for operand in (stack, np.stack(frozen)):       # planned, whole-array
        out = ctx.matvec(operand, x)
        assert out.shape == (4, n)
        for k in range(4):
            single = ctx.matvec(frozen[k], x[k])
            assert out[k].tobytes() == single.tobytes()


@pytest.mark.parametrize("order", ["pairwise", "sequential"])
def test_stacked_plan_rounds_what_the_lanes_would(order, monkeypatch):
    """The half-share rule is decided per lane, so a stack rounds as
    many elements as its lanes do one by one."""
    from repro.formats import get_format
    fmt = get_format("posit32es2")
    ctx = FPContext(fmt, sum_order=order)
    A, x = _stack(3, 24, seed=1)
    frozen = [freeze(np.array(ctx.asarray(a))) for a in A]
    stack = freeze(np.stack(frozen))
    counted = []
    rnd = fmt.round
    monkeypatch.setattr(fmt, "round",
                        lambda v: counted.append(np.size(v)) or rnd(v))
    ctx = FPContext(fmt, sum_order=order)
    ctx.matvec(stack, x)
    stacked = sum(counted)
    counted.clear()
    for k in range(3):
        ctx.matvec(frozen[k], x[k])
    assert stacked == sum(counted)
