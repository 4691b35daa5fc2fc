"""Which dense operands get a cached fold-tape plan, and for how long.

A plan holds its operand's nonzeros and zero pattern, so
:func:`repro.kernels.zeroplan.plan_for` serves one only to a frozen
array (read-only, owning its data), keeps it while the array lives,
never hands it to another array, and lets it die with its array.  A
dense lane stack builds one plan for all its lanes, and the smaller
stacks retiring lanes leave behind take their part of it.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.arith import CSRMatrix, FPContext
from repro.config import SCALES
from repro.kernels import zeroplan
from repro.linalg import (bicg, bicgstab, conjugate_gradient, gmres,
                          qr_factor, qr_solve)
from repro.matrices.suite import load_matrix, right_hand_side


@pytest.fixture
def builds(monkeypatch):
    """Count plan builds, each as the number of lanes it plans."""
    made = []

    class Counting(zeroplan.DensePlan):
        __slots__ = ()

        def __init__(self, lanes):
            made.append(len(lanes))
            super().__init__(lanes)
    monkeypatch.setattr(zeroplan, "DensePlan", Counting)
    return made


def _sparse(n: int = 12, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A[rng.random((n, n)) < 0.7] = 0.0
    return A


def test_writeable_arrays_and_views_get_no_plan(builds):
    ctx = FPContext("posit32es2")
    x = np.ones(12)
    A = _sparse()
    frozen = zeroplan.freeze(A.copy())
    for operand in (A, frozen[:, :], frozen.T, A[::1, ::1]):
        assert zeroplan.plan_for(operand) is None
        ctx.matvec(operand, x)
        assert id(operand) not in zeroplan._PLANS
    assert builds == []


def test_qr_per_call_copies_get_no_plan(builds):
    A = load_matrix("bcsstk01", SCALES["smoke"])
    ctx = FPContext("posit32es2")
    qr_solve(ctx, qr_factor(ctx, A), right_hand_side(A))
    assert builds == []


@pytest.mark.parametrize("solver, plans", [
    (conjugate_gradient, 1), (bicg, 2), (bicgstab, 1), (gmres, 1)])
def test_a_solve_builds_each_operand_plan_once(solver, plans, builds):
    """bicg freezes A and its contiguous transpose: two plans."""
    A = load_matrix("nos1", SCALES["small"])
    solver(FPContext("posit32es2"), A, right_hand_side(A),
           max_iterations=20)
    assert len(builds) == plans


def test_native_cast_solve_builds_one_plan(builds):
    """fp32 rounds by a dtype cast and takes the tape like every other
    rounded format."""
    A = load_matrix("nos1", SCALES["small"])
    conjugate_gradient(FPContext("fp32"), A, right_hand_side(A),
                       max_iterations=20)
    assert len(builds) == 1


def test_stored_negative_zero_gets_no_plan(builds):
    """``(−0)·x[j]`` would make that row's pads differ from the other
    rows': the operand keeps the whole-array route, decided once."""
    A = _sparse()
    A[A == 0] = 0.0
    A[0, np.flatnonzero(A[0] == 0)[0]] = -0.0
    frozen = zeroplan.freeze(A.copy())
    ctx = FPContext("posit32es2")
    x = np.arange(1.0, 13.0)
    for _ in range(2):
        assert ctx.matvec(frozen, x).tobytes() == ctx.matvec(A, x).tobytes()
    assert zeroplan.plan_for(frozen) is None
    assert id(frozen) in zeroplan._PLANS
    assert builds == []


def test_lane_stacks_leave_no_plans_alive(builds):
    """A dense lane group builds one plan for its stack and at most one
    for its last lane's own matrix; the smaller stacks retiring lanes leave
    behind take their part of the stack's, and every plan dies with its
    arrays."""
    from repro.linalg import conjugate_gradient_lanes
    gc.collect()
    before = len(zeroplan._PLANS)
    # one step, three steps (three eigenvalues), then the budget
    systems = [(np.eye(8), np.ones(8)),
               (np.diag(np.resize([1.0, 2.0, 3.0], 8)), np.ones(8))]
    for seed in range(2):
        A = _sparse(8, seed) + 8.0 * np.eye(8)
        systems.append((A + A.T, np.ones(8)))
    results = conjugate_gradient_lanes(FPContext("posit16es1"), systems,
                                       max_iterations=12)
    assert len({r.iterations for r in results}) > 1
    # the stack's plan, then (if one lane runs on alone) that lane's own
    assert builds[0] == 4 and builds[1:] in ([], [1])
    del results
    gc.collect()
    assert len(zeroplan._PLANS) == before


def test_back_to_back_solves_leave_no_plans_alive(builds):
    ctx = FPContext("posit16es1")
    gc.collect()
    before = len(zeroplan._PLANS)
    for seed in range(200):
        A = _sparse(8, seed) + 8.0 * np.eye(8)
        A = A + A.T
        conjugate_gradient(ctx, A, np.ones(8), max_iterations=3)
    gc.collect()
    assert len(builds) == 200
    assert len(zeroplan._PLANS) == before


def _reused_id(dead_id: int, n: int) -> np.ndarray | None:
    """A new frozen (n, n) array at *dead_id*, if the allocator gives one."""
    keep = []
    for _ in range(200):
        B = zeroplan.freeze(np.ones((n, n)))
        if id(B) == dead_id:
            return B
        keep.append(B)
    return None


@pytest.mark.parametrize("evict", [True, False],
                         ids=["weakref", "stale-entry"])
def test_reused_id_never_gets_the_old_plan(evict, monkeypatch):
    """With eviction disabled the stale entry stays in the cache; the
    lookup still sees that it belongs to a dead array."""
    if not evict:
        monkeypatch.setattr(zeroplan, "_evict", lambda key: None)
    n = 6
    for _ in range(20):
        A = zeroplan.freeze(np.zeros((n, n)))
        old = zeroplan.plan_for(A)
        dead = id(A)
        del A
        B = _reused_id(dead, n)
        if B is not None:
            break
    else:
        pytest.skip("the allocator never reused an id")
    plan = zeroplan.plan_for(B)
    assert plan is not old
    assert plan.data.size == n * n  # B is all ones: every product lives
    ctx = FPContext("posit16es1")
    x = np.arange(1.0, n + 1)
    assert ctx.matvec(B, x).tobytes() == ctx.matvec(B.copy(), x).tobytes()
    zeroplan._PLANS.pop(dead, None)


def test_making_a_frozen_array_writeable_drops_its_plan(builds):
    ctx = FPContext("posit32es2")
    x = np.arange(1.0, 13.0)
    A = zeroplan.freeze(np.eye(12))
    ctx.matvec(A, x)
    assert id(A) in zeroplan._PLANS
    A.setflags(write=True)
    ctx.matvec(A, x)
    assert id(A) not in zeroplan._PLANS
    A[3, 7] = 1.0 / 3.0  # a new nonzero the old plan would not round
    zeroplan.freeze(A)
    assert ctx.matvec(A, x).tobytes() == ctx.matvec(A.copy(), x).tobytes()
    assert len(builds) == 2


def test_exact_context_and_csr_pass_through():
    csr = CSRMatrix.from_dense(np.eye(3))
    assert zeroplan.freeze(csr) is csr
    A = zeroplan.freeze(np.eye(3))
    FPContext("fp64").matvec(A, np.ones(3))
    assert id(A) not in zeroplan._PLANS


def _same_plan(a, b) -> None:
    """Two plans hold equal arrays, level for level."""
    assert a.shape == b.shape
    for name in ("data", "cols", "runs", "zeros", "rows", "lens", "at"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    fa, fb = a.fold, b.fold
    assert (fa.n, fa.row_width, fa.pads, fa.size) == \
        (fb.n, fb.row_width, fb.pads, fb.size)
    assert np.array_equal(fa.final_src, fb.final_src)
    assert len(fa.levels) == len(fb.levels)
    for la, lb in zip(fa.levels, fb.levels):
        assert np.array_equal(la.pairs, lb.pairs)
        assert (la.out, la.live) == (lb.out, lb.live)
        assert np.array_equal(la.runs, lb.runs)
        assert np.array_equal(la.padded, lb.padded)


def test_a_subset_plan_equals_a_fresh_build():
    """The plan a retirement keeps is, array for array, the plan of the
    kept lanes built afresh: for every set of lanes kept from a ragged
    stack (an all-zero lane, a 1 × 1 one, rectangular ones, row widths
    up to 69), in stack order and reversed, and kept again from the
    kept plan."""
    import itertools
    rng = np.random.default_rng(8)
    shapes = ((5, 7), (1, 1), (9, 3), (4, 33), (3, 3), (7, 69))
    lanes = []
    for shape in shapes:
        A = rng.standard_normal(shape)
        A[rng.random(shape) < 0.6] = 0.0
        lanes.append(A)
    lanes[4][:] = 0.0
    plan = zeroplan.DensePlan(lanes)
    for r in range(1, len(lanes) + 1):
        for kept in itertools.combinations(range(len(lanes)), r):
            for order in (kept, kept[::-1]):
                sub = plan.subset(order)
                _same_plan(sub, zeroplan.DensePlan([lanes[k] for k in order]))
                _same_plan(sub.subset([0]),
                           zeroplan.DensePlan([lanes[order[0]]]))

