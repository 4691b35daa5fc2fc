"""Lockstep BiCGSTAB and GMRES lanes give every lane the bits of its own
solve.

:func:`repro.linalg.bicg.bicgstab_lanes` and
:func:`repro.linalg.gmres.gmres_lanes` run CSR systems of any orders
(ragged lanes) through one iteration body; each lane must come out as
``bicgstab`` or ``gmres`` gives it alone, payload for payload (compared
as ``benchmarks.e2e.child.canonical`` text: flags, counts, every float
as ``float.hex`` and, for BiCGSTAB, every trace event), whatever the
other lanes do.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from benchmarks.e2e.child import canonical
from repro.arith import CSRMatrix, FPContext
from repro.config import SCALES
from repro.experiments import common
from repro.experiments.ext_solver_grid import DEFAULT_MATRICES
from repro.linalg import bicgstab, bicgstab_lanes, gmres, gmres_lanes
from repro.matrices import random_dense_spd

#: the module, which ``repro.linalg.gmres`` (the function) shadows
gmres_module = importlib.import_module("repro.linalg.gmres")

#: formats of the adversarial groups: the exact context, IEEE, posit,
#: takum and a 16-bit format whose overflow comes early
FORMATS = ["fp64", "fp32", "posit32es2", "posit16es2", "takum16", "fp16"]


def _common_lanes(rng):
    """(name, A, b) lanes both solvers meet: ragged orders and row
    patterns, a zero right-hand side, a NaN and a spent budget."""
    arrow = np.diag(np.full(17, 20.0))
    arrow[0, 1:] = arrow[1:, 0] = rng.uniform(0.5, 1.0, 16)
    nan_matrix = random_dense_spd(7, kappa=10.0, seed=8)
    nan_matrix[2, 4] = np.nan
    nan_b = rng.standard_normal(6)
    nan_b[1] = np.nan
    return [
        # full rows: the padded route's case when alone
        ("padded", random_dense_spd(9, kappa=50.0, seed=2),
         np.linspace(-1.0, 1.0, 9)),
        ("skewed", arrow, rng.standard_normal(17)),
        ("zero-rhs", np.eye(4), np.zeros(4)),
        ("nan-matrix", nan_matrix, np.ones(7)),
        ("nan-rhs", random_dense_spd(6, kappa=10.0, seed=9), nan_b),
        ("budget", random_dense_spd(23, kappa=1e7, seed=3),
         rng.standard_normal(23)),
        ("one-by-one", np.array([[3.0]]), np.array([-2.0])),
    ]


def _bicgstab_lanes():
    """CSR lanes each ending BiCGSTAB its own way under
    :data:`BICG_OPTS`.  The breakdown systems are exact in every
    format (entries ±1, ±2, ½)."""
    rng = np.random.default_rng(5)
    lanes = _common_lanes(rng) + [
        # p = b, A·p ⟂ b: denom == 0 at the first step
        ("denom-zero", np.array([[0.0, -1.0], [1.0, 0.0]]),
         np.array([1.0, 0.0])),
        # α = -1, ω = -½, then r ⟂ r̂₀: ρ == 0 stops the second step
        ("rho-zero", np.array([[-1.0, -1.0, 0.0], [-1.0, 0.0, -1.0],
                               [0.0, 1.0, 0.0]]), np.ones(3)),
        # s ≠ 0 in A's null space: ss == 0, so ω == 0 stops the step
        ("omega-zero", np.array([[1.0, 1.0], [0.0, 0.0]]),
         np.ones(2)),
        # s == 0: ss == 0 and ω == 0.0, yet r = 0 converges first
        ("ss-zero", np.diag(np.full(4, 2.0)), np.array([1.0, -1.0,
                                                        1.0, 1.0])),
        ("converges", random_dense_spd(12, kappa=20.0, seed=6),
         rng.standard_normal(12)),
    ]
    return [(name, CSRMatrix.from_dense(A), b) for name, A, b in lanes]


BICG_OPTS = {"rtol": 1e-5, "max_iterations": 25}


@pytest.mark.parametrize("fmt", FORMATS)
def test_bicgstab_adversarial_lanes_match_their_own_solves(fmt):
    lanes = _bicgstab_lanes()
    got = bicgstab_lanes(FPContext(fmt), [(A, b) for _, A, b in lanes],
                         **BICG_OPTS)
    for (name, A, b), res in zip(lanes, got):
        alone = bicgstab(FPContext(fmt), A, b, **BICG_OPTS)
        assert canonical(res) == canonical(alone), name


def test_bicgstab_adversarial_lanes_reach_the_intended_ends():
    lanes = _bicgstab_lanes()
    got = dict(zip([name for name, _, _ in lanes],
                   bicgstab_lanes(FPContext("posit32es2"),
                                  [(A, b) for _, A, b in lanes],
                                  **BICG_OPTS)))
    for name in ("denom-zero", "omega-zero", "nan-matrix", "nan-rhs"):
        assert got[name].diverged and got[name].iterations == 1, name
    assert got["rho-zero"].diverged and got["rho-zero"].iterations == 2
    assert got["ss-zero"].converged and got["ss-zero"].iterations == 1
    assert got["zero-rhs"].converged and got["zero-rhs"].iterations == 0
    assert got["converges"].converged
    assert (not got["budget"].converged and not got["budget"].diverged
            and got["budget"].iterations == BICG_OPTS["max_iterations"])
    # every lane keeps its own trace: one iteration event per step (a
    # denom breakdown stops before the step records one), then finish
    for name, res in got.items():
        events = [e["event"] for e in res.trace.events]
        assert events[-1] == "finish", name
        steps = res.iterations - (name in ("denom-zero", "nan-matrix",
                                           "nan-rhs"))
        assert events.count("iteration") == steps, name
    assert len({r.iterations for r in got.values()}) >= 4


def _gmres_lanes():
    """CSR lanes each ending GMRES its own way under :data:`GMRES_OPTS`
    (restart cycles of 5)."""
    rng = np.random.default_rng(6)
    lanes = _common_lanes(rng) + [
        # A·v₀ = 2·v₀ exactly: hk1 == 0, the lucky breakdown
        ("lucky", np.diag(np.full(4, 2.0)), np.ones(4)),
        # singular: a cycle ends early without converging, and the
        # lane goes on alone from its iterate and iteration count
        ("early-end", np.array([[-1.0, 0.0, -1.0, 0.0],
                                [0.0, 1.0, 1.0, -1.0],
                                [-1.0, 1.0, -1.0, -1.0],
                                [0.0, -1.0, 1.0, 1.0]]), np.ones(4)),
        # nothing to rotate in the first column: no iteration, and the
        # true residual of the zero iterate
        ("stuck", np.zeros((5, 5)), np.ones(5)),
        ("restarts", random_dense_spd(14, kappa=200.0, seed=7),
         rng.standard_normal(14)),
    ]
    return [(name, CSRMatrix.from_dense(A), b) for name, A, b in lanes]


GMRES_OPTS = {"rtol": 1e-5, "restart": 5, "max_iterations": 30}


@pytest.mark.parametrize("fmt", FORMATS)
def test_gmres_adversarial_lanes_match_their_own_solves(fmt):
    lanes = _gmres_lanes()
    got = gmres_lanes(FPContext(fmt), [(A, b) for _, A, b in lanes],
                      **GMRES_OPTS)
    for (name, A, b), res in zip(lanes, got):
        alone = gmres(FPContext(fmt), A, b, **GMRES_OPTS)
        assert canonical(res) == canonical(alone), name


def test_gmres_adversarial_lanes_reach_the_intended_ends(monkeypatch):
    unfinished = []
    result = gmres_module._State.result

    def spy(self, system, x, iterations, res, history, trace, **outcome):
        if outcome.get("unfinished"):
            unfinished.append(iterations)
        return result(self, system, x, iterations, res, history, trace,
                      **outcome)

    monkeypatch.setattr(gmres_module._State, "result", spy)
    lanes = _gmres_lanes()
    got = dict(zip([name for name, _, _ in lanes],
                   gmres_lanes(FPContext("posit32es2"),
                               [(A, b) for _, A, b in lanes],
                               **GMRES_OPTS)))
    assert got["lucky"].converged and got["lucky"].iterations == 1
    assert got["zero-rhs"].converged and got["zero-rhs"].iterations == 0
    assert not got["stuck"].converged and got["stuck"].iterations == 0
    assert got["stuck"].relative_residual == 1.0
    for name in ("nan-matrix", "nan-rhs"):
        assert not got[name].converged and got[name].iterations == 0
    assert got["restarts"].iterations > GMRES_OPTS["restart"]
    assert (not got["budget"].converged and
            got["budget"].iterations == GMRES_OPTS["max_iterations"])
    # the early-ended lane left the stack mid-cycle
    assert unfinished and all(k % GMRES_OPTS["restart"]
                              for k in unfinished)
    assert not got["early-end"].converged


@pytest.mark.parametrize("solve, alone", [(bicgstab_lanes, bicgstab),
                                          (gmres_lanes, gmres)])
def test_sequential_context_and_dense_systems_solve_one_by_one(solve,
                                                               alone):
    systems = [(A, b) for _, A, b in _gmres_lanes()]
    sequential = FPContext("posit16es2", sum_order="sequential")
    dense = [(A.to_dense(), b) for A, b in systems[:4]]
    for ctx, group in ((sequential, systems), (FPContext("fp32"), dense)):
        got = solve(ctx, group, rtol=1e-5, max_iterations=20)
        for (A, b), res in zip(group, got):
            assert canonical(res) == canonical(alone(
                FPContext(ctx.fmt, sum_order=ctx.sum_order), A, b,
                rtol=1e-5, max_iterations=20))


@pytest.mark.parametrize("solve", [bicgstab_lanes, gmres_lanes])
def test_empty_and_single_lane(solve):
    ctx = FPContext("posit32es2")
    assert solve(ctx, []) == []
    A = CSRMatrix.from_dense(random_dense_spd(6, kappa=10.0, seed=2))
    [res] = solve(ctx, [(A, np.ones(6))])
    single = bicgstab if solve is bicgstab_lanes else gmres
    assert canonical(res) == canonical(single(FPContext("posit32es2"), A,
                                              np.ones(6)))


def _grid_groups(scale, **options):
    """The X13 BiCGSTAB and GMRES cells at *scale*, grouped by lane key
    as the serial engine groups them."""
    groups: dict = {}
    for cell in common.grid_cells(scale, solvers=("bicgstab", "gmres"),
                                  names=DEFAULT_MATRICES, **options):
        groups.setdefault(common.lane_key(cell, scale), []).append(cell)
    assert None not in groups
    return groups


def test_every_smoke_grid_cell_matches_its_run_alone():
    """All 70 smoke X13 BiCGSTAB and GMRES cells: one five-lane group
    per solver and format."""
    scale = SCALES["smoke"]
    groups = _grid_groups(scale)
    assert sorted(len(g) for g in groups.values()) == [5] * 14
    for group in groups.values():
        for cell, value in zip(group, common.compute_lanes(group, scale)):
            alone = common.compute_cell(cell, scale)
            assert canonical(value) == canonical(alone), cell.cell_id


@pytest.mark.parametrize("fmt", ["fp32", "posit16es2", "takum32", "bf16"])
def test_small_grid_systems_match_under_a_short_budget(fmt):
    """The X13 small-scale systems (orders 66 and 96, ragged) through
    both solvers on a 120-iteration budget: lanes converge, leave and
    spend the budget at different steps."""
    scale = SCALES["small"]
    systems = [common._cg_system(cell, scale)
               for cell in common.grid_cells(scale, solvers=("gmres",),
                                             formats=(fmt,),
                                             names=DEFAULT_MATRICES)]
    for solve, alone in ((bicgstab_lanes, bicgstab), (gmres_lanes, gmres)):
        got = solve(FPContext(fmt), systems, rtol=1e-5, max_iterations=120)
        for (A, b), res in zip(systems, got):
            assert canonical(res) == canonical(alone(
                FPContext(fmt), A, b, rtol=1e-5, max_iterations=120))


@pytest.mark.tier2
def test_every_small_grid_cell_matches_its_run_alone():
    """All 70 small-scale X13 BiCGSTAB and GMRES cells at their full
    budget (about two minutes)."""
    scale = SCALES["small"]
    for group in _grid_groups(scale).values():
        for cell, value in zip(group, common.compute_lanes(group, scale)):
            alone = common.compute_cell(cell, scale)
            assert canonical(value) == canonical(alone), cell.cell_id
