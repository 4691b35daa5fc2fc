"""Lockstep BiCGSTAB and GMRES lanes give every lane the bits of its own
solve.

:func:`repro.linalg.bicg.bicgstab_lanes` and
:func:`repro.linalg.gmres.gmres_lanes` run CSR systems of any orders
(ragged lanes) through one iteration body; each lane must come out as
``bicgstab`` or ``gmres`` gives it alone, payload for payload (compared
as ``benchmarks.e2e.child.canonical`` text: flags, counts, every float
as ``float.hex`` and every trace event), whatever the other lanes do.
Under a tracer and a collector, each lane's trace events must be its
solo run's, reach the tracer in system order, and the lanes must round
what the solo runs round.
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

from .test_cg_lanes import check_observed_lanes

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
        # full rows: no padding at all
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
    check_observed_lanes(
        _bicgstab_lanes(),
        lambda systems: bicgstab_lanes(FPContext(fmt), systems,
                                       **BICG_OPTS),
        lambda A, b: bicgstab(FPContext(fmt), A, b, **BICG_OPTS))


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
    check_observed_lanes(
        _gmres_lanes(),
        lambda systems: gmres_lanes(FPContext(fmt), systems, **GMRES_OPTS),
        lambda A, b: gmres(FPContext(fmt), A, b, **GMRES_OPTS))


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


#: the table formats of one storage width, which share a lane group
WIDTH_GROUPS = {16: ("bf16", "posit16es2", "takum16"),
                32: ("posit32es2", "takum32")}


def _interleaved(lanes, fmts):
    """Every lane of *lanes* in every format of *fmts*, interleaved:
    ``(name/fmt, A, b, fmt)``."""
    return [(f"{name}/{fmt}", A, b, fmt) for name, A, b in lanes
            for fmt in fmts]


def _made(monkeypatch):
    """The format names of every lane context the lane solvers build,
    in order."""
    from repro.linalg import lanes as lanes_module
    made, real = [], lanes_module.LaneContext

    def recorded(fmts, *args):
        made.append([f.name for f in fmts])
        return real(fmts, *args)
    monkeypatch.setattr(lanes_module, "LaneContext", recorded)
    return made


@pytest.mark.parametrize("width", sorted(WIDTH_GROUPS))
def test_bicgstab_width_group_matches_its_own_solves(width, monkeypatch):
    """Every adversarial BiCGSTAB lane in every table format of one
    width, in one call, one context per lane: the lanes share one lane
    context, and each lane matches its run alone under a tracer and a
    collector, its trace (in its own format) and its per-(site,
    format) counts included; the ω = 0 and ss = 0 lanes take the
    ``_omega`` subset in their own formats."""
    made = _made(monkeypatch)
    lanes = _interleaved(_bicgstab_lanes(), WIDTH_GROUPS[width])
    check_observed_lanes(
        lanes,
        lambda systems: bicgstab_lanes([FPContext(f) for *_, f in lanes],
                                       systems, **BICG_OPTS),
        lambda A, b, fmt: bicgstab(FPContext(fmt), A, b, **BICG_OPTS))
    assert set(made[0]) == set(WIDTH_GROUPS[width])
    # every lane but the zero right-hand side's, solved at the start
    assert len(made[0]) == len(lanes) - len(WIDTH_GROUPS[width])


@pytest.mark.parametrize("width", sorted(WIDTH_GROUPS))
def test_gmres_width_group_matches_its_own_solves(width, monkeypatch):
    """Every adversarial GMRES lane in every table format of one
    width, in one call: lucky breakdowns, early cycle ends and stuck
    lanes take the ``extend``/``advance`` subsets and the true
    residuals in their own formats, and each lane matches its run
    alone under a tracer and a collector."""
    made = _made(monkeypatch)
    lanes = _interleaved(_gmres_lanes(), WIDTH_GROUPS[width])
    check_observed_lanes(
        lanes,
        lambda systems: gmres_lanes([FPContext(f) for *_, f in lanes],
                                    systems, **GMRES_OPTS),
        lambda A, b, fmt: gmres(FPContext(fmt), A, b, **GMRES_OPTS))
    assert set(made[0]) == set(WIDTH_GROUPS[width])


def test_gmres_lanes_off_the_entry_format_finish_in_their_own(
        monkeypatch):
    """A GMRES width group whose early-ended lane and whose last lane
    are not in the first lane's format: the unfinished lane goes on
    alone under its own context, the last lane finishes in its own, and
    both match their runs alone, traces and counts included."""
    unfinished = []
    result = gmres_module._State.result

    def spy(self, system, x, iterations, res, history, trace, **outcome):
        if outcome.get("unfinished"):
            unfinished.append(trace.fmt if trace is not None
                              else system.ctx.fmt.name)
        return result(self, system, x, iterations, res, history, trace,
                      **outcome)

    monkeypatch.setattr(gmres_module._State, "result", spy)
    made = _made(monkeypatch)
    named = {name: (A, b) for name, A, b in _gmres_lanes()}
    lanes = [("lucky", *named["lucky"], "bf16"),
             ("early-end", *named["early-end"], "takum16"),
             ("budget", *named["budget"], "posit16es2")]
    check_observed_lanes(
        lanes,
        lambda systems: gmres_lanes([FPContext(f) for *_, f in lanes],
                                    systems, **GMRES_OPTS),
        lambda A, b, fmt: gmres(FPContext(fmt), A, b, **GMRES_OPTS))
    assert made[0] == ["bf16", "takum16", "posit16es2"]
    # the lucky lane leaves first and the early-ended one mid-cycle, so
    # the budget lane runs its last steps as the stack's last lane
    assert set(unfinished) == {"takum16"}
    got = gmres_lanes([FPContext(f) for *_, f in lanes],
                      [(A, b) for _, A, b, _ in lanes], **GMRES_OPTS)
    assert got[0].iterations == 1
    assert got[2].iterations == GMRES_OPTS["max_iterations"]


def test_formats_off_the_tables_keep_groups_of_their_own(monkeypatch):
    """fp16 and fp32 lanes among table-format lanes run as groups of
    their own, and every lane still matches its run alone."""
    made = _made(monkeypatch)
    lanes = _interleaved(_bicgstab_lanes()[:4],
                         ("fp16", "posit16es2", "fp32", "takum16"))
    got = bicgstab_lanes([FPContext(f) for *_, f in lanes],
                         [(A, b) for _, A, b, _ in lanes], **BICG_OPTS)
    for (_, A, b, fmt), res in zip(lanes, got):
        assert canonical(res) == canonical(
            bicgstab(FPContext(fmt), A, b, **BICG_OPTS))
    assert {f for m in made for f in m} == {"posit16es2", "takum16"}


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


def _alone(cell, scale):
    """The grid cell's payload from ``bicgstab`` or ``gmres`` on its
    system alone."""
    solve = {"bicgstab": bicgstab, "gmres": gmres}[cell.option("solver")]
    A, b = common._cg_system(cell, scale)
    return solve(FPContext(cell.fmt), A, b, rtol=cell.option("rtol"),
                 max_iterations=scale.cg_max_iterations)


def test_every_smoke_grid_cell_matches_its_run_alone():
    """All 70 smoke X13 BiCGSTAB and GMRES cells in eight groups: per
    solver, one five-lane group each for fp16 and fp32, one of the
    16-bit table formats (bf16, posit16es2, takum16) and one of the
    32-bit ones (posit32es2, takum32)."""
    scale = SCALES["smoke"]
    groups = _grid_groups(scale)
    assert sorted(len(g) for g in groups.values()) == [5, 5, 5, 5,
                                                       10, 10, 15, 15]
    for group in groups.values():
        for cell, value in zip(group, common.compute_lanes(group, scale)):
            assert canonical(value) == canonical(_alone(cell, scale)), \
                cell.cell_id


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
            assert canonical(value) == canonical(_alone(cell, scale)), \
                cell.cell_id
