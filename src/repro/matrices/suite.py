"""The Table-I matrix suite (synthetic twins).

The paper evaluates 19 SPD matrices from the Matrix Market repository.
Those files are not redistributable inside this offline reproduction,
so each matrix gets a *synthetic twin* generated to the paper's
published properties — dimension N, 2-norm ‖A‖₂, condition number k(A)
and non-zero count NNZ (Table I) — plus one calibration knob the paper
does not tabulate: the **core (equilibrated) condition number**, which
governs factorization accuracy and iterative-refinement convergence.
Core values were chosen per matrix so the twin falls in the same
behaviour band the paper reports in Tables II/III (which formats
converge, roughly how fast); see DESIGN.md §2 for the substitution
rationale and EXPERIMENTS.md for the per-matrix comparison.

If the genuine MatrixMarket files are available, drop them in a
directory and point ``REPRO_MATRIX_DIR`` at it — :func:`load_matrix`
prefers real files over twins (see :mod:`repro.matrices.market`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..config import RunScale, current_scale
from .generators import arrow_powerlaw_spd, synthesize_spd

__all__ = ["MatrixSpec", "SUITE", "SUITE_ORDER", "EXTRA_SUITE",
           "matrix_spec", "load_matrix", "load_suite",
           "right_hand_side"]


@dataclass(frozen=True)
class MatrixSpec:
    """Published properties of one Table-I matrix plus twin calibration.

    ``kappa_core`` is our calibration knob (see module docstring);
    everything else comes straight from the paper's Table I.
    """

    name: str
    kappa: float       # k(A), Table I
    n: int             # N, Table I
    norm2: float       # ||A||_2, Table I
    nnz: int           # NNZ, Table I
    kappa_core: float  # equilibrated conditioning (calibration)
    seed: int          # deterministic generation seed


#: Table I, in the paper's order (increasing ‖A‖₂).  kappa_core choices
#: place each twin in the behaviour band of Tables II/III.
SUITE: dict[str, MatrixSpec] = {
    s.name: s for s in [
        MatrixSpec("plat362",  2.2e11, 362,  7.7e-1,  5786, 1.0e8, 101),
        MatrixSpec("mhd416b",  5.1e9,  416,  2.2e0,   2312, 4.0e1, 102),
        MatrixSpec("662_bus",  7.9e5,  662,  4.0e3,   2474, 9.0e2, 103),
        MatrixSpec("lund_b",   3.0e4,  147,  7.4e3,   2441, 3.0e1, 104),
        MatrixSpec("bcsstk02", 4.3e3,  66,   1.8e4,   4356, 6.0e1, 105),
        MatrixSpec("685_bus",  4.2e5,  685,  2.6e4,   3249, 7.0e1, 106),
        MatrixSpec("1138_bus", 8.6e6,  1138, 3.0e4,   4054, 3.0e4, 107),
        MatrixSpec("494_bus",  2.4e6,  494,  3.0e4,   1666, 1.0e4, 108),
        MatrixSpec("nos5",     1.1e4,  468,  5.8e5,   5172, 7.0e2, 109),
        MatrixSpec("bcsstk22", 1.1e5,  138,  5.9e6,   696,  4.0e2, 110),
        MatrixSpec("nos6",     7.7e6,  685,  7.7e6,   3255, 5.0e3, 111),
        MatrixSpec("bcsstk09", 9.5e3,  1083, 6.8e7,   18437, 6.0e1, 112),
        MatrixSpec("lund_a",   2.8e6,  147,  2.2e8,   2449, 1.2e1, 113),
        MatrixSpec("nos1",     2.0e7,  237,  2.5e9,   1017, 8.0e3, 114),
        MatrixSpec("bcsstk01", 8.8e5,  48,   3.0e9,   400,  2.0e1, 115),
        MatrixSpec("bcsstk06", 7.6e6,  420,  3.5e9,   7860, 1.5e3, 116),
        MatrixSpec("msc00726", 4.2e5,  726,  4.2e9,   34518, 3.5e2, 117),
        MatrixSpec("bcsstk08", 2.6e7,  1074, 7.7e10,  12960, 8.0e2, 118),
        MatrixSpec("nos2",     5.1e9,  957,  1.57e11, 4137,  5.0e4, 119),
    ]
}

#: paper ordering (increasing 2-norm)
SUITE_ORDER: tuple[str, ...] = tuple(SUITE)

#: the row sets of the paper's IR tables (used by the benches to pick
#: workloads and by EXPERIMENTS.md to compare against)
TABLE2_ROWS: tuple[str, ...] = (
    "mhd416b", "662_bus", "lund_b", "bcsstk02", "685_bus", "nos6",
    "494_bus", "bcsstk09", "lund_a", "bcsstk01", "nos2")
TABLE3_ROWS: tuple[str, ...] = (
    "mhd416b", "662_bus", "lund_b", "bcsstk02", "685_bus", "nos5",
    "nos6", "bcsstk22", "bcsstk09", "lund_a", "nos1", "bcsstk01",
    "bcsstk06", "msc00726", "bcsstk08", "nos2")


#: structured extras outside the paper's Table I — selectable by name
#: in grids and benches but never part of ``SUITE_ORDER``, so every
#: default sweep (and its golden digest) is untouched.  ``arrow_496``
#: is the skewed-row stress shape for the segmented CSR path: one dense
#: arrow row drives the padded row width to n while the mean degree
#: stays ~5 (properties measured from the deterministic construction).
EXTRA_SUITE: dict[str, MatrixSpec] = {
    "arrow_496": MatrixSpec("arrow_496", 1.3e3, 496, 1.9e4, 2554,
                            1.3e3, 2024),
}


def matrix_spec(name: str) -> MatrixSpec:
    """Look up a suite (or extra) matrix by name."""
    try:
        return SUITE[name]
    except KeyError:
        try:
            return EXTRA_SUITE[name]
        except KeyError:
            raise KeyError(
                f"unknown suite matrix {name!r}; choose from "
                f"{list(SUITE) + list(EXTRA_SUITE)}") from None


@lru_cache(maxsize=64)
def _generate(name: str, scale_name: str) -> np.ndarray:
    from ..config import SCALES
    spec = matrix_spec(name)
    scale = SCALES[scale_name]
    n = scale.cap_dimension(spec.n)
    if name in EXTRA_SUITE:
        return arrow_powerlaw_spd(n=n, norm2=spec.norm2, seed=spec.seed)
    nnz = scale.cap_nnz(spec.nnz, spec.n)
    return synthesize_spd(n=n, norm2=spec.norm2, kappa_total=spec.kappa,
                          kappa_core=spec.kappa_core, nnz=nnz,
                          seed=spec.seed)


def load_matrix(name: str, scale: RunScale | None = None) -> np.ndarray:
    """Materialize one suite matrix at the given run scale.

    A real MatrixMarket file named ``<name>.mtx`` under
    ``$REPRO_MATRIX_DIR`` takes precedence over the synthetic twin.
    Returns a dense float64 array (the suite tops out at n = 1138).
    """
    mdir = os.environ.get("REPRO_MATRIX_DIR", "")
    if mdir:
        path = os.path.join(mdir, f"{name}.mtx")
        if os.path.exists(path):
            from .market import read_matrix_market
            return read_matrix_market(path)
    scale = scale or current_scale()
    return _generate(name, scale.name).copy()


def load_suite(scale: RunScale | None = None,
               names: tuple[str, ...] | None = None):
    """Yield ``(spec, A)`` over the suite in Table-I order."""
    scale = scale or current_scale()
    for name in (names or SUITE_ORDER):
        yield matrix_spec(name), load_matrix(name, scale)


def right_hand_side(A: np.ndarray) -> np.ndarray:
    """The paper's right-hand side: ``b = A·x̂`` with ``x̂ = (1/√n, …)ᵀ``.

    Computed in float64 ("we load these matrices into an extended
    precision format"); experiments cast it down per format.
    """
    n = A.shape[0]
    xhat = np.full(n, 1.0 / np.sqrt(n))
    return A @ xhat
