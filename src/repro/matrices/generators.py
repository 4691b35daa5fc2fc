"""Synthetic SPD matrix generators.

The workhorse is :func:`synthesize_spd`, which builds a sparse SPD
matrix with independently-controlled

* dimension ``n`` and non-zero count (via the number of Givens
  rotations applied to a diagonal seed — orthogonal similarity, so the
  spectrum is preserved *exactly* up to roundoff),
* 2-norm (a final exact scalar multiplication),
* core (equilibrated) condition number (the clustered spectrum), and
* total condition number (a piecewise-constant two-sided diagonal
  spread — few distinct levels so the smeared spectrum stays clustered
  and CG still converges in realistic iteration counts).

Also provided: classic structured matrices (1-D/2-D Laplacians, graph
Laplacians via networkx) used by tests and examples.
"""

from __future__ import annotations

import numpy as np

from ..errors import MatrixGenerationError
from .spectra import SpectrumSpec, sample_spectrum

__all__ = [
    "apply_givens_mix",
    "spd_from_spectrum",
    "synthesize_spd",
    "arrow_powerlaw_spd",
    "laplacian_1d",
    "laplacian_2d",
    "graph_laplacian_spd",
    "random_dense_spd",
]


def apply_givens_mix(A: np.ndarray, target_nnz: int,
                     rng: np.random.Generator,
                     max_rotations: int | None = None) -> np.ndarray:
    """Apply random Givens similarity rotations until ``nnz >= target_nnz``.

    Each rotation ``G(i, j, θ)`` replaces rows/columns i and j by
    mixtures, merging their sparsity patterns — a cheap way to grow fill
    while preserving symmetry and the spectrum exactly.  A first sweep
    pairs every index once so no variable stays decoupled.
    """
    A = np.array(A, dtype=np.float64)
    n = A.shape[0]
    if max_rotations is None:
        max_rotations = 40 * n
    target_nnz = min(target_nnz, n * n)

    def rotate(i: int, j: int, theta: float) -> None:
        c, s = np.cos(theta), np.sin(theta)
        ri, rj = A[i].copy(), A[j].copy()
        A[i] = c * ri + s * rj
        A[j] = -s * ri + c * rj
        ci, cj = A[:, i].copy(), A[:, j].copy()
        A[:, i] = c * ci + s * cj
        A[:, j] = -s * ci + c * cj

    # coverage sweep: couple every variable to at least one partner
    # (runs to completion regardless of the nnz target so no variable
    # stays decoupled)
    half = n // 2
    order = rng.permutation(n)
    for k in range(half):
        rotate(int(order[k]), int(order[k + half]),
               float(rng.uniform(0.2, 1.2)))

    for _ in range(max_rotations):
        if np.count_nonzero(A) >= target_nnz:
            break
        i, j = rng.choice(n, size=2, replace=False)
        rotate(int(i), int(j), float(rng.uniform(0.2, 1.2)))
    return (A + A.T) / 2.0


def spd_from_spectrum(eigenvalues: np.ndarray, target_nnz: int,
                      rng: np.random.Generator) -> np.ndarray:
    """SPD matrix with the given spectrum and roughly *target_nnz* nonzeros."""
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    if np.any(eigenvalues <= 0):
        raise MatrixGenerationError("eigenvalues must be positive")
    A = np.diag(rng.permutation(eigenvalues))
    return apply_givens_mix(A, target_nnz, rng)


def _diagonal_spread(n: int, kappa_d: float, levels: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Piecewise-constant diagonal with ``max/min = sqrt(kappa_d)`` each side.

    Few distinct levels keep the spread from smearing the core spectrum
    into a CG-hostile continuum.
    """
    if kappa_d <= 1.0:
        return np.ones(n)
    vals = np.geomspace(1.0 / np.sqrt(np.sqrt(kappa_d)),
                        np.sqrt(np.sqrt(kappa_d)), levels)
    # each level applied two-sided contributes its square to the spread
    idx = rng.integers(0, levels, size=n)
    idx[:levels] = np.arange(levels)  # all levels present
    return vals[idx]


def synthesize_spd(n: int, norm2: float, kappa_total: float,
                   kappa_core: float, nnz: int,
                   seed: int, clusters: int = 12,
                   diag_levels: int = 8,
                   calibrate: bool = True) -> np.ndarray:
    """Build the synthetic twin of a Table-I matrix.

    Parameters
    ----------
    norm2, kappa_total:
        The ‖A‖₂ and k(A) columns of Table I.
    kappa_core:
        The equilibrated condition number governing factorization
        accuracy / IR convergence (chosen per matrix in
        :mod:`repro.matrices.suite` to reproduce the paper's Table II/III
        behaviour bands).
    nnz:
        Target non-zero count (the construction overshoots slightly).
    calibrate:
        Measure the realized total condition number and re-run once with
        a corrected diagonal spread (the spread composes inexactly with
        the core spectrum).
    """
    if kappa_core > kappa_total:
        kappa_core = kappa_total
    rng = np.random.default_rng(seed)

    def build(kd: float) -> np.ndarray:
        local = np.random.default_rng(seed)
        lam = sample_spectrum(SpectrumSpec(kappa=kappa_core,
                                           clusters=clusters), n, local)
        C = spd_from_spectrum(lam, nnz, local)
        d = _diagonal_spread(n, kd, diag_levels, local)
        M = C * d[:, None] * d[None, :]
        return (M + M.T) / 2.0

    kd = kappa_total / kappa_core
    A = build(kd)
    if calibrate and kd > 1.0:
        realized = _kappa2_sym(A)
        if np.isfinite(realized) and realized > 0:
            correction = kappa_total / realized
            if not (0.5 < correction < 2.0):
                kd = max(1.0, kd * correction)
                A = build(kd)

    s = norm2 / _norm2_sym(A)
    A = A * s
    if not np.all(np.isfinite(A)):
        raise MatrixGenerationError("generated matrix has non-finite entries")
    return A


def _norm2_sym(A: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(A))))


def _kappa2_sym(A: np.ndarray) -> float:
    w = np.abs(np.linalg.eigvalsh(A))
    lo = float(np.min(w))
    return np.inf if lo == 0.0 else float(np.max(w)) / lo


# ---------------------------------------------------------------------------
# Structured classics (tests, examples, extension experiments)
# ---------------------------------------------------------------------------

def laplacian_1d(n: int, scale: float = 1.0) -> np.ndarray:
    """Tridiagonal 1-D Poisson matrix (SPD, κ ≈ 4n²/π²)."""
    A = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    return scale * A


def laplacian_2d(nx: int, ny: int | None = None,
                 scale: float = 1.0) -> np.ndarray:
    """5-point 2-D Poisson matrix on an nx × ny grid (SPD)."""
    ny = nx if ny is None else ny
    Ix, Iy = np.eye(nx), np.eye(ny)
    Tx = laplacian_1d(nx)
    Ty = laplacian_1d(ny)
    return scale * (np.kron(Iy, Tx) + np.kron(Ty, Ix))


def graph_laplacian_spd(graph, shift: float = 1e-3,
                        scale: float = 1.0) -> np.ndarray:
    """Shifted Laplacian of a networkx graph — a power-grid-style SPD matrix.

    The pure graph Laplacian is singular (constant nullspace); the small
    diagonal *shift* (relative to the max degree) makes it SPD, mimicking
    the shunt terms of the ``*_bus`` admittance matrices.
    """
    import networkx as nx
    L = nx.laplacian_matrix(graph).toarray().astype(np.float64)
    deg = float(np.max(np.diag(L))) or 1.0
    return scale * (L + shift * deg * np.eye(L.shape[0]))


def random_dense_spd(n: int, kappa: float, seed: int = 0,
                     norm2: float = 1.0) -> np.ndarray:
    """Dense SPD matrix with a log-uniform spectrum (for tests)."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.geomspace(1.0 / kappa, 1.0, n)
    A = (Q * lam) @ Q.T
    A = (A + A.T) / 2.0
    return A * (norm2 / _norm2_sym(A))


def arrow_powerlaw_spd(n: int, norm2: float = 1.0, alpha: float = 1.6,
                       seed: int = 0) -> np.ndarray:
    """Arrow-headed SPD matrix with power-law row degrees.

    Row 0 couples to every variable (the arrow head) and row ``i``
    draws ``~(n-1)·(i+1)^-alpha`` extra partners, so the row-length
    distribution is maximally *skewed*: the padded row width equals the
    dimension while the average degree stays small.  This is the
    adversarial shape for padded sparse layouts — the fixture the
    segmented CSR fold (:mod:`repro.kernels.segment`) is benchmarked
    and regression-tested on.  Strict diagonal dominance makes the
    matrix SPD; the spectrum is then scaled exactly to *norm2*.
    """
    if n < 2:
        raise MatrixGenerationError("arrow matrix needs n >= 2")
    rng = np.random.default_rng(seed)
    A = np.zeros((n, n), dtype=np.float64)
    head = rng.uniform(0.1, 1.0, size=n - 1) * rng.choice((-1.0, 1.0),
                                                          size=n - 1)
    A[0, 1:] = head
    A[1:, 0] = head
    for i in range(1, n):
        deg = int((n - 1) * float(i + 1) ** -alpha)
        if deg < 1:
            continue
        partners = rng.choice(n - 1, size=min(deg, n - 1), replace=False)
        partners = partners + (partners >= i)  # skip the diagonal
        w = rng.uniform(0.1, 1.0, size=partners.size) \
            * rng.choice((-1.0, 1.0), size=partners.size)
        A[i, partners] += w
        A[partners, i] += w
    np.fill_diagonal(A, 0.0)
    # strict diagonal dominance => symmetric positive definite
    np.fill_diagonal(A, np.abs(A).sum(axis=1) * 1.05 + 0.1)
    return A * (norm2 / _norm2_sym(A))
