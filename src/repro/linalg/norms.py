"""Norms and backward-error metrics used throughout the evaluation.

All metrics are computed in float64 — they are *measurements* of the
emulated runs, not part of the emulated arithmetic.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "two_norm",
    "inf_norm",
    "fro_norm",
    "condition_number_2",
    "relative_backward_error",
    "normwise_backward_error",
    "factorization_backward_error",
]


def two_norm(A: np.ndarray) -> float:
    """Spectral norm ‖A‖₂ (largest singular value).

    For the symmetric matrices in this study this equals the largest
    absolute eigenvalue; we use the symmetric eigensolver when the input
    is symmetric because it is both faster and more accurate than a full
    SVD.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim == 1:
        return float(np.linalg.norm(A))
    if np.array_equal(A, A.T):
        w = np.linalg.eigvalsh(A)
        return float(np.max(np.abs(w)))
    return float(np.linalg.norm(A, 2))


def inf_norm(A: np.ndarray) -> float:
    """‖A‖∞ — max absolute row sum (max |x| for vectors)."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim == 1:
        return float(np.max(np.abs(A))) if A.size else 0.0
    return float(np.max(np.sum(np.abs(A), axis=1)))


def fro_norm(A: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(A, dtype=np.float64)))


def condition_number_2(A: np.ndarray) -> float:
    """2-norm condition number κ₂(A); inf for singular matrices."""
    A = np.asarray(A, dtype=np.float64)
    if np.array_equal(A, A.T):
        w = np.abs(np.linalg.eigvalsh(A))
        small = float(np.min(w))
        return np.inf if small == 0.0 else float(np.max(w)) / small
    s = np.linalg.svd(A, compute_uv=False)
    return np.inf if s[-1] == 0.0 else float(s[0] / s[-1])


def _apply64(A, x: np.ndarray) -> np.ndarray:
    """Exact float64 ``A @ x`` for dense arrays or CSR operators."""
    if hasattr(A, "matvec64"):
        return A.matvec64(x)
    return np.asarray(A, dtype=np.float64) @ x


def relative_backward_error(A, x: np.ndarray,
                            b: np.ndarray) -> float:
    """The paper's error metric: ``‖b − Ax‖₂ / ‖b‖₂``.

    *A* may be a dense array or any operator with a ``matvec64``
    method (e.g. :class:`repro.arith.sparse.CSRMatrix`).  Returns inf
    when the solution contains non-finite entries.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        return np.inf
    r = np.asarray(b, dtype=np.float64) - _apply64(A, x)
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        return float(np.linalg.norm(r))
    return float(np.linalg.norm(r)) / nb


def normwise_backward_error(A: np.ndarray, x: np.ndarray,
                            b: np.ndarray) -> float:
    """Rigal–Gaches normwise backward error ``‖r‖ / (‖A‖_F‖x‖ + ‖b‖)``.

    Used as the "accurate to Float64 precision" convergence test in the
    mixed-precision iterative-refinement experiments.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        return np.inf
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    r = b - A @ x
    denom = fro_norm(A) * float(np.linalg.norm(x)) + float(np.linalg.norm(b))
    if denom == 0.0:
        return float(np.linalg.norm(r))
    return float(np.linalg.norm(r)) / denom


def factorization_backward_error(A: np.ndarray, R: np.ndarray,
                                 denominator: str = "A") -> float:
    """Cholesky factor quality ``‖RᵀR − A‖_F / ‖·‖_F`` (paper Fig. 10b).

    The paper's caption normalizes by ‖R‖_F; the conventional metric
    normalizes by ‖A‖_F.  *denominator* selects ``"A"`` (default) or
    ``"R"``; EXPERIMENTS.md reports the conventional one and notes the
    discrepancy.
    """
    A = np.asarray(A, dtype=np.float64)
    R = np.asarray(R, dtype=np.float64)
    if not np.all(np.isfinite(R)):
        return np.inf
    num = fro_norm(R.T @ R - A)
    den = fro_norm(A) if denominator == "A" else fro_norm(R)
    return np.inf if den == 0.0 else num / den
