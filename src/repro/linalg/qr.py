"""Householder QR under emulated arithmetic.

The paper's §VI analysis leans on factor-norm identities to argue that
direct methods keep their working values near the original matrix's
scale: "‖R‖ = ‖A‖ for QR factorization and ‖R‖ = ‖Rᵀ‖ = √‖A‖ for
Cholesky Factorization".  This module provides the rounded QR needed to
*measure* that claim (the ``ext-factor-norms`` study) and rounds out
the direct-solver family (least-squares solves, a pivot-free
alternative to LU for non-symmetric systems).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arith.context import FPContext
from ..arith.triangular import solve_upper
from ..errors import FactorizationError

__all__ = ["qr_factor", "qr_solve", "QRFactors"]


@dataclass
class QRFactors:
    """Householder factors: ``A ≈ Q·R`` with Q orthonormal (m×n case:
    thin factors)."""

    Q: np.ndarray
    R: np.ndarray


def qr_factor(ctx: FPContext, A: np.ndarray) -> QRFactors:
    """Rounded Householder QR of an m×n matrix (m ≥ n).

    Every arithmetic operation — reflector construction, norm,
    application — is individually rounded to the context format.  Q is
    accumulated explicitly (the experiments need it for orthogonality
    measurements; for m up to the suite's sizes this is fine).
    """
    W = np.array(ctx.asarray(A), dtype=np.float64)
    if W.ndim != 2:
        raise ValueError(f"A must be a matrix, got shape {W.shape}")
    m, n = W.shape
    if m < n:
        raise ValueError(f"qr_factor expects m >= n, got {W.shape}")
    Q = np.eye(m, dtype=np.float64)

    for k in range(n):
        col = W[k:, k]
        sigma = ctx.norm2(col)
        if not np.isfinite(sigma):
            raise FactorizationError(
                f"non-finite column norm at step {k}", stage="qr",
                pivot_index=k)
        if sigma == 0.0:
            continue  # column already zero below the diagonal
        # v = col + sign(col_0)·σ·e₁  (stable reflector choice)
        alpha = sigma if col[0] >= 0 else -sigma
        v = np.array(col, dtype=np.float64, copy=True)
        v[0] = ctx.add(v[0], alpha)
        vtv = ctx.dot(v, v)
        if vtv == 0.0 or not np.isfinite(vtv):
            continue

        # apply H = I − 2·v·vᵀ/vᵀv to the trailing block of W
        tail = W[k:, k:]
        coeffs = ctx.div(ctx.mul(2.0, ctx.matvec(tail.T.copy(), v)), vtv)
        W[k:, k:] = ctx.sub_outer(tail, v, coeffs)
        # and to Q (accumulating Q = H_1 H_2 ... applied to identity)
        qtail = Q[:, k:]
        qcoeffs = ctx.div(ctx.mul(2.0, ctx.matvec(qtail, v)), vtv)
        Q[:, k:] = ctx.sub_outer(qtail, qcoeffs, v)

        # enforce the exact zeros the reflector produces analytically
        W[k + 1:, k] = 0.0

    return QRFactors(Q=Q[:, :n], R=np.triu(W[:n, :]))


def qr_solve(ctx: FPContext, factors: QRFactors,
             b: np.ndarray) -> np.ndarray:
    """Solve ``Ax = b`` (or least squares for tall A) from QR factors.

    ``x = R⁻¹ (Qᵀ b)`` with the projection and the substitution both
    rounded.
    """
    b = ctx.asarray(np.asarray(b, dtype=np.float64))
    y = ctx.matvec(factors.Q.T.copy(), b)
    return solve_upper(ctx, factors.R, y)
