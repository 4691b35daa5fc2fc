"""Format-parameterized linear solvers: CG, BiCG(STAB), Cholesky, LU,
GMRES and mixed-precision iterative refinement.

The four Krylov solvers share one set-up and one finish, and CG,
BiCGSTAB and GMRES their lockstep lane state, in
:mod:`repro.linalg.lanes`.
"""

from .bicg import BiCGResult, bicg, bicgstab, bicgstab_lanes
from .cg import CGResult, conjugate_gradient, conjugate_gradient_lanes
from .cholesky import CholeskyResult, cholesky_factor, cholesky_solve
from .gmres import GMRESResult, gmres, gmres_lanes
from .ir import IRResult, iterative_refinement, lower_precision_storage
from .lu import LUFactors, lu_factor, lu_solve
from .qr import QRFactors, qr_factor, qr_solve
from .norms import (condition_number_2, factorization_backward_error,
                    fro_norm, inf_norm, normwise_backward_error,
                    relative_backward_error, two_norm)

__all__ = [
    "CGResult", "conjugate_gradient", "conjugate_gradient_lanes",
    "BiCGResult", "bicg", "bicgstab", "bicgstab_lanes",
    "CholeskyResult", "cholesky_factor", "cholesky_solve",
    "GMRESResult", "gmres", "gmres_lanes",
    "IRResult", "iterative_refinement", "lower_precision_storage",
    "LUFactors", "lu_factor", "lu_solve",
    "QRFactors", "qr_factor", "qr_solve",
    "two_norm", "inf_norm", "fro_norm", "condition_number_2",
    "relative_backward_error", "normwise_backward_error",
    "factorization_backward_error",
]
