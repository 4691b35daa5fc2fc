"""Emulated per-operation-rounded arithmetic over float64 carriers."""

from .context import FPContext
from .sparse import CSRMatrix
from .fft import fft_rounded, fft_roundtrip_error, ifft_rounded
from .summation import SUM_ORDERS, rounded_sum, rounded_sum_last_axis
from .triangular import solve_lower, solve_upper

__all__ = ["FPContext", "CSRMatrix", "SUM_ORDERS", "rounded_sum",
           "rounded_sum_last_axis", "solve_lower", "solve_upper",
           "fft_rounded", "ifft_rounded", "fft_roundtrip_error"]
