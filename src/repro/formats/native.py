"""IEEE formats with native NumPy storage types.

``Float16``, ``Float32`` and ``Float64`` quantize through a NumPy dtype
cast, which performs IEEE round-to-nearest-even with subnormal support
in hardware — both exact and fast.  Out-of-range values overflow to
±inf exactly as the standard (and the paper's Table II failures)
require.
"""

from __future__ import annotations

import numpy as np

from .base import NumberFormat

__all__ = ["NativeIEEEFormat", "FLOAT16", "FLOAT32", "FLOAT64"]


class NativeIEEEFormat(NumberFormat):
    """An IEEE 754 binary format backed by a native NumPy dtype."""

    def __init__(self, dtype: np.dtype, name: str, display_name: str):
        self._dtype = np.dtype(dtype)
        self.name = name
        self.display_name = display_name
        self.nbits = self._dtype.itemsize * 8
        info = np.finfo(self._dtype)
        self._max = float(info.max)
        self._tiny = float(info.smallest_subnormal)
        self._eps = float(info.eps)
        #: the scalar type narrower dtypes round Python floats through
        self._cast = None if self._dtype == np.float64 else self._dtype.type

    @property
    def dtype(self) -> np.dtype:
        """The backing NumPy dtype."""
        return self._dtype

    def round(self, x):
        if self._cast is not None and isinstance(x, float) \
                and -self._max <= x <= self._max:
            # in range: one scalar cast, which cannot overflow
            return float(self._cast(x))
        arr = np.asarray(x, dtype=np.float64)
        if self._dtype == np.float64:
            out = arr.copy() if isinstance(x, np.ndarray) else arr
        else:
            with np.errstate(over="ignore"):
                out = arr.astype(self._dtype).astype(np.float64)
        return float(out) if np.isscalar(x) or arr.ndim == 0 else out

    @property
    def max_value(self) -> float:
        return self._max

    @property
    def min_positive(self) -> float:
        return self._tiny

    @property
    def eps_at_one(self) -> float:
        return self._eps

    # -- bit-level codec (hardware layout via NumPy views) ----------------
    _UINT = {2: np.uint16, 4: np.uint32, 8: np.uint64}

    def to_bits(self, value: float) -> int:
        with np.errstate(over="ignore", invalid="ignore"):
            v = self._dtype.type(value)
        return int(v.view(self._UINT[self._dtype.itemsize]))

    def from_bits(self, pattern: int) -> float:
        pattern &= (1 << self.nbits) - 1
        u = self._UINT[self._dtype.itemsize](pattern)
        return float(u.view(self._dtype))


FLOAT16 = NativeIEEEFormat(np.float16, "fp16", "Float16")
FLOAT32 = NativeIEEEFormat(np.float32, "fp32", "Float32")
FLOAT64 = NativeIEEEFormat(np.float64, "fp64", "Float64")
