"""Generic IEEE 754 softfloat emulation.

Supports any binary interchange-style format given a significand
precision ``p`` (bits, including the hidden bit) and exponent width
``w``: normalized numbers, gradual underflow through subnormals,
round-to-nearest ties-to-even, and overflow to ±inf.  Used for formats
NumPy has no dtype for — bfloat16 and the 8-bit minifloats in the
extension experiments — and as an independent cross-check of the native
fp16/fp32 casts in the test suite.

The quantization trick is the standard one (cf. Higham & Pranesh's
``chop``): scale so the target granule becomes 1.0, ``np.rint`` (which
rounds half to even), scale back.  All intermediate quantities are exact
in float64 for every p ≤ 52 we support.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import FormatError
from ..kernels import lut
from .base import TableRoundedFormat

__all__ = ["IEEEFormat", "BFLOAT16", "FP8_E4M3", "FP8_E5M2"]


class IEEEFormat(TableRoundedFormat):
    """An emulated IEEE binary format with precision *p* and exponent width *w*.

    Parameters
    ----------
    precision:
        Significand bits including the hidden bit (fp16 → 11, fp32 → 24).
    exp_bits:
        Exponent field width (fp16 → 5, fp32 → 8).
    name, display_name:
        Registry and table labels (derived from p/w when omitted).
    """

    def __init__(self, precision: int, exp_bits: int,
                 name: str | None = None, display_name: str | None = None):
        if not (2 <= precision <= 52):
            raise FormatError(f"precision must be in [2, 52], got {precision}")
        if not (2 <= exp_bits <= 11):
            raise FormatError(f"exp_bits must be in [2, 11], got {exp_bits}")
        self.precision = precision
        self.exp_bits = exp_bits
        self.emax = (1 << (exp_bits - 1)) - 1
        self.emin = 1 - self.emax
        self.nbits = 1 + exp_bits + (precision - 1)
        self.name = name or f"ieee{self.nbits}p{precision}e{exp_bits}"
        self.display_name = display_name or \
            f"IEEE(p={precision}, w={exp_bits})"

        # largest finite: (2 - 2**(1-p)) * 2**emax
        self._max = float(np.ldexp(2.0 - np.ldexp(1.0, 1 - precision),
                                   self.emax))
        # smallest positive subnormal: 2**(emin - (p-1))
        self._tiny = float(np.ldexp(1.0, self.emin - (precision - 1)))
        self._eps = float(np.ldexp(1.0, 1 - precision))
        self._table2 = None

    def _two_level_spec(self
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every bucket is affine for an IEEE format: the granule
        ``2**(max(s, emin) - (p-1))`` is a function of the frexp
        exponent alone and :meth:`_round_impl`'s scale/rint/unscale is
        exactly the per-bucket affine step, with overflow handled by
        the *post* hook.  The tail table therefore only ever sees
        non-finite inputs, which it delegates to the reference."""
        e = np.arange(lut.FREXP_E_LO, lut.FREXP_E_LO + lut.FREXP_E_TABLE,
                      dtype=np.int64)
        s_eff = np.maximum(e - 1, np.int64(self.emin))
        g = np.ldexp(1.0, (s_eff - np.int64(self.precision - 1))
                     .astype(np.int32))
        affine = np.ones(lut.FREXP_E_TABLE, dtype=np.bool_)
        candidates = np.array([0.0, self._max, -self._max,
                               np.inf, -np.inf])
        return g, affine, candidates

    def _affine_post(self, r: np.ndarray) -> np.ndarray:
        """Overflow rule of :meth:`_round_impl`, verbatim."""
        overflow_threshold = self._max * (1.0 + 0.5 * self._eps)
        r = np.where(np.abs(r) >= overflow_threshold,
                     np.copysign(np.inf, r), r)
        r = np.where((np.abs(r) > self._max) & np.isfinite(r),
                     np.copysign(self._max, r), r)
        return r

    def _two_level_table(self) -> "lut.TwoLevelTable":
        if self._table2 is None:
            self._table2 = lut.two_level_table(
                self._key(), self._two_level_spec, self._round_impl,
                step=self._affine_step, post=self._affine_post,
                post_span=(0.0, self._max), fmt_name=self.name)
        return self._table2

    def _round_impl(self, arr: np.ndarray) -> np.ndarray:
        out = arr.copy()
        finite = np.isfinite(arr) & (arr != 0)
        if not np.any(finite):
            return out
        v = arr[finite]
        with np.errstate(invalid="ignore"):
            _, e = np.frexp(np.abs(v))
        s = e.astype(np.int64) - 1  # |v| in [2**s, 2**(s+1))
        # effective unbiased exponent after clamping into the subnormal range
        s_eff = np.maximum(s, np.int64(self.emin))
        # granule: ulp = 2**(s_eff - (p-1))
        g_exp = (s_eff - np.int64(self.precision - 1)).astype(np.int32)
        g = np.ldexp(1.0, g_exp)
        with np.errstate(over="ignore"):
            r = np.rint(v / g) * g
        # rounding can push the magnitude to 2**(s+1); that is still exact.
        # overflow: magnitudes beyond the halfway point to the next ulp
        # above max go to inf (IEEE round-to-nearest overflow rule).
        overflow_threshold = self._max * (1.0 + 0.5 * self._eps)
        r = np.where(np.abs(r) >= overflow_threshold,
                     np.copysign(np.inf, r), r)
        r = np.where((np.abs(r) > self._max) & np.isfinite(r),
                     np.copysign(self._max, r), r)
        out[finite] = r
        return out

    @property
    def max_value(self) -> float:
        return self._max

    @property
    def min_positive(self) -> float:
        return self._tiny

    @property
    def eps_at_one(self) -> float:
        return self._eps

    # -- bit-level codec (standard sign/exponent/fraction layout) ----------
    def to_bits(self, value: float) -> int:
        v = float(self.round(float(value)))
        p, w = self.precision, self.exp_bits
        f_bits = p - 1
        sign = 1 if math.copysign(1.0, v) < 0 else 0
        if math.isnan(v):
            # canonical quiet NaN: exponent all ones, top fraction bit set
            return (sign << (w + f_bits)) | (((1 << w) - 1) << f_bits) \
                | (1 << max(f_bits - 1, 0))
        if math.isinf(v):
            return (sign << (w + f_bits)) | (((1 << w) - 1) << f_bits)
        if v == 0.0:
            return sign << (w + f_bits)
        m, e = math.frexp(abs(v))  # |v| = m * 2**e, m in [0.5, 1)
        ue = e - 1
        if ue < self.emin:  # subnormal: exponent field 0
            field_e = 0
            frac = round(math.ldexp(abs(v), (p - 1) - self.emin))
        else:
            field_e = ue + self.emax
            frac = round(math.ldexp(m * 2.0 - 1.0, f_bits))
        return (sign << (w + f_bits)) | (field_e << f_bits) | frac

    def from_bits(self, pattern: int) -> float:
        p, w = self.precision, self.exp_bits
        f_bits = p - 1
        pattern &= (1 << self.nbits) - 1
        sign = -1.0 if pattern >> (w + f_bits) else 1.0
        field_e = (pattern >> f_bits) & ((1 << w) - 1)
        frac = pattern & ((1 << f_bits) - 1)
        if field_e == (1 << w) - 1:
            return math.nan if frac else sign * math.inf
        if field_e == 0:
            return sign * math.ldexp(frac, self.emin - f_bits)
        return sign * math.ldexp(1.0 + math.ldexp(frac, -f_bits),
                                 field_e - self.emax)


#: bfloat16: 8 significand bits, fp32's exponent range
BFLOAT16 = IEEEFormat(8, 8, name="bf16", display_name="BFloat16")
#: OCP FP8 E4M3-style minifloat (without the non-IEEE NaN remapping)
FP8_E4M3 = IEEEFormat(4, 4, name="fp8e4m3", display_name="FP8(E4M3)")
#: OCP FP8 E5M2-style minifloat
FP8_E5M2 = IEEEFormat(3, 5, name="fp8e5m2", display_name="FP8(E5M2)")
