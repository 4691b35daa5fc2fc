"""Takum arithmetic formats (linear and logarithmic) as NumberFormats.

Takum ("tapered-precision machine number") is the 2024 posit successor
with a *bounded* tapered exponent: every width shares one 255-binade
dynamic range instead of posit's width-dependent runaway regimes.  An
``n``-bit takum reads, MSB first,

    S | D | R(3) | C(r) | M(p)        p = n - 5 - r

with regime ``r = R`` when the direction bit ``D`` is set and
``r = 7 - R`` otherwise, characteristic ``c = 2**r - 1 + C`` (D=1) or
``c = 1 - 2**(r+1) + C`` (D=0), so ``c`` spans exactly [-255, 254], and
mantissa ``m = M / 2**p`` in [0, 1).  The logarithmic value is
``l = (1 - 2S) * (c + m)``:

* **takum-log** (the original proposal): value ``(-1)**S * sqrt(e)**l``
  — a logarithmic number system, so powers of two are *not* exact;
* **takum** (linear): value ``(1 + m) * 2**c`` for S=0 and the exact
  two's-complement mirror ``(m - 2) * 2**(-c - 1)`` for S=1.

Both share posit's algebra: one all-zeros zero, one NaR pattern
(sign bit only), two's-complement negation, total order by signed
pattern, and saturation to ±maxpos / ±minpos instead of overflow or
underflow.  Rounding is round-to-nearest in *extended pattern space*
with ties to the even pattern, never rounding a nonzero value to zero
and never into NaR — the same contract the oracle codecs check for
posit.

The key implementation device is zero extension: an ``n``-bit takum is
exactly the 64-bit takum obtained by appending zero bits, because the
field split only ever moves the C/M cut.  Decode therefore shifts the
magnitude up to 64 bits and splits once; the decision boundary between
adjacent ``n``-bit patterns is the exact decode of the (n+1)-bit
half-point pattern.  For linear takum those boundaries are dyadic
rationals that fit a float64 exactly; for takum-log they are
transcendental (``exp`` of a nonzero dyadic), so the table builder
computes them with :mod:`decimal` at escalating precision until the
enclosing interval certifies the correctly rounded double — by the
Lindemann–Weierstrass theorem the true value is never representable,
so the escalation terminates and no tie handling is needed.

Rounding routes, mirroring :class:`~repro.formats.posit_format.PositFormat`:

* linear, nbits >= 13: vectorized per-binade granule kernel (every
  in-range binade stores >= 1 mantissa bit, so rint's half-even on the
  scaled mantissa equals pattern-space ties-to-even), with the
  exponent-bucketed two-level table of :mod:`repro.kernels.lut`
  layered on top;
* linear, nbits <= 12: exact dense table (the truncated-C regimes make
  the binade granule trick unsound there);
* takum-log, nbits <= 16: exact dense table of correctly rounded
  images and certified boundaries;
* takum-log, nbits > 16: scalar path — float64 ``log`` picks the
  pattern cell, and inputs within a guard band of an l-space midpoint
  are resolved exactly via the decimal comparator.
"""

from __future__ import annotations

import decimal
import math
from decimal import Decimal

import numpy as np

from ..errors import FormatError
from ..kernels import lut
from .base import TableRoundedFormat

__all__ = ["TakumFormat", "TAKUM8", "TAKUM16", "TAKUM32",
           "TAKUM_LOG8", "TAKUM_LOG16", "TAKUM_LOG32"]

#: characteristic range shared by every takum width
C_MIN, C_MAX = -255, 254


def _regime_len(c: int) -> int:
    """Regime length r of characteristic *c* (0..7)."""
    return (c + 1).bit_length() - 1 if c >= 0 else (-c).bit_length() - 1


def _base64(c: int) -> int:
    """The 64-bit magnitude pattern with characteristic *c* and M = 0."""
    if c >= 0:
        r = (c + 1).bit_length() - 1
        return (1 << 62) | (r << 59) | ((c - ((1 << r) - 1)) << (59 - r))
    r = (-c).bit_length() - 1
    return ((7 - r) << 59) | ((c - 1 + (1 << (r + 1))) << (59 - r))


def _split64(mag64: int) -> tuple[int, int, int]:
    """Split a 64-bit magnitude into ``(c, M, p)`` with ``m = M / 2**p``."""
    d = (mag64 >> 62) & 1
    rfield = (mag64 >> 59) & 7
    r = rfield if d else 7 - rfield
    p = 59 - r
    cval = (mag64 >> p) & ((1 << r) - 1)
    c = ((1 << r) - 1 + cval) if d else (1 - (1 << (r + 1)) + cval)
    return c, mag64 & ((1 << p) - 1), p


def _decode64_linear(mag64: int) -> float:
    """Exact float64 of a linear-takum magnitude (<= 53 significant bits
    for every zero-extended n<=32 pattern and every half-point)."""
    c, m, p = _split64(mag64)
    return math.ldexp(1.0 + m / (1 << p), c)


def _half_ell(mag64: int) -> tuple[int, int]:
    """``l/2`` of a magnitude as the exact dyadic ``num / 2**log2_den``."""
    c, m, p = _split64(mag64)
    return c * (1 << p) + m, p + 1


def _ell_float(mag64: int) -> float:
    """``l`` of a magnitude as an exact float64 (<= 36 significant bits)."""
    c, m, p = _split64(mag64)
    return c + m / (1 << p)


def _cr_exp_dyadic(num: int, log2_den: int) -> float:
    """Correctly rounded float64 of ``exp(num / 2**log2_den)``.

    Decimal arithmetic is correctly rounded per operation, so the
    result ``y`` at precision ``prec`` has relative error well under
    ``10**(4 - prec)``; when both ends of that interval convert to the
    same double, that double is certified.
    """
    if num == 0:
        return 1.0
    prec = 40
    while prec <= 2560:
        with decimal.localcontext() as ctx:
            ctx.prec = prec
            y = (Decimal(num) / Decimal(1 << log2_den)).exp()
            margin = y.copy_abs() * Decimal(10) ** (4 - prec)
            lo, hi = float(y - margin), float(y + margin)
        if lo == hi:
            return lo
        prec *= 2
    raise ArithmeticError("takum-log exp certification did not converge")


def _exp_boundary_above(num: int, log2_den: int) -> float:
    """Smallest float64 strictly above ``exp(num / 2**log2_den)``, num != 0.

    The true value is transcendental (Lindemann–Weierstrass), hence
    never a double and never midway between doubles: escalation always
    settles which side the certified double lies on.
    """
    prec = 40
    while prec <= 2560:
        with decimal.localcontext() as ctx:
            ctx.prec = prec
            y = (Decimal(num) / Decimal(1 << log2_den)).exp()
            margin = y.copy_abs() * Decimal(10) ** (4 - prec)
            lo, hi = float(y - margin), float(y + margin)
            if lo == hi:
                d = Decimal(lo)
                if d > y + margin:
                    return lo
                if d < y - margin:
                    return math.nextafter(lo, math.inf)
        prec *= 2
    raise ArithmeticError("takum-log boundary certification did not converge")


#: per-nbits (affine-bucket mask, granule) level-1 tables for the
#: vectorized linear kernel, indexed by shifted frexp exponent
_LIN_GRANULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


class TakumFormat(TableRoundedFormat):
    """A takum(nbits) format; ``log=True`` selects the logarithmic variant."""

    def __init__(self, nbits: int, log: bool = False):
        if not (6 <= nbits <= 32):
            raise FormatError(f"takum width must be in [6, 32], got {nbits}")
        self.nbits = nbits
        self.log = bool(log)
        self.name = f"takum_log{nbits}" if log else f"takum{nbits}"
        self.display_name = (f"Takum-log({nbits})" if log
                             else f"Takum({nbits})")
        self._npat = 1 << nbits
        self._nar = 1 << (nbits - 1)
        self._max_mag = self._nar - 1
        self._one_mag = 1 << (nbits - 2)  # c = 0, m = 0
        self._shift = 64 - nbits
        # exact-dense-table formats: every takum-log that fits a table,
        # and narrow linear takums whose truncated-C regimes break the
        # per-binade granule kernel
        self._table_based = (nbits <= lut.MAX_TABLE_BITS if log
                             else nbits <= 12)
        self._exact: tuple | None = None
        self._images: dict[int, float] = {}
        self._table2 = None
        self._maxpos = self._decode_mag(self._max_mag)
        self._minpos = self._decode_mag(1)
        self._eps = self._decode_mag(self._one_mag + 1) - 1.0

    # -- exact magnitude decode -------------------------------------------
    def _decode_mag(self, mag: int) -> float:
        """Exact value (linear) / correctly rounded image (log) of a
        positive magnitude pattern."""
        mag64 = mag << self._shift
        if not self.log:
            return _decode64_linear(mag64)
        v = self._images.get(mag)
        if v is None:
            v = _cr_exp_dyadic(*_half_ell(mag64))
            self._images[mag] = v
        return v

    # -- exact dense table (narrow linear, table-width log) ----------------
    def _boundary(self, mag: int, negative: bool) -> float:
        """Smallest float64 the round maps to the *upper* value of the
        adjacent pair at magnitude ``mag``/``mag+1`` (mirrored when
        *negative*): the (n+1)-bit half-point decode, adjusted for the
        ties-to-even-pattern rule (linear) or certified side (log)."""
        hp64 = (mag << self._shift) | (1 << (self._shift - 1))
        if self.log:
            above = _exp_boundary_above(*_half_ell(hp64))
            return above if not negative else -math.nextafter(
                above, -math.inf)
        b = _decode64_linear(hp64)
        if not negative:
            # upper pattern is mag+1; a tie rounds up iff it is even
            return b if (mag + 1) % 2 == 0 else math.nextafter(b, math.inf)
        # upper pattern is npat - mag, whose parity equals mag's
        return -b if mag % 2 == 0 else math.nextafter(-b, math.inf)

    def _exact_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._exact is None:
            mm, npat = self._max_mag, self._npat
            pos = [self._decode_mag(m) for m in range(1, mm + 1)]
            values = [-v for v in reversed(pos)] + [0.0] + pos
            patterns = ([npat - m for m in range(mm, 0, -1)] + [0]
                        + list(range(1, mm + 1)))
            bounds = [self._boundary(m, True) for m in range(mm - 1, 0, -1)]
            # only exact ±0 rounds to zero; anything else clamps to ±minpos
            bounds.append(0.0)
            bounds.append(math.nextafter(0.0, 1.0))
            bounds.extend(self._boundary(m, False) for m in range(1, mm))
            v = np.asarray(values, dtype=np.float64)
            b = np.asarray(bounds, dtype=np.float64)
            if not (np.all(np.diff(v) > 0) and np.all(np.diff(b) > 0)):
                raise AssertionError(
                    f"{self.name}: table values/boundaries not monotone")
            self._exact = (v, b, np.asarray(patterns, dtype=np.int64))
        return self._exact

    def _table_round(self, arr: np.ndarray) -> np.ndarray:
        values, bounds, _ = self._exact_table()
        out = values.take(np.searchsorted(bounds, arr, side="right"))
        zero = out == 0.0
        if zero.any():
            out[zero] = arr[zero] * 0.0  # restore the input's zero sign
        bad = ~np.isfinite(arr)
        if bad.any():
            out[bad] = np.nan  # NaR
        return out

    # -- vectorized linear kernel (nbits >= 13) ----------------------------
    def _granule_tables(self) -> tuple[np.ndarray, np.ndarray]:
        tabs = _LIN_GRANULES.get(self.nbits)
        if tabs is None:
            fast = np.zeros(lut.FREXP_E_TABLE, dtype=np.bool_)
            g = np.ones(lut.FREXP_E_TABLE, dtype=np.float64)
            for i in range(lut.FREXP_E_TABLE):
                c = lut.FREXP_E_LO + i - 1  # |x| in [2**c, 2**(c+1))
                if C_MIN <= c <= C_MAX:
                    p = self.nbits - 5 - _regime_len(c)
                    g[i] = math.ldexp(1.0, c - p)
                    fast[i] = True
            tabs = (fast, g)
            _LIN_GRANULES[self.nbits] = tabs
        return tabs

    def _round_impl(self, arr: np.ndarray) -> np.ndarray:
        """Bitwise-exact linear rounding: per-binade granule rint with
        saturation clamps.  ``x/g`` and ``rint(x/g)*g`` are exact (power
        of two granule, <= p+1 result bits), and rint's half-to-even on
        the scaled mantissa is the pattern-space ties-to-even because
        the binade base pattern has its low p >= 1 bits clear."""
        fast_tbl, g_tbl = self._granule_tables()
        ax = np.abs(arr)
        with np.errstate(invalid="ignore"):
            _, e = np.frexp(ax)
        idx = e.astype(np.int64) - lut.FREXP_E_LO
        g = g_tbl.take(idx)
        fast = fast_tbl.take(idx)
        # in-range, finite, nonzero lanes only: zeros must stay ±0 and
        # the inf/NaN frexp garbage must not reach the clamps
        fast &= (ax < np.inf) & (arr != 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            q = np.rint(ax / g) * g
            np.minimum(q, self._maxpos, out=q)
            np.maximum(q, self._minpos, out=q)
            out = np.where(fast, np.copysign(q, arr), arr)
        rest = ~fast & np.isfinite(arr) & (arr != 0.0)
        if rest.any():
            # below 2**-255 or at/above 2**255: pure saturation
            out[rest] = np.copysign(
                np.where(ax[rest] < 1.0, self._minpos, self._maxpos),
                arr[rest])
        bad = ~np.isfinite(arr)
        if bad.any():
            out[bad] = np.nan  # NaR
        return out

    def _two_level_spec(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every in-range binade is affine (p >= 1 mantissa bits for
        nbits >= 13); the sub-minpos / above-maxpos buckets saturate, so
        the tail table only needs the clamp targets plus bracketing
        neighbours."""
        fast, g = self._granule_tables()
        v2 = self._decode_mag(2)
        vpen = self._decode_mag(self._max_mag - 1)
        candidates = np.array([0.0, self._minpos, v2, vpen, self._maxpos])
        candidates = np.concatenate([candidates, -candidates])
        return g.copy(), fast.copy(), candidates

    def _affine_post(self, r: np.ndarray) -> np.ndarray:
        """Saturation rule of :meth:`_round_impl`, verbatim: binade
        rollover past maxpos clamps, and the bottom binade's rint down
        to the (unrepresentable) 2**-255 clamps up to minpos."""
        with np.errstate(invalid="ignore"):
            r = np.where(np.abs(r) > self._maxpos,
                         np.copysign(self._maxpos, r), r)
            r = np.where((np.abs(r) < self._minpos) & (r != 0.0),
                         np.copysign(self._minpos, r), r)
        return r

    def _two_level_table(self) -> "lut.TwoLevelTable":
        if self._table2 is None:
            self._table2 = lut.two_level_table(
                self._key(), self._two_level_spec, self._round_impl,
                post=self._affine_post,
                post_span=(self._minpos, self._maxpos), fmt_name=self.name)
        return self._table2

    # -- scalar path for wide takum-log ------------------------------------
    def _log_nearest_mag(self, a: float) -> int:
        """l-space pattern RNE of a positive finite float, clamped to
        [1, max_mag].  float64 log picks the cell; only inputs within a
        guard band of an l-midpoint (half-spacing >= 2**-28, float log
        error < 1e-13) escalate to the exact decimal comparator."""
        if a == 1.0:
            return self._one_mag
        lf = 2.0 * math.log(a)
        lo, hi = 1, self._max_mag
        if lf < _ell_float(lo << self._shift):
            return 1
        if lf >= _ell_float(hi << self._shift):
            return self._max_mag
        while hi - lo > 1:  # largest mag with l(mag) <= lf
            mid = (lo + hi) // 2
            if _ell_float(mid << self._shift) <= lf:
                lo = mid
            else:
                hi = mid
        hp64 = (lo << self._shift) | (1 << (self._shift - 1))
        d = lf - _ell_float(hp64)
        if abs(d) > 1e-11:
            return lo + 1 if d > 0.0 else lo
        above = _exp_boundary_above(*_half_ell(hp64))
        return lo + 1 if a >= above else lo

    def _log_round_scalar(self, x: float) -> float:
        if not math.isfinite(x):
            return math.nan  # NaR
        if x == 0.0:
            return x
        v = self._decode_mag(self._log_nearest_mag(abs(x)))
        return -v if x < 0.0 else v

    def _wide_log_round(self, arr: np.ndarray) -> np.ndarray:
        out = np.empty(arr.shape, dtype=np.float64)
        flat_in, flat_out = arr.ravel(), out.reshape(-1)
        for i in range(flat_in.size):
            flat_out[i] = self._log_round_scalar(float(flat_in[i]))
        return out

    # -- NumberFormat interface --------------------------------------------
    @property
    def table_step(self) -> str | None:
        if self._table_based or self.log:
            return None
        return super().table_step

    def round(self, x, runs=None, lanes=None):
        if not (self._table_based or self.log):
            # linear nbits >= 13: lut tiers
            return super().round(x, runs, lanes)
        arr = np.asarray(x, dtype=np.float64)
        scalar = arr.ndim == 0
        if scalar:
            arr = arr.reshape(1)
        if self._table_based:
            out = self._table_round(arr)
        else:
            out = self._wide_log_round(arr)
        return float(out[0]) if scalar else out

    @property
    def max_value(self) -> float:
        return self._maxpos

    @property
    def min_positive(self) -> float:
        return self._minpos

    @property
    def eps_at_one(self) -> float:
        return self._eps

    @property
    def saturates(self) -> bool:
        return True

    @property
    def is_logarithmic(self) -> bool:
        """True for takum-log: values live on an exponential grid, so
        powers of two (other than 1) are *not* exactly representable."""
        return self.log

    # -- bit-level codec ----------------------------------------------------
    def to_bits(self, value: float) -> int:
        v = float(value)
        if math.isnan(v) or math.isinf(v):
            return self._nar
        v = float(self.round(v))
        if v == 0.0:
            return 0
        if self._table_based:
            values, _, patterns = self._exact_table()
            return int(patterns[np.searchsorted(values, v)])
        a = abs(v)
        if self.log:
            mag = self._log_nearest_mag(a)
        else:
            _, e = math.frexp(a)
            c = e - 1
            p = self.nbits - 5 - _regime_len(c)
            frac = math.ldexp(a, -c) - 1.0  # exact: <= p stored bits
            mag = (_base64(c) >> self._shift) + round(math.ldexp(frac, p))
        return self._npat - mag if v < 0.0 else mag

    def from_bits(self, pattern: int) -> float:
        pattern &= self._npat - 1
        if pattern == 0:
            return 0.0
        if pattern == self._nar:
            return math.nan
        if pattern > self._nar:
            return -self._decode_mag(self._npat - pattern)
        return self._decode_mag(pattern)


TAKUM8 = TakumFormat(8)
TAKUM16 = TakumFormat(16)
TAKUM32 = TakumFormat(32)
TAKUM_LOG8 = TakumFormat(8, log=True)
TAKUM_LOG16 = TakumFormat(16, log=True)
TAKUM_LOG32 = TakumFormat(32, log=True)
