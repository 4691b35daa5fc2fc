"""Correctly-rounded reference codecs over exact rationals.

One :class:`OracleCodec` per number format answers two questions with
mathematical certainty:

* ``decode``: what exact rational does this bit pattern represent?
* ``nearest``: which bit pattern does a correctly rounded conversion of
  an arbitrary exact rational select?

Both are implemented from the format *specifications* — the Posit
Standard (2022) and IEEE 754 — in unbounded integer arithmetic, sharing
no code with the production paths they exist to check
(:mod:`repro.posit.rounding`'s int64 vectorized kernel, the NumPy-cast
and scale-round tricks in :mod:`repro.formats`).

Rounding semantics
------------------
*IEEE* rounds to the **nearest value**, ties to the even significand,
with gradual underflow and round-to-nearest overflow to infinity
(values at or beyond ``(2 - 2**-p) * 2**emax`` become ±inf).

*Posit* rounds in **extended pattern space**: append the infinite-
precision payload below the ``nbits``-bit pattern and round that real
number to the nearest integer pattern, ties to the even pattern.  In
regions that store fraction bits this coincides with nearest-value
rounding, but in the tapered extremes (no stored fraction bits) the
cut-off between neighbouring posits is *geometric*, not arithmetic —
e.g. for posit(5, 2) the boundary between the representable values
``2**8`` and ``2**12`` sits at ``2**10``, not at their arithmetic mean.
Saturation clamps apply first: ``0 < |x| <= minpos`` rounds to ±minpos
(never to zero) and ``|x| >= maxpos`` to ±maxpos (never to NaR).
"""

from __future__ import annotations

import abc
from functools import lru_cache
from math import inf, nan

from ..errors import OracleUnsupportedFormat
from ..formats.base import NumberFormat
from ..formats.ieee import IEEEFormat
from ..formats.native import NativeIEEEFormat
from ..formats.posit_format import PositFormat
from ..formats.registry import get_format
from ..formats.rounding_modes import DirectedIEEEFormat, StochasticRounding
from ..formats.takum import TakumFormat
from .rational import (Rat, floor_log2_rat, rabs, radd, rcmp, rmul, rsign,
                       to_fraction)

__all__ = ["OracleCodec", "PositOracleCodec", "IEEEOracleCodec",
           "oracle_codec", "TABLE_MAX_NBITS"]

#: widest format for which :meth:`OracleCodec.magnitude_values` will
#: materialize the full table of finite magnitudes
TABLE_MAX_NBITS = 17


class OracleCodec(abc.ABC):
    """Exact decode + correctly-rounded encode for one format.

    Finite non-negative values occupy a contiguous, value-monotone range
    of *magnitude patterns* ``0 .. max_mag`` in both supported families;
    signs are applied outside (two's complement for posit, a sign bit
    for IEEE), so all rounding decisions reduce to the magnitude axis.
    """

    #: storage width in bits
    nbits: int
    #: largest finite magnitude pattern
    max_mag: int
    #: True for the posit/takum family: one NaR pattern that absorbs
    #: every operation, two's-complement negation, no infinities
    has_nar: bool = False

    # -- exact decode -------------------------------------------------------
    @abc.abstractmethod
    def decode_mag(self, mag: int) -> Rat:
        """Exact value of a finite magnitude pattern in ``[0, max_mag]``."""

    @abc.abstractmethod
    def decode_float(self, pattern: int) -> float:
        """float64 value of any full ``nbits`` pattern (specials included)."""

    @abc.abstractmethod
    def finite_value(self, pattern: int) -> Rat | None:
        """Exact value of a full pattern, or None for NaR/NaN/±inf."""

    # -- correctly-rounded encode -------------------------------------------
    @abc.abstractmethod
    def nearest_mag(self, q: Rat) -> int:
        """Magnitude pattern selected by correct rounding of ``q > 0``.

        For IEEE the result may be the infinity pattern (overflow).
        """

    @abc.abstractmethod
    def sqrt_mag(self, q: Rat) -> int:
        """Magnitude pattern of the correctly rounded ``sqrt(q)``, ``q > 0``.

        The comparison is performed against the *exact* (generally
        irrational) square root, so the result is correct even when no
        rational approximation of the root would be.
        """

    @abc.abstractmethod
    def _signed_pattern(self, mag: int, negative: bool) -> int:

        ...

    def nearest_pattern(self, q: Rat) -> int:
        """Full pattern selected by correct rounding of any rational."""
        sgn = rsign(q)
        if sgn == 0:
            return 0
        return self._signed_pattern(self.nearest_mag(rabs(q)), sgn < 0)

    def nearest_float(self, q: Rat) -> float:
        return self.decode_float(self.nearest_pattern(q))

    # -- bulk access --------------------------------------------------------
    def all_patterns(self) -> list[int]:
        """Every full bit pattern of the format (``2**nbits`` of them)."""
        return list(range(1 << self.nbits))

    def magnitude_values(self) -> list[Rat]:
        """Exact value of every finite magnitude pattern, index = pattern.

        Materialized once and cached; refused for formats wider than
        ``TABLE_MAX_NBITS`` where the table would be oversized.
        """
        if self.nbits > TABLE_MAX_NBITS:
            raise OracleUnsupportedFormat(
                f"magnitude table for {self.nbits}-bit format would hold "
                f"{self.max_mag + 1} entries; use decode_mag directly")
        cached = getattr(self, "_mag_values", None)
        if cached is None:
            cached = [self.decode_mag(m) for m in range(self.max_mag + 1)]
            self._mag_values = cached
        return cached


class PositOracleCodec(OracleCodec):
    """Reference codec for posit(nbits, es), Posit Standard semantics."""

    has_nar = True

    def __init__(self, nbits: int, es: int):
        if nbits < 2 or es < 0:
            raise OracleUnsupportedFormat(
                f"posit({nbits}, {es}) is not a valid configuration")
        self.nbits = nbits
        self.es = es
        self.npat = 1 << nbits
        self.nar_pattern = 1 << (nbits - 1)
        self.max_mag = self.nar_pattern - 1
        self.max_scale = (nbits - 2) << es
        self.maxpos: Rat = (1 << self.max_scale, 1)
        self.minpos: Rat = (1, 1 << self.max_scale)

    # -- decode -------------------------------------------------------------
    def decode_mag(self, mag: int) -> Rat:
        if mag == 0:
            return (0, 1)
        npos = self.nbits - 1
        first = (mag >> (npos - 1)) & 1
        run, i = 1, npos - 2
        while i >= 0 and ((mag >> i) & 1) == first:
            run += 1
            i -= 1
        k = run - 1 if first else -run
        w = npos - min(run + 1, npos)
        payload = mag & ((1 << w) - 1)
        e_bits = min(self.es, w)
        e = (payload >> (w - e_bits)) << (self.es - e_bits) if e_bits else 0
        f_bits = w - e_bits
        frac = payload & ((1 << f_bits) - 1)
        scale = (k << self.es) + e
        num, den = (1 << f_bits) + frac, 1 << f_bits
        if scale >= 0:
            return (num << scale, den)
        return (num, den << -scale)

    def finite_value(self, pattern: int) -> Rat | None:
        pattern &= self.npat - 1
        if pattern == self.nar_pattern:
            return None
        if pattern > self.nar_pattern:
            num, den = self.decode_mag(self.npat - pattern)
            return (-num, den)
        return self.decode_mag(pattern)

    def decode_float(self, pattern: int) -> float:
        q = self.finite_value(pattern)
        if q is None:
            return nan
        return float(to_fraction(q))

    def _signed_pattern(self, mag: int, negative: bool) -> int:
        return (self.npat - mag) & (self.npat - 1) if negative else mag

    # -- encode -------------------------------------------------------------
    def _fields_at_scale(self, s: int) -> tuple[int, int, int, int]:
        """``(e, regime_base, keep, pattern_base)`` of the octave at 2**s."""
        k = s >> self.es
        e = s - (k << self.es)
        r_len = min(k + 2 if k >= 0 else -k + 1, self.nbits - 1)
        keep = self.nbits - 1 - r_len
        regime = ((1 << (k + 1)) - 1) << 1 if k >= 0 else 1
        return e, regime, keep, regime << keep

    def nearest_mag(self, q: Rat) -> int:
        if rcmp(q, self.minpos) <= 0:
            return 1
        if rcmp(q, self.maxpos) >= 0:
            return self.max_mag
        num, den = q
        s = floor_log2_rat(q)
        e, _, keep, base = self._fields_at_scale(s)
        # t = q / 2**s - 1 in [0, 1), exactly
        if s >= 0:
            t_num, t_den = num - (den << s), den << s
        else:
            t_num, t_den = (num << -s) - den, den
        # extended pattern = base + (e + t) * 2**(keep - es); round RNE
        p_num, p_den = e * t_den + t_num, t_den
        shift = keep - self.es
        if shift >= 0:
            p_num <<= shift
        else:
            p_den <<= -shift
        whole, rem = divmod(p_num, p_den)
        pattern = base + whole
        twice = 2 * rem
        if twice > p_den or (twice == p_den and pattern & 1):
            pattern += 1
        # rounding up may step past maxpos's neighbour; clamp, never NaR
        return min(max(pattern, 1), self.max_mag)

    def sqrt_mag(self, q: Rat) -> int:
        # sqrt(q) <= minpos  <=>  q <= minpos**2  (and mirrored for maxpos)
        if rcmp(q, (1, 1 << (2 * self.max_scale))) <= 0:
            return 1
        if rcmp(q, (1 << (2 * self.max_scale), 1)) >= 0:
            return self.max_mag
        lo = _bisect_sqrt(self, q)
        v_lo = self.decode_mag(lo)
        if rcmp(rmul(v_lo, v_lo), q) == 0:
            return lo
        # Decide lo vs lo+1 by the pattern-space rule applied to the
        # exact root r = sqrt(q): compare ext(r) with lo + 1/2, rewritten
        # through the octave of r so only rational comparisons remain.
        s = floor_log2_rat(q) >> 1          # floor(log2(sqrt(q)))
        e, _, keep, base = self._fields_at_scale(s)
        # ext(r) >= lo + 1/2
        #   <=>  r/2**s >= (lo + 1/2 - base) * 2**(es - keep) - e + 1 =: T
        #   <=>  r >= 2**s * T =: C,   decided via  q  vs  C**2
        t_num, t_den = 2 * (lo - base) + 1, 2       # lo + 1/2 - base
        shift = self.es - keep
        if shift >= 0:
            t_num <<= shift
        else:
            t_den <<= -shift
        c_num, c_den = t_num + (1 - e) * t_den, t_den
        if s >= 0:
            c_num <<= s
        else:
            c_den <<= -s
        if c_num <= 0:                              # C <= 0 < r: round up
            return lo + 1
        d = rcmp(q, (c_num * c_num, c_den * c_den))
        if d > 0:
            return lo + 1
        if d < 0:
            return lo
        return lo if lo % 2 == 0 else lo + 1        # exact tie: even pattern


class IEEEOracleCodec(OracleCodec):
    """Reference codec for IEEE binary formats (precision p, width w)."""

    def __init__(self, precision: int, exp_bits: int):
        if precision < 2 or exp_bits < 2:
            raise OracleUnsupportedFormat(
                f"IEEE(p={precision}, w={exp_bits}) is not supported")
        self.precision = precision
        self.exp_bits = exp_bits
        self.f_bits = precision - 1
        self.nbits = 1 + exp_bits + self.f_bits
        self.emax = (1 << (exp_bits - 1)) - 1
        self.emin = 1 - self.emax
        self.inf_mag = ((1 << exp_bits) - 1) << self.f_bits
        self.max_mag = self.inf_mag - 1
        #: largest finite value, (2**p - 1) * 2**(emax - p + 1)
        self.max_finite: Rat = self._scaled((1 << precision) - 1,
                                            self.emax - precision + 1)
        #: RNE overflow boundary, (2**(p+1) - 1) * 2**(emax - p)
        self.overflow: Rat = self._scaled((1 << (precision + 1)) - 1,
                                          self.emax - precision)

    @staticmethod
    def _scaled(num: int, scale: int) -> Rat:
        return (num << scale, 1) if scale >= 0 else (num, 1 << -scale)

    # -- decode -------------------------------------------------------------
    def decode_mag(self, mag: int) -> Rat:
        field_e = mag >> self.f_bits
        frac = mag & ((1 << self.f_bits) - 1)
        if field_e == 0:                            # subnormal (or zero)
            return self._scaled(frac, self.emin - self.f_bits)
        return self._scaled((1 << self.f_bits) + frac,
                            field_e - self.emax - self.f_bits)

    def finite_value(self, pattern: int) -> Rat | None:
        pattern &= (1 << self.nbits) - 1
        mag = pattern & ((1 << (self.nbits - 1)) - 1)
        if mag >= self.inf_mag:
            return None
        num, den = self.decode_mag(mag)
        return (-num, den) if pattern >> (self.nbits - 1) else (num, den)

    def decode_float(self, pattern: int) -> float:
        pattern &= (1 << self.nbits) - 1
        mag = pattern & ((1 << (self.nbits - 1)) - 1)
        sign = -1.0 if pattern >> (self.nbits - 1) else 1.0
        if mag > self.inf_mag:
            return nan
        if mag == self.inf_mag:
            return sign * inf
        return sign * float(to_fraction(self.decode_mag(mag)))

    def _signed_pattern(self, mag: int, negative: bool) -> int:
        return mag | (1 << (self.nbits - 1)) if negative else mag

    # -- encode -------------------------------------------------------------
    def nearest_mag(self, q: Rat) -> int:
        if rcmp(q, self.overflow) >= 0:             # RNE overflow -> inf
            return self.inf_mag
        if rcmp(q, self.max_finite) >= 0:
            return self.max_mag
        lo, hi = 0, self.max_mag                    # v(lo) <= q < v(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if rcmp(self.decode_mag(mid), q) <= 0:
                lo = mid
            else:
                hi = mid
        d = rcmp(radd(q, q),
                 radd(self.decode_mag(lo), self.decode_mag(hi)))
        if d > 0:
            return hi
        if d < 0:
            return lo
        return lo if lo % 2 == 0 else hi            # tie: even significand

    def sqrt_mag(self, q: Rat) -> int:
        ov = self.overflow
        if rcmp(q, rmul(ov, ov)) >= 0:              # sqrt(q) overflows
            return self.inf_mag
        mx = self.max_finite
        if rcmp(q, rmul(mx, mx)) >= 0:
            return self.max_mag
        lo = _bisect_sqrt(self, q)
        hi = lo + 1
        v_lo = self.decode_mag(lo)
        if rcmp(rmul(v_lo, v_lo), q) == 0:
            return lo
        # nearest value: sqrt(q) vs midpoint m, via 4q vs (v_lo + v_hi)**2
        m2 = radd(v_lo, self.decode_mag(hi))
        d = rcmp(rmul((4, 1), q), rmul(m2, m2))
        if d > 0:
            return hi
        if d < 0:
            return lo
        return lo if lo % 2 == 0 else hi


def _bisect_sqrt(codec: OracleCodec, q: Rat) -> int:
    """Largest magnitude pattern whose square does not exceed ``q``.

    Callers guarantee ``decode_mag(0)**2 <= q < decode_mag(max_mag)**2``.
    """
    lo, hi = 0, codec.max_mag
    while hi - lo > 1:
        mid = (lo + hi) // 2
        v = codec.decode_mag(mid)
        if rcmp(rmul(v, v), q) <= 0:
            lo = mid
        else:
            hi = mid
    return lo


#: native NumPy-backed formats and their (precision, exponent-width)
_NATIVE_PARAMS = {"fp16": (11, 5), "fp32": (24, 8), "fp64": (53, 11)}


@lru_cache(maxsize=None)
def _codec_for(fmt: NumberFormat) -> OracleCodec:
    if isinstance(fmt, PositFormat):
        return PositOracleCodec(fmt.nbits, fmt.es)
    if isinstance(fmt, TakumFormat):
        # local import: takum_codec extends OracleCodec from this module
        from .takum_codec import takum_oracle_codec
        return takum_oracle_codec(fmt.nbits, log=fmt.log)
    if isinstance(fmt, NativeIEEEFormat):
        try:
            return IEEEOracleCodec(*_NATIVE_PARAMS[fmt.name])
        except KeyError:
            raise OracleUnsupportedFormat(
                f"no oracle parameters for native format {fmt.name!r}")
    if isinstance(fmt, (DirectedIEEEFormat, StochasticRounding)):
        raise OracleUnsupportedFormat(
            f"{fmt.name}: the oracle models round-to-nearest-even only")
    if isinstance(fmt, IEEEFormat):
        return IEEEOracleCodec(fmt.precision, fmt.exp_bits)
    raise OracleUnsupportedFormat(
        f"no oracle codec for format class {type(fmt).__name__}")


def oracle_codec(fmt: NumberFormat | str) -> OracleCodec:
    """The :class:`OracleCodec` for *fmt* (name or instance), cached."""
    return _codec_for(get_format(fmt))
