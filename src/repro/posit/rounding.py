"""Vectorized float64 → posit quantization.

This is the kernel every emulated posit operation goes through: compute
the operation in IEEE double precision (which holds every posit(≤32, ≤3)
value exactly), then call :func:`posit_round` to round the result to the
nearest posit.  The implementation works purely on ``int64`` NumPy arrays
using the "round the monotone integer encoding" technique:

1. decompose each double into scale ``s`` and 52-bit fraction,
2. assemble the *exact* posit bit pattern extended with all 52 fraction
   bits as ``(regime | payload)`` where ``payload = (e << 52) | frac52``
   fits in an int64,
3. round the extended pattern to ``nbits`` bits with round-to-nearest /
   ties-to-even — the carry out of the fraction automatically propagates
   through exponent and regime because posit patterns order the same way
   their values do,
4. decode the rounded pattern back to a double.

The result is bit-identical to the exact scalar reference
:func:`repro.posit.codec.round_to_nearest` (the test suite checks this
exhaustively for small widths and statistically for the paper's formats).

The hot path avoids the full pattern route: regions that store at least
one fraction bit have *uniformly* spaced posits, so rounding there is a
divide / ``np.rint`` / multiply against the region's granule.  The
regime / exponent / fraction-width chain that used to be recomputed per
call is a function of the frexp exponent alone, so it is precomputed
once per ``(nbits, es)`` into two 2098-entry tables (one per possible
float64 exponent) and gathered with ``np.take``; intermediates live in
a :class:`~repro.kernels.scratch.ScratchPool` instead of fresh
temporaries.  Narrow formats can skip even this via the searchsorted
tables in :mod:`repro.kernels.lut` (see
:class:`~repro.formats.posit_format.PositFormat`).
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidPositConfig
from ..kernels.scratch import ScratchPool
from .codec import PositConfig, posit_config

__all__ = [
    "posit_round",
    "posit_encode_array",
    "posit_decode_array",
    "posit_two_level_spec",
    "VECTORIZED_MAX_NBITS",
]

# keep = nbits - 3 payload bits must leave a non-negative drop count from
# the (es + 52)-bit exact payload, and patterns must fit in int64.
VECTORIZED_MAX_NBITS = 50

_SCRATCH = ScratchPool()

#: frexp exponents of finite nonzero doubles span [-1073, 1024]
_E_LO = -1073
_E_TABLE = 2098

#: (nbits, es) → (minpos, maxpos, fast-region table, granule table);
#: the latter two are indexed by shifted frexp exponent
_GRANULES: dict[tuple[int, int],
                tuple[float, float, np.ndarray, np.ndarray]] = {}


def _granule_tables(cfg: PositConfig
                    ) -> tuple[float, float, np.ndarray, np.ndarray]:
    tabs = _GRANULES.get((cfg.nbits, cfg.es))
    if tabs is None:
        _check_vectorizable(cfg)
        e = np.arange(_E_LO, _E_LO + _E_TABLE, dtype=np.int64)
        s = e - 1                # |x| in [2**s, 2**(s+1))
        k = s >> cfg.es
        r_len = np.where(k >= 0, k + 2, -k + 1)
        f_bits = np.int64(cfg.nbits - 1 - cfg.es) - r_len
        fast = f_bits >= 1
        # granule 2**(s - f_bits) where the region stores fraction bits
        # (never 0: f_bits >= 1 keeps s within ±max_scale <= 1022); the
        # filler 2**0 elsewhere is never used — the mask is False there
        g = np.ldexp(1.0, np.where(fast, s - f_bits,
                                   np.int64(0)).astype(np.int32))
        tabs = (float(cfg.minpos), float(cfg.maxpos), fast, g)
        _GRANULES[(cfg.nbits, cfg.es)] = tabs
    return tabs


def posit_two_level_spec(cfg: PositConfig
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bucket spec for a :class:`repro.kernels.lut.TwoLevelTable`.

    Returns ``(granules, affine, tail_candidates)``.  The affine
    buckets are exactly the fast region of :func:`posit_round` — scales
    storing at least one fraction bit, where posits are uniformly
    spaced and ``rint(x/g)*g`` equals pattern rounding (rint is
    sign-symmetric, so the signed form needs no abs/copysign).  The
    tail candidates enumerate every posit value of the tapered
    extremes below/above that region, bracketed by the first value
    inside it, so tail-lane inputs can round to any value they are
    able to reach.
    """
    _, _, fast, g = _granule_tables(cfg)
    affine = fast.copy()
    npat = np.int64(cfg.maxpos_pattern + 1)
    if affine.any():
        idx = np.flatnonzero(affine)
        # table index i covers |x| in [2**s, 2**(s+1)), s = i + _E_LO - 1
        s_lo = int(idx[0]) + _E_LO - 1
        s_hi = int(idx[-1]) + _E_LO - 1
        edges = posit_encode_array(
            np.array([2.0 ** s_lo, 2.0 ** (s_hi + 1)]), cfg)
        pats = np.concatenate([
            np.arange(0, min(int(edges[0]) + 2, int(npat))),
            np.arange(max(int(edges[1]) - 1, 0), int(npat)),
        ])
    else:
        # no uniformly-spaced region (very narrow formats): the whole
        # value set becomes the tail table
        pats = np.arange(int(npat))
    vals = posit_decode_array(pats, cfg)
    candidates = np.concatenate([vals, -vals])
    return g.copy(), affine, candidates


def _check_vectorizable(cfg: PositConfig) -> None:
    if cfg.nbits > VECTORIZED_MAX_NBITS:
        raise InvalidPositConfig(
            f"vectorized path supports nbits <= {VECTORIZED_MAX_NBITS}, "
            f"got {cfg.nbits}; use the scalar codec instead")
    if cfg.max_scale > 1022:
        raise InvalidPositConfig(
            f"posit({cfg.nbits},{cfg.es}) has maxpos = 2**{cfg.max_scale}, "
            "which exceeds the float64 carrier range")


def _split_finite(ax: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(s, frac52)`` with ``ax = (1 + frac52/2**52) * 2**s`` exactly.

    *ax* must be positive, finite and normal (guaranteed by the minpos /
    maxpos clamping done by the callers — minpos of any supported format
    is far above the float64 subnormal threshold only for small formats;
    for wide formats the clamp still lands on a normal double).
    """
    m, e = np.frexp(ax)  # ax = m * 2**e, m in [0.5, 1)
    s = e.astype(np.int64) - 1
    m2 = m * 2.0  # in [1, 2), exact
    frac52 = ((m2 - 1.0) * 4503599627370496.0).astype(np.int64)  # * 2**52
    return s, frac52


def posit_encode_array(x: np.ndarray, cfg: PositConfig) -> np.ndarray:
    """Encode a float64 array to posit patterns (int64, two's complement).

    NaN / ±inf encode to NaR; zeros encode to 0; saturation follows the
    posit standard (see :mod:`repro.posit.codec`).
    """
    _check_vectorizable(cfg)
    minpos, maxpos = _granule_tables(cfg)[:2]
    x = np.asarray(x, dtype=np.float64)
    patterns = np.zeros(x.shape, dtype=np.int64)

    nar_mask = ~np.isfinite(x)
    zero_mask = x == 0
    regular = ~(nar_mask | zero_mask)
    if nar_mask.any():
        patterns[nar_mask] = np.int64(cfg.nar_pattern)
    if not regular.any():
        return patterns

    xv = x[regular]
    neg = xv < 0
    ax = np.abs(xv)

    p = np.empty(ax.shape, dtype=np.int64)
    hi = ax >= maxpos
    lo = ax <= minpos
    mid = ~(hi | lo)
    p[hi] = np.int64(cfg.maxpos_pattern)
    p[lo] = np.int64(cfg.minpos_pattern)

    if mid.any():
        p[mid] = _encode_mid(ax[mid], cfg)

    p = np.where(neg, (np.int64(cfg.npat) - p) & np.int64(cfg.npat - 1), p)
    patterns[regular] = p
    return patterns


def _encode_mid(ax: np.ndarray, cfg: PositConfig) -> np.ndarray:
    """Encode magnitudes strictly between minpos and maxpos."""
    es = cfg.es
    nbits = cfg.nbits
    s, frac52 = _split_finite(ax)

    k = s >> es
    e = s - (k << es)
    r_len = np.where(k >= 0, k + 2, -k + 1)
    keep = np.int64(nbits - 1) - r_len  # >= 0 after clamping
    regime = np.where(k >= 0, ((np.int64(1) << (k + 1)) - 1) << 1,
                      np.int64(1))

    # payload = (e << 52) | frac52, exact in es + 52 bits; build in place
    payload = np.left_shift(e, np.int64(52), out=e)
    np.bitwise_or(payload, frac52, out=payload)
    drop = np.int64(es + 52) - keep  # > 0 always (nbits <= 50)

    base = (regime << keep) | (payload >> drop)
    guard = (payload >> (drop - 1)) & 1
    sticky = (payload & ((np.int64(1) << (drop - 1)) - 1)) != 0
    lsb = base & 1
    round_up = (guard == 1) & (sticky | (lsb == 1))
    pattern = np.add(base, round_up.astype(np.int64), out=base)
    np.minimum(pattern, np.int64(cfg.maxpos_pattern), out=pattern)
    return pattern


def posit_decode_array(patterns: np.ndarray, cfg: PositConfig) -> np.ndarray:
    """Decode int64 posit patterns to their exact float64 values.

    NaR decodes to NaN.  Patterns are taken modulo ``2**nbits``.
    """
    _check_vectorizable(cfg)
    patterns = np.asarray(patterns, dtype=np.int64) & np.int64(cfg.npat - 1)
    out = np.zeros(patterns.shape, dtype=np.float64)

    nar = patterns == cfg.nar_pattern
    zero = patterns == 0
    regular = ~(nar | zero)
    if nar.any():
        out[nar] = np.nan
    if not regular.any():
        return out

    p = patterns[regular]
    npos = cfg.nbits - 1
    neg = p > np.int64(cfg.nar_pattern)
    mag = np.where(neg, (np.int64(cfg.npat) - p) & np.int64(cfg.npat - 1), p)

    # Regime run length via the highest set bit of the bit-flipped field.
    first = (mag >> np.int64(npos - 1)) & 1
    field_mask = np.int64((1 << npos) - 1)
    t = np.where(first == 1, ~mag & field_mask, mag)
    # t == 0 only for maxpos (all ones). frexp gives floor(log2(t)) + 1.
    t_safe = np.where(t == 0, np.int64(1), t)
    hsb = np.frexp(t_safe.astype(np.float64))[1].astype(np.int64) - 1
    run = np.where(t == 0, np.int64(npos), np.int64(npos - 1) - hsb)

    k = np.where(first == 1, run - 1, -run)
    r_len = np.minimum(run + 1, np.int64(npos))
    w = np.int64(npos) - r_len
    payload = mag & ((np.int64(1) << w) - 1)

    e_bits = np.minimum(np.int64(cfg.es), w)
    e = (payload >> (w - e_bits)) << (np.int64(cfg.es) - e_bits)
    f_bits = w - e_bits
    frac = payload & ((np.int64(1) << f_bits) - 1)

    scale = np.add(k << np.int64(cfg.es), e, out=e)
    significand = frac.astype(np.float64)
    np.multiply(significand, np.ldexp(1.0, -f_bits.astype(np.int32)),
                out=significand)
    np.add(significand, 1.0, out=significand)
    value = np.ldexp(significand, scale.astype(np.int32),
                     out=significand)
    out[regular] = np.where(neg, -value, value)
    return out


def posit_round(x: np.ndarray | float, nbits: int, es: int) -> np.ndarray:
    """Quantize *x* (float64 scalar or array) to the nearest posit values.

    Equivalent to ``decode(encode(x))`` but fused.  This is the hot path of
    every emulated posit operation in the library, so values whose scale
    region stores at least one fraction bit take a direct route: round the
    double to the posit granularity ``2**(s - f_bits(s))`` with
    ``np.rint`` (round-half-even).  In such regions posits are *uniformly*
    spaced across ``[2**s, 2**(s+1)]``, both interval endpoints are
    representable, and the parity of the multiple equals the parity of the
    posit pattern — so value rounding and the standard's pattern rounding
    agree bit-for-bit (the test suite asserts this).  Values in the
    tapered extremes (no stored fraction bits, where rounding becomes
    geometric) fall back to the exact pattern-based path.
    """
    cfg = posit_config(nbits, es)
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        return _posit_round_impl(arr.reshape(1), cfg)[0]
    return _posit_round_impl(arr, cfg)


def _posit_round_impl(arr: np.ndarray, cfg: PositConfig) -> np.ndarray:
    fast_tbl, g_tbl = _granule_tables(cfg)[2:]
    shape = arr.shape
    ax = _SCRATCH.take(shape)
    g = _SCRATCH.take(shape)
    m = _SCRATCH.take(shape)
    e = _SCRATCH.take(shape, np.int32)
    fast = _SCRATCH.take(shape, np.bool_)
    tmp = _SCRATCH.take(shape, np.bool_)
    try:
        np.abs(arr, out=ax)
        with np.errstate(invalid="ignore"):
            np.frexp(ax, m, e)
        np.add(e, -_E_LO, out=e)
        g_tbl.take(e, out=g)
        fast_tbl.take(e, out=fast)
        # The table excludes the tapered extremes (f_bits < 1 there, so
        # sub-minpos and near-maxpos scales are already False); of the
        # special values sharing frexp exponent 0, ±0 and NaN round
        # correctly through the arithmetic below, leaving only ±inf to
        # exclude (NaN compares False and takes the NaR route, which is
        # equally correct).
        np.less(ax, np.inf, out=tmp)
        np.logical_and(fast, tmp, out=fast)

        np.divide(ax, g, out=m)
        np.rint(m, out=m)
        np.multiply(m, g, out=m)
        np.copysign(m, arr, out=m)
        out = np.where(fast, m, arr)

        # slow path: tapered extremes, clamps, non-finite → pattern route
        np.logical_not(fast, out=fast)
        np.not_equal(arr, 0.0, out=tmp)
        np.logical_and(fast, tmp, out=fast)
        if fast.any():
            xs = arr[fast]
            out[fast] = posit_decode_array(posit_encode_array(xs, cfg),
                                           cfg)
        return out
    finally:
        _SCRATCH.give(ax)
        _SCRATCH.give(g)
        _SCRATCH.give(m)
        _SCRATCH.give(e)
        _SCRATCH.give(fast)
        _SCRATCH.give(tmp)
