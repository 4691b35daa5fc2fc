"""Posit formats as :class:`NumberFormat` instances."""

from __future__ import annotations

import math

import numpy as np

from ..kernels import lut
from ..posit.codec import PositConfig, decode_float, encode, posit_config
from ..posit.rounding import _posit_round_impl, posit_two_level_spec
from .base import TableRoundedFormat

__all__ = ["PositFormat", "POSIT8_0", "POSIT16_1", "POSIT16_2",
           "POSIT32_2", "POSIT32_3"]


class PositFormat(TableRoundedFormat):
    """A posit(nbits, es) arithmetic format.

    Quantization goes through the bit-identical rounding table of
    :mod:`repro.kernels.lut` (see :class:`TableRoundedFormat` for the
    tiers), or with ``REPRO_LUT=off`` through the vectorized bitwise
    kernel of :mod:`repro.posit.rounding`.  Note the two
    posit-specific behaviours that matter in the experiments:
    saturation at ±maxpos instead of overflow to infinity, and clamping
    to ±minpos instead of underflow to zero — both are what give
    Posit16 its "superior reach" in the paper's Table II.
    """

    def __init__(self, nbits: int, es: int):
        self._cfg: PositConfig = posit_config(nbits, es)
        self.nbits = nbits
        self.es = es
        self.name = f"posit{nbits}es{es}"
        self.display_name = f"Posit({nbits}, {es})"
        self._table2 = None

    @property
    def config(self) -> PositConfig:
        """The underlying codec configuration."""
        return self._cfg

    def _bitwise_round(self, arr: np.ndarray) -> np.ndarray:
        return _posit_round_impl(np.asarray(arr, dtype=np.float64),
                                 self._cfg)

    #: the reference rounder of the table dispatch
    _round_impl = _bitwise_round

    def _two_level_table(self) -> "lut.TwoLevelTable":
        if self._table2 is None:
            cfg = self._cfg
            self._table2 = lut.two_level_table(
                self._key(),
                lambda: posit_two_level_spec(cfg),
                self._bitwise_round, fmt_name=self.name)
        return self._table2

    @property
    def max_value(self) -> float:
        return float(self._cfg.maxpos)

    @property
    def min_positive(self) -> float:
        return float(self._cfg.minpos)

    @property
    def eps_at_one(self) -> float:
        return float(self._cfg.eps_at_one)

    # -- bit-level codec (delegates to the exact reference codec) ----------
    def to_bits(self, value: float) -> int:
        v = float(value)
        if math.isnan(v) or math.isinf(v):
            return self._cfg.nar_pattern
        return encode(v, self._cfg)

    def from_bits(self, pattern: int) -> float:
        return decode_float(pattern, self._cfg)

    @property
    def useed(self) -> int:
        """``2**(2**es)`` — the Higham-rescaling μ for posit (paper §V-D)."""
        return self._cfg.useed

    @property
    def saturates(self) -> bool:
        return True


POSIT8_0 = PositFormat(8, 0)
POSIT16_1 = PositFormat(16, 1)
POSIT16_2 = PositFormat(16, 2)
POSIT32_2 = PositFormat(32, 2)
POSIT32_3 = PositFormat(32, 3)
