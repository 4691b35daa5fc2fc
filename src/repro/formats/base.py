"""The ``NumberFormat`` interface.

Every arithmetic format the experiments compare — IEEE binary16/32/64,
emulated IEEE variants, and posits — is represented by a
:class:`NumberFormat`.  A format knows how to **quantize** a float64
array to its representable set; the emulated-arithmetic layer
(:mod:`repro.arith`) then implements "compute in float64, round after
every operation", which is exact because float64 holds every value of
every supported format.

Design notes
------------
* Formats are immutable and hashable; they compare by identity key.
* ``round`` must be idempotent, monotone (weakly order-preserving) and
  sign-symmetric — the property-based tests enforce this for every
  registered format.
* ``max_value`` / ``min_positive`` describe the finite representable
  range; ``eps_at_one`` is the spacing just above 1.0, the natural
  cross-format precision yardstick (the posit "golden zone" spacing).
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

from ..kernels import lut

__all__ = ["NumberFormat", "TableRoundedFormat"]


class NumberFormat(abc.ABC):
    """Abstract base class for all number formats."""

    #: short machine name, e.g. ``"fp32"`` or ``"posit16es2"``
    name: str = "abstract"
    #: display name used in experiment tables, e.g. ``"Posit(16, 2)"``
    display_name: str = "abstract"
    #: storage width in bits (used for fair-comparison groupings)
    nbits: int = 0

    @abc.abstractmethod
    def round(self, x: np.ndarray | float) -> np.ndarray | float:
        """Quantize float64 values to the nearest representable value.

        Scalars in, scalar out; arrays in, array out.  Must be
        idempotent.  Non-finite inputs map to the format's exceptional
        value (NaN for IEEE and — since the carrier is float64 — for
        posit NaR as well).
        """

    # -- representable-range metadata ------------------------------------
    @property
    @abc.abstractmethod
    def max_value(self) -> float:
        """Largest finite representable magnitude."""

    @property
    @abc.abstractmethod
    def min_positive(self) -> float:
        """Smallest positive representable value (subnormal/minpos)."""

    @property
    @abc.abstractmethod
    def eps_at_one(self) -> float:
        """Spacing between 1.0 and the next larger representable value."""

    @property
    def decimal_digits_at_one(self) -> float:
        """Approximate decimal digits of precision near 1.0."""
        return -float(np.log10(self.eps_at_one))

    @property
    def dynamic_range_decades(self) -> float:
        """log10(max_value / min_positive) — the format's total reach."""
        return float(np.log10(self.max_value) - np.log10(self.min_positive))

    # -- bit-level codec -----------------------------------------------------
    # Patterns are unsigned integers in [0, 2**nbits).  Every format the
    # experiments use implements the pair; the fault-injection layer
    # relies on it to flip single storage bits, and the property tests
    # assert that *every* pattern decodes without raising.
    def to_bits(self, value: float) -> int:
        """Encode *value* (rounded into the format first) as a bit pattern.

        Non-finite values map to the format's exceptional encoding (NaR
        for posit, inf/NaN for IEEE).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement a bit-level codec")

    def from_bits(self, pattern: int) -> float:
        """Decode an ``nbits``-wide bit *pattern* to its float64 value.

        Must accept **any** integer in ``[0, 2**nbits)`` without raising
        — arbitrary patterns are exactly what bit-flip faults produce.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement a bit-level codec")

    # -- behaviour flags ----------------------------------------------------
    @property
    def table_step(self) -> str | None:
        """The name of the step ufunc of the
        :class:`~repro.kernels.lut.TwoLevelTable` every array this
        format rounds goes through, or None for a format that rounds
        otherwise.  Lanes of formats with one step may share a rounding
        pass (:class:`~repro.kernels.lut.LaneTables`)."""
        return None

    @property
    def saturates(self) -> bool:
        """True when out-of-range values clamp (posit) rather than
        overflow to infinity (IEEE)."""
        return False

    # -- identity -----------------------------------------------------------
    def _key(self) -> tuple[Any, ...]:
        return (type(self).__name__, self.name)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NumberFormat) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"

    def __str__(self) -> str:
        return self.display_name


class TableRoundedFormat(NumberFormat):
    """A format that rounds through a :class:`repro.kernels.lut.TwoLevelTable`.

    Subclasses provide the reference rounder ``_round_impl(arr)`` and
    the cached-table accessor ``_two_level_table()``.  :meth:`round` is
    then the one tier dispatch shared by every table-driven format:

    * a Python float or 0-d value → the table's ``round_scalar``;
    * an array of any shape with at most :data:`lut.TINY_N` elements
      → a ``tolist()`` loop over ``round_scalar`` on the raveled
      array, reshaped back;
    * anything larger → the table's ``round_array``.

    Every tier reads the same table, so the result is the same bits
    whichever one runs.  ``REPRO_LUT=off`` sends every call, scalars
    included, to ``_round_impl``.

    With *runs* and *lanes* (a :class:`lut.LaneTables`), ``round`` is
    the one rounding pass over a 1-D lane-ordered array whose lanes
    may each round in another table format (``LaneTables.round_array``):
    a format singleton's ``round`` stays the one entry point of every
    rounding call.
    """

    _round_scalar = None

    #: the per-bucket step ufunc of the two-level table (directed-mode
    #: IEEE formats replace it per instance)
    _affine_step = staticmethod(np.rint)

    @property
    def table_step(self) -> str | None:
        return self._affine_step.__name__ if lut._ENABLED else None

    def _scalar_rounder(self):
        rs = self._round_scalar
        if rs is None:
            rs = self._round_scalar = self._two_level_table().round_scalar
        return rs

    def round(self, x, runs=None, lanes=None):
        if runs is not None:
            return lanes.round_array(np.asarray(x, dtype=np.float64), runs)
        if not lut._ENABLED:
            arr = np.asarray(x, dtype=np.float64)
            if arr.ndim == 0:
                return float(self._round_impl(arr.reshape(1))[0])
            return self._round_impl(arr)
        if isinstance(x, float):
            return self._scalar_rounder()(float(x))
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim == 0:
            return self._scalar_rounder()(float(arr))
        if arr.size <= lut.TINY_N:
            rs = self._scalar_rounder()
            return np.array([rs(v) for v in arr.ravel().tolist()],
                            dtype=np.float64).reshape(arr.shape)
        return self._two_level_table().round_array(arr)
