"""Shape checks for the solver and kernel entry points.

A mismatched system otherwise fails deep inside NumPy ("operands could
not be broadcast together") or with an ``IndexError`` on a 0-d input.
These checks run once at entry and raise a :class:`ValueError` that
names the shapes involved.  Dense arrays, array-likes and the sparse
layouts (which carry a ``shape`` attribute) are all accepted.
"""

from __future__ import annotations

import numpy as np

__all__ = ["require_conformant", "require_product", "require_square",
           "require_system", "require_vectors"]


def _shape(obj) -> tuple:
    shape = getattr(obj, "shape", None)
    return tuple(shape) if shape is not None else np.shape(obj)


def require_square(A, name: str = "A") -> int:
    """The order n of an (n, n) matrix *A*; ValueError otherwise."""
    shape = _shape(A)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"{name} must be a square matrix, "
                         f"got shape {shape}")
    return shape[0]


def require_conformant(A, x, names: tuple[str, str] = ("A", "x")) -> None:
    """ValueError naming both shapes unless *A* is (m, n) and *x* (n,)."""
    sa, sx = _shape(A), _shape(x)
    if len(sa) != 2 or sx != (sa[1],):
        raise ValueError(f"{names[0]} has shape {sa} and {names[1]} has "
                         f"shape {sx}; expected (m, n) and (n,)")


def require_vectors(x, y) -> None:
    """ValueError naming both shapes unless *x* and *y* are both (n,)."""
    sx, sy = _shape(x), _shape(y)
    if sx != sy or len(sx) != 1:
        raise ValueError(f"x has shape {sx} and y has shape {sy}; "
                         f"expected equal (n,) shapes")


def require_product(A, B) -> None:
    """ValueError naming both shapes unless *A* is (m, k) and *B* (k, n)."""
    sa, sb = _shape(A), _shape(B)
    if len(sa) != 2 or len(sb) != 2 or sa[1] != sb[0]:
        raise ValueError(f"A has shape {sa} and B has shape {sb}; "
                         f"expected (m, k) and (k, n)")


def require_system(A, b) -> int:
    """The order n of a square system ``A x = b``; ValueError otherwise."""
    n = require_square(A)
    require_conformant(A, b, ("A", "b"))
    return n
