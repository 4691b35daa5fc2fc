"""Integer counter sets whose plumbing derives from ``__slots__``.

The result cache, the rounding-table store and the derived-matrix LRU
count their traffic this way; pool workers ship each set's
``delta_since`` to the parent, which ``absorb``s it.
"""

from __future__ import annotations

__all__ = ["Counters"]


class Counters:
    """Base for a set of integer counters named by ``__slots__``.

    A subclass lists its counters in ``__slots__`` (one level of
    subclassing); reset, dict export, snapshot/delta accounting and
    absorbing a worker's delta all follow from that list.
    """

    __slots__ = ()

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def snapshot(self) -> tuple[int, ...]:
        """Counter values now, for :meth:`delta_since` after a cell."""
        return tuple(getattr(self, name) for name in self.__slots__)

    def delta_since(self, snap: tuple[int, ...]) -> dict[str, int]:
        """Counter movement since *snap* (worker → parent)."""
        return {name: getattr(self, name) - before
                for name, before in zip(self.__slots__, snap)}

    def absorb(self, delta: dict[str, int] | None) -> None:
        """Add a worker's delta; ``None`` (no report) is a no-op."""
        if not delta:
            return
        for name in self.__slots__:
            setattr(self, name, getattr(self, name)
                    + int(delta.get(name, 0)))

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"<{type(self).__name__} {body}>"
