"""Source locations and per-thread call stacks.

The real tool unwinds native call stacks; here, programs declare their
calling contexts explicitly. A call path is a tuple of
:class:`SourceLoc` frames from ``main`` down to the access/allocation
site — exactly the information HPCToolkit's unwinder recovers.
"""

from __future__ import annotations

from typing import NamedTuple


class SourceLoc(NamedTuple):
    """A (function, file, line) source coordinate.

    Used both as a stack frame (function granularity) and as the precise
    instruction pointer of an access site (line granularity). A tuple,
    so hashing a frame or a call path of frames runs in C: frames key
    every CCT node and profile row. Hash, equality and ordering among
    frames are those of ``(func, file, line)``.
    """

    func: str
    file: str = ""
    line: int = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.file:
            return f"{self.func} ({self.file}:{self.line})"
        return self.func


#: A call path: outermost frame first.
CallPath = tuple[SourceLoc, ...]


class CallStack:
    """Mutable per-thread call stack with cheap snapshotting."""

    def __init__(self, root: SourceLoc | None = None) -> None:
        self._frames: list[SourceLoc] = [root or SourceLoc("main")]

    def push(self, frame: SourceLoc) -> None:
        """Enter a function/region."""
        self._frames.append(frame)

    def pop(self) -> SourceLoc:
        """Leave the innermost frame; the root frame cannot be popped."""
        if len(self._frames) <= 1:
            raise IndexError("cannot pop the root frame")
        return self._frames.pop()

    @property
    def depth(self) -> int:
        """Current stack depth including the root."""
        return len(self._frames)

    def snapshot(self) -> CallPath:
        """Immutable copy of the current path (outermost first).

        This is the "unwind" operation: it is what gets attributed to
        every sample taken while the stack is in this state.
        """
        return tuple(self._frames)

    def with_leaf(self, leaf: SourceLoc) -> CallPath:
        """Snapshot extended by a leaf frame (the precise access site)."""
        return tuple(self._frames) + (leaf,)
