"""Calling context trees (CCTs) with metric annotations.

HPCToolkit records per-thread call path profiles in a CCT; our NUMA
extensions augment it with *mixed* calling-context sequences: a heap
variable's costs hang under its allocation path, separated from the
access path (and from first-touch paths) by dummy nodes (paper
Section 7.1: "Dummy nodes in the augmented CCT separate segments of
calling context sequences recorded for different purposes").
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator

from repro.runtime.callstack import CallPath, SourceLoc

#: Dummy separator frames for augmented (mixed) calling contexts.
DUMMY_ACCESS = SourceLoc("<accessed from>")
DUMMY_FIRST_TOUCH = SourceLoc("<first touched at>")


class CCTNode:
    """One calling-context node with accumulated metrics."""

    __slots__ = ("frame", "parent", "children", "metrics")

    def __init__(self, frame: SourceLoc, parent: "CCTNode | None" = None) -> None:
        self.frame = frame
        self.parent = parent
        self.children: dict[SourceLoc, CCTNode] = {}
        self.metrics: defaultdict[str, float] = defaultdict(float)

    def child(self, frame: SourceLoc) -> "CCTNode":
        """Get or create the child for ``frame``."""
        node = self.children.get(frame)
        if node is None:
            node = CCTNode(frame, self)
            self.children[frame] = node
        return node

    def inc(self, metric: str, value: float) -> None:
        """Accumulate ``value`` into ``metric`` at this node."""
        self.metrics[metric] += value

    def path(self) -> CallPath:
        """Reconstruct this node's full path (outermost first)."""
        frames: list[SourceLoc] = []
        node: CCTNode | None = self
        while node is not None:
            frames.append(node.frame)
            node = node.parent
        return tuple(reversed(frames))

    def walk(self) -> Iterator["CCTNode"]:
        """Pre-order traversal of this subtree, children in insertion
        order. An explicit stack yields each node once, not once per
        ancestor as nested generators would."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children.values()))

    def subtree_metric(self, metric: str) -> float:
        """Sum of ``metric`` over this subtree (exclusive values summed)."""
        return sum(node.metrics.get(metric, 0.0) for node in self.walk())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CCTNode({self.frame.func!r}, children={len(self.children)})"


class CCT:
    """A calling context tree rooted at ``main``."""

    def __init__(self, root_frame: SourceLoc | None = None) -> None:
        self.root = CCTNode(root_frame or SourceLoc("main"))

    def node_for(self, path: CallPath) -> CCTNode:
        """Get or create the node for a full call path.

        If the path starts at the root frame, the root is reused;
        otherwise the path hangs under the root.
        """
        node = self.root
        frames = list(path)
        if frames and frames[0] == self.root.frame:
            frames = frames[1:]
        for frame in frames:
            node = node.child(frame)
        return node

    def attribute(self, path: CallPath, metrics: dict[str, float]) -> CCTNode:
        """Accumulate a metric dict at the node for ``path``."""
        node = self.node_for(path)
        for name, value in metrics.items():
            if value:
                node.inc(name, value)
        return node

    def attribute_row(
        self, path: CallPath, names: list[str], values
    ) -> CCTNode:
        """Accumulate a flat metric row (parallel ``names``/``values``).

        The deferred profiler's flush path: values come straight out of a
        numpy accumulator row, zeros are skipped exactly like
        :meth:`attribute` so node metric dicts stay sparse.
        """
        node = self.node_for(path)
        for name, value in zip(names, values.tolist()):
            if value:
                node.inc(name, value)
        return node

    def n_nodes(self) -> int:
        """Total node count (profile-footprint accounting)."""
        return sum(1 for _ in self.root.walk())

    def total(self, metric: str) -> float:
        """Whole-tree total of a metric."""
        return self.root.subtree_metric(metric)

    def find(self, func_name: str) -> list[CCTNode]:
        """All nodes whose frame function matches ``func_name``."""
        return [n for n in self.root.walk() if n.frame.func == func_name]
