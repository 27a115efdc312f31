"""Point-region quadtrees (section 1 cites quadtrees as a motivating structure).

The 2-D analogue of the Barnes–Hut octree: each node owns a square region and
has up to four children, leaves hold one point each, and the leaves are
threaded onto a one-way list (matching the ``QuadTree`` ADDS declaration of
:mod:`repro.adds.library`).  Used by examples and tests as a second,
independent client of the heap + ADDS runtime-checking machinery.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.lang.heap import Heap, NULL_REF


class PointRegionQuadTree:
    """A PR quadtree over 2-D points with mass, stored in an explicit heap."""

    TYPE_NAME = "QuadTree"

    def __init__(
        self,
        center: tuple[float, float] = (0.0, 0.0),
        half_size: float = 1.0,
        heap: Heap | None = None,
    ):
        self.heap = heap if heap is not None else Heap()
        self.root = self._new_node(center[0], center[1], mass=0.0, is_leaf=False)
        self._half: dict[int, float] = {self.root: half_size}
        self._leaf_head: int = NULL_REF
        self._leaf_tail: int = NULL_REF
        self.count = 0

    def _new_node(self, x: float, y: float, mass: float, is_leaf: bool) -> int:
        return self.heap.allocate(
            self.TYPE_NAME,
            {
                "mass": mass,
                "x": x,
                "y": y,
                "node_type": is_leaf,
                "subtrees": [NULL_REF] * 4,
                "next": NULL_REF,
            },
        )

    # -- insertion ---------------------------------------------------------------
    def insert(self, x: float, y: float, mass: float = 1.0) -> int:
        leaf = self._new_node(x, y, mass, is_leaf=True)
        self._insert_ref(leaf, self.root)
        self._append_leaf(leaf)
        self.count += 1
        return leaf

    def _append_leaf(self, leaf: int) -> None:
        if self._leaf_head == NULL_REF:
            self._leaf_head = self._leaf_tail = leaf
        else:
            self.heap.store(self._leaf_tail, "next", leaf)
            self._leaf_tail = leaf

    def _quadrant(self, node: int, x: float, y: float) -> int:
        nx = self.heap.load(node, "x")
        ny = self.heap.load(node, "y")
        index = 0
        if x >= nx:
            index |= 1
        if y >= ny:
            index |= 2
        return index

    def _quadrant_center(self, node: int, index: int) -> tuple[float, float]:
        nx = self.heap.load(node, "x")
        ny = self.heap.load(node, "y")
        quarter = self._half[node] / 2.0
        dx = quarter if (index & 1) else -quarter
        dy = quarter if (index & 2) else -quarter
        return nx + dx, ny + dy

    def _insert_ref(self, leaf: int, node: int, depth: int = 0) -> None:
        if depth > 64:
            raise RuntimeError("quadtree insertion exceeded maximum depth")
        x = self.heap.load(leaf, "x")
        y = self.heap.load(leaf, "y")
        index = self._quadrant(node, x, y)
        subtrees = self.heap.load(node, "subtrees")
        child = subtrees[index]
        if child == NULL_REF:
            subtrees[index] = leaf
            return
        if self.heap.load(child, "node_type"):
            # occupied by another point: subdivide (overwrite the parent slot
            # first so the uniquely-forward property never breaks)
            cx, cy = self._quadrant_center(node, index)
            interior = self._new_node(cx, cy, 0.0, is_leaf=False)
            self._half[interior] = self._half[node] / 2.0
            subtrees[index] = interior
            competitor_index = self._quadrant(
                interior, self.heap.load(child, "x"), self.heap.load(child, "y")
            )
            self.heap.load(interior, "subtrees")[competitor_index] = child
            self._insert_ref(leaf, interior, depth + 1)
        else:
            self._insert_ref(leaf, child, depth + 1)

    @classmethod
    def from_points(
        cls,
        points: Iterable[tuple[float, float]],
        half_size: float = 1.0,
        heap: Heap | None = None,
    ) -> "PointRegionQuadTree":
        tree = cls(half_size=half_size, heap=heap)
        for x, y in points:
            tree.insert(x, y)
        return tree

    # -- traversals ---------------------------------------------------------------------
    def leaf_refs(self) -> Iterator[int]:
        cur = self._leaf_head
        while cur != NULL_REF:
            yield cur
            cur = self.heap.load(cur, "next")

    def leaf_points(self) -> list[tuple[float, float]]:
        return [
            (self.heap.load(r, "x"), self.heap.load(r, "y")) for r in self.leaf_refs()
        ]

    def depth(self) -> int:
        def go(ref: int) -> int:
            children = [c for c in self.heap.load(ref, "subtrees") if c != NULL_REF]
            if not children:
                return 1
            return 1 + max(go(c) for c in children)

        return go(self.root)

    def total_mass(self) -> float:
        return sum(self.heap.load(r, "mass") for r in self.leaf_refs())

    def points_in_rect(
        self, x1: float, x2: float, y1: float, y2: float
    ) -> list[tuple[float, float]]:
        """All stored points inside the axis-aligned rectangle."""
        return [
            (x, y) for x, y in self.leaf_points() if x1 <= x <= x2 and y1 <= y <= y2
        ]
