"""The octree data structure of the Barnes–Hut algorithm (Figure 5).

Each node owns a cubic region of space (``center`` / ``half_size``).  An
interior node has up to eight children — one per octant — and carries the
total mass and center of mass of the particles below it (the point-mass
approximation).  A leaf node holds exactly one particle.  The particles are
additionally threaded onto a one-way list, which is the second ADDS
dimension (``leaves``) of the declaration in section 4.3.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.nbody.particle import Particle
from repro.nbody.vector import Vec3


@dataclass
class OctreeNode:
    """One node of the Barnes–Hut octree."""

    center: Vec3
    half_size: float
    #: the eight children, indexed by octant (the ``subtrees[8]`` field)
    subtrees: list["OctreeNode | None"] = field(default_factory=lambda: [None] * 8)
    #: the particle stored here (leaf nodes only)
    particle: Particle | None = None
    #: aggregated mass and center of mass of everything below this node
    mass: float = 0.0
    center_of_mass: Vec3 = field(default_factory=Vec3)

    # -- structural queries ----------------------------------------------------
    @property
    def is_leaf(self) -> bool:
        return all(child is None for child in self.subtrees)

    @property
    def is_empty(self) -> bool:
        return self.is_leaf and self.particle is None

    def children(self) -> list["OctreeNode"]:
        return [c for c in self.subtrees if c is not None]

    def octant_of(self, position: Vec3) -> int:
        """Index (0..7) of the octant of ``position`` within this node's box."""
        index = 0
        if position.x >= self.center.x:
            index |= 1
        if position.y >= self.center.y:
            index |= 2
        if position.z >= self.center.z:
            index |= 4
        return index

    def octant_center(self, index: int) -> Vec3:
        """Center of the ``index``-th child octant."""
        quarter = self.half_size / 2.0
        dx = quarter if (index & 1) else -quarter
        dy = quarter if (index & 2) else -quarter
        dz = quarter if (index & 4) else -quarter
        return Vec3(self.center.x + dx, self.center.y + dy, self.center.z + dz)

    def contains(self, position: Vec3) -> bool:
        # The closed box, compared against its faces rather than through
        # ``abs(position - center)``: that difference rounds, and a particle
        # a hair outside the box would pass, stop ``expand_box`` early and
        # then follow its neighbour down every octant without separating.
        # Box centers sit on a dyadic grid (``expand_box``), so the faces are
        # exact.
        h = self.half_size
        c = self.center
        return (
            c.x - h <= position.x <= c.x + h
            and c.y - h <= position.y <= c.y + h
            and c.z - h <= position.z <= c.z + h
        )

    # -- traversals -----------------------------------------------------------------
    def walk(self):
        """Pre-order traversal of the subtree rooted here."""
        yield self
        for child in self.subtrees:
            if child is not None:
                yield from child.walk()

    def leaves(self) -> list["OctreeNode"]:
        return [node for node in self.walk() if node.particle is not None]

    def depth(self) -> int:
        children = self.children()
        if not children:
            return 1
        return 1 + max(child.depth() for child in children)

    def count_particles(self) -> int:
        return sum(1 for node in self.walk() if node.particle is not None)

    def stats(self) -> "OctreeStats":
        nodes = list(self.walk())
        leaves = [n for n in nodes if n.particle is not None]
        interior = [n for n in nodes if n.particle is None and not n.is_empty]
        return OctreeStats(
            nodes=len(nodes),
            leaves=len(leaves),
            interior=len(interior),
            depth=self.depth(),
            total_mass=self.mass,
        )

    # -- invariants used by tests -----------------------------------------------------
    def check_invariants(self) -> list[str]:
        """Structural invariants of a well-formed Barnes–Hut octree.

        Returns a list of violated-invariant descriptions (empty = OK):

        * a node with a particle has no children (leaves are particles),
        * every particle lies inside its leaf's box,
        * every child's box nests inside its parent's box,
        * each node appears under at most one parent (tree-ness of ``down``),
        * interior mass equals the sum of the children's masses.
        """
        problems: list[str] = []
        seen: dict[int, int] = {}
        for node in self.walk():
            if node.particle is not None and node.children():
                problems.append("leaf with particle also has children")
            if node.particle is not None and not node.contains(node.particle.position):
                problems.append(
                    f"particle {node.particle.ident} lies outside its leaf box"
                )
            for child in node.children():
                seen[id(child)] = seen.get(id(child), 0) + 1
                if child.half_size > node.half_size / 2.0 + 1e-12:
                    problems.append("child box larger than half the parent box")
                if not node.contains(child.center):
                    problems.append("child center outside parent box")
            if not node.is_leaf and node.mass > 0:
                child_mass = sum(c.mass for c in node.children())
                if abs(child_mass - node.mass) > 1e-6 * max(1.0, node.mass):
                    problems.append(
                        f"interior mass {node.mass} != sum of child masses {child_mass}"
                    )
        for count in seen.values():
            if count > 1:
                problems.append("a node is referenced by more than one parent")
        return problems


@dataclass(frozen=True)
class OctreeStats:
    """Summary statistics of one octree."""

    nodes: int
    leaves: int
    interior: int
    depth: int
    total_mass: float

    def describe(self) -> str:
        return (
            f"octree: {self.nodes} nodes ({self.leaves} leaves, {self.interior} interior), "
            f"depth {self.depth}, total mass {self.total_mass:.4g}"
        )
