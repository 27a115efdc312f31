"""Bottom-up octree construction, as described in section 4.3.2.

The paper's ``build_tree`` walks the particle list and, for each particle,

1. ``expand_box`` — grows the tree upward (adding new roots) until the root's
   box is large enough to contain the particle,
2. ``insert_particle`` — descends to the particle's octant, subdividing an
   occupied octant until the two competing particles fall into different
   octants.

During the subdivision there is a short period in which the displaced
particle is referenced both from its old leaf and from the new subtree — the
temporary abstraction break the paper's validation analysis tolerates.  The
Python implementation performs the same steps; the toy-language version in
:mod:`repro.nbody.toy_program` is the one the static analysis validates.

``build_tree`` finishes with ``compute_mass_distribution`` (the point-mass
pass) and returns the root together with a :class:`BuildStats` whose ``work``
field is the cost charged to the *sequential* section of a simulated time
step — the transformation of section 4.3.3 does not parallelize the build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.nbody.octree import OctreeNode
from repro.nbody.particle import Particle
from repro.nbody.vector import Vec3

#: the grid a new root's center is rounded down to: coarse enough to keep box
#: centers exact (``expand_box``), fine enough that a simulated body gets the
#: tree a root centred on its first particle gives
ROOT_GRID = 2.0**-30


@dataclass
class BuildStats:
    """Work accounting of one tree construction."""

    expansions: int = 0
    insert_descents: int = 0
    subdivisions: int = 0
    mass_pass_nodes: int = 0

    @property
    def work(self) -> float:
        """Total build work in the simulator's abstract units.

        One unit per insertion descent level and per mass-pass node, with the
        (rare) box expansions and subdivisions charged a little more because
        they allocate.
        """
        return (
            2.0 * self.expansions
            + 1.0 * self.insert_descents
            + 2.0 * self.subdivisions
            + 1.0 * self.mass_pass_nodes
        )


def expand_box(particle: Particle, root: OctreeNode | None, stats: BuildStats | None = None) -> OctreeNode:
    """Grow the tree upward until its box contains ``particle``.

    When ``root`` is None a unit box centred on the particle is created.
    Otherwise new roots of twice the size are stacked on top, each holding
    the old root as the child octant nearer the particle, exactly as the
    paper sketches ("extends the tree upward, adding nodes until the tree
    represents a space large enough to include p").

    The unit box's center is the particle's position rounded down to a
    multiple of ``ROOT_GRID``.  Every box center is then a short dyadic
    number, and ``center ± quarter`` stays exact as the boxes shrink.
    Centred on the particle's own bits, a coordinate far finer than the box
    (say 1e-41 in a unit box) rounds away in the first child's center, and
    that child no longer contains the particle it was built for: two
    particles that close then descend together to the depth cap.
    """
    if root is None:
        p = particle.position
        center = Vec3(*(math.floor(v / ROOT_GRID) * ROOT_GRID for v in (p.x, p.y, p.z)))
        return OctreeNode(center=center, half_size=1.0)
    while not root.contains(particle.position):
        if stats is not None:
            stats.expansions += 1
        # choose the direction of growth so the old root ends up in the
        # octant away from the particle
        shift = root.half_size
        cx = root.center.x + (shift if particle.position.x >= root.center.x else -shift)
        cy = root.center.y + (shift if particle.position.y >= root.center.y else -shift)
        cz = root.center.z + (shift if particle.position.z >= root.center.z else -shift)
        new_root = OctreeNode(center=Vec3(cx, cy, cz), half_size=root.half_size * 2.0)
        new_root.subtrees[new_root.octant_of(root.center)] = root
        new_root.mass = root.mass
        new_root.center_of_mass = root.center_of_mass
        root = new_root
    return root


def insert_particle(
    particle: Particle,
    root: OctreeNode,
    stats: BuildStats | None = None,
    max_depth: int = 512,
) -> None:
    """Insert ``particle`` below ``root`` (whose box must contain it)."""
    node = root
    depth = 0
    while True:
        if stats is not None:
            stats.insert_descents += 1
        if node.is_empty:
            node.particle = particle
            return
        if node.particle is not None:
            # an occupied leaf: subdivide until the two particles separate
            competitor = node.particle
            node.particle = None
            if stats is not None:
                stats.subdivisions += 1
            _push_down(node, competitor)
            continue  # re-examine the (now interior) node for our particle
        index = node.octant_of(particle.position)
        child = node.subtrees[index]
        if child is None:
            center = node.octant_center(index)
            # subdivision can only separate particles while the octant
            # centers still move: once the child's center rounds to the
            # parent's (the quarter-size underflowed, or fell below one ulp
            # of the center coordinates), the particles are coincident at
            # floating-point resolution
            if center == node.center:
                raise RuntimeError(
                    "octree subdivision cannot separate particles that "
                    "coincide at floating-point resolution"
                )
            child = OctreeNode(center=center, half_size=node.half_size / 2.0)
            node.subtrees[index] = child
        node = child
        # depth counts actual tree levels, not loop iterations: a subdivision
        # re-examines the same node via `continue` and must not be charged a
        # level, or near-coincident particles trip the cap at half the
        # advertised depth
        depth += 1
        if depth > max_depth:
            raise RuntimeError(
                "octree insertion exceeded the maximum depth; are two particles "
                "at exactly the same position?"
            )


def _push_down(node: OctreeNode, particle: Particle) -> None:
    """Move ``particle`` from ``node`` into the appropriate child octant."""
    index = node.octant_of(particle.position)
    child = node.subtrees[index]
    if child is None:
        child = OctreeNode(center=node.octant_center(index), half_size=node.half_size / 2.0)
        node.subtrees[index] = child
    if child.is_empty:
        child.particle = particle
    else:  # pragma: no cover - only reachable with pathological coordinates
        insert_particle(particle, child)


def compute_mass_distribution(node: OctreeNode, stats: BuildStats | None = None) -> tuple[float, Vec3]:
    """Fill in mass and center of mass bottom-up; returns (mass, com)."""
    if stats is not None:
        stats.mass_pass_nodes += 1
    if node.particle is not None:
        node.mass = node.particle.mass
        node.center_of_mass = node.particle.position
        return node.mass, node.center_of_mass
    total = 0.0
    weighted = Vec3.zero()
    for child in node.subtrees:
        if child is None:
            continue
        mass, com = compute_mass_distribution(child, stats)
        total += mass
        weighted = weighted + com * mass
    node.mass = total
    node.center_of_mass = weighted / total if total > 0 else node.center
    return node.mass, node.center_of_mass


def build_tree(particles: list[Particle] | Particle | None) -> tuple[OctreeNode | None, BuildStats]:
    """Build the Barnes–Hut octree over ``particles``.

    ``particles`` may be a Python list or the head of the linked particle
    list (the paper's calling convention); the traversal below mirrors the
    paper's ``build_tree`` loop.
    """
    stats = BuildStats()
    if particles is None:
        return None, stats
    if isinstance(particles, Particle):
        plist: list[Particle] = []
        p: Particle | None = particles
        while p is not None:
            plist.append(p)
            p = p.next
    else:
        plist = list(particles)
    if not plist:
        return None, stats

    root: OctreeNode | None = None
    for particle in plist:
        root = expand_box(particle, root, stats)
        insert_particle(particle, root, stats)
    assert root is not None
    compute_mass_distribution(root, stats)
    return root, stats
