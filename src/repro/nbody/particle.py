"""Particles of the N-body simulation."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.nbody.vector import Vec3


@dataclass
class Particle:
    """One body: mass, position, velocity, and the force accumulated on it.

    ``next`` is the link of the one-way particle list — the ``leaves``
    dimension of the octree ADDS declaration.  ``interactions`` counts the
    particle–node interactions of the most recent force computation; the
    machine simulator uses it as the per-iteration work of BHL1.
    """

    ident: int
    mass: float = 1.0
    position: Vec3 = field(default_factory=Vec3)
    velocity: Vec3 = field(default_factory=Vec3)
    force: Vec3 = field(default_factory=Vec3)
    next: "Particle | None" = None
    interactions: int = 0

    def kinetic_energy(self) -> float:
        return 0.5 * self.mass * self.velocity.norm_squared()

    def state(self) -> tuple:
        """Immutable physics snapshot used by equivalence tests."""
        return (
            self.ident,
            self.mass,
            self.position.as_tuple(),
            self.velocity.as_tuple(),
            self.force.as_tuple(),
        )

    def copy(self) -> "Particle":
        return Particle(
            ident=self.ident,
            mass=self.mass,
            position=self.position,
            velocity=self.velocity,
            force=self.force,
            next=None,
            interactions=self.interactions,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Particle({self.ident}, m={self.mass:.3g}, pos={self.position})"


def link_particles(particles: list[Particle]) -> Particle | None:
    """Link ``particles`` into the one-way list, returning its head."""
    for i in range(len(particles) - 1):
        particles[i].next = particles[i + 1]
    if particles:
        particles[-1].next = None
        return particles[0]
    return None


def iterate_list(head: Particle | None) -> list[Particle]:
    """Collect the particles reachable from ``head`` along ``next``."""
    result: list[Particle] = []
    seen: set[int] = set()
    p = head
    while p is not None:
        if id(p) in seen:
            raise ValueError("particle list contains a cycle")
        seen.add(id(p))
        result.append(p)
        p = p.next
    return result
