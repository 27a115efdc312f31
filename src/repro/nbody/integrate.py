"""Velocity/position update — the body of BHL2.

The paper's ``compute_new_vel_pos`` "computes the change in p's velocity and
position" from the freshly computed force; we use the simple symplectic Euler
step (update velocity from the force, then position from the new velocity),
which is what tree codes of that era typically did between tree rebuilds.
"""

from __future__ import annotations

from repro.nbody.particle import Particle


#: work units charged per particle for the BHL2 update (a handful of flops,
#: small compared to a force interaction but not free)
UPDATE_WORK_UNITS = 4.0


def compute_new_vel_pos(particle: Particle, dt: float) -> float:
    """Advance one particle by ``dt``; returns the work in simulator units."""
    acceleration = particle.force / particle.mass
    particle.velocity = particle.velocity + acceleration * dt
    particle.position = particle.position + particle.velocity * dt
    return UPDATE_WORK_UNITS


def advance(particles: list[Particle], dt: float) -> float:
    """Advance every particle (the sequential BHL2); returns total work."""
    work = 0.0
    for p in particles:
        work += compute_new_vel_pos(p, dt)
    return work
