"""Tests for the octree, the tree build, and the force computations."""

import math

import pytest

from repro.nbody import (
    GRAVITY,
    OctreeNode,
    Particle,
    Vec3,
    build_tree,
    compute_force,
    compute_force_on_particle,
    direct_forces,
    expand_box,
    insert_particle,
    plummer_sphere,
    uniform_cube,
)
from repro.nbody.build import BuildStats, compute_mass_distribution
from repro.nbody.force import well_separated
from repro.nbody.particle import iterate_list, link_particles


class TestVec3:
    def test_arithmetic(self):
        a, b = Vec3(1, 2, 3), Vec3(4, 5, 6)
        assert (a + b).as_tuple() == (5, 7, 9)
        assert (b - a).as_tuple() == (3, 3, 3)
        assert (a * 2).as_tuple() == (2, 4, 6)
        assert (a / 2).as_tuple() == (0.5, 1, 1.5)
        assert (-a).as_tuple() == (-1, -2, -3)

    def test_geometry(self):
        assert Vec3(3, 4, 0).norm() == pytest.approx(5.0)
        assert Vec3(1, 0, 0).dot(Vec3(0, 1, 0)) == 0.0
        assert Vec3(0, 0, 0).distance_to(Vec3(1, 1, 1)) == pytest.approx(math.sqrt(3))
        assert Vec3(1, 1, 1).is_close(Vec3(1, 1, 1 + 1e-12))


class TestParticleList:
    def test_link_and_iterate(self):
        particles = [Particle(ident=i) for i in range(5)]
        head = link_particles(particles)
        assert head is particles[0]
        assert iterate_list(head) == particles

    def test_cycle_detection(self):
        particles = [Particle(ident=i) for i in range(3)]
        link_particles(particles)
        particles[2].next = particles[0]
        with pytest.raises(ValueError):
            iterate_list(particles[0])


class TestTreeBuild:
    def test_build_over_list_head_and_python_list_agree(self):
        particles = uniform_cube(32, seed=2)
        root_a, _ = build_tree(particles)
        fresh = uniform_cube(32, seed=2)
        root_b, _ = build_tree(fresh[0])  # pass the list head
        assert root_a.count_particles() == root_b.count_particles() == 32

    def test_invariants_hold(self):
        particles = plummer_sphere(64, seed=4)
        root, stats = build_tree(particles)
        assert root.check_invariants() == []
        assert root.count_particles() == 64
        assert root.mass == pytest.approx(sum(p.mass for p in particles))
        assert stats.work > 0

    def test_center_of_mass_matches_direct_computation(self):
        particles = uniform_cube(20, seed=9)
        root, _ = build_tree(particles)
        total = sum(p.mass for p in particles)
        com_x = sum(p.mass * p.position.x for p in particles) / total
        assert root.center_of_mass.x == pytest.approx(com_x)

    def test_expand_box_grows_until_containing(self):
        p_near = Particle(ident=0, position=Vec3(0, 0, 0))
        p_far = Particle(ident=1, position=Vec3(40, -3, 7))
        root = expand_box(p_near, None)
        stats = BuildStats()
        root = expand_box(p_far, root, stats)
        assert root.contains(p_far.position)
        assert stats.expansions >= 1

    def test_insert_two_close_particles_subdivides(self):
        a = Particle(ident=0, position=Vec3(0.1, 0.1, 0.1))
        b = Particle(ident=1, position=Vec3(0.11, 0.12, 0.1))
        root = OctreeNode(center=Vec3(0, 0, 0), half_size=1.0)
        stats = BuildStats()
        insert_particle(a, root, stats)
        insert_particle(b, root, stats)
        compute_mass_distribution(root)
        assert root.count_particles() == 2
        assert stats.subdivisions >= 1
        assert root.check_invariants() == []

    def test_nearly_coincident_particles_build(self):
        """Separating points 1e-12 apart needs ~40 tree levels; the depth cap
        must count levels, not subdivision loop iterations (which reach the
        same level twice), or this trips the 64-level cap at level 32."""
        particles = [
            Particle(ident=0, position=Vec3(0.0, 0.0, 0.0)),
            Particle(ident=1, position=Vec3(0.0, 0.0, 1e-12)),
        ]
        root, _ = build_tree(particles)
        assert root.count_particles() == 2
        assert root.check_invariants() == []

    def test_particles_closer_than_the_first_ones_offset_build(self):
        """Centred on the first particle, the root's child center 0.5 - 2.7e-41
        rounded to 0.5: the child box left out the particle it was built for,
        and both particles descended together to the depth cap."""
        particles = [
            Particle(ident=0, position=Vec3(0.0, 0.0, -2.6718557819281287e-41)),
            Particle(ident=1, position=Vec3(0.0, 0.0, 0.0)),
        ]
        root, _ = build_tree(particles)
        assert root.count_particles() == 2
        assert root.check_invariants() == []

    def test_particle_a_hair_outside_the_root_box_expands_it(self):
        """The root box [0, 2] must grow for x = -1e-45: a containment test
        with slack kept the box, and the particles at x = 0 and x = -1e-45
        then shared every octant down to the depth cap."""
        particles = [
            Particle(ident=0, position=Vec3(1.0, 1.0, 1.0)),
            Particle(ident=1, position=Vec3(0.0, 0.5, 0.5)),
            Particle(ident=2, position=Vec3(-1e-45, 0.5, 0.5)),
        ]
        root, stats = build_tree(particles)
        assert stats.expansions == 1
        assert root.count_particles() == 3
        assert root.check_invariants() == []

    def test_exactly_coincident_particles_still_capped(self):
        particles = [
            Particle(ident=0, position=Vec3(1.0, 2.0, 3.0)),
            Particle(ident=1, position=Vec3(1.0, 2.0, 3.0)),
        ]
        with pytest.raises(RuntimeError, match="maximum depth"):
            build_tree(particles)

    def test_identical_positions_raise(self):
        a = Particle(ident=0, position=Vec3(0.5, 0.5, 0.5))
        b = Particle(ident=1, position=Vec3(0.5, 0.5, 0.5))
        root = OctreeNode(center=Vec3(0, 0, 0), half_size=1.0)
        insert_particle(a, root)
        with pytest.raises(RuntimeError):
            insert_particle(b, root)

    def test_empty_and_singleton_inputs(self):
        root, _ = build_tree([])
        assert root is None
        single = [Particle(ident=0, position=Vec3(0.3, 0.2, 0.1), mass=2.0)]
        root, _ = build_tree(single)
        assert root is not None and root.mass == 2.0

    def test_stats_describe(self):
        particles = uniform_cube(16, seed=1)
        root, _ = build_tree(particles)
        text = root.stats().describe()
        assert "leaves" in text and "depth" in text


class TestForces:
    def test_two_body_force_matches_newton(self):
        a = Particle(ident=0, mass=2.0, position=Vec3(0, 0, 0))
        b = Particle(ident=1, mass=3.0, position=Vec3(1, 0, 0))
        direct_forces([a, b])
        softened_r2 = 1.0 + 1e-4
        expected = GRAVITY * 2.0 * 3.0 / softened_r2 * (1.0 / math.sqrt(softened_r2))
        assert a.force.x == pytest.approx(expected, rel=1e-9)
        assert b.force.x == pytest.approx(-expected, rel=1e-9)
        assert a.force.y == 0.0 and a.force.z == 0.0

    def test_direct_forces_conserve_momentum(self):
        particles = uniform_cube(24, seed=6)
        direct_forces(particles)
        fx = sum(p.force.x for p in particles)
        fy = sum(p.force.y for p in particles)
        fz = sum(p.force.z for p in particles)
        assert abs(fx) < 1e-9 and abs(fy) < 1e-9 and abs(fz) < 1e-9

    def test_barnes_hut_approximates_direct(self):
        particles = plummer_sphere(96, seed=7)
        reference = [p.copy() for p in particles]
        direct_forces(reference)
        root, _ = build_tree(particles)
        errors = []
        for p, ref in zip(particles, reference):
            compute_force_on_particle(p, root, theta=0.3)
            denom = ref.force.norm() or 1.0
            errors.append((p.force - ref.force).norm() / denom)
        errors.sort()
        assert errors[len(errors) // 2] < 0.05  # median relative error below 5%

    def test_theta_zero_equals_direct_summation(self):
        particles = uniform_cube(20, seed=8)
        reference = [p.copy() for p in particles]
        direct_forces(reference)
        root, _ = build_tree(particles)
        for p, ref in zip(particles, reference):
            compute_force_on_particle(p, root, theta=0.0)
            assert p.force.is_close(ref.force, tol=1e-9)

    def test_larger_theta_means_fewer_interactions(self):
        particles = plummer_sphere(128, seed=3)
        root, _ = build_tree(particles)
        tight = sum(compute_force_on_particle(p, root, theta=0.2) for p in particles)
        loose = sum(compute_force_on_particle(p, root, theta=0.9) for p in particles)
        assert loose < tight

    def test_self_force_is_excluded(self):
        particles = uniform_cube(8, seed=5)
        root, _ = build_tree(particles)
        lonely = [Particle(ident=99, position=Vec3(0.25, 0.25, 0.25))]
        root_single, _ = build_tree(lonely)
        acc = compute_force(lonely[0], root_single, theta=0.5)
        assert acc.interactions == 0
        assert acc.as_vec().norm() == 0.0

    def test_well_separated_criterion(self):
        node = OctreeNode(center=Vec3(0, 0, 0), half_size=1.0)
        node.center_of_mass = Vec3(0, 0, 0)
        near = Particle(ident=0, position=Vec3(1.5, 0, 0))
        far = Particle(ident=1, position=Vec3(50, 0, 0))
        assert not well_separated(near, node, theta=0.5)
        assert well_separated(far, node, theta=0.5)
