"""Barnes–Hut N-body simulation — the scientific application of section 4.

The package implements the original (pointer-based, recursion-friendly)
Barnes–Hut algorithm exactly as the paper describes it:

* an **octree** whose interior nodes hold point-mass approximations and whose
  leaves — the particles — are linked into a one-way list (the ``leaves``
  ADDS dimension, Figure 5),
* a **bottom-up tree build** per time step: ``expand_box`` grows the root box
  to cover a particle, ``insert_particle`` descends to the particle's empty
  quadrant, subdividing when two particles collide (section 4.3.2),
* the two loops **BHL1** (force computation via ``compute_force`` with the
  well-separated opening criterion) and **BHL2** (velocity/position update),
* a direct **O(N²)** force computation as the accuracy/complexity baseline,
* sequential and **strip-mined parallel** drivers; the parallel driver uses
  the simulated multiprocessor of :mod:`repro.machine` for timing and a
  thread/sequential backend for the actual numerics,
* the corresponding **toy-language program** carrying the ``Octree`` ADDS
  declaration, which the analysis/transformation experiments operate on.
"""

import importlib

#: each submodule and the names the package re-exports from it; a name is
#: imported on first access (PEP 562), so that importing one submodule (the
#: driver's corpus needs only :mod:`repro.nbody.toy_program`) does not load
#: the whole simulator
_EXPORTS: dict[str, tuple[str, ...]] = {
    "vector": ("Vec3",),
    "particle": ("Particle",),
    "octree": ("OctreeNode", "OctreeStats"),
    "build": ("build_tree", "expand_box", "insert_particle", "compute_mass_distribution"),
    "force": (
        "ForceAccumulator",
        "compute_force",
        "compute_force_on_particle",
        "direct_forces",
        "GRAVITY",
        "SOFTENING",
    ),
    "integrate": ("compute_new_vel_pos", "advance"),
    "datasets": ("uniform_cube", "plummer_sphere", "two_clusters", "make_particles"),
    "simulation": (
        "SimulationConfig",
        "StepStats",
        "SequentialRunResult",
        "BarnesHutSimulation",
    ),
    "parallel": ("ParallelRunResult", "StripMinedParallelSimulation"),
    "energy": ("kinetic_energy", "potential_energy", "total_energy", "momentum"),
    "toy_program": (
        "barnes_hut_toy_source",
        "barnes_hut_toy_program",
        "BHL1_FUNCTION",
        "BHL2_FUNCTION",
    ),
}

_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
