"""Hybrid host/coprocessor for-each runtime with an SPH nebula demo.

The runtime applies a serializable functor to every element of a sequence,
splitting the work dynamically between local workers and simulated
coprocessor devices behind a serialized block-transfer link. The package
also ships the workload used to validate it: a smoothed-particle-
hydrodynamics nebula simulator with a volume ray-cast renderer and a
benchmark CLI.
"""

from .runtime import (DeviceSpec, RunStatistics, WorkQueue, connect_device,
                      hybrid_for_each)
from .sph import Particle, SimParams, SimulationState, make_scene, simulation_step
from .transport import LinkConfig

__version__ = "0.1.0"

__all__ = [
    "DeviceSpec",
    "LinkConfig",
    "Particle",
    "RunStatistics",
    "SimParams",
    "SimulationState",
    "WorkQueue",
    "connect_device",
    "hybrid_for_each",
    "make_scene",
    "simulation_step",
    "__version__",
]
