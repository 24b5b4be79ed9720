"""Privacy-preserving integrity auditing for network-coded storage.

The package root exports what a caller of the three roles needs to set a
file up and run it; the modules hold the rest.
"""

from .blocks import SystemParams, UndecodableError
from .cluster import Cluster, Fault, spawn_cluster
from .extractor import ExtractionError
from .repair import PlanningError

__all__ = [
    "Cluster", "ExtractionError", "Fault", "PlanningError", "SystemParams",
    "UndecodableError", "spawn_cluster",
]
