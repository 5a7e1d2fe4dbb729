"""safegov: robust action governor + safe Q-learning for disturbed linear systems.

Offline, the package computes unrecoverable-set sequences for a
discrete-time linear system with additive bounded disturbance and a
polytopic-union unsafe region.  Online, a mixed-integer QP filter
minimally modifies a nominal action so the next state stays robustly
clear of the unsafe region.  A neural fitted Q-learning trainer and an
adaptive-cruise-control environment tie the pieces into end-to-end
experiments.
"""

__version__ = "0.1.0"

from . import geometry
from .geometry import HPolytope, PolyUnion

__all__ = ["geometry", "HPolytope", "PolyUnion", "__version__"]
