"""Diffusion driven by vertex noise on metric graphs.

Tools for the operator picture (P1 discretization, eigensystems, vertex
traces), exact analytic spectra for intervals and Neumann stars, strong
Feller verdicts, minimal-norm null control, tree path decompositions,
and exact-law Monte Carlo simulation.
"""

__version__ = "0.1.0"

from . import control, errors, feller, graphs, noise, sim, spectral, treepaths
from .control import *
from .errors import *
from .feller import *
from .graphs import *
from .noise import *
from .sim import *
from .spectral import *
from .treepaths import *

# each module's __all__ is the one list of its public names
__all__ = ["__version__"] + [
    name
    for module in (graphs, spectral, noise, feller, control, treepaths, sim, errors)
    for name in module.__all__
]
