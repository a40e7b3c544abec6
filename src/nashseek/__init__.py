"""Distributed Nash-equilibrium seeking for saturated integrator-chain players.

Players with heterogeneous integrator-chain dynamics and hard input limits
cooperate over a directed communication graph to drive their outputs to the
Nash equilibrium of a strongly monotone game. The package provides the game
and graph models, the per-player coordinate change and bounded control laws,
the adaptive consensus estimator, a fixed-step simulator with convergence
diagnostics, and a scenario-driven command line interface.
"""

from . import dynamics, errors, game, graph, scenario, seeker, sim
from .dynamics import *
from .errors import *
from .game import *
from .graph import *
from .scenario import *
from .seeker import *
from .sim import *

__version__ = "0.1.0"

# each module's __all__ is the one declaration of its public names
_MODULES = (dynamics, errors, game, graph, scenario, seeker, sim)
__all__ = sorted(name for module in _MODULES for name in module.__all__)
