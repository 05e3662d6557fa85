"""GLM solvers with safe adaptive importance sampling.

Coordinate descent and SGD draw their update directions from
distributions that are worst-case optimal with respect to maintained
signed interval bounds on the gradients; the per-iteration distribution is
computed in O(n) when every interval is exact or no bound is active, and in
O(n log n) from the sorted transformed bounds otherwise.  Under
Cauchy-Schwarz tracking the case of no active bound is usually proven
without any O(n) pass, and the static distribution is drawn at once.
"""

from .data import SparseDesign, parse_libsvm
from .glm import GlmProblem
from .sampling import (
    GradientBox,
    LipschitzProfile,
    SafeSamplingSolution,
    StationaryPointError,
    compute_safe_sampling,
    draw_index,
    effective_value,
    fixed_li_sampling,
    optimal_sampling,
)
from .solvers import MetricsTrace, SolverConfig, run

__version__ = "0.1.0"

__all__ = [
    "GlmProblem",
    "GradientBox",
    "LipschitzProfile",
    "MetricsTrace",
    "SafeSamplingSolution",
    "SolverConfig",
    "SparseDesign",
    "StationaryPointError",
    "compute_safe_sampling",
    "draw_index",
    "effective_value",
    "fixed_li_sampling",
    "optimal_sampling",
    "parse_libsvm",
    "run",
    "__version__",
]
