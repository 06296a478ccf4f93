"""summgames: equilibrium computation for bounded-influence population games.

Games where every player's payoff depends only on their own binary action
and a global summarization of the whole population's play. The package
computes pure approximate Nash equilibria (``summ_nash``), simulates
distributed smoothed best-response dynamics on linear games
(``run_summ_learn``), and independently certifies the quality of any
output (``regret_pure``, ``regret_mixed``, ``brute_min_epsilon``,
``validate_certificate``).
"""

__version__ = "0.1.0"

from .core import (
    Affine,
    Constant,
    LinearWeighted,
    MajorityFraction,
    Mean,
    MixedProfile,
    MixedRegret,
    Payoff,
    PiecewiseLinear,
    PureProfile,
    Quadratic,
    SummGame,
    Summarization,
    regret_mixed,
    regret_pure,
)
from .discretization import (
    AlphaGrid,
    discretize_game,
    interval_of,
    make_grid,
)
from .errors import CapabilityError, ContractError, InputError, SummGamesError
from .learning import (
    Converged,
    LearnConfig,
    LearnDiagnostics,
    MaxStepsReached,
    Trajectory,
    TrajectoryStep,
    Visit,
    broadcast_mean,
    run_summ_learn,
)
from .oracle import (
    BruteForceReport,
    ValidationReport,
    brute_min_epsilon,
    validate_certificate,
)
from .solver import (
    EquilibriumCertificate,
    Horizontal,
    Learned,
    VTable,
    Vertical,
    build_v_table,
    find_horizontal,
    find_vertical_and_walk,
    summ_nash,
)

__all__ = [
    "__version__",
    "Affine",
    "AlphaGrid",
    "BruteForceReport",
    "CapabilityError",
    "Constant",
    "ContractError",
    "Converged",
    "EquilibriumCertificate",
    "Horizontal",
    "InputError",
    "LearnConfig",
    "LearnDiagnostics",
    "Learned",
    "LinearWeighted",
    "MajorityFraction",
    "MaxStepsReached",
    "Mean",
    "MixedProfile",
    "MixedRegret",
    "Payoff",
    "PiecewiseLinear",
    "PureProfile",
    "Quadratic",
    "SummGame",
    "SummGamesError",
    "Summarization",
    "Trajectory",
    "TrajectoryStep",
    "VTable",
    "ValidationReport",
    "Vertical",
    "Visit",
    "broadcast_mean",
    "brute_min_epsilon",
    "build_v_table",
    "discretize_game",
    "find_horizontal",
    "find_vertical_and_walk",
    "interval_of",
    "make_grid",
    "regret_mixed",
    "regret_pure",
    "run_summ_learn",
    "summ_nash",
    "validate_certificate",
]
