"""Distributed smoothed best-response dynamics for linear games.

Each round, the expected summarization value mu_t (a single broadcast
number) is computed from the population's mixed strategies, and every
player nudges their action probability a step of size beta toward their
apparent best response to mu_t, evaluated on their own step-approximated
payoffs. Linearity of the summarization makes the mean evolve exactly as

    mu_{t+1} - mu_t = beta * (V(I_k) - mu_t),    k = interval of mu_t,

where V is the solver's per-interval best-response value table: the mean
chases the diagonal crossings of V. With beta < alpha the mean moves at
most one interval per step.

Two stopping regimes exist. With delta > 0 the run terminates once every
player's update is at most delta; because updates shrink geometrically
while the mean stays inside one interval, no interval visit can last more
than about (1/beta) * ln(1/delta) steps. With delta = 0 the dynamics never
self-terminate and an explicit step cap is required. Near-diagonal
oscillation can also keep delta > 0 runs alive indefinitely, so a default
cap on the scale of the worst-case convergence time applies when none is
given.

The dynamics themselves are deterministic; randomness enters only in the
Monte-Carlo regret certification of large games.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EXACT_REGRET_MAX_PLAYERS, MixedProfile, SummGame, regret_mixed
from .discretization import AlphaGrid, _best_responses, interval_of, make_grid
from .errors import CapabilityError, ContractError, InputError
from .solver import EquilibriumCertificate, Learned

__all__ = [
    "LearnConfig",
    "TrajectoryStep",
    "Converged",
    "MaxStepsReached",
    "Trajectory",
    "Visit",
    "LearnDiagnostics",
    "broadcast_mean",
    "default_step_cap",
    "run_summ_learn",
    "MAX_RECORDED_STEPS",
]

# Tolerance for the exact-linearity recursion check, asserted every step.
_MU_RECURSION_TOL = 1e-12

# A recorded trajectory step takes about 323 bytes, and a probability
# snapshot is counted as n more steps; a run whose step cap could record
# more than this many is refused before its first step, so a trajectory
# stays under about 1 GB.
MAX_RECORDED_STEPS = 3 * 10**6


@dataclass(frozen=True)
class LearnConfig:
    """Parameters of a learning run.

    beta defaults to alpha/2 when left as None (alpha is derived from
    epsilon and the game's derivative bound at run time). delta is the
    stopping threshold on per-player updates; delta = 0 disables
    self-termination and therefore requires max_steps. snapshot_every
    thins the recorded trajectory (never the dynamics); full probability
    snapshots are stored only when snapshot_probs is set.
    """

    epsilon: float
    delta: float
    beta: float | None = None
    max_steps: int | None = None
    snapshot_every: int = 1
    snapshot_probs: bool = False

    def __post_init__(self) -> None:
        if math.isnan(self.epsilon) or self.epsilon <= 0.0:
            raise InputError(f"epsilon must be > 0, got {self.epsilon}")
        if math.isnan(self.delta) or self.delta < 0.0:
            raise InputError(f"delta must be >= 0, got {self.delta}")
        if self.delta == 0.0 and (self.max_steps is None or self.max_steps <= 0):
            raise InputError("delta = 0 never self-terminates; max_steps > 0 is required")
        if self.max_steps is not None and self.max_steps <= 0:
            raise InputError("max_steps must be positive when given")
        if self.snapshot_every < 1:
            raise InputError("snapshot_every must be >= 1")


@dataclass(frozen=True)
class TrajectoryStep:
    """State at time t plus the size of the update taken from it."""

    t: int
    mu: float
    max_delta: float
    probs: tuple[float, ...] | None = None


@dataclass(frozen=True)
class Converged:
    """The delta-stopping rule fired after `step` updates."""

    step: int


@dataclass(frozen=True)
class MaxStepsReached:
    """The step cap ended the run."""

    step: int


@dataclass(frozen=True)
class Trajectory:
    """The recorded run, plus the parameters it was run with: the grid made
    from epsilon, beta and the step cap, as resolved from the config."""

    steps: tuple[TrajectoryStep, ...]
    terminated: Converged | MaxStepsReached
    final: MixedProfile
    grid: AlphaGrid
    beta: float
    max_steps: int


@dataclass(frozen=True)
class Visit:
    """A maximal run of consecutive update steps whose mean stayed in one
    interval. Only steps from which an update was taken are counted; the
    resting state after termination is not."""

    interval: int
    start: int
    duration: int


@dataclass(frozen=True)
class LearnDiagnostics:
    """Scale diagnostics, reported but never cited as a guarantee.

    psi_scale is sqrt(sum of squared influences), the large-deviation
    scale of best-responding to the broadcast mean instead of the full
    distribution; psi_expression multiplies in the derivative bound and
    log factor with unit constant. The true constant is unknown, which is
    why certificates never include these numbers.
    """

    psi_scale: float
    psi_expression: float
    visit_log: tuple[Visit, ...]


def broadcast_mean(game: SummGame, profile: MixedProfile) -> float:
    """The expected summarization value of a product-form mixed profile.

    Exact only for linear summarizations, which is the supported case.
    """
    game._check_profile(profile.n)
    summ = game.summarization
    if not summ.is_linear:
        raise CapabilityError(
            "the broadcast mean requires a linear summarization (mean or "
            f"weighted vote); got {type(summ).__name__}"
        )
    return _mean(np.array(summ.weights, dtype=np.float64), np.array(profile.probs))


def _mean(weights: np.ndarray, probs: np.ndarray) -> float:
    """sum_i w_i * p_i, exactly rounded, so the mean does not depend on how
    the products are laid out."""
    return math.fsum((weights * probs).tolist())


def default_step_cap(grid: AlphaGrid, beta: float, delta: float) -> int:
    """Step cap used when a delta > 0 run gives no explicit max_steps.

    Set to the worst-case convergence scale (1/alpha)(1/beta) ln(1/delta)
    plus one sweep of headroom. Near-diagonal oscillation can keep the delta rule from ever
    firing, so an unbounded run is never allowed.
    """
    if delta <= 0.0:
        raise InputError("the default step cap applies only to delta > 0 runs")
    burn = math.ceil(grid.K * (1.0 / beta) * max(0.0, math.log(1.0 / delta)))
    return max(1, burn + grid.K)


def run_summ_learn(
    game: SummGame,
    config: LearnConfig,
    initial: MixedProfile | None = None,
    mc_samples: int = 20000,
    mc_seed: int = 0,
) -> tuple[Trajectory, EquilibriumCertificate, LearnDiagnostics]:
    """Run the dynamics to termination and certify the final profile.

    The initial profile defaults to all probabilities 0.5. The final
    profile's regrets are computed exactly for n <= 20 and by seeded Monte
    Carlo above that; the certificate's claimed epsilon is the measured
    regret (plus a 3-standard-error margin in the Monte-Carlo case), not
    an analytic promise.

    Best responses are evaluated per interval entered, the last two
    kept, so no grid-cell cap applies. The mean recursion is asserted at
    every step against V(I_k); a violation means the linearity contract broke
    and raises ContractError. The grid, beta and step cap the run resolved
    from the config are reported on the trajectory. A run whose step cap
    could record more than ``MAX_RECORDED_STEPS`` trajectory steps, each
    counted n + 1 times with probability snapshots, raises CapabilityError
    before its first step, and ``mc_samples`` < 1 or ``mc_seed`` < 0
    raises InputError there, whichever regret mode certifies the run.
    """
    summ = game.summarization
    if not summ.is_linear:
        raise CapabilityError(
            "learning dynamics require a linear summarization (mean or "
            f"weighted vote); got {type(summ).__name__}"
        )
    grid = make_grid(config.epsilon, game.rho)
    alpha = grid.alpha
    beta = config.beta if config.beta is not None else alpha / 2.0
    if math.isnan(beta) or not 0.0 < beta < alpha:
        raise InputError(f"beta must lie in (0, alpha={alpha}), got {beta}")
    if mc_samples < 1:
        raise InputError(f"mc_samples must be >= 1, got {mc_samples}")
    if mc_seed < 0:
        raise InputError(f"mc_seed must be >= 0, got {mc_seed}")
    if config.max_steps is not None:
        max_steps = config.max_steps
    else:
        max_steps = default_step_cap(grid, beta, config.delta)
    # ceil(max_steps / snapshot_every) thinned steps, plus the final step,
    # which is always recorded.
    recorded = -(-max_steps // config.snapshot_every) + 1
    per_step = game.n + 1 if config.snapshot_probs else 1
    if recorded * per_step > MAX_RECORDED_STEPS:
        counted = f", each counted {per_step} times with its probabilities"
        raise CapabilityError(
            f"a run of up to {max_steps} steps would record up to {recorded} "
            f"trajectory steps{counted if per_step > 1 else ''}, over the cap "
            f"of MAX_RECORDED_STEPS = {MAX_RECORDED_STEPS}; raise "
            "snapshot_every, lower max_steps or drop snapshot_probs"
        )

    if initial is None:
        profile = MixedProfile((0.5,) * game.n)
    else:
        game._check_profile(initial.n)
        profile = initial

    records: list[TrajectoryStep] = []
    visits: list[Visit] = []
    visit_interval: int | None = None
    visit_start = 0
    visit_len = 0

    weights = np.array(summ.weights, dtype=np.float64)
    # (beta * BR(I_k), V(I_k)) of the last two intervals entered; the bar
    # game alternates between two.
    cached: dict[int, tuple[np.ndarray, float]] = {}
    probs = np.array(profile.probs, dtype=np.float64)
    mu = _mean(weights, probs)
    t = 0
    terminated: Converged | MaxStepsReached | None = None
    while t < max_steps:
        # Normalized weights may sum to just above 1, and so may mu.
        k = interval_of(grid, min(mu, 1.0))
        if k != visit_interval:
            if visit_interval is not None:
                visits.append(Visit(visit_interval, visit_start, visit_len))
            visit_interval = k
            visit_start = t
            visit_len = 0
        visit_len += 1

        if k not in cached:
            if len(cached) == 2:
                del cached[next(iter(cached))]
            br = _best_responses(game, [grid.left_edge(k)])[:, 0]
            cached[k] = (beta * br, summ.evaluate(br))
        push, v = cached[k]
        # Every player moves beta of the way toward BR(I_k).
        new_probs = (1.0 - beta) * probs + push
        new_mu = _mean(weights, new_probs)
        if abs((new_mu - mu) - beta * (v - mu)) > _MU_RECURSION_TOL:
            raise ContractError(
                f"mean recursion violated at step {t}: the summarization is "
                "not behaving linearly"
            )
        max_delta = float(np.abs(new_probs - probs).max())

        stopping = (
            config.delta > 0.0 and max_delta <= config.delta
        ) or t + 1 >= max_steps
        # The final update step is always recorded, even when thinned.
        if t % config.snapshot_every == 0 or stopping:
            records.append(
                TrajectoryStep(
                    t,
                    mu,
                    max_delta,
                    tuple(probs.tolist()) if config.snapshot_probs else None,
                )
            )
        probs = new_probs
        mu = new_mu
        t += 1
        if config.delta > 0.0 and max_delta <= config.delta:
            terminated = Converged(t)
            break
    if terminated is None:
        terminated = MaxStepsReached(t)
    if visit_interval is not None:
        visits.append(Visit(visit_interval, visit_start, visit_len))

    final = MixedProfile(tuple(probs.tolist()))
    trajectory = Trajectory(tuple(records), terminated, final, grid, beta, max_steps)

    if game.n <= EXACT_REGRET_MAX_PLAYERS:
        result = regret_mixed(game, final, mode="exact")
        claimed = result.max_regret
    else:
        result = regret_mixed(
            game, final, mode="monte_carlo", samples=mc_samples, seed=mc_seed
        )
        claimed = max(
            r + 3.0 * se for r, se in zip(result.regrets, result.stderrs)
        )
    certificate = EquilibriumCertificate(
        final, claimed, result.regrets, Learned(), stderrs=result.stderrs
    )

    weights = summ.weights
    psi_scale = math.sqrt(math.fsum(w * w for w in weights))
    if psi_scale > 0.0:
        psi_expression = game.rho * psi_scale * math.log(1.0 / psi_scale)
    else:
        psi_expression = 0.0
    diagnostics = LearnDiagnostics(psi_scale, psi_expression, tuple(visits))
    return trajectory, certificate, diagnostics
