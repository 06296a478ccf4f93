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

Two stopping regimes exist, and both need delta < beta: every update is
at most beta, so a larger delta would stop any run after one step, and
such a run is refused. With delta > 0 the run terminates once every
player's update is at most delta; because updates shrink geometrically
while the mean stays inside one interval, no interval visit can last more
than about (1/beta) * ln(1/delta) steps. With delta = 0 the dynamics never
self-terminate and an explicit step cap is required. Near-diagonal
oscillation can also keep delta > 0 runs alive indefinitely, so a default
cap on the scale of the worst-case convergence time applies when none is
given.

Players that share a weight, an initial probability and their best
response on every interval entered so far move identically, so the loop
runs on classes of such players: each step costs O(C) for C classes, and
a class splits the first time an interval it disagrees on is entered. The
mean is still the exactly rounded sum over the n players: each class's
term is split (Veltkamp) into two halves whose products with the class
size are exact (for classes below 2**26 players; larger sizes are split
too), and one ``math.fsum`` over those 2C products rounds their exact sum
once, as it rounds the n players' terms. Where n is not well above 2C,
the n terms themselves are summed, which is then cheaper.

The dynamics themselves are deterministic; randomness enters only in the
Monte-Carlo regret certification of large games.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable
from functools import lru_cache

import numpy as np

from .core import EXACT_REGRET_MAX_PLAYERS, MC_SAMPLES, MixedProfile, SummGame, regret_mixed
from .discretization import AlphaGrid, _probe, interval_of, make_grid
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
        if not 0.0 <= self.delta < math.inf:
            raise InputError(f"delta must be >= 0 and finite, got {self.delta}")
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
    why certificates never include these numbers. classes is the number of
    player classes the run ended with (0 when not reported).
    """

    psi_scale: float
    psi_expression: float
    visit_log: tuple[Visit, ...]
    classes: int = 0


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


# Veltkamp's splitter: q = hi + lo exactly, with at most 26 significant bits
# in each of hi and lo.
_SPLITTER = 2.0**27 + 1.0

# Class sizes below this have at most 26 bits, so their product with a
# 26-bit hi or lo is exact.
_COUNT_PART = 2.0**26

# The split costs a few array operations a step whatever C is, about as
# much as summing 70 more terms on the bar game (1 class): up to this many
# terms more than the split's 2C, the n players' terms are summed instead.
_EXPAND_SLACK = 64


def _class_summer(counts: np.ndarray) -> Callable[[np.ndarray], float]:
    """The function that maps q, one term per class, to sum_c m_c * q_c for
    the class sizes m = counts, exactly rounded: the value ``math.fsum``
    gives over the n = sum(m) players' terms.

    While n is at most 2C + ``_EXPAND_SLACK``, it is that ``math.fsum``
    over each q_c repeated m_c times. Otherwise each q_c is split into
    hi + lo, and m_c * hi and m_c * lo are exact, so 2C terms sum exactly
    to sum_c m_c * q_c and one ``math.fsum`` rounds that once. A size of
    ``_COUNT_PART`` or more is split in turn into its remainder modulo
    ``_COUNT_PART`` and the multiple of it left over, which has at most 27
    significant bits below 2**53, giving 2C more terms. lo's term is taken
    as (hi - q) times -m, which is -0.0 for a zero q: a -0.0 q gives two
    -0.0 terms and a 0.0 q one 0.0 term, so a zero sum has the sign it has
    over the n terms.
    """
    if counts.sum() <= 2 * len(counts) + _EXPAND_SLACK:
        return lambda q: math.fsum(q.repeat(counts).tolist())
    m = counts.astype(np.float64)
    parts = [m] if m.max() < _COUNT_PART else [m % _COUNT_PART, m - m % _COUNT_PART]
    factors = np.concatenate([x for part in parts for x in (part, -part)])

    def total(q: np.ndarray) -> float:
        c = _SPLITTER * q
        hi = c - (c - q)
        halves = np.concatenate((hi, hi - q) * len(parts))
        return math.fsum((halves * factors).tolist())

    return total


def default_step_cap(grid: AlphaGrid, beta: float, delta: float) -> int:
    """Step cap used when a delta > 0 run gives no explicit max_steps.

    Set to the worst-case convergence scale (1/alpha)(1/beta) ln(1/delta)
    plus one sweep of headroom. Near-diagonal oscillation can keep the delta rule from ever
    firing, so an unbounded run is never allowed; a cap that is not finite
    raises CapabilityError.
    """
    if not 0.0 < delta < math.inf:
        raise InputError("the default step cap applies only to finite delta > 0 runs")
    burn = grid.K * (1.0 / beta) * max(0.0, math.log(1.0 / delta))
    if not math.isfinite(burn):
        raise CapabilityError(
            f"beta={beta} and delta={delta} make the default step cap "
            f"{burn}; give max_steps"
        )
    return max(1, math.ceil(burn) + grid.K)


def run_summ_learn(
    game: SummGame,
    config: LearnConfig,
    initial: MixedProfile | None = None,
    mc_samples: int = MC_SAMPLES,
    mc_seed: int = 0,
) -> tuple[Trajectory, EquilibriumCertificate, LearnDiagnostics]:
    """Run the dynamics to termination and certify the final profile.

    The initial profile defaults to all probabilities 0.5. The final
    profile's regrets are computed exactly for n <= 20 and by seeded Monte
    Carlo above that; the certificate's claimed epsilon is the measured
    regret (plus a 3-standard-error margin in the Monte-Carlo case), not
    an analytic promise.

    The loop runs on player classes (see the module docstring): a step
    costs O(C) for C classes. O(n) work is left only where the run reads
    all players: probability snapshots, the final profile, and entering an
    interval other than the last two entered. BR(I_k) and V(I_k) come from
    ``_probe`` there, so no grid-cell cap applies, and the first entry of
    an interval splits the classes by BR(I_k). Each step's mean is the
    exactly rounded sum over the n players, taken from 2C terms once n is
    well above 2C (``_class_summer``), so trajectories do not depend on how
    the players are grouped. The mean
    recursion is asserted at every step against V(I_k); a violation means
    the linearity contract broke and raises ContractError. The grid, beta
    and step cap the run resolved from the config are reported on the
    trajectory. A run whose step cap could record more than
    ``MAX_RECORDED_STEPS`` trajectory steps, each counted n + 1 times with
    probability snapshots, raises CapabilityError before its first step,
    and ``mc_samples`` < 1, ``mc_seed`` < 0 or delta >= beta raises
    InputError there, whichever regret mode certifies the run.
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
    if config.delta >= beta:
        raise InputError(
            f"delta={config.delta} must be below beta={beta}: every update is "
            "at most beta, so the delta rule would stop after one step"
        )
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

    # BR(I_k) and V(I_k) of the last two intervals entered; the bar game
    # alternates between two.
    @lru_cache(maxsize=2)
    def probe(k: int) -> tuple[np.ndarray, float]:
        return _probe(game, grid, k)

    # beta * BR(I_k) of each class, with V(I_k). Classes only ever split, so
    # their number tells the current classes from earlier ones.
    @lru_cache(maxsize=2)
    def toward(k: int, classes: int) -> tuple[np.ndarray, float]:
        row, v = probe(k)
        return beta * row[rep], v

    # Player classes: player i is in class class_of[i], rep[c] is one player
    # of class c, and p[c] the probability all its players share. Classes
    # start from the distinct (weight, initial probability) pairs, keyed on
    # their IEEE bits so that -0.0 and 0.0 stay apart.
    weights = np.array(summ.weights, dtype=np.float64)
    probs = np.array(profile.probs, dtype=np.float64)
    _, by_weight = np.unique(weights.view(np.int64), return_inverse=True)
    _, by_prob = np.unique(probs.view(np.int64), return_inverse=True)
    _, rep, class_of = np.unique(
        by_weight * (by_prob.max() + 1) + by_prob, return_index=True, return_inverse=True
    )
    p = probs[rep]
    w = weights[rep]
    mean_of = _class_summer(np.bincount(class_of))
    entered: set[int] = set()

    records: list[TrajectoryStep] = []
    starts: list[tuple[int, int]] = []  # (interval, first step) of each visit
    mu = mean_of(w * p)
    for t in range(max_steps):
        # Normalized weights may sum to just above 1, and so may mu.
        k = interval_of(grid, min(mu, 1.0))
        if not starts or starts[-1][0] != k:
            starts.append((k, t))
            # Split every class whose players disagree on BR(I_k); once
            # every class holds one player, none can split.
            if k not in entered and len(p) < len(probs):
                entered.add(k)
                split, rep, class_of = np.unique(
                    class_of * 2 + probe(k)[0], return_index=True, return_inverse=True
                )
                p = p[split // 2]
                w = weights[rep]
                mean_of = _class_summer(np.bincount(class_of))
            push, v = toward(k, len(p))
        # Every class moves beta of the way toward its BR(I_k).
        new_p = (1.0 - beta) * p + push
        new_mu = mean_of(w * new_p)
        if abs((new_mu - mu) - beta * (v - mu)) > _MU_RECURSION_TOL:
            raise ContractError(
                f"mean recursion violated at step {t}: the summarization is "
                "not behaving linearly"
            )
        max_delta = float(np.abs(new_p - p).max())
        converged = config.delta > 0.0 and max_delta <= config.delta
        # The final update step is always recorded, even when thinned.
        if t % config.snapshot_every == 0 or converged or t + 1 == max_steps:
            records.append(
                TrajectoryStep(
                    t,
                    mu,
                    max_delta,
                    tuple(p[class_of].tolist()) if config.snapshot_probs else None,
                )
            )
        p = new_p
        mu = new_mu
        if converged:
            terminated: Converged | MaxStepsReached = Converged(t + 1)
            break
    else:
        terminated = MaxStepsReached(max_steps)

    final = MixedProfile(tuple(p[class_of].tolist()))
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

    # Each visit lasts until the next one starts, the last until the run
    # ends. Built after certification, which then holds only ``starts``.
    ends = [start for _, start in starts[1:]] + [terminated.step]
    visits = [Visit(k, start, end - start) for (k, start), end in zip(starts, ends)]

    weights = summ.weights
    psi_scale = math.sqrt(math.fsum(w * w for w in weights))
    if psi_scale > 0.0:
        psi_expression = game.rho * psi_scale * math.log(1.0 / psi_scale)
    else:
        psi_expression = 0.0
    diagnostics = LearnDiagnostics(psi_scale, psi_expression, tuple(visits), len(p))
    return trajectory, certificate, diagnostics
