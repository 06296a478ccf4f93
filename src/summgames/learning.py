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

Players that share an initial probability and their best response on
every interval entered so far move identically, whatever their weights, so
the loop runs on classes of such players: each step costs O(C) for C
classes, and a class splits the first time an interval it disagrees on is
entered. The mean is one ``math.fsum`` over the C products W_c * p_c,
where W_c is the ``math.fsum`` of class c's weights: every term is
nonnegative, so it lies within a few ulps of the exact sum_i w_i * p_i.

The dynamics themselves are deterministic; randomness enters only in the
Monte-Carlo regret certification of large games.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import core
from .core import (
    MC_SAMPLES,
    MixedProfile,
    SummGame,
    _admit_work,
    _mixed_mode,
    regret_mixed,
)
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

# The cells a step is charged before its classes: on bar payoffs with
# delta = 0, a step took 4.6 us plus 24.7 ns per class from C = 1 to
# C = 10^4 (one run each), so its fixed cost is about 185 class cells.
STEP_CELLS = 2**8


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
    player classes the run ended with, players who share an initial
    probability and their best response on every interval entered, whatever
    their weights (0 when not reported).
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
    summ = _linear(game)
    return _mean(np.array(summ.weights, dtype=np.float64), np.array(profile.probs))


def _linear(game: SummGame):
    """The game's summarization, refused with CapabilityError unless it is
    linear: the broadcast mean, and so the dynamics, need E[S] = S(p)."""
    summ = game.summarization
    if not summ.is_linear:
        raise CapabilityError(
            "learning dynamics require a linear summarization (mean or "
            f"weighted vote); got {type(summ).__name__}"
        )
    return summ


def _mean(weights: np.ndarray, probs: np.ndarray) -> float:
    """The ``math.fsum`` of the products w_i * p_i, so the mean does not
    depend on how the products are laid out: over the players in
    ``broadcast_mean``, over the classes in the learner."""
    return math.fsum((weights * probs).tolist())


def _class_weights(weights: np.ndarray, class_of: np.ndarray) -> np.ndarray:
    """W_c, the ``math.fsum`` of the weights of the players in class c."""
    ends = np.cumsum(np.bincount(class_of))
    parts = np.split(weights[np.argsort(class_of)], ends[:-1])
    return np.array([math.fsum(part.tolist()) for part in parts])


def _class_bound(game: SummGame, probs: np.ndarray) -> int:
    """A bound on the learner's classes: the number of distinct keys of an
    initial probability's bits and a payoff pair's coefficient bits.
    Players who share both share every best response."""
    keys = [probs.view(np.int64)]
    for bank in game._banks:
        key = np.empty(game.n, dtype=np.int64)
        seen = 0
        for group in bank.groups:
            rows = np.hstack([c.reshape(len(group.index), -1) for c in group.columns])
            _, at = np.unique(rows.view(np.int64), axis=0, return_inverse=True)
            key[group.index] = seen + at.ravel()
            seen += int(at.max()) + 1
        keys.append(key)
    return len(np.unique(np.stack(keys, axis=1), axis=0))


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
    profile's regrets come from ``regret_mixed`` in auto mode: exact for
    n <= ``EXACT_REGRET_MAX_PLAYERS`` (20) and seeded Monte Carlo above
    that. The certificate's claimed epsilon is the measured regret (plus
    a 3-standard-error margin in the Monte-Carlo case), not an analytic
    promise.

    The loop runs on player classes (see the module docstring): a step
    costs O(C) for C classes. O(n) work is left only where the run reads
    all players: probability snapshots, the final profile, the class
    weights W after a split, and entering an interval other than the last
    two entered. BR(I_k) and V(I_k) come from ``_probe`` there, so no
    grid-cell cap applies, and the first entry of an interval splits the
    classes by BR(I_k). Each step's mean is the ``math.fsum`` of the C
    products W_c * p_c. The mean recursion is asserted at every step
    against V(I_k); a violation means the linearity contract broke and
    raises ContractError. The grid, beta and step cap the run resolved
    from the config are reported on the trajectory. A run whose step cap
    could record more than ``MAX_RECORDED_STEPS`` trajectory steps, each
    counted n + 1 times with probability snapshots, raises CapabilityError
    before its first step, as does one whose step cap times
    ``STEP_CELLS`` plus its class bound exceeds ``core.WORK_CELLS``. That
    bound is n, or, when the step cap times ``STEP_CELLS`` + n is over the
    cap, the number of distinct pairs of an initial probability and a
    payoff pair (``_class_bound``); delta >= beta raises InputError there. So does a certification request that
    ``core._mixed_mode`` refuses: ``mc_seed`` < 0 in either mode, and
    ``mc_samples`` < 2, or times n above ``WORK_CELLS``, when Monte Carlo
    certifies the run (exact certification reads no samples).
    """
    summ = _linear(game)
    grid = make_grid(config.epsilon, game.rho)
    alpha = grid.alpha
    beta = config.beta if config.beta is not None else alpha / 2.0
    if math.isnan(beta) or not 0.0 < beta < alpha:
        raise InputError(f"beta must lie in (0, alpha={alpha}), got {beta}")
    mode = _mixed_mode(game.n, "auto", mc_samples, mc_seed)
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
    probs = np.array(profile.probs, dtype=np.float64)
    # A step is charged STEP_CELLS plus its C classes, and C is at most n;
    # the keys that bound C are counted only when n does not fit.
    if max_steps * (STEP_CELLS + game.n) > core.WORK_CELLS:
        classes = _class_bound(game, probs)
        _admit_work(
            max_steps * (STEP_CELLS + classes),
            f"a run of {max_steps} steps, each {STEP_CELLS} cells plus a class "
            f"bound of {classes}, on n={game.n} players",
        )

    # BR(I_k) and V(I_k) of the last two intervals entered; the bar game
    # alternates between two.
    @lru_cache(maxsize=2)
    def probe(k: int) -> tuple[np.ndarray, float]:
        return _probe(game, grid, k)

    # Player classes: player i is in class class_of[i], rep[c] is one player
    # of class c, p[c] the probability all its players share and W[c] their
    # summed weight. Classes start from the distinct initial probabilities,
    # keyed on their IEEE bits so that -0.0 and 0.0 stay apart.
    weights = np.array(summ.weights, dtype=np.float64)
    _, rep, class_of = np.unique(
        probs.view(np.int64), return_index=True, return_inverse=True
    )
    p = probs[rep]
    W = _class_weights(weights, class_of)
    entered: set[int] = set()

    records: list[TrajectoryStep] = []
    starts: list[tuple[int, int]] = []  # (interval, first step) of each visit
    mu = _mean(W, p)
    for t in range(max_steps):
        # Normalized weights may sum to just above 1, and so may mu.
        k = interval_of(grid, min(mu, 1.0))
        if not starts or starts[-1][0] != k:
            starts.append((k, t))
            row, v = probe(k)
            # Split every class whose players disagree on BR(I_k); once
            # every class holds one player, none can split.
            if k not in entered and len(p) < len(probs):
                entered.add(k)
                split, rep, class_of = np.unique(
                    class_of * 2 + row, return_index=True, return_inverse=True
                )
                if len(split) > len(p):
                    p = p[split // 2]
                    W = _class_weights(weights, class_of)
            push = beta * row[rep]
        # Every class moves beta of the way toward its BR(I_k).
        new_p = (1.0 - beta) * p + push
        new_mu = _mean(W, new_p)
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

    result = regret_mixed(game, final, mode=mode, samples=mc_samples, seed=mc_seed)
    if result.stderrs is None:
        claimed = result.max_regret
    else:
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
