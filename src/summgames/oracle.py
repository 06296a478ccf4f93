"""Independent ground truth: exhaustive search and certificate validation.

Nothing here shares logic with the solver or the learner; this module is
what the test suite (and the CLI ``verify`` command) trusts when deciding
whether an emitted certificate is honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    EXACT_REGRET_MAX_PLAYERS,
    MC_SAMPLES,
    PureProfile,
    SummGame,
    _chunk_players,
    _deviation_values,
    _profile_blocks,
    regret_mixed,
    regret_pure,
)
from .errors import CapabilityError, InputError
from .solver import EquilibriumCertificate

__all__ = [
    "BRUTE_FORCE_MAX_PLAYERS",
    "BruteForceReport",
    "ValidationReport",
    "brute_min_epsilon",
    "validate_certificate",
]

# 2^22 profiles keeps full enumeration at desk scale (seconds, not hours):
# at n = 22 the pruned search took 0.4-0.8 s on random, bar and weighted-
# voting games (one core of a 2-CPU container), against 2.4-3.1 s when every
# player was evaluated on every profile.
BRUTE_FORCE_MAX_PLAYERS = 22

# Agreement tolerance for exactly recomputed regrets.
_EXACT_TOL = 1e-9


@dataclass(frozen=True)
class BruteForceReport:
    """The best pure profile found by exhaustive max-regret minimization."""

    best_profile: PureProfile
    epsilon_star: float
    profiles_examined: int


def brute_min_epsilon(game: SummGame) -> BruteForceReport:
    """Minimize max-regret over all 2^n pure profiles.

    Ties break to the lexicographically smallest action tuple. Profiles are
    enumerated in that order, in fixed-size blocks, and each block is
    bounded player by player: a row's running max regret over the players
    seen so far is a lower bound on its max regret, so once it reaches the
    best value of the earlier blocks the row is dropped -- it is worse, or
    ties at a larger code and loses -- and later players are evaluated only
    on the rows still alive. A block's winner is the first minimum among
    its survivors. Every surviving row's regrets are the floats an
    unpruned search computes, so the result does not depend on the pruning
    or on the evaluation order; ``profiles_examined`` counts all 2^n
    profiles, each of which is bounded.
    """
    n = game.n
    if n > BRUTE_FORCE_MAX_PLAYERS:
        raise CapabilityError(
            f"exhaustive search is capped at n <= {BRUTE_FORCE_MAX_PLAYERS} "
            f"(got n={n})"
        )
    # Code 0 is the first profile, so it wins every tie, and its max regret,
    # folded as a row's running max is below, bounds the first block too.
    best_value, best_code = 0.0, 0
    for regret in regret_pure(game, PureProfile((0,) * n)):
        best_value = float(np.maximum(best_value, regret))
    for start, columns, state in _profile_blocks(game.summarization):
        rows = columns.shape[1]
        alive = np.arange(rows)
        worst = np.zeros(rows)
        stop = 0
        while stop < n and len(alive):
            players = slice(stop, min(stop + _chunk_players(len(alive)), n))
            x = columns[players]
            if len(alive) < rows:
                x = x[:, alive]
            f0, f1 = _deviation_values(game, state, x, players)
            for regret in np.maximum(f0, f1) - np.where(x, f1, f0):
                np.maximum(worst, regret, out=worst)
            keep = worst < best_value
            if not keep.all():
                alive, worst, state = alive[keep], worst[keep], state[keep]
            stop = players.stop
        if len(alive):
            idx = int(np.argmin(worst))  # first minimum = lexicographic winner
            best_value = float(worst[idx])
            best_code = start + int(alive[idx])
    actions = tuple(int((best_code >> (n - 1 - i)) & 1) for i in range(n))
    return BruteForceReport(PureProfile(actions), best_value, 1 << n)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of re-deriving a certificate's regrets from scratch."""

    valid: bool
    violations: tuple[str, ...]
    recomputed_regrets: tuple[float, ...]
    recomputed_stderrs: tuple[float, ...] | None
    mode: str


def validate_certificate(
    game: SummGame,
    certificate: EquilibriumCertificate,
    mode: str = "auto",
    samples: int = MC_SAMPLES,
    seed: int = 0,
) -> ValidationReport:
    """Recompute a certificate's regrets and check its claims.

    Pure profiles are recomputed with the pure regret oracle, mixed ones
    exactly (n <= 20) or by seeded Monte Carlo. Recomputed values must
    match the certificate within 1e-9 when both are exact, and otherwise
    within 4 standard errors of their difference: 4 * sqrt(se_cert^2 +
    se_fresh^2), where a certificate without ``stderrs`` and an exact
    recomputation each contribute 0. A pure profile's regrets are exact,
    so its certificate's ``stderrs``, if any, are not used. The maximum
    must not exceed the claimed epsilon by more than the same allowance.
    Violations are report content, not exceptions.
    """
    profile = certificate.profile
    arity = profile.n
    if arity != game.n:
        raise InputError(
            f"certificate profile has {arity} players, game has {game.n}"
        )
    if len(certificate.regrets) != game.n:
        raise InputError(
            f"certificate has {len(certificate.regrets)} regrets for n={game.n}"
        )
    claimed_se = None if isinstance(profile, PureProfile) else certificate.stderrs
    if claimed_se is not None:
        if len(claimed_se) != game.n:
            raise InputError(
                f"certificate has {len(claimed_se)} stderrs for n={game.n}"
            )
        # NaN fails this too; it would otherwise pass every comparison.
        if not all(se >= 0.0 for se in claimed_se):
            raise InputError("certificate stderrs must be nonnegative numbers")

    violations: list[str] = []
    stderrs: tuple[float, ...] | None = None
    if isinstance(profile, PureProfile):
        recomputed = regret_pure(game, profile)
        used_mode = "pure"
    else:
        if mode == "auto":
            mode = "exact" if game.n <= EXACT_REGRET_MAX_PLAYERS else "monte_carlo"
        result = regret_mixed(game, profile, mode=mode, samples=samples, seed=seed)
        recomputed = result.regrets
        stderrs = result.stderrs
        used_mode = result.mode

    def allowance(i: int) -> float:
        if claimed_se is None:
            return _EXACT_TOL if stderrs is None else 4.0 * stderrs[i]
        fresh_se = 0.0 if stderrs is None else stderrs[i]
        return 4.0 * math.hypot(claimed_se[i], fresh_se)

    # Both checks are negated so that a NaN claim, false in every
    # comparison, fails them.
    for i, (fresh, claimed) in enumerate(zip(recomputed, certificate.regrets)):
        if not abs(fresh - claimed) <= allowance(i):
            violations.append(
                f"player {i}: certificate regret {claimed} differs from "
                f"recomputed {fresh} by more than {allowance(i)}"
            )
    worst = max(range(game.n), key=lambda i: recomputed[i])
    if not recomputed[worst] <= certificate.epsilon_claimed + allowance(worst):
        violations.append(
            f"max recomputed regret {recomputed[worst]} (player {worst}) "
            f"exceeds the claimed epsilon {certificate.epsilon_claimed}"
        )
    return ValidationReport(
        valid=not violations,
        violations=tuple(violations),
        recomputed_regrets=tuple(recomputed),
        recomputed_stderrs=stderrs,
        mode=used_mode,
    )
