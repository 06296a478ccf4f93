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
    MC_SAMPLES,
    PureProfile,
    SummGame,
    _CountBase,
    _check_entries,
    _chunk_players,
    _deviation_values,
    _mixed_mode,
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

# 2^22 profiles keeps the enumeration of a weighted game at desk scale
# (seconds, not hours): at n = 22 the pruned search takes 0.2-0.6 s on
# random, equal-weight bar and weighted-voting games (one core of a 2-CPU
# container), against 2.4-3.1 s when every player was evaluated on every
# profile. Count-based games search counts, not profiles, in under 1 ms at
# n = 22; the cap holds for them too, as their report still counts 2^n.
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

    Ties break to the lexicographically smallest action tuple, and
    epsilon* is that profile's regrets folded with ``np.maximum`` in player
    order from +0.0, so a zero epsilon* carries the sign that fold gives.
    Under ``Mean`` and ``MajorityFraction`` a player's regret depends only
    on the count of ones and their own action, and the search runs over
    counts (``_count_search``): 4n^2 payoff evaluations and O(n^2 log n)
    array work. A ``LinearWeighted`` game enumerates the 2^n profiles with
    pruning (``_pruned_enumeration``): 2n to 2n * 2^n payoff evaluations.
    Both reduce the deviation kernel ``regret_pure`` reads, on the same
    floats, so the result is the one evaluating every player on every
    profile gives; ``profiles_examined`` counts all 2^n profiles, each of
    which is bounded.
    """
    n = game.n
    if n > BRUTE_FORCE_MAX_PLAYERS:
        raise CapabilityError(
            f"exhaustive search is capped at n <= {BRUTE_FORCE_MAX_PLAYERS} "
            f"(got n={n})"
        )
    if isinstance(game.summarization, _CountBase):
        actions, best_value = _count_search(game)
    else:
        actions, best_value = _pruned_enumeration(game)
    return BruteForceReport(PureProfile(actions), best_value, 1 << n)


def _count_search(game: SummGame) -> tuple[tuple[int, ...], float]:
    """The lexicographically smallest min-max-regret profile of a game
    under a count-based S, and its max regret, over counts.

    One ``_deviation_values`` call per action b gives r_b[i, c], player
    i's regret playing b when c players play 1, at each count where
    someone can (state = the count, one x row of b shared by all players):
    the floats the enumeration computes on every profile of that count.
    An assignment with c ones keeps every regret within T exactly when
    each player has an action within T, at least c players may play 1
    and at least n - c may play 0, so the bottleneck of count c is the
    largest of max_i min_b r_b[i, c], the c-th smallest r_1[:, c] and the
    (n - c)-th smallest r_0[:, c]. epsilon* is the least bottleneck. A
    greedy pass over the players then sets each to 0 whenever some
    optimal count can still be completed, which gives the smallest
    minimizer over all of them.
    """
    n = game.n
    counts = np.arange(n + 1)
    # regret[b, i, c], inf where nobody plays b: c = n for 0, c = 0 for 1.
    regret = np.full((2, n, n + 1), np.inf)
    for b in (0, 1):
        x = np.full((1, n), b == 1)
        state = np.arange(b, n + b, dtype=np.float64)
        f0, f1 = _deviation_values(game, state, x, slice(0, n))
        regret[b, :, b : n + b] = np.maximum(f0, f1) - np.where(x, f1, f0)
    # ranked[b, k, c] is the k-th smallest r_b[:, c], ranked[b, 0] = -inf.
    ranked = np.concatenate(
        (np.full((2, 1, n + 1), -np.inf), np.sort(regret, axis=1)), axis=1
    )
    bottleneck = np.maximum.reduce(
        (regret.min(axis=0).max(axis=0), ranked[1, counts, counts],
         ranked[0, n - counts, counts])
    )
    epsilon = bottleneck.min()
    # after[b, i, c]: players i.. that may play 1 (b = 1) or must (b = 0).
    allowed = regret <= epsilon
    after = np.zeros((2, n + 1, n + 1), dtype=np.int64)
    after[:, :n] = np.cumsum(
        np.stack((allowed[1] & ~allowed[0], allowed[1]))[:, ::-1], axis=1
    )[:, ::-1]
    alive = bottleneck <= epsilon
    actions, ones = [], 0
    for i in range(n):
        # Ones the players after i must place if i plays 0.
        left = counts - ones
        rest = (after[0, i + 1] <= left) & (left <= after[1, i + 1])
        zero = alive & allowed[0, i] & rest
        if zero.any():
            alive = zero
            actions.append(0)
        else:
            # Every completion of every live count has i playing 1.
            actions.append(1)
            ones += 1
    worst = np.zeros(1)
    for r in regret[actions, np.arange(n), ones]:
        np.maximum(worst, r, out=worst)
    return tuple(actions), float(worst[0])


def _pruned_enumeration(game: SummGame) -> tuple[tuple[int, ...], float]:
    """The lexicographically smallest min-max-regret profile and its max
    regret, by enumerating the 2^n profiles.

    Profiles are enumerated in lexicographic order, in fixed-size blocks,
    and each block is bounded player by player: a row's running max regret
    over the players seen so far is a lower bound on its max regret, so
    once it reaches the best value of the earlier blocks the row is
    dropped -- it is worse, or ties at a larger code and loses -- and
    later players are evaluated only on the rows still alive. A block's
    winner is the first minimum among its survivors. Every surviving row's
    regrets are the floats an unpruned search computes, so the result does
    not depend on the pruning or on the evaluation order.
    """
    n = game.n
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
    return actions, best_value


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
    by ``regret_mixed`` in ``mode``: exact, seeded Monte Carlo, or auto,
    which is exact for n <= 20 and Monte Carlo above, as the learner
    certifies. Recomputed values must match the certificate within 1e-9
    when both are exact, and otherwise within 4 standard errors of their
    difference: 4 * sqrt(se_cert^2 + se_fresh^2), where a certificate
    without ``stderrs`` and an exact recomputation each contribute 0. A pure profile's regrets are exact,
    so its certificate's ``stderrs``, if any, are not used. The maximum
    must not exceed the claimed epsilon by more than the same allowance.
    Claimed stderrs must be finite and nonnegative, or the first that is
    not is named as ``stderrs[j]``, and Monte Carlo needs samples >= 2: an
    infinite standard error would allow any regret. Violations are report
    content, not exceptions.
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
        # NaN fails this too; it would otherwise pass every comparison, and
        # an infinite stderr would allow any regret.
        se = np.array(claimed_se, dtype=np.float64)
        bad = ~((0.0 <= se) & (se < np.inf))
        text = "certificate stderrs must be finite nonnegative numbers"
        _check_entries("stderrs", (bad, text))

    violations: list[str] = []
    stderrs: tuple[float, ...] | None = None
    if isinstance(profile, PureProfile):
        recomputed = regret_pure(game, profile)
        used_mode = "pure"
    else:
        mode = _mixed_mode(game.n, mode)
        # One sample has an infinite standard error, which allows any regret.
        if mode == "monte_carlo" and samples < 2:
            raise InputError(
                f"Monte-Carlo validation needs samples >= 2, got {samples}"
            )
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
