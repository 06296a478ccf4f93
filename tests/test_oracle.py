"""Exhaustive search and certificate validation."""

import itertools
import math

import numpy as np
import pytest

from conftest import (
    adoption_game,
    bar_game,
    consensus_game,
    constant_game,
    random_game,
)
from summgames import (
    CapabilityError,
    EquilibriumCertificate,
    InputError,
    Learned,
    LinearWeighted,
    MajorityFraction,
    MixedProfile,
    PureProfile,
    brute_min_epsilon,
    regret_mixed,
    regret_pure,
    run_summ_learn,
    LearnConfig,
    summ_nash,
    SummGame,
    validate_certificate,
)
from summgames import core


# ---------------------------------------------------------------------------
# Brute force
# ---------------------------------------------------------------------------


def test_brute_consensus2_lexicographic_tie():
    # Both unanimous profiles are exact equilibria; the lexicographic rule
    # reports all-zeros.
    report = brute_min_epsilon(consensus_game(2))
    assert report.epsilon_star == 0.0
    assert report.best_profile.actions == (0, 0)
    assert report.profiles_examined == 4


def test_brute_adoption2_unique_minimizer():
    # One-sided consensus: only all-ones has zero regret, so it is reported
    # despite being lexicographically last.
    report = brute_min_epsilon(adoption_game(2))
    assert report.epsilon_star == 0.0
    assert report.best_profile.actions == (1, 1)


def test_brute_bar4():
    report = brute_min_epsilon(bar_game(4))
    assert report.epsilon_star == 0.0
    assert report.best_profile.actions == (0, 0, 1, 1)
    assert report.profiles_examined == 16


def test_brute_constant_game():
    report = brute_min_epsilon(constant_game(6))
    assert report.epsilon_star == 0.0
    assert report.best_profile.actions == (0,) * 6


def test_brute_capability_cap():
    with pytest.raises(CapabilityError):
        brute_min_epsilon(constant_game(23))


def test_brute_matches_scalar_enumeration():
    # Independent oracle: enumerate with itertools and the scalar regret
    # path, then compare the vectorized search result.
    rng = np.random.default_rng(13)
    for _ in range(5):
        n = int(rng.integers(2, 7))
        game = random_game(rng, n, "mean" if rng.uniform() < 0.5 else "linear")
        best = None
        for acts in itertools.product((0, 1), repeat=n):
            worst = max(regret_pure(game, PureProfile(acts)))
            if best is None or worst < best[0]:
                best = (worst, acts)
        report = brute_min_epsilon(game)
        assert abs(report.epsilon_star - best[0]) <= 1e-12
        assert report.best_profile.actions == best[1]


def test_brute_epsilon_star_is_the_pure_regret_of_its_profile():
    # The search and regret_pure reduce the same deviation kernel, so the
    # reported minimum is exactly the best profile's max pure regret.
    rng = np.random.default_rng(29)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        game = random_game(rng, n, "mean" if rng.uniform() < 0.5 else "linear")
        report = brute_min_epsilon(game)
        assert report.epsilon_star == max(regret_pure(game, report.best_profile))


def test_brute_is_minimal_over_solver_outputs():
    rng = np.random.default_rng(40)
    for _ in range(10):
        n = int(rng.integers(2, 11))
        game = random_game(rng, n, "mean")
        cert = summ_nash(game, 0.3)
        report = brute_min_epsilon(game)
        assert report.epsilon_star <= cert.max_regret + 1e-12


def _count_cells(monkeypatch):
    """A list that receives the payoff cells of every payoff-bank call."""
    cells = []
    evaluate = core._PayoffBank.evaluate

    def counted(self, players, z):
        cells.append((players.stop - players.start) * z.shape[1])
        return evaluate(self, players, z)

    monkeypatch.setattr(core._PayoffBank, "evaluate", counted)
    return cells


def _equal_weights(game):
    """The game's payoffs under a weighted vote with equal weights, which
    the pruned enumeration searches; S takes the mean's values k/n exactly
    for n a power of two."""
    return SummGame(LinearWeighted((1.0,) * game.n, normalize=True), game.payoffs)


def test_brute_drops_profiles_once_they_have_lost(monkeypatch):
    # bar_game(16)'s payoffs under equal weights enumerate four blocks.
    # Evaluating every player on every profile hands the payoff banks
    # 2 * n * 2^n cells; once the first block holds an equilibrium, a row
    # of a later block is dropped at its first player with positive regret.
    cells = _count_cells(monkeypatch)
    n = 16
    report = brute_min_epsilon(_equal_weights(bar_game(n)))
    assert report.epsilon_star == 0.0
    assert report.profiles_examined == 1 << n
    assert sum(cells) < 2 * n * (1 << n) // 3


def test_brute_bounds_the_first_block_by_the_first_profile(monkeypatch):
    # The all-zeros profile of consensus_game(16)'s payoffs under equal
    # weights is an equilibrium. Its regrets (2 * n cells) bound every
    # block, the first one included, so each profile is dropped after its
    # first player (2 cells each).
    cells = _count_cells(monkeypatch)
    n = 16
    report = brute_min_epsilon(_equal_weights(consensus_game(n)))
    assert report.epsilon_star == 0.0
    assert report.best_profile.actions == (0,) * n
    assert sum(cells) == 2 * n + 2 * (1 << n)


@pytest.mark.parametrize("n", [1, 16, 22])
def test_brute_searches_counts_of_count_based_games(monkeypatch, n):
    # Under the mean and the majority fraction a regret depends only on the
    # count and the player's own action: one kernel call per action, each
    # evaluating both banks for n players at n counts, 4 * n^2 cells
    # whatever the game, not a number that grows with 2^n.
    cells = _count_cells(monkeypatch)
    rng = np.random.default_rng(n)
    games = [bar_game(n), consensus_game(n), random_game(rng, n, "mean")]
    games.append(SummGame(MajorityFraction(n), games[-1].payoffs))
    for game in games:
        cells.clear()
        report = brute_min_epsilon(game)
        assert report.profiles_examined == 1 << n
        assert sum(cells) == 4 * n * n
        assert report.epsilon_star == max(regret_pure(game, report.best_profile))


def test_brute_majority_summarization():
    from summgames import Affine

    game = SummGame(
        MajorityFraction(4),
        tuple((Affine(0.0, 1.0), Affine(1.0, -1.0)) for _ in range(4)),
    )
    report = brute_min_epsilon(game)
    # Cross-check against scalar enumeration.
    best = min(
        max(regret_pure(game, PureProfile(acts)))
        for acts in itertools.product((0, 1), repeat=4)
    )
    assert abs(report.epsilon_star - best) <= 1e-12


# ---------------------------------------------------------------------------
# Certificate validation
# ---------------------------------------------------------------------------


def test_validate_solver_certificate():
    game = consensus_game(4)
    cert = summ_nash(game, 1.0)
    report = validate_certificate(game, cert)
    assert report.valid
    assert report.mode == "pure"
    assert report.recomputed_regrets == (0.0, 0.0, 0.0, 0.0)
    assert report.violations == ()


def test_validate_tampered_epsilon():
    game = bar_game(4)
    profile = PureProfile((1, 1, 1, 1))  # regret 0.75 for every player
    regrets = regret_pure(game, profile)
    assert max(regrets) > 0
    tampered = EquilibriumCertificate(profile, 0.0, regrets, Learned())
    report = validate_certificate(game, tampered)
    assert not report.valid
    assert any("exceeds the claimed epsilon" in v for v in report.violations)


def test_validate_rejects_nan_claims():
    # Every comparison with NaN is false, so a NaN regret or epsilon must
    # fail the checks rather than slip past them.
    game = bar_game(10)
    profile = PureProfile((1,) * 10)  # regret 0.9 for every player
    nan = float("nan")
    report = validate_certificate(
        game, EquilibriumCertificate(profile, nan, (nan,) * 10, Learned())
    )
    assert not report.valid
    assert max(report.recomputed_regrets) == pytest.approx(0.9)
    assert sum("differs from recomputed" in v for v in report.violations) == 10
    assert any("exceeds the claimed epsilon nan" in v for v in report.violations)
    honest = EquilibriumCertificate(profile, nan, regret_pure(game, profile), Learned())
    assert len(validate_certificate(game, honest).violations) == 1


def test_validate_tampered_regrets():
    game = bar_game(4)
    cert = summ_nash(game, 1.0)
    forged = EquilibriumCertificate(
        cert.profile,
        cert.epsilon_claimed,
        tuple(r + 0.5 for r in cert.regrets),
        cert.crossing,
    )
    report = validate_certificate(game, forged)
    assert not report.valid
    assert any("differs from recomputed" in v for v in report.violations)
    # A pure profile's regrets are exact: claimed stderrs buy no allowance.
    widened = EquilibriumCertificate(
        forged.profile, forged.epsilon_claimed, forged.regrets, forged.crossing,
        stderrs=(1.0,) * 4,
    )
    assert validate_certificate(game, widened).violations == report.violations


def test_validate_monte_carlo_allowance_counts_both_errors():
    game = bar_game(25)
    profile = MixedProfile((0.3,) * 25)
    honest = regret_mixed(game, profile, "monte_carlo", samples=500, seed=1)
    fresh = regret_mixed(game, profile, "monte_carlo", samples=4000, seed=2)
    epsilon = max(r + 3.0 * se for r, se in zip(honest.regrets, honest.stderrs))

    def check(regrets, stderrs):
        cert = EquilibriumCertificate(profile, epsilon, regrets, Learned(), stderrs)
        return validate_certificate(game, cert, samples=4000, seed=2)

    assert check(honest.regrets, honest.stderrs).valid
    # Each forged regret sits 5 combined standard errors away.
    forged = tuple(
        r + 5.0 * math.hypot(a, b)
        for r, a, b in zip(fresh.regrets, honest.stderrs, fresh.stderrs)
    )
    report = check(forged, honest.stderrs)
    assert len(report.violations) >= 25
    assert all("differs from recomputed" in v for v in report.violations[:25])
    # Without its stderrs the certificate is judged on the fresh error alone.
    report = check(honest.regrets, None)
    expected = [
        i
        for i, (a, b, se) in enumerate(
            zip(honest.regrets, fresh.regrets, fresh.stderrs)
        )
        if abs(a - b) > 4.0 * se
    ]
    assert expected
    assert [v for v in report.violations if v.startswith("player")] == [
        f"player {i}: certificate regret {honest.regrets[i]} differs from "
        f"recomputed {fresh.regrets[i]} by more than {4.0 * fresh.stderrs[i]}"
        for i in expected
    ]
    # An infinite stderr would allow any regret.
    for bad in ((0.01,) * 24, (float("nan"),) * 25, (-0.01,) * 25, (math.inf,) * 25):
        with pytest.raises(InputError, match="stderrs"):
            check(honest.regrets, bad)


def test_validate_monte_carlo_needs_two_samples():
    # One sample's stderr is infinite, so a certificate forged to regrets
    # 0.9 and epsilon 0 passed; two samples catch it.
    game = bar_game(100)
    profile = MixedProfile((0.5,) * 100)
    forged = EquilibriumCertificate(profile, 0.0, (0.9,) * 100, Learned())
    for mode in ("auto", "monte_carlo"):
        with pytest.raises(InputError, match="needs samples >= 2, got 1"):
            validate_certificate(game, forged, mode=mode, samples=1)
    assert not validate_certificate(game, forged, samples=2).valid
    # Exact validation draws nothing, so its sample count is not read.
    small = bar_game(3)
    exact = EquilibriumCertificate(MixedProfile((0.5,) * 3), 0.0, (0.9,) * 3, Learned())
    assert not validate_certificate(small, exact, samples=1).valid


def test_validate_learner_certificate_monte_carlo_reproducible():
    game = bar_game(25)  # over the exact cap, so validation samples
    config = LearnConfig(epsilon=1.0, delta=1e-3)
    _, cert, _ = run_summ_learn(game, config, mc_samples=4000, mc_seed=3)
    first = validate_certificate(game, cert, mode="monte_carlo", samples=4000, seed=3)
    second = validate_certificate(game, cert, mode="monte_carlo", samples=4000, seed=3)
    assert first == second
    assert first.valid
    assert first.mode == "monte_carlo"


def test_validate_mixed_exact_path():
    game = bar_game(3)
    profile = MixedProfile((0.5, 0.5, 0.5))
    result = regret_mixed(game, profile, mode="exact")
    cert = EquilibriumCertificate(
        profile, max(result.regrets), result.regrets, Learned()
    )
    report = validate_certificate(game, cert)
    assert report.valid
    assert report.mode == "exact"


def test_validate_arity_mismatch_is_input_error():
    game = bar_game(4)
    cert = summ_nash(bar_game(6), 1.0)
    with pytest.raises(InputError):
        validate_certificate(game, cert)
