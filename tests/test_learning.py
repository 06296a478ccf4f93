"""Learning dynamics: updates, stopping, trajectories, diagnostics."""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    bar_game,
    consensus_game,
    constant_game,
    random_game,
    threshold_game,
)
from summgames import (
    Affine,
    CapabilityError,
    Converged,
    InputError,
    LearnConfig,
    LinearWeighted,
    MajorityFraction,
    MaxStepsReached,
    MixedProfile,
    SummGame,
    Constant,
    Visit,
    broadcast_mean,
    build_v_table,
    interval_of,
    make_grid,
    run_summ_learn,
)
from summgames import discretization, learning
from summgames.learning import default_step_cap


# ---------------------------------------------------------------------------
# Broadcast mean and single steps
# ---------------------------------------------------------------------------


def test_broadcast_mean_examples():
    assert broadcast_mean(bar_game(4), MixedProfile((1, 1, 0, 0))) == 0.5
    assert broadcast_mean(bar_game(3), MixedProfile((0, 0, 0))) == 0.0
    from summgames import Affine, LinearWeighted

    g = SummGame(
        LinearWeighted((0.5, 0.3, 0.2)),
        ((Affine(0.0, 1.0), Affine(1.0, -1.0)),) * 3,
    )
    assert broadcast_mean(g, MixedProfile((0.5, 0.5, 0.5))) == pytest.approx(0.5)


def test_broadcast_mean_rejects_nonlinear():
    g = SummGame(MajorityFraction(3), ((Constant(0.5), Constant(0.5)),) * 3)
    with pytest.raises(CapabilityError):
        broadcast_mean(g, MixedProfile((0.5,) * 3))


def _first_step(game, initial, epsilon, beta):
    """The profile after one update of the learner loop."""
    config = LearnConfig(epsilon=epsilon, delta=0.0, beta=beta, max_steps=1)
    trajectory, _, _ = run_summ_learn(game, config, initial=initial)
    assert trajectory.terminated == MaxStepsReached(1)
    return trajectory.final


def test_learn_step_bar4_from_zeros():
    # epsilon = 2 gives alpha = 0.25 on the bar game (rho = 1), so K = 4.
    out = _first_step(bar_game(4), MixedProfile((0.0,) * 4), 2.0, beta=0.125)
    assert out.probs == (0.125,) * 4


def test_learn_step_fixed_point():
    # Consensus at all-zeros: the broadcast mean is 0, the apparent best
    # response is all-zeros, and the convex combination moves nothing.
    p = MixedProfile((0.0,) * 4)
    assert _first_step(consensus_game(4), p, 2.0, beta=0.1).probs == p.probs


def test_learn_step_constant_payoffs_geometric_decay():
    p = MixedProfile((0.8, 0.4, 0.6))
    out = _first_step(constant_game(3), p, 2.0, beta=0.5)
    assert out.probs == tuple(0.5 * q for q in p.probs)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_config_validation():
    LearnConfig(epsilon=0.5, delta=0.01)
    with pytest.raises(InputError):
        LearnConfig(epsilon=0.0, delta=0.01)
    with pytest.raises(InputError):
        LearnConfig(epsilon=0.5, delta=-0.1)
    with pytest.raises(InputError):
        LearnConfig(epsilon=0.5, delta=0.0)  # needs max_steps
    LearnConfig(epsilon=0.5, delta=0.0, max_steps=100)
    with pytest.raises(InputError):
        LearnConfig(epsilon=0.5, delta=0.01, snapshot_every=0)


def test_default_step_cap_is_finite_or_refused():
    grid = make_grid(2.0, 1.0)
    for delta in (0.0, math.inf, math.nan):
        with pytest.raises(InputError, match="finite delta > 0"):
            default_step_cap(grid, 0.1, delta)
    # 1/beta or 1/delta overflows to inf; times ln(1/delta) = 0 it is NaN.
    for beta, delta in ((1e-320, 1e-3), (0.1, 1e-320), (1e-320, 1.0)):
        with pytest.raises(CapabilityError, match="give max_steps"):
            default_step_cap(grid, beta, delta)


def test_run_reports_resolved_parameters():
    game = bar_game(4)
    trajectory, _, _ = run_summ_learn(game, LearnConfig(epsilon=2.0, delta=1e-3))
    grid = make_grid(2.0, game.rho)
    assert trajectory.grid == grid
    assert trajectory.beta == grid.alpha / 2.0
    assert trajectory.max_steps == default_step_cap(grid, grid.alpha / 2.0, 1e-3)
    config = LearnConfig(epsilon=2.0, delta=0.0, beta=0.1, max_steps=7)
    trajectory, _, _ = run_summ_learn(game, config)
    assert (trajectory.beta, trajectory.max_steps) == (0.1, 7)


def test_run_rejects_nonlinear_and_bad_beta():
    g = SummGame(MajorityFraction(3), ((Constant(0.5), Constant(0.5)),) * 3)
    with pytest.raises(CapabilityError):
        run_summ_learn(g, LearnConfig(epsilon=0.5, delta=0.01))
    for beta in (0.25, 0.3):  # alpha = 0.25
        with pytest.raises(InputError):
            run_summ_learn(
                bar_game(4), LearnConfig(epsilon=2.0, delta=0.01, beta=beta)
            )


def test_run_refuses_delta_at_or_above_beta(monkeypatch):
    # Every update is at most beta, so delta >= beta would "converge" after
    # one step: bar100 at epsilon = 0.01 has beta = 6.25e-4.
    def no_best_response(*args):
        raise AssertionError("a best response was evaluated")

    monkeypatch.setattr(discretization, "_best_responses", no_best_response)
    game = bar_game(100)
    start = MixedProfile((0.0,) * 100)
    for delta, beta in ((1e-3, None), (6.25e-4, None), (1e-3, 1e-3)):
        config = LearnConfig(epsilon=0.01, delta=delta, beta=beta, max_steps=1000)
        with pytest.raises(InputError) as err:
            run_summ_learn(game, config, start)
        assert f"delta={delta} must be below beta={beta or 6.25e-4}" in str(err.value)
    monkeypatch.undo()
    config = LearnConfig(epsilon=0.01, delta=6.2e-4, max_steps=3)
    trajectory, _, _ = run_summ_learn(game, config, start)
    assert trajectory.terminated == MaxStepsReached(3)


def test_run_refuses_trajectories_over_the_record_cap(monkeypatch):
    # bar100 at epsilon = 0.01, delta = 1e-6 has a default cap of 1.77e7
    # steps, about 5.7 GB of records; it is refused before any best response.
    game = bar_game(100)
    grid = make_grid(0.01, game.rho)
    assert default_step_cap(grid, grid.alpha / 2.0, 1e-6) > 1.7e7

    def no_best_response(*args):
        raise AssertionError("a best response was evaluated")

    monkeypatch.setattr(discretization, "_best_responses", no_best_response)
    with pytest.raises(CapabilityError, match="MAX_RECORDED_STEPS"):
        run_summ_learn(game, LearnConfig(epsilon=0.01, delta=1e-6))
    monkeypatch.undo()
    # At the boundary: recorded steps are ceil(max_steps / snapshot_every)
    # + 1, counted n + 1 times with probability snapshots.
    monkeypatch.setattr(learning, "MAX_RECORDED_STEPS", 100)
    game = bar_game(4)
    for fits, refused, every, probs in (
        (99, 100, 1, False),
        (19, 20, 1, True),
        (297, 298, 3, False),
    ):
        config = dict(
            epsilon=2.0, delta=0.0, snapshot_every=every, snapshot_probs=probs
        )
        run_summ_learn(game, LearnConfig(max_steps=fits, **config))
        with pytest.raises(CapabilityError, match="MAX_RECORDED_STEPS"):
            run_summ_learn(game, LearnConfig(max_steps=refused, **config))


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def test_constant_game_converges_geometrically():
    game = constant_game(5)
    delta, epsilon = 1e-3, 1.0
    config = LearnConfig(epsilon=epsilon, delta=delta, beta=0.1)
    trajectory, cert, _ = run_summ_learn(game, config)
    assert isinstance(trajectory.terminated, Converged)
    # rho = 0 so alpha = 1; updates shrink by (1-beta) per step.
    assert trajectory.terminated.step <= math.ceil(math.log(1.0 / delta) / 0.1) + 1
    # The run stops once updates drop below delta, i.e. probs below delta/beta.
    assert all(p <= delta / 0.1 for p in trajectory.final.probs)
    assert cert.max_regret == 0.0


def test_bar100_oscillates_between_two_adjacent_intervals():
    game = bar_game(100)
    config = LearnConfig(epsilon=2.0, delta=1e-4, beta=0.125)
    trajectory, cert, diagnostics = run_summ_learn(
        game, config, initial=MixedProfile((0.0,) * 100), mc_seed=7
    )
    assert isinstance(trajectory.terminated, MaxStepsReached)
    grid = make_grid(2.0, game.rho)
    mus = [s.mu for s in trajectory.steps]
    ks = [interval_of(grid, m) for m in mus]
    # The mean rises monotonically until it first crosses 0.5.
    first_above = next(t for t, m in enumerate(mus) if m >= 0.5)
    ascent = mus[: first_above + 1]
    assert ascent == sorted(ascent)
    # After the first revisit, play stays inside two adjacent intervals.
    seen: dict[int, int] = {}
    revisit_at = None
    last = None
    for t, k in enumerate(ks):
        if k != last and k in seen:
            revisit_at = t
            break
        if k != last:
            seen[k] = t
        last = k
    assert revisit_at is not None
    tail = set(ks[revisit_at:])
    assert len(tail) == 2
    assert max(tail) - min(tail) == 1
    assert tail == {1, 2}
    # The certificate was estimated by Monte Carlo for n=100.
    assert cert.stderrs is not None
    assert cert.max_regret <= cert.epsilon_claimed
    assert diagnostics.psi_scale == pytest.approx(0.1)


def test_consensus_converges_to_exact_equilibrium():
    game = consensus_game(12)
    config = LearnConfig(epsilon=0.4, delta=1e-15)
    trajectory, cert, _ = run_summ_learn(game, config)
    assert isinstance(trajectory.terminated, Converged)
    assert cert.stderrs is None
    assert cert.max_regret <= 1e-12


def test_mu_recursion_and_step_size_from_records():
    # Recheck the recursion from the recorded trajectory against a fresh
    # V table, independently of the in-loop assertion.
    rng = np.random.default_rng(21)
    for _ in range(6):
        n = int(rng.integers(2, 30))
        kind = "mean" if rng.uniform() < 0.5 else "linear"
        game = random_game(rng, n, kind)
        config = LearnConfig(epsilon=0.5, delta=1e-3, max_steps=400)
        trajectory, _, _ = run_summ_learn(game, config)
        grid = make_grid(0.5, game.rho)
        beta = config.beta if config.beta is not None else grid.alpha / 2.0
        table = build_v_table(game, grid)
        mus = [s.mu for s in trajectory.steps]
        mus.append(broadcast_mean(game, trajectory.final))
        for mu, mu_next in zip(mus, mus[1:]):
            k = interval_of(grid, mu)
            assert abs((mu_next - mu) - beta * (table.v[k] - mu)) <= 1e-12
            assert abs(mu_next - mu) <= grid.alpha
            direction = beta * (table.v[k] - mu)
            assert (mu_next - mu) * direction >= 0.0 or abs(mu_next - mu) <= 1e-12


def test_visit_durations_bounded():
    rng = np.random.default_rng(77)
    for _ in range(6):
        n = int(rng.integers(2, 40))
        game = random_game(rng, n, "mean")
        grid = make_grid(0.4, game.rho)
        beta = grid.alpha / 2.0
        delta = float(rng.choice([1e-2, 1e-3, 1e-4]))
        if delta >= beta:  # refused; replaced after the draw, keeping the stream
            delta = beta / 2.0
        config = LearnConfig(epsilon=0.4, delta=delta)
        trajectory, _, diagnostics = run_summ_learn(game, config)
        bound = math.ceil((1.0 / beta) * math.log(1.0 / delta)) + 1
        assert diagnostics.visit_log, "every run records at least one visit"
        for visit in diagnostics.visit_log:
            assert visit.duration <= bound
        # Visits tile the update steps exactly, each a maximal run.
        assert sum(v.duration for v in diagnostics.visit_log) == (
            trajectory.terminated.step
        )
        for before, after in zip(diagnostics.visit_log, diagnostics.visit_log[1:]):
            assert before.start < after.start
            assert before.interval != after.interval


def test_trajectory_thinning_keeps_dynamics_and_last_step():
    game = bar_game(10)
    full = LearnConfig(epsilon=2.0, delta=1e-3, max_steps=50)
    thin = LearnConfig(
        epsilon=2.0, delta=1e-3, max_steps=50, snapshot_every=7, snapshot_probs=True
    )
    t_full, c_full, _ = run_summ_learn(game, full)
    t_thin, c_thin, _ = run_summ_learn(game, thin)
    assert t_full.final == t_thin.final
    assert c_full.regrets == c_thin.regrets
    recorded = [s.t for s in t_thin.steps]
    assert recorded[0] == 0
    assert recorded[-1] == t_full.steps[-1].t  # final step survives thinning
    assert all(s.probs is not None for s in t_thin.steps)
    assert all(s.probs is None for s in t_full.steps)


def test_runs_are_deterministic():
    game = bar_game(30)
    config = LearnConfig(epsilon=1.0, delta=1e-4)
    a = run_summ_learn(game, config, mc_seed=5)
    b = run_summ_learn(game, config, mc_seed=5)
    assert a[0] == b[0]
    assert a[1] == b[1]
    assert a[2] == b[2]


def test_psi_scale_dominates_tau():
    rng = np.random.default_rng(4)
    for _ in range(5):
        n = int(rng.integers(2, 25))
        game = random_game(rng, n, "linear")
        config = LearnConfig(epsilon=0.5, delta=1e-2)
        _, _, diagnostics = run_summ_learn(game, config)
        assert diagnostics.psi_scale >= game.tau - 1e-15


def test_mean_just_above_one_lies_in_the_last_interval():
    # These normalized weights sum to one ulp above 1, and so does the
    # mean of the all-ones profile.
    weights = (0.22269229209081687, 0.7753758182613923, 0.21279338361885758)
    game = SummGame(
        LinearWeighted(weights, normalize=True),
        ((Affine(1.0, -1.0), Affine(0.0, 1.0)),) * 3,
    )
    ones = MixedProfile((1.0,) * 3)
    mu = broadcast_mean(game, ones)
    assert mu > 1.0
    config = LearnConfig(epsilon=0.5, delta=1e-3)
    trajectory, certificate, diagnostics = run_summ_learn(game, config, ones)
    assert trajectory.terminated == Converged(1)
    assert trajectory.steps[0].mu == mu  # recorded unclipped
    assert diagnostics.visit_log == (Visit(15, 0, 1),)
    assert certificate.regrets == (0.0,) * 3


def test_learner_default_initial_is_uniform_half():
    game = consensus_game(6)
    config = LearnConfig(epsilon=0.4, delta=1e-2, snapshot_every=1)
    trajectory, _, _ = run_summ_learn(game, config)
    first = trajectory.steps[0]
    assert first.mu == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Player classes
# ---------------------------------------------------------------------------


def test_diagnostics_report_the_final_classes():
    config = LearnConfig(epsilon=0.5, delta=1e-4)
    _, _, diagnostics = run_summ_learn(bar_game(200), config, MixedProfile((0.0,) * 200))
    assert diagnostics.classes == 1
    # Distinct weights put every player in a class of their own.
    weights = tuple(float(i + 1) for i in range(12))
    game = SummGame(
        LinearWeighted(weights, normalize=True),
        ((Affine(0.0, 1.0), Affine(1.0, -1.0)),) * 12,
    )
    _, _, diagnostics = run_summ_learn(game, config, MixedProfile((0.0,) * 12))
    assert diagnostics.classes == 12
    # One class until the mean passes 0.3, where it splits in two.
    game = threshold_game((0.3, 0.7) * 10)
    trajectory, _, diagnostics = run_summ_learn(game, config, MixedProfile((0.0,) * 20))
    assert diagnostics.classes == 2
    assert len(set(trajectory.final.probs)) == 2


def _bits(x):
    return np.float64(x).tobytes()


def _sum_cases(rng):
    """(q, class sizes) draws: generic, near-1, subnormal and signed-zero q,
    with sizes of 1, small, up to the 2**26 bound and past it."""
    for _ in range(300):
        c = int(rng.integers(1, 10))
        kind = rng.integers(5, size=c)
        q = rng.uniform(size=c)
        q[kind == 1] = 1.0 - rng.integers(0, 4, size=int((kind == 1).sum())) * 2.0**-53
        q[kind == 2] = rng.integers(1, 2**30, size=int((kind == 2).sum())) * 5e-324
        q[kind == 3] = rng.choice([0.0, -0.0], size=int((kind == 3).sum()))
        q[kind == 4] *= 2.0 ** -rng.integers(900, 1030, size=int((kind == 4).sum()))
        size = rng.choice(4, size=c, p=[0.4, 0.4, 0.1, 0.1])
        m = np.ones(c, dtype=np.int64)
        m[size == 1] = rng.integers(2, 50, size=int((size == 1).sum()))
        m[size == 2] = rng.integers(2**25, 2**26, size=int((size == 2).sum()))
        m[size == 3] = rng.integers(2**26, 2**44, size=int((size == 3).sum()))
        yield q, m


def test_class_sum_is_the_exactly_rounded_sum(monkeypatch):
    rng = np.random.default_rng(31)
    expanded = 0
    for q, m in _sum_cases(rng):
        exact = sum(Fraction(int(k)) * Fraction(float(x)) for k, x in zip(m, q))
        # The split sum, forced at every n; small n sum the repeated terms.
        monkeypatch.setattr(learning, "_EXPAND_SLACK", -math.inf)
        got = learning._class_summer(m)(q)
        assert got == float(exact)
        if m.sum() <= 1000:
            # Bit for bit, signed zeros included, with fsum over the players.
            want = math.fsum(np.repeat(q, m).tolist())
            assert math.copysign(1.0, got) == math.copysign(1.0, want)
            assert got == want
            monkeypatch.undo()
            assert _bits(learning._class_summer(m)(q)) == _bits(want)
            expanded += 1
    assert expanded > 50
    monkeypatch.setattr(learning, "_EXPAND_SLACK", -math.inf)
    for q in ([-0.0, -0.0], [0.0, -0.0], [-0.0]):
        m = np.array([3, 1][: len(q)])
        got = learning._class_summer(m)(np.array(q))
        want = math.fsum(np.repeat(q, m).tolist())
        assert math.copysign(1.0, got) == math.copysign(1.0, want)


def test_learner_sums_over_classes_not_players(monkeypatch):
    # Counts the terms the learner passes to math.fsum, not time: bar at
    # n = 10^4 is one class over 4732 capped steps.
    calls = []

    def counting_fsum(terms):
        terms = list(terms)
        calls.append(len(terms))
        return math.fsum(terms)

    monkeypatch.setattr(
        learning, "math", SimpleNamespace(**{**vars(math), "fsum": counting_fsum})
    )
    n = 10_000
    config = LearnConfig(epsilon=0.5, delta=1e-4)
    trajectory, _, diagnostics = run_summ_learn(
        bar_game(n), config, MixedProfile((0.0,) * n), mc_samples=1
    )
    steps = trajectory.terminated.step
    assert steps == 4732
    entered = len({v.interval for v in diagnostics.visit_log})
    assert sum(calls) <= 2 * diagnostics.classes * (steps + 1) + n * (1 + entered)
    assert sum(calls) * 1000 < steps * n
