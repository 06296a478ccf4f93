"""Grid construction, interval membership, step approximation quality and
the best-response table against the per-function step view."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    StepPayoff,
    bar_game,
    catalog_payoff_suite,
    discretize,
    random_game,
)
from summgames import (
    Affine,
    AlphaGrid,
    CapabilityError,
    Constant,
    InputError,
    LearnConfig,
    MaxStepsReached,
    Mean,
    MixedProfile,
    Payoff,
    PiecewiseLinear,
    PureProfile,
    Quadratic,
    SummGame,
    Vertical,
    build_v_table,
    discretize_game,
    interval_of,
    make_grid,
    regret_pure,
    run_summ_learn,
    summ_nash,
)
from summgames import core, discretization
from summgames.cli import main


def test_make_grid_examples():
    grid = make_grid(0.8, 1.0)
    assert grid.K == 10
    assert grid.alpha == pytest.approx(0.1)
    assert make_grid(123.0, 0.0).K == 1
    assert make_grid(0.1, 3.0).K == 240


def test_make_grid_large_epsilon_collapses_to_one_interval():
    assert make_grid(100.0, 1.0).K == 1
    assert make_grid(8.0, 1.0).K == 1


def test_make_grid_input_errors():
    with pytest.raises(InputError):
        make_grid(0.0, 1.0)
    with pytest.raises(InputError):
        make_grid(-1.0, 1.0)


def test_make_grid_interval_cap():
    with pytest.raises(CapabilityError) as err:
        make_grid(1e-9, 3.0)
    assert "1000000" in str(err.value)  # names the cap
    assert make_grid(1e-3, 3.0).K == 24000
    # The learner sizes its default step cap from K before discretizing;
    # without the K cap, K = 8e300 would overflow it.
    with pytest.raises(CapabilityError, match="1000000"):
        run_summ_learn(bar_game(2), LearnConfig(epsilon=1e-300, delta=1e-3))


def _assert_solve_reads_few_intervals(monkeypatch, game):
    """bar1000 at epsilon = 0.5 (K = 16) solves from ceil(log2 16) + 2 = 6
    one-point best responses, with no grid cells allowed, while its V table
    is still refused."""
    monkeypatch.setattr(discretization, "MAX_GRID_CELLS", 0)
    points = []

    def counted(game, at):
        points.append(list(at))
        return best_responses(game, at)

    best_responses = discretization._best_responses
    monkeypatch.setattr(discretization, "_best_responses", counted)
    assert summ_nash(game, 0.5).crossing == Vertical(8, 500)
    assert points == [[k / 16] for k in (0, 15, 7, 11, 9, 8)]
    with pytest.raises(CapabilityError, match="16000 grid cells"):
        build_v_table(game, make_grid(0.5, game.rho))


def test_grid_cell_cap_fails_before_discretizing(monkeypatch, capsys, tmp_path):
    # n = 1000 at K = 8000 is 8e6 cells, refused without building them.
    with pytest.raises(CapabilityError) as err:
        build_v_table(bar_game(1000), make_grid(1e-3, 1.0))
    assert str(discretization.MAX_GRID_CELLS) in str(err.value)

    # bar10 at epsilon = 0.5 has K = 16, so 160 cells.
    monkeypatch.setattr(discretization, "MAX_GRID_CELLS", 159)
    with pytest.raises(CapabilityError, match="159"):
        build_v_table(bar_game(10), make_grid(0.5, 1.0))
    vtable = tmp_path / "vtable.tsv"
    argv = ["solve", "samples/bar10.json", "--epsilon", "0.5"]
    assert main(argv + ["--emit-vtable", str(vtable)]) == 3
    assert "159" in capsys.readouterr().err
    assert not vtable.exists()
    monkeypatch.setattr(discretization, "MAX_GRID_CELLS", 160)
    build_v_table(bar_game(10), make_grid(0.5, 1.0))  # exactly at the cap
    _assert_solve_reads_few_intervals(monkeypatch, bar_game(1000))
    assert main(argv) == 0


def test_learner_computes_only_the_intervals_it_enters(monkeypatch):
    # The learner reads BR(I_k) only where the mean is, so the grid-cell
    # cap, which guards the exported V table, does not bound it.
    monkeypatch.setattr(discretization, "MAX_GRID_CELLS", 0)
    points = []

    def counted(game, at):
        points.append(list(at))
        return best_responses(game, at)

    best_responses = discretization._best_responses
    monkeypatch.setattr(discretization, "_best_responses", counted)
    game = bar_game(1000)
    trajectory, _, diagnostics = run_summ_learn(
        game,
        LearnConfig(epsilon=0.5, delta=1e-4),
        MixedProfile((0.0,) * 1000),
        mc_samples=100,
    )
    # The mean climbs from I_0 to the crossing at I_8 and oscillates
    # between I_7 and I_8 until the step cap.
    assert trajectory.terminated == MaxStepsReached(4732)
    assert len(diagnostics.visit_log) == 4718
    assert points == [[k / 16] for k in range(9)]
    _assert_solve_reads_few_intervals(monkeypatch, game)


def test_discretize_examples():
    grid = AlphaGrid(4)
    identity = discretize(Affine(0.0, 1.0), grid)
    assert identity.values == (0.0, 0.25, 0.5, 0.75)
    const = discretize(Constant(0.7), grid)
    assert const.values == (0.7,) * 4
    falling = discretize(Affine(1.0, -1.0), grid)
    assert falling.evaluate(0.6) == falling.values[2] == 0.5


def test_interval_of_examples():
    grid = AlphaGrid(4)
    assert interval_of(grid, 0.25) == 1  # half-open left endpoint
    assert interval_of(grid, 1.0) == 3  # closed last interval
    assert interval_of(grid, 0.2499999) == 0
    with pytest.raises(InputError):
        interval_of(grid, -0.1)
    with pytest.raises(InputError):
        interval_of(grid, 1.1)


def test_interval_of_left_edges_map_to_their_interval():
    for K in (1, 2, 3, 7, 10, 49, 240, 1000):
        grid = AlphaGrid(K)
        for k in range(K):
            assert interval_of(grid, k * grid.alpha) == k
        assert interval_of(grid, 1.0) == K - 1


@settings(max_examples=300)
@given(
    z=st.floats(0.0, 1.0, allow_nan=False),
    K=st.integers(1, 60),
)
def test_interval_of_total_and_unique(z, K):
    grid = AlphaGrid(K)
    k = interval_of(grid, z)
    assert 0 <= k < K
    # Exactly one interval's float boundaries bracket z (closed last cell).
    members = [
        j
        for j in range(K)
        if j * grid.alpha <= z
        and (z < (j + 1) * grid.alpha or j == K - 1)
    ]
    assert members == [k]


def test_step_approximation_error_bound():
    # |F(z) - Fhat(z)| <= rho_f * alpha, zero slack, 10^4 points per payoff.
    rng = np.random.default_rng(2024)
    for fn in catalog_payoff_suite(np.random.default_rng(77)):
        rho_f = fn.derivative_bound()
        grid = make_grid(0.3, max(rho_f, 0.5))
        step = discretize(fn, grid)
        values = np.asarray(step.values)
        z = rng.uniform(size=10**4)
        cells = np.array([interval_of(grid, float(x)) for x in z])
        err = np.abs(fn.evaluate_array(z) - values[cells])
        assert np.all(err <= rho_f * grid.alpha), type(fn).__name__


def test_step_lipschitz_with_slack():
    # |Fhat(z) - Fhat(z')| <= rho_f |z - z'| + 2 rho_f alpha, and the
    # difference vanishes when z = z'.
    rng = np.random.default_rng(31337)
    for fn in catalog_payoff_suite(np.random.default_rng(9)):
        rho_f = fn.derivative_bound()
        grid = make_grid(0.4, max(rho_f, 0.5))
        step = discretize(fn, grid)
        z = rng.uniform(size=2000)
        zp = rng.uniform(size=2000)
        fz = np.array([step.evaluate(float(x)) for x in z])
        fzp = np.array([step.evaluate(float(x)) for x in zp])
        assert np.all(
            np.abs(fz - fzp) <= rho_f * np.abs(z - zp) + 2.0 * rho_f * grid.alpha
        )
        assert step.evaluate(0.37) - step.evaluate(0.37) == 0.0


def test_step_payoff_validation():
    grid = AlphaGrid(3)
    with pytest.raises(InputError):
        # Wrong number of values for the grid.
        StepPayoff(grid, (0.1, 0.2))


def _reference_br(game, grid):
    """br from the per-function view: (K, n), action 1 where it pays more."""
    rows = [
        np.array(discretize(f1, grid).values) > np.array(discretize(f0, grid).values)
        for f0, f1 in game.payoffs
    ]
    return np.array(rows).T


def _assert_br_matches_reference(game, grid):
    br = discretize_game(game, grid)
    assert br.shape == (grid.K, game.n) and br.dtype == bool
    assert br.flags.c_contiguous and not br.flags.writeable
    assert br.tobytes() == _reference_br(game, grid).tobytes()
    return br


def test_discretize_game_arrays_match_per_function_view():
    game = bar_game(3)
    br = _assert_br_matches_reference(game, AlphaGrid(5))
    # F_1 = 1 - z beats F_0 = z at the grid points 0, 0.2 and 0.4.
    assert br.tolist() == [[True] * 3] * 3 + [[False] * 3] * 2
    with pytest.raises(ValueError):
        br[0, 0] = False  # read-only


def test_bar_game_makes_one_bank_call_per_kind_and_action(monkeypatch):
    calls = []
    formula = Affine._formula

    def counted(a, b, z):
        calls.append((a.shape, z.shape))
        return formula(a, b, z)

    def per_player(self, z):
        raise AssertionError("per-player evaluate_array call")

    monkeypatch.setattr(Affine, "_formula", staticmethod(counted))
    monkeypatch.setattr(Payoff, "evaluate_array", per_player)
    game = bar_game(1000)
    br = discretize_game(game, AlphaGrid(16))
    assert calls == [((1000, 1), (1, 16))] * 2
    points = AlphaGrid(16).grid_points()
    row = formula(1.0, -1.0, points) > formula(0.0, 1.0, points)
    assert br.tobytes() == np.tile(row[:, None], (1, 1000)).tobytes()
    calls.clear()
    regret_pure(game, PureProfile((0, 1) * 500))
    assert calls == [((1000, 1), (1000, 1))] * 2


def test_random_game_makes_one_bank_call_per_group_and_action(monkeypatch):
    # A probe reads one point, so all players form one chunk and no
    # payoff-bank group is cut: one formula call per group (kind, or
    # breakpoint count) and action.
    calls = []
    for kind in (Constant, Affine, Quadratic, PiecewiseLinear):

        def counted(*args, formula=kind._formula):
            calls.append((len(args[0]), args[-1].shape))
            return formula(*args)

        monkeypatch.setattr(kind, "_formula", staticmethod(counted))
    rng = np.random.default_rng(12)
    for n, K in ((1000, 48), (150, 10**4)):
        game = random_game(rng, n)
        calls.clear()
        discretization._probe(game, AlphaGrid(K), K // 2)
        groups = sum(len(bank.groups) for bank in game._banks)
        assert all(z == (1, 1) for _, z in calls)
        assert sum(m for m, _ in calls) == 2 * n
        assert len(calls) == groups < 2 * 8 + 1


def test_discretize_game_is_byte_identical_to_one_call_per_payoff():
    # Constant(0.0) == Constant(-0.0) as dataclasses, but they sample to
    # different bits, and 0.0 > -0.0 is False; so do Affine(-0.0, -0.0) and
    # Affine(0.0, 0.0).
    rng = np.random.default_rng(2)
    payoffs = [
        Constant(0.0),
        Constant(-0.0),
        Affine(-0.0, -0.0),
        Affine(0.0, 0.0),
        Affine(0.0, 1.0),
        Affine(0.0, 1),
    ] + catalog_payoff_suite(rng)
    pairs = tuple(
        (payoffs[int(a)], payoffs[int(b)])
        for a, b in rng.integers(0, len(payoffs), size=(60, 2))
    )
    game = SummGame(Mean(len(pairs)), pairs)
    for grid in (AlphaGrid(1), AlphaGrid(7), make_grid(0.01, game.rho)):
        _assert_br_matches_reference(game, grid)


def test_discretize_game_matches_reference_on_random_games():
    rng = np.random.default_rng(4242)
    for index in range(120):
        kind = ("mean", "linear")[index % 2]
        game = random_game(rng, int(rng.integers(1, 30)), kind)
        epsilon = (0.5, 0.2, 0.05)[index % 3]
        _assert_br_matches_reference(game, make_grid(epsilon, game.rho))


def test_discretize_game_at_breakpoints_and_across_chunks(monkeypatch):
    # Breakpoints on grid points, ties between F_0 and F_1 (-0.0 against
    # 0.0 among them), and player chunks of every width, so chunks cut
    # each group at every offset.
    pool = [
        Constant(-0.0),
        Constant(0.0),
        Constant(0.5),
        Affine(0.0, 1.0),
        Affine(1.0, -1.0),
        PiecewiseLinear(((0.0, 0.0), (0.25, 0.5), (0.5, 0.5), (1.0, 1.0))),
        PiecewiseLinear(((0.0, 1.0), (0.375, 0.5), (0.75, 0.0), (1.0, 0.5))),
        PiecewiseLinear(((0.0, 0.5), (0.125, 1.0), (1.0, 0.0))),
    ]
    rng = np.random.default_rng(99)
    pairs = tuple(
        (pool[int(a)], pool[int(b)]) for a, b in rng.integers(0, len(pool), (23, 2))
    )
    game = SummGame(Mean(len(pairs)), pairs)
    for grid in (AlphaGrid(8), AlphaGrid(16)):
        for width in range(1, game.n + 1):
            monkeypatch.setattr(core, "_CHUNK_PLAYER_CELLS", width * grid.K)
            _assert_br_matches_reference(game, grid)


def test_discretize_and_v_table_peak_memory():
    # No (n, K) float array is built: at n = 150, K = 10^4 the best-response
    # bits take 1.5 MB, and the float64 temporaries stay a chunk's size.
    game = random_game(np.random.default_rng(3), 150)
    grid = AlphaGrid(10**4)
    tracemalloc.start()
    try:
        build_v_table(game, grid, discretize_game(game, grid))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20
