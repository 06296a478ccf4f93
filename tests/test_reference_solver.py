"""The array solver against a scalar reference solver.

The reference builds the same algorithm from the per-function views:
``discretize`` tuples for each payoff, one validated ``PureProfile`` per
interval, a bisection that locates each value with ``interval_of`` and a
walk that evaluates the summarization once per flip. The solver and the
exported V table must match it exactly: the V table, every best-response
row, the crossing, the walk position, the profile and the regrets.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bar_game, discretize, random_game
from summgames import (
    Affine,
    AlphaGrid,
    Constant,
    ContractError,
    CustomSummarization,
    Horizontal,
    InputError,
    LinearWeighted,
    MajorityFraction,
    Mean,
    PureProfile,
    SummGame,
    VTable,
    Vertical,
    build_v_table,
    find_horizontal,
    find_vertical_and_walk,
    interval_of,
    make_grid,
    regret_pure,
    summ_nash,
)
from summgames.discretization import _probe
from summgames.documents import load_game

SAMPLES = sorted((Path(__file__).resolve().parent.parent / "samples").glob("*.json"))


def _reference_walk(game, start, goal, boundary):
    actions = list(start.actions)
    position = 0
    if abs(game.summarization.evaluate(tuple(actions)) - boundary) < game.tau:
        return position, start
    for i in range(game.n):
        if start.actions[i] == goal.actions[i]:
            continue
        actions[i] = goal.actions[i]
        position += 1
        if abs(game.summarization.evaluate(tuple(actions)) - boundary) < game.tau:
            return position, PureProfile(tuple(actions))
    raise ContractError("the reference walk never reached the boundary")


def _reference_search(grid, v):
    """Bisection over k, locating each value read with ``interval_of``:
    (k, True) for a horizontal crossing, (k, False) for a vertical one."""
    lo, hi = 0, grid.K - 1
    for k in (lo, hi):
        if interval_of(grid, v[k]) == k:
            return k, True
    while hi - lo > 1:
        mid = (lo + hi) // 2
        located = interval_of(grid, v[mid])
        if located == mid:
            return mid, True
        if located > mid:
            lo = mid
        else:
            hi = mid
    return hi, False


def reference_solve(game, epsilon):
    """(V, BR rows, crossing, profile, regrets), one scalar step at a time."""
    grid = make_grid(epsilon, game.rho)
    steps = [(discretize(f0, grid), discretize(f1, grid)) for f0, f1 in game.payoffs]
    br = tuple(
        PureProfile(
            tuple(1 if s1.at_index(k) > s0.at_index(k) else 0 for s0, s1 in steps)
        )
        for k in range(grid.K)
    )
    v = tuple(game.summarization.evaluate(row.actions) for row in br)
    k, inside = _reference_search(grid, v)
    if inside:
        profile = br[k]
        return v, br, Horizontal(k), profile, regret_pure(game, profile)
    position, profile = _reference_walk(game, br[k - 1], br[k], grid.left_edge(k))
    return v, br, Vertical(k, position), profile, regret_pure(game, profile)


def _assert_matches_reference(game, epsilon):
    v, br, crossing, profile, regrets = reference_solve(game, epsilon)
    cert = summ_nash(game, epsilon)
    table = build_v_table(game, make_grid(epsilon, game.rho))
    # V(I_k) = S(BR(I_k)) bit for bit, compared as IEEE bytes.
    assert np.array(table.v).tobytes() == np.array(v).tobytes()
    assert len(table.br) == len(br)
    assert all(table.br[k] == br[k] for k in range(len(br)))
    assert cert.crossing == crossing
    assert cert.profile == profile
    assert cert.regrets == regrets
    return crossing


def test_solver_matches_reference_on_random_games():
    rng = np.random.default_rng(20260)
    walk_flips = 0
    for index in range(210):
        kind = ("mean", "linear")[index % 2]
        epsilon = (0.5, 0.2, 0.01)[index % 3]
        game = random_game(rng, int(rng.integers(2, 16)), kind)
        _assert_matches_reference(game, epsilon)
        # Random payoffs rarely need a walk of more than zero flips. Under bar
        # payoffs V drops from 1 to 0 at z = 1/2 and the walk runs through
        # about half the players; the walk does not depend on K.
        bar = SummGame(game.summarization, ((Affine(0.0, 1.0), Affine(1.0, -1.0)),) * game.n)
        walk_flips += _assert_matches_reference(bar, 0.5).walk_position
    assert walk_flips > 500
    # Walks the games above never take: the q*tau reach of a nonlinear S,
    # skewed weights, flips both ways, and a black-box S.
    walks = walk_flips = 0
    for game, epsilon in _walk_games(np.random.default_rng(4099)):
        crossing = _assert_matches_reference(game, epsilon)
        if isinstance(crossing, Vertical):
            walks += 1
            walk_flips += crossing.walk_position
    assert walks > 150 and walk_flips > 900


def _threshold_game(summ, threshold, kinds):
    """Player i prefers action 1 below the threshold (kind "down"), above it
    ("up"), or always ("one")."""
    prefer = {
        "down": Affine(0.5 + 0.5 * threshold, -0.5),
        "up": Affine(0.5 - 0.5 * threshold, 0.5),
        "one": Constant(1.0),
    }
    return SummGame(summ, tuple((Constant(0.5), prefer[kind]) for kind in kinds))


def _walk_games(rng):
    bar = (Affine(0.0, 1.0), Affine(1.0, -1.0))
    for index in range(40):
        n = int(rng.integers(4, 60))
        epsilon = (0.5, 0.2, 0.05)[index % 3]
        # Between about 1/2 and 3/4 of the players drop to 0 past a high
        # threshold, so the majority fraction falls below it.
        stay = rng.uniform(0.25, 0.5)
        kinds = np.where(rng.uniform(size=n) < stay, "one", "down")
        majority = MajorityFraction(n)
        yield _threshold_game(majority, float(rng.uniform(0.8, 0.95)), kinds), epsilon
        threshold = float(rng.uniform(0.3, 0.95))
        # More players leave action 1 than join it, in interleaved order.
        kinds = rng.choice(["down", "up", "one"], size=n, p=[0.6, 0.3, 0.1])
        yield _threshold_game(Mean(n), threshold, kinds), epsilon
        weighted = LinearWeighted(tuple(rng.uniform(0.2, 1.0, size=n)), normalize=True)
        yield _threshold_game(weighted, threshold, kinds), epsilon
        skewed = LinearWeighted(tuple(rng.uniform(size=n) ** 8), normalize=True)
        yield SummGame(skewed, (bar,) * n), epsilon
        # The last player holds 30 % of the weight; under bar payoffs the
        # walk stops before reaching them.
        light = rng.uniform(0.2, 1.0, size=n - 1)
        heavy = LinearWeighted(tuple(0.7 * light / light.sum()) + (0.3,))
        yield SummGame(heavy, (bar,) * n), epsilon
        # A black box whose declared influence 2/n bounds its true one.
        if index % 4 == 0:
            square = CustomSummarization(lambda a: (sum(a) / len(a)) ** 2, n, 2.0 / n)
            yield SummGame(square, (bar,) * n), epsilon


@pytest.mark.parametrize("epsilon", [0.5, 0.1, 0.01])
def test_solver_matches_reference_on_samples(epsilon):
    assert len(SAMPLES) == 12
    for path in SAMPLES:
        game, _ = load_game(str(path))
        _assert_matches_reference(game, epsilon)


def test_weighted_v_table_is_evaluate_of_each_best_response():
    # einsum sums a column-major row in another order than ``evaluate``
    # sums the same row alone; the V table must be summed row-major. The
    # probe the solver and the learner read per interval is the table's
    # row k and V(I_k), bit for bit, on these games and on Mean games.
    rng = np.random.default_rng(5077)
    games = [random_game(rng, int(rng.integers(2, 60)), "linear") for _ in range(20)]
    rng = np.random.default_rng(5078)
    games += [random_game(rng, int(rng.integers(2, 60)), "mean") for _ in range(10)]
    for game in games:
        grid = make_grid(0.05, game.rho)
        table = build_v_table(game, grid)
        v = [game.summarization.evaluate(row.actions) for row in table.br]
        assert np.array(table.v).tobytes() == np.array(v).tobytes()
        for k in range(grid.K):
            row, value = _probe(game, grid, k)
            assert row.dtype == bool and tuple(row.tolist()) == table.br[k].actions
            assert np.float64(value).tobytes() == np.float64(table.v[k]).tobytes()


def _edge_heavy_values(grid):
    edges = [grid.left_edge(k) for k in range(grid.K)] + [1.0]
    return st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from(edges),
        st.sampled_from(edges).map(lambda e: max(0.0, float(np.nextafter(e, 0.0)))),
        st.sampled_from(edges).map(lambda e: min(1.0, float(np.nextafter(e, 1.0)))),
    )


@settings(max_examples=200, deadline=None)
@given(K=st.integers(1, 30), data=st.data())
def test_crossing_scans_match_reference_scans(K, data):
    # V values on, just below and just above the grid edges.
    grid = AlphaGrid(K)
    v = data.draw(st.lists(_edge_heavy_values(grid), min_size=K, max_size=K))
    # One player with tau = 1: every walk stops at position 0, so the
    # vertical result is the search's k alone.
    game = bar_game(1)
    br = tuple(PureProfile((k % 2,)) for k in range(K))
    table = VTable(grid, br, tuple(v))
    k, inside = _reference_search(grid, v)
    if inside:
        assert find_horizontal(table) == k
        with pytest.raises(InputError, match=f"k={k}$"):
            find_vertical_and_walk(game, table)
    else:
        assert find_horizontal(table) is None
        assert find_vertical_and_walk(game, table) == (k, 0, br[k - 1])


def test_grid_points_are_the_left_edges():
    for K in (1, 3, 7, 10, 49, 240, 1000, 40000):
        grid = AlphaGrid(K)
        assert grid.grid_points().tolist() == [grid.left_edge(k) for k in range(K)]
