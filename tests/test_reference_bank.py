"""The payoff bank against the per-payoff arithmetic it replaced.

The references below are each catalog payoff's earlier ``evaluate_array``
(``PiecewiseLinear`` by ``searchsorted`` and three gathers), the deviation
kernel as a loop that evaluates one player's two payoffs at a time, and
``discretize_game`` as one reference call per payoff, compared through the
best responses it keeps. Every comparison is bit for bit: floats are
compared by their IEEE bytes, so a 0.0 standing in for -0.0 fails.
"""

import numpy as np
import pytest

from conftest import catalog_payoff_suite, random_payoff
from summgames import (
    Affine,
    AlphaGrid,
    Constant,
    LinearWeighted,
    MajorityFraction,
    Mean,
    PiecewiseLinear,
    PureProfile,
    Quadratic,
    SummGame,
    discretize_game,
    make_grid,
    regret_pure,
)
from summgames import core


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


# ---------------------------------------------------------------------------
# Reference implementations
# ---------------------------------------------------------------------------


def _ref_evaluate_array(fn, z):
    if type(fn) is Constant:
        return np.full_like(z, fn.c, dtype=np.float64)
    if type(fn) is Affine:
        return np.clip(fn.a + fn.b * z, 0.0, 1.0)
    if type(fn) is Quadratic:
        return np.clip(fn.a + z * (fn.b + fn.c * z), 0.0, 1.0)
    assert type(fn) is PiecewiseLinear
    pts = fn.points
    zs = np.asarray([p[0] for p in pts])
    ys = np.asarray([p[1] for p in pts])
    slopes = np.asarray(
        [(y2 - y1) / (z2 - z1) for (z1, y1), (z2, y2) in zip(pts, pts[1:])]
    )
    idx = np.searchsorted(zs, z, side="right") - 1
    idx = np.clip(idx, 0, len(slopes) - 1)
    return np.clip(ys[idx] + slopes[idx] * (z - zs[idx]), 0.0, 1.0)


def _ref_deviation_payoffs(game, bits):
    """Per player: (f0, f1, current) on float64 (rows,) columns."""
    summ = game.summarization
    bits = bits.astype(np.float64)
    state = summ.batch_state(bits)
    for i, (pay0, pay1) in enumerate(game.payoffs):
        x = bits[:, i].copy()
        lo, hi = summ.batch_deviation(state, x, i)
        f0 = _ref_evaluate_array(pay0, lo)
        f1 = _ref_evaluate_array(pay1, hi)
        yield f0, f1, np.where(x == 1.0, f1, f0)


def _ref_regret_pure(game, profile):
    bits = np.array([profile.actions], dtype=bool)
    return tuple(
        float((np.maximum(f0, f1) - current)[0])
        for f0, f1, current in _ref_deviation_payoffs(game, bits)
    )


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------


def _edge_payoffs():
    return [
        Constant(-0.0),
        Constant(0.0),
        Constant(1),
        Affine(-0.0, -0.0),
        Affine(0.0, 1),
        Affine(1.0, -1.0),
        Quadratic(0, 2, -2),
        PiecewiseLinear(((0.0, 0.0), (1.0, 1.0))),
        PiecewiseLinear(((0.0, 0.5), (0.5, 1.0), (1.0, 0.0))),
        PiecewiseLinear(((0.0, 0.9), (0.2, 0.1), (0.7, 0.6), (1.0, 0.5))),
        PiecewiseLinear(
            ((0.0, 0.2), (0.125, 0.4), (0.25, 0.1), (0.5, 0.9), (0.75, 0.3), (1.0, 0.6))
        ),
    ]


def _payoffs(rng):
    fns = _edge_payoffs() + catalog_payoff_suite(rng)
    sizes = {len(fn.points) for fn in fns if isinstance(fn, PiecewiseLinear)}
    assert sizes == {2, 3, 4, 5, 6}
    return fns


def _probe_points(fns, rng):
    """0, 1, every breakpoint exactly, its neighbours, and uniform draws."""
    points = [0.0, 1.0]
    for fn in fns:
        if isinstance(fn, PiecewiseLinear):
            for z, _ in fn.points:
                points += [z, np.nextafter(z, 0.0), np.nextafter(z, 1.0)]
    points += list(rng.uniform(size=200))
    return np.array(points)


def _summarization(kind, n, rng):
    if kind == "mean":
        return Mean(n)
    if kind == "majority":
        return MajorityFraction(n)
    return LinearWeighted(tuple(rng.uniform(0.2, 1.0, size=n)), normalize=True)


def _game(kind, n, rng):
    """Payoffs drawn from the edge cases and random catalog payoffs, each
    shared by several players."""
    pool = _edge_payoffs() + [random_payoff(rng) for _ in range(6)]
    pairs = tuple(
        (pool[int(a)], pool[int(b)]) for a, b in rng.integers(0, len(pool), (n, 2))
    )
    return SummGame(_summarization(kind, n, rng), pairs)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


def test_formulas_match_reference_arithmetic():
    rng = np.random.default_rng(20)
    fns = _payoffs(rng)
    z = _probe_points(fns, rng)
    for fn in fns:
        expected = _ref_evaluate_array(fn, z)
        assert _bits(fn.evaluate_array(z)) == _bits(expected), fn
        assert _bits([fn.evaluate(float(v)) for v in z]) == _bits(expected), fn
        # Two-dimensional z, as the kernel passes it.
        grid = z[: 2 * (len(z) // 2)].reshape(2, -1)
        assert _bits(fn.evaluate_array(grid)) == _bits(_ref_evaluate_array(fn, grid))
    # Extreme but valid coefficients, through the bank as discretize_game
    # samples them: every grid point evaluates into [0, 1], never NaN,
    # since nothing range-checks the sampled values.
    extreme = [
        PiecewiseLinear(((0.0, 0.0), (1e-300, 1.0), (1.0, 1.0))),
        Quadratic(0.0, 0.0, 1.0),  # vertex at z = 0
        Quadratic(1.0, 0.0, -1.0),
        Quadratic(1.0, -2.0, 1.0),  # vertex at z = 1
        Quadratic(0.0, 2.0, -1.0),
        Constant(-0.0),
        Affine(-0.0, -0.0),
    ]
    bank = core._PayoffBank(extreme)
    for K in (1, 7, 4 * 10**4):
        points = AlphaGrid(K).grid_points()
        values = bank.evaluate(slice(0, len(extreme)), points[None, :])
        values = np.broadcast_to(values, (len(extreme), K))
        assert np.all((0.0 <= values) & (values <= 1.0)), K
        for fn, row in zip(extreme, values):
            assert _bits(row) == _bits(_ref_evaluate_array(fn, points)), (fn, K)


def test_bank_matches_reference_arithmetic():
    # Every player of a chunk gets its own row of z, or all share one row;
    # chunks cut the groups at every offset.
    rng = np.random.default_rng(21)
    fns = _payoffs(rng)
    fns = [fns[int(j)] for j in rng.permutation(len(fns))]
    z = _probe_points(fns, rng)
    rows = np.stack([rng.permutation(z) for _ in fns])
    bank = core._PayoffBank(fns)
    expected = np.stack([_ref_evaluate_array(fn, row) for fn, row in zip(fns, rows)])
    # The same chunks on one row of z that every player shares.
    shared = np.stack([_ref_evaluate_array(fn, z) for fn in fns])
    for width in (1, 3, 7, len(fns)):
        for start in range(0, len(fns), width):
            stop = min(start + width, len(fns))
            got = bank.evaluate(slice(start, stop), rows[start:stop])
            assert _bits(got) == _bits(expected[start:stop]), (width, start)
            got = bank.evaluate(slice(start, stop), z[None, :])
            got = np.broadcast_to(got, (stop - start, len(z)))
            assert _bits(got) == _bits(shared[start:stop]), (width, start)


@pytest.mark.parametrize("kind", ["mean", "majority", "linear"])
def test_kernel_matches_reference_loop(kind):
    rng = np.random.default_rng(22)
    for n in (1, 6, 41):
        game = _game(kind, n, rng)
        for rows in (1, 3, 1023, 1024, 16384):
            bits = rng.random((rows, n)) < rng.uniform()
            chunks = list(core._deviation_payoffs(game, bits))
            edges = [players.start for players, *_ in chunks] + [chunks[-1][0].stop]
            assert edges == sorted(set(edges)) and (edges[0], edges[-1]) == (0, n)
            ours = [triple for _, *arrays in chunks for triple in zip(*arrays)]
            ref = list(_ref_deviation_payoffs(game, bits))
            assert len(ours) == len(ref) == n
            for i, ((x, f0, f1), (r0, r1, current)) in enumerate(zip(ours, ref)):
                assert x.tobytes() == bits[:, i].tobytes()
                for a, b in ((f0, r0), (f1, r1), (np.where(x, f1, f0), current)):
                    assert a.flags.c_contiguous
                    assert _bits(a) == _bits(b), (kind, n, rows)


@pytest.mark.parametrize("kind", ["mean", "majority", "linear"])
def test_regret_pure_matches_reference_loop(kind):
    rng = np.random.default_rng(23)
    for n in (1, 7, 300):
        game = _game(kind, n, rng)
        for _ in range(3):
            profile = PureProfile(tuple(int(a) for a in rng.integers(0, 2, n)))
            assert _bits(regret_pure(game, profile)) == _bits(
                _ref_regret_pure(game, profile)
            ), (kind, n)


def test_discretize_game_matches_reference_arithmetic(monkeypatch):
    rng = np.random.default_rng(24)
    game = _game("mean", 90, rng)
    # From the middle grid on, pieces hold at most 20 cells: 2 players of
    # 7 points, then single players.
    cases = ((AlphaGrid(1), None), (AlphaGrid(7), 20), (make_grid(0.01, 3.0), None))
    for grid, cells in cases:
        if cells is not None:
            monkeypatch.setattr(core, "_CHUNK_CELLS", 0)
            monkeypatch.setattr(core, "_CHUNK_PLAYER_CELLS", cells)
        br = discretize_game(SummGame(game.summarization, game.payoffs), grid)
        points = grid.grid_points()
        expected = [
            _ref_evaluate_array(f1, points) > _ref_evaluate_array(f0, points)
            for f0, f1 in game.payoffs
        ]
        assert br.tobytes() == np.array(expected).T.tobytes(), grid.K
