"""The array learner and regret kernel against their earlier scalar forms.

The references below are the learner loop on tuples of Python floats, the
deviation kernel on (rows, n) float64 blocks with an ``np.where`` select,
and exact and Monte-Carlo ``regret_mixed`` on those blocks, as they were
before the learner moved to numpy arrays and the kernel to bool blocks
built in chunks, and the exhaustive search that evaluates every player on
every profile, as it was before it pruned. Comparisons are bit for bit
unless stated: floats are compared by their IEEE bytes, so a 0.0 standing
in for -0.0 fails. Monte Carlo under a count-based summarization sums per
row count, not per row; it is compared bit for bit with a per-count
reference, and with the per-row one within 1e-14. Exact ``regret_mixed``
evaluates each deviation once, over half the profiles, and is compared
within 1e-14 with the full enumeration it replaced. Both Monte-Carlo
references take their second moments about the first sample's gains, as
the library does; a two-pass ``math.fsum`` variance checks that choice.
"""

import math

import numpy as np
import pytest

from conftest import adoption_game, bar_game, consensus_game, random_game
from summgames import (
    Affine,
    Constant,
    LearnConfig,
    LinearWeighted,
    MajorityFraction,
    Mean,
    MixedProfile,
    PureProfile,
    SummGame,
    broadcast_mean,
    brute_min_epsilon,
    build_v_table,
    interval_of,
    make_grid,
    regret_mixed,
    regret_pure,
    run_summ_learn,
)
from summgames import core
from summgames.learning import default_step_cap

_REF_BATCH_ROWS = 1 << 14


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


# ---------------------------------------------------------------------------
# Reference implementations
# ---------------------------------------------------------------------------


def _ref_profile_bits(codes, n):
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    return ((codes[:, None] >> shifts[None, :]) & 1).astype(np.float64)


def _ref_deviation_payoffs(game, bits):
    summ = game.summarization
    state = summ.batch_state(bits)
    for i, (pay0, pay1) in enumerate(game.payoffs):
        x = bits[:, i].copy()
        lo, hi = summ.batch_deviation(state, x, i)
        f0 = pay0.evaluate_array(lo)
        f1 = pay1.evaluate_array(hi)
        yield f0, f1, np.where(x == 1.0, f1, f0)


def _ref_regret_pure(game, profile):
    bits = np.array([profile.actions], dtype=np.float64)
    return tuple(
        float((np.maximum(f0, f1) - current)[0])
        for f0, f1, current in _ref_deviation_payoffs(game, bits)
    )


def _ref_brute(game):
    """The unpruned search: (epsilon*, actions) from every player's regret
    on every profile, the first minimum of each block winning over later
    ones only when strictly smaller."""
    n = game.n
    total = 1 << n
    best_value, best_code = math.inf, 0
    for start in range(0, total, _REF_BATCH_ROWS):
        codes = np.arange(start, min(start + _REF_BATCH_ROWS, total), dtype=np.int64)
        worst = np.zeros(len(codes))
        for f0, f1, current in _ref_deviation_payoffs(game, _ref_profile_bits(codes, n)):
            np.maximum(worst, np.maximum(f0, f1) - current, out=worst)
        idx = int(np.argmin(worst))
        if worst[idx] < best_value:
            best_value, best_code = float(worst[idx]), int(codes[idx])
    actions = _ref_profile_bits(np.array([best_code]), n)[0]
    return best_value, tuple(int(a) for a in actions)


def _ref_exact(game, probs):
    """The full enumeration: on every profile, both deviation payoffs and
    the received one of every player, weighted and summed block by block;
    regret = max_b dev_b - cur. Exact ``regret_mixed`` computed these
    floats bit for bit until it evaluated each deviation once."""
    n = game.n
    probs = np.asarray(probs)
    total = 1 << n
    dev = np.zeros((n, 2))
    cur = np.zeros(n)
    for start in range(0, total, _REF_BATCH_ROWS):
        codes = np.arange(start, min(start + _REF_BATCH_ROWS, total), dtype=np.int64)
        bits = _ref_profile_bits(codes, n)
        weights = np.ones(len(codes))
        for j in range(n):
            weights *= np.where(bits[:, j] == 1.0, probs[j], 1.0 - probs[j])
        for i, (f0, f1, current) in enumerate(_ref_deviation_payoffs(game, bits)):
            dev[i, 0] += weights @ f0
            dev[i, 1] += weights @ f1
            cur[i] += weights @ current
    return tuple(float(max(dev[i, 0], dev[i, 1]) - cur[i]) for i in range(n))


def _ref_first_gains(game, probs, seed):
    """The (n, 2) gains in the seed's first sample: the shift K about which
    both Monte-Carlo references take their second moments."""
    draw = np.random.default_rng(seed).random((1, len(probs)))
    first = (draw < probs).astype(np.float64)
    return np.array(
        [[(f0 - current)[0], (f1 - current)[0]]
         for f0, f1, current in _ref_deviation_payoffs(game, first)]
    )


def _ref_monte_carlo(game, probs, samples, seed):
    n = game.n
    probs = np.asarray(probs)
    rng = np.random.default_rng(seed)
    shift = _ref_first_gains(game, probs, seed)
    g_sum = np.zeros((n, 2))
    d_sum = np.zeros((n, 2))
    d_sumsq = np.zeros((n, 2))
    drawn = 0
    while drawn < samples:
        rows = min(_REF_BATCH_ROWS, samples - drawn)
        bits = (rng.random((rows, n)) < probs[None, :]).astype(np.float64)
        for i, (f0, f1, current) in enumerate(_ref_deviation_payoffs(game, bits)):
            for b, fb in ((0, f0), (1, f1)):
                g = fb - current
                d = g - shift[i, b]
                g_sum[i, b] += g.sum()
                d_sum[i, b] += d.sum()
                d_sumsq[i, b] += (d * d).sum()
        drawn += rows
    return _ref_moments_to_regret(g_sum, d_sum, d_sumsq, samples)


def _ref_moments_to_regret(g_sum, d_sum, d_sumsq, samples):
    """Means from the plain sums, variances from the shifted ones."""
    n = len(g_sum)
    means = g_sum / samples
    regrets, stderrs = [], []
    for i in range(n):
        b = 1 if means[i, 1] > means[i, 0] else 0
        regrets.append(float(means[i, b]))
        if samples >= 2:
            var = (d_sumsq[i, b] - d_sum[i, b] ** 2 / samples) / (samples - 1)
            stderrs.append(float(math.sqrt(max(var, 0.0) / samples)))
        else:
            stderrs.append(float("inf"))
    return tuple(regrets), tuple(stderrs)


def _ref_monte_carlo_counts(game, probs, samples, seed):
    """Monte Carlo for count-based S on the same draws, summed per count.

    Each block's histogram is built by a loop over its rows; then, for every
    player and both deviations, the gain at each row count is evaluated on
    its own and weighted by the number of rows holding it, and those terms
    are summed in ascending count order. The rows where a player already
    plays b gain 0, which counts only in the shifted moments."""
    n = game.n
    summ = game.summarization
    probs = np.asarray(probs)
    rng = np.random.default_rng(seed)
    shift = _ref_first_gains(game, probs, seed)
    g_sum = np.zeros((n, 2))
    d_sum = np.zeros((n, 2))
    d_sumsq = np.zeros((n, 2))
    drawn = 0
    while drawn < samples:
        rows = min(_REF_BATCH_ROWS, samples - drawn)
        bits = rng.random((rows, n)) < probs[None, :]
        rows_of, ones = {}, {}
        for row in bits:
            c = int(row.sum())
            rows_of[c] = rows_of.get(c, 0) + 1
            ones[c] = ones.get(c, 0) + row.astype(np.int64)
        counts = sorted(rows_of)
        for i, (pay0, pay1) in enumerate(game.payoffs):
            # b = 1: rows of count c where i plays 0, the others counting c;
            # b = 0: rows of count c where i plays 1, the others counting c - 1.
            for b, held in (
                (1, [c for c in counts if c < n]),
                (0, [c for c in counts if c > 0]),
            ):
                weight = np.array(
                    [rows_of[c] - ones[c][i] if b else ones[c][i] for c in held],
                    dtype=np.float64,
                )
                others = np.array([c if b else c - 1 for c in held], dtype=np.float64)
                f0 = pay0.evaluate_array(summ._of_count(others))
                f1 = pay1.evaluate_array(summ._of_count(others + 1.0))
                gain = f1 - f0 if b else f0 - f1
                plays1 = float(sum(ones[c][i] for c in counts))
                idle = plays1 if b else rows - plays1
                k = shift[i, b]
                d = gain - k
                g_sum[i, b] += (weight * gain).sum()
                d_sum[i, b] += (weight * d).sum() - idle * k
                d_sumsq[i, b] += (weight * (d * d)).sum() + idle * k * k
        drawn += rows
    return _ref_moments_to_regret(g_sum, d_sum, d_sumsq, samples)


def _ref_learn(game, epsilon, delta, initial, max_steps=None):
    """The tuple learner loop: (records, final step, final probs, visits)."""
    summ = game.summarization
    grid = make_grid(epsilon, game.rho)
    beta = grid.alpha / 2.0
    if max_steps is None:
        max_steps = default_step_cap(grid, beta, delta)
    table = build_v_table(game, grid)
    records, visits = [], []
    visit_interval, visit_start, visit_len = None, 0, 0
    probs = initial.probs
    mu = broadcast_mean(game, initial)
    t = 0
    while t < max_steps:
        k = interval_of(grid, mu)
        if k != visit_interval:
            if visit_interval is not None:
                visits.append((visit_interval, visit_start, visit_len))
            visit_interval, visit_start, visit_len = k, t, 0
        visit_len += 1
        target = table.br[k].actions
        new_probs = tuple((1.0 - beta) * p + beta * a for p, a in zip(probs, target))
        new_mu = math.fsum(w * p for w, p in zip(summ.weights, new_probs))
        assert abs((new_mu - mu) - beta * (table.v[k] - mu)) <= 1e-12
        max_delta = max(abs(np_ - p) for np_, p in zip(new_probs, probs))
        records.append((t, mu, max_delta, probs))
        probs, mu = new_probs, new_mu
        t += 1
        if delta > 0.0 and max_delta <= delta:
            break
    visits.append((visit_interval, visit_start, visit_len))
    return records, t, probs, visits


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------


def _with_edge_payoffs(game, rng):
    """The game with some players' payoffs swapped for constant pairs with
    F0 == F1 and for pairs holding Constant(-0.0)."""
    pairs = list(game.payoffs)
    edge = [
        (Constant(0.25), Constant(0.25)),
        (Constant(-0.0), Constant(0.0)),
        (Constant(0.0), Constant(-0.0)),
        (Constant(-0.0), Constant(-0.0)),
    ]
    for i in rng.choice(game.n, size=min(game.n, 3), replace=False):
        pairs[int(i)] = edge[int(rng.integers(len(edge)))]
    return SummGame(game.summarization, tuple(pairs))


def _regret_games(seed, sizes):
    rng = np.random.default_rng(seed)
    for kind in ("mean", "majority", "linear"):
        for n in sizes:
            base = random_game(rng, n, "linear" if kind == "linear" else "mean")
            summ = MajorityFraction(n) if kind == "majority" else base.summarization
            game = SummGame(summ, base.payoffs)
            yield kind, game
            yield kind, _with_edge_payoffs(game, rng)


def _profile(rng, n):
    """Random probabilities with some entries exactly 0 and 1."""
    probs = rng.uniform(size=n)
    probs[rng.random(n) < 0.3] = 0.0
    probs[rng.random(n) < 0.3] = 1.0
    return MixedProfile(tuple(float(p) for p in probs))


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("select_rows", [1, core._BITWISE_SELECT_ROWS, 1 << 30])
def test_kernel_matches_reference_kernel(monkeypatch, select_rows):
    # Both selects, and states built from chunks of 3 rows.
    monkeypatch.setattr(core, "_BITWISE_SELECT_ROWS", select_rows)
    rng = np.random.default_rng(3)
    for kind, game in _regret_games(3, (1, 4, 9)):
        monkeypatch.setattr(core, "_CHUNK_CELLS", 3 * game.n)
        for rows in (1, 5, 1500):
            bits = rng.random((rows, game.n)) < 0.5
            ours = [
                player
                for _, *chunk in core._deviation_payoffs(game, bits)
                for player in zip(*chunk)
            ]
            ref = list(_ref_deviation_payoffs(game, bits.astype(np.float64)))
            assert len(ours) == len(ref) == game.n
            for a, b in zip(ours, ref):
                for x, y in zip(a, b):
                    assert _bits(x) == _bits(y), (kind, rows)


def test_regret_pure_matches_reference():
    rng = np.random.default_rng(4)
    for kind, game in _regret_games(4, (1, 3, 8, 40)):
        for _ in range(3):
            profile = PureProfile(tuple(int(a) for a in rng.integers(0, 2, game.n)))
            assert _bits(regret_pure(game, profile)) == _bits(
                _ref_regret_pure(game, profile)
            ), kind


def _check_exact(kind, game, profile):
    """Exact regrets are never negative and lie within 1e-14 of the full
    enumeration, which sums both deviations and the received payoff over
    every profile and can cancel to just below zero."""
    result = regret_mixed(game, profile, mode="exact")
    assert result.stderrs is None and result.mode == "exact"
    assert all(type(r) is float and r >= 0.0 for r in result.regrets), kind
    ref = _ref_exact(game, profile.probs)
    assert np.allclose(result.regrets, ref, rtol=0.0, atol=1e-14), (kind, game.n)


def _exact_profile(rng, n):
    """``_profile`` with some entries exactly 1/2, where both actions are
    equally likely."""
    probs = np.array(_profile(rng, n).probs)
    probs[rng.random(n) < 0.2] = 0.5
    return MixedProfile(tuple(float(p) for p in probs))


def test_exact_regret_mixed_matches_reference(monkeypatch):
    rng = np.random.default_rng(5)
    for kind, game in _regret_games(5, (1, 2, 6, 11)):
        for probs in (
            _exact_profile(rng, game.n).probs,
            (0.0,) * game.n,
            (1.0,) * game.n,
            (0.5,) * game.n,
        ):
            _check_exact(kind, game, MixedProfile(probs))
    # Two enumeration blocks, split into state chunks of 7 rows.
    monkeypatch.setattr(core, "_CHUNK_CELLS", 7 * 15)
    for kind in ("mean", "linear"):
        _check_exact(kind, random_game(rng, 15, kind), _exact_profile(rng, 15))
    monkeypatch.undo()
    # Many blocks: the players of a block's constant high bits skip the
    # blocks off their likelier action, those of its low bits read half of
    # every block, and n = 1 and 2 fit one block.
    for block_rows in (1, 4, 16):
        monkeypatch.setattr(core, "_BATCH_ROWS", block_rows)
        sizes = [n for n in (1, 2, 6, 11) if 1 << n <= 256 * block_rows]
        for kind, game in _regret_games(50 + block_rows, sizes):
            _check_exact(kind, game, _exact_profile(rng, game.n))


@pytest.mark.parametrize("block_rows", [1, 4, 1 << 14])
def test_count_block_state_is_the_summed_state(monkeypatch, block_rows):
    # A count-based S's block state is the low bits' count plus the high
    # bits', the float64 row sum ``_block_state`` builds, bit for bit.
    monkeypatch.setattr(core, "_BATCH_ROWS", block_rows)
    for summ in (Mean(9), MajorityFraction(10), Mean(1)):
        codes = []
        for start, columns, state in core._profile_blocks(summ):
            bits = columns.T
            assert _bits(state) == _bits(core._block_state(summ, bits))
            expected = _ref_profile_bits(np.arange(start, start + len(bits)), summ.n)
            assert np.array_equal(bits, expected)
            codes.append(start)
        assert codes == list(range(0, 1 << summ.n, min(block_rows, 1 << summ.n)))


def _weighted_voting_game(weights, contrarian):
    """Weighted votes, normalized, between contrarians (F0 = z, F1 = 1 - z)
    and followers (F0 = 1 - z, F1 = z), ``contrarian`` saying which player
    is which. Such games often have no pure equilibrium, so epsilon* > 0
    and rows of later blocks are bounded on more than one player."""
    pairs = (
        (Affine(1.0, -1.0), Affine(0.0, 1.0)),
        (Affine(0.0, 1.0), Affine(1.0, -1.0)),
    )
    return SummGame(
        LinearWeighted(tuple(float(w) for w in weights), normalize=True),
        tuple(pairs[int(c)] for c in contrarian),
    )


def _signed_zero_game(n):
    """Every payoff is 0.0 or -0.0, so every regret is a signed zero."""
    pairs = (
        (Constant(-0.0), Constant(0.0)),
        (Constant(0.0), Constant(-0.0)),
        (Constant(-0.0), Constant(-0.0)),
    )
    return SummGame(Mean(n), tuple(pairs[i % 3] for i in range(n)))


@pytest.mark.parametrize("block_rows", [1, 4, 16, 256])
def test_brute_matches_reference(monkeypatch, block_rows):
    # Many blocks per game, so rows are dropped across blocks and the high
    # columns are refilled per block; at most 1024 blocks per game. As at
    # the default sizes, a full block is bounded one player at a time and
    # its survivors several players at a time.
    monkeypatch.setattr(core, "_BATCH_ROWS", block_rows)
    monkeypatch.setattr(core, "_CHUNK_PLAYER_CELLS", block_rows)
    sizes = [n for n in (1, 2, 3, 5, 8, 10, 12, 14) if 1 << n <= 1024 * block_rows]
    rng = np.random.default_rng(10 + block_rows)
    cases = list(_regret_games(10 + block_rows, sizes))
    for n in sizes:
        cases += [
            # The unanimous profiles tie at 0 in the first and last block.
            ("consensus", consensus_game(n)),
            # The only equilibrium is all ones, in the last block.
            ("adoption", adoption_game(n)),
            # Weights 1..n, followers and contrarians alternating.
            ("weighted-voting", _weighted_voting_game(range(1, n + 1), np.arange(n) % 2)),
            (
                "weighted-voting",
                _weighted_voting_game(rng.uniform(0.2, 1.0, n), rng.random(n) < 0.5),
            ),
            ("signed-zero", _signed_zero_game(n)),
        ]
    positive = 0
    for kind, game in cases:
        report = brute_min_epsilon(game)
        value, actions = _ref_brute(game)
        assert _bits(report.epsilon_star) == _bits(value), (kind, game.n)
        assert report.best_profile.actions == actions, (kind, game.n)
        assert report.profiles_examined == 1 << game.n
        positive += kind == "weighted-voting" and value > 0.0
    assert positive >= len(sizes)


def _check_monte_carlo(kind, game, profile, samples, seed):
    """Count-based S is byte-equal to the per-count reference and agrees
    with the per-row one within 1e-14 (means, and variances samples *
    stderr^2, as a square root magnifies rounding near a zero variance);
    the others are byte-equal to the per-row reference."""
    result = regret_mixed(game, profile, "monte_carlo", samples, seed=seed)
    regrets, stderrs = _ref_monte_carlo(game, profile.probs, samples, seed)
    if kind in ("mean", "majority"):
        assert np.allclose(result.regrets, regrets, rtol=0.0, atol=1e-14), kind
        if samples >= 2:
            ours, ref = (samples * np.square(x) for x in (result.stderrs, stderrs))
            assert np.allclose(ours, ref, rtol=0.0, atol=1e-14), kind
        regrets, stderrs = _ref_monte_carlo_counts(game, profile.probs, samples, seed)
    assert _bits(result.regrets) == _bits(regrets), (kind, samples)
    assert _bits(result.stderrs) == _bits(stderrs), (kind, samples)


@pytest.mark.parametrize("chunk_rows", [None, 7])
def test_monte_carlo_regret_mixed_matches_reference(monkeypatch, chunk_rows):
    rng = np.random.default_rng(6)
    for kind, game in _regret_games(6, (1, 3, 12)):
        if chunk_rows is not None:
            monkeypatch.setattr(core, "_CHUNK_CELLS", chunk_rows * game.n)
        profile = _profile(rng, game.n)
        # Below the bitwise select, above it, and two blocks; none a
        # multiple of the 7-row draw chunk.
        for samples in (1, 999, 17389):
            _check_monte_carlo(kind, game, profile, samples, samples)


def test_monte_carlo_at_scale_matches_reference():
    # n = 1000 makes 262-row draw and state chunks inside each block.
    rng = np.random.default_rng(7)
    for kind, game in (
        ("mean", bar_game(1000)),
        ("mean", random_game(rng, 1000, "mean")),
        ("linear", random_game(rng, 1000, "linear")),
    ):
        _check_monte_carlo(kind, game, _profile(rng, 1000), 3001, 1)


@pytest.mark.parametrize("player_cells", [1, 5, None])
def test_monte_carlo_counts_edge_cases(monkeypatch, player_cells):
    # One-row draw chunks with player chunks of one player and of a few,
    # cutting the payoff-bank groups, against the default chunks.
    if player_cells is not None:
        monkeypatch.setattr(core, "_CHUNK_CELLS", 0)
        monkeypatch.setattr(core, "_CHUNK_PLAYER_CELLS", player_cells)
    rng = np.random.default_rng(9)
    for kind, game in _regret_games(9, (1, 2, 7)):
        if kind not in ("mean", "majority"):
            continue
        n = game.n
        # Every probability 0 or 1, so all rows share one count; all 0; all 1.
        for probs in (
            rng.integers(0, 2, n).astype(float),
            np.zeros(n),
            np.ones(n),
            rng.uniform(size=n),
        ):
            profile = MixedProfile(tuple(float(p) for p in probs))
            for samples in (1, 2, 300):
                _check_monte_carlo(kind, game, profile, samples, samples)
    # Constant(-0.0) against Constant(0.0), and a constant pair.
    pairs = [
        (Constant(-0.0), Constant(0.0)),
        (Constant(0.0), Constant(-0.0)),
        (Constant(-0.0), Constant(-0.0)),
        (Constant(0.25), Constant(0.25)),
    ]
    for summ in (MajorityFraction(4), bar_game(4).summarization):
        game = SummGame(summ, tuple(pairs))
        profile = MixedProfile((0.0, 1.0, 0.5, 0.25))
        _check_monte_carlo("mean", game, profile, 1000, 3)


def test_monte_carlo_stderr_of_a_constant_gain_is_zero():
    # Every fifth player has constant payoffs and a pure strategy, so their
    # gain is the same in every sample. Taken as (sum g^2 - (sum g)^2 / N)
    # / (N - 1), their stderrs read up to 9.5e-11 on both paths.
    n = 100
    for summ in (LinearWeighted((1.0 / n,) * n), Mean(n)):
        rng = np.random.default_rng(1)
        pairs, probs = [], []
        for i in range(n):
            if i % 5 == 0:
                c0, c1 = rng.uniform(size=2).tolist()
                pairs.append((Constant(c0), Constant(c1)))
                probs.append(float(i % 2))
            else:
                a0, a1 = rng.uniform(0.2, 0.8, 2).tolist()
                b0, b1 = rng.uniform(-0.2, 0.2, 2).tolist()
                pairs.append((Affine(a0, b0), Affine(a1, b1)))
                probs.append(float(rng.uniform()))
        game = SummGame(summ, tuple(pairs))
        result = regret_mixed(game, MixedProfile(tuple(probs)), "monte_carlo", 5000, seed=1)
        assert [result.stderrs[i] for i in range(0, n, 5)] == [0.0] * (n // 5)
        assert all(se > 0.0 for i, se in enumerate(result.stderrs) if i % 5)


def test_monte_carlo_stderrs_match_two_pass_fsum():
    # Two blocks of draws; the reference takes the exactly rounded mean of
    # every sample's gain, then the exactly rounded sum of squared deviations.
    rng = np.random.default_rng(12)
    n, samples, seed = 25, 17389, 4
    for kind in ("mean", "linear"):
        game = random_game(rng, n, kind)
        probs = rng.uniform(0.05, 0.95, size=n)
        profile = MixedProfile(tuple(probs.tolist()))
        result = regret_mixed(game, profile, "monte_carlo", samples, seed=seed)
        draws = np.random.default_rng(seed).random((samples, n))
        bits = (draws < probs[None, :]).astype(np.float64)
        for i, (f0, f1, current) in enumerate(_ref_deviation_payoffs(game, bits)):
            gains = [(f0 - current).tolist(), (f1 - current).tolist()]
            means = [math.fsum(g) / samples for g in gains]
            b = 1 if means[1] > means[0] else 0
            var = math.fsum((g - means[b]) ** 2 for g in gains[b]) / (samples - 1)
            expected = math.sqrt(var / samples)
            assert math.isclose(result.stderrs[i], expected, rel_tol=1e-12), (kind, i)


def _learn_cases():
    rng = np.random.default_rng(8)
    for n in (1, 4, 30, 120):
        for kind in ("mean", "linear"):
            game = random_game(rng, n, kind)
            yield game, 0.5, 1e-3, _profile(rng, n), 3000
            yield _with_edge_payoffs(game, rng), 0.3, 1e-4, _profile(rng, n), 3000
    # The oscillating bar game from all zeros, and one from all ones.
    yield bar_game(50), 0.5, 1e-4, MixedProfile((0.0,) * 50), 600
    yield bar_game(7), 0.25, 0.0, MixedProfile((1.0,) * 7), 300


def test_learner_matches_reference_loop():
    for game, epsilon, delta, initial, cap in _learn_cases():
        config = LearnConfig(
            epsilon=epsilon, delta=delta, max_steps=cap, snapshot_probs=True
        )
        trajectory, cert, diagnostics = run_summ_learn(game, config, initial=initial)
        records, steps, final, visits = _ref_learn(game, epsilon, delta, initial, cap)
        assert trajectory.terminated.step == steps
        assert [s.t for s in trajectory.steps] == [r[0] for r in records]
        assert _bits([s.mu for s in trajectory.steps]) == _bits([r[1] for r in records])
        assert _bits([s.max_delta for s in trajectory.steps]) == _bits(
            [r[2] for r in records]
        )
        for step, record in zip(trajectory.steps, records):
            assert _bits(step.probs) == _bits(record[3])
            assert all(type(p) is float for p in step.probs)
        assert _bits(trajectory.final.probs) == _bits(final)
        assert _bits(cert.profile.probs) == _bits(final)
        assert [(v.interval, v.start, v.duration) for v in diagnostics.visit_log] == visits
        assert all(type(s.mu) is float and type(s.max_delta) is float for s in trajectory.steps)

