"""Game model: summarizations, influence, payoff catalog, regrets."""

import itertools
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bar_game,
    catalog_payoff_suite,
    consensus_game,
    constant_game,
    random_game,
)
from summgames import (
    Affine,
    CapabilityError,
    Constant,
    InputError,
    LearnConfig,
    LinearWeighted,
    MajorityFraction,
    Mean,
    MixedProfile,
    Payoff,
    PiecewiseLinear,
    PureProfile,
    Quadratic,
    SummGame,
    Summarization,
    brute_min_epsilon,
    regret_mixed,
    regret_pure,
    run_summ_learn,
    summ_nash,
)
from summgames import core


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------


def test_pure_profile_validation():
    with pytest.raises(InputError):
        PureProfile(())
    with pytest.raises(InputError):
        PureProfile((0, 2))
    # The first bad action is named.
    with pytest.raises(
        InputError, match=r"^actions\[2\]: pure actions must be exactly 0 or 1$"
    ):
        PureProfile((0, 1, 2, 0, -1))
    p = PureProfile((True, 0, 1.0))
    assert p.actions == (1, 0, 1) and p.n == 3
    assert all(type(a) is int for a in p.actions)


def test_mixed_profile_validation():
    with pytest.raises(InputError):
        MixedProfile((0.5, 1.2))
    with pytest.raises(InputError):
        MixedProfile((float("nan"),))
    # The first bad probability is named, NaN and -inf included.
    for bad in (1.5, -0.1, math.nan, -math.inf):
        with pytest.raises(
            InputError,
            match=r"^probs\[2\]: mixed-strategy probabilities must lie in \[0, 1\]$",
        ):
            MixedProfile((0.5, -0.0, bad, 2.0, math.nan))
    p = MixedProfile((0, 1))
    assert p.probs == (0.0, 1.0) and p.n == 2
    assert all(type(q) is float for q in p.probs)


# ---------------------------------------------------------------------------
# Summarizations
# ---------------------------------------------------------------------------


def test_eval_summarization_examples():
    assert Mean(4).evaluate(PureProfile((1, 1, 0, 0)).actions) == 0.5
    assert MajorityFraction(4).evaluate(PureProfile((1, 1, 1, 0)).actions) == 0.75
    assert LinearWeighted((0.5, 0.3, 0.2)).evaluate(
        PureProfile((1, 0, 1)).actions
    ) == pytest.approx(0.7, abs=1e-15)


def test_eval_summarization_arity_mismatch():
    with pytest.raises(InputError):
        Mean(4).evaluate(PureProfile((1, 0)).actions)


@settings(max_examples=200)
@given(data=st.data())
def test_evaluate_is_the_batch_path_on_one_row(data):
    n = data.draw(st.integers(1, 12))
    kind = data.draw(st.sampled_from(["mean", "majority", "linear"]))
    if kind == "mean":
        summ = Mean(n)
    elif kind == "majority":
        summ = MajorityFraction(n)
    else:
        raw = data.draw(
            st.lists(st.floats(0.01, 1.0, allow_nan=False), min_size=n, max_size=n)
        )
        summ = LinearWeighted(tuple(raw), normalize=True)
    rows = data.draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            min_size=1,
            max_size=8,
        )
    )
    bits = np.array(rows, dtype=np.float64)
    state = summ.batch_state(bits)
    values = summ.batch_value(state)
    for r, row in enumerate(rows):
        assert summ.evaluate(tuple(row)) == values[r]
    if kind == "linear":
        return
    # Count-based states are exact, so a deviation equals evaluating the
    # deviated profile from scratch.
    for i in range(n):
        lo, hi = summ.batch_deviation(state, bits[:, i], i)
        for r, row in enumerate(rows):
            assert lo[r] == summ.evaluate(tuple(row[:i]) + (0,) + tuple(row[i + 1 :]))
            assert hi[r] == summ.evaluate(tuple(row[:i]) + (1,) + tuple(row[i + 1 :]))


@pytest.mark.parametrize("n", [3, 700, 10000])
def test_batch_state_of_a_bool_block_is_that_of_its_float_copy(n):
    # Blocks are bool; LinearWeighted copies them to float64 row chunks,
    # since its einsum on bool rows summed in another order once n > 8192.
    rng = np.random.default_rng(n)
    step = max(1, core._STATE_CHUNK_CELLS // n)
    bits = rng.random((2 * step + 3, n)) < 0.5  # three chunks
    weights = tuple(rng.uniform(0.01, 1.0, n).tolist())
    for summ in (Mean(n), MajorityFraction(n), LinearWeighted(weights, normalize=True)):
        state = summ.batch_state(bits)
        copied = summ.batch_state(bits.astype(np.float64))
        assert state.tobytes() == copied.tobytes(), type(summ).__name__


def test_linear_weighted_validation():
    with pytest.raises(InputError):
        LinearWeighted((0.8, 0.4))  # sums past 1
    norm = LinearWeighted((2.0, 2.0), normalize=True)
    assert norm.weights == (0.5, 0.5)
    with pytest.raises(InputError, match=r"^weights\[0\]: .* got -0.1$"):
        LinearWeighted((-0.1, 0.5))
    # An infinite weight would normalize to (nan, 0.0) and make tau NaN.
    for bad in (math.inf, math.nan):
        for normalize in (True, False):
            with pytest.raises(InputError, match=r"^weights\[1\]: .*finite"):
                LinearWeighted((1.0, bad), normalize=normalize)
    with pytest.raises(InputError, match="^weights: their sum overflows"):
        LinearWeighted((1e308, 1e308), normalize=True)
    # Of several bad weights, the first is named.
    for weights, j, shown in (
        ((0.1, -1.0, math.nan, -2.0), 1, "-1.0"),
        ((0.1, 0.2, math.nan, -2.0), 2, "nan"),
        ((math.inf, -1.0), 0, "inf"),
        ((0.0, -math.inf), 1, "-inf"),
    ):
        for normalize in (True, False):
            with pytest.raises(InputError) as err:
                LinearWeighted(weights, normalize=normalize)
            assert str(err.value) == (
                f"weights[{j}]: expected a finite nonnegative number, got {shown}"
            )


def test_linear_weighted_reads_its_weights_as_one_column():
    ints = LinearWeighted((1, 2, 1), normalize=True)
    assert ints.weights == (0.25, 0.5, 0.25)
    assert LinearWeighted((1, 0, 0)).weights == (1.0, 0.0, 0.0)
    assert all(type(w) is float for w in ints.weights)
    # Normalizing is one array division by the exactly rounded sum, each
    # quotient the float that dividing the weight alone gives.
    ws = np.random.default_rng(10).uniform(0.0, 1.0, 10**4).tolist()
    total = math.fsum(ws)
    summ = LinearWeighted(ws, normalize=True)
    expected = np.array([w / total for w in ws])
    assert np.array(summ.weights).tobytes() == expected.tobytes()
    assert summ._w.tobytes() == expected.tobytes()
    assert not summ._w.flags.writeable


def test_influence_mean():
    assert Mean(10).influence_bound() == pytest.approx(0.1)


def test_mean_game_builds_in_linear_time():
    # tau is one vectorized pass over the n + 1 counts.
    n = 10**5
    start = time.perf_counter()
    game = bar_game(n)
    assert time.perf_counter() - start < 2.0
    # The largest float step count/n takes, 1/n up to its last bits.
    assert game.tau == 1.0000000000065512e-05
    assert Mean(n).weights[n - 1] == 1.0 / n
    weighted = LinearWeighted((0.25, 0.5, 0.25))
    assert weighted.influence_bound() == 0.5
    assert MajorityFraction(30).influence_bound() == _largest_count_step(
        MajorityFraction(30)
    )


def _largest_count_step(summ):
    """A count-based S's largest |S(c + 1 ones) - S(c ones)|, one scalar
    ``evaluate`` per count."""
    n = summ.n
    values = [summ.evaluate((1,) * c + (0,) * (n - c)) for c in range(n + 1)]
    return max(abs(hi - lo) for lo, hi in zip(values, values[1:]))


def test_count_influence_is_its_largest_count_step():
    # One flip moves the count by one, so tau is the float step
    # ``evaluate`` actually takes; it exceeds 1/n in the last bits for most
    # n (n = 30: 0.033...3344 against 0.033...3333, for both kinds).
    for kind in (Mean, MajorityFraction):
        for n in (1, 2, 3, 10, 30, 1000):
            summ = kind(n)
            assert summ.influence_bound() == _largest_count_step(summ), (kind, n)
        assert _largest_count_step(kind(30)) > 1.0 / 30


def test_influence_majority_n3_matches_hand_enumeration():
    # Independent oracle: literal max over the 4 settings of the other two.
    summ = MajorityFraction(3)
    for i in range(3):
        worst = 0.0
        for others in itertools.product((0, 1), repeat=2):
            acts = list(others)
            acts.insert(i, 0)
            lo = summ.evaluate(tuple(acts))
            acts[i] = 1
            hi = summ.evaluate(tuple(acts))
            worst = max(worst, abs(lo - hi))
        assert summ.influence_bound() == worst == pytest.approx(1.0 / 3.0)


def test_influence_majority_closed_form_matches_enumeration():
    # Away from the n = 1 case the influence is 1/n up to rounding.
    for n in (2, 3, 5, 8, 12):
        summ = MajorityFraction(n)
        assert summ.influence_bound() == pytest.approx(1.0 / n)
    assert MajorityFraction(1).influence_bound() == 0.0


@settings(max_examples=200)
@given(data=st.data())
def test_influence_bounds_any_profile(data):
    n = data.draw(st.integers(1, 8))
    kind = data.draw(st.sampled_from(["mean", "linear", "majority"]))
    if kind == "mean":
        summ = Mean(n)
    elif kind == "majority":
        summ = MajorityFraction(n)
    else:
        raw = data.draw(
            st.lists(
                st.floats(0.0, 1.0, allow_nan=False), min_size=n, max_size=n
            )
        )
        summ = LinearWeighted(tuple(raw), normalize=sum(raw) > 0) if sum(raw) > 0 \
            else LinearWeighted(tuple(raw))
    actions = tuple(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    i = data.draw(st.integers(0, n - 1))
    lo = summ.evaluate(actions[:i] + (0,) + actions[i + 1 :])
    hi = summ.evaluate(actions[:i] + (1,) + actions[i + 1 :])
    # A count-based tau is S's own largest float step, so it bounds every
    # flip exactly; a weighted step can exceed the largest weight by
    # rounding.
    slack = 1e-12 if kind == "linear" else 0.0
    assert abs(lo - hi) <= summ.influence_bound() + slack


# ---------------------------------------------------------------------------
# Payoff catalog
# ---------------------------------------------------------------------------


def test_payoff_op_examples():
    g = SummGame(Mean(1), ((Affine(0.0, 1.0), Constant(0.7)),))
    assert g.payoffs[0][0].evaluate(0.3) == pytest.approx(0.3)
    assert g.payoffs[0][1].evaluate(0.123) == 0.7
    peak = PiecewiseLinear(((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)))
    assert peak.evaluate(0.25) == pytest.approx(0.5)


def test_payoff_constructors_reject_range_escape():
    with pytest.raises(InputError):
        Constant(1.2)
    with pytest.raises(InputError):
        Affine(0.5, 0.8)  # reaches 1.3 at z=1
    with pytest.raises(InputError):
        Quadratic(0.0, 3.0, -2.0)  # vertex at 0.75 reaches 1.125
    Quadratic(0.0, 2.0, -2.0)  # vertex value exactly 0.5, fine
    with pytest.raises(InputError, match="extremum z=0.5"):
        Quadratic(0.5, 1e308, -1e308)  # 2c overflows; the vertex reaches 2.5e307
    with pytest.raises(InputError):
        PiecewiseLinear(((0.0, 0.0), (0.5, 1.5), (1.0, 0.0)))
    with pytest.raises(InputError):
        PiecewiseLinear(((0.1, 0.0), (1.0, 0.5)))  # must start at 0
    with pytest.raises(InputError):
        PiecewiseLinear(((0.0, 0.0), (0.5, 0.2), (0.5, 0.4), (1.0, 0.5)))


def test_payoff_constructors_reject_infinite_slopes():
    # Breakpoints one subnormal apart overflow the slope to +-inf, which
    # would evaluate to NaN at z = 0 and make rho infinite; a NaN position
    # passes the ordering check and makes the slopes NaN.
    for points in (
        ((0.0, 0.0), (5e-324, 1.0), (1.0, 1.0)),
        ((0.0, 1.0), (1e-310, 0.0), (1.0, 0.0)),
        ((0.0, 0.0), (math.nan, 0.5), (1.0, 1.0)),
    ):
        with pytest.raises(InputError, match="slope"):
            PiecewiseLinear(points)
    # Steep but finite is a valid payoff.
    steep = PiecewiseLinear(((0.0, 0.0), (1e-300, 1.0), (1.0, 1.0)))
    assert steep.derivative_bound() == pytest.approx(1e300)
    assert steep.evaluate(0.0) == 0.0 and steep.evaluate(0.5) == 1.0


def test_game_rejects_payoffs_outside_the_catalog(monkeypatch):
    # The catalog is closed: an object of any other type, a subclass of a
    # catalog kind included, is refused by its field path, whatever it
    # would evaluate to or declare as its derivative bound.
    class Shifted(Affine):
        def evaluate_array(self, z):
            return super().evaluate_array(z) + 2.0

    class Declared(Payoff):
        def evaluate_array(self, z):
            return np.full(np.shape(z), math.nan)

        def derivative_bound(self):
            return math.inf

    for outside in (Shifted(0.0, 1.0), Declared(), 0.5, None):
        for b in (0, 1):
            pair = [Constant(0.5), Constant(0.5)]
            pair[b] = outside
            with pytest.raises(InputError, match=rf"payoffs\[1\]\[{b}\] is a "):
                SummGame(Mean(2), ((Constant(0.5), Constant(0.5)), tuple(pair)))
    # Every guarantee scales with rho, so the game refuses an infinite one.
    # No valid catalog coefficients give one, so a kind's bound rule, which
    # the game applies to its coefficient columns, is patched.
    infinite = staticmethod(lambda a, b: np.full(a.shape, math.inf))
    monkeypatch.setattr(Affine, "_bound", infinite)
    with pytest.raises(InputError, match=r"payoffs\[1\]\[0\] has derivative bound inf"):
        SummGame(Mean(2), ((Constant(0.5), Constant(0.5)), (Affine(0.0, 1.0), Constant(0.5))))


def test_game_rejects_summarizations_outside_the_three_kinds():
    # A subclass could report any tau, and the bare base class has none.
    class Halved(Mean):
        def influence_bound(self):
            return 0.5 / self.n

    pairs = ((Constant(0.5), Constant(0.5)),) * 2
    for outside in (Halved(2), Summarization(), None):
        with pytest.raises(InputError, match=r"^summarization is a "):
            SummGame(outside, pairs)


def test_derivative_bounds():
    assert Constant(0.4).derivative_bound() == 0.0
    assert Affine(1.0, -1.0).derivative_bound() == 1.0
    assert Quadratic(0.0, 2.0, -2.0).derivative_bound() == pytest.approx(6.0)
    pw = PiecewiseLinear(((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)))
    assert pw.derivative_bound() == pytest.approx(2.0)


def test_payoff_lipschitz_finite_differences():
    # |F(z) - F(z')| <= rho_f |z - z'| at 10^4 random pairs per function.
    rng = np.random.default_rng(42)
    for fn in catalog_payoff_suite(np.random.default_rng(7)):
        z = rng.uniform(size=10**4)
        zp = rng.uniform(size=10**4)
        lhs = np.abs(fn.evaluate_array(z) - fn.evaluate_array(zp))
        rhs = fn.derivative_bound() * np.abs(z - zp)
        assert np.all(lhs <= rhs + 1e-12), type(fn).__name__


def test_scalar_and_array_evaluation_agree():
    rng = np.random.default_rng(3)
    zs = rng.uniform(size=200)
    for fn in catalog_payoff_suite(np.random.default_rng(11)):
        arr = fn.evaluate_array(zs)
        for z, v in zip(zs, arr):
            assert fn.evaluate(float(z)) == v


# ---------------------------------------------------------------------------
# Game construction
# ---------------------------------------------------------------------------


def test_game_bounds():
    g = bar_game(4)
    assert g.tau == 0.25
    assert g.rho == 1.0
    g2 = SummGame(
        LinearWeighted((0.5, 0.3, 0.2)),
        ((Constant(0.1), Quadratic(0.0, 2.0, -2.0)),) * 3,
    )
    assert g2.tau == 0.5
    assert g2.rho == pytest.approx(6.0)
    with pytest.raises(InputError):
        SummGame(Mean(3), ((Constant(0.5), Constant(0.5)),) * 2)


# ---------------------------------------------------------------------------
# Pure regret
# ---------------------------------------------------------------------------


def test_regret_pure_consensus_all_ones():
    g = consensus_game(4)
    assert regret_pure(g, PureProfile((1, 1, 1, 1))) == (0.0, 0.0, 0.0, 0.0)


def test_regret_pure_constant_payoffs():
    g = constant_game(5, 0.3, 0.3)
    for acts in ((0, 1, 0, 1, 1), (1, 1, 1, 1, 1), (0, 0, 0, 0, 0)):
        assert regret_pure(g, PureProfile(acts)) == (0.0,) * 5


def test_regret_pure_bar_split_profile():
    g = bar_game(4)
    assert regret_pure(g, PureProfile((1, 1, 0, 0))) == (0.0, 0.0, 0.0, 0.0)
    # One player too many at the bar: the three attendees each regret 0.25.
    regrets = regret_pure(g, PureProfile((0, 1, 1, 1)))
    assert regrets[0] == 0.0
    assert regrets[1:] == (0.25, 0.25, 0.25)


def test_regret_pure_nonnegative_on_random_games():
    rng = np.random.default_rng(123)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        g = random_game(rng, n, "mean" if rng.uniform() < 0.5 else "linear")
        acts = tuple(int(a) for a in rng.integers(0, 2, size=n))
        assert all(r >= 0.0 for r in regret_pure(g, PureProfile(acts)))


# ---------------------------------------------------------------------------
# Mixed regret
# ---------------------------------------------------------------------------


def _mixed_regret_by_enumeration(game, probs):
    """Independent oracle: plain scalar sum over all 2^n profiles."""
    n = game.n
    out = []
    for i in range(n):
        dev = [0.0, 0.0]
        cur = 0.0
        for x in itertools.product((0, 1), repeat=n):
            w = 1.0
            for j, xj in enumerate(x):
                w *= probs[j] if xj else 1.0 - probs[j]
            cur += w * game.payoffs[i][x[i]].evaluate(game.summarization.evaluate(x))
            for b in (0, 1):
                xb = x[:i] + (b,) + x[i + 1 :]
                dev[b] += w * game.payoffs[i][b].evaluate(
                    game.summarization.evaluate(xb)
                )
        out.append(max(dev) - cur)
    return out


def test_regret_mixed_pure_embedding_matches_regret_pure():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        g = random_game(rng, n, "mean" if rng.uniform() < 0.5 else "linear")
        acts = tuple(int(a) for a in rng.integers(0, 2, size=n))
        pure = regret_pure(g, PureProfile(acts))
        mixed = regret_mixed(g, MixedProfile(acts), mode="exact")
        assert mixed.stderrs is None
        for a, b in zip(pure, mixed.regrets):
            assert abs(a - b) <= 1e-12


def test_regret_mixed_pure_embedding_is_bit_identical_to_regret_pure():
    # Both are reductions over the same deviation kernel, so a degenerate
    # mixed profile must reproduce the pure regrets exactly.
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        g = random_game(rng, n, "mean" if rng.uniform() < 0.5 else "linear")
        profile = PureProfile(tuple(int(a) for a in rng.integers(0, 2, size=n)))
        mixed = regret_mixed(g, MixedProfile(profile.actions), mode="exact")
        assert mixed.regrets == regret_pure(g, profile)


def test_regret_mixed_constant_game():
    g = constant_game(4)
    res = regret_mixed(g, MixedProfile((0.2, 0.4, 0.6, 0.8)), mode="exact")
    assert all(abs(r) <= 1e-15 for r in res.regrets)


def test_regret_mixed_bar3_enumeration_oracle():
    g = bar_game(3)
    p = MixedProfile((0.5, 0.5, 0.5))
    oracle = _mixed_regret_by_enumeration(g, p.probs)
    # Uniform half is the symmetric mixed equilibrium of this game.
    assert all(abs(r) <= 1e-12 for r in oracle)
    exact = regret_mixed(g, p, mode="exact")
    for a, b in zip(oracle, exact.regrets):
        assert abs(a - b) <= 1e-12
    mc = regret_mixed(g, p, mode="monte_carlo", samples=20000, seed=11)
    for est, se, truth in zip(mc.regrets, mc.stderrs, exact.regrets):
        assert abs(est - truth) <= 3.0 * se + 1e-12


def test_regret_mixed_random_games_match_enumeration():
    rng = np.random.default_rng(17)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        g = random_game(rng, n, "mean" if rng.uniform() < 0.5 else "linear")
        p = MixedProfile(tuple(float(q) for q in rng.uniform(size=n)))
        oracle = _mixed_regret_by_enumeration(g, p.probs)
        exact = regret_mixed(g, p, mode="exact")
        for a, b in zip(oracle, exact.regrets):
            assert abs(a - b) <= 1e-12


def test_regret_mixed_exact_capability_cap():
    g = constant_game(21)
    with pytest.raises(CapabilityError):
        regret_mixed(g, MixedProfile((0.5,) * 21), mode="exact")


def test_regret_mixed_monte_carlo_deterministic():
    g = bar_game(6)
    p = MixedProfile((0.3,) * 6)
    a = regret_mixed(g, p, mode="monte_carlo", samples=5000, seed=99)
    b = regret_mixed(g, p, mode="monte_carlo", samples=5000, seed=99)
    assert a.regrets == b.regrets
    assert a.stderrs == b.stderrs
    c = regret_mixed(g, p, mode="monte_carlo", samples=5000, seed=100)
    assert c.regrets != a.regrets


@pytest.mark.parametrize("n", [20, 21])
def test_regret_mixed_auto_is_exact_up_to_the_cap(n):
    game = random_game(np.random.default_rng(n), n)
    profile = MixedProfile(tuple(np.linspace(0.05, 0.95, n).tolist()))
    auto = regret_mixed(game, profile, mode="auto", samples=300, seed=4)
    mode = "exact" if n <= core.EXACT_REGRET_MAX_PLAYERS else "monte_carlo"
    alone = regret_mixed(game, profile, mode=mode, samples=300, seed=4)
    assert auto.mode == mode
    assert auto == alone
    assert np.array(auto.regrets).tobytes() == np.array(alone.regrets).tobytes()
    assert (auto.stderrs is None) == (mode == "exact")


def test_regret_mixed_bad_mode_and_samples():
    g = constant_game(2)
    p = MixedProfile((0.5, 0.5))
    with pytest.raises(InputError):
        regret_mixed(g, p, mode="sideways")
    with pytest.raises(InputError):
        regret_mixed(g, p, mode="monte_carlo", samples=0)
    for mode in ("exact", "monte_carlo"):
        with pytest.raises(InputError, match="seed must be >= 0, got -3"):
            regret_mixed(g, p, mode=mode, seed=-3)


def test_monte_carlo_regret_memory_is_bounded():
    # Blocks are bools built in chunks: one call at n = 1000 with 20000
    # samples peaked at 157 MiB while it drew whole float64 blocks, and at
    # 32.7 MiB while it also held each block's (n, rows) transpose, and at
    # 17.8 MiB while it held each whole bool block for its count histogram;
    # the histogram is now drawn and counted 2 MB of bools at a time.
    game = bar_game(1000)
    profile = MixedProfile((0.3,) * 1000)
    tracemalloc.start()
    try:
        regret_mixed(game, profile, mode="monte_carlo", samples=20000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20


def test_count_monte_carlo_keeps_its_tallies_as_int32():
    # A block's per-count tallies are int32 (n, U); only a chunk of players
    # at a time is copied to float64. With the whole (n, U) matrix copied,
    # this call peaked at 56.4 MiB.
    game = bar_game(10**4)
    profile = MixedProfile((0.5,) * 10**4)
    tracemalloc.start()
    try:
        regret_mixed(game, profile, mode="monte_carlo", samples=16384, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2**20


def test_payoffs_are_evaluated_only_through_the_two_kernels(monkeypatch):
    # Every regret reduces the deviation kernel and every best response
    # comes from the best-response kernel; no other code reads the banks.
    callers = set()
    evaluate = core._PayoffBank.evaluate

    def recorded(self, players, z):
        callers.add(sys._getframe(1).f_code.co_name)
        return evaluate(self, players, z)

    monkeypatch.setattr(core._PayoffBank, "evaluate", recorded)
    rng = np.random.default_rng(13)
    mean, weighted = random_game(rng, 6), random_game(rng, 6, "linear")
    majority = SummGame(MajorityFraction(6), mean.payoffs)
    profile = MixedProfile(tuple(rng.uniform(size=6).tolist()))
    for game in (mean, weighted, majority):
        regret_pure(game, PureProfile((0, 1, 1, 0, 1, 0)))
        regret_mixed(game, profile)
        brute_min_epsilon(game)
        summ_nash(game, 0.5)
    for game in (mean, weighted):
        regret_mixed(game, profile, mode="monte_carlo", samples=100)
        run_summ_learn(game, LearnConfig(epsilon=0.5, delta=1e-2))
    assert callers == {"_deviation_values", "_best_responses"}
