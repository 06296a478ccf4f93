"""Crossing search, walk resolution, and end-to-end solver guarantees."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bar_game, consensus_game, constant_game, discretize, random_game
from summgames import (
    AlphaGrid,
    BestResponses,
    ContractError,
    Horizontal,
    InputError,
    Mean,
    PureProfile,
    VTable,
    Vertical,
    build_v_table,
    discretize_game,
    find_horizontal,
    find_vertical_and_walk,
    interval_of,
    make_grid,
    regret_pure,
    summ_nash,
)
from summgames import discretization, solver
from summgames.documents import write_vtable


def _bar_table(n=4, K=4):
    game = bar_game(n)
    grid = AlphaGrid(K)
    br = discretize_game(game, grid)
    return game, grid, br, build_v_table(game, grid, br)


# ---------------------------------------------------------------------------
# Apparent best responses and the V table
# ---------------------------------------------------------------------------


def test_apparent_br_tie_goes_to_action_zero():
    game = constant_game(4)
    table = build_v_table(game, AlphaGrid(4))
    for k in range(4):
        assert table.br[k].actions == (0, 0, 0, 0)


def test_apparent_br_bar_game():
    _, _, _, table = _bar_table()
    assert table.br[0].actions == (1, 1, 1, 1)
    # At k=2 the step payoffs tie at 0.5, so the tie rule picks action 0.
    assert table.br[2].actions == (0, 0, 0, 0)


def test_v_table_bar_game():
    _, _, _, table = _bar_table()
    assert table.v == (1.0, 1.0, 0.0, 0.0)


def test_v_table_constant_game():
    game = constant_game(3, 0.2, 0.2)
    table = build_v_table(game, AlphaGrid(5))
    assert table.v == (0.0,) * 5


def test_v_table_consensus_game():
    # With F1 = z and F0 = 1 - z, action 0 wins below the midpoint (and on
    # the midpoint tie), so V is 0 on the lower intervals and 1 above.
    game = consensus_game(4)
    table = build_v_table(game, AlphaGrid(4))
    assert table.v == (0.0, 0.0, 0.0, 1.0)


def test_v_table_rows_export(tmp_path):
    _, _, _, table = _bar_table()
    path = tmp_path / "vtable.tsv"
    write_vtable(str(path), table)
    assert path.read_text() == (
        "# alpha=0.25 K=4\n0.0\t1.0\n0.25\t1.0\n0.5\t0.0\n0.75\t0.0\n"
    )


def test_v_table_shares_a_best_response_matrix_of_its_grid():
    game, grid, br, table = _bar_table()
    assert table.br._bits is br
    for shape in ((grid.K, game.n + 1), (grid.K - 1, game.n), (grid.K * game.n,)):
        with pytest.raises(InputError, match=r"\(K, n\) = \(4, 4\)"):
            build_v_table(game, grid, np.zeros(shape, dtype=bool))


# ---------------------------------------------------------------------------
# Crossing search
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(K=st.one_of(st.integers(1, 40), st.integers(1, 10**6)), data=st.data())
def test_search_finds_a_crossing_in_logarithmically_many_reads(K, data):
    # Each V(I_k) is drawn when first read, so any V in [0, 1]^K can come
    # up; values sit on, just below or just above an edge of I_k often.
    grid = AlphaGrid(K)
    values = {}

    def near_edges(k):
        edge = st.integers(k, k + 1).map(lambda j: min(1.0, j * grid.alpha))
        return st.one_of(
            st.floats(0.0, 1.0),
            edge,
            edge.map(lambda e: max(0.0, float(np.nextafter(e, 0.0)))),
            edge.map(lambda e: min(1.0, float(np.nextafter(e, 1.0)))),
        )

    def value(k):
        assert k not in values
        values[k] = data.draw(near_edges(k))
        return values[k]

    k, inside = solver._search(grid, value)
    assert len(values) <= math.ceil(math.log2(K)) + 2
    if inside:
        assert interval_of(grid, values[k]) == k
    else:
        # V(I_{k-1}) >= k*alpha > V(I_k).
        assert 0 < k < K
        assert interval_of(grid, values[k - 1]) >= k > interval_of(grid, values[k])


def test_summ_nash_reads_logarithmically_many_intervals(monkeypatch):
    def refused(*args):
        raise AssertionError("summ_nash built the (K, n) table")

    monkeypatch.setattr(solver, "discretize_game", refused)
    monkeypatch.setattr(solver, "build_v_table", refused)
    points = []
    best_responses = discretization._best_responses

    def counted(game, at):
        points.extend(at)
        return best_responses(game, at)

    monkeypatch.setattr(discretization, "_best_responses", counted)
    rng = np.random.default_rng(4242)
    for game in (bar_game(20), random_game(rng, 20, "linear"), random_game(rng, 20, "mean")):
        for epsilon in (0.5, 0.01, 2e-4):
            points.clear()
            K = make_grid(epsilon, game.rho).K
            cert = summ_nash(game, epsilon)
            assert 1 <= len(points) <= math.ceil(math.log2(K)) + 2
            assert len(set(points)) == len(points)
            assert cert.max_regret <= cert.epsilon_claimed


def test_find_horizontal_absent_for_bar_game():
    _, _, _, table = _bar_table()
    assert find_horizontal(table) is None


def test_find_horizontal_consensus_and_constant():
    assert find_horizontal(build_v_table(consensus_game(4), AlphaGrid(4))) == 0
    assert find_horizontal(build_v_table(constant_game(3), AlphaGrid(5))) == 0


def test_vertical_walk_bar4():
    game, _, _, table = _bar_table()
    k, position, profile = find_vertical_and_walk(game, table)
    assert k == 2
    # Walk values run 1, 0.75, 0.5, ...; with the strict threshold the
    # first value within tau=0.25 of the boundary 0.5 is 0.5 itself.
    assert position == 2
    assert profile.actions == (0, 0, 1, 1)
    assert regret_pure(game, profile) == (0.0, 0.0, 0.0, 0.0)


def test_vertical_walk_bar100():
    game = bar_game(100)
    table = build_v_table(game, AlphaGrid(4))
    k, position, profile = find_vertical_and_walk(game, table)
    assert k == 2
    assert position == 50
    assert sum(profile.actions) == 50
    assert game.summarization.evaluate(profile.actions) == 0.5


def test_vertical_walk_at_scale_evaluates_few_rows(monkeypatch):
    # The bar walk at n = 10**5 stops half way, at position 49999. Each flip
    # moves S by 1/n, so the walk can jump straight there from a row or two.
    game = bar_game(10**5)
    assert summ_nash(game, 0.5).crossing == Vertical(8, 49999)
    table = build_v_table(game, make_grid(0.5, game.rho))
    rows = []
    batch_state = Mean.batch_state

    def counting_batch_state(self, bits):
        rows.append(len(bits))
        return batch_state(self, bits)

    monkeypatch.setattr(Mean, "batch_state", counting_batch_state)
    k, position, profile = find_vertical_and_walk(game, table)
    assert (k, position) == (8, 49999)
    assert sum(profile.actions) == 10**5 - 49999
    assert sum(rows) <= 3


def test_walk_under_an_understated_influence_is_contract_error():
    # The fake table's rows do not give its values: the walk from 1111 to
    # 1110 takes S through 1.0 and 0.75, never within tau = 0.25 of the
    # edge 0.25, which a table built from the game cannot do.
    game = bar_game(4)
    start, rest = PureProfile((1, 1, 1, 1)), PureProfile((1, 1, 1, 0))
    fake = VTable(AlphaGrid(4), (start, rest, rest, rest), (1.0, 0.0, 0.0, 0.0))
    with pytest.raises(ContractError, match="within tau of the crossing boundary"):
        find_vertical_and_walk(game, fake)


def test_vertical_walk_degenerate_equal_brs_is_contract_error():
    game = bar_game(2)
    grid = AlphaGrid(2)
    prof = PureProfile((1, 1))
    fake = VTable(grid, (prof, prof), (1.0, 0.0))
    with pytest.raises(ContractError):
        find_vertical_and_walk(game, fake)


def test_vertical_walk_boundary_equality_fallback():
    # v[0] equals the boundary exactly: the strict scan misses it, the
    # relaxed scan must still resolve the crossing.
    game = bar_game(2)
    grid = AlphaGrid(2)
    y = PureProfile((0, 1))   # S = 0.5, exactly the k=1 edge
    z = PureProfile((0, 0))   # S = 0.0
    fake = VTable(grid, (y, z), (0.5, 0.0))
    k, position, profile = find_vertical_and_walk(game, fake)
    assert k == 1
    assert position == 0
    assert profile == y


# ---------------------------------------------------------------------------
# End-to-end solver
# ---------------------------------------------------------------------------


def test_summ_nash_bar4_exact_equilibrium():
    game = bar_game(4)
    cert = summ_nash(game, 2.0)
    assert isinstance(cert.crossing, Vertical)
    assert cert.profile.actions == (0, 0, 1, 1)
    assert cert.regrets == (0.0, 0.0, 0.0, 0.0)
    assert cert.epsilon_claimed == pytest.approx(3 * 0.25 * 1.0 + 2.0)


def test_summ_nash_consensus_exact_equilibrium():
    cert = summ_nash(consensus_game(4), 2.0)
    assert isinstance(cert.crossing, Horizontal)
    assert cert.profile.actions == (0, 0, 0, 0)
    assert cert.regrets == (0.0, 0.0, 0.0, 0.0)


def test_summ_nash_constant_game_all_zeros():
    cert = summ_nash(constant_game(6), 1.0)
    assert cert.profile.actions == (0,) * 6
    assert cert.regrets == (0.0,) * 6


def test_summ_nash_deterministic():
    rng = np.random.default_rng(8)
    game = random_game(rng, 12, "linear")
    a = summ_nash(game, 0.3)
    b = summ_nash(game, 0.3)
    assert a.profile == b.profile
    assert a.regrets == b.regrets
    assert a.crossing == b.crossing


def test_summ_nash_randomized_guarantee_and_totality():
    rng = np.random.default_rng(99)
    for _ in range(30):
        n = int(rng.integers(2, 20))
        kind = "mean" if rng.uniform() < 0.5 else "linear"
        game = random_game(rng, n, kind)
        epsilon = float(rng.choice([0.5, 0.25, 0.1]))
        cert = summ_nash(game, epsilon)
        bound = 3.0 * game.tau * game.rho + epsilon
        assert cert.max_regret <= bound
        assert isinstance(cert.crossing, (Horizontal, Vertical))
        # Independent recomputation equals the certificate's regrets.
        assert regret_pure(game, cert.profile) == cert.regrets
        if isinstance(cert.crossing, Horizontal):
            # Tighter horizontal-case bound (step error twice, lifted once).
            alpha = make_grid(epsilon, game.rho).alpha
            assert cert.max_regret <= game.tau * game.rho + 4.0 * game.rho * alpha


def test_summ_nash_epsilon_validation():
    with pytest.raises(Exception):
        summ_nash(bar_game(2), 0.0)


@pytest.mark.parametrize("bad", [1.25, -0.5, float("nan")])
def test_find_horizontal_rejects_v_outside_unit_interval(bad):
    grid = AlphaGrid(4)
    prof = PureProfile((0,))
    with pytest.raises(InputError):
        find_horizontal(VTable(grid, (prof,) * 4, (0.9, bad, 0.6, 0.9)))


def test_best_responses_are_built_once_on_read():
    game, grid, _, table = _bar_table(n=5, K=8)
    assert isinstance(table.br, BestResponses)
    assert len(table.br) == grid.K
    steps = [(discretize(f0, grid), discretize(f1, grid)) for f0, f1 in game.payoffs]
    for k in range(grid.K):
        assert table.br[k] is table.br[k]
        assert table.br[k].actions == tuple(
            int(s1.at_index(k) > s0.at_index(k)) for s0, s1 in steps
        )
    assert table.br[-1] is table.br[grid.K - 1]
    assert list(table.br) == [table.br[k] for k in range(grid.K)]
    with pytest.raises(IndexError):
        table.br[grid.K]


def test_vertical_scan_relaxed_on_an_exact_edge_among_several_intervals():
    # Edges 0, .25, .5, .75. No V value lies in its own interval, and no
    # strict drop exists: the only drop starts exactly on the edge 0.5.
    game = bar_game(4)
    grid = AlphaGrid(4)
    y = PureProfile((0, 0, 1, 1))  # S = 0.5 = 2 * alpha
    z = PureProfile((0, 0, 0, 0))  # S = 0
    table = VTable(grid, (y, y, z, z), (0.3, 2 * grid.alpha, 0.0, 0.0))
    assert find_horizontal(table) is None
    assert find_vertical_and_walk(game, table) == (2, 0, y)
