"""Uniform step-function approximation of payoff functions.

[0, 1] is tiled by K intervals of width alpha = 1/K: I_k = [k*alpha,
(k+1)*alpha) for k < K-1, with the last interval closed at 1. A payoff
function F is approximated by the step function that takes the value
F(k*alpha) on all of I_k, which is off by at most rho_f * alpha anywhere.

Interval membership uses exact floating-point comparisons against the
boundaries k*alpha as computed in double precision; there is no epsilon
fudging, so the boundary semantics are deterministic and testable.

The solver reads only which action each player's step approximations
prefer on each interval, so a discretized game keeps those bits and not
the step values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SummGame, _chunk_players_on_row
from .errors import CapabilityError, InputError

__all__ = [
    "AlphaGrid",
    "make_grid",
    "discretize_game",
    "interval_of",
    "MAX_INTERVALS",
    "MAX_GRID_CELLS",
]

MAX_INTERVALS = 10**6

# A discretized game keeps one byte per player-interval cell, its
# best-response bit, which the V table shares; discretizing peaks at about
# 2.2 bytes per cell and building V at about 2.5 (tracemalloc at n = 150
# and 400, K = 10^4), so at this cap a discretized game stays under 10 MB.
MAX_GRID_CELLS = 4 * 10**6


@dataclass(frozen=True)
class AlphaGrid:
    """The uniform partition of [0, 1] into K intervals of width 1/K."""

    K: int

    def __post_init__(self) -> None:
        if self.K < 1:
            raise InputError("interval count must be >= 1")

    @property
    def alpha(self) -> float:
        return 1.0 / self.K

    def left_edge(self, k: int) -> float:
        return k * self.alpha

    def grid_points(self) -> np.ndarray:
        """The K left endpoints k*alpha, where step values are sampled."""
        return np.arange(self.K) * self.alpha


def make_grid(epsilon: float, rho: float) -> AlphaGrid:
    """Choose the resolution that backs an epsilon-quality guarantee.

    The target width is epsilon / (8 * rho), snapped down to 1/K with K an
    integer so the intervals tile [0, 1] exactly; shrinking alpha only
    tightens the approximation, so the guarantee is preserved. For rho = 0
    every payoff is constant and one interval suffices. More than
    ``MAX_INTERVALS`` intervals are refused.
    """
    if math.isnan(epsilon) or epsilon <= 0.0:
        raise InputError(f"epsilon must be > 0, got {epsilon}")
    if math.isnan(rho) or rho < 0.0:
        raise InputError(f"rho must be >= 0, got {rho}")
    if rho == 0.0:
        return AlphaGrid(1)
    needed = max(1, math.ceil((8.0 * rho) / epsilon))
    if needed > MAX_INTERVALS:
        raise CapabilityError(
            f"epsilon={epsilon} with rho={rho} needs {needed} intervals, "
            f"over the cap of {MAX_INTERVALS}"
        )
    return AlphaGrid(needed)


def interval_of(grid: AlphaGrid, z: float) -> int:
    """The index k of the interval containing z; z = 1 maps to K - 1.

    Resolves the unique k with k*alpha <= z < (k+1)*alpha under exact
    float comparisons (last interval closed).
    """
    if math.isnan(z) or not 0.0 <= z <= 1.0:
        raise InputError(f"value must lie in [0, 1], got {z}")
    K = grid.K
    alpha = grid.alpha
    k = min(int(z * K), K - 1)
    # int(z*K) can land one interval off the float boundaries; walk to the
    # cell whose edges actually bracket z.
    while k > 0 and k * alpha > z:
        k -= 1
    while k < K - 1 and (k + 1) * alpha <= z:
        k += 1
    return k


def discretize_game(game: SummGame, grid: AlphaGrid) -> np.ndarray:
    """Every player's preferred action on every interval of the grid.

    Returns br, a read-only, C-contiguous (K, n) bool matrix: br[k, i] is
    True exactly where F_1^i(k*alpha) > F_0^i(k*alpha), so the step
    approximations' best response to I_k takes action 1 only where it pays
    strictly more, and ties go to action 0. The step values themselves are
    neither kept nor range-checked: on validated coefficients every catalog
    formula lies in [0, 1] (a constant by its check, the others clip).

    All players form one chunk when their n*K cells fit in
    ``_CHUNK_CELLS``, so each payoff kind is one call per action; larger
    games are taken in consecutive chunks of at most
    ``_CHUNK_PLAYER_CELLS`` cells (at least one player). Each chunk is one
    payoff-bank call per action on the grid points, shared as one row, and
    leaves only its best-response bits behind. Refuses up front a game
    whose n*K cells exceed ``MAX_GRID_CELLS``."""
    n, K = game.n, grid.K
    if n * K > MAX_GRID_CELLS:
        raise CapabilityError(
            f"n={n} players on K={K} intervals make {n * K} grid "
            f"cells, over the cap of n*K <= {MAX_GRID_CELLS}"
        )
    points = grid.grid_points()[None, :]
    bank0, bank1 = game._payoff_banks()
    # Player-major while the chunks fill it, transposed once at the end:
    # writing each chunk straight into its (K, n) columns took about 30 %
    # longer at n = 150, K = 10^4.
    bits = np.empty((n, K), dtype=bool)
    width = _chunk_players_on_row(n, K)
    for start in range(0, n, width):
        players = slice(start, min(start + width, n))
        f0 = bank0.evaluate(players, points)
        bits[players] = bank1.evaluate(players, points) > f0
    br = np.ascontiguousarray(bits.T)
    br.setflags(write=False)
    return br
