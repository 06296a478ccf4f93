"""Uniform step-function approximation of payoff functions.

[0, 1] is tiled by K intervals of width alpha = 1/K: I_k = [k*alpha,
(k+1)*alpha) for k < K-1, with the last interval closed at 1. A payoff
function F is approximated by the step function that takes the value
F(k*alpha) on all of I_k, which is off by at most rho_f * alpha anywhere.

Interval membership uses exact floating-point comparisons against the
boundaries k*alpha as computed in double precision; there is no epsilon
fudging, so the boundary semantics are deterministic and testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Payoff, SummGame, _chunk_players
from .errors import CapabilityError, InputError

__all__ = [
    "AlphaGrid",
    "StepPayoff",
    "StepTable",
    "make_grid",
    "discretize",
    "discretize_game",
    "interval_of",
    "DEFAULT_MAX_INTERVALS",
    "MAX_GRID_CELLS",
]

DEFAULT_MAX_INTERVALS = 10**6

# The two float64 step arrays and the V table's boolean best-response
# matrix hold about 17 bytes per player-interval cell, and building V peaks
# at about 25 (tracemalloc at n = 150 and 400, K = 10^4), so this cap keeps
# a discretized game near 100 MB.
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


def make_grid(
    epsilon: float, rho: float, max_intervals: int = DEFAULT_MAX_INTERVALS
) -> AlphaGrid:
    """Choose the resolution that backs an epsilon-quality guarantee.

    The target width is epsilon / (8 * rho), snapped down to 1/K with K an
    integer so the intervals tile [0, 1] exactly; shrinking alpha only
    tightens the approximation, so the guarantee is preserved. For rho = 0
    every payoff is constant and one interval suffices.
    """
    if math.isnan(epsilon) or epsilon <= 0.0:
        raise InputError(f"epsilon must be > 0, got {epsilon}")
    if math.isnan(rho) or rho < 0.0:
        raise InputError(f"rho must be >= 0, got {rho}")
    if rho == 0.0:
        return AlphaGrid(1)
    needed = max(1, math.ceil((8.0 * rho) / epsilon))
    if needed > max_intervals:
        raise CapabilityError(
            f"epsilon={epsilon} with rho={rho} needs {needed} intervals, "
            f"over the cap of {max_intervals}"
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


@dataclass(frozen=True)
class StepPayoff:
    """A payoff function frozen to one value per grid interval."""

    grid: AlphaGrid
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.grid.K:
            raise InputError(
                f"{len(self.values)} step values for K={self.grid.K} intervals"
            )
        if any(not 0.0 <= v <= 1.0 for v in self.values):
            raise InputError("step values must lie in [0, 1]")

    def at_index(self, k: int) -> float:
        return self.values[k]

    def evaluate(self, z: float) -> float:
        return self.values[interval_of(self.grid, z)]


def discretize(fn: Payoff, grid: AlphaGrid) -> StepPayoff:
    """Sample fn at the K left endpoints; exactly K evaluations."""
    values = fn.evaluate_array(grid.grid_points())
    return StepPayoff(grid, tuple(float(v) for v in values))


@dataclass(frozen=True, eq=False)
class StepTable:
    """Every player's two payoff functions frozen onto one grid.

    f0[i, k] and f1[i, k] are F_0^i(k*alpha) and F_1^i(k*alpha), the values
    ``discretize`` gives one function at a time, held as read-only (n, K)
    float64 arrays.
    """

    grid: AlphaGrid
    f0: np.ndarray
    f1: np.ndarray


def discretize_game(game: SummGame, grid: AlphaGrid) -> StepTable:
    """Step approximations of all 2n payoff functions as one ``StepTable``.

    The game's payoff banks evaluate the grid points with one call per
    payoff kind and action, split into pieces of a kind's players of at
    most ``_CHUNK_PLAYER_CELLS`` cells (at least one player). Refuses up
    front a game whose n*K cells exceed ``MAX_GRID_CELLS``."""
    cells = game.n * grid.K
    if cells > MAX_GRID_CELLS:
        raise CapabilityError(
            f"n={game.n} players on K={grid.K} intervals make {cells} grid "
            f"cells, over the cap of n*K <= {MAX_GRID_CELLS}"
        )
    # One row of points, shared by every member of a group.
    points = grid.grid_points()[None, :]
    tables = np.empty((2, game.n, grid.K))
    width = _chunk_players(grid.K)
    for table, bank in zip(tables, game._payoff_banks()):
        for group in bank.groups:
            for lo in range(0, len(group.members), width):
                piece = slice(lo, lo + width)
                table[group.index[piece]] = group.formula(
                    *(column[piece] for column in group.columns), points
                )
    # min/max propagate NaN, which then fails the comparison.
    if not (0.0 <= tables.min() and tables.max() <= 1.0):
        raise InputError("step values must lie in [0, 1]")
    tables.setflags(write=False)
    return StepTable(grid, tables[0], tables[1])
