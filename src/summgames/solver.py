"""Pure approximate-equilibrium solver.

The algorithm discretizes every payoff function onto an alpha grid, so
each player's preferred action is constant while the summarization value
stays inside one interval. That yields, per interval I_k, an apparent
best-response profile BR(I_k) (each player best-responds to the interval,
ignoring their own influence) and its summarization value V(I_k). Wherever
V crosses the diagonal, an approximate equilibrium sits:

* horizontal crossing: V(I_k) lands inside I_k itself, so BR(I_k) is
  self-consistent and is the answer;
* vertical crossing: V drops past the boundary k*alpha between two
  adjacent intervals. Walking bit by bit from BR(I_{k-1}) to BR(I_k)
  moves the summarization value by at most tau per flip, so some
  intermediate profile lands strictly within tau of the boundary and is
  the answer. The walk evaluates only the profiles that this bound
  leaves open, jumping past every position it rules out.

Either way the output's max regret is bounded by 3*tau*rho + epsilon; the
emitted certificate states that bound and carries regrets recomputed by
the independent regret oracle, never the solver's own bookkeeping.

As V(I_0) >= 0 and V(I_{K-1}) <= 1, bisection finds a crossing in at most
ceil(log2 K) + 2 reads of V. Ties go to action 0 and the walk flips bits in
ascending player order, so identical inputs produce identical outputs.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cache, partial
from typing import Union

import numpy as np
from numpy.typing import ArrayLike

from .core import MixedProfile, PureProfile, SummGame, regret_pure
from .discretization import AlphaGrid, _probe, discretize_game, interval_of, make_grid
from .errors import ContractError, InputError

__all__ = [
    "VTable",
    "Horizontal",
    "Vertical",
    "Learned",
    "EquilibriumCertificate",
    "build_v_table",
    "find_horizontal",
    "find_vertical_and_walk",
    "summ_nash",
]


class BestResponses(Sequence):
    """BR(I_0), ..., BR(I_{K-1}) as a read-only sequence over a (K, n) 0/1
    matrix. Reading row k builds a validated ``PureProfile`` of it; nothing
    is kept between reads."""

    def __init__(self, bits: np.ndarray) -> None:
        self._bits = bits

    def __len__(self) -> int:
        return len(self._bits)

    def __getitem__(self, k: int) -> PureProfile:
        return PureProfile(tuple(self._bits[k].tolist()))


@dataclass(frozen=True)
class VTable:
    """Per-interval apparent best responses and their summarization values.

    br[k] is the profile of per-player favorite actions when the
    summarization value sits in interval k; v[k] = S(br[k]) as a tuple of
    floats. br may be any sequence of profiles; ``build_v_table`` fills it
    with one that builds a profile from its best-response matrix on every
    read.
    """

    grid: AlphaGrid
    br: Sequence[PureProfile]
    v: tuple[float, ...]


@dataclass(frozen=True)
class Horizontal:
    """V(I_k) fell inside I_k itself."""

    k: int


@dataclass(frozen=True)
class Vertical:
    """V dropped past the boundary k*alpha; the walk stopped at this position."""

    k: int
    walk_position: int


@dataclass(frozen=True)
class Learned:
    """The profile came from the learning dynamics, not a crossing search."""


Crossing = Union[Horizontal, Vertical, Learned]


@dataclass(frozen=True)
class EquilibriumCertificate:
    """A strategy profile together with its claimed equilibrium quality.

    ``regrets`` comes from the independent regret computation on the
    profile. Emitters verify max(regrets) <= epsilon_claimed before
    handing a certificate out; the type itself stays permissive so that
    untrusted (possibly tampered) certificates can be represented and fed
    to the validation oracle. ``stderrs`` is present when the regrets were
    estimated by Monte Carlo.
    """

    profile: Union[PureProfile, MixedProfile]
    epsilon_claimed: float
    regrets: tuple[float, ...]
    crossing: Crossing
    stderrs: tuple[float, ...] | None = None

    @property
    def max_regret(self) -> float:
        return max(self.regrets)


def build_v_table(
    game: SummGame, grid: AlphaGrid, br: np.ndarray | None = None
) -> VTable:
    """Tabulate BR(I_k) and V(I_k) = S(BR(I_k)) for every interval.

    BR(I_k) is row k of ``br``, the (K, n) best-response matrix that
    ``discretize_game(game, grid)`` returns (see there for the tie rule),
    computed here when not given. The matrix is shared, not copied,
    behind a ``BestResponses`` sequence, and V is S's batch evaluation of
    it, so V(I_k) equals ``evaluate(br[k])`` bit for bit.
    """
    if br is None:
        br = discretize_game(game, grid)
    elif br.shape != (grid.K, game.n):
        raise InputError(
            f"best-response matrix has shape {br.shape}, expected "
            f"(K, n) = ({grid.K}, {game.n})"
        )
    summ = game.summarization
    values = summ.batch_value(summ.batch_state(br))
    return VTable(grid, BestResponses(br), tuple(values.tolist()))


def _checked_v(table: VTable) -> np.ndarray:
    v = np.asarray(table.v, dtype=np.float64)
    # min/max propagate NaN, which then fails the comparison.
    if not (0.0 <= v.min() and v.max() <= 1.0):
        raise InputError("V table values must lie in [0, 1]")
    return v


def _search(grid: AlphaGrid, value: Callable[[int], float]) -> tuple[int, bool]:
    """Bisect for a crossing of V, read as ``value(k)`` in [0, 1]: (k, True)
    if V(I_k) lies inside I_k by ``interval_of``'s float comparisons, else
    (k, False) with V(I_{k-1}) >= k*alpha > V(I_k). V(I_0) is never below
    I_0 nor V(I_{K-1}) above I_{K-1}; at most ceil(log2 K) + 2 reads."""

    def side(k: int) -> int:  # -1 below I_k, 1 above it, 0 inside
        j = interval_of(grid, value(k))
        return (j > k) - (j < k)

    lo, hi = 0, grid.K - 1
    for k in (lo, hi):
        if side(k) == 0:
            return k, True
    while hi - lo > 1:
        mid = (lo + hi) // 2
        where = side(mid)
        if where == 0:
            return mid, True
        lo, hi = (mid, hi) if where > 0 else (lo, mid)
    return hi, False


def find_horizontal(table: VTable) -> int | None:
    """The k of the horizontal crossing ``_search`` finds in the table, else None."""
    k, inside = _search(table.grid, _checked_v(table).__getitem__)
    return k if inside else None


def _walk(
    game: SummGame, start: ArrayLike, goal: ArrayLike, boundary: float
) -> tuple[int, PureProfile]:
    """Flip start's 0/1 actions toward goal's (ascending player order) and
    return the first profile whose summarization value is strictly within
    tau of the boundary. Position 0 is the unflipped start.

    Each visited position is evaluated alone, then the walk jumps past
    every position the flips in between cannot bring within tau: the first
    q flips move S by at most reach[q], the sum of their weights under a
    linear S and q*tau otherwise. The result is the flip-by-flip scan's.
    """
    tau = game.tau
    summ = game.summarization
    profile = np.array(start, dtype=bool)
    flips = np.flatnonzero(profile != np.asarray(goal, dtype=bool))
    if summ.is_linear:
        reach = np.concatenate(([0.0], np.cumsum(np.asarray(summ.weights)[flips])))
    else:
        # Each q*tau is rounded once; a running sum of tau would drift.
        reach = np.arange(flips.size + 1) * tau
    # Rounding: each evaluated value and each reach entry sums at most n
    # terms totalling at most 1 + 1e-12, so it is off by at most n*eps/2;
    # two values and two reach entries give 2*n*eps, and forming the jump
    # target adds a few eps more, within 4*n*eps for every n >= 1.
    slack = 4 * game.n * np.finfo(np.float64).eps
    flipped = position = 0
    while position <= flips.size:
        profile[flips[flipped:position]] ^= True
        flipped = position
        gap = abs(summ.evaluate(profile) - boundary)
        if gap < tau:
            return position, PureProfile(tuple(profile.tolist()))
        # Position q can land within tau only if reach[q] - reach[position] > gap - tau.
        jump = np.searchsorted(reach, reach[position] + gap - tau - slack, side="right")
        position = max(position + 1, int(jump))
    raise ContractError(
        "no profile on the best-response walk came within tau of the "
        "crossing boundary: an internal invariant broke, as the crossing "
        "search leaves the walk's ends on either side of it"
    )


def find_vertical_and_walk(
    game: SummGame, table: VTable
) -> tuple[int, int, PureProfile]:
    """Resolve the vertical crossing k that ``_search`` finds in the table
    (an InputError if it finds a horizontal one) to a single profile.

    Walks from BR(I_{k-1}) toward BR(I_k) to the first profile strictly
    within tau of the boundary k*alpha, evaluating only the positions the
    influence bound leaves open. Returns (k, walk position, profile).
    """
    k, inside = _search(table.grid, _checked_v(table).__getitem__)
    if inside:
        raise InputError(f"the crossing search found a horizontal one, k={k}")
    start, goal = table.br[k - 1], table.br[k]
    if start == goal:
        raise ContractError(
            "vertical crossing with identical best-response profiles on both "
            "sides; V cannot drop across the boundary in that case"
        )
    position, profile = _walk(game, start.actions, goal.actions, table.grid.left_edge(k))
    return k, position, profile


def summ_nash(game: SummGame, epsilon: float) -> EquilibriumCertificate:
    """Compute a pure profile whose max regret is at most 3*tau*rho + epsilon.

    BR(I_k) and V(I_k) come from ``_probe``, evaluated only for the
    intervals ``_search`` reads: O(n log K) payoff evaluations.

    The certificate's regrets are recomputed independently rather than
    taken from the crossing analysis. The horizontal case actually
    satisfies the tighter tau*rho + epsilon/2; the certificate reports the
    uniform worst-case bound and callers can recover the tighter one from
    the crossing field.
    """
    grid = make_grid(epsilon, game.rho)
    probe = cache(partial(_probe, game, grid))
    k, inside = _search(grid, lambda k: probe(k)[1])
    crossing: Crossing
    if inside:
        profile = PureProfile(tuple(probe(k)[0].tolist()))
        crossing = Horizontal(k)
    else:
        position, profile = _walk(game, probe(k - 1)[0], probe(k)[0], grid.left_edge(k))
        crossing = Vertical(k, position)
    regrets = regret_pure(game, profile)
    claimed = 3.0 * game.tau * game.rho + epsilon
    if max(regrets) > claimed:
        raise ContractError(
            f"solver output has regret {max(regrets)}, above the guaranteed "
            f"{claimed}: an internal invariant of the crossing analysis broke"
        )
    return EquilibriumCertificate(profile, claimed, regrets, crossing)
