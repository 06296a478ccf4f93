"""Game model: profiles, summarization functions, payoff catalog, regrets.

A game has n players, each choosing a binary action. The population's joint
play is aggregated by a summarization function S into a single value in
[0, 1], and player i's payoff for action b is F_b^i(z) where z is the
summarization value that results when i plays b. Two bounds parameterize
every guarantee in this library:

* ``tau``  -- the influence bound: the largest change any single player can
  cause in the summarization value by switching their own action.
* ``rho``  -- the derivative bound: a bound on |F'| over all 2n payoff
  functions.

Mixed strategies store ``probs[i] = P(player i plays action 1)``, so a pure
profile embeds as a mixed profile with the same 0/1 entries.

Payoff functions form a closed catalog (constant, affine, quadratic,
piecewise linear) so that derivative bounds are computed exactly rather
than declared. Custom summarizations are allowed but must declare their
influence bound, which is verifiable by brute force for small n.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import CapabilityError, ContractError, InputError

__all__ = [
    "PureProfile",
    "MixedProfile",
    "Summarization",
    "Mean",
    "LinearWeighted",
    "MajorityFraction",
    "CustomSummarization",
    "Payoff",
    "Constant",
    "Affine",
    "Quadratic",
    "PiecewiseLinear",
    "SummGame",
    "MixedRegret",
    "eval_summarization",
    "influence_of",
    "payoff",
    "regret_pure",
    "regret_mixed",
]

# Exact influence computation enumerates 2^(n-1) opponent settings; beyond
# this cap only declared bounds are available.
EXACT_INFLUENCE_MAX_PLAYERS = 20

# Exact mixed-strategy regret enumerates all 2^n profiles.
EXACT_REGRET_MAX_PLAYERS = 20

# Rows per block when enumerating or sampling profiles with numpy. Monte
# Carlo sums its gains block by block, so this is also its summation unit.
_BATCH_ROWS = 1 << 14

# A block is a (rows, n) bool matrix; the summarization state is built from
# float64 copies of at most this many cells at a time (2 MB), and Monte
# Carlo draws its uniforms in chunks of the same size.
_CHUNK_CELLS = 1 << 18

# From this many rows up, the payoff a player receives is picked with a
# branch-free bitwise select, which costs a fixed few microseconds more
# than ``np.where`` but does not slow down on unpredictable masks (at
# 16384 random rows: 38 against 133 microseconds).
_BITWISE_SELECT_ROWS = 1024


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PureProfile:
    """A joint pure action: one 0/1 entry per player."""

    actions: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.actions) < 1:
            raise InputError("a profile needs at least one player")
        if any(a not in (0, 1) for a in self.actions):
            raise InputError("pure actions must be exactly 0 or 1")
        object.__setattr__(self, "actions", tuple(int(a) for a in self.actions))

    @property
    def n(self) -> int:
        return len(self.actions)

    def with_action(self, i: int, b: int) -> "PureProfile":
        """The same profile with player i's action replaced by b."""
        if not 0 <= i < self.n:
            raise InputError(f"player index {i} out of range for n={self.n}")
        if b not in (0, 1):
            raise InputError("action must be 0 or 1")
        if self.actions[i] == b:
            return self
        acts = list(self.actions)
        acts[i] = b
        return PureProfile(tuple(acts))

    def as_mixed(self) -> "MixedProfile":
        """Embed as the degenerate mixed profile with the same 0/1 entries."""
        return MixedProfile(tuple(float(a) for a in self.actions))


@dataclass(frozen=True)
class MixedProfile:
    """A joint mixed strategy: probs[i] = P(player i plays action 1)."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.probs) < 1:
            raise InputError("a profile needs at least one player")
        probs = tuple(float(p) for p in self.probs)
        if any(math.isnan(p) or p < 0.0 or p > 1.0 for p in probs):
            raise InputError("mixed-strategy probabilities must lie in [0, 1]")
        object.__setattr__(self, "probs", probs)

    @property
    def n(self) -> int:
        return len(self.probs)

    def is_pure(self) -> bool:
        return all(p in (0.0, 1.0) for p in self.probs)

    def to_pure(self) -> PureProfile:
        if not self.is_pure():
            raise InputError("profile has fractional probabilities")
        return PureProfile(tuple(int(p) for p in self.probs))


def _profile_bits(codes: np.ndarray, n: int) -> np.ndarray:
    """Decode profile codes into a (rows, n) bool matrix.

    Player 0 occupies the most significant bit, so ascending codes enumerate
    profiles in lexicographic action order.
    """
    masks = np.left_shift(1, np.arange(n - 1, -1, -1, dtype=np.int64))
    return (codes[:, None] & masks) != 0


# ---------------------------------------------------------------------------
# Summarization functions
# ---------------------------------------------------------------------------


class Summarization:
    """Aggregates a joint pure play into a single value in [0, 1].

    Subclasses provide per-player influence and one arithmetic path, the
    batch protocol, over a (rows, n) 0/1 float matrix of profiles:
    ``batch_state`` builds a per-row intermediate, an array whose first
    axis is the rows, ``batch_value`` maps it to summarization values, and
    ``batch_deviation(state, x, i)``, given player i's 0/1 column x (bool
    or float), yields the values after forcing i to 0 and to 1. A row's
    state must not depend on the other rows of the batch, so ``evaluate``
    -- that path on one row -- agrees bit for bit with every row-major
    batch containing the same profile, and a block's state may be built
    from row chunks and concatenated.
    """

    n: int
    is_linear: bool = False

    def evaluate(self, actions: Sequence[int]) -> float:
        self._check_arity(actions)
        bits = np.asarray(actions, dtype=np.float64)[None, :]
        return float(self.batch_value(self.batch_state(bits))[0])

    def influence(self, i: int) -> float:
        """The largest |S(x with i playing 0) - S(x with i playing 1)|."""
        raise NotImplementedError

    def influence_bound(self) -> float:
        return max(self.influence(i) for i in range(self.n))

    def _check_arity(self, actions: Sequence[int]) -> None:
        if len(actions) != self.n:
            raise InputError(
                f"profile has {len(actions)} players, summarization expects {self.n}"
            )

    # Batch protocol (rows are profiles, columns are players).

    def batch_state(self, bits: np.ndarray):
        raise NotImplementedError

    def batch_value(self, state) -> np.ndarray:
        raise NotImplementedError

    def batch_deviation(self, state, x: np.ndarray, i: int):
        raise NotImplementedError


def _exact_influence(summ: Summarization, i: int) -> float:
    """Exhaustive influence of player i over all 2^(n-1) opponent settings."""
    n = summ.n
    if n > EXACT_INFLUENCE_MAX_PLAYERS:
        raise CapabilityError(
            f"exact influence enumeration is capped at n <= "
            f"{EXACT_INFLUENCE_MAX_PLAYERS} (got n={n})"
        )
    worst = 0.0
    for others in itertools.product((0, 1), repeat=n - 1):
        acts = list(others[:i]) + [0] + list(others[i:])
        low = summ.evaluate(tuple(acts))
        acts[i] = 1
        high = summ.evaluate(tuple(acts))
        worst = max(worst, abs(low - high))
    return worst


class _LinearBase(Summarization):
    """Summarizations of the form sum_i w_i x_i; subclasses expose the
    weight vector as ``weights``."""

    is_linear = True
    weights: tuple[float, ...]

    def influence(self, i: int) -> float:
        if not 0 <= i < self.n:
            raise InputError(f"player index {i} out of range for n={self.n}")
        return self.weights[i]


class _CountBase(Summarization):
    """Summarizations that depend only on the number of players playing 1.

    The state is that count, an exact integer in float64, so a deviation's
    count is exact and its value is the float that evaluating the deviated
    profile gives.
    """

    def _of_count(self, ones: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def batch_state(self, bits: np.ndarray) -> np.ndarray:
        return bits.sum(axis=1)

    def batch_value(self, state: np.ndarray) -> np.ndarray:
        return self._of_count(state)

    def batch_deviation(self, state: np.ndarray, x: np.ndarray, i: int):
        ones_lo = state - x
        return self._of_count(ones_lo), self._of_count(ones_lo + 1.0)


@dataclass(frozen=True)
class Mean(_CountBase, _LinearBase):
    """The vote fraction: every player carries weight 1/n."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError("player count must be >= 1")

    @property
    def weights(self) -> tuple[float, ...]:
        return (1.0 / self.n,) * self.n

    def _of_count(self, ones: np.ndarray) -> np.ndarray:
        return ones / self.n


@dataclass(frozen=True)
class LinearWeighted(_LinearBase):
    """Weighted vote sum_i w_i x_i with nonnegative weights summing to <= 1.

    With ``normalize=True`` the weights are rescaled to sum to exactly 1;
    otherwise a weight vector whose sum exceeds 1 is rejected, since the
    summarization value must stay in [0, 1].
    """

    weights: tuple[float, ...]
    normalize: bool = False
    _w: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ws = tuple(float(w) for w in self.weights)
        if len(ws) < 1:
            raise InputError("at least one weight is required")
        if any(math.isnan(w) or w < 0.0 for w in ws):
            raise InputError("weights must be nonnegative numbers")
        total = math.fsum(ws)
        if self.normalize:
            if total <= 0.0:
                raise InputError("cannot normalize an all-zero weight vector")
            ws = tuple(w / total for w in ws)
        elif total > 1.0 + 1e-12:
            raise InputError(
                f"weights sum to {total}, which exceeds 1; pass normalize=True "
                "to rescale"
            )
        w = np.array(ws)
        w.setflags(write=False)
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "_w", w)

    @property
    def n(self) -> int:
        return len(self.weights)

    # einsum reduces each row on its own, so a row's sum does not depend on
    # the batch it sits in; a BLAS matrix-vector product does not promise
    # that.
    def batch_state(self, bits: np.ndarray) -> np.ndarray:
        return np.einsum("ij,j->i", bits, self._w)

    def batch_value(self, state: np.ndarray) -> np.ndarray:
        return np.clip(state, 0.0, 1.0)

    def batch_deviation(self, state: np.ndarray, x: np.ndarray, i: int):
        w = self.weights[i]
        lo = state - w * x
        return np.clip(lo, 0.0, 1.0), np.clip(lo + w, 0.0, 1.0)


@dataclass(frozen=True)
class MajorityFraction(_CountBase):
    """The fraction of players currently playing the majority action.

    Reports only how large the majority is, not which action it is, so the
    value never drops below 1/2 (for n >= 2).
    """

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError("player count must be >= 1")

    def influence(self, i: int) -> float:
        if not 0 <= i < self.n:
            raise InputError(f"player index {i} out of range for n={self.n}")
        if self.n <= EXACT_INFLUENCE_MAX_PLAYERS:
            return self._exact_influence_symmetric()
        # One flip moves the majority count by at most one; the maximum is
        # attained whenever the flip does not cross an odd-n tie, so the
        # influence is exactly 1/n for every player (0 for the trivial n=1).
        return 0.0 if self.n == 1 else 1.0 / self.n

    def _exact_influence_symmetric(self) -> float:
        # Symmetric function: enumerate opponent one-counts once.
        n = self.n
        worst = 0.0
        for c in range(n):
            low = max(c, n - c) / n
            high = max(c + 1, n - c - 1) / n
            worst = max(worst, abs(low - high))
        return worst

    def _of_count(self, ones: np.ndarray) -> np.ndarray:
        return np.maximum(ones, self.n - ones) / self.n


@dataclass(frozen=True)
class CustomSummarization(Summarization):
    """A black-box summarization with a declared influence bound.

    The evaluator must map any length-n 0/1 tuple into [0, 1]. Exact
    influence is exponential to compute, so the declared bound stands in
    for it; for n <= 20 the declaration can be checked by brute force
    (see ``influence_of``).
    """

    evaluator: Callable[[tuple[int, ...]], float]
    n: int
    declared_influence: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError("player count must be >= 1")
        if not 0.0 <= self.declared_influence <= 1.0:
            raise InputError("declared influence must lie in [0, 1]")

    def evaluate(self, actions: Sequence[int]) -> float:
        self._check_arity(actions)
        value = float(self.evaluator(tuple(int(a) for a in actions)))
        if not -1e-12 <= value <= 1.0 + 1e-12:
            raise ContractError(
                f"custom summarization returned {value}, outside [0, 1]"
            )
        return min(1.0, max(0.0, value))

    def influence(self, i: int) -> float:
        if not 0 <= i < self.n:
            raise InputError(f"player index {i} out of range for n={self.n}")
        if self.n <= EXACT_INFLUENCE_MAX_PLAYERS:
            return _exact_influence(self, i)
        return self.declared_influence

    def influence_bound(self) -> float:
        return self.declared_influence

    # The black box is evaluated row by row, which is only tolerable for
    # small custom games.

    def batch_state(self, bits: np.ndarray) -> np.ndarray:
        return bits

    def batch_value(self, state: np.ndarray) -> np.ndarray:
        return np.array(
            [self.evaluate(tuple(int(b) for b in row)) for row in state]
        )

    def batch_deviation(self, state: np.ndarray, x: np.ndarray, i: int):
        lo, hi = state.copy(), state.copy()
        lo[:, i], hi[:, i] = 0.0, 1.0
        return self.batch_value(lo), self.batch_value(hi)


# ---------------------------------------------------------------------------
# Payoff catalog
# ---------------------------------------------------------------------------


class Payoff:
    """A payoff function mapping [0, 1] into [0, 1].

    Constructors reject parameterizations whose range escapes [0, 1];
    evaluation additionally clamps float dust so outputs never leave the
    interval. ``derivative_bound`` returns a finite upper bound on |F'|
    over [0, 1]. Scalar and array evaluation use identical arithmetic so
    that vectorized enumeration agrees with the scalar oracle bit for bit.
    """

    def evaluate(self, z: float) -> float:
        raise NotImplementedError

    def evaluate_array(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def derivative_bound(self) -> float:
        raise NotImplementedError


def _require_unit(value: float, what: str) -> None:
    if math.isnan(value) or not 0.0 <= value <= 1.0:
        raise InputError(f"{what} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class Constant(Payoff):
    c: float

    def __post_init__(self) -> None:
        _require_unit(self.c, "constant payoff value")

    def evaluate(self, z: float) -> float:
        return self.c

    def evaluate_array(self, z: np.ndarray) -> np.ndarray:
        return np.full_like(z, self.c, dtype=np.float64)

    def derivative_bound(self) -> float:
        return 0.0


@dataclass(frozen=True)
class Affine(Payoff):
    """F(z) = a + b*z."""

    a: float
    b: float

    def __post_init__(self) -> None:
        _require_unit(self.a, "affine payoff at z=0")
        _require_unit(self.a + self.b, "affine payoff at z=1")

    def evaluate(self, z: float) -> float:
        return min(1.0, max(0.0, self.a + self.b * z))

    def evaluate_array(self, z: np.ndarray) -> np.ndarray:
        return np.clip(self.a + self.b * z, 0.0, 1.0)

    def derivative_bound(self) -> float:
        return abs(self.b)


@dataclass(frozen=True)
class Quadratic(Payoff):
    """F(z) = a + b*z + c*z^2.

    The range check covers both endpoints and the interior extremum when
    the vertex falls inside (0, 1). The derivative bound |b| + 2|c| is a
    valid over-estimate of the tight maximum of |b + 2cz|.
    """

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        _require_unit(self.a, "quadratic payoff at z=0")
        _require_unit(self.a + self.b + self.c, "quadratic payoff at z=1")
        if self.c != 0.0:
            vertex = -self.b / (2.0 * self.c)
            if 0.0 < vertex < 1.0:
                _require_unit(
                    self.a + vertex * (self.b + self.c * vertex),
                    f"quadratic payoff at its extremum z={vertex}",
                )

    def evaluate(self, z: float) -> float:
        return min(1.0, max(0.0, self.a + z * (self.b + self.c * z)))

    def evaluate_array(self, z: np.ndarray) -> np.ndarray:
        return np.clip(self.a + z * (self.b + self.c * z), 0.0, 1.0)

    def derivative_bound(self) -> float:
        return abs(self.b) + 2.0 * abs(self.c)


@dataclass(frozen=True)
class PiecewiseLinear(Payoff):
    """Linear interpolation through breakpoints spanning [0, 1].

    Breakpoints are (z, value) pairs with strictly increasing z, the first
    at z=0 and the last at z=1, so the function is total on [0, 1].
    """

    points: tuple[tuple[float, float], ...]
    _zs: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _ys: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _slopes: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pts = tuple((float(z), float(v)) for z, v in self.points)
        if len(pts) < 2:
            raise InputError("piecewise-linear payoff needs at least 2 points")
        zs = tuple(z for z, _ in pts)
        ys = tuple(v for _, v in pts)
        if zs[0] != 0.0 or zs[-1] != 1.0:
            raise InputError("breakpoints must start at z=0 and end at z=1")
        if any(z1 >= z2 for z1, z2 in zip(zs, zs[1:])):
            raise InputError("breakpoint positions must be strictly increasing")
        for k, v in enumerate(ys):
            _require_unit(v, f"piecewise-linear payoff value at point {k}")
        slopes = tuple(
            (y2 - y1) / (z2 - z1)
            for (z1, y1), (z2, y2) in zip(pts, pts[1:])
        )
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_zs", zs)
        object.__setattr__(self, "_ys", ys)
        object.__setattr__(self, "_slopes", slopes)

    def evaluate(self, z: float) -> float:
        idx = bisect_right(self._zs, z) - 1
        idx = min(max(idx, 0), len(self._slopes) - 1)
        value = self._ys[idx] + self._slopes[idx] * (z - self._zs[idx])
        return min(1.0, max(0.0, value))

    def evaluate_array(self, z: np.ndarray) -> np.ndarray:
        zs = np.asarray(self._zs)
        idx = np.searchsorted(zs, z, side="right") - 1
        idx = np.clip(idx, 0, len(self._slopes) - 1)
        ys = np.asarray(self._ys)
        slopes = np.asarray(self._slopes)
        return np.clip(ys[idx] + slopes[idx] * (z - zs[idx]), 0.0, 1.0)

    def derivative_bound(self) -> float:
        return max(abs(s) for s in self._slopes)


# ---------------------------------------------------------------------------
# Games
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SummGame:
    """An n-player game: one summarization plus n pairs of payoff functions.

    ``payoffs[i]`` is the pair (F for action 0, F for action 1) of player i.
    The influence bound ``tau`` and derivative bound ``rho`` are derived at
    construction: tau from the summarization (the declared bound for custom
    ones), rho as the exact maximum derivative bound over all 2n payoffs.

    Instances are immutable and safe to share across threads.
    """

    summarization: Summarization
    payoffs: tuple[tuple[Payoff, Payoff], ...]
    tau: float = field(init=False)
    rho: float = field(init=False)

    def __post_init__(self) -> None:
        pairs = tuple((p[0], p[1]) for p in self.payoffs)
        if len(pairs) != self.summarization.n:
            raise InputError(
                f"{len(pairs)} payoff pairs for {self.summarization.n} players"
            )
        for i, pair in enumerate(pairs):
            for b in (0, 1):
                if not isinstance(pair[b], Payoff):
                    raise InputError(f"payoffs[{i}][{b}] is not a payoff function")
        object.__setattr__(self, "payoffs", pairs)
        object.__setattr__(self, "tau", self.summarization.influence_bound())
        object.__setattr__(
            self,
            "rho",
            max(p.derivative_bound() for pair in pairs for p in pair),
        )

    @property
    def n(self) -> int:
        return self.summarization.n

    def _check_profile(self, n: int) -> None:
        if n != self.n:
            raise InputError(f"profile has {n} players, game has {self.n}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def eval_summarization(summ: Summarization, profile: PureProfile) -> float:
    """The summarization value of a joint pure play."""
    return summ.evaluate(profile.actions)


def influence_of(summ: Summarization, i: int, n: int) -> float:
    """The influence of player i: the largest change i can cause in S.

    Exact for the linear catalog (the weight itself) and, via exhaustive
    enumeration, for majority-fraction and custom summarizations up to
    n = 20 players; beyond that custom summarizations fall back to their
    declared bound.
    """
    if n != summ.n:
        raise InputError(f"summarization expects n={summ.n}, got {n}")
    if not 0 <= i < n:
        raise InputError(f"player index {i} out of range for n={n}")
    return summ.influence(i)


def payoff(game: SummGame, i: int, b: int, z: float) -> float:
    """Evaluate player i's payoff function for action b at value z."""
    if not 0 <= i < game.n:
        raise InputError(f"player index {i} out of range for n={game.n}")
    if b not in (0, 1):
        raise InputError("action must be 0 or 1")
    if math.isnan(z) or not 0.0 <= z <= 1.0:
        raise InputError(f"summarization value must lie in [0, 1], got {z}")
    return game.payoffs[i][b].evaluate(z)


def _chunk_rows(n: int) -> int:
    """Rows of an n-player block that make one ``_CHUNK_CELLS`` chunk."""
    return max(1, _CHUNK_CELLS // n)


def _select(x: np.ndarray, f0: np.ndarray, f1: np.ndarray) -> np.ndarray:
    """f1 where the bool x is set, f0 elsewhere, bit for bit.

    Long blocks use f0 ^ ((f0 ^ f1) & -x) on the int64 views, which copies
    the chosen bits exactly (signed zeros included) without a branch per
    row; short ones use ``np.where``, which has less fixed cost.
    """
    if x.size < _BITWISE_SELECT_ROWS:
        return np.where(x, f1, f0)
    a = f0.view(np.int64)
    mask = x.astype(np.int64)
    np.negative(mask, out=mask)
    mask &= a ^ f1.view(np.int64)
    mask ^= a
    return mask.view(np.float64)


def _deviation_payoffs(game: SummGame, bits: np.ndarray):
    """Yield, player by player, the payoffs of unilateral deviations.

    For each row x of the (rows, n) bool matrix ``bits`` and each player i
    in order, yields (f0, f1, current): f_b[r] = F_b^i(S(x_r with i playing
    b)) and current[r] = f_{x_ri}[r], the payoff i actually receives. Every
    regret in this library is a reduction over this kernel. The state is
    built from float64 row chunks of ``_CHUNK_CELLS`` cells and the columns
    are read from one contiguous (n, rows) bool transpose, so for catalog
    summarizations it holds O(rows * n) bools plus (rows,) arrays per
    player.
    """
    summ = game.summarization
    rows, n = bits.shape
    step = _chunk_rows(n)
    state = np.concatenate(
        [
            summ.batch_state(bits[start : start + step].astype(np.float64))
            for start in range(0, rows, step)
        ]
    )
    columns = np.ascontiguousarray(bits.T)
    for i, (pay0, pay1) in enumerate(game.payoffs):
        x = columns[i]
        lo, hi = summ.batch_deviation(state, x, i)
        f0 = pay0.evaluate_array(lo)
        f1 = pay1.evaluate_array(hi)
        # When x_i = b, S(x with i playing b) is S(x) itself, so the
        # realized payoff is f_b on that row.
        yield f0, f1, _select(x, f0, f1)


def regret_pure(game: SummGame, profile: PureProfile) -> tuple[float, ...]:
    """Per-player regret at a pure profile.

    regret[i] is the payoff i forgoes by not playing their best unilateral
    deviation; the profile is an eps-Nash equilibrium iff every entry is
    <= eps. The profile's summarization state is built once and each
    deviation updates it, so catalog summarizations cost O(n) in total;
    custom ones re-evaluate S per deviation, O(n^2).
    """
    game._check_profile(profile.n)
    bits = np.array([profile.actions], dtype=bool)
    return tuple(
        float((np.maximum(f0, f1) - current)[0])
        for f0, f1, current in _deviation_payoffs(game, bits)
    )


@dataclass(frozen=True)
class MixedRegret:
    """Per-player regrets of a mixed profile, plus standard errors when
    estimated by Monte Carlo (None in exact mode)."""

    regrets: tuple[float, ...]
    stderrs: tuple[float, ...] | None
    mode: str

    @property
    def max_regret(self) -> float:
        return max(self.regrets)


def _exact_mixed_regret(game: SummGame, profile: MixedProfile) -> MixedRegret:
    n = game.n
    probs = np.asarray(profile.probs)
    total = 1 << n
    # dev[i, b] sums w(x) F_b^i(S(x with i playing b)), cur[i] sums w(x)
    # F_{x_i}^i(S(x)); fixed block and player order keep runs bit-identical.
    dev = np.zeros((n, 2))
    cur = np.zeros(n)
    for start in range(0, total, _BATCH_ROWS):
        codes = np.arange(start, min(start + _BATCH_ROWS, total), dtype=np.int64)
        bits = _profile_bits(codes, n)
        weights = np.ones(len(codes))
        for j in range(n):
            weights *= np.where(bits[:, j], probs[j], 1.0 - probs[j])
        for i, (f0, f1, current) in enumerate(_deviation_payoffs(game, bits)):
            dev[i, 0] += weights @ f0
            dev[i, 1] += weights @ f1
            cur[i] += weights @ current
    regrets = tuple(float(max(dev[i, 0], dev[i, 1]) - cur[i]) for i in range(n))
    return MixedRegret(regrets, None, "exact")


def _monte_carlo_mixed_regret(
    game: SummGame, profile: MixedProfile, samples: int, seed: int
) -> MixedRegret:
    n = game.n
    probs = np.asarray(profile.probs)
    rng = np.random.default_rng(seed)
    # Per-sample gain of deviating to b is g_b = F_b(S(x[i:b])) - F_{x_i}(S(x));
    # the regret estimate is max_b mean(g_b). Track first and second moments
    # for the standard error of the chosen deviation.
    g_sum = np.zeros((n, 2))
    g_sumsq = np.zeros((n, 2))
    drawn = 0
    step = _chunk_rows(n)
    while drawn < samples:
        rows = min(_BATCH_ROWS, samples - drawn)
        # PCG64 fills draws in order, so row chunks read the same stream as
        # one (rows, n) draw without holding it as float64.
        bits = np.empty((rows, n), dtype=bool)
        for start in range(0, rows, step):
            chunk = bits[start : start + step]
            np.less(rng.random(chunk.shape), probs, out=chunk)
        for i, (f0, f1, current) in enumerate(_deviation_payoffs(game, bits)):
            for b, fb in ((0, f0), (1, f1)):
                g = fb - current
                g_sum[i, b] += g.sum()
                g_sumsq[i, b] += (g * g).sum()
        drawn += rows
    means = g_sum / samples
    regrets = []
    stderrs = []
    for i in range(n):
        b = 1 if means[i, 1] > means[i, 0] else 0
        regrets.append(float(means[i, b]))
        if samples >= 2:
            var = (g_sumsq[i, b] - g_sum[i, b] ** 2 / samples) / (samples - 1)
            stderrs.append(float(math.sqrt(max(var, 0.0) / samples)))
        else:
            stderrs.append(float("inf"))
    return MixedRegret(tuple(regrets), tuple(stderrs), "monte_carlo")


def regret_mixed(
    game: SummGame,
    profile: MixedProfile,
    mode: str = "exact",
    samples: int = 10000,
    seed: int = 0,
) -> MixedRegret:
    """Per-player regret of a mixed profile.

    Exact mode sums over all 2^n profiles weighted by product probabilities
    and is capped at n <= 20. Monte-Carlo mode draws i.i.d. profiles from a
    seeded PCG64 generator, so results are bit-identical for a fixed seed.
    Both work on blocks of up to 16384 profiles, held as a (rows, n) bool
    matrix plus its (n, rows) transpose, so their memory is O(rows * n)
    bools per block; float64 copies are made only of 2^18-cell chunks.
    """
    game._check_profile(profile.n)
    if mode == "exact":
        if game.n > EXACT_REGRET_MAX_PLAYERS:
            raise CapabilityError(
                f"exact mixed regret enumerates 2^n profiles and is capped at "
                f"n <= {EXACT_REGRET_MAX_PLAYERS} (got n={game.n}); use "
                "monte_carlo mode"
            )
        return _exact_mixed_regret(game, profile)
    if mode == "monte_carlo":
        if samples < 1:
            raise InputError("monte_carlo mode needs samples >= 1")
        return _monte_carlo_mixed_regret(game, profile, samples, seed)
    raise InputError(f"unknown regret mode {mode!r}")
