"""Game model: profiles, summarization functions, payoff catalog, regrets.

A game has n players, each choosing a binary action. The population's joint
play is aggregated by a summarization function S into a single value in
[0, 1], and player i's payoff for action b is F_b^i(z) where z is the
summarization value that results when i plays b. Two bounds parameterize
every guarantee in this library:

* ``tau``  -- the influence bound: the largest change any single player can
  cause in the summarization value by switching their own action, one
  number per summarization (``influence_bound``). For the count-based kinds
  it is the largest float step S takes between neighbouring counts; for a
  weighted vote it is the largest weight, which a float step can exceed by
  rounding (the solver's walk allows 4*n*eps for that).
* ``rho``  -- the derivative bound: a bound on |F'| over all 2n payoff
  functions.

Mixed strategies store ``probs[i] = P(player i plays action 1)``, so a pure
profile embeds as a mixed profile with the same 0/1 entries.

Payoff functions form a closed catalog (constant, affine, quadratic,
piecewise linear) so that derivative bounds are computed exactly rather
than declared; a game accepts no other payoff type. Summarizations are
closed the same way (mean, majority fraction, linear weighted), so tau is
always computed from the summarization, never declared.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import CapabilityError, InputError

__all__ = [
    "PureProfile",
    "MixedProfile",
    "Summarization",
    "Mean",
    "LinearWeighted",
    "MajorityFraction",
    "Payoff",
    "Constant",
    "Affine",
    "Quadratic",
    "PiecewiseLinear",
    "SummGame",
    "MixedRegret",
    "regret_pure",
    "regret_mixed",
]

# Exact mixed-strategy regret enumerates all 2^n profiles.
EXACT_REGRET_MAX_PLAYERS = 20

# Profiles drawn by a Monte-Carlo regret when the caller names no count.
MC_SAMPLES = 20000

# Rows per block when enumerating or sampling profiles with numpy. Monte
# Carlo sums its gains block by block, so this is also its summation unit.
_BATCH_ROWS = 1 << 14

# A block is a (rows, n) bool matrix; Monte Carlo draws its uniforms in
# chunks of at most this many cells (2 MB of float64).
_CHUNK_CELLS = 1 << 18

# A weighted summarization builds a block's state from float64 copies of at
# most this many cells at a time (512 KB). With 2 MB copies, the weighted
# n = 20 enumerations of ``brute_min_epsilon`` and exact ``regret_mixed``
# left the process's peak resident memory about 1.7 MB higher (perfbench
# solve-fine, 10 runs each), at the same speed within 3 %.
_STATE_CHUNK_CELLS = 1 << 16

# Under a count-based S, Monte Carlo needs only each block's count
# histogram, so it draws and counts a block this many draw chunks at a time
# (2 MB of bools) and never holds it whole. A held 16 MB block at n = 1000
# moved the process's peak resident memory by about 12 MB from one run to
# the next, as the allocator kept or returned the heap around it.
_COUNT_PART_CHUNKS = 8

# Payoffs are evaluated for chunks of players of at most this many
# player-row cells, so a chunk's float64 temporaries (128 KB) stay in cache:
# one profile row (``regret_pure``) takes up to 16384 players in one chunk,
# a full 16384-row block one player. At n = 20, chunks of 2^16 cells made
# the pruned ``brute_min_epsilon`` (which drops rows only between chunks)
# 1.3-2 times slower, and chunks of 2^18 cells 4-6 times slower. Exact
# ``regret_mixed`` evaluates one player at a time.
_CHUNK_PLAYER_CELLS = 1 << 14


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PureProfile:
    """A joint pure action: one 0/1 entry per player. Rejections name the
    field, ``actions`` or ``actions[j]``, as in "actions[j]: reason"."""

    actions: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.actions) < 1:
            raise InputError("actions: a profile needs at least one player")
        j = next((j for j, a in enumerate(self.actions) if a not in (0, 1)), None)
        if j is not None:
            raise InputError(f"actions[{j}]: pure actions must be exactly 0 or 1")
        object.__setattr__(self, "actions", tuple(int(a) for a in self.actions))

    @property
    def n(self) -> int:
        return len(self.actions)


@dataclass(frozen=True)
class MixedProfile:
    """A joint mixed strategy: probs[i] = P(player i plays action 1).

    The probabilities are read as one float64 column and checked by
    ``_check_entries``; NaN fails the check. Rejections name the field,
    ``probs`` or ``probs[j]``, as in "probs[j]: reason".
    """

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.probs) < 1:
            raise InputError("probs: a profile needs at least one player")
        probs = np.array(self.probs, dtype=np.float64)
        outside = ~((0.0 <= probs) & (probs <= 1.0))
        _check_entries(
            "probs", (outside, "mixed-strategy probabilities must lie in [0, 1]")
        )
        object.__setattr__(self, "probs", tuple(probs.tolist()))

    @property
    def n(self) -> int:
        return len(self.probs)


def _profile_blocks(summ: "Summarization"):
    """Yield (start, columns, state) for the 2^n pure profiles of S's n
    players, in blocks of rows = min(``_BATCH_ROWS``, 2^n) profiles coded
    start .. start + rows - 1.

    Player 0 occupies the most significant bit of a code, so ascending
    codes enumerate profiles in lexicographic action order. ``columns`` is
    the block as a C-contiguous (n, rows) bool matrix, overwritten by the
    next block, and ``state`` S's batch state of its rows. The rows are a
    power of two and start is a multiple of it, so the low log2(rows) bits
    take the same values in every block: they are decoded once, and each
    block only refills the other, high columns with its constant bits. A
    count-based S's state is the low bits' count, summed once, plus the
    high bits': exact integers, the floats its ``batch_state`` sums. A
    weighted S's state is its ``batch_state`` of a (rows, n) bool copy of
    the block, which makes float64 copies of row chunks.
    """
    n = summ.n
    total = 1 << n
    rows = min(_BATCH_ROWS, total)
    high = n - (rows.bit_length() - 1)
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    columns = np.empty((n, rows), dtype=bool)
    # Column by column: one int64 (rows, log2(rows)) decode, 1.8 MB at
    # 16384 rows, raised the learn benchmark's peak RSS by about 0.3 MB.
    codes = np.arange(rows)
    for j in range(high, n):
        columns[j] = (codes >> shifts[j]) & 1
    counted = isinstance(summ, _CountBase)
    if counted:
        low_ones = columns[high:].sum(axis=0, dtype=np.float64)
    else:
        bits = np.empty((rows, n), dtype=bool)
        bits[:, high:] = columns[high:].T
    for start in range(0, total, rows):
        prefix = ((start >> shifts[:high]) & 1).astype(bool)
        columns[:high] = prefix[:, None]
        if counted:
            # start's set bits are the prefix's: its low bits are zero.
            state = low_ones + float(start.bit_count())
        else:
            bits[:, :high] = prefix
            state = summ.batch_state(bits)
        yield start, columns, state


# ---------------------------------------------------------------------------
# Summarization functions
# ---------------------------------------------------------------------------


class Summarization:
    """Aggregates a joint pure play into a single value in [0, 1].

    Subclasses provide the influence bound tau, ``influence_bound()``, and
    one arithmetic path, the batch protocol, over a (rows, n) bool block of
    profiles: ``batch_state`` builds a per-row intermediate from the block,
    an array whose first axis is the rows (only ``LinearWeighted`` copies
    rows to float64, a row chunk at a time), ``batch_value`` maps it to
    summarization values, and
    ``batch_deviation(state, x, players)``, given the 0/1 columns x (bool
    or float) of the players in the slice ``players``, one row per player,
    yields the values after forcing each of them alone to 0 and to 1,
    shaped like x; one player index with its 1-D column works too. A row's
    state must not depend on the other rows of the batch, so ``evaluate``
    -- that path on one row -- agrees bit for bit with every row-major
    batch containing the same profile. A game accepts only the three kinds
    below, ``Mean``, ``MajorityFraction`` and ``LinearWeighted``, not
    subclasses, so its tau is always computed.
    """

    n: int
    is_linear: bool = False

    def evaluate(self, actions: Sequence[int]) -> float:
        self._check_arity(actions)
        bits = np.asarray(actions, dtype=bool)[None, :]
        return float(self.batch_value(self.batch_state(bits))[0])

    def influence_bound(self) -> float:
        """tau: a bound on |S(x with i playing 0) - S(x with i playing 1)|
        over every player i and profile x."""
        raise NotImplementedError

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

    def batch_deviation(self, state, x: np.ndarray, players):
        raise NotImplementedError


class _CountBase(Summarization):
    """Summarizations that depend only on the number of players playing 1.

    The state is that count, an exact integer in float64, so a deviation's
    count is exact and its value is the float that evaluating the deviated
    profile gives. n is the player count, at least 1.
    """

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError("player count must be >= 1")

    def _of_count(self, ones: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def influence_bound(self) -> float:
        # Every player moves the count by one, so tau is S's largest float
        # step between neighbouring counts.
        values = self._of_count(np.arange(self.n + 1.0))
        return float(np.abs(np.diff(values)).max())

    def batch_state(self, bits: np.ndarray) -> np.ndarray:
        return bits.sum(axis=1, dtype=np.float64)

    def batch_value(self, state: np.ndarray) -> np.ndarray:
        return self._of_count(state)

    def batch_deviation(self, state: np.ndarray, x: np.ndarray, players):
        ones_lo = state - x
        return self._of_count(ones_lo), self._of_count(ones_lo + 1.0)


@dataclass(frozen=True)
class Mean(_CountBase):
    """The vote fraction: every player carries weight 1/n."""

    n: int
    is_linear = True

    @property
    def weights(self) -> tuple[float, ...]:
        return (1.0 / self.n,) * self.n

    def _of_count(self, ones: np.ndarray) -> np.ndarray:
        return ones / self.n


@dataclass(frozen=True)
class LinearWeighted(Summarization):
    """Weighted vote sum_i w_i x_i with nonnegative weights summing to <= 1.

    With ``normalize=True`` the weights are rescaled to sum to exactly 1;
    otherwise a weight vector whose sum exceeds 1 is rejected, since the
    summarization value must stay in [0, 1]. The weights are read as one
    float64 column and checked by ``_check_entries``, as payoff columns are:
    every weight and their sum must be finite. Normalizing divides the
    column by the exactly rounded sum. Rejections name the field,
    ``weights`` or ``weights[j]``, as in "weights[j]: reason".
    """

    weights: tuple[float, ...]
    normalize: bool = False
    _w: np.ndarray = field(init=False, repr=False, compare=False)
    is_linear = True

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=np.float64)
        if len(w) < 1:
            raise InputError("weights: at least one weight is required")
        # An infinite weight would normalize to NaN.
        bad = ~(np.isfinite(w) & (w >= 0.0))
        _check_entries(
            "weights", (bad, "expected a finite nonnegative number, got {0}", w)
        )
        try:
            total = math.fsum(w.tolist())
        except OverflowError as err:
            raise InputError("weights: their sum overflows") from err
        if self.normalize:
            if total <= 0.0:
                raise InputError(
                    "weights: cannot normalize an all-zero weight vector"
                )
            w = w / total
        elif total > 1.0 + 1e-12:
            raise InputError(
                f"weights: their sum {total} exceeds 1; pass normalize=True "
                "to rescale"
            )
        w.setflags(write=False)
        object.__setattr__(self, "weights", tuple(w.tolist()))
        object.__setattr__(self, "_w", w)

    @property
    def n(self) -> int:
        return len(self.weights)

    def influence_bound(self) -> float:
        return max(self.weights)

    # einsum reduces each row on its own, so a row's sum does not depend on
    # the batch it sits in; a BLAS matrix-vector product does not promise
    # that. It reads float64 copies: on bool rows einsum summed in another
    # order once n > 8192, off in the last bit.
    def batch_state(self, bits: np.ndarray) -> np.ndarray:
        step = max(1, _STATE_CHUNK_CELLS // bits.shape[1])
        return np.concatenate(
            [
                np.einsum("ij,j->i", bits[at : at + step].astype(np.float64), self._w)
                for at in range(0, len(bits), step)
            ]
        )

    def batch_value(self, state: np.ndarray) -> np.ndarray:
        return np.clip(state, 0.0, 1.0)

    def batch_deviation(self, state: np.ndarray, x: np.ndarray, players):
        # One weight per row of x: a (players, 1) column, or one entry.
        w = self._w[players, None]
        lo = state - w * x
        return np.clip(lo, 0.0, 1.0), np.clip(lo + w, 0.0, 1.0)


@dataclass(frozen=True)
class MajorityFraction(_CountBase):
    """The fraction of players currently playing the majority action.

    Reports only how large the majority is, not which action it is, so the
    value never drops below 1/2 (for n >= 2).
    """

    n: int

    def _of_count(self, ones: np.ndarray) -> np.ndarray:
        return np.maximum(ones, self.n - ones) / self.n


# ---------------------------------------------------------------------------
# Payoff catalog
# ---------------------------------------------------------------------------


class Payoff:
    """A payoff function mapping [0, 1] into [0, 1].

    Constructors reject parameterizations whose range escapes [0, 1];
    evaluation additionally clamps float dust so outputs never leave the
    interval. ``derivative_bound`` returns a finite upper bound on |F'|
    over [0, 1].

    Each catalog kind states each of its rules once, on columns with one
    row per payoff, so one payoff and a game's whole payoff bank share
    them bit for bit:

    * ``_check(*fields)`` takes the document fields of m payoffs as columns
      (a scalar kind's coefficients as (m,) arrays, a piecewise payoff's
      breakpoint positions and values as (m, p) tables) and returns the
      kind's coefficient columns, named by ``_coefficients``, with the
      first faulty row and its message, or None when every row is valid.
      Game banks run it on each group of rows under ``np.errstate``. A
      constructor runs it on its own fields: a scalar kind's as Python
      floats, so the check must not divide by zero, and a piecewise
      payoff's as one-row tables.
    * ``_formula(*columns, z)`` evaluates the payoffs, broadcasting the
      columns against z; ``evaluate_array`` is the formula on one payoff's
      coefficients and ``evaluate`` is ``evaluate_array`` on one point.
    * ``_bound(*columns)`` is each row's derivative bound.

    ``_row`` is a payoff's fields as one flat document row, ``_split``
    cuts an (m, L) array of such rows into the fields, and
    ``_of_columns`` builds a payoff from its row of the coefficient
    columns. A game accepts only the four catalog kinds themselves, not
    subclasses.
    """

    _coefficients: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        fault = self._check(*self._row())[1]
        if fault is not None:
            raise InputError(fault[1])

    def _row(self) -> tuple[float, ...]:
        raise NotImplementedError

    @staticmethod
    def _split(rows: np.ndarray) -> tuple[np.ndarray, ...]:
        return tuple(rows.T)

    @classmethod
    def _of_columns(cls, *values) -> "Payoff":
        return cls(*values)

    @staticmethod
    def _check(*fields):
        raise NotImplementedError

    @staticmethod
    def _formula(*coefficients_and_z):
        raise NotImplementedError

    @staticmethod
    def _bound(*columns) -> np.ndarray:
        raise NotImplementedError

    def evaluate(self, z: float) -> float:
        return float(self.evaluate_array(np.float64(z)))

    def evaluate_array(self, z: np.ndarray) -> np.ndarray:
        return self._formula(*(getattr(self, c) for c in self._coefficients), z)

    def derivative_bound(self) -> float:
        columns = (np.array([getattr(self, c)]) for c in self._coefficients)
        return float(self._bound(*columns)[0])


def _first_fault(*stages) -> tuple[int, str] | None:
    """The first row that any stage flags, with the message of the first
    stage flagging it, or None.

    Stages come in the order a payoff's checks run, each a tuple (bad,
    text, *values): bad flags rows, as an (m,) bool array, an (m, p) one
    to check each of a row's p entries, or one bool for a payoff given
    as floats. The message is text formatted with the values at the
    row and, for an (m, p) stage, at its first flagged entry k, given as
    {k} with {k_next} = k + 1. A row is reported by the first check it
    fails, so a later stage may flag anything on rows an earlier one flags.
    """
    if not isinstance(stages[0][0], np.ndarray):
        for stage in stages:
            if stage[0]:
                return 0, stage[1].format(*map(float, stage[2:]))
        return None
    flagged = [bad if bad.ndim == 1 else bad.any(axis=1) for bad, *_ in stages]
    anywhere = flagged[0]
    for hit in flagged[1:]:
        anywhere = anywhere | hit
    rows = np.flatnonzero(anywhere)
    if not len(rows):
        return None
    r = int(rows[0])
    bad, text, *values = next(s for s, hit in zip(stages, flagged) if hit[r])
    k = None if bad.ndim == 1 else int(np.argmax(bad[r]))
    at = r if k is None else (r, k)
    k_next = None if k is None else k + 1
    return r, text.format(*(float(v[at]) for v in values), k=k, k_next=k_next)


def _check_entries(name: str, *stages) -> None:
    """Raise the first fault ``_first_fault`` finds in the stages of one
    field's column of entries as an InputError "name[j]: message"."""
    fault = _first_fault(*stages)
    if fault is not None:
        raise InputError(f"{name}[{fault[0]}]: {fault[1]}")


def _unit(values, what: str) -> tuple:
    """The ``_first_fault`` stage that values lie in [0, 1], which NaN
    does not; ``what`` names the value checked."""
    outside = (values < 0.0) | (values > 1.0) | (values != values)
    return outside, f"{what} must lie in [0, 1], got {{0}}", values


@dataclass(frozen=True)
class Constant(Payoff):
    c: float

    _coefficients = ("c",)

    def _row(self):
        return (float(self.c),)

    @staticmethod
    def _check(c):
        return (c,), _first_fault(_unit(c, "constant payoff value"))

    @staticmethod
    def _formula(c, z):
        # c * 1.0 is c bit for bit, -0.0 included.
        return c * np.ones(np.shape(z))

    @staticmethod
    def _bound(c):
        return np.zeros(np.shape(c))


@dataclass(frozen=True)
class Affine(Payoff):
    """F(z) = a + b*z."""

    a: float
    b: float

    _coefficients = ("a", "b")

    def _row(self):
        return float(self.a), float(self.b)

    @staticmethod
    def _check(a, b):
        return (a, b), _first_fault(
            _unit(a, "affine payoff at z=0"), _unit(a + b, "affine payoff at z=1")
        )

    @staticmethod
    def _formula(a, b, z):
        return np.clip(a + b * z, 0.0, 1.0)

    @staticmethod
    def _bound(a, b):
        return np.abs(b)


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

    _coefficients = ("a", "b", "c")

    def _row(self):
        return float(self.a), float(self.b), float(self.c)

    @staticmethod
    def _check(a, b, c):
        # Only a nonzero c has a vertex; a zero c divides by 1 instead, as
        # a Python float raises on division by zero. Halved last: 2c
        # overflows once |c| > 8.99e307.
        vertex = -b / (c + (c == 0.0)) / 2.0
        inside = (c != 0.0) & (0.0 < vertex) & (vertex < 1.0)
        outside, text, extremum = _unit(
            a + vertex * (b + c * vertex), "quadratic payoff at its extremum z={1}"
        )
        return (a, b, c), _first_fault(
            _unit(a, "quadratic payoff at z=0"),
            _unit(a + b + c, "quadratic payoff at z=1"),
            (inside & outside, text, extremum, vertex),
        )

    @staticmethod
    def _formula(a, b, c, z):
        return np.clip(a + z * (b + c * z), 0.0, 1.0)

    @staticmethod
    def _bound(a, b, c):
        return np.abs(b) + 2.0 * np.abs(c)


@dataclass(frozen=True)
class PiecewiseLinear(Payoff):
    """Linear interpolation through breakpoints spanning [0, 1].

    Breakpoints are (z, value) pairs with strictly increasing z, the first
    at z=0 and the last at z=1, so the function is total on [0, 1]. Its
    coefficients are the breakpoint positions, values and segment slopes as
    read-only float64 arrays along a last axis; its document row is each
    breakpoint's position and value in turn.
    """

    points: tuple[tuple[float, float], ...]
    _zs: np.ndarray = field(init=False, repr=False, compare=False)
    _ys: np.ndarray = field(init=False, repr=False, compare=False)
    _slopes: np.ndarray = field(init=False, repr=False, compare=False)

    _coefficients = ("_zs", "_ys", "_slopes")

    def __post_init__(self) -> None:
        pts = tuple((float(z), float(v)) for z, v in self.points)
        object.__setattr__(self, "points", pts)
        with np.errstate(all="ignore"):
            columns, fault = self._check(*self._split(np.array([self._row()])))
        if fault is not None:
            raise InputError(fault[1])
        for name, column in zip(self._coefficients, columns):
            array = column[0].copy()
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def _row(self) -> tuple[float, ...]:
        return tuple(x for point in self.points for x in point)

    @staticmethod
    def _split(rows):
        return rows[:, 0::2], rows[:, 1::2]

    @classmethod
    def _of_columns(cls, zs, ys, slopes) -> "PiecewiseLinear":
        return cls(tuple(zip(zs, ys)))

    @staticmethod
    def _check(zs, ys):
        if zs.shape[1] < 2:
            return (zs, ys, ys[:, 1:]), (
                0, "piecewise-linear payoff needs at least 2 points"
            )
        # Breakpoints a few subnormals apart overflow the slope, and a NaN
        # position passes the ordering check but makes it NaN.
        slopes = (ys[:, 1:] - ys[:, :-1]) / (zs[:, 1:] - zs[:, :-1])
        return (zs, ys, slopes), _first_fault(
            (
                (zs[:, 0] != 0.0) | (zs[:, -1] != 1.0),
                "breakpoints must start at z=0 and end at z=1",
            ),
            (
                (zs[:, :-1] >= zs[:, 1:]).any(axis=1),
                "breakpoint positions must be strictly increasing",
            ),
            _unit(ys, "piecewise-linear payoff value at point {k}"),
            (
                ~np.isfinite(slopes),
                "piecewise-linear segment {k} (points {k} and {k_next}) has "
                "slope {0}, which is not finite",
                slopes,
            ),
        )

    @staticmethod
    def _formula(zs, ys, slopes, z):
        # The segment index k counts the inner breakpoints at or left of z,
        # which is searchsorted(zs, z, side="right") - 1 clipped to the
        # segments. The tables' leading axes broadcast against z (none for
        # one payoff, (m, 1) in a bank), so row r's entry k sits at
        # r * p + k of the flattened zs and ys, and at r * (p - 1) + k of
        # the flattened slopes.
        p = zs.shape[-1]
        row = np.arange(zs.size // p).reshape(zs.shape[:-1])
        at = row * p
        for j in range(1, p - 1):
            at = at + (zs[..., j] <= z)
        return np.clip(
            ys.take(at) + slopes.take(at - row) * (z - zs.take(at)), 0.0, 1.0
        )

    @staticmethod
    def _bound(zs, ys, slopes):
        return np.abs(slopes).max(axis=-1)


_CATALOG = frozenset((Constant, Affine, Quadratic, PiecewiseLinear))

_SUMMARIZATIONS = frozenset((Mean, MajorityFraction, LinearWeighted))


@dataclass(frozen=True, eq=False)
class _PayoffGroup:
    """The players of one action whose payoffs share one formula.

    ``members`` lists them in ascending order (``index`` as an array), and
    each coefficient column of their ``kind`` holds one row per member:
    (m, 1) for a scalar coefficient, (m, 1, p) for a breakpoint table.
    The kind's ``_formula(*columns, z)`` takes z with one row per member,
    or one row that all of them share, and returns an array that
    broadcasts to (m, points).
    """

    kind: type
    members: list[int]
    index: np.ndarray
    columns: tuple[np.ndarray, ...]


class _PayoffRows:
    """Catalog payoffs gathered in (player, action) order, one at a time
    or a group at a time, as document rows grouped by action, kind and row
    length: the length tells a piecewise payoff's breakpoint count.

    ``groups`` turns each group into the coefficient columns of a
    ``_PayoffGroup`` through its kind's ``_check``, one array call per
    group, and reports the earliest faulty payoff.
    """

    def __init__(self) -> None:
        self._rows: dict = {}

    def add(self, i: int, b: int, kind: type, row) -> None:
        """Gather player i's payoff for action b: its kind and document row."""
        key = (b, kind, len(row))
        gathered = self._rows.get(key)
        if gathered is None:
            gathered = self._rows[key] = ([], [])
        gathered[0].append(i)
        gathered[1].append(row)

    def add_group(
        self, b: int, kind: type, members: list[int], rows: np.ndarray
    ) -> None:
        """Gather the payoffs for action b of the ascending players
        ``members``, all of one kind and row length, none gathered yet:
        their document rows as an (m, L) array."""
        self._rows[b, kind, rows.shape[1]] = (members, rows)

    def groups(self):
        """Each action's list of payoff groups, and the earliest faulty
        payoff gathered as (player, action, message), or None."""
        groups: tuple[list, list] = ([], [])
        first = None
        for (b, kind, _), (members, rows) in self._rows.items():
            with np.errstate(all="ignore"):
                fields = kind._split(np.array(rows, dtype=np.float64))
                columns, fault = kind._check(*fields)
            if fault is not None:
                found = (members[fault[0]], b, fault[1])
                first = found if first is None else min(first, found)
            columns = tuple(np.ascontiguousarray(c)[:, None] for c in columns)
            groups[b].append(
                _PayoffGroup(kind, members, np.array(members), columns)
            )
        return groups, first


class _PayoffBank:
    """One action's n payoff functions as coefficient columns per kind.

    The payoffs of one catalog kind -- for ``PiecewiseLinear``, of one
    breakpoint count -- form one group whose coefficients are stacked into
    columns, so the kind's ``_formula`` evaluates all of them in one numpy
    call with each element's arithmetic unchanged. ``SummGame`` admits
    only catalog payoffs, so every payoff belongs to such a group.
    """

    def __init__(self, groups: list[_PayoffGroup]) -> None:
        self.groups = groups

    def evaluate(self, players: slice, z: np.ndarray) -> np.ndarray:
        """The payoffs of a consecutive slice of players at z, an array that
        broadcasts to (players, points). z has one row per player, or one
        row that all of them share. A slice whose players all sit in one
        group is one formula call on that group's columns."""
        start, stop = players.start, players.stop
        shared = len(z) == 1
        out = None
        for group in self.groups:
            lo = bisect_left(group.members, start)
            hi = bisect_left(group.members, stop, lo)
            if lo == hi:
                continue
            columns = [column[lo:hi] for column in group.columns]
            if hi - lo == stop - start:
                return group.kind._formula(*columns, z)
            if out is None:
                out = np.empty((stop - start, z.shape[1]))
            at = group.index[lo:hi] - start
            out[at] = group.kind._formula(*columns, z if shared else z[at])
        return out


# ---------------------------------------------------------------------------
# Games
# ---------------------------------------------------------------------------


@dataclass(frozen=True, init=False, eq=False)
class SummGame:
    """An n-player game: one summarization plus n pairs of payoff functions.

    ``summarization`` is a ``Mean``, ``MajorityFraction`` or
    ``LinearWeighted`` (not a subclass), and ``payoffs[i]`` is the pair (F
    for action 0, F for action 1) of player i, each an instance of one of
    the catalog kinds ``Constant``, ``Affine``, ``Quadratic`` and
    ``PiecewiseLinear`` (not of a subclass). The game holds its payoffs as
    two payoff banks, one per action, which every payoff evaluation reads;
    a parsed game builds its ``payoffs`` objects from them on first read.
    The influence bound ``tau`` and derivative bound ``rho`` are derived
    at construction: tau from the summarization, rho as the exact maximum
    derivative bound over all 2n payoffs, which must be finite.

    Instances are immutable and safe to share across threads; threads
    that race on the first read of a parsed game's ``payoffs`` each build
    equal objects.
    """

    summarization: Summarization
    tau: float
    rho: float
    _banks: tuple[_PayoffBank, _PayoffBank] = field(repr=False)
    _pairs: tuple | None = field(repr=False)

    def __init__(
        self, summarization: Summarization, payoffs: Sequence[tuple[Payoff, Payoff]]
    ) -> None:
        # The three kinds themselves: a subclass could take any tau.
        if type(summarization) not in _SUMMARIZATIONS:
            raise InputError(
                f"summarization is a {type(summarization).__name__}, not "
                "a Mean, MajorityFraction or LinearWeighted summarization"
            )
        pairs = tuple((p[0], p[1]) for p in payoffs)
        if len(pairs) != summarization.n:
            raise InputError(
                f"{len(pairs)} payoff pairs for {summarization.n} players"
            )
        rows = _PayoffRows()
        for i, pair in enumerate(pairs):
            for b, fn in enumerate(pair):
                # The catalog's own kinds only: a subclass could evaluate
                # outside [0, 1] or declare any derivative bound.
                if type(fn) not in _CATALOG:
                    raise InputError(
                        f"payoffs[{i}][{b}] is a {type(fn).__name__}, not a "
                        "Constant, Affine, Quadratic or PiecewiseLinear payoff"
                    )
                rows.add(i, b, type(fn), fn._row())
        groups, fault = rows.groups()
        if fault is not None:
            i, b, message = fault
            raise InputError(f"payoffs[{i}][{b}]: {message}")
        self._set(summarization, groups, pairs)

    @classmethod
    def _of_groups(cls, summarization: Summarization, groups) -> "SummGame":
        """A game of the summarization and each action's checked payoff
        groups (``_PayoffRows.groups``), as a game file is parsed."""
        game = cls.__new__(cls)
        game._set(summarization, groups, None)
        return game

    def _set(self, summarization: Summarization, groups, pairs) -> None:
        rho, worst = 0.0, None
        for b, action in enumerate(groups):
            for group in action:
                bounds = group.kind._bound(*group.columns).ravel()
                bad = np.flatnonzero(~np.isfinite(bounds))
                if len(bad):
                    found = (group.members[bad[0]], b, float(bounds[bad[0]]))
                    worst = found if worst is None else min(worst, found)
                else:
                    rho = max(rho, float(bounds.max()))
        # Every guarantee scales with rho, so it must be a number.
        if worst is not None:
            i, b, bound = worst
            raise InputError(
                f"payoffs[{i}][{b}] has derivative bound {bound}, which is not "
                "finite"
            )
        object.__setattr__(self, "summarization", summarization)
        object.__setattr__(self, "tau", summarization.influence_bound())
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "_banks", tuple(map(_PayoffBank, groups)))
        object.__setattr__(self, "_pairs", pairs)

    @property
    def payoffs(self) -> tuple[tuple[Payoff, Payoff], ...]:
        """Each player's (F_0, F_1): the objects the game was built from,
        or for a parsed game, objects built from its banks on first read."""
        if self._pairs is None:
            pairs = [[None, None] for _ in range(self.n)]
            for b, bank in enumerate(self._banks):
                for group in bank.groups:
                    values = [column[:, 0].tolist() for column in group.columns]
                    for i, *row in zip(group.members, *values):
                        pairs[i][b] = group.kind._of_columns(*row)
            object.__setattr__(self, "_pairs", tuple(map(tuple, pairs)))
        return self._pairs

    @property
    def n(self) -> int:
        return self.summarization.n

    def _check_profile(self, n: int) -> None:
        if n != self.n:
            raise InputError(f"profile has {n} players, game has {self.n}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _chunk_rows(n: int) -> int:
    """Rows of an n-player block that make one ``_CHUNK_CELLS`` chunk."""
    return max(1, _CHUNK_CELLS // n)


def _select(x: np.ndarray, f0: np.ndarray, f1: np.ndarray) -> np.ndarray:
    """f1 where the bool x is set, f0 elsewhere, bit for bit.

    Computes f0 ^ ((f0 ^ f1) & -x) on the int64 views, which copies the
    chosen bits exactly, signed zeros included, as ``np.where(x, f1, f0)``
    does, but without a branch per element: on the i.i.d. masks of
    weighted Monte Carlo ``np.where`` took 12-26 % longer at n = 1000. On
    the regular masks of an enumeration, or one profile row, ``np.where``
    is the faster of the two.
    """
    a = f0.view(np.int64)
    mask = x.astype(np.int64)
    np.negative(mask, out=mask)
    mask &= a ^ f1.view(np.int64)
    mask ^= a
    return mask.view(np.float64)


def _chunk_players(rows: int) -> int:
    """Players evaluated together on rows-long arrays of z: at most
    ``_CHUNK_PLAYER_CELLS`` cells, and at least one player."""
    return max(1, _CHUNK_PLAYER_CELLS // rows)


def _player_slices(n: int, rows: int):
    """Yield the consecutive slices of n players evaluated together on
    rows-long arrays of z, ``_chunk_players(rows)`` players each (the last
    one fewer)."""
    width = _chunk_players(rows)
    for start in range(0, n, width):
        yield slice(start, min(start + width, n))


def _deviation_values(game: SummGame, state, x: np.ndarray, players: slice):
    """(f0, f1) for the consecutive players ``players`` on the rows whose
    batch state is ``state``, x being their 0/1 columns of the rows, one
    row per player or one row they share: f_b[j, r] = F_b^i(S(x_r with i
    playing b)) for i = players.start + j, one call per payoff kind in the
    game's payoff banks. Every regret is a reduction of this kernel."""
    lo, hi = game.summarization.batch_deviation(state, x, players)
    bank0, bank1 = game._banks
    return bank0.evaluate(players, lo), bank1.evaluate(players, hi)


def _deviation_payoffs(game: SummGame, bits: np.ndarray):
    """Yield, chunk by chunk of players, the payoffs of unilateral deviations.

    For the (rows, n) bool matrix ``bits`` and consecutive player slices
    ``players``, yields (players, x, f0, f1), each array (players, rows):
    x is the chunk's columns of bits, and f0 and f1 its
    ``_deviation_values``, so the payoff i = players.start + j actually
    receives on row r is f_{x[j, r]}[j, r]: playing x_i is deviating to
    it. The state is S's ``batch_state`` of bits, the columns its
    C-contiguous (n, rows) transpose. That holds O(rows * n) bools plus
    float64 arrays of one chunk's size. Each row of a yielded array is
    contiguous, so per-player reductions over it sum in the same order as
    over a lone (rows,) array.
    """
    rows, n = bits.shape
    state = game.summarization.batch_state(bits)
    columns = np.ascontiguousarray(bits.T)
    for players in _player_slices(n, rows):
        x = columns[players]
        yield (players, x, *_deviation_values(game, state, x, players))


def regret_pure(game: SummGame, profile: PureProfile) -> tuple[float, ...]:
    """Per-player regret at a pure profile.

    regret[i] is the payoff i forgoes by not playing their best unilateral
    deviation; the profile is an eps-Nash equilibrium iff every entry is
    <= eps. The profile's summarization state is built once and every
    deviation updates it, so it costs O(n) in total, evaluated as one numpy
    call per payoff kind.
    """
    game._check_profile(profile.n)
    bits = np.array([profile.actions], dtype=bool)
    regrets: list[float] = []
    for _, x, f0, f1 in _deviation_payoffs(game, bits):
        regrets.extend((np.maximum(f0, f1) - np.where(x, f1, f0))[:, 0].tolist())
    return tuple(regrets)


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


def _half_rows(a: np.ndarray, pos: int, side: int) -> np.ndarray:
    """The rows (first-axis entries) of a block's array ``a`` whose code has
    bit ``pos`` equal to ``side``, in block order: the ``side`` half of each
    run of 2^(pos+1) rows."""
    return a.reshape(-1, 2, 1 << pos, *a.shape[1:])[:, side].reshape(-1, *a.shape[1:])


def _exact_mixed_regret(game: SummGame, profile: MixedProfile) -> MixedRegret:
    """Exact regrets from each player's expected deviation payoffs.

    d[i, b] = E[F_b^i(S(x with i playing b))] does not depend on x_i, so it
    is summed over the half of the 2^n profiles where x_i is i's likelier
    action h_i (1 on a tie) and divided by that half's probability
    max(p_i, 1 - p_i) >= 1/2. A player in a block's constant high bits
    reads the blocks where that bit is h_i and skips the others; a player
    in the low bits reads the h_i rows of every block. regret_i =
    p_i (d[i,0] - d[i,1])+ + (1 - p_i) (d[i,1] - d[i,0])+ is max_b d[i,b]
    minus the expected payoff without its cancellation, and never
    negative. Fixed block and player order keep runs bit-identical.
    """
    n = game.n
    probs = np.asarray(profile.probs)
    factors = np.stack([1.0 - probs, probs], axis=1)
    sides = (probs >= 0.5).astype(np.int64)
    rows = min(_BATCH_ROWS, 1 << n)
    low = rows.bit_length() - 1
    # A profile's weight is its block's prefix, the product of its high
    # bits' factors, times the low bits' product, the same in every block.
    low_weights = np.ones(1)
    for factor in factors[n - low :]:
        low_weights = (low_weights[:, None] * factor).ravel()
    fills = (np.zeros((1, rows)), np.ones((1, rows)))
    dev = np.zeros((n, 2))
    for start, _, state in _profile_blocks(game.summarization):
        prefix = 1.0
        for j in range(n - low):
            prefix *= factors[j, (start >> (n - 1 - j)) & 1]
        for i, side in enumerate(sides.tolist()):
            pos = n - 1 - i
            if pos >= low:
                if (start >> pos) & 1 != side:
                    continue
                s, w = state, low_weights
            else:
                s, w = (_half_rows(a, pos, side) for a in (state, low_weights))
            # x_i is h_i on every row read for player i.
            x = fills[side][:, : len(w)]
            f0, f1 = _deviation_values(game, s, x, slice(i, i + 1))
            dev[i, 0] += prefix * (w @ f0[0])
            dev[i, 1] += prefix * (w @ f1[0])
    dev /= factors[np.arange(n), sides][:, None]
    gain = dev[:, 0] - dev[:, 1]
    regrets = probs * np.maximum(gain, 0.0) + (1.0 - probs) * np.maximum(-gain, 0.0)
    return MixedRegret(tuple(regrets.tolist()), None, "exact")


def _count_histogram(bits: np.ndarray, hist: dict) -> None:
    """Add the rows of the (rows, n) bool array ``bits`` to ``hist``, a
    histogram of row counts: ``hist[c]`` is [the rows of count c, the int32
    (n,) number of them in which each player plays 1].

    The rows of each count are gathered in bool chunks of at most
    ``_CHUNK_CELLS`` cells and summed as int32, so every entry is an exact
    integer and ``bits`` is never copied whole; a block's histogram is the
    same however its rows are split between calls.
    """
    # int32 sums of bools run about twice as fast as the default int64.
    counts = bits.sum(axis=1, dtype=np.int32)
    order = np.argsort(counts, kind="stable")
    values, starts, sizes = np.unique(
        counts[order], return_index=True, return_counts=True
    )
    step = _chunk_rows(bits.shape[1])
    for value, start, size in zip(values.tolist(), starts.tolist(), sizes.tolist()):
        entry = hist.setdefault(value, [0, np.zeros(bits.shape[1], dtype=np.int32)])
        entry[0] += size
        for at in range(start, start + size, step):
            chunk = bits[order[at : min(at + step, start + size)]]
            entry[1] += chunk.sum(axis=0, dtype=np.int32)


def _add_count_gains(
    game: SummGame, hist: dict, shift: np.ndarray, moments: np.ndarray
) -> None:
    """Add a block's deviation gains to ``moments``, the plain and the
    ``shift``-ed sums ``_monte_carlo_mixed_regret`` keeps, for a
    count-based S, from the block's count histogram ``hist``
    (``_count_histogram``).

    Under such an S a row's gain for player i depends only on x_ri and the
    others' count c' = c_r - x_ri: a row where i plays 0 gains D_i(c') =
    F_1^i(S(c' + 1)) - F_0^i(S(c')) by switching to 1, and a row where i
    plays 1 gains F_0^i(S(c')) - F_1^i(S(c' + 1)) by switching to 0. Both
    are evaluated once per lattice point c' in {u, u - 1 : u a row count},
    by ``_deviation_values`` on one row of count c' where i plays 0, and
    weighted by the number of rows that share them: at count u, the rows
    where i plays 0 count at c' = u, those where i plays 1 at c' = u - 1.
    Each player's per-count terms are summed in ascending count order. The
    rows where i already plays b gain 0 and add only to the shifted moments.
    """
    n = game.n
    values = np.array(sorted(hist), dtype=np.int32)
    sizes = np.array([hist[u][0] for u in values.tolist()], dtype=np.int64)
    # ones[i, u]: rows of count values[u] in which player i plays 1, as
    # int32; a chunk of players at a time is copied to float64.
    ones = np.stack([hist[u][1] for u in values.tolist()], axis=1)
    # Rows of count u < n have a player at 0; rows of count u > 0 one at 1.
    zeros_at, ones_at = values < n, values > 0
    others = np.union1d(values[zeros_at], values[ones_at] - 1)
    state = others.astype(np.float64)
    x = np.zeros((1, len(others)))
    at0 = np.searchsorted(others, values[zeros_at])
    at1 = np.searchsorted(others, values[ones_at] - 1)
    for players in _player_slices(n, len(others)):
        f0, f1 = _deviation_values(game, state, x, players)
        held = ones[players].astype(np.float64)
        plays1 = held.sum(axis=1)
        for b, weight, gain, idle in (
            (1, sizes[zeros_at] - held[:, zeros_at], (f1 - f0)[:, at0], plays1),
            (0, held[:, ones_at], (f0 - f1)[:, at1], sizes.sum() - plays1),
        ):
            k = shift[players, b]
            dev = gain - k[:, None]
            # Gathered columns come out column-major; C-ordered terms make
            # each player's row contiguous, so it sums like a lone array.
            moments[:, players, b] += (
                np.multiply(weight, gain, order="C").sum(axis=1),
                np.multiply(weight, dev, order="C").sum(axis=1) - idle * k,
                np.multiply(weight, dev * dev, order="C").sum(axis=1) + idle * k * k,
            )


def _sample_gains(game: SummGame, row: np.ndarray) -> np.ndarray:
    """The (n, 2) gains g_b of each player deviating to b at the one
    profile ``row``: Monte Carlo's per-player, per-action shift."""
    chunks = _deviation_payoffs(game, row[None, :])
    return np.concatenate(
        [np.hstack((f0, f1)) - np.where(x, f1, f0) for _, x, f0, f1 in chunks]
    )


def _draw_profiles(
    rng: np.random.Generator, probs: np.ndarray, draws: np.ndarray, out: np.ndarray
) -> None:
    """Fill the (rows, n) bool ``out`` with profiles drawn from ``rng``, a
    row at 1 where its uniform is below ``probs``, through the float64
    buffer ``draws`` of at most ``len(draws)`` rows at a time. PCG64 fills
    draws in order, so any split reads the same stream as one (rows, n)
    draw."""
    for start in range(0, len(out), len(draws)):
        chunk = out[start : start + len(draws)]
        np.less(rng.random(out=draws[: len(chunk)]), probs, out=chunk)


def _monte_carlo_mixed_regret(
    game: SummGame, profile: MixedProfile, samples: int, seed: int
) -> MixedRegret:
    """Seeded Monte-Carlo regrets and standard errors.

    Profiles are drawn in blocks of up to ``_BATCH_ROWS`` rows, from one
    PCG64 stream through one float64 buffer of ``_CHUNK_CELLS`` cells. A
    count-based S reduces each block to its count histogram
    (``_add_count_gains``), drawing and counting it ``_COUNT_PART_CHUNKS``
    draw chunks at a time: O(rows * n) bool work, an int32 (n, U) matrix
    of per-count tallies, and payoffs at about 2U points per player, where
    U <= min(rows, n + 1) is the number of distinct counts in the block.
    A weighted S holds each block as a (rows, n) bool matrix and goes
    through ``_deviation_payoffs``, which also holds its (n, rows)
    transpose and evaluates both payoffs per player and row.
    """
    n = game.n
    probs = np.asarray(profile.probs)
    rng = np.random.default_rng(seed)
    # Per-sample gain of deviating to b is g_b = F_b(S(x[i:b])) - F_{x_i}(S(x));
    # the regret estimate is max_b mean(g_b). moments[:, i, b] holds the sum
    # of g_b, for the mean, and the first two moments of g_b - K, K being
    # the gain in the first sample (a fresh stream's first row), for the
    # standard error of the chosen deviation: about K, a gain the same in
    # every sample adds exact zeros.
    moments = np.zeros((3, n, 2))
    shift = _sample_gains(game, np.random.default_rng(seed).random(n) < probs)
    counted = isinstance(game.summarization, _CountBase)
    step = _chunk_rows(n)
    draws = np.empty((min(step, samples), n))
    # One bool buffer serves every block (or every part of one), so the
    # short last block is not allocated while a full one is still held.
    held = step * _COUNT_PART_CHUNKS if counted else _BATCH_ROWS
    buffer = np.empty((min(held, _BATCH_ROWS, samples), n), dtype=bool)
    drawn = 0
    while drawn < samples:
        rows = min(_BATCH_ROWS, samples - drawn)
        if counted:
            hist: dict = {}
            for start in range(0, rows, len(buffer)):
                part = buffer[: min(len(buffer), rows - start)]
                _draw_profiles(rng, probs, draws, part)
                _count_histogram(part, hist)
            _add_count_gains(game, hist, shift, moments)
        else:
            bits = buffer[:rows]
            _draw_profiles(rng, probs, draws, bits)
            for players, x, f0, f1 in _deviation_payoffs(game, bits):
                current = _select(x, f0, f1)
                for b, fb in ((0, f0), (1, f1)):
                    # Each row of g is contiguous, so its sum is the one
                    # that row alone gives; g then becomes g - K in place.
                    g = fb - current
                    plain = g.sum(axis=1)
                    g -= shift[players, b, None]
                    moments[:, players, b] += plain, g.sum(axis=1), (g * g).sum(axis=1)
        drawn += rows
    total, dev_sum, dev_sq = moments
    means = total / samples
    regrets = []
    stderrs = []
    for i in range(n):
        b = 1 if means[i, 1] > means[i, 0] else 0
        regrets.append(float(means[i, b]))
        if samples >= 2:
            var = (dev_sq[i, b] - dev_sum[i, b] ** 2 / samples) / (samples - 1)
            stderrs.append(float(math.sqrt(max(var, 0.0) / samples)))
        else:
            stderrs.append(float("inf"))
    return MixedRegret(tuple(regrets), tuple(stderrs), "monte_carlo")


def _mixed_mode(n: int, mode: str) -> str:
    """The regret mode that ``mode`` stands for on an n-player game: auto
    is exact up to ``EXACT_REGRET_MAX_PLAYERS`` players and Monte Carlo
    above; any other mode is itself."""
    if mode != "auto":
        return mode
    return "exact" if n <= EXACT_REGRET_MAX_PLAYERS else "monte_carlo"


def regret_mixed(
    game: SummGame,
    profile: MixedProfile,
    mode: str = "exact",
    samples: int = MC_SAMPLES,
    seed: int = 0,
) -> MixedRegret:
    """Per-player regret of a mixed profile.

    ``mode`` is "exact", "monte_carlo" or "auto", which is exact mode for
    n <= ``EXACT_REGRET_MAX_PLAYERS`` (20) and Monte Carlo above; the
    result's ``mode`` names the mode that ran. ``run_summ_learn``
    certifies in auto mode, and ``validate_certificate`` recomputes in it
    by default. Exact mode is capped at n <= 20. It evaluates each
    unilateral deviation once: player i's expected payoff of forcing
    action b is summed, weighted by product probabilities, over the half
    of the 2^n profiles where i takes their likelier action, and the regret
    p_i (d_0 - d_1)+ + (1 - p_i) (d_1 - d_0)+ is never negative. Monte-Carlo
    mode draws i.i.d. profiles from a seeded PCG64 generator, so results
    are bit-identical for a fixed seed (``MC_SAMPLES`` draws by default).
    Both reduce ``_deviation_values`` on blocks of up to 16384 profiles;
    only a weighted S copies profiles to float64, in 2^16-cell chunks.
    Exact mode holds each block as an (n, rows) bool matrix, plus its
    (rows, n) transpose under a weighted S. Monte Carlo under a weighted S
    holds both, so its memory is O(rows * n) bools per block, and
    evaluates both payoffs for every player and row. Monte Carlo under
    ``Mean`` or ``MajorityFraction`` needs neither: a player's gain depends
    only on their own action and the others' count, so a block is drawn
    and counted 2^21 bool cells at a time into its count histogram, and
    costs O(rows * n) bool work, int32 (n, U) tallies and payoffs at about
    2U counts per player, U <= min(rows, n + 1) being the block's distinct
    counts (about 100 at n = 1000). Its per-count sums differ from per-row
    sums only in rounding. Standard errors take the second moments of each
    gain about its value in the first sample, so a gain that is the same
    in every sample has stderr exactly 0. The seed must be >= 0 in either
    mode.
    """
    game._check_profile(profile.n)
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    mode = _mixed_mode(game.n, mode)
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
