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

# Exact mixed-strategy regret works from the law of S under the profile. A
# weighted S enumerates 2^(n/2) partial sums of each half of the others, so
# the cost still doubles every two players; auto mode switches to Monte
# Carlo above this cap.
EXACT_REGRET_MAX_PLAYERS = 20

# Profiles drawn by a Monte-Carlo regret when the caller names no count.
MC_SAMPLES = 20000

# The most player cells a request may ask for: Monte Carlo's samples times
# n, and a learning run's step cap times ``learning.STEP_CELLS`` (a step's
# fixed cost) plus a bound on its player classes. Learning on 60000 players
# at epsilon = 0.1 and delta = 1e-4 has a default step cap of 117973, about
# 7e9 cells even if every player is a class.
WORK_CELLS = 2**35

# Rows per block when enumerating or sampling profiles with numpy. Weighted
# Monte Carlo sums its gains block by block, so its block, at most this many
# rows and ``_BLOCK_CELLS`` bools, is also its summation unit.
_BATCH_ROWS = 1 << 14

# Bools per weighted Monte-Carlo block (16 MiB): a full ``_BATCH_ROWS`` block
# up to n = 1024 players, fewer rows above.
_BLOCK_CELLS = 1 << 24

# Monte Carlo draws its uniforms in chunks of at most this many cells (2 MB
# of float64). A weighted S fills a (rows, n) bool block with them; a
# count-based S tallies its samples in blocks of as many bytes.
_CHUNK_CELLS = 1 << 18

# A weighted summarization builds a block's state from float64 copies of at
# most this many cells at a time (512 KB). With 2 MB copies, the weighted
# n = 20 enumeration of ``brute_min_epsilon`` left the process's peak
# resident memory about 1.7 MB higher (perfbench solve-fine, 10 runs each),
# at the same speed within 3 %.
_STATE_CHUNK_CELLS = 1 << 16

# Payoffs are evaluated for chunks of players of at most this many
# player-row cells, so a chunk's float64 temporaries (128 KB) stay in cache:
# one profile row (``regret_pure``) takes up to 16384 players in one chunk,
# a full 16384-row block one player. At n = 20, chunks of 2^16 cells made
# the pruned ``brute_min_epsilon`` (which drops rows only between chunks)
# 1.3-2 times slower, and chunks of 2^18 cells 4-6 times slower. Exact
# ``regret_mixed`` does not chunk: it evaluates at most n^2 points under a
# count-based S and one player's runs at a time under a weighted one.
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
    start .. start + rows - 1. Only ``brute_min_epsilon``'s enumeration of
    a weighted game reads it.

    Player 0 occupies the most significant bit of a code, so ascending
    codes enumerate profiles in lexicographic action order. ``columns`` is
    the block as a C-contiguous (n, rows) bool matrix, overwritten by the
    next block, and ``state`` S's ``batch_state`` of a (rows, n) bool copy
    of it. The rows are a power of two and start is a multiple of it, so
    the low log2(rows) bits take the same values in every block: they are
    decoded once, and each block only refills the other, high columns with
    its constant bits.
    """
    n = summ.n
    total = 1 << n
    rows = min(_BATCH_ROWS, total)
    high = n - (rows.bit_length() - 1)
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    columns = np.empty((n, rows), dtype=bool)
    # Column by column: one int64 (rows, log2(rows)) decode would take
    # 1.8 MB at 16384 rows.
    codes = np.arange(rows)
    for j in range(high, n):
        columns[j] = (codes >> shifts[j]) & 1
    bits = np.empty((rows, n), dtype=bool)
    bits[:, high:] = columns[high:].T
    for start in range(0, total, rows):
        prefix = ((start >> shifts[:high]) & 1).astype(bool)
        columns[:high] = prefix[:, None]
        bits[:, :high] = prefix
        state = summ.batch_state(bits)
        yield start, columns, state


# ---------------------------------------------------------------------------
# Summarization functions
# ---------------------------------------------------------------------------


class Summarization:
    """Aggregates a joint pure play into a single value in [0, 1].

    The kinds are ``Mean``, ``MajorityFraction`` and ``LinearWeighted``; a
    game accepts these three and no subclass of them. Each computes its
    influence bound tau, ``influence_bound()``: a bound on
    |S(x with i playing 0) - S(x with i playing 1)| over every player i
    and profile x. Each has one arithmetic path, the batch protocol, over
    a (rows, n) bool block of profiles: ``batch_state`` builds a per-row
    intermediate from the block, an array whose first axis is the rows
    (only ``LinearWeighted`` copies rows to float64, a row chunk at a
    time), ``batch_value`` maps it to summarization values, and
    ``batch_deviation(state, x, players)``, given the 0/1 columns x (bool
    or float) of the players in the slice ``players``, one row per player,
    yields the values after forcing each of them alone to 0 and to 1,
    shaped like x; one player index with its 1-D column works too. A row's
    state does not depend on the other rows of the batch, so ``evaluate``
    -- that path on one row -- agrees bit for bit with every row-major
    batch containing the same profile.
    """

    n: int
    is_linear: bool = False

    def evaluate(self, actions: Sequence[int]) -> float:
        self._check_arity(actions)
        bits = np.asarray(actions, dtype=bool)[None, :]
        return float(self.batch_value(self.batch_state(bits))[0])

    def _check_arity(self, actions: Sequence[int]) -> None:
        if len(actions) != self.n:
            raise InputError(
                f"profile has {len(actions)} players, summarization expects {self.n}"
            )


class _CountBase(Summarization):
    """The count-based kinds, ``Mean`` and ``MajorityFraction``: S depends
    only on the number of players playing 1.

    Each kind gives S of a count as ``_of_count``, and this class builds
    tau and the batch protocol from it. The state is that count, an exact
    integer in float64, so a deviation's count is exact and its value is
    the float that evaluating the deviated profile gives. n is the player
    count, at least 1.
    """

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError("player count must be >= 1")

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

    The kinds are the catalog's four, ``Constant``, ``Affine``,
    ``Quadratic`` and ``PiecewiseLinear``; a game accepts these and no
    subclass of them. Constructors reject parameterizations whose range
    escapes [0, 1]; evaluation additionally clamps float dust so outputs
    never leave the interval. ``derivative_bound`` returns a finite upper
    bound on |F'| over [0, 1].

    Each kind states each of its rules once, on columns with one row per
    payoff, so one payoff and a game's whole payoff bank share them bit
    for bit:

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
    * ``_pieces(*coefficients)`` is one payoff's inner breakpoints, where
      its formula changes piece, and its coefficient of z^2 within a
      piece: exact mixed regret integrates the formula piece by piece.

    ``_row`` is a payoff's fields as one flat document row, ``_split``
    cuts an (m, L) array of such rows into the fields, and
    ``_of_columns`` builds a payoff from its row of the coefficient
    columns. The ``_split`` and ``_of_columns`` here serve the scalar
    kinds, and the ``_pieces`` here the one-piece linear ones.
    """

    _coefficients: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        fault = self._check(*self._row())[1]
        if fault is not None:
            raise InputError(fault[1])

    @staticmethod
    def _split(rows: np.ndarray) -> tuple[np.ndarray, ...]:
        return tuple(rows.T)

    @classmethod
    def _of_columns(cls, *values) -> "Payoff":
        return cls(*values)

    @staticmethod
    def _pieces(*coefficients) -> tuple[np.ndarray, float]:
        return np.empty(0), 0.0

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

    @staticmethod
    def _pieces(a, b, c):
        return np.empty(0), float(c)


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

    @staticmethod
    def _pieces(zs, ys, slopes):
        return zs[1:-1], 0.0


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

    def pieces(self, i: int) -> tuple[np.ndarray, float]:
        """Player i's payoff's ``_pieces``: its inner breakpoints and its
        coefficient of z^2."""
        for group in self.groups:
            r = bisect_left(group.members, i)
            if group.members[r : r + 1] == [i]:
                return group.kind._pieces(*(column[r, 0] for column in group.columns))


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
        # Each payoff passed its kind's ``_check`` on these rows when it
        # was built, so no group reports a fault.
        self._set(summarization, rows.groups()[0], pairs)

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


def _count_values(game: SummGame, counts: np.ndarray, players: slice):
    """(f0, f1) under a count-based S for the consecutive players
    ``players`` at the others' counts ``counts``: f0[j, k] = F_0^i(S(c_k))
    and f1[j, k] = F_1^i(S(c_k + 1)) for i = players.start + j, the
    ``_deviation_values`` of the state ``counts`` with one shared zero row
    of x. Every count-based table of payoffs is read from here."""
    state = np.asarray(counts, dtype=np.float64)
    return _deviation_values(game, state, np.zeros((1, len(state))), players)


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


def _count_law_payoffs(game: SummGame, probs: np.ndarray) -> np.ndarray:
    """The (n, 2) expected deviation payoffs d[i, b] under a count-based S.

    The law of the others' count C_i is Poisson-binomial: the convolution
    of the players' laws before i (prefix tables) and after i (suffix
    tables). One ``_count_values`` call at the counts c = 0 .. n - 1
    gives F_0^i(S(c)) and F_1^i(S(c + 1)); d_b is their dot product with
    C_i's law.
    """
    n = len(probs)
    factors = np.stack((1.0 - probs, probs), axis=1)
    prefix = [np.ones(1)]
    for factor in factors[:-1]:
        prefix.append(np.convolve(prefix[-1], factor))
    laws = np.empty((n, n))
    suffix = np.ones(1)
    for i in range(n - 1, -1, -1):
        laws[i] = np.convolve(prefix[i], suffix)
        suffix = np.convolve(suffix, factors[i])
    f0, f1 = _count_values(game, np.arange(n), slice(0, n))
    return np.stack(((laws * f0).sum(axis=1), (laws * f1).sum(axis=1)), axis=1)


def _subset_sums(w: np.ndarray, probs: np.ndarray):
    """The sums of w over the 2^len(w) subsets of its players, and the
    probability that exactly that subset plays 1."""
    values, mass = np.zeros(1), np.ones(1)
    for wj, pj in zip(w.tolist(), probs.tolist()):
        values = np.concatenate((values, values + wj))
        mass = np.concatenate((mass * (1.0 - pj), mass * pj))
    return values, mass


def _weighted_law_payoffs(game: SummGame, probs: np.ndarray) -> np.ndarray:
    """The (n, 2) expected deviation payoffs d[i, b] under a weighted S,
    by meet in the middle.

    Player i deviating to b gets F_b^i(clip(T + b w_i)), T = u + v being
    the others' weighted sum: u over the rest of i's half of the players,
    v over the other half, whose subset sums are sorted once with prefix
    sums of their mass and first two moments. F_b(clip) is a polynomial
    between cuts, F_b's inner breakpoints and z = 1, at T = z - b w_i. For
    each u, the v with u + v between neighbouring cuts of either action
    form a run, with mass M, mean m and variance V from the prefix sums,
    which adds M (F_b(u + m + b w_i) + c V), c being the z^2 coefficient
    below the clip and 0 above it. The payoffs at the runs' means come
    from one ``_deviation_values`` call per player.
    """
    w = game.summarization._w
    n = len(w)
    halves = (np.arange(n // 2), np.arange(n // 2, n))
    sorted_sums = []
    for half in halves:
        values, mass = _subset_sums(w[half], probs[half])
        order = np.argsort(values, kind="stable")
        values, mass = values[order], mass[order]
        moments = np.zeros((3, len(values) + 1))
        terms = (mass, mass * values, mass * values * values)
        np.cumsum(terms, axis=1, out=moments[:, 1:])
        sorted_sums.append((values, moments))
    dev = np.empty((n, 2))
    for side, half in enumerate(halves):
        values, moments = sorted_sums[1 - side]
        for i in half.tolist():
            rest = half[half != i]
            u, mass_u = _subset_sums(w[rest], probs[rest])
            (cuts0, c0), (cuts1, c1) = (bank.pieces(i) for bank in game._banks)
            clip = np.array((1.0, 1.0 - w[i]))
            edges = np.unique(np.concatenate((cuts0, cuts1 - w[i], clip)))
            at = np.searchsorted(values, edges - u[:, None])
            ends = np.full((len(u), 1), len(values))
            bounds = np.concatenate((np.zeros_like(ends), at, ends), axis=1)
            mass, first, second = np.diff(moments[:, bounds], axis=2)
            mean = np.divide(first, mass, out=np.zeros_like(mass), where=mass > 0.0)
            state = (u[:, None] + mean).ravel()
            x = np.zeros((1, len(state)))
            f0, f1 = _deviation_values(game, state, x, slice(i, i + 1))
            weight = (mass_u[:, None] * mass).ravel()
            # Run j ends at edge j, so it lies below action b's clip when
            # j is at most the clip's edge.
            runs = np.arange(len(edges) + 1)
            below = runs <= np.searchsorted(edges, clip)[:, None]
            spread = below @ (mass_u @ (second - first * mean))
            dev[i] = (weight @ f0.ravel(), weight @ f1.ravel())
            dev[i] += np.array((c0, c1)) * spread
    return dev


def _exact_mixed_regret(game: SummGame, profile: MixedProfile) -> MixedRegret:
    """Exact regrets from each player's expected deviation payoffs.

    d[i, b] = E[F_b^i(S(x with i playing b))] does not depend on x_i; it
    comes from the law of the others' count (``_count_law_payoffs``) or
    weighted sum (``_weighted_law_payoffs``). regret_i =
    p_i (d[i,0] - d[i,1])+ + (1 - p_i) (d[i,1] - d[i,0])+ is max_b d[i,b]
    minus the expected payoff without its cancellation, and never
    negative. A pure profile's regrets are ``regret_pure``'s.
    """
    probs = np.asarray(profile.probs)
    if ((probs == 0.0) | (probs == 1.0)).all():
        actions = PureProfile(tuple(int(p) for p in profile.probs))
        return MixedRegret(regret_pure(game, actions), None, "exact")
    if isinstance(game.summarization, _CountBase):
        dev = _count_law_payoffs(game, probs)
    else:
        dev = _weighted_law_payoffs(game, probs)
    gain = dev[:, 0] - dev[:, 1]
    regrets = probs * np.maximum(gain, 0.0) + (1.0 - probs) * np.maximum(-gain, 0.0)
    return MixedRegret(tuple(regrets.tolist()), None, "exact")


def _count_tallies(seed, solo_probs, sizes, probs, base, samples):
    """Draw ``samples`` samples of class counts and tally them by their
    total count c.

    A sample compares one uniform with each entry of ``solo_probs`` (a
    one-player class), x being the 0/1 outcomes, and draws K ~ Binomial(m,
    p) for each class of ``sizes[k]`` players at ``probs[k]``; c is
    ``base`` plus the ones and the K's. Uniforms come from the seed's
    PCG64 stream, as weighted Monte Carlo's do, and counts from its first
    spawned child; each stream is read in sample order, so no draw depends
    on how the samples are split into blocks. The uniforms pass through a
    float64 buffer of ``_CHUNK_CELLS`` cells, and samples are tallied in
    blocks that take as many bytes as that buffer, one per uniform and
    eight per K. Returns the dict from every count drawn to [its samples,
    the (solo,) samples at it in which each one-player class plays 1, the
    int64 (classes,) sums of K and of K^2], all exact integers, and the
    first sample's (c, x, K).
    """
    uniform_rng = np.random.default_rng(seed)
    count_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    width = len(solo_probs) + 8 * len(sizes)
    step = min(max(1, _CHUNK_CELLS * 8 // max(width, 1)), samples)
    uniforms = np.empty(
        (min(_chunk_rows(max(len(solo_probs), 1)), step), len(solo_probs))
    )
    bits = np.empty((step, len(solo_probs)), dtype=bool)
    # No tally exceeds ``samples``.
    ones_type = np.promote_types(np.int32, np.min_scalar_type(samples))
    tallies: dict = {}
    first = None
    for start in range(0, samples, step):
        rows = min(step, samples - start)
        x = bits[:rows]
        _draw_profiles(uniform_rng, solo_probs, uniforms, x)
        k = count_rng.binomial(sizes, probs, size=(rows, len(sizes)))
        # int32 sums of bools run about twice as fast as int64 ones.
        counts = base + x.sum(axis=1, dtype=np.int32) + k.sum(axis=1)
        if first is None:
            first = int(counts[0]), x[0].copy(), k[0]
        # Sorted by count, a count's rows are one run of ``order``; each
        # run of x is gathered on its own, so x is never copied whole.
        order = np.argsort(counts, kind="stable")
        counts, k = counts[order], k[order]
        starts = np.flatnonzero(counts[1:] != counts[:-1]) + 1
        k_sum = np.add.reduceat(k, [0, *starts], axis=0)
        k_squares = np.add.reduceat(k * k, [0, *starts], axis=0)
        starts = [0, *starts.tolist()]
        bounds = zip(counts[starts].tolist(), starts, [*starts[1:], rows])
        for j, (c, s, e) in enumerate(bounds):
            entry = tallies.get(c)
            if entry is None:
                entry = tallies[c] = [
                    0,
                    np.zeros(len(solo_probs), dtype=ones_type),
                    np.zeros(len(sizes), dtype=np.int64),
                    np.zeros(len(sizes), dtype=np.int64),
                ]
            entry[0] += e - s
            entry[1] += x[order[s:e]].sum(axis=0, dtype=ones_type)
            if len(sizes):
                entry[2] += k_sum[j]
                entry[3] += k_squares[j]
    return tallies, first


def _cell_weights(sum_k, sum_k2, m, held):
    """The weights of (class, count) cells, from the rows R = ``held`` of
    each count and, per class of m players (rows of ``sum_k``), the sums
    of K and K^2 over the samples at each count: the (2, classes, counts)
    mean weights sum(J)/(Rm) of deviating to 0 and to 1, J being K and
    m - K, and the (classes, counts) spread term V/(R m^2), V being
    R sum(K^2) - (sum K)^2. Every input is an integer, exact in float64
    below 2^53, and so is each product here; so V is 0.0 exactly where K
    is the same in every sample of a cell."""
    cells = m[:, None] * held
    weights = np.stack((sum_k, cells - sum_k)) / cells
    return weights, (held * sum_k2 - sum_k * sum_k) / (m[:, None] * cells)


def _count_moments(
    game: SummGame, probs: np.ndarray, samples: int, seed: int
) -> np.ndarray:
    """Monte Carlo's (3, n, 2) moments for a count-based S, from class
    counts.

    A class is the players that share one probability. A one-player class
    strictly between 0 and 1 draws a uniform, a class at 0 or 1 draws
    nothing, and every other class draws its count K (``_count_tallies``);
    c is the sample's total count. Given the counts, a player of a class
    of m plays 1 with probability q = K/m, so their gain is the expected
    one given the counts: (1 - q)(F_1(S(c + 1)) - F_0(S(c))) for deviating
    to 1 and q (F_0(S(c - 1)) - F_1(S(c))) for deviating to 0, that is
    J/m times a payoff difference D_b(c), J being m - K or K. In a (class,
    count) cell of R samples the gains sum to R g_c, g_c = D sum(J)/(Rm)
    being the cell's mean gain (``_cell_weights``). About the first
    sample's gain s, they sum to R (g_c - s), and their squares to
    R (g_c - s)^2 + D^2 V/(R m^2), V = R sum(K^2) - (sum K)^2 being R^2
    times the spread of K in the cell. A gain the same in every sample has
    g_c = s bit for bit and V = 0 in every cell, so it adds exact zeros.
    Payoffs are evaluated once per player at each count drawn and the
    count below it, by ``_count_values``, and every sum over counts
    runs along a contiguous row in ascending count order.
    """
    n = game.n
    values, inverse, sizes = np.unique(probs, return_inverse=True, return_counts=True)
    size = sizes[inverse]
    solo = np.flatnonzero((size == 1) & (probs > 0.0) & (probs < 1.0))
    classes = np.setdiff1d(np.arange(len(values)), inverse[solo])
    m, p = sizes[classes], values[classes]
    drawn = np.flatnonzero((0.0 < p) & (p < 1.0))
    # K of a class at probability 0 or 1, in every sample.
    fixed = np.where(p == 1.0, m, 0)
    tallies, (first_count, first_x, first_k) = _count_tallies(
        seed, probs[solo], m[drawn], p[drawn], int(fixed.sum()), samples
    )
    counts = np.array(sorted(tallies))
    entries = [tallies[c] for c in counts.tolist()]
    held = np.array([entry[0] for entry in entries], dtype=np.float64)
    # The one-player classes' tallies as one (solo, counts) table, held as
    # column blocks of at most ``_CHUNK_CELLS`` * 8 bytes, the size of the
    # draw buffer freed by now. Each count's tallies are dropped once
    # copied, so the table never holds them twice.
    width = max(1, _CHUNK_CELLS * 8 // max(entries[0][1].nbytes, 1))
    ones = []
    for start in range(0, len(entries), width):
        part = entries[start : start + width]
        ones.append(np.stack([entry[1] for entry in part], axis=1))
        for entry in part:
            entry[1] = None
    # Each player's row in the class tables, whose last row stands for the
    # one-player classes, and row in ``ones``.
    row = np.searchsorted(classes, inverse)
    row[solo] = len(classes)
    col = np.zeros(n, dtype=np.int64)
    col[solo] = np.arange(len(solo))
    m = np.append(m, 1)
    sum_k = np.zeros((len(m), len(counts)))
    sum_k2 = np.zeros_like(sum_k)
    sum_k[:-1] = fixed[:, None] * held
    sum_k2[:-1] = (fixed * fixed)[:, None] * held
    sum_k[drawn] = np.stack([entry[2] for entry in entries], axis=1)
    sum_k2[drawn] = np.stack([entry[3] for entry in entries], axis=1)
    weights, spread = _cell_weights(sum_k, sum_k2, m, held)
    # The first sample's J/m, for the shift s.
    k0 = np.append(fixed, 0)
    k0[drawn] = first_k
    first = np.stack((k0, m - k0)) / m
    below, above = counts < n, counts > 0
    others = np.union1d(counts[below], counts[above] - 1)
    at0 = np.searchsorted(others, counts[below])
    at1 = np.searchsorted(others, counts[above] - 1)
    at_first = int(np.searchsorted(counts, first_count))
    moments = np.empty((3, n, 2))
    for players in _player_slices(n, len(others)):
        f0, f1 = _count_values(game, others, players)
        gain = np.zeros((2, len(f0), len(counts)))
        gain[0][:, above] = (f0 - f1)[:, at1]
        gain[1][:, below] = (f1 - f0)[:, at0]
        r = row[players]
        w, t, w0 = weights[:, r], spread[r], first[:, r]
        alone = np.flatnonzero(r == len(classes))
        if len(alone):
            at = col[players][alone]
            # K is 0 or 1 in a one-player class, so sum K^2 = sum K.
            plays1 = np.concatenate(
                [block[at] for block in ones], axis=1, dtype=np.float64
            )
            m1 = np.ones(len(at))
            w[:, alone], t[alone] = _cell_weights(plays1, plays1, m1, held)
            w0[:, alone] = np.stack((first_x[at], ~first_x[at]))
        mean = w * gain
        dev = mean - (w0 * gain[:, :, at_first])[:, :, None]
        moments[0, players] = (held * mean).sum(axis=2).T
        dev_held = held * dev
        moments[1, players] = dev_held.sum(axis=2).T
        moments[2, players] = (dev_held * dev + gain * gain * t).sum(axis=2).T
    return moments


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


def _weighted_moments(
    game: SummGame, probs: np.ndarray, samples: int, seed: int
) -> np.ndarray:
    """Monte Carlo's (3, n, 2) moments for a weighted S, from profiles.

    Profiles are drawn in blocks of min(``_BATCH_ROWS``, max(1,
    ``_BLOCK_CELLS`` // n)) rows, from one PCG64 stream through one
    float64 buffer of ``_CHUNK_CELLS`` cells, and each block goes through
    ``_deviation_payoffs``: it holds the block as a (rows, n) bool matrix
    and its (n, rows) transpose, at most 2^24 bools each once n > 1024,
    and evaluates both payoffs per player and row. The gain of deviating
    to b in a sample is g_b = F_b(S(x[i:b])) - F_{x_i}(S(x)); the shift s
    is the gain in the first sample, read off the first block's first row
    as it is evaluated: a row's state does not depend on its block, so
    that row gives the gains the first profile alone does.
    """
    n = len(probs)
    rng = np.random.default_rng(seed)
    moments = np.zeros((3, n, 2))
    shift = np.empty((n, 2))
    draws = np.empty((min(_chunk_rows(n), samples), n))
    # One bool buffer serves every block, so the short last block is not
    # allocated while a full one is still held.
    rows = min(_BATCH_ROWS, max(1, _BLOCK_CELLS // n), samples)
    buffer = np.empty((rows, n), dtype=bool)
    for drawn in range(0, samples, rows):
        bits = buffer[: min(rows, samples - drawn)]
        _draw_profiles(rng, probs, draws, bits)
        for players, x, f0, f1 in _deviation_payoffs(game, bits):
            current = np.where(x, f1, f0)
            for b, fb in ((0, f0), (1, f1)):
                # Each row of g is contiguous, so its sum is the one that
                # row alone gives; g then becomes g - s in place.
                g = fb - current
                plain = g.sum(axis=1)
                if drawn == 0:
                    shift[players, b] = g[:, 0]
                g -= shift[players, b, None]
                moments[:, players, b] += plain, g.sum(axis=1), (g * g).sum(axis=1)
    return moments


def _monte_carlo_mixed_regret(
    game: SummGame, profile: MixedProfile, samples: int, seed: int
) -> MixedRegret:
    """Seeded Monte-Carlo regrets and standard errors.

    ``_count_moments`` (a count-based S) or ``_weighted_moments`` gives,
    for each player i and deviation b, the sum of the sampled gains g_b,
    for the mean, and the first two moments of g_b - s, s being the gain
    in the first sample, for the standard error. The regret estimate is
    max_b mean(g_b), with the standard error of that b's mean from
    ``samples`` >= 2 (``_mixed_mode`` admits no fewer); about s, a gain
    the same in every sample has stderr exactly 0.
    """
    probs = np.asarray(profile.probs)
    if isinstance(game.summarization, _CountBase):
        moments = _count_moments(game, probs, samples, seed)
    else:
        moments = _weighted_moments(game, probs, samples, seed)
    total, dev_sum, dev_sq = moments
    # Each player's better deviation b and its mean.
    b = total[:, 1] / samples > total[:, 0] / samples
    regrets = np.where(b, total[:, 1], total[:, 0]) / samples
    # The variance of b's gains in place, rounded as Python floats round
    # it: float_power is the C library's pow, as Python's ** is, where
    # numpy's ** 2 squares and rounds differently on some values, and a
    # negative variance reads 0.0, as max(var, 0.0) gives.
    stderrs = np.where(b, dev_sq[:, 1], dev_sq[:, 0])
    dev = np.where(b, dev_sum[:, 1], dev_sum[:, 0])
    stderrs -= np.float_power(dev, 2) / samples
    stderrs /= samples - 1
    stderrs[stderrs < 0.0] = 0.0
    stderrs /= samples
    np.sqrt(stderrs, out=stderrs)
    return MixedRegret(
        tuple(regrets.tolist()), tuple(stderrs.tolist()), "monte_carlo"
    )


def _admit_work(cells: int, request: str) -> None:
    """Refuse, with CapabilityError, a request for more than ``WORK_CELLS``
    player cells; ``request`` names it in the message."""
    if cells > WORK_CELLS:
        raise CapabilityError(
            f"{request} asks for {cells} player cells, over the cap of "
            f"WORK_CELLS = {WORK_CELLS}"
        )


def _mixed_mode(n: int, mode: str, samples: int, seed: int) -> str:
    """The mode a mixed-regret request on an n-player game runs in, once
    the request is admitted: auto is exact up to
    ``EXACT_REGRET_MAX_PLAYERS`` players and Monte Carlo above, and any
    other mode is itself. Refused, with InputError unless stated: a mode
    other than "exact", "monte_carlo" or "auto"; a negative seed, in
    either mode; exact mode above the cap (CapabilityError); and Monte
    Carlo with fewer than 2 samples, whose standard errors one sample
    cannot give, or with samples times n above ``WORK_CELLS``
    (CapabilityError). ``samples`` is read only when Monte Carlo runs.
    Every caller that computes or certifies a mixed regret is admitted
    here."""
    if mode not in ("exact", "monte_carlo", "auto"):
        raise InputError(f"unknown regret mode {mode!r}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    if mode == "auto":
        mode = "exact" if n <= EXACT_REGRET_MAX_PLAYERS else "monte_carlo"
    if mode == "exact" and n > EXACT_REGRET_MAX_PLAYERS:
        raise CapabilityError(
            f"exact mixed regret is capped at n <= {EXACT_REGRET_MAX_PLAYERS} "
            f"(got n={n}); use monte_carlo mode"
        )
    if mode == "monte_carlo":
        if samples < 2:
            raise InputError(f"samples must be >= 2 for Monte Carlo, got {samples}")
        _admit_work(samples * n, f"Monte Carlo over {samples} samples of n={n} players")
    return mode


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
    by default. Exact mode is capped at n <= 20. It takes player i's
    expected payoff of forcing action b, d_b, from the law of S over the
    others' actions (``_exact_mixed_regret``), never from the 2^n
    profiles, and the regret p_i (d_0 - d_1)+ + (1 - p_i) (d_1 - d_0)+ is
    never negative; at n = 20 it takes about 1 ms under ``Mean`` or
    ``MajorityFraction`` and 10 ms under ``LinearWeighted``, and agrees
    with full enumeration to about 1e-15. Monte-Carlo mode draws i.i.d.
    samples from seeded PCG64 generators, so results are bit-identical for
    a fixed seed (``MC_SAMPLES`` samples by default). Under a weighted S
    it draws blocks of up to 16384 profiles and ``_BLOCK_CELLS`` (2^24)
    bools, so a block holds at most 16 MiB of bools and its transpose,
    and evaluates both payoffs for every player and row.
    Under ``Mean`` or ``MajorityFraction`` it draws class counts instead:
    the players that share one probability form a class, and a sample draws
    one count per class, Binomial(m, p) for a class of m >= 2 players and
    one uniform for a class of one, so a sample costs O(classes) draws. Each
    player's gain is then its expectation given those counts
    (Rao-Blackwellized), evaluated once per player at each count drawn and
    the one below it, and its mean and standard error come from three exact
    integer tallies per (class, count): the samples, sum K and sum K^2.
    Tables cover only the counts drawn, U of them (about 100 at n = 1000):
    int32 (n, U) tallies when every probability is distinct, much less with
    few classes. Standard errors take the second moments of each gain about
    its value in the first sample, so a gain that is the same in every
    sample has stderr exactly 0. ``_mixed_mode`` admits the request: the
    seed must be >= 0 in either mode, and Monte Carlo needs samples >= 2.
    """
    game._check_profile(profile.n)
    if _mixed_mode(game.n, mode, samples, seed) == "exact":
        return _exact_mixed_regret(game, profile)
    return _monte_carlo_mixed_regret(game, profile, samples, seed)
