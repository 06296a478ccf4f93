"""Shared game builders, seeded random-game generation and the
per-function step view the tests use as a reference.

Every generator takes an explicit numpy Generator so suites are fully
deterministic; nothing here draws from global randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from summgames import (
    Affine,
    AlphaGrid,
    Constant,
    InputError,
    LinearWeighted,
    Mean,
    Payoff,
    PiecewiseLinear,
    Quadratic,
    SummGame,
    interval_of,
)


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


def bar_game(n: int) -> SummGame:
    """Going out (action 1) pays off when few others go: F1 = 1-z, F0 = z."""
    return SummGame(
        Mean(n), tuple((Affine(0.0, 1.0), Affine(1.0, -1.0)) for _ in range(n))
    )


def consensus_game(n: int) -> SummGame:
    """Playing with the crowd pays: F1 = z, F0 = 1-z. Both unanimous
    profiles are exact equilibria."""
    return SummGame(
        Mean(n), tuple((Affine(1.0, -1.0), Affine(0.0, 1.0)) for _ in range(n))
    )


def adoption_game(n: int) -> SummGame:
    """One-sided variant: action 1 pays the adoption level, action 0 pays
    nothing (F1 = z, F0 = 0). All-ones is the unique minimum-regret pure
    profile."""
    return SummGame(
        Mean(n), tuple((Constant(0.0), Affine(0.0, 1.0)) for _ in range(n))
    )


def threshold_game(thresholds) -> SummGame:
    """Player i prefers action 1 while the mean is below thresholds[i]:
    F0 = 1/2, F1 = 1/2 + (thresholds[i] - z)/2, so players who agree at a
    low mean part ways at a higher one."""
    return SummGame(
        Mean(len(thresholds)),
        tuple(
            (Constant(0.5), Affine(0.5 + 0.5 * float(h), -0.5)) for h in thresholds
        ),
    )


def constant_game(n: int, c0: float = 0.5, c1: float = 0.5) -> SummGame:
    return SummGame(
        Mean(n), tuple((Constant(c0), Constant(c1)) for _ in range(n))
    )


def random_payoff(rng: np.random.Generator) -> Payoff:
    """A catalog payoff with derivative bound at most 3 and range in [0, 1]."""
    kind = rng.choice(["constant", "affine", "quadratic", "piecewise"])
    if kind == "constant":
        return Constant(float(rng.uniform()))
    if kind == "affine":
        a = float(rng.uniform())
        b = float(rng.uniform(-a, 1.0 - a))
        return Affine(a, b)
    if kind == "quadratic":
        for _ in range(100):
            a = float(rng.uniform())
            b = float(rng.uniform(-3.0, 3.0))
            cap = (3.0 - abs(b)) / 2.0
            c = float(rng.uniform(-cap, cap))
            try:
                return Quadratic(a, b, c)
            except InputError:
                continue
        return Constant(float(rng.uniform()))
    # Piecewise linear: a random walk over random breakpoints, clipped to
    # [0, 1]; clipping only shrinks slopes, so the bound of 3 is kept.
    zs = [0.0]
    for z in np.sort(rng.uniform(0.02, 0.98, size=int(rng.integers(1, 5)))):
        if z - zs[-1] >= 0.02:
            zs.append(float(z))
    while len(zs) > 1 and 1.0 - zs[-1] < 0.02:
        zs.pop()
    zs.append(1.0)
    value = float(rng.uniform())
    points = [(0.0, value)]
    for z_prev, z_next in zip(zs, zs[1:]):
        slope = float(rng.uniform(-3.0, 3.0))
        value = min(1.0, max(0.0, value + slope * (z_next - z_prev)))
        points.append((z_next, value))
    return PiecewiseLinear(tuple(points))


def random_game(
    rng: np.random.Generator, n: int, summ_kind: str = "mean"
) -> SummGame:
    """A random game with catalog payoffs (rho <= 3) and a mean or
    normalized weighted-vote summarization."""
    if summ_kind == "mean":
        summ = Mean(n)
    elif summ_kind == "linear":
        weights = rng.uniform(0.2, 1.0, size=n)
        summ = LinearWeighted(tuple(float(w) for w in weights), normalize=True)
    else:
        raise ValueError(f"unknown summarization kind {summ_kind!r}")
    pairs = tuple((random_payoff(rng), random_payoff(rng)) for _ in range(n))
    return SummGame(summ, pairs)


def catalog_payoff_suite(rng: np.random.Generator) -> list[Payoff]:
    """A fixed representative set plus random draws, one list to property-test."""
    fixed: list[Payoff] = [
        Constant(0.7),
        Affine(0.0, 1.0),
        Affine(1.0, -1.0),
        Affine(0.25, 0.5),
        Quadratic(0.0, 0.0, 1.0),
        Quadratic(0.0, 2.0, -2.0),
        Quadratic(1.0, -1.5, 0.5),
        PiecewiseLinear(((0.0, 0.0), (0.5, 1.0), (1.0, 0.0))),
        PiecewiseLinear(((0.0, 0.9), (0.2, 0.1), (0.7, 0.6), (1.0, 0.5))),
    ]
    return fixed + [random_payoff(rng) for _ in range(20)]
