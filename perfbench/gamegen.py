"""Seeded game files for the benchmark workloads.

The generator writes summgames game documents from the workload seed using
numpy alone; the package under test sees nothing but the JSON files.

* Sample families (bar, consensus, voting, weighted-voting) follow the
  layouts in ``samples/`` at a chosen population size. They have one or two
  player types; the seed only shuffles which player gets which type.
* Random-catalog games give every player its own payoff pair (n types),
  drawn from the catalog with slopes below 3. Player 0's action-0 payoff is
  an anchor of slope exactly 3, so rho = 3 for every draw and the grid size
  K = ceil(24 / epsilon) depends on epsilon alone.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "RHO",
    "GameSpec",
    "GameFile",
    "family_game",
    "random_game",
    "crossing_start",
    "player_types",
    "write_games",
]

RHO = 3.0
_SLOPE = 2.9  # random payoffs stay below the anchor's slope
_ANCHOR = {
    "type": "piecewise_linear",
    "points": [[0.0, 0.0], [0.25, 0.75], [1.0, 0.75]],
}
_CANDIDATES = 1000


def _affine(a: float, b: float) -> dict:
    return {"type": "affine", "a": a, "b": b}


def _pair(f0: dict, f1: dict) -> dict:
    return {"action0": f0, "action1": f1}


def family_game(family: str, n: int, rng: np.random.Generator) -> dict:
    """One of the four sample families at size n."""
    if family == "bar":
        pairs = [_pair(_affine(0.0, 1.0), _affine(1.0, -1.0))] * n
        return {"players": n, "summarization": {"type": "mean"}, "payoffs": pairs}
    if family == "consensus":
        pairs = [_pair(_affine(1.0, -1.0), _affine(0.0, 1.0))] * n
        return {"players": n, "summarization": {"type": "mean"}, "payoffs": pairs}
    if family == "voting":
        # 60% lean to action 1, 40% to action 0, as in samples/voting10.json.
        lean1 = _pair(_affine(0.0, 0.9), _affine(0.0, 1.0))
        lean0 = _pair(_affine(1.0, -1.0), _affine(0.9, -0.9))
        is_lean1 = rng.permutation(n) < (6 * n) // 10
        pairs = [lean1 if x else lean0 for x in is_lean1]
        return {"players": n, "summarization": {"type": "mean"}, "payoffs": pairs}
    if family == "weighted-voting":
        contrarian = _pair(_affine(0.0, 1.0), _affine(1.0, -1.0))
        follower = _pair(_affine(1.0, -1.0), _affine(0.0, 1.0))
        is_contrarian = rng.permutation(n) < n // 2
        pairs = [contrarian if x else follower for x in is_contrarian]
        return {
            "players": n,
            "summarization": {
                "type": "linear_weighted",
                "weights": [float(i + 1) for i in range(n)],
                "normalize": True,
            },
            "payoffs": pairs,
        }
    raise ValueError(f"unknown family {family!r}")


def _random_payoff(rng: np.random.Generator) -> dict:
    kind = int(rng.integers(4))
    if kind == 0:
        return {"type": "constant", "c": float(rng.uniform())}
    if kind == 1:
        a = float(rng.uniform())
        return _affine(a, float(rng.uniform(-a, 1.0 - a)))
    if kind == 2:
        for _ in range(100):
            a = float(rng.uniform())
            b = float(rng.uniform(-_SLOPE, _SLOPE))
            cap = (_SLOPE - abs(b)) / 2.0
            c = float(rng.uniform(-cap, cap))
            values = [a, a + b + c]
            if c != 0.0 and 0.0 < -b / (2.0 * c) < 1.0:
                values.append(a - b * b / (4.0 * c))
            if all(1e-9 <= v <= 1.0 - 1e-9 for v in values):
                return {"type": "quadratic", "a": a, "b": b, "c": c}
        return {"type": "constant", "c": float(rng.uniform())}
    # Piecewise linear: a clipped random walk over random breakpoints.
    zs = [0.0]
    for z in np.sort(rng.uniform(0.02, 0.98, size=int(rng.integers(1, 5)))):
        if z - zs[-1] >= 0.02:
            zs.append(float(z))
    while len(zs) > 1 and 1.0 - zs[-1] < 0.02:
        zs.pop()
    zs.append(1.0)
    value = float(rng.uniform())
    points = [[0.0, value]]
    for z_prev, z_next in zip(zs, zs[1:]):
        slope = float(rng.uniform(-_SLOPE, _SLOPE))
        value = min(1.0, max(0.0, value + slope * (z_next - z_prev)))
        points.append([z_next, value])
    return {"type": "piecewise_linear", "points": points}


def random_game(n: int, rng: np.random.Generator, summarization: str = "mean") -> dict:
    """A random-catalog game: every player a distinct type, rho exactly 3."""
    if summarization == "mean":
        summ: dict = {"type": "mean"}
    elif summarization == "weighted":
        weights = [float(w) for w in rng.uniform(0.2, 1.0, size=n)]
        summ = {"type": "linear_weighted", "weights": weights, "normalize": True}
    else:
        raise ValueError(f"unknown summarization {summarization!r}")
    pairs = [_pair(_random_payoff(rng), _random_payoff(rng)) for _ in range(n)]
    pairs[0] = _pair(_ANCHOR, pairs[0]["action1"])
    return {"players": n, "summarization": summ, "payoffs": pairs}


def _evaluate(spec: dict, z: np.ndarray) -> np.ndarray:
    kind = spec["type"]
    if kind == "constant":
        return np.full_like(z, spec["c"])
    if kind == "affine":
        return np.clip(spec["a"] + spec["b"] * z, 0.0, 1.0)
    if kind == "quadratic":
        return np.clip(spec["a"] + z * (spec["b"] + spec["c"] * z), 0.0, 1.0)
    xs, ys = zip(*spec["points"])
    return np.interp(z, xs, ys)


def crossing_start(doc: dict, epsilon: float) -> float | None:
    """An initial probability at the centre of a horizontal crossing.

    Recomputes the best-response value table V on the solver's grid
    (K = ceil(8 * rho / epsilon), ties to action 0) and returns the centre
    of the horizontal crossing nearest 1/2 whose V value keeps a tenth of
    an interval away from both edges, or None if there is none. Learning
    dynamics started there stay in that interval and stop after a step
    count fixed by beta and delta alone.
    """
    K = math.ceil(8.0 * RHO / epsilon)
    alpha = 1.0 / K
    z = np.arange(K) * alpha
    bits = np.array(
        [_evaluate(p["action1"], z) > _evaluate(p["action0"], z) for p in doc["payoffs"]]
    )
    summ = doc["summarization"]
    if summ["type"] == "mean":
        weights = np.full(doc["players"], 1.0 / doc["players"])
    else:
        weights = np.asarray(summ["weights"]) / math.fsum(summ["weights"])
    v = weights @ bits
    margin = alpha / 10.0
    inside = [
        k for k in range(K) if k * alpha + margin <= v[k] < (k + 1) * alpha - margin
    ]
    if not inside:
        return None
    k = min(inside, key=lambda k: abs((k + 0.5) * alpha - 0.5))
    return round((k + 0.5) * alpha, 6)


def player_types(doc: dict) -> int:
    """Distinct payoff pairs in a game: its number of player types."""
    return len({json.dumps(p, sort_keys=True) for p in doc["payoffs"]})


@dataclass(frozen=True)
class GameSpec:
    """What to generate: a family name or "random", its size and options.

    ``learn_epsilon`` asks for a random game whose learning dynamics start
    inside a horizontal crossing at that epsilon (see ``crossing_start``).
    """

    name: str
    kind: str
    n: int
    summarization: str = "mean"
    learn_epsilon: float | None = None


@dataclass(frozen=True)
class GameFile:
    name: str
    path: str
    n: int
    types: int
    size: int
    initial_prob: float | None = None


def _generate(spec: GameSpec, seed: int) -> tuple[dict, float | None]:
    rng = np.random.default_rng([seed, zlib.crc32(spec.name.encode())])
    if spec.kind != "random":
        return family_game(spec.kind, spec.n, rng), None
    if spec.learn_epsilon is None:
        return random_game(spec.n, rng, spec.summarization), None
    for _ in range(_CANDIDATES):
        doc = random_game(spec.n, rng, spec.summarization)
        start = crossing_start(doc, spec.learn_epsilon)
        if start is not None:
            return doc, start
    raise RuntimeError(f"no candidate for {spec.name} has a horizontal crossing")


def write_games(specs: list[GameSpec], seed: int, directory: Path) -> dict[str, GameFile]:
    """Generate every spec from the seed and write ``<name>.json`` files.

    Paths in the result are as given by ``directory`` (relative paths stay
    relative, so command outputs do not depend on where the checkout is).
    """
    directory.mkdir(parents=True, exist_ok=True)
    games = {}
    for spec in specs:
        doc, start = _generate(spec, seed)
        path = directory / f"{spec.name}.json"
        text = json.dumps(doc, separators=(",", ":"))
        path.write_text(text)
        games[spec.name] = GameFile(
            spec.name, str(path), spec.n, player_types(doc), len(text), start
        )
    return games
