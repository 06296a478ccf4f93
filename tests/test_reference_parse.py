"""The game-file parser against the per-payoff object parser it replaced.

The reference below is the earlier ``parse_game``: it reads the payoffs in
document order, runs each payoff's range checks on Python floats, as the
catalog constructors made them before every kind stated its checks once
on columns, prefixes a rejection with the payoff's path, and takes rho as
the largest of the payoffs' derivative bounds. On a seeded corpus of
documents (every kind, piecewise payoffs of 2 to 6 breakpoints, ints,
-0.0, values exactly 0 and 1, Infinity and NaN tokens, bools, strings,
missing fields, breakpoints a subnormal apart, and zero, one or two faults
each) both parsers must raise the same InputError text, or give the same
tau, rho and payoff objects, with payoff banks that evaluate bit for bit
like the reference objects on a grid.
"""

import json
import math

import numpy as np

from summgames import (
    Affine,
    AlphaGrid,
    Constant,
    InputError,
    PiecewiseLinear,
    Quadratic,
)
from summgames.documents import (
    _expect_int,
    _expect_list,
    _expect_number,
    _expect_object,
    _get,
    _number_field,
    _parse_summarization,
    parse_game,
)

# ---------------------------------------------------------------------------
# Reference implementation
# ---------------------------------------------------------------------------


def _require_unit(value, what):
    if math.isnan(value) or not 0.0 <= value <= 1.0:
        raise InputError(f"{what} must lie in [0, 1], got {value}")


def _ref_payoff(kind, values):
    """The payoff of kind with the given fields, after the range checks its
    constructor made, and its derivative bound."""
    if kind is Constant:
        (c,) = values
        _require_unit(c, "constant payoff value")
        return Constant(c), 0.0
    if kind is Affine:
        a, b = values
        _require_unit(a, "affine payoff at z=0")
        _require_unit(a + b, "affine payoff at z=1")
        return Affine(a, b), abs(b)
    if kind is Quadratic:
        a, b, c = values
        _require_unit(a, "quadratic payoff at z=0")
        _require_unit(a + b + c, "quadratic payoff at z=1")
        if c != 0.0:
            vertex = -b / c / 2.0
            if 0.0 < vertex < 1.0:
                _require_unit(
                    a + vertex * (b + c * vertex),
                    f"quadratic payoff at its extremum z={vertex}",
                )
        return Quadratic(a, b, c), abs(b) + 2.0 * abs(c)
    pts = values
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
        (y2 - y1) / (z2 - z1) for (z1, y1), (z2, y2) in zip(pts, pts[1:])
    )
    for k, slope in enumerate(slopes):
        if not math.isfinite(slope):
            raise InputError(
                f"piecewise-linear segment {k} (points {k} and {k + 1}) "
                f"has slope {slope}, which is not finite"
            )
    return PiecewiseLinear(pts), max(abs(s) for s in slopes)


def _ref_parse_payoff(spec, path):
    obj = _expect_object(spec, path)
    kind = _get(obj, "type", path)
    scalar = (
        Constant if kind == "constant"
        else Affine if kind == "affine"
        else Quadratic if kind == "quadratic"
        else None
    )
    try:
        if scalar is not None:
            values = [_number_field(obj, key, path) for key in scalar._coefficients]
            return _ref_payoff(scalar, values)
        if kind == "piecewise_linear":
            raw = _expect_list(_get(obj, "points", path), f"{path}.points")
            points = []
            for j, pair in enumerate(raw):
                lst = _expect_list(pair, f"{path}.points[{j}]")
                if len(lst) != 2:
                    raise InputError(f"{path}.points[{j}]: expected a [z, value] pair")
                points.append(
                    (
                        _expect_number(lst[0], f"{path}.points[{j}][0]"),
                        _expect_number(lst[1], f"{path}.points[{j}][1]"),
                    )
                )
            return _ref_payoff(PiecewiseLinear, tuple(points))
    except InputError as err:
        message = str(err)
        if not message.startswith(path):
            raise InputError(f"{path}: {message}") from err
        raise
    raise InputError(
        f"{path}.type: unknown payoff type {kind!r}; expected constant, "
        "affine, quadratic, or piecewise_linear"
    )


def _ref_parse_game(doc):
    """(summarization, payoff pairs, rho) of a game-file document."""
    root = _expect_object(doc, "$")
    n = _expect_int(_get(root, "players", "$"), "$.players")
    if n < 1:
        raise InputError("$.players: must be >= 1")
    summarization = _parse_summarization(
        _get(root, "summarization", "$"), n, "$.summarization"
    )
    raw_payoffs = _expect_list(_get(root, "payoffs", "$"), "$.payoffs")
    if len(raw_payoffs) != n:
        raise InputError(
            f"$.payoffs: expected {n} entries (one per player), got "
            f"{len(raw_payoffs)}"
        )
    pairs, bounds = [], []
    for i, entry in enumerate(raw_payoffs):
        obj = _expect_object(entry, f"$.payoffs[{i}]")
        pair = []
        for action in ("action0", "action1"):
            spec = _get(obj, action, f"$.payoffs[{i}]")
            fn, bound = _ref_parse_payoff(spec, f"$.payoffs[{i}].{action}")
            pair.append(fn)
            bounds.append(bound)
        pairs.append(tuple(pair))
    return summarization, tuple(pairs), max(bounds)


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------

# Each stands in for a number: odd tokens, wrong types, and out-of-range or
# non-finite values, which JSON writes as Infinity and NaN.
_BAD_NUMBERS = (
    math.inf, -math.inf, math.nan, True, False, "0.5", None, [0.5], {"x": 1},
    1.5, -0.25, 2, -1,
)


def _bad_number(rng):
    return _BAD_NUMBERS[int(rng.integers(len(_BAD_NUMBERS)))]


def _number(rng, value):
    """value, sometimes as the int or the signed zero it equals."""
    if value in (0.0, 1.0) and rng.random() < 0.3:
        return int(value) if rng.random() < 0.5 else -0.0 if value == 0.0 else value
    return value


def _unit(rng):
    return _number(rng, float(rng.choice([rng.uniform(), 0.0, 1.0], p=[0.8, 0.1, 0.1])))


def _spec(rng):
    """A payoff spec of a random kind, most often a valid one."""
    kind = int(rng.integers(4))
    if kind == 0:
        return {"type": "constant", "c": _unit(rng)}
    if kind == 1:
        a = float(_unit(rng))
        b = float(rng.uniform(-a, 1.0 - a))
        return {"type": "affine", "a": _number(rng, a), "b": _number(rng, b)}
    if kind == 2:
        for _ in range(20):
            a, b, c = rng.uniform(), rng.uniform(-3, 3), rng.uniform(-2, 2)
            try:
                _ref_payoff(Quadratic, (a, b, c))
                break
            except InputError:
                continue
        return {"type": "quadratic", "a": _number(rng, a), "b": b, "c": c}
    p = int(rng.integers(2, 7))
    zs = [0.0, *sorted(rng.uniform(size=p - 2).tolist()), 1.0]
    if p > 2 and rng.random() < 0.05:
        zs[1] = float(rng.choice([5e-324, 1e-310, 2.2e-308]))
    ys = [_unit(rng) for _ in range(p)]
    if zs[1] < 1e-300 and rng.random() < 0.5:
        ys[1] = ys[0]
    return {
        "type": "piecewise_linear",
        "points": [[_number(rng, z), y] for z, y in zip(zs, ys)],
    }


def _intact(spec):
    """Whether spec has the shape ``_spec`` gives it, not broken yet."""
    if not isinstance(spec, dict):
        return False
    fields = {"constant": ("c",), "affine": ("a", "b"), "quadratic": ("a", "b", "c")}
    kind = spec.get("type")
    if kind == "piecewise_linear":
        points = spec.get("points")
        return isinstance(points, list) and len(points) >= 2 and all(
            isinstance(point, list) and len(point) == 2 for point in points
        )
    if not isinstance(kind, str) or kind not in fields:
        return False
    return all(key in spec for key in fields[kind])


def _break_spec(rng, spec):
    """spec with one fault: a bad number, a missing or unknown field, or a
    malformed breakpoint list."""
    if not _intact(spec):
        return spec
    fault = int(rng.integers(6))
    keys = [k for k in spec if k != "type"]
    if fault == 0 and spec["type"] != "piecewise_linear":
        spec[keys[int(rng.integers(len(keys)))]] = _bad_number(rng)
    elif fault == 0:
        point = spec["points"][int(rng.integers(len(spec["points"])))]
        point[int(rng.integers(2))] = _bad_number(rng)
    elif fault == 1:
        del spec[(["type"] + keys)[int(rng.integers(len(keys) + 1))]]
    elif fault == 2:
        spec["type"] = [None, "sinusoid", 7, ["affine"], "Affine"][int(rng.integers(5))]
    elif fault == 3 and spec["type"] == "piecewise_linear":
        points = spec["points"]
        j = int(rng.integers(len(points)))
        choice = int(rng.integers(6))
        if choice == 0:
            points[j] = points[j][:1]
        elif choice == 1:
            points[j] = points[j] + [0.5]
        elif choice == 2:
            points[j] = 0.5
        elif choice == 3:
            spec["points"] = points[: int(rng.integers(2))]
        elif choice == 4:
            # Out of order inside, or at the ends.
            if len(points) > 3:
                points[1], points[2] = points[2], points[1]
            else:
                points.reverse()
        else:
            spec["points"] = "points"
    elif fault == 3:
        # A range fault of the kind's own arithmetic.
        spec.update(
            {
                "constant": {"c": 1.0000000000000002},
                "affine": {"a": 0.5, "b": 0.8},
                "quadratic": {"a": 0.5, "b": 1e308, "c": -1e308},
            }[spec["type"]]
        )
    elif fault == 4 and spec["type"] == "piecewise_linear":
        # Breakpoints a subnormal apart: the slope overflows.
        points = spec["points"]
        if len(points) > 2:
            points[1] = [5e-324, 1.0 - float(points[0][1])]
        else:
            points[0][0] = 0.1
    elif fault == 4:
        spec.update({"a": 0.0, "b": 3.0, "c": -2.0, "type": "quadratic"})
    else:
        return [spec, None, 3, "affine"][int(rng.integers(4))]
    return spec


def _document(rng):
    n = int(rng.choice([1, 2, 3, 5, 8, 40]))
    payoffs = [{"action0": _spec(rng), "action1": _spec(rng)} for _ in range(n)]
    for _ in range(int(rng.choice([0, 1, 2], p=[0.4, 0.35, 0.25]))):
        i = int(rng.integers(n))
        action = ("action0", "action1")[int(rng.integers(2))]
        if not isinstance(payoffs[i], dict) or action not in payoffs[i]:
            continue  # already broken
        roll = rng.random()
        if roll < 0.1:
            del payoffs[i][action]
        elif roll < 0.15:
            payoffs[i] = [payoffs[i]]
        else:
            payoffs[i][action] = _break_spec(rng, payoffs[i][action])
    kind = int(rng.integers(3))
    if kind == 0:
        summarization = {"type": "mean"}
    elif kind == 1:
        summarization = {"type": "majority_fraction"}
    else:
        weights = rng.uniform(0.1, 1.0, size=n).tolist()
        summarization = {
            "type": "linear_weighted", "weights": weights, "normalize": True
        }
    doc = {"players": n, "summarization": summarization, "payoffs": payoffs}
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


def _outcome(parse, doc):
    try:
        return parse(doc), None
    except InputError as err:
        return None, str(err)


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def test_parse_game_matches_reference_parser():
    rng = np.random.default_rng(2002)
    points = np.unique(np.concatenate([AlphaGrid(64).grid_points(), [1.0, 5e-324]]))
    refused = accepted = 0
    for _ in range(600):
        text = _document(rng)
        doc = json.loads(text)
        ref, ref_err = _outcome(_ref_parse_game, doc)
        game, err = _outcome(parse_game, doc)
        assert err == ref_err, text
        if err is not None:
            refused += 1
            continue
        accepted += 1
        summarization, pairs, rho = ref
        assert game.tau == summarization.influence_bound(), text
        assert game.rho == rho, text
        assert game.payoffs == pairs, text
        for ours, theirs in zip(game.payoffs, pairs):
            for fn, ref_fn in zip(ours, theirs):
                assert _bits(fn._row()) == _bits(ref_fn._row()), text
        for b, bank in enumerate(game._banks):
            got = bank.evaluate(slice(0, game.n), points[None, :])
            want = np.stack([pair[b].evaluate_array(points) for pair in pairs])
            assert _bits(np.broadcast_to(got, want.shape)) == _bits(want), text
    assert refused >= 200 and accepted >= 150, (refused, accepted)
