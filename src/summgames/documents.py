"""Document formats: game files, certificate documents, table exports.

Game files are JSON, one game per document:

    {
      "players": 4,
      "summarization": {"type": "mean"},
      "payoffs": [
        {"action0": {"type": "affine", "a": 0.0, "b": 1.0},
         "action1": {"type": "affine", "a": 1.0, "b": -1.0}},
        ...
      ]
    }

Summarization specs: {"type": "mean"}, {"type": "majority_fraction"}, or
{"type": "linear_weighted", "weights": [...], "normalize": false}. These
are the only three kinds a game accepts, in files or in code.

Payoff specs: {"type": "constant", "c": ...}, {"type": "affine", "a": ...,
"b": ...}, {"type": "quadratic", "a": ..., "b": ..., "c": ...}, or
{"type": "piecewise_linear", "points": [[z, value], ...]}.

A certificate document holds its profile and its crossing as tagged
objects, each written and read through one table: ``_PROFILES`` maps a
profile's ``kind`` and ``_CROSSINGS`` a crossing's ``type`` to its
dataclass. The object's document holds the tag, then the dataclass's
fields in order, each read by the reader of its name (``_READERS``).

Payoffs are read into per-kind coefficient columns and range-checked as
arrays. Number lists (weights, and a certificate's probabilities, regrets
and stderrs) are read by one reader, ``_number_list``, and checked as
columns by their constructors. Parse errors name the offending field path
and the reason; a game file reports its first fault in document order.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from itertools import chain
from typing import Any

import numpy as np

from .core import (
    _PayoffRows,
    Affine,
    Constant,
    LinearWeighted,
    MajorityFraction,
    Mean,
    MixedProfile,
    PiecewiseLinear,
    PureProfile,
    Quadratic,
    SummGame,
    Summarization,
)
from .errors import InputError
from .learning import Trajectory
from .solver import (
    EquilibriumCertificate,
    Horizontal,
    Learned,
    VTable,
    Vertical,
)

__all__ = [
    "parse_game",
    "load_game",
    "certificate_to_doc",
    "certificate_from_doc",
    "load_certificate",
    "write_trajectory_csv",
    "write_vtable",
]


def _expect_object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _expect_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{path}: expected an array, got {type(value).__name__}")
    return value


def _expect_number(value: Any, path: str) -> float:
    # JSON numbers written with a fraction or an exponent are floats already.
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{path}: expected a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        digits = len(str(abs(value)))
        raise InputError(
            f"{path}: a {digits}-digit integer is beyond the float range"
        ) from None


def _number_list(value: Any, path: str) -> list[float]:
    """The JSON array at path as floats: a JSON float as it is, any other
    entry through ``_expect_number``, its path ``path[j]`` spelled out only
    then."""
    return [
        v if type(v) is float else _expect_number(v, f"{path}[{j}]")
        for j, v in enumerate(_expect_list(value, path))
    ]


def _expect_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{path}: expected an integer, got {type(value).__name__}")
    return value


def _int_list(value: Any, path: str) -> list[int]:
    """The JSON array at path as ints, each checked by ``_expect_int``."""
    return [
        _expect_int(v, f"{path}[{j}]") for j, v in enumerate(_expect_list(value, path))
    ]


def _get(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise InputError(f"{path}.{key}: missing required field")
    return obj[key]


def _number_field(obj: dict, key: str, path: str) -> float:
    """``obj[key]`` as a float; its path is spelled out only on an error."""
    value = _get(obj, key, path)
    if type(value) is float:
        return value
    return _expect_number(value, f"{path}.{key}")


def _int_field(obj: dict, key: str, path: str) -> int:
    """``obj[key]`` as an int."""
    return _expect_int(_get(obj, key, path), f"{path}.{key}")


_ACTIONS = ("action0", "action1")

_KINDS = {
    "constant": Constant,
    "affine": Affine,
    "quadratic": Quadratic,
    "piecewise_linear": PiecewiseLinear,
}


def _plain_rows(raw_payoffs: list) -> _PayoffRows | None:
    """The payoffs gathered by kind when every spec is an object of a known
    kind whose numbers are all JSON floats, as json.dumps writes floats;
    None for any other document, which the ordered walk then reads or
    refuses. Such a document passes every structural check, so only the
    range checks of its kinds remain. The specs are bucketed in one pass
    and each bucket's fields are read and type-checked a column at a time.
    """
    specs: dict = {}
    rows = _PayoffRows()
    try:
        for i, entry in enumerate(raw_payoffs):
            for b, action in enumerate(_ACTIONS):
                spec = entry[action]
                kind = spec["type"]
                count = len(spec["points"]) if kind == "piecewise_linear" else 0
                bucket = specs.get((b, kind, count))
                if bucket is None:
                    bucket = specs[b, kind, count] = ([], [])
                bucket[0].append(i)
                bucket[1].append(spec)
        for (b, kind, _), (members, bucket) in specs.items():
            cls = _KINDS.get(kind)
            if cls is None:
                return None
            if cls is PiecewiseLinear:
                points = [spec["points"] for spec in bucket]
                if set(map(type, points)) != {list}:
                    return None
                pairs = list(chain.from_iterable(points))
                if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
                    return None
                values = list(chain.from_iterable(pairs))
                if set(map(type, values)) != {float}:
                    return None
                table = np.array(values).reshape(len(members), -1)
            else:
                columns = [[spec[key] for spec in bucket] for key in cls._coefficients]
                if any(set(map(type, column)) != {float} for column in columns):
                    return None
                table = np.array(columns).T
            rows.add_group(b, cls, members, table)
    except (KeyError, TypeError):
        return None
    return rows


def _payoff_row(spec: Any, path: str) -> tuple[type, list[float]]:
    """The catalog kind of the payoff spec at path and its document row:
    a scalar kind's coefficients in field order, a piecewise payoff's
    breakpoints' positions and values in turn, each a float. Structural
    faults raise here; the kind's range checks run later, on its group."""
    obj = _expect_object(spec, path)
    kind = _get(obj, "type", path)
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InputError(
            f"{path}.type: unknown payoff type {kind!r}; expected constant, "
            "affine, quadratic, or piecewise_linear"
        )
    if cls is not PiecewiseLinear:
        return cls, [_number_field(obj, key, path) for key in cls._coefficients]
    raw = _expect_list(_get(obj, "points", path), f"{path}.points")
    row = []
    for j, pair in enumerate(raw):
        lst = _expect_list(pair, f"{path}.points[{j}]")
        if len(lst) != 2:
            raise InputError(f"{path}.points[{j}]: expected a [z, value] pair")
        row.append(_expect_number(lst[0], f"{path}.points[{j}][0]"))
        row.append(_expect_number(lst[1], f"{path}.points[{j}][1]"))
    return cls, row


def _parse_summarization(spec: Any, n: int, path: str) -> Summarization:
    obj = _expect_object(spec, path)
    kind = _get(obj, "type", path)
    if kind == "mean":
        return Mean(n)
    if kind == "majority_fraction":
        return MajorityFraction(n)
    if kind == "linear_weighted":
        weights = _number_list(_get(obj, "weights", path), f"{path}.weights")
        if len(weights) != n:
            raise InputError(
                f"{path}.weights: {len(weights)} weights for {n} players"
            )
        normalize = obj.get("normalize", False)
        if not isinstance(normalize, bool):
            raise InputError(f"{path}.normalize: expected true or false")
        return _built(f"{path}.", LinearWeighted, weights, normalize)
    raise InputError(
        f"{path}.type: unknown summarization type {kind!r}; expected mean, "
        "majority_fraction, or linear_weighted"
    )


def parse_game(doc: Any) -> SummGame:
    """Build a game from a parsed game-file document.

    The payoffs' numbers are gathered into per-kind column groups, whose
    range checks then run once per group as array operations. Payoffs
    that are all plain (``_plain_rows``) are gathered a column at a time;
    any others are walked once, in document order, through the structural
    checks, which name their field paths. The first fault in document
    order is reported: a structural fault first checks the rows gathered
    before it.
    """
    root = _expect_object(doc, "$")
    n = _int_field(root, "players", "$")
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
    rows = _plain_rows(raw_payoffs)
    if rows is None:
        rows = _PayoffRows()
        try:
            for i, entry in enumerate(raw_payoffs):
                obj = _expect_object(entry, f"$.payoffs[{i}]")
                for b, action in enumerate(_ACTIONS):
                    spec = _get(obj, action, f"$.payoffs[{i}]")
                    rows.add(i, b, *_payoff_row(spec, f"$.payoffs[{i}].{action}"))
        except InputError:
            # A range fault gathered before the structural one comes first.
            _raise_fault(rows.groups()[1])
            raise
    groups, fault = rows.groups()
    _raise_fault(fault)
    return SummGame._of_groups(summarization, groups)


def _raise_fault(fault: tuple[int, int, str] | None) -> None:
    if fault is not None:
        i, b, message = fault
        raise InputError(f"$.payoffs[{i}].action{b}: {message}")


def _read_json(path: str, what: str) -> tuple[bytes, Any]:
    """The bytes of the ``what`` file at path and the JSON they decode to."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise InputError(f"cannot read {what} {path}: {err}") from err
    # Undecodable bytes raise a UnicodeDecodeError, a ValueError as
    # JSONDecodeError is, and deep nesting a RecursionError.
    try:
        return raw, json.loads(raw)
    except (ValueError, RecursionError) as err:
        raise InputError(f"{path} is not valid JSON: {err}") from err


def load_game(path: str) -> tuple[SummGame, str]:
    """Read a game file; returns the game and the file's SHA-256 digest."""
    raw, doc = _read_json(path, "game file")
    return parse_game(doc), hashlib.sha256(raw).hexdigest()


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


# A certificate's tagged objects by the names their documents give them
# (see the module docstring).
_CROSSINGS = {"horizontal": Horizontal, "vertical": Vertical, "learned": Learned}
_PROFILES = {"pure": PureProfile, "mixed": MixedProfile}
_NAMES = {cls: name for table in (_CROSSINGS, _PROFILES) for name, cls in table.items()}
_READERS = {
    "k": _expect_int,
    "walk_position": _expect_int,
    "actions": _int_list,
    "probs": _number_list,
}


def _tagged_to_doc(tag: str, obj) -> dict:
    """obj as ``{tag: name, field: value, ...}``, a tuple field as a list."""
    doc = {tag: _NAMES[type(obj)]}
    for field in fields(obj):
        value = getattr(obj, field.name)
        doc[field.name] = list(value) if type(value) is tuple else value
    return doc


def _tagged_from_doc(root: dict, key: str, tag: str, table: dict, unknown: str):
    """The object at ``$.key`` that its ``tag`` names in table. An unknown
    name raises InputError with ``unknown`` formatted with the name and the
    table's names."""
    path = f"$.{key}"
    doc = _expect_object(_get(root, key, "$"), path)
    name = _get(doc, tag, path)
    if not isinstance(name, str) or name not in table:
        names = " or ".join(map(repr, table))
        raise InputError(f"{path}.{tag}: " + unknown.format(name=name, names=names))
    cls = table[name]
    values = [
        _READERS[field.name](_get(doc, field.name, path), f"{path}.{field.name}")
        for field in fields(cls)
    ]
    return _built(f"{path}.", cls, *values)


def certificate_to_doc(certificate: EquilibriumCertificate) -> dict:
    doc = {
        "profile": _tagged_to_doc("kind", certificate.profile),
        "epsilon_claimed": certificate.epsilon_claimed,
        "regrets": list(certificate.regrets),
        "crossing": _tagged_to_doc("type", certificate.crossing),
    }
    if certificate.stderrs is not None:
        doc["stderrs"] = list(certificate.stderrs)
    return doc


def _built(path: str, cls, *args):
    """cls(*args), an InputError of its constructor prefixed with ``path``:
    the constructor names the field ("weights[j]" of a weighted vote,
    "probs[j]" of a profile, "regrets" or "stderrs[j]" of a certificate),
    and path names where the object sits."""
    try:
        return cls(*args)
    except InputError as err:
        raise InputError(f"{path}{err}") from err


def certificate_from_doc(doc: Any) -> EquilibriumCertificate:
    root = _expect_object(doc, "$")
    # Accept a whole result document (as emitted by the CLI) or a bare
    # certificate object.
    if "certificate" in root:
        root = _expect_object(root["certificate"], "$.certificate")
    profile = _tagged_from_doc(
        root, "profile", "kind", _PROFILES, "expected {names}, got {name!r}"
    )
    epsilon = _number_field(root, "epsilon_claimed", "$")
    regrets = tuple(_number_list(_get(root, "regrets", "$"), "$.regrets"))
    crossing = _tagged_from_doc(
        root, "crossing", "type", _CROSSINGS, "unknown crossing type {name!r}"
    )
    stderrs = None
    if root.get("stderrs") is not None:
        stderrs = tuple(_number_list(root["stderrs"], "$.stderrs"))
    return _built(
        "$.", EquilibriumCertificate, profile, epsilon, regrets, crossing, stderrs
    )


def load_certificate(path: str) -> EquilibriumCertificate:
    return certificate_from_doc(_read_json(path, "certificate file")[1])


# ---------------------------------------------------------------------------
# Table exports
# ---------------------------------------------------------------------------


def write_trajectory_csv(
    path: str, trajectory: Trajectory, delta: float, seed: int
) -> None:
    """Delimited trajectory dump: t, mu, max_delta, and probability columns
    when snapshots were recorded. The header states the run's alpha and
    beta as resolved on the trajectory."""
    with_probs = any(step.probs is not None for step in trajectory.steps)
    n = trajectory.final.n
    alpha, beta = trajectory.grid.alpha, trajectory.beta
    lines = [f"# alpha={alpha!r} beta={beta!r} delta={delta!r} seed={seed!r}"]
    header = "t,mu,max_delta"
    if with_probs:
        header += "," + ",".join(f"p_{i}" for i in range(n))
    lines.append(header)
    for step in trajectory.steps:
        row = f"{step.t},{step.mu!r},{step.max_delta!r}"
        if with_probs:
            row += "," + ",".join(repr(p) for p in step.probs)
        lines.append(row)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_vtable(path: str, table: VTable) -> None:
    """Two-column dump of the best-response value table: k*alpha, V(I_k)."""
    grid = table.grid
    lines = [f"# alpha={grid.alpha!r} K={grid.K}"]
    lines.extend(f"{grid.left_edge(k)!r}\t{v!r}" for k, v in enumerate(table.v))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
