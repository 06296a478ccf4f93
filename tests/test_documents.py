"""Game-file schema parsing and certificate document round-trips."""

import json

import pytest

from summgames import (
    Affine,
    Horizontal,
    InputError,
    Learned,
    LinearWeighted,
    MajorityFraction,
    Mean,
    MixedProfile,
    PiecewiseLinear,
    PureProfile,
    Quadratic,
    Vertical,
    EquilibriumCertificate,
)
from summgames.documents import (
    certificate_from_doc,
    certificate_to_doc,
    load_certificate,
    load_game,
    parse_game,
)


def _bar_doc(n=4):
    return {
        "players": n,
        "summarization": {"type": "mean"},
        "payoffs": [
            {
                "action0": {"type": "affine", "a": 0.0, "b": 1.0},
                "action1": {"type": "affine", "a": 1.0, "b": -1.0},
            }
            for _ in range(n)
        ],
    }


def test_parse_mean_game():
    game = parse_game(_bar_doc())
    assert game.n == 4
    assert isinstance(game.summarization, Mean)
    assert game.tau == 0.25
    assert game.rho == 1.0


def test_parse_all_payoff_kinds():
    doc = {
        "players": 2,
        "summarization": {"type": "majority_fraction"},
        "payoffs": [
            {
                "action0": {"type": "constant", "c": 0.5},
                "action1": {"type": "quadratic", "a": 0.0, "b": 2.0, "c": -2.0},
            },
            {
                "action0": {
                    "type": "piecewise_linear",
                    "points": [[0.0, 0.0], [0.5, 1.0], [1.0, 0.0]],
                },
                "action1": {"type": "affine", "a": 0.25, "b": 0.5},
            },
        ],
    }
    game = parse_game(doc)
    assert isinstance(game.summarization, MajorityFraction)
    assert isinstance(game.payoffs[0][1], Quadratic)
    assert isinstance(game.payoffs[1][0], PiecewiseLinear)
    assert isinstance(game.payoffs[1][1], Affine)


def test_parse_linear_weighted():
    doc = {
        "players": 3,
        "summarization": {
            "type": "linear_weighted",
            "weights": [3.0, 2.0, 1.0],
            "normalize": True,
        },
        "payoffs": [
            {
                "action0": {"type": "constant", "c": 0.1},
                "action1": {"type": "constant", "c": 0.9},
            }
        ]
        * 3,
    }
    game = parse_game(doc)
    assert isinstance(game.summarization, LinearWeighted)
    assert game.summarization.weights == (0.5, 1 / 3, 1 / 6)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("players"), "$.players"),
        (lambda d: d.pop("payoffs"), "$.payoffs"),
        (lambda d: d.update(players="four"), "$.players"),
        (lambda d: d["payoffs"].pop(), "$.payoffs"),
        (lambda d: d["payoffs"][1].pop("action1"), "$.payoffs[1]"),
        (
            lambda d: d["payoffs"][2].update(
                action0={"type": "affine", "a": 0.5, "b": 0.8}
            ),
            "$.payoffs[2].action0",
        ),
        (
            lambda d: d["payoffs"][0].update(action1={"type": "sinusoid"}),
            "$.payoffs[0].action1.type",
        ),
        (
            lambda d: d.update(summarization={"type": "linear_weighted", "weights": [1.0]}),
            "$.summarization.weights",
        ),
        (lambda d: d.update(summarization={"type": "median"}), "$.summarization.type"),
        (lambda d: d.update(players=0), "$.players: must be >= 1"),
        (
            lambda d: d.update(
                summarization={
                    "type": "linear_weighted",
                    "weights": [0.25] * 4,
                    "normalize": "yes",
                }
            ),
            "$.summarization.normalize: expected true or false",
        ),
        (
            lambda d: d["payoffs"][3].update(
                action1={
                    "type": "piecewise_linear",
                    "points": [[0.0, 0.0], [5e-324, 1.0], [1.0, 1.0]],
                }
            ),
            "$.payoffs[3].action1: piecewise-linear segment 0",
        ),
    ],
)
def test_parse_errors_name_the_field(mutate, fragment):
    doc = _bar_doc()
    mutate(doc)
    with pytest.raises(InputError) as err:
        parse_game(doc)
    assert fragment in str(err.value)


_HUGE = 10**400


@pytest.mark.parametrize(
    "mutate, path",
    [
        (
            lambda d: d["payoffs"][1].update(action0={"type": "constant", "c": _HUGE}),
            "$.payoffs[1].action0.c",
        ),
        (
            lambda d: d["payoffs"][2].update(
                action1={"type": "piecewise_linear", "points": [[0, 0], [-_HUGE, 1]]}
            ),
            "$.payoffs[2].action1.points[1][0]",
        ),
        (
            lambda d: d.update(
                summarization={"type": "linear_weighted", "weights": [1, 1, _HUGE, 1]}
            ),
            "$.summarization.weights[2]",
        ),
    ],
)
def test_integers_beyond_the_float_range_name_the_field(mutate, path):
    # float() of such an integer raises OverflowError, not InputError.
    doc = _bar_doc()
    mutate(doc)
    with pytest.raises(InputError) as err:
        parse_game(doc)
    assert str(err.value) == f"{path}: a 401-digit integer is beyond the float range"


def test_load_game_reports_digest_and_json_errors(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(_bar_doc()))
    game, digest = load_game(str(path))
    assert game.n == 4
    assert len(digest) == 64
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(InputError):
        load_game(str(broken))
    with pytest.raises(InputError):
        load_game(str(tmp_path / "missing.json"))


@pytest.mark.parametrize(
    "load, what", [(load_game, "game file"), (load_certificate, "certificate file")]
)
def test_loaders_report_unreadable_files_and_invalid_json(tmp_path, load, what):
    missing = str(tmp_path / "missing.json")
    with pytest.raises(InputError) as caught:
        load(missing)
    assert str(caught.value) == (
        f"cannot read {what} {missing}: [Errno 2] No such file or directory: "
        f"'{missing}'"
    )
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(InputError) as caught:
        load(str(broken))
    assert str(caught.value) == (
        f"{broken} is not valid JSON: Expecting property name enclosed in "
        "double quotes: line 1 column 2 (char 1)"
    )


# Each crossing kind, with the fields its document holds after the tag.
_CROSSINGS = (
    (Horizontal(3), {"type": "horizontal", "k": 3}),
    (Vertical(2, 1), {"type": "vertical", "k": 2, "walk_position": 1}),
    (Learned(), {"type": "learned"}),
)


def test_certificate_roundtrip_pure():
    for crossing, crossing_doc in _CROSSINGS:
        cert = EquilibriumCertificate(
            PureProfile((0, 1, 1)), 0.75, (0.0, 0.1, 0.05), crossing
        )
        doc = certificate_to_doc(cert)
        expected = {
            "profile": {"kind": "pure", "actions": [0, 1, 1]},
            "epsilon_claimed": 0.75,
            "regrets": [0.0, 0.1, 0.05],
            "crossing": crossing_doc,
        }
        # Key order included: the emitted document is printed as it is.
        assert doc == expected and json.dumps(doc) == json.dumps(expected)
        assert certificate_from_doc(doc) == cert


def test_certificate_roundtrip_mixed_with_stderrs():
    for crossing, crossing_doc in _CROSSINGS:
        cert = EquilibriumCertificate(
            MixedProfile((0.25, 0.5)),
            0.3,
            (0.01, 0.02),
            crossing,
            stderrs=(0.001, 0.002),
        )
        doc = certificate_to_doc(cert)
        expected = {
            "profile": {"kind": "mixed", "probs": [0.25, 0.5]},
            "epsilon_claimed": 0.3,
            "regrets": [0.01, 0.02],
            "crossing": crossing_doc,
            "stderrs": [0.001, 0.002],
        }
        assert doc == expected and json.dumps(doc) == json.dumps(expected)
        assert certificate_from_doc(doc) == cert


def test_certificate_from_result_document():
    cert = EquilibriumCertificate(
        PureProfile((1, 0)), 0.5, (0.0, 0.0), Learned()
    )
    wrapper = {"command": "solve", "certificate": certificate_to_doc(cert)}
    assert certificate_from_doc(wrapper) == cert


def test_certificate_integer_beyond_the_float_range_names_the_field():
    doc = certificate_to_doc(
        EquilibriumCertificate(PureProfile((1, 0)), 0.5, (0.0, 0.0), Learned())
    )
    doc["regrets"][1] = 10**400
    with pytest.raises(InputError, match=r"^\$\.regrets\[1\]: a 401-digit integer"):
        certificate_from_doc(doc)


def test_certificate_doc_validation():
    with pytest.raises(InputError):
        certificate_from_doc({"profile": {"kind": "pure"}})
    with pytest.raises(InputError):
        certificate_from_doc(
            {
                "profile": {"kind": "pure", "actions": [0, 1]},
                "epsilon_claimed": 0.5,
                "regrets": [0.0],  # wrong arity
                "crossing": {"type": "learned"},
            }
        )
    doc = certificate_to_doc(
        EquilibriumCertificate(PureProfile((1, 0)), 0.5, (0.0, 0.0), Learned())
    )
    for edit, message in (
        (
            lambda d: d["profile"].update(kind="other"),
            "$.profile.kind: expected 'pure' or 'mixed', got 'other'",
        ),
        (
            lambda d: d["profile"].update(kind=["pure"]),
            "$.profile.kind: expected 'pure' or 'mixed', got ['pure']",
        ),
        (
            lambda d: d.update(crossing={"type": "diagonal"}),
            "$.crossing.type: unknown crossing type 'diagonal'",
        ),
        (
            lambda d: d.update(crossing={"type": ["learned"]}),
            "$.crossing.type: unknown crossing type ['learned']",
        ),
    ):
        bad = json.loads(json.dumps(doc))
        edit(bad)
        with pytest.raises(InputError) as err:
            certificate_from_doc(bad)
        assert str(err.value) == message


def _mixed_doc():
    return certificate_to_doc(
        EquilibriumCertificate(
            MixedProfile((0.25, 0.5, 0.75)), 0.3, (0.01, 0.02, 0.03), Learned(),
            stderrs=(0.001, 0.002, 0.003),
        )
    )


def test_certificate_number_lists_accept_integers():
    doc = _mixed_doc()
    doc["profile"]["probs"] = [0, 1, 0.5]
    doc["regrets"] = [0, 0.02, 1]
    doc["stderrs"] = [0, 0, 0.003]
    cert = certificate_from_doc(doc)
    assert cert.profile.probs == (0.0, 1.0, 0.5)
    assert cert.regrets == (0.0, 0.02, 1.0)
    assert cert.stderrs == (0.0, 0.0, 0.003)
    for values in (cert.profile.probs, cert.regrets, cert.stderrs):
        assert all(type(v) is float for v in values)


@pytest.mark.parametrize(
    "field, path",
    [
        (lambda d: d["profile"]["probs"], "$.profile.probs"),
        (lambda d: d["regrets"], "$.regrets"),
        (lambda d: d["stderrs"], "$.stderrs"),
    ],
)
def test_certificate_number_lists_name_a_non_number(field, path):
    for j, bad in ((1, "0.5"), (2, None), (0, True), (2, [0.5])):
        doc = _mixed_doc()
        field(doc)[j] = bad
        with pytest.raises(InputError) as err:
            certificate_from_doc(doc)
        assert str(err.value) == (
            f"{path}[{j}]: expected a number, got {type(bad).__name__}"
        )


_BAD_STDERR = "certificate stderrs must be finite nonnegative numbers"


@pytest.mark.parametrize(
    "stderrs, message",
    [
        ([0.001, -1.0, -2.0], f"$.stderrs[1]: {_BAD_STDERR}"),
        ([float("nan"), 0.0, 0.0], f"$.stderrs[0]: {_BAD_STDERR}"),
        ([0.0, 0.0, float("inf")], f"$.stderrs[2]: {_BAD_STDERR}"),
        ([0.001, 0.002], "$.stderrs: 2 entries for a 3-player profile"),
        ([0.001] * 4, "$.stderrs: 4 entries for a 3-player profile"),
    ],
)
def test_certificate_stderr_faults_name_the_field(stderrs, message):
    # The certificate's constructor checks stderrs, and the document
    # boundary prefixes its fault with "$.".
    doc = _mixed_doc()
    doc["stderrs"] = stderrs
    with pytest.raises(InputError) as err:
        certificate_from_doc(doc)
    assert str(err.value) == message
    with pytest.raises(InputError) as err:
        EquilibriumCertificate(
            MixedProfile((0.25, 0.5, 0.75)), 0.3, (0.01, 0.02, 0.03), Learned(),
            stderrs=tuple(stderrs),
        )
    assert str(err.value) == message.removeprefix("$.")


@pytest.mark.parametrize(
    "kind, values, message",
    [
        (
            "probs",
            [0.25, 0.5, 1.5],
            "$.profile.probs[2]: mixed-strategy probabilities must lie in [0, 1]",
        ),
        (
            "probs",
            [0.25, -1, 2],
            "$.profile.probs[1]: mixed-strategy probabilities must lie in [0, 1]",
        ),
        (
            "actions",
            [0, 1, 2],
            "$.profile.actions[2]: pure actions must be exactly 0 or 1",
        ),
        ("actions", [], "$.profile.actions: a profile needs at least one player"),
        ("probs", [], "$.profile.probs: a profile needs at least one player"),
    ],
)
def test_certificate_profile_faults_name_the_entry(kind, values, message):
    doc = _mixed_doc()
    doc["profile"] = {
        "kind": "mixed" if kind == "probs" else "pure", kind: values
    }
    with pytest.raises(InputError) as err:
        certificate_from_doc(doc)
    assert str(err.value) == message
