"""End-to-end CLI behavior: result documents, exit codes, reproducibility."""

import json
import re

import pytest

from summgames import cli, discretization
from summgames.cli import main

SAMPLES = "samples"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _strip_duration(text: str) -> str:
    return re.sub(r'"duration_seconds": [0-9eE+.\-]+', '"duration_seconds": X', text)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_bar4(capsys, tmp_path):
    vtable = tmp_path / "vtable.tsv"
    code, out, _ = _run(
        capsys,
        "solve", f"{SAMPLES}/bar4.json", "--epsilon", "2",
        "--emit-vtable", str(vtable),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "solve"
    assert doc["game"]["players"] == 4
    assert doc["parameters"]["alpha"] == 0.25
    assert doc["certificate"]["profile"]["actions"] == [0, 0, 1, 1]
    assert max(doc["certificate"]["regrets"]) <= doc["certificate"]["epsilon_claimed"]
    lines = vtable.read_text().splitlines()
    assert lines[0].startswith("# alpha=")
    assert len(lines) == 1 + 4  # header + one row per interval
    assert [float(row.split("\t")[1]) for row in lines[1:]] == [1.0, 1.0, 0.0, 0.0]


def test_solve_refuses_an_oversized_vtable_before_solving(capsys, tmp_path, monkeypatch):
    # bar100 at epsilon 0.5 has K = 16 intervals: 1600 cells, over a cap of 1599.
    monkeypatch.setattr(discretization, "MAX_GRID_CELLS", 1599)

    def unreachable(*_):
        raise AssertionError("solve ran before the V table was refused")

    monkeypatch.setattr(cli, "summ_nash", unreachable)
    vtable = tmp_path / "vtable.tsv"
    code, out, err = _run(
        capsys,
        "solve", f"{SAMPLES}/bar100.json", "--epsilon", "0.5",
        "--emit-vtable", str(vtable),
    )
    assert (code, out) == (3, "")
    assert "over the cap of n*K <= 1599" in err
    assert not vtable.exists()


def test_solve_rejects_bad_epsilon(capsys):
    code, _, err = _run(capsys, "solve", f"{SAMPLES}/bar4.json", "--epsilon", "0")
    assert code == 2
    assert "epsilon" in err


def test_solve_malformed_game_names_field(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"summarization": {"type": "mean"}, "payoffs": []}))
    code, _, err = _run(capsys, "solve", str(bad), "--epsilon", "1")
    assert code == 2
    assert "$.players" in err


def test_infinite_slope_game_exits_2_naming_the_field(capsys, tmp_path):
    for steep, reason in (
        # Breakpoints one subnormal apart: the slope overflows to inf.
        ({"type": "piecewise_linear", "points": [[0, 0], [5e-324, 1], [1, 1]]}, "slope"),
        # 2c overflows, yet the vertex at z = 0.5 reaches 2.5e307.
        ({"type": "quadratic", "a": 0.5, "b": 1e308, "c": -1e308}, "extremum"),
    ):
        doc = {
            "players": 2,
            "summarization": {"type": "mean"},
            "payoffs": [
                {"action0": {"type": "constant", "c": 0.5}, "action1": steep},
                {"action0": steep, "action1": {"type": "constant", "c": 0.5}},
            ],
        }
        bad = tmp_path / "steep.json"
        bad.write_text(json.dumps(doc))
        for argv in (
            ("solve", str(bad), "--epsilon", "0.5"),
            ("learn", str(bad), "--epsilon", "0.5", "--delta", "1e-3"),
            ("brute", str(bad)),
        ):
            code, out, err = _run(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            assert "$.payoffs[0].action1" in err and reason in err, argv


@pytest.mark.parametrize(
    "raw", [b'{"players": "\xff"}', b"[" * 10**5], ids=["not-utf8", "too-deep"]
)
def test_undecodable_files_exit_2(capsys, tmp_path, raw):
    # Bytes that are not UTF-8 and nesting past the recursion limit used to
    # end in a traceback with exit 1, which verify reserves for a
    # certificate that fails validation.
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    for argv in (
        ("solve", str(bad), "--epsilon", "0.5"),
        ("verify", f"{SAMPLES}/bar4.json", str(bad)),
    ):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: {bad} is not valid JSON: "), argv


@pytest.mark.parametrize("normalize", [True, False])
def test_infinite_weight_game_exits_2_naming_the_weight(capsys, tmp_path, normalize):
    # Python's JSON reader accepts Infinity; normalized, the weights would
    # become (nan, 0.0) and tau NaN.
    doc = {
        "players": 2,
        "summarization": {
            "type": "linear_weighted",
            "weights": [float("inf"), 1],
            "normalize": normalize,
        },
        "payoffs": [
            {
                "action0": {"type": "affine", "a": 0.0, "b": 1.0},
                "action1": {"type": "affine", "a": 1.0, "b": -1.0},
            }
        ]
        * 2,
    }
    bad = tmp_path / "infinite.json"
    bad.write_text(json.dumps(doc))
    assert "[Infinity, 1]" in bad.read_text()
    for argv in (("solve", str(bad), "--epsilon", "0.5"), ("brute", str(bad))):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "$.summarization.weights[0]: " in err and "finite" in err, argv


def test_integer_beyond_the_float_range_exits_2_naming_the_field(capsys, tmp_path):
    # A one-player game whose constant payoff is a 400-digit integer used
    # to end in an OverflowError traceback with exit 1.
    bad = tmp_path / "huge.json"
    bad.write_text(
        '{"players": 1, "summarization": {"type": "mean"}, "payoffs": [{'
        f'"action0": {{"type": "constant", "c": {10**400}}}, '
        '"action1": {"type": "constant", "c": 0.5}}]}'
    )
    for argv in (("solve", str(bad), "--epsilon", "0.5"), ("brute", str(bad))):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == (
            "error: $.payoffs[0].action0.c: a 401-digit integer is beyond the "
            "float range\n"
        ), argv


# ---------------------------------------------------------------------------
# learn
# ---------------------------------------------------------------------------


def test_learn_bar100_reproducible(capsys, tmp_path):
    trajectory = tmp_path / "run.csv"
    args = (
        "learn", f"{SAMPLES}/bar100.json", "--epsilon", "2",
        "--delta", "1e-4", "--seed", "7", "--initial-prob", "0",
        "--trajectory", str(trajectory),
    )
    code1, out1, _ = _run(capsys, *args)
    first_csv = trajectory.read_text()
    code2, out2, _ = _run(capsys, *args)
    assert code1 == code2 == 0
    assert _strip_duration(out1) == _strip_duration(out2)
    assert trajectory.read_text() == first_csv
    doc = json.loads(out1)
    assert doc["learning"]["terminated"] == "max_steps"
    assert doc["parameters"]["beta"] == 0.125
    header = first_csv.splitlines()[0]
    assert "alpha=0.25" in header and "seed=7" in header


def test_learn_delta_zero_needs_max_steps(capsys):
    code, _, err = _run(
        capsys, "learn", f"{SAMPLES}/bar4.json", "--epsilon", "1", "--delta", "0"
    )
    assert code == 2
    assert "max_steps" in err


def test_learn_rejects_nonlinear_game(capsys, tmp_path):
    majority = tmp_path / "majority.json"
    majority.write_text(
        json.dumps(
            {
                "players": 3,
                "summarization": {"type": "majority_fraction"},
                "payoffs": [
                    {
                        "action0": {"type": "constant", "c": 0.5},
                        "action1": {"type": "affine", "a": 0.0, "b": 1.0},
                    }
                ]
                * 3,
            }
        )
    )
    code, _, err = _run(
        capsys, "learn", str(majority), "--epsilon", "1", "--delta", "1e-3"
    )
    assert code == 3
    assert "linear" in err


@pytest.mark.parametrize(
    "sample, flag, value",
    [
        ("bar4", "--seed", "-1"),
        ("bar100", "--seed", "-1"),
        ("bar100", "--samples", "0"),
        ("bar100", "--samples", "1"),
    ],
)
def test_learn_rejects_bad_certification_flags_before_the_loop(
    capsys, monkeypatch, sample, flag, value
):
    def no_best_response(*args):
        raise AssertionError("a best response was evaluated")

    monkeypatch.setattr(discretization, "_best_responses", no_best_response)
    code, out, err = _run(
        capsys,
        "learn", f"{SAMPLES}/{sample}.json", "--epsilon", "2",
        "--delta", "1e-3", flag, value,
    )
    assert (code, out) == (2, "")
    assert f"{flag[2:]} must be >= " in err and f"got {value}" in err


def test_learn_refuses_delta_at_or_above_beta(capsys):
    # bar100 at epsilon = 0.01 has beta = alpha/2 = 6.25e-4 < delta.
    code, out, err = _run(
        capsys,
        "learn", f"{SAMPLES}/bar100.json", "--epsilon", "0.01", "--delta", "1e-3",
        "--initial-prob", "0", "--max-steps", "1000",
    )
    assert (code, out) == (2, "")
    assert "delta=0.001 must be below beta=0.000625" in err


def test_learn_accepts_weights_summing_just_above_one(capsys, tmp_path):
    # Normalized, these weights sum to one ulp above 1, and so does the
    # mean of the all-ones start.
    pair = {
        "action0": {"type": "affine", "a": 1.0, "b": -1.0},
        "action1": {"type": "affine", "a": 0.0, "b": 1.0},
    }
    doc = {
        "players": 3,
        "summarization": {
            "type": "linear_weighted",
            "weights": [0.22269229209081687, 0.7753758182613923, 0.21279338361885758],
            "normalize": True,
        },
        "payoffs": [pair] * 3,
    }
    game = tmp_path / "weighted.json"
    game.write_text(json.dumps(doc))
    code, out, err = _run(
        capsys,
        "learn", str(game), "--epsilon", "0.5", "--delta", "1e-3",
        "--initial-prob", "1",
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["learning"]["final_mu"] > 1.0
    learned = tmp_path / "learned.json"
    learned.write_text(out)
    code, out, _ = _run(capsys, "verify", str(game), str(learned))
    assert code == 0 and json.loads(out)["report"]["valid"] is True


def test_learn_trajectory_snapshot_probs(capsys, tmp_path):
    trajectory = tmp_path / "probs.csv"
    code, _, _ = _run(
        capsys,
        "learn", f"{SAMPLES}/consensus4.json", "--epsilon", "1",
        "--delta", "1e-3", "--trajectory", str(trajectory), "--snapshot-probs",
    )
    assert code == 0
    lines = trajectory.read_text().splitlines()
    assert lines[1] == "t,mu,max_delta,p_0,p_1,p_2,p_3"
    assert len(lines[2].split(",")) == 7


def test_learn_snapshot_probs_needs_a_trajectory(capsys):
    code, out, err = _run(
        capsys,
        "learn", f"{SAMPLES}/consensus4.json", "--epsilon", "1",
        "--delta", "1e-3", "--snapshot-probs",
    )
    assert (code, out) == (2, "")
    assert "--snapshot-probs" in err and "--trajectory" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_solve_verify_roundtrip(capsys, tmp_path):
    for sample in ("bar4", "consensus4", "voting10", "weighted-voting10", "bar100"):
        result = tmp_path / f"{sample}.json"
        code, out, _ = _run(
            capsys, "solve", f"{SAMPLES}/{sample}.json", "--epsilon", "0.5"
        )
        assert code == 0
        result.write_text(out)
        code, out, _ = _run(
            capsys, "verify", f"{SAMPLES}/{sample}.json", str(result)
        )
        assert code == 0, sample
        assert json.loads(out)["report"]["valid"] is True


def test_learn_verify_roundtrip_monte_carlo(capsys, tmp_path):
    result = tmp_path / "learn.json"
    code, out, _ = _run(
        capsys,
        "learn", f"{SAMPLES}/bar100.json", "--epsilon", "1",
        "--delta", "1e-3", "--seed", "11", "--samples", "4000",
    )
    assert code == 0
    result.write_text(out)
    code, out, _ = _run(
        capsys,
        "verify", f"{SAMPLES}/bar100.json", str(result),
        "--mode", "mc", "--samples", "4000", "--seed", "11",
    )
    assert code == 0
    assert json.loads(out)["report"]["mode"] == "monte_carlo"


def test_verify_counts_the_certificates_own_sampling_error(capsys, tmp_path):
    # A 3001-sample learned certificate checked with 20000 fresh samples:
    # judged against the fresh standard error alone, 12 of its 100 honest
    # regrets fall outside the allowance.
    result = tmp_path / "learn.json"
    code, out, _ = _run(
        capsys,
        "learn", f"{SAMPLES}/bar100.json", "--epsilon", "2", "--delta", "1e-3",
        "--initial-prob", "0", "--seed", "7", "--samples", "3001",
    )
    assert code == 0
    result.write_text(out)
    code, out, _ = _run(capsys, "verify", f"{SAMPLES}/bar100.json", str(result))
    report = json.loads(out)["report"]
    assert (code, report["valid"], report["violations"]) == (0, True, [])


def test_verify_negative_seed_exits_2(capsys, tmp_path):
    # A mixed certificate is recomputed with the seed, in either mode.
    doc = {
        "profile": {"kind": "mixed", "probs": [0.5] * 4},
        "epsilon_claimed": 1.0,
        "regrets": [0.0] * 4,
        "crossing": {"type": "learned"},
    }
    certificate = tmp_path / "mixed.json"
    certificate.write_text(json.dumps(doc))
    for mode in ("auto", "exact", "mc"):
        code, out, err = _run(
            capsys,
            "verify", f"{SAMPLES}/bar4.json", str(certificate),
            "--mode", mode, "--seed", "-3",
        )
        assert (code, out) == (2, ""), mode
        assert "seed must be >= 0, got -3" in err, mode


def test_verify_tampered_certificate_exits_1(capsys, tmp_path):
    code, out, _ = _run(capsys, "solve", f"{SAMPLES}/bar4.json", "--epsilon", "1")
    assert code == 0
    doc = json.loads(out)
    doc["certificate"]["regrets"] = [0.4, 0.0, 0.0, 0.0]
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, "verify", f"{SAMPLES}/bar4.json", str(forged))
    assert code == 1
    report = json.loads(out)["report"]
    assert report["valid"] is False
    assert report["violations"]


def test_verify_nan_certificate_exits_1(capsys, tmp_path):
    # Python's JSON reader accepts NaN; a certificate of NaN claims is not
    # valid, whatever its profile's recomputed regrets (0.9 here).
    code, out, _ = _run(capsys, "solve", f"{SAMPLES}/bar10.json", "--epsilon", "0.5")
    assert code == 0
    doc = json.loads(out)
    doc["certificate"]["profile"]["actions"] = [1] * 10
    doc["certificate"]["regrets"] = [float("nan")] * 10
    doc["certificate"]["epsilon_claimed"] = float("nan")
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(doc))
    assert "NaN" in forged.read_text()
    code, out, _ = _run(capsys, "verify", f"{SAMPLES}/bar10.json", str(forged))
    assert code == 1
    report = json.loads(out)["report"]
    assert report["valid"] is False
    assert len(report["violations"]) == 11
    assert max(report["recomputed_regrets"]) == pytest.approx(0.9)


def test_verify_wrong_game_arity_exits_2(capsys, tmp_path):
    code, out, _ = _run(capsys, "solve", f"{SAMPLES}/bar4.json", "--epsilon", "1")
    result = tmp_path / "bar4-cert.json"
    result.write_text(out)
    code, _, err = _run(capsys, "verify", f"{SAMPLES}/bar10.json", str(result))
    assert code == 2
    assert "players" in err


# ---------------------------------------------------------------------------
# brute
# ---------------------------------------------------------------------------


def test_brute_consensus4(capsys):
    code, out, _ = _run(capsys, "brute", f"{SAMPLES}/consensus4.json")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["epsilon_star"] == 0.0
    assert report["best_profile"] == [0, 0, 0, 0]
    assert report["profiles_examined"] == 16


def test_brute_bar4(capsys):
    code, out, _ = _run(capsys, "brute", f"{SAMPLES}/bar4.json")
    report = json.loads(out)["report"]
    assert code == 0
    assert report["epsilon_star"] == 0.0
    assert report["best_profile"] == [0, 0, 1, 1]


def test_brute_over_cap_exits_3(capsys, tmp_path):
    big = tmp_path / "big.json"
    big.write_text(
        json.dumps(
            {
                "players": 23,
                "summarization": {"type": "mean"},
                "payoffs": [
                    {
                        "action0": {"type": "constant", "c": 0.5},
                        "action1": {"type": "constant", "c": 0.5},
                    }
                ]
                * 23,
            }
        )
    )
    code, _, err = _run(capsys, "brute", str(big))
    assert code == 3
    assert "22" in err


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["solve", "--epsilon", "1e-320"], 3),
        (["solve", "--epsilon", "inf"], 2),
        (["learn", "--epsilon", "0.5", "--delta", "1e-3", "--beta", "1e-320"], 3),
        (["learn", "--epsilon", "0.5", "--delta", "1e-320"], 3),
        (["learn", "--epsilon", "0.5", "--delta", "inf"], 2),
    ],
)
def test_overflowing_parameters_fail_cleanly(capsys, argv, expected):
    # 8*rho/epsilon, 1/beta and 1/delta overflow to inf here; none may
    # reach math.ceil or math.log, or print Infinity as JSON.
    code, out, err = _run(capsys, argv[0], f"{SAMPLES}/bar4.json", *argv[1:])
    assert (code, out) == (expected, "")
    assert "Traceback" not in err
    assert err.startswith("capability error: " if expected == 3 else "error: ")


def test_solve_documents_byte_identical_modulo_duration(capsys):
    _, out1, _ = _run(capsys, "solve", f"{SAMPLES}/weighted-voting10.json", "--epsilon", "0.4")
    _, out2, _ = _run(capsys, "solve", f"{SAMPLES}/weighted-voting10.json", "--epsilon", "0.4")
    assert out1 != ""
    assert _strip_duration(out1) == _strip_duration(out2)
    assert json.loads(out1)["duration_seconds"] >= 0.0
