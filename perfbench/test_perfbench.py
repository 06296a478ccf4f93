"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from gamegen import GameSpec, write_games  # noqa: E402
from jobs import WORKLOADS, Gate, JobResult, build_jobs, run_job  # noqa: E402
import run  # noqa: E402
from bench import END_TO_END, PER_LAYER  # noqa: E402
from spans import Recorder, mirror  # noqa: E402


def _bytes(games) -> dict[str, bytes]:
    return {name: Path(game.path).read_bytes() for name, game in games.items()}


def test_generator_is_deterministic_per_seed(tmp_path):
    for workload, specs in WORKLOADS.items():
        first = write_games(specs, 7, tmp_path / "a" / workload)
        again = write_games(specs, 7, tmp_path / "b" / workload)
        other = write_games(specs, 8, tmp_path / "c" / workload)
        assert _bytes(first) == _bytes(again)
        assert [(g.types, g.size, g.initial_prob) for g in first.values()] == [
            (g.types, g.size, g.initial_prob) for g in again.values()
        ]
        random_names = [s.name for s in specs if s.kind == "random"]
        assert all(_bytes(first)[name] != _bytes(other)[name] for name in random_names)


def test_type_counts(tmp_path):
    games = write_games(WORKLOADS["solve-wide"], 3, tmp_path)
    assert {name: game.types for name, game in games.items()} == {
        "bar": 1, "consensus": 1, "voting": 2, "weighted-voting": 2,
        "random": games["random"].n,
    }


def _small_round(tmp_path):
    games = write_games([GameSpec("bar", "bar", 6)], 1, tmp_path)
    jobs = build_jobs("solve-fine", games, tmp_path)
    assert [job.command for job in jobs] == ["solve", "verify", "brute"]
    return jobs


def test_gate_passes_honest_jobs_and_flags_wrong_exit_code(tmp_path):
    gate = Gate()
    for job in _small_round(tmp_path):
        assert gate.check(run_job(job)) == []
    solve = run_job(_small_round(tmp_path)[0])
    assert gate.check(JobResult(solve.job, 2, solve.stdout, solve.seconds)) == [
        "solve:bar: exit code 2, expected 0"
    ]


def test_gate_flags_tampered_certificate(tmp_path):
    solve_job, verify_job, _ = _small_round(tmp_path)
    gate = Gate()
    solve = run_job(solve_job)
    assert gate.check(solve) == []

    doc = json.loads(solve.stdout)
    doc["certificate"]["regrets"][0] = doc["certificate"]["epsilon_claimed"] + 0.5
    tampered = json.dumps(doc, indent=2)
    problems = gate.check(JobResult(solve_job, 0, tampered, solve.seconds))
    assert any("above the bound" in p for p in problems)

    # The same tampering fed to `verify` makes the command exit 1.
    Path(solve_job.output).write_text(tampered)
    verify = run_job(verify_job)
    assert verify.exit_code == 1
    assert gate.check(verify) == ["verify:solve:bar: exit code 1, expected 0"]


def test_mirror_reproduces_cli_and_flags_a_mismatch(tmp_path):
    gate = Gate()
    jobs = _small_round(tmp_path)
    for job in jobs:
        assert gate.check(run_job(job)) == []
    rec = Recorder()
    for job in jobs:
        assert mirror(rec, job, gate.docs[job.id]) == []
    assert {s["name"] for s in rec.spans} >= {
        "job.solve", "documents.load_game", "solver.build_v_table",
        "core.regret_pure", "oracle.validate_certificate", "oracle.brute_min_epsilon",
    }
    assert all(s["parent"] is not None for s in rec.spans if not s["name"].startswith("job."))

    doc = json.loads(json.dumps(gate.docs[jobs[0].id]))
    doc["certificate"]["regrets"][0] += 1e-15
    assert mirror(rec, jobs[0], doc) == [
        "solve:bar: traced mirror differs from the CLI in 'regrets'"
    ]


def test_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == {name: unit for name, (unit, _) in END_TO_END.items()}
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == {name: unit for name, (unit, _) in PER_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOADS)


def _run(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-fine",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_every_printed_metric_is_declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        out = _run(ROOT, trace)
        assert out.returncode == 0, out.stderr
        declared = {m["name"]: m["unit"] for m in spec[section]}
        result = json.loads(out.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        printed = [line.split()[1] for line in out.stdout.splitlines() if line.startswith("metric ")]
        assert printed == list(declared)


def test_runner_refuses_a_tree_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, 0)
    assert out.returncode != 0
    assert out.stdout == ""
