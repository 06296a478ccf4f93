"""Workload job lists, the in-process CLI runner and the correctness gate.

A job is one ``summgames`` command line, run through ``summgames.cli.main``
in this process with stdout captured. Jobs run in a closed loop: one caller,
each job starts when the previous one returns.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from summgames.cli import main

from gamegen import GameFile, GameSpec

__all__ = [
    "WORKLOADS",
    "Job",
    "JobResult",
    "Gate",
    "build_jobs",
    "run_job",
    "stable_json",
    "stdout_digest",
]

# Fixed knobs of the workloads; see README.md for why each was chosen.
WIDE_N = 1000
WIDE_EPSILON = 0.5  # K = 16 on the families, 48 on the random game
FINE_SMALL_EPSILON = 6e-4  # K = 40000 at rho = 3
FINE_LARGE_EPSILON = 2.4e-3  # K = 10000 at rho = 3
LEARN_N = 1000
LEARN_EPSILON = 0.5
LEARN_DELTA = 1e-4

# Allowance on the brute-force sandwich for summation-order differences
# between the vectorized enumeration and the scalar regret oracle; the
# package's own sandwich test uses the same value.
SANDWICH_TOL = 1e-12

WORKLOADS: dict[str, list[GameSpec]] = {
    "solve-wide": [
        GameSpec("bar", "bar", WIDE_N),
        GameSpec("consensus", "consensus", WIDE_N),
        GameSpec("voting", "voting", WIDE_N),
        GameSpec("weighted-voting", "weighted-voting", WIDE_N),
        GameSpec("random", "random", WIDE_N),
    ],
    "solve-fine": [
        GameSpec("random20", "random", 20),
        GameSpec("random20w", "random", 20, summarization="weighted"),
        GameSpec("random150", "random", 150),
    ],
    "learn": [
        GameSpec("bar", "bar", LEARN_N),
        GameSpec("random", "random", LEARN_N, learn_epsilon=LEARN_EPSILON),
        GameSpec(
            "random20w", "random", 20, summarization="weighted",
            learn_epsilon=LEARN_EPSILON,
        ),
    ],
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation. ``output`` is where its stdout is saved, for a
    later ``verify`` job to read; ``source`` names the job whose output a
    ``verify`` job checks."""

    id: str
    command: str
    game: GameFile
    argv: tuple[str, ...]
    output: str | None = None
    source: str | None = None


@dataclass(frozen=True)
class JobResult:
    job: Job
    exit_code: int
    stdout: str
    seconds: float


def _solve(game: GameFile, epsilon: float, work: Path) -> Job:
    out = str(work / f"{game.name}.solve.json")
    argv = ("solve", game.path, "--epsilon", repr(epsilon))
    return Job(f"solve:{game.name}", "solve", game, argv, output=out)


def _learn(game: GameFile, initial_prob: float, work: Path) -> Job:
    out = str(work / f"{game.name}.learn.json")
    argv = (
        "learn", game.path, "--epsilon", repr(LEARN_EPSILON),
        "--delta", repr(LEARN_DELTA), "--initial-prob", repr(initial_prob),
    )
    return Job(f"learn:{game.name}", "learn", game, argv, output=out)


def _verify(source: Job, mode: str = "auto") -> Job:
    argv = ("verify", source.game.path, source.output, "--mode", mode)
    return Job(f"verify:{source.id}", "verify", source.game, argv, source=source.id)


def _brute(game: GameFile) -> Job:
    return Job(f"brute:{game.name}", "brute", game, ("brute", game.path))


def build_jobs(workload: str, games: dict[str, GameFile], work: Path) -> list[Job]:
    """The fixed job list of one round of a workload."""
    jobs: list[Job] = []
    if workload == "solve-wide":
        for game in games.values():
            solve = _solve(game, WIDE_EPSILON, work)
            jobs += [solve, _verify(solve)]
    elif workload == "solve-fine":
        for game in games.values():
            eps = FINE_SMALL_EPSILON if game.n <= 20 else FINE_LARGE_EPSILON
            solve = _solve(game, eps, work)
            jobs += [solve, _verify(solve)]
            if game.n <= 20:
                jobs.append(_brute(game))
    elif workload == "learn":
        for game in games.values():
            start = 0.0 if game.initial_prob is None else game.initial_prob
            learn = _learn(game, start, work)
            jobs += [learn, _verify(learn, "exact" if game.n <= 20 else "auto")]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


def run_job(job: Job) -> JobResult:
    """Run one job through the CLI entry point; the timed region covers the
    command and saving its stdout, as ``summgames ... > out.json`` would."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(job.argv))
        except SystemExit as exc:  # argparse rejects a malformed command line
            code = exc.code if isinstance(exc.code, int) else 2
    text = out.getvalue()
    if job.output is not None:
        Path(job.output).write_text(text)
    return JobResult(job, code, text, time.perf_counter() - start)


def stable_json(doc: dict) -> str:
    """A command's output document without ``duration_seconds``, the one
    field that differs between identical invocations."""
    return json.dumps({k: v for k, v in doc.items() if k != "duration_seconds"}, indent=2)


def stdout_digest(doc: dict) -> str:
    return hashlib.sha256(stable_json(doc).encode()).hexdigest()


class Gate:
    """Checks every job's output; remembers what later checks compare against.

    Checks: exit code 0; a ``solve`` certificate claims 3*tau*rho + epsilon
    and its max regret stays within it; ``verify`` reports valid; the
    solver's max regret is at least ``brute``'s epsilon_star on the same
    game; a job's stdout digest is the same in every round.
    """

    def __init__(self) -> None:
        self.docs: dict[str, dict] = {}
        self.digests: dict[str, str] = {}
        self.solver_regret: dict[str, float] = {}

    def check(self, result: JobResult) -> list[str]:
        job = result.job
        if result.exit_code != 0:
            return [f"{job.id}: exit code {result.exit_code}, expected 0"]
        try:
            doc = json.loads(result.stdout)
        except json.JSONDecodeError as err:
            return [f"{job.id}: stdout is not one JSON document: {err}"]
        problems = getattr(self, f"_check_{job.command}")(job, doc)
        digest = stdout_digest(doc)
        if self.digests.setdefault(job.id, digest) != digest:
            problems.append(f"{job.id}: stdout differs from its first run")
        self.docs[job.id] = doc
        return problems

    def _check_solve(self, job: Job, doc: dict) -> list[str]:
        cert = doc["certificate"]
        game = doc["game"]
        bound = 3.0 * game["tau"] * game["rho"] + doc["parameters"]["epsilon"]
        worst = max(cert["regrets"])
        self.solver_regret[job.game.name] = worst
        problems = []
        if cert["epsilon_claimed"] != bound:
            problems.append(
                f"{job.id}: claims {cert['epsilon_claimed']}, not 3*tau*rho+eps = {bound}"
            )
        if len(cert["regrets"]) != job.game.n:
            problems.append(f"{job.id}: {len(cert['regrets'])} regrets for n={job.game.n}")
        if not worst <= bound:
            problems.append(f"{job.id}: max regret {worst} above the bound {bound}")
        return problems

    def _check_verify(self, job: Job, doc: dict) -> list[str]:
        report = doc["report"]
        if report["valid"] is not True:
            return [f"{job.id}: certificate of {job.source} is invalid: {report['violations']}"]
        return []

    def _check_brute(self, job: Job, doc: dict) -> list[str]:
        star = doc["report"]["epsilon_star"]
        solver = self.solver_regret.get(job.game.name)
        if solver is None or not star <= solver + SANDWICH_TOL:
            return [f"{job.id}: epsilon_star {star} vs solver max regret {solver}"]
        return []

    def _check_learn(self, job: Job, doc: dict) -> list[str]:
        cert = doc["certificate"]
        if cert["profile"]["kind"] != "mixed" or len(cert["regrets"]) != job.game.n:
            return [f"{job.id}: expected a mixed certificate over {job.game.n} players"]
        return []
