"""The traced run: spans around the package's public functions.

For each job, ``mirror`` calls from outside the same public functions the
CLI command body calls, in the same order, with a span around each call,
then checks that it reproduced the CLI job's profile and regrets exactly.
``learn`` cannot be split from outside, so after its ``run_summ_learn``
span the mirror re-runs the discretization, the V table and the regret
certification on the same inputs as shadow spans; ``learning.loop_s`` is
the ``run_summ_learn`` time minus those (derived, not measured).

Spans stay in memory until ``Recorder.write`` saves them as JSON lines.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

from summgames.core import EXACT_REGRET_MAX_PLAYERS, MixedProfile, regret_mixed, regret_pure
from summgames.discretization import discretize_game, make_grid
from summgames.documents import certificate_to_doc, load_certificate, load_game
from summgames.learning import LearnConfig, MaxStepsReached, default_step_cap, run_summ_learn
from summgames.oracle import brute_min_epsilon, validate_certificate
from summgames.solver import (
    EquilibriumCertificate,
    Horizontal,
    Vertical,
    build_v_table,
    find_horizontal,
    find_vertical_and_walk,
)

from jobs import LEARN_DELTA, LEARN_EPSILON, Job, stable_json

__all__ = ["Recorder", "mirror", "layer_times"]


class Recorder:
    """Spans (name, start, end, parent, job) and work counts of one run."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, job: str, shadow: bool = False):
        record = {
            "name": name,
            "job": job,
            "parent": self._open[-1] if self._open else None,
            "shadow": shadow,
            "start": time.perf_counter(),
            "end": None,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its children cover."""
        totals: dict[str, float] = defaultdict(float)
        for record in self.spans:
            totals[record["name"]] += record["end"] - record["start"]
            if record["parent"] is not None:
                parent = self.spans[record["parent"]]["name"]
                totals[parent] -= record["end"] - record["start"]
        return dict(totals)

    def write(self, fh, round_index: int) -> None:
        """Append the spans as JSON lines tagged with the round index."""
        for index, record in enumerate(self.spans):
            fh.write(json.dumps({"round": round_index, "id": index, **record}) + "\n")


def _load(rec: Recorder, job: Job):
    with rec.span("documents.load_game", job.id):
        game, _ = load_game(job.game.path)
    rec.count("documents.bytes_read", job.game.size)
    return game


def _emit(rec: Recorder, job: Job, doc: dict) -> None:
    with rec.span("documents.emit", job.id):
        json.dumps(doc, indent=2)


def _mirror_solve(rec: Recorder, job: Job, cli_doc: dict) -> list[str]:
    epsilon = float(job.argv[job.argv.index("--epsilon") + 1])
    game = _load(rec, job)
    with rec.span("discretization.discretize_game", job.id):
        grid = make_grid(epsilon, game.rho)
        steps = discretize_game(game, grid)
    n, K = game.n, grid.K
    rec.count("discretization.intervals", K)
    rec.count("discretization.payoff_evals", 2 * n * K)
    with rec.span("solver.build_v_table", job.id):
        table = build_v_table(game, grid, steps)
    rec.count("solver.v_table_cells", n * K)
    with rec.span("solver.find_horizontal", job.id):
        k = find_horizontal(table)
    if k is None:
        with rec.span("solver.find_vertical_and_walk", job.id):
            k, position, profile = find_vertical_and_walk(game, table)
        crossing = Vertical(k, position)
        rec.count("solver.vertical_crossings", 1)
        rec.count("solver.walk_flips", position)
    else:
        profile, crossing = table.br[k], Horizontal(k)
    with rec.span("core.regret_pure", job.id):
        regrets = regret_pure(game, profile)
    rec.count("core.regret_pure_summ_terms", 2 * n * n)
    claimed = 3.0 * game.tau * game.rho + epsilon
    cert = certificate_to_doc(EquilibriumCertificate(profile, claimed, regrets, crossing))
    _emit(rec, job, cert)
    return _compare(job, cert, cli_doc["certificate"], ("profile", "regrets", "crossing"))


def _mirror_learn(rec: Recorder, job: Job, cli_doc: dict) -> list[str]:
    params = cli_doc["parameters"]
    samples, seed = params["samples"], params["seed"]
    initial_prob = float(job.argv[job.argv.index("--initial-prob") + 1])
    game = _load(rec, job)
    grid = make_grid(LEARN_EPSILON, game.rho)
    beta = grid.alpha / 2.0
    config = LearnConfig(
        epsilon=LEARN_EPSILON, delta=LEARN_DELTA, beta=beta,
        max_steps=default_step_cap(grid, beta, LEARN_DELTA),
    )
    with rec.span("learning.run_summ_learn", job.id):
        trajectory, cert, diagnostics = run_summ_learn(
            game, config, initial=MixedProfile((initial_prob,) * game.n),
            mc_samples=samples, mc_seed=seed,
        )
    steps = trajectory.terminated.step
    rec.count("learning.steps", steps)
    rec.count("learning.visits", len(diagnostics.visit_log))
    rec.count("learning.capped_runs", int(isinstance(trajectory.terminated, MaxStepsReached)))
    rec.count("learning.player_updates", steps * game.n)
    # Shadow calls: the learner's own sub-steps on the same inputs.
    with rec.span("discretization.discretize_game", job.id, shadow=True):
        step_payoffs = discretize_game(game, grid)
    rec.count("discretization.intervals", grid.K)
    rec.count("discretization.payoff_evals", 2 * game.n * grid.K)
    with rec.span("solver.build_v_table", job.id, shadow=True):
        build_v_table(game, grid, step_payoffs)
    rec.count("solver.v_table_cells", game.n * grid.K)
    if game.n <= EXACT_REGRET_MAX_PLAYERS:
        mode, name = "exact", "core.regret_mixed_exact"
        rec.count("core.exact_profiles", 1 << game.n)
    else:
        mode, name = "monte_carlo", "core.regret_mixed_mc"
        rec.count("core.mc_samples", samples)
    with rec.span(name, job.id, shadow=True):
        shadow = regret_mixed(game, cert.profile, mode=mode, samples=samples, seed=seed)
    doc = certificate_to_doc(cert)
    _emit(rec, job, doc)
    problems = _compare(job, doc, cli_doc["certificate"], ("profile", "regrets", "stderrs"))
    if shadow.regrets != cert.regrets:
        problems.append(f"{job.id}: shadow regret_mixed differs from the learner's")
    return problems


def _mirror_verify(rec: Recorder, job: Job, cli_doc: dict) -> list[str]:
    params = cli_doc["parameters"]
    game = _load(rec, job)
    with rec.span("documents.load_certificate", job.id):
        cert = load_certificate(params["certificate"])
    mode = {"exact": "exact", "mc": "monte_carlo", "auto": "auto"}[params["mode"]]
    with rec.span("oracle.validate_certificate", job.id):
        report = validate_certificate(
            game, cert, mode=mode, samples=params["samples"], seed=params["seed"]
        )
    if report.mode == "pure":
        rec.count("core.regret_pure_summ_terms", 2 * game.n * game.n)
    elif report.mode == "exact":
        rec.count("core.exact_profiles", 1 << game.n)
    else:
        rec.count("core.mc_samples", params["samples"])
    doc = {
        "valid": report.valid,
        "mode": report.mode,
        "recomputed_regrets": list(report.recomputed_regrets),
        "recomputed_stderrs": (
            None if report.recomputed_stderrs is None else list(report.recomputed_stderrs)
        ),
        "violations": list(report.violations),
    }
    _emit(rec, job, doc)
    return _compare(job, doc, cli_doc["report"], tuple(doc))


def _mirror_brute(rec: Recorder, job: Job, cli_doc: dict) -> list[str]:
    game = _load(rec, job)
    with rec.span("oracle.brute_min_epsilon", job.id):
        report = brute_min_epsilon(game)
    rec.count("oracle.profiles_examined", report.profiles_examined)
    doc = {
        "epsilon_star": report.epsilon_star,
        "best_profile": list(report.best_profile.actions),
        "profiles_examined": report.profiles_examined,
    }
    _emit(rec, job, doc)
    return _compare(job, doc, cli_doc["report"], tuple(doc))


def _compare(job: Job, mine: dict, cli: dict, keys: tuple[str, ...]) -> list[str]:
    # The CLI's floats went through JSON, which round-trips them exactly.
    mine = json.loads(json.dumps(mine))
    return [
        f"{job.id}: traced mirror differs from the CLI in {key!r}"
        for key in keys
        if mine.get(key) != cli.get(key)
    ]


def mirror(rec: Recorder, job: Job, cli_doc: dict) -> list[str]:
    """Re-run one job as spans around public calls; return any mismatch."""
    handler = {
        "solve": _mirror_solve,
        "learn": _mirror_learn,
        "verify": _mirror_verify,
        "brute": _mirror_brute,
    }[job.command]
    rec.count("documents.bytes_written", len(stable_json(cli_doc).encode()))
    with rec.span(f"job.{job.command}", job.id):
        return handler(rec, job, cli_doc)


def layer_times(rec: Recorder) -> dict[str, float]:
    """Per-layer self times of one traced round, plus the derived
    ``learning.loop_s``."""
    times = {
        f"{name}_s": value
        for name, value in rec.self_times().items()
        if not name.startswith("job.")
    }
    loop = 0.0
    for record in rec.spans:
        seconds = record["end"] - record["start"]
        if record["name"] == "learning.run_summ_learn":
            loop += seconds
        elif record["shadow"]:
            loop -= seconds
    times["learning.loop_s"] = loop
    return times
