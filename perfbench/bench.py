"""One benchmark run: set-up, timed rounds of a workload's job list, metrics.

With ``trace=False`` the job list repeats while the time budget allows and
the end-to-end metrics are medians over those rounds. With ``trace=True``
each round runs the job list untraced and then traced (``spans.py``), and
the per-layer metrics come from the traced half.

End-to-end times are in reference seconds. The benchmark shares a host
whose speed drifts by tens of percent within seconds to minutes, so before
and after every job (and every set-up step) it times a fixed kernel
(``Kernel``), and reports a duration d as d * KERNEL_REF_S / k, with k the
median kernel time in the gaps on both sides of it. The kernel is the
benchmark's own code, so a change to the package cannot move it.
Per-layer times are plain seconds.
"""

from __future__ import annotations

import gc
import importlib
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from summgames.documents import load_game

from gamegen import GameSpec, write_games
from jobs import WORKLOADS, Gate, Job, build_jobs, run_job
from spans import Recorder, layer_times, mirror

__all__ = ["END_TO_END", "PER_LAYER", "WORK_DIR", "run"]

# name -> (unit, how it is obtained). "time" is measured wall time,
# "derived" a difference of measured times; counts are "computed" from the
# game size, grid and sample size or "observed" in the commands' outputs.
END_TO_END = {
    "wall_ref_s": ("s", "time: median over rounds of one round's job time, reference seconds"),
    "setup_s": ("s", "time: median of 5 imports plus median of 9 set-ups, reference seconds"),
    "peak_rss_mb": ("MB", "observed: peak resident memory of the process"),
}
PER_LAYER = {
    "cli.solve_s": ("s", "time: summed wall time of solve jobs, untraced"),
    "cli.verify_s": ("s", "time: summed wall time of verify jobs, untraced"),
    "cli.learn_s": ("s", "time: summed wall time of learn jobs, untraced"),
    "cli.brute_s": ("s", "time: summed wall time of brute jobs, untraced"),
    "documents.load_game_s": ("s", "time: self time"),
    "documents.load_certificate_s": ("s", "time: self time"),
    "documents.emit_s": ("s", "time: self time (certificate or report to JSON)"),
    "documents.bytes_read": ("bytes", "observed: game file sizes"),
    "documents.bytes_written": ("bytes", "observed: CLI stdout sizes without duration_seconds"),
    "discretization.discretize_game_s": ("s", "time: self time incl. make_grid"),
    "discretization.intervals": ("count", "computed: K summed over grids built"),
    "discretization.payoff_evals": ("count", "computed: 2*n*K per grid"),
    "solver.build_v_table_s": ("s", "time: self time"),
    "solver.v_table_cells": ("count", "computed: n*K per table"),
    "solver.find_horizontal_s": ("s", "time: self time"),
    "solver.find_vertical_and_walk_s": ("s", "time: self time"),
    "solver.walk_flips": ("count", "observed: walk_position of vertical crossings"),
    "solver.vertical_crossings": ("count", "observed: solves ending on a vertical crossing"),
    "core.regret_pure_s": ("s", "time: self time of the solver's certificate regrets"),
    "core.regret_pure_summ_terms": ("count", "computed: 2*n*n per pure regret vector"),
    "core.regret_mixed_mc_s": ("s", "time: self time (shadow call in learn)"),
    "core.mc_samples": ("count", "computed: samples per Monte-Carlo regret vector"),
    "core.regret_mixed_exact_s": ("s", "time: self time (shadow call in learn)"),
    "core.exact_profiles": ("count", "computed: 2^n per exact regret vector"),
    "oracle.validate_certificate_s": ("s", "time: self time incl. its regret recomputation"),
    "oracle.brute_min_epsilon_s": ("s", "time: self time"),
    "oracle.profiles_examined": ("count", "observed: brute report"),
    "learning.run_summ_learn_s": ("s", "time: inclusive time of run_summ_learn"),
    "learning.loop_s": ("s", "derived: run_summ_learn minus its shadow sub-steps"),
    "learning.steps": ("count", "observed: learner steps"),
    "learning.visits": ("count", "observed: interval visits"),
    "learning.capped_runs": ("count", "observed: runs ended by the step cap"),
    "learning.player_updates": ("count", "computed: steps*n"),
    "trace.wall_s": ("s", "time: wall time of the traced round"),
    "trace.overhead_s": ("s", "derived: traced minus untraced round wall time"),
}

SETUP_REPS = 9
IMPORT_REPS = 5
WORK_DIR = Path(".perfbench_work")
# About the median kernel time on the machine the baseline was recorded
# on, so that reference seconds there read roughly as seconds.
KERNEL_REF_S = 0.005
KERNEL_SAMPLES = 2  # kernel runs per gap between jobs
KERNEL_LOOP = 100_000  # floats the interpreter loop visits
KERNEL_ARRAY = 1_000_000  # float64 elements of the numpy pass (8 MB)


class Kernel:
    """Fixed work of the two kinds the workloads do, an interpreter loop and
    a numpy pass. Its buffers are made once; a timed call allocates nothing,
    so the program's heap and allocator state cannot change its time."""

    def __init__(self) -> None:
        self._floats = tuple(float(i) for i in range(KERNEL_LOOP))
        self._array = np.zeros(KERNEL_ARRAY)

    def __call__(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for x in self._floats:
            acc += x * x
        np.add(self._array, 1.0, out=self._array)
        self._array.sum()
        return time.perf_counter() - start


class Speed:
    """Kernel samples in the gaps of a sequence of timed steps: gap i comes
    before step i and gap i + 1 after it."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.gaps: list[list[float]] = []

    def sample(self) -> None:
        self.gaps.append([self.kernel() for _ in range(KERNEL_SAMPLES)])

    def to_reference(self, seconds: float, step: int) -> float:
        """Step ``step``'s duration in reference seconds."""
        around = self.gaps[step] + self.gaps[step + 1]
        return seconds * KERNEL_REF_S / statistics.median(around)

    def median(self) -> float:
        return statistics.median(k for gap in self.gaps for k in gap)


def _import_seconds() -> float:
    """Median time to import the whole package afresh, IMPORT_REPS times.

    The modules of the first import, which the harness uses, are put back
    afterwards, so the fresh copies serve only the measurement.
    """
    def ours() -> list[str]:
        return [name for name in sys.modules if name.partition(".")[0] == "summgames"]

    kept = {name: sys.modules[name] for name in ours()}
    times = []
    try:
        for _ in range(IMPORT_REPS):
            for name in ours():
                del sys.modules[name]
            start = time.perf_counter()
            importlib.import_module("summgames.cli")
            times.append(time.perf_counter() - start)
    finally:
        for name in ours():
            del sys.modules[name]
        sys.modules.update(kept)
    return statistics.median(times)


class Bench:
    """Set-up, rounds of the job list and the gate tallies of one run."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.work = WORK_DIR / f"{workload}-s{seed}"
        self.gate = Gate()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def setup(self, speed: Speed) -> list[float]:
        """Generate, load and warm up SETUP_REPS times; returns their times."""
        reps = []
        for _ in range(SETUP_REPS):
            speed.sample()
            start = time.perf_counter()
            shutil.rmtree(self.work, ignore_errors=True)
            self.games = write_games(WORKLOADS[self.workload], self.seed, self.work)
            for game in self.games.values():
                load_game(game.path)
            warm_dir = self.work / "warmup"
            warm = write_games([GameSpec("warmup", "bar", 6)], self.seed, warm_dir)
            for job in build_jobs("solve-fine", warm, warm_dir):
                run_job(job)
            run_job(Job("warmup", "learn", warm["warmup"], (
                "learn", warm["warmup"].path, "--epsilon", "0.5", "--delta", "0.01")))
            reps.append(time.perf_counter() - start)
        speed.sample()
        self.jobs = build_jobs(self.workload, self.games, self.work)
        return reps

    def _tally(self, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += problems

    def cli_round(self, speed: Speed) -> tuple[list[float], dict[str, float]]:
        """Run the job list once through the CLI, sampling the kernel in
        every gap; returns each job's seconds and their sum per command."""
        seconds = []
        per_command = {"solve": 0.0, "verify": 0.0, "learn": 0.0, "brute": 0.0}
        for job in self.jobs:
            speed.sample()
            result = run_job(job)
            seconds.append(result.seconds)
            per_command[job.command] += result.seconds
            self._tally(self.gate.check(result))
        speed.sample()
        return seconds, per_command

    def traced_round(self, rec: Recorder) -> float:
        start = time.perf_counter()
        for job in self.jobs:
            if job.id not in self.gate.docs:
                self._tally([f"{job.id}: no CLI output to mirror"])
                continue
            try:
                problems = mirror(rec, job, self.gate.docs[job.id])
            except Exception:  # report the failure, keep measuring the rest
                problems = [f"{job.id}: traced mirror raised\n{traceback.format_exc()}"]
            self._tally(problems)
        return time.perf_counter() - start


def _median_dicts(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row.get(key, 0.0) for row in rows) for key in rows[0]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure for ``seconds``, print the report and return the
    result object (correct, attempted, failed, metrics)."""
    bench = Bench(workload, seed)
    kernel = Kernel()
    setup_speed = Speed(kernel)
    setup_speed.sample()
    import_s = _import_seconds()
    setup_reps = bench.setup(setup_speed)
    setup_s = setup_speed.to_reference(import_s, 0) + statistics.median(
        setup_speed.to_reference(rep, step) for step, rep in enumerate(setup_reps, 1)
    )
    walls: list[float] = []
    ref_walls: list[float] = []
    kernels: list[float] = []
    traced_walls: list[float] = []
    rounds: list[float] = []
    commands: list[dict[str, float]] = []
    layers: list[dict[str, float]] = []
    recorders: list[Recorder] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + statistics.median(rounds) <= seconds:
        began = time.perf_counter()
        gc.collect()  # garbage from set-up or the last round is not this round's cost
        speed = Speed(kernel)
        job_seconds, per_command = bench.cli_round(speed)
        walls.append(sum(job_seconds))
        ref_walls.append(sum(speed.to_reference(s, step) for step, s in enumerate(job_seconds)))
        kernels.append(speed.median())
        commands.append({f"cli.{name}_s": value for name, value in per_command.items()})
        if trace:
            gc.collect()
            rec = Recorder()
            traced_walls.append(bench.traced_round(rec))
            layers.append(layer_times(rec))
            recorders.append(rec)
        rounds.append(time.perf_counter() - began)
    if any(rec.counts != recorders[0].counts for rec in recorders):
        bench.failed += 1
        bench.problems.append("work counts differ between traced rounds")

    print(f"perfbench workload={workload} seed={seed} trace={int(trace)} "
          f"rounds={len(walls)} jobs_per_round={len(bench.jobs)}")
    print(f"setup import={import_s:.4f} reps=" + " ".join(f"{r:.4f}" for r in setup_reps)
          + f" kernel={setup_speed.median():.6f}")
    print("round_walls " + " ".join(f"{w:.4f}" for w in walls))
    print("round_kernels " + " ".join(f"{k:.6f}" for k in kernels))
    for game in bench.games.values():
        print(f"game {game.name} n={game.n} types={game.types} bytes={game.size}")
    for job_id, digest in bench.gate.digests.items():
        print(f"digest {job_id} {digest}")
    for problem in bench.problems:
        print(f"FAILED {problem}")
    print(f"gate attempted={bench.attempted} failed={bench.failed} "
          f"failed_frac={bench.failed / bench.attempted}")

    if trace:
        # Times are medians over rounds; work counts repeat exactly.
        values = {**_median_dicts(commands), **_median_dicts(layers), **recorders[0].counts}
        values["trace.wall_s"] = statistics.median(traced_walls)
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        catalogue = PER_LAYER
        with open(WORK_DIR / f"{workload}-s{seed}-spans.jsonl", "w") as fh:
            for index, rec in enumerate(recorders):
                rec.write(fh, round_index=index)
    else:
        values = {
            "wall_ref_s": statistics.median(ref_walls),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        catalogue = END_TO_END
    unknown = set(values) - set(catalogue)
    if unknown:
        raise RuntimeError(f"metrics missing from the catalogue: {sorted(unknown)}")
    metrics = {}
    for name, (unit, label) in catalogue.items():
        value = values.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
        print(f"metric {name} = {value} {unit} [{label}]")
    shutil.rmtree(bench.work, ignore_errors=True)
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
