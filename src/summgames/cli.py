"""Command-line interface.

Four commands: ``solve`` (compute a pure approximate equilibrium and its
certificate), ``learn`` (simulate the distributed dynamics on a linear
game), ``verify`` (re-derive a certificate's regrets from scratch), and
``brute`` (exhaustive minimum-regret search for small games).

Every command prints one JSON result document to stdout with a stable
field order; the trailing wall-clock field is the only thing that varies
between identical invocations. Exit codes: 0 success, 1 a certificate
failed validation, 2 input error (bad file, bad parameters), 3 capability
error (the request is over an explicit cap).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .core import MC_SAMPLES, MixedProfile
from .discretization import make_grid
from .documents import (
    certificate_to_doc,
    load_certificate,
    load_game,
    write_trajectory_csv,
    write_vtable,
)
from .errors import CapabilityError, ContractError, InputError
from .learning import (
    Converged,
    LearnConfig,
    broadcast_mean,
    run_summ_learn,
)
from .oracle import brute_min_epsilon, validate_certificate
from .solver import build_v_table, summ_nash

__all__ = ["main"]

_TOOL = {"name": "summgames", "version": __version__}


def _emit(doc: dict, started: float) -> None:
    doc["duration_seconds"] = time.perf_counter() - started
    print(json.dumps(doc, indent=2))


def _game_section(path: str, digest: str, game) -> dict:
    return {
        "path": path,
        "sha256": digest,
        "players": game.n,
        "tau": game.tau,
        "rho": game.rho,
    }


def _cmd_solve(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    game, digest = load_game(args.game)
    grid = make_grid(args.epsilon, game.rho)
    # Built first, so a table over the grid-cell cap refuses before solving.
    table = build_v_table(game, grid) if args.emit_vtable else None
    certificate = summ_nash(game, args.epsilon)
    if table is not None:
        write_vtable(args.emit_vtable, table)
    doc = {
        "tool": _TOOL,
        "command": "solve",
        "game": _game_section(args.game, digest, game),
        "parameters": {
            "epsilon": args.epsilon,
            "alpha": grid.alpha,
            "intervals": grid.K,
        },
        "certificate": certificate_to_doc(certificate),
        "outputs": {"vtable": args.emit_vtable},
    }
    _emit(doc, started)
    return 0


def _cmd_learn(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.snapshot_probs and not args.trajectory:
        raise InputError("--snapshot-probs needs --trajectory to write the probabilities")
    game, digest = load_game(args.game)
    config = LearnConfig(
        epsilon=args.epsilon,
        delta=args.delta,
        beta=args.beta,
        max_steps=args.max_steps,
        snapshot_every=args.snapshot_every,
        snapshot_probs=args.snapshot_probs,
    )
    if not 0.0 <= args.initial_prob <= 1.0:
        raise InputError(
            f"--initial-prob must lie in [0, 1], got {args.initial_prob}"
        )
    initial = MixedProfile((args.initial_prob,) * game.n)
    trajectory, certificate, diagnostics = run_summ_learn(
        game,
        config,
        initial=initial,
        mc_samples=args.samples,
        mc_seed=args.seed,
    )
    if args.trajectory:
        write_trajectory_csv(args.trajectory, trajectory, args.delta, args.seed)
    terminated = (
        "converged" if isinstance(trajectory.terminated, Converged) else "max_steps"
    )
    doc = {
        "tool": _TOOL,
        "command": "learn",
        "game": _game_section(args.game, digest, game),
        "parameters": {
            "epsilon": args.epsilon,
            "alpha": trajectory.grid.alpha,
            "intervals": trajectory.grid.K,
            "beta": trajectory.beta,
            "delta": args.delta,
            "max_steps": trajectory.max_steps,
            "seed": args.seed,
            "samples": args.samples,
            "initial_prob": args.initial_prob,
        },
        "learning": {
            "steps": trajectory.terminated.step,
            "terminated": terminated,
            "final_mu": broadcast_mean(game, trajectory.final),
            "psi_scale": diagnostics.psi_scale,
            "psi_expression": diagnostics.psi_expression,
            "visits": len(diagnostics.visit_log),
        },
        "certificate": certificate_to_doc(certificate),
        "outputs": {"trajectory": args.trajectory},
    }
    _emit(doc, started)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    game, digest = load_game(args.game)
    certificate = load_certificate(args.certificate)
    mode = {"exact": "exact", "mc": "monte_carlo", "auto": "auto"}[args.mode]
    report = validate_certificate(
        game, certificate, mode=mode, samples=args.samples, seed=args.seed
    )
    doc = {
        "tool": _TOOL,
        "command": "verify",
        "game": _game_section(args.game, digest, game),
        "parameters": {
            "certificate": args.certificate,
            "mode": args.mode,
            "samples": args.samples,
            "seed": args.seed,
        },
        "report": {
            "valid": report.valid,
            "mode": report.mode,
            "recomputed_regrets": list(report.recomputed_regrets),
            "recomputed_stderrs": (
                list(report.recomputed_stderrs)
                if report.recomputed_stderrs is not None
                else None
            ),
            "violations": list(report.violations),
        },
    }
    _emit(doc, started)
    return 0 if report.valid else 1


def _cmd_brute(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    game, digest = load_game(args.game)
    report = brute_min_epsilon(game)
    doc = {
        "tool": _TOOL,
        "command": "brute",
        "game": _game_section(args.game, digest, game),
        "report": {
            "epsilon_star": report.epsilon_star,
            "best_profile": list(report.best_profile.actions),
            "profiles_examined": report.profiles_examined,
        },
    }
    _emit(doc, started)
    return 0


def _float_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from err
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="summgames",
        description=(
            "Approximate Nash equilibria in bounded-influence population "
            "games: solve, learn, verify, brute-force."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute a pure approximate equilibrium")
    solve.add_argument("game", help="game definition file (JSON)")
    solve.add_argument(
        "--epsilon", type=_float_arg, required=True,
        help="approximation parameter (> 0); the certified bound is 3*tau*rho + epsilon",
    )
    solve.add_argument(
        "--emit-vtable", metavar="PATH", default=None,
        help="also write the per-interval best-response value table",
    )
    solve.set_defaults(handler=_cmd_solve)

    learn = sub.add_parser("learn", help="run the distributed learning dynamics")
    learn.add_argument("game", help="game definition file (JSON, linear summarization)")
    learn.add_argument("--epsilon", type=_float_arg, required=True)
    learn.add_argument(
        "--delta", type=_float_arg, required=True,
        help="stopping threshold on per-player updates; 0 disables self-termination",
    )
    learn.add_argument(
        "--beta", type=_float_arg, default=None,
        help="learning rate in (0, alpha); defaults to alpha/2",
    )
    learn.add_argument("--max-steps", type=int, default=None)
    learn.add_argument(
        "--seed", type=int, default=0,
        help="seed for the Monte-Carlo regret certification of large games",
    )
    learn.add_argument("--samples", type=int, default=MC_SAMPLES)
    learn.add_argument(
        "--initial-prob", type=_float_arg, default=0.5,
        help="initial probability of action 1 for every player",
    )
    learn.add_argument("--trajectory", metavar="PATH", default=None)
    learn.add_argument("--snapshot-every", type=int, default=1)
    learn.add_argument(
        "--snapshot-probs", action="store_true",
        help="include full probability vectors in the trajectory export",
    )
    learn.set_defaults(handler=_cmd_learn)

    verify = sub.add_parser("verify", help="validate a certificate from scratch")
    verify.add_argument("game")
    verify.add_argument("certificate", help="certificate or solve/learn result document")
    verify.add_argument("--mode", choices=["auto", "exact", "mc"], default="auto")
    verify.add_argument("--samples", type=int, default=MC_SAMPLES)
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(handler=_cmd_verify)

    brute = sub.add_parser("brute", help="exhaustive minimum-regret search (n <= 22)")
    brute.add_argument("game")
    brute.set_defaults(handler=_cmd_brute)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (InputError, ContractError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except CapabilityError as err:
        print(f"capability error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
