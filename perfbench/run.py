"""summgames benchmark: CLI workloads timed end to end, layers from a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-wide --seed 1 --seconds 32 --trace 0

The package is imported from ``src/`` of the checkout; without it the
runner exits with code 2 and prints no result. Game files are generated
from ``--seed`` into ``.perfbench_work/``; the four commands run in this
process through ``summgames.cli.main``, one job at a time, and every job's
output goes through the correctness gate in ``jobs.py``. The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

WORKLOADS = ("solve-wide", "solve-fine", "learn")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "summgames" / "__init__.py").is_file():
        print(f"error: no src/summgames under {Path.cwd()}; run from a checkout root",
              file=sys.stderr)
        return 2
    # numpy reads these when it is first imported: one compute thread.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path.insert(0, str(src))
    import bench

    origin = Path(sys.modules["summgames"].__file__).resolve()
    if src.resolve() not in origin.parents:
        print(f"error: summgames was imported from {origin}, not {src}", file=sys.stderr)
        return 2
    bench.WORK_DIR.mkdir(exist_ok=True)
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
