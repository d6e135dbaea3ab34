"""stochpool benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload infer-long --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Every phase runs in a child process
(``bench.py``) whose BLAS and OpenMP pools are pinned to one thread, with
``src`` first on the import path. ``--trace 0`` prints the end-to-end
metrics of one untraced run. ``--trace 1`` runs an untraced phase and
then a traced one, and prints the per-layer metrics of the traced phase,
including its overhead: traced minus untraced value of each end-to-end
metric.

The human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics. The
exit code is 0 when every output check passed, 1 when one failed and 2
when the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
DEADLINE_S = 175.0
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for name in PINNED:
        env[name] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, trace: int, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for the traced phase")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"phase trace={trace} did not finish within {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"phase trace={trace} exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise BenchError(f"phase trace={trace} printed no result line") from None


def print_table(title: str, values: dict, units: dict):
    print(f"# {title}")
    width = max(len(name) for name in units)
    for name, unit in units.items():
        print(f"  {name:<{width}}  {values[name]:>14.6g}  {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stochpool benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stochpool" / "__init__.py").is_file():
        print(f"perfbench: no stochpool sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        plain = run_child(args, 0, deadline)
        phases = [plain]
        if args.trace:
            traced = run_child(args, 1, deadline)
            phases.append(traced)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    env = plain["env"]
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("# " + "  ".join(f"{k} {v}" for k, v in env.items()))
    print_table("end to end (untraced)", plain["metrics"], END_TO_END)
    if args.trace:
        layers = dict(traced["layers"])
        for name, value in plain["metrics"].items():
            layers[f"trace_overhead.{name}"] = traced["metrics"][name] - value
        print_table("per layer (traced), per operation", layers, PER_LAYER)
        metrics, units = layers, PER_LAYER
    else:
        metrics, units = plain["metrics"], END_TO_END
    for phase in phases:
        for note in phase["notes"]:
            print(f"# note (trace={phase['trace']}): {note}")
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    correct = all(p["correct"] for p in phases)
    print(f"# operations attempted {attempted}  failed {failed}  correct {correct}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "phases": phases}
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
