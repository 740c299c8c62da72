"""The traced run: every per-layer metric, span self times, tracing overhead.

    python3 perfbench/traced.py --workload mine [--seed N] [--seconds S]

Runs the workload twice, each in a child ``run.py`` process: untraced
(``--trace 0``) and then traced (``--trace 1``).  Prints the traced run's
per-layer metrics, its span table (calls, total and self seconds per span
name), and for every end-to-end metric the traced value minus the untraced
one — the cost of tracing, within run-to-run noise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_child(args: argparse.Namespace, trace: int) -> subprocess.CompletedProcess:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    child = subprocess.run(command, capture_output=True, text=True, timeout=900)
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        raise SystemExit(f"{' '.join(command[1:])} exited {child.returncode}")
    return child


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("mine", "serve", "warehouse"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()

    untraced = json.loads(run_child(args, 0).stdout.splitlines()[-1])["metrics"]
    traced_child = run_child(args, 1)
    lines = traced_child.stdout.splitlines()
    layers = json.loads(lines[-1])["metrics"]
    traced = json.loads(lines[-2][len("end_to_end "):])

    print(f"per-layer metrics ({args.workload}, seed {args.seed}, traced run):")
    for name, metric in layers.items():
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    print("spans (traced run):")
    for line in traced_child.stderr.splitlines():
        if line.startswith("span "):
            print("  " + line[len("span "):])
    print("tracing overhead (traced - untraced):")
    for name, metric in untraced.items():
        base, with_spans = metric["value"], traced[name]["value"]
        share = (with_spans - base) / base if base else 0.0
        print(
            f"  {name:24s} {base:>14.6g} -> {with_spans:>14.6g} {metric['unit']:6s}"
            f" ({100 * share:+.1f} %)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
