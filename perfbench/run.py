#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all  [--seed N] [--seconds S] [--trace 0|1]

With one workload, the benchmark binary's output passes through unchanged:
its last line is the JSON result. With `all`, each workload runs in its own
process, one after the other, and a table of every metric follows.

The binary is built with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default `.bench_build` under the repository root).
Scratch stores go to `.bench_work/` under the repository root and are
removed when each run ends. A failed build exits non-zero without a result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["paper-grid", "tiny-leased", "store-query"]


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = Path.cwd() / target
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml"),
    ]
    # Cargo's own output goes to stderr so stdout stays the benchmark's.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, cwd=ROOT)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed ({done.returncode})")
    return target / "release" / "perfbench"


def run_one(binary, workload, args, capture):
    cmd = [
        str(binary), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", str(ROOT / ".bench_work"),
    ]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE if capture else None, text=True)
    if done.returncode != 0:
        sys.exit(f"perfbench: {workload} failed ({done.returncode})")
    return done.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    binary = build()
    if args.workload != "all":
        run_one(binary, args.workload, args, capture=False)
        return
    results = {}
    for workload in WORKLOADS:
        out = run_one(binary, workload, args, capture=True)
        print(out, end="")
        results[workload] = json.loads(out.strip().splitlines()[-1])
    names = list(results[WORKLOADS[0]]["metrics"])
    print(f"\n{'metric':<38}" + "".join(f"{w:>16}" for w in WORKLOADS))
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        cells = "".join(f"{results[w]['metrics'][name]['value']:>16.4f}" for w in WORKLOADS)
        print(f"{name + ' (' + unit + ')':<38}{cells}")
    for key in ("attempted", "failed", "correct"):
        print(f"{key:<38}" + "".join(f"{str(results[w][key]):>16}" for w in WORKLOADS))
    if not all(r["correct"] for r in results.values()):
        sys.exit(1)


if __name__ == "__main__":
    main()
