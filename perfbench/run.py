#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (the library sources under src/ plus the benchmark program) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs only
rebuild what changed. Build output goes to stderr. The program's stdout is
passed through unchanged, so its last line is the result JSON. A traced run
also writes a Chrome trace to <build dir>/traces/<workload>-seed<n>.json.

Exits non-zero, without a result line, when the build fails, the program
fails, or an output check fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("kv_pmp_failover", "kv_fastrobust", "txn_bank")


def build(build_dir: str) -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.exists(os.path.join(build_dir, "build.ninja")):
        subprocess.run(
            ["cmake", "-S", here, "-B", build_dir, "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
