#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark.

    python3 e2ebench/run.py --workload graph500-bfs --seed 1 --seconds 10 --trace 0

Builds the benchmark program (CMake, Release) from e2ebench/ and the
library sources under src/ into $CARGO_TARGET_DIR/e2ebench (default
.bench_build/e2ebench, relative to the repository root), then runs it.  Its
last line of standard output is the JSON result; build output goes to
standard error.  With --trace 1 the span trace is written to
<build dir>/traces/.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run takes well under this; a hung run is killed and reaped.
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2ebench"


def build(out: Path) -> None:
    if not (ROOT / "src").is_dir():
        sys.exit(f"error: library sources not found at {ROOT / 'src'}")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [["cmake", "--build", str(out), "-j", jobs]]
    if not (out / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit(f"error: build step failed: {' '.join(cmd)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    out = build_dir()
    build(out)
    cmd = [
        str(out / "e2ebench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    if args.trace == "1":
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
