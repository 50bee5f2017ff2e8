#!/usr/bin/env python3
"""Build and run the simulator benchmark on one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first call configures and builds the
benchmark (an optimized build of ../src plus the binary in perfbench/src)
into .bench_build, or into $CARGO_TARGET_DIR when that is set; later calls
only rebuild what changed.  Build output goes to stderr.  The benchmark's
own spans are written to <build>/spans/.  The last line of stdout is the
JSON result printed by the benchmark binary.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
WORKLOADS = ("checkpoint_rebuild", "meta_storm", "tiered_mixed", "geo_replicate")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
JOBS = "4"


def build_dir() -> Path:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(target)
    return path if path.is_absolute() else CHECKOUT / path


def run_group(cmd, timeout, **kwargs):
    """Run `cmd` in its own process group; on timeout, kill the whole group
    (a build's compiler children included) and wait for it."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        return proc.returncode, out


def build(out: Path) -> Path:
    """Configure (once) and build the benchmark; returns the binary path."""
    binary = out / "nlss_perfbench"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "nlss_perfbench",
                  "perfbench_selftest", "-j", JOBS])
    # Compiler temporaries stay inside the build directory.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        code, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr,
                            stderr=sys.stderr, env=env)
        if code != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    if not binary.exists():
        raise RuntimeError(f"build produced no {binary}")
    return binary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")

    out = build_dir()
    try:
        binary = build(out)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    spans = out / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans",
           str(spans / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")]
    try:
        code, stdout = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                                 stderr=sys.stderr, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        print(f"perfbench: benchmark exited {code}", file=sys.stderr)
        return 1
    try:
        json.loads(lines[-1])
    except json.JSONDecodeError:
        print("perfbench: benchmark printed no JSON result", file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
