#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout and runs one workload.

    python3 e2e_bench/run.py --workload predict_unique --seed 1 \
        --seconds 20 --trace 0

Run from the root of the checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build); its output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero when the build or
any correctness check fails.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
TARGETS = ["e2e_bench", "e2e_bench_traced"]
# A run's own limit; the first run of a checkout also builds, which is
# not counted here.
RUN_TIMEOUT_S = 175


def build(build_dir: Path) -> bool:
    """Configures (once) and builds both benchmark binaries."""
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", *TARGETS,
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["predict_unique", "predict_repeat",
                                 "train_dar"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = build_dir.resolve()
    if not build(build_dir):
        print("e2e_bench: build failed", file=sys.stderr)
        return 1

    workdir = build_dir / "runs" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    binary = build_dir / ("e2e_bench_traced" if args.trace else "e2e_bench")
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir)]
    # Own process group, so a timeout also stops the trainer and load
    # generator children.
    process = subprocess.Popen(command, start_new_session=True)
    try:
        return process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        print(f"e2e_bench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
