#!/usr/bin/env python3
"""Builds the dlproj benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root.  The benchmark (perfbench/) and the
program's src/ are compiled together into .bench_build/perfbench, with no
sanitizer and the repository's default build type.  Every DLPROJ_* variable
is removed from the environment before the run, so ambient settings cannot
change the measured program.  The last line of standard output is the JSON
result; build logs and progress go to standard error.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170
# Build and run inputs that could change the compiled program.
DROPPED_ENV = ("CFLAGS", "CXXFLAGS", "CPPFLAGS", "LDFLAGS")


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def clean_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("DLPROJ_") and k not in DROPPED_ENV}
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def source_id():
    """Content hash of the measured sources (the checkout has no git)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0")
                h.update(path.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def build(env):
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "data").is_dir():
        fail(f"no dlproj sources beside perfbench/ in {ROOT} "
             "(expected src/ and data/)")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = (
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}", "-DCMAKE_CXX_FLAGS=",
         "-DCMAKE_EXE_LINKER_FLAGS="],
        ["cmake", "--build", str(BUILD), "-j", jobs,
         "--target", "perfbench", "perfbench_selftest"],
    )
    for cmd in steps:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd), 3)
    cache = (BUILD / "CMakeCache.txt").read_text(errors="replace")
    if "-fsanitize" in cache:
        fail("refusing to measure a sanitizer build")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed,
                                      args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    env = clean_env()
    build(env)
    if args.selftest:
        cmd = [str(BUILD / "perfbench_selftest"), str(ROOT)]
    else:
        cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--root", ".", "--commit", source_id()]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
