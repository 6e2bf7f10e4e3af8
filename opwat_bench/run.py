#!/usr/bin/env python3
"""Build and run the opwat benchmark.

    python3 opwat_bench/run.py --workload <study|portal_cached|portal_churn> \
        --seed <n> --seconds <s> --trace <0|1> [--scale paper|tiny]

Run from the root of a checkout.  The benchmark binary is built (Release)
from the checkout's sources into $CARGO_TARGET_DIR (default .bench_build)
and run; its last stdout line is the JSON result.  Build output goes to
stderr.  Exits non-zero, without a result line, when the sources are
missing, the build fails or the run fails.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"opwat_bench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_root, env):
    build_dir = build_root / "opwat_bench"
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "opwat_bench",
         "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "opwat_bench"


def main():
    args = sys.argv[1:]
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "opwat").is_dir():
        fail(f"the opwat sources are missing next to {HERE.name}/")
    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    # Compiler and run temporaries stay inside the build directory too.
    tmp = build_root / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    binary = build(build_root, env)
    cmd = [str(binary), *args,
           "--work-dir", str(build_root / "work"),
           "--trace-dir", str(build_root / "traces")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail(f"run failed with exit code {proc.returncode}")


if __name__ == "__main__":
    main()
