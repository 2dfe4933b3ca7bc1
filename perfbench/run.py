#!/usr/bin/env python3
"""Build the perfbench driver from this checkout and run one workload.

    python3 perfbench/run.py --workload kv-update --seed 1 --seconds 15 --trace 0

The driver (perfbench/main.cc) and the simulator sources under src/ are
compiled into .bench_build/perfbench at the checkout root; later runs only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the driver's JSON result. Exits non-zero if the build fails or
the run is incorrect.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in generated):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr, env=env)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, "perfbench")] +
                          sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
