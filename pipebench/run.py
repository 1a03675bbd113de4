#!/usr/bin/env python3
"""Build the pipeline benchmark from source, then run it.

    python3 pipebench/run.py --workload mesh_sim --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The build goes to .bench_build/pipebench
(Release); its output goes to stderr so that the last line on stdout is
the benchmark's JSON result. Every argument is passed to the pipebench program
unchanged; see pipebench/README.md for the workloads and metrics.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "pipebench")


def build():
    configure = ["cmake", "-S", os.path.join(ROOT, "pipebench"), "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    compile_ = ["cmake", "--build", BUILD, "--target", "pipebench", "-j", jobs]
    for cmd in (configure, compile_):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("pipebench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    os.chdir(ROOT)
    if not build():
        return 2
    return subprocess.run([os.path.join(BUILD, "pipebench")] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
