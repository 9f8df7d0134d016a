#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The library and ctb_perfbench are built from source (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later runs only rebuild what changed. Build output goes to stderr, so
the last line of stdout is ctb_perfbench's JSON result. Extra flags (--smoke,
--flip-bit) pass through to ctb_perfbench. Exits nonzero, without a result,
when the library sources are missing or the build fails.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def step(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: '%s' failed" % " ".join(cmd))


def configured_for(out):
    """The source directory a build directory was configured for, if any."""
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    out = build_dir()
    home = configured_for(out)
    if home is not None and os.path.realpath(home) != os.path.realpath(HERE):
        shutil.rmtree(out)  # configured for another checkout
        home = None
    if home is None:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        step(["cmake", "-S", HERE, "-B", out, *generator,
              "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", out, "--target", "ctb_perfbench", "-j", "4"])
    return os.path.join(out, "ctb_perfbench")


def commit():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # a checkout without git metadata


def source_digest():
    """sha256 over the library sources, the top-level build file and the
    benchmark itself: identifies the measured code without git."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), HERE]
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for r in roots:
        for d, dirs, names in os.walk(r):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            files += [os.path.join(d, n) for n in sorted(names)]
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args, extra = p.parse_known_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources not found under %s" % ROOT)
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit(), "--source-digest", source_digest()]
    if args.trace == 1:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.json" % (args.workload, args.seed))]
    # The library reads CTB_* knobs (SIMD clamp, telemetry, service shards)
    # from the environment; the benchmark measures the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CTB_")}
    env["OMP_NUM_THREADS"] = "1"
    sys.stdout.flush()
    return subprocess.run(cmd + extra, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
