#!/usr/bin/env python3
"""Build and run the AmgT performance benchmark.

    python3 perfbench/run.py --workload <oneshot-mixed|timestep-serve> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `amgt-perfbench` package (release,
offline) into `$CARGO_TARGET_DIR`, default `.bench_build`, then runs it with
the given arguments plus the tree's `git describe` string. Cargo's output
goes to standard error; standard output is the benchmark's, ending with its
one-line JSON result. Exits non-zero without a result if the build fails.

The build runs only when the benchmark binary is missing or older than a
source file. Outside a git checkout cargo would otherwise rebuild the
server crate, and everything above it, on every run: its build script
watches `.git/HEAD`, and a watched file that does not exist is always
out of date.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Everything the benchmark package is built from.
SOURCES = ["crates", "vendor", "perfbench"]


def describe():
    """`git describe` of the tree, or "unknown" outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def stale(exe, target):
    """Whether `exe` is missing or older than any file under SOURCES."""
    try:
        built = os.path.getmtime(exe)
    except OSError:
        return True
    for top in SOURCES:
        for path, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = [
                d
                for d in dirs
                if d != "target" and os.path.join(path, d) != target
            ]
            for f in files:
                if os.path.getmtime(os.path.join(path, f)) > built:
                    return True
    return False


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = os.path.join(target, "release", "amgt-perfbench")
    if stale(exe, target):
        build = subprocess.run(
            [
                "cargo",
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                os.path.join(HERE, "Cargo.toml"),
            ],
            env=dict(os.environ, CARGO_TARGET_DIR=target),
            stdout=sys.stderr,
        )
        if build.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return build.returncode or 1
        # Cargo leaves the binary untouched when it finds nothing to do.
        os.utime(exe)
    return subprocess.run([exe, *sys.argv[1:], "--git", describe()]).returncode


if __name__ == "__main__":
    sys.exit(main())
