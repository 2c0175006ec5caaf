#!/usr/bin/env python3
"""Build and run the LEIME benchmark for one workload.

    python3 perfbench/run.py --workload slotted_poisson --seed 1 --seconds 20 --trace 0

Builds the `leime-perfbench` package (release, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build` at the repository root), then
runs it with the given arguments from the repository root. The last line
of standard output is the benchmark's JSON result; build output goes to
standard error. Full records land in `<target dir>/perfbench-records/`.
Exits non-zero, without printing a result, when the build or the run
fails.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
# The benchmark itself exits within 180 s; leave room for process start.
RUN_TIMEOUT_S = 175


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def command_output(args, **kwargs):
    """Stripped stdout of a command, or None when it cannot run."""
    try:
        done = subprocess.run(args, capture_output=True, text=True, timeout=30, **kwargs)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance():
    """rustc version and git state for the record's manifest."""
    # Stop git at the repository root, so a checkout that is not a git
    # repository reports "unknown" rather than an enclosing repository.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    git = ["git", "-C", str(ROOT)]
    rev = command_output(git + ["rev-parse", "--short", "HEAD"], env=git_env)
    status = command_output(git + ["status", "--porcelain"], env=git_env)
    return {
        "PERFBENCH_RUSTC": command_output(["rustc", "--version"]) or "unknown",
        "PERFBENCH_GIT_REV": rev or "unknown",
        "PERFBENCH_GIT_DIRTY": "unknown" if status is None else str(bool(status)).lower(),
    }


def main():
    target = target_dir()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = target / "release" / "leime-perfbench"
    args = sys.argv[1:]
    if args[:1] != ["--compare"]:
        args += ["--out-dir", str(target / "perfbench-records")]
    env.update(provenance())
    try:
        run = subprocess.run([str(binary)] + args, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
