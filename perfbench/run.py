#!/usr/bin/env python3
"""Builds rbqa-serve and the benchmark driver from source, then runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload decide-miss --seed 1 --seconds 10 --trace 0

Both builds are release builds into $CARGO_TARGET_DIR (default
`.bench_build` under the repository root). Build output goes to stderr;
the driver's result object is the last line of stdout. Exits 2 without a
result when the sources cannot be built.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def cargo_build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout it runs
    in is not a git repository, so this stands in for the revision)."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, name) for name in ("Cargo.toml", "Cargo.lock", "crates", "vendor")]
    roots.append(HERE)
    files = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files.extend(os.path.join(dirpath, f) for f in filenames)
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    root_manifest = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(root_manifest) or not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("run from a checkout of the rbqa repository (Cargo.toml and crates/ not found)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    os.environ["CARGO_TARGET_DIR"] = target

    cargo_build(root_manifest, "-p", "rbqa-net", "--bin", "rbqa-serve")
    cargo_build(os.path.join(HERE, "Cargo.toml"))

    driver = os.path.join(target, "release", "rbqa-perfbench")
    server = os.path.join(target, "release", "rbqa-serve")
    cmd = [driver, "--server", server,
           "--rev", output(["git", "rev-parse", "HEAD"]),
           "--rustc", output(["rustc", "-V"]),
           "--source-digest", source_digest(),
           *sys.argv[1:]]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
