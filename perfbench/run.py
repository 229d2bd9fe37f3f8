#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload kv-zipf --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default: .bench_build under the current
directory); traced runs write their spans beside it, in perfbench-out/. The
binary's output is passed through unchanged: its last line is the result
JSON. An environment fingerprint (nproc, CPU model, rustc version, git
revision or a digest of the sources, build profile) is handed to the binary,
which prints it with every result and writes it into every span file.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
PROFILE = "release"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def command_output(cmd):
    try:
        done = subprocess.run(
            cmd, cwd=REPO_ROOT, capture_output=True, text=True, check=False
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the binary is built from, for checkouts that
    carry no git metadata."""
    h = hashlib.sha256()
    roots = [os.path.join(REPO_ROOT, "crates"), os.path.join(REPO_ROOT, "shims"), BENCH_DIR]
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, REPO_ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def fingerprint():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "rustc": command_output(["rustc", "-V"]) or "unknown",
        # Only the repository's own metadata: git would otherwise report the
        # revision of any repository the checkout happens to sit inside.
        "git_rev": (os.path.exists(os.path.join(REPO_ROOT, ".git"))
                    and command_output(["git", "rev-parse", "HEAD"])) or "none",
        "src_digest": source_digest(),
        "profile": PROFILE,
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--seconds", required=True)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    p.add_argument("--knee-rates", help="five open-loop rates for the kv-zipf traced run")
    args = p.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo", "build", "--offline", "--quiet", "--profile", PROFILE,
            "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [
        os.path.join(target, PROFILE, "perfbench"),
        "--workload", args.workload,
        "--seed", args.seed,
        "--seconds", args.seconds,
        "--trace", args.trace,
        "--out-dir", os.path.join(target, "perfbench-out"),
        "--fingerprint", json.dumps(fingerprint(), separators=(",", ":")),
    ]
    if args.knee_rates:
        cmd += ["--knee-rates", args.knee_rates]
    sys.stdout.flush()
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
