#!/usr/bin/env python3
"""Build and run the host-time benchmark of the simulator.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test          # pin self-test
    python3 perfbench/run.py --pin --seed N       # re-pin one seed

Run from the root of the repository. The benchmark is built with dune
(shared build cache off, so nothing is written outside the tree), then
run as one process; its standard output passes through unchanged and
its last line is the result object. Scratch files live in
.perfbench-tmp/ and are removed on exit; a traced run leaves its spans
in .perfbench-out/.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
TMP = os.path.join(ROOT, ".perfbench-tmp")
OUT = os.path.join(ROOT, ".perfbench-out")
ENV = dict(os.environ, DUNE_CACHE="disabled")
TIMEOUT_S = 170


def source_digest():
    """SHA-256 over the sources the benchmark measures and its own."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", "dune", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    # only this tree's own repository: never a repository above it
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="matmul_sweep")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()

    build = subprocess.run(["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
                           cwd=ROOT, env=ENV, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    os.makedirs(TMP, exist_ok=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pins", os.path.join(ROOT, "perfbench", "pins"), "--tmp", TMP,
           "--commit", commit(), "--source-digest", source_digest()]
    if args.trace == 1:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--spans", os.path.join(OUT, "spans-%s-seed%d.json" % (args.workload, args.seed))]
    if args.self_test:
        cmd.append("--self-test")
    if args.pin:
        cmd.append("--pin")
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: timed out after %d s" % TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(TMP, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
