#!/usr/bin/env python3
"""Builds the program and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

`--workload all` runs every workload in turn and exits non-zero if any run
fails (an oracle mismatch exits 3).

Run from the root of a checkout. Both builds go to $CARGO_TARGET_DIR
(default: .bench_build in the checkout) and print to stderr only, so the
last line on stdout is the benchmark's JSON result. Any build failure exits
non-zero without a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["train_oral", "serve_embed", "serve_label"]


def build(args, env):
    """Runs one offline release build; its output goes to stderr."""
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet"] + args,
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if done.returncode != 0:
        sys.stderr.write("perfbench: build failed: cargo build %s\n" % " ".join(args))
        sys.exit(2)


def main():
    env = dict(os.environ)
    # The program must see its defaults: the stamp records both as unset.
    env.pop("RLL_THREADS", None)
    env.pop("RLL_KERNEL", None)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = os.path.join(ROOT, target)
    build(["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "rll-serve", "--bin", "serve"], env)
    build(["--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")], env)
    release = os.path.join(target, "release")
    argv = [os.path.join(release, "perfbench"), "--serve-bin", os.path.join(release, "serve")]
    os.chdir(ROOT)
    args = sys.argv[1:]
    if "--workload" in args and args[args.index("--workload") + 1 :][:1] == ["all"]:
        at = args.index("--workload") + 1
        worst = 0
        for workload in WORKLOADS:
            args[at] = workload
            sys.stdout.flush()
            worst = max(worst, subprocess.run(argv + args, env=env).returncode)
        sys.exit(worst)
    os.execve(argv[0], argv + args, env)


if __name__ == "__main__":
    main()
