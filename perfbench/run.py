#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles ../src) in
Release mode under $CARGO_TARGET_DIR (default .bench_build), then runs one
workload with a hard deadline. The last stdout line is the result JSON;
the exit status is non-zero when the build fails, a correctness check fails
or the deadline expires. See perfbench/README.md.
"""
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
DEADLINE_S = 172  # the binary's own watchdog fires first, at 165 s


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def child_env():
    """The environment for the build and the run: temporary files (the
    compiler's, and any the library would place in the system temp
    directory) stay inside the checkout."""
    tmp = build_root() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build():
    """Configures and builds the benchmark; returns the binary path or None."""
    bdir = build_root() / "perfbench"
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              env=child_env()).returncode:
                # Drop the cache so the next attempt configures afresh.
                (bdir / "CMakeCache.txt").unlink(missing_ok=True)
                sys.stderr.write("perfbench: build failed; tail of %s:\n" % log)
                sys.stderr.writelines(open(log).readlines()[-30:])
                return None
    exe = bdir / "perfbench"
    return exe if exe.exists() else None


def run(exe, args):
    out_dir = build_root() / "perfbench-run"
    for sub in ("net", "inproc"):
        shutil.rmtree(out_dir / sub, ignore_errors=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    proc = subprocess.Popen([str(exe), *args, "--out-dir", str(out_dir)],
                            start_new_session=True, env=child_env())
    try:
        return proc.wait(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: deadline expired, killing the run\n")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 3
    finally:
        # Reap anything the run left in its process group (a daemon child).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def main(argv):
    exe = build()
    if exe is None:
        return 2
    sys.stdout.flush()
    return run(exe, argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
