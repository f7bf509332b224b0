#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of the library).

    python3 perfbench/selftest.py

Run from the repository root. Builds the benchmark, then:
  * checks the binary's metric tables against BENCHMARK.json (names, units,
    sections) and every name against [A-Za-z0-9_.-]+;
  * runs every workload (the listed ones and net_mixed) at smoke size,
    untraced and traced, and checks that
    each exits 0, reports correct, prints exactly the declared metrics of
    its section with the declared units, and that the traced run wrote its
    spans;
  * checks that a corrupted expectation trips the correctness gate (non-zero
    exit, "correct": false) on a DES and on the in-process workload.
Exit status 0 only if every check passed.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's own build entry point)

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def result_of(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def main():
    spec = json.load(open(run.ROOT / "BENCHMARK.json"))
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    exe = run.build()
    check(exe is not None, "benchmark builds")
    if exe is None:
        return 1
    out_dir = run.build_root() / "perfbench-selftest"
    out_dir.mkdir(parents=True, exist_ok=True)

    listed = {"end_to_end": {}, "per_layer": {}}
    for line in subprocess.run([str(exe), "--list-metrics"], capture_output=True,
                               text=True).stdout.splitlines():
        section, name, unit = line.split()
        listed[section][name] = unit
    for section in listed:
        check(listed[section] == declared[section],
              "binary's %s table matches BENCHMARK.json" % section)
        bad = [n for n in declared[section] if not NAME.match(n)]
        check(not bad, "%s names match [A-Za-z0-9_.-]+ %s" % (section, bad or ""))

    def smoke(workload, trace, *extra):
        cmd = [str(exe), "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--smoke", "--out-dir", str(out_dir), *extra]
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                           env=run.child_env())
        return p.returncode, result_of(p.stdout)

    # net_mixed is not listed in BENCHMARK.json (README.md says why) but
    # stays runnable by hand, so it is checked like the listed ones.
    for name in [w["name"] for w in spec["workloads"]] + ["net_mixed"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            rc, res = smoke(name, trace)
            tag = "%s --trace %d" % (name, trace)
            check(rc == 0 and res is not None and res.get("correct") is True,
                  tag + ": exits 0 and reports correct")
            if res is None:
                continue
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  tag + ": result has exactly the contract keys")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == declared[section],
                  tag + ": prints exactly the declared %s metrics" % section)
            check(all(isinstance(v["value"], (int, float))
                      for v in res["metrics"].values()),
                  tag + ": every value is a number")
            if trace:
                check((out_dir / ("trace-%s-seed1.json" % name)).exists(),
                      tag + ": wrote its spans")

    for name in ("des_spill_steal", "inproc_stream"):
        rc, res = smoke(name, 0, "--corrupt-expect")
        check(rc != 0 and res is not None and res.get("correct") is False
              and res.get("failed", 0) > 0,
              name + ": a corrupted expectation trips the correctness gate")

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
