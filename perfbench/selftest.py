#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

1. the measurement self-tests of perfbench_selftest (exact quantiles; a
   stalled fake server shows up in due-time latency; refusals count as over
   the limit; a duplicated response id fails the response check);
2. a tiny-scale smoke run of every workload, traced and untraced, prints
   every metric BENCHMARK.json names, with its unit;
3. each correctness check can fail: a damaged structure and a truncated
   redo log make the run report correct=false, count every operation as
   failed and exit non-zero;
4. in a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

BUILD_ROOT = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
failures = []


def check(condition, what):
    print("%s %s" % ("ok  " if condition else "FAIL", what), flush=True)
    if not condition:
        failures.append(what)


def bench(*args, cwd=None):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1.5"]
                          + list(args), cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, universal_newlines=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            rc, result = bench("--workload", name, "--trace", str(trace), "--tiny")
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in (result or {}).get("metrics", {}).items()}
            check(rc == 0 and result is not None and result["correct"] and result["failed"] == 0
                  and result["attempted"] > 0,
                  "%s trace %d: tiny smoke run is correct with no failed operation" % (name, trace))
            check(got == expected,
                  "%s trace %d: prints exactly the %s metrics with their units"
                  % (name, trace, section))

    program = os.path.join(BUILD_ROOT, "perfbench", "perfbench_selftest")
    check(subprocess.run([program]).returncode == 0, "measurement self-tests pass")

    for workload, fault in (("read-small", "invariants"), ("serve-rw", "invariants"),
                            ("serve-rw", "fingerprint")):
        rc, result = bench("--workload", workload, "--tiny", "--fault", fault)
        check(rc != 0 and result is not None and not result["correct"]
              and result["failed"] > 0,
              "%s: a %s fault fails the check, counts as failed and exits non-zero"
              % (workload, fault))

    bare = os.path.join(BUILD_ROOT, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    rc, result = bench("--workload", spec["workloads"][0]["name"], cwd=bare)
    shutil.rmtree(bare)
    check(rc != 0 and result is None, "without the sources it exits non-zero and prints no result")

    print("all benchmark self-tests passed" if not failures else
          "%d benchmark self-test(s) FAILED" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
