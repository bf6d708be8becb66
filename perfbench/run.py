#!/usr/bin/env python3
"""The repository benchmark: STMBench7 workloads measured from outside.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload read-small|rw-small|serve-rw|all \
        --seed N --seconds S --trace 0|1

It builds perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR or .bench_build, runs every backend of the workload in
its own processes, checks the outputs, prints each metric by name with its
unit and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs each backend once
untraced and once with the tracer and reports the per-layer ledger. The
workloads, metrics and seed findings are described in perfbench/README.md.
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

BACKENDS = ("coarse", "tl2", "mvstm")
STM_BACKENDS = ("tl2", "mvstm")

# Every workload runs the paper's short mix (long traversals off) with two
# worker threads on the small structure; see README.md for why each exists.
# "repeats" is the number of processes per backend in one run (see below).
WORKLOADS = {
    "read-small": {"serve": False, "read_fraction": 0.9, "repeats": 2},
    "rw-small": {"serve": False, "read_fraction": 0.6, "repeats": 2},
    "serve-rw": {"serve": True, "read_fraction": 0.6, "repeats": 3},
}

# Offered Poisson rates of serve-rw, in requests per second: about half of
# each backend's wire capacity over an 8 s run (coarse ~32k, tl2 ~27k,
# mvstm with group commit ~1.6k op/s answered under overload, measured with
# this generator on a 4-vCPU VM). Fixed here, never derived at run time.
SERVE_RATES = {"coarse": 16000.0, "tl2": 13000.0, "mvstm": 800.0}

# Each backend is measured by several processes of equal length, each with
# its own seed derived from --seed, and every figure is the median over
# them. Throughput falls within a process as the frozen EBR epoch piles up
# garbage (see README.md); in-process runs are 5 s long at --seconds 30, so
# that ops_s carries that decline rather than only the clean first second.
# The median build time of the processes is the backend's share of setup_s.
# A small structure builds in milliseconds, so the in-process workloads add
# SETUP_PROBES short processes per backend to sample it more often.
SETUP_PROBES = 8
SETUP_PROBE_SECONDS = 0.01

PROCESS_TIMEOUT_S = 150

END_TO_END = [("setup_s", "s")]
END_TO_END += [("ops_s." + b, "1/s") for b in BACKENDS]
END_TO_END += [("lat_mean_us.mvstm", "us")]
END_TO_END += [("rss_mb." + b, "MB") for b in BACKENDS]

# Per-layer ledger: (name, unit, backends).
LEDGER = [
    ("core.build_s", "s", BACKENDS),
    ("ops.st_mean_us", "us", BACKENDS),
    ("ops.op_mean_us", "us", BACKENDS),
    ("ops.sm_mean_us", "us", BACKENDS),
    ("ops.failed_frac", "frac", BACKENDS),
    ("containers.probe_mean_us", "us", BACKENDS),
    ("containers.range_mean_us", "us", BACKENDS),
    ("stm.commit_ratio", "frac", STM_BACKENDS),
    ("stm.aborts_kop.read_validation", "1/kop", STM_BACKENDS),
    ("stm.aborts_kop.write_lock", "1/kop", STM_BACKENDS),
    ("stm.reads_per_op", "count", STM_BACKENDS),
    ("stm.writes_per_op", "count", STM_BACKENDS),
    ("stm.validation_steps_per_op", "count", STM_BACKENDS),
    ("stm.ro_aborts", "count", ("mvstm",)),
    ("stm.read_share", "frac", STM_BACKENDS),
    ("stm.validation_share", "frac", STM_BACKENDS),
    ("stm.commit_share", "frac", STM_BACKENDS),
    ("stm.backoff_share", "frac", STM_BACKENDS),
    ("mvstm.group_size", "count", None),
    ("mvstm.log_bytes_per_commit", "B", None),
    ("mvstm.fsyncs_per_s", "1/s", None),
    ("ebr.epoch_advances_per_s", "1/s", BACKENDS),
    ("ebr.pending_peak", "count", BACKENDS),
    ("ebr.pending_end", "count", BACKENDS),
    ("net.lat_p50_us", "us", BACKENDS),
    ("net.lat_p99_us", "us", BACKENDS),
    ("net.exec_p50_us", "us", BACKENDS),
    ("net.exec_p99_us", "us", BACKENDS),
    ("net.overhead_p50_us", "us", BACKENDS),
    ("net.overhead_p99_us", "us", BACKENDS),
    ("net.queue_peak", "count", BACKENDS),
    ("net.gen_late_p99_us", "us", BACKENDS),
    ("trace.overhead_frac", "frac", BACKENDS),
]


def ledger_names():
    for name, unit, backends in LEDGER:
        if backends is None:
            yield name, unit
        else:
            for b in backends:
                yield "%s.%s" % (name, b), unit


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_root):
    """Configures and builds perfbench/; returns the program directory."""
    if not os.path.isfile(os.path.join("src", "harness", "driver.h")):
        raise BenchError("no STMBench7 sources under ./src; run from the root of a checkout")
    out = os.path.join(build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", "perfbench", "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", out, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return out


def last_json(text, what):
    lines = [line for line in text.splitlines() if line.startswith("{")]
    if not lines:
        raise BenchError("%s printed no result" % what)
    return json.loads(lines[-1])


class Bench:
    def __init__(self, bin_dir, run_dir, seed, tiny, fault):
        self.program = os.path.join(bin_dir, "sb7-perfbench")
        self.run_dir = run_dir
        self.seed = seed
        self.tiny = tiny
        self.fault = fault

    def base_args(self, mode, workload, backend, seconds, seed):
        w = WORKLOADS[workload]
        args = [self.program, mode, "--backend", backend,
                "--scale", "tiny" if self.tiny else "small",
                "--read-fraction", str(w["read_fraction"]),
                "--seconds", repr(seconds), "--seed", str(seed)]
        if self.fault:
            args += ["--fault", self.fault]
        return args

    def call(self, args):
        proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              universal_newlines=True, timeout=PROCESS_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError("%s exited %d: %s" % (args[1], proc.returncode, proc.stderr[-2000:]))
        sys.stderr.write(proc.stderr)
        return last_json(proc.stdout, args[1])

    def measure(self, workload, backend, seconds, trace, seed):
        """One measured process, or a served process and its load generator.

        Returns (result, load); load is None for in-process workloads."""
        if WORKLOADS[workload]["serve"]:
            return self.serve(workload, backend, seconds, trace, seed)
        args = self.base_args("run", workload, backend, seconds, seed)
        if trace:
            args.append("--trace")
        return self.call(args), None

    def serve(self, workload, backend, seconds, trace, seed):
        log_path = os.path.join(self.run_dir, "redo-%d-%s.log" % (os.getpid(), backend))
        args = self.base_args("serve", workload, backend, seconds, seed)
        if backend == "mvstm":
            args += ["--redo-log", log_path]
        if trace:
            args.append("--trace")
        server = subprocess.Popen(args, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, universal_newlines=True)
        try:
            port = self.wait_ready(server)
            load = self.call([self.program, "load", "--port", str(port),
                              "--rate", repr(SERVE_RATES[backend]),
                              "--seconds", repr(seconds), "--seed", str(seed),
                              "--read-fraction", str(WORKLOADS[workload]["read_fraction"])])
            out, err = server.communicate("stop\n", timeout=PROCESS_TIMEOUT_S)
            if server.returncode != 0:
                raise BenchError("serve exited %d: %s" % (server.returncode, err[-2000:]))
            sys.stderr.write(err)
            return last_json(out, "serve"), load
        finally:
            if server.poll() is None:
                server.kill()
            server.wait()
            if os.path.exists(log_path):
                os.remove(log_path)

    @staticmethod
    def wait_ready(server):
        deadline = time.monotonic() + PROCESS_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([server.stdout], [], [], 1.0)
            if ready:
                line = server.stdout.readline()
                if not line:
                    break
                if line.startswith("READY "):
                    return int(line.split()[1])
            elif server.poll() is not None:
                break
        server.kill()
        raise BenchError("server never became ready: " + server.communicate()[1][-2000:])


def median_of(results):
    """Per-key median over the numeric entries of several results."""
    return {key: statistics.median(r[key] for r in results)
            for key, value in results[0].items() if not isinstance(value, bool)}


def run_workload(bench, workload, seconds, trace):
    """Returns (correct, attempted, failed, metrics, report_lines)."""
    repeats = WORKLOADS[workload]["repeats"]
    per_process = seconds / (len(BACKENDS) * repeats)
    setup_key = "setup_s" if WORKLOADS[workload]["serve"] else "build_s"
    correct, attempted, failed = True, 0, 0
    values, report = {}, []

    # Processes of the backends are interleaved, so that drift in the
    # machine over a run reaches every backend alike.
    modes = (False, True) if trace else (False,)
    runs = {(b, traced): ([], []) for b in BACKENDS for traced in modes}
    for i in range(repeats):
        seed = bench.seed * 1000 + i
        for b in BACKENDS:
            for traced in modes:
                result, load = bench.measure(workload, b, per_process, traced, seed)
                ok = result["correct"] and (load is None or load["correct"])
                n = load["sent"] if load is not None else result["attempted"]
                attempted += n
                if not ok:
                    correct = False
                    failed += n
                elif load is not None:
                    failed += load["failures"]
                runs[b, traced][0].append(result)
                runs[b, traced][1].append(load)
    builds = {b: [r[setup_key] for r in runs[b, False][0]] for b in BACKENDS}
    if not trace and not WORKLOADS[workload]["serve"]:
        for i in range(SETUP_PROBES):
            seed = bench.seed * 1000 + repeats + i
            for b in BACKENDS:
                result, _ = bench.measure(workload, b, SETUP_PROBE_SECONDS, False, seed)
                attempted += result["attempted"]
                if not result["correct"]:
                    correct = False
                    failed += result["attempted"]
                builds[b].append(result["build_s"])

    def medians(b, traced):
        results, loads = runs[b, traced]
        return median_of(results), (median_of(loads) if loads[0] is not None else None)

    setup_total = 0.0
    for b in BACKENDS:
        result, load = medians(b, False)
        if not trace:
            setup_total += statistics.median(builds[b])
            values["ops_s." + b] = (load or result)["ops_s"]
            if b == "mvstm":
                values["lat_mean_us.mvstm"] = (load or result)["lat_mean_us"]
            values["rss_mb." + b] = result["rss_mb"]
            if load is not None:
                report.append("  lat_p50_us.%s %.1f us, lat_p99_us.%s %.1f us (median of %d runs"
                              " of %d samples)" % (b, load["lat_p50_us"], b, load["lat_p99_us"],
                                                   repeats, load["lat_samples"]))
            continue
        traced, traced_load = medians(b, True)
        overhead = 1.0 - (traced_load or traced)["ops_s"] / (load or result)["ops_s"]
        values.update(layer_values(b, traced, traced_load, overhead))
    if trace:
        metrics = {name: (values.get(name, 0.0), unit) for name, unit in ledger_names()}
    else:
        values["setup_s"] = setup_total
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    fail_frac = failed / attempted if attempted else 1.0
    report.append("  fail_frac %.6g (%d of %d operations)" % (fail_frac, failed, attempted))
    return correct, attempted, failed, metrics, report


def layer_values(b, r, load, overhead_frac):
    v = {"core.build_s." + b: r["build_s"], "trace.overhead_frac." + b: overhead_frac}
    for key in ("ops.st_mean_us", "ops.op_mean_us", "ops.sm_mean_us", "ops.failed_frac",
                "containers.probe_mean_us", "containers.range_mean_us",
                "ebr.epoch_advances_per_s", "ebr.pending_peak", "ebr.pending_end"):
        v["%s.%s" % (key, b)] = r[key]
    if b in STM_BACKENDS:
        for key in ("stm.commit_ratio", "stm.aborts_kop.read_validation",
                    "stm.aborts_kop.write_lock", "stm.reads_per_op", "stm.writes_per_op",
                    "stm.validation_steps_per_op", "stm.read_share", "stm.validation_share",
                    "stm.commit_share", "stm.backoff_share"):
            v["%s.%s" % (key, b)] = r[key]
    if b == "mvstm":
        v["stm.ro_aborts.mvstm"] = r["stm.ro_aborts"]
    if load is not None:
        v["net.queue_peak." + b] = r["net.queue_peak"]
        for key in ("lat_p50_us", "lat_p99_us", "exec_p50_us", "exec_p99_us",
                    "overhead_p50_us", "overhead_p99_us", "gen_late_p99_us"):
            v["net.%s.%s" % (key, b)] = load[key]
        if "log.groups" in r:
            v["mvstm.group_size"] = r["log.members"] / max(r["log.groups"], 1)
            v["mvstm.log_bytes_per_commit"] = r["log.bytes"] / max(r["log.members"], 1)
            v["mvstm.fsyncs_per_s"] = r["log.fsyncs"] / load["elapsed_s"]
    return v


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs: tiny structures, and deliberate damage before a check.
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--fault", choices=("invariants", "fingerprint"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        bin_dir = build(build_root)
        run_dir = os.path.join(build_root, "run")
        os.makedirs(run_dir, exist_ok=True)
        bench = Bench(bin_dir, run_dir, args.seed, args.tiny, args.fault)
        workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        correct, attempted, failed, metrics = True, 0, 0, {}
        for workload in workloads:
            ok, n, bad, m, report = run_workload(bench, workload, args.seconds, args.trace)
            correct, attempted, failed = correct and ok, attempted + n, failed + bad
            print("workload %s (seed %d, %g s measured, trace %d): %s"
                  % (workload, args.seed, args.seconds, args.trace,
                     "correct" if ok else "CHECK FAILED"))
            for name, (value, unit) in m.items():
                print("  %-36s %.6g %s" % (name, value, unit))
                key = name if len(workloads) == 1 else "%s/%s" % (workload, name)
                metrics[key] = {"value": value, "unit": unit}
            for line in report:
                print(line)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        log("perfbench: error: %s" % e)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
