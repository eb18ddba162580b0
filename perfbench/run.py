#!/usr/bin/env python3
"""Two-clock benchmark of the Two-Chains simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds the program and the workload program from source (perfbench/
CMakeLists.txt, into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench), then runs the workload in fresh single-threaded
processes, one after another, until --seconds of host time are used (at least
MIN_PROCESSES of them). Every process rebuilds the fabric from scratch, so
set-up is measured once per process.

With --trace 0 it prints the end-to-end metrics: host-clock ones as the median
over the processes, simulated ones once (they are identical for a seed, which
the digest check enforces). With --trace 1 it alternates untraced and traced
processes and prints the per-layer metrics. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Exit code 0 whenever a result is printed; 2 without one (for example when the
program's sources are missing or the build fails).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kv_zipf", "incast_ssum_hardened", "tree_incast")
MIN_PROCESSES = 3
PROCESS_TIMEOUT_S = 120

# name -> (unit, source): "median" of the untraced processes' host values,
# "wall" = median process wall time seen from here, "sim" = exact simulated
# value.
END_TO_END = {
    "setup_s": ("s", "median"),
    "wall_s": ("s", "wall"),
    "host_ops_per_s": ("op/s", "median"),
    "peak_rss_mib": ("MiB", "median"),
    "sim_p50_ns": ("ns", "sim"),
    "sim_p999_ns": ("ns", "sim"),
    "sim_mops": ("op/us", "sim"),
    "wire_bytes_per_op": ("B/op", "sim"),
}

TAGS = ("tc.process", "tc.post", "tc.complete", "tc.send", "ucxs.put", "nic.rx",
        "nic.deliver", "nic.complete", "switch.ingress", "switch.wake",
        "driver", "other")

# name -> (unit, source): "median" over untraced processes, "traced" median
# over traced processes, "sim" exact, "overhead" computed here.
PER_LAYER = dict(
    [
        ("core.fabric_ctor_s", ("s", "median")),
        ("pkg.build_s", ("s", "median")),
        ("core.load_s", ("s", "median")),
        ("benchlib.warm_s", ("s", "median")),
        ("core.fabric_dtor_s", ("s", "median")),
    ]
    + [("host.%s_ns" % tag, ("ns/op", "traced")) for tag in TAGS]
    + [
        ("trace.overhead_frac", ("ratio", "overhead")),
        ("sim.events_per_op", ("event/op", "sim")),
        ("sim.host_ns_per_event", ("ns/event", "median")),
        ("jamvm.instructions_per_op", ("instr/op", "sim")),
        ("cache.accesses_per_op", ("access/op", "sim")),
        ("cache.l1_hit_ratio", ("ratio", "sim")),
        ("cache.dram_per_op", ("access/op", "sim")),
        ("core.jam_hit_ratio", ("ratio", "sim")),
        ("core.jam_resends", ("count", "sim")),
        ("core.link_cycles_saved_per_op", ("cycle/op", "sim")),
        ("core.send_stalls_per_op", ("count/op", "sim")),
        ("net.switch_marks_per_op", ("count/op", "sim")),
        ("net.backpressure_holds", ("count", "sim")),
        ("net.switch_peak_buffer_bytes", ("B", "sim")),
        ("core.cwnd_decreases", ("count", "sim")),
        ("core.security_rejections", ("count", "sim")),
        ("net.frames_dropped", ("count", "sim")),
        ("net.rkey_rejections", ("count", "sim")),
        ("failed_frac", ("ratio", "sim")),
    ]
    + [("sim.%s_%s_ns" % (stage, q), ("ns", "sim"))
       for stage in ("queue", "wire", "rx") for q in ("p50", "p999")]
)


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures once, then builds (a no-op when nothing changed)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "fabric.hpp")):
        log("program sources not found under %s/src" % ROOT)
        return None
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, cwd=ROOT).returncode:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                      stdout=sys.stderr, cwd=ROOT).returncode:
        return None
    binary = os.path.join(out_dir, "perfbench_workload")
    return binary if os.path.isfile(binary) else None


def run_process(binary, workload, seed, traced, trace_out):
    """One workload process; returns its report plus the wall time seen here,
    or None when it crashed, timed out or printed no report."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    if traced:
        cmd += ["--trace-out", trace_out]
    start = time.monotonic()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=PROCESS_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("%s seed %d: process timed out" % (workload, seed))
        return None
    wall = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log("%s seed %d: process exited %d" % (workload, seed, done.returncode))
        return None
    report = json.loads(lines[-1])
    report["wall_s"] = wall
    return report


def median_of(reports, name):
    return statistics.median(r["metrics"][name] for r in reports)


def main():
    # A SIGTERM unwinds through subprocess.run, which kills and reaps the
    # running child before the exception propagates.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        log("build failed")
        return 2
    trace_dir = os.path.join(out_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    # Untraced processes, or untraced/traced pairs with --trace 1.
    kinds = [False, True] if args.trace else [False]
    minimum = len(kinds) if args.trace else MIN_PROCESSES
    reports, crashed, durations = [], 0, []
    deadline = time.monotonic() + args.seconds
    while True:
        traced = kinds[len(durations) % len(kinds)]
        trace_out = os.path.join(
            trace_dir, "%s-seed%d-%d.json" % (args.workload, args.seed,
                                              len(durations)))
        started = time.monotonic()
        report = run_process(binary, args.workload, args.seed, traced,
                             trace_out)
        durations.append(time.monotonic() - started)
        if report is None:
            crashed += 1
            break
        reports.append(report)
        if len(durations) % len(kinds):
            continue  # finish the pair
        estimate = statistics.median(durations) * len(kinds)
        if (len(durations) >= minimum and
                time.monotonic() + estimate > deadline):
            break

    untraced = [r for r in reports if not r["traced"]]
    traced = [r for r in reports if r["traced"]]
    digests = sorted({r["digest"] for r in reports})
    errors = [e for r in reports for e in r["errors"]]
    for e in sorted(set(errors)):
        log("FAIL " + e)
    if len(digests) > 1:
        log("FAIL simulated results differ between processes of one seed: "
            + " ".join(digests))
    attempted = sum(r["ops"] for r in reports) + crashed
    failed = sum(r["failed"] for r in reports) + crashed
    correct = (crashed == 0 and not errors and len(digests) == 1 and
               failed == 0 and bool(untraced))
    print("perfbench: %s seed %d: %d processes (%d traced), digest %s, %s" % (
        args.workload, args.seed, len(reports), len(traced),
        ",".join(digests) or "-", "correct" if correct else "FAILED"))

    metrics = {}
    if untraced:
        table = PER_LAYER if args.trace else END_TO_END
        for name, (unit, source) in table.items():
            if source == "median":
                value = median_of(untraced, name)
            elif source == "wall":
                value = statistics.median(r["wall_s"] for r in untraced)
            elif source == "traced":
                value = median_of(traced, name) if traced else 0.0
            elif source == "overhead":
                value = (median_of(traced, "window_s") /
                         median_of(untraced, "window_s") - 1.0
                         if traced else 0.0)
            else:
                value = untraced[0]["metrics"][name]
            metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
