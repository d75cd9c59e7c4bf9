#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/bench.exe from source and
runs one workload for a stated time, as repeats in fresh processes.

    python3 perfbench/run.py --workload W|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the root of a checkout. With --trace 0 it reports the
end-to-end metrics of untraced repeats (medians); with --trace 1 it
alternates untraced, traced and monitored repeats and reports the
per-layer metrics. Either way it checks the correctness gate, that all
repeats of the seed produce byte-identical virtual-time outputs, and
(traced) that the layer counters reconcile. The last line of stdout is
one JSON object; the exit code is 1 when any check misses, 2 on a usage
or build error. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("steady-datapath", "move-storm", "live-op-move")
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
BUDGET_S = 150.0  # Every run ends well inside the 180 s limit.
MIN_REPEATS = 3
MIN_ROUNDS = 1

# run_s is the fastest repeat (min-of-k): on a shared host the noise is
# one-sided slowdown, and the minimum is far steadier across runs than
# the median (see README.md). setup_s and peak_heap_mb are medians.
END_TO_END = [("run_s", "s", min), ("setup_s", "s", statistics.median),
              ("peak_heap_mb", "MB", statistics.median)]

# Virtual-time end-to-end metrics: printed with their sample counts for
# the workloads they apply to, reported per layer under "vt.".
VIRTUAL = {
    "pkt_loss_ratio": ("ratio", ("steady-datapath", "live-op-move")),
    "op_fail_ratio": ("ratio", ("move-storm", "live-op-move")),
    "move_ms_p50": ("ms_virtual", ("move-storm", "live-op-move")),
    "makespan_ms": ("ms_virtual", ("move-storm",)),
    "added_latency_ms_p50": ("ms_virtual", ("live-op-move",)),
    "added_latency_ms_p99": ("ms_virtual", ("live-op-move",)),
}

CP_PHASES = ("wait", "transfer.captured", "transfer.ack", "transfer.tail",
             "flush", "phase1", "phase2", "handoff", "finish")

# (layer, metric, unit), in print order. Lower is better for all but
# switch.cache_hit_ratio.
PER_LAYER = [
    ("sim", "sim.events", "count"),
    ("sim", "sim.wall_ns_per_event", "ns"),
    ("sim", "sim.noop_dispatch_ns", "ns"),
    ("switch", "switch.injects", "count"),
    ("switch", "switch.busy_s", "s"),
    ("switch", "switch.ns_per_inject", "ns"),
    ("switch", "switch.table_misses", "count"),
    ("switch", "switch.cache_hit_ratio", "ratio"),
    ("sb", "sb.receive.calls", "count"),
    ("sb", "sb.receive.busy_s", "s"),
    ("sb", "sb.receive.ns_per_call", "ns"),
    ("sb", "sb.processed", "count"),
    ("sb", "sb.buffered", "count"),
    ("sb", "sb.tombstone_dropped", "count"),
    ("sb", "sb.requests", "count"),
    ("sb", "sb.replies", "count"),
    ("sb", "sb.request_bytes", "bytes"),
    ("sb", "sb.reply_bytes", "bytes"),
    ("nf", "nf.process.calls", "count"),
    ("nf", "nf.process.busy_s", "s"),
    ("nf", "nf.export.calls", "count"),
    ("nf", "nf.export.busy_s", "s"),
    ("nf", "nf.export.bytes", "bytes"),
    ("nf", "nf.import.calls", "count"),
    ("nf", "nf.import.busy_s", "s"),
    ("nf", "nf.list.busy_s", "s"),
    ("nf", "nf.delete.busy_s", "s"),
    ("core", "ctrl.messages", "count"),
    ("core", "op.chunks", "count"),
    ("core", "op.bytes", "bytes"),
    ("core", "ctrl.dup_pieces", "count"),
    ("core", "ctrl.retries", "count"),
    ("core", "move.relayed", "count"),
    ("core", "move.state_bytes", "bytes"),
    ("core", "core.residual_s", "s"),
    ("core", "cp.queue_wait_ms", "ms_virtual"),
] + [("core", "cp.%s_ms" % p, "ms_virtual") for p in CP_PHASES] + [
    ("core", "cp.other_ms", "ms_virtual"),
    ("core", "cp.total_ms", "ms_virtual"),
    ("channel", "ch.msgs", "count"),
    ("channel", "ch.bytes", "bytes"),
    ("channel", "ch.data_sent", "count"),
    ("audit", "audit.records", "count"),
    ("audit", "audit.records_per_pkt", "ratio"),
    ("audit", "obs.verdict_s", "s"),
    ("audit", "obs.monitor_overhead_s", "s"),
    ("gc", "gc.minor_collections", "count"),
    ("gc", "gc.major_collections", "count"),
    ("gc", "gc.minor_words_per_event", "words"),
    ("gc", "gc.major_words_per_pkt", "words"),
    ("trace", "trace.overhead_s", "s"),
] + [("virtual", "vt." + k, u) for k, (u, _) in VIRTUAL.items()] + [
    ("virtual", "vt.order_findings", "count"),
]


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def child_env():
    # The fabric reads OPENNF_* as defaults (shards, parallelism,
    # monitoring, scheduler); the benchmark fixes all of them itself.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("OPENNF_") and k != "OCAMLRUNPARAM"}
    env["DUNE_CACHE"] = "disabled"
    return env


def build():
    for need in ("dune-project", "lib", "perfbench/dune", "perfbench/bench.ml"):
        if not os.path.exists(need):
            die("%s not found: run from the root of a full checkout" % need)
    if shutil.which("dune") is None:
        die("dune not found on PATH")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/bench.exe"]
    p = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       env=child_env(), timeout=850)
    if p.returncode != 0 or not os.path.exists(EXE):
        die("build failed")


def fingerprint():
    def read(path):
        try:
            with open(path) as f:
                return f.read()
        except OSError:
            return ""

    allowed = "?"
    for line in read("/proc/self/status").splitlines():
        if line.startswith("Cpus_allowed_list:"):
            allowed = line.split(":", 1)[1].strip()
    commit = "none (not a git checkout)"
    if os.path.isdir(".git"):
        p = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True)
        if p.returncode == 0:
            commit = p.stdout.strip()
    # The checkout may not be a repository: fingerprint the sources too.
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return {"nproc": os.cpu_count(), "cpus_allowed_list": allowed,
            "commit": commit, "source_sha256": h.hexdigest()[:16]}


def repeat(workload, seed, mode, verdict):
    cmd = ["./" + EXE, "--workload", workload, "--seed", str(seed),
           "--mode", mode] + ([] if verdict else ["--no-verdict"])
    p = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                       timeout=170)
    lines = p.stdout.strip().splitlines()
    try:
        r = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(p.stderr[-4000:])
        r = {"ok": False, "failures": ["bench.exe exited %d without a result"
                                       % p.returncode]}
    if p.returncode != 0 and r.get("ok"):
        r["ok"] = False
        r["failures"] = ["bench.exe exited %d" % p.returncode]
    return r


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def ratio(a, b):
    return a / b if b else 0.0


def run_rounds(workload, seed, trace, seconds):
    """Rounds of repeats until `seconds` have passed and the minimum is
    met, never past the run budget. A round is one untraced repeat, or
    with `trace` an untraced, a traced and a monitored one. The
    guarantee verdict (a replay of the whole audit stream) runs on the
    first repeat only: every repeat of a seed must produce the same
    virtual outputs, which the digest comparison checks."""
    modes = ["untraced", "traced", "monitored"] if trace else ["untraced"]
    least = MIN_ROUNDS if trace else MIN_REPEATS
    start = time.monotonic()
    rounds, longest = [], 0.0
    while True:
        elapsed = time.monotonic() - start
        if len(rounds) >= least and (elapsed >= seconds
                                     or elapsed + longest > BUDGET_S):
            break
        t = time.monotonic()
        rounds.append([repeat(workload, seed, m, not rounds and m == "untraced")
                       for m in modes])
        longest = max(longest, time.monotonic() - t)
        if any(not r.get("ok") for r in rounds[-1]):
            break
    return rounds


def check(rounds, trace):
    failures = []
    flat = [r for rnd in rounds for r in rnd]
    for r in flat:
        for f in r.get("failures", []):
            failures.append("%s: %s" % (r.get("mode", "?"), f))
    counts = {json.dumps({k: v for k, v in r["layers"].items()
                          if not k.endswith("_s") and not k.endswith("_ns")},
                         sort_keys=True)
              for r in flat if r.get("ok") and "layers" in r}
    if len(counts) > 1:
        failures.append("layer counters differ between traced repeats")
    digests = {r.get("digest") for r in flat if r.get("ok")}
    if len(digests) > 1:
        what = "traced and untraced" if trace else "repeats"
        failures.append("virtual outputs differ between %s of one seed: %s"
                        % (what, sorted(digests)))
    return failures


def fmt(v):
    if isinstance(v, float):
        return "%.6g" % v
    return str(v)


def table(rows, header):
    widths = [max(len(str(x)) for x in col) for col in zip(header, *rows)]
    for row in [header] + rows:
        print("  " + "  ".join(str(x).ljust(w) for x, w in zip(row, widths)))


def end_to_end(workload, rounds):
    reps = [rnd[0] for rnd in rounds]
    metrics, rows = {}, []
    for name, unit, stat in END_TO_END:
        xs = [r[name] for r in reps]
        q1, q3 = quartiles(xs)
        metrics[name] = {"value": stat(xs), "unit": unit}
        rows.append([name, fmt(stat(xs)), unit, stat.__name__, len(xs),
                     fmt(min(xs)), fmt(statistics.median(xs)),
                     "%s..%s" % (fmt(q1), fmt(q3))])
    v = reps[0]["virtual"]
    samples = {"move_ms_p50": v["move_samples"],
               "makespan_ms": v["move_samples"],
               "added_latency_ms_p50": v["added_latency_samples"],
               "added_latency_ms_p99": v["added_latency_samples"],
               "pkt_loss_ratio": reps[0]["injected"],
               "op_fail_ratio": reps[0]["moves"]}
    for name, (unit, applies) in VIRTUAL.items():
        if workload in applies:
            rows.append([name, fmt(v[name]), unit, "exact", samples[name],
                         "", "", ""])
    print("end-to-end, %s (%d untraced repeats; virtual-time metrics are "
          "exact and identical in every repeat):" % (workload, len(reps)))
    table(rows, ["metric", "value", "unit", "stat", "samples", "min",
                 "median", "q1..q3"])
    if reps[0]["order_findings"]:
        print("  order findings under loss-free moves (expected, not "
              "failures): %d" % reps[0]["order_findings"])
    return metrics


BUSY = ("switch.inject.busy_s", "sb.receive.busy_s", "nf.process.busy_s",
        "nf.export.busy_s", "nf.import.busy_s", "nf.list.busy_s",
        "nf.delete.busy_s")

COUNTS = ("sb.processed", "sb.buffered", "sb.tombstone_dropped", "sb.requests",
          "sb.replies", "sb.request_bytes", "sb.reply_bytes", "nf.export.bytes",
          "ctrl.messages", "op.chunks", "op.bytes", "ctrl.dup_pieces",
          "ctrl.retries", "move.relayed", "move.state_bytes", "ch.msgs",
          "ch.bytes", "ch.data_sent", "audit.records", "cp.queue_wait_ms")


def per_layer(workload, rounds):
    """Per-layer values of the fastest traced repeat (so its shares add
    up to its own run_s), overheads as differences of fastest repeats,
    GC counts and verdict time from the first untraced repeat."""
    u, t, m = ([rnd[k] for rnd in rounds] for k in range(3))
    fast = min(t, key=lambda r: r["run_s"])
    lay = fast["layers"]
    events, injected = fast["virtual"]["events"], fast["injected"]
    run_u = min(r["run_s"] for r in u)
    run_t = fast["run_s"]
    gc = u[0]["gc"]
    vals = {
        "sim.events": events,
        "sim.wall_ns_per_event": 1e9 * ratio(run_u, events),
        "sim.noop_dispatch_ns": lay["sim.noop_dispatch_ns"],
        "switch.injects": lay["switch.inject.calls"],
        "switch.busy_s": lay["switch.inject.busy_s"],
        "switch.ns_per_inject": 1e9 * ratio(lay["switch.inject.busy_s"],
                                            lay["switch.inject.calls"]),
        "switch.table_misses": lay["switch.table_misses"],
        "switch.cache_hit_ratio": ratio(
            lay["switch.cache_hits"],
            lay["switch.cache_hits"] + lay["switch.cache_misses"]),
        "sb.receive.calls": lay["sb.receive.calls"],
        "sb.receive.busy_s": lay["sb.receive.busy_s"],
        "sb.receive.ns_per_call": 1e9 * ratio(lay["sb.receive.busy_s"],
                                              lay["sb.receive.calls"]),
        "core.residual_s": run_t - sum(lay[k] for k in BUSY),
        "cp.other_ms": sum(v for k, v in lay.items()
                           if k.startswith("cp.") and k != "cp.queue_wait_ms"
                           and k[3:-3] not in CP_PHASES),
        "audit.records_per_pkt": ratio(lay["audit.records"], injected),
        "obs.verdict_s": u[0]["verdict_s"],
        "obs.monitor_overhead_s": min(r["run_s"] for r in m) - run_u,
        "gc.minor_collections": gc["minor_collections"],
        "gc.major_collections": gc["major_collections"],
        "gc.minor_words_per_event": ratio(gc["minor_words"], events),
        "gc.major_words_per_pkt": ratio(gc["major_words"], injected),
        "trace.overhead_s": run_t - run_u,
        "vt.order_findings": u[0]["order_findings"],
    }
    for k in ("process", "export", "import"):
        vals["nf.%s.calls" % k] = lay["nf.%s.calls" % k]
    for k in BUSY[2:]:
        vals[k] = lay[k]
    for k in COUNTS:
        vals[k] = lay[k]
    for p in CP_PHASES:
        vals["cp.%s_ms" % p] = lay.get("cp.%s_ms" % p, 0)
    vals["cp.total_ms"] = sum(vals["cp.%s_ms" % p] for p in CP_PHASES) \
        + vals["cp.other_ms"]
    for k in VIRTUAL:
        vals["vt." + k] = fast["virtual"][k]

    print("per-layer, %s (%d rounds of untraced/traced/monitored repeats; "
          "fastest untraced run_s %s s, traced %s s, trace.overhead_s %s s):"
          % (workload, len(rounds), fmt(run_u), fmt(run_t),
             fmt(vals["trace.overhead_s"])))
    table([[layer, name, fmt(vals[name]), unit]
           for layer, name, unit in PER_LAYER],
          ["layer", "metric", "value", "unit"])
    print("  samples: %d moves, %d added-latency packets, %d packets"
          % (fast["virtual"]["move_samples"],
             fast["virtual"]["added_latency_samples"], injected))
    shares = [("switch", vals["switch.busy_s"]),
              ("sb.receive", vals["sb.receive.busy_s"]),
              ("nf", sum(vals[k] for k in BUSY[2:])),
              ("residual (core+channel+sim)", vals["core.residual_s"])]
    print("  shares of traced run_s %s s (trace.overhead_s %s s): %s"
          % (fmt(run_t), fmt(vals["trace.overhead_s"]), ", ".join(
              "%s %.0f%%" % (n, 100 * ratio(x, run_t)) for n, x in shares)))
    return {name: {"value": vals[name], "unit": unit}
            for _, name, unit in PER_LAYER}


def self_test():
    """The gate self-test, plus a check that BENCHMARK.json names exactly
    the metrics this script reports."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ok = True
    for key, names in (("end_to_end", [n for n, _, _ in END_TO_END]),
                       ("per_layer", [n for _, n, _ in PER_LAYER])):
        listed = [(m["name"], m["unit"]) for m in spec[key]]
        units = dict((n, u) for n, u in [(n, u) for n, u, _ in END_TO_END]
                     + [(n, u) for _, n, u in PER_LAYER])
        if listed != [(n, units[n]) for n in names]:
            print("selftest: BENCHMARK.json %s does not match run.py" % key,
                  file=sys.stderr)
            ok = False
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        print("selftest: BENCHMARK.json workloads do not match run.py",
              file=sys.stderr)
        ok = False
    build()
    p = subprocess.run(["./" + EXE, "--selftest"], env=child_env(), timeout=170)
    sys.exit(0 if ok and p.returncode == 0 else 1)


def run_workload(workload, seed, trace, seconds):
    """Runs, checks and reports one workload; returns its result object."""
    rounds = run_rounds(workload, seed, trace, seconds)
    failures = check(rounds, trace)
    reps = [rnd[0] for rnd in rounds]
    metrics = {}
    if not failures:
        metrics = (per_layer if trace else end_to_end)(workload, rounds)
    else:
        print("correctness gate MISSED on %s seed %d:" % (workload, seed))
        for f in failures:
            print("  " + f)
    return {"correct": not failures,
            "attempted": max(1, sum(r.get("injected", 0) + r.get("moves", 0)
                                    for r in reps)),
            "failed": sum(r.get("lost", 0) + r.get("move_errors", 0)
                          for r in reps),
            "metrics": metrics,
            "ocaml": reps[0].get("ocaml", "?")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    help="one workload, or all three in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="show the correctness gate passing on clean small "
                    "workloads and firing on a seeded Drop_buffered move")
    a = ap.parse_args()
    if a.self_test:
        self_test()
    if a.workload is None:
        ap.error("--workload is required")
    build()
    host = fingerprint()
    workloads = WORKLOADS if a.workload == "all" else (a.workload,)
    results = {w: run_workload(w, a.seed, a.trace, a.seconds)
               for w in workloads}
    host["ocaml"] = results[workloads[0]].pop("ocaml")
    print("host: " + json.dumps(host, sort_keys=True))
    if len(results) == 1:
        result = results[workloads[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps({k: result[k]
                      for k in ("correct", "attempted", "failed", "metrics")}))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
