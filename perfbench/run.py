#!/usr/bin/env python3
"""Repository benchmark entry point (see README.md in this directory).

    python3 perfbench/run.py --workload bulk_paper --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the benchmark program from source into
.bench_build/ (first run only), runs the statistics self-tests, measures
set-up time in fresh processes, runs the workload, and prints one JSON
object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The line before it is a detail record (percentile support, generator
lateness, failure share, host and fleet facts). The full raw record of the
run is kept under .bench_build/results/.
"""

import argparse
import json
import os
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave nothing in the source tree
sys.path.insert(0, HERE)
import stats  # noqa: E402

BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_DIR = os.path.join(".bench_build", "run")
RESULT_DIR = os.path.join(".bench_build", "results")
WORKLOADS = ("bulk_paper", "serve_mixed", "lossy_fields")
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0

END_TO_END = {
    "compress_mbps": "MB/s",
    "decompress_mbps": "MB/s",
    "ratio": "ratio",
    "compress_p50_ms": "ms",
    "compress_p90_ms": "ms",
    "decompress_p50_ms": "ms",
    "decompress_p90_ms": "ms",
    "rps": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics; a workload that does not exercise a layer reports 0.
PER_LAYER = {
    "core.histogram.gbps": "GB/s",
    "core.encode.gbps": "GB/s",
    "core.encode.frac_of_memcpy": "fraction",
    "core.histogram.frac_of_serial": "fraction",
    "core.format.serialize_gbps": "GB/s",
    "core.format.deserialize_gbps": "GB/s",
    "core.decode.gbps": "GB/s",
    "ceiling.memcpy_gbps": "GB/s",
    "ceiling.serial_histogram_gbps": "GB/s",
    "simt.histogram.sectors_per_kib": "sectors/KiB",
    "simt.encode.sectors_per_kib": "sectors/KiB",
    "perf.histogram.v100_gbps": "GB/s",
    "perf.encode.v100_gbps": "GB/s",
    "core.encode.reduce_factor": "count",
    "core.encode.reduce_factor.ENWIK8": "count",
    "core.encode.reduce_factor.NCI": "count",
    "core.encode.reduce_factor.NYX-QUANT": "count",
    "core.avg_bits": "bits",
    "core.avg_bits.ENWIK8": "bits",
    "core.avg_bits.NCI": "bits",
    "core.avg_bits.NYX-QUANT": "bits",
    "svc.histogram.ms_per_batch": "ms",
    "svc.codebook.ms_per_miss": "ms",
    "svc.queue_wait_p50_ms": "ms",
    "svc.requests_per_batch": "count",
    "svc.cache.hit_ratio": "fraction",
    "closed.svc.histogram.ms_per_batch": "ms",
    "closed.svc.codebook.ms_per_miss": "ms",
    "closed.svc.requests_per_batch": "count",
    "closed.svc.cache.hit_ratio": "fraction",
    "svc.batch_window_ms": "ms",
    "svc.retries": "count",
    "svc.degraded": "count",
    "rpc.request_p50_ms": "ms",
    "router.request_p50_ms": "ms",
    "rpc.wire_ms": "ms",
    "router.hop_ms": "ms",
    "router.shard_skew": "ratio",
    "router.failed_over": "count",
    "router.shed": "count",
    "lossy.quantize.gbps": "GB/s",
    "lossy.huffman.ms": "ms",
    "lossy.rle_symbol_share": "fraction",
    "lossy.cache.hit_ratio": "fraction",
    "lossy.decode.gbps": "GB/s",
    "lossy.bound_violations": "count",
    "load.generator_late_p99_ms": "ms",
    "unaccounted_share": "fraction",
    "trace_overhead_frac": "fraction",
}


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def self_test():
    suite = unittest.defaultTestLoader.loadTestsFromName("test_stats")
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=0).run(suite)
    if not result.wasSuccessful():
        fail("statistics self-tests failed", 3)


def check_manifest():
    """BENCHMARK.json and the tables above must name the same metrics."""
    if not os.path.exists("BENCHMARK.json"):
        return
    with open("BENCHMARK.json") as f:
        manifest = json.load(f)
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in manifest[key]}
        if listed != table:
            fail("BENCHMARK.json %s does not match run.py" % key)


def build(deadline):
    src = os.path.join(HERE, "..", "src", "CMakeLists.txt")
    if not os.path.exists(src):
        fail("library sources not found next to the benchmark (%s)" % src)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                timeout=max(1.0, deadline - time.time())
                                ).returncode
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd), 4)
    return os.path.join(BUILD_DIR, "perfbench")


def run_program(exe, workload, args, deadline):
    cmd = [exe, "--workdir", RUN_DIR, "--workload", workload] + args
    # The program's own tracing is on only in the traced half of --trace 1.
    env = {k: v for k, v in os.environ.items()
           if k not in ("PARHUFF_TRACE", "OMP_NUM_THREADS")}
    if workload == "serve_mixed":
        # One OpenMP thread per request, so the services' worker pools are
        # the fleet's only parallelism (see README.md): with the default
        # team of nproc threads per request the tails followed the host's
        # load, not the program.
        env["OMP_NUM_THREADS"] = "1"
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env,
                              timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        fail("program timed out (killed): " + " ".join(cmd), 6)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail("program failed (exit %d): %s" % (proc.returncode,
                                               " ".join(cmd)), 5)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("program printed no result: " + " ".join(cmd), 5)
    return json.loads(lines[-1])


def ratio_or_zero(a, b):
    return a / b if b else 0.0


def end_to_end(workload, raw, setup_s):
    s, v = raw["samples"], raw["values"]
    # Rates: the median over the passes over every input (bulk, lossy) or
    # over the seconds of the closed loop (serve); serve's latencies come
    # from its open loop.
    rates = {k: stats.median(s[k])
             for k in ("compress_mbps", "decompress_mbps", "rps")}
    return dict(rates, **{
        "ratio": v["ratio"],
        "compress_p50_ms": stats.median(s["compress_ms"]),
        "compress_p90_ms": stats.percentile(s["compress_ms"], 90.0),
        "decompress_p50_ms": stats.median(s["decompress_ms"]),
        "decompress_p90_ms": stats.percentile(s["decompress_ms"], 90.0),
        "setup_s": setup_s,
        "peak_rss_mb": v["peak_rss_mb"],
    })


def per_layer(workload, raw):
    s, v = raw["samples"], raw["values"]
    out = {name: float(v.get(name, 0.0)) for name in PER_LAYER}
    out["unaccounted_share"] = 1.0 - ratio_or_zero(v["accounted_s"],
                                                   v["self.total"])
    # Layer peel (serve_mixed, lossy_fields): each layer's cost is the
    # difference of the p50s at the boundaries above and below it.
    p50 = {b: stats.median(s["peel.%s_ms" % b])
           for b in ("compress", "submit", "rpc", "router")
           if "peel.%s_ms" % b in s}
    if "compress" in p50:
        out["svc.batch_window_ms"] = p50["submit"] - p50["compress"]
    if "rpc" in p50:
        out["rpc.wire_ms"] = p50["rpc"] - p50["submit"]
        out["router.hop_ms"] = p50["router"] - p50["rpc"]
    if workload == "serve_mixed":
        base, traced = s["compress_ms"], s["traced.compress_ms"]
        out["load.generator_late_p99_ms"] = stats.percentile(
            s["generator_late_ms"] + s["traced.generator_late_ms"], 99.0)
    else:
        base, traced = s["cycle_s"], s["traced.cycle_s"]
    out["trace_overhead_frac"] = stats.median(traced) / stats.median(base) - 1
    return out


def detail(workload, raw, setup_samples, attempted, failed):
    s = raw["samples"]
    timings = {k: stats.summary(x) for k, x in sorted(s.items())
               if k.endswith("_ms") or k.endswith("_s")}
    d = {
        "workload": workload,
        "failure_share": failed / attempted,
        "setup_s_samples": setup_samples,
        "timings": timings,
        "info": raw["info"],
    }
    if "generator_late_ms" in s:
        rate = raw["info"]["fleet"]["open_rate_rps"]
        late = stats.percentile(s["generator_late_ms"], 99.0)
        d["generator_late_p99_ms"] = late
        d["generator_late_max_ms"] = raw["values"]["generator_late_max_ms"]
        # Behind: the 99th-percentile send is later than one arrival gap.
        d["generator_fell_behind"] = late > 1e3 / rate
    return d


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    started = time.time()
    self_test()
    check_manifest()
    exe = build(started + 880.0)
    os.makedirs(RUN_DIR, exist_ok=True)
    os.makedirs(RESULT_DIR, exist_ok=True)
    deadline = time.time() + RUN_LIMIT_S

    common = ["--seed", str(args.seed)]
    attempted = failed = 0
    setup_samples = []
    for _ in range(SETUP_PROBES):
        probe = run_program(exe, args.workload,
                            common + ["--seconds", "1", "--mode", "setup"],
                            deadline)
        setup_samples.append(probe["values"]["setup_s"])
        attempted += probe["attempted"]
        failed += probe["failed"]
    setup_s = stats.median(setup_samples)

    mode = "trace" if args.trace else "measure"
    raw = run_program(exe, args.workload,
                      common + ["--seconds", str(args.seconds), "--mode", mode],
                      deadline)
    attempted += raw["attempted"]
    failed += raw["failed"]

    if args.trace:
        values = per_layer(args.workload, raw)
        units = PER_LAYER
    else:
        values = end_to_end(args.workload, raw, setup_s)
        units = END_TO_END
    d = detail(args.workload, raw, setup_samples, attempted, failed)
    with open(os.path.join(RESULT_DIR, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"detail": d, "raw": raw}, f)

    print(json.dumps(d))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }))


if __name__ == "__main__":
    main()
