#!/usr/bin/env python3
"""End-to-end wall-clock benchmark of BufferDB (see README.md here).

Builds the benchmark driver (bench.cc) against the engine sources, runs one
workload in several fresh processes one after another, checks every query
result, and prints one JSON object as the last line of stdout:

  python3 perfbench/run.py --workload tpch_batch --seed 1 --seconds 50 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run. --self-test checks the harness itself at a tiny scale
factor. Exit code 0 only when every query answered correctly.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "bufferdb_bench"

WORKLOADS = ("tpch_tuple", "tpch_batch")
QUERIES = ("q1", "q3", "q6", "q10", "q12", "q14")
DEFAULT_SF = 0.05
# Results stored with the benchmark cover this seed at DEFAULT_SF.
DEFAULT_SEED = 1
EXPECTED = HERE / "expected" / "tpch_sf0.05_seed1.tsv"
# Fresh processes per run. The host's speed drifts in phases of seconds
# (README.md, "Steadiness"), so a run samples several processes spread over
# its whole length instead of one long process.
PROCESSES = 3
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "correct_frac": "frac",
    **{q + "_ms": "ms" for q in QUERIES},
    "unrefined_mix_ms": "ms",
    "lookup_p50_us": "us",
    "lookup_p99_us": "us",
    "lookup_qps": "1/s",
}

OPERATOR_KINDS = ("SeqScan", "ColumnScan", "HashJoin-probe", "NestLoopJoin",
                  "IndexScan", "Aggregation", "HashAggregation", "Sort", "TopN",
                  "Buffer")

PER_LAYER_UNITS = {
    "sql.bind_us": "us",
    "plan.create_us": "us",
    "core.refine_us": "us",
    "plan.qerror_max": "ratio",
    "plan.qerror_gmean": "ratio",
    "core.buffers_added": "count",
    "core.buffer_excl_ms": "ms",
    "core.buffer_net_ms": "ms",
    "exec.root_ms": "ms",
    **{"exec.excl_ms." + k: "ms" for k in OPERATOR_KINDS},
    **{"exec.rows_per_call." + k: "rows/call" for k in OPERATOR_KINDS},
    "index.excl_ms": "ms",
    "index.probes": "count",
    "parallel.exchange_excl_ms": "ms",
    "parallel.efficiency": "ratio",
    "parallel.worker_skew": "ratio",
    "perf.trace_overhead_pct": "%",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds into .bench_build/; False on any failure."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log("perfbench: engine sources (src/) not found next to perfbench/")
        return False
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return BINARY.exists()


def run_child(args):
    """Runs one driver process; returns (report dict or None, exit code)."""
    try:
        proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        return None, 1
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if not lines:
        return None, proc.returncode
    return json.loads(lines[-1]), proc.returncode


def end_to_end(reports):
    pooled = lambda key, q: [x for r in reports for x in r[key][q]]
    m = {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    m["correct_frac"] = (attempted - failed) / attempted if attempted else 0.0
    for q in QUERIES:
        m[q + "_ms"] = statistics.median(pooled("refined_ms", q))
    m["unrefined_mix_ms"] = sum(
        statistics.median(pooled("unrefined_ms", q)) for q in QUERIES)
    lookups = [x for r in reports for v in r["lookup_us"].values() for x in v]
    m["lookup_p50_us"] = statistics.median(lookups)
    m["lookup_p99_us"] = statistics.quantiles(lookups, n=100,
                                              method="inclusive")[98]
    m["lookup_qps"] = (sum(r["lookup_count"] for r in reports) /
                       sum(r["lookup_wall_s"] for r in reports))
    samples = {q: len(pooled("refined_ms", q)) for q in QUERIES}
    log("perfbench: samples per query %s, lookups %d" % (samples, len(lookups)))
    return m


def per_layer(reports):
    return {name: statistics.median(r["layers"][name] for r in reports)
            for name in PER_LAYER_UNITS}


def run_benchmark(workload, seed, seconds, trace, sf=DEFAULT_SF,
                  expected=None, processes=PROCESSES):
    """Returns (result dict, exit code)."""
    if expected is None and seed == DEFAULT_SEED and sf == DEFAULT_SF:
        expected = EXPECTED
    trace_dir = ROOT / ".bench_build" / "traces"
    reports = []
    code = 0
    for p in range(processes):
        args = ["--workload", workload, "--seed", str(seed),
                "--seconds", "%.3f" % (seconds / processes),
                "--trace", "1" if trace else "0", "--sf", repr(sf)]
        if expected is not None:
            args += ["--expected", str(expected)]
        if trace:
            trace_dir.mkdir(parents=True, exist_ok=True)
            args += ["--trace-out",
                     str(trace_dir / f"{workload}-seed{seed}-p{p}.jsonl")]
        report, rc = run_child(args)
        if report is None:
            return None, rc or 1
        code = code or rc
        reports.append(report)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    metrics = per_layer(reports) if trace else end_to_end(reports)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": failed == 0 and code == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, (0 if result["correct"] else 1)


def self_test():
    """Harness check at a tiny scale factor: every metric is printed with its
    unit, and a corrupted expected result is reported as a failure."""
    sf = 0.002
    ok = True
    for workload in WORKLOADS:
        for trace, units in ((False, END_TO_END_UNITS),
                             (True, PER_LAYER_UNITS)):
            result, code = run_benchmark(workload, 3, 2, trace, sf=sf,
                                         processes=2)
            metrics = (result or {}).get("metrics", {})
            good = (code == 0 and result["correct"] and
                    result["attempted"] > 0 and result["failed"] == 0 and
                    set(metrics) == set(units) and
                    all(metrics[k]["unit"] == units[k] and
                        isinstance(metrics[k]["value"], float)
                        for k in units))
            if not trace:
                good = good and metrics["correct_frac"]["value"] == 1.0
            log("self-test %-13s trace=%d: %s" % (workload, trace,
                                                   "ok" if good else "FAIL"))
            ok = ok and good
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        path = Path(tmp) / "expected.tsv"
        _, rc = run_child(["--workload", "tpch_tuple", "--seed", "3",
                           "--seconds", "1", "--trace", "0", "--sf", repr(sf),
                           "--write-expected", str(path)])
        lines = path.read_text().splitlines() if rc == 0 else []
        # Corrupt the first double of Q6's stored answer.
        for i, line in enumerate(lines):
            if line.startswith("q6\t"):
                fields = line.split("\t")
                j = next(k for k, f in enumerate(fields) if f.startswith("d:"))
                fields[j] = "d:%r" % (float(fields[j][2:]) * 1.01 + 1)
                lines[i] = "\t".join(fields)
                break
        else:
            lines = []
        path.write_text("\n".join(lines) + "\n")
        result, code = run_benchmark("tpch_tuple", 3, 1, False, sf=sf,
                                     expected=path, processes=1)
        good = (bool(lines) and result is not None and code != 0 and
                not result["correct"] and result["failed"] > 0 and
                result["metrics"]["correct_frac"]["value"] < 1.0)
        log("self-test corrupted expected result detected: %s" %
            ("ok" if good else "FAIL"))
        ok = ok and good
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not build():
        return 2
    if args.self_test:
        ok = self_test()
        log("self-test " + ("passed" if ok else "FAILED"))
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required")
    result, code = run_benchmark(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    if result is None:
        return code
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
