#!/usr/bin/env python3
"""The simulator benchmark: time-to-result per phase on four fabric workloads.

Builds perfbench_sim from the repository's sources (into .bench_build/),
runs one workload repeatedly for --seconds, each repetition in a fresh
process, checks every repetition's simulated outputs, and prints the
end-to-end metrics (--trace 0) or the per-layer metrics of a traced run
(--trace 1). The last line of standard output is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage:
  python3 perfbench/run.py --workload mtp64_failover --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --workload all          # every workload, in turn
  python3 perfbench/run.py --write-reference       # re-record default-seed digests

Traces and per-run records are written under .bench_out/.
"""

import argparse
import collections
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402

ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = ROOT / ".bench_out"
BINARY = BUILD_DIR / "perfbench_sim"
REFERENCE = HERE / "reference.json"

WORKLOADS = ["mtp64_failover", "bgpbfd64_failover", "websearch8_ecnpfc",
             "mtp64_sharded"]
# Workloads that run one thread per shard; their repetitions are not pinned.
MULTI_THREADED = {"mtp64_sharded"}
DEFAULT_SEED = 1
MIN_REPS = 3
# No repetition starts after this many seconds, so a run ends well inside
# the 180 s a run may take.
LAUNCH_CUTOFF_S = 120.0
REP_TIMEOUT_S = 60.0


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed build)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench_sim; raises BenchError if the
    sources are missing or the build fails."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "perfbench_sim", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    if not BINARY.is_file():
        raise BenchError(f"build produced no {BINARY}")


def source_fingerprint():
    """sha256 over the simulator and benchmark sources (the checkout may not
    be a git repository, so the commit alone cannot identify the code)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed, build_info):
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "hardware_concurrency": build_info.get("hardware_concurrency"),
        "cpu": cpu_model(),
        "compiler": build_info.get("compiler"),
        "build_type": build_info.get("build_type"),
        "flags": build_info.get("flags"),
        "commit": git_commit(),
        "source_sha256": source_fingerprint(),
    }


def run_rep(workload, seed, smoke, trace_out=None, cpu=None):
    """One repetition in a fresh process, pinned to `cpu` when given;
    returns its record or raises."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=REP_TIMEOUT_S, preexec_fn=pin)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench_sim exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_digest(workload, seed, smoke):
    if smoke or seed != DEFAULT_SEED or not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text())["digests"].get(workload)


def summarize(values_by_name, units):
    """name -> {"value": lower quartile of the repetitions, "unit": ...},
    plus a printable table that also gives each metric's minimum, median,
    upper quartile and spread."""
    metrics, lines = {}, []
    for name, values in values_by_name.items():
        if not (benchlib.valid_metric_name(name) and
                benchlib.valid_unit(units[name])):
            raise BenchError(f"invalid metric {name!r} / unit {units[name]!r}")
        _, q2, q3 = benchlib.quartiles(values)
        value = benchlib.lower_quartile(values)
        metrics[name] = {"value": value, "unit": units[name]}
        lines.append(f"#   {name:34s} {value:14.6g} {units[name]:6s} "
                     f"min {min(values):.6g} median {q2:.6g} q3 {q3:.6g} "
                     f"spread {benchlib.relative_spread(values):.3f} "
                     f"n {len(values)}")
    return metrics, lines


def run_workload(workload, seed, seconds, traced, smoke):
    """Runs one workload for `seconds`; returns the result object."""
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace_{workload}_seed{seed}.json"
    cpus = sorted(os.sched_getaffinity(0))
    start = time.monotonic()
    records, errors = [], []
    while True:
        # Traced runs alternate untraced and traced repetitions, so the
        # overhead ratio compares neighbours in time. Single-threaded
        # repetitions rotate over the CPUs (a traced one shares its
        # untraced neighbour's), so every run samples each CPU.
        want_trace = traced and len(records) % 2 == 1
        turn = len(records) // 2 if traced else len(records)
        cpu = None if workload in MULTI_THREADED else cpus[turn % len(cpus)]
        try:
            rec = run_rep(workload, seed, smoke,
                          trace_path if want_trace else None, cpu)
            records.append(rec)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
            errors.append(str(e))
            records.append(None)
        elapsed = time.monotonic() - start
        if len(records) >= MIN_REPS and (elapsed >= seconds or
                                         elapsed >= LAUNCH_CUTOFF_S):
            break
        if len(errors) >= MIN_REPS and not any(records):
            break

    good = [r for r in records if r is not None]
    digests = collections.Counter(r["digest"] for r in good)
    expected = digests.most_common(1)[0][0] if digests else None
    reference = reference_digest(workload, seed, smoke)
    failed = len(errors)
    for rec in good:
        reasons = benchlib.rep_failures(rec, expected, reference)
        if reasons:
            failed += 1
            errors.append("; ".join(reasons))
    for e in errors:
        log(f"{workload}: FAILED repetition: {e}")

    untraced = [r for r in good if not r["traced"]]
    traced_recs = [r for r in good if r["traced"]]
    build_info = good[0]["build"] if good else {}
    header = {"workload": workload, **provenance(seed, build_info),
              "reps": len(records), "untraced": len(untraced),
              "traced": len(traced_recs), "digest": expected,
              "reference_digest": reference}
    lines = ["# " + json.dumps(header)]

    if not traced:
        per_rep = [benchlib.end_to_end(r) for r in untraced]
        values = {n: [m[n] for m in per_rep] for n in benchlib.END_TO_END}
        units = dict(benchlib.END_TO_END)
    else:
        values, units = {}, {}
        for rec in traced_recs:
            for name, m in rec["layers"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        if traced_recs and untraced:
            ratio = (benchlib.lower_quartile([r["phases"]["total_s"]
                                              for r in traced_recs]) /
                     benchlib.lower_quartile([r["phases"]["total_s"]
                                              for r in untraced]))
            values[benchlib.OVERHEAD_METRIC] = [ratio]
            units[benchlib.OVERHEAD_METRIC] = "ratio"
    metrics, table = ({}, []) if not any(values.values()) else \
        summarize(values, units)
    lines += table
    if traced and traced_recs:
        lines.append(f"# trace: {trace_path.relative_to(ROOT)} "
                     "(open in ui.perfetto.dev or chrome://tracing)")
    result = {"correct": failed == 0 and bool(good), "attempted": len(records),
              "failed": failed, "metrics": metrics}
    record_path = OUT_DIR / f"result_{workload}_seed{seed}_trace{int(traced)}.json"
    record_path.write_text(json.dumps(
        {"provenance": header, "result": result, "errors": errors,
         "records": [{k: v for k, v in r.items() if k != "layers"}
                     for r in good]}, indent=1))
    return result, lines


def write_reference(seed):
    digests = {}
    for workload in WORKLOADS:
        rec = run_rep(workload, seed, smoke=False)
        reasons = benchlib.rep_failures(rec, rec["digest"])
        if reasons:
            raise BenchError(f"{workload}: {'; '.join(reasons)}")
        digests[workload] = rec["digest"]
        log(f"{workload}: {rec['digest']}")
    REFERENCE.write_text(json.dumps(
        {"default_seed": seed, "digests": digests}, indent=2) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="2-PoD fabrics and short timelines (self-tests)")
    ap.add_argument("--write-reference", action="store_true",
                    help="record the default-seed digests in reference.json")
    args = ap.parse_args(argv)
    if not args.write_reference and args.workload is None:
        ap.error("--workload is required")
    try:
        build()
        if args.write_reference:
            write_reference(DEFAULT_SEED)
            return 0
        names = WORKLOADS if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            result, lines = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), args.smoke)
            print("\n".join(lines), flush=True)
            results[name] = result
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    final = results[names[0]] if len(names) == 1 else results
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
