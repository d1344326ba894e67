"""Helpers shared by the benchmark runner and its tests.

Metric definitions, metric-name validation, the order statistics the runner
prints (quartiles and their spread), the end-to-end metrics derived from one
repetition's record, and the checks a repetition must pass.
"""

import re
import statistics

# End-to-end metrics (host time, tracing off): name -> unit. The order is the
# order the runner prints them in.
END_TO_END = {
    "setup_s": "s",
    "bringup_s": "s",
    "run_ns_per_router_s": "ns",
    "ns_per_packet": "ns",
    "total_s": "s",
    "peak_rss_mib": "MiB",
}

# Per-layer metric the runner adds to the ones perfbench_sim reports.
OVERHEAD_METRIC = "trace.overhead_ratio"

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_metric_name(name):
    """A name starts with a letter or digit and uses [A-Za-z0-9_.-], <= 64."""
    return isinstance(name, str) and _NAME.fullmatch(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and _UNIT.fullmatch(unit) is not None


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def lower_quartile(values):
    """The value a run reports for a metric: the lower quartile of its
    repetitions (the minimum below three, where quartiles would
    extrapolate). Host noise only adds time, so the faster repetitions are
    the less disturbed ones; a quartile rather than the minimum keeps one
    noisy calibration from deciding the result."""
    if len(values) < 3:
        return min(values)
    return quartiles(values)[0]


def relative_spread(values):
    """Inter-quartile distance as a share of the median (0 for one value)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


# Seconds the calibration kernel (src/calibrate.cpp) takes on a quiet
# 4-vCPU Xeon host like the one the benchmark was tuned on. Scaled times
# read as seconds on that host; changing this rescales every time metric.
CALIBRATION_REF_S = 0.17


def end_to_end(rec):
    """The end-to-end metric values of one repetition record.

    Each phase's wall time is scaled by CALIBRATION_REF_S over the kernel
    times measured next to it: before setup, between bring-up and run, and
    after the checks.
    """
    phases, simq = rec["phases"], rec["sim"]
    c0, c1, c2 = rec["calibration_s"]
    early = 2 * CALIBRATION_REF_S / (c0 + c1)
    late = 2 * CALIBRATION_REF_S / (c1 + c2)
    overall = 3 * CALIBRATION_REF_S / (c0 + c1 + c2)
    run_ns = phases["run_s"] * 1e9 * late
    return {
        "setup_s": phases["setup_s"] * early,
        "bringup_s": phases["bringup_s"] * early,
        "run_ns_per_router_s": run_ns / simq["run_router_s"],
        "ns_per_packet": run_ns / max(simq["run_packets"], 1),
        "total_s": phases["total_s"] * overall,
        "peak_rss_mib": rec["peak_rss_kib"] / 1024.0,
    }


def rep_failures(rec, expected_digest, reference_digest=None):
    """Reasons one repetition failed its checks (empty when it passed)."""
    reasons = []
    checks = rec["checks"]
    if not checks["converged_bringup"]:
        reasons.append("did not converge during bring-up")
    elif not checks["converged_before_failure"]:
        reasons.append("not converged just before the failure")
    if not checks["converged_at_end"]:
        reasons.append("not re-converged after the interface recovered")
    if checks["audit_violations"]:
        reasons.append(f"{checks['audit_violations']} auditor violations")
    if rec["digest"] != expected_digest:
        reasons.append(f"digest {rec['digest']} differs from the set's "
                       f"{expected_digest}")
    if reference_digest is not None and rec["digest"] != reference_digest:
        reasons.append(f"digest {rec['digest']} differs from the reference "
                       f"{reference_digest}")
    return reasons
