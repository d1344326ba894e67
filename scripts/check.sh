#!/usr/bin/env bash
# One-stop pre-merge check: the tier-1 configure/build/ctest cycle plus the
# fully instrumented ASan+UBSan preset, a TSan pass over the buffer/scheduler
# tests, the steady-state allocation gate (the buffer pool's own counters
# must show zero slab allocations and zero payload copies across a pure
# forwarding window), the overload-cascade gate (BGP under a shared FIFO
# must falsely declare healthy neighbors dead during an incast; priority
# queues must drop that to exactly zero without costing steady-state event
# throughput), and the lifecycle gate (rolling upgrades must leak zero
# auditor violations outside their declared windows, drained routers must
# stay violation-free, and MR-MTP's disruption budget must not exceed
# BGP+BFD's), and the workload gate (under a production flow mix with a
# mid-campaign link failure, MR-MTP's p99 flow completion time must not
# exceed BGP/ECMP's, and it must strand no more flows), and the
# buffer-occupancy gate (finite switch pools under a 64:1 incast: ECN+PFC
# must beat tail-drop on p99 FCT and stranded flows, the control band must
# stay lossless at full data occupancy, and the auditor must report zero
# PFC deadlocks, chaos row included), and the wcmp gate (on the 2:1
# oversubscribed fabric capacity-weighted hashing must not lose to plain
# HRW on p99 FCT or stranded flows, flowlet switching must keep max_gap
# bounded, and the weighted pick must cost < 5% events/sec). Run from
# anywhere;
# the build trees live under the repo root (build/, build-asan/,
# build-tsan/).
#
#   scripts/check.sh            # tier-1 + sanitizers + both bench gates
#   scripts/check.sh --tier1    # tier-1 only (fast loop)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

jobs="$(nproc 2>/dev/null || echo 4)"
tier1_only=false
[[ "${1:-}" == "--tier1" ]] && tier1_only=true

echo "== tier-1: configure + build + ctest (build/) =="
cmake --preset default
cmake --build --preset default -j "$jobs"
ctest --preset default -j "$jobs"

echo
echo "== steady-state allocation gate (bench_buffer_pipeline) =="
(cd build && ./bench/bench_buffer_pipeline > /dev/null)
for key in slab_allocs oversize_allocs prepend_copies bytes_copied; do
  val="$(grep -o "\"$key\": [0-9-]*" build/BENCH_buffer.json | head -1 \
         | awk '{print $2}')"
  if [[ "$val" != "0" ]]; then
    echo "FAIL: steady-state window reports $key=$val (expected 0) —" \
         "a payload path regressed to heap allocation or copying."
    exit 1
  fi
  echo "  $key=0 ok"
done

if ! $tier1_only; then
  echo
  echo "== overload-cascade gate (bench_overload_cascade) =="
  (cd build && ./bench/bench_overload_cascade > /dev/null)
  gate() {  # gate <flat-json-key> -> value (from the "gates" object)
    grep -o "\"$1\": [0-9.]*" build/BENCH_overload.json | head -1 \
      | awk '{print $2}'
  }
  shared_fd="$(gate bgp_shared_false_dead)"
  if [[ "$shared_fd" -lt 1 ]]; then
    echo "FAIL: shared-FIFO BGP shows no false dead declarations" \
         "($shared_fd) — the incast no longer reproduces the cascade."
    exit 1
  fi
  echo "  bgp_shared_false_dead=$shared_fd (>0) ok"
  for key in bgp_priority_false_dead mtp_shared_false_dead \
             mtp_priority_false_dead; do
    val="$(gate "$key")"
    if [[ "$val" != "0" ]]; then
      echo "FAIL: $key=$val (expected 0) — a healthy neighbor was declared" \
           "dead despite control-plane protection."
      exit 1
    fi
    echo "  $key=0 ok"
  done
  # Priority queues must not slow the simulator. Gate on the same-run
  # priority/shared ratio rather than an absolute reference-machine floor:
  # shared containers throttle by 20%+ run to run with zero code change,
  # which makes absolute ev/s constants false-fail, while a real per-event
  # cost in the priority path still shows up against the shared-FIFO
  # control measured seconds earlier in the same process. Reference
  # machine: 3.74M priority / 3.69M shared (ratio 1.01). Even that
  # same-run ratio jitters by +-15% on 1-core CI containers (measured at
  # unchanged code: 0.82..1.18 across runs), so a single sub-0.95 sample
  # proves nothing — the gate takes the best of up to 3 bench runs, and a
  # real regression must lose all three to slip through.
  attempts=3
  for try in $(seq 1 "$attempts"); do
    ev="$(gate events_per_sec_priority)"
    ev_shared="$(gate events_per_sec_shared)"
    if awk -v p="$ev" -v s="$ev_shared" 'BEGIN { exit !(p >= s * 0.95) }'; then
      break
    fi
    if [[ "$try" -eq "$attempts" ]]; then
      echo "FAIL: priority-mode steady state at $ev events/sec — more than" \
           "5% below the same-run shared-FIFO control ($ev_shared) in" \
           "$attempts consecutive runs."
      exit 1
    fi
    echo "  retry $try/$attempts: ratio $ev/$ev_shared below 0.95," \
         "re-measuring"
    (cd build && ./bench/bench_overload_cascade > /dev/null)
  done
  echo "  events_per_sec_priority=$ev vs shared=$ev_shared (ratio >= 0.95) ok"

  echo
  echo "== parallel-engine gate (bench_parallel_sweep) =="
  (cd build && ./bench/bench_parallel_sweep > /dev/null)
  pgate() {  # pgate <topology> <threads> <key> -> value of that sweep point
    # NB: the script must come via the heredoc alone — a second stdin
    # redirection (`< file`) would override it and python would "run" the
    # JSON (a valid dict literal) as the script, silently printing nothing.
    python3 - "$1" "$2" "$3" <<'EOF'
import json, sys
doc = json.load(open("build/BENCH_parallel.json"))
topo, threads, key = sys.argv[1], int(sys.argv[2]), sys.argv[3]
for p in doc["points"]:
    if p["topology"] == topo and p["threads"] == threads \
       and p["protocol"] == "MR-MTP":
        print(p[key]); break
EOF
  }
  # Determinism gate: every run goes through the sharded engine, so each
  # topology x protocol must report identical simulated outcomes at 1, 2, 4
  # and 8 threads. These are deterministic counts, so the verdict holds on
  # any host; speedup_vs_1 stays in the artifact as a reported number only.
  python3 - <<'EOF'
import json, sys
doc = json.load(open("build/BENCH_parallel.json"))
groups = {}
for p in doc["points"]:
    groups.setdefault((p["topology"], p["protocol"]), []).append(p)
fails = []
for (topo, proto), pts in sorted(groups.items()):
    threads = sorted(p["threads"] for p in pts)
    if threads != [1, 2, 4, 8]:
        fails.append(f"{topo}/{proto}: thread counts {threads} != [1, 2, 4, 8]")
        continue
    for key in ("events_fired", "packets_lost", "ctrl_bytes_raw",
                "convergence_ms"):
        vals = {p["threads"]: p[key] for p in pts}
        if len(set(vals.values())) != 1:
            fails.append(f"{topo}/{proto}: {key} differs across thread "
                         f"counts {vals}")
    print(f"  {topo}/{proto}: identical at threads 1/2/4/8 ok")
if fails:
    for f in fails: print("FAIL:", f)
    sys.exit(1)
EOF
  # A 1-thread run is one shard stepped inline, so its throughput must track
  # the overload bench's shared-FIFO steady state measured earlier in this
  # same check run (both are the plain event core). On throttled 1-core CI
  # containers that cross-bench ratio is NOT tight: measured at unchanged
  # code, back-to-back runs span 0.56..0.90 because the long sweep heats the
  # container mid-run. So this gate is a catastrophic-regression backstop
  # only (best of 3 runs must clear 0.50x); the precise perf contract lives
  # in the overload bench's same-process priority/shared ratio above.
  attempts=3
  for try in $(seq 1 "$attempts"); do
    base_eps="$(pgate 16-PoD 1 events_per_sec)"
    if awk -v ev="$base_eps" -v ref="$ev_shared" \
         'BEGIN { exit !(ev >= ref * 0.50) }'; then
      break
    fi
    if [[ "$try" -eq "$attempts" ]]; then
      echo "FAIL: 1-thread (one inline shard) at $base_eps events/sec —" \
           "less than half the same-run shared-FIFO steady state" \
           "($ev_shared) in $attempts consecutive runs."
      exit 1
    fi
    echo "  retry $try/$attempts: $base_eps below 0.50x $ev_shared," \
         "re-measuring"
    (cd build && ./bench/bench_parallel_sweep > /dev/null)
  done
  echo "  16-PoD 1-thread events_per_sec=$base_eps (>= 0.50x $ev_shared) ok"
  echo "  16-PoD 4-thread speedup=$(pgate 16-PoD 4 speedup_vs_1)x" \
       "(reported, not gated)"
  # Barrier-elision gate: the async engine must coordinate through detection
  # rendezvous only, not per-advance lock-step windows. The lock-step
  # engine's committed baseline for the 4-shard 8-PoD MR-MTP chaos run was
  # sync_windows=21455; the async engine needs a handful of detection
  # rounds, so gate at a >= 10x reduction (<= 2145). sync_windows counts
  # rendezvous, not wall time, so the gate holds on any host — thread
  # timing moves it by single digits, not orders of magnitude.
  windows="$(pgate 8-PoD 4 sync_windows)"
  coalesced="$(pgate 8-PoD 4 coalesced_windows)"
  if [[ -z "$windows" || -z "$coalesced" ]]; then
    echo "FAIL: 8-PoD 4-thread sync_windows/coalesced_windows missing from" \
         "BENCH_parallel.json — the async-engine telemetry regressed."
    exit 1
  fi
  if [[ "$windows" -gt 2145 ]]; then
    echo "FAIL: 8-PoD 4-thread run used $windows sync windows — less than a" \
         "10x reduction over the lock-step baseline (21455)."
    exit 1
  fi
  echo "  8-PoD 4-thread sync_windows=$windows (<= 2145, baseline 21455) ok"
  echo "  8-PoD 4-thread coalesced_windows=$coalesced recorded ok"

  echo
  echo "== lifecycle gate (bench_lifecycle) =="
  (cd build && ./bench/bench_lifecycle > /dev/null)
  python3 - <<'EOF'
import json, sys
doc = json.load(open("build/BENCH_lifecycle.json"))
fails = []
budgets = {}
for s in doc["scenarios"]:
    label = f'{s["scenario"]}/{s["topology"]}/{s["protocol"]}'
    if not s.get("final_converged", True):
        fails.append(f"{label}: fabric did not re-converge")
    if s["protocol"] == "MR-MTP":
        if s.get("out_of_window_violations", 0) != 0:
            fails.append(f"{label}: auditor violations leaked outside the "
                         f"declared windows ({s['out_of_window_violations']})")
        if s.get("drain_violations", 0) != 0:
            fails.append(f"{label}: violations attributed to a draining "
                         f"router ({s['drain_violations']})")
    if s["scenario"] == "rolling_upgrade_all_spines":
        budgets[(s["topology"], s["protocol"])] = s["disruption_budget"]
    if s["scenario"] == "misconfig_duplicate_subnet":
        if s.get("duplicates_rejected", 0) < 1:
            fails.append(f"{label}: the duplicate rack subnet was not "
                         "rejected by any router")
        if s.get("sweep_violations", 1) != 0:
            fails.append(f"{label}: duplicate root leaked into other trees")
    if s["scenario"] == "misconfig_miswired_stripe":
        if s.get("miswired_links", 0) < 1:
            fails.append(f"{label}: the seeded miswiring vanished")
for topo in {t for (t, _) in budgets}:
    mtp, bgp = budgets.get((topo, "MR-MTP")), budgets.get((topo, "BGP/ECMP/BFD"))
    if mtp is None or bgp is None:
        fails.append(f"{topo}: missing a rolling-upgrade protocol row")
    elif mtp > bgp:
        fails.append(f"{topo}: MR-MTP disruption budget {mtp} exceeds "
                     f"BGP+BFD's {bgp}")
    else:
        print(f"  {topo}: disruption budget MR-MTP {mtp} <= BGP+BFD {bgp} ok")
if fails:
    for f in fails: print("FAIL:", f)
    sys.exit(1)
print("  zero out-of-window and zero drain violations for MR-MTP ok")
print("  misconfiguration suite contained ok")
EOF

  echo
  echo "== workload gate (bench_workload_sweep) =="
  # Pure simulated-time metrics: deterministic on any host, no perf retries.
  (cd build && ./bench/bench_workload_sweep > /dev/null)
  python3 - <<'EOF'
import json, sys
doc = json.load(open("build/BENCH_workload.json"))
points = doc["points"]
fails = []
def pick(**kv):
    for p in points:
        if all(p.get(k) == v for k, v in kv.items()):
            return p
    return None
for topo in ("8-PoD", "8-PoD-asym"):
    mtp = pick(topology=topo, protocol="MR-MTP", scenario="random_pairs",
               load=0.5, failure=True)
    bgp = pick(topology=topo, protocol="BGP/ECMP", scenario="random_pairs",
               load=0.5, failure=True)
    if mtp is None or bgp is None:
        fails.append(f"{topo}: missing the 50%-load failure rows")
        continue
    if not (mtp["initial_converged"] and bgp["initial_converged"]):
        fails.append(f"{topo}: fabric failed to converge before launch")
    if mtp["fct_p99_ms"] > bgp["fct_p99_ms"]:
        fails.append(f'{topo}: MR-MTP p99 FCT {mtp["fct_p99_ms"]:.1f} ms '
                     f'exceeds BGP/ECMP {bgp["fct_p99_ms"]:.1f} ms under '
                     "failure at 50% load")
    if mtp["flows_incomplete"] > bgp["flows_incomplete"]:
        fails.append(f'{topo}: MR-MTP strands {mtp["flows_incomplete"]} '
                     f'flows vs BGP/ECMP {bgp["flows_incomplete"]}')
    print(f'  {topo}: p99 FCT MR-MTP {mtp["fct_p99_ms"]:.1f} ms <= '
          f'BGP/ECMP {bgp["fct_p99_ms"]:.1f} ms, incomplete '
          f'{mtp["flows_incomplete"]} <= {bgp["flows_incomplete"]} ok')
for scenario in ("incast", "all_to_all"):
    row = pick(scenario=scenario, protocol="MR-MTP")
    if row is None or row["flows_completed"] < 1:
        fails.append(f"{scenario}: scenario row missing or completed no flows")
    else:
        print(f'  {scenario}: {row["flows_completed"]} flows completed ok')
if fails:
    for f in fails: print("FAIL:", f)
    sys.exit(1)
EOF

  echo
  echo "== buffer-occupancy gate (bench_buffer_occupancy) =="
  # Finite-buffer congestion containment, all simulated-time deterministic:
  # ECN+PFC must beat commodity tail-drop on p99 FCT and stranded flows at
  # the 64:1 incast, tail-drop must genuinely fill a pool (~100% occupancy)
  # while the control band stays lossless, and the auditor must report zero
  # PFC deadlocks on every point including the seeded chaos-squeeze row.
  (cd build && ./bench/bench_buffer_occupancy > /dev/null)
  python3 - <<'EOF'
import json, sys
doc = json.load(open("build/BENCH_buffer_occupancy.json"))
points = doc["points"]
fails = []
def pick(**kv):
    for p in points:
        if all(p.get(k) == v for k, v in kv.items()):
            return p
    return None
for proto in ("MR-MTP", "BGP/ECMP"):
    td = pick(protocol=proto, mode="taildrop", fanin=64, pool_kib=256)
    ecn = pick(protocol=proto, mode="ecn_pfc", fanin=64, pool_kib=256,
               chaos=False)
    if td is None or ecn is None:
        fails.append(f"{proto}: missing the 64:1 taildrop/ecn_pfc pair")
        continue
    if not (td["initial_converged"] and ecn["initial_converged"]):
        fails.append(f"{proto}: fabric failed to converge before launch")
    if ecn["fct_p99_ms"] > td["fct_p99_ms"]:
        fails.append(f'{proto}: ECN+PFC p99 FCT {ecn["fct_p99_ms"]:.1f} ms '
                     f'exceeds tail-drop {td["fct_p99_ms"]:.1f} ms at 64:1')
    if ecn["flows_incomplete"] > td["flows_incomplete"]:
        fails.append(f'{proto}: ECN+PFC strands {ecn["flows_incomplete"]} '
                     f'flows vs tail-drop {td["flows_incomplete"]}')
    # Congestion collapse must be reproduced, not dodged: the tail-drop pool
    # fills to within one max-size frame of 100% and refuses admissions...
    if td["occupancy_hw_ratio"] < 0.95:
        fails.append(f'{proto}: tail-drop occupancy high-water '
                     f'{td["occupancy_hw_ratio"]:.3f} never filled the pool')
    if td["buffer_drops"] < 1:
        fails.append(f"{proto}: tail-drop run shows no buffer drops")
    # ...and the relief valves actually engaged on the protected run.
    if ecn["ecn_marked"] < 1 or ecn["pause_tx"] < 1:
        fails.append(f"{proto}: ECN+PFC run shows no CE marks/PAUSE frames")
    print(f'  {proto}: p99 ECN+PFC {ecn["fct_p99_ms"]:.1f} ms <= tail-drop '
          f'{td["fct_p99_ms"]:.1f} ms, stranded {ecn["flows_incomplete"]} '
          f'<= {td["flows_incomplete"]}, tail-drop occ_hw '
          f'{td["occupancy_hw_ratio"]:.3f} ok')
for p in points:
    label = f'{p["protocol"]}/{p["mode"]}/{p["fanin"]}:1/{p["pool_kib"]}KiB'
    # Graceful degradation: control band is never pool-charged, so data
    # congestion — even a 100%-full pool — must never drop control frames.
    if p["ctrl_queue_drops"] != 0:
        fails.append(f'{label}: {p["ctrl_queue_drops"]} control-band drops')
    if p["pfc_deadlocks"] != 0:
        fails.append(f'{label}: auditor reports {p["pfc_deadlocks"]} PFC '
                     "deadlocks")
chaos = pick(chaos=True)
if chaos is None:
    fails.append("missing the seeded chaos-squeeze row")
else:
    print(f'  chaos row: {chaos["flows_completed"]} flows completed under '
          f'pool squeezes, {chaos["pfc_deadlocks"]} deadlocks ok')
print("  control band lossless and zero PFC deadlocks on all "
      f"{len(points)} points ok")
if fails:
    for f in fails: print("FAIL:", f)
    sys.exit(1)
EOF

  echo
  echo "== wcmp gate (bench_wcmp_sweep) =="
  # FCT/ordering checks are simulated-time deterministic; the events/sec
  # ratio compares the wcmp+flowlet run against the plain-hrw control from
  # the SAME bench process, so it survives throttled containers — but it
  # still jitters, so like the other perf gates it takes the best of up to
  # 3 runs.
  (cd build && ./bench/bench_wcmp_sweep > /dev/null)
  python3 - <<'EOF'
import json, sys
doc = json.load(open("build/BENCH_wcmp.json"))
points = doc["points"]
fails = []
def pick(**kv):
    for p in points:
        if all(p.get(k) == v for k, v in kv.items()):
            return p
    return None
for proto in ("MR-MTP", "BGP/ECMP"):
    rows = {m: pick(topology="8-PoD-asym-2:1", protocol=proto, path_select=m)
            for m in ("hrw", "wcmp", "wcmp+flowlet")}
    if any(r is None for r in rows.values()):
        fails.append(f"{proto}: missing asymmetric-fabric mode rows")
        continue
    if any(not r["initial_converged"] for r in rows.values()):
        fails.append(f"{proto}: fabric failed to converge before launch")
    hrw = rows["hrw"]
    # The tentpole claim: capacity-weighted hashing must not make the tail
    # worse on the fabric whose uplinks it was built for, and flowlets must
    # not strand flows the baseline delivered.
    for m in ("wcmp", "wcmp+flowlet"):
        if rows[m]["fct_p99_ms"] > hrw["fct_p99_ms"]:
            fails.append(f'{proto}/{m}: p99 FCT {rows[m]["fct_p99_ms"]:.1f} '
                         f'ms exceeds plain hrw {hrw["fct_p99_ms"]:.1f} ms '
                         "on the 2:1 oversubscribed fabric")
        if rows[m]["flows_incomplete"] > hrw["flows_incomplete"]:
            fails.append(f'{proto}/{m}: strands {rows[m]["flows_incomplete"]}'
                         f' flows vs hrw {hrw["flows_incomplete"]}')
    # Flowlet reordering guard: switching paths only across idle gaps must
    # keep the worst per-flow inter-arrival gap in the same regime as the
    # baseline (2x headroom for quantile noise), never blow it up.
    fl = rows["wcmp+flowlet"]
    if fl["max_gap_ms"] > max(2.0 * hrw["max_gap_ms"], 1.0):
        fails.append(f'{proto}/wcmp+flowlet: max_gap {fl["max_gap_ms"]:.1f} '
                     f'ms vs hrw {hrw["max_gap_ms"]:.1f} ms — rerouting '
                     "inside open flowlets")
    print(f'  asym {proto}: p99 hrw {hrw["fct_p99_ms"]:.1f} / wcmp '
          f'{rows["wcmp"]["fct_p99_ms"]:.1f} / +flowlet '
          f'{fl["fct_p99_ms"]:.1f} ms, stranded {hrw["flows_incomplete"]}/'
          f'{rows["wcmp"]["flows_incomplete"]}/{fl["flows_incomplete"]}, '
          f'reroutes {fl["flowlet_reroutes"]} ok')
    if fl["wcmp_weight_updates"] < 1:
        fails.append(f"{proto}: wcmp+flowlet run installed no weights — the "
                     "asymmetric stripe never reached the routers")
if fails:
    for f in fails: print("FAIL:", f)
    sys.exit(1)
EOF
  # Weighted picking is O(n) like the unweighted pick: the wcmp+flowlet run
  # must keep events/sec within 5% of the same-process hrw control.
  wgate() {  # wgate <path_select> -> events_per_sec of the MR-MTP asym row
    python3 - "$1" <<'EOF'
import json, sys
doc = json.load(open("build/BENCH_wcmp.json"))
for p in doc["points"]:
    if p["topology"] == "8-PoD-asym-2:1" and p["protocol"] == "MR-MTP" \
       and p["path_select"] == sys.argv[1]:
        print(p["events_per_sec"]); break
EOF
  }
  attempts=3
  for try in $(seq 1 "$attempts"); do
    ev_hrw="$(wgate hrw)"
    ev_fl="$(wgate "wcmp+flowlet")"
    if awk -v f="$ev_fl" -v h="$ev_hrw" 'BEGIN { exit !(f >= h * 0.95) }'; then
      break
    fi
    if [[ "$try" -eq "$attempts" ]]; then
      echo "FAIL: wcmp+flowlet steady state at $ev_fl events/sec — more" \
           "than 5% below the same-run hrw control ($ev_hrw) in" \
           "$attempts consecutive runs."
      exit 1
    fi
    echo "  retry $try/$attempts: ratio $ev_fl/$ev_hrw below 0.95," \
         "re-measuring"
    (cd build && ./bench/bench_wcmp_sweep > /dev/null)
  done
  echo "  events_per_sec wcmp+flowlet=$ev_fl vs hrw=$ev_hrw (>= 0.95) ok"

  echo
  echo "== campaign seeds stamped into every bench artifact =="
  for f in build/BENCH_*.json; do
    if ! grep -q '"campaign_seeds"' "$f"; then
      echo "FAIL: $f lacks the campaign_seeds stamp (bench_common.hpp" \
           "stamp_campaign was bypassed)."
      exit 1
    fi
    echo "  $(basename "$f") stamped ok"
  done

  echo
  echo "== asan-ubsan: whole tree instrumented (build-asan/) =="
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan -j "$jobs"
  ctest --preset asan-ubsan -j "$jobs"

  echo
  echo "== tsan: buffer + scheduler + parallel + lifecycle tests (build-tsan/) =="
  cmake --preset tsan
  cmake --build --preset tsan -j "$jobs" \
    --target buffer_test sim_test net_test util_test overload_damping_test \
             parallel_engine_test lifecycle_test \
             scheduler_property_test buffer_backpressure_test \
             wcmp_flowlet_test
  ctest --test-dir build-tsan \
    -R '^(buffer_test|sim_test|net_test|util_test|overload_damping_test|parallel_engine_test|lifecycle_test|scheduler_property_test|buffer_backpressure_test|wcmp_flowlet_test)$' \
    --output-on-failure -j "$jobs"
fi

echo
echo "All checks passed."
