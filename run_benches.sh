#!/bin/bash
# Regenerate every figure/table of the paper's evaluation.
#
# The sweep fans simulations out across a task pool (see DESIGN.md
# §9): each bench takes --jobs N and full 64-thread runs are memoized
# in ocor_results.tsv (build directory), so the 25-benchmark sweep is
# simulated only once even across benches.
#
# Usage: ./run_benches.sh [options] [extra bench flags...]
#   --jobs N          worker threads per bench (default: $OCOR_JOBS,
#                     else the machine's hardware concurrency)
#   --quick           forward --quick to every simulation bench
#                     (16 threads, short runs; CI smoke mode)
#   --compare-serial  first run the sweep with --jobs 1 --fresh, then
#                     with --jobs N --fresh, and report the speedup
#   --compare-event   first run the sweep on the legacy per-cycle core
#                     (--legacy-tick --fresh), then on the event core
#                     (--fresh); each bench row in BENCH_sweep.json
#                     gains legacy_seconds / event_speedup
#   --observe         turn the observability stack on for the sweep
#                     (DESIGN.md §10): fig10 exports an event trace
#                     (build/trace.json), a stats-registry dump
#                     (build/stats.json) and interval telemetry
#                     (build/telemetry.csv); table3 reports worker-pool
#                     utilization, which is folded into
#                     build/BENCH_sweep.json
#   --resume          crash recovery (DESIGN.md §12): reuse the
#                     results journal from an interrupted sweep, so
#                     only configurations whose rows never became
#                     durable are re-simulated
#   --baseline FILE   after the sweep, diff build/BENCH_sweep.json
#                     against FILE (a previous sweep's JSON) with
#                     scripts/bench_compare.py; a wall-clock, status
#                     or COH regression fails the script (exit 1) and
#                     the comparison lands in build/bench_compare.json
#   anything else is forwarded verbatim to every simulation bench
#   (e.g. --iters 8 --seed 3), after the curated per-bench flags so
#   user flags win.
#
# Per-bench and total wall-clock times are printed and written as
# machine-readable JSON to build/BENCH_sweep.json, together with a
# per-bench status ("ok", "degraded" for exit 75, "failed").
#
# A failing benchmark no longer aborts the sweep: every bench runs,
# failures are summarized at the end, and the script exits 1 if any
# bench failed hard (or 75 if benches only degraded).
set -euo pipefail
SELF="$(readlink -f "$0")"
ORIG_PWD="$PWD"
cd "$(dirname "$SELF")/build"

JOBS="${OCOR_JOBS:-$(nproc)}"
QUICK=0
COMPARE_SERIAL=0
COMPARE_EVENT=0
OBSERVE=0
RESUME=0
BASELINE=""
EXTRA=()
while [ $# -gt 0 ]; do
    case "$1" in
      --jobs) JOBS="$2"; shift 2 ;;
      --jobs=*) JOBS="${1#--jobs=}"; shift ;;
      --quick) QUICK=1; shift ;;
      --compare-serial) COMPARE_SERIAL=1; shift ;;
      --compare-event) COMPARE_EVENT=1; shift ;;
      --observe) OBSERVE=1; shift ;;
      --resume) RESUME=1; shift ;;
      --baseline) BASELINE="$2"; shift 2 ;;
      --baseline=*) BASELINE="${1#--baseline=}"; shift ;;
      -h|--help)
        sed -n '2,42p' "$SELF" | sed 's/^# \{0,1\}//'
        exit 0 ;;
      *) EXTRA+=("$1"); shift ;;
    esac
done

if [ "$RESUME" -eq 1 ] \
   && { [ "$COMPARE_SERIAL" -eq 1 ] || [ "$COMPARE_EVENT" -eq 1 ]; }
then
    echo "error: --resume is mutually exclusive with the compare" \
         "modes (they force --fresh)" >&2
    exit 1
fi
if [ "$COMPARE_SERIAL" -eq 1 ] && [ "$COMPARE_EVENT" -eq 1 ]; then
    echo "error: pick one of --compare-serial / --compare-event" >&2
    exit 1
fi
if [ -n "$BASELINE" ]; then
    case "$BASELINE" in
      /*) ;;
      *) BASELINE="$ORIG_PWD/$BASELINE" ;;
    esac
    if [ ! -f "$BASELINE" ]; then
        echo "error: --baseline $BASELINE: no such file" >&2
        exit 1
    fi
fi
if [ "$RESUME" -eq 1 ]; then
    if [ -f ocor_results.tsv ]; then
        rows=$(grep -c -v '^#' ocor_results.tsv || true)
        echo "resume: $rows durable result row(s) in" \
             "ocor_results.tsv; matching configurations are" \
             "recalled, not re-simulated"
    else
        echo "resume: no ocor_results.tsv yet; running from scratch"
    fi
fi

# Curated observability flags (only with --observe). fig10 is the
# traced run; table3 owns the shared runner, so it reports the pool.
OBS_FIG10=()
OBS_TABLE3=()
if [ "$OBSERVE" -eq 1 ]; then
    OBS_FIG10=(--trace=lock,noc,sim --trace-out trace.json
               --trace-capacity 2097152
               --stats-json stats.json --telemetry-interval 200
               --telemetry-out telemetry.csv --coh-ledger
               --wake-profile)
    OBS_TABLE3=(--pool-util --stats-json runner_stats.json)
fi

SWEEP_JSON="BENCH_sweep.json"
# A stale COH summary from an earlier sweep must never be folded
# into this sweep's JSON (fig11 rewrites it on every run).
rm -f coh_summary.json
RECORD=1
ROWS=()
FAILED=()
DEGRADED=()
declare -A LEGACY_BY_BENCH  # per-bench legacy-core reference seconds

elapsed() { # elapsed <t0> <t1>
    awk -v a="$1" -v b="$2" 'BEGIN { printf "%.3f", b - a }'
}

run_bench() { # run_bench <label> <cmd...>
    local label="$1"
    shift
    echo
    echo "################ $label: $* ################"
    local t0 t1 dt status=0 verdict
    t0=$(date +%s.%N)
    "$@" || status=$?
    t1=$(date +%s.%N)
    dt=$(elapsed "$t0" "$t1")
    case "$status" in
      0)  verdict=ok ;;
      75) verdict=degraded
          DEGRADED+=("$label")
          echo "warning: $label completed degraded (exit 75)" >&2 ;;
      *)  verdict=failed
          FAILED+=("$label")
          echo "error: $label failed (exit $status): $*" >&2 ;;
    esac
    echo "### $label: ${dt}s ($verdict)"
    if [ "$RECORD" -eq 1 ]; then
        local extra_fields=""
        local leg="${LEGACY_BY_BENCH[$label]:-}"
        if [ -n "$leg" ]; then
            local sp
            sp=$(awk -v l="$leg" -v e="$dt" \
                'BEGIN { printf "%.2f", (e > 0 ? l / e : 0) }')
            extra_fields=", \"legacy_seconds\": $leg,"
            extra_fields+=" \"event_speedup\": $sp"
        fi
        ROWS+=("    {\"name\": \"$label\", \"seconds\": $dt,"\
" \"status\": \"$verdict\", \"exit_code\": $status$extra_fields}")
    elif [ "$COMPARE_EVENT" -eq 1 ]; then
        LEGACY_BY_BENCH[$label]="$dt"
    fi
}

sweep() { # sweep <jobs> [extra sim flags...]
    local jobs="$1"
    shift
    local sf=(--jobs "$jobs")
    if [ "$QUICK" -eq 1 ]; then
        sf+=(--quick)
    fi
    sf+=("$@")
    run_bench fig02_criticality \
        ./bench/fig02_criticality "${sf[@]}" "${EXTRA[@]}"
    # fig05/fig08 are fixed single-scenario illustrations: no flags.
    run_bench fig05_scenarios ./bench/fig05_scenarios
    run_bench fig08_scheduling ./bench/fig08_scheduling
    run_bench fig10_profile \
        ./bench/fig10_profile "${sf[@]}" "${OBS_FIG10[@]}" \
        "${EXTRA[@]}"
    run_bench fig11_coh \
        ./bench/fig11_coh "${sf[@]}" "${EXTRA[@]}"
    run_bench fig12_characteristics \
        ./bench/fig12_characteristics "${sf[@]}" "${EXTRA[@]}"
    run_bench fig13_cs_time \
        ./bench/fig13_cs_time "${sf[@]}" "${EXTRA[@]}"
    run_bench fig14_roi \
        ./bench/fig14_roi "${sf[@]}" "${EXTRA[@]}"
    run_bench fig15_scalability \
        ./bench/fig15_scalability "${sf[@]}" --iters 4 "${EXTRA[@]}"
    run_bench fig16_levels \
        ./bench/fig16_levels "${sf[@]}" --quick --iters 3 --ablate \
        "${EXTRA[@]}"
    run_bench table3_summary \
        ./bench/table3_summary "${sf[@]}" "${OBS_TABLE3[@]}" \
        "${EXTRA[@]}"
    run_bench micro_router \
        ./bench/micro_router --benchmark_min_time=0.05
    run_bench micro_sim_tick \
        ./bench/micro_sim_tick --benchmark_min_time=0.05
    run_bench micro_event_queue \
        ./bench/micro_event_queue --benchmark_min_time=0.05
}

SERIAL_SECONDS=null
if [ "$COMPARE_SERIAL" -eq 1 ]; then
    echo "==== serial reference pass: --jobs 1 --fresh ===="
    RECORD=0
    t0=$(date +%s.%N)
    sweep 1 --fresh
    t1=$(date +%s.%N)
    SERIAL_SECONDS=$(elapsed "$t0" "$t1")
    RECORD=1
    echo
    echo "==== parallel pass: --jobs $JOBS --fresh ===="
fi

LEGACY_SECONDS=null
if [ "$COMPARE_EVENT" -eq 1 ]; then
    echo "==== legacy-core reference pass: --legacy-tick --fresh ===="
    RECORD=0
    t0=$(date +%s.%N)
    sweep "$JOBS" --fresh --legacy-tick
    t1=$(date +%s.%N)
    LEGACY_SECONDS=$(elapsed "$t0" "$t1")
    RECORD=1
    echo
    echo "==== event-core pass: --jobs $JOBS --fresh ===="
fi

t0=$(date +%s.%N)
if [ "$COMPARE_SERIAL" -eq 1 ] || [ "$COMPARE_EVENT" -eq 1 ]; then
    sweep "$JOBS" --fresh
else
    sweep "$JOBS"
fi
t1=$(date +%s.%N)
TOTAL_SECONDS=$(elapsed "$t0" "$t1")

SPEEDUP=null
if [ "$COMPARE_SERIAL" -eq 1 ]; then
    SPEEDUP=$(awk -v s="$SERIAL_SECONDS" -v p="$TOTAL_SECONDS" \
        'BEGIN { printf "%.2f", s / p }')
fi

EVENT_SPEEDUP=null
if [ "$COMPARE_EVENT" -eq 1 ]; then
    EVENT_SPEEDUP=$(awk -v l="$LEGACY_SECONDS" -v e="$TOTAL_SECONDS" \
        'BEGIN { printf "%.2f", l / e }')
fi

{
    echo "{"
    echo "  \"jobs\": $JOBS,"
    if [ "$QUICK" -eq 1 ]; then
        echo "  \"quick\": true,"
    else
        echo "  \"quick\": false,"
    fi
    if [ "$RESUME" -eq 1 ]; then
        echo "  \"resume\": true,"
    else
        echo "  \"resume\": false,"
    fi
    echo "  \"benches\": ["
    last=$((${#ROWS[@]} - 1))
    for i in "${!ROWS[@]}"; do
        if [ "$i" -lt "$last" ]; then
            echo "${ROWS[$i]},"
        else
            echo "${ROWS[$i]}"
        fi
    done
    echo "  ],"
    echo "  \"failed\": ${#FAILED[@]},"
    echo "  \"degraded\": ${#DEGRADED[@]},"
    echo "  \"total_seconds\": $TOTAL_SECONDS,"
    echo "  \"serial_total_seconds\": $SERIAL_SECONDS,"
    echo "  \"speedup\": $SPEEDUP,"
    echo "  \"legacy_total_seconds\": $LEGACY_SECONDS,"
    echo "  \"event_speedup\": $EVENT_SPEEDUP"
    echo "}"
} > "$SWEEP_JSON"

# Fold the table3 runner's pool stats (worker-pool utilization over
# the table3 leg) into the sweep JSON, keyed "pool".
if [ "$OBSERVE" -eq 1 ] && command -v python3 > /dev/null; then
    python3 - "$SWEEP_JSON" runner_stats.json <<'PYEOF'
import json
import sys

sweep_path, stats_path = sys.argv[1], sys.argv[2]
with open(sweep_path) as f:
    sweep = json.load(f)
with open(stats_path) as f:
    stats = json.load(f)

size = stats.get("runner.pool.size", 0)
busy = stats.get("runner.pool.busy_ns_total", 0) * 1e-9
table3 = next((b["seconds"] for b in sweep["benches"]
               if b["name"] == "table3_summary"), None)
util = busy / (table3 * size) if table3 and size else None
sweep["pool"] = {
    "size": size,
    "runs": stats.get("runner.runs"),
    "busy_seconds": round(busy, 3),
    "run_seconds_mean": stats.get("runner.run_seconds_mean"),
    "run_seconds_max": stats.get("runner.run_seconds_max"),
    "table3_utilization":
        round(util, 3) if util is not None else None,
}
with open(sweep_path, "w") as f:
    json.dump(sweep, f, indent=2)
    f.write("\n")
print("pool utilization folded into", sweep_path)
PYEOF
fi

# Fold fig11's COH summary into the sweep JSON, keyed "coh", so a
# baseline comparison covers result quality as well as wall clock.
if [ -f coh_summary.json ] && command -v python3 > /dev/null; then
    python3 - "$SWEEP_JSON" coh_summary.json <<'PYEOF'
import json
import sys

sweep_path, coh_path = sys.argv[1], sys.argv[2]
with open(sweep_path) as f:
    sweep = json.load(f)
with open(coh_path) as f:
    sweep["coh"] = json.load(f)
with open(sweep_path, "w") as f:
    json.dump(sweep, f, indent=2)
    f.write("\n")
print("COH summary folded into", sweep_path)
PYEOF
fi

# Extra bench_compare.py flags (e.g. looser wall-clock thresholds on
# shared CI runners) come from $OCOR_BENCH_COMPARE_FLAGS.
COMPARE_STATUS=0
if [ -n "$BASELINE" ]; then
    echo
    # shellcheck disable=SC2086  # the flags variable is a word list
    python3 "$(dirname "$SELF")/scripts/bench_compare.py" \
        "$BASELINE" "$SWEEP_JSON" --out bench_compare.json \
        ${OCOR_BENCH_COMPARE_FLAGS:-} \
        || COMPARE_STATUS=$?
fi

echo
echo "sweep finished in ${TOTAL_SECONDS}s" \
     "(jobs=$JOBS; timings: build/$SWEEP_JSON)"
if [ "$COMPARE_SERIAL" -eq 1 ]; then
    echo "serial reference: ${SERIAL_SECONDS}s -> speedup ${SPEEDUP}x"
fi
if [ "$COMPARE_EVENT" -eq 1 ]; then
    echo "legacy-core reference: ${LEGACY_SECONDS}s ->" \
         "event-core speedup ${EVENT_SPEEDUP}x"
fi
if [ "${#FAILED[@]}" -gt 0 ]; then
    echo "failed benches: ${FAILED[*]}" >&2
    exit 1
fi
if [ "$COMPARE_STATUS" -ne 0 ]; then
    echo "baseline comparison regressed" \
         "(details: build/bench_compare.json)" >&2
    exit 1
fi
if [ "${#DEGRADED[@]}" -gt 0 ]; then
    echo "degraded benches: ${DEGRADED[*]}" >&2
    exit 75
fi
echo "all benchmarks completed cleanly"
