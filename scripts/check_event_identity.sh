#!/bin/bash
# Bit-identity smoke for the event-driven simulation core
# (DESIGN.md §13): run two full-suite figure benches once on the
# legacy per-cycle core and once on the event core — with
# fresh caches — and require byte-identical stdout. The figures print
# every headline metric (COH reduction, spin-win rates, CS shares)
# across all 25 profiles, so a single cycle of divergence anywhere in
# the 50 underlying simulations shows up as a diff.
#
# Usage: check_event_identity.sh [build-dir] [extra bench flags...]
#   (default build dir: ../build relative to this script)
set -euo pipefail

BUILD="$(dirname "$(readlink -f "$0")")/../build"
if [ $# -gt 0 ] && [ -d "$1" ]; then
    BUILD="$1"
    shift
fi
cd "$BUILD"

FLAGS=(--quick --iters 2 --jobs "${OCOR_JOBS:-$(nproc)}" --fresh "$@")

status=0
for bench in fig11_coh fig13_cs_time; do
    echo "== $bench: legacy core vs event core =="
    # --legacy-tick wins over any OCOR_SIM_CORE in the environment;
    # the event run pins the env var so an inherited "legacy" cannot
    # turn the comparison into legacy-vs-legacy.
    ./bench/"$bench" "${FLAGS[@]}" --legacy-tick \
        > "event_identity_${bench}_legacy.out"
    OCOR_SIM_CORE=event ./bench/"$bench" "${FLAGS[@]}" \
        > "event_identity_${bench}_event.out"
    if diff -u "event_identity_${bench}_legacy.out" \
              "event_identity_${bench}_event.out"; then
        echo "identical ($(wc -l \
            < "event_identity_${bench}_event.out") lines)"
    else
        echo "error: $bench stdout differs between cores" >&2
        status=1
    fi
done

if [ "$status" -eq 0 ]; then
    echo "event core is bit-identical to the legacy core on both" \
         "figures"
fi
exit "$status"
