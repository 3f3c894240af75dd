#!/bin/sh
# check_bench_regression.sh - CI gate over the checked-in perf baseline.
#
# Runs the fast micro_dbt subset into a scratch BENCH_perf.json and compares
# it against the checked-in baseline with cfed-stat bench-diff. Exits 1 when
# any comparable metric (wall time, slowdown, overhead, hit rate) regresses
# by more than the threshold percentage.
#
# usage: tools/check_bench_regression.sh [BUILD_DIR] [BASELINE]
#   BUILD_DIR  cmake build tree holding bench/micro_dbt and tools/cfed-stat
#              (default: build)
#   BASELINE   baseline perf JSON (default: BENCH_perf.json)
# environment:
#   CFED_BENCH_THRESHOLD    regression threshold in percent (default: 10)
#   CFED_SCRUB_OVERHEAD_MAX absolute ceiling on the self-integrity
#                           scrub_overhead ratio measured by micro_dbt's
#                           reference run (default: 0.15, i.e. 15%). An
#                           absolute gate, not a baseline diff: the
#                           scrubbing cadence is fixed, so its cost
#                           budget is documented here rather than
#                           ratcheted from a checked-in number.
#   CFED_EXPORT_OVERHEAD_MAX absolute ceiling on the live-exporter
#                           live_export_overhead ratio measured by
#                           micro_dbt's reference run (default: 0.15).
#                           Same absolute-gate rationale as the scrub
#                           ceiling: the 5 ms publish cadence is fixed,
#                           so the budget lives here, not in the
#                           baseline.
#   CFED_DIGEST_OVERHEAD_MAX absolute ceiling on the golden-trace
#                           digest_overhead ratio measured by micro_dbt's
#                           reference run (default: 0.15). Same
#                           absolute-gate rationale as the scrub ceiling:
#                           the per-sub-block capture cost is a design
#                           budget, not a ratcheted baseline number.
#   CFED_SHADOWSTACK_OVERHEAD_MAX absolute ceiling on the shadow
#                           return stack's shadow_stack_overhead ratio
#                           measured by micro_dbt's reference run on the
#                           call-heavy workload (default: 0.15). Same
#                           absolute-gate rationale: a push per call and
#                           a check per ret is a fixed design budget.
#   CFED_GEOMEAN_MAX        absolute ceiling on the Section 6 geomean
#                           DBT slowdown with the optimizing trace tier
#                           on (sec6_dbt_overhead.geomean_slowdown_opt in
#                           the checked-in baseline; default: 1.08 — the
#                           opt tier must stay measurably below the
#                           ~1.09 base-tier geomean). Read from the
#                           baseline because the sec6 sweep is too slow
#                           for this fast gate; regenerating the
#                           baseline re-arms it.

set -eu

BUILD=${1:-build}
BASELINE=${2:-BENCH_perf.json}
THRESHOLD=${CFED_BENCH_THRESHOLD:-10}
SCRUB_MAX=${CFED_SCRUB_OVERHEAD_MAX:-0.15}
EXPORT_MAX=${CFED_EXPORT_OVERHEAD_MAX:-0.15}
DIGEST_MAX=${CFED_DIGEST_OVERHEAD_MAX:-0.15}
SHADOW_MAX=${CFED_SHADOWSTACK_OVERHEAD_MAX:-0.15}
GEOMEAN_MAX=${CFED_GEOMEAN_MAX:-1.08}

if [ ! -x "$BUILD/bench/micro_dbt" ] || [ ! -x "$BUILD/tools/cfed-stat" ] \
   || [ ! -x "$BUILD/tools/cfed-run" ]; then
  echo "check_bench_regression: build '$BUILD' is missing bench/micro_dbt," \
       "tools/cfed-stat or tools/cfed-run (build the project first)" >&2
  exit 2
fi
if [ ! -f "$BASELINE" ]; then
  echo "check_bench_regression: baseline '$BASELINE' not found" >&2
  exit 2
fi

FRESH=$(mktemp)
CAMP=$(mktemp -d)
trap 'rm -f "$FRESH"; rm -rf "$CAMP"' EXIT INT TERM

# --- Sharded-campaign smoke -------------------------------------------------
# A 2-shard campaign engine run (different job counts per shard) merged by
# `cfed-stat merge` must reproduce the unsharded reference exactly: the
# merged campaign-summary line is compared verbatim. Catches any drift in
# the deterministic plan partitioning or the shard-result fold.
cat > "$CAMP/smoke.s" <<'EOF'
main:
movi r5, 5
outer:
movi r1, 12
inner:
addi r1, r1, -1
jcc ne, inner
addi r5, r5, -1
jcc ne, outer
movi r2, 1
cmpi r2, 2
jcc eq, dead
halt
dead:
movi r3, 9
halt
EOF

"$BUILD/tools/cfed-run" --tech=edgcf --campaign=40 --seed=7 --jobs=2 \
  --campaign-out="$CAMP/ref.json" "$CAMP/smoke.s" >/dev/null
for K in 0 1; do
  "$BUILD/tools/cfed-run" --tech=edgcf --campaign=40 --seed=7 \
    --jobs=$((K + 1)) --campaign-shard=$K/2 \
    --live-export="$CAMP/shard$K.live.json" \
    --campaign-out="$CAMP/shard$K.json" "$CAMP/smoke.s" >/dev/null
done
REF_SUM=$("$BUILD/tools/cfed-stat" merge "$CAMP/ref.json" \
          | grep '^campaign-summary:')
MERGED_SUM=$("$BUILD/tools/cfed-stat" merge "$CAMP/shard0.json" \
             "$CAMP/shard1.json" -o "$CAMP/merged.json" \
             | grep '^campaign-summary:')
if [ "$REF_SUM" != "$MERGED_SUM" ]; then
  echo "check_bench_regression: sharded campaign merge diverged from the" \
       "unsharded reference" >&2
  echo "  unsharded: $REF_SUM" >&2
  echo "  merged:    $MERGED_SUM" >&2
  exit 1
fi
echo "sharded campaign merge matches unsharded reference"
echo "  $MERGED_SUM"
# The shards leave their final live snapshots behind; the one-shot tail
# view must render them, and merge must refuse them as inputs.
"$BUILD/tools/cfed-stat" tail "$CAMP/shard0.live.json" \
  "$CAMP/shard1.live.json" >/dev/null
if "$BUILD/tools/cfed-stat" merge "$CAMP/shard0.live.json" \
     >/dev/null 2>&1; then
  echo "check_bench_regression: cfed-stat merge accepted a live snapshot" >&2
  exit 1
fi
echo "cfed-stat tail renders shard live snapshots; merge refuses them"

# --- Sharded recovery-campaign smoke ----------------------------------------
# The same comparison with every injection under checkpoint/rollback
# recovery: the recovery plan hash, the Recovered/RecoveryFailed tallies
# and the "recovery" result marker must survive the shard split, and the
# merged campaign-summary (recovered=/rec_fail= included) must equal the
# unsharded reference verbatim.
"$BUILD/tools/cfed-run" --tech=edgcf --campaign=40 --seed=7 --jobs=2 \
  --recover --campaign-out="$CAMP/recref.json" "$CAMP/smoke.s" >/dev/null
for K in 0 1; do
  "$BUILD/tools/cfed-run" --tech=edgcf --campaign=40 --seed=7 \
    --jobs=$((K + 1)) --campaign-shard=$K/2 --recover \
    --campaign-out="$CAMP/recshard$K.json" "$CAMP/smoke.s" >/dev/null
done
REC_REF=$("$BUILD/tools/cfed-stat" merge "$CAMP/recref.json" \
          | grep '^campaign-summary:')
REC_MERGED=$("$BUILD/tools/cfed-stat" merge "$CAMP/recshard0.json" \
             "$CAMP/recshard1.json" | grep '^campaign-summary:')
if [ "$REC_REF" != "$REC_MERGED" ]; then
  echo "check_bench_regression: sharded recovery campaign merge diverged" \
       "from the unsharded reference" >&2
  echo "  unsharded: $REC_REF" >&2
  echo "  merged:    $REC_MERGED" >&2
  exit 1
fi
echo "sharded recovery campaign merge matches unsharded reference"
echo "  $REC_MERGED"

# --- Forked recovery-campaign smoke -----------------------------------------
# On a real workload the recovery injections fork the plan's recovery
# snapshots and stop where they rejoin the golden run; the result file must
# not depend on how many workers fork a snapshot at once.
for J in 1 4; do
  "$BUILD/tools/cfed-run" --tech=edgcf --campaign=40 --seed=7 --jobs=$J \
    --recover --campaign-out="$CAMP/recfork$J.json" 186.crafty >/dev/null
done
if ! cmp -s "$CAMP/recfork1.json" "$CAMP/recfork4.json"; then
  echo "check_bench_regression: forked recovery campaign on 186.crafty" \
       "differs between --jobs=1 and --jobs=4" >&2
  exit 1
fi
echo "forked recovery campaign on 186.crafty matches across job counts"

# --- Sharded propagation-tally smoke ----------------------------------------
# The same 2-shard/unsharded comparison with fault-propagation tracking
# on: every injection replays against the campaign's golden digest trace
# and lands in exactly one divergence->outcome class, and the merged
# prop-summary line must reproduce the unsharded reference verbatim.
# Catches drift in the per-shard propagation tallies or their fold.
"$BUILD/tools/cfed-run" --tech=edgcf --campaign=40 --seed=7 --jobs=2 \
  --prop-trace --campaign-out="$CAMP/propref.json" "$CAMP/smoke.s" >/dev/null
for K in 0 1; do
  "$BUILD/tools/cfed-run" --tech=edgcf --campaign=40 --seed=7 \
    --jobs=$((K + 1)) --campaign-shard=$K/2 --prop-trace \
    --campaign-out="$CAMP/propshard$K.json" "$CAMP/smoke.s" >/dev/null
done
PROP_REF=$("$BUILD/tools/cfed-stat" merge "$CAMP/propref.json" \
           | grep '^prop-summary:')
PROP_MERGED=$("$BUILD/tools/cfed-stat" merge "$CAMP/propshard0.json" \
              "$CAMP/propshard1.json" | grep '^prop-summary:')
if [ -z "$PROP_REF" ]; then
  echo "check_bench_regression: propagation-enabled campaign produced no" \
       "prop-summary line" >&2
  exit 1
fi
if [ "$PROP_REF" != "$PROP_MERGED" ]; then
  echo "check_bench_regression: sharded propagation tallies diverged from" \
       "the unsharded reference" >&2
  echo "  unsharded: $PROP_REF" >&2
  echo "  merged:    $PROP_MERGED" >&2
  exit 1
fi
echo "sharded propagation tallies match unsharded reference"
echo "  $PROP_MERGED"

# --- Adversarial attack-campaign smoke ---------------------------------------
# The same 2-shard/unsharded comparison for the attack engine on the
# call-heavy workload: the merged precision-summary line must reproduce
# the unsharded reference verbatim for mixed per-shard job counts.
# Catches drift in the attack plan partitioning or the precision fold.
"$BUILD/tools/cfed-run" --tech=edgcf --campaign-attack=40 --seed=7 \
  --jobs=2 --campaign-out="$CAMP/attackref.json" 186.crafty >/dev/null
for K in 0 1; do
  "$BUILD/tools/cfed-run" --tech=edgcf --campaign-attack=40 --seed=7 \
    --jobs=$((K + 1)) --campaign-shard=$K/2 \
    --campaign-out="$CAMP/attackshard$K.json" 186.crafty >/dev/null
done
ATTACK_REF=$("$BUILD/tools/cfed-stat" merge "$CAMP/attackref.json" \
             | grep '^precision-summary:')
ATTACK_MERGED=$("$BUILD/tools/cfed-stat" merge "$CAMP/attackshard0.json" \
                "$CAMP/attackshard1.json" | grep '^precision-summary:')
if [ -z "$ATTACK_REF" ]; then
  echo "check_bench_regression: attack campaign produced no" \
       "precision-summary line" >&2
  exit 1
fi
if [ "$ATTACK_REF" != "$ATTACK_MERGED" ]; then
  echo "check_bench_regression: sharded attack campaign diverged from the" \
       "unsharded reference" >&2
  echo "  unsharded: $ATTACK_REF" >&2
  echo "  merged:    $ATTACK_MERGED" >&2
  exit 1
fi
echo "sharded attack campaign merge matches unsharded reference"
echo "  $ATTACK_MERGED"

# The assurance configuration (shadow return stack + per-dispatch code
# scrubbing and dispatch verification) must leave nothing undetected:
# the shadow stack catches every forged return the signatures accept,
# and the self-integrity layer catches the code patches.
ASSURED=$("$BUILD/tools/cfed-run" --tech=edgcf --shadow-stack --scrub=1 \
          --verify-dispatch=1 --campaign-attack=40 --seed=7 --jobs=2 \
          186.crafty | grep '^precision-summary:')
case "$ASSURED" in
  *" undetected=0 "*) ;;
  *)
    echo "check_bench_regression: assurance config (shadow stack +" \
         "scrub/verify) left attacks undetected" >&2
    echo "  $ASSURED" >&2
    exit 1
    ;;
esac
echo "assurance config detects every attack (shadow stack + integrity)"
echo "  $ASSURED"
# ----------------------------------------------------------------------------

# The fast deterministic subset; the publishing code derives hit rates and
# the scrub overhead from its own reference runs, so the filter does not
# zero them out.
CFED_PERF_JSON=$FRESH "$BUILD/bench/micro_dbt" \
  --benchmark_filter='BM_EncodeDecode|BM_PredecodedFetch' >/dev/null

# Absolute gate on the self-integrity scrubbing cost (see
# CFED_SCRUB_OVERHEAD_MAX above). scrub_overhead is deliberately NOT in
# the checked-in baseline, so the relative bench-diff below never sees it.
SCRUB=$(sed -n 's/.*"scrub_overhead": *\([0-9.eE+-]*\).*/\1/p' "$FRESH" \
        | head -n 1)
if [ -n "$SCRUB" ]; then
  if awk -v s="$SCRUB" -v max="$SCRUB_MAX" 'BEGIN { exit !(s > max) }'; then
    echo "check_bench_regression: scrub_overhead $SCRUB exceeds" \
         "CFED_SCRUB_OVERHEAD_MAX=$SCRUB_MAX" >&2
    exit 1
  fi
  echo "scrub_overhead $SCRUB within CFED_SCRUB_OVERHEAD_MAX=$SCRUB_MAX"
else
  echo "check_bench_regression: no scrub_overhead in fresh run" >&2
  exit 2
fi

# Absolute gate on the active live-exporter cost (see
# CFED_EXPORT_OVERHEAD_MAX above). Like scrub_overhead, deliberately NOT
# in the checked-in baseline.
EXPORT=$(sed -n 's/.*"live_export_overhead": *\([0-9.eE+-]*\).*/\1/p' \
         "$FRESH" | head -n 1)
if [ -n "$EXPORT" ]; then
  if awk -v e="$EXPORT" -v max="$EXPORT_MAX" 'BEGIN { exit !(e > max) }'
  then
    echo "check_bench_regression: live_export_overhead $EXPORT exceeds" \
         "CFED_EXPORT_OVERHEAD_MAX=$EXPORT_MAX" >&2
    exit 1
  fi
  echo "live_export_overhead $EXPORT within CFED_EXPORT_OVERHEAD_MAX=$EXPORT_MAX"
else
  echo "check_bench_regression: no live_export_overhead in fresh run" >&2
  exit 2
fi

# Absolute gate on golden-trace digest capture (see
# CFED_DIGEST_OVERHEAD_MAX above). Like scrub_overhead, deliberately NOT
# in the checked-in baseline.
DIGEST=$(sed -n 's/.*"digest_overhead": *\([0-9.eE+-]*\).*/\1/p' \
         "$FRESH" | head -n 1)
if [ -n "$DIGEST" ]; then
  if awk -v d="$DIGEST" -v max="$DIGEST_MAX" 'BEGIN { exit !(d > max) }'
  then
    echo "check_bench_regression: digest_overhead $DIGEST exceeds" \
         "CFED_DIGEST_OVERHEAD_MAX=$DIGEST_MAX" >&2
    exit 1
  fi
  echo "digest_overhead $DIGEST within CFED_DIGEST_OVERHEAD_MAX=$DIGEST_MAX"
else
  echo "check_bench_regression: no digest_overhead in fresh run" >&2
  exit 2
fi

# Absolute gate on the shadow return stack (see
# CFED_SHADOWSTACK_OVERHEAD_MAX above). Like scrub_overhead, deliberately
# NOT in the checked-in baseline.
SHADOW=$(sed -n 's/.*"shadow_stack_overhead": *\([0-9.eE+-]*\).*/\1/p' \
         "$FRESH" | head -n 1)
if [ -n "$SHADOW" ]; then
  if awk -v s="$SHADOW" -v max="$SHADOW_MAX" 'BEGIN { exit !(s > max) }'
  then
    echo "check_bench_regression: shadow_stack_overhead $SHADOW exceeds" \
         "CFED_SHADOWSTACK_OVERHEAD_MAX=$SHADOW_MAX" >&2
    exit 1
  fi
  echo "shadow_stack_overhead $SHADOW within CFED_SHADOWSTACK_OVERHEAD_MAX=$SHADOW_MAX"
else
  echo "check_bench_regression: no shadow_stack_overhead in fresh run" >&2
  exit 2
fi

# Absolute gate on the optimizing tier's headline number: the Section 6
# geomean slowdown with traces on, from the checked-in baseline.
GEOMEAN=$(grep '"sec6_dbt_overhead"' "$BASELINE" \
          | sed -n 's/.*"geomean_slowdown_opt": *\([0-9.eE+-]*\).*/\1/p' \
          | head -n 1)
if [ -n "$GEOMEAN" ]; then
  if awk -v g="$GEOMEAN" -v max="$GEOMEAN_MAX" 'BEGIN { exit !(g > max) }'
  then
    echo "check_bench_regression: opt-tier geomean slowdown $GEOMEAN" \
         "exceeds CFED_GEOMEAN_MAX=$GEOMEAN_MAX" >&2
    exit 1
  fi
  echo "opt-tier geomean slowdown $GEOMEAN within CFED_GEOMEAN_MAX=$GEOMEAN_MAX"
else
  echo "check_bench_regression: baseline has no" \
       "sec6_dbt_overhead.geomean_slowdown_opt (regenerate BENCH_perf.json" \
       "with bench/sec6_dbt_overhead)" >&2
  exit 2
fi

exec "$BUILD/tools/cfed-stat" bench-diff "$BASELINE" "$FRESH" \
  --threshold "$THRESHOLD"
