#!/usr/bin/env sh
# Consolidated gate runner: clippy, tests, perf, mem, scale, tournament,
# explain, chaos — in that order, never aborting early, so one invocation
# reports every gate's status. Appends ONE coflow-ledger/1 verdict record
# carrying all eight statuses (gate `check-all`), prints a pass/fail
# summary table, and exits nonzero if any gate failed.
#
# Each individual gate script also appends its own verdict record via its
# EXIT trap, so the ledger shows both the fine-grained history and the
# consolidated roll-up.
#
# Optional regression diff against the last green ledger record:
#   CHECK_ALL_DIFF=1 scripts/check-all.sh          # diff green..latest
#   DIFF_TOLERANCE=0.2 CHECK_ALL_DIFF=1 scripts/check-all.sh
#
# Usage:
#   scripts/check-all.sh
set -u
cd "$(dirname "$0")/.."

CLIPPY=fail TESTS=fail PERF=fail MEM=fail SCALE=fail TOURNAMENT=fail EXPLAIN=fail CHAOS=fail

echo "=== clippy ==="
sh scripts/check-clippy.sh && CLIPPY=pass

# Every workspace target is compiled first — benches and the bench crate's
# integration tests included, which clippy's default targets skip. The
# scheduler, simulator and matching suites are deterministic, and so are
# the bench crate's integration tests (checkpoint and engine differentials,
# tournament ratios, the goldens); the workspace-wide suite waits on
# run-scoped obs metrics (the bench crate's global-registry unit tests are
# flaky under the parallel runner). The benchmark package (perfbench/, its
# own workspace) is built and unit-tested here too, so an engine API
# change that breaks its build fails this gate rather than the benchmark
# run.
echo ""
echo "=== tests ==="
cargo build --release --offline --workspace --all-targets \
    && cargo test --release --offline -q -p coflow -p coflow-netsim -p coflow-matching \
    && cargo test --release --offline -q -p coflow-bench --test '*' \
    && cargo test --release --offline --manifest-path perfbench/Cargo.toml \
    && TESTS=pass

echo ""
echo "=== perf ==="
sh scripts/check-perf.sh && PERF=pass

echo ""
echo "=== mem ==="
sh scripts/check-mem.sh && MEM=pass

echo ""
echo "=== scale ==="
sh scripts/check-scale.sh && SCALE=pass

echo ""
echo "=== tournament ==="
sh scripts/check-tournament.sh && TOURNAMENT=pass

echo ""
echo "=== explain ==="
sh scripts/check-explain.sh && EXPLAIN=pass

echo ""
echo "=== chaos ==="
sh scripts/check-chaos.sh && CHAOS=pass

OVERALL=pass
for s in "$CLIPPY" "$TESTS" "$PERF" "$MEM" "$SCALE" "$TOURNAMENT" "$EXPLAIN" "$CHAOS"; do
    [ "$s" = "pass" ] || OVERALL=fail
done

# One consolidated verdict record; best-effort like the per-gate traps.
cargo run --release -q -p coflow-bench --bin experiments -- \
    verdict --gate check-all --status "$OVERALL" \
    --verdict "clippy=$CLIPPY" --verdict "tests=$TESTS" --verdict "perf=$PERF" \
    --verdict "mem=$MEM" --verdict "scale=$SCALE" \
    --verdict "tournament=$TOURNAMENT" \
    --verdict "explain=$EXPLAIN" --verdict "chaos=$CHAOS" || true

echo ""
echo "gate      status"
echo "--------  ------"
printf '%-8s  %s\n' clippy "$CLIPPY"
printf '%-8s  %s\n' tests "$TESTS"
printf '%-8s  %s\n' perf "$PERF"
printf '%-8s  %s\n' mem "$MEM"
printf '%-8s  %s\n' scale "$SCALE"
printf '%-8s  %s\n' tournament "$TOURNAMENT"
printf '%-8s  %s\n' explain "$EXPLAIN"
printf '%-8s  %s\n' chaos "$CHAOS"
echo "--------  ------"
printf '%-8s  %s\n' overall "$OVERALL"

if [ "${CHECK_ALL_DIFF:-0}" = "1" ]; then
    echo ""
    echo "=== diff vs last green record ==="
    cargo run --release -q -p coflow-bench --bin experiments -- \
        diff green latest --tolerance "${DIFF_TOLERANCE:-0.5}" || OVERALL=fail
fi

[ "$OVERALL" = "pass" ]
