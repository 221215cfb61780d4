#!/usr/bin/env bash
# Bench-output determinism check: every deterministic bench binary must
# produce byte-identical stdout to its golden under bench/goldens/.
# Catches any change to simulation results — above all a dispatch-order
# change in the event-queue core (whose own dispatch checksums are pinned
# by tests/test_event_queue.cpp). See bench/goldens/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
BENCH_DIR="$BUILD_DIR/bench"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail=0
for golden in bench/goldens/*.txt; do
    name="$(basename "$golden" .txt)"
    case "$name" in
        chaos_campaign.golden) continue ;;
        governor_campaign.golden) continue ;;
        fleet_campaign.golden) continue ;;
        dvsync_inspect.golden) continue ;;
        megafleet_campaign.golden) continue ;;
        megafleet_observatory.golden) continue ;;
        trace_campaign.golden) continue ;;
    esac
    bin="$BENCH_DIR/$name"
    if [[ ! -x "$bin" ]]; then
        echo "MISSING  $name (build it first: cmake --build $BUILD_DIR)"
        fail=1
        continue
    fi
    "$bin" > "$TMP/$name.txt" 2>&1
    if cmp -s "$golden" "$TMP/$name.txt"; then
        echo "OK       $name"
    else
        echo "DIFF     $name"
        diff "$golden" "$TMP/$name.txt" | head -20 || true
        fail=1
    fi
done

# chaos_campaign: the bare binary runs the full 50-seed campaign, so the
# golden pins the deterministic --golden replay (seed-1 fault plans plus
# per-run reports for every mix/mode cell) instead. The same invocation
# writes the canonical forensics dump, checked through dvsync_inspect
# below (dump-written note goes to stderr, not the golden).
"$BENCH_DIR/chaos_campaign" --golden --jobs=1 \
    --forensics="$TMP/chaos_forensics.json" \
    > "$TMP/chaos_campaign.golden.txt" 2>/dev/null
if cmp -s bench/goldens/chaos_campaign.golden.txt \
          "$TMP/chaos_campaign.golden.txt"; then
    echo "OK       chaos_campaign (golden replay)"
else
    echo "DIFF     chaos_campaign (golden replay)"
    diff bench/goldens/chaos_campaign.golden.txt \
         "$TMP/chaos_campaign.golden.txt" | head -20 || true
    fail=1
fi

# dvsync_inspect: the forensics summary over the chaos specimen dump is
# fully deterministic — header, cause breakdown, worst frames, causal
# chains. Pinning it catches drifts in classification, span extraction,
# and the dump schema in one shot. Nonzero exit (unknown-cause drops,
# unparseable dump) fails the check even if the text matches.
if "$BENCH_DIR/dvsync_inspect" "$TMP/chaos_forensics.json" --golden \
    > "$TMP/dvsync_inspect.golden.txt" 2>&1 \
    && cmp -s bench/goldens/dvsync_inspect.golden.txt \
              "$TMP/dvsync_inspect.golden.txt"; then
    echo "OK       dvsync_inspect (forensics summary)"
else
    echo "DIFF     dvsync_inspect (forensics summary)"
    diff bench/goldens/dvsync_inspect.golden.txt \
         "$TMP/dvsync_inspect.golden.txt" | head -20 || true
    fail=1
fi

# governor_campaign: the bare binary runs the full multi-seed sweep, so
# the golden pins the deterministic --golden replay (seed-1 reports for
# every tier/envelope/policy cell plus the frontier table). The replay
# also enforces the campaign acceptance bar — zero violations, every
# drop attributed, governor winning a constrained envelope — so a
# nonzero exit fails the check even if the text matches.
if "$BENCH_DIR/governor_campaign" --golden --jobs=1 2>/dev/null \
    > "$TMP/governor_campaign.golden.txt" \
    && cmp -s bench/goldens/governor_campaign.golden.txt \
              "$TMP/governor_campaign.golden.txt"; then
    echo "OK       governor_campaign (golden replay)"
else
    echo "DIFF     governor_campaign (golden replay)"
    diff bench/goldens/governor_campaign.golden.txt \
         "$TMP/governor_campaign.golden.txt" | head -20 || true
    fail=1
fi

# fleet_campaign: the bare binary runs the full multi-surface sweep with
# wall-clock throughput in its output, so the golden pins the
# deterministic --golden replay (seed-1 per-session reports for every
# count/budget/policy cell) instead.
"$BENCH_DIR/fleet_campaign" --golden --jobs=1 \
    > "$TMP/fleet_campaign.golden.txt" 2>&1
if cmp -s bench/goldens/fleet_campaign.golden.txt \
          "$TMP/fleet_campaign.golden.txt"; then
    echo "OK       fleet_campaign (golden replay)"
else
    echo "DIFF     fleet_campaign (golden replay)"
    diff bench/goldens/fleet_campaign.golden.txt \
         "$TMP/fleet_campaign.golden.txt" | head -20 || true
    fail=1
fi

# megafleet_campaign: the bare binary runs a million sessions with
# timing and RSS in its output, so the golden pins the deterministic
# --golden replay (240-session fleet summary, byte-stable at any
# --jobs) instead.
"$BENCH_DIR/megafleet_campaign" --golden \
    > "$TMP/megafleet_campaign.golden.txt" 2>&1
if cmp -s bench/goldens/megafleet_campaign.golden.txt \
          "$TMP/megafleet_campaign.golden.txt"; then
    echo "OK       megafleet_campaign (golden replay)"
else
    echo "DIFF     megafleet_campaign (golden replay)"
    diff bench/goldens/megafleet_campaign.golden.txt \
         "$TMP/megafleet_campaign.golden.txt" | head -20 || true
    fail=1
fi

# megafleet observatory: the same golden replay with the SLO/anomaly
# monitor on appends the observatory roll-up (burn-rates, per-cohort
# table, top-K offenders) to the fleet summary. Pinning it catches
# drifts in SLO evaluation, anomaly scoring, and the top-K ranking in
# one shot; byte-stable at any --jobs like the plain golden.
"$BENCH_DIR/megafleet_campaign" --golden --observatory \
    > "$TMP/megafleet_observatory.golden.txt" 2>&1
if cmp -s bench/goldens/megafleet_observatory.golden.txt \
          "$TMP/megafleet_observatory.golden.txt"; then
    echo "OK       megafleet_campaign (observatory golden)"
else
    echo "DIFF     megafleet_campaign (observatory golden)"
    diff bench/goldens/megafleet_observatory.golden.txt \
         "$TMP/megafleet_observatory.golden.txt" | head -20 || true
    fail=1
fi

# trace_campaign: replays the committed traces/ corpus under both pacing
# modes; --golden pins the per-entry table plus the full per-entry
# replay dumps (reports, dispatch hashes, lineage). The replay also
# enforces the bit-exact contract and the acceptance bar, so a nonzero
# exit fails the check even if the text matches. Byte-stable at any
# --jobs (checked separately in scripts/ci.sh).
if "$BENCH_DIR/trace_campaign" --golden --jobs=1 2>/dev/null \
    > "$TMP/trace_campaign.golden.txt" \
    && cmp -s bench/goldens/trace_campaign.golden.txt \
              "$TMP/trace_campaign.golden.txt"; then
    echo "OK       trace_campaign (corpus replay)"
else
    echo "DIFF     trace_campaign (corpus replay)"
    diff bench/goldens/trace_campaign.golden.txt \
         "$TMP/trace_campaign.golden.txt" | head -20 || true
    fail=1
fi

if [[ "$fail" -ne 0 ]]; then
    echo
    echo "Golden mismatch. If the output change is intentional, regenerate"
    echo "the golden and explain the diff in the commit message"
    echo "(see bench/goldens/README.md)."
    exit 1
fi
echo "All bench goldens match."
