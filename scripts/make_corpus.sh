#!/usr/bin/env bash
# Regenerate the versioned trace corpus in traces/ from the campaign
# recorders. Captures are deterministic: rerunning this script on an
# unchanged simulator produces byte-identical .dvst files, so a corpus
# diff in review means recorded behavior actually changed.
#
# Every capture is reloaded and replay-verified as it is written
# (SessionRecorder::capture_verified), so a corpus entry that does not
# replay bit-exactly never reaches disk.
#
# Usage: scripts/make_corpus.sh [BUILD_DIR [OUT_DIR]]
#   BUILD_DIR  build tree holding bench/ (default: build)
#   OUT_DIR    where to write the corpus (default: traces); scripts/ci.sh
#              regenerates into a temp dir and cmps it against traces/
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
BENCH="$BUILD/bench"
OUT="${2:-traces}"

for bin in chaos_campaign fleet_campaign governor_campaign trace_campaign; do
    [ -x "$BENCH/$bin" ] || {
        echo "missing $BENCH/$bin — build the repo first" >&2
        exit 1
    }
done
mkdir -p "$OUT"

# Faulted single-surface specimens, one per pacing mode.
"$BENCH/chaos_campaign" --record="$OUT/chaos-everything"

# Canonical 4-surface fleet session.
"$BENCH/fleet_campaign" --record="$OUT/fleet-4surface.dvst"

# Governed soak at the constrained thermal envelope.
"$BENCH/governor_campaign" --record="$OUT/governor-constrained.dvst"

# Scripted seeds: steady animation + the Fig. 7 swipe.
"$BENCH/trace_campaign" --record-synthetics="$OUT"

# Derived entry: the chaos D-VSync specimen time-warped and amplified.
"$BENCH/trace_campaign" --corpus="$OUT" --write-extra="$OUT"

echo "corpus:"
ls -la "$OUT"/*.dvst
