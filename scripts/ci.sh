#!/usr/bin/env bash
# Tier-1 verify: configure with warnings-as-errors, build everything,
# run the full test suite. This is what CI runs and what a PR must keep
# green.
#
#   scripts/ci.sh             # plain build + tests
#   scripts/ci.sh --sanitize  # ASan+UBSan build + tests (separate
#                             # build dir; exercises the event-queue
#                             # slot recycling, the inline callback
#                             # storage and the allocation-budget test
#                             # under sanitizers)
#   scripts/ci.sh --tsan      # ThreadSanitizer build + the threaded
#                             # harness suites, the .dvst suites and a
#                             # multi-job chaos smoke (separate build
#                             # dir; guards the ExperimentRunner workers,
#                             # OrderedDelivery, the TeeSink fan-out and
#                             # concurrent capture encode/decode)
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZE=OFF
for arg in "$@"; do
    case "$arg" in
        --sanitize) SANITIZE=address ;;
        --tsan) SANITIZE=thread ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

case "$SANITIZE" in
    address) BUILD_DIR="${BUILD_DIR:-build-sanitize}" ;;
    thread)  BUILD_DIR="${BUILD_DIR:-build-tsan}" ;;
    *)       BUILD_DIR="${BUILD_DIR:-build}" ;;
esac
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

if [[ "$SANITIZE" == thread ]]; then
    # TSan's job here is the session-level harness threads, not the
    # whole suite: build everything (compile coverage), then run the
    # suites that drive ExperimentRunner workers, OrderedDelivery and
    # TeeSink, the .dvst suites (captures are encoded and decoded from
    # several threads at once), plus a multi-job chaos smoke. Each
    # simulation is single-threaded, so the full suite under TSan would
    # mostly re-run serial code at 5-15x slowdown for no extra coverage.
    cmake -B "$BUILD_DIR" -S . -DDVS_WERROR=ON -DDVS_SANITIZE=thread
    cmake --build "$BUILD_DIR" -j"$JOBS"
    (cd "$BUILD_DIR" \
        && ctest --output-on-failure -j"$JOBS" \
            -R 'ExperimentRunner|StreamingRunner|TeeSink|CampaignAggregator|Observatory|Dvst|Capture|Loader|Replay')
    "$BUILD_DIR/bench/chaos_campaign" --seeds=2 --jobs=4 --out=-
    echo "tsan: harness + .dvst suites + multi-job chaos smoke clean"
    exit 0
fi

cmake -B "$BUILD_DIR" -S . -DDVS_WERROR=ON -DDVS_SANITIZE="$SANITIZE"
cmake --build "$BUILD_DIR" -j"$JOBS"
(cd "$BUILD_DIR" && ctest --output-on-failure -j"$JOBS")

# Chaos smoke: a small seeded fault-injection campaign must finish with
# zero invariant violations and zero failed runs (nonzero exit
# otherwise). Runs in both the plain and the sanitized build — the fault
# paths are exactly where sanitizers earn their keep.
"$BUILD_DIR/bench/chaos_campaign" --seeds=5 --out=- \
    --forensics="$BUILD_DIR/chaos_forensics.json"

# Forensics smoke: the chaos specimen's dump must parse and every drop in
# it must carry a known root cause (dvsync_inspect exits nonzero on an
# unreadable dump or an unknown-cause drop). Also under sanitizers: the
# dump/parse/inspect path is fresh C++ with manual JSON plumbing.
"$BUILD_DIR/bench/dvsync_inspect" "$BUILD_DIR/chaos_forensics.json" --top=3

# Governor smoke: the thermal-envelope sweep must finish with zero
# violations, every drop attributed, and the closed-loop governor
# beating every static config on energy-per-stutter-avoided in a
# constrained envelope (nonzero exit otherwise). The thermal plant,
# DVFS ladder, and control-loop paths also run under sanitizers here.
"$BUILD_DIR/bench/governor_campaign" --seeds=2 --out=-

# Fleet smoke: a small multi-surface sweep must finish with zero
# violations, zero failed runs, and the weighted arbiter strictly
# beating equal-split under the constrained budgets (nonzero exit
# otherwise). The shared-GPU and arbiter re-arbitration paths also run
# under sanitizers here.
"$BUILD_DIR/bench/fleet_campaign" --seeds=2 --out=-

# Megafleet sharded smoke: run a small fleet campaign unsharded and as
# two shards, merge the shard checkpoints, and require the merged
# summary to be byte-identical to the unsharded one — the determinism
# contract that makes 1M-session campaigns composable (see DESIGN.md
# §5f). Each invocation also enforces the campaign acceptance bar
# (zero errors / violations / unattributed drops, bounded RSS).
MEGATMP="$(mktemp -d)"
trap 'rm -rf "$MEGATMP"' EXIT
MEGA="$BUILD_DIR/bench/megafleet_campaign"
SMOKE_SESSIONS=600
"$MEGA" --sessions="$SMOKE_SESSIONS" --out=- \
    --checkpoint="$MEGATMP/unsharded.json" > /dev/null
"$MEGA" --sessions="$SMOKE_SESSIONS" --shard=0/2 --out=- \
    --checkpoint="$MEGATMP/shard0.json" > /dev/null
"$MEGA" --sessions="$SMOKE_SESSIONS" --shard=1/2 --out=- \
    --checkpoint="$MEGATMP/shard1.json" > /dev/null
"$MEGA" --merge --checkpoint="$MEGATMP/merged.json" \
    "$MEGATMP/shard0.json" "$MEGATMP/shard1.json" \
    > "$MEGATMP/merged_summary.txt"
"$MEGA" --merge "$MEGATMP/unsharded.json" \
    > "$MEGATMP/unsharded_summary.txt"
if ! cmp "$MEGATMP/merged.json" "$MEGATMP/unsharded.json"; then
    echo "megafleet: merged shard checkpoint differs from unsharded" >&2
    exit 1
fi
if ! cmp "$MEGATMP/merged_summary.txt" "$MEGATMP/unsharded_summary.txt"; then
    echo "megafleet: merged shard summary differs from unsharded" >&2
    exit 1
fi
echo "megafleet sharded smoke: 2-way merge byte-identical to unsharded"

# Observatory smoke: the same sharded campaign with the SLO/anomaly
# monitor on. The merged observatory state (checkpoint AND printed
# summary: burn-rates, cohort table, top-K offenders) must be
# byte-identical to the unsharded run, the merge must auto-capture the
# top-K offenders as verified .dvst specimens, every specimen must
# replay bit-exactly through trace_campaign, and the specimen listing
# must resolve every manifest entry to a file on disk.
OBSTMP="$MEGATMP/observatory"
"$MEGA" --sessions="$SMOKE_SESSIONS" --observatory --out=- \
    --checkpoint="$MEGATMP/obs_unsharded.json" > /dev/null
"$MEGA" --sessions="$SMOKE_SESSIONS" --shard=0/2 --observatory --out=- \
    --checkpoint="$MEGATMP/obs_shard0.json" > /dev/null
"$MEGA" --sessions="$SMOKE_SESSIONS" --shard=1/2 --observatory --out=- \
    --checkpoint="$MEGATMP/obs_shard1.json" > /dev/null
"$MEGA" --merge --observatory --specimens="$OBSTMP" \
    --checkpoint="$MEGATMP/obs_merged.json" \
    "$MEGATMP/obs_shard0.json" "$MEGATMP/obs_shard1.json" \
    > "$MEGATMP/obs_merged_summary.txt"
"$MEGA" --merge --observatory "$MEGATMP/obs_unsharded.json" \
    > "$MEGATMP/obs_unsharded_summary.txt"
if ! cmp "$MEGATMP/obs_merged.json.obs" "$MEGATMP/obs_unsharded.json.obs"; then
    echo "observatory: merged shard checkpoint differs from unsharded" >&2
    exit 1
fi
if ! cmp "$MEGATMP/obs_merged_summary.txt" "$MEGATMP/obs_unsharded_summary.txt"; then
    echo "observatory: merged shard summary differs from unsharded" >&2
    exit 1
fi
"$BUILD_DIR/bench/trace_campaign" --corpus="$OBSTMP" --out=- > /dev/null
"$BUILD_DIR/bench/dvsync_inspect" --specimens="$OBSTMP" > /dev/null
echo "observatory smoke: 2-way merge byte-identical, top-K specimens bit-exact"

# Trace corpus regression: replay every committed .dvst capture as
# recorded and under both forced pacing modes. Every verbatim entry must
# re-verify bit-exactly against its recording (event dispatch hash plus
# field-by-field report equality), and every replay leg must clear the
# acceptance bar (zero invariant violations, every drop attributed) —
# nonzero exit otherwise. Also under sanitizers: the .dvst decode and
# replay-workload paths are fresh C++ over attacker-shaped input. The
# campaign's stdout must also be byte-stable across the replay
# thread-pool width (--jobs).
"$BUILD_DIR/bench/trace_campaign" --corpus=traces --out=- \
    --jobs=1 > "$MEGATMP/trace_j1.txt"
"$BUILD_DIR/bench/trace_campaign" --corpus=traces --out=- \
    --jobs=7 > "$MEGATMP/trace_j7.txt"
if ! cmp "$MEGATMP/trace_j1.txt" "$MEGATMP/trace_j7.txt"; then
    echo "trace corpus: replay output differs between --jobs=1 and --jobs=7" >&2
    exit 1
fi
echo "trace corpus replay: bit-exact, byte-stable across --jobs"

# Corpus regeneration: scripts/make_corpus.sh promises that a rerun on an
# unchanged simulator writes byte-identical captures (each one reloaded
# and replay-verified as it is written). Regenerate the corpus into the
# temp dir and require the same file set, byte for byte, as traces/.
CORPUS_TMP="$MEGATMP/corpus"
if ! ./scripts/make_corpus.sh "$BUILD_DIR" "$CORPUS_TMP" \
        > "$MEGATMP/corpus.log" 2>&1; then
    cat "$MEGATMP/corpus.log" >&2
    echo "trace corpus: make_corpus.sh failed" >&2
    exit 1
fi
if ! diff <(cd traces && ls -- *.dvst) <(cd "$CORPUS_TMP" && ls -- *.dvst); then
    echo "trace corpus: regenerated file set differs from traces/" >&2
    exit 1
fi
for f in traces/*.dvst; do
    if ! cmp "$f" "$CORPUS_TMP/$(basename "$f")"; then
        echo "trace corpus: regenerated $f differs from the committed one" >&2
        exit 1
    fi
done
echo "trace corpus regeneration: $(ls traces/*.dvst | wc -l) files byte-identical"
