#!/usr/bin/env bash
# Tier-1 verify: configure with warnings-as-errors, build everything,
# run the full test suite. This is what CI runs and what a PR must keep
# green.
#
#   scripts/ci.sh             # plain build + tests
#   scripts/ci.sh --sanitize  # ASan+UBSan build + tests (separate
#                             # build dir; exercises the event-queue
#                             # slot free list, the inline callback
#                             # storage, the allocation-budget test and
#                             # the loaders' byte-mutant loops (.dvst,
#                             # trace CSV, scenario script, forensics
#                             # JSON) under sanitizers)
#   scripts/ci.sh --tsan      # ThreadSanitizer build + the threaded
#                             # harness suites, the .dvst suites and a
#                             # multi-job chaos smoke (separate build
#                             # dir; guards the ExperimentRunner workers,
#                             # OrderedDelivery, the aggregator and
#                             # observatory sinks and concurrent capture
#                             # encode/decode)
#   scripts/ci.sh --release   # the plain checks on a Release build
#                             # (separate build dir): the optimizer's
#                             # inlining surfaces warnings the default
#                             # RelWithDebInfo build never sees, and
#                             # perfbench builds Release
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZE=OFF
BUILD_TYPE=
for arg in "$@"; do
    case "$arg" in
        --sanitize) SANITIZE=address ;;
        --tsan) SANITIZE=thread ;;
        --release) BUILD_TYPE=Release ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

case "$SANITIZE" in
    address) BUILD_DIR="${BUILD_DIR:-build-sanitize}" ;;
    thread)  BUILD_DIR="${BUILD_DIR:-build-tsan}" ;;
    *)       if [[ "$BUILD_TYPE" == Release ]]; then
                 BUILD_DIR="${BUILD_DIR:-build-release}"
             else
                 BUILD_DIR="${BUILD_DIR:-build}"
             fi ;;
esac
CONFIGURE=(-DDVS_WERROR=ON)
if [[ -n "$BUILD_TYPE" ]]; then
    if [[ "$SANITIZE" != OFF ]]; then
        echo "--release does not combine with a sanitizer build" >&2
        exit 2
    fi
    CONFIGURE+=(-DCMAKE_BUILD_TYPE="$BUILD_TYPE")
fi
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

if [[ "$SANITIZE" == thread ]]; then
    # TSan's job here is the session-level harness threads, not the
    # whole suite: build everything (compile coverage), then run the
    # suites that drive ExperimentRunner workers, OrderedDelivery and
    # the campaign sinks, the .dvst suites (captures are encoded and decoded from
    # several threads at once), plus a multi-job chaos smoke. Each
    # simulation is single-threaded, so the full suite under TSan would
    # mostly re-run serial code at 5-15x slowdown for no extra coverage.
    cmake -B "$BUILD_DIR" -S . "${CONFIGURE[@]}" -DDVS_SANITIZE=thread
    cmake --build "$BUILD_DIR" -j"$JOBS"
    (cd "$BUILD_DIR" \
        && ctest --output-on-failure -j"$JOBS" \
            -R 'ExperimentRunner|StreamingRunner|CampaignAggregator|Observatory|Dvst|Capture|Loader|Replay')
    "$BUILD_DIR/bench/chaos_campaign" --seeds=2 --jobs=4 --out=-
    echo "tsan: harness + .dvst suites + multi-job chaos smoke clean"
    exit 0
fi

cmake -B "$BUILD_DIR" -S . "${CONFIGURE[@]}" -DDVS_SANITIZE="$SANITIZE"
cmake --build "$BUILD_DIR" -j"$JOBS"
(cd "$BUILD_DIR" && ctest --output-on-failure -j"$JOBS")

# EXPERIMENTS.md quotes the goldens: every figure on a golden's
# `measured:` line must appear in the headline row naming that golden.
python3 scripts/check_experiments.py

# Scenario smoke: every example script must load and run under both
# architectures (scenario_runner exits nonzero on a script error). Also
# under sanitizers, so the script loader's number parsing runs on real
# inputs with float-cast-overflow checked.
for script in examples/scenarios/*.txt; do
    if ! "$BUILD_DIR/examples/scenario_runner" "$script" > /dev/null; then
        echo "scenario smoke: $script failed" >&2
        exit 1
    fi
done
echo "scenario smoke: $(ls examples/scenarios/*.txt | wc -l) scripts ran"

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

# Megafleet smoke: a small fleet campaign with the SLO/anomaly
# observatory on must finish clean (zero errors / violations /
# unattributed drops, bounded RSS; nonzero exit otherwise) and
# auto-capture its top-K offenders as verified .dvst specimens. Every
# specimen must then replay bit-exactly through trace_campaign, and the
# specimen listing must resolve every manifest entry to a file on disk.
MEGATMP="$(mktemp -d)"
trap 'rm -rf "$MEGATMP"' EXIT
OBSTMP="$MEGATMP/observatory"
"$BUILD_DIR/bench/megafleet_campaign" --sessions=600 --observatory \
    --specimens="$OBSTMP" --out=- > /dev/null
"$BUILD_DIR/bench/trace_campaign" --corpus="$OBSTMP" --out=- > /dev/null
"$BUILD_DIR/bench/dvsync_inspect" --specimens="$OBSTMP" > /dev/null
echo "megafleet smoke: clean campaign, top-K specimens bit-exact"

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
