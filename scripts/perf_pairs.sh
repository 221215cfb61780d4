#!/usr/bin/env bash
# Interleaved perf pairs of the working tree against a parent revision.
#
#   scripts/perf_pairs.sh PARENT_REV [WORKLOAD] [SEED] [PAIRS]
#
# Builds PARENT_REV in a temporary `git worktree`, then runs
#
#   python3 perfbench/run.py --workload W --seed S --seconds 10 --trace 0
#
# PAIRS times in each tree (defaults: fleet, seed 1, 10 pairs),
# alternating which side goes first so that drift on a shared host
# falls on both sides alike. Prints every pair, each side's median and
# quartiles, the pairs the working tree won and whether ROADMAP item 4's
# rule for a claimed gain holds: at least 9 wins in 10 pairs, and a
# median gain larger than the parent's interquartile range. It also
# prints both sides' medians of every end-to-end metric, and whether
# the simulated-output fingerprints and events per session agree, as
# they must under a perf-only change. The rule is judged on
# sessions_per_s. Each side builds its own Release tree in its
# .bench_build/ on its first run.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 || $# -gt 4 ]]; then
    sed -n '2,3p' "$0" >&2
    exit 2
fi
PARENT_REV="$1"
WORKLOAD="${2:-fleet}"
SEED="${3:-1}"
PAIRS="${4:-10}"
if ! [[ "$PAIRS" =~ ^[0-9]+$ ]] || ((PAIRS < 2)); then
    echo "perf_pairs: PAIRS must be a whole number >= 2 (quartiles)" >&2
    exit 2
fi

TMP="$(mktemp -d)"
WT="$TMP/parent"
cleanup() {
    git worktree remove --force "$WT" >/dev/null 2>&1 || true
    rm -rf "$TMP"
}
trap cleanup EXIT
git worktree add --detach "$WT" "$PARENT_REV" >/dev/null

# run SIDE TREE PAIR: one perfbench run, its result kept as SIDE-PAIR.json.
run() {
    local side="$1" tree="$2" pair="$3"
    (cd "$tree" && python3 perfbench/run.py --workload "$WORKLOAD" \
        --seed "$SEED" --seconds 10 --trace 0 \
        --out "$TMP/$side-$pair.json") >"$TMP/$side-$pair.log" 2>&1 || {
        cat "$TMP/$side-$pair.log" >&2
        echo "perf_pairs: the $side run of pair $pair failed" >&2
        exit 1
    }
}

for ((i = 0; i < PAIRS; i++)); do
    if ((i % 2 == 0)); then
        run parent "$WT" "$i"
        run new . "$i"
    else
        run new . "$i"
        run parent "$WT" "$i"
    fi
    echo "pair $((i + 1))/$PAIRS done" >&2
done

python3 - "$TMP" "$WORKLOAD" "$PAIRS" "$PARENT_REV" <<'PY'
import json
import math
import statistics
import sys

tmp, workload, pairs, parent_rev = sys.argv[1:]
pairs = int(pairs)
metric = "sessions_per_s"
with open("BENCHMARK.json") as f:
    spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
higher = spec[metric]["better"] == "higher"


def load(side, i):
    with open(f"{tmp}/{side}-{i}.json") as f:
        return json.load(f)["workloads"][workload]


runs = {s: [load(s, i) for i in range(pairs)] for s in ("parent", "new")}
vals = {s: [r["metrics"][metric]["value"] for r in rs]
        for s, rs in runs.items()}
wins = 0
print(f"{workload} {metric} ({spec[metric]['unit']}, "
      f"{'higher' if higher else 'lower'} is better), "
      f"parent {parent_rev} against the working tree")
for i, (a, b) in enumerate(zip(vals["parent"], vals["new"])):
    won = b > a if higher else b < a
    wins += won
    first = "parent" if i % 2 == 0 else "new"
    print(f"  pair {i + 1:2d}: parent {a:12.2f}  new {b:12.2f}  "
          f"{100 * (b / a - 1):+6.1f}%  ({first} first)"
          f"{'  win' if won else ''}")
stats = {}
for side in ("parent", "new"):
    q1, med, q3 = statistics.quantiles(vals[side], n=4, method="inclusive")
    stats[side] = (q1, med, q3)
    print(f"  {side:6s}  median {med:12.2f}  quartiles "
          f"[{q1:.2f}, {q3:.2f}]  IQR {q3 - q1:.2f}")
(p1, pmed, p3), (_, nmed, _) = stats["parent"], stats["new"]
gain = nmed - pmed if higher else pmed - nmed
need = math.ceil(0.9 * pairs)
print(f"  wins {wins}/{pairs}; median gain {gain:+.2f} "
      f"({100 * gain / pmed:+.1f}%) against parent IQR {p3 - p1:.2f}")
holds = wins >= need and gain > p3 - p1
print(f"  rule (>= {need}/{pairs} wins, median gain > parent IQR): "
      f"{'holds' if holds else 'does not hold'}")

print("  every end-to-end metric, medians (parent -> new):")
for name, m in spec.items():
    if name not in runs["new"][0]["metrics"]:
        continue
    a, b = (statistics.median(r["metrics"][name]["value"] for r in runs[s])
            for s in ("parent", "new"))
    delta = f"{100 * (b / a - 1):+6.1f}%" if a else "     -"
    print(f"    {name:16s} {a:12.6g} -> {b:12.6g} {m['unit']:5s} {delta}"
          f"  ({m['better']} is better)")

for key in ("fingerprint", "corpus_fingerprint", "events_per_session"):
    seen = {s: {r[key] for r in rs} for s, rs in runs.items()}
    if len(seen["parent"] | seen["new"]) == 1:
        print(f"  {key}: {next(iter(seen['new']))} on both sides")
    else:
        print(f"  {key}: MOVED, parent {sorted(seen['parent'])} "
              f"new {sorted(seen['new'])}")
PY
