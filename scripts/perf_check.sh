#!/usr/bin/env bash
# Perf check against the committed ledger.
#
# Runs the perfbench suite at seed 1 (every workload, untraced and
# traced) and prints `perfbench/run.py --compare` of the result against
# the last bench/perf_ledger.jsonl row measured on the same machine
# stamp (nproc, cpu, compiler, build type), per-layer deltas included.
#
# Exits nonzero only when an end-to-end metric is worse than its
# BENCHMARK.json bound: the host is noisy, so per-layer deltas are
# reported, never gated. With no ledger row from this machine it
# compares against the last row and only reports.
#
#   scripts/perf_check.sh   # ~4 min: run.py's default 30 s per run, the
#                           # ledger's own run length
#
# PERF_CHECK_OUT=FILE keeps the suite result; append it to the ledger
# with the one-liner in ROADMAP item 1.
set -euo pipefail
cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
NEW="${PERF_CHECK_OUT:-$TMP/new.json}"
# run.py --out merges into an existing file; start from a clean one.
rm -f "$NEW"

python3 perfbench/run.py --suite --seed 1 --out "$NEW"
echo

python3 - "$NEW" "$TMP/base.json" <<'PY'
import json
import subprocess
import sys

new_path, base_path = sys.argv[1], sys.argv[2]
MACHINE = ("nproc", "cpu", "compiler", "build_type")


def machine(row):
    return {k: row["stamp"].get(k) for k in MACHINE}


with open(new_path) as f:
    new = json.load(f)
with open("bench/perf_ledger.jsonl") as f:
    rows = [json.loads(line) for line in f if line.strip()]
if not rows:
    sys.exit("perf_check: bench/perf_ledger.jsonl holds no rows")
same = [r for r in rows if machine(r) == machine(new)]
base = same[-1] if same else rows[-1]
with open(base_path, "w") as f:
    json.dump(base, f)

sys.stdout.flush()
subprocess.run([sys.executable, "perfbench/run.py", "--compare",
                base_path, new_path], check=True)
print()
if not same:
    print(f"perf_check: no ledger row was measured on {machine(new)}; "
          f"compared against the last row ({base['stamp']['git']}), "
          "report only")
    sys.exit(0)

with open("BENCHMARK.json") as f:
    spec = json.load(f)
worse = []
for w, b in base["workloads"].items():
    n = new["workloads"].get(w)
    if n is None:
        continue
    for m in spec["end_to_end"]:
        name = m["name"]
        if name not in b["metrics"] or name not in n["metrics"]:
            continue
        old, cur = b["metrics"][name]["value"], n["metrics"][name]["value"]
        if old == 0:
            continue
        delta = cur / old - 1.0
        loss = -delta if m["better"] == "higher" else delta
        if loss > m["bound"]:
            worse.append(f"{w} {name} {100 * delta:+.1f}% "
                         f"(bound {100 * m['bound']:.0f}%)")
if worse:
    print("perf_check: FAIL against ledger row "
          f"{base['stamp']['git']}: " + "; ".join(worse))
    sys.exit(1)
print(f"perf_check: every end-to-end metric within its bound of ledger "
      f"row {base['stamp']['git']}")
PY
