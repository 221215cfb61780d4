#!/usr/bin/env python3
"""Repository benchmark: build the simulator from source and time it.

One run measures one workload:

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 10 --trace 0

prints what it measured and ends with one JSON line holding `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1). Other modes:

    python3 perfbench/run.py --suite [--seed N] [--seconds S] [--out FILE]
        every workload, untraced and traced, as one table
    python3 perfbench/run.py --compare BASE.json NEW.json
        per-workload end-to-end and per-layer deltas of two result files

`--out FILE` (single runs and --suite) merges the run into a result
file stamped with the machine and build. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("fleet", "soak", "replay")


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then bring the Release build up to date."""
    for need in ("src/CMakeLists.txt", "traces"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} is missing: run from a full source checkout", 2)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j",
                    str(len(os.sched_getaffinity(0)))],
                   stdout=sys.stderr, check=True)


def stamp(info):
    """Machine and build identity; results from different stamps differ."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    describe = "unknown (not a git checkout)"
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel"],
                             capture_output=True, text=True)
        if top.returncode == 0 and os.path.samefile(top.stdout.strip(), ROOT):
            describe = subprocess.run(
                ["git", "-C", ROOT, "describe", "--always", "--dirty"],
                capture_output=True, text=True).stdout.strip() or describe
    except OSError:
        pass
    return {"nproc": info["jobs"], "cpu": cpu, "compiler": info["compiler"],
            "build_type": info["build_type"], "git": describe}


def machine(s):
    return {k: s[k] for k in ("nproc", "cpu", "compiler", "build_type")}


def measure(workload, seed, seconds, trace):
    """Run the measuring program once; echo its report, return its result."""
    spans = os.path.join(ROOT, ".bench_build", "spans")
    os.makedirs(spans, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--corpus", os.path.join(ROOT, "traces"),
           "--spans-out", os.path.join(spans, f"{workload}.tsv")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"measuring program exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    s = stamp(result["info"])
    print("stamp: " + " ".join(f"{k}={v!r}" for k, v in s.items()))
    return result, s


def record(path, workload, seed, seconds, result, s):
    """Merge one run into the result file at `path`."""
    data = {}
    if os.path.exists(path):
        with open(path) as f:
            data = json.load(f)
        if data.get("stamp") != s:
            print(f"perfbench: {path} was stamped {data.get('stamp')}; "
                  "starting it afresh", file=sys.stderr)
            data = {}
    data["stamp"] = s
    entry = data.setdefault("workloads", {}).setdefault(workload, {})
    if (entry.get("seed"), entry.get("seconds")) != (seed, seconds):
        entry.clear()
    entry.update(seed=seed, seconds=seconds,
                 **{k: result["info"][k] for k in
                    ("fingerprint", "corpus_fingerprint",
                     "events_per_session")})
    entry["correct"] = entry.get("correct", True) and result["correct"]
    entry["attempted"] = entry.get("attempted", 0) + result["attempted"]
    entry["failed"] = entry.get("failed", 0) + result["failed"]
    entry.setdefault("metrics", {}).update(result["metrics"])
    with open(path, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


def load_spec():
    """BENCHMARK.json's metric lists, keyed by kind, plus a name index."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    kinds = {k: [m["name"] for m in spec[k]]
             for k in ("end_to_end", "per_layer")}
    return kinds, {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def table(title, names, rows):
    """Print `rows` ((label, {name: cell})) in column blocks of six."""
    print(title)
    for i in range(0, len(names), 6):
        block = names[i:i + 6]
        width = max(12, *(len(n) for n in block))
        print("  " + "workload".ljust(10) +
              "".join(n.rjust(width + 2) for n in block))
        for label, cells in rows:
            print("  " + label.ljust(10) +
                  "".join(cells.get(n, "-").rjust(width + 2) for n in block))


def compare(base_path, new_path):
    with open(base_path) as f:
        base = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    kinds, spec = load_spec()
    print(f"base: {base_path} {base['stamp']}")
    print(f"new:  {new_path} {new['stamp']}")
    if machine(base["stamp"]) != machine(new["stamp"]):
        print("WARNING: the results come from different machines or builds;"
              " deltas below mix hardware with code")
    workloads = [w for w in WORKLOADS
                 if w in base["workloads"] and w in new["workloads"]]
    for kind, names in kinds.items():
        rows = []
        for w in workloads:
            a, b = base["workloads"][w]["metrics"], new["workloads"][w]["metrics"]
            cells = {}
            for n in names:
                if n not in a or n not in b or a[n]["value"] == 0:
                    continue
                delta = b[n]["value"] / a[n]["value"] - 1.0
                worse = -delta if spec[n]["better"] == "higher" else delta
                flag = "!" if worse > spec[n].get("bound", float("inf")) else ""
                cells[n] = f"{flag}{100 * delta:+.1f}%"
            rows.append((w, cells))
        table(f"{kind.replace('_', '-')} deltas, new against base "
              "(! = worse than the metric's bound):", names, rows)
    for w in workloads:
        a, b = base["workloads"][w], new["workloads"][w]
        # The corpus fingerprint does not depend on the seed.
        if a.get("corpus_fingerprint") != b.get("corpus_fingerprint"):
            print(f"{w}: corpus replay output changed (corpus fingerprint "
                  f"{a.get('corpus_fingerprint')} -> "
                  f"{b.get('corpus_fingerprint')})")
        if a["seed"] != b["seed"]:
            continue
        if a["fingerprint"] != b["fingerprint"]:
            print(f"{w}: simulated output changed (fingerprint "
                  f"{a['fingerprint']} -> {b['fingerprint']})")
        if a["events_per_session"] != b["events_per_session"]:
            print(f"{w}: events per session moved "
                  f"{a['events_per_session']} -> {b['events_per_session']}")


def suite(seed, seconds, out):
    build()
    _, spec = load_spec()
    results = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            result, s = measure(w, seed, seconds, trace)
            if out:
                record(out, w, seed, seconds, result, s)
            r = results.setdefault(w, {"metrics": {}, "failed": 0})
            r["metrics"].update(result["metrics"])
            r["failed"] += result["failed"]
    print(f"\nsuite: seed={seed} seconds={seconds}")
    print("  " + "metric".ljust(26) + "unit".ljust(8) +
          "".join(w.rjust(14) for w in WORKLOADS))
    for name, m in spec.items():
        print("  " + name.ljust(26) + m["unit"].ljust(8) + "".join(
            f"{results[w]['metrics'][name]['value']:14.4f}" for w in WORKLOADS))
    failed = sum(r["failed"] for r in results.values())
    print(f"  failed operations: {failed}")
    return 1 if failed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="merge the result into this JSON file")
    p.add_argument("--suite", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = p.parse_args()

    if args.compare:
        compare(*args.compare)
        return 0
    if args.suite:
        return suite(args.seed, args.seconds, args.out)
    if not args.workload:
        p.error("--workload, --suite or --compare is required")
    build()
    result, s = measure(args.workload, args.seed, args.seconds, args.trace)
    if args.out:
        record(args.out, args.workload, args.seed, args.seconds, result, s)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
