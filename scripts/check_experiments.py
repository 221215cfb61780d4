#!/usr/bin/env python3
"""Check that EXPERIMENTS.md quotes what the goldens measured.

Every bench golden with a `measured:` footer line names its bench
binary in the `Bench` column of an EXPERIMENTS.md headline row. Each
figure on a `measured:` line (every number, with its sign and a
trailing % where it has one) must appear in one headline row that names
that golden, in its `Measured` cell (the Experiment and Paper cells do
not count), so the prose cannot drift from the pinned outputs.

    python3 scripts/check_experiments.py   # exit 1 on any mismatch
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDENS = os.path.join(ROOT, "bench", "goldens")
FIGURE = re.compile(r"[-+]?\d+(?:\.\d+)?%?")


def figures(text):
    # The prose writes minus as U+2212; the goldens print ASCII.
    return FIGURE.findall(text.replace("−", "-"))


def headline_rows():
    """(bench names, Measured-cell figures) of each headline row."""
    with open(os.path.join(ROOT, "EXPERIMENTS.md"), encoding="utf-8") as f:
        lines = f.read().splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("| Experiment |"))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|").split("|")]
        rows.append((set(re.findall(r"`([^`]+)`", cells[-1])),
                     set(figures(cells[2]))))
    return rows


def main():
    rows = headline_rows()
    checked = failures = 0
    for name in sorted(os.listdir(GOLDENS)):
        if not name.endswith(".txt"):
            continue
        bench = name[:-len(".txt")]
        with open(os.path.join(GOLDENS, name), encoding="utf-8") as f:
            measured = [line.split("measured:", 1)[1].strip()
                        for line in f if line.startswith("measured:")]
        if not measured:
            continue
        checked += 1
        candidates = [figs for benches, figs in rows if bench in benches]
        if not candidates:
            print(f"{bench}: no EXPERIMENTS.md headline row names it")
            failures += 1
            continue
        for line in measured:
            want = figures(line)
            best = min(candidates,
                       key=lambda figs: sum(x not in figs for x in want))
            missing = [x for x in want if x not in best]
            if missing:
                print(f"{bench}: measured \"{line}\" but its headline row "
                      f"lacks {', '.join(missing)}")
                failures += 1
    print(f"check_experiments: {checked} goldens with a measured line, "
          f"{failures} mismatches")
    return 1 if failures or checked == 0 else 0


if __name__ == "__main__":
    sys.exit(main())
