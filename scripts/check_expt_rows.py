#!/usr/bin/env python3
"""Checks that EXPERIMENTS.md quotes the pinned experiment output.

Every markdown table row under an `## E...` heading of EXPERIMENTS.md
must appear, as a whole line, in scripts/expt_golden.txt (the stdout of
all 13 expt_* binaries, see scripts/expt_golden.sh). Prints each row
that does not and exits 1; exits 0 when all rows match.

Usage: scripts/check_expt_rows.py [EXPERIMENTS.md] [expt_golden.txt]
"""
import sys

doc = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
golden = sys.argv[2] if len(sys.argv) > 2 else "scripts/expt_golden.txt"
printed = set(line.rstrip("\n") for line in open(golden, encoding="utf-8"))
in_experiment = False
rows = 0
missing = []
for number, line in enumerate(open(doc, encoding="utf-8"), start=1):
    line = line.rstrip("\n")
    if line.startswith("## "):
        in_experiment = line.startswith("## E")
    elif in_experiment and line.startswith("|"):
        rows += 1
        if line not in printed:
            missing.append(f"{doc}:{number}: {line}")
for m in missing:
    print(m)
print(f"{rows - len(missing)} of {rows} experiment table rows match {golden}")
sys.exit(1 if missing else 0)
