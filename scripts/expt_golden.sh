#!/bin/sh
# Prints the stdout of the expt_system (E7), expt_cluster (E12) and
# expt_snn_stdp (E6) experiments, each under a `== NAME` header. All
# three print seeded tables that repeat exactly run to run: expt_system
# is the one binary that drives the DRAM-latency model and the L1
# cache, and expt_snn_stdp is the one that runs the STDP/WTA layer.
# CI diffs this output against the committed scripts/expt_golden.txt.
# A change that alters simulated behaviour on purpose regenerates the
# file:
#
#   scripts/expt_golden.sh > scripts/expt_golden.txt
set -eu
for b in expt_system expt_cluster expt_snn_stdp; do
  echo "== $b"
  cargo run --release -q -p neuropulsim-bench --bin "$b"
done
