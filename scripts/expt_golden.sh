#!/bin/sh
# Prints the stdout of all 13 experiment binaries (E1–E13), each under a
# `== NAME` header. Every one prints seeded tables that repeat exactly
# run to run and at any NEUROPULSIM_THREADS: expt_system is the one
# binary that drives the DRAM-latency model and the L1 cache,
# expt_snn_stdp the one that runs the STDP/WTA layer, and expt_faults,
# expt_system and expt_cluster run accelerator jobs.
# CI diffs this output against the committed scripts/expt_golden.txt.
# A change that alters simulated behaviour on purpose regenerates the
# file:
#
#   scripts/expt_golden.sh > scripts/expt_golden.txt
set -eu
for b in expt_expressivity expt_robustness expt_pcm_levels expt_energy \
  expt_gemm expt_snn_stdp expt_system expt_faults expt_footprint \
  expt_accuracy expt_puf expt_cluster expt_crossbar; do
  echo "== $b"
  cargo run --release -q -p neuropulsim-bench --bin "$b"
done
