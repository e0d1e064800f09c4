#!/bin/sh
# Prints `WORKLOAD NAME VALUE` for every simulated-clock metric line
# (`sim.digest` included) of the four e2e_bench workloads at `--quick`
# and the default seed. These values repeat exactly run to run, so CI
# diffs them against the committed scripts/e2e_sim_golden.txt. A change
# that alters simulated behaviour on purpose regenerates the file:
#
#   scripts/e2e_sim_golden.sh > scripts/e2e_sim_golden.txt
set -eu
for w in serve-clean serve-drift fw-cluster fw-software; do
  cargo run --release -q -p neuropulsim-bench --bin e2e_bench -- \
    --workload "$w" --quick --seconds 0 |
    awk -v w="$w" '$1 == "metric" && $5 == "sim" { print w, $2, $3 }'
done
