#!/usr/bin/env bash
# Runs every workload, each in its own process (peak_rss_mb is per
# process), and exits non-zero if any run failed a correctness gate or the
# determinism pin:
#
#   bash perfbench/all.sh --seed 1 --seconds 30 --trace 0
#
# Run from the repository root.
set -uo pipefail

status=0
for w in sim-dense sim-wide gateway-live; do
  bash "$(dirname "$0")/run.sh" --workload "$w" "$@" || status=1
done
exit "$status"
