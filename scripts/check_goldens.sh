#!/usr/bin/env sh
# Golden regression gate: five small campaigns must reproduce the committed
# outputs in tests/golden/ byte for byte.
#
#   fig05     — group protocol, flat fabric, direct local storage
#   fig13     — VCL vs GP with remote (NFS) checkpoint storage
#   scale     — routed fabrics (fat-tree adaptive, dragonfly), NORM and GP
#   tiers     — burst-buffer/drain storage plus a mid-run group failure
#   intervals — per-group checkpoint intervals under per-group MTBFs,
#               injected as a trace fault schedule (exp::group_fault_schedule)
#
# The flat cells also pin the default (kFlat) topology to the pre-topology
# network model: same arithmetic, same engine event sequence. Any change
# to simulated timing — including the control-plane latency edges
# (DESIGN.md §15.2) — shows up here; regenerate the goldens only on purpose.
#
# Registered as the `goldens` ctest target when GCR_BUILD_BENCH=ON.
#
# Usage: check_goldens.sh <fig05-binary> <fig13-binary> <scale-binary> \
#            <tiers-binary> <intervals-binary> <golden-dir>
set -eu

fig05=$1
fig13=$2
scale=$3
tiers=$4
intervals=$5
golden=$6

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$fig05" --procs 16,32 --reps 2 --jobs 4 > "$tmp/fig05.txt"
"$fig13" --procs 16,32 --reps 2 --jobs 4 > "$tmp/fig13.txt"
"$scale" --procs 16,32 --topologies fattree,dragonfly --modes NORM,GP \
    --reps 2 --jobs 4 > "$tmp/scale.txt"
"$tiers" --procs 16 --reps 2 --jobs 4 > "$tmp/tiers.txt"
"$intervals" --procs 16 --reps 2 --jobs 4 > "$tmp/intervals.txt"

diff -u "$golden/fig05_procs16_32_reps2.txt" "$tmp/fig05.txt"
diff -u "$golden/fig13_procs16_32_reps2.txt" "$tmp/fig13.txt"
diff -u "$golden/scale_extrapolation_procs16_32_reps2.txt" "$tmp/scale.txt"
diff -u "$golden/ablation_tiers_procs16_reps2.txt" "$tmp/tiers.txt"
diff -u "$golden/ablation_intervals_procs16_reps2.txt" "$tmp/intervals.txt"

echo "goldens: BYTE-IDENTICAL"
