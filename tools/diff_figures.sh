#!/usr/bin/env bash
# Output-neutrality check for refactors: runs a fixed list of
# deterministic figure benches and examples from two build directories
# and compares their stdout byte for byte (exit status included). Every
# run is seeded, so a change that is meant to be behaviour-neutral must
# print exactly what its parent prints. ctest alone cannot show this:
# cycle-cost and ordering drifts move figures without failing a test.
#
#   tools/diff_figures.sh <build-a> <build-b>
#
# Exits 0 when every output matches, 1 on any difference (a unified diff
# of each differing output is printed), 2 on usage errors or a missing
# binary. Logs go to stderr and are not compared.
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 <build-a> <build-b>" >&2
  exit 2
fi
build_a=$1
build_b=$2

# Binary (relative to a build dir) and its arguments, one run per line.
runs=(
  "bench/abl_security_modes --curve"
  "bench/abl_got_rewrite"
  "bench/abl_ordering_and_frames"
  "bench/fig05_am_put_latency"
  "bench/fig06_am_put_bandwidth --hot"
  "bench/fig07_injected_vs_local_latency"
  "bench/fig08_injected_vs_local_rate --hot"
  "bench/fig09_stash_latency"
  "bench/fig10_stash_rate"
  "bench/fig11_tail_latency_indirect_put"
  "bench/fig13_wfe_indirect_put"
  "bench/fig14_wfe_server_sum"
  "bench/fig15_incast_scaling"
  "bench/fig15_incast_scaling --tree"
  "bench/fig16_receiver_core_scaling --base"
  "bench/fig16_receiver_core_scaling --steal"
  "bench/fig16_receiver_core_scaling --bias"
  "bench/fig17_numa_bank_placement --grid"
  "bench/fig17_numa_bank_placement --domain-steal"
  "bench/fig18_hotplug_drain"
  "bench/fig19_kv_serving --quick"
  "examples/graph_scatter"
  "examples/numa_pinning"
  "examples/overloading"
  "examples/quickstart"
  "examples/security_modes"
)

for run in "${runs[@]}"; do
  bin=${run%% *}
  for build in "$build_a" "$build_b"; do
    if [ ! -x "$build/$bin" ]; then
      echo "missing binary: $build/$bin" >&2
      exit 2
    fi
  done
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# Runs one line of the list from one build dir; stdout plus exit status.
capture() { # build run
  local status=0
  # shellcheck disable=SC2086  # the run line splits into binary + args
  (cd "$out" && "$1/"$2) > "$out/stdout" 2> /dev/null || status=$?
  cat "$out/stdout"
  echo "exit status: $status"
}

abs() { (cd "$1" && pwd); }
build_a=$(abs "$build_a")
build_b=$(abs "$build_b")

differ=0
for run in "${runs[@]}"; do
  capture "$build_a" "$run" > "$out/a.txt"
  capture "$build_b" "$run" > "$out/b.txt"
  if diff -u --label "a: $run" --label "b: $run" "$out/a.txt" "$out/b.txt"; then
    echo "same   $run"
  else
    echo "DIFFER $run"
    differ=1
  fi
done
if [ "$differ" -ne 0 ]; then
  echo "diff_figures: outputs differ"
  exit 1
fi
echo "diff_figures: all ${#runs[@]} outputs identical"
