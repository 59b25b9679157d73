#!/bin/sh
# Runs every bench binary, appending all output to the file given as $1.
# Equivalent to `for b in build/bench/*; do $b; done` with progress markers.
# Includes the paper-table benches, bench_gemm, train_scaling and
# serve_throughput (the serving-path requests/sec trajectory).
out="$1"
: > "$out"
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "##### $b" >> "$out"
  "$b" >> "$out" 2>&1
done
echo "ALL_BENCHES_DONE" >> "$out"
