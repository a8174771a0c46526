#!/bin/sh
# Usage: bench_gate.sh FILE BASE MIN NAME...
#
# Fails unless each NAME in FILE, a BENCH_*.json from bench_to_json.sh,
# runs at least MIN times faster than BASE: the ratio of BASE's ns_per_op
# to NAME's, both medians over their runs. Names match with or without the
# -GOMAXPROCS suffix go test appends. Prints every ratio.
set -eu
file=$1 base=$2 min=$3
shift 3
exec awk -v base="$base" -v min="$min" -v names="$*" '
/"name":/ {
  n = $0; sub(/.*"name":"/, "", n); sub(/".*/, "", n); sub(/-[0-9]+$/, "", n)
  v = $0; sub(/.*"ns_per_op":/, "", v); ns[n] = v + 0
}
END {
  k = split(base " " names, list, " ")
  for (i = 1; i <= k; i++)
    if (!(ns[list[i]] > 0)) { print "bench_gate: no ns_per_op for " list[i]; exit 1 }
  for (i = 2; i <= k; i++) {
    r = ns[base] / ns[list[i]]
    printf "%s: %.2fx faster than %s (gate %sx)%s\n", list[i], r, base, min, (r < min ? " FAIL" : "")
    if (r < min) bad = 1
  }
  exit bad
}
' "$file"
