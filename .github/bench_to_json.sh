#!/bin/sh
# Converts `go test -bench -benchmem` output on stdin into a JSON document
# on stdout: {"benchmarks":[{name, runs, iterations, ns_per_op,
# bytes_per_op, allocs_per_op, extra:{metric:value,...}}, ...]}, one entry
# per benchmark in the order first seen. Each measure is its median over
# the benchmark's runs (-count; the upper middle one for an even count),
# and iterations is their total. CI writes BENCH_solver.json,
# BENCH_incr.json and BENCH_store.json with it; bench_gate.sh reads them.
exec awk '
function median(list,    n, v, i, j, t) {
  if (list == "") return "null"
  n = split(list, v, " ")
  for (i = 2; i <= n; i++)
    for (j = i; j > 1 && v[j-1] + 0 > v[j] + 0; j--) { t = v[j]; v[j] = v[j-1]; v[j-1] = t }
  return v[int(n / 2) + 1]
}
/^Benchmark/ {
  if (!($1 in runs)) order[++names] = $1
  runs[$1]++
  iters[$1] += $2
  for (i = 4; i <= NF; i += 2) {
    u = $i
    gsub(/"/, "", u)
    if (!(($1, u) in vals)) units[$1] = units[$1] " " u
    vals[$1, u] = vals[$1, u] " " $(i-1)
  }
}
END {
  print "{\"benchmarks\": ["
  for (k = 1; k <= names; k++) {
    b = order[k]
    ex = ""
    n = split(units[b], us, " ")
    for (i = 1; i <= n; i++)
      if (us[i] !~ /^(ns|B|allocs)\/op$/) ex = ex (ex == "" ? "" : ",") "\"" us[i] "\":" median(vals[b, us[i]])
    printf "  {\"name\":\"%s\",\"runs\":%d,\"iterations\":%d,\"ns_per_op\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s,\"extra\":{%s}}%s\n",
      b, runs[b], iters[b], median(vals[b, "ns/op"]), median(vals[b, "B/op"]), median(vals[b, "allocs/op"]), ex, (k < names ? "," : "")
  }
  print "]}"
}
'
