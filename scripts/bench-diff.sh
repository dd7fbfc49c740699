#!/bin/sh
# Compare two perfbench results on the end-to-end metrics of BENCHMARK.json.
#
#   sh scripts/bench-diff.sh OLD NEW      (or: make bench-diff OLD=... NEW=...)
#
# OLD and NEW are saved stdouts of `sh perfbench/run.sh ...`; the last line
# of each is the JSON result. Prints every end-to-end metric's relative
# change from OLD to NEW and names each metric that got worse by more than
# its bound (a metric missing from either side counts as worse). Exits 1 if
# any did, 0 if none did, 2 on a usage error.
set -eu
if [ $# -ne 2 ] || [ ! -r "$1" ] || [ ! -r "$2" ]; then
  echo "usage: sh scripts/bench-diff.sh OLD NEW (two readable files)" >&2
  exit 2
fi
bench="$(dirname "$0")/../BENCHMARK.json"
old=$(tail -n 1 "$1")
new=$(tail -n 1 "$2")
report=$(jq -r -n --argjson old "$old" --argjson new "$new" \
  --slurpfile bench "$bench" '
  def pct: (. * 1000 | round) / 10 | tostring + "%";
  def num: if . == null then "missing" else (. * 1000 | round) / 1000 end;
  [ $bench[0].end_to_end[]
    | . as $m
    | ($old.metrics[$m.name].value) as $o
    | ($new.metrics[$m.name].value) as $n
    | (if $o == null or $n == null then null
       elif $o == 0 then (if $n == 0 then 0 else null end)
       else ($n - $o) / (if $o < 0 then -$o else $o end) end) as $rel
    | { name: $m.name, o: $o, n: $n, rel: $rel, bound: $m.bound,
        better: $m.better,
        worse: ($rel == null
                or (if $m.better == "lower" then $rel else -$rel end)
                   > $m.bound) } ]
  | (.[] | "\(.name): \(.o | num) -> \(.n | num) ("
           + (if .rel == null then "n/a" else (if .rel > 0 then "+" else "" end) + (.rel | pct) end)
           + ", \(.better) is better, bound \(.bound | pct))"),
    (map(select(.worse) | .name)
     | if length == 0 then "no metric worse than its bound"
       else "WORSE THAN BOUND: " + join(" ") end)')
printf '%s\n' "$report"
case $report in
  *"WORSE THAN BOUND:"*) exit 1 ;;
esac
