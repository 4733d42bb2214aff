#!/usr/bin/env bash
# Checks that the benchmark agrees with itself.
#
#   bench/e2e/repeat_check.sh [RUNS]
#
# Runs two sets of RUNS untraced runs (seeds 1..RUNS, default 3) of every
# workload in BENCHMARK.json, the second set in reverse workload order. For
# each workload and end-to-end metric it prints both sets' medians, how much
# worse the second median is, and each set's quartile spread
# (Q3 - Q1) / median, with quartiles as Python's
# statistics.quantiles(values, n=4) computes them. A metric FAILs when the
# second median is worse than the first by more than its bound, or when a
# spread (setup_s excepted) exceeds its bound; it is marked "wide" when a
# spread exceeds a third of its bound. Exit status 1 if anything FAILed.
# Needs jq. Results are kept under build/bench-e2e/repeat/.
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
spec="$root/BENCHMARK.json"
runs=${1:-3}
seconds=$(jq -r .run_seconds "$spec")
out="$root/build/bench-e2e/repeat"
rm -rf "$out"
mkdir -p "$out"

mapfile -t workloads < <(jq -r '.workloads[].name' "$spec")
for set in 1 2; do
  order=("${workloads[@]}")
  if [ "$set" = 2 ]; then
    mapfile -t order < <(printf '%s\n' "${workloads[@]}" | tac)
  fi
  for w in "${order[@]}"; do
    for seed in $(seq 1 "$runs"); do
      python3 "$root/bench/e2e/run.py" --workload "$w" --seed "$seed" \
        --seconds "$seconds" --trace 0 > "$out/$set.$w.$seed.log"
      tail -n 1 "$out/$set.$w.$seed.log" |
        jq -c --argjson set "$set" --arg w "$w" --argjson seed "$seed" \
          '{set: $set, workload: $w, seed: $seed, correct, metrics}' \
          >> "$out/runs.jsonl"
      echo "set $set $w seed $seed done" >&2
    done
  done
done

jq -s -r --slurpfile spec "$spec" '
  def median: sort as $d | ($d | length) as $n |
    if $n % 2 == 1 then $d[($n - 1) / 2]
    else ($d[$n / 2 - 1] + $d[$n / 2]) / 2 end;
  # statistics.quantiles(values, n=4), method "exclusive"; $i in 1..3.
  def quartile($i): sort as $d | ($d | length) as $ld |
    (($i * ($ld + 1) / 4) | floor) as $j0 |
    (if $j0 < 1 then 1 elif $j0 > $ld - 1 then $ld - 1 else $j0 end) as $j |
    ($i * ($ld + 1) - $j * 4) as $delta |
    ($d[$j - 1] * (4 - $delta) + $d[$j] * $delta) / 4;
  def spread: if length < 2 then 0
    else (quartile(3) - quartile(1)) / (median | if . == 0 then 1 else . end) end;
  def pct: . * 1000 | round / 10 | tostring + "%";
  . as $runs |
  ([$runs[] | select(.correct | not)] | length) as $incorrect |
  [ $spec[0].workloads[].name as $w | $spec[0].end_to_end[] as $m |
    [$runs[] | select(.workload == $w and .set == 1) | .metrics[$m.name].value] as $a |
    [$runs[] | select(.workload == $w and .set == 2) | .metrics[$m.name].value] as $b |
    ($a | median) as $ma | ($b | median) as $mb |
    (if $m.better == "lower" then ($mb - $ma) else ($ma - $mb) end
      / (if $ma == 0 then 1 else ($ma | fabs) end)) as $worse |
    ([$a, $b] | map(spread) | max) as $sp |
    { w: $w, m: $m.name, ma: $ma, mb: $mb, worse: $worse,
      sa: ($a | spread), sb: ($b | spread), bound: $m.bound,
      status: (if $worse > $m.bound or ($m.name != "setup_s" and $sp > $m.bound)
               then "FAIL" elif $sp > $m.bound / 3 then "wide" else "ok" end) }
  ] as $rows |
  (["workload", "metric", "median1", "median2", "worse", "spread1",
    "spread2", "bound", "status"] | @tsv),
  ($rows[] | [.w, .m, (.ma | tostring), (.mb | tostring), (.worse | pct),
              (.sa | pct), (.sb | pct), (.bound | pct), .status] | @tsv),
  "incorrect runs: \($incorrect)",
  (if $incorrect > 0 or any($rows[]; .status == "FAIL") then "RESULT: FAIL"
   else "RESULT: ok" end)
' "$out/runs.jsonl" | tee "$out/summary.tsv"

grep -q "RESULT: ok" "$out/summary.tsv"
