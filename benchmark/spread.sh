#!/usr/bin/env bash
# Run-to-run spread of the end-to-end metrics.
#
#   benchmark/spread.sh [-k RUNS] [-s SEED] [-v] [-t SECONDS] [WORKLOAD...]
#
# Runs each workload RUNS times (default 5) at seed SEED (default 1), or
# at seeds SEED, SEED+1, ... with -v, and prints per metric the median,
# the interquartile range as a share of the median (quartiles as Python's
# statistics.quantiles(n=4) gives them) and max/min.  SECONDS defaults to
# run_seconds from BENCHMARK.json.  Run from the repository root.
set -euo pipefail

runs=5 seed=1 vary=0 seconds=""
while getopts "k:s:vt:" opt; do
  case $opt in
    k) runs=$OPTARG ;;
    s) seed=$OPTARG ;;
    v) vary=1 ;;
    t) seconds=$OPTARG ;;
    *) exit 2 ;;
  esac
done
shift $((OPTIND - 1))
if [ -z "$seconds" ]; then
  seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
fi
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  mapfile -t workloads < <(python3 -c 'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi

mkdir -p .bench_out
out=$(mktemp -d .bench_out/spread.XXXXXX)
trap 'rm -rf "$out"' EXIT
for w in "${workloads[@]}"; do
  for ((i = 0; i < runs; i++)); do
    s=$seed
    if [ "$vary" = 1 ]; then s=$((seed + i)); fi
    bash benchmark/run.sh --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 \
      | tail -n 1 >> "$out/$w.jsonl"
  done
done

python3 - "$out" "${workloads[@]}" <<'EOF'
import json, statistics, sys
out, workloads = sys.argv[1], sys.argv[2:]
print(f"{'workload':<11} {'metric':<12} {'median':>12} {'iqr/med':>8} {'max/min':>8}  runs")
for w in workloads:
    rows = [json.loads(l) for l in open(f"{out}/{w}.jsonl")]
    bad = [r for r in rows if not r["correct"] or r["failed"]]
    for name in rows[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in rows]
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        iqr = (q[2] - q[0]) / med if med else 0.0
        ratio = max(vals) / min(vals) if min(vals) else float("inf")
        print(f"{w:<11} {name:<12} {med:>12.6g} {iqr:>8.3f} {ratio:>8.3f}  {len(vals)}")
    if bad:
        print(f"{w}: {len(bad)} runs failed a check")
EOF
