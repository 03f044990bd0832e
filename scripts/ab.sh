#!/usr/bin/env bash
# Paired A/B of the repo benchmark: BASE against CHANGE, workload by
# workload, in alternating order, so that host load falls on both sides.
#
# Usage: scripts/ab.sh [-n PAIRS] [-S SEED] [-w WORKLOAD]... BASE [CHANGE]
#   BASE, CHANGE  git revisions; CHANGE defaults to the working tree
#   -n PAIRS      pairs of runs per workload (default 6)
#   -S SEED       the workloads' seed (default 42)
#   -w WORKLOAD   a workload to run; repeat for several (default: all five)
#
# Each revision is exported with `git archive` (the working tree is built
# in place) and built with a CARGO_TARGET_DIR of its own, all under
# ${AB_DIR:-target/ab}. Per workload, pair i runs the benchmark's one-run
# form `--workload W --seed SEED --seconds 6 --trace 0` for both sides, BASE
# first when i is even and CHANGE first when it is odd (ABBA). The report
# is one Markdown table per host-clock metric — `wall_s`, `setup_s` and
# `peak_rss_mb` — with one row per workload: the medians of each side (for
# `wall_s` and `setup_s` corrected, then as measured, from `wall_raw_s` and
# `setup_raw_s`), the median of the per-pair ratios CHANGE / BASE, the
# pairs CHANGE won (lower is better for all three), the exact two-sided
# sign-test p over the pairs that are not ties, and whether `sim_time_s`
# and `sim_latency_p90_s` are bit-equal across every run. A last table
# shows the simulated clock itself: per workload, each side's
# `sim_time_s` and `sim_latency_p90_s` and the change, so a deliberate
# clock move reads base → change. Each side must repeat its own
# simulated values bit for bit across its runs; a side that does not,
# or a run whose output failed its oracle, is reported and makes the
# script exit 1. Every run's output stays in the runs/ directory beside
# the builds. Nothing under benchmark/ is changed.
#
# Needs git, cargo and python3 (the statistics).

set -euo pipefail

pairs=6
seed=42
workloads=()
while getopts "n:S:w:h" opt; do
  case "$opt" in
    n) pairs=$OPTARG ;;
    S) seed=$OPTARG ;;
    w) workloads+=("$OPTARG") ;;
    h)
      sed -n '2,31p' "$0" | sed 's/^# \{0,1\}//'
      exit 0
      ;;
    *) exit 2 ;;
  esac
done
shift $((OPTIND - 1))
if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: scripts/ab.sh [-n PAIRS] [-S SEED] [-w WORKLOAD]... BASE [CHANGE]" >&2
  exit 2
fi
if [[ ${#workloads[@]} -eq 0 ]]; then
  workloads=(crawl-dnc scramble-dnc road-rounds geo-knn serve-mix)
fi

root=$(git rev-parse --show-toplevel)
cd "$root"
out=${AB_DIR:-target/ab}
mkdir -p "$out"
out=$(cd "$out" && pwd)
runs="$out/runs"
rm -rf "$runs"
mkdir -p "$runs"

# build SIDE [REV]: exports REV (none: the working tree) and builds its
# benchmark; prints the binary's path.
build() {
  local side=$1 rev=${2:-} src
  if [[ -z "$rev" ]]; then
    src=$root
  else
    src="$out/$side-src"
    rm -rf "$src"
    mkdir -p "$src"
    git archive "$rev" | tar -x -C "$src"
  fi
  CARGO_TARGET_DIR="$out/$side-target" cargo build --release --offline --quiet \
    --manifest-path "$src/benchmark/Cargo.toml" >&2 || return 1
  echo "$out/$side-target/release/mnd-benchmark"
}

echo "==> building base ($1) and change (${2:-working tree})" >&2
base_bin=$(build base "$1")
change_bin=$(build change "${2:-}")

# run SIDE WORKLOAD PAIR: one contract-form run, its stdout kept.
run() {
  local side=$1 workload=$2 pair=$3 bin status=0
  if [[ "$side" == base ]]; then bin=$base_bin; else bin=$change_bin; fi
  "$bin" --workload "$workload" --seed "$seed" --seconds 6 --trace 0 \
    >"$runs/$workload.$pair.$side.log" 2>/dev/null || status=$?
  if [[ "$status" -gt 1 ]]; then
    echo "ab.sh: $side run of $workload exited $status" >&2
    exit 1
  fi
}

for workload in "${workloads[@]}"; do
  for ((pair = 0; pair < pairs; pair++)); do
    echo "==> $workload, pair $((pair + 1)) of $pairs" >&2
    if ((pair % 2 == 0)); then
      run base "$workload" "$pair"
      run change "$workload" "$pair"
    else
      run change "$workload" "$pair"
      run base "$workload" "$pair"
    fi
  done
done

python3 - "$runs" "$pairs" "${workloads[@]}" <<'PY'
import json, math, sys
from statistics import median as med

runs, pairs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]

# (metric, its as-measured samples or None); lower is better for each.
METRICS = [("wall_s", "wall_raw_s"), ("setup_s", "setup_raw_s"), ("peak_rss_mb", None)]

def read(workload, pair, side):
    """({metric: (corrected, as-measured median or None)}, sim pair, correct)"""
    lines = open(f"{runs}/{workload}.{pair}.{side}.log").read().splitlines()
    result = json.loads(lines[-1])
    samples = next(json.loads(l[len("samples "):]) for l in lines if l.startswith("samples "))
    m = result["metrics"]
    values = {
        name: (m[name]["value"], med(samples[raw]) if raw else None) for name, raw in METRICS
    }
    sim = (m["sim_time_s"]["value"], m["sim_latency_p90_s"]["value"])
    return values, sim, result["correct"]

def sign_p(won, lost):
    """Exact two-sided sign test over the pairs that are not ties."""
    n = won + lost
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(won, lost) + 1)) / 2**n
    return min(1.0, 2 * tail)

# runs_of[w][i] = (base, change) of pair i.
runs_of = {w: [(read(w, i, "base"), read(w, i, "change")) for i in range(pairs)] for w in workloads}
failed = not all(r[2] for w in workloads for pair in runs_of[w] for r in pair)
for name, raw in METRICS:
    print(f"\n`{name}`" + (f" (corrected; as measured from `{raw}`)" if raw else "") + "\n")
    print(f"| workload | base `{name}` | change `{name}` | as measured | median ratio | pairs won | sign-test p | simulated bit-equal |")
    print("|---|---|---|---|---|---|---|---|")
    for w in workloads:
        base = [b[0][name] for b, _ in runs_of[w]]
        change = [c[0][name] for _, c in runs_of[w]]
        ratios = [c[0] / b[0] for b, c in zip(base, change)]
        won = sum(c[0] < b[0] for b, c in zip(base, change))
        lost = sum(c[0] > b[0] for b, c in zip(base, change))
        sims = {r[1] for pair in runs_of[w] for r in pair}
        measured = (
            f"{med([r[1] for r in base]):.4f} → {med([r[1] for r in change]):.4f}" if raw else "—"
        )
        print(
            f"| {w} | {med([r[0] for r in base]):.4f} | {med([r[0] for r in change]):.4f} "
            f"| {measured} | {med(ratios):.3f} ({100 * (med(ratios) - 1):+.1f} %) | {won} / {pairs} "
            f"| {sign_p(won, lost):.3g} | {'yes' if len(sims) == 1 else 'NO'} |"
        )
# The simulated clock: each side's own values, which must repeat exactly.
print("\n`sim_time_s`, `sim_latency_p90_s` (simulated; each side's runs agree bit for bit)\n")
print("| workload | base `sim_time_s` | change `sim_time_s` | change | base p90 | change p90 | change |")
print("|---|---|---|---|---|---|---|")
unrepeatable = []
for w in workloads:
    sides = [{pair[k][1] for pair in runs_of[w]} for k in (0, 1)]
    for name, seen in zip(("base", "change"), sides):
        if len(seen) > 1:
            unrepeatable.append(f"{w} ({name}: {sorted(seen)})")
    (b_time, b_p90), (c_time, c_p90) = (min(seen) for seen in sides)
    move = lambda b, c: "bit-equal" if b == c else f"{100 * (c / b - 1):+.2f} %"
    print(
        f"| {w} | {b_time!r} | {c_time!r} | {move(b_time, c_time)} "
        f"| {b_p90!r} | {c_p90!r} | {move(b_p90, c_p90)} |"
    )
status = 0
if unrepeatable:
    print("ab.sh: a side did not repeat its simulated values: " + "; ".join(unrepeatable), file=sys.stderr)
    status = 1
if failed:
    print("ab.sh: a run's output failed its oracle", file=sys.stderr)
    status = 1
sys.exit(status)
PY
