#!/usr/bin/env bash
# Re-pins the simulated clock after a deliberate cost-model or algorithm
# change, and prints the old → new diff a change log quotes.
#
#  1. Runs tests/sim_clock_golden.rs (release). Every failure prints its
#     observed values; each is written over the test's `Golden {…}` literal
#     or over its `*_GOLDEN` table constant. The tests then run again and
#     must pass.
#  2. Runs the repo benchmark once per workload of
#     results/benchmark_baseline.json in the contract form (seed 42,
#     `--seconds 1`; the simulated clock does not depend on the duration)
#     and rewrites the `sim_time_s` and `sim_latency_p90_s` rows of the
#     baseline: median, q1, q3 and every round sample. The host-clock rows
#     (wall_s, setup_s, peak_rss_mb) stay as they are.
#  3. Runs `repro --csv DIR all` once (release, ≈ 40 s) and makes
#     results/*.csv exactly its tables: a changed table is overwritten, a
#     new one added, one repro no longer writes removed. Each changed
#     table's moved lines are printed as a zero-context diff.
#
# Usage: scripts/repin.sh [--check]
#   --check  change nothing; exit 1 if a golden, a baseline row or any
#            byte of a table would change (the diff is printed all the
#            same).
#
# Needs cargo and python3, like scripts/ab.sh.

set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

CHECK=0
for arg in "$@"; do
  case "$arg" in
    --check)
      CHECK=1
      ;;
    -h | --help)
      sed -n '2,25p' "$0" | sed 's/^# \{0,1\}//'
      exit 0
      ;;
    *)
      echo "repin.sh: unknown argument: $arg" >&2
      exit 2
      ;;
  esac
done

GOLDEN=tests/sim_clock_golden.rs
BASELINE=results/benchmark_baseline.json
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

golden_tests() {
  RUST_BACKTRACE=0 cargo test --release -q --offline --test sim_clock_golden \
    -- --test-threads=1 >"$1" 2>&1
}

# --- 1. the goldens --------------------------------------------------------

moved=0
echo "==> $GOLDEN" >&2
if golden_tests "$work/golden.log"; then
  echo "goldens: unchanged"
else
  if ! grep -q -- '^---- .* stdout ----$' "$work/golden.log"; then
    cat "$work/golden.log" >&2
    echo "repin.sh: the golden tests did not build or run" >&2
    exit 1
  fi
  moved=1
  # Prints the diff; outside --check also rewrites the source file.
  python3 - "$GOLDEN" "$work/golden.log" "$CHECK" <<'PY'
import re
import sys

src_path, log_path, check = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
src = open(src_path).read()
log = open(log_path).read()

# One block per failed test: its name, then its captured output.
blocks = re.findall(r"^---- (\S+) stdout ----\n(.*?)(?=^---- |^failures:)", log, re.M | re.S)
for test, out in blocks:
    golden = re.search(r"the simulated clock moved; observed\n(Golden \{\n.*?\n\})", out, re.S)
    table = re.search(
        r"(\w+_GOLDEN): the simulated clock moved, old → new:\n(.*?)\nobserved table:\n(.*?)\n\n",
        out + "\n",
        re.S,
    )
    if golden:
        start = src.index(f"fn {test}()")
        lit = src.index("Golden {", start)
        depth, end = 0, lit
        for end in range(lit, len(src)):
            depth += {"{": 1, "}": -1}.get(src[end], 0)
            if src[end] == "}" and depth == 0:
                break
        old = src[lit : end + 1]
        indent = src[src.rindex("\n", 0, lit) + 1 : lit]
        indent = indent[: len(indent) - len(indent.lstrip())]
        new = golden.group(1).replace("\n", "\n" + indent)
        print(f"{test}:\n  {' '.join(old.split())}\n→ {' '.join(new.split())}")
        src = src[:lit] + new + src[end + 1 :]
    elif table:
        name, diff, observed = table.groups()
        print(f"{name}\n{diff.rstrip()}")
        src, n = re.subn(
            rf'(const {name}: &str = "\n).*?(\n";)',
            lambda m: m.group(1) + observed.strip("\n") + m.group(2),
            src,
            count=1,
            flags=re.S,
        )
        if n != 1:
            sys.exit(f"repin.sh: no const {name} in {src_path}")
    else:
        print(out, file=sys.stderr)
        sys.exit(f"repin.sh: {test} failed without printing an observed clock")

if not check:
    open(src_path, "w").write(src)
PY
  if [[ "$CHECK" -eq 0 ]]; then
    cargo fmt --all
    echo "==> $GOLDEN again, on the re-pinned values" >&2
    if ! golden_tests "$work/golden-again.log"; then
      cat "$work/golden-again.log" >&2
      echo "repin.sh: the re-pinned goldens still fail" >&2
      exit 1
    fi
  fi
fi

# --- 2. the benchmark baseline's simulated rows ----------------------------

echo "==> $BASELINE (contract form, seed 42, one run per workload)" >&2
cargo build --release -q --offline --manifest-path benchmark/Cargo.toml
mapfile -t workloads < <(python3 -c '
import json, sys
print("\n".join(json.load(open(sys.argv[1]))["workloads"]))' "$BASELINE")
for w in "${workloads[@]}"; do
  echo "    $w" >&2
  cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
    --workload "$w" --seed 42 --seconds 1 --trace 0 2>/dev/null |
    tail -n 1 >"$work/$w.json"
done

status=0
python3 - "$BASELINE" "$work" "$CHECK" "${workloads[@]}" <<'PY' || status=$?
import json
import re
import sys


def die(msg):
    print(f"repin.sh: {msg}", file=sys.stderr)
    sys.exit(3)


path, work, check, workloads = sys.argv[1], sys.argv[2], sys.argv[3] == "1", sys.argv[4:]
text = open(path).read()
NUM = r"-?[0-9][0-9.eE+-]*"


def span(text, key, start):
    """The `{…}` object following `"key":` from `start` on: (open, close)."""
    at = text.index(f'"{key}": {{', start)
    lo = text.index("{", at)
    depth = 0
    for i in range(lo, len(text)):
        depth += {"{": 1, "}": -1}.get(text[i], 0)
        if depth == 0:
            return lo, i + 1
    raise ValueError(key)


changed = False
for w in workloads:
    line = open(f"{work}/{w}.json").read().strip()
    # The same writer printed both files, so the literal is copied as is.
    run = json.loads(line)
    if not run.get("correct") or run.get("failed"):
        die(f"{w}: the benchmark run failed its oracle: {line}")
    w_lo, _ = span(text, w, text.index('"workloads"'))
    for metric in ("sim_time_s", "sim_latency_p90_s"):
        new = re.search(rf'"{metric}":\{{"value":({NUM}),', line).group(1)
        lo, hi = span(text, metric, w_lo)
        block = text[lo:hi]
        old = re.search(rf'"median": ({NUM})', block).group(1)
        if old != new:
            changed = True
            print(f"{w} {metric}: {old} → {new}")
        block = re.sub(rf'("(?:median|q1|q3)": ){NUM}', lambda m: m.group(1) + new, block)
        r_lo = block.index("[", block.index('"rounds":'))
        depth = 0
        for r_hi in range(r_lo, len(block)):
            depth += {"[": 1, "]": -1}.get(block[r_hi], 0)
            if depth == 0:
                break
        rounds = re.sub(rf"(?<=[\[ ]){NUM}(?=[,\]])", new, block[r_lo:r_hi])
        text = text[:lo] + block[:r_lo] + rounds + block[r_hi:] + text[hi:]

if not changed:
    print("baseline: simulated rows unchanged")
elif check:
    sys.exit(10)
else:
    open(path, "w").write(text)
PY
# 10: --check found a row to change; anything else non-zero is an error.
if [[ "$status" -ne 0 && "$status" -ne 10 ]]; then
  echo "repin.sh: rewriting $BASELINE failed" >&2
  exit 1
fi

# --- 3. the paper tables ----------------------------------------------------

echo "==> results/*.csv (repro all)" >&2
mkdir "$work/csv"
cargo run --release -q --offline -p mnd-bench --bin repro -- --csv "$work/csv" all \
  >"$work/repro.log" 2>&1 || {
  cat "$work/repro.log" >&2
  echo "repin.sh: repro all failed" >&2
  exit 1
}
tables=0
for new in "$work"/csv/*.csv; do
  old="results/$(basename "$new")"
  if [[ ! -f "$old" ]]; then
    tables=1
    echo "$old: new table"
  elif ! cmp -s "$old" "$new"; then
    tables=1
    echo "$old:"
    diff -U0 "$old" "$new" | tail -n +3 || true
  else
    continue
  fi
  [[ "$CHECK" -eq 1 ]] || cp "$new" "$old"
done
for old in results/*.csv; do
  if [[ ! -f "$work/csv/$(basename "$old")" ]]; then
    tables=1
    echo "$old: repro no longer writes it"
    [[ "$CHECK" -eq 1 ]] || rm "$old"
  fi
done
[[ "$tables" -eq 1 ]] || echo "tables: unchanged"

if [[ "$CHECK" -eq 1 && ("$moved" -eq 1 || "$status" -eq 10 || "$tables" -eq 1) ]]; then
  echo "repin.sh --check: the simulated clock moved (diff above); run scripts/repin.sh" >&2
  exit 1
fi
