#!/usr/bin/env bash
# Repo verification gate: formatting, lints, rustdoc with warnings denied
# (an intra-doc link to a renamed or private item fails), then the tier-1 suite
# (ROADMAP.md: `cargo build --release && cargo test -q`), the round-loop
# engines' goldens and crash grids and the serve plane's contracts again in
# a release build, the kernel plane's oracle suites in a release build on
# one and on two threads, and the repo benchmark's own self-tests + smoke
# walk (benchmark/ is a package of its own that builds against the crates'
# public API: an API break must fail here, not in the acceptance pipeline),
# and — in full mode — the chaos/resilience recovery grids, the
# checkpoint/serve/comm/emst sweeps, the benchmark gate (a fresh
# `benchmark run --seed 42` compared against
# results/benchmark_baseline.json) and `scripts/repin.sh --check` (the
# goldens, the baseline's simulated rows and results/*.csv are what the
# code computes). The paper's shape checks (Figures 5 and 8, Table 3) are
# tier-1 tests over the committed results/*.csv (tests/paper_shapes.rs),
# so they run in both modes; the re-pin check proves those files current.
#
# Usage: scripts/verify.sh [--quick]
#   --quick  lints + rustdoc + debug tests + the release-mode engine, serve-plane and
#            kernel-plane tests + benchmark self-tests only: skips the
#            release build, the chaos and resilience sweeps, the repro
#            sweeps (checkpoint, serve, comm, emst), the benchmark gate and
#            the re-pin check.
#            This is the PR gate in CI; the full run gates pushes to main.
#
# Shellcheck-clean: CI lints this file (and every script here) with
# shellcheck on each PR.

set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

BENCH=(cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml --)

# The benchmark gate: `compare BASELINE RESULT`, report in target/. Both
# files are on seed 42, so `compare` holds the simulated clock to 1 %. It
# fails on a compare error (exit other than 0 or 1), on a `regressed`
# sim_time_s, sim_latency_p90_s or failed_frac line, and on a workload
# missing from RESULT. The host-clock rows (setup_s, wall_s, peak_rss_mb)
# are printed, not gated: the baseline was not measured on this host.
bench_gate() {
  local baseline=$1 result=$2 report=target/bench-compare.txt status=0
  mkdir -p target
  "${BENCH[@]}" compare "$baseline" "$result" >"$report" || status=$?
  cat "$report"
  if [[ "$status" -gt 1 ]]; then
    echo "bench gate: compare failed (exit $status)" >&2
    return 1
  fi
  if grep -E ' (sim_time_s|sim_latency_p90_s|failed_frac) .* regressed$|missing from B$' "$report"; then
    echo "bench gate: the lines above regressed against $baseline" >&2
    return 1
  fi
  echo "bench gate: simulated clock and oracles hold (host-clock rows not gated)"
}

QUICK=0
for arg in "$@"; do
  case "$arg" in
    --quick)
      QUICK=1
      ;;
    -h | --help)
      sed -n '2,24p' "$0" | sed 's/^# \{0,1\}//'
      exit 0
      ;;
    *)
      echo "verify.sh: unknown argument: $arg" >&2
      exit 2
      ;;
  esac
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

if [[ "$QUICK" -eq 0 ]]; then
  echo "==> cargo build --release"
  cargo build --release
fi

echo "==> cargo test -q"
cargo test -q --workspace

# Tier-1 is a debug build (overflow checks on); the benchmark measures a
# release build (overflow checks and debug_assert! off). The round-loop
# engines do u32 slot/offset/sentinel arithmetic that differs between the
# two, so their goldens and crash grids run in both. So does the serve
# plane: its sessions' search epoch and scratch indexes are u32.
echo "==> cargo test --release (clock goldens, engine agreement, BSP chaos, serve plane)"
cargo test --release -q --test sim_clock_golden --test engine_agreement --test bsp_chaos --test serve
cargo test --release -q -p mnd-serve

# The kernel plane too, and on both sides of the thread-budget rule: tier-1
# runs it in a debug build on however many cores the runner has, the
# benchmark in a release build whose ranks take the one-thread arm, and the
# one-sweep `indComp` does u32 row/sentinel arithmetic of its own. One
# thread runs every chunk inline on the caller, two spread them.
for threads in 1 2; do
  echo "==> cargo test --release (kernel plane, RAYON_NUM_THREADS=$threads)"
  RAYON_NUM_THREADS="$threads" cargo test --release -q -p mnd-kernels \
    --test parallel_plane_oracle --test lockfree_plane --test kernel_properties
  RAYON_NUM_THREADS="$threads" cargo test --release -q -p mnd-kernels --lib boruvka::tests
  # The level-0 builder and the cut-row list do u32 cursor/index arithmetic
  # too, and the driver cuts the level-0 build into one block per kernel
  # thread: builder == CSR walk, cached cut rows == a fresh sweep, cut-row
  # walks == the full sweeps they replaced, in a release build. The run
  # merge of `absorb_all` (== the append-and-dedup reference) is in
  # cgraph::tests as well, and in filter::tests the filter's sliced
  # certification and ghost numbering (== the comparison-sorted reference):
  # on tied weights, and on the 4-rank holdings of crawl-dnc, scramble-dnc
  # and geo-knn at a quarter of the benchmark's size
  # (benchmark_density_holdings_equal_the_reference).
  RAYON_NUM_THREADS="$threads" cargo test --release -q -p mnd-kernels --lib -- \
    cgraph::tests reduce::tests filter::tests
  RAYON_NUM_THREADS="$threads" cargo test --release -q -p mnd-mst --lib -- \
    ghost::tests phases::partition::tests
  # The driver's invariants, the lent kernel threads among them (that test
  # sets its own thread counts; the others run on the one given here).
  RAYON_NUM_THREADS="$threads" cargo test --release -q -p mnd-mst --test driver_invariants
done

echo "==> benchmark self-tests + smoke walk (benchmark/ against the crates' public API)"
cargo test --release --offline --manifest-path benchmark/Cargo.toml
"${BENCH[@]}" smoke

if [[ "$QUICK" -eq 1 ]]; then
  echo "verify: OK (quick: skipped release build, chaos/resilience sweeps, repro sweeps, benchmark gate, re-pin check)"
  exit 0
fi

echo "==> chaos recovery smoke (oracle-verified crash/replay grid)"
cargo run --release -q -p mnd-bench --bin repro -- \
  --scale 65536 --nodes 4 --seed-grid 7,11 chaos

echo "==> resilience smoke (every registered engine under the same fault plans)"
cargo run --release -q -p mnd-bench --bin repro -- \
  --scale 65536 --nodes 4 --seed-grid 7,11 resilience

echo "==> checkpoint sweep smoke (cadence knob across the engine registry)"
cargo run --release -q -p mnd-bench --bin repro -- \
  --scale 65536 --nodes 4 checkpoint-sweep

echo "==> serve sweep smoke (multi-tenant serving plane, oracle-verified)"
cargo run --release -q -p mnd-bench --bin repro -- \
  --scale 65536 --nodes 4 serve-sweep

echo "==> comm sweep smoke (packed dense exchanges, filter on and off, oracle-verified)"
cargo run --release -q -p mnd-bench --bin repro -- \
  --scale 65536 --nodes 8 comm-sweep

echo "==> emst sweep smoke (geometric presets, brute-force EMST oracle)"
cargo run --release -q -p mnd-bench --bin repro -- \
  --scale 65536 --nodes 4 emst-sweep

echo "==> benchmark gate (run --seed 42 against results/benchmark_baseline.json)"
"${BENCH[@]}" run --seed 42
bench_gate results/benchmark_baseline.json benchmark/out/result.json

echo "==> re-pin check (goldens, the baseline's simulated rows and the tables are current)"
scripts/repin.sh --check

echo "verify: OK"
