#!/usr/bin/env bash
# Full reproduction driver: build, test, run every bench, and capture the
# outputs the repository's EXPERIMENTS.md is written from.
#
#   scripts/reproduce.sh              # medium scale (seconds per bench)
#   scripts/reproduce.sh --paper      # the paper's full-scale configuration
#   scripts/reproduce.sh --jobs=8     # fan experiment cells over 8 workers
#   scripts/reproduce.sh --tsan       # ThreadSanitizer pass over the
#                                     # concurrency + fault + robustness
#                                     # + service test suites
#   scripts/reproduce.sh --asan       # Address/UB-sanitizer pass over the
#                                     # full test suite
#   scripts/reproduce.sh --ubsan      # UBSan-only pass (trap-on-UB, no
#                                     # ASAN overhead) over the
#                                     # concurrency + fault + robustness
#                                     # suites
#   scripts/reproduce.sh --resume     # re-run after a crash/^C: benches
#                                     # skip journaled cells and restart
#                                     # in-flight ones from their last
#                                     # checkpoint
#
# Parallelism: every bench accepts --jobs=N (default: all hardware threads,
# or the SPINELESS_JOBS environment variable when set) and --intra_jobs=N
# (shards per simulated cell; see doc/architecture.md). Results are
# byte-identical for every jobs and intra_jobs value — per-cell seeds are
# pure functions of the cell's identity, never of scheduling order, and the
# sharded engine replays the serial event order exactly.
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE_ENV=()
JOBS_FLAG=()
RESUME_FLAG=()
TSAN=0
ASAN=0
UBSAN=0
for arg in "$@"; do
  case "$arg" in
    --paper)
      SCALE_ENV=(SPINELESS_PAPER_SCALE=1)
      echo "== paper-scale reproduction =="
      ;;
    --jobs=*)
      JOBS_FLAG=("$arg")
      ;;
    --resume)
      RESUME_FLAG=(--resume)
      echo "== resuming: finished cells come from sweep journals =="
      ;;
    --tsan)
      TSAN=1
      ;;
    --asan)
      ASAN=1
      ;;
    --ubsan)
      UBSAN=1
      ;;
  esac
done

if [[ "$TSAN" == 1 ]]; then
  # Race detection over everything that spawns threads: the experiment
  # runner, parallel table construction, the sharded engine, the fault
  # subsystem's sharded BFD sessions / incremental repairs, the
  # checkpoint/watchdog machinery, and the hybrid co-simulation window
  # loop (boundary reprogramming against live engine threads).
  cmake -B build-tsan -G Ninja -DSPINELESS_TSAN=ON
  cmake --build build-tsan
  ctest --test-dir build-tsan -L 'concurrency|fault|robustness|hybrid|service' --output-on-failure
  exit 0
fi

if [[ "$UBSAN" == 1 ]]; then
  # UBSan alone (SPINELESS_UBSAN, -fno-sanitize-recover=all) over the same
  # label set as the TSAN pass: cheap enough to run routinely, and the
  # trap-on-UB build catches signed-overflow / misaligned-load bugs the
  # combined ASAN preset would only warn about.
  cmake -B build-ubsan -G Ninja -DSPINELESS_UBSAN=ON
  cmake --build build-ubsan
  ctest --test-dir build-ubsan -L 'concurrency|fault|robustness|hybrid|service' --output-on-failure
  exit 0
fi

if [[ "$ASAN" == 1 ]]; then
  # Address + UB sanitizers (the SPINELESS_SANITIZE CMake option) over the
  # full suite — the fault injector's dynamic session arrays and the
  # incremental CSR splicing are the newest memory-layout risks.
  cmake -B build-asan -G Ninja -DSPINELESS_SANITIZE=ON
  cmake --build build-asan
  ctest --test-dir build-asan --output-on-failure
  exit 0
fi

cmake -B build
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

: > bench_output.txt
for b in build/bench/*; do
  [[ -x "$b" && -f "$b" ]] || continue
  name="$(basename "$b")"
  echo "===== $name =====" | tee -a bench_output.txt
  if [[ "$name" == bench_micro ]]; then
    # google-benchmark harness: no --jobs; the JSON smoke mode is the
    # machine-readable artifact. Run serial and the intra_jobs=2 sharded
    # cell, then refresh the committed results/BENCH_micro.json baseline.
    env "${SCALE_ENV[@]}" "$b" --json=BENCH_micro.json \
      2>/dev/null | tee -a bench_output.txt
    env "${SCALE_ENV[@]}" "$b" --intra_jobs=2 --json=BENCH_micro_intra2.json \
      2>/dev/null | tee -a bench_output.txt
    mkdir -p results
    {
      printf '{\n  "bench": "micro_baseline",\n'
      printf '  "scenario": "simulator_event_throughput dring(5,2,4) 50 flows x 200KB, 1s",\n'
      printf '  "serial": %s,\n' "$(cat BENCH_micro.json)"
      printf '  "intra_jobs_2": %s\n}\n' "$(cat BENCH_micro_intra2.json)"
    } > results/BENCH_micro.json
  elif [[ "$name" == bench_serving ]]; then
    # Refreshes the committed serving envelope; a bare run writes
    # BENCH_serving.json to the cwd like every other bench.
    env "${SCALE_ENV[@]}" "$b" "${JOBS_FLAG[@]}" "${RESUME_FLAG[@]}" \
      --json=results/BENCH_serving.json 2>/dev/null | tee -a bench_output.txt
  elif [[ "$name" == bench_scaling ]]; then
    # Scaling sweep over intra_jobs; no --jobs (the sweep IS the
    # parallelism axis under test).
    env "${SCALE_ENV[@]}" "$b" --json=BENCH_scaling.json \
      2>/dev/null | tee -a bench_output.txt
  else
    env "${SCALE_ENV[@]}" "$b" "${JOBS_FLAG[@]}" "${RESUME_FLAG[@]}" \
      2>/dev/null | tee -a bench_output.txt
  fi
done

echo
echo "Wrote test_output.txt, bench_output.txt, and per-bench BENCH_*.json"
