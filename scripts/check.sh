#!/usr/bin/env bash
# One-shot CI gate: configure + build (warnings are errors), static
# analysis (ctest -L lint, with the machine-readable findings written to
# lint_findings.json for CI to consume), then the full tier-1 test suite.
#
#   scripts/check.sh              # the whole gate
#   scripts/check.sh --no-werror  # triage mode for new toolchains
#
# Exits non-zero on the first failing stage. The lint stage runs before
# the (much slower) test suite so a determinism hazard fails in seconds.
set -euo pipefail
cd "$(dirname "$0")/.."

WERROR=ON
for arg in "$@"; do
  case "$arg" in
    --no-werror)
      WERROR=OFF
      ;;
    *)
      echo "usage: scripts/check.sh [--no-werror]" >&2
      exit 2
      ;;
  esac
done

echo "== configure + build (SPINELESS_WERROR=$WERROR) =="
cmake -B build -G Ninja -DSPINELESS_WERROR="$WERROR"
cmake --build build

echo "== static checks (spineless_lint) =="
# The JSON artifacts (findings + cross-TU symbol index) are written even
# when the run is clean, so CI always has a machine-readable record; the
# exit code is the gate. --baseline makes the gate a ratchet: any finding
# not explicitly accepted in tools/lint/lint_baseline.txt (shipped empty)
# fails the run.
./build/tools/lint/spineless_lint --root=. --json=lint_findings.json \
  --index-dump=build/lint_index.json \
  --baseline=tools/lint/lint_baseline.txt
ctest --test-dir build -L lint --output-on-failure

echo "== perf smoke (reactor-engine overhead) =="
# The sharded reactor engine must stay within 10% of the serial engine on
# one core at intra_jobs=2 (the ROADMAP steady-state target is 5%; the
# gate leaves headroom for shared-CI noise). Both runs report the best of
# three timed passes, so a single descheduling blip does not fail CI.
./build/bench/bench_micro --json=perf_smoke_serial.json
./build/bench/bench_micro --intra_jobs=2 --json=perf_smoke_intra2.json
serial_eps=$(sed -n 's/.*"events_per_sec":\([0-9.eE+-]*\).*/\1/p' perf_smoke_serial.json)
intra2_eps=$(sed -n 's/.*"events_per_sec":\([0-9.eE+-]*\).*/\1/p' perf_smoke_intra2.json)
awk -v s="$serial_eps" -v p="$intra2_eps" 'BEGIN {
  if (s <= 0 || p <= 0) { print "perf smoke: missing events_per_sec"; exit 1 }
  overhead = (s - p) / s * 100
  printf "serial %.2fM events/s, intra_jobs=2 %.2fM events/s, overhead %.1f%%\n", \
         s / 1e6, p / 1e6, overhead
  if (overhead > 10.0) { print "perf smoke: 1-core overhead above 10% gate"; exit 1 }
}'

echo "== graph-build gate (make_rrg 20k) =="
# The 20k-switch RRG of the fig6 rng tier and the benchmark builds in
# ~0.07 s with the incremental open-node index; the old per-edge rescan
# of every switch took ~8 s. The 1 s gate leaves wide headroom for a slow
# host but fails if construction goes quadratic again. bench_micro reports
# the best of three builds.
awk -v s="$(sed -n 's/.*"rrg20k_build_s":\([0-9.eE+-]*\).*/\1/p' perf_smoke_serial.json)" 'BEGIN {
  if (s == "") { print "graph-build gate: missing rrg20k_build_s"; exit 1 }
  printf "make_rrg(20000,16,2,35001): %.3f s (gate 1.0 s)\n", s
  if (s + 0 > 1.0) { print "graph-build gate: 20k RRG build above 1.0 s"; exit 1 }
}'

echo "== hybrid smoke (packet/fluid co-simulation) =="
# A small hybrid cell (48-switch DRing): the binary itself asserts the
# result hash is byte-identical across intra_jobs={1,2} (exits nonzero on
# divergence); on top of that the smoke requires genuinely hybrid
# execution — nonzero packet events AND nonzero fluid windows/solves in
# every scale cell, so a regression that silently degenerates one half to
# a no-op cannot pass. Every cell's result_hash is pinned (the three
# calibration cells, and the scale cell at both intra_jobs), so drift in
# window segmentation or the fluid half fails here even when it is
# deterministic.
./build/bench/bench_hybrid --m=12 --hot_flows=64 --bg_flows=32 \
  --json_out=hybrid_smoke.json
awk '
  /"result_hash":/   { pinned[$NF]++ }
  /"events":/        { if ($NF + 0 > 0) pkt_ok = 1 }
  /"fluid_windows":/ { if ($NF + 0 > 0) windows_ok = 1 }
  /"fluid_solves":/  { if ($NF + 0 > 0) solves_ok = 1 }
  END {
    if (pinned["10451393883759705883"] != 1 ||
        pinned["16421032291759785090"] != 1 ||
        pinned["2933582600213049891"] != 1 ||
        pinned["11983990711596963945"] != 2) {
      print "hybrid smoke: a pinned result_hash is missing"; exit 1
    }
    if (!pkt_ok)     { print "hybrid smoke: zero packet events"; exit 1 }
    if (!windows_ok) { print "hybrid smoke: zero fluid windows"; exit 1 }
    if (!solves_ok)  { print "hybrid smoke: zero fluid solves"; exit 1 }
    print "hybrid smoke: result hashes pinned, packet + fluid halves live"
  }' RS=',|\n' FS=':' hybrid_smoke.json

echo "== hybrid-fault smoke (whole-network fault tolerance) =="
# Flap a seed-sampled set of whole-graph links (region, cut, and external
# alike) under long-lived flows on a 48-switch cell. The binary gates
# flow accounting (completed + stalled == flows), nonzero blackhole, and
# result-hash identity across intra_jobs; the smoke additionally requires
# that the fluid half actually saw outages in every cell AND that
# post-repair goodput recovered to >= 95% of the pre-fault peak — a
# regression that strands flows after reconvergence cannot pass. The
# intra_jobs determinism cells must also reproduce the pinned hash
# 13061288983593842921, so drift in the fluid solver, the resource layout
# or the fault re-path sampler fails here even when it is deterministic.
./build/bench/bench_hybrid --faults --m=12 --m_big=12 --hot_flows=32 \
  --bg_flows=16 --flow_bytes=2000000 --flap_ms=1 \
  --json_out=hybrid_fault_smoke.json
awk '
  /"fluid_outages":/    { cells++; if ($NF + 0 > 0) outage_ok++ }
  /"goodput_recovery":/ { if ($NF + 0 >= 0.95) recov_ok++ }
  /"result_hash":/      { if ($NF == "13061288983593842921") pinned++ }
  END {
    if (cells == 0)        { print "hybrid-fault smoke: no fault cells"; exit 1 }
    if (outage_ok < cells) { print "hybrid-fault smoke: a cell saw no fluid outage"; exit 1 }
    if (recov_ok < cells)  { print "hybrid-fault smoke: goodput recovery below 95%"; exit 1 }
    if (pinned < 3)        { print "hybrid-fault smoke: pinned hash 13061288983593842921 missing"; exit 1 }
    printf "hybrid-fault smoke: %d cells, fluid outages live, recovery >= 95%%, hash pinned\n", cells
  }' RS=',|\n' FS=':' hybrid_fault_smoke.json

echo "== serving smoke (spinelessd) =="
# The full robustness ladder at process level: SIGTERM graceful drain with
# an in-flight request, then kill -9 -> restart -> replay byte-identity
# against the persisted warm snapshot (scripts/service_drain_smoke.sh).
bash scripts/service_drain_smoke.sh ./build/tools/spinelessd/spinelessd \
  check_service_smoke
# Overload behavior over the socket: a 1-worker, 2-deep daemon hit by 12
# concurrent clients (valid, invalid, and repeated bodies — the built-in
# --connect client is deliberately lockstep, so concurrency comes from
# parallel clients) must answer every line — some `ok`, at least one
# explicit `overloaded`, the bad request as `error` — and drain cleanly
# afterwards. No crash, no hang, no silence.
SOCK=check_service_smoke/overload.sock
./build/tools/spinelessd/spinelessd --socket="$SOCK" --workers=1 \
  --queue_limit=2 > check_service_smoke/overload.out 2>&1 &
DPID=$!
for _ in $(seq 1 100); do
  grep -q '^spinelessd: ready' check_service_smoke/overload.out && break
  sleep 0.1
done
CPIDS=()
for i in $(seq 1 11); do
  printf '{"id":%d,"kind":"whatif_tm","tm":"skewed","seed_salt":%d}\n' \
    "$i" "$((i % 3))" |
    ./build/tools/spinelessd/spinelessd --connect="$SOCK" \
      > "check_service_smoke/overload_c$i.txt" &
  CPIDS+=($!)
done
printf '{"id":12,"kind":"whatif_fault"}\n' |
  ./build/tools/spinelessd/spinelessd --connect="$SOCK" \
    > check_service_smoke/overload_c12.txt &
CPIDS+=($!)
for pid in "${CPIDS[@]}"; do wait "$pid"; done
kill -TERM "$DPID" && wait "$DPID"
cat check_service_smoke/overload_c*.txt \
  > check_service_smoke/overload_answers.txt
awk '
  /"status":"ok"/         { ok++ }
  /"status":"overloaded"/ { shed++ }
  /"status":"error"/      { err++ }
  END {
    printf "serving smoke: %d ok, %d overloaded, %d error\n", ok, shed, err
    if (ok + shed + err != 12) { print "serving smoke: missing answers"; exit 1 }
    if (ok < 1)   { print "serving smoke: no ok answers"; exit 1 }
    if (shed < 1) { print "serving smoke: overload never shed"; exit 1 }
    if (err != 1) { print "serving smoke: bad request not an error"; exit 1 }
  }' check_service_smoke/overload_answers.txt

echo "== tier-1 test suite =="
ctest --test-dir build --output-on-failure

echo "check.sh: all gates green (findings: lint_findings.json)"
