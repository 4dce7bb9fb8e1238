#!/usr/bin/env bash
# SIGKILL-mid-run recovery smoke test.
#
# Runs a small resumable bench sweep three ways, one cell at a time
# (--jobs=1):
#   1. clean, uninterrupted;
#   2. with --resume, SIGKILLed as soon as the sweep journal holds its
#      first finished cell (per-cell checkpoints may sit beside it);
#   3. rerun with --resume, which must decode the journaled cells and run
#      the rest.
# The resumed BENCH JSON must equal the clean one modulo wall-clock timing
# fields (wall_s, total_wall_s, events_per_sec, table_build_s,
# path_sample_s).
#
# KILLED_ARGS (optional environment) adds flags to the killed run only, so
# its journal and checkpoints belong to another configuration: the resumed
# run must discard them rather than reuse them, and still equal the clean
# run.
#
# Usage: [KILLED_ARGS="..."] kill_resume_smoke.sh <bench binary> <work dir>
#        [bench args...]
set -u

BENCH="$1"
DIR="$2"
shift 2
ARGS=("$@" --jobs=1)
read -r -a KILLED <<< "${KILLED_ARGS:-}"
JOURNAL=kill.json.sweep.journal

rm -rf "$DIR"
mkdir -p "$DIR"
cd "$DIR"

# Finished cells recorded in the journal (one line each, tagged "cell").
records() { grep -c $'^cell\t' "$JOURNAL" 2>/dev/null || true; }

echo "== clean run =="
"$BENCH" "${ARGS[@]}" --json_out=clean.json >/dev/null 2>&1 \
  || { echo "FAIL: clean run exited non-zero"; exit 1; }

echo "== killed run =="
rm -f kill.json "$JOURNAL"*
"$BENCH" "${ARGS[@]}" ${KILLED[@]+"${KILLED[@]}"} --json_out=kill.json \
  --resume >/dev/null 2>&1 &
PID=$!
while [[ "$(records)" -lt 1 ]]; do
  if ! kill -0 "$PID" 2>/dev/null; then
    echo "FAIL: the run exited before its journal held a finished cell"
    exit 1
  fi
  sleep 0.01
done
kill -9 "$PID" 2>/dev/null
wait "$PID" 2>/dev/null
KEPT=$(records)
if [[ "$KEPT" -lt 1 ]]; then
  echo "FAIL: the run finished before the kill; nothing left to resume"
  exit 1
fi
echo "killed with $KEPT journaled cell(s)"

echo "== resumed run =="
"$BENCH" "${ARGS[@]}" --json_out=kill.json --resume >/dev/null 2>&1 \
  || { echo "FAIL: resumed run exited non-zero"; exit 1; }

# Recovery artifacts must be cleaned up after a completed sweep.
if ls "$JOURNAL"* >/dev/null 2>&1; then
  echo "FAIL: journal/checkpoints left behind after a completed sweep"
  exit 1
fi

python3 - <<'EOF'
import json, sys

STRIP = {"wall_s", "total_wall_s", "events_per_sec", "table_build_s",
         "path_sample_s"}

def norm(path):
    with open(path) as f:
        d = json.load(f)
    d.pop("total_wall_s", None)
    for cell in d["cells"]:
        for k in list(cell):
            if k in STRIP:
                del cell[k]
    return d

clean, resumed = norm("clean.json"), norm("kill.json")
if clean != resumed:
    print("FAIL: resumed BENCH JSON differs from the clean run")
    print("clean:  ", json.dumps(clean, indent=1)[:2000])
    print("resumed:", json.dumps(resumed, indent=1)[:2000])
    sys.exit(1)
print("PASS: resumed run identical to clean run (modulo timing fields)")
EOF
