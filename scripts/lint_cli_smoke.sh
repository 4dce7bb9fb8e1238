#!/usr/bin/env bash
# CLI-contract smoke test for spineless_lint, run as a ctest (label lint).
# Asserts the documented exit codes (0 clean / 1 findings / 2 config-or-IO
# error), the JSON schema_version and index-dump byte determinism.
#
#   scripts/lint_cli_smoke.sh <spineless_lint-binary> <repo-root>
set -u

BIN=$1
ROOT=$2
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "lint_cli_smoke: FAIL: $1" >&2
  exit 1
}

# --- exit 0: the shipped tree is clean ------------------------------------
"$BIN" --root="$ROOT" \
  --json="$TMP/findings.json" --index-dump="$TMP/idx1.json" >/dev/null \
  || fail "clean tree must exit 0"
grep -q '"schema_version": 3' "$TMP/findings.json" \
  || fail "findings JSON must carry schema_version 3"
grep -q '"schema_version": 2' "$TMP/idx1.json" \
  || fail "index dump must carry schema_version 2"

"$BIN" --root="$ROOT" --index-dump="$TMP/idx2.json" >/dev/null \
  || fail "second clean run must exit 0"
cmp -s "$TMP/idx1.json" "$TMP/idx2.json" \
  || fail "index dump must be byte-identical across runs"

# --- exit 1: a seeded hazard in a scratch tree ---------------------------
mkdir -p "$TMP/tree/src/sim" "$TMP/tree/tools/lint"
cp "$ROOT/tools/lint/lint.toml" "$TMP/tree/tools/lint/"
echo 'int jitter() { return rand() % 3; }' > "$TMP/tree/src/sim/bad.cc"
"$BIN" --root="$TMP/tree" >/dev/null
[ $? -eq 1 ] || fail "a finding must exit 1"

# --- exit 2: config / IO errors ------------------------------------------
"$BIN" --root="$TMP/no-such-dir" >/dev/null 2>&1
[ $? -eq 2 ] || fail "missing config must exit 2"
"$BIN" --no-such-flag >/dev/null 2>&1
[ $? -eq 2 ] || fail "unknown flag must exit 2"

echo "lint_cli_smoke: OK"
