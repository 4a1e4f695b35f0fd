#!/bin/sh
# Full pre-merge gate: build everything, run the test suites, lint every
# built-in view-definition scenario, and smoke the telemetry pipeline —
# the bench harness and the trace exporter must keep emitting JSON that
# parses and carries the keys downstream tooling consumes.
#
# Every step runs even when an earlier one fails, so one broken gate
# cannot hide the state of the others; the command of each failing step
# is printed, and the script exits non-zero at the end if any failed.
set -u
cd "$(dirname "$0")/.." || exit 1

failed=""

# Run one step (a shell command line, so pipes and redirections work);
# on failure, report it and remember it for the final summary.
step() {
  if ! eval "$1"; then
    echo "check.sh: step failed: $1" >&2
    failed="$failed
  $1"
  fi
}

step "dune build @all"
# The whole suite and the oracle fuzz budget run three times:
# sequential (the default), with a 2-domain pool (one worker — the
# asymmetric case where steals and helping awaits are most likely),
# and with the engine fanning views out over a 4-domain pool, so both
# parallel axes (per-view fan-out and intra-view sharding) are
# exercised by every test and every fuzzed stream.  The fuzz gate
# replays fixed-seed random transaction streams against the naive
# full-recompute oracle (see lib/oracle); a failure prints a shrunk,
# replayable counterexample.  Generated streams declare full-tuple
# candidate keys and draw the forced Self_maintain strategy, so the
# certified zero-base-read path is lockstep-checked here too.
for d in 1 2 4; do
  step "IVM_DOMAINS=$d dune runtest --force"
  step "dune exec bin/ivm_cli.exe -- fuzz --seed 1986 --streams 50 \
    --transactions 40 --domains $d --quiet"
  # Fault-injection gate: the same fixed-seed streams replayed with
  # faults raised at maintenance phase boundaries, alternating the abort
  # and quarantine policies; every commit must either succeed, roll back
  # to a state bit-identical to the oracle's pre-commit copy, or
  # quarantine views that self-heal before the stream ends.
  step "dune exec bin/ivm_cli.exe -- fuzz --seed 1986 --streams 50 \
    --transactions 40 --domains $d --fault-rate 0.05 --quiet"
  # Aggregate arm: the same lockstep gate with GROUP BY views
  # (COUNT/SUM/AVG/MIN/MAX payload rings) and 2-level view towers drawn
  # into every stream, plain and under fault injection.
  step "dune exec bin/ivm_cli.exe -- fuzz --seed 1986 --streams 25 \
    --transactions 40 --domains $d --aggregates --quiet"
  step "dune exec bin/ivm_cli.exe -- fuzz --seed 1986 --streams 25 \
    --transactions 40 --domains $d --aggregates --fault-rate 0.05 --quiet"
  # Crash-recovery gate (domains 1 and 4): the same streams run with a
  # WAL and kill-points armed at the append/fsync/checkpoint/truncate
  # boundaries, plus torn tails injected at arbitrary byte offsets into
  # the surviving log.  Every crash must recover to a state
  # bit-identical to an oracle that replayed the durable prefix, twice
  # (recovery is idempotent), before the stream resumes.  The second run
  # draws GROUP BY views and towers, so grouped inner state goes through
  # kill-point recovery too.
  if [ "$d" -ne 2 ]; then
    step "dune exec bin/ivm_cli.exe -- fuzz --seed 1986 --streams 25 \
      --transactions 30 --domains $d --crash --quiet"
    step "dune exec bin/ivm_cli.exe -- fuzz --seed 1986 --streams 25 \
      --transactions 30 --domains $d --crash --aggregates --quiet"
  fi
  # Provenance smoke: the explain pipeline must replay the paper demo
  # (screening rules, keyed drain, certificate fallback) and emit
  # parseable JSON, and the OpenMetrics exposition must end in # EOF.
  step "dune exec bin/ivm_cli.exe -- explain --domains $d > /dev/null"
  step "dune exec bin/ivm_cli.exe -- explain --domains $d --json \
    | grep -q '\"IVM051:keyed-drain\"'"
  step "dune exec bin/ivm_cli.exe -- metrics --transactions 10 --domains $d \
    | tail -1 | grep -q '^# EOF'"
done
# Paper walkthrough and example programs: `example` commits Example
# 4.1's insertion of (9,10) through the manager and must show the new
# view row (9, 20); each example program prints its verdict against full
# re-evaluation, which must read true.
step "dune exec bin/ivm_cli.exe -- example | grep -q '| 9 | 20 |'"
step "dune exec examples/quickstart.exe \
  | grep -q 'consistent with full re-evaluation: true\$'"
step "dune exec examples/realtime_dashboard.exe \
  | grep -q 'all views consistent with full re-evaluation: true\$'"
step "dune exec examples/snapshot_refresh.exe \
  | grep -q 'rows; consistent: true\$'"

# Cross-history byte identity: one seeded stream, checkpointed every 100
# records and then recovered (checkpoint decoded, 50 records replayed,
# closing checkpoint rewritten), must leave the same checkpoint bytes as
# the stream checkpointed live at its last record; wal_dump must read
# the recovered directory.
ckp="${TMPDIR:-/tmp}/ivm-check-ckp-$$"
rm -rf "$ckp"
mkdir -p "$ckp"
step "dune exec bin/ivm_cli.exe -- stream --wal $ckp/a --transactions 250 \
  --checkpoint-every 100 --seed 7 > /dev/null"
step "dune exec bin/ivm_cli.exe -- recover --wal $ckp/a --seed 7 \
  | grep -q '^consistent: true\$'"
step "dune exec bin/ivm_cli.exe -- stream --wal $ckp/b --transactions 250 \
  --checkpoint-every 250 --seed 7 > /dev/null"
step "cmp $ckp/a/checkpoint.bin $ckp/b/checkpoint.bin"
step "dune exec tools/wal_dump.exe -- $ckp/a > /dev/null"
rm -rf "$ckp"

step "dune exec bin/ivm_cli.exe -- lint --all-scenarios"

# Lint gate, machine-readable: the JSON report over the built-in
# scenarios must carry no Error-level diagnostics and must show the
# IVM05x self-maintainability band (proof the analysis still runs).
step "dune exec bin/ivm_cli.exe -- lint --all-scenarios --json > lint.json"
step "dune exec tools/validate_snapshot.exe -- lint lint.json"

# IVM06x exit contract: a clean GROUP BY definition lints with the
# MIN/MAX rescan hint at exit 0; an aggregate over a missing attribute
# is an IVM060 Error and must exit 1, in --json mode too.
step "dune exec bin/ivm_cli.exe -- lint --dir data --json \
  \"SELECT B, COUNT(*) AS CNT, MIN(A) AS MIN_A FROM R GROUP BY B\" \
  | grep -q '\"IVM063\"'"
step "! dune exec bin/ivm_cli.exe -- lint --dir data --json \
  \"SELECT B, SUM(Z) AS SUM_Z FROM R GROUP BY B\" > lint_bad.json"
step "grep -q '\"IVM060\"' lint_bad.json"
rm -f lint_bad.json

# Bench smoke: one cheap section; every run also writes BENCH_IVM.json.
# The validator checks it against the field table in Obs.Snapshot_diff
# and prints every failing row: the shape, the E20-E25 budgets and
# must-beats, and the E23 scaling floor (1.0x at 2 sharded domains,
# 1.5x at 4), which holds only where cores_available covers the domain
# count; elsewhere the row is skipped with a printed warning.  The
# committed baseline is held to the same table.
step "dune exec bench/main.exe -- tables > /dev/null"
step "dune exec tools/validate_snapshot.exe -- bench BENCH_IVM.json"
step "dune exec tools/validate_snapshot.exe -- bench \
  bench/BENCH_IVM.baseline.json"

# Regression gate: the fresh snapshot against the committed baseline,
# through the same table.  Deterministic fields (commit counts,
# screening ratios, advisor and self-maintenance coverage) and gates the
# baseline passes gate; timing fields and budgets are noted only, since
# the baseline was recorded on different hardware.  The self-test first
# proves the gate still catches a synthetically degraded snapshot.
step "dune exec tools/bench_diff.exe -- --self-test BENCH_IVM.json > /dev/null"
step "dune exec tools/bench_diff.exe -- bench/BENCH_IVM.baseline.json \
  BENCH_IVM.json --ignore-timing"

# Trace smoke: run a built-in scenario and validate the Chrome trace.
step "dune exec bin/ivm_cli.exe -- trace --scenario orders --transactions 20 \
  --out trace.json > /dev/null"
step "dune exec tools/validate_snapshot.exe -- trace trace.json"

if [ -n "$failed" ]; then
  echo "check.sh: failed steps:$failed" >&2
  exit 1
fi
echo "check.sh: every step passed"
