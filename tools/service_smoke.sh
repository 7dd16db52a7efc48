#!/usr/bin/env bash
# Kill-and-restart smoke matrix for greengpud, the always-on service daemon.
#
# Drives the REAL binary over its Unix socket through the incident matrix:
#
#   golden        uninterrupted run: submit a batch, SIGTERM, graceful drain
#   pre-result    --crash-at service-pre-result:1 — a request executed but
#                 its outcome was never journaled; --resume re-executes it
#   post-admit    --crash-at service-post-admit:N — admission journaled, the
#                 client reply lost; --resume still owns the request
#   sigkill       raw SIGKILL right after the batch: torn-tail territory
#   faulted       the same pre-result crash on a flaky device, exercising
#                 the circuit breaker through the kill
#   after-reopen  a pre-result crash just after the breaker re-opened the
#                 flaky device on a failed probe: the resumed daemon must
#                 rebuild the probe's half-open claim, not just the outcomes
#   replay        greengpud --replay of the golden journal, byte-compared
#                 against the live report
#
# Every resumed report must be byte-identical (cmp) to its uninterrupted
# golden.  Determinism discipline: each batch is PAUSE ... RESUME so the
# executor claims from the complete batch — claim order then depends only
# on priorities, not on socket/executor timing.
#
# Usage: tools/service_smoke.sh [greengpud-binary] [scratch-dir]
set -eu

BIN="${1:-./build/tools/greengpud}"
DIR="${2:-$(mktemp -d /tmp/greengpud-smoke.XXXXXX)}"
mkdir -p "$DIR"
SOCK="$DIR/greengpud.sock"
DPID=0

# Priorities + a generous deadline so the batch exercises ordering, the
# deadline verdict and both simulated devices.
BATCH='PAUSE
SUBMIT bfs best-performance
SUBMIT pathfinder division priority=1
SUBMIT kmeans greengpu priority=2 deadline=900000
SUBMIT lud scaling
RESUME'

# The flaky-device configuration: device 1 drops most kernel launches and
# the policies are un-hardened, so its requests DNF and the breaker opens.
FAULT_FLAGS="--faulty-device 1 --fault-launch 0.9 --breaker-threshold 2 --breaker-probe-after 2"
# The faulted lanes run a longer batch: device 1 fails twice and opens, sits
# out two completions, then fails its probe and re-opens, with one request
# still to run after that.
FAULT_BATCH='PAUSE
SUBMIT bfs best-performance
SUBMIT pathfinder division priority=1
SUBMIT kmeans greengpu priority=2 deadline=900000
SUBMIT lud scaling
SUBMIT bfs scaling
SUBMIT pathfinder best-performance
SUBMIT lud best-performance
SUBMIT bfs division
RESUME'

start_daemon() { # $1=journal $2=report, extra flags after
  local journal="$1" report="$2"
  shift 2
  rm -f "$SOCK"
  # shellcheck disable=SC2086  # extra flags are intentionally word-split
  "$BIN" --socket "$SOCK" --journal "$journal" --report "$report" \
    --devices 2 --seed 7 "$@" &
  DPID=$!
  for _ in $(seq 1 200); do
    [ -S "$SOCK" ] && return 0
    sleep 0.05
  done
  echo "daemon never created $SOCK" >&2
  exit 1
}

submit_batch() { # $1=extra flags: the faulted configuration runs FAULT_BATCH
  local batch="$BATCH"
  [ -n "${1:-}" ] && batch="$FAULT_BATCH"
  printf '%s\n' "$batch" | "$BIN" --client --socket "$SOCK" || true
}

stats_field() { # $1=field; value from a STATS round trip (empty if daemon gone)
  printf 'STATS\n' | "$BIN" --client --socket "$SOCK" 2>/dev/null |
    tr ' ' '\n' | sed -n "s/^$1=//p"
}

# Progress is asserted, never slept for: poll the STATS journal/telemetry
# seqs until the daemon has provably journaled at least $2 records.
wait_journal_records() { # $1=field $2=minimum
  local field="$1" min="$2" value=0
  for _ in $(seq 1 200); do
    value=$(stats_field "$field")
    [ -n "$value" ] && [ "$value" -ge "$min" ] && return 0
    sleep 0.05
  done
  echo "$field stuck at '$value', want >= $min" >&2
  exit 1
}

graceful_stop() { # SIGTERM: stop admitting, finish everything, write report
  kill -TERM "$DPID"
  local rc=0
  wait "$DPID" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "graceful drain exited $rc, want 0" >&2
    exit 1
  fi
}

expect_crash() { # the armed kill-point must end the process with exit 70
  local rc=0
  wait "$DPID" || rc=$?
  if [ "$rc" -ne 70 ]; then
    echo "expected injected-crash exit 70, got $rc" >&2
    exit 1
  fi
}

check_case() { # $1=name $2=crash-arg ("sigkill" for the raw kill) $3=extra flags
  local name="$1" crash="$2" extra="$3"
  local journal="$DIR/$name.journal" report="$DIR/$name.report"
  local golden="$DIR/golden-${extra:+faulted}.report"
  rm -f "$journal" "$report"
  if [ "$crash" = "sigkill" ]; then
    start_daemon "$journal" "$report" $extra
    submit_batch "$extra"
    # Let the executor provably reach mid-batch (admissions journaled plus
    # at least one claimed outcome) so the raw kill always lands on a
    # journal with work both behind and ahead of it.
    wait_journal_records journal_records 6
    kill -9 "$DPID"
    wait "$DPID" || true
  else
    start_daemon "$journal" "$report" $extra --crash-at "$crash"
    submit_batch "$extra"
    expect_crash
  fi
  start_daemon "$journal" "$report" $extra --resume
  graceful_stop
  cmp "$golden" "$report"
  echo "OK: $name resumed byte-identical after ${crash}"
}

# -- goldens -----------------------------------------------------------------
for extra in "" "$FAULT_FLAGS"; do
  tag="golden-${extra:+faulted}"
  start_daemon "$DIR/$tag.journal" "$DIR/$tag.report" $extra
  submit_batch "$extra"
  graceful_stop
  echo "OK: $tag drained cleanly"
done
# The flaky device must actually have failed work (and the clean one carried
# the batch): otherwise the faulted lane tests nothing.
grep -q "status=failed" "$DIR/golden-faulted.report"
grep -q "status=ok" "$DIR/golden-faulted.report"

# -- kill-and-restart matrix -------------------------------------------------
check_case pre-result "service-pre-result:1" ""
# nth=4 = the batch size: the whole PAUSE-batched admission is journaled
# (nothing claimed yet), then the daemon dies before the last reply is sent.
check_case post-admit "service-post-admit:4" ""
check_case sigkill "sigkill" ""
check_case faulted-pre-result "service-pre-result:3" "$FAULT_FLAGS"
# Count the outcomes journaled up to the first failed probe (the first
# `transition=reopened` event of the golden-faulted stream) and kill at the
# next outcome: its claim is journaled, the breaker has just re-opened.
# shellcheck disable=SC2086
"$BIN" --events "$DIR/golden-faulted.journal" --devices 2 --seed 7 $FAULT_FLAGS \
  > "$DIR/events-faulted.out"
reopened_after=$(awk '/^EVENT [0-9]+ outcome /{n++} /transition=reopened/{print n; exit}' \
  "$DIR/events-faulted.out")
if [ -z "$reopened_after" ]; then
  echo "the faulted batch never re-opened a probed device" >&2
  exit 1
fi
if [ "$(grep -c '^EVENT [0-9]* outcome ' "$DIR/events-faulted.out")" -le "$reopened_after" ]; then
  echo "no request left to run after the failed probe" >&2
  exit 1
fi
check_case faulted-after-reopen "service-pre-result:$((reopened_after + 1))" "$FAULT_FLAGS"

# -- streaming telemetry ------------------------------------------------------
# A live watcher tails a full batch; progress is asserted through the STATS
# telemetry seq (4 jobs x admit/start/outcome = 12 events), and the watcher's
# EVENT transcript must be byte-identical to the offline `--events`
# regeneration of the journal.
start_daemon "$DIR/watch.journal" "$DIR/watch.report"
"$BIN" --client --socket "$SOCK" --watch --idle-timeout-ms 1200 \
  > "$DIR/watch.out" 2>/dev/null &
WPID=$!
wait_journal_records subscribers 1
submit_batch
wait_journal_records journal_records 12
wait_journal_records telemetry_seq 12
graceful_stop
wait "$WPID" || true
head -n 1 "$DIR/watch.out" | grep -q '^200 watching from=1 last=0'
grep '^EVENT ' "$DIR/watch.out" > "$DIR/watch-events.out"
"$BIN" --events "$DIR/watch.journal" --devices 2 --seed 7 > "$DIR/events.out"
cmp "$DIR/events.out" "$DIR/watch-events.out"
echo "OK: live WATCH stream is byte-identical to --events regeneration"

# -- offline replay ----------------------------------------------------------
records=$(wc -l < "$DIR/golden-.report")
"$BIN" --replay "$DIR/golden-.journal" --window "0:$((records - 1))" \
  --devices 2 --seed 7 > "$DIR/replay.out"
cmp "$DIR/golden-.report" "$DIR/replay.out"
echo "OK: full-window replay is byte-identical to the live report"

frecords=$(wc -l < "$DIR/golden-faulted.report")
"$BIN" --replay "$DIR/golden-faulted.journal" --window "2:$((frecords - 1))" \
  --devices 2 --seed 7 $FAULT_FLAGS > "$DIR/replay-faulted.out"
sed -n "3,${frecords}p" "$DIR/golden-faulted.report" > "$DIR/slice-faulted.txt"
cmp "$DIR/slice-faulted.txt" "$DIR/replay-faulted.out"
echo "OK: faulted sub-window replay matches the report slice"

if "$BIN" --replay "$DIR/golden-.journal" --window "0:999" \
    --devices 2 --seed 7 > /dev/null 2>&1; then
  echo "out-of-range replay window was accepted" >&2
  exit 1
fi
if "$BIN" --replay "$DIR/golden-.journal" --window "0:1" \
    --devices 2 --seed 8 > /dev/null 2>&1; then
  echo "replay under a foreign configuration was accepted" >&2
  exit 1
fi
echo "OK: replay refuses bad windows and foreign configurations"

echo "service smoke: all cases passed ($DIR)"
