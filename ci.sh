#!/usr/bin/env bash
# Local CI gate: build, full test suite, lint wall, and an end-to-end smoke
# of the observability layer (E17 machine-checks Lemmas 4/7 and 10 from live
# observer output). Run from the repo root; exits non-zero on any failure.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> benchmark package smoke tier (the benchmark builds against the crates' public API)"
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> benchmark counter gate (traced smoke pass: deterministic counters must match exactly)"
# The benchmark's traced pass (`--trace 1`) replays each workload's seeded
# instance and request stream in process. Its round, guard-evaluation, move,
# frame, byte and per-event repair counters are deterministic in the seed, so
# any difference from the block below is a behaviour change: fix it, or
# re-record the block and say why in the change. Timings are not gated here;
# compare those with the pairing protocol in benchmark/README.md.
EXPECTED_COUNTERS="\
cold-udg engine.rounds 90.000000
cold-udg engine.evals 164268.000000
cold-udg engine.moves 76581.000000
cold-udg runtime.frames 21077.000000
cold-udg runtime.frames_suppressed 27433.000000
cold-udg runtime.bytes 295096.000000
cold-udg service.perturbed_mean 86.090000
cold-udg service.recovery_rounds_p99 2.000000
cold-udg service.moves_per_event 0.360000
churn-udg engine.rounds 8.000000
churn-udg engine.evals 11657.000000
churn-udg engine.moves 5275.000000
churn-udg runtime.frames 1222.000000
churn-udg runtime.frames_suppressed 2658.000000
churn-udg runtime.bytes 14664.000000
churn-udg service.perturbed_mean 88.990000
churn-udg service.recovery_rounds_p99 3.000000
churn-udg service.moves_per_event 0.425000
query-udg engine.rounds 96.000000
query-udg engine.evals 177202.000000
query-udg engine.moves 86290.000000
query-udg runtime.frames 21331.000000
query-udg runtime.frames_suppressed 25229.000000
query-udg runtime.bytes 299600.000000
query-udg service.perturbed_mean 75.255814
query-udg service.recovery_rounds_p99 2.160000
query-udg service.moves_per_event 0.325581"
ACTUAL_COUNTERS=""
for workload in cold-udg churn-udg query-udg; do
    TRACE_OUT="$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 1 --smoke --trace 1)" \
        || { echo "traced benchmark smoke of $workload failed" >&2; exit 1; }
    ACTUAL_COUNTERS+="$(echo "$TRACE_OUT" | awk -v w="$workload" \
        '$1 ~ /^(engine\.(rounds|evals|moves)|runtime\.(frames|frames_suppressed|bytes)|service\.(perturbed_mean|recovery_rounds_p99|moves_per_event))$/ {print w, $1, $2}')"$'\n'
done
if ! diff <(echo "$EXPECTED_COUNTERS") <(printf '%s' "$ACTUAL_COUNTERS"); then
    echo "benchmark counters differ from the expected block (< expected, > measured)" >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings are errors; vendored crates excluded)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace \
    --exclude rand --exclude proptest >/dev/null

echo "==> harness --quick e17 (observability smoke)"
cargo run --release -p selfstab-bench --bin harness -- --quick e17 \
    | grep -F "0 violations in total" >/dev/null \
    || { echo "E17 reported violations" >&2; exit 1; }

echo "==> sharded runtime smoke (4 shards, C4 counterexample + Theorem 1 bound)"
# Arbitrary-choice (clockwise) R2 on C4 must NOT converge on the sharded
# runtime, exactly as on the serial executor (Section 3 counterexample; the
# runtime has no cycle detection, so it hits the round limit).
cargo run --release -p selfstab-cli --bin selfstab-cli -- run --protocol smm \
    --topology cycle --n 4 --init default --propose clockwise --shards 4 --max-rounds 12 \
    | grep -F "round limit hit" >/dev/null \
    || { echo "sharded C4/clockwise should not converge" >&2; exit 1; }
# Default min-ID R2 stabilizes within Theorem 1's n+1 bound at 4 shards.
cargo run --release -p selfstab-cli --bin selfstab-cli -- run --protocol smm \
    --topology cycle --n 4 --init default --shards 4 --max-rounds 5 --format json \
    | grep -F '"legitimate": true' >/dev/null \
    || { echo "sharded C4/min-id should stabilize within n+1 rounds" >&2; exit 1; }

echo "==> active-set schedule smoke (C4 counterexample identical under pruning)"
# Active-set scheduling is pure evaluation pruning: the serial executor's
# cycle detector must still catch the clockwise-R2 period-2 oscillation on
# C4, and the sharded runtime must still hit the round limit, exactly as
# under --schedule full.
cargo run --release -p selfstab-cli --bin selfstab-cli -- run --protocol smm \
    --topology cycle --n 4 --init default --propose clockwise --schedule active \
    --max-rounds 12 \
    | grep -F "oscillates (period 2)" >/dev/null \
    || { echo "serial C4/clockwise should oscillate under --schedule active" >&2; exit 1; }
cargo run --release -p selfstab-cli --bin selfstab-cli -- run --protocol smm \
    --topology cycle --n 4 --init default --propose clockwise --schedule active \
    --shards 4 --max-rounds 12 \
    | grep -F "round limit hit" >/dev/null \
    || { echo "sharded C4/clockwise should not converge under --schedule active" >&2; exit 1; }

echo "==> chaos smoke (lossy channels keep Theorem 1; value-preserving chaos keeps the C4 livelock)"
# Min-ID SMM on C4 must still reach a legitimate matching with 20% of all
# beacon frames dropped (senders re-broadcast until ghosts are confirmed).
cargo run --release -p selfstab-cli --bin selfstab-cli -- run --protocol smm \
    --topology cycle --n 4 --init default --shards 4 --chaos drop=0.2 \
    --max-rounds 40 --format json \
    | grep -F '"legitimate": true' >/dev/null \
    || { echo "C4/min-id should converge legitimately under drop=0.2" >&2; exit 1; }
# The clockwise-C4 oscillation survives *value-preserving* chaos: duplicated
# frames never change any ghost, so the lockstep livelock persists. (Lossy
# chaos would break the symmetry and let it escape — asserted in
# crates/runtime/tests/chaos.rs.)
cargo run --release -p selfstab-cli --bin selfstab-cli -- run --protocol smm \
    --topology cycle --n 4 --init default --propose clockwise --shards 4 \
    --chaos dup=0.3 --max-rounds 12 \
    | grep -F "round limit hit" >/dev/null \
    || { echo "C4/clockwise should still livelock under dup-only chaos" >&2; exit 1; }

echo "==> harness --quick e20 (chaos resilience gate: every cell asserted legitimate)"
cargo run --release -p selfstab-bench --bin harness -- --quick e20 \
    | grep -F "E20 completed" >/dev/null \
    || { echo "E20 quick sweep failed" >&2; exit 1; }

echo "==> adversary smoke (byz containment reported; asym links still converge)"
# Two oscillating Byzantine nodes on C24: the run must report containment
# on the honest subgraph — here the adversary perturbs honest ex-partners
# at radius 1 (SMM's mutual-pointer handshake stops anything further).
cargo run --release -p selfstab-cli --bin selfstab-cli -- run --protocol smm \
    --topology cycle --n 24 --shards 4 --seed 7 --max-rounds 200 \
    --chaos byz=3+11,strat=oscillate,until=20 \
    | grep -F "radius: 1" >/dev/null \
    || { echo "byz run should report containment radius 1" >&2; exit 1; }
# Per-direction link failures at 30%: senders keep re-signaling until a
# hash round lets the frame through, so SMI still stabilizes legitimately.
cargo run --release -p selfstab-cli --bin selfstab-cli -- run --protocol smi \
    --topology grid --n 100 --shards 2 --seed 3 --chaos asym=0.3 \
    --max-rounds 400 --format json \
    | grep -F '"legitimate": true' >/dev/null \
    || { echo "SMI should converge under asym=0.3" >&2; exit 1; }
# The beacon simulator shares the fate hashing (and rejects byz=).
cargo run --release -p selfstab-cli --bin selfstab-cli -- sim --protocol smm \
    --topology grid --n 16 --seed 9 --chaos drop=0.15,asym=0.1 \
    | grep -F "quiesced: true" >/dev/null \
    || { echo "sim --chaos should quiesce under fate-hashed drops" >&2; exit 1; }
if cargo run --release -p selfstab-cli --bin selfstab-cli -- sim --protocol smm \
    --topology grid --n 16 --chaos byz=3 >/dev/null 2>&1; then
    echo "sim --chaos must reject byz=" >&2; exit 1
fi

echo "==> harness --quick e24 (Byzantine containment gate: SMM radius bounded, SMI wave grows)"
cargo run --release -p selfstab-bench --bin harness -- --quick e24 \
    | grep -F "E24 completed" >/dev/null \
    || { echo "E24 quick sweep failed" >&2; exit 1; }

echo "==> profiling + analyze smoke (record an artifact, report on it, reject a truncated one)"
# A profiled 4-shard run on C4 records a JSONL artifact next to the Chrome
# trace; analyze must exit 0 on it, name a straggler shard, and pass the
# Theorem 1 / monotone-|M| bound checks on a fault-free SMM recording.
PROFILE_DIR="$(mktemp -d)"
trap 'rm -rf "$PROFILE_DIR"' EXIT
cargo run --release -p selfstab-cli --bin selfstab-cli -- run --protocol smm \
    --topology cycle --n 4 --init default --shards 4 --max-rounds 5 \
    --profile --trace-out "$PROFILE_DIR/run.json" --metrics \
    | grep -F "profile:" >/dev/null \
    || { echo "profiled run should report its artifact path" >&2; exit 1; }
ANALYZE_OUT="$(cargo run --release -p selfstab-cli --bin selfstab-cli -- \
    analyze "$PROFILE_DIR/run.jsonl")" \
    || { echo "analyze should exit 0 on a clean artifact" >&2; exit 1; }
echo "$ANALYZE_OUT" | grep -F "straggler shard:" >/dev/null \
    || { echo "analyze should name the straggler shard" >&2; exit 1; }
echo "$ANALYZE_OUT" | grep -F "PASS rounds" >/dev/null \
    || { echo "analyze should check Theorem 1's round bound" >&2; exit 1; }
# A truncated artifact (finish event cut off) must be rejected with exit 2.
head -n 3 "$PROFILE_DIR/run.jsonl" > "$PROFILE_DIR/truncated.jsonl"
if cargo run --release -p selfstab-cli --bin selfstab-cli -- \
    analyze "$PROFILE_DIR/truncated.jsonl" >/dev/null 2>&1; then
    echo "analyze should reject a truncated artifact" >&2; exit 1
fi
# A byz-chaos recording must surface the adversary in the recovery
# timeline: per-round byz_rewrites counts read back from the artifact.
cargo run --release -p selfstab-cli --bin selfstab-cli -- run --protocol smm \
    --topology cycle --n 24 --shards 4 --seed 7 --max-rounds 200 \
    --chaos byz=3+11,strat=oscillate,until=20 \
    --profile --profile-out "$PROFILE_DIR/byz.jsonl" >/dev/null \
    || { echo "profiled byz run should exit 0" >&2; exit 1; }
cargo run --release -p selfstab-cli --bin selfstab-cli -- \
    analyze "$PROFILE_DIR/byz.jsonl" \
    | grep -F "byz_rewrites=" >/dev/null \
    || { echo "analyze should show byz rewrites in the recovery timeline" >&2; exit 1; }

echo "==> harness --quick e21 (shard-skew profiling gate: every round must carry a profile)"
cargo run --release -p selfstab-bench --bin harness -- --quick e21 \
    | grep -F "E21 completed" >/dev/null \
    || { echo "E21 quick sweep failed" >&2; exit 1; }

echo "==> service smoke (sim backend: scripted mutations, census/membership asserted, clean exit)"
# The resident service replays a deterministic mutation/query script through
# the sim environment: cut an edge of the C6 matching, crash and rejoin a
# node, then assert the census and membership answers and a settled exit.
cat > "$PROFILE_DIR/service-script.jsonl" <<'EOF'
{"op":"query","what":"status","tag":"boot"}
{"op":"mutate","kind":"edge-down","a":0,"b":1}
{"op":"mutate","kind":"node-leave","v":3}
{"op":"mutate","kind":"node-join","v":3,"attach":[2,4]}
{"op":"query","what":"membership","node":2}
{"op":"query","what":"census"}
{"op":"shutdown"}
EOF
SERVE_OUT="$(cargo run --release -p selfstab-cli --bin selfstab-cli -- serve \
    --protocol smm --topology cycle --n 6 --script "$PROFILE_DIR/service-script.jsonl" \
    --metrics --snapshot-out "$PROFILE_DIR/service-snap.json")" \
    || { echo "service sim session should exit 0" >&2; exit 1; }
echo "$SERVE_OUT" | grep -F '"tag":"boot"' >/dev/null \
    || { echo "service should echo the request tag" >&2; exit 1; }
echo "$SERVE_OUT" | grep -F '"node":2,"matched":true' >/dev/null \
    || { echo "node 2 should be matched after the churn script" >&2; exit 1; }
echo "$SERVE_OUT" | grep -F '"M":4,"A0":2,"A1":0,"PA":0,"PM":0,"PP":0,"DANGLING":0,"matched_pairs":2' >/dev/null \
    || { echo "census should report the deterministic post-churn Fig. 2 counts" >&2; exit 1; }
echo "$SERVE_OUT" | grep -F "session: outcome=client-shutdown" >/dev/null \
    || { echo "service should exit via client shutdown" >&2; exit 1; }
echo "$SERVE_OUT" | grep -F "legitimate=true" >/dev/null \
    || { echo "service must settle legitimate before exit" >&2; exit 1; }
# The --metrics table lists the telemetry track: one row per applied
# mutation, in order (the bootstrap is reported on its own line).
TABLE_KINDS="$(echo "$SERVE_OUT" | awk '/^per-event recovery:/ {t = 1; next}
    t && !/^  / {t = 0} t && $1 ~ /^[0-9]+$/ {print $2}' | paste -sd' ')"
[ "$TABLE_KINDS" = "edge-down node-leave node-join" ] \
    || { echo "--metrics table should list the script's three mutations, got '$TABLE_KINDS'" >&2; exit 1; }
grep -F '"format":"selfstab-snapshot/v1"' "$PROFILE_DIR/service-snap.json" >/dev/null \
    || { echo "shutdown should flush a versioned snapshot" >&2; exit 1; }

echo "==> flag strictness (a flag a subcommand does not read exits 2 and is named)"
# Every service drain runs the serial round kernel; `serve --shards` was
# removed, and an unread flag must fail loudly instead of running serial.
UNKNOWN_CODE=0
UNKNOWN_OUT="$(cargo run --release -p selfstab-cli --bin selfstab-cli -- serve \
    --protocol smm --topology cycle --n 6 --shards 4 \
    --script "$PROFILE_DIR/service-script.jsonl" 2>&1)" || UNKNOWN_CODE=$?
[ "$UNKNOWN_CODE" -eq 2 ] \
    || { echo "serve --shards should exit 2, got $UNKNOWN_CODE" >&2; exit 1; }
echo "$UNKNOWN_OUT" | grep -F "unknown flag --shards" >/dev/null \
    || { echo "serve should name the unknown flag --shards" >&2; exit 1; }
# Every subcommand checks its flags the same way: `run --channel-cap` was
# removed with the mailbox capacity and must fail instead of being ignored.
UNKNOWN_CODE=0
UNKNOWN_OUT="$(cargo run --release -p selfstab-cli --bin selfstab-cli -- run \
    --protocol smm --topology cycle --n 4 --shards 4 --channel-cap 8 2>&1)" || UNKNOWN_CODE=$?
[ "$UNKNOWN_CODE" -eq 2 ] \
    || { echo "run --channel-cap should exit 2, got $UNKNOWN_CODE" >&2; exit 1; }
echo "$UNKNOWN_OUT" | grep -F "unknown flag --channel-cap" >/dev/null \
    || { echo "run should name the unknown flag --channel-cap" >&2; exit 1; }

echo "==> UDS teardown regression (pending-connection shutdown must not deadlock)"
cargo test --release -q -p selfstab-service --test uds_teardown \
    || { echo "UDS teardown regression suite failed" >&2; exit 1; }

echo "==> service smoke (UDS backend: daemon + scripted client over a real socket)"
SERVICE_SOCK="$PROFILE_DIR/service.sock"
cargo run --release -p selfstab-cli --bin selfstab-cli -- serve \
    --protocol smi --topology star --n 8 --socket "$SERVICE_SOCK" \
    > "$PROFILE_DIR/service-uds.out" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -S "$SERVICE_SOCK" ] && break; sleep 0.1; done
[ -S "$SERVICE_SOCK" ] || { echo "service socket never appeared" >&2; exit 1; }
CLIENT_OUT="$(cargo run --release -p selfstab-cli --bin selfstab-cli -- client \
    --socket "$SERVICE_SOCK" --send '{"op":"query","what":"census","tag":"c"}')" \
    || { kill "$SERVE_PID" 2>/dev/null; echo "client query should exit 0" >&2; exit 1; }
echo "$CLIENT_OUT" | grep -F '"in_set":7' >/dev/null \
    || { kill "$SERVE_PID" 2>/dev/null; echo "star MIS census should be the 7 leaves" >&2; exit 1; }
cargo run --release -p selfstab-cli --bin selfstab-cli -- client \
    --socket "$SERVICE_SOCK" --send '{"op":"shutdown"}' >/dev/null \
    || { kill "$SERVE_PID" 2>/dev/null; echo "client shutdown should exit 0" >&2; exit 1; }
wait "$SERVE_PID" || { echo "service daemon should exit 0 after client shutdown" >&2; exit 1; }
grep -F "session: outcome=client-shutdown" "$PROFILE_DIR/service-uds.out" >/dev/null \
    || { echo "daemon report should record the client shutdown" >&2; exit 1; }

echo "==> telemetry smoke (live daemon: TCP scrape + UDS query agree; background snapshot resumes in 0 rounds)"
TEL_SOCK="$PROFILE_DIR/telemetry.sock"
TEL_SNAP="$PROFILE_DIR/telemetry-snap.json"
cargo run --release -p selfstab-cli --bin selfstab-cli -- serve \
    --protocol smm --topology cycle --n 6 --socket "$TEL_SOCK" \
    --telemetry-addr 127.0.0.1:0 --snapshot-every 1 --snapshot-out "$TEL_SNAP" \
    > "$PROFILE_DIR/telemetry-daemon.out" 2>&1 &
TEL_PID=$!
TEL_ADDR=""
for _ in $(seq 1 100); do
    TEL_ADDR="$(grep -oE 'telemetry: listening on [0-9.]+:[0-9]+' \
        "$PROFILE_DIR/telemetry-daemon.out" 2>/dev/null | awk '{print $4}')" || true
    [ -n "$TEL_ADDR" ] && [ -S "$TEL_SOCK" ] && break
    sleep 0.1
done
[ -n "$TEL_ADDR" ] || { kill "$TEL_PID" 2>/dev/null; echo "daemon never announced its telemetry address" >&2; exit 1; }
cargo run --release -p selfstab-cli --bin selfstab-cli -- client \
    --socket "$TEL_SOCK" --send '{"op":"mutate","kind":"edge-down","a":0,"b":1}' >/dev/null \
    || { kill "$TEL_PID" 2>/dev/null; echo "telemetry smoke mutation should exit 0" >&2; exit 1; }
cargo run --release -p selfstab-cli --bin selfstab-cli -- client \
    --socket "$TEL_SOCK" --send '{"op":"mutate","kind":"edge-up","a":0,"b":1}' >/dev/null \
    || { kill "$TEL_PID" 2>/dev/null; echo "telemetry smoke mutation should exit 0" >&2; exit 1; }
SCRAPE="$(cargo run --release -p selfstab-cli --bin selfstab-cli -- client --scrape "$TEL_ADDR")" \
    || { kill "$TEL_PID" 2>/dev/null; echo "client --scrape should exit 0 against a live daemon" >&2; exit 1; }
echo "$SCRAPE" | grep -F "# TYPE selfstab_events_total counter" >/dev/null \
    || { kill "$TEL_PID" 2>/dev/null; echo "scrape must be Prometheus text exposition" >&2; exit 1; }
echo "$SCRAPE" | grep -F "selfstab_events_total 2" >/dev/null \
    || { kill "$TEL_PID" 2>/dev/null; echo "scrape should count the 2 applied events" >&2; exit 1; }
if echo "$SCRAPE" | grep -F "NaN" >/dev/null; then
    kill "$TEL_PID" 2>/dev/null; echo "exposition must never emit NaN" >&2; exit 1
fi
cargo run --release -p selfstab-cli --bin selfstab-cli -- client \
    --socket "$TEL_SOCK" --send '{"op":"query","what":"telemetry"}' \
    | grep -F '"events":2' >/dev/null \
    || { kill "$TEL_PID" 2>/dev/null; echo "UDS telemetry query must agree with the scrape" >&2; exit 1; }
cargo run --release -p selfstab-cli --bin selfstab-cli -- client \
    --socket "$TEL_SOCK" --send '{"op":"shutdown"}' >/dev/null \
    || { kill "$TEL_PID" 2>/dev/null; echo "telemetry smoke shutdown should exit 0" >&2; exit 1; }
wait "$TEL_PID" || { echo "telemetry daemon should exit 0 after client shutdown" >&2; exit 1; }
grep -F "telemetry: events=2" "$PROFILE_DIR/telemetry-daemon.out" >/dev/null \
    || { echo "daemon report should carry the telemetry summary" >&2; exit 1; }
# The background scheduler wrote snapshots while the daemon ran; a resumed
# daemon must boot from the file in 0 rounds (legitimate snapshot).
grep -F '"format":"selfstab-snapshot/v1"' "$TEL_SNAP" >/dev/null \
    || { echo "background scheduler should write a versioned snapshot" >&2; exit 1; }
grep -F "snapshots: written=" "$PROFILE_DIR/telemetry-daemon.out" >/dev/null \
    || { echo "daemon report should count background snapshots" >&2; exit 1; }
cat > "$PROFILE_DIR/resume-script.jsonl" <<'EOF'
{"op":"query","what":"status","tag":"resumed"}
{"op":"shutdown"}
EOF
RESUME_OUT="$(cargo run --release -p selfstab-cli --bin selfstab-cli -- serve \
    --protocol smm --resume "$TEL_SNAP" --script "$PROFILE_DIR/resume-script.jsonl")" \
    || { echo "serve --resume should exit 0 on the background snapshot" >&2; exit 1; }
echo "$RESUME_OUT" | grep -F "resume: protocol=smm" >/dev/null \
    || { echo "resumed daemon should report its snapshot provenance" >&2; exit 1; }
echo "$RESUME_OUT" | grep -F "bootstrap: rounds=0" >/dev/null \
    || { echo "a legitimate snapshot must reload in 0 rounds" >&2; exit 1; }
if cargo run --release -p selfstab-cli --bin selfstab-cli -- serve \
    --protocol smi --resume "$TEL_SNAP" --script "$PROFILE_DIR/resume-script.jsonl" >/dev/null 2>&1; then
    echo "resume must reject a protocol mismatch" >&2; exit 1
fi

echo "==> analyze --window smoke (service artifact: rolling tables, bound gate, exit codes)"
# --metrics and --profile-out share one read of the telemetry track.
cargo run --release -p selfstab-cli --bin selfstab-cli -- serve \
    --protocol smm --topology cycle --n 6 --script "$PROFILE_DIR/service-script.jsonl" \
    --metrics --profile-out "$PROFILE_DIR/service-profile.jsonl" >/dev/null \
    || { echo "profiled service session should exit 0" >&2; exit 1; }
WINDOW_OUT="$(cargo run --release -p selfstab-cli --bin selfstab-cli -- \
    analyze "$PROFILE_DIR/service-profile.jsonl" --window 2)" \
    || { echo "analyze --window should exit 0 on a clean service artifact" >&2; exit 1; }
echo "$WINDOW_OUT" | grep -F "rolling recovery latency (window 2 event(s))" >/dev/null \
    || { echo "analyze --window should render the rolling table" >&2; exit 1; }
echo "$WINDOW_OUT" | grep -F "PASS per-event recovery" >/dev/null \
    || { echo "analyze should gate the per-event n+2 recovery bound" >&2; exit 1; }
# --window 0 is a usage error (exit 2), and an artifact claiming a recovery
# beyond n+2 must gate with exit 1.
if cargo run --release -p selfstab-cli --bin selfstab-cli -- \
    analyze "$PROFILE_DIR/service-profile.jsonl" --window 0 >/dev/null 2>&1; then
    echo "analyze --window 0 must be rejected" >&2; exit 1
fi
sed -E 's/"recovery_rounds":[0-9]+/"recovery_rounds":99/' \
    "$PROFILE_DIR/service-profile.jsonl" > "$PROFILE_DIR/service-corrupt.jsonl"
if cargo run --release -p selfstab-cli --bin selfstab-cli -- \
    analyze "$PROFILE_DIR/service-corrupt.jsonl" >/dev/null 2>&1; then
    echo "analyze must exit 1 when per-event recovery exceeds n+2" >&2; exit 1
fi

echo "ci.sh: all gates passed"
