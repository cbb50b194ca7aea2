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

echo "==> sharded fault-path pin (frame chaos, Byzantine writes, asymmetric links, crash-restart)"
# Frame chaos has no serial reference, so no oracle pins these runtime paths
# exactly; this block does. Three runs (schedule/crashes): both schedules
# with a crash inside the asymmetric-link window, and the active schedule
# with a second crash after it, where the crashed shard's worklist must be
# re-seeded. Per run: the outcome, moves, recovery and containment lines,
# and each round's --metrics columns from `round` to `links down` (table
# fields 2-24) except `max chan depth` (field 17), which depends on thread
# timing. A change that moves them must re-record the block (run the loop
# below and copy its output) and say why.
EXPECTED_FAULT_PATHS="\
active/1@5 outcome:   stabilized after 45 rounds (bound-style budget 8016)
active/1@5 moves: R1:accept=964 R2:propose=13754 R3:back-off=15078 R0:reset=0
active/1@5 recovery: stabilized 24 rounds after the last injected fault
active/1@5 containment: honest core legitimate: false; perturbed honest nodes: 2; radius: 1
active/1@5 0(init) — — — 40 13 29 42 36 1840 0 20 — — — — — — — — — —
active/1@5 1 1915 2000 1915 98 1875 2 2 22 1 0 49 867 42 10496 131 42 121 18 0 2 9815
active/1@5 2 1898 2000 1898 158 20 0 0 972 850 0 79 897 55 14316 115 47 99 17 0 2 9747
active/1@5 3 1626 2000 1626 158 1525 79 109 114 15 0 79 716 395 8864 79 37 87 18 0 2 9826
active/1@5 4 1710 2000 1710 320 105 0 0 966 609 0 160 861 224 13516 91 46 88 21 0 2 9588
active/1@5 5 1507 2000 1507 330 1334 68 106 134 28 0 165 665 438 8412 62 32 73 10 0 2 9776
active/1@5 6 1619 2000 1619 368 519 48 73 605 387 0 184 924 110 13556 118 62 98 20 1 2 9692
active/1@5 7 1454 2000 1454 452 844 42 53 314 295 0 226 738 312 10328 88 43 75 14 0 2 9608
active/1@5 8 1427 2000 1427 544 512 28 37 539 340 0 272 722 394 10524 63 35 73 12 0 2 9629
active/1@5 9 1317 2000 1317 606 724 51 74 351 194 0 303 646 459 9100 63 26 52 12 0 2 9656
active/1@5 10 1239 2000 1239 708 445 20 31 488 308 0 354 617 499 9028 61 38 53 11 0 2 9726
active/1@5 11 1184 2000 1184 750 672 47 69 282 180 0 375 575 498 8016 59 32 71 11 0 2 9732
active/1@5 12 1129 2000 1129 848 385 24 35 474 234 0 424 545 540 7992 60 28 55 14 0 2 9731
active/1@5 13 1015 2000 1015 906 569 38 54 318 115 0 453 515 615 7204 48 27 39 8 0 2 9701
active/1@5 14 982 2000 982 998 362 13 23 368 236 0 499 485 609 7076 56 24 48 14 0 2 9741
active/1@5 15 922 2000 922 1044 514 31 36 222 153 0 522 437 661 6152 44 27 43 10 0 2 9759
active/1@5 16 875 2000 875 1138 307 21 35 334 165 0 569 435 675 6344 45 27 39 14 0 2 9593
active/1@5 17 764 2000 764 1188 404 32 45 232 99 0 594 388 720 5508 35 24 43 7 0 2 9642
active/1@5 18 731 2000 731 1268 273 22 33 239 165 0 634 380 738 5484 31 27 36 9 0 2 9646
active/1@5 19 654 2000 654 1330 349 17 28 193 83 0 665 354 759 5068 28 15 36 8 0 2 9762
active/1@5 20 603 2000 603 1390 224 11 20 217 138 0 695 292 806 4220 37 13 33 3 0 2 9626
active/1@5 21 556 2000 556 1428 294 27 30 114 107 0 714 335 820 4752 0 0 0 0 0 2 9817
active/1@5 22 541 2000 541 1502 222 0 0 184 92 0 751 343 809 4876 0 0 0 0 0 0 0
active/1@5 23 495 1999 495 1548 279 0 0 123 50 0 774 300 819 4204 0 0 0 0 0 0 0
active/1@5 24 452 1999 452 1600 173 0 0 165 62 0 800 272 847 3860 0 0 0 0 0 0 0
active/1@5 25 395 1999 395 1626 232 0 0 81 61 0 813 245 874 3420 0 0 0 0 0 0 0
active/1@5 26 371 1991 371 1678 145 0 0 127 50 0 839 228 891 3240 0 0 0 0 0 0 0
active/1@5 27 321 1974 321 1696 178 0 0 74 52 0 848 199 920 2804 0 0 0 0 0 0 0
active/1@5 28 298 1960 298 1730 132 0 0 78 60 0 865 183 936 2568 0 0 0 0 0 0 0
active/1@5 29 266 1894 266 1742 142 0 0 46 70 0 871 164 955 2332 0 0 0 0 0 0 0
active/1@5 30 250 1884 250 1776 124 0 0 62 38 0 888 152 967 2100 0 0 0 0 0 0 0
active/1@5 31 218 1870 218 1788 106 0 0 64 42 0 894 140 979 2020 0 0 0 0 0 0 0
active/1@5 32 205 1785 205 1812 113 0 0 45 30 0 906 134 985 1828 0 0 0 0 0 0 0
active/1@5 33 181 1770 181 1832 82 0 0 52 34 0 916 120 999 1756 0 0 0 0 0 0 0
active/1@5 34 159 1728 159 1858 95 0 0 31 16 0 929 100 1019 1356 0 0 0 0 0 0 0
active/1@5 35 131 1686 131 1878 58 0 0 42 22 0 939 83 1036 1228 0 0 0 0 0 0 0
active/1@5 36 108 1608 108 1894 78 0 0 20 8 0 947 71 1048 964 0 0 0 0 0 0 0
active/1@5 37 90 1406 90 1920 44 0 0 29 7 0 960 57 1062 844 0 0 0 0 0 0 0
active/1@5 38 62 1311 62 1932 54 0 0 12 2 0 966 40 1079 548 0 0 0 0 0 0 0
active/1@5 39 49 1125 49 1950 33 0 0 14 3 0 975 34 1085 496 0 0 0 0 0 0 0
active/1@5 40 30 1019 30 1954 37 0 0 7 2 0 977 21 1098 300 0 0 0 0 0 0 0
active/1@5 41 23 761 23 1966 32 0 0 1 1 0 983 14 1105 192 0 0 0 0 0 0 0
active/1@5 42 11 618 11 1970 25 0 0 3 2 0 985 8 1111 128 0 0 0 0 0 0 0
active/1@5 43 7 308 7 1972 28 0 0 0 0 0 986 6 1113 72 0 0 0 0 0 0 0
active/1@5 44 5 231 5 1976 23 0 0 1 0 0 988 6 1113 96 0 0 0 0 0 0 0
active/1@5 45 1 156 1 1976 24 0 0 0 0 0 988 1 1118 12 0 0 0 0 0 0 0
full/1@5 outcome:   stabilized after 45 rounds (bound-style budget 8016)
full/1@5 moves: R1:accept=972 R2:propose=13811 R3:back-off=15144 R0:reset=0
full/1@5 recovery: stabilized 24 rounds after the last injected fault
full/1@5 containment: honest core legitimate: false; perturbed honest nodes: 2; radius: 1
full/1@5 0(init) — — — 40 13 29 42 36 1840 0 20 — — — — — — — — — —
full/1@5 1 1915 2000 1915 98 1875 2 2 22 1 0 49 902 0 11056 136 43 124 21 0 2 9815
full/1@5 2 1898 2000 1898 158 20 0 0 972 850 0 79 946 0 15092 118 49 104 19 0 2 9747
full/1@5 3 1626 2000 1626 158 1525 79 109 114 15 0 79 1061 0 13628 113 55 124 27 0 2 9826
full/1@5 4 1710 2000 1710 320 105 0 0 966 609 0 160 1044 0 16412 116 53 116 26 0 2 9588
full/1@5 5 1507 2000 1507 330 1334 68 106 134 28 0 165 1073 0 14188 110 51 111 21 0 2 9776
full/1@5 6 1619 2000 1619 368 519 48 73 605 387 0 184 1039 0 15372 129 68 108 22 1 2 9692
full/1@5 7 1454 2000 1454 452 844 42 53 314 295 0 226 1019 0 14556 126 60 111 23 0 2 9608
full/1@5 8 1427 2000 1427 544 512 28 37 539 340 0 272 1070 0 15852 99 52 110 21 0 2 9629
full/1@5 9 1317 2000 1317 606 724 51 74 351 194 0 303 1081 0 15736 108 50 91 21 0 2 9656
full/1@5 10 1239 2000 1239 708 445 20 31 488 308 0 354 1081 0 16220 117 64 95 27 0 2 9726
full/1@5 11 1184 2000 1184 750 672 47 69 282 180 0 375 1025 0 15004 102 48 131 21 0 2 9732
full/1@5 12 1131 2000 1131 848 388 23 34 473 234 0 424 1043 0 15744 123 57 105 25 0 2 9731
full/1@5 13 1016 2000 1016 904 568 38 54 318 118 0 452 1111 0 16464 103 64 100 13 0 2 9701
full/1@5 14 984 2000 984 996 365 13 24 367 235 0 498 1065 0 16164 108 56 107 28 0 2 9741
full/1@5 15 923 2000 923 1040 513 30 35 217 165 0 520 1079 0 16216 109 64 95 29 0 2 9759
full/1@5 16 880 2000 880 1134 313 22 37 351 143 0 567 1053 0 16064 119 63 117 29 0 2 9593
full/1@5 17 766 2000 766 1186 401 30 40 225 118 0 593 1042 0 15808 115 53 110 22 0 2 9642
full/1@5 18 737 2000 737 1264 281 25 42 219 169 0 632 1093 0 16680 100 71 114 25 0 2 9646
full/1@5 19 651 2000 651 1326 333 19 30 175 117 0 663 1075 0 16532 100 57 111 20 0 2 9762
full/1@5 20 605 2000 605 1382 237 14 24 190 153 0 691 1069 0 16440 117 70 117 20 0 2 9626
full/1@5 21 558 2000 558 1422 277 29 41 93 138 0 711 1230 0 18976 0 0 0 0 0 2 9817
full/1@5 22 536 2000 536 1498 232 0 0 179 91 0 749 1236 0 19056 0 0 0 0 0 0 0
full/1@5 23 499 2000 499 1544 273 0 0 132 51 0 772 1119 0 17328 0 0 0 0 0 0 0
full/1@5 24 456 2000 456 1590 183 0 0 149 78 0 795 1119 0 17372 0 0 0 0 0 0 0
full/1@5 25 405 2000 405 1616 232 0 0 89 63 0 808 1119 0 17388 0 0 0 0 0 0 0
full/1@5 26 381 2000 381 1662 155 0 0 121 62 0 831 1119 0 17432 0 0 0 0 0 0 0
full/1@5 27 337 2000 337 1680 184 0 0 75 61 0 840 1119 0 17516 0 0 0 0 0 0 0
full/1@5 28 317 2000 317 1724 139 0 0 97 40 0 862 1119 0 17492 0 0 0 0 0 0 0
full/1@5 29 274 2000 274 1742 139 0 0 69 50 0 871 1119 0 17620 0 0 0 0 0 0 0
full/1@5 30 250 2000 250 1780 127 0 0 54 39 0 890 1119 0 17540 0 0 0 0 0 0 0
full/1@5 31 213 2000 213 1792 100 0 0 47 61 0 896 1119 0 17688 0 0 0 0 0 0 0
full/1@5 32 199 2000 199 1820 117 0 0 40 23 0 910 1119 0 17568 0 0 0 0 0 0 0
full/1@5 33 171 2000 171 1832 72 0 0 55 41 0 916 1119 0 17756 0 0 0 0 0 0 0
full/1@5 34 157 2000 157 1854 107 0 0 23 16 0 927 1119 0 17596 0 0 0 0 0 0 0
full/1@5 35 135 2000 135 1872 50 0 0 48 30 0 936 1119 0 17816 0 0 0 0 0 0 0
full/1@5 36 113 2000 113 1892 93 0 0 14 1 0 946 1119 0 17648 0 0 0 0 0 0 0
full/1@5 37 93 2000 93 1912 30 0 0 38 20 0 956 1119 0 17860 0 0 0 0 0 0 0
full/1@5 38 68 2000 68 1916 78 0 0 6 0 0 958 1119 0 17704 0 0 0 0 0 0 0
full/1@5 39 64 2000 64 1938 26 0 0 30 6 0 969 1119 0 17856 0 0 0 0 0 0 0
full/1@5 40 40 2000 40 1940 58 0 0 2 0 0 970 1119 0 17764 0 0 0 0 0 0 0
full/1@5 41 37 2000 37 1960 25 0 0 13 2 0 980 1119 0 17856 0 0 0 0 0 0 0
full/1@5 42 17 2000 17 1962 38 0 0 0 0 0 981 1119 0 17828 0 0 0 0 0 0 0
full/1@5 43 13 2000 13 1972 25 0 0 2 1 0 986 1119 0 17848 0 0 0 0 0 0 0
full/1@5 44 3 2000 3 1972 28 0 0 0 0 0 986 1119 0 17848 0 0 0 0 0 0 0
full/1@5 45 2 2000 2 1974 26 0 0 0 0 0 987 1119 0 17848 0 0 0 0 0 0 0
active/1@5,2@25 outcome:   stabilized after 93 rounds (bound-style budget 8016)
active/1@5,2@25 moves: R1:accept=1072 R2:propose=28135 R3:back-off=29672 R0:reset=0
active/1@5,2@25 recovery: stabilized 67 rounds after the last injected fault
active/1@5,2@25 containment: honest core legitimate: false; perturbed honest nodes: 2; radius: 1
active/1@5,2@25 0(init) — — — 40 13 29 42 36 1840 0 20 — — — — — — — — — —
active/1@5,2@25 1 1915 2000 1915 98 1875 2 2 22 1 0 49 867 42 10496 131 42 121 18 0 2 9815
active/1@5,2@25 2 1898 2000 1898 158 20 0 0 972 850 0 79 897 55 14316 115 47 99 17 0 2 9747
active/1@5,2@25 3 1626 2000 1626 158 1525 79 109 114 15 0 79 716 395 8864 79 37 87 18 0 2 9826
active/1@5,2@25 4 1710 2000 1710 320 105 0 0 966 609 0 160 861 224 13516 91 46 88 21 0 2 9588
active/1@5,2@25 5 1507 2000 1507 330 1334 68 106 134 28 0 165 665 438 8412 62 32 73 10 0 2 9776
active/1@5,2@25 6 1619 2000 1619 368 519 48 73 605 387 0 184 924 110 13556 118 62 98 20 1 2 9692
active/1@5,2@25 7 1454 2000 1454 452 844 42 53 314 295 0 226 738 312 10328 88 43 75 14 0 2 9608
active/1@5,2@25 8 1427 2000 1427 544 512 28 37 539 340 0 272 722 394 10524 63 35 73 12 0 2 9629
active/1@5,2@25 9 1317 2000 1317 606 724 51 74 351 194 0 303 646 459 9100 63 26 52 12 0 2 9656
active/1@5,2@25 10 1239 2000 1239 708 445 20 31 488 308 0 354 617 499 9028 61 38 53 11 0 2 9726
active/1@5,2@25 11 1184 2000 1184 750 672 47 69 282 180 0 375 575 498 8016 59 32 71 11 0 2 9732
active/1@5,2@25 12 1129 2000 1129 848 385 24 35 474 234 0 424 545 540 7992 60 28 55 14 0 2 9731
active/1@5,2@25 13 1015 2000 1015 906 569 38 54 318 115 0 453 515 615 7204 48 27 39 8 0 2 9701
active/1@5,2@25 14 982 2000 982 998 362 13 23 368 236 0 499 485 609 7076 56 24 48 14 0 2 9741
active/1@5,2@25 15 922 2000 922 1044 514 31 36 222 153 0 522 437 661 6152 44 27 43 10 0 2 9759
active/1@5,2@25 16 875 2000 875 1138 307 21 35 334 165 0 569 435 675 6344 45 27 39 14 0 2 9593
active/1@5,2@25 17 764 2000 764 1188 404 32 45 232 99 0 594 388 720 5508 35 24 43 7 0 2 9642
active/1@5,2@25 18 731 2000 731 1268 273 22 33 239 165 0 634 380 738 5484 31 27 36 9 0 2 9646
active/1@5,2@25 19 654 2000 654 1330 349 17 28 193 83 0 665 354 759 5068 28 15 36 8 0 2 9762
active/1@5,2@25 20 603 2000 603 1390 224 11 20 217 138 0 695 292 806 4220 37 13 33 3 0 2 9626
active/1@5,2@25 21 556 2000 556 1428 294 27 30 114 107 0 714 335 820 4752 0 0 0 0 0 2 9817
active/1@5,2@25 22 541 2000 541 1502 222 0 0 184 92 0 751 343 809 4876 0 0 0 0 0 0 0
active/1@5,2@25 23 495 1999 495 1548 279 0 0 123 50 0 774 300 819 4204 0 0 0 0 0 0 0
active/1@5,2@25 24 452 1999 452 1600 173 0 0 165 62 0 800 272 847 3860 0 0 0 0 0 0 0
active/1@5,2@25 25 395 1999 395 1626 232 0 0 81 61 0 813 245 874 3420 0 0 0 0 0 0 0
active/1@5,2@25 26 1131 1995 1131 804 912 94 96 56 38 0 402 1036 83 14104 0 0 0 0 1 0 0
active/1@5,2@25 27 1100 2000 1100 1022 94 0 0 552 332 0 511 658 461 10368 0 0 0 0 0 0 0
active/1@5,2@25 28 971 1987 971 1040 891 0 0 32 37 0 520 540 579 6636 0 0 0 0 0 0 0
active/1@5,2@25 29 960 1985 960 1072 69 0 0 542 317 0 536 527 592 8332 0 0 0 0 0 0 0
active/1@5,2@25 30 926 1985 926 1084 861 0 0 28 27 0 542 506 613 6164 0 0 0 0 0 0 0
active/1@5,2@25 31 916 1984 916 1112 55 0 0 490 343 0 556 501 618 7952 0 0 0 0 0 0 0
active/1@5,2@25 32 887 1984 887 1124 834 0 0 23 19 0 562 479 640 5808 0 0 0 0 0 0 0
active/1@5,2@25 33 876 1984 876 1156 42 0 0 495 307 0 578 477 642 7584 0 0 0 0 0 0 0
active/1@5,2@25 34 843 1984 843 1170 803 0 0 17 10 0 585 456 663 5516 0 0 0 0 0 0 0
active/1@5,2@25 35 830 1984 830 1202 27 0 0 536 235 0 601 453 666 7220 0 0 0 0 0 0 0
active/1@5,2@25 36 796 1968 796 1214 773 0 0 12 1 0 607 436 683 5256 0 0 0 0 0 0 0
active/1@5,2@25 37 784 1914 784 1244 15 0 0 462 279 0 622 431 688 6892 0 0 0 0 0 0 0
active/1@5,2@25 38 752 1867 752 1250 745 0 0 5 0 0 625 416 703 4996 0 0 0 0 0 0 0
active/1@5,2@25 39 747 1834 747 1290 8 0 0 462 240 0 645 416 703 6652 0 0 0 0 0 0 0
active/1@5,2@25 40 705 1780 705 1292 707 0 0 1 0 0 646 389 730 4668 0 0 0 0 0 0 0
active/1@5,2@25 41 704 1746 704 1314 5 0 0 345 336 0 657 390 729 6240 0 0 0 0 0 0 0
active/1@5,2@25 42 681 1754 681 1314 686 0 0 0 0 0 657 375 744 4500 0 0 0 0 0 0 0
active/1@5,2@25 43 681 1732 681 1338 5 0 0 291 366 0 669 375 744 6000 0 0 0 0 0 0 0
active/1@5,2@25 44 657 1732 657 1338 662 0 0 0 0 0 669 363 756 4356 0 0 0 0 0 0 0
active/1@5,2@25 45 657 1732 657 1362 5 0 0 286 347 0 681 363 756 5808 0 0 0 0 0 0 0
active/1@5,2@25 46 633 1732 633 1362 638 0 0 0 0 0 681 354 765 4248 0 0 0 0 0 0 0
active/1@5,2@25 47 633 1732 633 1390 5 0 0 293 312 0 695 354 765 5664 0 0 0 0 0 0 0
active/1@5,2@25 48 605 1732 605 1390 610 0 0 0 0 0 695 346 773 4152 0 0 0 0 0 0 0
active/1@5,2@25 49 605 1729 605 1414 5 0 0 284 297 0 707 346 773 5536 0 0 0 0 0 0 0
active/1@5,2@25 50 581 1729 581 1414 586 0 0 0 0 0 707 333 786 3996 0 0 0 0 0 0 0
active/1@5,2@25 51 581 1729 581 1440 5 0 0 295 260 0 720 333 786 5328 0 0 0 0 0 0 0
active/1@5,2@25 52 555 1729 555 1440 560 0 0 0 0 0 720 318 801 3816 0 0 0 0 0 0 0
active/1@5,2@25 53 553 1726 553 1468 7 0 0 285 240 0 734 317 802 5072 0 0 0 0 0 0 0
active/1@5,2@25 54 525 1649 525 1468 532 0 0 0 0 0 734 300 819 3600 0 0 0 0 0 0 0
active/1@5,2@25 55 525 1649 525 1492 7 0 0 258 243 0 746 300 819 4800 0 0 0 0 0 0 0
active/1@5,2@25 56 501 1649 501 1492 508 0 0 0 0 0 746 288 831 3456 0 0 0 0 0 0 0
active/1@5,2@25 57 501 1647 501 1512 7 0 0 225 256 0 756 288 831 4608 0 0 0 0 0 0 0
active/1@5,2@25 58 481 1647 481 1512 488 0 0 0 0 0 756 278 841 3336 0 0 0 0 0 0 0
active/1@5,2@25 59 481 1647 481 1532 7 0 0 174 287 0 766 278 841 4448 0 0 0 0 0 0 0
active/1@5,2@25 60 461 1647 461 1532 468 0 0 0 0 0 766 271 848 3252 0 0 0 0 0 0 0
active/1@5,2@25 61 461 1647 461 1556 7 0 0 229 208 0 778 271 848 4336 0 0 0 0 0 0 0
active/1@5,2@25 62 437 1647 437 1556 444 0 0 0 0 0 778 260 859 3120 0 0 0 0 0 0 0
active/1@5,2@25 63 437 1644 437 1584 7 0 0 241 168 0 792 260 859 4160 0 0 0 0 0 0 0
active/1@5,2@25 64 409 1644 409 1584 416 0 0 0 0 0 792 245 874 2940 0 0 0 0 0 0 0
active/1@5,2@25 65 409 1643 409 1616 7 0 0 216 161 0 808 245 874 3920 0 0 0 0 0 0 0
active/1@5,2@25 66 377 1643 377 1616 384 0 0 0 0 0 808 230 889 2760 0 0 0 0 0 0 0
active/1@5,2@25 67 377 1638 377 1652 7 0 0 214 127 0 826 230 889 3680 0 0 0 0 0 0 0
active/1@5,2@25 68 341 1638 341 1652 348 0 0 0 0 0 826 213 906 2556 0 0 0 0 0 0 0
active/1@5,2@25 69 341 1638 341 1688 7 0 0 209 96 0 844 213 906 3408 0 0 0 0 0 0 0
active/1@5,2@25 70 305 1638 305 1688 312 0 0 0 0 0 844 190 929 2280 0 0 0 0 0 0 0
active/1@5,2@25 71 305 1612 305 1728 7 0 0 187 78 0 864 190 929 3040 0 0 0 0 0 0 0
active/1@5,2@25 72 265 1612 265 1728 272 0 0 0 0 0 864 169 950 2028 0 0 0 0 0 0 0
active/1@5,2@25 73 264 1601 264 1758 8 0 0 122 112 0 879 167 952 2672 0 0 0 0 0 0 0
active/1@5,2@25 74 234 1576 234 1758 242 0 0 0 0 0 879 149 970 1788 0 0 0 0 0 0 0
active/1@5,2@25 75 232 1572 232 1782 10 0 0 121 87 0 891 148 971 2368 0 0 0 0 0 0 0
active/1@5,2@25 76 208 1544 208 1782 218 0 0 0 0 0 891 138 981 1656 0 0 0 0 0 0 0
active/1@5,2@25 77 208 1500 208 1806 10 0 0 95 89 0 903 138 981 2208 0 0 0 0 0 0 0
active/1@5,2@25 78 184 1500 184 1806 194 0 0 0 0 0 903 124 995 1488 0 0 0 0 0 0 0
active/1@5,2@25 79 184 1473 184 1832 10 0 0 86 72 0 916 124 995 1984 0 0 0 0 0 0 0
active/1@5,2@25 80 158 1473 158 1832 168 0 0 0 0 0 916 109 1010 1308 0 0 0 0 0 0 0
active/1@5,2@25 81 157 1446 157 1864 11 0 0 76 49 0 932 108 1011 1728 0 0 0 0 0 0 0
active/1@5,2@25 82 125 1413 125 1864 136 0 0 0 0 0 932 90 1029 1080 0 0 0 0 0 0 0
active/1@5,2@25 83 123 1362 123 1890 13 0 0 56 41 0 945 90 1029 1440 0 0 0 0 0 0 0
active/1@5,2@25 84 97 1320 97 1890 110 0 0 0 0 0 945 75 1044 900 0 0 0 0 0 0 0
active/1@5,2@25 85 94 1227 94 1908 16 0 0 42 34 0 954 74 1045 1184 0 0 0 0 0 0 0
active/1@5,2@25 86 76 1118 76 1908 92 0 0 0 0 0 954 61 1058 732 0 0 0 0 0 0 0
active/1@5,2@25 87 75 1052 75 1932 17 0 0 40 11 0 966 61 1058 976 0 0 0 0 0 0 0
active/1@5,2@25 88 51 1047 51 1932 68 0 0 0 0 0 966 42 1077 504 0 0 0 0 0 0 0
active/1@5,2@25 89 47 940 47 1954 21 0 0 20 5 0 977 40 1079 640 0 0 0 0 0 0 0
active/1@5,2@25 90 25 789 25 1954 46 0 0 0 0 0 977 23 1096 276 0 0 0 0 0 0 0
active/1@5,2@25 91 21 610 21 1966 25 0 0 7 2 0 983 20 1099 320 0 0 0 0 0 0 0
active/1@5,2@25 92 9 483 9 1966 34 0 0 0 0 0 983 8 1111 96 0 0 0 0 0 0 0
active/1@5,2@25 93 8 362 8 1974 26 0 0 0 0 0 987 6 1113 96 0 0 0 0 0 0 0"
ACTUAL_FAULT_PATHS=""
for run in active/1@5 full/1@5 active/1@5,2@25; do
    ACTUAL_FAULT_PATHS+="$(cargo run --release -p selfstab-cli --bin selfstab-cli -- run \
        --protocol smm --topology unit-disk --n 2000 --seed 1 --shards 3 --schedule "${run%%/*}" \
        --chaos drop=0.1,dup=0.05,delay=2,corrupt=0.02,byz=5+17,asym=0.1,until=20 \
        --crash-shard "${run#*/}" --metrics \
        | awk -v s="$run" -F'|' '/^(outcome|moves|recovery|containment):/ {print s, $0; next}
            /^\| [0-9]/ {row = s; for (i = 2; i <= 24; i++) if (i != 17) {f = $i; gsub(/ /, "", f); row = row " " f}; print row}')" \
        || { echo "sharded fault-path run $run failed" >&2; exit 1; }
    ACTUAL_FAULT_PATHS+=$'\n'
done
if ! diff <(echo "$EXPECTED_FAULT_PATHS") <(printf '%s' "$ACTUAL_FAULT_PATHS"); then
    echo "sharded fault-path columns differ from the pinned block (< expected, > measured)" >&2
    exit 1
fi

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
# node, then assert the census, every node's membership answer and a
# settled exit.
cat > "$PROFILE_DIR/service-script.jsonl" <<'EOF'
{"op":"query","what":"status","tag":"boot"}
{"op":"mutate","kind":"edge-down","a":0,"b":1}
{"op":"mutate","kind":"node-leave","v":3}
{"op":"mutate","kind":"node-join","v":3,"attach":[2,4]}
{"op":"query","what":"membership","node":0}
{"op":"query","what":"membership","node":1}
{"op":"query","what":"membership","node":2}
{"op":"query","what":"membership","node":3}
{"op":"query","what":"membership","node":4}
{"op":"query","what":"membership","node":5}
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
# Every SMM point reply, byte for byte: each node's partner is read from its
# own pointer and its partner's back-pointer.
while IFS= read -r reply; do
    echo "$SERVE_OUT" | grep -Fx "$reply" >/dev/null \
        || { echo "membership reply missing or changed: $reply" >&2; exit 1; }
done <<'EOF'
{"ok":true,"node":0,"matched":false,"partner":null}
{"ok":true,"node":1,"matched":true,"partner":2}
{"ok":true,"node":2,"matched":true,"partner":1}
{"ok":true,"node":3,"matched":false,"partner":null}
{"ok":true,"node":4,"matched":true,"partner":5}
{"ok":true,"node":5,"matched":true,"partner":4}
EOF
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
