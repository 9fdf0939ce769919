#!/usr/bin/env bash
# The full local CI gate: formatting, lints (warnings are errors), the
# wire-surface lint, the protocol static-analysis pass (p2pfl-lint), a
# release build, the complete test suite, the bounded model-checking
# explorer with its mutation self-check, and (where the tools exist)
# sanitizers, Miri, and cargo-deny.
# Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> wire-surface lint (serde derives + codec round-trip registry)"
cargo run --release -p xtask -- wire-lint

echo "==> protocol static analysis (sans-IO purity, wire-path panic-freedom, secret flow, pins)"
cargo run --release -p xtask -- lint

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo doc (deny warnings: broken and private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# The repo benchmark's noise-free half: each workload for two seconds.
# Exit 0 means `failed` = 0 - every round's result digest matched its
# simulator twin - and the wire bytes of a round are exact, so a change
# to what the engines put on the wire fails here, byte for byte, before
# anyone measures a timing. (Timings are compared under the BENCHMARK.json
# protocol, not in CI.)
#
# Peak RSS on ring_bulk_16 is gated too, against a ceiling: it measures
# receive memory and the engine's live subtotals (~390 MiB while every
# reactor link kept the buffer of its largest frame; ~230 once a link held
# a frame's bytes only while it is in flight, with every follower still
# keeping a total per partition it holds; ~198 since only the leader keeps
# totals). The timings spread 10-30 % between runs on a shared host; RSS
# moves in levels a retained vector apart. Ten 2 s runs of each gated leg
# with one vector pool per host read 191.1-193.6 MiB on ring (with
# per-core round stores ten read 192.0-200.9, and in an earlier series
# 191.2-208.7) and 394.4-394.6 on bulk, so a fixed ceiling between the
# last two states catches either retention coming back without flaking.
#
# sac_bulk_cnn_3 is gated too, because the reactor keeps released bulk
# receive storage for reuse: storage kept beyond what the links held at
# once would show here. Ten runs of this leg read 432-452 MiB, the same
# two levels as without the pool, and a build whose links each kept a
# share block's storage after the frame read 477-539. Since the reactor
# encodes a bulk frame a window at a time instead of into a buffer of
# the frame's size, ten runs of this leg read 403.9-404.2 MiB. The
# ceiling leaves ring's margin (~8.5 %) over the highest run. Frame-sized
# send buffers read 413, 432 or 451 MiB (levels one 20 MB share block
# apart); the ceiling fails the 451 runs, six of ten.
#
# Since every holder of a share partition gets one shared copy and each
# round core reused its vectors from a store of its own, ten runs of
# each leg read 196.7-202.9 MiB on ring and 413.7-423.4 on bulk: per-core
# stores could not lend each other a spare. With one pool per host that
# the cores share, the ten runs above sit lower on both legs, but 25 s
# runs of the same build reach 196.6 (ring) and 413.6 (bulk, two 10 MB
# vectors over the 2 s runs). Neither ceiling moved: ~8.5 % over those
# would be 213 and 449, so 215 and 438 leave 9 % and 6 %.
#
# session_mlp_30's wire bytes are pinned like the reactor legs': the
# mean over its first 428 rounds, on virtual time, so deterministic.
#
# Since bulk frames' f64 runs are read from the socket straight into
# pool vectors, the reactor keeps no byte pool, and the bulk leg dropped
# by its ~114 MiB: ten 2 s runs read 280.2-299.0 MiB (median 280.4) and
# 25 s runs 280.4-299.3 (levels one 10 MB vector apart), so its ceiling
# is ~8.5 % over the highest, 325. Ring did not move (ten 2 s runs
# 192.7-193.1, 25 s runs 192.7-193.5), so its ceiling stays.
echo "==> repo benchmark: round digests vs sim twin + exact wire bytes + bulk and ring RSS ceilings (4 workloads x 2 s)"
for spec in session_mlp_30:6576967.626168224: sac_bulk_cnn_3:129833796:325 sac_fanout_256:18930176: ring_bulk_16:164008048:215; do
    IFS=: read -r workload wire_bytes rss_ceiling <<<"$spec"
    result="$(cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 42 --seconds 2 --trace 0 | tail -n 1)"
    grep -q '"failed": 0,' <<<"$result" \
        || { echo "benchmark $workload: failed checks: $result"; exit 1; }
    if [ -n "$wire_bytes" ]; then
        grep -q "\"wire_bytes_per_round\": {\"value\": $wire_bytes," <<<"$result" \
            || { echo "benchmark $workload: wire_bytes_per_round is not $wire_bytes: $result"; exit 1; }
    fi
    if [ -n "$rss_ceiling" ]; then
        rss="$(sed -n 's/.*"peak_rss_mib": {"value": \([0-9.]*\),.*/\1/p' <<<"$result")"
        awk -v rss="$rss" -v cap="$rss_ceiling" 'BEGIN { exit !(rss != "" && rss <= cap) }' \
            || { echo "benchmark $workload: peak_rss_mib ${rss:-missing} above $rss_ceiling: $result"; exit 1; }
    fi
    echo "    $workload ok"
done

# The traced session run replays 150 rounds of `run_round` next to the
# benchmark's phase twin, which aggregates through the synchronous
# reference. A global model more than L-inf 1e-9 from the twin's is a
# failed check (non-zero exit, which stops this script), and a subgroup
# without an average counts in `failed`. The session's round cores and
# the reference draw the same mask streams, so they agree bit for bit
# (~20 s).
echo "==> repo benchmark: traced session_mlp_30 (run_round vs the phase twin, 150 lockstep rounds)"
result="$(cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
    --workload session_mlp_30 --seed 42 --seconds 2 --trace 1 | tail -n 1)"
grep -q '"failed": 0,' <<<"$result" \
    || { echo "benchmark session_mlp_30 (traced): failed checks: $result"; exit 1; }

# The one example that asserts a digest: real sockets against the
# simulator, across a crash and a rejoin at a new port. It panics (exit
# non-zero) on a mismatch or on a phase that times out.
echo "==> real_net example (reactor digests vs simulator, crash + rejoin at a new port)"
cargo run --release --example real_net

echo "==> cargo test"
cargo test --workspace -q

echo "==> p2pfl-check: bounded exhaustive exploration (invariant oracles)"
cargo run --release -p p2pfl-check --bin explore -- --ci

echo "==> p2pfl-check: mutation self-check (seeded mutants must be caught)"
cargo run --release -p p2pfl-check --features mutants --bin mutation_check

# Sanitizers (nightly-only, soft gates). ThreadSanitizer needs an
# *instrumented* std (-Zbuild-std, which needs the rust-src component):
# std's sync primitives use futexes directly, so against a prebuilt std
# TSan cannot see their synchronization and reports false races.
# AddressSanitizer tolerates an uninstrumented std, so the heap-safety
# smoke on the hostile-input tests runs wherever a nightly exists. The
# explicit --target keeps RUSTFLAGS off host proc-macro builds.
HOST_TARGET="$(rustc --version --verbose | sed -n 's/^host: //p')"
NIGHTLY_SRC="$(rustc +nightly --print sysroot 2>/dev/null || true)/lib/rustlib/src/rust/library/Cargo.lock"
if [ -f "$NIGHTLY_SRC" ]; then
    echo "==> ThreadSanitizer (p2pfl-net reactor tests)"
    RUSTFLAGS="-Zsanitizer=thread" CARGO_TARGET_DIR=target/tsan \
        cargo +nightly test -Zbuild-std --target "$HOST_TARGET" -p p2pfl-net --lib -q
else
    echo "==> ThreadSanitizer: SKIPPED (nightly rust-src not installed; TSan needs an instrumented std)"
fi

if rustc +nightly --version >/dev/null 2>&1; then
    echo "==> AddressSanitizer smoke (codec + reactor malformed-input tests)"
    RUSTFLAGS="-Zsanitizer=address" CARGO_TARGET_DIR=target/asan \
        cargo +nightly test --target "$HOST_TARGET" -p p2pfl-net --test malformed_input -q
else
    echo "==> AddressSanitizer: SKIPPED (no nightly toolchain installed)"
fi

if cargo +nightly miri --version >/dev/null 2>&1; then
    echo "==> miri (UB check on secagg + simnet)"
    cargo +nightly miri test -p p2pfl-secagg -p p2pfl-simnet -q
    # The reactor's byte views of f64 runs are the one unsafe code outside
    # its epoll FFI; their tests call no FFI, so Miri can run them.
    echo "==> miri (the reactor's f64 byte views)"
    cargo +nightly miri test -p p2pfl-net --lib -q reactor::sys::byte_view_tests
else
    echo "==> miri: SKIPPED (cargo-miri not installed for the nightly toolchain)"
fi

if command -v cargo-deny >/dev/null 2>&1; then
    # Soft gate: report but do not fail CI (offline images lack the
    # advisory DB; see deny.toml).
    echo "==> cargo deny (soft gate)"
    cargo deny check || echo "==> cargo deny reported issues (soft gate, not fatal)"
else
    echo "==> cargo deny: SKIPPED (cargo-deny not installed)"
fi

# Per-round churn, the Byzantine skewer, the ring mid-round crash and the
# TCP crash/restart from disk are tier-1 tests (run by `cargo test`
# above); the soak keeps only the long randomized legs.
echo "==> chaos soak (Sec. V crash cases C1-C4, fixed seed)"
cargo run --release -p p2pfl-bench --bin chaos_soak -- --smoke --seed 7

echo "==> ring-engine chaos soak (Sec. V crash cases C1-C4 on Ring-SAC, fixed seed)"
cargo run --release -p p2pfl-bench --bin chaos_soak -- --smoke --engine ring --seed 7

echo "==> flash-crowd soak (elastic burst join + mass leave, twin digest + TCP re-key replay)"
cargo run --release -p p2pfl-bench --bin chaos_soak -- --flash-crowd --seed 7

# Perf gate: quick hotpath run compared against the checked-in baseline;
# fails on a >2x median regression in any benchmark, and the in-binary
# crossover gate fails if Ring-SAC is not strictly cheaper than pairwise
# beyond the measured crossover subgroup size. Soft-skips when the
# baseline is absent (fresh checkout without BENCH_hotpath.json). To
# refresh the baseline after an intentional perf change, run the full
# benchmark on a quiet machine: cargo run --release -p p2pfl-bench --bin hotpath
if [ -f BENCH_hotpath.json ]; then
    echo "==> perf gate (hotpath --quick vs BENCH_hotpath.json)"
    mkdir -p target/bench
    cargo run --release -p p2pfl-bench --bin hotpath -- \
        --quick --baseline BENCH_hotpath.json --out target/bench/hotpath_quick.json
else
    echo "==> perf gate: SKIPPED (no BENCH_hotpath.json baseline checked in)"
fi

# Scale gate: the quick two-layer round - 8 SAC subgroups of 8 (64
# peers) on one reactor, then layer 2 as Alg. 3's FedAvg over their
# results - with every subgroup digest and the combine's checked against
# the simulator twin (a mismatch panics). Its subgroup_round_quick and
# whole_round_quick medians are gated against the checked-in baseline's
# _quick entries through the same check as hotpath: a >2x regression
# that is also over an absolute 250 ms floor (scheduler noise on a loaded
# host) exits 2. Refresh after an intentional change with the full run on
# a quiet machine: cargo run --release -p p2pfl-bench --bin scale
if [ -f BENCH_scale.json ]; then
    echo "==> scale gate (scale --quick vs BENCH_scale.json)"
    mkdir -p target/bench
    cargo run --release -p p2pfl-bench --bin scale -- \
        --quick --baseline BENCH_scale.json --out target/bench/scale_quick.json
else
    echo "==> scale gate: SKIPPED (no BENCH_scale.json baseline checked in)"
fi

echo "==> scale chaos soak (fault-injected round + connection massacre, digest-checked)"
cargo run --release -p p2pfl-bench --bin scale -- --quick --soak --out target/bench/scale_soak.json

# Each bin that draws two paper figures from one run, at three rounds or
# trials: every CSV row must carry both figures' columns (4 fields) and
# every figure's summary must print, so a fold that dropped one fails here.
echo "==> paired figure bins (both columns + both summaries, short runs)"
for spec in fig06_07_accuracy_loss:rounds:2 fig08_09_fraction:rounds:1 fig10_11_election_join:trials:2; do
    IFS=: read -r bin flag want <<<"$spec"
    out="$(cargo run --release --quiet -p p2pfl-bench --bin "$bin" -- "--$flag" 3)"
    rows="$(grep -v -e '^#' -e '^$' <<<"$out" \
        | awk -F, 'NF == 4 { ok++ } NF != 4 { bad++ } END { print (bad || !ok) ? 0 : ok - 1 }')"
    summaries="$(grep -c -e '^# final smoothed' -e '^# Fig\. 1[01] summary' <<<"$out" || true)"
    [ "$rows" -gt 0 ] && [ "$summaries" -eq "$want" ] \
        || { echo "$bin: $rows four-column rows, $summaries of $want summaries:"; echo "$out"; exit 1; }
    echo "    $bin ok ($rows rows, $summaries summaries)"
done

echo "ci: all green"
