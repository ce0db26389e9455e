#!/usr/bin/env bash
# Local CI gate: build, test, docs, determinism, format, lint. Run
# before pushing.
#
# Every gate runs even when an earlier one fails: `step` records the
# failure and goes on, and the script ends by listing the failed steps
# and exiting 1 if there are any. One red gate never hides the others.
set -uo pipefail
cd "$(dirname "$0")"

failed=()

# step NAME CMD...: run one gate, recording NAME if it fails.
step() {
    local name=$1
    shift
    echo "==> $name"
    if ! "$@"; then
        echo "FAILED: $name" >&2
        failed+=("$name")
    fi
}

# Zero external dependencies: the committed Cargo.lock must be current
# and list only workspace packages. A registry or git package carries a
# `source =` line, so any such line fails the gate before a dependency
# can come back unnoticed.
lockfile_is_local() {
    cargo metadata --locked --offline --format-version 1 > /dev/null || return 1
    if grep -n '^source = ' Cargo.lock; then
        echo "Cargo.lock names a package from outside the workspace (above)" >&2
        return 1
    fi
}
step "Cargo.lock lists only workspace packages" lockfile_is_local

# Benchmark smoke suite: gefbench/ is a workspace of its own that
# builds the library crates by path. The crates need nothing from
# crates.io, so the [patch.crates-io] stand-ins under gefbench/stubs
# are unused (cargo warns so) until a benchmark change drops them. Its
# tests run every workload at smoke size with the output checks
# (undegraded explanations, GAM digest equal at 1 and N threads,
# /explain bit-equal to in-process).
step "gefbench smoke tests" \
    cargo test --release --offline --manifest-path gefbench/Cargo.toml

step "cargo build --release" cargo build --workspace --release

# The tier-1 suite runs twice: once serial, once on the gef-par worker
# pool. Every assertion must hold identically — the parallel runtime's
# contract is bit-identical results at any thread count.
# --no-fail-fast runs every test binary after a failing one.
step "cargo test (GEF_THREADS=1)" \
    env GEF_THREADS=1 cargo test --workspace -q --no-fail-fast

step "cargo test (GEF_THREADS=4)" \
    env GEF_THREADS=4 cargo test --workspace -q --no-fail-fast

step "cargo test --doc" cargo test --workspace --doc -q

step "cargo doc (rustdoc warnings are errors)" \
    env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# Bench-regression gate: the fixed-seed xp_regress suite (forest
# training, D* labeling, GCV search, end-to-end explain, each at
# GEF_THREADS 1 and 4) against the committed BENCH_baseline.json.
# Noise-aware thresholds; on a machine whose profile doesn't match the
# baseline it warns and skips instead of failing. Every run appends to
# BENCH_trajectory.json. GEF_PROF=1 also archives a Chrome-trace
# timeline under results/profiles/ (load it in ui.perfetto.dev).
# GEF_TRACE=json writes one telemetry report per thread pass, so the
# gate's timings run with tracing on.
step "bench regression gate (xp_regress --ci)" \
    env GEF_TRACE=json GEF_PROF=1 cargo run --release -q -p gef-bench --bin xp_regress -- --ci

# Telemetry determinism: xp_regress's 1-thread and 4-thread passes run
# the same seeded phases and must produce reports that agree on every
# non-timing field (span counts, counters, gauges, the event sequence).
# telemetry_diff exits nonzero on any divergence.
step "telemetry determinism (xp_regress t1 vs t4)" \
    cargo run --release -q -p gef-bench --bin telemetry_diff -- \
    results/telemetry/xp_regress_t1.json results/telemetry/xp_regress_t4.json

# Allocation tracking (gef-trace's alloc-track feature): its one test
# runs under the tracking global allocator, and xp_regress must still
# build with the allocator installed. dstar_alloc pins that `generate`
# keeps D* as domain codes: a fixed number of allocations however many
# rows it draws, and about two bytes a cell, not a Vec<f64> per row.
step "alloc-track (tracking allocator test)" \
    cargo test -q -p gef-trace --features alloc-track --test alloc_track
step "alloc-track (D* allocation guard)" \
    cargo test -q --features alloc-track --test dstar_alloc
step "alloc-track (xp_regress build)" \
    cargo build --release -q -p gef-bench --features alloc-track --bin xp_regress

step "cargo test --features fault-injection --test observability" \
    cargo test --features fault-injection --test observability -q

# Incident-dump gate: with tracing and profiling explicitly OFF, a
# forced fault under a tight deadline must still produce a schema-valid
# incident dump (the flight recorder is always on), and the dump's own
# replay_faults string must reproduce the same typed error.
# incident_view --force-fault asserts all of it end to end and
# round-trips the dump through gef_trace::json::parse.
step "incident-dump gate (incident_view --force-fault, trace/prof off)" \
    env GEF_TRACE=0 GEF_PROF=0 GEF_INCIDENT_DIR=results/incidents \
    cargo run --release -q -p gef-bench --features fault-injection \
    --bin incident_view -- --force-fault --deadline-ms 150

step "cargo test --features fault-injection --test robustness" \
    cargo test --features fault-injection --test robustness -q

step "cargo test --features fault-injection --test parallel" \
    cargo test --features fault-injection --test parallel -q

# Seeded chaos gate: a short random sweep over the GEF_FAULTS schedule
# space with a tight deadline armed. xp_chaos exits nonzero on any
# invariant violation (panic, hang past the hard deadline, or an
# untyped/invalid completion) and prints a replayable GEF_FAULTS
# string for the offending schedule.
step "chaos sweep (xp_chaos --schedules 25 --seed 7)" \
    cargo run --release -q -p gef-bench --features fault-injection \
    --bin xp_chaos -- --schedules 25 --seed 7 --deadline-ms 1500

# Serve gate: boot the explanation service on an ephemeral port inside
# xp_serve and hammer it with a fixed-seed closed-loop fleet (4 clients
# x 40 requests against 2 workers and a 2-deep queue, then 3 idle
# keep-alive sockets with fresh requests timed behind them, then one
# GEF_FAULTS schedule under load). The harness exits nonzero if any
# response leaves the typed-status envelope, a 429 lacks Retry-After,
# a socket hangs, the drained server still answers, a fresh request
# behind the idle sockets waits over 5 ms in the queue, or the fresh
# close-mode /predict p50 reaches 1 ms.
step "serve gate (xp_serve --ci)" \
    cargo run --release -q -p gef-bench --features fault-injection \
    --bin xp_serve -- --ci

# Metrics-exposition gate: xp_serve scrapes /metrics into
# BENCH_metrics.prom during the serve gate (and reconciles the server's
# response counters against its own client tallies); metrics_check
# re-validates the scrape as Prometheus text format 0.0.4 and pins the
# families the dashboards depend on.
step "metrics exposition gate (metrics_check BENCH_metrics.prom)" \
    cargo run --release -q -p gef-bench --bin metrics_check -- BENCH_metrics.prom \
    --require gef_serve_responses_total \
    --require gef_serve_explain_latency_us_bucket \
    --require gef_serve_queue_wait_us_bucket \
    --require gef_serve_explain_coalesced_total \
    --require gef_serve_window_success_ratio

# Store-durability gate: a seeded crash/corruption sweep over the four
# gef-store disk-fault sites (torn writes, bit flips, truncated reads,
# ENOSPC) across write/read/evict phases against fresh stores. xp_store
# exits nonzero if any load returns bytes that are not digest-verified,
# any Corrupt verdict fails to quarantine the artifact, or anything
# panics — and prints a replayable GEF_FAULTS string per violation.
step "store-durability gate (xp_store --ci)" \
    cargo run --release -q -p gef-bench --features fault-injection \
    --bin xp_store -- --ci

step "cargo fmt --check" cargo fmt --all -- --check

step "cargo clippy -D warnings" cargo clippy --workspace --all-targets -- -D warnings

# No-panic gate: gef-core, gef-gam, gef-par, gef-forest, gef-store,
# gef-trace, gef-linalg and gef-serve deny unwrap/expect in non-test
# library code via #![cfg_attr(not(test), deny(...))] in their lib.rs;
# this lint pass compiles the libs without cfg(test) to enforce it.
# gef-par is included so the guarantee covers the parallel paths: a
# task panic comes back as ParError::TaskPanicked, never a coordinator
# re-raise.
# gef-forest is included because the flattened inference kernel uses
# unchecked indexing behind build-time validation — the rest of the
# crate must not hide a panic path that validation was supposed to
# remove. gef-gam is included for its typed-error contract and for the
# same reason: its term-pair Gram kernels index without bounds checks
# behind the run check of the design build. gef-store is included
# because the artifact store's contract is typed errors on every
# disk-fault path — a panic there would turn a corrupt artifact into a
# dead server. gef-trace is included because its hooks run inside every
# other crate, including in Span::drop: a poisoned telemetry lock must
# not turn one panic into two. It is linted with alloc-track on, so the
# tracking allocator's code is covered too. gef-linalg is included
# because its Cholesky factor and inverse, under every GAM fit, run
# AVX2 kernels with unchecked loads and stores: as in gef-forest, the
# safe code around them must not hide a panic path. gef-serve is
# included because it receives bytes from any client: `catch_unwind`
# contains a panic inside a request, but the reactor thread that reads
# and frames every request has no such net.
step "cargo clippy (no-panic gate: gef-core, gef-gam, gef-par, gef-forest, gef-store, gef-trace, gef-linalg, gef-serve)" \
    cargo clippy -p gef-core -p gef-gam -p gef-par -p gef-forest -p gef-store -p gef-trace \
    -p gef-linalg -p gef-serve --lib --features gef-trace/alloc-track -- -D warnings

# Size report, no threshold: non-test lines per crate and in total,
# the count CHANGES.md and ROADMAP.md quote. A line counts if it is in
# a .rs file under crates/*/src, src or examples, above the file's
# first `#[cfg(test)]`.
non_test_lines() {
    local dir n total=0
    for dir in crates/*/src src examples; do
        n=$(find "$dir" -name '*.rs' -exec awk \
            'FNR == 1 { t = 0 } /#\[cfg\(test\)\]/ { t = 1 } !t { c++ } END { print c + 0 }' {} + |
            awk '{ s += $1 } END { print s + 0 }')
        printf '%7d  %s\n' "$n" "$dir"
        total=$((total + n))
    done
    printf '%7d  total\n' "$total"
}
step "non-test line count (report only)" non_test_lines

# The QuickScorer kernel runs the widest tier the machine has (AVX-512F
# with AVX-512CD, then AVX2, then scalar). Its tier test checks every
# tier the machine runs against the walker, skips the others, and names
# the tiers it checked once all of them match; the summary repeats that
# line, so a green run on a smaller machine visibly did not check the
# wider tiers.
kernel_tier_log=""
kernel_tier_test() {
    kernel_tier_log=$(cargo test --offline -q -p gef-forest --lib \
        every_tier_labels_as_the_walker -- --nocapture 2>&1)
    local status=$?
    printf '%s\n' "$kernel_tier_log"
    return $status
}
step "QuickScorer kernel tiers against the walker" kernel_tier_test

kernel_tiers=$(sed -n 's/^QuickScorer tiers matching the walker: //p' <<< "$kernel_tier_log")
echo "QuickScorer kernel tiers checked on this machine: ${kernel_tiers:-none (the tier test failed)}"

if ((${#failed[@]})); then
    echo "CI gate failed: ${#failed[@]} step(s)" >&2
    printf '  %s\n' "${failed[@]}" >&2
    exit 1
fi
echo "CI gate passed."
