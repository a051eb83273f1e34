#!/usr/bin/env bash
# Pre-merge gate. Run from the repo root before every merge:
#
#   scripts/ci.sh            # format check + lints + tier-1 tests
#   scripts/ci.sh --fix      # apply rustfmt instead of checking
#
# Mirrors the tier-1 verify (`cargo build --release && cargo test -q`)
# with the style gates in front so failures are cheap and early.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--fix" ]]; then
    cargo fmt
else
    cargo fmt --check
fi

cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc gate: every intra-doc link must resolve, so deleting or
# privatising a type cannot leave a dangling link in the API docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

cargo build --release

# ADB framing, ahead of the full suite so a framing change fails under
# its own name: the wire-protocol property tests, the pinned frame and
# byte counts of a job's automation session (channel open, the 2-scroll
# browser workload, `logcat -d`), and the `adb.*` totals one measured
# server job leaves in the platform's metrics.
cargo test -q -p batterylab-tests --test wire_protocols --test adb_session_pin

cargo test -q

# Every example runs end to end (debug build, about a second together),
# so an example that stops working fails the gate instead of rotting.
for example in examples/*.rs; do
    cargo run -q -p batterylab --example "$(basename "$example" .rs)" > /dev/null
done

# Golden determinism: the parallel harness must emit byte-identical
# artifacts for any worker count (fig2 + fig3 at jobs=1 vs jobs=4,
# including the merged platform_metrics.json).
cargo test -q -p batterylab-tests --test parallel_determinism

# One sampling engine: the segment-batched, per-sample reference and
# checkpointed runs must stay bit-for-bit identical (noise-free and
# noisy, wherever noise blocks, segments and checkpoint seals fall).
# The meter's sample path is compiled twice, an AVX2 instance picked at
# run time where the CPU has AVX2 and the baseline one; the two must
# give the same bits. They run in a release build, so each instance is
# the vector code a measurement runs.
cargo test -q -p batterylab-tests --test sampling_fastpath
cargo test --release -q -p batterylab-power monsoon::tests::instances_

# Bounded chaos soak (seconds, not minutes): experiment pipelines under
# seeded fault schedules — no lost/duplicated jobs, billing conserved
# across retries, every injected fault journaled. The second invocation
# re-runs one fixed (seed, plan) at a different worker count; the soak
# test asserts the merged telemetry is byte-identical.
cargo run --release -q -p batterylab --bin blab -- chaos --seed 42 --runs 4 --intensity 1.0
cargo test -q -p batterylab-tests --test chaos_soak

# Crash-consistent durability: recover the access server from every WAL
# record prefix, then crash/recover at every operation boundary of a
# chaos scenario — jobs, ledger and the merged telemetry report must
# come back byte-identical. The checkpoint run crashes a sampling
# experiment mid-stream and verifies the resumed aggregates match the
# uninterrupted run bit for bit. Log compaction
# (`compaction_recovers_at_every_step_and_prefix`): the same scenario
# compacts its log at every operation boundary and crashes with the new
# generation half-written, just after the swap and after a torn append;
# every compacted prefix must recover what the uncompacted one does.
# The WAL record codec's own tests run first (round trips, the string
# table's seed and a pinned record, damaged input), so a codec break
# fails here under its own name.
cargo run --release -q -p batterylab --bin blab -- recover --seed 42 --intensity 0.8
cargo run --release -q -p batterylab --bin blab -- checkpoint --seconds 20 --rate 500
cargo test -q -p batterylab-server wal::
# One apply path: generated operation sequences must recover live state.
cargo test -q -p batterylab-server access::oracle::
cargo test -q -p batterylab-tests --test durable_recovery

# Bounded job path: on a node that has run 200 jobs, each job's logcat
# artifact holds only its own lines, its `Completed` WAL record is as
# long as the first job's, and the device traces hold about one job's
# change points. After N and 4N jobs the compacted log holds at most 3x
# its last snapshot (`compaction_bounds_the_log_by_its_last_snapshot`).
cargo test -q -p batterylab-tests --test job_path_bounded

# Committed artifacts match the code: paper-scale `eval all` must
# reproduce eval_output.txt byte for byte below its header line, and
# every measured block of EXPERIMENTS.md must be quoted from it.
cargo test -q -p batterylab-tests --test artifacts_golden

# Manifest hygiene: every declared dependency is named in its crate's
# sources, every workspace dependency has a member, and every vendored
# shim is depended on.
cargo test -q -p batterylab-tests --test manifests

# The benchmark (`perfbench/`, a workspace of its own) builds against the
# workspace's public API, so a change there that breaks it fails here,
# and its smoke test runs every workload at tiny scale. Building it
# rewrites its Cargo.lock when a workspace crate's dependency list
# changed; the trap puts the committed lock back, so the gate leaves
# `git status` clean.
perfbench_lock=$(mktemp)
cp perfbench/Cargo.lock "$perfbench_lock"
trap 'cp "$perfbench_lock" perfbench/Cargo.lock; rm -f "$perfbench_lock"' EXIT
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Wall-clock split: evaluation at jobs=1 vs every available core.
# Prints the per-figure table; the JSON goes under target/ so the gate
# leaves the committed BENCH_eval.json (and `git status`) untouched.
cargo run --release -q -p batterylab-bench --bin bench_eval -- --out target/
