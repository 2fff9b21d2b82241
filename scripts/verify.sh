#!/usr/bin/env bash
# Repo verification gate: tier-1 build + tests, then a quick kernel
# smoke benchmark (the fused rotate-and-measure kernel must not lose to
# the unfused rotate-then-renormalize sequence it replaced; see
# "Performance notes" in README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== lint gate: scripts/lint.sh =="
scripts/lint.sh

echo "== tier-1: cargo build --release =="
cargo build --release --workspace

echo "== tier-1: cargo test -q =="
cargo test -q --workspace

echo "== SIMD lanes: treesvd-matrix, executor, driver, blocked-driver and QR front-end tests at the portable and AVX2+FMA tiers =="
# .cargo/config.toml builds for the host CPU, so on an AVX-512 host the
# narrower lanes of the kernels in treesvd-matrix are never compiled.
# The simulated executor solves each step's rotations in SIMD lanes, which
# its tests and the driver's compare bit for bit with the per-pair solve.
# The blocked driver's Gram build and the QR front-end's factor and
# back-transform run on gemm_tn, whose AVX2 lane sums in four chains, so
# their results differ by tier and their tests (the front-end's graded-
# input accuracy test among them) run on each.
# RUSTFLAGS replaces build.rustflags; each tier gets its own target dir.
if [ "$(uname -m)" = x86_64 ]; then
    for cpu in x86-64 haswell; do
        echo "-- target-cpu=$cpu"
        RUSTFLAGS="-C target-cpu=$cpu" CARGO_TARGET_DIR="target/lanes-$cpu" \
            cargo test -q --offline --release -p treesvd-matrix
        RUSTFLAGS="-C target-cpu=$cpu" CARGO_TARGET_DIR="target/lanes-$cpu" \
            cargo test -q --offline --release -p treesvd-sim
        RUSTFLAGS="-C target-cpu=$cpu" CARGO_TARGET_DIR="target/lanes-$cpu" \
            cargo test -q --offline --release -p treesvd-core --lib driver
        RUSTFLAGS="-C target-cpu=$cpu" CARGO_TARGET_DIR="target/lanes-$cpu" \
            cargo test -q --offline --release -p treesvd-core --lib blocked
        RUSTFLAGS="-C target-cpu=$cpu" CARGO_TARGET_DIR="target/lanes-$cpu" \
            cargo test -q --offline --release -p treesvd-core --lib tall
    done
fi

echo "== experiments: every table row printed is recorded in EXPERIMENTS.md =="
# EXPERIMENTS.md carries the experiments binary's output verbatim; a row
# that moved (a changed result, or the QR front-end leaking into the
# paper's experiments, which sweep A itself) must be re-recorded there.
# E8's blocked sweeps build their Gram blocks on gemm_tn, whose AVX2 lane
# rounds differently, so the rows are those of the portable lanes: the
# check runs at target-cpu=x86-64 (the AVX-512 lanes print the same rows).
if [ "$(uname -m)" = x86_64 ]; then
    rows=$(RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR="target/lanes-x86-64" \
        cargo run --release -q --offline -p treesvd-bench --bin experiments | grep '^|')
    missing=$(grep -vxFf EXPERIMENTS.md <<<"$rows" || true)
    if [ -n "$missing" ]; then
        echo "EXPERIMENTS.md lacks these rows of the experiments output:"
        echo "$missing"
        exit 1
    fi
else
    echo "skipped: EXPERIMENTS.md records the x86-64 portable lanes' rows"
fi

echo "== bench smoke: fused vs unfused rotation (512x64) =="
cargo run --release -p treesvd-bench --bin bench_kernels -- --smoke

echo "== bench smoke: Gram vs pairwise blocked meeting (512x128, c=16) =="
cargo run --release -p treesvd-bench --bin bench_blocked -- --smoke

echo "== bench smoke: zero-copy distributed executor stays allocation-free (4096x16) =="
cargo run --release -p treesvd-bench --bin bench_distributed -- --smoke

echo "== bench smoke: batched SoA engine vs per-problem sequential loop (8x8 x 100k) =="
cargo run --release -p treesvd-bench --bin bench_batched -- --smoke

echo "== bench smoke: tall-skinny QR front-end vs direct Jacobi (8192x64, m/n=128) =="
cargo run --release -p treesvd-bench --bin bench_tall -- --smoke

echo "== bench smoke: auto-tuner vs fixed configs + warm-path zero-alloc gate =="
# auto within 5% of the best fixed config at each probe point, strictly
# beating the untuned default somewhere, and the second plan_for on a
# cached key makes zero heap allocations and re-runs no probe
cargo run --release -p treesvd-bench --bin bench_auto -- --smoke

echo "verify.sh: all gates passed"
