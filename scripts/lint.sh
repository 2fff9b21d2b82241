#!/usr/bin/env bash
# Workspace lint gate: formatting, clippy at deny-warnings, the
# treesvd-lint source audit (with a negative fixture), the hb-tracker
# race-detector suite, and the treesvd-analyze schedule verifier run
# over every built-in ordering (see docs/ANALYSIS.md). Fails on the first
# violation.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt: cargo fmt --all --check =="
cargo fmt --all --check

# One clippy pass per target set: the plain workspace plus every
# feature-gated configuration that compiles differently.
clippy_targets=(
    "--workspace --all-targets"
    "-p treesvd-comm --all-targets --features hb-tracker"
    "-p treesvd-batch --all-targets"
    # the tall-skinny QR front-end paths (matrix::qr / core::tall and the
    # bench_tall gate) get their own pass so they stay covered even if the
    # workspace set is ever narrowed
    "-p treesvd-matrix -p treesvd-core -p treesvd-bench --all-targets"
    # the auto-tuner (model, calibration, cache) and its bench_auto gate
    "-p treesvd-tune -p treesvd-bench --all-targets"
)
for target in "${clippy_targets[@]}"; do
    echo "== clippy: $target, deny warnings =="
    # shellcheck disable=SC2086 # word-splitting the target spec is intended
    cargo clippy $target -- -D warnings
done

echo "== treesvd-lint: source audit (SAFETY adjacency, forbid consistency, thread seams) =="
cargo build -q --release -p treesvd-analyze --bin treesvd-lint
TREESVD_LINT=target/release/treesvd-lint
"$TREESVD_LINT" --root .

echo "== treesvd-lint: negative fixture (uncommented unsafe must be flagged) =="
fixture=$(mktemp -d)
trap 'rm -rf "$fixture"' EXIT
mkdir -p "$fixture/crates/fixture/src"
printf 'pub fn f() {\n    unsafe { core::hint::unreachable_unchecked() }\n}\n' \
    > "$fixture/crates/fixture/src/lib.rs"
if "$TREESVD_LINT" --root "$fixture" >/dev/null 2>&1; then
    echo "lint.sh: treesvd-lint FAILED to flag an uncommented unsafe block" >&2
    exit 1
fi

echo "== hb-tracker: vector-clock race-detector suite =="
cargo test -q -p treesvd-comm --features hb-tracker

echo "== analyzer self-check: every built-in ordering =="
cargo build -q --release -p treesvd-cli
TREESVD=target/release/treesvd

# Each ordering at a representative size, on the topology the paper runs
# it on. The tree-structured orderings need powers of two; the rest take
# any even n.
run_check() {
    echo "-- treesvd analyze $*"
    "$TREESVD" analyze "$@" >/dev/null
}
run_check --ordering ring          --n 32 --topology perfect
run_check --ordering round-robin   --n 32 --topology perfect
run_check --ordering fat-tree      --n 32 --topology perfect
run_check --ordering fat-tree      --n 64 --topology fat-tree
run_check --ordering new-ring      --n 32 --topology perfect
run_check --ordering modified-ring --n 32 --topology perfect
run_check --ordering llb-fat-tree  --n 32 --topology perfect
run_check --ordering hybrid        --n 64 --topology fat-tree
# the paper's §5 headline: the hybrid with groups n/4 is contention-free
# even on the skinny CM-5 tree
run_check --ordering hybrid        --n 64 --groups 16 --topology cm5

echo "lint.sh: all gates passed"
