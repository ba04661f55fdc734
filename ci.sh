#!/usr/bin/env bash
# Full CI gate, runnable locally. Everything is offline: the workspace has
# no external dependencies, so --offline both enforces and documents that.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --offline"
cargo build --workspace --release --offline

echo "==> cargo test -q --offline (every doctest too, the finrad-units compile_fail suite included)"
cargo test --workspace -q --offline

echo "==> ignored release-mode checks (fine-walk Q_crit agreement, shared-pass VddSweep bits at quick scale)"
cargo test --release --offline -p finrad-sram -p finrad-bench -- --ignored

echo "==> cargo test --features fault-injection (robustness suite)"
cargo test -q --offline --features fault-injection --test fault_injection

echo "==> cargo test --features fault-injection (service supervision suite)"
cargo test -q --offline --features fault-injection --test service_supervision

echo "==> campaign service smoke example (under fault injection)"
cargo run -q --offline --release --features fault-injection --example campaign_service

echo "==> Figs. 9-11 at quick scale (one shared sweep)"
cargo run --release --offline -q -p finrad-bench --bin reproduce > /dev/null

echo "==> Fig. 4 e-h pair LUT at quick scale"
cargo run --release --offline -q -p finrad-bench --bin fig4_ehp_lut > /dev/null

echo "==> end-to-end benchmark smoke test (every workload pinned to e2ebench/reference.txt)"
cargo test --release --offline --manifest-path e2ebench/Cargo.toml

echo "==> cargo clippy --all-features (lints the fault-injection code; a feature that stops compiling fails the gate)"
cargo clippy --workspace --all-targets --all-features --offline -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (every target, default features, warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc (every rustdoc warning is an error)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo xtask lint (every family, any diagnostic fails)"
cargo xtask lint

echo "CI gate passed."
