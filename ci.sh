#!/usr/bin/env bash
# Full CI gate, runnable locally. Everything is offline: the workspace has
# no external dependencies, so --offline both enforces and documents that.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --offline"
cargo build --workspace --release --offline

echo "==> cargo test -q --offline"
cargo test --workspace -q --offline

echo "==> cargo test -p finrad-units --doc (dimensional compile_fail suite)"
cargo test -q --offline -p finrad-units --doc

echo "==> cargo test --features fault-injection (robustness suite)"
cargo test -q --offline --features fault-injection --test fault_injection

echo "==> cargo test --features fault-injection (service supervision suite)"
cargo test -q --offline --features fault-injection --test service_supervision

echo "==> campaign service smoke example (under fault injection)"
cargo run -q --offline --release --features fault-injection --example campaign_service

echo "==> end-to-end benchmark smoke test (every workload pinned to e2ebench/reference.txt)"
cargo test --release --offline --manifest-path e2ebench/Cargo.toml

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (every target, warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc (every rustdoc warning is an error)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo xtask lint (deny-all, all families capped at 0, JSON + SARIF)"
cargo xtask lint --deny-all \
  --max unit-safety=0 \
  --max raw-escape-audit=0 \
  --max panic-freedom=0 \
  --max metrics-key-registry=0 \
  --max seed-discipline=0 \
  --max shared-state-audit=0 \
  --max checkpoint-schema-drift=0 \
  --max unused-suppression=0 \
  --max lock-order-audit=0 \
  --max guard-lifetime-audit=0 \
  --max cancellation-responsiveness=0 \
  --max result-discard-audit=0 \
  --json target/lint-report.json \
  --sarif target/lint-report.sarif

echo "==> cargo xtask lint --check-report (JSON + SARIF schema gates)"
cargo xtask lint --check-report target/lint-report.json
cargo xtask lint --check-report target/lint-report.sarif

echo "==> cargo xtask lint --diff-base (no diagnostics beyond the committed base)"
cargo xtask lint --diff-base xtask/lint-report-base.json

echo "==> cargo xtask bench --smoke (trajectory schema + hot-path counter gate)"
cargo xtask bench --smoke --out target/BENCH_smoke.json
cargo xtask bench --check target/BENCH_smoke.json \
  --require-counter sram.characterize.dcop_cache_hits \
  --require-counter spice.newton.warm_starts \
  --require-counter spice.newton.lu_structured \
  --require-counter spice.newton.jacobian_reuses \
  --require-counter spice.transient.lte_step_growths

echo "==> committed trajectory files carry the hot-path counters"
cargo xtask bench --check BENCH_0005.json \
  --require-counter sram.characterize.dcop_cache_hits \
  --require-counter spice.newton.warm_starts \
  --require-counter spice.newton.lu_structured
cargo xtask bench --check BENCH_0006.json \
  --require-counter sram.characterize.dcop_cache_hits \
  --require-counter spice.newton.warm_starts \
  --require-counter spice.newton.lu_structured \
  --require-counter spice.newton.jacobian_reuses \
  --require-counter spice.transient.lte_step_growths

echo "==> pinned benches did not regress vs the previous trajectory file"
cargo xtask bench --check BENCH_0006.json --diff-base BENCH_0005.json

echo "CI gate passed."
