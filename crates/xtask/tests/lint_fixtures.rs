//! End-to-end tests of the lint engine over the seeded fixtures: each lint
//! family fires with the right ID at the right (line, col) span, allow()
//! suppresses (and unused allows are flagged), and clean code stays clean.

use std::path::{Path, PathBuf};

use xtask::flow::FileUnit;
use xtask::lints::{self, KeyRegistry, LintId, Violation};

fn read_fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read fixture {name}: {e}"))
}

fn lint_fixture(name: &str) -> Vec<Violation> {
    xtask::lint_file_source(Path::new(name), &read_fixture(name), true, None)
}

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
}

/// Lints a fixture against the *real* metric-key registry,
/// `crates/observe/src/keys.rs`.
fn lint_fixture_with_keys(name: &str) -> (Vec<Violation>, KeyRegistry) {
    let registry = std::fs::read_to_string(workspace_root().join(lints::KEYS_FILE))
        .expect("read the metric-key registry");
    let keys = KeyRegistry::from_lexed(&xtask::lexer::lex(&registry));
    let v = xtask::lint_file_source(Path::new(name), &read_fixture(name), true, Some(&keys));
    (v, keys)
}

/// Runs the flow-sensitive (phase-2) families over one fixture, through
/// the same suppression pass `scan_tree` applies — so `allow(...)`
/// directives in flow fixtures behave exactly as they do in real code.
fn flow_fixture(name: &str) -> Vec<Violation> {
    let text = read_fixture(name);
    let unit = FileUnit {
        path: PathBuf::from("crates/core/src").join(name),
        lexed: xtask::lexer::lex(&text),
    };
    let raw = xtask::flow::analyze(std::slice::from_ref(&unit));
    lints::apply_suppressions(&unit.path, &unit.lexed, raw)
}

#[test]
fn unit_safety_fixture() {
    let v = lint_fixture("unit_safety.rs");
    // Only the parameter-side check remains; the return site on line 11 is
    // the type system's (and raw-escape-audit's) problem now.
    assert_eq!(v.len(), 1, "{v:#?}");
    assert_eq!(v[0].lint, LintId::UnitSafety);
    // `pub fn set_supply(vdd: f64)` — param violation on line 4.
    assert_eq!(v[0].line, 4);
    assert!(v[0].message.contains("vdd: f64"));
}

#[test]
fn raw_escape_fixture() {
    let v = lint_fixture("raw_escape.rs");
    assert_eq!(v.len(), 2, "{v:#?}");
    assert!(v.iter().all(|v| v.lint == LintId::RawEscapeAudit));
    // `energy.si_value()` on line 6, `Charge::from_si(..)` on line 11.
    assert_eq!((v[0].line, v[0].col), (6, 12));
    assert!(v[0].message.contains("si_value"));
    assert_eq!((v[1].line, v[1].col), (11, 13));
    assert!(v[1].message.contains("from_si"));
}

#[test]
fn rng_determinism_fixture() {
    let v = lint_fixture("rng_determinism.rs");
    assert_eq!(v.len(), 2, "{v:#?}");
    assert!(v.iter().all(|v| v.lint == LintId::RngDeterminism));
    assert_eq!(v[0].line, 4);
    assert!(v[0].message.contains("thread_rng"));
    // OS-entropy seeding through the `getrandom` crate, span on the path.
    assert_eq!((v[1].line, v[1].col), (10, 5));
    assert!(v[1].message.contains("getrandom"));
}

#[test]
fn panic_freedom_fixture() {
    let v = lint_fixture("panic_freedom.rs");
    // The `.unwrap()` on line 4 is clippy's `unwrap_used`; only the LUT
    // indexing on line 9 is this family's.
    assert_eq!(v.len(), 1, "{v:#?}");
    assert!(v.iter().all(|v| v.lint == LintId::PanicFreedom));
    assert_eq!(v[0].line, 9);
    assert!(v[0].message.contains("pair_lut"));
}

#[test]
fn float_discipline_fixture() {
    let v = lint_fixture("float_discipline.rs");
    // f32 fires on both the return type (line 4) and the cast (line 5);
    // float == on line 9. The `partial_cmp(b).unwrap()` on line 13 is
    // clippy's `unwrap_used`.
    assert!(v.len() >= 3, "{v:#?}");
    assert!(
        v.iter()
            .filter(|v| v.lint == LintId::FloatDiscipline)
            .count()
            >= 3
    );
    assert!(v.iter().any(|v| v.line == 4 && v.message.contains("f32")));
    assert!(v.iter().any(|v| v.line == 9 && v.message.contains("`==`")));
}

#[test]
fn allow_directives_suppress_everything() {
    let v = lint_fixture("allow_suppression.rs");
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn clean_fixture_stays_clean() {
    let v = lint_fixture("clean.rs");
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn metrics_key_registry_fixture() {
    let (v, keys) = lint_fixture_with_keys("metric_keys.rs");
    // The declared key set comes from the real registry.
    assert!(keys.keys.contains("core.strike.iterations"));
    assert!(keys.prefixes.iter().any(|p| p == "spice.recovery.rung."));
    // The round-2 hot-path keys are part of the real registry, so the
    // fixture's uses of them must not fire.
    assert!(keys.keys.contains("spice.newton.jacobian_reuses"));
    assert!(keys.keys.contains("spice.newton.refactorizations"));
    assert!(keys.keys.contains("spice.transient.lte_step_growths"));
    assert!(keys.keys.contains("finfet.model.batched_evals"));
    // Declared key (line 5), prefix-composed key (line 9) and the round-2
    // keys (lines 17-20) pass; only the typo'd key fires, with the span on
    // the string literal.
    assert_eq!(v.len(), 1, "{v:#?}");
    assert_eq!(v[0].lint, LintId::MetricsKeyRegistry);
    assert_eq!((v[0].line, v[0].col), (13, 33));
    assert!(v[0].message.contains("core.strike.iterationz"));
    assert!(
        v[0].message
            .contains("did you mean `core.strike.iterations`"),
        "{}",
        v[0].message
    );
}

#[test]
fn service_keys_fixture() {
    let (v, keys) = lint_fixture_with_keys("service_keys.rs");
    // The campaign-service namespace is part of the real registry.
    assert!(keys.keys.contains("core.service.cache_hits"));
    assert!(keys.keys.contains("core.service.bins_quarantined"));
    // The registered key (line 6) passes; only the unregistered one fires.
    assert_eq!(v.len(), 1, "{v:#?}");
    assert_eq!(v[0].lint, LintId::MetricsKeyRegistry);
    assert_eq!((v[0].line, v[0].col), (10, 33));
    assert!(v[0].message.contains("core.service.cache_evictions"));
}

#[test]
fn seed_discipline_fixture() {
    let (v, _) = lint_fixture_with_keys("seed_discipline.rs");
    assert_eq!(v.len(), 1, "{v:#?}");
    assert_eq!(v[0].lint, LintId::SeedDiscipline);
    // The ad-hoc derivation on line 15; span on the `seed_from_u64` call.
    assert_eq!((v[0].line, v[0].col), (15, 19));
}

#[test]
fn shared_state_fixture() {
    let (v, _) = lint_fixture_with_keys("shared_state.rs");
    assert_eq!(v.len(), 3, "{v:#?}");
    assert!(v.iter().all(|v| v.lint == LintId::SharedStateAudit));
    assert_eq!((v[0].line, v[0].col), (6, 5));
    assert!(v[0].message.contains("static mut"));
    assert_eq!((v[1].line, v[1].col), (9, 36));
    assert!(v[1].message.contains("Relaxed"));
    assert_eq!((v[2].line, v[2].col), (12, 1));
    assert!(v[2].message.contains("thread_local"));
}

#[test]
fn unused_suppression_fixture() {
    let (v, _) = lint_fixture_with_keys("unused_suppression.rs");
    assert_eq!(v.len(), 1, "{v:#?}");
    assert_eq!(v[0].lint, LintId::UnusedSuppression);
    // The stale standalone directive on line 9, span on the directive text.
    assert_eq!((v[0].line, v[0].col), (9, 4));
    assert!(v[0].message.contains("panic-freedom"));
}

#[test]
fn lock_order_fixture() {
    let v = flow_fixture("lock_order.rs");
    // Exactly the seeded alpha/beta cycle; the consistent alpha->gamma pair
    // must not fire, and no other family may piggy-back on this fixture.
    assert_eq!(v.len(), 1, "{v:#?}");
    assert_eq!(v[0].lint, LintId::LockOrderAudit);
    assert!(v[0].message.contains("alpha"), "{}", v[0].message);
    assert!(v[0].message.contains("beta"), "{}", v[0].message);
    assert!(v[0].message.contains("deadlock"), "{}", v[0].message);
    assert!(!v[0].message.contains("gamma"), "{}", v[0].message);
}

#[test]
fn guard_lifetime_fixture() {
    let v = flow_fixture("guard_lifetime.rs");
    // Only `held_across_sleep` fires; drop-first, inner-scope, and
    // guard-consuming condvar wait are the sanctioned shapes.
    assert_eq!(v.len(), 1, "{v:#?}");
    assert_eq!(v[0].lint, LintId::GuardLifetimeAudit);
    assert_eq!(v[0].line, 14);
    assert!(v[0].message.contains("`g`"), "{}", v[0].message);
    assert!(v[0].message.contains("`state`"), "{}", v[0].message);
    assert!(v[0].message.contains("sleep"), "{}", v[0].message);
}

#[test]
fn guard_lifetime_after_let_else_fixture() {
    // The `else { return; }` ends only its own path: the sleep after it
    // runs under the state guard. The block-scoped twin stays clean.
    let v = flow_fixture("guard_lifetime_let_else.rs");
    assert_eq!(v.len(), 1, "{v:#?}");
    assert_eq!(v[0].lint, LintId::GuardLifetimeAudit);
    assert_eq!(v[0].line, 20);
    assert!(v[0].message.contains("`st`"), "{}", v[0].message);
    assert!(v[0].message.contains("`state`"), "{}", v[0].message);
    assert!(v[0].message.contains("sleep"), "{}", v[0].message);
}

#[test]
fn guard_lifetime_resolves_path_calls_by_type() {
    // Two types each define `new` and only `Slow::new` blocks: the guard
    // held across `Quick::new` stays clean.
    let v = flow_fixture("guard_lifetime_paths.rs");
    assert_eq!(v.len(), 1, "{v:#?}");
    assert_eq!(v[0].lint, LintId::GuardLifetimeAudit);
    assert_eq!(v[0].line, 36);
    assert!(v[0].message.contains("`Slow::new`"), "{}", v[0].message);
}

#[test]
fn cancellation_fixture() {
    let v = flow_fixture("cancellation.rs");
    // Only the unpolled `pump` loop fires; the polled twin and the
    // never-spawned `standalone` loop stay clean.
    assert_eq!(v.len(), 1, "{v:#?}");
    assert_eq!(v[0].lint, LintId::CancellationResponsiveness);
    assert_eq!(v[0].line, 12);
    assert!(v[0].message.contains("pump"), "{}", v[0].message);
    assert!(v[0].message.contains("step_blocking"), "{}", v[0].message);
}

#[test]
fn allow_directive_suppresses_flow_families() {
    // The inline poison-recovery idiom, wrapped in a standalone allow —
    // the suppression pass must absorb the flow-family violation just as
    // it does per-file ones.
    let src = "impl S {\n    fn recover(&self) {\n        // finrad-lint: allow(lock-order-audit)\n        let g = self.m.lock().unwrap_or_else(|p| p.into_inner());\n        drop(g);\n    }\n}\n";
    let unit = FileUnit {
        path: PathBuf::from("crates/core/src/inline_allow.rs"),
        lexed: xtask::lexer::lex(src),
    };
    let raw = xtask::flow::analyze(std::slice::from_ref(&unit));
    assert_eq!(raw.len(), 1, "{raw:#?}");
    let v = lints::apply_suppressions(&unit.path, &unit.lexed, raw);
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn lexer_edges_fixture_stays_clean() {
    // Raw strings, escapes, and nested block comments: clean through both
    // the per-file families and the flow families.
    let v = lint_fixture("lexer_edges.rs");
    assert!(v.is_empty(), "{v:#?}");
    let v = flow_fixture("lexer_edges.rs");
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn scan_tree_skips_xtask_and_reports_relative_paths() {
    let scan = xtask::scan_tree(workspace_root()).expect("scan");
    assert!(scan.files_scanned > 20, "only {} files", scan.files_scanned);
    assert!(scan
        .violations
        .iter()
        .all(|v| !v.file.starts_with("crates/xtask")));
    assert!(scan.violations.iter().all(|v| v.file.is_relative()));
    // The cross-file families resolved real symbols: the key registry and
    // the sanctioned seed-helper bodies.
    assert!(!scan.keys.keys.is_empty());
    let rng = std::fs::read_to_string(workspace_root().join(lints::RNG_FILE)).expect("read rng.rs");
    assert!(!lints::seed_helper_spans(&xtask::lexer::lex(&rng).tokens).is_empty());
    // The repo-wide policy, the same one `cargo xtask lint` enforces: no
    // diagnostic of any family survives the in-source allow() directives.
    assert!(
        scan.violations.is_empty(),
        "the tree carries lint diagnostics: {:#?}",
        scan.violations
    );
}
