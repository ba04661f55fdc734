//! Workspace automation for the `finrad` repo — chiefly `cargo xtask lint`,
//! a dependency-free static-analysis gate over every workspace `.rs` source.
//!
//! Every file is read once, by the token lexer ([`lexer`]), which also
//! captures the `// finrad-lint: allow(<id>)` directives. The gate runs in
//! two phases. Phase 1 lints every file against nine per-file families
//! (see [`lints`]):
//!
//! * `unit-safety` — public physics APIs must use `finrad-units` quantity
//!   types, not bare `f64`, for dimensioned *parameters*. (Return types
//!   are covered by the type system plus `raw-escape-audit`.)
//! * `raw-escape-audit` — the raw-f64 escape hatches `si_value()` /
//!   `from_si(..)` only inside the sanctioned sites (units internals,
//!   checkpoint serialization, SPICE MNA assembly).
//! * `rng-determinism` — no entropy- or wall-clock-seeded randomness
//!   anywhere; Monte-Carlo results must be reproducible from a seed.
//! * `panic-freedom` — no LUT slice indexing in non-test library code.
//! * `float-discipline` — no `f32`, and no `==`/`!=` against a float
//!   literal.
//! * `metrics-key-registry` — metric-key literals at Recorder call sites
//!   must be declared in `crates/observe/src/keys.rs` (read from that
//!   file's lexed tokens).
//! * `seed-discipline` — RNG seed arithmetic only inside the sanctioned
//!   helpers in `crates/numerics/src/rng.rs` (found in that file's own
//!   tokens).
//! * `shared-state-audit` — no `static mut`, `thread_local!`, or
//!   `Ordering::Relaxed` in library code.
//! * `unused-suppression` — `allow(...)` directives must still fire.
//!
//! Phase 2 runs the flow-sensitive concurrency families (see [`flow`]),
//! which walk each function body once in source order to track live lock
//! guards (no control-flow graph: a `drop` in a nested block holds only
//! until that block closes, and code after an early exit is still
//! checked), and reason across files through a name-keyed function index:
//!
//! * `lock-order-audit` — cycles in the workspace lock-acquisition graph
//!   (potential deadlocks), plus inline poisoned-lock recovery outside the
//!   sanctioned `finrad_spice::sync` module.
//! * `guard-lifetime-audit` — lock guards provably live across blocking
//!   calls (solves, condvar waits on other guards, joins, checkpoint I/O).
//! * `cancellation-responsiveness` — blocking unbounded loops reachable
//!   from supervised `spawn` entry points must poll cancellation.
//!
//! Every family is zero-tolerance: the gate prints each diagnostic and
//! fails on any. The one escape is a documented
//! `// finrad-lint: allow(<id>)` at the site; the gate has no other input
//! and no options.
//!
//! Rules clippy already checks are clippy's, not this crate's: each scanned
//! crate root enables `unwrap_used`, `expect_used`, `panic`, `todo`,
//! `unimplemented`, `unreachable`, `float_cmp` and
//! `let_underscore_must_use` outside `cfg(test)`, `ci.sh` denies every
//! clippy warning, and a deliberate exception is an
//! `#[expect(lint, reason = "…")]`. The full policy lives in
//! `docs/static-analysis.md`.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod flow;
pub mod lexer;
pub mod lints;

use std::io;
use std::path::{Path, PathBuf};

use lints::{KeyRegistry, Violation, KEYS_FILE, UNIT_SAFETY_CRATES};

/// Lints one file's source text. Without a `keys` registry the metric-key
/// family is skipped. `rel_path` is used for reporting and for the
/// path-scoped families; `unit_safety` gates the unit-safety family.
pub fn lint_file_source(
    rel_path: &Path,
    text: &str,
    unit_safety: bool,
    keys: Option<&KeyRegistry>,
) -> Vec<Violation> {
    lints::lint_file(rel_path, &lexer::lex(text), unit_safety, keys)
}

/// Result of scanning a source tree.
#[derive(Debug)]
pub struct ScanResult {
    /// Number of `.rs` files linted.
    pub files_scanned: usize,
    /// All per-file *and* flow-family violations, ordered by (file, line,
    /// col).
    pub violations: Vec<Violation>,
    /// The metric-key registry read from [`KEYS_FILE`].
    pub keys: KeyRegistry,
}

/// Scans the workspace rooted at `root`: the facade crate's `src/` plus
/// every `crates/*/src/` except `crates/xtask` itself. Binary targets
/// (`src/bin/`) are skipped — the lint families target *library* code.
///
/// # Errors
///
/// I/O errors reading the tree; a tree without [`KEYS_FILE`] is an error
/// too, since the metric-key family would be vacuous without it.
pub fn scan_tree(root: &Path) -> io::Result<ScanResult> {
    let mut files: Vec<(PathBuf, bool)> = Vec::new();

    let facade = root.join("src");
    if facade.is_dir() {
        collect_rs_files(&facade, &mut files, false)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut dirs: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "xtask" {
                continue;
            }
            let src = dir.join("src");
            if src.is_dir() {
                let unit_safety = UNIT_SAFETY_CRATES.contains(&name);
                collect_rs_files(&src, &mut files, unit_safety)?;
            }
        }
    }
    files.sort();

    let mut units: Vec<flow::FileUnit> = Vec::with_capacity(files.len());
    for (path, _) in &files {
        let text = std::fs::read_to_string(path)?;
        let rel = path.strip_prefix(root).unwrap_or(path).to_path_buf();
        units.push(flow::FileUnit {
            path: rel,
            lexed: lexer::lex(&text),
        });
    }
    let keys = units
        .iter()
        .find(|u| u.path == Path::new(KEYS_FILE))
        .map(|u| KeyRegistry::from_lexed(&u.lexed))
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("metric-key registry {KEYS_FILE} not found"),
            )
        })?;

    // Phase 1: raw per-file violations.
    let mut raw: Vec<Vec<Violation>> = units
        .iter()
        .zip(&files)
        .map(|(u, (_, unit_safety))| {
            lints::lint_file_raw(&u.path, &u.lexed, *unit_safety, Some(&keys))
        })
        .collect();

    // Phase 2: the whole-workspace flow families, merged into the owning
    // file's raw list so `allow(...)` directives apply uniformly.
    for v in flow::analyze(&units) {
        if let Some(i) = units.iter().position(|u| u.path == v.file) {
            raw[i].push(v);
        }
    }

    let mut violations = Vec::new();
    for (i, u) in units.iter().enumerate() {
        violations.extend(lints::apply_suppressions(
            &u.path,
            &u.lexed,
            std::mem::take(&mut raw[i]),
        ));
    }
    violations.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    Ok(ScanResult {
        files_scanned: files.len(),
        violations,
        keys,
    })
}

/// Recursively collects `.rs` files under `dir`, skipping `bin/` subtrees.
fn collect_rs_files(
    dir: &Path,
    out: &mut Vec<(PathBuf, bool)>,
    unit_safety: bool,
) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            if path.file_name().and_then(|n| n.to_str()) == Some("bin") {
                continue;
            }
            collect_rs_files(&path, out, unit_safety)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push((path, unit_safety));
        }
    }
    Ok(())
}

/// How [`lint_file_source`] reads a file's text, end to end: comments and
/// literals never fire, diagnostics land on the original line and column,
/// `allow(...)` directives cover exactly what they claim, and
/// `#[cfg(test)]` regions are exempt from the test-exempt families.
#[cfg(test)]
mod source {
    #[cfg(test)]
    mod tests {
        use crate::lexer::{lex, TokenKind};
        use crate::lint_file_source;
        use crate::lints::LintId;
        use std::path::Path;

        fn sites(src: &str) -> Vec<(LintId, usize, usize)> {
            lint_file_source(Path::new("x.rs"), src, false, None)
                .iter()
                .map(|v| (v.lint, v.line, v.col))
                .collect()
        }

        #[test]
        fn blanks_comments_and_strings() {
            let src = "fn f() {\n    let x = 1; // thread_rng in a comment\n    let y = \"thread_rng\";\n}\n";
            assert!(sites(src).is_empty());
            // The same word as code is flagged.
            assert_eq!(
                sites("fn f() { let r = thread_rng(); }\n"),
                [(LintId::RngDeterminism, 1, 18)]
            );
        }

        #[test]
        fn scrubbing_preserves_columns() {
            // Code after a block comment, after a string with escapes and
            // after a multi-byte char keeps its original character column.
            let src = "a /* xx */ f32\nlet s = \"a\\nb\"; f32\nlet t = \"é\"; f32\n";
            assert_eq!(
                sites(src),
                [
                    (LintId::FloatDiscipline, 1, 12),
                    (LintId::FloatDiscipline, 2, 17),
                    (LintId::FloatDiscipline, 3, 14),
                ]
            );
        }

        #[test]
        fn block_comments_nest_and_span_lines() {
            let src = "a /* one /* two */ still */ f32\nc /* open\nthread_rng()\n*/ f32\n";
            assert_eq!(
                sites(src),
                [
                    (LintId::FloatDiscipline, 1, 29),
                    (LintId::FloatDiscipline, 4, 4),
                ]
            );
        }

        #[test]
        fn raw_strings_are_blanked() {
            let src = "let p = r#\"thread_rng(\"x\")\"#;\nlet q = r\"f32\";\nlet r = br##\"f32 \"# f32\"##;\n";
            assert!(sites(src).is_empty());
        }

        #[test]
        fn lifetimes_survive_char_literals_blanked() {
            let src = "fn f<'a>(x: &'a f32) -> char { 'y' }\n";
            assert_eq!(sites(src), [(LintId::FloatDiscipline, 1, 17)]);
            let lexed = lex(src);
            let lifetimes = lexed
                .tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Lifetime && t.text == "a")
                .count();
            assert_eq!(lifetimes, 2);
            assert!(!lexed
                .tokens
                .iter()
                .any(|t| t.kind == TokenKind::Ident && t.text == "y"));
        }

        #[test]
        fn allow_directives_apply_to_own_and_next_line() {
            let src = "// finrad-lint: allow(float-discipline)\nfn a(x: f32) {}\nfn b(y: f32) {}\n";
            assert_eq!(sites(src), [(LintId::FloatDiscipline, 3, 9)]);
            // A directive naming another family covers nothing and is stale.
            let src = "// finrad-lint: allow(rng-determinism)\nfn a(x: f32) {}\n";
            assert_eq!(
                sites(src),
                [
                    (LintId::UnusedSuppression, 1, 4),
                    (LintId::FloatDiscipline, 2, 9),
                ]
            );
        }

        #[test]
        fn trailing_directives_cover_only_their_own_line() {
            // A trailing directive annotates its own line, never the next.
            let src = "fn a(x: f32) {} // finrad-lint: allow(float-discipline)\nfn b(y: f32) {}\n";
            assert_eq!(sites(src), [(LintId::FloatDiscipline, 2, 9)]);
            assert!(!lex(src).allows[0].standalone);
            // A standalone directive still reaches the next line.
            let src = "    // finrad-lint: allow(float-discipline)\nfn b(y: f32) {}\n";
            assert!(lex(src).allows[0].standalone);
            assert!(sites(src).is_empty());
        }

        #[test]
        fn directive_columns_are_recorded() {
            // "x(); // " is 8 chars; both stale directives report column 9.
            let src = "x(); // finrad-lint: allow(panic-freedom, float-discipline)\n";
            assert_eq!(
                sites(src),
                [
                    (LintId::UnusedSuppression, 1, 9),
                    (LintId::UnusedSuppression, 1, 9),
                ]
            );
        }

        #[test]
        fn cfg_test_modules_are_tagged() {
            let src = "fn lib(a: f32) {}\n#[cfg(test)]\nmod tests {\n    fn t(b: f32) { let _ = thread_rng(); }\n}\nfn lib2(c: f32) {}\n";
            // float-discipline is test-exempt; rng-determinism is not.
            assert_eq!(
                sites(src),
                [
                    (LintId::FloatDiscipline, 1, 11),
                    (LintId::RngDeterminism, 4, 28),
                    (LintId::FloatDiscipline, 6, 12),
                ]
            );
        }
    }
}
