//! Workspace automation for the `finrad` repo — chiefly `cargo xtask lint`,
//! a dependency-free static-analysis gate over every workspace `.rs` source.
//!
//! The gate runs in three phases. Phase 1 builds a
//! [`index::WorkspaceIndex`] from three anchor files (the metric-key
//! registry, the sanctioned RNG seed-derivation helpers, and the checkpoint
//! codec). Phase 2 lints every file against ten per-file families (see
//! [`lints`]):
//!
//! * `unit-safety` — public physics APIs must use `finrad-units` quantity
//!   types, not bare `f64`, for dimensioned *parameters*. (Return types
//!   are covered by the type system plus `raw-escape-audit`.)
//! * `raw-escape-audit` — the raw-f64 escape hatches `si_value()` /
//!   `from_si(..)` only inside the sanctioned sites (units internals,
//!   checkpoint serialization, SPICE MNA assembly).
//! * `rng-determinism` — no entropy- or wall-clock-seeded randomness
//!   anywhere; Monte-Carlo results must be reproducible from a seed.
//! * `panic-freedom` — no `unwrap`/`expect`/`panic!`-family calls or LUT
//!   slice indexing in non-test library code.
//! * `float-discipline` — no `f32`, float `==`/`!=`, or
//!   `partial_cmp().unwrap()`.
//! * `metrics-key-registry` — metric-key literals at Recorder call sites
//!   must be declared in `crates/observe/src/keys.rs`.
//! * `seed-discipline` — RNG seed arithmetic only inside the sanctioned
//!   helpers in `crates/numerics/src/rng.rs`.
//! * `shared-state-audit` — no `static mut`, `thread_local!`, or
//!   `Ordering::Relaxed` in library code.
//! * `checkpoint-schema-drift` — the checkpoint codec cannot change without
//!   a `CHECKPOINT_VERSION` bump (fingerprint pinned in the baseline).
//! * `unused-suppression` — `allow(...)` directives must still fire.
//!
//! Phase 3 runs the flow-sensitive concurrency families (see [`flow`]),
//! which build a control-flow graph per function ([`cfg`](mod@cfg)), solve a
//! forward dataflow problem over it ([`dataflow`]), and reason across
//! files through a name-keyed function index:
//!
//! * `lock-order-audit` — cycles in the workspace lock-acquisition graph
//!   (potential deadlocks), plus inline poisoned-lock recovery outside the
//!   sanctioned `finrad_spice::sync` module.
//! * `guard-lifetime-audit` — lock guards provably live across blocking
//!   calls (solves, condvar waits on other guards, joins, checkpoint I/O).
//! * `cancellation-responsiveness` — blocking unbounded loops reachable
//!   from supervised `spawn` entry points must poll cancellation.
//! * `result-discard-audit` — `Result`s from workspace functions discarded
//!   via `let _ = …` or bound but never read.
//!
//! Known debt is budgeted in `xtask/lint-baseline.toml` (see [`baseline`]);
//! individual sites are suppressed with `// finrad-lint: allow(<id>)`. The
//! full policy lives in `docs/static-analysis.md`.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod baseline;
pub mod bench;
pub mod cfg;
pub mod dataflow;
pub mod flow;
pub mod index;
pub mod json;
pub mod lexer;
pub mod lints;
pub mod report;
pub mod sarif;
pub mod source;

use std::io;
use std::path::{Path, PathBuf};

use index::WorkspaceIndex;
use lints::{Violation, UNIT_SAFETY_CRATES};

/// Lints one file's source text without a workspace index (the metric-key
/// family is skipped; the seed family has no sanctioned regions).
/// `rel_path` is used for reporting and for deciding whether the
/// unit-safety family applies.
pub fn lint_file_source(rel_path: &Path, text: &str, unit_safety: bool) -> Vec<Violation> {
    let scrubbed = source::scrub(text);
    let lexed = lexer::lex(text);
    lints::lint_file(rel_path, &scrubbed, &lexed, unit_safety, None)
}

/// Lints one file's source text against a phase-1 workspace index,
/// enabling the cross-file families.
pub fn lint_file_source_with_index(
    rel_path: &Path,
    text: &str,
    unit_safety: bool,
    index: &WorkspaceIndex,
) -> Vec<Violation> {
    let scrubbed = source::scrub(text);
    let lexed = lexer::lex(text);
    lints::lint_file(rel_path, &scrubbed, &lexed, unit_safety, Some(index))
}

/// Result of scanning a source tree.
#[derive(Debug)]
pub struct ScanResult {
    /// Number of `.rs` files linted.
    pub files_scanned: usize,
    /// All per-file *and* flow-family violations, ordered by (file, line,
    /// col). The workspace-level `checkpoint-schema-drift` check is *not*
    /// included — it needs the baseline, so the caller runs
    /// [`lints::checkpoint_drift`] against `index`.
    pub violations: Vec<Violation>,
    /// The phase-1 symbol index the lints ran against.
    pub index: WorkspaceIndex,
}

/// Scans the workspace rooted at `root`: the facade crate's `src/` plus
/// every `crates/*/src/` except `crates/xtask` itself. Binary targets
/// (`src/bin/`) are skipped — the lint families target *library* code.
pub fn scan_tree(root: &Path) -> io::Result<ScanResult> {
    let index = index::build(root)?;
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

    // Pass 1: lex + scrub everything, collect raw per-file violations.
    let mut units: Vec<flow::FileUnit> = Vec::with_capacity(files.len());
    let mut scrubbed: Vec<source::ScrubbedSource> = Vec::with_capacity(files.len());
    let mut raw: Vec<Vec<Violation>> = Vec::with_capacity(files.len());
    for (path, unit_safety) in &files {
        let text = std::fs::read_to_string(path)?;
        let rel = path.strip_prefix(root).unwrap_or(path).to_path_buf();
        let src = source::scrub(&text);
        let lexed = lexer::lex(&text);
        raw.push(lints::lint_file_raw(
            &rel,
            &src,
            &lexed,
            *unit_safety,
            Some(&index),
        ));
        scrubbed.push(src);
        units.push(flow::FileUnit { path: rel, lexed });
    }

    // Pass 2: the whole-workspace flow families, merged into the owning
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
            &scrubbed[i],
            std::mem::take(&mut raw[i]),
        ));
    }
    violations.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    Ok(ScanResult {
        files_scanned: files.len(),
        violations,
        index,
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
