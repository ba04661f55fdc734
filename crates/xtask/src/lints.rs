//! The lint families.
//!
//! Per-file lints operate on a [`ScrubbedSource`]
//! (substring families inherited from PR 1) and on a
//! [`LexedFile`] (token families added with the
//! workspace analyzer), so comments and literals can never produce false
//! positives. The cross-file families additionally consult the phase-1
//! [`WorkspaceIndex`]. All lints honour
//! `// finrad-lint: allow(<id>)` on the violation line, or on the line
//! above when the directive is a standalone comment; directives that
//! suppress nothing are themselves reported by the `unused-suppression`
//! audit, so the allow inventory can only ratchet down.
//!
//! Every violation carries a 1-indexed (line, col) span. Columns are
//! measured in characters of the original line — the scrubber and the lexer
//! both preserve columns exactly for this reason.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::index::{WorkspaceIndex, CHECKPOINT_FILE};
use crate::lexer::{LexedFile, TokenKind};
use crate::source::ScrubbedSource;

/// Identifier of a lint family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintId {
    /// Bare `f64` in public physics signatures where a unit newtype exists.
    UnitSafety,
    /// `si_value()` / `from_si(..)` raw-f64 escape hatches outside the
    /// sanctioned sites (units internals, checkpoint serialization, SPICE
    /// MNA assembly).
    RawEscapeAudit,
    /// Entropy-seeded or wall-clock-seeded randomness in library code.
    RngDeterminism,
    /// `unwrap`/`expect`/`panic!`-family calls and LUT slice indexing in
    /// non-test library code.
    PanicFreedom,
    /// `f32`, float `==`/`!=`, and `partial_cmp().unwrap()` patterns.
    FloatDiscipline,
    /// Metric-key string literals at Recorder call sites must be declared
    /// in `crates/observe/src/keys.rs`.
    MetricsKeyRegistry,
    /// RNG seed arithmetic outside the sanctioned derivation helpers in
    /// `crates/numerics/src/rng.rs`.
    SeedDiscipline,
    /// `static mut`, `thread_local!`, and `Ordering::Relaxed` in library
    /// code — shared-state hazards for the parallel Monte-Carlo paths.
    SharedStateAudit,
    /// The checkpoint (de)serialization region changed without a
    /// `CHECKPOINT_VERSION` bump (fingerprint pinned in
    /// `xtask/lint-baseline.toml`).
    CheckpointSchemaDrift,
    /// An `allow(...)` directive that no longer suppresses anything.
    UnusedSuppression,
    /// A cycle in the workspace lock-acquisition-order graph (potential
    /// deadlock), or the inline poisoned-lock recovery idiom outside the
    /// sanctioned `finrad_spice::sync` helpers.
    LockOrderAudit,
    /// A `MutexGuard` provably live across a blocking call (SPICE solve,
    /// `Condvar` wait on a different lock, `JoinHandle::join`, checkpoint
    /// I/O).
    GuardLifetimeAudit,
    /// A blocking loop reachable from a supervised job entry point that
    /// never polls its cancellation token.
    CancellationResponsiveness,
    /// A `Result` silently dropped via `let _ =` or an unused binding.
    ResultDiscardAudit,
}

impl LintId {
    /// The stable string ID used in allow directives and diagnostics.
    pub fn as_str(self) -> &'static str {
        match self {
            LintId::UnitSafety => "unit-safety",
            LintId::RawEscapeAudit => "raw-escape-audit",
            LintId::RngDeterminism => "rng-determinism",
            LintId::PanicFreedom => "panic-freedom",
            LintId::FloatDiscipline => "float-discipline",
            LintId::MetricsKeyRegistry => "metrics-key-registry",
            LintId::SeedDiscipline => "seed-discipline",
            LintId::SharedStateAudit => "shared-state-audit",
            LintId::CheckpointSchemaDrift => "checkpoint-schema-drift",
            LintId::UnusedSuppression => "unused-suppression",
            LintId::LockOrderAudit => "lock-order-audit",
            LintId::GuardLifetimeAudit => "guard-lifetime-audit",
            LintId::CancellationResponsiveness => "cancellation-responsiveness",
            LintId::ResultDiscardAudit => "result-discard-audit",
        }
    }

    /// Every lint family, in reporting order.
    pub const ALL: [LintId; 14] = [
        LintId::UnitSafety,
        LintId::RawEscapeAudit,
        LintId::RngDeterminism,
        LintId::PanicFreedom,
        LintId::FloatDiscipline,
        LintId::MetricsKeyRegistry,
        LintId::SeedDiscipline,
        LintId::SharedStateAudit,
        LintId::CheckpointSchemaDrift,
        LintId::UnusedSuppression,
        LintId::LockOrderAudit,
        LintId::GuardLifetimeAudit,
        LintId::CancellationResponsiveness,
        LintId::ResultDiscardAudit,
    ];
}

impl fmt::Display for LintId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which lint fired.
    pub lint: LintId,
    /// Repo-relative path of the offending file.
    pub file: PathBuf,
    /// 1-indexed line.
    pub line: usize,
    /// 1-indexed character column.
    pub col: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.col,
            self.lint,
            self.message
        )
    }
}

/// Crate directory names (under `crates/`) whose public API must use the
/// `finrad-units` newtypes instead of bare `f64` for dimensioned values.
pub const UNIT_SAFETY_CRATES: [&str; 6] = [
    "transport",
    "finfet",
    "spice",
    "sram",
    "core",
    "environment",
];

/// Runs every per-file lint family over one file and applies suppression.
///
/// `unit_safety` gates the unit-safety family (it only applies to the
/// physics crates in [`UNIT_SAFETY_CRATES`]). `index` enables the
/// cross-file families; without it the metric-key lint is skipped and the
/// seed lint has no sanctioned regions (fine for fixtures outside
/// `rng.rs`). Checkpoint drift is a workspace-level check and is reported
/// by [`checkpoint_drift`], not here.
pub fn lint_file(
    path: &Path,
    src: &ScrubbedSource,
    lexed: &LexedFile,
    unit_safety: bool,
    index: Option<&WorkspaceIndex>,
) -> Vec<Violation> {
    let out = lint_file_raw(path, src, lexed, unit_safety, index);
    let mut out = apply_suppressions(path, src, out);
    out.sort_by_key(|v| (v.line, v.col, v.lint));
    out
}

/// Like [`lint_file`] but *without* applying suppression directives.
/// [`crate::scan_tree`] uses this so the workspace-level flow families
/// ([`crate::flow`]) can merge their violations in first — an allow
/// directive covering a flow finding must count as *used* by the
/// unused-suppression audit.
pub fn lint_file_raw(
    path: &Path,
    src: &ScrubbedSource,
    lexed: &LexedFile,
    unit_safety: bool,
    index: Option<&WorkspaceIndex>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    if unit_safety {
        lint_unit_safety(path, src, &mut out);
    }
    lint_raw_escape(path, lexed, &mut out);
    lint_rng_determinism(path, src, &mut out);
    lint_panic_freedom(path, src, &mut out);
    lint_float_discipline(path, src, &mut out);
    if let Some(index) = index {
        lint_metrics_keys(path, lexed, index, &mut out);
    }
    lint_seed_discipline(path, lexed, index, &mut out);
    lint_shared_state(path, lexed, &mut out);
    out
}

/// Drops violations covered by `allow(...)` directives and reports
/// directives that covered nothing as `unused-suppression` violations.
/// Directives inside `#[cfg(test)]` regions are never audited (most
/// families are test-exempt, so they legitimately may not fire).
pub fn apply_suppressions(
    path: &Path,
    src: &ScrubbedSource,
    raw: Vec<Violation>,
) -> Vec<Violation> {
    let mut used: Vec<Vec<bool>> = src
        .lines
        .iter()
        .map(|l| vec![false; l.allows.len()])
        .collect();
    let mut kept = Vec::new();
    for v in raw {
        let idx = v.line.saturating_sub(1);
        let mut suppressed = false;
        if let Some(line) = src.lines.get(idx) {
            for (ai, allow) in line.allows.iter().enumerate() {
                if allow.id == v.lint.as_str() || allow.id == "all" {
                    used[idx][ai] = true;
                    suppressed = true;
                }
            }
        }
        if idx > 0 {
            if let Some(line) = src.lines.get(idx - 1) {
                for (ai, allow) in line.allows.iter().enumerate() {
                    if allow.standalone && (allow.id == v.lint.as_str() || allow.id == "all") {
                        used[idx - 1][ai] = true;
                        suppressed = true;
                    }
                }
            }
        }
        if !suppressed {
            kept.push(v);
        }
    }
    for (li, line) in src.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (ai, allow) in line.allows.iter().enumerate() {
            if !used[li][ai] {
                kept.push(Violation {
                    lint: LintId::UnusedSuppression,
                    file: path.to_path_buf(),
                    line: li + 1,
                    col: allow.col,
                    message: format!(
                        "`allow({})` suppresses nothing; remove the stale directive",
                        allow.id
                    ),
                });
            }
        }
    }
    kept
}

// ---------------------------------------------------------------------------
// rng-determinism
// ---------------------------------------------------------------------------

const RNG_FORBIDDEN: [(&str, &str); 4] = [
    (
        "thread_rng",
        "entropy-seeded RNG breaks Monte-Carlo reproducibility",
    ),
    (
        "from_entropy",
        "entropy-seeded RNG breaks Monte-Carlo reproducibility",
    ),
    (
        "SystemTime",
        "wall-clock-derived seeds break Monte-Carlo reproducibility",
    ),
    (
        "rand::random",
        "implicit thread-local RNG breaks Monte-Carlo reproducibility",
    ),
];

fn lint_rng_determinism(path: &Path, src: &ScrubbedSource, out: &mut Vec<Violation>) {
    for (idx, line) in src.lines.iter().enumerate() {
        for (needle, why) in RNG_FORBIDDEN {
            if let Some(at) = find_word(&line.code, needle) {
                out.push(Violation {
                    lint: LintId::RngDeterminism,
                    file: path.to_path_buf(),
                    line: idx + 1,
                    col: at + 1,
                    message: format!(
                        "`{needle}`: {why}; seed a `finrad_numerics::rng::Xoshiro256pp` instead"
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// panic-freedom
// ---------------------------------------------------------------------------

const PANIC_PATTERNS: [&str; 5] = [".unwrap()", ".expect(", "panic!", "todo!", "unimplemented!"];

fn lint_panic_freedom(path: &Path, src: &ScrubbedSource, out: &mut Vec<Violation>) {
    for (idx, line) in src.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for pat in PANIC_PATTERNS {
            if let Some(at) = line.code.find(pat) {
                out.push(Violation {
                    lint: LintId::PanicFreedom,
                    file: path.to_path_buf(),
                    line: idx + 1,
                    col: at + 2, // skip the leading `.` of method patterns
                    message: format!(
                        "`{}` can panic in library code; return a Result or document the invariant with an allow",
                        pat.trim_start_matches('.').trim_end_matches('(')
                    ),
                });
            }
        }
        for (at, name) in lut_index_idents(&line.code) {
            out.push(Violation {
                lint: LintId::PanicFreedom,
                file: path.to_path_buf(),
                line: idx + 1,
                col: at + 1,
                message: format!(
                    "direct slice indexing on LUT `{name}` can panic on out-of-range lookups; use `.get()` or a checked interpolation call"
                ),
            });
        }
    }
}

/// Identifiers ending in `lut` or `table` that are immediately indexed with
/// `[`, with the char offset of the identifier start.
fn lut_index_idents(code: &str) -> Vec<(usize, String)> {
    let chars: Vec<char> = code.chars().collect();
    let mut found = Vec::new();
    for (i, &c) in chars.iter().enumerate() {
        if c != '[' || i == 0 {
            continue;
        }
        let mut start = i;
        while start > 0 && (chars[start - 1].is_alphanumeric() || chars[start - 1] == '_') {
            start -= 1;
        }
        if start == i {
            continue;
        }
        let ident: String = chars[start..i].iter().collect();
        let lower = ident.to_lowercase();
        if lower.ends_with("lut") || lower.ends_with("table") {
            found.push((start, ident));
        }
    }
    found
}

// ---------------------------------------------------------------------------
// float-discipline
// ---------------------------------------------------------------------------

fn lint_float_discipline(path: &Path, src: &ScrubbedSource, out: &mut Vec<Violation>) {
    for (idx, line) in src.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        if let Some(at) = find_word(code, "f32") {
            out.push(Violation {
                lint: LintId::FloatDiscipline,
                file: path.to_path_buf(),
                line: idx + 1,
                col: at + 1,
                message: "`f32` loses precision the transport/circuit chain needs; use `f64`"
                    .to_string(),
            });
        }
        if let Some(at) = code.find("partial_cmp") {
            if code.contains(".unwrap()") || code.contains(".expect(") {
                out.push(Violation {
                    lint: LintId::FloatDiscipline,
                    file: path.to_path_buf(),
                    line: idx + 1,
                    col: at + 1,
                    message:
                        "`partial_cmp().unwrap()` panics on NaN; use `f64::total_cmp` for a total order"
                            .to_string(),
                });
            }
        }
        for at in float_eq_positions(code) {
            let op = &code[at..at + 2];
            out.push(Violation {
                lint: LintId::FloatDiscipline,
                file: path.to_path_buf(),
                line: idx + 1,
                col: at + 1,
                message: format!(
                    "`{op}` against a float literal is exact-equality on floats; compare with a tolerance or allow() the sentinel"
                ),
            });
        }
    }
}

/// Byte offsets of `==`/`!=` operators with a float literal on either side.
fn float_eq_positions(code: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let mut found = Vec::new();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let two = &bytes[i..i + 2];
        let is_eq = two == b"==" && (i == 0 || !b"<>=!+-*/%&|^".contains(&bytes[i - 1]));
        let is_ne = two == b"!=";
        if (is_eq || is_ne) && bytes.get(i + 2) != Some(&b'=') {
            let lhs = token_before(code, i);
            let rhs = token_after(code, i + 2);
            if is_float_literal(&lhs) || is_float_literal(&rhs) {
                found.push(i);
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    found
}

fn token_before(code: &str, end: usize) -> String {
    let chars: Vec<char> = code[..end].chars().collect();
    let mut j = chars.len();
    while j > 0 && chars[j - 1] == ' ' {
        j -= 1;
    }
    let stop = j;
    while j > 0 && (chars[j - 1].is_alphanumeric() || ".,_".contains(chars[j - 1])) {
        j -= 1;
    }
    chars[j..stop].iter().collect()
}

fn token_after(code: &str, start: usize) -> String {
    let chars: Vec<char> = code[start..].chars().collect();
    let mut j = 0;
    while j < chars.len() && chars[j] == ' ' {
        j += 1;
    }
    if chars.get(j) == Some(&'-') {
        j += 1;
    }
    let begin = j;
    while j < chars.len() && (chars[j].is_alphanumeric() || "._".contains(chars[j])) {
        j += 1;
    }
    chars[begin..j].iter().collect()
}

/// Recognizes `1.0`, `.5`, `2.`, `1e-12`, `3.0e8`, `0.0f64` as floats.
fn is_float_literal(tok: &str) -> bool {
    let tok = tok.trim_end_matches("f64").trim_end_matches("f32");
    if tok.is_empty() || !tok.starts_with(|c: char| c.is_ascii_digit() || c == '.') {
        return false;
    }
    let has_dot = tok.contains('.');
    let has_exp =
        tok.chars().any(|c| c == 'e' || c == 'E') && tok.starts_with(|c: char| c.is_ascii_digit());
    (has_dot || has_exp)
        && tok
            .chars()
            .all(|c| c.is_ascii_digit() || ".eE+-_".contains(c))
}

// ---------------------------------------------------------------------------
// metrics-key-registry
// ---------------------------------------------------------------------------

/// Recorder entry points whose first argument is a metric key.
const RECORDER_CALLS: [&str; 3] = ["counter_add", "record", "span"];

fn lint_metrics_keys(
    path: &Path,
    lexed: &LexedFile,
    index: &WorkspaceIndex,
    out: &mut Vec<Violation>,
) {
    for w in lexed.tokens.windows(3) {
        let is_keyed_call = w[0].kind == TokenKind::Ident
            && RECORDER_CALLS.contains(&w[0].text.as_str())
            && w[1].text == "("
            && w[2].kind == TokenKind::Str;
        if !is_keyed_call || w[2].in_test {
            continue;
        }
        let key = &w[2].text;
        if index.key_is_declared(key) {
            continue;
        }
        let hint = match index.nearest_key(key) {
            Some(near) => format!("; did you mean `{near}`?"),
            None => String::new(),
        };
        out.push(Violation {
            lint: LintId::MetricsKeyRegistry,
            file: path.to_path_buf(),
            line: w[2].line,
            col: w[2].col,
            message: format!(
                "metric key \"{key}\" is not declared in crates/observe/src/keys.rs — undeclared keys silently vanish from BENCH trajectories{hint}"
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// seed-discipline
// ---------------------------------------------------------------------------

/// Method names that indicate seed arithmetic inside a constructor call.
const SEED_ARITH_METHODS: [&str; 6] = [
    "wrapping_mul",
    "wrapping_add",
    "wrapping_sub",
    "rotate_left",
    "rotate_right",
    "swap_bytes",
];
const SEED_ARITH_OPS: [char; 9] = ['^', '+', '-', '*', '/', '%', '&', '|', '<'];

fn lint_seed_discipline(
    path: &Path,
    lexed: &LexedFile,
    index: Option<&WorkspaceIndex>,
    out: &mut Vec<Violation>,
) {
    let sanctioned = |line: usize| index.is_some_and(|ix| ix.line_is_seed_sanctioned(path, line));
    let tokens = &lexed.tokens;
    for (i, tok) in tokens.iter().enumerate() {
        if tok.in_test || tok.kind != TokenKind::Ident || sanctioned(tok.line) {
            continue;
        }
        if tok.text == "seed_from_u64" && tokens.get(i + 1).is_some_and(|t| t.text == "(") {
            // Scan the argument list for derivation arithmetic; a bare
            // ident/field/literal seed is fine.
            let mut depth = 0i64;
            let mut adhoc = false;
            for t in &tokens[i + 1..] {
                match t.text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                let is_op = t.kind == TokenKind::Punct
                    && t.text
                        .chars()
                        .next()
                        .is_some_and(|c| SEED_ARITH_OPS.contains(&c));
                let is_arith_method =
                    t.kind == TokenKind::Ident && SEED_ARITH_METHODS.contains(&t.text.as_str());
                if is_op || is_arith_method {
                    adhoc = true;
                }
            }
            if adhoc {
                out.push(Violation {
                    lint: LintId::SeedDiscipline,
                    file: path.to_path_buf(),
                    line: tok.line,
                    col: tok.col,
                    message: "ad-hoc seed arithmetic in `seed_from_u64(...)`; derive parallel streams with `Xoshiro256pp::stream`/`salted_stream` so chunk seeding stays bit-stable"
                        .to_string(),
                });
            }
        }
        let is_splitmix_new = tok.text == "SplitMix64"
            && tokens.get(i + 1).is_some_and(|t| t.text == ":")
            && tokens.get(i + 2).is_some_and(|t| t.text == ":")
            && tokens.get(i + 3).is_some_and(|t| t.text == "new");
        if is_splitmix_new {
            out.push(Violation {
                lint: LintId::SeedDiscipline,
                file: path.to_path_buf(),
                line: tok.line,
                col: tok.col,
                message: "`SplitMix64` is the seed-expansion engine internal to `finrad_numerics::rng`; construct `Xoshiro256pp` through its sanctioned helpers instead"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// shared-state-audit
// ---------------------------------------------------------------------------

fn lint_shared_state(path: &Path, lexed: &LexedFile, out: &mut Vec<Violation>) {
    let tokens = &lexed.tokens;
    for (i, tok) in tokens.iter().enumerate() {
        if tok.in_test || tok.kind != TokenKind::Ident {
            continue;
        }
        match tok.text.as_str() {
            "static" if tokens.get(i + 1).is_some_and(|t| t.text == "mut") => {
                out.push(Violation {
                    lint: LintId::SharedStateAudit,
                    file: path.to_path_buf(),
                    line: tok.line,
                    col: tok.col,
                    message: "`static mut` is unsynchronized shared state; use an atomic, a lock, or pass state explicitly"
                        .to_string(),
                });
            }
            "thread_local" if tokens.get(i + 1).is_some_and(|t| t.text == "!") => {
                out.push(Violation {
                    lint: LintId::SharedStateAudit,
                    file: path.to_path_buf(),
                    line: tok.line,
                    col: tok.col,
                    message: "`thread_local!` state diverges across workers and breaks core-count bit-identity of the parallel MC; derive per-chunk state instead"
                        .to_string(),
                });
            }
            "Relaxed"
                if i >= 3
                    && tokens[i - 1].text == ":"
                    && tokens[i - 2].text == ":"
                    && tokens[i - 3].text == "Ordering" =>
            {
                out.push(Violation {
                    lint: LintId::SharedStateAudit,
                    file: path.to_path_buf(),
                    line: tok.line,
                    col: tok.col,
                    message: "`Ordering::Relaxed` gives no cross-thread ordering; use `SeqCst`, or allow() a documented monotonic counter"
                        .to_string(),
                });
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// checkpoint-schema-drift
// ---------------------------------------------------------------------------

/// Compares the live checkpoint schema in `index` against the
/// `(fingerprint, format-version)` pair pinned in `xtask/lint-baseline.toml`. Returns
/// workspace-level violations anchored at the `CHECKPOINT_VERSION`
/// constant.
pub fn checkpoint_drift(index: &WorkspaceIndex, recorded: Option<(u64, u32)>) -> Vec<Violation> {
    let file = PathBuf::from(CHECKPOINT_FILE);
    let Some(schema) = &index.checkpoint else {
        return vec![Violation {
            lint: LintId::CheckpointSchemaDrift,
            file,
            line: 1,
            col: 1,
            message: "`CHECKPOINT_VERSION: u32` constant not found; the checkpoint codec must declare its format version"
                .to_string(),
        }];
    };
    let at = |message: String| Violation {
        lint: LintId::CheckpointSchemaDrift,
        file: file.clone(),
        line: schema.version_line,
        col: schema.version_col,
        message,
    };
    match recorded {
        None => vec![at(
            "no recorded checkpoint schema fingerprint in xtask/lint-baseline.toml; run `cargo xtask lint --fix-allowlist` to record it"
                .to_string(),
        )],
        Some((fp, ver)) if fp != schema.fingerprint && ver == schema.version => vec![at(format!(
            "checkpoint (de)serialization code changed (fingerprint {:016x} -> {:016x}) without a CHECKPOINT_VERSION bump; bump the version and refresh with `cargo xtask lint --fix-allowlist`",
            fp, schema.fingerprint
        ))],
        Some((fp, _)) if fp != schema.fingerprint => vec![at(format!(
            "CHECKPOINT_VERSION bumped to {}; refresh the recorded schema fingerprint with `cargo xtask lint --fix-allowlist`",
            schema.version
        ))],
        Some((_, ver)) if ver != schema.version => vec![at(format!(
            "recorded format-version {} does not match CHECKPOINT_VERSION {}; refresh with `cargo xtask lint --fix-allowlist`",
            ver, schema.version
        ))],
        Some(_) => Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// unit-safety
// ---------------------------------------------------------------------------

/// Parameter/function names that denote a dimensioned quantity with an
/// existing `finrad-units` newtype.
const UNIT_EXACT: [&str; 6] = ["vdd", "flux", "fit", "energy", "charge", "voltage"];
const UNIT_SUFFIXES: [&str; 18] = [
    "_ev",
    "_kev",
    "_mev",
    "_gev",
    "_charge",
    "_fc",
    "_coulombs",
    "_electrons",
    "_nm",
    "_um",
    "_cm",
    "_volt",
    "_volts",
    "_mv",
    "_flux",
    "_fit",
    "_ps",
    "_seconds",
];

fn matches_unit_vocab(name: &str) -> bool {
    let name = name.trim_start_matches('_');
    UNIT_EXACT.contains(&name) || UNIT_SUFFIXES.iter().any(|s| name.ends_with(s))
}

fn lint_unit_safety(path: &Path, src: &ScrubbedSource, out: &mut Vec<Violation>) {
    // Join non-test lines (blanking test ones) so multi-line signatures can
    // be reassembled while keeping a byte-offset → (line, col) mapping.
    let mut joined = String::new();
    let mut line_starts = Vec::with_capacity(src.lines.len());
    for line in &src.lines {
        line_starts.push(joined.len());
        if line.in_test {
            joined.push('\n');
        } else {
            joined.push_str(&line.code);
            joined.push('\n');
        }
    }
    let line_col_of = |offset: usize| -> (usize, usize) {
        let line = match line_starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        let col = offset
            - line_starts
                .get(line.saturating_sub(1))
                .copied()
                .unwrap_or(0)
            + 1;
        (line, col)
    };

    let mut search_from = 0;
    while let Some(rel) = joined[search_from..].find("pub fn ") {
        let fn_start = search_from + rel;
        search_from = fn_start + 7;
        let Some(sig_end_rel) = joined[fn_start..].find(['{', ';']) else {
            break;
        };
        let sig = &joined[fn_start..fn_start + sig_end_rel];
        let name = sig["pub fn ".len()..]
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect::<String>();

        let Some(open) = sig.find('(') else { continue };
        let Some(params) = matching_paren_body(&sig[open..]) else {
            continue;
        };
        for (param_rel, param) in split_top_level(params) {
            let Some((pname, ptype)) = param.split_once(':') else {
                continue;
            };
            let pname = pname.trim().trim_start_matches("mut ").trim();
            if ptype.trim() == "f64" && matches_unit_vocab(pname) {
                let leading_ws = param.len() - param.trim_start().len();
                let offset = fn_start + open + 1 + param_rel + leading_ws;
                let (line, col) = line_col_of(offset);
                out.push(Violation {
                    lint: LintId::UnitSafety,
                    file: path.to_path_buf(),
                    line,
                    col,
                    message: format!(
                        "`pub fn {name}` takes `{pname}: f64`; use the matching finrad-units newtype"
                    ),
                });
            }
        }

        // Note: the historical return-type arm (`pub fn vdd() -> f64`) is
        // retired. Producing a dimensioned value as a bare f64 now requires
        // an explicit `si_value()` call, which the raw-escape-audit family
        // catches at the call site with a precise span; only the
        // parameter-side vocabulary check remains, because an *input* f64
        // is invisible to the type system.
    }
}

// ---------------------------------------------------------------------------
// raw-escape-audit
// ---------------------------------------------------------------------------

/// Repo-relative paths (files or directory prefixes) where the raw-f64
/// escape hatches `si_value()` / `from_si(..)` are sanctioned:
///
/// * `crates/units` — the unit system's own constructors/accessors are
///   implemented in terms of the escapes;
/// * `crates/core/src/checkpoint.rs` — checkpoint (de)serialization needs
///   raw bit patterns for the fingerprinted codec;
/// * `crates/spice/src/circuit.rs` — MNA assembly packs quantities into
///   bare-f64 matrix stamps on the solver hot path.
pub const RAW_ESCAPE_SANCTIONED: [&str; 3] = [
    "crates/units",
    "crates/core/src/checkpoint.rs",
    "crates/spice/src/circuit.rs",
];

/// True when `path` (repo-relative) is inside a sanctioned raw-escape site.
fn raw_escape_sanctioned(path: &Path) -> bool {
    RAW_ESCAPE_SANCTIONED
        .iter()
        .any(|p| path.starts_with(Path::new(p)))
}

/// Flags `si_value()` / `from_si(..)` calls outside the sanctioned sites.
///
/// The escapes exist so the units crate can be built and serialized; in
/// physics code they reintroduce exactly the raw-f64 plumbing the
/// `Quantity` types eliminate, so every use outside
/// [`RAW_ESCAPE_SANCTIONED`] is a violation.
/// Test code is exempt — asserting on raw SI values is legitimate.
fn lint_raw_escape(path: &Path, lexed: &LexedFile, out: &mut Vec<Violation>) {
    if raw_escape_sanctioned(path) {
        return;
    }
    let tokens = &lexed.tokens;
    for (i, tok) in tokens.iter().enumerate() {
        if tok.in_test || tok.kind != TokenKind::Ident {
            continue;
        }
        let is_escape = matches!(tok.text.as_str(), "si_value" | "from_si");
        if !is_escape || tokens.get(i + 1).is_none_or(|t| t.text != "(") {
            continue;
        }
        let advice = if tok.text == "si_value" {
            "read the value through a domain accessor or keep it typed"
        } else {
            "construct through a domain constructor (`from_kev`, `from_nm`, ...)"
        };
        out.push(Violation {
            lint: LintId::RawEscapeAudit,
            file: path.to_path_buf(),
            line: tok.line,
            col: tok.col,
            message: format!(
                "`{}(..)` bypasses the compile-time dimension checking outside a sanctioned site; {advice}",
                tok.text
            ),
        });
    }
}

/// Given a string starting at `(`, returns the body up to the matching `)`.
fn matching_paren_body(s: &str) -> Option<&str> {
    let mut depth = 0i32;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&s[1..i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Splits a parameter list on top-level commas, yielding each parameter and
/// its byte offset within the list.
fn split_top_level(params: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut start = 0;
    let bytes = params.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b'<' => angle += 1,
            b'>' if i == 0 || bytes[i - 1] != b'-' => angle -= 1,
            b',' if depth == 0 && angle <= 0 => {
                out.push((start, &params[start..i]));
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < params.len() {
        out.push((start, &params[start..]));
    }
    out
}

/// Byte offset of the first occurrence of `word` bounded by non-identifier
/// characters (scrubbed lines are ASCII-blanked, so byte == char offset).
fn find_word(code: &str, word: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(rel) = code[from..].find(word) {
        let at = from + rel;
        let before_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + word.len();
        let after_ok = after >= code.len()
            || !code[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + word.len();
    }
    None
}

/// True when `code` contains `word` bounded by non-identifier characters.
#[cfg(test)]
fn contains_word(code: &str, word: &str) -> bool {
    find_word(code, word).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::source::scrub;
    use std::path::Path;

    fn run(src: &str) -> Vec<Violation> {
        lint_file(Path::new("x.rs"), &scrub(src), &lex(src), true, None)
    }

    #[test]
    fn word_boundaries() {
        assert!(contains_word("let r = thread_rng();", "thread_rng"));
        assert!(!contains_word("let my_thread_rng_thing = 1;", "thread_rng"));
        assert!(contains_word("x: f32,", "f32"));
        assert!(!contains_word("xf32y", "f32"));
    }

    #[test]
    fn float_literal_recognition() {
        assert!(is_float_literal("1.0"));
        assert!(is_float_literal("0.0f64"));
        assert!(is_float_literal("1e-12"));
        assert!(is_float_literal("3.0e8"));
        assert!(!is_float_literal("0"));
        assert!(!is_float_literal("x"));
        assert!(!is_float_literal("0x1f"));
    }

    #[test]
    fn detects_float_equality_but_not_integers() {
        let v = run("fn f(a: f64) -> bool { a == 0.0 }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, LintId::FloatDiscipline);
        assert_eq!((v[0].line, v[0].col), (1, 26));
        assert!(run("fn f(a: usize) -> bool { a == 0 }\n").is_empty());
        assert!(run("fn f(a: f64) -> bool { a <= 0.0 }\n").is_empty());
    }

    #[test]
    fn unit_safety_multiline_signature() {
        let src = "pub fn build(\n    lo_mev: f64,\n    hi_mev: f64,\n) -> u32 { 0 }\n";
        let v = run(src);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].lint, LintId::UnitSafety);
        assert_eq!((v[0].line, v[0].col), (2, 5));
        assert_eq!((v[1].line, v[1].col), (3, 5));
    }

    #[test]
    fn unit_safety_return_type_check_is_retired() {
        // Returning a dimensioned f64 now requires an `si_value()` call,
        // which raw-escape-audit catches; the signature itself is clean.
        assert!(run("pub fn vdd(&self) -> f64 { 0.8 }\n").is_empty());
        let v = run("pub fn vdd(&self) -> f64 { self.vdd.si_value() }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, LintId::RawEscapeAudit);
    }

    #[test]
    fn unit_safety_ignores_newtypes_and_private_fns() {
        assert!(run("pub fn vdd(&self) -> Voltage { self.vdd }\n").is_empty());
        assert!(run("fn vdd(&self) -> u64 { 8 }\n").is_empty());
        assert!(run("pub fn scale(factor: f64) -> f64 { factor }\n").is_empty());
    }

    #[test]
    fn raw_escape_fires_with_spans_outside_sanctioned_sites() {
        let src = "fn f(e: Energy) -> f64 { e.si_value() }\nfn g(x: f64) -> Energy { Energy::from_si(x) }\n";
        let v = lint_file(
            Path::new("crates/transport/src/x.rs"),
            &scrub(src),
            &lex(src),
            false,
            None,
        );
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].lint, LintId::RawEscapeAudit);
        assert_eq!((v[0].line, v[0].col), (1, 28));
        assert!(v[0].message.contains("si_value"));
        assert_eq!((v[1].line, v[1].col), (2, 34));
        assert!(v[1].message.contains("from_si"));
    }

    #[test]
    fn raw_escape_sanctioned_sites_and_tests_are_exempt() {
        let src = "fn f(e: Energy) -> f64 { e.si_value() }\n";
        for sanctioned in [
            "crates/units/src/quantity.rs",
            "crates/core/src/checkpoint.rs",
            "crates/spice/src/circuit.rs",
        ] {
            let v = lint_file(Path::new(sanctioned), &scrub(src), &lex(src), false, None);
            assert!(v.is_empty(), "{sanctioned} should be sanctioned");
        }
        // checkpoint.rs is sanctioned; its siblings are not.
        let v = lint_file(
            Path::new("crates/core/src/fit.rs"),
            &scrub(src),
            &lex(src),
            false,
            None,
        );
        assert_eq!(v.len(), 1);
        // Test code may assert on raw SI values.
        let test_src =
            "#[cfg(test)]\nmod tests {\n    fn t() { assert!(e.si_value() > 0.0); }\n}\n";
        assert!(run(test_src).is_empty());
    }

    #[test]
    fn raw_escape_ignores_lookalikes_and_honours_allow() {
        // Identifier must be exact and must be a call.
        assert!(run("fn f() { let si_value = 3; let _ = si_value; }\n").is_empty());
        assert!(run("fn f(q: Q) { let _ = q.to_si_value(); }\n").is_empty());
        let src =
            "fn f(e: Energy) -> f64 {\n    // finrad-lint: allow(raw-escape-audit)\n    e.si_value()\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn lut_indexing_flagged() {
        let v = run("fn f() { let y = self.pair_lut[i]; }\n");
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("pair_lut"));
        assert_eq!(v[0].col, 23);
        assert!(run("fn f() { let y = self.pair_lut.get(i); }\n").is_empty());
    }

    #[test]
    fn allow_suppresses_and_counts_as_used() {
        let src = "fn f() {\n    // finrad-lint: allow(panic-freedom)\n    x.unwrap();\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn unused_allow_is_reported() {
        let src = "// finrad-lint: allow(panic-freedom)\nfn f() -> u64 { 7 }\n";
        let v = run(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, LintId::UnusedSuppression);
        assert_eq!((v[0].line, v[0].col), (1, 4));
    }

    #[test]
    fn trailing_allow_no_longer_covers_next_line() {
        let src =
            "fn f() {\n    a.unwrap(); // finrad-lint: allow(panic-freedom)\n    b.unwrap();\n}\n";
        let v = run(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, LintId::PanicFreedom);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn test_code_is_exempt_from_panic_lints_not_rng() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); let r = thread_rng(); }\n}\n";
        let v = run(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, LintId::RngDeterminism);
    }

    #[test]
    fn shared_state_patterns_fire_with_spans() {
        let src = "pub static mut TALLY: u64 = 0;\nfn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
        let v = run(src);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].lint, LintId::SharedStateAudit);
        assert_eq!((v[0].line, v[0].col), (1, 5));
        assert!(v[1].message.contains("Relaxed"));
    }

    #[test]
    fn seed_discipline_flags_arithmetic_not_bare_seeds() {
        assert!(run("fn f(s: u64) { let r = Xoshiro256pp::seed_from_u64(s); }\n").is_empty());
        let v = run(
            "fn f(s: u64, c: u64) { let r = Xoshiro256pp::seed_from_u64(s ^ c.wrapping_mul(3)); }\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, LintId::SeedDiscipline);
    }

    #[test]
    fn checkpoint_drift_states() {
        use crate::index;
        let src = "pub const CHECKPOINT_VERSION: u32 = 2;\nfn save() -> u64 { 41 }\n";
        let ix = index::from_sources("", "", Some(src));
        let schema = ix.checkpoint.clone().expect("schema");
        assert!(checkpoint_drift(&ix, Some((schema.fingerprint, 2))).is_empty());
        let drifted = checkpoint_drift(&ix, Some((schema.fingerprint ^ 1, 2)));
        assert_eq!(drifted.len(), 1);
        assert!(drifted[0]
            .message
            .contains("without a CHECKPOINT_VERSION bump"));
        assert_eq!(drifted[0].line, schema.version_line);
        let bumped = checkpoint_drift(&ix, Some((schema.fingerprint ^ 1, 1)));
        assert!(bumped[0]
            .message
            .contains("refresh the recorded schema fingerprint"));
        let unrecorded = checkpoint_drift(&ix, None);
        assert!(unrecorded[0].message.contains("no recorded checkpoint"));
    }
}
