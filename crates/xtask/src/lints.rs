//! The lint families.
//!
//! Per-file lints match token patterns over a [`LexedFile`], so comments
//! and literals can never produce false positives. `metrics-key-registry`
//! checks call sites against the [`KeyRegistry`] read from the lexed
//! `crates/observe/src/keys.rs`; `seed-discipline` finds its sanctioned
//! helper bodies in `crates/numerics/src/rng.rs`'s own tokens while it
//! lints that file. All lints honour
//! `// finrad-lint: allow(<id>)` on the violation line, or on the line
//! above when the directive is a standalone comment; directives that
//! suppress nothing are themselves reported by the `unused-suppression`
//! audit, so the allow inventory can only ratchet down.
//!
//! Every violation carries the 1-indexed (line, col) span of the offending
//! token, with columns measured in characters of the original line.

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::lexer::{LexedFile, Token, TokenKind};

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
    /// LUT slice indexing in non-test library code (the panicking calls
    /// are clippy's `unwrap_used`/`expect_used`/`panic`/... lints).
    PanicFreedom,
    /// `f32` and `==`/`!=` against a float literal.
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
            LintId::UnusedSuppression => "unused-suppression",
            LintId::LockOrderAudit => "lock-order-audit",
            LintId::GuardLifetimeAudit => "guard-lifetime-audit",
            LintId::CancellationResponsiveness => "cancellation-responsiveness",
        }
    }

    /// Every lint family, in reporting order.
    pub const ALL: [LintId; 12] = [
        LintId::UnitSafety,
        LintId::RawEscapeAudit,
        LintId::RngDeterminism,
        LintId::PanicFreedom,
        LintId::FloatDiscipline,
        LintId::MetricsKeyRegistry,
        LintId::SeedDiscipline,
        LintId::SharedStateAudit,
        LintId::UnusedSuppression,
        LintId::LockOrderAudit,
        LintId::GuardLifetimeAudit,
        LintId::CancellationResponsiveness,
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
/// physics crates in [`UNIT_SAFETY_CRATES`]). Without a `keys` registry
/// the metric-key family is skipped.
pub fn lint_file(
    path: &Path,
    lexed: &LexedFile,
    unit_safety: bool,
    keys: Option<&KeyRegistry>,
) -> Vec<Violation> {
    let out = lint_file_raw(path, lexed, unit_safety, keys);
    let mut out = apply_suppressions(path, lexed, out);
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
    lexed: &LexedFile,
    unit_safety: bool,
    keys: Option<&KeyRegistry>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    if unit_safety {
        lint_unit_safety(path, lexed, &mut out);
    }
    lint_raw_escape(path, lexed, &mut out);
    lint_rng_determinism(path, lexed, &mut out);
    lint_panic_freedom(path, lexed, &mut out);
    lint_float_discipline(path, lexed, &mut out);
    if let Some(keys) = keys {
        lint_metrics_keys(path, lexed, keys, &mut out);
    }
    lint_seed_discipline(path, lexed, &mut out);
    lint_shared_state(path, lexed, &mut out);
    out
}

/// Drops violations covered by `allow(...)` directives and reports
/// directives that covered nothing as `unused-suppression` violations.
/// Directives inside `#[cfg(test)]` regions are never audited (most
/// families are test-exempt, so they legitimately may not fire).
pub fn apply_suppressions(path: &Path, lexed: &LexedFile, raw: Vec<Violation>) -> Vec<Violation> {
    let mut used = vec![false; lexed.allows.len()];
    let mut kept = Vec::new();
    for v in raw {
        let mut suppressed = false;
        for (ai, allow) in lexed.allows.iter().enumerate() {
            if allow.covers(v.lint.as_str(), v.line) {
                used[ai] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            kept.push(v);
        }
    }
    for (allow, used) in lexed.allows.iter().zip(used) {
        if !used && !allow.in_test {
            kept.push(Violation {
                lint: LintId::UnusedSuppression,
                file: path.to_path_buf(),
                line: allow.line,
                col: allow.col,
                message: format!(
                    "`allow({})` suppresses nothing; remove the stale directive",
                    allow.id
                ),
            });
        }
    }
    kept
}

// ---------------------------------------------------------------------------
// rng-determinism
// ---------------------------------------------------------------------------

const RNG_FORBIDDEN: [(&str, &str); 5] = [
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
    (
        "getrandom",
        "OS-entropy seeds break Monte-Carlo reproducibility",
    ),
];

fn lint_rng_determinism(path: &Path, lexed: &LexedFile, out: &mut Vec<Violation>) {
    let tokens = &lexed.tokens;
    for (i, tok) in tokens.iter().enumerate() {
        for (needle, why) in RNG_FORBIDDEN {
            if is_path(tokens, i, needle) {
                out.push(Violation {
                    lint: LintId::RngDeterminism,
                    file: path.to_path_buf(),
                    line: tok.line,
                    col: tok.col,
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

/// Flags identifiers ending in `lut` or `table` indexed with `[`. The
/// panicking calls (`unwrap`, `expect`, `panic!`, ...) are clippy's, enabled
/// in every scanned crate root.
fn lint_panic_freedom(path: &Path, lexed: &LexedFile, out: &mut Vec<Violation>) {
    let tokens = &lexed.tokens;
    for (i, tok) in tokens.iter().enumerate() {
        if tok.in_test || tok.kind != TokenKind::Ident || !is_punct(tokens, i + 1, "[") {
            continue;
        }
        let lower = tok.text.to_lowercase();
        if lower.ends_with("lut") || lower.ends_with("table") {
            out.push(Violation {
                lint: LintId::PanicFreedom,
                file: path.to_path_buf(),
                line: tok.line,
                col: tok.col,
                message: format!(
                    "direct slice indexing on LUT `{}` can panic on out-of-range lookups; use `.get()` or a checked interpolation call",
                    tok.text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// float-discipline
// ---------------------------------------------------------------------------

fn lint_float_discipline(path: &Path, lexed: &LexedFile, out: &mut Vec<Violation>) {
    let tokens = &lexed.tokens;
    for (i, tok) in tokens.iter().enumerate() {
        if tok.in_test {
            continue;
        }
        if tok.kind == TokenKind::Ident && tok.text == "f32" {
            out.push(Violation {
                lint: LintId::FloatDiscipline,
                file: path.to_path_buf(),
                line: tok.line,
                col: tok.col,
                message: "`f32` loses precision the transport/circuit chain needs; use `f64`"
                    .to_string(),
            });
        }
        let Some(op) = eq_operator(tokens, i) else {
            continue;
        };
        // A tuple field (`t.0`) is not a literal; a unary minus may lead
        // the right-hand literal.
        let lhs = i
            .checked_sub(1)
            .filter(|&k| k == 0 || !is_punct(tokens, k - 1, "."));
        let rhs = i + 2 + usize::from(is_punct(tokens, i + 2, "-"));
        if lhs.is_some_and(|k| is_float_number(&tokens[k]))
            || tokens.get(rhs).is_some_and(is_float_number)
        {
            out.push(Violation {
                lint: LintId::FloatDiscipline,
                file: path.to_path_buf(),
                line: tok.line,
                col: tok.col,
                message: format!(
                    "`{op}` against a float literal is exact-equality on floats; compare with a tolerance or allow() the sentinel"
                ),
            });
        }
    }
}

/// `==` or `!=` when `tokens[i]` starts one: a `=` or `!` punct token
/// directly followed by a `=`.
fn eq_operator(tokens: &[Token], i: usize) -> Option<&'static str> {
    let op = match tokens[i].text.as_str() {
        "=" => "==",
        "!" => "!=",
        _ => return None,
    };
    let joined = is_punct(tokens, i + 1, "=")
        && tokens[i + 1].line == tokens[i].line
        && tokens[i + 1].col == tokens[i].col + 1;
    (tokens[i].kind == TokenKind::Punct && joined).then_some(op)
}

/// Recognizes float literals among number tokens: `1.0`, `2.`, `1e-12`,
/// `3.0e8`, `0.0f64`, `1f64` — not `0`, `4096` or `0x1f`.
fn is_float_number(tok: &Token) -> bool {
    let body = tok.text.trim_end_matches("f64").trim_end_matches("f32");
    tok.kind == TokenKind::Number
        && (body.len() < tok.text.len() || body.contains(['.', 'e', 'E']))
        && body
            .chars()
            .all(|c| c.is_ascii_digit() || ".eE+-_".contains(c))
}

// ---------------------------------------------------------------------------
// metrics-key-registry
// ---------------------------------------------------------------------------

/// Workspace-relative path of the metric-key registry.
pub const KEYS_FILE: &str = "crates/observe/src/keys.rs";

/// Recorder entry points whose first argument is a metric key.
const RECORDER_CALLS: [&str; 3] = ["counter_add", "record", "span"];

/// The metric keys declared in [`KEYS_FILE`]. `pub const NAME: &str =
/// "...";` declares an exact key; a constant whose name ends in `_PREFIX`
/// declares a key *prefix* (call sites compose the tail at runtime, e.g.
/// the SPICE recovery-rung names).
#[derive(Debug, Default)]
pub struct KeyRegistry {
    /// Exact declared keys.
    pub keys: BTreeSet<String>,
    /// Declared key prefixes.
    pub prefixes: Vec<String>,
}

impl KeyRegistry {
    /// Reads the `const NAME: &str = "...";` declarations of a lexed
    /// registry file.
    pub fn from_lexed(lexed: &LexedFile) -> Self {
        let mut registry = KeyRegistry::default();
        for w in lexed.tokens.windows(7) {
            let is_decl = w[0].kind == TokenKind::Ident
                && w[0].text == "const"
                && w[1].kind == TokenKind::Ident
                && w[2].text == ":"
                && w[3].text == "&"
                && w[4].text == "str"
                && w[5].text == "="
                && w[6].kind == TokenKind::Str;
            if !is_decl {
                continue;
            }
            let value = w[6].text.clone();
            if w[1].text.ends_with("_PREFIX") {
                registry.prefixes.push(value);
            } else {
                registry.keys.insert(value);
            }
        }
        registry
    }

    /// True when `key` is declared exactly or composed from a declared
    /// prefix.
    fn is_declared(&self, key: &str) -> bool {
        self.keys.contains(key) || self.prefixes.iter().any(|p| key.starts_with(p.as_str()))
    }

    /// The declared key closest to `key` by edit distance, for "did you
    /// mean" hints.
    fn nearest(&self, key: &str) -> Option<&str> {
        self.keys
            .iter()
            .map(|k| (edit_distance(key, k), k.as_str()))
            .min()
            .map(|(_, k)| k)
    }
}

/// Levenshtein distance, small-string implementation for typo hints.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            let best = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
            cur.push(best);
        }
        prev = cur;
    }
    prev.last().copied().unwrap_or(usize::MAX)
}

fn lint_metrics_keys(path: &Path, lexed: &LexedFile, keys: &KeyRegistry, out: &mut Vec<Violation>) {
    for w in lexed.tokens.windows(3) {
        let is_keyed_call = w[0].kind == TokenKind::Ident
            && RECORDER_CALLS.contains(&w[0].text.as_str())
            && w[1].text == "("
            && w[2].kind == TokenKind::Str;
        if !is_keyed_call || w[2].in_test {
            continue;
        }
        let key = &w[2].text;
        if keys.is_declared(key) {
            continue;
        }
        let hint = match keys.nearest(key) {
            Some(near) => format!("; did you mean `{near}`?"),
            None => String::new(),
        };
        out.push(Violation {
            lint: LintId::MetricsKeyRegistry,
            file: path.to_path_buf(),
            line: w[2].line,
            col: w[2].col,
            message: format!(
                "metric key \"{key}\" is not declared in {KEYS_FILE} — undeclared keys silently vanish from BENCH trajectories{hint}"
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

/// Workspace-relative path of the RNG module holding the sanctioned
/// seed-derivation helpers.
pub const RNG_FILE: &str = "crates/numerics/src/rng.rs";
/// Constructor names whose bodies in [`RNG_FILE`] may derive seeds from
/// arithmetic.
const SEED_HELPER_FNS: [&str; 4] = ["seed_from_u64", "from_state", "stream", "salted_stream"];

/// The `(first_line, last_line)` span of every seed-helper function body
/// (signature line through closing brace) in `tokens`.
pub fn seed_helper_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut k = 0;
    while k + 1 < tokens.len() {
        let is_helper_fn = tokens[k].kind == TokenKind::Ident
            && tokens[k].text == "fn"
            && SEED_HELPER_FNS.contains(&tokens[k + 1].text.as_str());
        if !is_helper_fn {
            k += 1;
            continue;
        }
        let first_line = tokens[k].line;
        // Walk to the body's opening brace, then to its matching close.
        let mut j = k + 2;
        while j < tokens.len() && tokens[j].text != "{" {
            j += 1;
        }
        let mut depth = 0i64;
        let mut last_line = first_line;
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        last_line = tokens[j].line;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        spans.push((first_line, last_line));
        k = j.max(k + 1);
    }
    spans
}

fn lint_seed_discipline(path: &Path, lexed: &LexedFile, out: &mut Vec<Violation>) {
    let tokens = &lexed.tokens;
    let helpers = if path == Path::new(RNG_FILE) {
        seed_helper_spans(tokens)
    } else {
        Vec::new()
    };
    let sanctioned = |line: usize| helpers.iter().any(|&(lo, hi)| (lo..=hi).contains(&line));
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

/// Flags `[mut] name: f64` parameters of non-test `pub fn`s whose name is
/// unit vocabulary. Returning a dimensioned value as a bare f64 needs an
/// explicit `si_value()` call, which raw-escape-audit catches at the call
/// site; an *input* f64 is invisible to the type system, so only the
/// parameter side is checked here.
fn lint_unit_safety(path: &Path, lexed: &LexedFile, out: &mut Vec<Violation>) {
    let tokens = &lexed.tokens;
    for (i, tok) in tokens.iter().enumerate() {
        let is_pub_fn = tok.kind == TokenKind::Ident
            && tok.text == "pub"
            && !tok.in_test
            && tokens.get(i + 1).is_some_and(|t| t.text == "fn");
        let Some(name) = tokens.get(i + 2).filter(|_| is_pub_fn) else {
            continue;
        };
        // Skip `<generics>` to the parameter list's `(`.
        let mut k = i + 3;
        let mut depth = 0i32;
        while k < tokens.len() && (depth > 0 || is_punct(tokens, k, "<")) {
            depth += bracket_delta(tokens, k);
            k += 1;
        }
        if !is_punct(tokens, k, "(") {
            continue;
        }
        // Split the list on depth-1 commas; `depth` counts `(`, `[`, `<`.
        let mut start = k + 1;
        for j in k..tokens.len() {
            depth += bracket_delta(tokens, j);
            let at_end = depth == 0;
            if !(at_end || (depth == 1 && is_punct(tokens, j, ","))) {
                continue;
            }
            let mut param = &tokens[start..j];
            if param.first().is_some_and(|t| t.text == "mut") {
                param = &param[1..];
            }
            if let [pname, colon, ty] = param {
                if colon.text == ":" && ty.text == "f64" && matches_unit_vocab(&pname.text) {
                    out.push(Violation {
                        lint: LintId::UnitSafety,
                        file: path.to_path_buf(),
                        line: tokens[start].line,
                        col: tokens[start].col,
                        message: format!(
                            "`pub fn {}` takes `{}: f64`; use the matching finrad-units newtype",
                            name.text, pname.text
                        ),
                    });
                }
            }
            if at_end {
                break;
            }
            start = j + 1;
        }
    }
}

/// +1 for an opening `(`/`[`/`<`, -1 for a closing one (the `>` of `->`
/// excluded), 0 otherwise.
fn bracket_delta(tokens: &[Token], k: usize) -> i32 {
    if tokens[k].kind != TokenKind::Punct {
        return 0;
    }
    match tokens[k].text.as_str() {
        "(" | "[" | "<" => 1,
        ")" | "]" => -1,
        ">" if k == 0 || !is_punct(tokens, k - 1, "-") => -1,
        _ => 0,
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

fn is_punct(tokens: &[Token], k: usize, s: &str) -> bool {
    tokens
        .get(k)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text == s)
}

/// True when `tokens[i..]` spells the `::`-separated `path` (`rand::random`
/// is `rand` `:` `:` `random`).
fn is_path(tokens: &[Token], i: usize, path: &str) -> bool {
    let mut k = i;
    for (n, segment) in path.split("::").enumerate() {
        if n > 0 {
            if !(is_punct(tokens, k, ":") && is_punct(tokens, k + 1, ":")) {
                return false;
            }
            k += 2;
        }
        if !tokens
            .get(k)
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text == segment)
        {
            return false;
        }
        k += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use std::path::Path;

    fn run(src: &str) -> Vec<Violation> {
        lint_file(Path::new("x.rs"), &lex(src), true, None)
    }

    fn ids(src: &str) -> Vec<LintId> {
        run(src).iter().map(|v| v.lint).collect()
    }

    #[test]
    fn word_boundaries() {
        assert_eq!(
            ids("fn f() { let r = thread_rng(); }\n"),
            [LintId::RngDeterminism]
        );
        assert!(run("fn f() { let my_thread_rng_thing = 1; }\n").is_empty());
        assert_eq!(
            ids("fn f() { rand::random(); }\n"),
            [LintId::RngDeterminism]
        );
        assert!(run("fn f() { rand::random_range(); my_rand::random(); }\n").is_empty());
        assert_eq!(ids("fn f(x: f32) {}\n"), [LintId::FloatDiscipline]);
        assert!(run("fn f(xf32y: u8) { let f32_bits = 1.5f32_x; }\n").is_empty());
    }

    #[test]
    fn float_literal_recognition() {
        let float = |s: &str| is_float_number(&lex(s).tokens[0]);
        for yes in ["1.0", "2.", "0.0f64", "1f64", "1e-12", "3.0e8"] {
            assert!(float(yes), "{yes}");
        }
        for no in ["0", "4096", "1usize", "x", "0x1f", "0x1e3"] {
            assert!(!float(no), "{no}");
        }
    }

    #[test]
    fn detects_float_equality_but_not_integers() {
        let v = run("fn f(a: f64) -> bool { a == 0.0 }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, LintId::FloatDiscipline);
        assert_eq!((v[0].line, v[0].col), (1, 26));
        assert!(run("fn f(a: usize) -> bool { a == 0 }\n").is_empty());
        assert!(run("fn f(a: f64) -> bool { a <= 0.0 }\n").is_empty());
        // `!=`, a negative literal, a literal on the left, a trailing dot.
        let v = run("fn f(a: f64) -> bool { a != -1.0 || 2. == a || 1e-3 == a }\n");
        let cols: Vec<_> = v.iter().map(|v| v.col).collect();
        assert_eq!(cols, [26, 40, 53], "{v:#?}");
        assert!(v[0].message.contains("`!=`"));
        // Tuple fields are not literals; `=>` and `>=` are not equality.
        assert!(run("fn f(t: (f64, (u8, u8))) -> bool { t.1.0 == t.1.1 }\n").is_empty());
        assert!(run("fn f(a: f64) -> u8 { match a >= 1.0 { true => 1, _ => 0 } }\n").is_empty());
    }

    #[test]
    fn unit_safety_multiline_signature() {
        let src = "pub fn build(\n    lo_mev: f64,\n    hi_mev: f64,\n) -> u32 { 0 }\n";
        let v = run(src);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].lint, LintId::UnitSafety);
        assert_eq!((v[0].line, v[0].col), (2, 5));
        assert_eq!((v[1].line, v[1].col), (3, 5));
        // Generics, closures, array types and `mut` do not derail the split.
        let src = "pub fn f<T: Fn(f64) -> f64>(g: T, a: [f64; 2], mut vdd: f64) {}\n";
        let v = run(src);
        assert_eq!(v.len(), 1, "{v:#?}");
        assert_eq!((v[0].line, v[0].col), (1, 48));
        assert!(v[0].message.contains("`vdd: f64`"));
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
            let v = lint_file(Path::new(sanctioned), &lex(src), false, None);
            assert!(v.is_empty(), "{sanctioned} should be sanctioned");
        }
        // checkpoint.rs is sanctioned; its siblings are not.
        let v = lint_file(Path::new("crates/core/src/fit.rs"), &lex(src), false, None);
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
        let src = "fn f() {\n    // finrad-lint: allow(panic-freedom)\n    x.pair_lut[0];\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn unused_allow_is_reported() {
        let src = "// finrad-lint: allow(panic-freedom)\nfn f() -> u64 { 7 }\n";
        let v = run(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, LintId::UnusedSuppression);
        assert_eq!((v[0].line, v[0].col), (1, 4));
        // Directives in test code are not audited.
        let src = "#[cfg(test)]\nmod tests {\n    // finrad-lint: allow(panic-freedom)\n    fn t() {}\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn trailing_allow_no_longer_covers_next_line() {
        let src =
            "fn f() {\n    a.pair_lut[0]; // finrad-lint: allow(panic-freedom)\n    b.pair_lut[0];\n}\n";
        let v = run(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, LintId::PanicFreedom);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn test_code_is_exempt_from_panic_lints_not_rng() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t() { x.pair_lut[0]; let r = thread_rng(); }\n}\n";
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
    fn keys_and_prefixes_are_extracted() {
        let src = "pub const STRIKE_ITERATIONS: &str = \"core.strike.iterations\";\npub const SPICE_RECOVERY_RUNG_PREFIX: &str = \"spice.recovery.rung.\";\n";
        let keys = KeyRegistry::from_lexed(&lex(src));
        assert!(keys.is_declared("core.strike.iterations"));
        assert!(keys.is_declared("spice.recovery.rung.gmin-stepping.ok"));
        assert!(!keys.is_declared("core.strike.iterationz"));
        assert_eq!(
            keys.nearest("core.strike.iterationz"),
            Some("core.strike.iterations")
        );
    }

    #[test]
    fn seed_helper_spans_cover_bodies_only() {
        let src = "impl X {\n    pub fn stream(s: u64, c: u64) -> Self {\n        Self::seed_from_u64(s ^ c)\n    }\n    pub fn other(s: u64, c: u64) -> Self {\n        Self::seed_from_u64(s ^ c)\n    }\n}\n";
        assert_eq!(seed_helper_spans(&lex(src).tokens), [(2, 4)]);
        let lines = |path: &str| -> Vec<(LintId, usize)> {
            lint_file(Path::new(path), &lex(src), false, None)
                .iter()
                .map(|v| (v.lint, v.line))
                .collect()
        };
        // In rng.rs the helper body (line 3) is sanctioned; the same call
        // outside it (line 6) is not.
        assert_eq!(lines(RNG_FILE), [(LintId::SeedDiscipline, 6)]);
        // Any other file has no sanctioned helper bodies.
        assert_eq!(
            lines("crates/core/src/x.rs"),
            [(LintId::SeedDiscipline, 3), (LintId::SeedDiscipline, 6)]
        );
    }
}
