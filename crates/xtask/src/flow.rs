//! Flow-sensitive concurrency lint families.
//!
//! These families analyze every workspace `fn` body *together* (a
//! lightweight interprocedural layer over a function index keyed by
//! `Type::f` for path calls on a type and by bare name otherwise, see
//! `call_key`) and emit three diagnostics:
//!
//! * `lock-order-audit` — the workspace lock-acquisition graph: while a
//!   guard for lock `a` is live, acquiring lock `b` (directly or through a
//!   call whose transitive lock set contains `b`) adds the edge `a → b`; a
//!   cycle in that graph is a potential deadlock. The family also flags the
//!   inline poisoned-lock recovery idiom (`unwrap_or_else(|p|
//!   p.into_inner())`) anywhere outside the sanctioned
//!   `finrad_spice::sync` module.
//! * `guard-lifetime-audit` — a lock guard live across a blocking call: a
//!   SPICE solve, a `Condvar` wait consuming a *different* guard,
//!   `JoinHandle::join`, `sleep`, channel `recv`, checkpoint `save`, or any
//!   function that transitively blocks. The guard a condvar wait consumes
//!   is exempt (that is the sanctioned wait pattern).
//! * `cancellation-responsiveness` — every *blocking, unbounded* loop
//!   reachable from a supervised entry point (a function named inside a
//!   `spawn(..)` call) must poll cancellation (`is_cancelled`,
//!   `cancelled_reason`, a `stopping` flag) or call a function that
//!   transitively does. Bounded loops (`for`, `while let`, `while` with a
//!   comparison in the condition) are exempt.
//!
//! Guard liveness comes from one walk over each function body in source
//! order, with no control-flow graph. A guard lives from its binding's `;`
//! until its block closes, it is dropped, it is rebound, or a condvar wait
//! consumes it. Branches need no join, with one rule: a `drop(g)` in a
//! block nested deeper than `g`'s binding kills `g` only until that block
//! closes, because another path may have skipped the drop. The walk is
//! deliberately stricter than a path-sensitive analysis in two cases: a
//! guard dropped in every branch of an `if`/`match` is still live after
//! it, and code after a `return`, `break`, `continue` or `?` is walked as
//! if reachable. An unbound acquisition (a temporary guard) is live until
//! its statement ends at the `;` or `}` at its own brace depth, or until
//! the body opens after an `if`/`while` condition; a `match`, `if let`,
//! `while let` or `for` scrutinee's stays live through the body, as in
//! Rust. The cancellation family finds its loops by a token scan of the
//! `loop`/`while`/`for` headers.
//!
//! Every approximation leans toward silence on idiomatic code: calls
//! through function-typed *parameters* are opaque, bare-`self` receivers
//! have unknown lock identity and are skipped, and guard bindings are only
//! tracked when the acquisition heads the binding's own call chain.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::{Path, PathBuf};

use crate::lexer::{LexedFile, Token, TokenKind};
use crate::lints::{LintId, Violation};

/// One lexed workspace file, the unit of input to [`analyze`].
pub struct FileUnit {
    /// Repo-relative path (used in diagnostics and for sanctioning).
    pub path: PathBuf,
    /// Its token stream.
    pub lexed: LexedFile,
}

/// The sanctioned poison-recovery helpers in `spice/src/sync.rs`: their
/// bodies are exempt from acquisition tracking, and *calls* to them are the
/// blessed acquisition/wait forms.
pub const SYNC_HELPERS: [&str; 3] = [
    "lock_recovering",
    "wait_recovering",
    "wait_timeout_recovering",
];

/// Zero-argument methods that acquire a lock primitive.
const ACQUIRE_METHODS: [&str; 3] = ["lock", "read", "write"];

/// Condvar-style waits: blocking calls that *consume* a guard argument.
const WAIT_CALLS: [&str; 4] = [
    "wait",
    "wait_timeout",
    "wait_recovering",
    "wait_timeout_recovering",
];

/// Call names that block the calling thread (seeds of the transitive
/// blocking closure). SPICE solver entry points count: a solve under a held
/// lock serializes the whole worker pool. `save` covers checkpoint I/O;
/// `load` is omitted (too many innocuous `load` methods exist).
const BLOCKING_SEEDS: [&str; 20] = [
    "join",
    "catch_unwind",
    "sleep",
    "park",
    "recv",
    "recv_timeout",
    "wait",
    "wait_timeout",
    "wait_recovering",
    "wait_timeout_recovering",
    "save",
    "dc_operating_point",
    "dc_operating_point_from",
    "dc_operating_point_warm",
    "dc_operating_point_with_recovery",
    "transient",
    "transient_with_trace",
    "transient_from_state",
    "transient_until",
    "run_transient",
];

/// Idents whose presence satisfies cancellation polling (token methods and
/// the service's `stopping` flag).
const POLL_MARKERS: [&str; 3] = ["is_cancelled", "cancelled_reason", "stopping"];

/// Chain combinators that hand a guard through unchanged, so
/// `let g = m.lock().unwrap();` still binds a guard.
const TRANSPARENT_COMBINATORS: [&str; 3] = ["unwrap", "expect", "unwrap_or_else"];

/// Primitive concurrency names (`lock`, `wait`, the sync helpers, poll
/// markers, blocking seeds) are modeled *directly* by the analysis; a call
/// to one must not also resolve to a same-named workspace function, or
/// collisions like `Condvar::wait` → `CampaignService::wait` thread
/// phantom blocking/lock facts through the call graph.
fn primitive_name(name: &str) -> bool {
    BLOCKING_SEEDS.contains(&name)
        || ACQUIRE_METHODS.contains(&name)
        || SYNC_HELPERS.contains(&name)
        || POLL_MARKERS.contains(&name)
}

// ---------------------------------------------------------------------------
// Function index
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct FnDef {
    name: String,
    /// The type of the enclosing `impl` block, `None` for free functions.
    owner: Option<String>,
    /// The trait of an enclosing `impl Trait for Type` block.
    trait_name: Option<String>,
    file: usize,
    /// Token indices of the body braces (inclusive).
    body: (usize, usize),
    params: BTreeSet<String>,
    in_test: bool,
    /// True for the `finrad_spice::sync` helper implementations.
    sanctioned: bool,
}

impl FnDef {
    /// The index keys this fn is filed under: its bare name, plus
    /// `Type::name` (and `Trait::name`) when it sits in an impl of `Type`
    /// (for `Trait`).
    fn keys(&self) -> impl Iterator<Item = String> + '_ {
        let paths = [&self.owner, &self.trait_name]
            .into_iter()
            .flatten()
            .map(|ty| format!("{ty}::{}", self.name));
        std::iter::once(self.name.clone()).chain(paths)
    }
}

#[derive(Debug, Default, Clone)]
struct FnFacts {
    calls: BTreeSet<String>,
    locks: BTreeSet<String>,
    blocking: bool,
    polls: bool,
}

fn matching_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

fn extract_fns(units: &[FileUnit]) -> Vec<FnDef> {
    let mut out = Vec::new();
    for (fi, u) in units.iter().enumerate() {
        let toks = &u.lexed.tokens;
        let sync_file = u.path.ends_with(Path::new("spice/src/sync.rs"));
        let impls = impl_blocks(toks);
        let mut k = 0;
        while k < toks.len() {
            if !(toks[k].kind == TokenKind::Ident && toks[k].text == "fn") {
                k += 1;
                continue;
            }
            let Some(name_tok) = toks.get(k + 1).filter(|t| t.kind == TokenKind::Ident) else {
                k += 1;
                continue;
            };
            // Find the body `{` at paren/bracket/angle depth 0; a `;`
            // first means a bodyless trait method.
            let mut depth = 0i32;
            let mut angle = 0i32;
            let mut open = None;
            let mut j = k + 2;
            while j < toks.len() {
                let t = &toks[j];
                if t.kind == TokenKind::Punct {
                    match t.text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "<" if depth == 0 => angle += 1,
                        ">" if depth == 0 && !is_punct(toks, j.wrapping_sub(1), "-") => angle -= 1,
                        "{" if depth == 0 => {
                            open = Some(j);
                            break;
                        }
                        ";" if depth == 0 && angle <= 0 => break,
                        _ => {}
                    }
                }
                j += 1;
            }
            let Some(open) = open else {
                k += 1;
                continue;
            };
            let close = matching_brace(toks, open);
            // Parameter names: idents followed by `:` at depth 1 of the
            // first paren group outside generics.
            let mut params = BTreeSet::new();
            let mut angle = 0i32;
            let mut p = k + 2;
            while p < open {
                let t = &toks[p];
                if t.kind == TokenKind::Punct {
                    match t.text.as_str() {
                        "<" => angle += 1,
                        ">" if !is_punct(toks, p.wrapping_sub(1), "-") => angle -= 1,
                        "(" if angle <= 0 => {
                            let mut d = 0i32;
                            let mut q = p;
                            while q < open {
                                let tq = &toks[q];
                                if tq.kind == TokenKind::Punct {
                                    match tq.text.as_str() {
                                        "(" => d += 1,
                                        ")" => {
                                            d -= 1;
                                            if d == 0 {
                                                break;
                                            }
                                        }
                                        _ => {}
                                    }
                                } else if tq.kind == TokenKind::Ident
                                    && d == 1
                                    && is_punct(toks, q + 1, ":")
                                {
                                    params.insert(tq.text.clone());
                                }
                                q += 1;
                            }
                            break;
                        }
                        _ => {}
                    }
                }
                p += 1;
            }
            let block = impls.iter().rev().find(|b| (b.open..b.close).contains(&k));
            out.push(FnDef {
                name: name_tok.text.clone(),
                owner: block.map(|b| b.ty.clone()),
                trait_name: block.and_then(|b| b.trait_name.clone()),
                file: fi,
                body: (open, close),
                params,
                in_test: toks[k].in_test,
                sanctioned: sync_file && SYNC_HELPERS.contains(&name_tok.text.as_str()),
            });
            k += 2;
        }
    }
    out
}

/// One `impl` item block.
struct ImplBlock {
    /// Token indices of the body braces.
    open: usize,
    close: usize,
    /// The implementing type.
    ty: String,
    /// The implemented trait, if any.
    trait_name: Option<String>,
}

/// Every `impl` item block of a file, outer blocks before the ones nested
/// in them. A name is the last path ident at angle depth 0: `impl<T>
/// a::Foo<T>` gives type `Foo`, `impl Trait for Foo` type `Foo` and trait
/// `Trait`. `impl Trait` in type position (after `->`, `:`, `(` or `,`)
/// is not an item and is skipped.
fn impl_blocks(toks: &[Token]) -> Vec<ImplBlock> {
    let mut out = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        let item = k == 0
            || ["}", ";", "]", "{"]
                .iter()
                .any(|p| is_punct(toks, k - 1, p))
            || toks[k - 1].text == "unsafe";
        if !(t.kind == TokenKind::Ident && t.text == "impl" && item) {
            continue;
        }
        let mut angle = 0i32;
        let (mut ty, mut trait_name) = (None, None);
        let mut j = k + 1;
        while let Some(tj) = toks.get(j) {
            match (tj.kind, tj.text.as_str()) {
                (TokenKind::Punct, "<") => angle += 1,
                (TokenKind::Punct, ">") if !is_punct(toks, j - 1, "-") => angle -= 1,
                (TokenKind::Punct, "{") if angle == 0 => break,
                (TokenKind::Ident, "where") if angle == 0 => break,
                (TokenKind::Ident, "for") if angle == 0 => trait_name = ty.take(),
                (TokenKind::Ident, "dyn" | "mut") => {}
                (TokenKind::Ident, name) if angle == 0 => ty = Some(name.to_string()),
                _ => {}
            }
            j += 1;
        }
        while j < toks.len() && !is_punct(toks, j, "{") {
            j += 1;
        }
        if let (Some(ty), true) = (ty, j < toks.len()) {
            out.push(ImplBlock {
                open: j,
                close: matching_brace(toks, j),
                ty,
                trait_name,
            });
        }
    }
    out
}

/// The function-index key a call at token `i` resolves to. A path call
/// on a type or trait, `Type::f(` (`Self::f(` inside an impl of `Type`),
/// resolves to `Type::f`: the fns named `f` in the workspace's impls of
/// (or for) `Type`, none for a type the workspace does not implement `f`
/// on, such as `Vec::new`. Every other call — a method call `x.f(`, a
/// free call `f(` or a module path `m::f(` — resolves to the bare name
/// `f`: the conservative union of every workspace fn named `f`.
fn call_key(toks: &[Token], i: usize, owner: Option<&str>) -> Option<String> {
    let name = call_name(toks, i)?;
    let qualifier = (i >= 3 && is_punct(toks, i - 1, ":") && is_punct(toks, i - 2, ":"))
        .then(|| &toks[i - 3])
        .filter(|q| q.kind == TokenKind::Ident && q.text.starts_with(char::is_uppercase))
        .and_then(|q| {
            if q.text == "Self" {
                owner
            } else {
                Some(q.text.as_str())
            }
        });
    Some(qualifier.map_or_else(|| name.to_string(), |ty| format!("{ty}::{name}")))
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

fn is_punct(toks: &[Token], i: usize, s: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text == s)
}

/// A call site: an ident immediately followed by `(` (macros — ident
/// followed by `!` — are not calls).
fn call_name(toks: &[Token], i: usize) -> Option<&str> {
    let t = toks.get(i)?;
    if t.kind != TokenKind::Ident || !is_punct(toks, i + 1, "(") {
        return None;
    }
    Some(&t.text)
}

/// Identity of a method receiver's last path component:
/// `self.state.lock()` → `state`, `registry().lock()` → `registry`.
/// `None` for bare `self` (unknown identity) or unresolvable shapes.
fn receiver_identity(toks: &[Token], method: usize) -> Option<String> {
    if method == 0 || !is_punct(toks, method - 1, ".") {
        return None;
    }
    let mut j = method as i64 - 2;
    // Skip a trailing call's parens: `registry().lock()` receivers.
    if j >= 0 && is_punct(toks, j as usize, ")") {
        let mut depth = 0i32;
        while j >= 0 {
            if is_punct(toks, j as usize, ")") {
                depth += 1;
            } else if is_punct(toks, j as usize, "(") {
                depth -= 1;
                if depth == 0 {
                    j -= 1;
                    break;
                }
            }
            j -= 1;
        }
    }
    let t = toks.get(usize::try_from(j).ok()?)?;
    if t.kind != TokenKind::Ident || t.text == "self" {
        return None;
    }
    Some(t.text.clone())
}

/// Identity carried by the first argument of `lock_recovering(&self.state)`
/// — the last ident of the argument expression.
fn first_arg_identity(toks: &[Token], open: usize) -> Option<String> {
    let mut depth = 0i32;
    let mut last = None;
    let mut i = open;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "," if depth == 1 => break,
                _ => {}
            }
        } else if t.kind == TokenKind::Ident && t.text != "self" && t.text != "mut" {
            last = Some(t.text.clone());
        }
        i += 1;
    }
    last
}

/// Idents at depth 1 of a call's parens (used for guard arguments).
fn arg_idents(toks: &[Token], open: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        } else if t.kind == TokenKind::Ident && depth == 1 {
            out.push(t.text.clone());
        }
        i += 1;
    }
    out
}

/// Skips a call's parens starting at `open`; returns the index after `)`.
fn skip_parens(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        if is_punct(toks, i, "(") {
            depth += 1;
        } else if is_punct(toks, i, ")") {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    toks.len()
}

// ---------------------------------------------------------------------------
// The guard/lock walk
// ---------------------------------------------------------------------------

/// Absolute `{}` nesting depth of every token (Punct braces only — brace
/// characters inside char/string literals don't count). A token's depth is
/// the depth *at* that token; a closing `}` carries the outer depth. The
/// walk uses this for scope kills: a binding made at depth `d` is dead at
/// the first token with depth `< d`.
fn brace_depths(tokens: &[Token]) -> Vec<u32> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut depth = 0u32;
    for t in tokens {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "{" => {
                    out.push(depth);
                    depth += 1;
                    continue;
                }
                "}" => {
                    depth = depth.saturating_sub(1);
                    out.push(depth);
                    continue;
                }
                _ => {}
            }
        }
        out.push(depth);
    }
    out
}

#[derive(Debug, Clone)]
struct Guard {
    lock: String,
    /// Brace depth of the binding; the guard dies when control reaches a
    /// shallower token.
    depth: u32,
}

#[derive(Debug, Clone)]
struct EdgeSite {
    file: usize,
    line: usize,
    col: usize,
}

#[derive(Debug)]
struct HeldSite {
    file: usize,
    line: usize,
    col: usize,
    guard: String,
    lock: String,
    callee: String,
}

/// Everything the walks record across all functions.
#[derive(Debug, Default)]
struct LockFindings {
    /// `(held, acquired) → first site`.
    edges: BTreeMap<(String, String), EdgeSite>,
    held_across: Vec<HeldSite>,
}

/// A `let`/assignment binding in flight while its RHS is scanned.
struct Binding {
    name: String,
    /// Token index of the terminating `;` (the binding takes effect there).
    end: usize,
    /// Token index where the RHS starts.
    rhs_start: usize,
    depth: u32,
}

struct GuardAnalysis<'a> {
    toks: &'a [Token],
    depths: &'a [u32],
    file: usize,
    /// Name of the function being analyzed; same-named calls inside it are
    /// treated as opaque (direct recursion adds no facts, and a
    /// same-named *method* call — `job.token.cancel()` inside
    /// `Service::cancel` — is usually a collision, not recursion).
    fn_name: &'a str,
    /// The enclosing impl's type, which `Self::f(` calls resolve to.
    owner: Option<&'a str>,
    params: &'a BTreeSet<String>,
    facts_by_key: &'a BTreeMap<String, FnFacts>,
}

impl<'a> GuardAnalysis<'a> {
    /// Whether the call `name` (resolved to index key `key`) blocks.
    fn is_blocking_call(&self, name: &str, key: &str) -> bool {
        if self.params.contains(name) {
            return false;
        }
        if BLOCKING_SEEDS.contains(&name) {
            return true;
        }
        name != self.fn_name
            && !primitive_name(name)
            && self.facts_by_key.get(key).is_some_and(|f| f.blocking)
    }

    /// Detects an acquisition at token `i`; returns the lock identity.
    fn acquisition_at(&self, i: usize) -> Option<String> {
        let name = call_name(self.toks, i)?;
        if ACQUIRE_METHODS.contains(&name) && is_punct(self.toks, i + 2, ")") {
            return receiver_identity(self.toks, i);
        }
        if name == "lock_recovering" {
            return first_arg_identity(self.toks, i + 1);
        }
        None
    }

    /// Walks the body tokens `[start, end)` once, in source order,
    /// recording lock-order edges and held-across sites into `sink`.
    fn walk(&self, (start, end): (usize, usize), sink: &mut LockFindings) {
        let mut f: BTreeMap<String, Guard> = BTreeMap::new();
        // Guards dropped in a block deeper than their binding, with the
        // depth of the drop: live again once that block closes.
        let mut dropped_inside: Vec<(String, Guard, u32)> = Vec::new();
        // Lock identities of un-bound acquisitions (temporary guards), with
        // the brace depth of the statement that made them. It ends at a `;`
        // or `}` at that depth, or where the body opens after an `if`/
        // `while` condition (a `match`, `if let` or `while let`
        // scrutinee's temporaries live through the body).
        let mut stmt_temps: Vec<(String, u32)> = Vec::new();
        // Body openers of the enclosing `if`/`while` conditions.
        let mut cond_ends: Vec<usize> = Vec::new();
        let mut pending: Option<Binding> = None;
        let mut bound_lock: Option<String> = None;

        for i in start..end {
            let t = &self.toks[i];
            let d = self.depths[i];
            let cond_end = cond_ends.last() == Some(&i);
            if cond_end {
                cond_ends.pop();
            }
            if cond_end || (t.kind == TokenKind::Punct && matches!(t.text.as_str(), ";" | "}")) {
                stmt_temps.retain(|(_, at)| *at < d);
            }
            // A block that dropped a guard has closed: the path that
            // skipped it still holds the guard.
            dropped_inside.retain(|(name, g, at)| {
                if *at <= d {
                    return true;
                }
                f.entry(name.clone()).or_insert_with(|| g.clone());
                false
            });
            // Scope kill: bindings made deeper than this token are gone.
            f.retain(|_, g| g.depth <= d);

            if let Some(b) = pending.take_if(|b| i >= b.end) {
                match bound_lock.take() {
                    Some(lock) => {
                        f.insert(
                            b.name,
                            Guard {
                                lock,
                                depth: b.depth,
                            },
                        );
                    }
                    // Reassigned to a value we cannot model: stop tracking.
                    None => {
                        f.remove(&b.name);
                    }
                }
            }

            if t.kind != TokenKind::Ident {
                continue;
            }

            match t.text.as_str() {
                "if" | "while" if self.toks[i + 1].text != "let" => {
                    cond_ends.extend(body_open(self.toks, i + 1, end));
                    continue;
                }
                "let" => {
                    // A nested `let` means any outer pending binding's RHS
                    // is a block expression, which cannot be a plain guard
                    // binding — the inner statement wins.
                    pending = self.parse_binding(i, d);
                    bound_lock = None;
                    continue;
                }
                "drop" if is_punct(self.toks, i + 1, "(") => {
                    for a in arg_idents(self.toks, i + 1) {
                        if let Some(g) = f.remove(&a).filter(|g| g.depth < d) {
                            dropped_inside.push((a, g, d));
                        }
                    }
                    continue;
                }
                _ => {}
            }

            // `name = <rhs>;` reassignment of a tracked (or fresh) guard.
            if pending.is_none()
                && is_punct(self.toks, i + 1, "=")
                && !is_punct(self.toks, i + 2, "=")
                && !self.toks.get(i.wrapping_sub(1)).is_some_and(|x| {
                    x.kind == TokenKind::Punct
                        && matches!(
                            x.text.as_str(),
                            "=" | "<"
                                | ">"
                                | "!"
                                | "+"
                                | "-"
                                | "*"
                                | "/"
                                | "."
                                | "%"
                                | "&"
                                | "|"
                                | "^"
                        )
                })
            {
                bound_lock = None;
                // Moving one guard into another: `a = b;`.
                if self
                    .toks
                    .get(i + 2)
                    .is_some_and(|x| x.kind == TokenKind::Ident && f.contains_key(&x.text))
                    && is_punct(self.toks, i + 3, ";")
                {
                    let src = self.toks[i + 2].text.clone();
                    if let Some(g) = f.remove(&src) {
                        bound_lock = Some(g.lock);
                    }
                }
                pending = Some(Binding {
                    depth: f.get(&t.text).map(|g| g.depth).unwrap_or(d),
                    name: t.text.clone(),
                    end: self.stmt_end(i + 2),
                    rhs_start: i + 2,
                });
                continue;
            }

            let Some(key) = call_key(self.toks, i, self.owner) else {
                continue;
            };
            let name = t.text.clone();
            // Condvar wait: only when an argument is a tracked guard
            // (methods merely *named* `wait` exist on other types).
            let wait_like = WAIT_CALLS.contains(&name.as_str())
                && !self.params.contains(&name)
                && arg_idents(self.toks, i + 1)
                    .iter()
                    .any(|a| f.contains_key(a));
            if wait_like {
                let mut consumed = None;
                for a in arg_idents(self.toks, i + 1) {
                    if let Some(g) = f.remove(&a) {
                        consumed = Some(g.lock);
                    }
                }
                self.record_held(sink, &f, t, &name);
                // The wait hands the re-acquired guard to the binding
                // in flight (`st = cv.wait(st)…` / `let (g, _) = …`).
                if pending.is_some() {
                    bound_lock = consumed;
                }
                continue;
            }

            if let Some(lock) = self.acquisition_at(i) {
                for g in f.values() {
                    record_edge(sink, &g.lock, &lock, self.file, t);
                }
                for (h, _) in &stmt_temps {
                    record_edge(sink, h, &lock, self.file, t);
                }
                // The acquisition feeds the binding only when it heads
                // the RHS chain and the chain is transparent through to
                // the statement end.
                let is_binding = pending.as_ref().is_some_and(|b| {
                    i >= b.rhs_start
                        && self.rhs_top_level(b.rhs_start, i)
                        && self.transparent_to_stmt_end(i)
                });
                if is_binding {
                    bound_lock = Some(lock);
                } else {
                    stmt_temps.push((lock, d));
                }
                continue;
            }

            // A plain call: guard-lifetime check + interprocedural
            // lock-order edges through the callee's transitive locks.
            if self.is_blocking_call(&name, &key) {
                self.record_held(sink, &f, t, &key);
            }
            if !self.params.contains(&name) && !primitive_name(&name) && name != self.fn_name {
                if let Some(cf) = self.facts_by_key.get(&key) {
                    for l in &cf.locks {
                        for g in f.values() {
                            record_edge(sink, &g.lock, l, self.file, t);
                        }
                        for (h, _) in &stmt_temps {
                            record_edge(sink, h, l, self.file, t);
                        }
                    }
                }
            }
        }
    }

    /// Records every guard in `live` as held across the blocking call
    /// `callee` at token `t`.
    fn record_held(
        &self,
        sink: &mut LockFindings,
        live: &BTreeMap<String, Guard>,
        t: &Token,
        callee: &str,
    ) {
        for (guard, g) in live {
            sink.held_across.push(HeldSite {
                file: self.file,
                line: t.line,
                col: t.col,
                guard: guard.clone(),
                lock: g.lock.clone(),
                callee: callee.to_string(),
            });
        }
    }

    /// Parses the binding of the `let` at token `let_pos`: `let [mut] name
    /// =`, `let (name, _) =`, or a refutable pattern's first field, `let
    /// Some(name) = … else` / `if let Ok(name) = …`. It takes effect at the
    /// statement's `;`, or, after `if`/`while`, where the body opens and
    /// scoped to that body.
    fn parse_binding(&self, let_pos: usize, depth: u32) -> Option<Binding> {
        let tok = |q: usize| self.toks.get(q);
        let is_ident =
            |q: usize, s: &str| tok(q).is_some_and(|t| t.kind == TokenKind::Ident && t.text == s);
        let mut q = let_pos + 1;
        // A refutable pattern's path (`Some`, `Slot::Job`) before its fields.
        let mut refutable = false;
        while tok(q).is_some_and(|t| {
            (t.kind == TokenKind::Ident && t.text.starts_with(char::is_uppercase))
                || (t.kind == TokenKind::Punct && t.text == ":")
        }) {
            refutable = true;
            q += 1;
        }
        if is_punct(self.toks, q, "(") {
            q += 1;
        } else if refutable {
            return None;
        }
        while is_ident(q, "mut") || is_ident(q, "ref") {
            q += 1;
        }
        let name = tok(q)
            .filter(|t| t.kind == TokenKind::Ident && t.text != "_")?
            .text
            .clone();
        // Find the `=` (skipping the pattern and any `: Type` annotation).
        let mut r = q + 1;
        let eq = loop {
            let t = tok(r)?;
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "=" if !is_punct(self.toks, r + 1, "=") => break r,
                    ";" => return None,
                    _ => {}
                }
            }
            r += 1;
            if r > let_pos + 96 {
                return None;
            }
        };
        let header = let_pos > 0 && (is_ident(let_pos - 1, "if") || is_ident(let_pos - 1, "while"));
        let (end, depth) = if header {
            (body_open(self.toks, eq + 1, self.toks.len())?, depth + 1)
        } else {
            (self.stmt_end(eq + 1), depth)
        };
        Some(Binding {
            name,
            end,
            rhs_start: eq + 1,
            depth,
        })
    }

    /// Token index of the `;` (or unmatched closer) ending the statement
    /// that starts at `from`.
    fn stmt_end(&self, from: usize) -> usize {
        let mut pd = 0i32;
        for (q, t) in self.toks.iter().enumerate().skip(from) {
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => pd += 1,
                    ")" | "]" | "}" => {
                        if pd == 0 {
                            return q;
                        }
                        pd -= 1;
                    }
                    ";" if pd == 0 => return q,
                    _ => {}
                }
            }
        }
        self.toks.len()
    }

    /// True when token `at` sits at paren/brace depth 0 relative to the RHS
    /// start — the acquisition heads the binding's own call chain rather
    /// than being an argument of a wrapping call or a statement inside a
    /// block expression.
    fn rhs_top_level(&self, rhs_start: usize, at: usize) -> bool {
        let mut depth = 0i32;
        for t in &self.toks[rhs_start..at] {
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    _ => {}
                }
            }
        }
        depth == 0
    }

    /// True when everything between the acquisition's closing paren and the
    /// statement end is a chain of transparent combinators — the binding
    /// receives the guard itself, not a value derived from it.
    fn transparent_to_stmt_end(&self, i: usize) -> bool {
        let mut next = skip_parens(self.toks, i + 1);
        loop {
            if !is_punct(self.toks, next, ".") {
                break;
            }
            let Some(m) = self.toks.get(next + 1) else {
                break;
            };
            if m.kind == TokenKind::Ident
                && TRANSPARENT_COMBINATORS.contains(&m.text.as_str())
                && is_punct(self.toks, next + 2, "(")
            {
                next = skip_parens(self.toks, next + 2);
            } else {
                return false;
            }
        }
        // `;`, the end of the file or of the enclosing block (tail
        // expression), an `if let`/`while let` body, or a `let … else`.
        self.toks.get(next).is_none_or(|t| match t.kind {
            TokenKind::Punct => matches!(t.text.as_str(), ";" | "{" | "}"),
            TokenKind::Ident => t.text == "else",
            _ => false,
        })
    }
}

fn record_edge(s: &mut LockFindings, from: &str, to: &str, file: usize, t: &Token) {
    s.edges
        .entry((from.to_string(), to.to_string()))
        .or_insert(EdgeSite {
            file,
            line: t.line,
            col: t.col,
        });
}

// ---------------------------------------------------------------------------
// Loop and range scans for the cancellation family
// ---------------------------------------------------------------------------

/// The kind of a loop construct, for the cancellation-responsiveness rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoopKind {
    /// `loop { … }` — unconditionally unbounded.
    Loop,
    /// `while cond { … }`.
    While,
    /// `while let pat = expr { … }` — bounded by the iterator/queue.
    WhileLet,
    /// `for pat in iter { … }` — bounded by the iterator.
    For,
}

/// One loop of a function body.
#[derive(Debug)]
struct LoopInfo {
    kind: LoopKind,
    /// Token range of the condition (`while`) or iterator expression
    /// (`for`); empty for `loop`.
    cond: (usize, usize),
    /// Token range of the body, *excluding* the braces.
    body: (usize, usize),
    /// 1-indexed source position of the loop keyword.
    line: usize,
    /// Column of the loop keyword.
    col: usize,
}

/// The `{` that opens the body of the `if`/`while`/`for`/`loop` header
/// starting at `from`: the first `{` at paren/bracket depth 0 before `end`
/// (Rust forbids a struct literal there).
fn body_open(toks: &[Token], from: usize, end: usize) -> Option<usize> {
    let mut depth = 0i32;
    (from..end).find(|&j| {
        match (toks[j].kind, toks[j].text.as_str()) {
            (TokenKind::Punct, "(" | "[") => depth += 1,
            (TokenKind::Punct, ")" | "]") => depth -= 1,
            (TokenKind::Punct, "{") => return depth == 0,
            _ => {}
        }
        false
    })
}

/// Every `loop`/`while`/`for` in the body whose braces are at `body`, in
/// source order; a header runs from its keyword to its [`body_open`].
fn loops(toks: &[Token], body: (usize, usize)) -> Vec<LoopInfo> {
    let mut out = Vec::new();
    for i in body.0 + 1..body.1 {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || !matches!(t.text.as_str(), "loop" | "while" | "for") {
            continue;
        }
        let Some(open) = body_open(toks, i + 1, body.1) else {
            continue;
        };
        let kind = match t.text.as_str() {
            "loop" => LoopKind::Loop,
            "while" if toks[i + 1].text == "let" => LoopKind::WhileLet,
            "while" => LoopKind::While,
            _ => LoopKind::For,
        };
        let cond_end = if kind == LoopKind::Loop { i + 1 } else { open };
        out.push(LoopInfo {
            kind,
            cond: (i + 1, cond_end),
            body: (open + 1, matching_brace(toks, open)),
            line: t.line,
            col: t.col,
        });
    }
    out
}

fn range_blocking(
    toks: &[Token],
    range: (usize, usize),
    f: &FnDef,
    facts_by_key: &BTreeMap<String, FnFacts>,
) -> Option<String> {
    for i in range.0..range.1 {
        if let Some(key) = call_key(toks, i, f.owner.as_deref()) {
            let name = toks[i].text.as_str();
            if f.params.contains(name) {
                continue;
            }
            if BLOCKING_SEEDS.contains(&name)
                || (!primitive_name(name) && facts_by_key.get(&key).is_some_and(|f| f.blocking))
            {
                return Some(key);
            }
        }
    }
    None
}

fn range_polls(
    toks: &[Token],
    range: (usize, usize),
    f: &FnDef,
    facts_by_key: &BTreeMap<String, FnFacts>,
) -> bool {
    for i in range.0..range.1 {
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        if POLL_MARKERS.contains(&t.text.as_str()) {
            return true;
        }
        if !f.params.contains(&t.text)
            && !primitive_name(&t.text)
            && call_key(toks, i, f.owner.as_deref())
                .and_then(|key| facts_by_key.get(&key))
                .is_some_and(|f| f.polls)
        {
            return true;
        }
    }
    false
}

/// A `while` condition containing a comparison operator bounds the loop by
/// data, not cancellation — exempt from the responsiveness requirement.
fn cond_has_comparison(toks: &[Token], range: (usize, usize)) -> bool {
    for i in range.0..range.1 {
        let t = &toks[i];
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "<" | ">" => return true,
            "=" | "!" if is_punct(toks, i + 1, "=") => return true,
            _ => {}
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Cycle detection over the lock-order graph
// ---------------------------------------------------------------------------

/// Shortest path `from → to` over the edge set (inclusive of endpoints);
/// `None` when unreachable. A one-node path means `from == to`.
fn bfs_path(
    edges: &BTreeMap<(String, String), EdgeSite>,
    from: &str,
    to: &str,
) -> Option<Vec<String>> {
    if from == to {
        return Some(vec![from.to_string()]);
    }
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (u, v) in edges.keys() {
        adj.entry(u.as_str()).or_default().push(v.as_str());
    }
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut q = VecDeque::new();
    q.push_back(from);
    while let Some(n) = q.pop_front() {
        for &next in adj.get(n).map(|v| v.as_slice()).unwrap_or(&[]) {
            if next == from || prev.contains_key(next) {
                continue;
            }
            prev.insert(next, n);
            if next == to {
                let mut path = vec![to.to_string()];
                let mut cur = to;
                while cur != from {
                    cur = prev[cur];
                    path.push(cur.to_string());
                }
                path.reverse();
                return Some(path);
            }
            q.push_back(next);
        }
    }
    None
}

/// Rotates a cycle's node list so the lexicographically smallest node
/// leads, for deduplication.
fn canonical_cycle(mut nodes: Vec<String>) -> Vec<String> {
    let min = nodes
        .iter()
        .enumerate()
        .min_by_key(|(_, n)| n.as_str())
        .map(|(i, _)| i)
        .unwrap_or(0);
    nodes.rotate_left(min);
    nodes
}

// ---------------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------------

/// Runs all three flow families over the lexed workspace; returns raw
/// (unsuppressed) violations. The caller merges these with the per-file
/// lints before applying `allow(...)` directives.
pub fn analyze(units: &[FileUnit]) -> Vec<Violation> {
    let depths: Vec<Vec<u32>> = units
        .iter()
        .map(|u| brace_depths(&u.lexed.tokens))
        .collect();
    let fns = extract_fns(units);
    let mut by_key: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        for key in f.keys() {
            by_key.entry(key).or_default().push(i);
        }
    }

    // Direct per-fn facts. Test fns contribute nothing: test code may
    // legitimately block and poll nothing.
    let mut direct: Vec<FnFacts> = Vec::with_capacity(fns.len());
    for f in &fns {
        let mut facts = FnFacts::default();
        if !f.in_test {
            let toks = &units[f.file].lexed.tokens;
            for i in f.body.0 + 1..f.body.1 {
                let t = &toks[i];
                if t.kind != TokenKind::Ident {
                    continue;
                }
                if POLL_MARKERS.contains(&t.text.as_str()) {
                    facts.polls = true;
                }
                if let Some(key) = call_key(toks, i, f.owner.as_deref()) {
                    let name = t.text.as_str();
                    if f.params.contains(name) {
                        continue;
                    }
                    if !primitive_name(name) && name != f.name {
                        facts.calls.insert(key);
                    }
                    if BLOCKING_SEEDS.contains(&name) {
                        facts.blocking = true;
                    }
                    if !f.sanctioned {
                        if ACQUIRE_METHODS.contains(&name) && is_punct(toks, i + 2, ")") {
                            if let Some(id) = receiver_identity(toks, i) {
                                facts.locks.insert(id);
                            }
                        } else if name == "lock_recovering" {
                            if let Some(id) = first_arg_identity(toks, i + 1) {
                                facts.locks.insert(id);
                            }
                        }
                    }
                }
            }
        }
        direct.push(facts);
    }

    // Key-indexed transitive closures: blocking / polls / lock sets. Fns
    // sharing a key merge: `Type::f` over the impls of `Type`, a bare name
    // over every workspace fn with that name (conservative).
    let mut facts_by_key: BTreeMap<String, FnFacts> = BTreeMap::new();
    for (key, ids) in &by_key {
        let mut merged = FnFacts::default();
        for &i in ids {
            let d = &direct[i];
            merged.blocking |= d.blocking;
            merged.polls |= d.polls;
            merged.locks.extend(d.locks.iter().cloned());
            merged.calls.extend(d.calls.iter().cloned());
        }
        facts_by_key.insert(key.clone(), merged);
    }
    loop {
        let mut changed = false;
        let keys: Vec<String> = facts_by_key.keys().cloned().collect();
        for key in &keys {
            let callees: Vec<String> = facts_by_key[key].calls.iter().cloned().collect();
            let mut blocking = facts_by_key[key].blocking;
            let mut polls = facts_by_key[key].polls;
            let mut locks = facts_by_key[key].locks.clone();
            for c in &callees {
                if let Some(cf) = facts_by_key.get(c) {
                    blocking |= cf.blocking;
                    polls |= cf.polls;
                    locks.extend(cf.locks.iter().cloned());
                }
            }
            let e = facts_by_key.get_mut(key).unwrap();
            if blocking != e.blocking || polls != e.polls || locks.len() != e.locks.len() {
                e.blocking = blocking;
                e.polls = polls;
                e.locks = locks;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Supervised entry points: workspace fn names inside non-test
    // `spawn(..)` argument lists, plus everything they transitively call.
    // `origin` maps each reachable fn to the entry it was reached from.
    let mut origin: BTreeMap<String, String> = BTreeMap::new();
    let mut bfs: VecDeque<String> = VecDeque::new();
    for u in units {
        let toks = &u.lexed.tokens;
        for i in 0..toks.len() {
            let t = &toks[i];
            if t.kind == TokenKind::Ident
                && t.text == "spawn"
                && !t.in_test
                && is_punct(toks, i + 1, "(")
            {
                let close = skip_parens(toks, i + 1);
                for tj in &toks[i + 2..close] {
                    if tj.kind == TokenKind::Ident
                        && by_key.contains_key(&tj.text)
                        && !origin.contains_key(&tj.text)
                    {
                        origin.insert(tj.text.clone(), tj.text.clone());
                        bfs.push_back(tj.text.clone());
                    }
                }
            }
        }
    }
    while let Some(n) = bfs.pop_front() {
        let Some(ff) = facts_by_key.get(&n) else {
            continue;
        };
        let org = origin[&n].clone();
        for c in ff.calls.clone() {
            if by_key.contains_key(&c) && !origin.contains_key(&c) {
                origin.insert(c.clone(), org.clone());
                bfs.push_back(c);
            }
        }
    }

    let mut violations = Vec::new();
    let mut findings = LockFindings::default();

    for f in &fns {
        if f.in_test || f.sanctioned {
            continue;
        }
        let toks = &units[f.file].lexed.tokens;
        GuardAnalysis {
            toks,
            depths: &depths[f.file],
            file: f.file,
            fn_name: &f.name,
            owner: f.owner.as_deref(),
            params: &f.params,
            facts_by_key: &facts_by_key,
        }
        .walk((f.body.0 + 1, f.body.1), &mut findings);

        // Cancellation responsiveness for loops in supervised fns.
        if let Some(entry) = f.keys().find_map(|key| origin.get(&key)) {
            for lp in loops(toks, f.body) {
                let unbounded = matches!(lp.kind, LoopKind::Loop)
                    || (matches!(lp.kind, LoopKind::While) && !cond_has_comparison(toks, lp.cond));
                if !unbounded {
                    continue;
                }
                let Some(blocker) = range_blocking(toks, lp.body, f, &facts_by_key) else {
                    continue;
                };
                if range_polls(toks, lp.cond, f, &facts_by_key)
                    || range_polls(toks, lp.body, f, &facts_by_key)
                {
                    continue;
                }
                violations.push(Violation {
                    lint: LintId::CancellationResponsiveness,
                    file: units[f.file].path.clone(),
                    line: lp.line,
                    col: lp.col,
                    message: format!(
                        "unbounded loop in `{}` (supervised via `{entry}`) blocks in `{blocker}` without polling cancellation; check is_cancelled()/stopping each iteration",
                        f.name
                    ),
                });
            }
        }
    }

    // Guard-lifetime violations, deduped per (site, guard).
    let mut seen = BTreeSet::new();
    for h in &findings.held_across {
        if seen.insert((h.file, h.line, h.col, h.guard.clone())) {
            violations.push(Violation {
                lint: LintId::GuardLifetimeAudit,
                file: units[h.file].path.clone(),
                line: h.line,
                col: h.col,
                message: format!(
                    "guard `{}` (lock `{}`) is live across blocking call `{}`; drop it or narrow its scope first",
                    h.guard, h.lock, h.callee
                ),
            });
        }
    }

    // Lock-order cycles: every cycle contains some recorded edge, so a
    // return path for any edge closes one. Canonicalize to dedupe.
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for ((u, v), site) in &findings.edges {
        let Some(path) = bfs_path(&findings.edges, v, u) else {
            continue;
        };
        // Cycle nodes without repetition: u, then v..path's second-to-last
        // (path ends at u).
        let mut nodes = vec![u.clone()];
        nodes.extend(path[..path.len().saturating_sub(1)].iter().cloned());
        let canon = canonical_cycle(nodes);
        if !reported.insert(canon.clone()) {
            continue;
        }
        let display = if canon.len() == 1 {
            format!("lock `{}` acquired while already held", canon[0])
        } else {
            let mut chain = canon.clone();
            chain.push(canon[0].clone());
            format!(
                "lock-order cycle `{}`: inconsistent acquisition order can deadlock",
                chain.join(" -> ")
            )
        };
        violations.push(Violation {
            lint: LintId::LockOrderAudit,
            file: units[site.file].path.clone(),
            line: site.line,
            col: site.col,
            message: display,
        });
    }

    // Inline poison-recovery idiom outside the sanctioned sync module.
    for u in units {
        if u.path.ends_with(Path::new("spice/src/sync.rs")) {
            continue;
        }
        let toks = &u.lexed.tokens;
        for i in 0..toks.len() {
            let t = &toks[i];
            if t.kind != TokenKind::Ident || t.text != "unwrap_or_else" || t.in_test {
                continue;
            }
            let closure_ok = is_punct(toks, i + 1, "(")
                && is_punct(toks, i + 2, "|")
                && toks.get(i + 3).is_some_and(|x| x.kind == TokenKind::Ident)
                && is_punct(toks, i + 4, "|")
                && toks
                    .get(i + 5)
                    .is_some_and(|x| x.kind == TokenKind::Ident && x.text == toks[i + 3].text)
                && is_punct(toks, i + 6, ".")
                && toks
                    .get(i + 7)
                    .is_some_and(|x| x.kind == TokenKind::Ident && x.text == "into_inner")
                && is_punct(toks, i + 8, "(")
                && is_punct(toks, i + 9, ")")
                && is_punct(toks, i + 10, ")");
            if closure_ok {
                violations.push(Violation {
                    lint: LintId::LockOrderAudit,
                    file: u.path.clone(),
                    line: t.line,
                    col: t.col,
                    message: "inline poisoned-lock recovery; use finrad_spice::sync::lock_recovering (the one sanctioned recovery span)".to_string(),
                });
            }
        }
    }

    violations.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.lint.as_str()).cmp(&(&b.file, b.line, b.col, b.lint.as_str()))
    });
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn unit(path: &str, src: &str) -> FileUnit {
        FileUnit {
            path: PathBuf::from(path),
            lexed: lex(src),
        }
    }

    fn count(vs: &[Violation], id: LintId) -> usize {
        vs.iter().filter(|v| v.lint == id).count()
    }

    #[test]
    fn two_lock_cycle_is_detected() {
        let src = r#"
impl S {
    fn a_then_b(&self) {
        let ga = self.alpha.lock().unwrap();
        let gb = self.beta.lock().unwrap();
        drop(gb);
        drop(ga);
    }
    fn b_then_a(&self) {
        let gb = self.beta.lock().unwrap();
        let ga = self.alpha.lock().unwrap();
        drop(ga);
        drop(gb);
    }
}
"#;
        let vs = analyze(&[unit("crates/core/src/fake.rs", src)]);
        assert_eq!(count(&vs, LintId::LockOrderAudit), 1, "{vs:?}");
        assert!(vs[0].message.contains("alpha"), "{}", vs[0].message);
        assert!(vs[0].message.contains("beta"), "{}", vs[0].message);
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let src = r#"
impl S {
    fn first(&self) {
        let ga = self.alpha.lock().unwrap();
        let gb = self.beta.lock().unwrap();
        drop(gb);
        drop(ga);
    }
    fn second(&self) {
        let ga = self.alpha.lock().unwrap();
        let gb = self.beta.lock().unwrap();
        drop(gb);
        drop(ga);
    }
}
"#;
        let vs = analyze(&[unit("crates/core/src/fake.rs", src)]);
        assert_eq!(count(&vs, LintId::LockOrderAudit), 0, "{vs:?}");
    }

    #[test]
    fn guard_across_blocking_call_is_flagged() {
        let src = r#"
impl S {
    fn hold(&self) {
        let g = self.state.lock().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(1));
        drop(g);
    }
}
"#;
        let vs = analyze(&[unit("crates/core/src/fake.rs", src)]);
        assert_eq!(count(&vs, LintId::GuardLifetimeAudit), 1, "{vs:?}");
    }

    #[test]
    fn guard_dropped_before_blocking_call_is_clean() {
        let src = r#"
impl S {
    fn ok(&self) {
        let g = self.state.lock().unwrap();
        drop(g);
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    fn scoped(&self) {
        {
            let g = self.state.lock().unwrap();
            g.touch();
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
"#;
        let vs = analyze(&[unit("crates/core/src/fake.rs", src)]);
        assert_eq!(count(&vs, LintId::GuardLifetimeAudit), 0, "{vs:?}");
    }

    #[test]
    fn condvar_wait_consuming_the_guard_is_exempt() {
        let src = r#"
impl S {
    fn wait_ready(&self) {
        let mut st = self.state.lock().unwrap();
        while !st.ready() {
            st = self.cv.wait(st).unwrap();
        }
        drop(st);
    }
}
"#;
        let vs = analyze(&[unit("crates/core/src/fake.rs", src)]);
        assert_eq!(count(&vs, LintId::GuardLifetimeAudit), 0, "{vs:?}");
    }

    #[test]
    fn unpolled_blocking_supervised_loop_is_flagged() {
        let src = r#"
fn boot() {
    std::thread::spawn(|| pump());
}
fn pump() {
    loop {
        step_blocking();
    }
}
fn step_blocking() {
    std::thread::sleep(std::time::Duration::from_millis(1));
}
"#;
        let vs = analyze(&[unit("crates/core/src/fake.rs", src)]);
        assert_eq!(count(&vs, LintId::CancellationResponsiveness), 1, "{vs:?}");
        assert!(vs
            .iter()
            .any(|v| v.message.contains("pump") && v.message.contains("step_blocking")));
    }

    #[test]
    fn polled_supervised_loop_is_clean() {
        let src = r#"
fn boot() {
    std::thread::spawn(|| pump());
}
fn pump() {
    loop {
        if token.is_cancelled() {
            break;
        }
        step_blocking();
    }
}
fn step_blocking() {
    std::thread::sleep(std::time::Duration::from_millis(1));
}
"#;
        let vs = analyze(&[unit("crates/core/src/fake.rs", src)]);
        assert_eq!(count(&vs, LintId::CancellationResponsiveness), 0, "{vs:?}");
    }

    #[test]
    fn unsupervised_blocking_loop_is_not_flagged() {
        let src = r#"
fn pump() {
    loop {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
"#;
        let vs = analyze(&[unit("crates/core/src/fake.rs", src)]);
        assert_eq!(count(&vs, LintId::CancellationResponsiveness), 0, "{vs:?}");
    }

    #[test]
    fn inline_poison_recovery_is_flagged_outside_sync_module() {
        let src = r#"
impl S {
    fn recover(&self) {
        let g = self.m.lock().unwrap_or_else(|p| p.into_inner());
        drop(g);
    }
}
"#;
        let vs = analyze(&[unit("crates/core/src/fake.rs", src)]);
        assert_eq!(count(&vs, LintId::LockOrderAudit), 1, "{vs:?}");
        assert!(vs[0].message.contains("lock_recovering"));
        // The same tokens inside the sanctioned module are fine.
        let vs = analyze(&[unit("crates/spice/src/sync.rs", src)]);
        assert_eq!(count(&vs, LintId::LockOrderAudit), 0, "{vs:?}");
    }

    #[test]
    fn interprocedural_cycle_through_helper_is_detected() {
        let src = r#"
impl S {
    fn helper(&self) {
        let g = self.beta.lock().unwrap();
        drop(g);
    }
    fn outer(&self) {
        let ga = self.alpha.lock().unwrap();
        self.helper();
        drop(ga);
    }
    fn reverse(&self) {
        let gb = self.beta.lock().unwrap();
        let ga = self.alpha.lock().unwrap();
        drop(ga);
        drop(gb);
    }
}
"#;
        let vs = analyze(&[unit("crates/core/src/fake.rs", src)]);
        assert_eq!(count(&vs, LintId::LockOrderAudit), 1, "{vs:?}");
    }

    #[test]
    fn guard_live_after_let_else_return_is_flagged() {
        // The `return` ends only the `else` path: the guard is live on the
        // path that bound `job`.
        let src = r#"
impl S {
    fn step(&self, id: u32) {
        let mut st = self.state.lock().unwrap();
        let Some(job) = st.job_mut(id) else {
            return;
        };
        std::thread::sleep(std::time::Duration::from_millis(1));
        job.touch();
    }
}
"#;
        let vs = analyze(&[unit("crates/core/src/fake.rs", src)]);
        assert_eq!(count(&vs, LintId::GuardLifetimeAudit), 1, "{vs:?}");
        assert_eq!(vs[0].line, 8, "{vs:?}");
    }

    #[test]
    fn guard_live_after_returning_closure_is_flagged() {
        // A `return` inside a closure body leaves the closure, not the
        // function.
        let src = r#"
impl S {
    fn step(&self, xs: &[u32]) {
        let g = self.state.lock().unwrap();
        let total: u32 = xs.iter().map(|x| {
            return x * 2;
        }).sum();
        std::thread::sleep(std::time::Duration::from_millis(u64::from(total)));
        drop(g);
    }
}
"#;
        let vs = analyze(&[unit("crates/core/src/fake.rs", src)]);
        assert_eq!(count(&vs, LintId::GuardLifetimeAudit), 1, "{vs:?}");
        assert_eq!(vs[0].line, 8, "{vs:?}");
    }

    #[test]
    fn guard_bound_after_blocking_call_in_loop_is_clean() {
        // The guard dies when the loop body closes; it is not live at the
        // next iteration's sleep or re-acquisition.
        let src = r#"
impl S {
    fn pump(&self) {
        loop {
            std::thread::sleep(std::time::Duration::from_millis(1));
            let g = self.state.lock().unwrap();
            g.touch();
        }
    }
}
"#;
        let vs = analyze(&[unit("crates/core/src/fake.rs", src)]);
        assert_eq!(count(&vs, LintId::GuardLifetimeAudit), 0, "{vs:?}");
        assert_eq!(count(&vs, LintId::LockOrderAudit), 0, "{vs:?}");
    }

    #[test]
    fn pattern_bound_guards_are_tracked_by_their_field() {
        // `if let Ok(g)` holds `g` for its body only; `let Ok(h) = … else`
        // holds `h` for the rest of the block.
        let src = r#"
impl S {
    fn f(&self) {
        if let Ok(g) = self.state.lock() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
        let Ok(h) = self.state.lock() else {
            return;
        };
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
"#;
        let vs = analyze(&[unit("crates/core/src/fake.rs", src)]);
        let held: Vec<_> = vs
            .iter()
            .map(|v| (v.line, v.message.contains("`g`")))
            .collect();
        assert_eq!(held, vec![(5, true), (11, false)], "{vs:?}");
        assert!(vs[1].message.contains("`h`"), "{vs:?}");
    }

    #[test]
    fn drop_in_a_branch_kills_the_guard_only_inside_it() {
        let src = r#"
impl S {
    fn maybe(&self, early: bool) {
        let g = self.state.lock().unwrap();
        if early {
            drop(g);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
"#;
        let vs = analyze(&[unit("crates/core/src/fake.rs", src)]);
        assert_eq!(count(&vs, LintId::GuardLifetimeAudit), 1, "{vs:?}");
        assert_eq!(vs[0].line, 9, "{vs:?}");
    }

    #[test]
    fn temporary_guards_live_to_the_end_of_their_statement() {
        // A temporary guard taken in `head` orders `beta`, taken in the
        // block after it, after `alpha` (against `reverse`) only while it
        // is still live: an `if` condition's is dropped before the body
        // runs, an `if let` scrutinee's lives through the body, and a
        // `match` statement's ends with the match.
        let src = |head: &str| {
            format!(
                r#"
impl S {{
    fn f(&self) {{
        {head} {{
            let b = self.beta.lock().unwrap();
            b.touch();
        }}
    }}
    fn reverse(&self) {{
        let gb = self.beta.lock().unwrap();
        let ga = self.alpha.lock().unwrap();
        drop(ga);
        drop(gb);
    }}
}}
"#
            )
        };
        for (head, cycles) in [
            ("if self.alpha.lock().unwrap().ready", 0),
            ("if let Some(_) = self.alpha.lock().unwrap().k", 1),
            ("match self.alpha.lock().unwrap().k { _ => {} }", 0),
        ] {
            let vs = analyze(&[unit("crates/core/src/fake.rs", &src(head))]);
            assert_eq!(count(&vs, LintId::LockOrderAudit), cycles, "{head}: {vs:?}");
        }
    }

    #[test]
    fn brace_depths_ignore_literal_braces() {
        let lexed = lex("fn f() { let c = '{'; let s = \"}}}\"; g(); }");
        let depths = brace_depths(&lexed.tokens);
        let g = lexed.tokens.iter().position(|t| t.text == "g").unwrap();
        assert_eq!(depths[g], 1);
    }

    #[test]
    fn while_and_for_and_while_let_classify() {
        let toks = lex(
            "fn f() { while x < n { a(); } for i in it { b(); } while let Some(v) = q.pop() { c(); } }",
        )
        .tokens;
        let open = toks.iter().position(|t| t.text == "{").unwrap();
        let found = loops(&toks, (open, toks.len() - 1));
        let kinds: Vec<_> = found.iter().map(|l| l.kind).collect();
        assert_eq!(
            kinds,
            vec![LoopKind::While, LoopKind::For, LoopKind::WhileLet]
        );
        // Condition range of the `while` covers `x < n`.
        let cond = found[0].cond;
        let cond_text: Vec<_> = (cond.0..cond.1).map(|i| toks[i].text.as_str()).collect();
        assert_eq!(cond_text, vec!["x", "<", "n"]);
    }
}
