//! Intraprocedural control-flow graphs over token streams.
//!
//! The flow-sensitive lint families ([`crate::flow`]) need more than the
//! token scan the older families use: *in what order* do two locks get
//! taken, is a guard still live *at this call*, does *every path* through a
//! worker loop poll its cancellation token. This module builds a lightweight
//! CFG for one `fn` body straight from the [`crate::lexer`] token stream —
//! no AST. Basic blocks hold ordered token-index segments; edges follow the
//! structured control flow of `if`/`else`, `loop`/`while`/`for`, `match`,
//! `return`, `?`, `break` and `continue`.
//!
//! The builder is deliberately approximate where precision buys nothing for
//! the lint families: `else if` chains evaluate all conditions in the
//! predecessor block, labeled breaks target the innermost loop, and `let x =
//! if …` splits the statement across blocks (such bindings are simply not
//! tracked by the dataflow clients). Closure bodies stay inline in their
//! enclosing block — the families that care about deferred execution
//! (cancellation entry points) handle `spawn` sites explicitly.

use crate::lexer::{Token, TokenKind};

/// Index of the synthetic entry block.
pub const ENTRY: usize = 0;
/// Index of the synthetic exit block (`return`/`?` edges land here).
pub const EXIT: usize = 1;

/// One basic block: ordered, possibly discontiguous token-index segments.
#[derive(Debug, Default)]
pub struct Block {
    /// Half-open `[start, end)` ranges into the file's token vector.
    pub segs: Vec<(usize, usize)>,
    /// Successor block indices.
    pub succs: Vec<usize>,
}

impl Block {
    fn push_tok(&mut self, i: usize) {
        if let Some(last) = self.segs.last_mut() {
            if last.1 == i {
                last.1 = i + 1;
                return;
            }
        }
        self.segs.push((i, i + 1));
    }
}

/// The kind of a loop construct, for the cancellation-responsiveness rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    /// `loop { … }` — unconditionally unbounded.
    Loop,
    /// `while cond { … }`.
    While,
    /// `while let pat = expr { … }` — bounded by the iterator/queue.
    WhileLet,
    /// `for pat in iter { … }` — bounded by the iterator.
    For,
}

/// One loop found during CFG construction.
#[derive(Debug, Clone)]
pub struct LoopInfo {
    /// What kind of loop header introduced it.
    pub kind: LoopKind,
    /// Token range of the condition (`while`) or iterator expression
    /// (`for`); empty for `loop`.
    pub cond: (usize, usize),
    /// Token range of the body, *excluding* the braces.
    pub body: (usize, usize),
    /// 1-indexed source position of the loop keyword.
    pub line: usize,
    /// Column of the loop keyword.
    pub col: usize,
}

/// A function body's control-flow graph.
#[derive(Debug)]
pub struct Cfg {
    /// Blocks; `blocks[ENTRY]` and `blocks[EXIT]` are synthetic.
    pub blocks: Vec<Block>,
    /// Every loop in the body, outermost first.
    pub loops: Vec<LoopInfo>,
}

impl Cfg {
    /// Iterates a block's token indices in program order.
    pub fn block_tokens<'a>(&'a self, b: usize) -> impl Iterator<Item = usize> + 'a {
        self.blocks[b].segs.iter().flat_map(|&(s, e)| s..e)
    }
}

/// Absolute `{}` nesting depth of every token (Punct braces only — brace
/// characters inside char/string literals don't count). A token's depth is
/// the depth *at* that token; a closing `}` carries the outer depth. The
/// dataflow clients use this for scope-sensitive kills: a binding made at
/// depth `d` is dead at the first token with depth `< d`.
pub fn brace_depths(tokens: &[Token]) -> Vec<u32> {
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

/// Builds the CFG for a body whose braces are at token indices
/// `body.0` (`{`) and `body.1` (`}`).
pub fn build(tokens: &[Token], body: (usize, usize)) -> Cfg {
    let mut b = Builder {
        toks: tokens,
        blocks: vec![Block::default(), Block::default()],
        loops: Vec::new(),
        loop_stack: Vec::new(),
    };
    let cur = b.new_block();
    b.blocks[ENTRY].succs.push(cur);
    let out = b.walk(body.0 + 1, body.1, cur);
    b.blocks[out].succs.push(EXIT);
    Cfg {
        blocks: b.blocks,
        loops: b.loops,
    }
}

struct Builder<'a> {
    toks: &'a [Token],
    blocks: Vec<Block>,
    loops: Vec<LoopInfo>,
    /// `(header, exit)` block indices of the enclosing loops.
    loop_stack: Vec<(usize, usize)>,
}

impl<'a> Builder<'a> {
    fn new_block(&mut self) -> usize {
        self.blocks.push(Block::default());
        self.blocks.len() - 1
    }

    fn is_punct(&self, i: usize, s: &str) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text == s)
    }

    fn is_ident(&self, i: usize, s: &str) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text == s)
    }

    /// First `{` at paren/bracket depth 0 in `[from, end)`; Rust forbids
    /// struct literals in this position, so it is the body opener.
    fn find_body_open(&self, from: usize, end: usize) -> Option<usize> {
        let mut depth = 0i32;
        for i in from..end {
            if self.toks[i].kind != TokenKind::Punct {
                continue;
            }
            match self.toks[i].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => return Some(i),
                _ => {}
            }
        }
        None
    }

    /// The matching close for the open delimiter at `open`.
    fn matching(&self, open: usize, end: usize) -> usize {
        let (o, c) = match self.toks[open].text.as_str() {
            "{" => ("{", "}"),
            "(" => ("(", ")"),
            _ => ("[", "]"),
        };
        let mut depth = 0i32;
        for i in open..end {
            if self.toks[i].kind != TokenKind::Punct {
                continue;
            }
            if self.toks[i].text == o {
                depth += 1;
            } else if self.toks[i].text == c {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
        end.saturating_sub(1)
    }

    /// Appends the statement tail (up to and including the `;` that ends
    /// it, at delimiter depth 0) to `blk`; returns the next index.
    fn eat_stmt_tail(&mut self, mut i: usize, end: usize, blk: usize) -> usize {
        let mut depth = 0i32;
        while i < end {
            let t = &self.toks[i];
            self.blocks[blk].push_tok(i);
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ";" if depth == 0 => return i + 1,
                    "," if depth == 0 => return i + 1,
                    _ => {}
                }
            }
            if depth < 0 {
                return i + 1;
            }
            i += 1;
        }
        end
    }

    /// Walks `[i, end)` appending straight-line tokens to `cur`, splitting
    /// at control-flow constructs. Returns the block that falls through.
    fn walk(&mut self, mut i: usize, end: usize, mut cur: usize) -> usize {
        while i < end {
            let t = &self.toks[i];
            if t.kind == TokenKind::Ident {
                match t.text.as_str() {
                    "if" => {
                        // A whole `if / else if / else` chain.
                        let join = self.new_block();
                        let mut has_final_else = false;
                        let mut j = i;
                        loop {
                            // `j` is at `if`: condition up to the body `{`.
                            let Some(open) = self.find_body_open(j + 1, end) else {
                                // Malformed; bail out of the construct.
                                self.blocks[cur].push_tok(j);
                                i = j + 1;
                                break;
                            };
                            for k in j..open {
                                self.blocks[cur].push_tok(k);
                            }
                            let close = self.matching(open, end);
                            let arm = self.new_block();
                            self.blocks[cur].succs.push(arm);
                            let out = self.walk(open + 1, close, arm);
                            self.blocks[out].succs.push(join);
                            i = close + 1;
                            if self.is_ident(i, "else") {
                                if self.is_ident(i + 1, "if") {
                                    j = i + 1;
                                    continue;
                                }
                                if self.is_punct(i + 1, "{") {
                                    let eopen = i + 1;
                                    let eclose = self.matching(eopen, end);
                                    let arm = self.new_block();
                                    self.blocks[cur].succs.push(arm);
                                    let out = self.walk(eopen + 1, eclose, arm);
                                    self.blocks[out].succs.push(join);
                                    has_final_else = true;
                                    i = eclose + 1;
                                }
                            }
                            break;
                        }
                        if !has_final_else {
                            self.blocks[cur].succs.push(join);
                        }
                        cur = join;
                        continue;
                    }
                    "match" => {
                        let Some(open) = self.find_body_open(i + 1, end) else {
                            self.blocks[cur].push_tok(i);
                            i += 1;
                            continue;
                        };
                        for k in i..open {
                            self.blocks[cur].push_tok(k);
                        }
                        let close = self.matching(open, end);
                        let join = self.new_block();
                        let mut j = open + 1;
                        while j < close {
                            // Pattern (with any guard) up to `=>`.
                            let mut depth = 0i32;
                            let mut arrow = None;
                            let mut k = j;
                            while k < close {
                                let tk = &self.toks[k];
                                if tk.kind == TokenKind::Punct {
                                    match tk.text.as_str() {
                                        "(" | "[" | "{" => depth += 1,
                                        ")" | "]" | "}" => depth -= 1,
                                        "=" if depth == 0 && self.is_punct(k + 1, ">") => {
                                            arrow = Some(k);
                                        }
                                        _ => {}
                                    }
                                }
                                if arrow.is_some() {
                                    break;
                                }
                                k += 1;
                            }
                            let Some(arrow) = arrow else { break };
                            for p in j..arrow {
                                self.blocks[cur].push_tok(p);
                            }
                            let arm = self.new_block();
                            self.blocks[cur].succs.push(arm);
                            let body_start = arrow + 2;
                            let next = if self.is_punct(body_start, "{") {
                                let bclose = self.matching(body_start, close);
                                let out = self.walk(body_start + 1, bclose, arm);
                                self.blocks[out].succs.push(join);
                                // Skip an optional trailing comma.
                                if self.is_punct(bclose + 1, ",") {
                                    bclose + 2
                                } else {
                                    bclose + 1
                                }
                            } else {
                                // Expression arm: up to `,` at depth 0.
                                let stop = self.expr_arm_end(body_start, close);
                                let out = self.walk(body_start, stop, arm);
                                self.blocks[out].succs.push(join);
                                if self.is_punct(stop, ",") {
                                    stop + 1
                                } else {
                                    stop
                                }
                            };
                            j = next;
                        }
                        cur = join;
                        i = close + 1;
                        continue;
                    }
                    "loop" | "while" | "for" => {
                        let kw = t.text.clone();
                        let Some(open) = self.find_body_open(i + 1, end) else {
                            self.blocks[cur].push_tok(i);
                            i += 1;
                            continue;
                        };
                        let close = self.matching(open, end);
                        let (kind, cond) = match kw.as_str() {
                            "loop" => (LoopKind::Loop, (i + 1, i + 1)),
                            "while" if self.is_ident(i + 1, "let") => {
                                (LoopKind::WhileLet, (i + 1, open))
                            }
                            "while" => (LoopKind::While, (i + 1, open)),
                            _ => (LoopKind::For, (i + 1, open)),
                        };
                        self.loops.push(LoopInfo {
                            kind,
                            cond,
                            body: (open + 1, close),
                            line: t.line,
                            col: t.col,
                        });
                        let header = self.new_block();
                        let exit = self.new_block();
                        self.blocks[cur].succs.push(header);
                        // Condition / iterator tokens live in the header.
                        for k in cond.0..cond.1 {
                            self.blocks[header].push_tok(k);
                        }
                        if kind != LoopKind::Loop {
                            self.blocks[header].succs.push(exit);
                        }
                        self.loop_stack.push((header, exit));
                        let body_blk = self.new_block();
                        self.blocks[header].succs.push(body_blk);
                        let out = self.walk(open + 1, close, body_blk);
                        self.blocks[out].succs.push(header);
                        self.loop_stack.pop();
                        cur = exit;
                        i = close + 1;
                        continue;
                    }
                    "return" => {
                        i = self.eat_stmt_tail(i, end, cur);
                        self.blocks[cur].succs.push(EXIT);
                        cur = self.new_block();
                        continue;
                    }
                    "break" | "continue" => {
                        let target = self.loop_stack.last().copied();
                        let is_break = t.text == "break";
                        i = self.eat_stmt_tail(i, end, cur);
                        if let Some((header, exit)) = target {
                            self.blocks[cur]
                                .succs
                                .push(if is_break { exit } else { header });
                        }
                        cur = self.new_block();
                        continue;
                    }
                    _ => {}
                }
            } else if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "{" => {
                        // Plain nested block: same control flow, new scope
                        // (the depth map handles the scope).
                        let close = self.matching(i, end);
                        cur = self.walk(i + 1, close, cur);
                        i = close + 1;
                        continue;
                    }
                    "?" => {
                        self.blocks[cur].push_tok(i);
                        if !self.blocks[cur].succs.contains(&EXIT) {
                            self.blocks[cur].succs.push(EXIT);
                        }
                        i += 1;
                        continue;
                    }
                    _ => {}
                }
            }
            self.blocks[cur].push_tok(i);
            i += 1;
        }
        cur
    }

    /// End of an expression match arm starting at `i`: the `,` at depth 0,
    /// or `close`.
    fn expr_arm_end(&self, i: usize, close: usize) -> usize {
        let mut depth = 0i32;
        for k in i..close {
            let t = &self.toks[k];
            if t.kind != TokenKind::Punct {
                continue;
            }
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "," if depth == 0 => return k,
                _ => {}
            }
        }
        close
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn body_of(src: &str) -> (Vec<Token>, (usize, usize)) {
        let lexed = lex(src);
        let open = lexed
            .tokens
            .iter()
            .position(|t| t.kind == TokenKind::Punct && t.text == "{")
            .expect("body open");
        let close = lexed.tokens.len() - 1;
        (lexed.tokens, (open, close))
    }

    fn reachable(cfg: &Cfg) -> Vec<usize> {
        let mut seen = vec![false; cfg.blocks.len()];
        let mut stack = vec![ENTRY];
        while let Some(b) = stack.pop() {
            if std::mem::replace(&mut seen[b], true) {
                continue;
            }
            stack.extend(cfg.blocks[b].succs.iter().copied());
        }
        (0..cfg.blocks.len()).filter(|&b| seen[b]).collect()
    }

    #[test]
    fn straight_line_is_one_block() {
        let (toks, body) = body_of("fn f() { a(); b(); }");
        let cfg = build(&toks, body);
        // entry → one code block → exit.
        let code: Vec<_> = (2..cfg.blocks.len())
            .filter(|&b| !cfg.blocks[b].segs.is_empty())
            .collect();
        assert_eq!(code.len(), 1);
        assert!(cfg.blocks[code[0]].succs.contains(&EXIT));
    }

    #[test]
    fn if_else_diamonds_join() {
        let (toks, body) = body_of("fn f() { if c { a(); } else { b(); } d(); }");
        let cfg = build(&toks, body);
        // Both arm blocks exist and the exit stays reachable.
        assert!(reachable(&cfg).contains(&EXIT));
        // `d` appears exactly once across all blocks.
        let d_count = cfg
            .blocks
            .iter()
            .flat_map(|b| b.segs.iter().flat_map(|&(s, e)| s..e))
            .filter(|&i| toks[i].text == "d")
            .count();
        assert_eq!(d_count, 1);
    }

    #[test]
    fn if_without_else_falls_through() {
        let (toks, body) = body_of("fn f() { if c { a(); } b(); }");
        let cfg = build(&toks, body);
        // The condition block must have two successors (arm + join).
        let cond_block = cfg
            .blocks
            .iter()
            .position(|b| {
                b.segs
                    .iter()
                    .flat_map(|&(s, e)| s..e)
                    .any(|i| toks[i].text == "c")
            })
            .unwrap();
        assert_eq!(cfg.blocks[cond_block].succs.len(), 2);
    }

    #[test]
    fn loops_have_back_edges_and_are_recorded() {
        let (toks, body) = body_of("fn f() { loop { a(); if done { break; } } b(); }");
        let cfg = build(&toks, body);
        assert_eq!(cfg.loops.len(), 1);
        assert_eq!(cfg.loops[0].kind, LoopKind::Loop);
        assert!(reachable(&cfg).contains(&EXIT));
        // The break target (loop exit) leads to `b()`.
        let b_block = cfg
            .blocks
            .iter()
            .position(|b| {
                b.segs
                    .iter()
                    .flat_map(|&(s, e)| s..e)
                    .any(|i| toks[i].text == "b")
            })
            .unwrap();
        assert!(reachable(&cfg).contains(&b_block));
    }

    #[test]
    fn while_and_for_and_while_let_classify() {
        let (toks, body) =
            body_of("fn f() { while x < n { a(); } for i in it { b(); } while let Some(v) = q.pop() { c(); } }");
        let cfg = build(&toks, body);
        let kinds: Vec<_> = cfg.loops.iter().map(|l| l.kind).collect();
        assert_eq!(
            kinds,
            vec![LoopKind::While, LoopKind::For, LoopKind::WhileLet]
        );
        // Condition range of the `while` covers `x < n`.
        let cond = cfg.loops[0].cond;
        let cond_text: Vec<_> = (cond.0..cond.1).map(|i| toks[i].text.as_str()).collect();
        assert_eq!(cond_text, vec!["x", "<", "n"]);
    }

    #[test]
    fn match_arms_branch_and_join() {
        let (toks, body) = body_of("fn f() { match v { Some(x) => { a(x); } None => b(), } c(); }");
        let cfg = build(&toks, body);
        assert!(reachable(&cfg).contains(&EXIT));
        for name in ["a", "b", "c"] {
            let count = cfg
                .blocks
                .iter()
                .flat_map(|b| b.segs.iter().flat_map(|&(s, e)| s..e))
                .filter(|&i| toks[i].text == name)
                .count();
            assert_eq!(count, 1, "token `{name}` placed once");
        }
    }

    #[test]
    fn return_and_question_mark_reach_exit() {
        let (toks, body) = body_of("fn f() { if c { return 1; } let x = g()?; x }");
        let cfg = build(&toks, body);
        // The `return` arm and the `?` block both have EXIT edges.
        let exit_preds = cfg
            .blocks
            .iter()
            .filter(|b| b.succs.contains(&EXIT))
            .count();
        assert!(exit_preds >= 2, "{cfg:#?}");
        let _ = toks;
    }

    #[test]
    fn nested_loop_breaks_target_innermost() {
        let (toks, body) = body_of("fn f() { loop { loop { break; } continue; } }");
        let cfg = build(&toks, body);
        assert_eq!(cfg.loops.len(), 2);
        assert!(cfg.loops[0].body.0 < cfg.loops[1].body.0);
        let _ = toks;
    }

    #[test]
    fn brace_depths_ignore_literal_braces() {
        let lexed = lex("fn f() { let c = '{'; let s = \"}}}\"; g(); }");
        let depths = brace_depths(&lexed.tokens);
        let g = lexed.tokens.iter().position(|t| t.text == "g").unwrap();
        assert_eq!(depths[g], 1);
    }
}
