//! A std-only Rust lexer producing spanned tokens — the lint engine's one
//! source front-end.
//!
//! Every family reads a file through this lexer, so comments and literals
//! can never produce false positives, string literal contents are visible
//! to the cross-file lints, and multi-token patterns like
//! `Ordering :: Relaxed` match regardless of spacing. Tokens carry
//! 1-indexed (line, col) spans measured in characters, so diagnostics are
//! click-through accurate in editors and CI annotations.
//!
//! It is deliberately not a full Rust lexer: comments are skipped, raw
//! identifiers and exotic suffixes degrade gracefully into adjacent tokens,
//! and numbers are kept as raw text. That is all the downstream lints need,
//! and it keeps the module dependency-free and obviously panic-free.
//!
//! The one thing kept from comments is the suppression directive
//! `// finrad-lint: allow(<id>, ...)`, captured from plain line comments
//! (never from doc comments, block comments or literals) as an [`Allow`].
//! A *standalone* directive (nothing but whitespace or a block comment
//! before it on its line) covers its own line and the next; a *trailing*
//! directive (code precedes it) covers only its own line.

/// Lexical class of a [`Token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `static`, `Ordering`, ...).
    Ident,
    /// String literal (normal, byte, or raw); `text` holds the decoded
    /// contents without quotes.
    Str,
    /// Char literal; `text` holds the raw contents without quotes.
    Char,
    /// Lifetime (`'a`); `text` holds the name without the tick.
    Lifetime,
    /// Numeric literal, kept as raw text (`0xD6E8`, `1.5e-3`, `4096`).
    Number,
    /// Any single punctuation character (`{`, `^`, `;`, ...).
    Punct,
}

/// One token with its span.
#[derive(Debug, Clone)]
pub struct Token {
    /// Lexical class.
    pub kind: TokenKind,
    /// Token text; see [`TokenKind`] for per-kind conventions.
    pub text: String,
    /// 1-indexed line of the token's first character.
    pub line: usize,
    /// 1-indexed character column of the token's first character.
    pub col: usize,
    /// Whether the token sits inside a `#[cfg(test)]` module.
    pub in_test: bool,
}

/// One `allow(...)` directive captured from a line comment.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The lint ID being allowed (`"all"` allows everything).
    pub id: String,
    /// 1-indexed line of the comment.
    pub line: usize,
    /// 1-indexed character column where the directive text begins.
    pub col: usize,
    /// True when no code precedes the comment on its line; only
    /// standalone directives extend to the following line.
    pub standalone: bool,
    /// Whether the directive sits inside `#[cfg(test)]` code.
    pub in_test: bool,
}

impl Allow {
    /// True when this directive names `lint` (or `all`) and covers a
    /// violation on 1-indexed `line`.
    pub fn covers(&self, lint: &str, line: usize) -> bool {
        let reaches = line == self.line || (self.standalone && line == self.line + 1);
        reaches && (self.id == lint || self.id == "all")
    }
}

/// A lexed file.
#[derive(Debug)]
pub struct LexedFile {
    /// Tokens in source order; comments and whitespace are absent.
    pub tokens: Vec<Token>,
    /// Suppression directives in source order.
    pub allows: Vec<Allow>,
}

/// Lexes `src` into spanned tokens and directives, and tags
/// `#[cfg(test)]` regions.
pub fn lex(src: &str) -> LexedFile {
    let chars: Vec<char> = src.chars().collect();
    let mut lx = Lexer {
        chars: &chars,
        i: 0,
        line: 1,
        col: 1,
        code_line: 0,
        tokens: Vec::new(),
        allows: Vec::new(),
    };
    lx.run();
    let mut tokens = lx.tokens;
    tag_test_tokens(&mut tokens);
    // A directive is test code when the tokens on both sides of it are:
    // one just above a `#[cfg(test)]` item or just past a test module's
    // closing brace is still audited.
    let allows = lx
        .allows
        .into_iter()
        .map(|(mut allow, next)| {
            allow.in_test =
                next > 0 && tokens[next - 1].in_test && tokens.get(next).is_some_and(|t| t.in_test);
            allow
        })
        .collect();
    LexedFile { tokens, allows }
}

struct Lexer<'a> {
    chars: &'a [char],
    i: usize,
    line: usize,
    col: usize,
    /// Line on which the last token ended; a comment starting on it is
    /// trailing.
    code_line: usize,
    tokens: Vec<Token>,
    /// Directives with the index of the token that follows each.
    allows: Vec<(Allow, usize)>,
}

impl Lexer<'_> {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    /// Consumes one character, updating the line/col cursor.
    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokenKind, text: String, line: usize, col: usize) {
        self.code_line = self.line;
        self.tokens.push(Token {
            kind,
            text,
            line,
            col,
            in_test: false,
        });
    }

    fn run(&mut self) {
        while let Some(c) = self.peek(0) {
            let (line, col) = (self.line, self.col);
            if c.is_whitespace() {
                self.bump();
            } else if c == '/' && self.peek(1) == Some('/') {
                self.line_comment();
            } else if c == '/' && self.peek(1) == Some('*') {
                self.skip_block_comment();
            } else if c == '"' {
                self.bump();
                let text = self.string_body();
                self.push(TokenKind::Str, text, line, col);
            } else if self.is_raw_string_start() {
                let text = self.raw_string();
                self.push(TokenKind::Str, text, line, col);
            } else if c == 'b' && self.peek(1) == Some('"') {
                self.bump();
                self.bump();
                let text = self.string_body();
                self.push(TokenKind::Str, text, line, col);
            } else if c == '\'' {
                self.char_or_lifetime(line, col);
            } else if c.is_alphabetic() || c == '_' {
                let mut text = String::new();
                while self
                    .peek(0)
                    .is_some_and(|c| c.is_alphanumeric() || c == '_')
                {
                    text.push(self.bump().unwrap_or(' '));
                }
                self.push(TokenKind::Ident, text, line, col);
            } else if c.is_ascii_digit() {
                let text = self.number_body();
                self.push(TokenKind::Number, text, line, col);
            } else {
                self.bump();
                self.push(TokenKind::Punct, c.to_string(), line, col);
            }
        }
    }

    /// Consumes a line comment, capturing any `finrad-lint: allow(...)`
    /// directive unless it is a doc comment (`///`, `//!`).
    fn line_comment(&mut self) {
        let (line, col) = (self.line, self.col);
        let mut text = String::new();
        while let Some(c) = self.peek(0).filter(|&c| c != '\n') {
            text.push(c);
            self.bump();
        }
        let doc = text.starts_with("//!") || (text.starts_with("///") && !text.starts_with("////"));
        let Some(marker) = text.find("finrad-lint:").filter(|_| !doc) else {
            return;
        };
        let Some(ids) = text[marker..]
            .split("allow(")
            .nth(1)
            .and_then(|inner| inner.split(')').next())
        else {
            return;
        };
        let col = col + text[..marker].chars().count();
        let standalone = self.code_line != line;
        for id in ids.split(',').map(str::trim).filter(|id| !id.is_empty()) {
            let allow = Allow {
                id: id.to_string(),
                line,
                col,
                standalone,
                in_test: false,
            };
            self.allows.push((allow, self.tokens.len()));
        }
    }

    fn skip_block_comment(&mut self) {
        self.bump();
        self.bump();
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => return,
            }
        }
    }

    /// Consumes a string body after the opening quote, decoding the common
    /// escapes; returns the contents.
    fn string_body(&mut self) -> String {
        let mut out = String::new();
        while let Some(c) = self.bump() {
            match c {
                '"' => break,
                '\\' => {
                    if !self.decode_escape(&mut out) {
                        break;
                    }
                }
                _ => out.push(c),
            }
        }
        out
    }

    /// Decodes one escape sequence (the `\` already consumed) into `out`.
    /// Returns false at end of input.
    fn decode_escape(&mut self, out: &mut String) -> bool {
        match self.bump() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('0') => out.push('\0'),
            Some('u') => {
                // \u{XXXX}
                let mut hex = String::new();
                if self.peek(0) == Some('{') {
                    self.bump();
                    while self.peek(0).is_some_and(|c| c != '}') {
                        hex.push(self.bump().unwrap_or(' '));
                    }
                    self.bump();
                }
                let decoded = u32::from_str_radix(&hex, 16)
                    .ok()
                    .and_then(char::from_u32)
                    .unwrap_or('\u{fffd}');
                out.push(decoded);
            }
            Some(other) => out.push(other),
            None => return false,
        }
        true
    }

    fn is_raw_string_start(&self) -> bool {
        let mut j = 0;
        if self.peek(j) == Some('b') {
            j += 1;
        }
        if self.peek(j) != Some('r') {
            return false;
        }
        j += 1;
        while self.peek(j) == Some('#') {
            j += 1;
        }
        self.peek(j) == Some('"')
    }

    fn raw_string(&mut self) -> String {
        if self.peek(0) == Some('b') {
            self.bump();
        }
        self.bump(); // r
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            self.bump();
            hashes += 1;
        }
        self.bump(); // opening quote
        let mut out = String::new();
        while let Some(c) = self.peek(0) {
            if c == '"' && (1..=hashes).all(|k| self.peek(k) == Some('#')) {
                self.bump();
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
            out.push(c);
            self.bump();
        }
        out
    }

    fn char_or_lifetime(&mut self, line: usize, col: usize) {
        // `'a` (not closed by `'`) is a lifetime; `'a'` / `'\n'` is a char.
        let is_char = match self.peek(1) {
            Some('\\') => true,
            Some(_) => self.peek(2) == Some('\''),
            None => false,
        };
        self.bump(); // tick
        if is_char {
            let mut text = String::new();
            while let Some(c) = self.bump() {
                if c == '\'' {
                    break;
                }
                if c == '\\' {
                    // Decode escapes like string bodies do, so `'\''` and
                    // `'\\'` carry their actual character values.
                    if !self.decode_escape(&mut text) {
                        break;
                    }
                } else {
                    text.push(c);
                }
            }
            self.push(TokenKind::Char, text, line, col);
        } else {
            let mut text = String::new();
            while self
                .peek(0)
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
            {
                text.push(self.bump().unwrap_or(' '));
            }
            self.push(TokenKind::Lifetime, text, line, col);
        }
    }

    fn number_body(&mut self) -> String {
        let mut text = String::new();
        let radix_prefixed = self.peek(0) == Some('0')
            && matches!(self.peek(1), Some('x' | 'X' | 'b' | 'B' | 'o' | 'O'));
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(self.bump().unwrap_or(' '));
            } else if c == '.'
                && !radix_prefixed
                && self
                    .peek(1)
                    .is_none_or(|d| d != '.' && d != '_' && !d.is_alphabetic())
            {
                // `1.5` and `2.` continue the number; `1..n` and
                // `1.max()` do not.
                text.push(self.bump().unwrap_or(' '));
            } else if (c == '+' || c == '-') && !radix_prefixed && text.ends_with(['e', 'E']) {
                text.push(self.bump().unwrap_or(' '));
            } else {
                break;
            }
        }
        text
    }
}

/// Marks tokens inside `#[cfg(test)]` items by tracking brace depth.
fn tag_test_tokens(tokens: &mut [Token]) {
    let mut depth: i64 = 0;
    // A `#[cfg(test)]` was seen and its item has not opened a brace yet;
    // everything from the attribute to the item's `{` or `;` is test code.
    let mut pending_attr = false;
    let mut test_depth: Option<i64> = None;
    let mut k = 0;
    while k < tokens.len() {
        if is_cfg_test_attr(tokens, k) {
            pending_attr = true;
            for t in tokens.iter_mut().skip(k).take(7) {
                t.in_test = true;
            }
            k += 7;
            continue;
        }
        let text = tokens[k].text.as_str();
        let is_punct = tokens[k].kind == TokenKind::Punct;
        match text {
            "{" if is_punct => {
                depth += 1;
                if pending_attr && test_depth.is_none() {
                    test_depth = Some(depth);
                    pending_attr = false;
                }
                tokens[k].in_test = test_depth.is_some();
            }
            "}" if is_punct => {
                tokens[k].in_test = test_depth.is_some();
                if let Some(td) = test_depth {
                    if depth <= td {
                        test_depth = None;
                    }
                }
                depth -= 1;
            }
            ";" if is_punct => {
                tokens[k].in_test = test_depth.is_some() || pending_attr;
                // `#[cfg(test)] use ...;` — the attribute was spent on a
                // braceless item.
                if pending_attr && test_depth.is_none() {
                    pending_attr = false;
                }
            }
            _ => tokens[k].in_test = test_depth.is_some() || pending_attr,
        }
        k += 1;
    }
}

/// True when `tokens[k..]` begins the exact sequence `# [ cfg ( test ) ]`.
fn is_cfg_test_attr(tokens: &[Token], k: usize) -> bool {
    const SEQ: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
    tokens.len() >= k + SEQ.len()
        && SEQ
            .iter()
            .zip(&tokens[k..])
            .all(|(want, tok)| tok.text == *want)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn spans_are_one_indexed_chars() {
        let lexed = lex("let x = 1;\n  counter_add(\"core.sram.flips\", 1);\n");
        let key = lexed
            .tokens
            .iter()
            .find(|t| t.kind == TokenKind::Str)
            .expect("string token");
        assert_eq!(key.text, "core.sram.flips");
        assert_eq!((key.line, key.col), (2, 15));
    }

    #[test]
    fn comments_and_whitespace_vanish() {
        assert_eq!(
            texts("a /* b */ c // d\ne"),
            vec!["a".to_string(), "c".into(), "e".into()]
        );
    }

    #[test]
    fn string_escapes_decode() {
        let lexed = lex(r#"let s = "a\n\t\"\u{41}";"#);
        let s = &lexed.tokens[3];
        assert_eq!(s.kind, TokenKind::Str);
        assert_eq!(s.text, "a\n\t\"A");
    }

    #[test]
    fn raw_and_byte_strings_lex() {
        let lexed = lex("let a = r#\"x\"y\"#; let b = b\"z\";");
        let strs: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(strs, vec!["x\"y".to_string(), "z".into()]);
    }

    #[test]
    fn lifetimes_and_chars_are_distinct() {
        let lexed = lex("fn f<'a>(x: &'a str) -> char { '\\n' }");
        assert!(lexed
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Lifetime && t.text == "a"));
        assert!(lexed.tokens.iter().any(|t| t.kind == TokenKind::Char));
    }

    #[test]
    fn numbers_keep_raw_text() {
        assert_eq!(
            texts("0xD6E8_FEB8 4096 1.5e-3 1..4"),
            vec![
                "0xD6E8_FEB8".to_string(),
                "4096".into(),
                "1.5e-3".into(),
                "1".into(),
                ".".into(),
                ".".into(),
                "4".into(),
            ]
        );
    }

    #[test]
    fn cfg_test_tokens_are_tagged() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { probe(); }\n}\nfn after() {}\n";
        let lexed = lex(src);
        let probe = lexed.tokens.iter().find(|t| t.text == "probe").unwrap();
        assert!(probe.in_test);
        let lib = lexed.tokens.iter().find(|t| t.text == "lib").unwrap();
        let after = lexed.tokens.iter().find(|t| t.text == "after").unwrap();
        assert!(!lib.in_test && !after.in_test);
    }

    #[test]
    fn multi_hash_raw_strings_lex() {
        // The terminator must match the opening hash count exactly: `"#`
        // inside an `r##"…"##` body is content, not an end.
        let lexed = lex("let a = r##\"quote \"# inside\"##; done();");
        let s = lexed
            .tokens
            .iter()
            .find(|t| t.kind == TokenKind::Str)
            .unwrap();
        assert_eq!(s.text, "quote \"# inside");
        assert!(lexed.tokens.iter().any(|t| t.text == "done"));
    }

    #[test]
    fn zero_hash_raw_strings_lex() {
        let lexed = lex("let a = r\"no \\n escapes\";");
        let s = lexed
            .tokens
            .iter()
            .find(|t| t.kind == TokenKind::Str)
            .unwrap();
        // Raw: the backslash survives undecoded.
        assert_eq!(s.text, "no \\n escapes");
    }

    #[test]
    fn multiline_raw_strings_keep_spans() {
        let lexed = lex("let a = r#\"line one\nline two\"#;\nafter();\n");
        let after = lexed.tokens.iter().find(|t| t.text == "after").unwrap();
        // The raw string spans one newline, so `after` is on line 3.
        assert_eq!((after.line, after.col), (3, 1));
    }

    #[test]
    fn escaped_quote_char_is_a_char() {
        let lexed = lex(r"let q = '\''; let b = '\\';");
        let chars: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(chars, vec!["'".to_string(), "\\".into()]);
    }

    #[test]
    fn loop_labels_lex_as_lifetimes() {
        // CFG construction depends on `'outer: loop` / `break 'outer` not
        // swallowing the following token as a char body.
        let lexed = lex("'outer: loop { break 'outer; }");
        let labels: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(labels, vec!["outer".to_string(), "outer".into()]);
        assert!(lexed.tokens.iter().any(|t| t.text == "break"));
    }

    #[test]
    fn nested_block_comments_hide_their_contents() {
        // Forbidden-looking text inside a nested comment must not reach
        // the token stream (the lint families scan tokens, not bytes).
        let src = "a /* x /* thread_rng() .unwrap() */ still /* deeper */ hidden */ b";
        assert_eq!(texts(src), vec!["a".to_string(), "b".into()]);
    }

    #[test]
    fn forbidden_text_inside_literals_stays_literal() {
        let src = "let s = r#\"cfg.lock().unwrap() /* unclosed\"#; let c = '{';";
        let lexed = lex(src);
        // `unwrap` appears only inside the raw string: no Ident token.
        assert!(!lexed
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text == "unwrap"));
        // The `{` char literal must not unbalance brace tracking: it is a
        // Char token, not punct.
        let c = lexed
            .tokens
            .iter()
            .rfind(|t| t.kind == TokenKind::Char)
            .unwrap();
        assert_eq!(c.text, "{");
    }

    #[test]
    fn raw_identifiers_do_not_start_raw_strings() {
        let lexed = lex("let r#type = 1; r#match(r#type);");
        assert!(lexed.tokens.iter().all(|t| t.kind != TokenKind::Str));
        let idents: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.clone())
            .collect();
        assert!(idents.contains(&"type".to_string()) || idents.contains(&"r".to_string()));
    }

    #[test]
    fn allow_directives_are_captured_from_line_comments_only() {
        let src = "    // finrad-lint: allow(panic-freedom)\n\
                   x(); // finrad-lint: allow(panic-freedom, float-discipline)\n\
                   /* c */ // finrad-lint: allow(seed-discipline)\n\
                   let s = \"// finrad-lint: allow(rng-determinism)\";\n\
                   /* // finrad-lint: allow(rng-determinism) */\n\
                   /// finrad-lint: allow(rng-determinism)\n\
                   //! finrad-lint: allow(rng-determinism)\n";
        let allows = lex(src).allows;
        let got: Vec<_> = allows
            .iter()
            .map(|a| (a.id.as_str(), a.line, a.col, a.standalone))
            .collect();
        assert_eq!(
            got,
            vec![
                ("panic-freedom", 1, 8, true),
                ("panic-freedom", 2, 9, false),
                ("float-discipline", 2, 9, false),
                ("seed-discipline", 3, 12, true),
            ]
        );
        // Standalone reaches the next line; trailing covers only its own.
        assert!(allows[0].covers("panic-freedom", 1) && allows[0].covers("panic-freedom", 2));
        assert!(!allows[0].covers("panic-freedom", 3) && !allows[0].covers("float-discipline", 2));
        assert!(allows[1].covers("panic-freedom", 2) && !allows[1].covers("panic-freedom", 3));
        // A directive inside test code is tagged; one just above the
        // `#[cfg(test)]` attribute is not.
        let src = "fn lib() {}\n// finrad-lint: allow(all)\n#[cfg(test)]\nmod tests {\n    // finrad-lint: allow(all)\n    fn t() {}\n}\n";
        let tagged: Vec<_> = lex(src).allows.iter().map(|a| a.in_test).collect();
        assert_eq!(tagged, vec![false, true]);
    }

    #[test]
    fn braceless_cfg_test_item_does_not_leak() {
        let src = "#[cfg(test)]\nuse helper::probe;\nfn real() {}\n";
        let lexed = lex(src);
        let real = lexed.tokens.iter().find(|t| t.text == "real").unwrap();
        assert!(!real.in_test);
    }
}
