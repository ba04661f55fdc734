//! Comment- and string-aware scrubbing of Rust sources.
//!
//! The lint pass never wants to fire on text inside comments, doc comments,
//! or string/char literals, and it must honour `#[cfg(test)]` module
//! boundaries. Instead of a full parser, this module produces a *scrubbed*
//! view of a file: the body of every comment and literal is replaced by
//! spaces (delimiters kept, line structure preserved), so downstream lints
//! can do plain substring matching on `Line::code` without false positives.
//! Scrubbing is **column-preserving**: every consumed character (other than
//! a line break) is replaced by exactly one blank, so a byte offset into a
//! scrubbed line is also a 1:1 column into the original line — that is what
//! makes line:col diagnostics click-through accurate.
//!
//! The scrubber also extracts `// finrad-lint: allow(<id>, ...)` directives
//! from line comments. A *standalone* directive (the comment is the whole
//! line) suppresses matching violations on its own line and on the line
//! directly below it; a *trailing* directive (code precedes the comment on
//! the same line) suppresses only its own line — a trailing comment is an
//! annotation of that line, not of whatever happens to come next.

/// One `allow(...)` directive extracted from a line comment.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The lint ID being allowed (`"all"` allows everything).
    pub id: String,
    /// True when the comment is the whole line (only whitespace before
    /// `//`); only standalone directives extend to the following line.
    pub standalone: bool,
    /// 1-indexed character column where the directive text begins.
    pub col: usize,
}

/// One scrubbed source line.
#[derive(Debug, Clone)]
pub struct Line {
    /// The line's code with comment/literal bodies blanked out.
    pub code: String,
    /// Whether the line sits inside a `#[cfg(test)]` module.
    pub in_test: bool,
    /// Allow directives declared on this line.
    pub allows: Vec<Allow>,
}

/// A whole file after scrubbing; lines are 0-indexed internally (lints
/// report 1-indexed).
#[derive(Debug)]
pub struct ScrubbedSource {
    /// The scrubbed lines, in file order.
    pub lines: Vec<Line>,
}

impl ScrubbedSource {
    /// True when a violation of `lint` at 1-indexed `line` is suppressed by
    /// an allow directive on that line, or by a *standalone* directive on
    /// the line above it.
    pub fn is_allowed(&self, lint: &str, line: usize) -> bool {
        let idx = line.saturating_sub(1);
        let own = |i: usize| {
            self.lines
                .get(i)
                .is_some_and(|l| l.allows.iter().any(|a| a.id == lint || a.id == "all"))
        };
        let above = |i: usize| {
            self.lines.get(i).is_some_and(|l| {
                l.allows
                    .iter()
                    .any(|a| a.standalone && (a.id == lint || a.id == "all"))
            })
        };
        own(idx) || (idx > 0 && above(idx - 1))
    }
}

/// Scrubs `src`, blanking comments and literal bodies and tagging
/// `#[cfg(test)]` regions.
pub fn scrub(src: &str) -> ScrubbedSource {
    let chars: Vec<char> = src.chars().collect();
    let mut lines: Vec<(String, Vec<Allow>)> = Vec::new();
    let mut code = String::new();
    let mut allows: Vec<Allow> = Vec::new();
    let mut i = 0;

    macro_rules! end_line {
        () => {{
            lines.push((std::mem::take(&mut code), std::mem::take(&mut allows)));
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            end_line!();
            i += 1;
        } else if c == '/' && chars.get(i + 1) == Some(&'/') {
            // Line comment (incl. doc comments): capture for allow(), blank.
            let standalone = code.chars().all(char::is_whitespace);
            let comment_col = code.chars().count() + 1;
            let start = i;
            while i < chars.len() && chars[i] != '\n' {
                code.push(' ');
                i += 1;
            }
            let comment: String = chars[start..i].iter().collect();
            parse_allow_directive(&comment, standalone, comment_col, &mut allows);
        } else if c == '/' && chars.get(i + 1) == Some(&'*') {
            // Block comment with nesting; preserve line and column
            // structure by blanking every consumed character.
            let mut depth = 1u32;
            code.push_str("  ");
            i += 2;
            while i < chars.len() && depth > 0 {
                if chars[i] == '\n' {
                    end_line!();
                    i += 1;
                } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    code.push_str("  ");
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    code.push_str("  ");
                    i += 2;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
        } else if c == '"' {
            i = scrub_string(&chars, i, &mut code, &mut lines, &mut allows);
        } else if is_raw_string_start(&chars, i) {
            let mut j = i;
            if chars[j] == 'b' {
                code.push('b');
                j += 1;
            }
            code.push('r');
            j += 1;
            let mut hashes = 0usize;
            while chars.get(j) == Some(&'#') {
                code.push('#');
                hashes += 1;
                j += 1;
            }
            i = scrub_raw_string(&chars, j, &mut code, &mut lines, &mut allows, hashes);
        } else if c == 'b' && chars.get(i + 1) == Some(&'"') && !prev_is_ident(&chars, i) {
            code.push('b');
            i = scrub_string(&chars, i + 1, &mut code, &mut lines, &mut allows);
        } else if c == '\'' {
            i = scrub_char_or_lifetime(&chars, i, &mut code);
        } else {
            code.push(c);
            i += 1;
        }
    }
    if !code.is_empty() || !allows.is_empty() {
        end_line!();
    }

    ScrubbedSource {
        lines: tag_test_regions(lines),
    }
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    if prev_is_ident(chars, i) {
        return false;
    }
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// Scrubs a normal (escaped) string literal starting at the opening quote;
/// returns the index past the closing quote.
fn scrub_string(
    chars: &[char],
    mut i: usize,
    code: &mut String,
    lines: &mut Vec<(String, Vec<Allow>)>,
    allows: &mut Vec<Allow>,
) -> usize {
    code.push('"');
    i += 1;
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                // Blank both the backslash and the escaped character so
                // columns after the literal stay aligned. A `\<newline>`
                // continuation leaves the newline for the main match so
                // line numbering stays honest.
                code.push(' ');
                i += 1;
                if chars.get(i).is_some_and(|&c| c != '\n') {
                    code.push(' ');
                    i += 1;
                }
            }
            '\n' => {
                lines.push((std::mem::take(code), std::mem::take(allows)));
                i += 1;
            }
            '"' => {
                code.push('"');
                return i + 1;
            }
            _ => {
                code.push(' ');
                i += 1;
            }
        }
    }
    i
}

/// Scrubs a raw string body starting at the opening quote; `hashes` is the
/// number of `#` in the delimiter. Returns the index past the terminator.
fn scrub_raw_string(
    chars: &[char],
    mut i: usize,
    code: &mut String,
    lines: &mut Vec<(String, Vec<Allow>)>,
    allows: &mut Vec<Allow>,
    hashes: usize,
) -> usize {
    code.push('"');
    i += 1;
    while i < chars.len() {
        if chars[i] == '\n' {
            lines.push((std::mem::take(code), std::mem::take(allows)));
            i += 1;
        } else if chars[i] == '"'
            && chars[i + 1..]
                .iter()
                .take(hashes)
                .filter(|&&h| h == '#')
                .count()
                == hashes
        {
            code.push('"');
            for _ in 0..hashes {
                code.push('#');
            }
            return i + 1 + hashes;
        } else {
            code.push(' ');
            i += 1;
        }
    }
    i
}

/// Distinguishes `'a'` / `'\n'` char literals from `'a` lifetimes; returns
/// the index past whatever was consumed.
fn scrub_char_or_lifetime(chars: &[char], i: usize, code: &mut String) -> usize {
    let is_char_literal = match chars.get(i + 1) {
        Some('\\') => true,
        Some(_) => chars.get(i + 2) == Some(&'\''),
        None => false,
    };
    if !is_char_literal {
        code.push('\'');
        return i + 1;
    }
    code.push('\'');
    let mut j = i + 1;
    while j < chars.len() {
        match chars[j] {
            '\\' => {
                code.push(' ');
                if j + 1 < chars.len() {
                    code.push(' ');
                }
                j += 2;
            }
            '\'' => {
                code.push('\'');
                return j + 1;
            }
            _ => {
                code.push(' ');
                j += 1;
            }
        }
    }
    j
}

fn parse_allow_directive(
    comment: &str,
    standalone: bool,
    comment_col: usize,
    out: &mut Vec<Allow>,
) {
    let Some(marker) = comment.find("finrad-lint:") else {
        return;
    };
    let col = comment_col + comment[..marker].chars().count();
    let rest = &comment[marker..];
    let Some(inner) = rest.split("allow(").nth(1) else {
        return;
    };
    let Some(ids) = inner.split(')').next() else {
        return;
    };
    for id in ids.split(',') {
        let id = id.trim();
        if !id.is_empty() {
            out.push(Allow {
                id: id.to_string(),
                standalone,
                col,
            });
        }
    }
}

/// Tags lines that belong to `#[cfg(test)]` modules by tracking brace depth.
fn tag_test_regions(raw: Vec<(String, Vec<Allow>)>) -> Vec<Line> {
    let mut out = Vec::with_capacity(raw.len());
    let mut depth: i64 = 0;
    let mut pending_attr = false;
    let mut test_depth: Option<i64> = None;
    for (code, allows) in raw {
        let mut in_test = test_depth.is_some();
        if code.contains("#[cfg(test)]") {
            pending_attr = true;
        }
        for ch in code.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    if pending_attr && test_depth.is_none() {
                        test_depth = Some(depth);
                        pending_attr = false;
                        in_test = true;
                    }
                }
                '}' => {
                    depth -= 1;
                    if let Some(td) = test_depth {
                        if depth < td {
                            test_depth = None;
                        }
                    }
                }
                // `#[cfg(test)] use ...;` — attribute spent on a braceless
                // item.
                ';' if pending_attr && test_depth.is_none() && !code.contains("#[cfg(test)]") => {
                    pending_attr = false;
                }
                _ => {}
            }
        }
        out.push(Line {
            code,
            in_test,
            allows,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanks_comments_and_strings() {
        let s = scrub("let x = 1; // thread_rng in a comment\nlet y = \"thread_rng\";\n");
        assert!(!s.lines[0].code.contains("thread_rng"));
        assert!(s.lines[0].code.contains("let x = 1;"));
        assert!(!s.lines[1].code.contains("thread_rng"));
        assert!(s.lines[1].code.contains("let y = \""));
    }

    #[test]
    fn scrubbing_preserves_columns() {
        // The `b` after the block comment must stay at its original column;
        // ditto code following a string literal with escapes.
        let s = scrub("a /* xx */ b\nlet s = \"a\\nb\"; f32\n");
        assert_eq!(s.lines[0].code, "a          b");
        // `f32` sits at byte 16 of the original line; escapes inside the
        // literal were blanked 1:1 so it must still be there.
        assert_eq!(s.lines[1].code.find("f32"), Some(16));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let s = scrub("a /* one /* two */ still */ b\nc /* open\nunwrap()\n*/ d\n");
        assert_eq!(s.lines[0].code.trim_end(), "a                           b");
        assert!(!s.lines[2].code.contains("unwrap"));
        assert!(s.lines[3].code.contains('d'));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let s = scrub("let p = r#\"panic!(\"x\")\"#;\nlet q = r\"todo!()\";\n");
        assert!(!s.lines[0].code.contains("panic!"));
        assert!(!s.lines[1].code.contains("todo!"));
    }

    #[test]
    fn lifetimes_survive_char_literals_blanked() {
        let s = scrub("fn f<'a>(x: &'a str) -> char { 'y' }\n");
        assert!(s.lines[0].code.contains("<'a>"));
        assert!(!s.lines[0].code.contains('y'));
    }

    #[test]
    fn allow_directives_apply_to_own_and_next_line() {
        let s = scrub("// finrad-lint: allow(panic-freedom)\nx.unwrap();\ny.unwrap();\n");
        assert!(s.is_allowed("panic-freedom", 2));
        assert!(!s.is_allowed("panic-freedom", 3));
        assert!(!s.is_allowed("float-discipline", 2));
    }

    #[test]
    fn trailing_directives_cover_only_their_own_line() {
        // Regression: a directive in a trailing comment used to suppress
        // the next line too, silently widening every inline allow().
        let s = scrub("x.unwrap(); // finrad-lint: allow(panic-freedom)\ny.unwrap();\n");
        assert!(s.is_allowed("panic-freedom", 1));
        assert!(!s.is_allowed("panic-freedom", 2));
        assert!(!s.lines[0].allows[0].standalone);
        // A standalone directive still reaches the next line.
        let s = scrub("    // finrad-lint: allow(panic-freedom)\ny.unwrap();\n");
        assert!(s.lines[0].allows[0].standalone);
        assert!(s.is_allowed("panic-freedom", 2));
    }

    #[test]
    fn directive_columns_are_recorded() {
        let s = scrub("x(); // finrad-lint: allow(panic-freedom, float-discipline)\n");
        assert_eq!(s.lines[0].allows.len(), 2);
        // "x(); // " is 8 chars; the directive text starts right after.
        assert_eq!(s.lines[0].allows[0].col, 9);
        assert_eq!(s.lines[0].allows[1].col, 9);
    }

    #[test]
    fn cfg_test_modules_are_tagged() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn lib2() {}\n";
        let s = scrub(src);
        assert!(!s.lines[0].in_test);
        assert!(s.lines[3].in_test);
        assert!(!s.lines[5].in_test);
    }
}
