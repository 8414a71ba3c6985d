//! A hand-rolled Rust source scanner: comment/string stripping,
//! `#[cfg(test)]` region tracking and `fastreg-lint: allow(...)`
//! annotation resolution.
//!
//! The scanner is deliberately *not* a parser. Rules match identifier
//! tokens on the stripped source, so it only has to answer three
//! questions reliably:
//!
//! 1. Is this byte **code** (not a comment, not the inside of a string
//!    or char literal)? Tokens inside doc comments or error messages
//!    must never fire a rule.
//! 2. Is this line inside a `#[cfg(test)]`-gated block? The
//!    panic-hygiene rule exempts test modules.
//! 3. Which lines does an allow annotation cover?
//!
//! Stripping replaces every non-code byte with a space, so columns and
//! brace structure survive and the per-line `code` string can be
//! searched directly.

/// One source line, post-stripping.
#[derive(Clone, Debug)]
pub struct Line {
    /// 1-based line number.
    pub number: usize,
    /// The raw source line (used for snippets).
    pub raw: String,
    /// The line with comments and string/char-literal *contents* blanked
    /// to spaces — what rules search for tokens.
    pub code: String,
    /// True if the line is inside (or opens) a `#[cfg(test)]`-gated
    /// brace block.
    pub in_test: bool,
}

/// A fully scanned source file.
#[derive(Clone, Debug, Default)]
pub struct Scanned {
    /// Every line, in order.
    pub lines: Vec<Line>,
    /// Resolved allow annotations: `(target line, rule code, reason)`.
    allows: Vec<(usize, String, String)>,
}

impl Scanned {
    /// The reason given by a `fastreg-lint: allow(<rule>)` annotation
    /// covering `line`, if any.
    pub(crate) fn allow_reason(&self, line: usize, rule_code: &str) -> Option<&str> {
        self.allows
            .iter()
            .find(|(l, code, _)| *l == line && code == rule_code)
            .map(|(_, _, reason)| reason.as_str())
    }

    /// True if the whole stripped file contains `needle` as an
    /// identifier-bounded token (cross-file rules use this on other
    /// files).
    pub(crate) fn contains_token(&self, needle: &str) -> bool {
        self.lines.iter().any(|l| find_token(&l.code, needle))
    }
}

/// Scans `text` (the contents of one `.rs` file).
pub fn scan(text: &str) -> Scanned {
    let stripped = strip(text);
    let raw_lines: Vec<&str> = text.split('\n').collect();
    let code_lines: Vec<&str> = stripped.split('\n').collect();
    debug_assert_eq!(raw_lines.len(), code_lines.len());

    let in_test = mark_test_regions(&code_lines);
    let lines: Vec<Line> = raw_lines
        .iter()
        .zip(&code_lines)
        .enumerate()
        .map(|(i, (raw, code))| Line {
            number: i + 1,
            raw: (*raw).to_string(),
            code: (*code).to_string(),
            in_test: in_test[i],
        })
        .collect();
    let allows = resolve_allows(&lines);
    Scanned { lines, allows }
}

/// True if `code` contains `token` outside any identifier: the
/// characters adjacent to the match must not be `[A-Za-z0-9_]`.
pub(crate) fn find_token(code: &str, token: &str) -> bool {
    let bytes = code.as_bytes();
    let tok = token.as_bytes();
    let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    // Boundary checks only matter on the sides where the token itself
    // is an identifier character: `.unwrap()` is anchored by its own
    // punctuation.
    let check_left = tok.first().is_some_and(|&b| ident(b));
    let check_right = tok.last().is_some_and(|&b| ident(b));
    let mut from = 0;
    while let Some(pos) = code[from..].find(token) {
        let start = from + pos;
        let end = start + token.len();
        let left_ok = !check_left || start == 0 || !ident(bytes[start - 1]);
        let right_ok = !check_right || end >= bytes.len() || !ident(bytes[end]);
        if left_ok && right_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

/// Blanks comments and string/char-literal contents to spaces,
/// preserving line structure and byte positions.
fn strip(text: &str) -> String {
    #[derive(PartialEq)]
    enum State {
        Normal,
        Block(u32),
        Str,
        RawStr(u32),
    }
    let b = text.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut st = State::Normal;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        match st {
            State::Normal => {
                if c == b'/' && b.get(i + 1) == Some(&b'/') {
                    // Line comment: blank to end of line.
                    while i < b.len() && b[i] != b'\n' {
                        out.push(b' ');
                        i += 1;
                    }
                    continue;
                }
                if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    st = State::Block(1);
                    out.extend_from_slice(b"  ");
                    i += 2;
                    continue;
                }
                if c == b'"' {
                    st = State::Str;
                    out.push(b' ');
                    i += 1;
                    continue;
                }
                // Raw strings: r"...", r#"..."#, br"..." (the plain b"..."
                // prefix falls through to the '"' arm above).
                if (c == b'r' || c == b'b') && !prev_is_ident(b, i) {
                    let mut j = i;
                    if c == b'b' && b.get(j + 1) == Some(&b'r') {
                        j += 1;
                    }
                    if b.get(j) == Some(&b'r') || c == b'r' {
                        let mut k = if c == b'b' { j + 1 } else { i + 1 };
                        let mut hashes = 0u32;
                        while b.get(k) == Some(&b'#') {
                            hashes += 1;
                            k += 1;
                        }
                        if b.get(k) == Some(&b'"') {
                            st = State::RawStr(hashes);
                            out.resize(out.len() + (k - i + 1), b' ');
                            i = k + 1;
                            continue;
                        }
                    }
                }
                // Char literal vs lifetime: 'x' / '\n' are literals, 'a
                // (no closing quote right after) is a lifetime.
                if c == b'\'' {
                    if b.get(i + 1) == Some(&b'\\') {
                        // Escaped char literal: blank through closing quote.
                        out.push(b' ');
                        i += 1;
                        while i < b.len() && b[i] != b'\'' {
                            out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                            i += 1;
                        }
                        if i < b.len() {
                            out.push(b' ');
                            i += 1;
                        }
                        continue;
                    }
                    if i + 2 < b.len() && b[i + 2] == b'\'' && b[i + 1] != b'\'' {
                        out.extend_from_slice(b"   ");
                        i += 3;
                        continue;
                    }
                }
                out.push(c);
                i += 1;
            }
            State::Block(depth) => {
                if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    st = State::Block(depth + 1);
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if c == b'*' && b.get(i + 1) == Some(&b'/') {
                    st = if depth == 1 {
                        State::Normal
                    } else {
                        State::Block(depth - 1)
                    };
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else {
                    out.push(if c == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            State::Str => {
                if c == b'\\' && i + 1 < b.len() {
                    // Preserve a line-continuation newline so line
                    // numbers stay aligned with the raw source.
                    out.push(b' ');
                    out.push(if b[i + 1] == b'\n' { b'\n' } else { b' ' });
                    i += 2;
                } else if c == b'"' {
                    st = State::Normal;
                    out.push(b' ');
                    i += 1;
                } else {
                    out.push(if c == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == b'"' {
                    let mut k = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && b.get(k) == Some(&b'#') {
                        seen += 1;
                        k += 1;
                    }
                    if seen == hashes {
                        st = State::Normal;
                        out.resize(out.len() + (k - i), b' ');
                        i = k;
                        continue;
                    }
                }
                out.push(if c == b'\n' { b'\n' } else { b' ' });
                i += 1;
            }
        }
    }
    // `strip` only ever writes ASCII spaces over non-ASCII bytes, which
    // keeps the byte length but may split UTF-8 sequences inside
    // comments/strings — they were blanked wholesale above, so the
    // remaining bytes are valid UTF-8.
    String::from_utf8_lossy(&out).into_owned()
}

fn prev_is_ident(b: &[u8], i: usize) -> bool {
    i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_')
}

/// Marks every line inside a `#[cfg(test)]`-gated brace block (the
/// attribute line and the opening-brace line included). A gated item
/// with no body, such as `mod x;` or `use y;`, marks only its own lines.
fn mark_test_regions(code_lines: &[&str]) -> Vec<bool> {
    let mut marks = vec![false; code_lines.len()];
    let mut depth: i64 = 0;
    let mut pending = false; // saw #[cfg(test)], waiting for its `{` or `;`
    let mut nesting = 0; // `(` / `[` open since the attribute
    let mut region_floor: Option<i64> = None;
    for (i, line) in code_lines.iter().enumerate() {
        let compact: String = line.chars().filter(|c| !c.is_whitespace()).collect();
        if compact.contains("#[cfg(test)]") {
            pending = true;
            nesting = 0;
        }
        let starts_inside = region_floor.is_some() || pending;
        for ch in line.chars() {
            match ch {
                '(' | '[' => nesting += 1,
                ')' | ']' => nesting -= 1,
                ';' if pending && nesting == 0 => pending = false,
                '{' => {
                    if pending {
                        region_floor = Some(depth);
                        pending = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if let Some(floor) = region_floor {
                        if depth <= floor {
                            region_floor = None;
                        }
                    }
                }
                _ => {}
            }
        }
        marks[i] = starts_inside || region_floor.is_some();
    }
    marks
}

/// Finds `fastreg-lint: allow(<rule>): <reason>` annotations and
/// resolves the line each one covers: its own line when it trails code,
/// otherwise the next line that carries code and is not merely an
/// attribute (so an annotation may sit above `#[allow(...)]` lines).
fn resolve_allows(lines: &[Line]) -> Vec<(usize, String, String)> {
    const MARKER: &str = "fastreg-lint:";
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let Some(pos) = line.raw.find(MARKER) else {
            continue;
        };
        let rest = line.raw[pos + MARKER.len()..].trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule_code = rest[..close].trim().to_string();
        let reason = rest[close + 1..].trim_start_matches(':').trim().to_string();
        if rule_code.is_empty() || reason.is_empty() {
            continue; // a justification is mandatory; bare allows do not count
        }
        let target = if !line.code.trim().is_empty() {
            line.number
        } else {
            match lines[i + 1..]
                .iter()
                .find(|l| {
                    let c = l.code.trim();
                    !c.is_empty() && !c.starts_with("#[") && !c.starts_with("#![")
                })
                .map(|l| l.number)
            {
                Some(n) => n,
                None => continue, // annotation at EOF covers nothing
            }
        };
        out.push((target, rule_code, reason));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_and_block_comments() {
        let s = scan("let a = 1; // HashMap here\n/* HashMap\n spans */ let b;\n");
        assert!(!s.lines[0].code.contains("HashMap"));
        assert!(!s.lines[1].code.contains("HashMap"));
        assert!(s.lines[2].code.contains("let b"));
    }

    #[test]
    fn strips_string_and_char_contents() {
        let s = scan("let m = \"HashMap::new()\";\nlet c = 'H'; let l: &'a str = x;\n");
        assert!(!s.lines[0].code.contains("HashMap"));
        assert!(s.lines[1].code.contains("let l"));
    }

    #[test]
    fn strips_raw_strings_with_hashes() {
        let s = scan("let m = r#\"Instant::now\"#;\nInstant::now();\n");
        assert!(!s.lines[0].code.contains("Instant"));
        assert!(s.lines[1].code.contains("Instant::now"));
    }

    #[test]
    fn marks_cfg_test_blocks() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn more() {}\n";
        let s = scan(src);
        let marks: Vec<bool> = s.lines.iter().map(|l| l.in_test).collect();
        // The trailing newline yields a final empty line.
        assert_eq!(marks, vec![false, true, true, true, true, false, false]);
    }

    #[test]
    fn a_gated_item_without_a_body_marks_only_itself() {
        let src = "#[cfg(test)]\nmod helpers;\npub enum Kept {\n    A,\n}\n#[cfg(test)]\nfn t(x: [u8; 2]) {\n}\n";
        let marks: Vec<bool> = scan(src).lines.iter().map(|l| l.in_test).collect();
        assert_eq!(
            marks,
            vec![true, true, false, false, false, true, true, true, false]
        );
    }

    #[test]
    fn token_boundaries_are_respected() {
        assert!(find_token("use std::collections::HashMap;", "HashMap"));
        assert!(!find_token("struct MyHashMap;", "HashMap"));
        assert!(!find_token("Instant::nowhere()", "Instant::now"));
        assert!(find_token("let t = Instant::now();", "Instant::now"));
        assert!(find_token("x.unwrap();", ".unwrap()"));
        assert!(!find_token("x.try_settle()", ".settle()"));
    }

    #[test]
    fn trailing_annotation_covers_its_own_line() {
        let s = scan("use x::HashMap; // fastreg-lint: allow(nondet-order): keyed lookup\n");
        assert_eq!(s.allow_reason(1, "nondet-order"), Some("keyed lookup"));
        assert_eq!(s.allow_reason(1, "wall-clock"), None);
    }

    #[test]
    fn standalone_annotation_skips_attribute_lines() {
        let src = "\
// fastreg-lint: allow(nondet-order): parked table
#[allow(clippy::disallowed_types)]
parked: HashMap<Link, Vec<Entry>>,
";
        let s = scan(src);
        assert_eq!(s.allow_reason(3, "nondet-order"), Some("parked table"));
        assert_eq!(s.allow_reason(2, "nondet-order"), None);
    }

    #[test]
    fn annotation_without_reason_is_ignored() {
        let s = scan("use x::HashMap; // fastreg-lint: allow(nondet-order):\n");
        assert_eq!(s.allow_reason(1, "nondet-order"), None);
    }
}
