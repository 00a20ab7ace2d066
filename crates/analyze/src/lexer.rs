//! A minimal Rust lexer — just enough fidelity for contract checking.
//!
//! The point of lexing (instead of grepping) is that comments, strings,
//! raw strings, byte strings, and char literals are classified correctly,
//! so a rule looking for `SeqCst` or `nws_model` never fires on a doc
//! example inside `//!` or on a name inside an error message. Comments are
//! kept as tokens (the unsafe-audit rule reads them); rules that only care
//! about code skip them.

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword (`unsafe`, `fn`, `SeqCst`, ...).
    Ident,
    /// Single punctuation character (`:` appears twice for `::`).
    Punct,
    /// String / raw string / byte string / char / numeric literal.
    Literal,
    /// Line or block comment, text preserved (incl. the `//` / `/*`).
    Comment,
    /// A lifetime such as `'scope` (kept distinct so it is never confused
    /// with a char literal).
    Lifetime,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: Kind,
    pub text: String,
    pub line: usize,
}

impl Tok {
    pub fn is(&self, kind: Kind, text: &str) -> bool {
        self.kind == kind && self.text == text
    }
}

/// Lexes `src` into tokens. Unterminated constructs (possible only on
/// malformed input) consume to end-of-file rather than erroring: the
/// analyzer's job is to scan a tree that `rustc` already accepts.
pub fn lex(src: &str) -> Vec<Tok> {
    let b: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < b.len() {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if matches!(b.get(i + 1), Some('/')) => {
                let start = i;
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
                toks.push(Tok { kind: Kind::Comment, text: b[start..i].iter().collect(), line });
            }
            '/' if matches!(b.get(i + 1), Some('*')) => {
                let start = i;
                let start_line = line;
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '\n' {
                        line += 1;
                    }
                    if b[i] == '/' && matches!(b.get(i + 1), Some('*')) {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && matches!(b.get(i + 1), Some('/')) {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                toks.push(Tok {
                    kind: Kind::Comment,
                    text: b[start..i.min(b.len())].iter().collect(),
                    line: start_line,
                });
            }
            '"' => {
                let start_line = line;
                i = skip_escaped_string(&b, i + 1, &mut line);
                toks.push(Tok { kind: Kind::Literal, text: String::new(), line: start_line });
            }
            'r' | 'b' if starts_raw_or_byte_string(&b, i) => {
                let start_line = line;
                // Skip the prefix letters (`r`, `b`, `br`, `rb`).
                while i < b.len() && (b[i] == 'r' || b[i] == 'b') {
                    i += 1;
                }
                let mut hashes = 0;
                while matches!(b.get(i), Some('#')) {
                    hashes += 1;
                    i += 1;
                }
                if matches!(b.get(i), Some('"')) {
                    i += 1;
                    if hashes == 0 && raw_prefix_is_plain_byte(&b, i) {
                        // `b"..."`: escapes are live.
                        i = skip_escaped_string(&b, i, &mut line);
                    } else {
                        // Raw string: ends at `"` followed by `hashes` hashes;
                        // no escapes.
                        'scan: while i < b.len() {
                            if b[i] == '\n' {
                                line += 1;
                            }
                            if b[i] == '"' {
                                let mut j = i + 1;
                                let mut seen = 0;
                                while seen < hashes && matches!(b.get(j), Some('#')) {
                                    seen += 1;
                                    j += 1;
                                }
                                if seen == hashes {
                                    i = j;
                                    break 'scan;
                                }
                            }
                            i += 1;
                        }
                    }
                    toks.push(Tok { kind: Kind::Literal, text: String::new(), line: start_line });
                } else {
                    // `r` / `b` that did not start a literal after all:
                    // back up and lex as an identifier.
                    let start = i - hashes;
                    let mut j = start;
                    while j > 0 && (b[j - 1] == 'r' || b[j - 1] == 'b') {
                        j -= 1;
                    }
                    i = j;
                    let (tok, ni) = lex_ident(&b, i, line);
                    toks.push(tok);
                    i = ni;
                }
            }
            '\'' => {
                // Lifetime vs char literal. `'ident` not followed by a
                // closing quote is a lifetime; otherwise a char literal.
                let start_line = line;
                if is_lifetime(&b, i) {
                    let start = i;
                    i += 1;
                    while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                        i += 1;
                    }
                    toks.push(Tok {
                        kind: Kind::Lifetime,
                        text: b[start..i].iter().collect(),
                        line: start_line,
                    });
                } else {
                    i += 1;
                    while i < b.len() {
                        match b[i] {
                            '\\' => i += 2,
                            '\'' => {
                                i += 1;
                                break;
                            }
                            _ => i += 1,
                        }
                    }
                    toks.push(Tok { kind: Kind::Literal, text: String::new(), line: start_line });
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let (tok, ni) = lex_ident(&b, i, line);
                toks.push(tok);
                i = ni;
            }
            c if c.is_ascii_digit() => {
                let start_line = line;
                // Numbers (incl. underscores, hex, suffixes); precise
                // boundaries do not matter, only that we consume them as a
                // literal and never as an identifier.
                while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_' || b[i] == '.') {
                    // Do not swallow `..` range punctuation or a method call
                    // on a literal.
                    if b[i] == '.' && !matches!(b.get(i + 1), Some(d) if d.is_ascii_digit()) {
                        break;
                    }
                    i += 1;
                }
                toks.push(Tok { kind: Kind::Literal, text: String::new(), line: start_line });
            }
            _ => {
                toks.push(Tok { kind: Kind::Punct, text: c.to_string(), line });
                i += 1;
            }
        }
    }
    toks
}

/// Skips the body of a `"…"` or `b"…"` literal from `i`, just past its
/// opening quote, and returns the index past its closing quote. Every
/// newline in the body counts toward `line`, the one an escape (a `\` at
/// the end of a line) skips included.
fn skip_escaped_string(b: &[char], mut i: usize, line: &mut usize) -> usize {
    while i < b.len() {
        match b[i] {
            '\\' => {
                if b.get(i + 1) == Some(&'\n') {
                    *line += 1;
                }
                i += 2;
            }
            '\n' => {
                *line += 1;
                i += 1;
            }
            '"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

fn lex_ident(b: &[char], mut i: usize, line: usize) -> (Tok, usize) {
    let start = i;
    while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
        i += 1;
    }
    (Tok { kind: Kind::Ident, text: b[start..i].iter().collect(), line }, i)
}

/// Does position `i` (at an `r` or `b`) start a raw/byte string literal?
fn starts_raw_or_byte_string(b: &[char], i: usize) -> bool {
    let mut j = i;
    let mut prefix = String::new();
    while j < b.len() && (b[j] == 'r' || b[j] == 'b') && prefix.len() < 2 {
        prefix.push(b[j]);
        j += 1;
    }
    if !matches!(prefix.as_str(), "r" | "b" | "br" | "rb") {
        return false;
    }
    let mut hashes = 0;
    while matches!(b.get(j), Some('#')) {
        hashes += 1;
        j += 1;
    }
    // `b#` is not a literal; hashes require the raw (`r`) flavor.
    if hashes > 0 && !prefix.contains('r') {
        return false;
    }
    matches!(b.get(j), Some('"'))
}

/// At `i` (just past the opening quote of a 0-hash literal): was the prefix
/// the plain byte-string `b` (escapes live) rather than raw `r`?
fn raw_prefix_is_plain_byte(b: &[char], i: usize) -> bool {
    // The quote is at i - 1; the prefix letter immediately before it.
    i >= 2 && b[i - 2] == 'b' && (i < 3 || b[i - 3] != 'r' && b[i - 3] != 'b')
}

/// `'x` starts a lifetime iff it is not a char literal: a char literal is
/// `'` + (escape | single char) + `'`.
fn is_lifetime(b: &[char], i: usize) -> bool {
    match b.get(i + 1) {
        Some('\\') => false,
        Some(c) if c.is_alphabetic() || *c == '_' => {
            // `'a'` is a char; `'a` followed by anything else is a lifetime.
            !matches!(b.get(i + 2), Some('\''))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).into_iter().filter(|t| t.kind == Kind::Ident).map(|t| t.text).collect()
    }

    #[test]
    fn comments_and_strings_hide_identifiers() {
        let src = r###"
// std::sync::atomic in a comment
/* block std::sync::Mutex */
let x = "std::sync::atomic::AtomicUsize";
let y = r#"parking_lot::Mutex"#;
let z = 'a';
"###;
        let ids = idents(src);
        assert!(!ids.iter().any(|s| s == "atomic" || s == "parking_lot" || s == "Mutex"));
        assert_eq!(ids, vec!["let", "x", "let", "y", "let", "z"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'scope>(x: &'scope str) { let c = 'x'; }");
        assert!(toks.iter().any(|t| t.kind == Kind::Lifetime && t.text == "'scope"));
        // The char literal must not have swallowed the closing brace.
        assert!(toks.iter().any(|t| t.is(Kind::Punct, "}")));
    }

    #[test]
    fn raw_string_with_hashes_and_quotes() {
        let toks = lex(r####"let s = r##"a "quoted" unsafe { }"## ; end"####);
        let ids: Vec<_> =
            toks.iter().filter(|t| t.kind == Kind::Ident).map(|t| t.text.as_str()).collect();
        assert_eq!(ids, vec!["let", "s", "end"]);
    }

    #[test]
    fn nested_block_comments() {
        let ids = idents("/* outer /* inner unsafe */ still comment */ fn f() {}");
        assert_eq!(ids, vec!["fn", "f"]);
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let src = "a\n\"two\nline\"\nb";
        let toks = lex(src);
        let b = toks.iter().find(|t| t.is(Kind::Ident, "b")).unwrap();
        assert_eq!(b.line, 4);
    }

    #[test]
    fn an_escaped_newline_counts_as_a_line() {
        let src = "let s = \"one \\\n two\";\nlet t = b\"three \\\n four\";\nafter";
        let toks = lex(src);
        let t = toks.iter().find(|t| t.is(Kind::Ident, "t")).unwrap();
        assert_eq!(t.line, 3);
        let after = toks.iter().find(|t| t.is(Kind::Ident, "after")).unwrap();
        assert_eq!(after.line, 5);
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let ids = idents(r##"let a = b"bytes \" more"; let c = br#"raw "bytes""#; tail"##);
        assert_eq!(ids, vec!["let", "a", "let", "c", "tail"]);
    }

    #[test]
    fn identifier_starting_with_r_or_b_is_not_a_string() {
        let ids = idents("let result = bytes + r + b;");
        assert_eq!(ids, vec!["let", "result", "bytes", "r", "b"]);
    }
}
