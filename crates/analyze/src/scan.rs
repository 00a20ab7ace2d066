//! A lightweight item/attribute scanner over the token stream.
//!
//! Recovers exactly the structure the rules need — no more:
//!
//! - **function spans**: name + token range of the body, so the SeqCst
//!   budget can key sites by enclosing function and the hot-path rule can
//!   scan a registered function's body;
//! - **test spans**: token ranges of items gated by `#[cfg(test)]` /
//!   `#[test]` (composed cfgs like `#[cfg(all(test, ...))]` count;
//!   `#[cfg(not(test))]` and `#[cfg_attr(not(test), ...)]` do not), so
//!   rules scoped to production code can skip test modules;
//! - **use spans**: token ranges of `use` declarations, so the SeqCst
//!   budget does not count an import as a site.

use crate::lexer::{Kind, Tok};

/// A `fn` item with a resolved body.
#[derive(Debug)]
pub struct FnSpan {
    pub name: String,
    pub line: usize,
    /// Token index range of the body, inclusive of both braces.
    pub body: (usize, usize),
}

/// Structural facts about one lexed file.
#[derive(Debug, Default)]
pub struct FileMap {
    pub fns: Vec<FnSpan>,
    /// Token ranges (inclusive) of items gated to test builds.
    pub test_spans: Vec<(usize, usize)>,
    /// Token ranges (inclusive) of `use` declarations.
    pub use_spans: Vec<(usize, usize)>,
}

impl FileMap {
    /// The innermost named function whose body contains token `idx`.
    pub fn enclosing_fn(&self, idx: usize) -> Option<&str> {
        self.fns
            .iter()
            .filter(|f| f.body.0 <= idx && idx <= f.body.1)
            .min_by_key(|f| f.body.1 - f.body.0)
            .map(|f| f.name.as_str())
    }

    /// Is token `idx` inside a test-gated item?
    pub fn in_test(&self, idx: usize) -> bool {
        self.test_spans.iter().any(|&(a, b)| a <= idx && idx <= b)
    }

    /// Is token `idx` inside a `use` declaration?
    pub fn in_use(&self, idx: usize) -> bool {
        self.use_spans.iter().any(|&(a, b)| a <= idx && idx <= b)
    }
}

/// Index of the next non-comment token at or after `i`.
pub(crate) fn next_code(toks: &[Tok], mut i: usize) -> Option<usize> {
    while i < toks.len() {
        if toks[i].kind != Kind::Comment {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Finds the matching close for the opener at `open` (`{`/`[`/`(`).
/// Comments and literals are already out of the way, so plain depth
/// counting is exact. Returns the index of the closer (or the last token
/// on malformed input).
fn match_bracket(toks: &[Tok], open: usize) -> usize {
    let (o, c) = match toks[open].text.as_str() {
        "{" => ("{", "}"),
        "[" => ("[", "]"),
        "(" => ("(", ")"),
        _ => return open,
    };
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].kind == Kind::Punct {
            if toks[i].text == o {
                depth += 1;
            } else if toks[i].text == c {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
        i += 1;
    }
    toks.len() - 1
}

/// Does an attribute token slice (the tokens between `#[` and its `]`)
/// gate the following item to test builds?
fn attr_is_test_gate(attr: &[Tok]) -> bool {
    let has = |s: &str| attr.iter().any(|t| t.kind == Kind::Ident && t.text == s);
    // `#[test]` (exactly), or a `cfg(...)` mentioning `test` without a
    // `not(...)` — good enough for `cfg(test)` / `cfg(all(test, ...))`
    // while rejecting `cfg(not(test))` and `cfg_attr(not(test), ...)`.
    let bare_test = attr.len() == 1 && has("test");
    bare_test || (has("cfg") && has("test") && !has("not"))
}

/// One pass over the token stream.
pub fn scan(toks: &[Tok]) -> FileMap {
    let mut map = FileMap::default();
    let mut i = 0;
    // Attributes seen since the last item boundary, waiting for their item.
    let mut pending_test_gate = false;
    while i < toks.len() {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (Kind::Punct, "#") => {
                // `#[...]` / `#![...]`: collect, note cfg(test) gating.
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.is(Kind::Punct, "!")) {
                    j += 1; // inner attribute `#![...]`: applies to the
                            // enclosing module; treated as no gate here.
                    if toks.get(j).is_some_and(|t| t.is(Kind::Punct, "[")) {
                        i = match_bracket(toks, j) + 1;
                        continue;
                    }
                }
                if toks.get(j).is_some_and(|t| t.is(Kind::Punct, "[")) {
                    let close = match_bracket(toks, j);
                    if attr_is_test_gate(&toks[j + 1..close]) {
                        pending_test_gate = true;
                    }
                    i = close + 1;
                    continue;
                }
                i += 1;
            }
            (Kind::Ident, "use") => {
                let start = i;
                while i < toks.len() && !toks[i].is(Kind::Punct, ";") {
                    i += 1;
                }
                map.use_spans.push((start, i.min(toks.len() - 1)));
                pending_test_gate = false;
                i += 1;
            }
            (Kind::Ident, "fn") => {
                // `fn name ... ;` (decl) or `fn name ... { body }`.
                // A `fn` not followed by an identifier is a fn-pointer /
                // trait-object type, not an item.
                let Some(name_idx) = next_code(toks, i + 1) else { break };
                if toks[name_idx].kind != Kind::Ident {
                    i += 1;
                    continue;
                }
                let name = toks[name_idx].text.clone();
                let line = toks[name_idx].line;
                // Find the body `{` or the declaration-ending `;`,
                // skipping nested bracket groups (params, generics with
                // defaults, where clauses).
                let mut j = name_idx + 1;
                let mut body = None;
                while j < toks.len() {
                    match (toks[j].kind, toks[j].text.as_str()) {
                        (Kind::Punct, "(") | (Kind::Punct, "[") => j = match_bracket(toks, j) + 1,
                        (Kind::Punct, "{") => {
                            body = Some((j, match_bracket(toks, j)));
                            break;
                        }
                        (Kind::Punct, ";") => break,
                        _ => j += 1,
                    }
                }
                if let Some(body) = body {
                    if pending_test_gate {
                        map.test_spans.push((i, body.1));
                    }
                    map.fns.push(FnSpan { name, line, body });
                    // Do NOT jump over the body: nested fns and closures
                    // inside it must still be scanned. Just move past the
                    // name so we don't re-match this `fn`.
                    i = name_idx + 1;
                } else {
                    i = j + 1;
                }
                pending_test_gate = false;
            }
            (
                Kind::Ident,
                "mod" | "impl" | "trait" | "struct" | "enum" | "union" | "static" | "const"
                | "type" | "macro_rules",
            ) => {
                if pending_test_gate {
                    // Span of the whole item: to its first top-level `{...}`
                    // group (mod/impl/...) or terminating `;`.
                    let start = i;
                    let mut j = i + 1;
                    let mut end = toks.len() - 1;
                    while j < toks.len() {
                        match (toks[j].kind, toks[j].text.as_str()) {
                            (Kind::Punct, "(") | (Kind::Punct, "[") => {
                                j = match_bracket(toks, j) + 1
                            }
                            (Kind::Punct, "{") => {
                                end = match_bracket(toks, j);
                                break;
                            }
                            (Kind::Punct, ";") => {
                                end = j;
                                break;
                            }
                            _ => j += 1,
                        }
                    }
                    map.test_spans.push((start, end));
                    pending_test_gate = false;
                    // Fall into the item body normally (fns inside a test
                    // mod still get spans; they are inside the test span).
                }
                i += 1;
            }
            // Anything else (visibility like `pub(crate)`, `unsafe`,
            // `async`, `extern`, comments) leaves a pending cfg(test) gate
            // pending: attributes always sit immediately before their item,
            // and the item arms above are what consume the gate.
            _ => i += 1,
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn fn_spans_and_enclosing() {
        let toks = lex("fn outer() { fn inner() { x(); } y(); }");
        let map = scan(&toks);
        assert_eq!(map.fns.len(), 2);
        let x_idx = toks.iter().position(|t| t.is(Kind::Ident, "x")).unwrap();
        assert_eq!(map.enclosing_fn(x_idx), Some("inner"));
        let y_idx = toks.iter().position(|t| t.is(Kind::Ident, "y")).unwrap();
        assert_eq!(map.enclosing_fn(y_idx), Some("outer"));
    }

    #[test]
    fn cfg_test_mod_is_a_test_span() {
        let src = "fn prod() {} #[cfg(test)] mod tests { fn t() { site(); } }";
        let toks = lex(src);
        let map = scan(&toks);
        let site = toks.iter().position(|t| t.is(Kind::Ident, "site")).unwrap();
        assert!(map.in_test(site));
        let prod = toks.iter().position(|t| t.is(Kind::Ident, "prod")).unwrap();
        assert!(!map.in_test(prod));
    }

    #[test]
    fn cfg_all_test_counts_not_test_does_not() {
        let src = "#[cfg(all(test, other))] mod a { x(); } #[cfg(not(test))] mod b { y(); }";
        let toks = lex(src);
        let map = scan(&toks);
        let x = toks.iter().position(|t| t.is(Kind::Ident, "x")).unwrap();
        let y = toks.iter().position(|t| t.is(Kind::Ident, "y")).unwrap();
        assert!(map.in_test(x));
        assert!(!map.in_test(y));
    }

    #[test]
    fn test_attr_fn_is_a_test_span() {
        let src = "#[test] fn check() { site(); } fn prod() { other(); }";
        let toks = lex(src);
        let map = scan(&toks);
        let site = toks.iter().position(|t| t.is(Kind::Ident, "site")).unwrap();
        assert!(map.in_test(site));
        let other = toks.iter().position(|t| t.is(Kind::Ident, "other")).unwrap();
        assert!(!map.in_test(other));
    }

    #[test]
    fn use_spans_cover_declarations() {
        let toks = lex("use a::b::{c, d}; fn f() { a::b::c(); }");
        let map = scan(&toks);
        let first_a = toks.iter().position(|t| t.is(Kind::Ident, "a")).unwrap();
        assert!(map.in_use(first_a));
        let call_a = toks.iter().rposition(|t| t.is(Kind::Ident, "a")).unwrap();
        assert!(!map.in_use(call_a));
    }

    #[test]
    fn fn_pointer_type_is_not_an_item() {
        let toks = lex("struct S { f: unsafe fn(*const ()), } fn real() {}");
        let map = scan(&toks);
        assert_eq!(map.fns.len(), 1);
        assert_eq!(map.fns[0].name, "real");
    }

    #[test]
    fn where_clause_and_generics_do_not_confuse_body() {
        let src = "fn f<T: Into<[u8; 4]>>(x: T) -> Vec<u8> where T: Send { body(); }";
        let toks = lex(src);
        let map = scan(&toks);
        let body = toks.iter().position(|t| t.is(Kind::Ident, "body")).unwrap();
        assert_eq!(map.enclosing_fn(body), Some("f"));
    }

    #[test]
    fn pub_and_unsafe_keep_the_gate_pending() {
        let src = "#[cfg(test)] pub unsafe fn t() { site(); }";
        let toks = lex(src);
        let map = scan(&toks);
        let site = toks.iter().position(|t| t.is(Kind::Ident, "site")).unwrap();
        assert!(map.in_test(site));
    }
}
