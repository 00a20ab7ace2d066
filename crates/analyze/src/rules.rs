//! The four per-file code rules; the fifth, design citations, is in
//! `cite.rs`.
//!
//! Each rule takes the lexed tokens and, where it needs them, the
//! structural [`FileMap`] or the file's raw lines. Cross-file baseline
//! comparison (SeqCst budget, hot-path manifest) happens in `lib.rs` after
//! all files are scanned; the per-file passes here report sites.

use crate::lexer::{Kind, Tok};
use crate::scan::{next_code, FileMap};
use crate::Diag;

/// **cfg-confinement**: the `nws_model` / `nws_fault` cfg names must not
/// appear as code tokens outside `crates/sync`. Gating on the raw cfg
/// elsewhere silently forks default and checked/chaos builds; other crates
/// opt in through the `nws_sync::model_only!` / `not_model!` macros (whose
/// call sites never spell the cfg name). Comments and strings are free to
/// mention the names — the lexer already filed those away.
pub fn cfg_confinement(rel: &str, toks: &[Tok], diags: &mut Vec<Diag>) {
    for t in toks {
        if t.kind == Kind::Ident && (t.text == "nws_model" || t.text == "nws_fault") {
            diags.push(Diag::violation(
                rel,
                t.line,
                "cfg-confinement",
                format!(
                    "cfg name `{}` outside crates/sync; gate through \
                     `nws_sync::model_only!`/`not_model!` or `nws_sync::fault` instead \
                     (DESIGN.md \u{a7}10)",
                    t.text
                ),
            ));
        }
    }
}

/// **unsafe-audit**: every `unsafe` block / fn / impl / trait must carry
/// a `// SAFETY:` comment on the line(s) immediately above (attribute
/// lines in between are skipped); an `unsafe fn` may alternatively
/// document its contract with a `# Safety` doc section. There is no
/// exception list.
pub fn unsafe_audit(rel: &str, toks: &[Tok], lines: &[&str], diags: &mut Vec<Diag>) {
    for (i, t) in toks.iter().enumerate() {
        if !(t.kind == Kind::Ident && t.text == "unsafe") {
            continue;
        }
        let Some(n) = next_code(toks, i + 1) else { continue };
        let what = match toks[n].text.as_str() {
            "fn" => {
                // `unsafe fn(...)` with no name is a fn-pointer type, not
                // an item.
                match next_code(toks, n + 1) {
                    Some(m) if toks[m].kind == Kind::Ident => "unsafe fn",
                    _ => continue,
                }
            }
            "impl" => "unsafe impl",
            "trait" => "unsafe trait",
            "{" => "unsafe block",
            "extern" => "unsafe extern block",
            _ => continue,
        };
        if !documented(lines, t.line, what == "unsafe fn") {
            diags.push(Diag::violation(
                rel,
                t.line,
                "unsafe-audit",
                format!("{what} without a `// SAFETY:` comment immediately above"),
            ));
        }
    }
}

/// Is there a `SAFETY:` comment (or, for fns, a `# Safety` doc section)
/// in the contiguous comment block immediately above line `line`
/// (1-based), skipping attribute lines?
fn documented(lines: &[&str], line: usize, is_fn: bool) -> bool {
    let mut l = line.saturating_sub(1); // index of the line above, 1-based
    loop {
        if l == 0 {
            return false;
        }
        let text = lines[l - 1].trim_start();
        if text.starts_with("#[") || text.starts_with("#![") {
            l -= 1;
            continue;
        }
        break;
    }
    let mut found = false;
    while l >= 1 {
        let text = lines[l - 1].trim_start();
        if !text.starts_with("//") {
            break;
        }
        if text.contains("SAFETY:") || (is_fn && text.contains("# Safety")) {
            found = true;
        }
        l -= 1;
    }
    found
}

/// A SeqCst site in production (non-test) code.
#[derive(Debug)]
pub struct SeqCstSite {
    pub line: usize,
    /// Enclosing fn, or `-` at module scope.
    pub func: String,
}

/// **seqcst-budget** per-file pass: collect every `SeqCst` identifier
/// outside test code and use declarations. `lib.rs` compares the
/// aggregated (file, fn) counts against `seqcst.allow`.
pub fn seqcst_sites(toks: &[Tok], map: &FileMap) -> Vec<SeqCstSite> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind == Kind::Ident && t.text == "SeqCst" && !map.in_test(i) && !map.in_use(i) {
            out.push(SeqCstSite {
                line: t.line,
                func: map.enclosing_fn(i).unwrap_or("-").to_string(),
            });
        }
    }
    out
}

/// Allocating constructs the **hot-path-alloc** rule bans inside
/// registered functions. Path pairs are resolvable without type
/// information; method names are matched syntactically (`.to_string()`),
/// which is why plain `.push(...)` is NOT here — a deque push and a Vec
/// push are indistinguishable without types, and a hot function can only
/// reach a Vec it allocated (banned at the construction site) or was
/// handed (visible in review). `Vec::push` written as a qualified call is
/// still caught.
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Box", "new"),
    ("Box", "leak"),
    ("Rc", "new"),
    ("Arc", "new"),
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("Vec", "push"),
    ("VecDeque", "new"),
    ("VecDeque", "with_capacity"),
    ("String", "from"),
    ("String", "with_capacity"),
    ("CString", "new"),
];
const ALLOC_MACROS: &[&str] = &["vec", "format"];
const ALLOC_METHODS: &[&str] =
    &["to_string", "to_owned", "to_vec", "into_boxed_slice", "collect", "reserve", "with_capacity"];

/// Scans one registered hot function's body for allocating constructs.
pub fn hotpath_scan(
    rel: &str,
    func: &str,
    toks: &[Tok],
    body: (usize, usize),
    diags: &mut Vec<Diag>,
) {
    let mut i = body.0;
    while i <= body.1 {
        let t = &toks[i];
        if t.kind == Kind::Ident {
            // `A::B` path pairs.
            if let Some(c1) = next_code(toks, i + 1) {
                if toks[c1].is(Kind::Punct, ":") {
                    if let Some(c2) = next_code(toks, c1 + 1) {
                        if toks[c2].is(Kind::Punct, ":") {
                            if let Some(c3) = next_code(toks, c2 + 1) {
                                let pair = (t.text.as_str(), toks[c3].text.as_str());
                                if ALLOC_PATHS.contains(&pair) {
                                    diags.push(Diag::violation(
                                        rel,
                                        t.line,
                                        "hot-path-alloc",
                                        format!(
                                            "`{}::{}` allocates inside hot-path fn `{func}` \
                                             (hotpath.manifest)",
                                            pair.0, pair.1
                                        ),
                                    ));
                                }
                            }
                        }
                    }
                }
            }
            // `vec!` / `format!` macros.
            if ALLOC_MACROS.contains(&t.text.as_str()) {
                if let Some(c1) = next_code(toks, i + 1) {
                    if toks[c1].is(Kind::Punct, "!") {
                        diags.push(Diag::violation(
                            rel,
                            t.line,
                            "hot-path-alloc",
                            format!(
                                "`{}!` allocates inside hot-path fn `{func}` (hotpath.manifest)",
                                t.text
                            ),
                        ));
                    }
                }
            }
        }
        // `.method(` on any receiver.
        if t.is(Kind::Punct, ".") {
            if let Some(c1) = next_code(toks, i + 1) {
                if toks[c1].kind == Kind::Ident && ALLOC_METHODS.contains(&toks[c1].text.as_str()) {
                    diags.push(Diag::violation(
                        rel,
                        toks[c1].line,
                        "hot-path-alloc",
                        format!(
                            "`.{}(...)` allocates inside hot-path fn `{func}` \
                             (hotpath.manifest)",
                            toks[c1].text
                        ),
                    ));
                }
            }
        }
        i += 1;
    }
}
