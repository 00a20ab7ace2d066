//! Parsers for the committed baseline files.
//!
//! Both formats are whitespace-separated columns with `#` comments,
//! chosen to diff line-per-fact in review:
//!
//! - `seqcst.allow`: `<file> <fn|-> <count> <one-line justification>` —
//!   the SeqCst budget, keyed by (file, enclosing function) so line churn
//!   does not invalidate entries but *new sites* always show up as a diff.
//! - `hotpath.manifest`: `<file> <fn>` — functions that must stay free of
//!   allocating constructs.

use std::fs;
use std::path::Path;

/// One `seqcst.allow` entry.
#[derive(Debug, Clone)]
pub struct SeqCstAllow {
    pub file: String,
    /// Enclosing function name, or `-` for module scope.
    pub func: String,
    pub count: usize,
    pub why: String,
}

/// A parse failure in a baseline file, reported as a diagnostic by the
/// caller (a malformed baseline must fail CI, not silently allow).
#[derive(Debug)]
pub struct BaselineError {
    pub file: String,
    pub line: usize,
    pub message: String,
}

fn data_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
}

/// Reads a baseline file; a missing file is an empty baseline.
fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_default()
}

pub fn parse_seqcst_allow(path: &Path) -> (Vec<SeqCstAllow>, Vec<BaselineError>) {
    let name = path.display().to_string();
    let text = read(path);
    let mut out = Vec::new();
    let mut errs = Vec::new();
    for (line, l) in data_lines(&text) {
        let cols: Vec<&str> = l.split_whitespace().collect();
        match cols.as_slice() {
            [file, func, count, why @ ..] if !why.is_empty() && count.parse::<usize>().is_ok() => {
                out.push(SeqCstAllow {
                    file: file.to_string(),
                    func: func.to_string(),
                    count: count.parse().expect("checked by the guard"),
                    why: why.join(" "),
                });
            }
            _ => errs.push(BaselineError {
                file: name.clone(),
                line,
                message: "expected `<file> <fn|-> <count> <justification>`".to_string(),
            }),
        }
    }
    (out, errs)
}

/// `(file, fn)` pairs from `hotpath.manifest`.
pub fn parse_hotpath_manifest(path: &Path) -> (Vec<(String, String)>, Vec<BaselineError>) {
    let name = path.display().to_string();
    let text = read(path);
    let mut out = Vec::new();
    let mut errs = Vec::new();
    for (line, l) in data_lines(&text) {
        let mut cols = l.split_whitespace();
        match (cols.next(), cols.next(), cols.next()) {
            (Some(file), Some(func), None) => out.push((file.to_string(), func.to_string())),
            _ => errs.push(BaselineError {
                file: name.clone(),
                line,
                message: "expected `<file> <fn>`".to_string(),
            }),
        }
    }
    (out, errs)
}
