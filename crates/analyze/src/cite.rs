//! The design-citation rule: every `DESIGN.md §N` citation names a
//! `## §N` heading of the root `DESIGN.md`, and a quoted title after it
//! names a heading inside that section.
//!
//! A citation is `DESIGN.md` (backticks allowed) followed by `§N`, then
//! optionally `"Title"` or `, "Title"`; more sections may follow as
//! `, §M` or `/§M`. Any part may wrap onto the next line, whose leading
//! comment marker (`//!`, `///`, `//`, `#`) is skipped, and a wrapped
//! title reads with one space at the break. `\u{a7}`, a Rust string's
//! escape for `§`, counts as `§`.

use crate::Diag;
use std::collections::BTreeMap;

const RULE: &str = "design-citation";

/// A title longer than this is taken for a stray quote, not a title.
const MAX_TITLE: usize = 120;

/// The headings of DESIGN.md: each section number with its titles (the
/// `## §N` heading's own and every `###` heading under it).
#[derive(Debug, Default)]
pub struct Headings(BTreeMap<u32, Vec<String>>);

impl Headings {
    pub fn parse(text: &str) -> Self {
        let mut map: BTreeMap<u32, Vec<String>> = BTreeMap::new();
        let mut current = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("## §") {
                let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
                current = rest[..digits].parse().ok();
                if let Some(n) = current {
                    map.entry(n).or_default().push(rest[digits..].trim().to_string());
                }
            } else if line.starts_with("# ") || line.starts_with("## ") {
                current = None;
            } else if let (Some(title), Some(n)) = (line.strip_prefix("### "), current) {
                map.entry(n).or_default().push(title.trim().to_string());
            }
        }
        Self(map)
    }

    fn section_of(&self, title: &str) -> Option<u32> {
        self.0.iter().find(|(_, ts)| ts.iter().any(|t| t == title)).map(|(n, _)| *n)
    }
}

/// Skips spaces and tabs, and at most one line break together with the
/// next line's indentation and comment marker.
fn skip_space(b: &str, mut p: usize) -> usize {
    let mut crossed = false;
    loop {
        let rest = &b[p..];
        if rest.starts_with([' ', '\t', '\r']) {
            p += 1;
        } else if rest.starts_with('\n') && !crossed {
            crossed = true;
            p += 1;
            p += b[p..].len() - b[p..].trim_start_matches([' ', '\t']).len();
            for marker in ["//!", "///", "//", "#"] {
                if b[p..].starts_with(marker) {
                    p += marker.len();
                    break;
                }
            }
        } else {
            return p;
        }
    }
}

/// Reads a title that opens at `p` (just past its `"`): the text up to
/// the closing quote, a line break read as one space. `None` when no
/// quote closes it within [`MAX_TITLE`] bytes or one line break.
fn read_title(b: &str, mut p: usize) -> Option<(String, usize)> {
    let mut title = String::new();
    let mut crossed = false;
    while title.len() <= MAX_TITLE {
        let c = b[p..].chars().next()?;
        match c {
            '"' => return Some((title, p + 1)),
            '\r' => p += 1,
            '\n' if crossed => return None,
            '\n' => {
                crossed = true;
                p = skip_space(b, p);
                title.truncate(title.trim_end().len());
                title.push(' ');
            }
            _ => {
                title.push(c);
                p += c.len_utf8();
            }
        }
    }
    None
}

/// Checks every citation in `text` (the contents of `rel`) against
/// `headings`.
pub fn design_citations(rel: &str, text: &str, headings: &Headings, diags: &mut Vec<Diag>) {
    let text = text.replace("\\u{a7}", "§");
    let b = text.as_str();
    let lines: Vec<&str> = b.lines().collect();
    let mut from = 0;
    while let Some(off) = b[from..].find("DESIGN.md") {
        let at = from + off;
        from = at + "DESIGN.md".len();
        let line = b[..at].matches('\n').count() + 1;
        let mut p = from + usize::from(b[from..].starts_with('`'));
        p = skip_space(b, p);
        while let Some(rest) = b[p..].strip_prefix('§') {
            let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
            if digits == 0 {
                break;
            }
            let number = &rest[..digits];
            let titles = number.parse().ok().and_then(|n: u32| headings.0.get(&n));
            p += '§'.len_utf8() + digits;
            let mut q = skip_space(b, p);
            if b[q..].starts_with(',') {
                q = skip_space(b, q + 1);
            }
            let title = b[q..].strip_prefix('"').and_then(|_| read_title(b, q + 1));
            let message = match (titles, &title) {
                (None, _) => Some(format!(
                    "`DESIGN.md \u{a7}{number}` names no `## \u{a7}{number}` heading in DESIGN.md"
                )),
                (Some(titles), Some((t, _))) if !titles.iter().any(|h| h == t) => {
                    let hint = match headings.section_of(t) {
                        Some(m) => format!(" (that heading is in \u{a7}{m})"),
                        None => String::new(),
                    };
                    Some(format!("\u{a7}{number} of DESIGN.md has no heading \"{t}\"{hint}"))
                }
                _ => None,
            };
            if let Some(message) = message {
                let mut d = Diag::violation(rel, line, RULE, message);
                d.snippet = lines.get(line - 1).map_or_else(String::new, |l| l.to_string());
                diags.push(d);
            }
            if let Some((_, end)) = title {
                p = end;
            }
            // A list of sections: `§7, §10` or `§7/§10`.
            if !b[p..].starts_with([',', '/']) {
                break;
            }
            let q = skip_space(b, p + 1);
            if !b[q..].starts_with('§') {
                break;
            }
            p = q;
        }
    }
}
