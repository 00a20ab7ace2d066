//! `nws_analyze` — workspace-native static analysis.
//!
//! Turns the repo's concurrency contract (DESIGN.md §10) into four
//! enforced rules with committed baselines, and keeps the design's
//! citations honest with a fifth:
//!
//! 1. **cfg-confinement** — the `nws_model` / `nws_fault` cfg names are
//!    spelled only inside `crates/sync`; other crates opt in through the
//!    `nws_sync::model_only!` / `not_model!` macros.
//! 2. **unsafe-audit** — every `unsafe` block / fn / impl / trait carries
//!    a `// SAFETY:` comment immediately above (attributes skipped), with
//!    no exception list.
//! 3. **seqcst-budget** — every `Ordering::SeqCst` site in non-vendor,
//!    non-test code must be justified in `seqcst.allow`, keyed by
//!    (file, enclosing fn) so the budget survives line churn but any new
//!    site is a reviewed diff.
//! 4. **hot-path-alloc** — functions listed in `hotpath.manifest` must
//!    not contain allocating constructs.
//! 5. **design-citation** — every `DESIGN.md §N` citation in `crates/`,
//!    `.github/` and the verify skill names an existing `## §N` heading,
//!    and a quoted title after it a heading inside that section.
//!
//! The sync-facade rule (DESIGN.md §7) is not here: clippy's
//! `disallowed-types`/`disallowed-methods` in `clippy.toml` enforce it,
//! and CI runs clippy under every build cfg.
//!
//! The analyzer is dependency-free and lexes Rust itself (comments,
//! strings, raw strings, char-vs-lifetime), so it never misfires on
//! `"nws_model"` inside an error message or `SeqCst` in a comment.

pub mod baseline;
pub mod cite;
pub mod lexer;
pub mod rules;
pub mod scan;

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The tree breaks a rule. Always fails the run.
    Violation,
    /// A committed baseline no longer matches the tree (entry with no
    /// remaining sites, manifest fn that no longer exists). Fails only
    /// under `--ci`, so local iteration can fix code before baselines.
    Stale,
}

/// One diagnostic: `file:line:rule: message` plus the offending line.
#[derive(Debug, Clone)]
pub struct Diag {
    pub file: String,
    pub line: usize,
    pub rule: String,
    pub message: String,
    /// The offending source line, when there is one.
    pub snippet: String,
    pub severity: Severity,
}

impl Diag {
    pub fn violation(file: &str, line: usize, rule: &str, message: String) -> Self {
        Self {
            file: file.to_string(),
            line,
            rule: rule.to_string(),
            message,
            snippet: String::new(),
            severity: Severity::Violation,
        }
    }

    pub fn stale(file: &str, line: usize, rule: &str, message: String) -> Self {
        Self { severity: Severity::Stale, ..Self::violation(file, line, rule, message) }
    }
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.severity {
            Severity::Violation => "",
            Severity::Stale => " [stale baseline]",
        };
        write!(f, "{}:{}:{}: {}{}", self.file, self.line, self.rule, self.message, tag)?;
        if !self.snippet.is_empty() {
            write!(f, "\n    {}", self.snippet.trim_end())?;
        }
        Ok(())
    }
}

/// Where to analyze and where the baselines live.
pub struct Config {
    pub root: PathBuf,
    /// Directory holding `seqcst.allow` and `hotpath.manifest`. Defaults
    /// to `<root>/crates/analyze`; fixture trees point it at themselves.
    pub baseline_dir: PathBuf,
}

impl Config {
    pub fn new(root: impl Into<PathBuf>) -> Self {
        let root = root.into();
        let baseline_dir = root.join("crates/analyze");
        Self { root, baseline_dir }
    }
}

/// Directories never descended into: build output, VCS, vendored crates
/// (exempt from the contract wholesale — not our code to document), and
/// the analyzer's own rule fixtures (each fixture tree is analyzed
/// separately by the self-tests, with itself as root).
fn skip_dir(rel: &str, name: &str) -> bool {
    name == ".git"
        || name == "vendor"
        || name.starts_with("target")
        || rel == "crates/analyze/tests/fixtures"
}

/// Is `rel` test-only code by *path*? (`#[cfg(test)]` spans within mixed
/// files are handled by the scanner.) Integration-test trees, `*_tests.rs`
/// modules (gated by `#[cfg(all(test, ...))]` at their `mod` site, which
/// lives in a different file), and fixture data.
fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.ends_with("_tests.rs")
        || rel.contains("/fixtures/")
}

/// Is `rel` inside the facade (allowed to spell the backend cfgs)?
fn is_sync_crate(rel: &str) -> bool {
    rel.starts_with("crates/sync/")
}

/// The files under `root/start` whose names pass `keep`, as sorted paths
/// relative to `root`.
fn walk(root: &Path, start: &str, keep: fn(&str) -> bool) -> Vec<String> {
    let mut files = Vec::new();
    let mut stack = vec![PathBuf::from(start)];
    while let Some(rel_dir) = stack.pop() {
        let abs = root.join(&rel_dir);
        let Ok(entries) = fs::read_dir(&abs) else { continue };
        for e in entries.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            let rel = if rel_dir.as_os_str().is_empty() {
                PathBuf::from(&name)
            } else {
                rel_dir.join(&name)
            };
            let rel_str = rel.to_string_lossy().replace('\\', "/");
            let ty = match e.file_type() {
                Ok(t) => t,
                Err(_) => continue,
            };
            if ty.is_dir() {
                if !skip_dir(&rel_str, &name) {
                    stack.push(rel);
                }
            } else if keep(&name) {
                files.push(rel_str);
            }
        }
    }
    files.sort();
    files
}

/// Runs every rule over the tree and returns the sorted diagnostics.
pub fn analyze(cfg: &Config) -> Vec<Diag> {
    let mut diags = Vec::new();

    let (allow, allow_errs) = baseline::parse_seqcst_allow(&cfg.baseline_dir.join("seqcst.allow"));
    let (manifest, manifest_errs) =
        baseline::parse_hotpath_manifest(&cfg.baseline_dir.join("hotpath.manifest"));
    for e in allow_errs.into_iter().chain(manifest_errs) {
        // A malformed baseline must fail the run, not silently allow.
        diags.push(Diag::violation(&e.file, e.line, "baseline", e.message));
    }

    // Aggregated across files for the cross-file comparisons.
    let mut seqcst: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    let mut manifest_hit = vec![false; manifest.len()];
    let headings =
        cite::Headings::parse(&fs::read_to_string(cfg.root.join("DESIGN.md")).unwrap_or_default());

    for rel in walk(&cfg.root, "", |name| name.ends_with(".rs")) {
        let Ok(src) = fs::read_to_string(cfg.root.join(&rel)) else { continue };
        let lines: Vec<&str> = src.lines().collect();
        let toks = lexer::lex(&src);
        let map = scan::scan(&toks);
        let first_new = diags.len();

        if !is_sync_crate(&rel) {
            rules::cfg_confinement(&rel, &toks, &mut diags);
        }

        // unsafe-audit applies everywhere, tests included: a SAFETY
        // comment is the review record for the site, and test unsafe is
        // still unsafe.
        rules::unsafe_audit(&rel, &toks, &lines, &mut diags);

        if !is_sync_crate(&rel) && !is_test_path(&rel) {
            for s in rules::seqcst_sites(&toks, &map) {
                seqcst.entry((rel.clone(), s.func)).or_default().push(s.line);
            }
        }

        if rel.starts_with("crates/") {
            cite::design_citations(&rel, &src, &headings, &mut diags);
        }

        for (mi, (mfile, mfn)) in manifest.iter().enumerate() {
            if *mfile != rel {
                continue;
            }
            let mut found = false;
            for f in map.fns.iter().filter(|f| f.name == *mfn) {
                found = true;
                rules::hotpath_scan(&rel, mfn, &toks, f.body, &mut diags);
            }
            if found {
                manifest_hit[mi] = true;
            }
        }

        // Attach the offending source line to this file's diagnostics.
        for d in &mut diags[first_new..] {
            if d.file == rel && d.line >= 1 && d.line <= lines.len() {
                d.snippet = lines[d.line - 1].to_string();
            }
        }
    }

    // SeqCst budget: every aggregated (file, fn) count must match an
    // allow entry; allow entries must still correspond to live sites.
    for ((file, func), site_lines) in &seqcst {
        let entry = allow.iter().find(|a| a.file == *file && a.func == *func);
        let budget = entry.map_or(0, |a| a.count);
        if site_lines.len() > budget {
            for &l in site_lines {
                let why = match entry {
                    None => "no seqcst.allow entry for this (file, fn)".to_string(),
                    Some(a) => format!(
                        "seqcst.allow grants {budget} for `{}`, found {}",
                        a.func,
                        site_lines.len()
                    ),
                };
                diags.push(Diag::violation(
                    file,
                    l,
                    "seqcst-budget",
                    format!(
                        "`SeqCst` outside the committed budget ({why}); justify it in \
                         crates/analyze/seqcst.allow or weaken the ordering (DESIGN.md \u{a7}10)"
                    ),
                ));
            }
        } else if site_lines.len() < budget {
            diags.push(Diag::stale(
                file,
                site_lines[0],
                "seqcst-budget",
                format!(
                    "seqcst.allow grants {budget} SeqCst sites in `{func}` but only {} remain; \
                     shrink the entry",
                    site_lines.len()
                ),
            ));
        }
    }
    for a in &allow {
        if !seqcst.contains_key(&(a.file.clone(), a.func.clone())) {
            diags.push(Diag::stale(
                "crates/analyze/seqcst.allow",
                1,
                "seqcst-budget",
                format!("entry `{} {}` has no remaining SeqCst sites; remove it", a.file, a.func),
            ));
        }
    }

    // Manifest functions must still exist.
    for (mi, (mfile, mfn)) in manifest.iter().enumerate() {
        if !manifest_hit[mi] {
            diags.push(Diag::stale(
                "crates/analyze/hotpath.manifest",
                1,
                "hot-path-alloc",
                format!("manifest entry `{mfile} {mfn}` matches no function; update it"),
            ));
        }
    }

    // The design citations outside Rust code: CI workflows and the
    // verify skill.
    let mut docs = walk(&cfg.root, ".github", |_| true);
    docs.push(".claude/skills/verify/SKILL.md".to_string());
    for rel in docs {
        if let Ok(text) = fs::read_to_string(cfg.root.join(&rel)) {
            cite::design_citations(&rel, &text, &headings, &mut diags);
        }
    }

    diags.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    diags
}

/// Prints the diagnostics and returns the process exit code. Violations
/// always fail; stale baselines fail only under `ci`.
pub fn report(diags: &[Diag], ci: bool) -> i32 {
    for d in diags {
        println!("{d}");
    }
    let violations = diags.iter().filter(|d| d.severity == Severity::Violation).count();
    let stale = diags.iter().filter(|d| d.severity == Severity::Stale).count();
    if violations + stale == 0 {
        println!("nws_analyze: clean");
        0
    } else {
        println!(
            "nws_analyze: {violations} violation(s), {stale} stale baseline entr{} {}",
            if stale == 1 { "y" } else { "ies" },
            if ci { "(--ci: both fail)" } else { "(stale fails only under --ci)" }
        );
        i32::from(violations > 0 || (ci && stale > 0))
    }
}
