//! `nws_analyze` — workspace-native static analysis.
//!
//! Turns the repo's concurrency contract (DESIGN.md §7, §10) into five
//! enforced rules with committed baselines, and keeps the design's
//! citations honest with a sixth:
//!
//! 1. **facade-gate** — raw sync primitives (`std::sync::atomic`,
//!    `Mutex`, `Condvar`, `RwLock`, `parking_lot`, `spin_loop`,
//!    `yield_now`) may only be named inside `crates/sync` and `vendor/`;
//!    everything else goes through `nws_sync`. Resolved through `use`
//!    aliases, so `use std::sync::atomic as a; a::AtomicUsize::new(0)`
//!    is caught where a grep is blind.
//! 2. **cfg-confinement** — the `nws_model` / `nws_fault` cfg names are
//!    spelled only inside `crates/sync`; other crates opt in through the
//!    `nws_sync::model_only!` / `not_model!` macros.
//! 3. **unsafe-audit** — every `unsafe` block / fn / impl / trait carries
//!    a `// SAFETY:` comment immediately above (attributes skipped); the
//!    per-file exception ledger `unsafe.ledger` is committed empty.
//! 4. **seqcst-budget** — every `Ordering::SeqCst` site in non-vendor,
//!    non-test code must be justified in `seqcst.allow`, keyed by
//!    (file, enclosing fn) so the budget survives line churn but any new
//!    site is a reviewed diff.
//! 5. **hot-path-alloc** — functions listed in `hotpath.manifest` must
//!    not contain allocating constructs.
//! 6. **design-citation** — every `DESIGN.md §N` citation in `crates/`,
//!    `.github/` and the verify skill names an existing `## §N` heading,
//!    and a quoted title after it a heading inside that section.
//!
//! The analyzer is dependency-free and lexes Rust itself (comments,
//! strings, raw strings, char-vs-lifetime), so it never misfires on
//! `"std::sync::atomic"` inside an error message and never misses a path
//! that rustfmt wrapped across lines.

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
    /// Directory holding `seqcst.allow`, `unsafe.ledger`,
    /// `hotpath.manifest`. Defaults to `<root>/crates/analyze`; fixture
    /// trees point it at themselves.
    pub baseline_dir: PathBuf,
    /// Cross-check `clippy.toml`'s disallowed lists against the facade
    /// rule's banned set. On iff `<root>/clippy.toml` exists.
    pub check_clippy: bool,
}

impl Config {
    pub fn new(root: impl Into<PathBuf>) -> Self {
        let root = root.into();
        let baseline_dir = root.join("crates/analyze");
        let check_clippy = root.join("clippy.toml").exists();
        Self { root, baseline_dir, check_clippy }
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

/// Is `rel` inside the facade (allowed to name raw primitives and cfgs)?
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
    let (ledger, ledger_errs) =
        baseline::parse_unsafe_ledger(&cfg.baseline_dir.join("unsafe.ledger"));
    let (manifest, manifest_errs) =
        baseline::parse_hotpath_manifest(&cfg.baseline_dir.join("hotpath.manifest"));
    for e in allow_errs.into_iter().chain(ledger_errs).chain(manifest_errs) {
        // A malformed baseline must fail the run, not silently allow.
        diags.push(Diag::violation(&e.file, e.line, "baseline", e.message));
    }

    // Aggregated across files for the cross-file comparisons.
    let mut seqcst: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    let mut ledger_seen: BTreeMap<String, usize> = BTreeMap::new();
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
            rules::facade_gate(&rel, &toks, &map, &mut diags);
            rules::cfg_confinement(&rel, &toks, &mut diags);
        }

        // unsafe-audit applies everywhere, tests included: a SAFETY
        // comment is the review record for the site, and test unsafe is
        // still unsafe.
        let sites = rules::unsafe_audit(&toks, &lines);
        let allowed = ledger.get(&rel).copied().unwrap_or(0);
        ledger_seen.insert(rel.clone(), sites.len());
        if sites.len() > allowed {
            for s in &sites {
                let quota = if allowed == 0 {
                    String::new()
                } else {
                    format!(" (unsafe.ledger allows {allowed}, found {})", sites.len())
                };
                diags.push(Diag::violation(
                    &rel,
                    s.line,
                    "unsafe-audit",
                    format!("{} without a `// SAFETY:` comment immediately above{quota}", s.what),
                ));
            }
        }

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

    // Ledger entries must track reality downward too.
    for (file, allowed) in &ledger {
        let actual = ledger_seen.get(file).copied().unwrap_or(0);
        if actual < *allowed {
            diags.push(Diag::stale(
                "crates/analyze/unsafe.ledger",
                1,
                "unsafe-audit",
                format!(
                    "ledger allows {allowed} undocumented unsafe sites in `{file}` but \
                     {actual} remain; shrink the entry"
                ),
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

    if cfg.check_clippy {
        clippy_sync(&cfg.root, &mut diags);
    }

    diags.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    diags
}

/// Consistency check: `clippy.toml`'s disallowed-types/methods and the
/// analyzer's facade rule must cover the same primitives — neither checker
/// silently drifting ahead of the other. clippy sees through type
/// inference; the analyzer sees doc comments, strings-free source, and
/// aliases; the contract is only as strong as their intersection.
fn clippy_sync(root: &Path, diags: &mut Vec<Diag>) {
    let Ok(text) = fs::read_to_string(root.join("clippy.toml")) else {
        diags.push(Diag::violation(
            "clippy.toml",
            1,
            "clippy-sync",
            "clippy.toml missing but consistency check requested".to_string(),
        ));
        return;
    };
    // `core::` and `std::` re-export the same items; compare normalized.
    let norm = |p: &str| p.replace("core::", "std::");
    let mut clippy_paths = Vec::new();
    for (i, l) in text.lines().enumerate() {
        if let Some(rest) = l.split("path = \"").nth(1) {
            if let Some(p) = rest.split('"').next() {
                clippy_paths.push((i + 1, p.to_string()));
            }
        }
    }
    // Direction 1: everything clippy disallows must be facade-banned here.
    // (`std::sync::atomic::Ordering` is deliberately NOT disallowed by
    // clippy; nothing checks it here either — the facade re-exports it.)
    for (line, p) in &clippy_paths {
        let n = norm(p);
        let covered = rules::FACADE_BANNED
            .iter()
            .any(|b| n == norm(b) || n.starts_with(&format!("{}::", norm(b))));
        if !covered {
            diags.push(Diag::violation(
                "clippy.toml",
                *line,
                "clippy-sync",
                format!("`{p}` is clippy-disallowed but not in the analyzer's facade ban list"),
            ));
        }
    }
    // Direction 2: every facade-banned prefix must have clippy teeth.
    for b in rules::FACADE_BANNED {
        let nb = norm(b);
        let covered = clippy_paths.iter().any(|(_, p)| {
            let np = norm(p);
            np == nb || np.starts_with(&format!("{nb}::")) || nb.starts_with(&format!("{np}::"))
        });
        if !covered {
            diags.push(Diag::violation(
                "clippy.toml",
                1,
                "clippy-sync",
                format!("facade-banned `{b}` has no clippy disallowed-types/methods entry"),
            ));
        }
    }
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
