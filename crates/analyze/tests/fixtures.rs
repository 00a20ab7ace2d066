//! Fixture self-tests for the six rules.
//!
//! Each fail fixture under `tests/fixtures/` seeds at least one violation
//! for its rule (the issue's acceptance bar: the analyzer must catch one
//! seeded violation per rule); the clean fixture packs the classic
//! false-positive traps (banned names in strings, raw strings with
//! hashes, comments, `#[cfg(test)]` SeqCst) and must stay silent. The
//! last test runs the analyzer over the real tree with the committed
//! baselines — `cargo test` and CI's `analyze` job enforce the same
//! contract.

use nws_analyze::{analyze, Config, Diag, Severity};
use std::path::PathBuf;

fn fixture(name: &str) -> Vec<Diag> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    assert!(root.is_dir(), "missing fixture tree {name}");
    let cfg = Config { root: root.clone(), baseline_dir: root, check_clippy: false };
    analyze(&cfg)
}

fn by_severity(diags: &[Diag], sev: Severity) -> Vec<&Diag> {
    diags.iter().filter(|d| d.severity == sev).collect()
}

#[test]
fn clean_fixture_is_silent() {
    let diags = fixture("clean");
    assert!(
        diags.is_empty(),
        "clean fixture must produce no diagnostics, got:\n{}",
        diags.iter().map(|d| format!("  {d}\n")).collect::<String>()
    );
}

#[test]
fn facade_gate_catches_alias_glob_and_wrapped_paths() {
    let diags = fixture("facade_fail");
    assert!(diags.iter().all(|d| d.rule == "facade-gate" && d.severity == Severity::Violation));
    assert_eq!(diags.len(), 5, "use site + 2 alias exprs + glob + wrapped: {diags:#?}");

    // The alias file: the `use ... as raw` line plus both resolved
    // expression sites, with the written spelling quoted back.
    let alias: Vec<_> = diags.iter().filter(|d| d.file == "src/alias.rs").collect();
    assert_eq!(alias.iter().map(|d| d.line).collect::<Vec<_>>(), vec![1, 4, 5]);
    assert!(alias[1].message.contains("`std::sync::atomic::AtomicUsize::new`"));
    assert!(alias[1].message.contains("(written `raw::AtomicUsize::new`)"));

    // The glob import is flagged once, at the `use`.
    let glob: Vec<_> = diags.iter().filter(|d| d.file == "src/glob.rs").collect();
    assert_eq!(glob.len(), 1);
    assert!(glob[0].message.contains("glob import"), "{}", glob[0].message);

    // The rustfmt-wrapped path a grep cannot see.
    let wrapped: Vec<_> = diags.iter().filter(|d| d.file == "src/wrapped.rs").collect();
    assert_eq!(wrapped.len(), 1);
    assert!(wrapped[0].message.contains("`std::sync::Mutex::new`"));

    // The in-fixture crates/sync file names a raw atomic and the model
    // cfg without being flagged — the facade is exempt from both rules.
    assert!(diags.iter().all(|d| !d.file.starts_with("crates/sync/")));
}

#[test]
fn cfg_confinement_flags_raw_cfg_names_outside_sync() {
    let diags = fixture("cfg_fail");
    assert_eq!(diags.len(), 2, "{diags:#?}");
    assert!(diags.iter().all(|d| d.rule == "cfg-confinement"));
    assert!(diags[0].message.contains("nws_model"));
    assert!(diags[1].message.contains("nws_fault"));
}

#[test]
fn unsafe_audit_flags_each_undocumented_site_kind() {
    let diags = fixture("unsafe_fail");
    assert!(diags.iter().all(|d| d.rule == "unsafe-audit" && d.severity == Severity::Violation));
    let whats: Vec<_> = diags.iter().map(|d| d.message.as_str()).collect();
    assert_eq!(diags.len(), 3, "{diags:#?}");
    assert!(whats[0].starts_with("unsafe impl"), "undocumented Sync impl: {}", whats[0]);
    assert!(whats[1].starts_with("unsafe block"), "second deref block: {}", whats[1]);
    assert!(whats[2].starts_with("unsafe fn"), "fn without # Safety: {}", whats[2]);
    // The documented twin of each kind — and the fn-pointer type — stayed
    // silent; the snippet pins the right line was blamed.
    assert!(diags[1].snippet.contains("*p.add(1)"), "{}", diags[1].snippet);
}

#[test]
fn unsafe_ledger_nets_sites_and_goes_stale_when_overprovisioned() {
    let diags = fixture("ledger");
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].severity, Severity::Stale);
    assert_eq!(diags[0].rule, "unsafe-audit");
    assert!(diags[0].message.contains("src/gone.rs"), "{}", diags[0].message);
}

#[test]
fn seqcst_budget_flags_unlisted_production_site() {
    let diags = fixture("seqcst_fail");
    assert_eq!(diags.len(), 1, "test-mod SeqCst must not count: {diags:#?}");
    assert_eq!(diags[0].rule, "seqcst-budget");
    assert_eq!(diags[0].severity, Severity::Violation);
    assert_eq!((diags[0].file.as_str(), diags[0].line), ("src/lib.rs", 4));
    assert!(diags[0].message.contains("no seqcst.allow entry"), "{}", diags[0].message);
}

#[test]
fn seqcst_allow_goes_stale_on_shrunk_and_deleted_fns() {
    let diags = fixture("seqcst_stale");
    assert_eq!(diags.len(), 2, "{diags:#?}");
    assert!(diags.iter().all(|d| d.rule == "seqcst-budget" && d.severity == Severity::Stale));
    assert!(diags.iter().any(|d| d.message.contains("only 1 remain")));
    assert!(diags.iter().any(|d| d.message.contains("`src/lib.rs gone`")));
}

#[test]
fn hotpath_flags_allocs_only_in_registered_fns() {
    let diags = fixture("hotpath_fail");
    let viol = by_severity(&diags, Severity::Violation);
    let stale = by_severity(&diags, Severity::Stale);
    assert_eq!(viol.len(), 4, "{diags:#?}");
    assert!(viol.iter().all(|d| d.rule == "hot-path-alloc" && d.file == "src/lib.rs"));
    for needle in ["`Vec::with_capacity`", "`Vec::push`", "`format!`", "`.to_string(...)`"] {
        assert!(viol.iter().any(|d| d.message.contains(needle)), "missing {needle}: {viol:#?}");
    }
    // `unlisted` allocates freely; only the manifest entry for the
    // deleted fn goes stale.
    assert_eq!(stale.len(), 1);
    assert!(stale[0].message.contains("cold_gone"), "{}", stale[0].message);
}

#[test]
fn malformed_baselines_are_violations_not_silent_allows() {
    let diags = fixture("bad_baseline");
    assert_eq!(diags.len(), 3, "{diags:#?}");
    assert!(diags.iter().all(|d| d.rule == "baseline" && d.severity == Severity::Violation));
}

#[test]
fn design_citations_must_name_existing_sections_and_headings() {
    let diags = fixture("citation_fail");
    assert!(diags.iter().all(|d| d.rule == "design-citation" && d.severity == Severity::Violation));
    let at: Vec<_> = diags.iter().map(|d| (d.file.as_str(), d.line)).collect();
    // Bare, backticked, listed, wrapped and titled citations that name a
    // real section and heading stay silent, and so do CHANGES.md and a
    // Rust file outside `crates/`.
    assert_eq!(
        at,
        vec![
            (".github/NOTES.md", 3),
            (".github/workflows/ci.yml", 1),
            ("crates/demo/src/lib.rs", 7),
            ("crates/demo/src/lib.rs", 8),
            ("crates/demo/src/lib.rs", 10),
        ],
        "{diags:#?}"
    );
    assert!(diags[0].message.contains("no heading \"Gamma epsilon\""), "{}", diags[0].message);
    assert!(diags[1].message.contains("`## \u{a7}9`"), "{}", diags[1].message);
    assert!(diags[2].message.contains("`## \u{a7}3`"), "{}", diags[2].message);
    assert!(
        diags[3].message.contains("no heading \"Alpha\" (that heading is in \u{a7}1)"),
        "{}",
        diags[3].message
    );
    assert!(diags[4].message.contains("`## \u{a7}4`"), "{}", diags[4].message);
}

#[test]
fn real_tree_is_clean_against_committed_baselines() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let diags = analyze(&Config::new(root));
    assert!(
        diags.is_empty(),
        "the committed tree must satisfy its own contract, got:\n{}",
        diags.iter().map(|d| format!("  {d}\n")).collect::<String>()
    );
}
