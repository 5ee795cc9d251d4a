//! # mct-lint — `mct-verify`, the MCT workspace static analyzer
//!
//! A dependency-free multi-pass analyzer (grown out of the tidy-style
//! single-file linter, in the spirit of rust-lang's `tidy`) that walks
//! every `.rs` file in the workspace with a small hand-rolled lexer —
//! no `syn`, no proc macros — and enforces the repo's domain-specific
//! correctness rules:
//!
//! - **D-series (determinism):** the paper's headline tables are only
//!   reproducible if parallel == serial bit-for-bit, so `sim` and `ml`
//!   may not use iteration-order-bearing std hash collections, wall
//!   clocks may not leak outside telemetry/bench/scheduler-stats, and OS
//!   entropy is banned outright;
//! - **P-series (panic hygiene):** no `unwrap()`/`expect()`/`panic!` in
//!   non-test library code of `sim`, `ml`, `core`, `telemetry`;
//! - **F-series (float soundness):** NaN-unsafe `partial_cmp`
//!   comparators must use `f64::total_cmp`;
//! - **L-series (lock discipline):** no two locks at once inside one
//!   function of the grain scheduler (L001), and — interprocedurally —
//!   every crate's lock acquisition-order graph must be a DAG (L002,
//!   [`lock_order`]);
//! - **U-series (unsafe hygiene):** every `unsafe` block is preceded by
//!   a `// SAFETY:` comment and `unsafe`/`get_unchecked` stay inside an
//!   audited allowlist with a validate-then-trust marker
//!   ([`unsafe_hygiene`]);
//! - **S-series (bit-identity hazards):** no float reductions inside
//!   pool closures, no accumulation over unordered collections
//!   ([`float_hazards`]).
//!
//! Two passes are inherently *workspace* passes and run in a finishing
//! step over all per-file analyses: L002 (lock summaries propagate
//! across same-crate call edges) and E003 (an `allow()` pragma that
//! suppressed nothing anywhere in the run is stale and becomes an
//! error, so the suppression inventory can only shrink).
//!
//! Diagnostics are machine-readable (`file:line: [LINT-ID] message`),
//! suppressible inline (`// mct-tidy: allow(LINT-ID) -- reason`), and
//! exported as JSON wired into [`mct_telemetry`] counters via `--json`.
//!
//! Run as `cargo run -p mct-lint`, or through `tests/tidy.rs` so plain
//! `cargo test` enforces a lint-clean tree.

#![warn(missing_docs)]

pub mod float_hazards;
pub mod lexer;
pub mod lints;
pub mod lock_order;
pub mod pragma;
pub mod unsafe_hygiene;

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

pub use lints::{lint_by_id, FileScope, LintInfo, LINTS};

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// Lint id (`D001`, ...).
    pub lint: String,
    /// Human explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// An `allow()` pragma entry that suppressed zero diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StalePragma {
    /// Workspace-relative path.
    pub file: String,
    /// 1-indexed line of the pragma comment.
    pub line: usize,
    /// The lint id the dead entry names.
    pub id: String,
}

/// Result of checking one file or a whole tree.
#[derive(Debug, Default)]
pub struct Report {
    /// Surviving (unsuppressed) violations, in file/line order.
    pub diagnostics: Vec<Diagnostic>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Violations silenced by a valid pragma.
    pub suppressed: u64,
    /// Pragma entries that suppressed nothing (each also surfaces as an
    /// E003 diagnostic — staleness is an error, not a warning).
    pub stale_pragmas: Vec<StalePragma>,
}

impl Report {
    /// True when the tree is lint-clean (no diagnostics; stale pragmas
    /// count, since each is an E003 diagnostic).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Per-lint violation counts (for telemetry counters).
    #[must_use]
    pub fn counts_by_lint(&self) -> BTreeMap<String, u64> {
        let mut m = BTreeMap::new();
        for d in &self.diagnostics {
            *m.entry(d.lint.clone()).or_insert(0) += 1;
        }
        m
    }

    /// Counts rolled up to the lint family (leading letter: D, P, F, L,
    /// U, S, E).
    #[must_use]
    pub fn counts_by_family(&self) -> BTreeMap<String, u64> {
        let mut m = BTreeMap::new();
        for d in &self.diagnostics {
            let fam = d.lint.chars().next().unwrap_or('?').to_string();
            *m.entry(fam).or_insert(0) += 1;
        }
        m
    }
}

/// One `allow()` entry at a pragma site, with how many diagnostics it
/// actually suppressed during the run.
#[derive(Debug, Clone)]
struct PragmaEntry {
    line: usize,
    id: String,
    hits: u64,
}

/// Everything the per-file pass extracts; the workspace passes (L002,
/// E003) run over a batch of these in [`finish`].
#[derive(Debug)]
pub struct FileAnalysis {
    rel_path: String,
    /// Suppression-filtered per-file diagnostics (D/P/F/L001/U/S plus
    /// E001/E002 pragma errors).
    diagnostics: Vec<Diagnostic>,
    /// line -> allowed lint ids (pragma on the line or the line above).
    allowed: BTreeMap<usize, Vec<String>>,
    /// Pragma inventory with hit counts, for E003.
    pragma_entries: Vec<PragmaEntry>,
    /// Per-function lock summaries, for L002.
    fn_summaries: Vec<lock_order::FnSummary>,
    suppressed: u64,
}

impl FileAnalysis {
    /// Is `lint` allowed at `line` by a pragma?
    fn allows(&self, line: usize, lint: &str) -> bool {
        self.allowed
            .get(&line)
            .is_some_and(|ids| ids.iter().any(|id| id == lint))
    }

    /// Record that a pragma covering `line` suppressed one `lint`
    /// diagnostic (keeps the E003 staleness accounting live).
    fn credit(&mut self, line: usize, lint: &str) {
        for e in &mut self.pragma_entries {
            if e.id == lint && (e.line == line || e.line + 1 == line) {
                e.hits += 1;
            }
        }
    }
}

/// Run every per-file pass over one file. `rel_path` must be
/// workspace-relative with `/` separators — lint applicability is
/// derived from it.
#[must_use]
pub fn analyze_file(rel_path: &str, source: &str) -> FileAnalysis {
    let scanned = lexer::scan(source);
    let toks = lexer::tokenize(&scanned.code);
    let scope = FileScope::for_path(rel_path);

    let mut raw = lints::check_tokens(&scope, &toks);
    raw.extend(unsafe_hygiene::check(rel_path, &toks, &scanned.comments));
    raw.sort_by_key(|v| v.line);

    // Collect suppressions (line -> ids) and pragma errors.
    let mut allowed: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    let mut pragma_entries: Vec<PragmaEntry> = Vec::new();
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    for c in &scanned.comments {
        match pragma::parse_comment(&c.text) {
            None => {}
            Some(Err(pragma::PragmaError::Malformed(why))) => diagnostics.push(Diagnostic {
                file: rel_path.to_string(),
                line: c.line,
                lint: "E002".to_string(),
                message: format!("malformed mct-tidy pragma: {why}"),
            }),
            Some(Ok(p)) => {
                for id in p.ids {
                    if lint_by_id(&id).is_none() || id.starts_with('E') {
                        diagnostics.push(Diagnostic {
                            file: rel_path.to_string(),
                            line: c.line,
                            lint: "E001".to_string(),
                            message: format!("pragma allows unknown lint id `{id}`"),
                        });
                    } else {
                        // A pragma covers its own line (trailing form) and
                        // the next line (standalone form).
                        allowed.entry(c.line).or_default().push(id.clone());
                        allowed.entry(c.line + 1).or_default().push(id.clone());
                        pragma_entries.push(PragmaEntry {
                            line: c.line,
                            id,
                            hits: 0,
                        });
                    }
                }
            }
        }
    }

    let mut analysis = FileAnalysis {
        rel_path: rel_path.to_string(),
        diagnostics,
        allowed,
        pragma_entries,
        fn_summaries: Vec::new(),
        suppressed: 0,
    };

    for v in raw {
        if analysis.allows(v.line, v.lint) {
            analysis.suppressed += 1;
            analysis.credit(v.line, v.lint);
        } else {
            analysis.diagnostics.push(Diagnostic {
                file: rel_path.to_string(),
                line: v.line,
                lint: v.lint.to_string(),
                message: v.message,
            });
        }
    }

    // Lock summaries for the interprocedural pass. Test code is harness
    // scaffolding (the schedule-exploration harness models locks on
    // purpose) and stays out of the graph.
    if !scope.test_file {
        let tests = lints::test_regions(&toks);
        let is_test = |pos: usize| tests.iter().any(|&(s, e)| pos >= s && pos < e);
        analysis.fn_summaries = lock_order::extract(&toks, &is_test);
    }
    analysis
}

/// The crate grouping key for the interprocedural pass: call edges are
/// resolved by name *within* a crate only.
fn crate_key(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    if parts.next() == Some("crates") {
        if let Some(name) = parts.next() {
            return format!("crates/{name}");
        }
    }
    "workspace-root".to_string()
}

/// Run the workspace passes (L002 lock-order cycles, E003 stale-pragma
/// burn-down) over a batch of per-file analyses and assemble the final
/// report. E003 deliberately runs last: a pragma consumed by L002 at
/// the tree level counts as live.
#[must_use]
pub fn finish(mut files: Vec<FileAnalysis>) -> Report {
    // L002: group lock summaries per crate, find acquisition-order
    // cycles, honor per-line pragmas at the reported edge site.
    let mut groups: BTreeMap<String, Vec<(String, lock_order::FnSummary)>> = BTreeMap::new();
    for fa in &files {
        let key = crate_key(&fa.rel_path);
        for s in &fa.fn_summaries {
            groups
                .entry(key.clone())
                .or_default()
                .push((fa.rel_path.clone(), s.clone()));
        }
    }
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    for fns in groups.values() {
        for v in lock_order::check(fns) {
            let fa = files
                .iter_mut()
                .find(|f| f.rel_path == v.file)
                .expect("violation file came from this batch");
            if fa.allows(v.line, "L002") {
                fa.suppressed += 1;
                fa.credit(v.line, "L002");
            } else {
                fa.diagnostics.push(Diagnostic {
                    file: v.file,
                    line: v.line,
                    lint: "L002".to_string(),
                    message: v.message,
                });
            }
        }
    }

    // E003: every allow() entry must have earned its keep this run.
    for fa in &mut files {
        for e in &fa.pragma_entries {
            if e.hits == 0 {
                fa.diagnostics.push(Diagnostic {
                    file: fa.rel_path.clone(),
                    line: e.line,
                    lint: "E003".to_string(),
                    message: format!(
                        "stale pragma: allow({}) suppressed zero diagnostics in this \
                         run; remove it (the suppression inventory must stay live)",
                        e.id
                    ),
                });
                report.stale_pragmas.push(StalePragma {
                    file: fa.rel_path.clone(),
                    line: e.line,
                    id: e.id.clone(),
                });
            }
        }
        report.suppressed += fa.suppressed;
        report.diagnostics.append(&mut fa.diagnostics);
    }
    report.diagnostics.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then_with(|| a.lint.cmp(&b.lint))
    });
    report
        .stale_pragmas
        .sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    report
}

/// Check one file's source text (all passes, with the workspace passes
/// scoped to just this file).
#[must_use]
pub fn check_source(rel_path: &str, source: &str) -> Report {
    finish(vec![analyze_file(rel_path, source)])
}

/// Directories never descended into.
const SKIP_DIRS: &[&str] = &[
    "target",
    "vendor",
    "fixtures",
    ".git",
    "data",
    "node_modules",
];

/// Walk every `.rs` file under `root` (deterministic order), run the
/// per-file passes, then the workspace passes over the whole batch.
///
/// # Errors
/// Propagates I/O errors from the directory walk or file reads.
pub fn check_tree(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, Path::new(""), &mut files)?;
    files.sort();

    let mut analyses = Vec::with_capacity(files.len());
    for rel in files {
        let source = std::fs::read_to_string(root.join(&rel))?;
        let rel_slash = rel.replace(std::path::MAIN_SEPARATOR, "/");
        analyses.push(analyze_file(&rel_slash, &source));
    }
    Ok(finish(analyses))
}

fn collect_rs_files(root: &Path, rel: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let dir = root.join(rel);
    let mut entries: Vec<_> = std::fs::read_dir(&dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let child = rel.join(name);
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &child, out)?;
        } else if name.ends_with(".rs") {
            out.push(child.to_string_lossy().into_owned());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trailing_pragma_suppresses_same_line() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.expect(\"set by ctor\") // mct-tidy: allow(P003) -- set in new()\n}\n";
        let r = check_source("crates/sim/src/x.rs", src);
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        assert_eq!(r.suppressed, 1);
        assert!(r.stale_pragmas.is_empty());
    }

    #[test]
    fn standalone_pragma_suppresses_next_line() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    // mct-tidy: allow(P003)\n    x.expect(\"set by ctor\")\n}\n";
        let r = check_source("crates/sim/src/x.rs", src);
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn pragma_does_not_leak_past_next_line() {
        let src = "fn f(x: Option<u8>, y: Option<u8>) -> u8 {\n    // mct-tidy: allow(P003)\n    let a = x.expect(\"a\");\n    let b = y.expect(\"b\");\n    a + b\n}\n";
        let r = check_source("crates/sim/src/x.rs", src);
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(r.diagnostics[0].lint, "P003");
        assert_eq!(r.diagnostics[0].line, 4);
    }

    #[test]
    fn unknown_lint_id_is_its_own_error() {
        let src = "// mct-tidy: allow(Z999)\nfn f() {}\n";
        let r = check_source("crates/sim/src/x.rs", src);
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].lint, "E001");
        assert!(r.diagnostics[0].message.contains("Z999"));
    }

    #[test]
    fn pragma_cannot_allow_checker_errors() {
        for id in ["E001", "E003"] {
            let src = format!("// mct-tidy: allow({id})\nfn f() {{}}\n");
            let r = check_source("crates/sim/src/x.rs", &src);
            assert_eq!(r.diagnostics.len(), 1);
            assert_eq!(r.diagnostics[0].lint, "E001");
        }
    }

    #[test]
    fn pragma_with_wrong_id_is_stale_and_does_not_suppress() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.expect(\"set\") // mct-tidy: allow(P001) -- wrong id\n}\n";
        let r = check_source("crates/sim/src/x.rs", src);
        let lints: Vec<&str> = r.diagnostics.iter().map(|d| d.lint.as_str()).collect();
        assert_eq!(lints, vec!["E003", "P003"], "{:?}", r.diagnostics);
        assert_eq!(r.stale_pragmas.len(), 1);
        assert_eq!(r.stale_pragmas[0].id, "P001");
    }

    #[test]
    fn diagnostic_format_is_machine_readable() {
        let d = Diagnostic {
            file: "crates/sim/src/x.rs".to_string(),
            line: 7,
            lint: "P001".to_string(),
            message: "boom".to_string(),
        };
        assert_eq!(d.to_string(), "crates/sim/src/x.rs:7: [P001] boom");
    }

    #[test]
    fn multi_id_pragma_suppresses_both_when_both_fire() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    // mct-tidy: allow(P001, P003) -- both structurally impossible\n    Some(x.unwrap()).expect(\"x\")\n}\n";
        let r = check_source("crates/core/src/x.rs", src);
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        assert_eq!(r.suppressed, 2);
        assert!(r.stale_pragmas.is_empty());
    }

    #[test]
    fn dead_id_in_multi_id_pragma_is_stale() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    // mct-tidy: allow(P002, P003) -- only P003 actually fires\n    x.expect(\"x\")\n}\n";
        let r = check_source("crates/core/src/x.rs", src);
        let lints: Vec<&str> = r.diagnostics.iter().map(|d| d.lint.as_str()).collect();
        assert_eq!(lints, vec!["E003"], "{:?}", r.diagnostics);
        assert_eq!(r.stale_pragmas.len(), 1);
        assert_eq!(r.stale_pragmas[0].id, "P002");
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn lock_cycle_within_one_file_is_l002() {
        let src = "\
fn a(l: &M, r: &M) { let g = l.lock().expect(\"l\"); let h = r.lock().expect(\"r\"); }\n\
fn b(l: &M, r: &M) { let g = r.lock().expect(\"r\"); let h = l.lock().expect(\"l\"); }\n";
        let r = check_source("crates/experiments/src/x.rs", src);
        assert!(
            r.diagnostics.iter().any(|d| d.lint == "L002"),
            "{:?}",
            r.diagnostics
        );
    }

    #[test]
    fn l002_pragma_at_edge_site_suppresses_and_counts_live() {
        let src = "\
fn a(l: &M, r: &M) {\n\
    let g = l.lock().expect(\"l\");\n\
    // mct-tidy: allow(L002) -- ordered by construction, see DESIGN\n\
    let h = r.lock().expect(\"r\");\n\
}\n\
fn b(l: &M, r: &M) {\n\
    let g = r.lock().expect(\"r\");\n\
    // mct-tidy: allow(L002) -- ordered by construction, see DESIGN\n\
    let h = l.lock().expect(\"l\");\n\
}\n";
        let r = check_source("crates/experiments/src/x.rs", src);
        assert!(
            !r.diagnostics.iter().any(|d| d.lint == "L002"),
            "{:?}",
            r.diagnostics
        );
        assert!(r.stale_pragmas.is_empty(), "{:?}", r.stale_pragmas);
    }

    #[test]
    fn unsafe_outside_allowlist_is_reported_via_driver() {
        let src = "fn f(p: &[u8]) -> u8 { unsafe { *p.get_unchecked(0) } }\n";
        let r = check_source("crates/sim/src/x.rs", src);
        let lints: Vec<&str> = r.diagnostics.iter().map(|d| d.lint.as_str()).collect();
        assert!(lints.contains(&"U001"), "{lints:?}");
        assert!(lints.contains(&"U002"), "{lints:?}");
    }

    #[test]
    fn family_counts_roll_up_by_leading_letter() {
        let src = "fn f(x: Option<u8>, y: Option<u8>) -> u8 { x.unwrap() + y.expect(\"y\") }\n";
        let r = check_source("crates/sim/src/x.rs", src);
        let fam = r.counts_by_family();
        assert_eq!(fam.get("P"), Some(&2), "{fam:?}");
    }
}
