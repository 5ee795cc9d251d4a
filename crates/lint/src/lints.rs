//! The lint registry and the token-level checks.
//!
//! Four families, mirroring the determinism contract the experiment
//! pipeline depends on (DESIGN.md §10):
//!
//! - **D (determinism):** no iteration-order-bearing std hash
//!   collections in `sim`/`ml`, no wall clocks outside telemetry and the
//!   scheduler stats path, no OS entropy anywhere;
//! - **P (panic hygiene):** no `unwrap()`/`expect()`/`panic!` in
//!   non-test library code of `sim`, `ml`, `core`;
//! - **F (float soundness):** no NaN-unsafe `partial_cmp` comparators —
//!   use `f64::total_cmp`;
//! - **L (lock discipline):** the grain scheduler must never hold two
//!   locks at once (L001), and the whole-crate lock
//!   acquisition-order graph must stay acyclic (L002, in
//!   [`crate::lock_order`]);
//! - **U (unsafe hygiene):** every `unsafe` block carries a `// SAFETY:`
//!   comment and `unsafe` stays inside the audited allowlist (in
//!   [`crate::unsafe_hygiene`]);
//! - **S (bit-identity hazards):** no float reductions inside pool
//!   closures, no accumulation over unordered collections (in
//!   [`crate::float_hazards`]).

use crate::lexer::Tok;

/// One lint's registry entry.
#[derive(Debug, Clone, Copy)]
pub struct LintInfo {
    /// Machine id (`D001`, ...), as printed in diagnostics and named in
    /// suppression pragmas.
    pub id: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// One-line rationale.
    pub summary: &'static str,
}

/// Every lint `mct-tidy` knows about. `E`-series entries are checker
/// self-diagnostics and cannot be suppressed.
pub const LINTS: &[LintInfo] = &[
    LintInfo {
        id: "D001",
        name: "std-hash-collections",
        summary: "std::collections::HashMap/HashSet iteration order is nondeterministic; \
                  use mct_sim::mem::FxHashMap or BTreeMap/BTreeSet in sim and ml",
    },
    LintInfo {
        id: "D002",
        name: "wall-clock",
        summary: "Instant::now/SystemTime outside telemetry, bench, or the scheduler \
                  stats path can leak wall-clock into results",
    },
    LintInfo {
        id: "D003",
        name: "os-entropy",
        summary: "thread_rng/OsRng/from_entropy draw OS entropy; all randomness must \
                  flow from seeded constructors",
    },
    LintInfo {
        id: "P001",
        name: "unwrap",
        summary: "unwrap() in non-test library code of sim/ml/core; return a Result or \
                  use expect with a pragma",
    },
    LintInfo {
        id: "P002",
        name: "panic-macro",
        summary: "panic!/unreachable!/todo!/unimplemented! in non-test library code of \
                  sim/ml/core",
    },
    LintInfo {
        id: "P003",
        name: "expect",
        summary: "expect() in non-test library code of sim/ml/core; justify with a \
                  pragma or return a Result",
    },
    LintInfo {
        id: "F001",
        name: "partial-cmp-unwrap",
        summary: "partial_cmp(..).unwrap()/.expect() panics on NaN; use f64::total_cmp",
    },
    LintInfo {
        id: "F002",
        name: "float-comparator",
        summary: "sort_by/max_by/min_by comparator built on partial_cmp is NaN-unsafe \
                  or order-unstable; use f64::total_cmp",
    },
    LintInfo {
        id: "L001",
        name: "nested-lock",
        summary: "second .lock() taken while another guard is live in the grain \
                  scheduler; two locks at once can deadlock",
    },
    LintInfo {
        id: "L002",
        name: "lock-order-cycle",
        summary: "cycle in the crate's interprocedural lock acquisition-order graph; \
                  two threads walking the cycle from different entry points deadlock",
    },
    LintInfo {
        id: "U001",
        name: "safety-comment",
        summary: "unsafe block without an immediately preceding `// SAFETY:` comment \
                  naming the invariant it relies on",
    },
    LintInfo {
        id: "U002",
        name: "unsafe-allowlist",
        summary: "unsafe/get_unchecked outside the audited kernel allowlist, or an \
                  allowlisted module missing its validate-then-trust marker",
    },
    LintInfo {
        id: "S001",
        name: "par-reduction",
        summary: "float reduction (sum/fold/looped +=) inside a closure passed to a \
                  pool site; parallel grains must write rows, not reduce",
    },
    LintInfo {
        id: "S002",
        name: "unordered-accumulation",
        summary: "loop over a hash-based collection feeding accumulation; iteration \
                  order is arbitrary, use a sorted view or BTreeMap",
    },
    LintInfo {
        id: "E001",
        name: "unknown-lint-id",
        summary: "suppression pragma names a lint id mct-tidy does not know",
    },
    LintInfo {
        id: "E002",
        name: "malformed-pragma",
        summary: "comment carries the mct-tidy: marker but is not a valid allow() \
                  directive",
    },
    LintInfo {
        id: "E003",
        name: "stale-pragma",
        summary: "allow() pragma that suppressed zero diagnostics in this run; remove \
                  it so the suppression inventory stays live",
    },
];

/// Look up a lint by id.
#[must_use]
pub fn lint_by_id(id: &str) -> Option<&'static LintInfo> {
    LINTS.iter().find(|l| l.id == id)
}

/// A raw (pre-suppression) violation.
#[derive(Debug)]
pub struct RawViolation {
    /// 1-indexed source line.
    pub line: usize,
    /// Lint id (`D001`, ...).
    pub lint: &'static str,
    /// Human explanation.
    pub message: String,
}

/// Which lint families apply to a file, derived from its
/// workspace-relative path.
#[derive(Debug, Clone, Copy)]
pub struct FileScope {
    /// D001: deterministic-hash scope (`crates/sim/src`, `crates/ml/src`,
    /// `crates/persist/src` — the WAL's checksums and replay order must
    /// be reproducible bit for bit).
    pub hash_guarded: bool,
    /// D002 exemption: telemetry, bench, and the scheduler stats path.
    /// `crates/persist` is pointedly NOT exempt: recovery re-executes a
    /// run deterministically, so durable state may never carry
    /// wall-clock (and, via D003, OS-entropy) taint.
    pub wall_clock_allowed: bool,
    /// P-series scope (`crates/sim/src`, `crates/ml/src`,
    /// `crates/core/src`, `crates/telemetry/src` — observability must
    /// degrade, never crash the run it observes — and
    /// `crates/persist/src`, which must surface corruption as typed
    /// errors, never a panic).
    pub panic_guarded: bool,
    /// L001 scope: the grain scheduler.
    pub lock_guarded: bool,
    /// S002 scope: result-producing crates (`sim`, `ml`, `core`,
    /// `experiments`, `persist`) where accumulation order reaches
    /// reported bits.
    pub accum_guarded: bool,
    /// Whole file is test/bench code (integration tests, benches).
    pub test_file: bool,
}

impl FileScope {
    /// Derive the scope from a `/`-separated workspace-relative path.
    #[must_use]
    pub fn for_path(path: &str) -> FileScope {
        let in_dir = |d: &str| path.starts_with(d);
        let component = |c: &str| path.split('/').any(|p| p == c);
        FileScope {
            hash_guarded: in_dir("crates/sim/src/")
                || in_dir("crates/ml/src/")
                || in_dir("crates/persist/src/"),
            wall_clock_allowed: in_dir("crates/telemetry/")
                || in_dir("crates/bench/")
                || path == "crates/experiments/src/sched.rs",
            panic_guarded: in_dir("crates/sim/src/")
                || in_dir("crates/ml/src/")
                || in_dir("crates/core/src/")
                || in_dir("crates/telemetry/src/")
                || in_dir("crates/persist/src/"),
            lock_guarded: path == "crates/experiments/src/sched.rs",
            accum_guarded: in_dir("crates/sim/src/")
                || in_dir("crates/ml/src/")
                || in_dir("crates/core/src/")
                || in_dir("crates/experiments/src/")
                || in_dir("crates/persist/src/"),
            test_file: component("tests") || component("benches") || in_dir("examples/"),
        }
    }
}

/// Byte ranges of `#[cfg(test)]` / `#[test]` items in the token stream.
///
/// After a test attribute, the marked item runs to the matching `}` of
/// its first top-level brace (or to a `;` for braceless items).
#[must_use]
pub fn test_regions(toks: &[Tok<'_>]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if let Some(after_attr) = match_test_attr(toks, i) {
            let start = toks[i].pos;
            let end = item_end(toks, after_attr);
            regions.push((start, end));
            // Skip past the region so nested #[test] fns inside a
            // #[cfg(test)] mod don't produce overlapping entries.
            while i < toks.len() && toks[i].pos < end {
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    regions
}

/// Match `#[cfg(test)]` or `#[test]` starting at token `i`; returns the
/// index just past the closing `]`.
fn match_test_attr(toks: &[Tok<'_>], i: usize) -> Option<usize> {
    let t = |k: usize| toks.get(i + k);
    if !t(0)?.is_punct('#') || !t(1)?.is_punct('[') {
        return None;
    }
    if t(2)?.text == "test" && t(3)?.is_punct(']') {
        return Some(i + 4);
    }
    if t(2)?.text == "cfg"
        && t(3)?.is_punct('(')
        && t(4)?.text == "test"
        && t(5)?.is_punct(')')
        && t(6)?.is_punct(']')
    {
        return Some(i + 7);
    }
    None
}

/// Byte offset just past the end of the item starting at token `i`
/// (skipping any further attributes).
fn item_end(toks: &[Tok<'_>], mut i: usize) -> usize {
    // Skip stacked attributes like #[test] #[ignore].
    while i + 1 < toks.len() && toks[i].is_punct('#') && toks[i + 1].is_punct('[') {
        let mut depth = 0;
        i += 1;
        while i < toks.len() {
            if toks[i].is_punct('[') {
                depth += 1;
            } else if toks[i].is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
    }
    let mut paren = 0i32;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct(';') && paren == 0 {
            return t.pos + 1;
        } else if t.is_punct('{') && paren == 0 {
            let mut depth = 0;
            while i < toks.len() {
                if toks[i].is_punct('{') {
                    depth += 1;
                } else if toks[i].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        return toks[i].pos + 1;
                    }
                }
                i += 1;
            }
            break;
        }
        i += 1;
    }
    toks.last().map_or(0, |t| t.pos + t.text.len())
}

/// Index of the token closing the paren group opened at `open` (which
/// must be a `(`).
#[must_use]
pub fn matching_paren(toks: &[Tok<'_>], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Run every applicable token-level lint over one file.
#[must_use]
pub fn check_tokens(scope: &FileScope, toks: &[Tok<'_>]) -> Vec<RawViolation> {
    let mut out = Vec::new();
    let tests = test_regions(toks);
    let is_test = |pos: usize| scope.test_file || tests.iter().any(|&(s, e)| pos >= s && pos < e);

    determinism_lints(scope, toks, &is_test, &mut out);
    panic_lints(scope, toks, &is_test, &mut out);
    float_lints(toks, &is_test, &mut out);
    crate::float_hazards::check(scope, toks, &is_test, &mut out);
    if scope.lock_guarded {
        lock_lints(toks, &mut out);
    }
    out.sort_by_key(|v| v.line);
    out
}

fn determinism_lints(
    scope: &FileScope,
    toks: &[Tok<'_>],
    is_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<RawViolation>,
) {
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident {
            continue;
        }
        match t.text {
            "HashMap" | "HashSet" if scope.hash_guarded && !is_test(t.pos) => {
                out.push(RawViolation {
                    line: t.line,
                    lint: "D001",
                    message: format!(
                        "std::collections::{} has nondeterministic iteration order; use \
                         the seeded FxHashMap builder (sim::mem::fasthash) or a BTree map",
                        t.text
                    ),
                });
            }
            // Only `Instant::now` reads the clock; types/params are fine.
            "Instant"
                if !scope.wall_clock_allowed
                    && !is_test(t.pos)
                    && toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|a| a.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|a| a.text == "now") =>
            {
                out.push(RawViolation {
                    line: t.line,
                    lint: "D002",
                    message: "Instant::now outside crates/telemetry, crates/bench, or the \
                              scheduler stats path; wall-clock must never feed results"
                        .to_string(),
                });
            }
            "SystemTime" if !scope.wall_clock_allowed && !is_test(t.pos) => {
                out.push(RawViolation {
                    line: t.line,
                    lint: "D002",
                    message: "SystemTime outside crates/telemetry or crates/bench; wall-clock \
                              must never feed results"
                        .to_string(),
                });
            }
            "thread_rng" | "ThreadRng" | "OsRng" | "from_entropy" | "getrandom" => {
                out.push(RawViolation {
                    line: t.line,
                    lint: "D003",
                    message: format!(
                        "`{}` draws OS entropy; construct RNGs from explicit seeds \
                         (e.g. ChaCha with the experiment seed)",
                        t.text
                    ),
                });
            }
            _ => {}
        }
    }
}

fn panic_lints(
    scope: &FileScope,
    toks: &[Tok<'_>],
    is_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<RawViolation>,
) {
    if !scope.panic_guarded {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident || is_test(t.pos) {
            continue;
        }
        let prev_dot = i > 0 && toks[i - 1].is_punct('.');
        let next_open = toks.get(i + 1).is_some_and(|a| a.is_punct('('));
        let next_bang = toks.get(i + 1).is_some_and(|a| a.is_punct('!'));
        match t.text {
            "unwrap" if prev_dot && next_open => out.push(RawViolation {
                line: t.line,
                lint: "P001",
                message: "unwrap() in non-test library code; return a Result, handle the \
                          None/Err arm, or use expect with a pragma"
                    .to_string(),
            }),
            "expect" if prev_dot && next_open => out.push(RawViolation {
                line: t.line,
                lint: "P003",
                message: "expect() in non-test library code; justify the invariant with \
                          `// mct-tidy: allow(P003) -- reason` or return a Result"
                    .to_string(),
            }),
            "panic" | "unreachable" | "todo" | "unimplemented" if next_bang => {
                out.push(RawViolation {
                    line: t.line,
                    lint: "P002",
                    message: format!(
                        "{}! in non-test library code; return an error or document the \
                         impossibility with a pragma",
                        t.text
                    ),
                });
            }
            _ => {}
        }
    }
}

fn float_lints(toks: &[Tok<'_>], is_test: &dyn Fn(usize) -> bool, out: &mut Vec<RawViolation>) {
    // F001: partial_cmp(..) immediately unwrapped or expected.
    let mut f001_sites: Vec<usize> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident || t.text != "partial_cmp" || is_test(t.pos) {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|a| a.is_punct('(')) {
            continue;
        }
        let Some(close) = matching_paren(toks, i + 1) else {
            continue;
        };
        let unwrapped = toks.get(close + 1).is_some_and(|a| a.is_punct('.'))
            && toks
                .get(close + 2)
                .is_some_and(|a| a.text == "unwrap" || a.text == "expect")
            && toks.get(close + 3).is_some_and(|a| a.is_punct('('));
        if unwrapped {
            f001_sites.push(i);
            out.push(RawViolation {
                line: t.line,
                lint: "F001",
                message: "partial_cmp(..).unwrap()/.expect() panics on NaN; use \
                          f64::total_cmp for a deterministic total order"
                    .to_string(),
            });
        }
    }

    // F002: a comparator closure built on partial_cmp that F001 did not
    // already flag (e.g. hidden behind unwrap_or) is still NaN-unsafe.
    const COMPARATORS: &[&str] = &["sort_by", "sort_unstable_by", "max_by", "min_by"];
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident || !COMPARATORS.contains(&t.text) || is_test(t.pos) {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|a| a.is_punct('(')) {
            continue;
        }
        let Some(close) = matching_paren(toks, i + 1) else {
            continue;
        };
        let hidden = (i + 2..close).find(|&k| {
            toks[k].is_ident && toks[k].text == "partial_cmp" && !f001_sites.contains(&k)
        });
        if let Some(k) = hidden {
            out.push(RawViolation {
                line: toks[k].line,
                lint: "F002",
                message: format!(
                    "{} comparator built on partial_cmp gives no total order over floats \
                     (NaN compares Equal-ish or falls back); use f64::total_cmp",
                    t.text
                ),
            });
        }
    }
}

/// L001: flag a `.lock()` taken while another lock guard is live.
///
/// Guard lifetimes are approximated lexically: a `let g = x.lock()…;`
/// whose statement ends right after the lock chain holds its guard to
/// the end of the enclosing block; any other `.lock()` is a temporary
/// whose guard dies at the end of its statement.
fn lock_lints(toks: &[Tok<'_>], out: &mut Vec<RawViolation>) {
    #[derive(Default)]
    struct Frame {
        stmt_locks: u32,
        stmt_is_let: bool,
    }
    let mut depth_guards: Vec<usize> = Vec::new(); // brace depths holding a live guard
    let mut depth = 0usize;
    let mut frames: Vec<Frame> = vec![Frame::default()];

    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
            frames.push(Frame::default());
        } else if t.is_punct('}') {
            depth_guards.retain(|&d| d < depth);
            depth = depth.saturating_sub(1);
            frames.pop();
            if frames.is_empty() {
                frames.push(Frame::default());
            }
        } else if t.is_punct(';') {
            if let Some(f) = frames.last_mut() {
                f.stmt_locks = 0;
                f.stmt_is_let = false;
            }
        } else if t.is_ident && t.text == "let" {
            if let Some(f) = frames.last_mut() {
                f.stmt_is_let = true;
            }
        } else if t.is_ident
            && t.text == "lock"
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|a| a.is_punct('('))
        {
            let frame_locks = frames.last().map_or(0, |f| f.stmt_locks);
            if frame_locks > 0 || !depth_guards.is_empty() {
                out.push(RawViolation {
                    line: t.line,
                    lint: "L001",
                    message: "second .lock() while another guard is live; the grain \
                              scheduler must never hold two locks at once"
                        .to_string(),
                });
            }
            // Classify the new guard: block-scoped (let-bound, statement
            // ends right after the lock chain) or statement-temporary.
            let mut k = matching_paren(toks, i + 1).map_or(i + 1, |c| c + 1);
            while toks.get(k).is_some_and(|a| a.is_punct('.'))
                && toks
                    .get(k + 1)
                    .is_some_and(|a| a.text == "unwrap" || a.text == "expect")
                && toks.get(k + 2).is_some_and(|a| a.is_punct('('))
            {
                k = matching_paren(toks, k + 2).map_or(k + 2, |c| c + 1);
            }
            let ends_stmt = toks.get(k).is_some_and(|a| a.is_punct(';'));
            let is_let = frames.last().is_some_and(|f| f.stmt_is_let);
            if ends_stmt && is_let {
                depth_guards.push(depth);
            } else if let Some(f) = frames.last_mut() {
                f.stmt_locks += 1;
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{scan, tokenize};

    fn check(path: &str, src: &str) -> Vec<RawViolation> {
        let scanned = scan(src);
        let toks = tokenize(&scanned.code);
        check_tokens(&FileScope::for_path(path), &toks)
    }

    #[test]
    fn hashmap_flagged_only_in_guarded_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(check("crates/sim/src/lib.rs", src)[0].lint, "D001");
        assert_eq!(check("crates/ml/src/lib.rs", src)[0].lint, "D001");
        assert!(check("crates/experiments/src/cache.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    #[test]\n    fn t() { let x: Option<u8> = None; x.unwrap(); }\n}\n";
        assert!(check("crates/sim/src/lib.rs", src).is_empty());
    }

    #[test]
    fn instant_now_flagged_outside_telemetry() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(check("crates/core/src/controller.rs", src)[0].lint, "D002");
        assert!(check("crates/telemetry/src/registry.rs", src).is_empty());
        assert!(check("crates/experiments/src/sched.rs", src).is_empty());
        assert!(check("crates/bench/src/bin/hotpath.rs", src).is_empty());
    }

    #[test]
    fn telemetry_src_is_panic_guarded() {
        let src = "fn f() { let x: Option<u8> = None; x.unwrap(); }\n";
        assert_eq!(
            check("crates/telemetry/src/registry.rs", src)[0].lint,
            "P001"
        );
        let src = "fn f(m: &std::sync::Mutex<u8>) { m.lock().expect(\"lock\"); }\n";
        assert_eq!(
            check("crates/telemetry/src/pipeline.rs", src)[0].lint,
            "P003"
        );
        // Test modules inside the crate stay exempt.
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let x: Option<u8> = None; x.unwrap(); }\n}\n";
        assert!(check("crates/telemetry/src/histogram.rs", src).is_empty());
    }

    #[test]
    fn instant_type_annotations_are_fine() {
        let src = "struct S { t: Instant }\nfn f(t: Instant) -> Instant { t }\n";
        assert!(check("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn os_entropy_flagged_everywhere() {
        let src = "fn f() { let mut rng = rand::thread_rng(); }\n";
        assert_eq!(check("crates/experiments/src/x.rs", src)[0].lint, "D003");
        assert_eq!(check("src/bin/mct.rs", src)[0].lint, "D003");
    }

    #[test]
    fn panic_hygiene_in_guarded_crates_only() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(check("crates/ml/src/x.rs", src)[0].lint, "P001");
        assert!(check("crates/experiments/src/x.rs", src).is_empty());
        let src2 = "fn f() { panic!(\"boom\"); }\n";
        assert_eq!(check("crates/sim/src/x.rs", src2)[0].lint, "P002");
        let src3 = "fn f(x: Option<u8>) -> u8 { x.expect(\"set\") }\n";
        assert_eq!(check("crates/core/src/x.rs", src3)[0].lint, "P003");
    }

    #[test]
    fn persist_src_is_durability_guarded() {
        // Crash-safe state must be replayable bit for bit: no
        // nondeterministic hashing, no wall clock, no OS entropy, and
        // corruption surfaces as typed errors — never a panic.
        let src = "use std::collections::HashMap;\n";
        assert_eq!(check("crates/persist/src/store.rs", src)[0].lint, "D001");
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(check("crates/persist/src/store.rs", src)[0].lint, "D002");
        let src = "fn f() { let mut rng = rand::thread_rng(); }\n";
        assert_eq!(check("crates/persist/src/store.rs", src)[0].lint, "D003");
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(check("crates/persist/src/tempdir.rs", src)[0].lint, "P001");
        let src = "fn f() { panic!(\"corrupt\"); }\n";
        assert_eq!(check("crates/persist/src/store.rs", src)[0].lint, "P002");
        // The crate's integration tests stay exempt, like everyone's.
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert!(check("crates/persist/tests/wal.rs", src).is_empty());
    }

    #[test]
    fn partial_cmp_unwrap_is_f001() {
        let src = "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        let got = check("crates/experiments/src/x.rs", src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].lint, "F001");
    }

    #[test]
    fn hidden_partial_cmp_comparator_is_f002() {
        let src = "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)); }\n";
        let got = check("crates/experiments/src/x.rs", src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].lint, "F002");
    }

    #[test]
    fn total_cmp_comparators_pass() {
        let src = "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.total_cmp(b)); }\n";
        assert!(check("crates/experiments/src/x.rs", src).is_empty());
    }

    #[test]
    fn nested_lock_in_sched_is_l001() {
        let src = "fn f() { let a = q[0].lock().unwrap(); let b = q[1].lock().unwrap(); }\n";
        let got = check("crates/experiments/src/sched.rs", src);
        assert!(got.iter().any(|v| v.lint == "L001"), "{got:?}");
    }

    #[test]
    fn inner_block_guard_then_second_lock_passes() {
        // A guard confined to an inner block, the second lock taken
        // after it drops.
        let src = "fn steal() {\n    let mut batch = {\n        let mut q = queues[victim].lock().expect(\"q\");\n        q.split_off(keep)\n    };\n    queues[me].lock().expect(\"q\").append(&mut batch);\n}\n";
        let got = check("crates/experiments/src/sched.rs", src);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn temporary_guard_in_same_statement_is_l001() {
        let src = "fn f() { a.lock().unwrap().push(b.lock().unwrap().pop()); }\n";
        let got = check("crates/experiments/src/sched.rs", src);
        assert!(got.iter().any(|v| v.lint == "L001"), "{got:?}");
    }

    #[test]
    fn lock_discipline_scoped_to_sched_only() {
        let src = "fn f() { let a = q[0].lock().unwrap(); let b = q[1].lock().unwrap(); }\n";
        assert!(check("crates/experiments/src/cache.rs", src).is_empty());
    }

    #[test]
    fn test_file_paths_are_whole_file_exempt_from_scoped_lints() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert!(check("crates/sim/tests/properties.rs", src).is_empty());
    }
}
