//! L002 — interprocedural lock-order analysis.
//!
//! L001 catches a second `.lock()` while a guard is live *inside one
//! function*; deadlocks are rarely that polite. This pass upgrades the
//! check to a whole-crate acquisition-order graph:
//!
//! 1. **Summaries.** Every non-test function gets a lexical summary:
//!    which *lock classes* it acquires directly, which functions it
//!    calls, and — via the same guard-lifetime approximation L001 uses
//!    (a `let g = x.lock()…;` holds to the end of its block, anything
//!    else to the end of its statement) — which classes were held at
//!    each acquisition and each call site.
//! 2. **Propagation.** Direct acquisition sets are closed over
//!    same-crate call edges (callees matched by name within the crate
//!    group; cross-crate calls are out of scope by design), so "holds
//!    `stats` while calling `flush`" plus "`flush` eventually locks
//!    `writer`" yields the edge `stats -> writer`.
//! 3. **Cycles.** Any strongly connected component in the resulting
//!    held-before-acquired graph — including a self-loop, the
//!    same-class double acquisition — is reported at every edge inside
//!    the component. A clean run proves every crate's lock acquisition
//!    order is a DAG, which is the classical no-deadlock argument for
//!    the poison-recovering telemetry and cache locks.
//!
//! A *lock class* is the lexical receiver of the `.lock()` call: the
//! nearest identifier once index/call groups are skipped, so
//! `queues[victim].lock()` and `queues[me].lock()` are one class
//! `queues`, and `self.inner.lock()` is class `inner`. Classes
//! over-approximate aliasing (two unrelated `m.lock()` helpers merge),
//! which errs toward reporting; a justified false positive is
//! suppressed at the edge line with `mct-tidy: allow(L002)`.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::Tok;
use crate::lints::matching_paren;

/// One `held -> acquired` ordering fact with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Class held at the acquisition site.
    pub held: String,
    /// Class acquired while `held` was live.
    pub acquired: String,
    /// 1-indexed line of the acquisition (or call) site.
    pub line: usize,
}

/// A call made while at least one guard was live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeldCall {
    /// Classes held at the call site.
    pub held: Vec<String>,
    /// Callee name (bare identifier before the `(`).
    pub callee: String,
    /// 1-indexed call-site line.
    pub line: usize,
}

/// Lexical lock summary of one function.
#[derive(Debug, Clone, Default)]
pub struct FnSummary {
    /// Function name (bare identifier; same-name functions in one crate
    /// merge conservatively).
    pub name: String,
    /// Lock classes acquired directly in the body.
    pub acquires: BTreeSet<String>,
    /// Every callee name (for transitive acquisition sets).
    pub calls: BTreeSet<String>,
    /// Direct held-while-acquiring edges.
    pub edges: Vec<LockEdge>,
    /// Calls made with a guard live.
    pub held_calls: Vec<HeldCall>,
}

/// Keywords that look like calls to a token scanner but are not.
const NON_CALLS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "let", "fn", "else", "move", "as",
    "ref", "mut", "pub", "use", "where", "impl", "dyn", "box", "unsafe",
];

/// Extract per-function lock summaries from one file's token stream.
/// `is_test` excludes `#[cfg(test)]`/`#[test]` regions (and whole test
/// files) — lock shapes in tests are harness scaffolding, not protocol.
#[must_use]
pub fn extract(toks: &[Tok<'_>], is_test: &dyn Fn(usize) -> bool) -> Vec<FnSummary> {
    let spans = fn_spans(toks);
    let mut out = Vec::new();
    for (si, span) in spans.iter().enumerate() {
        if is_test(toks[span.name_idx].pos) {
            continue;
        }
        // Tokens of this body, excluding any nested fn's body (the
        // nested fn gets its own summary).
        let nested: Vec<(usize, usize)> = spans
            .iter()
            .enumerate()
            .filter(|&(sj, other)| {
                sj != si && other.body.0 > span.body.0 && other.body.1 <= span.body.1
            })
            .map(|(_, other)| other.body)
            .collect();
        let summary = summarize_body(toks, span, &nested);
        out.push(summary);
    }
    out
}

/// A function item's location in the token stream.
struct FnSpan {
    name_idx: usize,
    /// Token index range of the body, `{` inclusive to `}` inclusive.
    body: (usize, usize),
}

/// Locate every `fn name … { … }` item (function pointers `fn(...)` and
/// bodiless trait methods are skipped).
fn fn_spans(toks: &[Tok<'_>]) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident && toks[i].text == "fn" && toks.get(i + 1).is_some_and(|t| t.is_ident) {
            let name_idx = i + 1;
            // Scan the signature for the body `{` (or a `;` for a
            // bodiless declaration). Signatures cannot contain braces.
            let mut j = name_idx + 1;
            let mut body = None;
            while j < toks.len() {
                if toks[j].is_punct('{') {
                    body = Some(j);
                    break;
                }
                if toks[j].is_punct(';') {
                    break;
                }
                j += 1;
            }
            if let Some(open) = body {
                let mut depth = 0i32;
                let mut k = open;
                while k < toks.len() {
                    if toks[k].is_punct('{') {
                        depth += 1;
                    } else if toks[k].is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                spans.push(FnSpan {
                    name_idx,
                    body: (open, k.min(toks.len().saturating_sub(1))),
                });
                i = open + 1; // descend: nested fns still get found
                continue;
            }
        }
        i += 1;
    }
    spans
}

/// One statement frame of the guard-lifetime scan: lock temporaries
/// that die at the statement's `;`, plus whether the statement is a
/// `let` binding (which promotes the guard to block scope).
#[derive(Default)]
struct Frame {
    stmt_classes: Vec<String>,
    stmt_is_let: bool,
}

/// Classes live right now: block-scoped guards plus every frame's
/// statement temporaries.
fn held_classes(depth_guards: &[(usize, String)], frames: &[Frame]) -> Vec<String> {
    let mut held: Vec<String> = depth_guards.iter().map(|(_, c)| c.clone()).collect();
    for f in frames {
        held.extend(f.stmt_classes.iter().cloned());
    }
    held.sort();
    held.dedup();
    held
}

/// Guard-lifetime scan of one body (L001's approximation, with classes).
fn summarize_body(toks: &[Tok<'_>], span: &FnSpan, nested: &[(usize, usize)]) -> FnSummary {
    let mut s = FnSummary {
        name: toks[span.name_idx].text.to_string(),
        ..FnSummary::default()
    };
    let mut depth_guards: Vec<(usize, String)> = Vec::new();
    let mut depth = 0usize;
    let mut frames: Vec<Frame> = vec![Frame::default()];

    let mut i = span.body.0;
    while i <= span.body.1 {
        if let Some(&(_, ne)) = nested.iter().find(|&&(ns, _)| ns == i) {
            i = ne + 1;
            continue;
        }
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
            frames.push(Frame::default());
        } else if t.is_punct('}') {
            depth_guards.retain(|&(d, _)| d < depth);
            depth = depth.saturating_sub(1);
            frames.pop();
            if frames.is_empty() {
                frames.push(Frame::default());
            }
        } else if t.is_punct(';') {
            if let Some(f) = frames.last_mut() {
                f.stmt_classes.clear();
                f.stmt_is_let = false;
            }
        } else if t.is_ident && t.text == "let" {
            if let Some(f) = frames.last_mut() {
                f.stmt_is_let = true;
            }
        } else if t.is_ident
            && t.text == "lock"
            && i > span.body.0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|a| a.is_punct('('))
        {
            let class = receiver_class(toks, i - 1);
            for held in held_classes(&depth_guards, &frames) {
                s.edges.push(LockEdge {
                    held,
                    acquired: class.clone(),
                    line: t.line,
                });
            }
            s.acquires.insert(class.clone());
            // Classify the guard: let-bound with the statement ending
            // right after the (possibly poison-recovering) lock chain
            // holds to block end; anything else dies with its statement.
            let mut k = matching_paren(toks, i + 1).map_or(i + 1, |c| c + 1);
            while toks.get(k).is_some_and(|a| a.is_punct('.'))
                && toks.get(k + 1).is_some_and(|a| {
                    a.text == "unwrap" || a.text == "expect" || a.text == "unwrap_or_else"
                })
                && toks.get(k + 2).is_some_and(|a| a.is_punct('('))
            {
                k = matching_paren(toks, k + 2).map_or(k + 2, |c| c + 1);
            }
            let ends_stmt = toks.get(k).is_some_and(|a| a.is_punct(';'));
            let is_let = frames.last().is_some_and(|f| f.stmt_is_let);
            if ends_stmt && is_let {
                depth_guards.push((depth, class));
            } else if let Some(f) = frames.last_mut() {
                f.stmt_classes.push(class);
            }
        } else if t.is_ident
            && !NON_CALLS.contains(&t.text)
            && toks.get(i + 1).is_some_and(|a| a.is_punct('('))
            && !(i > 0 && toks[i - 1].is_ident && toks[i - 1].text == "fn")
            && !chain_contains_lock(toks, i)
        {
            // A call site (free function or method; macros are excluded
            // because their next token is `!`). The callee name is all
            // the graph needs — resolution happens per crate by name.
            // Methods chained off a `.lock()` expression are excluded:
            // `entries.lock().unwrap().get(&k)` calls `BTreeMap::get` on
            // the guarded data, not a crate function that happens to
            // share the name `get`.
            s.calls.insert(t.text.to_string());
            let held = held_classes(&depth_guards, &frames);
            if !held.is_empty() {
                s.held_calls.push(HeldCall {
                    held,
                    callee: t.text.to_string(),
                    line: t.line,
                });
            }
        }
        i += 1;
    }
    s
}

/// Is the call at token `i` a method chained off a `.lock()` in the
/// same receiver expression? Walks the chain backward over matched
/// `()`/`[]` groups, field accesses, and `?`.
fn chain_contains_lock(toks: &[Tok<'_>], i: usize) -> bool {
    if i == 0 || !toks[i - 1].is_punct('.') {
        return false;
    }
    let mut k = i - 1;
    while k > 0 {
        k -= 1;
        let t = &toks[k];
        if t.is_punct(')') {
            k = match_back(toks, k, '(', ')');
        } else if t.is_punct(']') {
            k = match_back(toks, k, '[', ']');
        } else if t.is_ident {
            if t.text == "lock" {
                return true;
            }
        } else if !t.is_punct('.') && !t.is_punct('?') {
            return false;
        }
    }
    false
}

/// Lexical receiver of a `.lock()` chain: skip one trailing index/call
/// group, then take the nearest identifier.
fn receiver_class(toks: &[Tok<'_>], dot_idx: usize) -> String {
    let mut k = dot_idx;
    while k > 0 {
        k -= 1;
        let t = &toks[k];
        if t.is_punct(']') {
            k = match_back(toks, k, '[', ']');
            continue;
        }
        if t.is_punct(')') {
            k = match_back(toks, k, '(', ')');
            continue;
        }
        if t.is_ident {
            if t.text == "self" && k + 1 < dot_idx {
                // `self.x.lock()` already yielded `x` before reaching here.
                break;
            }
            return t.text.to_string();
        }
        if !t.is_punct('.') {
            break;
        }
    }
    "<expr>".to_string()
}

/// Index of the token opening the group that closes at `close`.
fn match_back(toks: &[Tok<'_>], close: usize, open_c: char, close_c: char) -> usize {
    let mut depth = 0i32;
    let mut k = close;
    loop {
        let t = &toks[k];
        if t.is_punct(close_c) {
            depth += 1;
        } else if t.is_punct(open_c) {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
        if k == 0 {
            return 0;
        }
        k -= 1;
    }
}

/// A lock-order problem found by [`check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderViolation {
    /// Workspace-relative file of the offending edge.
    pub file: String,
    /// 1-indexed line of the offending edge.
    pub line: usize,
    /// Human explanation naming the cycle.
    pub message: String,
}

/// Analyze one crate group's summaries: close acquisition sets over
/// call edges, build the held-before-acquired graph, and report every
/// edge sitting inside a cycle.
#[must_use]
pub fn check(fns: &[(String, FnSummary)]) -> Vec<OrderViolation> {
    // Transitive acquisition sets, fixpoint over same-crate call edges.
    let mut locks: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for (_, f) in fns {
        locks
            .entry(f.name.as_str())
            .or_default()
            .extend(f.acquires.iter().cloned());
    }
    loop {
        let mut changed = false;
        for (_, f) in fns {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for callee in &f.calls {
                if let Some(l) = locks.get(callee.as_str()) {
                    add.extend(l.iter().cloned());
                }
            }
            let own = locks.entry(f.name.as_str()).or_default();
            let before = own.len();
            own.extend(add);
            changed |= own.len() != before;
        }
        if !changed {
            break;
        }
    }

    // Edge set: direct edges plus call-propagated ones, deduped by
    // (held, acquired) keeping the first site for the report.
    let mut edges: BTreeMap<(String, String), (String, usize)> = BTreeMap::new();
    let mut add_edge = |held: &str, acquired: &str, file: &str, line: usize| {
        edges
            .entry((held.to_string(), acquired.to_string()))
            .or_insert_with(|| (file.to_string(), line));
    };
    for (file, f) in fns {
        for e in &f.edges {
            add_edge(&e.held, &e.acquired, file, e.line);
        }
        for hc in &f.held_calls {
            if let Some(acquired) = locks.get(hc.callee.as_str()) {
                for a in acquired {
                    for h in &hc.held {
                        add_edge(h, a, file, hc.line);
                    }
                }
            }
        }
    }

    // Condense to strongly connected components (iterative Tarjan); an
    // edge inside an SCC with >1 node — or a self-loop — is cyclic.
    let nodes: Vec<&str> = {
        let mut n: BTreeSet<&str> = BTreeSet::new();
        for (h, a) in edges.keys() {
            n.insert(h);
            n.insert(a);
        }
        n.into_iter().collect()
    };
    let index_of: BTreeMap<&str, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let adj: Vec<Vec<usize>> = nodes
        .iter()
        .map(|&n| {
            edges
                .keys()
                .filter(|(h, _)| h == n)
                .map(|(_, a)| index_of[a.as_str()])
                .collect()
        })
        .collect();
    let comp = scc(&adj);

    let mut out = Vec::new();
    for ((h, a), (file, line)) in &edges {
        let (hi, ai) = (index_of[h.as_str()], index_of[a.as_str()]);
        let cyclic = h == a || comp[hi] == comp[ai];
        if !cyclic {
            continue;
        }
        let members: Vec<&str> = if h == a {
            vec![h.as_str()]
        } else {
            nodes
                .iter()
                .enumerate()
                .filter(|&(i, _)| comp[i] == comp[hi])
                .map(|(_, &n)| n)
                .collect()
        };
        out.push(OrderViolation {
            file: file.clone(),
            line: *line,
            message: format!(
                "lock-order cycle: `{a}` acquired while `{h}` is held, closing the cycle \
                 [{}]; acquisition order must form a DAG",
                members.join(" -> ")
            ),
        });
    }
    out.sort_by(|x, y| x.file.cmp(&y.file).then(x.line.cmp(&y.line)));
    out
}

/// Iterative Tarjan SCC; returns each node's component id.
fn scc(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut comp = vec![usize::MAX; n];
    let mut next_index = 0usize;
    let mut next_comp = 0usize;

    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        // (node, next child position) work stack.
        let mut work: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&(v, ci)) = work.last() {
            if index[v] == usize::MAX {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if ci < adj[v].len() {
                work.last_mut().expect("non-empty work stack").1 += 1;
                let w = adj[v][ci];
                if index[w] == usize::MAX {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp[w] = next_comp;
                        if w == v {
                            break;
                        }
                    }
                    next_comp += 1;
                }
            }
        }
    }
    comp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{scan, tokenize};
    use crate::lints::test_regions;

    fn summaries(src: &str) -> Vec<(String, FnSummary)> {
        let scanned = scan(src);
        let toks = tokenize(&scanned.code);
        let tests = test_regions(&toks);
        let is_test = |pos: usize| tests.iter().any(|&(s, e)| pos >= s && pos < e);
        extract(&toks, &is_test)
            .into_iter()
            .map(|f| ("crates/x/src/lib.rs".to_string(), f))
            .collect()
    }

    #[test]
    fn consistent_order_across_functions_is_clean() {
        let src = "\
fn a(l: &M, r: &M) { let g = l.lock().unwrap(); let h = r.lock().unwrap(); }\n\
fn b(l: &M, r: &M) { let g = l.lock().unwrap(); let h = r.lock().unwrap(); }\n";
        assert!(check(&summaries(src)).is_empty());
    }

    #[test]
    fn opposite_orders_in_two_functions_cycle() {
        let src = "\
fn a(l: &M, r: &M) { let g = l.lock().unwrap(); let h = r.lock().unwrap(); }\n\
fn b(l: &M, r: &M) { let g = r.lock().unwrap(); let h = l.lock().unwrap(); }\n";
        let got = check(&summaries(src));
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(got[0].message.contains("lock-order cycle"));
    }

    #[test]
    fn interprocedural_cycle_through_a_call_is_found() {
        // a holds `left` and calls helper; helper locks `right`;
        // b holds `right` and locks `left` -> cycle left->right->left.
        let src = "\
fn helper(r: &M) { let g = r_lock(r); }\n\
fn r_lock(r: &M) { let g = right.lock().unwrap(); }\n\
fn a(l: &M) { let g = left.lock().unwrap(); helper(l); }\n\
fn b(l: &M) { let g = right.lock().unwrap(); let h = left.lock().unwrap(); }\n";
        let got = check(&summaries(src));
        assert!(!got.is_empty(), "{got:?}");
        assert!(got
            .iter()
            .any(|v| v.message.contains("left") && v.message.contains("right")));
    }

    #[test]
    fn dropped_guard_before_second_lock_is_clean() {
        // A victim guard confined to an inner block, the own-queue lock
        // after it drops — same class, no edge.
        let src = "\
fn steal(queues: &[M], me: usize, victim: usize) {\n\
    let mut batch = {\n\
        let mut q = queues[victim].lock().expect(\"q\");\n\
        q.split_off(1)\n\
    };\n\
    queues[me].lock().expect(\"q\").append(&mut batch);\n\
}\n";
        assert!(check(&summaries(src)).is_empty());
    }

    #[test]
    fn same_class_double_acquisition_is_a_self_loop() {
        let src =
            "fn f(queues: &[M]) { let a = queues[0].lock().unwrap(); let b = queues[1].lock().unwrap(); }\n";
        let got = check(&summaries(src));
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("`queues`"), "{got:?}");
    }

    #[test]
    fn poison_recovering_let_chain_counts_as_a_guard() {
        let src = "\
fn f(m: &M, n: &M) {\n\
    let g = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
    let h = n.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
}\n\
fn rev(m: &M, n: &M) {\n\
    let h = n.lock().unwrap();\n\
    let g = m.lock().unwrap();\n\
}\n";
        let got = check(&summaries(src));
        assert!(
            !got.is_empty(),
            "opposite orders via recovering locks must cycle"
        );
    }

    #[test]
    fn consuming_let_chain_is_a_statement_temporary() {
        // `let len = q.lock().unwrap().len();` drops the guard at the
        // end of the statement — a later lock must not see it held.
        let src = "\
fn f(q: &M, r: &M) {\n\
    let len = q.lock().unwrap().len();\n\
    let g = r.lock().unwrap();\n\
}\n\
fn rev(q: &M, r: &M) {\n\
    let g = r.lock().unwrap();\n\
    let len = q.lock().unwrap().len();\n\
}\n";
        // f yields no q->r edge (guard dead), rev yields r->q only: no cycle.
        let got = check(&summaries(src));
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn receiver_classes_collapse_index_and_field_chains() {
        let s = summaries(
            "fn f(queues: &[M]) { let g = queues[victim].lock().unwrap(); }\n\
             fn g(s: &S) { let g = s.inner.lock().unwrap(); }\n",
        );
        assert!(s[0].1.acquires.contains("queues"));
        assert!(s[1].1.acquires.contains("inner"));
    }

    #[test]
    fn guard_content_method_sharing_a_crate_fn_name_is_no_edge() {
        // `record` calls BTreeMap::get on the guarded data; the crate
        // also has a `get` that locks the same mutex. Name matching
        // must not conflate them into a self-cycle.
        let src = "\
fn get(s: &S, key: u64) -> u64 { let g = entries.lock().unwrap(); 0 }\n\
fn record(s: &S, key: u64) { entries.lock().unwrap().get(&key); }\n";
        let got = check(&summaries(src));
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn test_regions_are_excluded() {
        let src = "\
#[cfg(test)]\nmod tests {\n    fn f(l: &M, r: &M) { let a = l.lock().unwrap(); let b = r.lock().unwrap(); }\n    fn g(l: &M, r: &M) { let a = r.lock().unwrap(); let b = l.lock().unwrap(); }\n}\n";
        assert!(check(&summaries(src)).is_empty());
    }
}
