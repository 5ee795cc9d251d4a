//! EXPERIMENTS.md's Table 7 overhead table quotes `BENCH_fitpath.json`:
//! each model's number must be the snapshot's post median for its
//! `table7_fit_predict_all_ms.<short_label>` key, printed to 3 decimals,
//! so the doc cannot drift from the file the `fitpath` binary's A/B
//! produced.

use std::path::Path;

use mct_core::ModelKind;
use serde::{content_field, Content, Deserialize};

fn repo_file(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `snapshot.post[key]` as a number.
fn post_ms(snapshot: &Content, key: &str) -> Option<f64> {
    let post = content_field(snapshot.as_map()?, "post")?;
    f64::deserialize_content(content_field(post.as_map()?, key)?).ok()
}

/// `(first cell, second cell)` of each body row of the first table in
/// EXPERIMENTS.md's "Table 7 overheads" section.
fn table7_rows(doc: &str) -> Vec<(String, String)> {
    let section = doc
        .split("\n## ")
        .find(|s| s.starts_with("Table 7 overheads"))
        .expect("EXPERIMENTS.md has a \"## Table 7 overheads\" section");
    section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2)
        .map(|l| {
            let cells: Vec<&str> = l.trim_matches('|').split('|').map(str::trim).collect();
            (
                cells[0].to_string(),
                cells.get(1).unwrap_or(&"").to_string(),
            )
        })
        .collect()
}

#[test]
fn experiments_table7_quotes_bench_fitpath() {
    let snapshot = serde_json::parse_content(&repo_file("BENCH_fitpath.json"))
        .expect("BENCH_fitpath.json parses");
    let rows = table7_rows(&repo_file("EXPERIMENTS.md"));
    assert_eq!(
        rows.len(),
        ModelKind::all().len(),
        "one row per model: {rows:?}"
    );
    for kind in ModelKind::all() {
        let key = format!("table7_fit_predict_all_ms.{}", kind.short_label());
        let committed = post_ms(&snapshot, &key)
            .unwrap_or_else(|| panic!("BENCH_fitpath.json lacks post.{key}"));
        let (_, quoted) = rows
            .iter()
            .find(|(label, _)| label == kind.label())
            .unwrap_or_else(|| panic!("no Table 7 row for {:?}", kind.label()));
        assert_eq!(
            *quoted,
            format!("{committed:.3}"),
            "{:?}: EXPERIMENTS.md must quote BENCH_fitpath.json post.{key} to 3 decimals",
            kind.label()
        );
    }
}
