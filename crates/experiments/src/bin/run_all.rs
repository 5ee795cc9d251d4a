//! Run every experiment stage in order, in one process.
//!
//! `cargo run --release -p mct-experiments --bin run_all -- --scale quick`
//!
//! Running in-process (rather than spawning the per-figure binaries) is
//! what makes the pipeline fast: all stages share one warm-rig pool,
//! one grain/derived cache, and one grain scheduler. Each
//! stage's report is echoed to stdout and mirrored to
//! `<data dir>/out/<stage>.txt`; the stage banners go to stdout only,
//! so the mirrored files are byte-comparable across runs (the CI cache
//! smoke step relies on this).

use std::fs;
use std::io::Write as _;

use mct_experiments::figures::STAGES;
use mct_experiments::Scale;

fn main() {
    let scale = Scale::from_args();
    let out_dir = mct_experiments::cache::data_dir().join("out");
    fs::create_dir_all(&out_dir).expect("create output dir");
    for (name, stage) in STAGES {
        println!("\n################ {name} ################\n");
        let mut buf: Vec<u8> = Vec::new();
        stage(scale, &mut buf).unwrap_or_else(|e| panic!("{name} failed: {e}"));
        let path = out_dir.join(format!("{name}.txt"));
        fs::write(&path, &buf).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        std::io::stdout()
            .write_all(&buf)
            .expect("echo stage output");
    }
    println!("\nAll experiments completed.");
    mct_experiments::pipeline::finish();
}
