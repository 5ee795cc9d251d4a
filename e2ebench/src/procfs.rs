//! This process's CPU time and peak memory, read from `/proc/self`.

use std::collections::BTreeMap;

use mct_e2e_bench::{parse_cpu_ticks, parse_vm_hwm_kib, TICKS_PER_SECOND};

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))
}

/// User plus system CPU seconds of every thread of this process so far.
///
/// # Errors
/// `/proc/self/stat` unreadable or malformed.
pub fn cpu_seconds() -> Result<f64, String> {
    let (user, sys) =
        parse_cpu_ticks(&read("/proc/self/stat")?).map_err(|e| format!("/proc/self/stat: {e}"))?;
    Ok((user + sys) as f64 / TICKS_PER_SECOND)
}

/// Peak resident set size of this process, MiB.
///
/// # Errors
/// `/proc/self/status` unreadable or malformed.
pub fn peak_rss_mib() -> Result<f64, String> {
    let kib = parse_vm_hwm_kib(&read("/proc/self/status")?)
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    Ok(kib as f64 / 1024.0)
}

/// CPU nanoseconds used so far by each of this process's threads other
/// than the main one, which runs the benchmark's own timing, by thread id.
/// Compare two reads with [`mct_e2e_bench::cpu_ns_between`].
///
/// # Errors
/// `/proc/self/task` unreadable or malformed.
pub fn other_threads_cpu_ns() -> Result<BTreeMap<u32, u64>, String> {
    let main = std::process::id();
    let tasks =
        std::fs::read_dir("/proc/self/task").map_err(|e| format!("read /proc/self/task: {e}"))?;
    let mut by_tid = BTreeMap::new();
    for task in tasks.flatten() {
        let name = task.file_name();
        let tid: u32 = name
            .to_str()
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("/proc/self/task: not a thread id: {name:?}"))?;
        if tid == main {
            continue;
        }
        // A thread that exits between the listing and this read is gone
        // from the next read too; skip it.
        let Ok(stat) = std::fs::read_to_string(task.path().join("schedstat")) else {
            continue;
        };
        let ns = stat.split_whitespace().next().unwrap_or_default();
        let ns = ns
            .parse()
            .map_err(|_| format!("schedstat: not a number: {ns:?}"))?;
        by_tid.insert(tid, ns);
    }
    Ok(by_tid)
}
