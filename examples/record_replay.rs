//! Record/replay: record one LLC-input trace from a workload generator,
//! then replay the identical event stream against several NVM policies.
//!
//! Workload generators emit LLC-input accesses (`mct-sim::trace`), so a
//! recording is exactly what the simulated LLC sees. Replaying it holds the
//! input fixed while only the memory policy changes.
//!
//! ```sh
//! cargo run --release --example record_replay
//! ```

use memory_cocktail_therapy::framework::NvmConfig;
use memory_cocktail_therapy::sim::trace::RecordedTrace;
use memory_cocktail_therapy::sim::{System, SystemConfig};
use memory_cocktail_therapy::workloads::Workload;

/// Recorded LLC-input events; the first quarter warms the LLC and queues.
const EVENTS: usize = 200_000;

fn main() {
    let workload = Workload::Leslie3d;
    let trace = RecordedTrace::record(&mut workload.source(7), EVENTS);
    let (warm, measured) = trace.events().split_at(EVENTS / 4);
    let insts: u64 = measured.iter().map(|ev| ev.gap_insts).sum();
    let writes = measured.iter().filter(|ev| ev.kind.is_write()).count();
    println!(
        "{workload}: recorded {EVENTS} LLC-input events; measuring {} of them \
         ({insts} instructions, {:.1}% writes)",
        measured.len(),
        100.0 * writes as f64 / measured.len() as f64
    );

    println!(
        "\n{:<28} {:>7} {:>10} {:>9}",
        "policy", "ipc", "life(y)", "rowhit%"
    );
    for (name, cfg) in [
        ("default", NvmConfig::default_config()),
        (
            "slow 2.5x",
            NvmConfig {
                fast_latency: 2.5,
                slow_latency: 2.5,
                ..NvmConfig::default_config()
            },
        ),
        ("static baseline", NvmConfig::static_baseline()),
    ] {
        let mut sys = System::new(SystemConfig::default(), cfg.to_policy());
        sys.run_events(warm);
        sys.reset_stats();
        sys.run_events(measured);
        let stats = sys.finalize();
        println!(
            "{:<28} {:>7.3} {:>10.2} {:>8.1}%",
            name,
            stats.ipc(),
            stats.lifetime_years.min(999.0),
            100.0 * stats.mem.row_hits as f64 / stats.mem.reads_completed.max(1) as f64,
        );
    }
}
