//! The simulator replay probe of a traced `reproduce_cold` run: where a
//! sweep grain's host time goes, layer by layer, measured from outside the
//! simulator around the calls into each layer.
//!
//! For each of the ten applications it warms a [`System`] at the default
//! configuration, records the `Scale::Quick` detailed window as a
//! [`RecordedTrace`], and replays that trace through the full system, the
//! LLC alone, and an eight-rig [`RigSet`]. The full-system replay must
//! produce the same [`RunStats`](mct_sim::RunStats) as running the window
//! on the live source.

use std::hint::black_box;
use std::time::Instant;

use mct_core::NvmConfig;
use mct_e2e_bench::now;
use mct_experiments::Scale;
use mct_sim::trace::{AccessSource, RecordedTrace};
use mct_sim::{Cache, CacheConfig, RigSet, System, SystemConfig, DEFAULT_SLICE_INSTS};
use mct_workloads::Workload;

/// Rigs in the interleaved replay, as one sweep grain batches them.
const RIGS: usize = 8;

/// Sums over the ten applications.
#[derive(Debug, Default)]
pub struct Probe {
    events: u64,
    gen_ns: f64,
    sim_ns: f64,
    llc_ns: f64,
    rigset_ns: f64,
    warmup_ms: f64,
    clone_us: f64,
    insts: u64,
    llc_hits: u64,
    llc_misses: u64,
    mem_reads: u64,
    mem_writes: u64,
    writes_slow: u64,
    cancellations: u64,
    eager_writes: u64,
    /// Applications whose replay disagreed with the live run.
    pub mismatches: Vec<&'static str>,
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e9
}

/// How many events the window of `insts` instructions consumes: the
/// shortest prefix whose instruction gaps reach `insts`, as
/// `System::run_window` pulls it.
fn window_events<S: AccessSource>(source: &mut S, insts: u64) -> usize {
    let mut gap = 0;
    let mut n = 0;
    while gap < insts {
        gap += source.next_access().gap_insts;
        n += 1;
    }
    n
}

impl Probe {
    /// Run the probe with workload seed `seed`.
    #[must_use]
    pub fn run(seed: u64) -> Probe {
        let mut p = Probe::default();
        for w in Workload::all() {
            let mut sys = System::new(
                SystemConfig::default(),
                NvmConfig::default_config().to_policy(),
            );
            let mut src = w.source(seed);
            let t = now();
            sys.warmup(&mut src, w.warmup_insts());
            p.warmup_ms += t.elapsed().as_secs_f64() * 1e3;

            let budget = w.detailed_insts(Scale::Quick.detailed_factor());
            let n = window_events(&mut src.clone(), budget);
            let mut gen_src = src.clone();
            let t = now();
            let trace = RecordedTrace::record(&mut gen_src, n);
            p.gen_ns += ns_since(t);

            let t = now();
            let mut replay = sys.clone();
            p.clone_us += t.elapsed().as_secs_f64() * 1e6;
            let t = now();
            replay.run_events(trace.events());
            p.sim_ns += ns_since(t);
            let stats = replay.finalize();
            let mut live = sys.clone();
            live.run_window(&mut src.clone(), budget);
            if live.finalize() != stats {
                p.mismatches.push(w.name());
            }

            // The LLC alone: one untimed pass to fill it, then the timed one.
            let mut llc = Cache::new(CacheConfig::llc());
            let replay_llc = |llc: &mut Cache| {
                for ev in trace.events() {
                    black_box(llc.access(ev.line, ev.kind));
                }
            };
            replay_llc(&mut llc);
            let t = now();
            replay_llc(&mut llc);
            p.llc_ns += ns_since(t);

            let mut set = RigSet::new(vec![sys.clone(); RIGS]);
            let t = now();
            set.run_window_shared(&mut src.clone(), budget, DEFAULT_SLICE_INSTS);
            p.rigset_ns += ns_since(t);
            black_box(set);

            p.events += n as u64;
            p.insts += stats.instructions;
            p.llc_hits += stats.llc.hits;
            p.llc_misses += stats.llc.misses;
            p.mem_reads += stats.mem.reads_completed;
            p.mem_writes += stats.mem.writes_completed();
            p.writes_slow += stats.mem.writes_slow;
            p.cancellations += stats.mem.cancellations;
            p.eager_writes += stats.mem.eager_writes;
        }
        p
    }

    /// The probe's per-layer metrics: host nanoseconds per trace event for
    /// each layer (the CPU-model-plus-memory share is the residual of the
    /// full replay after the LLC), per-application warmup and clone cost,
    /// and the simulated counts, which repeat exactly for a seed.
    #[must_use]
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let events = self.events.max(1) as f64;
        let apps = Workload::all().len() as f64;
        let sim = self.sim_ns / events;
        let llc = self.llc_ns / events;
        vec![
            ("workloads.gen_ns_per_event", self.gen_ns / events, "ns"),
            ("sim.ns_per_event", sim, "ns"),
            ("sim.llc_ns_per_event", llc, "ns"),
            ("sim.cpu_mem_ns_per_event", sim - llc, "ns"),
            (
                "sim.rigset8_ns_per_event",
                self.rigset_ns / events / RIGS as f64,
                "ns",
            ),
            ("sim.warmup_ms", self.warmup_ms / apps, "ms"),
            ("sim.clone_us", self.clone_us / apps, "us"),
            ("sim.events", self.events as f64, "count"),
            ("sim.minst", self.insts as f64 / 1e6, "Minst"),
            (
                "sim.llc_miss_ratio",
                self.llc_misses as f64 / (self.llc_hits + self.llc_misses).max(1) as f64,
                "ratio",
            ),
            ("sim.mem_reads", self.mem_reads as f64, "count"),
            ("sim.mem_writes", self.mem_writes as f64, "count"),
            ("sim.writes_slow", self.writes_slow as f64, "count"),
            ("sim.cancellations", self.cancellations as f64, "count"),
            ("sim.eager_writes", self.eager_writes as f64, "count"),
        ]
    }
}
