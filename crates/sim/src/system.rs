//! Whole-system simulation: cores + LLC + NVM memory controller.
//!
//! [`System`] is the single-core configuration of the paper's Tables 8/9;
//! [`MultiSystem`] is the 4-core shared-LLC configuration of Section
//! 6.2.5. Both consume LLC-input traces (see [`crate::trace`]) and
//! produce [`RunStats`].

use crate::cache::{Cache, CacheConfig};
use crate::cpu::{CpuConfig, CpuModel};
use crate::energy::EnergyModel;
use crate::fault::FaultPlan;
use crate::mem::{MemConfig, MemoryController};
use crate::policy::MellowPolicy;
use crate::stats::{PerfCounters, RunStats};
use crate::time::Time;
use crate::trace::{AccessSource, TraceEvent};
use crate::wear::WearModel;

/// Bundled configuration for a simulated system.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Core timing parameters.
    pub cpu: CpuConfig,
    /// LLC geometry.
    pub llc: CacheConfig,
    /// Memory system parameters.
    pub mem: MemConfig,
    /// Endurance / wear-leveling model.
    pub wear: WearModel,
    /// Energy model.
    pub energy: EnergyModel,
}

impl Default for SystemConfig {
    /// The paper's single-core system (Tables 8 and 9).
    fn default() -> SystemConfig {
        SystemConfig {
            cpu: CpuConfig::default(),
            llc: CacheConfig::llc(),
            mem: MemConfig::default(),
            wear: WearModel::default(),
            energy: EnergyModel::default(),
        }
    }
}

impl SystemConfig {
    /// The paper's 4-core system (Section 6.2.5): shared 8 MB LLC,
    /// 8 GB / 32-bank memory.
    #[must_use]
    pub fn multicore_4() -> SystemConfig {
        SystemConfig {
            cpu: CpuConfig::default(),
            llc: CacheConfig::llc_shared_8mb(),
            mem: MemConfig {
                banks: 32,
                ..MemConfig::default()
            },
            wear: WearModel {
                lines: 1 << 27,
                ..WearModel::default()
            },
            energy: EnergyModel::default(),
        }
    }
}

/// A single-core simulated system.
///
/// `Clone` is cheap enough to snapshot a warmed-up system and fan it out
/// across many candidate policies (the sweep engine relies on this).
#[derive(Debug, Clone)]
pub struct System {
    cpu: CpuModel,
    llc: Cache,
    mem: MemoryController,
    cfg: SystemConfig,
    /// Measurement epoch (set by [`System::reset_stats`] after warmup).
    epoch_time: Time,
    /// Instructions retired before the measurement epoch.
    epoch_insts: u64,
}

impl System {
    /// Build a system running `policy`.
    ///
    /// # Panics
    /// Panics if the configuration or policy fail validation.
    #[must_use]
    pub fn new(cfg: SystemConfig, policy: MellowPolicy) -> System {
        System {
            cpu: CpuModel::new(cfg.cpu),
            llc: Cache::new(cfg.llc),
            mem: MemoryController::new(cfg.mem.clone(), policy, cfg.wear, cfg.energy),
            cfg,
            epoch_time: Time::ZERO,
            epoch_insts: 0,
        }
    }

    /// Warm caches and queues for `insts` instructions, then reset all
    /// statistics meters — the paper's warmup methodology (Section 6.1:
    /// 6 B warmup + 2 B detailed, scaled down here).
    pub fn warmup<S: AccessSource>(&mut self, source: &mut S, insts: u64) {
        self.run_window(source, insts);
        self.reset_stats();
    }

    /// Reset statistics at a quiescent point: wear, energy, counters, LLC
    /// and stall statistics restart here, while cache contents, queue
    /// state and the clock are preserved.
    pub fn reset_stats(&mut self) {
        self.cpu.drain(&mut self.mem);
        self.mem.reset_meters();
        self.llc.reset_stats();
        self.cpu.reset_stall_stats();
        self.epoch_time = self.cpu.now().max(self.mem.now());
        self.epoch_insts = self.cpu.instructions();
    }

    /// Run until at least `insts` instructions retire; returns the stats
    /// for the whole run so far (cumulative since construction).
    pub fn run<S: AccessSource>(&mut self, source: &mut S, insts: u64) -> RunStats {
        self.run_window(source, insts);
        self.finalize()
    }

    /// Run until `insts` more instructions retire, *without* finalizing —
    /// used by the MCT runtime to interleave sampling windows cheaply.
    pub fn run_window<S: AccessSource>(&mut self, source: &mut S, insts: u64) {
        let target = self.cpu.instructions() + insts;
        while self.cpu.instructions() < target {
            let ev = source.next_access();
            self.cpu.process(ev, &mut self.llc, &mut self.mem);
        }
    }

    /// Process a pre-pulled slice of trace events, without finalizing.
    ///
    /// Processing a buffered prefix of a source is identical to pulling
    /// the same events from it one at a time — this is what lets
    /// [`crate::rigset::RigSet`] generate each event once and replay it
    /// through many systems.
    pub fn run_events(&mut self, events: &[TraceEvent]) {
        for &ev in events {
            self.cpu.process(ev, &mut self.llc, &mut self.mem);
        }
    }

    /// Snapshot the counters MCT's phase detector consumes.
    #[must_use]
    pub fn perf_counters(&self) -> PerfCounters {
        PerfCounters {
            instructions: self.cpu.instructions(),
            mem_reads: self.mem.counters().reads_issued,
            mem_writes: self.mem.counters().writes_completed(),
        }
    }

    /// Swap the active mellow-writes policy, preserving wear/energy/cache
    /// state — this models MCT reconfiguring the live system.
    ///
    /// Outstanding memory work is drained first (reconfiguration happens
    /// at a quiescent point, as a real controller would).
    pub fn set_policy(&mut self, policy: MellowPolicy) {
        policy.validate().expect("invalid mellow policy"); // mct-tidy: allow(P003) -- documented `# Panics` contract
        self.mem.set_policy_quiesced(policy);
    }

    /// Arm a deterministic fault plan on the memory substrate. Event
    /// times are relative to the current instant, so arming after warmup
    /// degrades only the measured region. Clones of the system inherit
    /// the armed runtime and its state.
    ///
    /// # Panics
    /// Panics if `plan` fails validation.
    pub fn arm_faults(&mut self, plan: &FaultPlan) {
        self.mem.arm_faults(plan);
    }

    /// Disarm any active fault plan.
    pub fn disarm_faults(&mut self) {
        self.mem.disarm_faults();
    }

    /// Whether a fault plan is currently armed.
    #[must_use]
    pub fn faults_armed(&self) -> bool {
        self.mem.faults_armed()
    }

    /// Compute final statistics for everything executed since the
    /// measurement epoch (construction, or the last [`System::reset_stats`]).
    #[must_use]
    pub fn finalize(&mut self) -> RunStats {
        self.cpu.drain(&mut self.mem);
        let mem_done = self.mem.drain_all();
        let end = self.cpu.now().max(mem_done);
        let elapsed = end.saturating_since(self.epoch_time);
        let insts = self.cpu.instructions() - self.epoch_insts;
        // Run-proportional energy terms.
        let mut energy = self.mem.energy().clone();
        energy.record_run(elapsed, insts);
        let mut cpu_cycles = elapsed.0 as f64 / self.cpu.clock().ps_per_cycle() as f64;
        let mut wear_units = self.mem.wear().wear_units();
        let mut lifetime_years = self.mem.wear().lifetime_years(elapsed);
        if let Some((cycles_factor, wear_factor)) = self.mem.draw_noise_factors() {
            // Measurement noise perturbs the *readings*, not the physics:
            // the wear meter and quota enforcement stay exact, only what
            // downstream observers see of this window is noisy.
            cpu_cycles *= cycles_factor;
            wear_units *= wear_factor;
            if lifetime_years.is_finite() {
                lifetime_years /= wear_factor;
            }
        }
        let ipc = if cpu_cycles > 0.0 {
            insts as f64 / cpu_cycles
        } else {
            0.0
        };
        RunStats {
            instructions: insts,
            elapsed,
            cpu_cycles,
            mem: *self.mem.counters(),
            llc: self.llc.stats().clone(),
            wear_units,
            lifetime_years,
            energy: energy.breakdown(),
            per_core_ipc: vec![ipc],
            read_stall_cycles: self.cpu.stats().read_stall_cycles,
            write_stall_cycles: self.cpu.stats().write_stall_cycles,
            quota_restricted_fraction: self.mem.quota_restricted_fraction(),
        }
    }

    /// The memory controller (counter inspection).
    #[must_use]
    pub fn mem(&self) -> &MemoryController {
        &self.mem
    }

    /// Export the current wear-meter counters (the persistence layer's
    /// wear-map delta source). Counters cover the current measurement
    /// epoch — they reset with [`System::reset_stats`].
    #[must_use]
    pub fn wear_snapshot(&self) -> crate::wear::WearSnapshot {
        self.mem.wear().snapshot()
    }

    /// Named memory-controller counter snapshot at the current instant,
    /// without finalizing the measurement epoch (live telemetry).
    #[must_use]
    pub fn mem_counter_snapshot(&self) -> Vec<(&'static str, u64)> {
        self.mem.counters().snapshot()
    }

    /// The LLC (statistics inspection).
    #[must_use]
    pub fn llc(&self) -> &Cache {
        &self.llc
    }

    /// The system configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Retired instructions so far.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.cpu.instructions()
    }

    /// Approximate bytes a clone of this system copies: the LLC arrays
    /// plus the memory controller's queues, tables and scrub state.
    /// Powers the warm-rig pool's snapshot-cost telemetry.
    #[must_use]
    pub fn snapshot_bytes(&self) -> usize {
        std::mem::size_of::<System>() + self.llc.heap_bytes() + self.mem.heap_bytes()
    }
}

/// A multi-core system: one trace per core, shared LLC and memory.
///
/// Cores are interleaved in event-arrival order, so the shared memory
/// controller sees a (nearly) time-ordered request stream.
#[derive(Debug, Clone)]
pub struct MultiSystem {
    cores: Vec<CpuModel>,
    llc: Cache,
    mem: MemoryController,
    epoch_time: Time,
    epoch_insts: Vec<u64>,
}

impl MultiSystem {
    /// Build an `n_cores` system running `policy`.
    ///
    /// Each core's address space is offset to a disjoint region, modeling
    /// separate working sets of a multi-program mix.
    ///
    /// # Panics
    /// Panics if `n_cores` is zero or validation fails.
    #[must_use]
    pub fn new(cfg: SystemConfig, policy: MellowPolicy, n_cores: usize) -> MultiSystem {
        assert!(n_cores >= 1, "need at least one core");
        MultiSystem {
            cores: (0..n_cores)
                .map(|i| CpuModel::new(cfg.cpu).with_addr_offset((i as u64) << 40))
                .collect(),
            llc: Cache::new(cfg.llc),
            mem: MemoryController::new(cfg.mem.clone(), policy, cfg.wear, cfg.energy),
            epoch_time: Time::ZERO,
            epoch_insts: vec![0; n_cores],
        }
    }

    /// Warm caches and queues for `insts_per_core` instructions per core,
    /// then reset all statistics meters.
    pub fn warmup<S: AccessSource>(&mut self, sources: &mut [S], insts_per_core: u64) {
        self.run_window(sources, insts_per_core);
        self.reset_stats();
    }

    /// Reset statistics at a quiescent point (see [`System::reset_stats`]).
    pub fn reset_stats(&mut self) {
        for core in &mut self.cores {
            core.drain(&mut self.mem);
        }
        self.mem.reset_meters();
        self.llc.reset_stats();
        let mut end = self.mem.now();
        for (i, core) in self.cores.iter_mut().enumerate() {
            core.reset_stall_stats();
            self.epoch_insts[i] = core.instructions();
            end = end.max(core.now());
        }
        self.epoch_time = end;
    }

    /// Run until every core has retired at least `insts_per_core` more
    /// instructions, without finalizing.
    ///
    /// # Panics
    /// Panics if `sources.len()` differs from the core count.
    pub fn run_window<S: AccessSource>(&mut self, sources: &mut [S], insts_per_core: u64) {
        assert_eq!(sources.len(), self.cores.len(), "one source per core");
        let targets: Vec<u64> = self
            .cores
            .iter()
            .map(|c| c.instructions() + insts_per_core)
            .collect();
        // Peek-ahead: per-core next event and its start time.
        let mut pending: Vec<_> = sources.iter_mut().map(|s| s.next_access()).collect();
        loop {
            // Pick the earliest unfinished core.
            let mut best: Option<(usize, Time)> = None;
            for (i, core) in self.cores.iter().enumerate() {
                if core.instructions() >= targets[i] {
                    continue;
                }
                let t = core.next_event_time(pending[i].gap_insts);
                if best.is_none_or(|(_, bt)| t < bt) {
                    best = Some((i, t));
                }
            }
            let Some((i, _)) = best else { break };
            self.cores[i].process(pending[i], &mut self.llc, &mut self.mem);
            pending[i] = sources[i].next_access();
        }
    }

    /// Run until every core has retired at least `insts_per_core` more
    /// instructions; `sources` must provide one trace per core.
    ///
    /// # Panics
    /// Panics if `sources.len()` differs from the core count.
    pub fn run<S: AccessSource>(&mut self, sources: &mut [S], insts_per_core: u64) -> RunStats {
        self.run_window(sources, insts_per_core);
        self.finalize()
    }

    /// Swap the active mellow-writes policy at a quiescent point
    /// (see [`System::set_policy`]).
    pub fn set_policy(&mut self, policy: MellowPolicy) {
        policy.validate().expect("invalid mellow policy"); // mct-tidy: allow(P003) -- documented `# Panics` contract
        for core in &mut self.cores {
            core.drain(&mut self.mem);
        }
        self.mem.set_policy_quiesced(policy);
    }

    /// Compute final statistics since the measurement epoch.
    #[must_use]
    pub fn finalize(&mut self) -> RunStats {
        let mut end = Time::ZERO;
        let mut total_insts = 0;
        let mut read_stall = 0.0;
        let mut write_stall = 0.0;
        for (i, core) in self.cores.iter_mut().enumerate() {
            core.drain(&mut self.mem);
            end = end.max(core.now());
            total_insts += core.instructions() - self.epoch_insts[i];
            read_stall += core.stats().read_stall_cycles;
            write_stall += core.stats().write_stall_cycles;
        }
        end = end.max(self.mem.drain_all());
        let elapsed = end.saturating_since(self.epoch_time);
        let clock = self.cores[0].clock();
        let cpu_cycles = elapsed.0 as f64 / clock.ps_per_cycle() as f64;
        let epoch_time = self.epoch_time;
        let epoch_insts = &self.epoch_insts;
        let per_core_ipc = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let cycles =
                    c.now().saturating_since(epoch_time).0 as f64 / clock.ps_per_cycle() as f64;
                if cycles > 0.0 {
                    (c.instructions() - epoch_insts[i]) as f64 / cycles
                } else {
                    0.0
                }
            })
            .collect();
        let mut energy = self.mem.energy().clone();
        energy.record_run(elapsed, total_insts);
        RunStats {
            instructions: total_insts,
            elapsed,
            cpu_cycles,
            mem: *self.mem.counters(),
            llc: self.llc.stats().clone(),
            wear_units: self.mem.wear().wear_units(),
            lifetime_years: self.mem.wear().lifetime_years(elapsed),
            energy: energy.breakdown(),
            per_core_ipc,
            read_stall_cycles: read_stall,
            write_stall_cycles: write_stall,
            quota_restricted_fraction: self.mem.quota_restricted_fraction(),
        }
    }

    /// The shared memory controller.
    #[must_use]
    pub fn mem(&self) -> &MemoryController {
        &self.mem
    }

    /// Snapshot aggregate perf counters across all cores.
    #[must_use]
    pub fn perf_counters(&self) -> PerfCounters {
        PerfCounters {
            instructions: self.cores.iter().map(CpuModel::instructions).sum(),
            mem_reads: self.mem.counters().reads_issued,
            mem_writes: self.mem.counters().writes_completed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{AccessKind, AccessSource, TraceEvent};

    /// Mixed read/write source with a tunable working set.
    struct Synthetic {
        i: u64,
        working_set: u64,
        write_every: u64,
        gap: u64,
    }

    impl AccessSource for Synthetic {
        fn next_access(&mut self) -> TraceEvent {
            self.i += 1;
            let kind = if self.i.is_multiple_of(self.write_every) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            // A simple LCG walk over the working set.
            let line = (self
                .i
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493))
                % self.working_set;
            TraceEvent {
                gap_insts: self.gap,
                kind,
                line,
            }
        }
    }

    /// Working set of 4x the LLC so demand misses and dirty evictions flow
    /// steadily; gap 5 makes the stream memory-intensive.
    fn source() -> Synthetic {
        Synthetic {
            i: 0,
            working_set: 1 << 17,
            write_every: 3,
            gap: 5,
        }
    }

    #[test]
    fn single_core_run_produces_consistent_stats() {
        let mut sys = System::new(SystemConfig::default(), MellowPolicy::default_fast());
        let stats = sys.run(&mut source(), 400_000);
        assert!(stats.instructions >= 400_000);
        assert!(
            stats.ipc() > 0.01 && stats.ipc() < 2.5,
            "ipc={}",
            stats.ipc()
        );
        assert!(stats.lifetime_years > 0.0);
        assert!(stats.energy.total() > 0.0);
        assert_eq!(stats.mem.reads_completed, stats.mem.reads_issued);
        assert!(stats.mem.writes_completed() > 0, "dirty evictions expected");
    }

    #[test]
    fn slow_writes_extend_lifetime_and_cost_ipc() {
        let run = |policy: MellowPolicy| {
            let mut sys = System::new(SystemConfig::default(), policy);
            sys.run(&mut source(), 400_000).metrics()
        };
        let fast = run(MellowPolicy::default_fast());
        let slow = run(MellowPolicy {
            fast_latency: 3.0,
            slow_latency: 3.0,
            ..MellowPolicy::default_fast()
        });
        assert!(fast.lifetime_years.is_finite(), "writes must reach memory");
        assert!(
            slow.lifetime_years > fast.lifetime_years * 4.0,
            "3x writes should endure ~9x: fast={} slow={}",
            fast.lifetime_years,
            slow.lifetime_years
        );
        assert!(
            slow.ipc <= fast.ipc,
            "slow writes cannot speed the system up"
        );
    }

    #[test]
    fn default_config_matches_paper_scale() {
        // Memory-intensive synthetic: default-config lifetime should land
        // in the low-years range (Figure 7's default misses 8y).
        let mut sys = System::new(SystemConfig::default(), MellowPolicy::default_fast());
        let stats = sys.run(&mut source(), 500_000);
        assert!(
            stats.lifetime_years > 0.05 && stats.lifetime_years < 100.0,
            "lifetime {}y is out of plausible range",
            stats.lifetime_years
        );
    }

    /// Hot reused lines plus cold write-once lines: the cold dirty lines
    /// sink to the LLC tail, which is what eager mellow writebacks drain.
    struct HotCold {
        i: u64,
        cold: u64,
    }

    impl AccessSource for HotCold {
        fn next_access(&mut self) -> TraceEvent {
            self.i += 1;
            if self.i.is_multiple_of(8) {
                self.cold += 1;
                TraceEvent {
                    gap_insts: 50,
                    kind: AccessKind::Write,
                    line: (1 << 30) + self.cold,
                }
            } else {
                let hot = (self.i.wrapping_mul(2862933555777941757)) % 4096;
                TraceEvent {
                    gap_insts: 50,
                    kind: AccessKind::Read,
                    line: hot,
                }
            }
        }
    }

    #[test]
    fn eager_writebacks_produce_eager_traffic() {
        let policy = MellowPolicy {
            eager_threshold: Some(4),
            slow_latency: 2.0,
            ..MellowPolicy::default_fast()
        };
        let mut sys = System::new(SystemConfig::default(), policy);
        let stats = sys.run(&mut HotCold { i: 0, cold: 0 }, 2_000_000);
        assert!(stats.mem.eager_writes > 0, "{:?}", stats.mem);
        assert!(stats.llc.eager_cleaned > 0);
    }

    #[test]
    fn multicore_runs_all_cores() {
        let mut sys =
            MultiSystem::new(SystemConfig::multicore_4(), MellowPolicy::default_fast(), 4);
        let mut sources = vec![source(), source(), source(), source()];
        let stats = sys.run(&mut sources, 50_000);
        assert_eq!(stats.per_core_ipc.len(), 4);
        assert!(stats.instructions >= 200_000);
        assert!(stats.geomean_ipc() > 0.0);
    }

    #[test]
    fn multicore_contention_lowers_per_core_ipc() {
        let mut solo = System::new(SystemConfig::multicore_4(), MellowPolicy::default_fast());
        let solo_ipc = solo.run(&mut source(), 50_000).ipc();
        let mut sys =
            MultiSystem::new(SystemConfig::multicore_4(), MellowPolicy::default_fast(), 4);
        let mut sources = vec![source(), source(), source(), source()];
        let stats = sys.run(&mut sources, 50_000);
        let mean: f64 = stats.per_core_ipc.iter().sum::<f64>() / 4.0;
        assert!(
            mean <= solo_ipc * 1.05,
            "contention: mean={mean} solo={solo_ipc}"
        );
    }

    #[test]
    fn perf_counters_monotone() {
        let mut sys = System::new(SystemConfig::default(), MellowPolicy::default_fast());
        let c0 = sys.perf_counters();
        sys.run_window(&mut source(), 50_000);
        let c1 = sys.perf_counters();
        assert!(c1.instructions > c0.instructions);
        assert!(c1.workload_since(&c0) > 0);
    }
}
