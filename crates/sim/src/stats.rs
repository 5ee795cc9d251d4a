//! Run-level statistics and the IPC/lifetime/energy objective triple.

use serde::{Deserialize, Serialize};

use crate::cache::CacheStats;
use crate::energy::EnergyBreakdown;
use crate::mem::MemCounters;
use crate::time::Duration;

/// The three-dimensional tradeoff vector of the paper (Section 4.1.2):
/// everything MCT learns and optimizes is expressed in these units.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Instructions per (CPU) cycle.
    pub ipc: f64,
    /// Projected memory lifetime in years.
    pub lifetime_years: f64,
    /// Total system energy for the run, joules.
    pub energy_j: f64,
}

/// Sentinel magnitude for normalization ratios that would otherwise be
/// non-finite (zero or infinite baseline components). Downstream
/// regression requires finite targets.
const NORM_SENTINEL: f64 = 1e3;

/// `x / base` with degenerate cases mapped to finite sentinels:
/// inf/inf and 0/0 are "no change" (1.0), a blowup (`inf/finite`,
/// `finite/degenerate`) saturates at [`NORM_SENTINEL`], a collapse
/// (`finite/inf`) at its reciprocal. A baseline at or below zero (a
/// wedged counter can report a negative energy delta) is degenerate:
/// dividing by it would flip the ratio's sign and silently invert the
/// optimizer's preference, so it saturates instead.
fn safe_ratio(x: f64, base: f64) -> f64 {
    match (x.is_infinite(), base.is_infinite()) {
        (true, true) => 1.0,
        (true, false) => NORM_SENTINEL,
        (false, true) => 1.0 / NORM_SENTINEL,
        (false, false) => {
            if base <= 0.0 || x.is_nan() || base.is_nan() {
                if x == base {
                    1.0
                } else {
                    NORM_SENTINEL
                }
            } else {
                x / base
            }
        }
    }
}

impl Metrics {
    /// Element-wise ratio `self / base` (the paper's normalization to the
    /// baseline configuration, Section 4.4).
    ///
    /// Degenerate baselines (zero or infinite components — an idle phase
    /// can measure zero IPC and infinite lifetime) normalize to finite
    /// sentinels so that downstream regression stays finite.
    #[must_use]
    pub fn normalized_to(&self, base: &Metrics) -> Metrics {
        Metrics {
            ipc: safe_ratio(self.ipc, base.ipc),
            lifetime_years: safe_ratio(self.lifetime_years, base.lifetime_years),
            energy_j: safe_ratio(self.energy_j, base.energy_j),
        }
    }

    /// Element-wise product `self * base` (denormalization). `0 * inf`
    /// products collapse to zero rather than NaN.
    #[must_use]
    pub fn denormalized_by(&self, base: &Metrics) -> Metrics {
        let safe_product = |x: f64, b: f64| {
            let p = x * b;
            if p.is_nan() {
                0.0
            } else {
                p
            }
        };
        Metrics {
            ipc: safe_product(self.ipc, base.ipc),
            lifetime_years: safe_product(self.lifetime_years, base.lifetime_years),
            energy_j: safe_product(self.energy_j, base.energy_j),
        }
    }

    /// View as a `[ipc, lifetime, energy]` array (ML feature plumbing).
    #[must_use]
    pub fn to_array(&self) -> [f64; 3] {
        [self.ipc, self.lifetime_years, self.energy_j]
    }

    /// Build from a `[ipc, lifetime, energy]` array.
    #[must_use]
    pub fn from_array(a: [f64; 3]) -> Metrics {
        Metrics {
            ipc: a[0],
            lifetime_years: a[1],
            energy_j: a[2],
        }
    }
}

/// Full statistics for one simulated run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Total retired instructions (all cores).
    pub instructions: u64,
    /// Simulated wall time (latest core completion).
    pub elapsed: Duration,
    /// CPU cycles corresponding to `elapsed` on the core clock.
    pub cpu_cycles: f64,
    /// Aggregate memory-controller event counters.
    pub mem: MemCounters,
    /// LLC statistics.
    pub llc: CacheStats,
    /// Total wear units charged.
    pub wear_units: f64,
    /// Projected lifetime, years.
    pub lifetime_years: f64,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Per-core IPC (length 1 for single-core runs).
    pub per_core_ipc: Vec<f64>,
    /// Cycles lost to MLP-saturation read stalls (all cores).
    pub read_stall_cycles: f64,
    /// Cycles lost to write backpressure (all cores).
    pub write_stall_cycles: f64,
    /// Fraction of wear-quota slices that were restricted.
    pub quota_restricted_fraction: f64,
}

impl RunStats {
    /// Aggregate IPC: total instructions over elapsed CPU cycles.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cpu_cycles <= 0.0 {
            return 0.0;
        }
        self.instructions as f64 / self.cpu_cycles
    }

    /// Geometric-mean of per-core IPCs (the multi-program metric of
    /// Section 6.2.5).
    #[must_use]
    pub fn geomean_ipc(&self) -> f64 {
        if self.per_core_ipc.is_empty() {
            return 0.0;
        }
        let log_sum: f64 = self.per_core_ipc.iter().map(|x| x.max(1e-12).ln()).sum();
        (log_sum / self.per_core_ipc.len() as f64).exp()
    }

    /// Per-core IPC fairness: `min / max` of per-core IPCs (1.0 = all
    /// cores progress equally). The paper leaves multi-program fairness
    /// as future work (Section 6.2.5); this is the hook for it.
    #[must_use]
    pub fn fairness(&self) -> f64 {
        if self.per_core_ipc.len() < 2 {
            return 1.0;
        }
        let max = self.per_core_ipc.iter().cloned().fold(f64::MIN, f64::max);
        let min = self.per_core_ipc.iter().cloned().fold(f64::MAX, f64::min);
        if max <= 0.0 {
            return 1.0;
        }
        (min / max).max(0.0)
    }

    /// The objective triple for this run.
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        Metrics {
            ipc: self.ipc(),
            lifetime_years: self.lifetime_years,
            energy_j: self.energy.total(),
        }
    }

    /// Memory accesses (reads + completed writes) per kilo-instruction.
    #[must_use]
    pub fn mem_accesses_per_kinst(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        (self.mem.reads_completed + self.mem.writes_completed()) as f64
            / (self.instructions as f64 / 1e3)
    }

    /// Named memory-controller counter snapshot, in declaration order.
    /// The telemetry layer records these into its registry without
    /// needing to know the [`MemCounters`] layout.
    #[must_use]
    pub fn mem_counter_snapshot(&self) -> Vec<(&'static str, u64)> {
        self.mem.snapshot()
    }
}

/// A snapshot of the performance counters MCT's phase detector consumes
/// (Section 5.1: "memory workload, including both read requests and write
/// requests", per fixed instruction window).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PerfCounters {
    /// Instructions retired at snapshot time.
    pub instructions: u64,
    /// Demand reads issued to memory.
    pub mem_reads: u64,
    /// Demand writes issued to memory.
    pub mem_writes: u64,
}

impl PerfCounters {
    /// Memory requests between two snapshots (`later - self`).
    #[must_use]
    pub fn workload_since(&self, earlier: &PerfCounters) -> u64 {
        (self.mem_reads - earlier.mem_reads) + (self.mem_writes - earlier.mem_writes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(ipc: f64, life: f64, e: f64) -> Metrics {
        Metrics {
            ipc,
            lifetime_years: life,
            energy_j: e,
        }
    }

    #[test]
    fn normalize_round_trip() {
        let base = m(1.0, 8.0, 10.0);
        let x = m(1.2, 4.0, 12.0);
        let n = x.normalized_to(&base);
        assert!((n.ipc - 1.2).abs() < 1e-12);
        assert!((n.lifetime_years - 0.5).abs() < 1e-12);
        let back = n.denormalized_by(&base);
        assert!((back.energy_j - 12.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_handles_infinite_lifetime() {
        let base = m(1.0, 8.0, 10.0);
        let inf = m(1.0, f64::INFINITY, 10.0);
        assert!(inf.normalized_to(&base).lifetime_years.is_finite());
        assert!(base.normalized_to(&inf).lifetime_years.is_finite());
        assert!((inf.normalized_to(&inf).lifetime_years - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_guards_zero_baseline() {
        // An idle phase can measure ipc 0, energy 0 — normalization must
        // still produce finite regression targets.
        let zero = m(0.0, 0.0, 0.0);
        let x = m(1.0, 4.0, 2.0);
        let n = x.normalized_to(&zero);
        assert!(n.ipc.is_finite());
        assert!(n.lifetime_years.is_finite());
        assert!(n.energy_j.is_finite());
        // Zero over zero is "no change".
        let id = zero.normalized_to(&zero);
        assert_eq!(id, m(1.0, 1.0, 1.0));
        // Denormalizing against the degenerate baseline stays finite too.
        let back = n.denormalized_by(&zero);
        assert!(back.ipc.is_finite() && back.energy_j.is_finite());
    }

    #[test]
    fn normalize_guards_negative_and_nonfinite_baselines() {
        let x = m(1.0, 4.0, 2.0);
        // A negative baseline component must not flip the ratio's sign:
        // it saturates at the sentinel like other degenerate bases.
        let neg = m(-1.0, 8.0, 10.0);
        let n = x.normalized_to(&neg);
        assert!(n.ipc > 0.0, "no sign flip: {}", n.ipc);
        assert!(n.ipc.is_finite());
        // A NaN baseline yields finite sentinels, never NaN.
        let nan = m(f64::NAN, 8.0, 10.0);
        let n = x.normalized_to(&nan);
        assert!(n.ipc.is_finite() && !n.ipc.is_nan());
        // x == base still means "no change" for the negative case.
        assert_eq!(neg.normalized_to(&neg).ipc, 1.0);
    }

    #[test]
    fn denormalize_zero_times_infinity_is_zero() {
        let base = m(1.0, f64::INFINITY, 1.0);
        let x = m(1.0, 0.0, 1.0);
        assert_eq!(x.denormalized_by(&base).lifetime_years, 0.0);
    }

    #[test]
    fn mem_counter_snapshot_names_are_unique() {
        let stats = RunStats {
            instructions: 0,
            elapsed: Duration::ZERO,
            cpu_cycles: 0.0,
            mem: MemCounters::default(),
            llc: CacheStats::default(),
            wear_units: 0.0,
            lifetime_years: 0.0,
            energy: EnergyBreakdown::default(),
            per_core_ipc: vec![],
            read_stall_cycles: 0.0,
            write_stall_cycles: 0.0,
            quota_restricted_fraction: 0.0,
        };
        let snap = stats.mem_counter_snapshot();
        assert!(snap.len() >= 10);
        let mut names: Vec<&str> = snap.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), snap.len());
    }

    #[test]
    fn array_round_trip() {
        let x = m(0.9, 6.5, 3.2);
        assert_eq!(Metrics::from_array(x.to_array()), x);
    }

    #[test]
    fn geomean_ipc() {
        let stats = RunStats {
            instructions: 0,
            elapsed: Duration::ZERO,
            cpu_cycles: 0.0,
            mem: MemCounters::default(),
            llc: CacheStats::default(),
            wear_units: 0.0,
            lifetime_years: 0.0,
            energy: EnergyBreakdown::default(),
            per_core_ipc: vec![1.0, 4.0],
            read_stall_cycles: 0.0,
            write_stall_cycles: 0.0,
            quota_restricted_fraction: 0.0,
        };
        assert!((stats.geomean_ipc() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fairness_metric() {
        let mut stats = RunStats {
            instructions: 0,
            elapsed: Duration::ZERO,
            cpu_cycles: 0.0,
            mem: MemCounters::default(),
            llc: CacheStats::default(),
            wear_units: 0.0,
            lifetime_years: 0.0,
            energy: EnergyBreakdown::default(),
            per_core_ipc: vec![1.0, 0.5, 2.0, 1.0],
            read_stall_cycles: 0.0,
            write_stall_cycles: 0.0,
            quota_restricted_fraction: 0.0,
        };
        assert!((stats.fairness() - 0.25).abs() < 1e-12);
        stats.per_core_ipc = vec![1.0];
        assert_eq!(stats.fairness(), 1.0, "single core is trivially fair");
        stats.per_core_ipc = vec![0.8, 0.8];
        assert!((stats.fairness() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perf_counter_deltas() {
        let a = PerfCounters {
            instructions: 100,
            mem_reads: 10,
            mem_writes: 5,
        };
        let b = PerfCounters {
            instructions: 200,
            mem_reads: 25,
            mem_writes: 10,
        };
        assert_eq!(b.workload_since(&a), 20);
    }
}
