//! Property-based tests for the simulation substrate.

use proptest::prelude::*;

use mct_sim::cache::{AccessOutcome, Cache, CacheConfig, CacheStats, Evicted};
use mct_sim::energy::EnergyModel;
use mct_sim::mem::{MemConfig, MemoryController};
use mct_sim::policy::{CancellationMode, MellowPolicy};
use mct_sim::system::{System, SystemConfig};
use mct_sim::time::Time;
use mct_sim::trace::{AccessKind, RecordedTrace, TraceEvent};
use mct_sim::wear::WearModel;

/// Strategy: a valid mellow policy.
fn arb_policy() -> impl Strategy<Value = MellowPolicy> {
    (
        0usize..7,
        0usize..7,
        prop_oneof![
            Just(CancellationMode::None),
            Just(CancellationMode::SlowOnly),
            Just(CancellationMode::Both)
        ],
        proptest::option::of(1u32..=4),
        proptest::option::of(prop_oneof![Just(4u32), Just(8), Just(16), Just(32)]),
        proptest::option::of(4.0f64..=10.0),
    )
        .prop_map(|(fi, extra, cancellation, bank, eager, quota)| {
            let grid = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0];
            MellowPolicy {
                fast_latency: grid[fi],
                slow_latency: grid[(fi + extra).min(6)],
                cancellation,
                bank_aware_threshold: bank,
                eager_threshold: eager,
                wear_quota_target_years: quota,
                retention: None,
                turbo_read: None,
            }
        })
}

/// Strategy: a short trace with mixed reads/writes.
fn arb_trace() -> impl Strategy<Value = RecordedTrace> {
    proptest::collection::vec((1u64..200, any::<bool>(), 0u64..100_000), 10..80).prop_map(
        |events| {
            RecordedTrace::new(
                events
                    .into_iter()
                    .map(|(gap, w, line)| TraceEvent {
                        gap_insts: gap,
                        kind: if w {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        },
                        line,
                    })
                    .collect(),
            )
        },
    )
}

/// Reference LLC for the differential test: one `Vec` of lines per set,
/// MRU first, with the plain remove/insert LRU moves the flat arena in
/// `mct_sim::cache` must reproduce bit for bit.
#[derive(Debug, Clone)]
struct RefCache {
    ways: usize,
    /// Per set, MRU first: `(line, dirty, eager_cleaned)`.
    sets: Vec<Vec<(u64, bool, bool)>>,
    stats: CacheStats,
    scan_cursor: usize,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> RefCache {
        RefCache {
            ways: cfg.ways,
            sets: vec![Vec::new(); cfg.sets()],
            stats: RefCache::zeroed(cfg.ways),
            scan_cursor: 0,
        }
    }

    fn zeroed(ways: usize) -> CacheStats {
        CacheStats {
            stack_hits: vec![0; ways],
            ..CacheStats::default()
        }
    }

    fn access(&mut self, line: u64, kind: AccessKind) -> AccessOutcome {
        let n = self.sets.len() as u64;
        let set = &mut self.sets[(line % n) as usize];
        if let Some(pos) = set.iter().position(|l| l.0 == line) {
            self.stats.hits += 1;
            self.stats.stack_hits[pos] += 1;
            let (_, mut dirty, mut cleaned) = set.remove(pos);
            let mut eager_rewrite = false;
            if kind.is_write() {
                if cleaned && !dirty {
                    eager_rewrite = true;
                    self.stats.eager_rewrites += 1;
                }
                dirty = true;
                cleaned = false;
            }
            set.insert(0, (line, dirty, cleaned));
            return AccessOutcome {
                hit: true,
                evicted: None,
                eager_rewrite,
            };
        }
        self.stats.misses += 1;
        let mut evicted = None;
        if set.len() == self.ways {
            let (victim, dirty, _) = set.pop().unwrap();
            self.stats.writebacks += u64::from(dirty);
            evicted = Some(Evicted {
                line: victim,
                dirty,
            });
        }
        set.insert(0, (line, kind.is_write(), false));
        AccessOutcome {
            hit: false,
            evicted,
            eager_rewrite: false,
        }
    }

    fn useless_suffix(&self, eager_threshold: u32) -> usize {
        if self.stats.hits == 0 {
            return 0;
        }
        let budget = self.stats.hits as f64 / eager_threshold as f64;
        let mut acc = 0.0;
        let mut n = 0;
        for pos in (0..self.ways).rev() {
            acc += self.stats.stack_hits[pos] as f64;
            if acc >= budget {
                break;
            }
            n = self.ways - pos;
        }
        n
    }

    fn scan_eager(
        &mut self,
        eager_threshold: u32,
        max_sets: usize,
        mut offer: impl FnMut(u64) -> bool,
    ) {
        let n = self.useless_suffix(eager_threshold);
        if n == 0 {
            return;
        }
        let nsets = self.sets.len();
        for _ in 0..max_sets.min(nsets) {
            let set = &mut self.sets[self.scan_cursor];
            self.scan_cursor = (self.scan_cursor + 1) % nsets;
            for l in set.iter_mut().skip(self.ways - n) {
                if l.1 && offer(l.0) {
                    l.1 = false;
                    l.2 = true;
                    self.stats.eager_cleaned += 1;
                }
            }
        }
    }

    fn flush(&mut self, mut writeback: impl FnMut(u64)) {
        for set in &mut self.sets {
            for (line, dirty, _) in set.drain(..) {
                if dirty {
                    writeback(line);
                }
            }
        }
    }
}

/// One step of the differential cache test.
#[derive(Debug, Clone)]
enum CacheOp {
    Access(u64, bool),
    /// Threshold, sets to scan, and a bit pattern: the k-th offer of the
    /// scan is accepted when bit `k % 64` is set.
    ScanEager(u32, usize, u64),
    Flush,
    ResetStats,
}

/// Strategy: a cache line, mostly from a small pool that collides in
/// sets, sometimes from the top of the `u64` line space.
fn arb_line() -> impl Strategy<Value = u64> {
    (0u32..12, 0u64..24).prop_map(|(pick, k)| match pick {
        0 => u64::MAX,
        1 => u64::MAX - 1,
        2 => 1 << 63,
        3 => (1 << 63) + 1,
        4 | 5 => (3 << 40) + k % 8,
        _ => k,
    })
}

/// Strategy: mostly accesses, sometimes an eager scan, a flush or a stats
/// reset.
fn arb_cache_op() -> impl Strategy<Value = CacheOp> {
    (
        0u32..21,
        arb_line(),
        any::<bool>(),
        0u32..3,
        0usize..6,
        any::<u64>(),
    )
        .prop_map(|(pick, line, write, t, sets, accept)| match pick {
            0..=2 => CacheOp::ScanEager(2 << t, sets, accept),
            3 => CacheOp::Flush,
            4 => CacheOp::ResetStats,
            _ => CacheOp::Access(line, write),
        })
}

/// Strategy: a tiny geometry of `sets x ways` 64-byte lines.
fn arb_geometry() -> impl Strategy<Value = CacheConfig> {
    (prop_oneof![Just(1usize), Just(2), Just(4)], 1usize..=5).prop_map(|(sets, ways)| CacheConfig {
        size_bytes: (sets * ways * 64) as u64,
        ways,
        line_bytes: 64,
        hit_latency_cycles: 1,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flat_cache_matches_per_set_reference(
        cfg in arb_geometry(),
        ops in proptest::collection::vec(arb_cache_op(), 1..200),
    ) {
        let mut flat = Cache::new(cfg);
        let mut reference = RefCache::new(cfg);
        let arena = cfg.sets() * cfg.ways * (std::mem::size_of::<u64>() + 1);
        prop_assert_eq!(flat.heap_bytes(), arena);
        for op in ops {
            match op {
                CacheOp::Access(line, write) => {
                    let kind = if write { AccessKind::Write } else { AccessKind::Read };
                    prop_assert_eq!(flat.access(line, kind), reference.access(line, kind));
                    prop_assert!(flat.contains(line));
                }
                CacheOp::ScanEager(threshold, sets, accept) => {
                    prop_assert_eq!(flat.useless_suffix(threshold), reference.useless_suffix(threshold));
                    let decide = |offered: &mut Vec<u64>, line: u64| {
                        offered.push(line);
                        accept >> (offered.len() % 64) & 1 == 1
                    };
                    let (mut a, mut b) = (Vec::new(), Vec::new());
                    flat.scan_eager(threshold, sets, |l| decide(&mut a, l));
                    reference.scan_eager(threshold, sets, |l| decide(&mut b, l));
                    prop_assert_eq!(a, b);
                }
                CacheOp::Flush => {
                    let (mut a, mut b) = (Vec::new(), Vec::new());
                    flat.flush(|l| a.push(l));
                    reference.flush(|l| b.push(l));
                    prop_assert_eq!(a, b);
                }
                CacheOp::ResetStats => {
                    flat.reset_stats();
                    reference.stats = RefCache::zeroed(cfg.ways);
                }
            }
            prop_assert_eq!(flat.stats(), &reference.stats);
            for set in &reference.sets {
                for &(line, _, _) in set {
                    prop_assert!(flat.contains(line));
                }
            }
        }
        let copy = flat.clone();
        prop_assert_eq!(copy.heap_bytes(), flat.heap_bytes());
        prop_assert_eq!(copy.heap_bytes(), arena);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_policy_runs_and_conserves_requests(policy in arb_policy(), trace in arb_trace()) {
        let mut sys = System::new(SystemConfig::default(), policy);
        let mut src = trace;
        let stats = sys.run(&mut src, 20_000);
        prop_assert_eq!(stats.mem.reads_completed, stats.mem.reads_issued);
        prop_assert!(stats.instructions >= 20_000);
        prop_assert!(stats.ipc() > 0.0);
        prop_assert!(stats.energy.total() > 0.0);
        prop_assert!(stats.lifetime_years > 0.0);
    }

    #[test]
    fn simulation_is_deterministic(policy in arb_policy(), trace in arb_trace()) {
        let run = |trace: RecordedTrace| {
            let mut sys = System::new(SystemConfig::default(), policy.clone());
            let mut src = trace;
            sys.run(&mut src, 15_000)
        };
        let a = run(trace.clone());
        let b = run(trace);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn time_never_regresses_under_random_arrivals(
        ops in proptest::collection::vec((0u64..64, any::<bool>(), 0u64..1000), 5..100)
    ) {
        let mut m = MemoryController::new(
            MemConfig::default(),
            MellowPolicy::static_baseline(),
            WearModel::default(),
            EnergyModel::default(),
        );
        let mut t = Time::ZERO;
        let mut last_now = Time::ZERO;
        for (gap, is_write, line) in ops {
            t = Time(t.0 + gap * 1000);
            if is_write {
                if !m.issue_write(line, t) {
                    let _ = m.wait_write_space();
                }
            } else if m.issue_read(line, t).is_none() {
                let _ = m.wait_read_space();
            }
            prop_assert!(m.now() >= last_now, "controller time regressed");
            last_now = m.now();
        }
        let end = m.drain_all();
        prop_assert!(end >= last_now);
    }

    #[test]
    fn wear_monotone_in_pulse_ratio(trace in arb_trace(), fi in 0usize..6) {
        let grid = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0];
        let run = |ratio: f64, trace: RecordedTrace| {
            let policy = MellowPolicy {
                fast_latency: ratio,
                slow_latency: ratio,
                ..MellowPolicy::default_fast()
            };
            let mut sys = System::new(SystemConfig::default(), policy);
            let mut src = trace;
            sys.run(&mut src, 15_000)
        };
        let fast = run(grid[fi], trace.clone());
        let slow = run(grid[fi + 1], trace);
        // Identical access stream => identical completed writes; slower
        // pulses must never wear more.
        if fast.mem.writes_completed() == slow.mem.writes_completed()
            && fast.mem.cancellations == 0 && slow.mem.cancellations == 0 {
            prop_assert!(slow.wear_units <= fast.wear_units + 1e-9);
        }
    }

    #[test]
    fn quota_never_extends_wear_beyond_no_quota(trace in arb_trace()) {
        let run = |quota: Option<f64>, trace: RecordedTrace| {
            let policy = MellowPolicy {
                wear_quota_target_years: quota,
                ..MellowPolicy::default_fast()
            };
            let mut sys = System::new(SystemConfig::default(), policy);
            let mut src = trace;
            sys.run(&mut src, 15_000)
        };
        let without = run(None, trace.clone());
        let with = run(Some(8.0), trace);
        // Quota can only slow writes down: wear per completed write must
        // not increase.
        let wpw_without = without.wear_units / without.mem.writes_completed().max(1) as f64;
        let wpw_with = with.wear_units / with.mem.writes_completed().max(1) as f64;
        prop_assert!(wpw_with <= wpw_without + 1e-9);
    }
}
