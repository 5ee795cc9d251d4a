//! Interleaved multi-rig driving: one event stream, many systems.
//!
//! The sweep engine measures every candidate policy over *exactly the
//! same* access stream: each candidate gets a clone of one warmed
//! [`System`] and a clone of one warmed source, so the trace events each
//! candidate consumes are identical, event for event. Driving the
//! candidates one at a time therefore regenerates that identical stream
//! once per candidate — and for the synthetic workload sources, event
//! generation is a sizable slice of the per-candidate cost.
//!
//! [`RigSet`] removes that duplication. It time-slices N independent
//! systems through one event loop: pull a slice worth of events from the
//! shared source *once* into a buffer, then let each system chew through
//! the buffer back to back ([`System::run_events`]). The slice size
//! trades event-buffer locality against system-state residency; each
//! system still processes its events in exactly the order the sequential
//! loop would, so results are bit-identical to driving each rig alone
//! (see [`RigSet::run_window_shared`] for the argument).
//!
//! No sweep runs it: a sweep grain measures one candidate on one clone,
//! since a batch of N keeps N live system clones per worker. It is the
//! subject of e2ebench's `sim.rigset8_ns_per_event` probe.

use crate::system::System;
use crate::trace::{AccessSource, TraceEvent};

/// Default interleave slice: how many instructions each system advances
/// per buffered event batch. Whole-window (the slice clamps to the
/// window in [`RigSet::run_window_shared`]): measured on the sweep
/// path, each system's simulator state is far larger than the event
/// buffer, so maximizing the run between switches beats keeping the
/// buffer cache-resident — finer slices (e.g. `1 << 16`) ran ~20%
/// slower and shared-generation savings don't depend on slice size.
pub const DEFAULT_SLICE_INSTS: u64 = u64::MAX;

/// N independent systems advancing in lockstep over one shared event
/// stream.
///
/// All systems must sit at the same retired-instruction count (clones of
/// one warmed snapshot do). Because [`System::run_window`] pulls events
/// purely by instruction gap — [`crate::cpu::CpuModel::process`] advances
/// the instruction counter by exactly `gap_insts` — systems at equal
/// counts consume identical event prefixes for any window, which is what
/// makes the single shared pull sound.
#[derive(Debug, Clone)]
pub struct RigSet {
    systems: Vec<System>,
}

impl RigSet {
    /// Bundle `systems` into a set.
    ///
    /// # Panics
    /// Panics when `systems` is empty or the systems disagree on retired
    /// instructions (they would desynchronize from the shared stream).
    #[must_use]
    pub fn new(systems: Vec<System>) -> RigSet {
        assert!(!systems.is_empty(), "a rig set needs at least one system");
        let insts = systems[0].instructions();
        assert!(
            systems.iter().all(|s| s.instructions() == insts),
            "rig-set systems must be in instruction lockstep"
        );
        RigSet { systems }
    }

    /// Number of rigs in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.systems.len()
    }

    /// Whether the set is empty (never true for a constructed set).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.systems.is_empty()
    }

    /// The bundled systems, for inspection.
    #[must_use]
    pub fn systems(&self) -> &[System] {
        &self.systems
    }

    /// Unbundle the systems (e.g. to finalize each rig's stats).
    #[must_use]
    pub fn into_systems(self) -> Vec<System> {
        self.systems
    }

    /// Advance every system by at least `insts` instructions over the
    /// shared stream, in interleave slices of `slice_insts`
    /// ([`DEFAULT_SLICE_INSTS`] is a good default).
    ///
    /// Bit-identity with driving each rig alone: the sequential loop
    /// (`System::run_window`) pulls the minimal event prefix whose
    /// cumulative `gap_insts` reaches the window. The slice loop below
    /// pulls a batch while the batch's cumulative gap is short of
    /// `min(slice, remaining)` — i.e. exactly while the *overall*
    /// cumulative gap is short of the window — so the concatenation of
    /// batches is that same minimal prefix, and each system processes it
    /// in the same order. The source ends at the same position, too.
    ///
    /// # Panics
    /// Panics when `slice_insts` is zero.
    pub fn run_window_shared<S: AccessSource>(
        &mut self,
        source: &mut S,
        insts: u64,
        slice_insts: u64,
    ) {
        assert!(slice_insts > 0, "slice must make progress");
        // All systems advance identically (lockstep), so system 0's
        // counter tracks the whole set.
        let target = self.systems[0].instructions() + insts;
        let mut batch: Vec<TraceEvent> = Vec::new();
        loop {
            let now = self.systems[0].instructions();
            if now >= target {
                break;
            }
            let needed = slice_insts.min(target - now);
            batch.clear();
            let mut gap = 0u64;
            while gap < needed {
                let ev = source.next_access();
                gap += ev.gap_insts;
                batch.push(ev);
            }
            for sys in &mut self.systems {
                sys.run_events(&batch);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::MellowPolicy;
    use crate::system::SystemConfig;
    use crate::trace::AccessKind;

    /// Deterministic mixed source (same construction → same stream).
    #[derive(Clone)]
    struct Synthetic {
        i: u64,
    }

    impl AccessSource for Synthetic {
        fn next_access(&mut self) -> TraceEvent {
            self.i += 1;
            let kind = if self.i.is_multiple_of(3) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let line = (self
                .i
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493))
                % (1 << 15);
            TraceEvent {
                // Irregular gaps so slice boundaries rarely land evenly.
                gap_insts: 3 + (self.i % 11),
                kind,
                line,
            }
        }
    }

    fn warmed(policy: MellowPolicy) -> System {
        let mut sys = System::new(SystemConfig::default(), MellowPolicy::default_fast());
        sys.warmup(&mut Synthetic { i: 0 }, 30_000);
        sys.set_policy(policy);
        sys.reset_stats();
        sys
    }

    /// The source position after warmup: replays the shared stream from
    /// where the warmed system left off.
    fn warmed_source() -> Synthetic {
        let mut src = Synthetic { i: 0 };
        let mut sys = System::new(SystemConfig::default(), MellowPolicy::default_fast());
        sys.warmup(&mut src, 30_000);
        src
    }

    fn policies() -> Vec<MellowPolicy> {
        vec![
            MellowPolicy::default_fast(),
            MellowPolicy {
                fast_latency: 2.0,
                slow_latency: 2.0,
                ..MellowPolicy::default_fast()
            },
            MellowPolicy {
                slow_latency: 3.0,
                ..MellowPolicy::default_fast()
            },
        ]
    }

    #[test]
    fn interleaved_matches_sequential_bit_for_bit() {
        for slice in [64u64, 1000, 1 << 20] {
            // Sequential reference: each rig drives its own source clone.
            let seq: Vec<_> = policies()
                .into_iter()
                .map(|p| {
                    let mut sys = warmed(p);
                    sys.run_window(&mut warmed_source(), 25_000);
                    sys.finalize().metrics()
                })
                .collect();
            let mut set = RigSet::new(policies().into_iter().map(warmed).collect());
            set.run_window_shared(&mut warmed_source(), 25_000, slice);
            let got: Vec<_> = set
                .into_systems()
                .into_iter()
                .map(|mut s| s.finalize().metrics())
                .collect();
            assert_eq!(seq, got, "slice {slice}");
        }
    }

    #[test]
    fn shared_source_ends_at_sequential_position() {
        let mut seq_src = warmed_source();
        let mut sys = warmed(MellowPolicy::default_fast());
        sys.run_window(&mut seq_src, 25_000);

        let mut shared_src = warmed_source();
        let mut set = RigSet::new(policies().into_iter().map(warmed).collect());
        set.run_window_shared(&mut shared_src, 25_000, 1000);
        assert_eq!(seq_src.i, shared_src.i, "same events pulled");
    }

    #[test]
    fn single_rig_set_matches_run_window() {
        let mut a = warmed(MellowPolicy::default_fast());
        a.run_window(&mut warmed_source(), 10_000);
        let mut set = RigSet::new(vec![warmed(MellowPolicy::default_fast())]);
        set.run_window_shared(&mut warmed_source(), 10_000, DEFAULT_SLICE_INSTS);
        let mut b = set.into_systems().pop().expect("one system");
        assert_eq!(a.finalize().metrics(), b.finalize().metrics());
    }

    #[test]
    #[should_panic(expected = "instruction lockstep")]
    fn rejects_desynchronized_systems() {
        let a = warmed(MellowPolicy::default_fast());
        let mut b = warmed(MellowPolicy::default_fast());
        b.run_window(&mut warmed_source(), 1_000);
        let _ = RigSet::new(vec![a, b]);
    }

    #[test]
    #[should_panic(expected = "at least one system")]
    fn rejects_empty_set() {
        let _ = RigSet::new(Vec::new());
    }
}
