//! Set-associative caches with LRU-stack statistics.
//!
//! The last-level cache (LLC) is the anchor of *eager mellow writes*
//! (Section 3.1): the technique watches the distribution of hits across
//! LRU stack positions and eagerly writes back dirty lines that sit in
//! "useless" positions (those that collectively contribute less than
//! `1/eager_threshold` of all hits). [`Cache`] therefore maintains a
//! per-stack-position hit histogram alongside ordinary hit/miss/writeback
//! accounting.
//!
//! A note on the threshold direction: we follow the paper's *formula* —
//! the useless region is the largest LRU-stack suffix whose cumulative
//! hit share is below `1/eager_threshold` — under which a **smaller**
//! `eager_threshold` yields a larger useless region and hence more eager
//! writebacks. (The paper's prose sentence about the direction reads
//! inverted relative to its own formula; the formula is authoritative
//! here.)

use serde::{Deserialize, Serialize};

use crate::error::SimError;
use crate::trace::AccessKind;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Hit latency in CPU cycles (used by the timing model).
    pub hit_latency_cycles: u64,
}

impl CacheConfig {
    /// Paper Table 8 L3 (LLC): 2 MB, 16-way, 35-cycle.
    #[must_use]
    pub fn llc() -> CacheConfig {
        CacheConfig {
            size_bytes: 2 << 20,
            ways: 16,
            line_bytes: 64,
            hit_latency_cycles: 35,
        }
    }

    /// The multi-core shared LLC of Section 6.2.5: 8 MB, 16-way.
    #[must_use]
    pub fn llc_shared_8mb() -> CacheConfig {
        CacheConfig {
            size_bytes: 8 << 20,
            ways: 16,
            line_bytes: 64,
            hit_latency_cycles: 40,
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        (self.size_bytes / self.line_bytes) as usize / self.ways
    }

    /// Validate the geometry.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidConfig`] if sizes are zero or not
    /// divisible into a whole power-of-two number of sets.
    pub fn validate(&self) -> Result<(), SimError> {
        let fail = |m: &str| Err(SimError::InvalidConfig(m.to_string()));
        if self.size_bytes == 0 || self.ways == 0 || self.line_bytes == 0 {
            return fail("cache dimensions must be nonzero");
        }
        if !self
            .size_bytes
            .is_multiple_of(self.line_bytes * self.ways as u64)
        {
            return fail("cache size must divide into ways * line_bytes");
        }
        let sets = self.sets();
        if !sets.is_power_of_two() {
            return fail("number of sets must be a power of two");
        }
        Ok(())
    }
}

/// A line evicted by an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Line address of the victim.
    pub line: u64,
    /// Whether the victim was dirty (requires a memory write).
    pub dirty: bool,
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Victim evicted by the fill (misses only).
    pub evicted: Option<Evicted>,
    /// On a write hit to a line that had been eagerly cleaned: the line
    /// was re-dirtied, wasting the earlier eager write (paper: "some
    /// eagerly written back data need to be rewritten before eviction").
    pub eager_rewrite: bool,
}

/// Aggregate cache statistics.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Dirty evictions (write-backs to the next level).
    pub writebacks: u64,
    /// Lines cleaned by eager writebacks.
    pub eager_cleaned: u64,
    /// Eagerly-cleaned lines that were re-dirtied before eviction.
    pub eager_rewrites: u64,
    /// Hits per LRU stack position (index 0 = MRU).
    pub stack_hits: Vec<u64>,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; zero when no accesses.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Slot flag: the slot holds a resident line.
const VALID: u8 = 1;
/// Slot flag: the resident line is dirty.
const DIRTY: u8 = 2;
/// Slot flag: an eager writeback cleaned the line while resident.
const EAGER_CLEANED: u8 = 4;

/// A write-back, write-allocate, true-LRU set-associative cache.
///
/// All lines live in one flat arena of `ways` slots per set, MRU first,
/// so a slot's index within its set is its LRU stack position. Resident
/// lines fill a prefix of their set's slots. An LRU move is a
/// `copy_within` on the set's slice, and a clone copies two vectors.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Line address per slot; meaningful only where the slot is `VALID`.
    tags: Vec<u64>,
    /// `VALID`, `DIRTY` and `EAGER_CLEANED` bits per slot.
    flags: Vec<u8>,
    set_mask: u64,
    stats: CacheStats,
    /// Round-robin cursor for eager-candidate scanning.
    scan_cursor: usize,
}

impl Cache {
    /// Heap footprint of the line arena, in bytes — what a warm-snapshot
    /// clone must copy (sweep-rig cost accounting).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.tags.capacity() * std::mem::size_of::<u64>() + self.flags.capacity()
    }

    /// Build a cache.
    ///
    /// # Panics
    /// Panics if the geometry fails [`CacheConfig::validate`].
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Cache {
        cfg.validate().expect("invalid cache config"); // mct-tidy: allow(P003) -- documented `# Panics` contract
        let sets = cfg.sets();
        Cache {
            tags: vec![0; sets * cfg.ways],
            flags: vec![0; sets * cfg.ways],
            set_mask: sets as u64 - 1,
            stats: CacheStats {
                stack_hits: vec![0; cfg.ways],
                ..CacheStats::default()
            },
            scan_cursor: 0,
            cfg,
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Arena index of the first slot of `line`'s set.
    fn set_base(&self, line: u64) -> usize {
        (line & self.set_mask) as usize * self.cfg.ways
    }

    /// Arena index of the slot holding `line`, if resident.
    fn slot(&self, line: u64) -> Option<usize> {
        let base = self.set_base(line);
        // Resident lines fill a prefix of the set, so the first slot whose
        // tag matches decides: an invalid one means no resident match.
        let i = base
            + self.tags[base..base + self.cfg.ways]
                .iter()
                .position(|&t| t == line)?;
        (self.flags[i] & VALID != 0).then_some(i)
    }

    /// Perform a demand access for cache-line address `line`.
    pub fn access(&mut self, line: u64, kind: AccessKind) -> AccessOutcome {
        let ways = self.cfg.ways;
        let base = self.set_base(line);
        let hit = self.slot(line);
        let tags = &mut self.tags[base..base + ways];
        let flags = &mut self.flags[base..base + ways];
        if let Some(pos) = hit.map(|i| i - base) {
            self.stats.hits += 1;
            self.stats.stack_hits[pos] += 1;
            let mut state = flags[pos];
            let mut eager_rewrite = false;
            if kind.is_write() {
                if state & (DIRTY | EAGER_CLEANED) == EAGER_CLEANED {
                    eager_rewrite = true;
                    self.stats.eager_rewrites += 1;
                }
                state = VALID | DIRTY;
            }
            tags.copy_within(0..pos, 1);
            flags.copy_within(0..pos, 1);
            tags[0] = line;
            flags[0] = state;
            return AccessOutcome {
                hit: true,
                evicted: None,
                eager_rewrite,
            };
        }
        // Miss: write-allocate for both kinds. The LRU slot is the victim
        // if the set is full.
        self.stats.misses += 1;
        let lru = ways - 1;
        let evicted = (flags[lru] & VALID != 0).then(|| Evicted {
            line: tags[lru],
            dirty: flags[lru] & DIRTY != 0,
        });
        if evicted.is_some_and(|v| v.dirty) {
            self.stats.writebacks += 1;
        }
        tags.copy_within(0..lru, 1);
        flags.copy_within(0..lru, 1);
        tags[0] = line;
        flags[0] = if kind.is_write() {
            VALID | DIRTY
        } else {
            VALID
        };
        AccessOutcome {
            hit: false,
            evicted,
            eager_rewrite: false,
        }
    }

    /// The size of the "useless" LRU-stack suffix for a given
    /// `eager_threshold`: the largest `n` such that the last `n` stack
    /// positions together received less than `1/eager_threshold` of all
    /// hits. Returns 0 when there are no hits yet (nothing is provably
    /// useless).
    #[must_use]
    pub fn useless_suffix(&self, eager_threshold: u32) -> usize {
        debug_assert!(eager_threshold >= 2);
        if self.stats.hits == 0 {
            return 0;
        }
        let budget = self.stats.hits as f64 / eager_threshold as f64;
        let mut acc = 0.0;
        let mut n = 0;
        for pos in (0..self.cfg.ways).rev() {
            acc += self.stats.stack_hits[pos] as f64;
            if acc < budget {
                n = self.cfg.ways - pos;
            } else {
                break;
            }
        }
        n
    }

    /// Scan up to `max_sets` sets (round-robin) for dirty lines in the
    /// useless suffix, invoking `offer` for each candidate. When `offer`
    /// accepts (returns true), the line is cleaned in place and marked
    /// eagerly-cleaned.
    pub fn scan_eager<F: FnMut(u64) -> bool>(
        &mut self,
        eager_threshold: u32,
        max_sets: usize,
        mut offer: F,
    ) {
        let n = self.useless_suffix(eager_threshold);
        if n == 0 {
            return;
        }
        let ways = self.cfg.ways;
        let nsets = self.cfg.sets();
        for _ in 0..max_sets.min(nsets) {
            let end = (self.scan_cursor + 1) * ways;
            self.scan_cursor = (self.scan_cursor + 1) % nsets;
            // Only resident lines carry `DIRTY`.
            for i in end - n..end {
                if self.flags[i] & DIRTY != 0 && offer(self.tags[i]) {
                    self.flags[i] = VALID | EAGER_CLEANED;
                    self.stats.eager_cleaned += 1;
                }
            }
        }
    }

    /// Flush all dirty lines, invoking `writeback` per dirty line
    /// (end-of-run accounting). Leaves the cache empty.
    pub fn flush<F: FnMut(u64)>(&mut self, mut writeback: F) {
        for (&tag, state) in self.tags.iter().zip(&mut self.flags) {
            if *state & DIRTY != 0 {
                writeback(tag);
            }
            *state = 0;
        }
    }

    /// Zero the statistics while keeping cache contents (end-of-warmup
    /// boundary).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats {
            stack_hits: vec![0; self.cfg.ways],
            ..CacheStats::default()
        };
    }

    /// Whether `line` is currently resident (test/diagnostic helper).
    #[must_use]
    pub fn contains(&self, line: u64) -> bool {
        self.slot(line).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            hit_latency_cycles: 1,
        })
    }

    /// Whether `line` is resident and dirty.
    fn is_dirty(c: &Cache, line: u64) -> bool {
        c.slot(line).is_some_and(|i| c.flags[i] & DIRTY != 0)
    }

    #[test]
    fn geometry_helpers() {
        assert_eq!(CacheConfig::llc().sets(), 2048);
        assert_eq!(CacheConfig::llc_shared_8mb().sets(), 8192);
        CacheConfig::llc().validate().unwrap();
    }

    #[test]
    fn invalid_geometry_rejected() {
        let bad = CacheConfig {
            size_bytes: 0,
            ways: 4,
            line_bytes: 64,
            hit_latency_cycles: 1,
        };
        assert!(bad.validate().is_err());
        let bad = CacheConfig {
            size_bytes: 96 * 64,
            ways: 2,
            line_bytes: 64,
            hit_latency_cycles: 1,
        };
        assert!(bad.validate().is_err(), "48 sets is not a power of two");
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0, AccessKind::Read).hit);
        assert!(c.access(0, AccessKind::Read).hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set 0 holds lines 0, 4, 8, ... (4 sets). Fill 2 ways, then a third.
        c.access(0, AccessKind::Read);
        c.access(4, AccessKind::Read);
        let out = c.access(8, AccessKind::Read);
        assert_eq!(
            out.evicted,
            Some(Evicted {
                line: 0,
                dirty: false
            })
        );
        assert!(!c.contains(0));
        assert!(c.contains(4) && c.contains(8));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = tiny();
        c.access(0, AccessKind::Write);
        c.access(4, AccessKind::Read);
        let out = c.access(8, AccessKind::Read);
        assert_eq!(
            out.evicted,
            Some(Evicted {
                line: 0,
                dirty: true
            })
        );
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn stack_position_histogram() {
        let mut c = tiny();
        c.access(0, AccessKind::Read);
        c.access(4, AccessKind::Read);
        // 0 is now at LRU position 1; hitting it records position 1.
        c.access(0, AccessKind::Read);
        assert_eq!(c.stats().stack_hits[1], 1);
        // And it moved to MRU: hitting again records position 0.
        c.access(0, AccessKind::Read);
        assert_eq!(c.stats().stack_hits[0], 1);
    }

    #[test]
    fn useless_suffix_reacts_to_hit_distribution() {
        let mut c = Cache::new(CacheConfig::llc());
        // All hits at MRU: the entire tail is useless under a loose budget.
        c.access(0, AccessKind::Read);
        for _ in 0..100 {
            c.access(0, AccessKind::Read);
        }
        let n4 = c.useless_suffix(4);
        let n32 = c.useless_suffix(32);
        assert!(
            n4 >= n32,
            "smaller threshold => larger (or equal) useless region"
        );
        assert!(
            n4 >= 15,
            "with all hits at MRU nearly all positions are useless"
        );
    }

    #[test]
    fn useless_suffix_zero_without_hits() {
        let c = Cache::new(CacheConfig::llc());
        assert_eq!(c.useless_suffix(4), 0);
    }

    #[test]
    fn eager_scan_cleans_dirty_tail_lines() {
        let mut c = tiny();
        c.access(0, AccessKind::Write);
        c.access(4, AccessKind::Read);
        // Concentrate hits at MRU so the tail is useless.
        for _ in 0..50 {
            c.access(4, AccessKind::Read);
        }
        let mut offered = Vec::new();
        c.scan_eager(4, 4, |line| {
            offered.push(line);
            true
        });
        assert_eq!(offered, vec![0]);
        assert!(!is_dirty(&c, 0), "accepted offer cleans the line");
        assert_eq!(c.stats().eager_cleaned, 1);
    }

    #[test]
    fn rejected_eager_offer_keeps_line_dirty() {
        let mut c = tiny();
        c.access(0, AccessKind::Write);
        c.access(4, AccessKind::Read);
        for _ in 0..50 {
            c.access(4, AccessKind::Read);
        }
        c.scan_eager(4, 4, |_| false);
        assert!(is_dirty(&c, 0));
        assert_eq!(c.stats().eager_cleaned, 0);
    }

    #[test]
    fn eager_rewrite_detected() {
        let mut c = tiny();
        c.access(0, AccessKind::Write);
        c.access(4, AccessKind::Read);
        for _ in 0..50 {
            c.access(4, AccessKind::Read);
        }
        c.scan_eager(4, 4, |_| true);
        assert!(!is_dirty(&c, 0));
        let out = c.access(0, AccessKind::Write);
        assert!(
            out.eager_rewrite,
            "re-dirtying an eagerly-cleaned line is a rewrite"
        );
        assert_eq!(c.stats().eager_rewrites, 1);
    }

    #[test]
    fn flush_writes_back_only_dirty() {
        let mut c = tiny();
        c.access(0, AccessKind::Write);
        c.access(1, AccessKind::Read);
        let mut wb = Vec::new();
        c.flush(|l| wb.push(l));
        assert_eq!(wb, vec![0]);
        assert!(!c.contains(0) && !c.contains(1));
    }

    #[test]
    fn hit_rate_computation() {
        let mut c = tiny();
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Read);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
