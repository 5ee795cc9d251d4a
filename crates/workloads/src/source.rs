//! Turning a [`Profile`] into a deterministic access stream.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

use mct_sim::trace::{AccessKind, AccessSource, TraceEvent};

use crate::patterns::{layout, PatternState};
use crate::profile::Profile;

/// A seeded, deterministic generator of LLC-input accesses for a profile.
#[derive(Debug, Clone)]
pub struct WorkloadSource {
    profile: Profile,
    rng: ChaCha8Rng,
    /// Per-phase pattern states (cursors persist across phase revisits,
    /// like real benchmark data structures do).
    phase_patterns: Vec<Vec<PatternState>>,
    /// Cumulative pattern-weight tables per phase.
    phase_weights: Vec<Vec<f64>>,
    phase_idx: usize,
    insts_into_phase: u64,
    total_insts: u64,
}

impl WorkloadSource {
    /// Build a source for `profile` with the given RNG seed.
    ///
    /// # Panics
    /// Panics if the profile is structurally invalid.
    #[must_use]
    pub fn new(profile: Profile, seed: u64) -> WorkloadSource {
        profile.assert_valid();
        let phase_patterns: Vec<Vec<PatternState>> = profile
            .phases
            .iter()
            .map(|ph| layout(&ph.patterns.iter().map(|(_, p)| *p).collect::<Vec<_>>()))
            .collect();
        let phase_weights: Vec<Vec<f64>> = profile
            .phases
            .iter()
            .map(|ph| {
                let mut acc = 0.0;
                ph.patterns
                    .iter()
                    .map(|(w, _)| {
                        acc += w;
                        acc
                    })
                    .collect()
            })
            .collect();
        WorkloadSource {
            rng: ChaCha8Rng::seed_from_u64(seed),
            phase_patterns,
            phase_weights,
            phase_idx: 0,
            insts_into_phase: 0,
            total_insts: 0,
            profile,
        }
    }

    /// The underlying profile.
    #[must_use]
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    fn advance_phase(&mut self, gap: u64) {
        self.insts_into_phase += gap;
        self.total_insts += gap;
        let len = self.profile.phases[self.phase_idx].insts;
        if self.insts_into_phase >= len {
            self.insts_into_phase -= len;
            self.phase_idx = (self.phase_idx + 1) % self.profile.phases.len();
        }
    }
}

impl AccessSource for WorkloadSource {
    fn next_access(&mut self) -> TraceEvent {
        let phase = &self.profile.phases[self.phase_idx];
        // Burst modulation: position within the burst/quiet cycle.
        let gap_mean = match phase.burst {
            Some(b) => {
                let cycle = b.burst_insts + b.quiet_insts;
                let pos = self.insts_into_phase % cycle;
                if pos < b.burst_insts {
                    phase.gap_mean
                } else {
                    phase.gap_mean * b.quiet_gap_factor
                }
            }
            None => phase.gap_mean,
        };
        // Geometric-ish gap with the requested mean (long-tailed like real
        // inter-miss distances). `1 - u` keeps ln() finite.
        let u: f64 = self.rng.gen::<f64>();
        let gap = (-(gap_mean) * (1.0 - u).ln()).round().max(1.0) as u64;

        // Pick a pattern by weight.
        let weights = &self.phase_weights[self.phase_idx];
        let total = *weights.last().expect("nonempty patterns");
        let draw = self.rng.gen::<f64>() * total;
        let pi = weights
            .iter()
            .position(|&w| draw < w)
            .unwrap_or(weights.len() - 1);
        let line = self.phase_patterns[self.phase_idx][pi].next_line(&mut self.rng);

        let kind = if self.rng.gen::<f64>() < phase.write_frac {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        self.advance_phase(gap);
        TraceEvent {
            gap_insts: gap,
            kind,
            line,
        }
    }

    fn mean_gap_hint(&self) -> Option<f64> {
        Some(
            self.profile.phases.iter().map(|p| p.gap_mean).sum::<f64>()
                / self.profile.phases.len() as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::Pattern;
    use crate::profile::{BurstSpec, PhaseProfile};

    fn profile() -> Profile {
        Profile {
            name: "test",
            phases: vec![
                PhaseProfile {
                    insts: 100_000,
                    gap_mean: 50.0,
                    write_frac: 0.4,
                    patterns: vec![
                        (
                            0.7,
                            Pattern::Sequential {
                                region_lines: 1 << 14,
                            },
                        ),
                        (
                            0.3,
                            Pattern::Random {
                                region_lines: 1 << 16,
                            },
                        ),
                    ],
                    burst: None,
                },
                PhaseProfile {
                    insts: 100_000,
                    gap_mean: 200.0,
                    write_frac: 0.1,
                    patterns: vec![(1.0, Pattern::Hot { hot_lines: 4096 })],
                    burst: None,
                },
            ],
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = WorkloadSource::new(profile(), 1);
        let mut b = WorkloadSource::new(profile(), 1);
        for _ in 0..1000 {
            assert_eq!(a.next_access(), b.next_access());
        }
    }

    #[test]
    fn different_seed_differs() {
        let mut a = WorkloadSource::new(profile(), 1);
        let mut b = WorkloadSource::new(profile(), 2);
        let same = (0..100)
            .filter(|_| a.next_access() == b.next_access())
            .count();
        assert!(same < 10);
    }

    #[test]
    fn gap_mean_approximately_honored() {
        let mut s = WorkloadSource::new(
            Profile {
                name: "t",
                phases: vec![profile().phases[0].clone()],
            },
            3,
        );
        let n = 20_000;
        let total: u64 = (0..n).map(|_| s.next_access().gap_insts).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 50.0).abs() < 5.0, "mean={mean}");
    }

    #[test]
    fn write_fraction_approximately_honored() {
        let mut s = WorkloadSource::new(
            Profile {
                name: "t",
                phases: vec![profile().phases[0].clone()],
            },
            4,
        );
        let writes = (0..10_000)
            .filter(|_| s.next_access().kind.is_write())
            .count();
        assert!((writes as f64 / 10_000.0 - 0.4).abs() < 0.05);
    }

    #[test]
    fn phases_cycle() {
        let mut s = WorkloadSource::new(profile(), 5);
        assert_eq!(s.phase_idx, 0);
        while s.total_insts < 100_000 {
            s.next_access();
        }
        assert_eq!(s.phase_idx, 1);
        while s.total_insts < 200_000 {
            s.next_access();
        }
        assert_eq!(s.phase_idx, 0, "phases wrap around");
    }

    #[test]
    fn burst_modulation_changes_density() {
        let bursty = Profile {
            name: "b",
            phases: vec![PhaseProfile {
                insts: u64::MAX,
                gap_mean: 20.0,
                write_frac: 0.0,
                patterns: vec![(
                    1.0,
                    Pattern::Sequential {
                        region_lines: 1 << 20,
                    },
                )],
                burst: Some(BurstSpec {
                    burst_insts: 50_000,
                    quiet_insts: 50_000,
                    quiet_gap_factor: 10.0,
                }),
            }],
        };
        let mut s = WorkloadSource::new(bursty, 6);
        // Count accesses landing in the first burst vs first quiet window.
        let mut in_burst = 0;
        let mut in_quiet = 0;
        loop {
            let pos = s.total_insts;
            if pos >= 100_000 {
                break;
            }
            let _ = s.next_access();
            if pos < 50_000 {
                in_burst += 1;
            } else {
                in_quiet += 1;
            }
        }
        assert!(
            in_burst as f64 > 3.0 * in_quiet as f64,
            "burst={in_burst} quiet={in_quiet}"
        );
    }

    #[test]
    fn mean_gap_hint_present() {
        let s = WorkloadSource::new(profile(), 7);
        assert_eq!(s.mean_gap_hint(), Some(125.0));
    }
}
