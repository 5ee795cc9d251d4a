//! The 10-dimensional NVM configuration vector (paper Section 4.1.1).

use std::fmt;

use serde::{Deserialize, Serialize};

use mct_sim::policy::{CancellationMode, MellowPolicy};

use crate::error::MctError;

/// One point in the MCT configuration space.
///
/// Mirrors the paper's vector layout:
/// `[bank_aware, bank_aware_threshold, eager_writebacks, eager_threshold,
/// wear_quota, wear_quota_target, fast_latency, slow_latency,
/// fast_cancellation, slow_cancellation]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NvmConfig {
    /// Bank-aware mellow writes enabled.
    pub bank_aware: bool,
    /// Bank-aware aggressiveness (1..=4, meaningful when `bank_aware`).
    pub bank_aware_threshold: u32,
    /// Eager mellow writebacks enabled.
    pub eager_writebacks: bool,
    /// Eager aggressiveness (4..=32, meaningful when `eager_writebacks`).
    pub eager_threshold: u32,
    /// Wear quota enabled.
    pub wear_quota: bool,
    /// Wear-quota lifetime target in years (meaningful when `wear_quota`).
    pub wear_quota_target: f64,
    /// Normalized fast-write pulse width, `[1.0, 4.0]`.
    pub fast_latency: f64,
    /// Normalized slow-write pulse width, `>= fast_latency`.
    pub slow_latency: f64,
    /// Write cancellation on fast writes.
    pub fast_cancellation: bool,
    /// Write cancellation on slow writes (forced true when
    /// `fast_cancellation` is true — Section 3.3.1).
    pub slow_cancellation: bool,
}

impl NvmConfig {
    /// The paper's *default* configuration (Table 5 row "default"):
    /// plain fast writes, no techniques.
    #[must_use]
    pub fn default_config() -> NvmConfig {
        NvmConfig {
            bank_aware: false,
            bank_aware_threshold: 0,
            eager_writebacks: false,
            eager_threshold: 0,
            wear_quota: false,
            wear_quota_target: 0.0,
            fast_latency: 1.0,
            slow_latency: 1.0,
            fast_cancellation: false,
            slow_cancellation: false,
        }
    }

    /// The paper's *best static policy* (Table 5 row "baseline").
    #[must_use]
    pub fn static_baseline() -> NvmConfig {
        NvmConfig {
            bank_aware: true,
            bank_aware_threshold: 1,
            eager_writebacks: true,
            eager_threshold: 32,
            wear_quota: true,
            wear_quota_target: 8.0,
            fast_latency: 1.0,
            slow_latency: 3.0,
            fast_cancellation: false,
            slow_cancellation: true,
        }
    }

    /// Validate the structural constraints of Section 3.3.1.
    ///
    /// # Errors
    /// Returns [`MctError::InvalidConfig`] on violations.
    pub fn validate(&self) -> Result<(), MctError> {
        let fail = |m: &str| Err(MctError::InvalidConfig(m.to_string()));
        if !(1.0..=4.0).contains(&self.fast_latency) {
            return fail("fast_latency out of [1, 4]");
        }
        if !(1.0..=4.0).contains(&self.slow_latency) {
            return fail("slow_latency out of [1, 4]");
        }
        if self.slow_latency < self.fast_latency {
            return fail("slow_latency must be >= fast_latency");
        }
        if self.fast_cancellation && !self.slow_cancellation {
            return fail("fast_cancellation=true forces slow_cancellation=true");
        }
        if self.bank_aware && !(1..=4).contains(&self.bank_aware_threshold) {
            return fail("bank_aware_threshold out of [1, 4]");
        }
        if self.eager_writebacks && ![4, 8, 16, 32].contains(&self.eager_threshold) {
            return fail("eager_threshold must be one of {4, 8, 16, 32}");
        }
        if self.wear_quota && (self.wear_quota_target <= 0.0 || self.wear_quota_target.is_nan()) {
            return fail("wear_quota_target must be positive");
        }
        Ok(())
    }

    /// The 10-dimensional feature vector fed to the learning models
    /// (Section 4.1.1's layout). Disabled techniques contribute zeros.
    #[must_use]
    pub fn to_vector(&self) -> [f64; 10] {
        [
            f64::from(u8::from(self.bank_aware)),
            if self.bank_aware {
                f64::from(self.bank_aware_threshold)
            } else {
                0.0
            },
            f64::from(u8::from(self.eager_writebacks)),
            if self.eager_writebacks {
                f64::from(self.eager_threshold)
            } else {
                0.0
            },
            f64::from(u8::from(self.wear_quota)),
            if self.wear_quota {
                self.wear_quota_target
            } else {
                0.0
            },
            self.fast_latency,
            self.slow_latency,
            f64::from(u8::from(self.fast_cancellation)),
            f64::from(u8::from(self.slow_cancellation)),
        ]
    }

    /// The 5-dimensional manually-compressed feature vector of Section
    /// 4.4: `[bank_aware (0..=4), eager level (0..=4), fast_latency,
    /// slow_latency, cancellation (0..=2)]`.
    #[must_use]
    pub fn to_compressed_vector(&self) -> [f64; 5] {
        let bank = if self.bank_aware {
            f64::from(self.bank_aware_threshold)
        } else {
            0.0
        };
        // Eager thresholds {4, 8, 16, 32} map to levels {1, 2, 3, 4}.
        let eager = if self.eager_writebacks {
            match self.eager_threshold {
                4 => 1.0,
                8 => 2.0,
                16 => 3.0,
                _ => 4.0,
            }
        } else {
            0.0
        };
        let cancel = f64::from(u8::from(self.slow_cancellation))
            + f64::from(u8::from(self.fast_cancellation));
        [bank, eager, self.fast_latency, self.slow_latency, cancel]
    }

    /// Names of the 5 compressed dimensions.
    #[must_use]
    pub fn compressed_feature_names() -> [&'static str; 5] {
        [
            "bank_aware",
            "eager_writebacks",
            "fast_latency",
            "slow_latency",
            "cancellation",
        ]
    }

    /// Lower to the simulator's policy representation.
    #[must_use]
    pub fn to_policy(&self) -> MellowPolicy {
        let cancellation = match (self.fast_cancellation, self.slow_cancellation) {
            (true, _) => CancellationMode::Both,
            (false, true) => CancellationMode::SlowOnly,
            (false, false) => CancellationMode::None,
        };
        MellowPolicy {
            fast_latency: self.fast_latency,
            slow_latency: self.slow_latency,
            cancellation,
            bank_aware_threshold: self.bank_aware.then_some(self.bank_aware_threshold),
            eager_threshold: self.eager_writebacks.then_some(self.eager_threshold),
            wear_quota_target_years: self.wear_quota.then_some(self.wear_quota_target),
            retention: None,
            turbo_read: None,
        }
    }

    /// This configuration with wear quota enforced at `years` (the fixup
    /// step of Section 5.3).
    #[must_use]
    pub fn with_wear_quota(mut self, years: f64) -> NvmConfig {
        self.wear_quota = true;
        self.wear_quota_target = years;
        self
    }

    /// This configuration with wear quota disabled.
    #[must_use]
    pub fn without_wear_quota(mut self) -> NvmConfig {
        self.wear_quota = false;
        self.wear_quota_target = 0.0;
        self
    }

    /// Whether any technique can issue slow writes.
    #[must_use]
    pub fn uses_slow_writes(&self) -> bool {
        self.bank_aware || self.eager_writebacks
    }
}

impl fmt::Display for NvmConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lat {:.1}/{:.1}", self.fast_latency, self.slow_latency)?;
        if self.bank_aware {
            write!(f, " ba:{}", self.bank_aware_threshold)?;
        }
        if self.eager_writebacks {
            write!(f, " ew:{}", self.eager_threshold)?;
        }
        if self.wear_quota {
            write!(f, " wq:{:.0}y", self.wear_quota_target)?;
        }
        match (self.fast_cancellation, self.slow_cancellation) {
            (true, _) => write!(f, " wc:both")?,
            (false, true) => write!(f, " wc:slow")?,
            (false, false) => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_configs_valid() {
        NvmConfig::default_config().validate().unwrap();
        NvmConfig::static_baseline().validate().unwrap();
    }

    #[test]
    fn vector_layout_matches_paper() {
        // Paper example: [1, 1, 1, 32, 0, 0, 1.5, 3.0, 0, 1] = bank-aware
        // threshold 1, eager 32, latencies 1.5/3.0, cancellation slow-only.
        let c = NvmConfig {
            bank_aware: true,
            bank_aware_threshold: 1,
            eager_writebacks: true,
            eager_threshold: 32,
            wear_quota: false,
            wear_quota_target: 0.0,
            fast_latency: 1.5,
            slow_latency: 3.0,
            fast_cancellation: false,
            slow_cancellation: true,
        };
        assert_eq!(
            c.to_vector(),
            [1.0, 1.0, 1.0, 32.0, 0.0, 0.0, 1.5, 3.0, 0.0, 1.0]
        );
    }

    #[test]
    fn compressed_vector_levels() {
        let c = NvmConfig::static_baseline();
        // bank=1, eager 32 -> level 4, 1.0, 3.0, cancellation slow-only -> 1.
        assert_eq!(c.to_compressed_vector(), [1.0, 4.0, 1.0, 3.0, 1.0]);
    }

    #[test]
    fn cancellation_constraint_enforced() {
        let c = NvmConfig {
            fast_cancellation: true,
            slow_cancellation: false,
            ..NvmConfig::default_config()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn policy_lowering() {
        let p = NvmConfig::static_baseline().to_policy();
        assert_eq!(p, MellowPolicy::static_baseline());
        let d = NvmConfig::default_config().to_policy();
        assert_eq!(d, MellowPolicy::default_fast());
    }

    #[test]
    fn quota_fixup_round_trip() {
        let c = NvmConfig::default_config().with_wear_quota(8.0);
        assert!(c.wear_quota);
        c.validate().unwrap();
        assert!(!c.without_wear_quota().wear_quota);
    }

    #[test]
    fn display_is_compact() {
        let s = NvmConfig::static_baseline().to_string();
        assert!(s.contains("ba:1") && s.contains("ew:32") && s.contains("wq:8y"));
        assert!(s.contains("wc:slow"));
    }

    #[test]
    fn invalid_thresholds_rejected() {
        let c = NvmConfig {
            bank_aware: true,
            bank_aware_threshold: 9,
            ..NvmConfig::default_config()
        };
        assert!(c.validate().is_err());
        let c = NvmConfig {
            eager_writebacks: true,
            eager_threshold: 5,
            ..NvmConfig::default_config()
        };
        assert!(c.validate().is_err());
    }
}
