//! The end-to-end MCT runtime (paper Section 5, Figure 5).
//!
//! Per detected phase, the controller:
//!
//! 1. measures the static baseline briefly (normalization reference);
//! 2. runs the *sampling period*: cyclic fine-grained sampling — every
//!    sample configuration runs for a small unit, looped `rounds` times,
//!    so all samples see similar memory behaviour despite bursts
//!    (Section 5.2);
//! 3. fits the predictor on the samples and predicts all configurations
//!    (wear quota excluded from the learned space per Section 4.4);
//! 4. selects the objective-optimal configuration and applies the
//!    wear-quota fixup (Section 5.3);
//! 5. runs the *testing period* under the chosen configuration, feeding
//!    the phase detector and periodically health-checking against the
//!    baseline, falling back if the choice underperforms (Section 5.4);
//! 6. on a dramatic phase change, restarts from step 1.

use serde::{Deserialize, Serialize};

use mct_sim::fault::FaultPlan;
use mct_sim::stats::{Metrics, RunStats};
use mct_sim::system::{System, SystemConfig};
use mct_sim::trace::AccessSource;
use mct_telemetry::{RecorderHandle, Telemetry};

use crate::config::NvmConfig;
use crate::degrade::{DegradationAction, DegradationLadder};
use crate::objective::Objective;
use crate::optimizer::{optimize, OptimizationResult};
use crate::persist::{config_digest, PersistConfig, PersistSession, StateRecord};
use crate::phase::{PhaseDetector, PhaseDetectorConfig};
use crate::predictor::{lasso_feature_report, MetricsPredictor, ModelKind};
use crate::sampling::{feature_based_samples, random_samples, with_anchors};
use crate::space::ConfigSpace;

/// Controller parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Simulated system parameters.
    #[serde(skip, default)]
    pub system: SystemConfig,
    /// Predictor family (the paper's finalists: `QuadraticLasso` and
    /// `GradientBoosting`).
    pub model: ModelKind,
    /// Feature-based (true) vs random sampling.
    pub feature_based_sampling: bool,
    /// Sample count when random sampling is used.
    pub n_random_samples: usize,
    /// Fine-grained sampling unit, instructions (paper: 100 k).
    pub sample_unit_insts: u64,
    /// Cyclic rounds over the sample set (paper: T / (N * t)).
    pub sampling_rounds: usize,
    /// Exclude wear quota from the learned space (Section 4.4).
    pub exclude_wear_quota: bool,
    /// Apply the wear-quota fixup to the selection (Section 5.3).
    pub quota_fixup: bool,
    /// Phase-detector parameters.
    pub phase: PhaseDetectorConfig,
    /// Instructions of baseline measurement per segment.
    pub baseline_insts: u64,
    /// Total detailed instruction budget (after warmup).
    pub total_insts: u64,
    /// Warmup instructions before measurement starts.
    pub warmup_insts: u64,
    /// Health-check cadence, in phase windows of testing.
    pub health_check_every_windows: u64,
    /// Instructions each health check runs the baseline for.
    pub health_check_insts: u64,
    /// RNG seed (sampling).
    pub seed: u64,
    /// Skip the segment-start refit when the previous segment's health
    /// checks all passed and the new segment's workload intensity sits
    /// within a quarter octave of a banked fit's — the PR 7
    /// fixpoint-elision pattern applied to training. The controller
    /// banks the last few clean fits keyed by their *fit-time*
    /// intensity (so slow drift cannot ratchet an elided model away
    /// from the phase it was trained on), which lets alternating
    /// phases (A→B→A) reuse both models. The bank is dropped whenever
    /// the degradation ladder forces a refit or a revert. Deserializes
    /// to `false` for configs written before this field existed.
    #[serde(default)]
    pub refit_elision: bool,
    /// Optional deterministic fault plan, armed on the simulated system
    /// right after warmup (`mct chaos`). `None` leaves the simulator's
    /// fault hooks disarmed — the zero-overhead hot path.
    #[serde(default)]
    pub fault_plan: Option<FaultPlan>,
    /// Optional crash-safe state persistence: a write-ahead log plus
    /// segment-boundary snapshots under the configured directory, with
    /// verified-replay recovery and warm starts (`mct run --resume`).
    /// `None` — the default and both presets — keeps the controller
    /// entirely in memory with zero persistence work on the hot path.
    /// See [`crate::persist`] for the recovery contract.
    #[serde(default)]
    pub persist: Option<PersistConfig>,
}

impl ControllerConfig {
    /// A configuration scaled for this reproduction's experiments:
    /// feature-based sampling (~84 samples), 8 k-instruction units, two
    /// cyclic rounds, ~1.4 M sampling + ~4 M testing instructions.
    #[must_use]
    pub fn paper_scaled() -> ControllerConfig {
        ControllerConfig {
            system: SystemConfig::default(),
            model: ModelKind::GradientBoosting,
            feature_based_sampling: true,
            n_random_samples: 77,
            sample_unit_insts: 2_000,
            sampling_rounds: 6,
            exclude_wear_quota: true,
            quota_fixup: true,
            phase: PhaseDetectorConfig::default(),
            baseline_insts: 50_000,
            total_insts: 8_000_000,
            warmup_insts: 1_000_000,
            health_check_every_windows: 5,
            health_check_insts: 30_000,
            seed: 17,
            refit_elision: true,
            fault_plan: None,
            persist: None,
        }
    }

    /// A small, fast configuration for examples and doctests.
    #[must_use]
    pub fn quick_demo() -> ControllerConfig {
        ControllerConfig {
            system: SystemConfig::default(),
            model: ModelKind::QuadraticLasso,
            feature_based_sampling: false,
            n_random_samples: 16,
            sample_unit_insts: 3_000,
            sampling_rounds: 1,
            exclude_wear_quota: true,
            quota_fixup: true,
            phase: PhaseDetectorConfig {
                window_insts: 20_000,
                history_windows: 50,
                recent_windows: 5,
                score_threshold: 15.0,
            },
            baseline_insts: 15_000,
            total_insts: 400_000,
            warmup_insts: 100_000,
            health_check_every_windows: 8,
            health_check_insts: 10_000,
            seed: 17,
            refit_elision: true,
            fault_plan: None,
            persist: None,
        }
    }
}

/// Accumulates raw run quantities so metrics can be aggregated across
/// many measurement windows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
struct MetricAccum {
    insts: u64,
    cycles: f64,
    wear_units: f64,
    elapsed_secs: f64,
    energy_j: f64,
}

impl MetricAccum {
    fn add(&mut self, stats: &RunStats) {
        self.insts += stats.instructions;
        self.cycles += stats.cpu_cycles;
        self.wear_units += stats.wear_units;
        self.elapsed_secs += stats.elapsed.as_secs();
        self.energy_j += stats.energy.total();
    }

    fn metrics(&self, wear_budget: f64) -> Metrics {
        let ipc = if self.cycles > 0.0 {
            self.insts as f64 / self.cycles
        } else {
            0.0
        };
        let lifetime_years = if self.wear_units > 0.0 && self.elapsed_secs > 0.0 {
            wear_budget / (self.wear_units / self.elapsed_secs) / mct_sim::wear::SECONDS_PER_YEAR
        } else {
            f64::INFINITY
        };
        Metrics {
            ipc,
            lifetime_years,
            energy_j: self.energy_j,
        }
    }

    fn is_empty(&self) -> bool {
        self.insts == 0
    }
}

/// Report for one sampling→optimize→test segment (one detected phase).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentReport {
    /// The optimization outcome for this segment.
    pub optimization: OptimizationResult,
    /// Baseline metrics measured at segment start.
    pub baseline: Metrics,
    /// Aggregate metrics over this segment's sampling period.
    pub sampling: Metrics,
    /// Aggregate metrics over this segment's testing period.
    pub testing: Metrics,
    /// Whether a health check demoted the choice back to the baseline.
    pub health_fallback: bool,
    /// Whether this segment's refit was elided (predictor reused from
    /// the previous segment on a matching phase signature).
    #[serde(default)]
    pub fit_elided: bool,
    /// Whether this segment skipped its sampling period entirely,
    /// coasting on a model restored from a completed prior run's
    /// snapshot (`mct run --resume` warm start).
    #[serde(default)]
    pub warm_started: bool,
    /// Sampling instructions spent.
    pub sampling_insts: u64,
    /// Testing instructions spent.
    pub testing_insts: u64,
}

/// Overall outcome of a controller run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Outcome {
    /// The last chosen configuration.
    pub chosen_config: NvmConfig,
    /// Aggregate metrics across all testing periods.
    pub final_metrics: Metrics,
    /// Aggregate metrics across all sampling periods (Figure 9's
    /// overhead numerator).
    pub sampling_metrics: Metrics,
    /// The last baseline measurement.
    pub baseline_metrics: Metrics,
    /// Phase changes detected.
    pub phases_detected: u64,
    /// Per-segment details.
    pub segments: Vec<SegmentReport>,
    /// Total sampling instructions.
    pub sampling_insts: u64,
    /// Total testing instructions.
    pub testing_insts: u64,
}

impl Outcome {
    /// Extrapolated IPC when the testing period is `alpha` times the
    /// sampling period (paper Eq. 4):
    /// `IPC_total = (IPC_sampling + alpha * IPC_testing) / (1 + alpha)`.
    #[must_use]
    pub fn extrapolated_ipc(&self, alpha: f64) -> f64 {
        (self.sampling_metrics.ipc + alpha * self.final_metrics.ipc) / (1.0 + alpha)
    }

    /// Extrapolated energy under the same model (energy totals are scaled
    /// to per-instruction terms before mixing).
    #[must_use]
    pub fn extrapolated_energy_per_inst(&self, alpha: f64) -> f64 {
        let sampling_epi = if self.sampling_insts > 0 {
            self.sampling_metrics.energy_j / self.sampling_insts as f64
        } else {
            0.0
        };
        let testing_epi = if self.testing_insts > 0 {
            self.final_metrics.energy_j / self.testing_insts as f64
        } else {
            0.0
        };
        (sampling_epi + alpha * testing_epi) / (1.0 + alpha)
    }
}

/// The MCT runtime controller.
#[derive(Debug)]
pub struct Controller {
    cfg: ControllerConfig,
    objective: Objective,
    space: ConfigSpace,
    samples: Vec<NvmConfig>,
    baseline_config: NvmConfig,
    telemetry: Telemetry,
    /// The state store of the run in progress (`ControllerConfig::persist`).
    persist: Option<PersistSession>,
}

impl Controller {
    /// Build a controller.
    ///
    /// # Panics
    /// Panics if the objective fails validation, or if the configured
    /// fault plan is invalid.
    #[must_use]
    pub fn new(cfg: ControllerConfig, objective: Objective) -> Controller {
        objective.validate().expect("invalid objective"); // mct-tidy: allow(P003) -- documented `# Panics` contract
        if let Some(plan) = &cfg.fault_plan {
            plan.validate().expect("invalid fault plan"); // mct-tidy: allow(P003) -- documented `# Panics` contract
        }
        let space = if cfg.exclude_wear_quota {
            ConfigSpace::without_wear_quota()
        } else {
            ConfigSpace::full(objective.lifetime_floor().unwrap_or(8.0))
        };
        let raw_samples = if cfg.feature_based_sampling {
            feature_based_samples(&space, cfg.seed)
        } else {
            random_samples(&space, cfg.n_random_samples.min(space.len()), cfg.seed)
        };
        let anchors = [
            NvmConfig::default_config(),
            NvmConfig::static_baseline().without_wear_quota(),
        ];
        let samples = with_anchors(raw_samples, &anchors);
        Controller {
            cfg,
            objective,
            space,
            samples,
            baseline_config: NvmConfig::static_baseline(),
            telemetry: Telemetry::disabled(),
            persist: None,
        }
    }

    /// Attach a telemetry recorder for decision traces and registry
    /// metrics. The default is a disabled [`mct_telemetry::NullRecorder`],
    /// which skips all instrumentation work.
    #[must_use]
    pub fn with_recorder(mut self, handle: RecorderHandle) -> Controller {
        self.telemetry = Telemetry::attached(handle);
        self
    }

    /// The sample configurations the controller will exercise.
    #[must_use]
    pub fn samples(&self) -> &[NvmConfig] {
        &self.samples
    }

    /// The learnable configuration space.
    #[must_use]
    pub fn space(&self) -> &ConfigSpace {
        &self.space
    }

    /// The objective in force.
    #[must_use]
    pub fn objective(&self) -> &Objective {
        &self.objective
    }

    /// Run MCT over `source` for the configured budget.
    ///
    /// With a recorder attached, the whole run is wrapped in a `run` root
    /// span (labeled with the learner) whose children — `warmup`,
    /// `fault.arm`, and one `segment` span per sampling→optimize→test
    /// cycle — cover the control loop end to end, so `mct profile` can
    /// apportion wall time across phases. With the default disabled
    /// telemetry every span call is a single branch.
    ///
    /// # Panics
    /// With [`ControllerConfig::persist`] set: panics if the state store
    /// cannot be opened or recovered, and on any divergence between
    /// re-execution and a recovered log — the crash-recovery contract is
    /// bit-identical re-execution, so a mismatch is a bug that must
    /// surface immediately, never a condition to continue past.
    pub fn run<S: AccessSource>(&mut self, source: &mut S) -> Outcome {
        let wear_budget = self.cfg.system.wear.budget();
        let model = self.cfg.model;
        let mut sys = System::new(self.cfg.system.clone(), self.baseline_config.to_policy());
        let run_span = self
            .telemetry
            .span_with("run", 0, &[("learner", model.short_label())]);
        // --- Crash-safe persistence (optional). ---
        // Opening the store replays any existing log: a clean prior run
        // arms the warm-start bank; an interrupted one becomes a
        // verification prefix — the controller re-executes from
        // instruction zero and, while inside the prefix, every durable
        // record it emits is compared against the log instead of
        // appended, so recovery provably converges on the pre-crash
        // trajectory before any new state is persisted.
        let run_started = (self.cfg.persist.is_some() || self.telemetry.enabled()).then(|| {
            StateRecord::RunStarted {
                schema: crate::persist::STATE_SCHEMA_VERSION,
                seed: self.cfg.seed,
                model,
                total_insts: self.cfg.total_insts,
                config_digest: config_digest(&self.cfg),
            }
        });
        if let (Some(pcfg), Some(started)) = (&self.cfg.persist, &run_started) {
            let open_span = self.telemetry.span("persist.open", 0);
            self.persist = match PersistSession::begin(pcfg, started) {
                Ok(session) => Some(session),
                // mct-tidy: allow(P002) -- documented `# Panics` contract: an unrecoverable store must fail loudly
                Err(e) => panic!("persist: cannot begin session in {}: {e}", pcfg.dir),
            };
            self.telemetry.close_span(open_span, 0);
        }
        if let Some(started) = run_started {
            self.emit(0, || started);
        }
        let warmup_span = self.telemetry.span("warmup", 0);
        sys.warmup(source, self.cfg.warmup_insts);
        // Span clocks stay at 0 through warmup: the trace's `sim_insts`
        // is the *measured* instruction clock (`executed`), which starts
        // after warmup. Wall time still captures the warmup cost.
        self.telemetry.close_span(warmup_span, 0);
        // Faults arm after warmup, so plan timestamps are relative to the
        // start of the measured region (validated in `Controller::new`).
        if let Some(plan) = &self.cfg.fault_plan {
            let arm_span = self.telemetry.span("fault.arm", 0);
            sys.arm_faults(plan);
            self.telemetry.close_span(arm_span, 0);
        }

        let mut detector = PhaseDetector::new(self.cfg.phase);
        // The degradation ladder outlives segments: faults persist across
        // phase boundaries, so escalation must not reset on re-sample.
        let mut ladder = DegradationLadder::new();
        // Bank of recently fitted predictors, each keyed by the measured
        // workload intensity (accesses/kinst) at fit time: a new segment
        // whose intensity stays within a quarter octave of a banked fit
        // (and whose health record is clean) reuses that model instead of
        // refitting — alternating phases (ocean's A→B→A) hit the bank on
        // every return. Entries anchor on the intensity *at fit time*, so
        // slow drift cannot ratchet an elided model arbitrarily far from
        // the phase it was trained on. Invalidated wholesale whenever the
        // ladder forces a refit or a revert — the banked models no longer
        // describe how the system behaves.
        const FIT_CACHE_SLOTS: usize = 4;
        let mut fit_cache: Vec<(f64, MetricsPredictor)> = Vec::new();
        // Warm start: a clean prior run's fitted models pre-seed the
        // elision bank. While the controller coasts on them (until the
        // first fresh fit or ladder action), segments that hit the bank
        // skip their sampling period outright — the `--resume`
        // acceptance criterion. A different workload behind the same
        // config would be caught by the health checks, exactly as a
        // stale banked fit would mid-run.
        let mut warm_coasting = false;
        if let Some(session) = self.persist.as_mut() {
            for (apki_bits, state) in session.take_warm_bank() {
                if fit_cache.len() < FIT_CACHE_SLOTS {
                    fit_cache.push((
                        f64::from_bits(apki_bits),
                        MetricsPredictor::from_state(state),
                    ));
                    warm_coasting = true;
                }
            }
            let replayed_records = session.replayed() as u64;
            let restored_models = fit_cache.len() as u64;
            self.emit(0, || StateRecord::PersistRecovered {
                replayed_records,
                warm_start: warm_coasting,
                restored_models,
            });
        }
        // Did every health check in the *previous* segment pass? A failed
        // check means the cached model misjudged this regime, so the next
        // segment must refit even if the intensity still matches.
        let mut last_segment_healthy = true;
        let mut segments: Vec<SegmentReport> = Vec::new();
        let mut total_sampling = MetricAccum::default();
        let mut total_testing = MetricAccum::default();
        let mut executed: u64 = 0;
        let mut last_baseline = Metrics {
            ipc: 1.0,
            lifetime_years: 1.0,
            energy_j: 1.0,
        };
        let mut chosen = self.baseline_config;

        while executed < self.cfg.total_insts {
            let segment = segments.len() as u64;
            let segment_label = segment.to_string();
            let segment_span =
                self.telemetry
                    .span_with("segment", executed, &[("segment", &segment_label)]);
            self.emit(executed, || StateRecord::SegmentStarted {
                segment,
                executed,
            });

            // --- Baseline measurement (normalization reference). ---
            let baseline_span = self.telemetry.span("baseline", executed);
            let mut baseline_stats = self.measure(
                &mut sys,
                source,
                self.baseline_config,
                self.cfg.baseline_insts,
                executed,
            );
            // Sparse phases need a longer window before the measurement
            // means anything; extend until ~1000 accesses were observed.
            let observed =
                baseline_stats.mem.reads_completed + baseline_stats.mem.writes_completed();
            let mut extended = false;
            if observed < 1_000 && observed > 0 {
                let extend = self.cfg.baseline_insts * (1_000 / observed.max(50)).min(50);
                let more = self.measure(&mut sys, source, self.baseline_config, extend, executed);
                executed += more.instructions;
                baseline_stats = more;
                extended = true;
            }
            executed += self.cfg.baseline_insts;
            last_baseline = baseline_stats.metrics();
            self.telemetry.close_span(baseline_span, executed);
            if self.telemetry.enabled() {
                for (name, v) in baseline_stats.mem_counter_snapshot() {
                    self.telemetry
                        .observe(&format!("mem.baseline.{name}"), v as f64);
                }
            }
            self.emit(executed, || StateRecord::BaselineMeasured {
                segment,
                metrics: last_baseline.into(),
                insts: baseline_stats.instructions,
                extended,
            });

            // Size the fine-grained sampling unit from the phase's mean
            // memory workload (Section 5.2): dense phases use small units,
            // sparse phases larger ones, targeting ~100 accesses per unit.
            // Many cyclic rounds spread each sample's units across the
            // phase's bursts (the paper loops ~130 times); the sampling
            // period is capped at ~40% of the total budget by shrinking
            // the unit, never the round count, so burst coverage survives.
            let apki = baseline_stats.mem_accesses_per_kinst().max(0.5);
            let ideal_unit = self.cfg.sample_unit_insts.max((100.0 / apki * 1e3) as u64);
            let n_samples = self.samples.len() as u64;
            let sampling_budget = (self.cfg.total_insts as f64 * 0.4) as u64;
            let rounds = self.cfg.sampling_rounds.max(1);
            let unit_insts = ideal_unit
                .min(sampling_budget / (n_samples * rounds as u64))
                .max(1_000);

            let phase_sig = crate::phase::phase_signature(apki);
            // Same-phase test: the banked fit nearest in intensity, if it
            // sits within a quarter octave. A ratio test (not bucket
            // equality) so ordinary segment-to-segment measurement jitter
            // cannot straddle a bucket edge and force a spurious refit;
            // ties keep the earliest (oldest) entry. Evaluated before the
            // sampling period (its inputs — the bank, the baseline
            // intensity, last segment's health — are all fixed by now) so
            // a warm start can skip sampling altogether.
            let cache_hit = fit_cache
                .iter()
                .enumerate()
                .map(|(slot, (fit_apki, _))| (slot, (apki / fit_apki).log2().abs()))
                .filter(|&(_, dist)| dist <= 0.25)
                .fold(None, |best: Option<(usize, f64)>, cand| match best {
                    Some((_, d)) if d <= cand.1 => best,
                    _ => Some(cand),
                })
                .map(|(slot, _)| slot);
            let fit_elided = self.cfg.refit_elision && last_segment_healthy && cache_hit.is_some();
            // Warm start: still coasting on restored models and this
            // segment's intensity hits the bank — skip the sampling
            // period outright (`sampling_insts` stays 0, the `--resume`
            // acceptance criterion).
            let warm_started = warm_coasting && fit_elided;

            // --- Sampling period: cyclic fine-grained sampling. ---
            let mut accums = vec![MetricAccum::default(); self.samples.len()];
            let mut seg_sampling = MetricAccum::default();
            if warm_started {
                self.telemetry.incr("persist.sampling_skipped", 1);
            } else {
                let sampling_span = self.telemetry.span("sampling", executed);
                for round in 0..rounds as u64 {
                    let round_span = self.telemetry.span("sampling.round", executed);
                    for (i, cfg) in self.samples.clone().into_iter().enumerate() {
                        let stats = self.measure(&mut sys, source, cfg, unit_insts, executed);
                        executed += stats.instructions;
                        accums[i].add(&stats);
                        seg_sampling.add(&stats);
                        total_sampling.add(&stats);
                    }
                    self.telemetry.close_span(round_span, executed);
                    self.emit(executed, || StateRecord::SamplingRound {
                        segment,
                        round,
                        total_rounds: rounds as u64,
                        samples: n_samples,
                        unit_insts,
                    });
                }
                self.telemetry.close_span(sampling_span, executed);
            }
            // With sampling skipped, an all-zero sample set would poison
            // a later ladder-forced refit — keep it empty instead.
            let mut sample_data: Vec<(NvmConfig, Metrics)> = if warm_started {
                Vec::new()
            } else {
                self.samples
                    .iter()
                    .zip(&accums)
                    .map(|(c, a)| (*c, a.metrics(wear_budget)))
                    .collect()
            };

            // Normalize to the *cyclically sampled* baseline anchor: the
            // pre-window baseline above can land inside a single burst
            // phase, while the anchor sample saw the same phase mixture as
            // every other sample (the whole point of cyclic fine-grained
            // sampling, Section 5.2). A warm-started segment has no
            // anchor sample; the pre-window baseline stands.
            if !warm_started {
                let anchor = NvmConfig::static_baseline().without_wear_quota();
                if let Some(idx) = self.samples.iter().position(|c| *c == anchor) {
                    last_baseline = accums[idx].metrics(wear_budget);
                }
            }
            // Health-check reference: accumulated windows of the *actual*
            // baseline (with its wear quota). The anchor above is
            // quota-free and would read systematically fast.
            let mut base_accum = MetricAccum::default();
            let mut health_checks = 0u32;

            // --- Prediction over the full space. ---
            // Decision latency (fit + predict_all + optimize, host time)
            // accumulates across the two spans so the diagnostics block
            // between them — refits, lasso reports — is not charged to it.
            let mut decision_us = 0.0;
            // Crash recovery: a fresh fit inside the replayed prefix
            // restores its persisted model instead of refitting, pinning
            // the save/restore path to the bit-identical-decisions
            // contract on every recovery (not only in unit tests).
            let restored = if fit_elided {
                None
            } else {
                self.persist
                    .as_ref()
                    .and_then(|s| s.replayed_fit(segment))
                    .map(MetricsPredictor::from_state)
            };
            let predictions;
            if fit_elided {
                // Same phase signature, clean health record: the cached
                // predictor still describes this phase. Skip the fit
                // span and the diagnostics refits entirely.
                self.emit(executed, || StateRecord::FitCompleted {
                    segment,
                    elided: true,
                    apki: apki.to_bits(),
                    signature: phase_sig,
                    model: None,
                });
                self.telemetry.incr("fit.elided", 1);
                // mct-tidy: allow(P003) -- fit_elided implies a banked hit
                let predictor = &fit_cache[cache_hit.expect("elision requires a cached fit")].1;
                let predict_span = self.telemetry.span("predict", executed);
                // mct-tidy: allow(D002) -- telemetry-gated latency probe; never feeds results
                let decision_start = self.telemetry.enabled().then(std::time::Instant::now);
                predictions = predictor.predict_all(&self.space);
                self.telemetry.close_span(predict_span, executed);
                if let Some(start) = decision_start {
                    decision_us += start.elapsed().as_secs_f64() * 1e6;
                }
            } else {
                // mct-tidy: allow(D002) -- telemetry-gated latency probe; never feeds results
                let decision_start = self.telemetry.enabled().then(std::time::Instant::now);
                let fit_span =
                    self.telemetry
                        .span_with("fit", executed, &[("learner", model.short_label())]);
                let restored_hit = restored.is_some();
                let predictor = if let Some(p) = restored {
                    p
                } else {
                    let mut p = MetricsPredictor::new(model);
                    p.fit_traced(
                        &sample_data,
                        Some(last_baseline),
                        &mut self.telemetry,
                        executed,
                    );
                    p
                };
                // The first fresh fit ends warm coasting: from here the
                // controller's bank is its own, and sampling resumes its
                // normal cadence.
                warm_coasting = false;
                if restored_hit {
                    self.telemetry.incr("persist.models_restored", 1);
                }
                self.emit(executed, || StateRecord::FitCompleted {
                    segment,
                    elided: false,
                    apki: apki.to_bits(),
                    signature: phase_sig,
                    model: predictor.save_state(),
                });
                self.telemetry.close_span(fit_span, executed);
                let predict_span = self.telemetry.span("predict", executed);
                predictions = predictor.predict_all(&self.space);
                self.telemetry.close_span(predict_span, executed);
                if let Some(start) = decision_start {
                    decision_us += start.elapsed().as_secs_f64() * 1e6;
                }
                // Diagnostics-only work (k-fold refits, a lasso report)
                // runs solely when a recorder is attached.
                if self.telemetry.enabled() {
                    self.emit(executed, || StateRecord::FitDiagnosed {
                        segment,
                        n_samples: sample_data.len() as u64,
                        cv_r2_ipc: predictor.cv_r2_ipc(&sample_data, 4),
                        lasso_features: lasso_support(model, &sample_data),
                    });
                }
                // Bank the fresh fit: refresh the slot covering this
                // intensity if one exists, else evict the oldest entry.
                if let Some(slot) = cache_hit {
                    fit_cache[slot] = (apki, predictor);
                } else {
                    if fit_cache.len() == FIT_CACHE_SLOTS {
                        fit_cache.remove(0);
                    }
                    fit_cache.push((apki, predictor));
                }
            }

            // --- Constrained optimization + wear-quota fixup. ---
            let decide_span = self.telemetry.span("decide", executed);
            // mct-tidy: allow(D002) -- telemetry-gated latency probe; never feeds results
            let decision_start = self.telemetry.enabled().then(std::time::Instant::now);
            let mut opt = optimize(
                &self.space,
                &predictions,
                &self.objective,
                self.baseline_config,
                self.cfg.quota_fixup,
            );
            chosen = opt.config;
            if let Some(start) = decision_start {
                decision_us += start.elapsed().as_secs_f64() * 1e6;
                self.telemetry.observe("decision.latency_us", decision_us);
                self.telemetry.observe_with(
                    "decision.latency_us",
                    &[("learner", model.short_label())],
                    decision_us,
                );
            }
            self.telemetry.close_span(decide_span, executed);
            if opt.fell_back {
                self.telemetry.incr("optimizer_fallbacks", 1);
            }
            self.emit(executed, || decision(segment, &opt, false));

            // --- Testing period with health checks & phase detection. ---
            // The measured region is finalized only at health-check and
            // phase boundaries (not per window): finalizing drains the
            // write queues, and doing so every window would deflate the
            // testing IPC relative to the long-window methodology the
            // static/ideal references are measured with.
            sys.set_policy(chosen.to_policy());
            sys.run_window(source, self.cfg.phase.window_insts / 4); // settle
            executed += self.cfg.phase.window_insts / 4;
            sys.reset_stats();
            detector.reset();
            let testing_span = self.telemetry.span("testing", executed);
            let mut seg_testing = MetricAccum::default();
            let mut health_fallback = false;
            let mut seg_health_ok = true;
            let mut windows: u64 = 0;
            while executed < self.cfg.total_insts {
                let before = sys.perf_counters();
                sys.run_window(source, self.cfg.phase.window_insts);
                let after = sys.perf_counters();
                executed += self.cfg.phase.window_insts;
                windows += 1;
                let workload = after.workload_since(&before) as f64;
                if detector.observe(workload) {
                    let mean_workload = workload * 1e3 / self.cfg.phase.window_insts as f64;
                    self.emit(executed, || StateRecord::PhaseDetected {
                        segment,
                        score: detector.last_score(),
                        phases_detected: detector.phases_detected(),
                        mean_workload,
                    });
                    let stats = sys.finalize();
                    seg_testing.add(&stats);
                    total_testing.add(&stats);
                    sys.reset_stats();
                    break;
                }
                // Periodic health check: run the baseline briefly and
                // demote the choice if it underperforms (Section 5.4).
                if !health_fallback
                    && self.cfg.health_check_every_windows > 0
                    && windows.is_multiple_of(self.cfg.health_check_every_windows)
                {
                    let health_span = self.telemetry.span("health_check", executed);
                    let stats = sys.finalize();
                    seg_testing.add(&stats);
                    total_testing.add(&stats);
                    sys.reset_stats();
                    let hc = self.measure(
                        &mut sys,
                        source,
                        self.baseline_config,
                        self.cfg.health_check_insts,
                        executed,
                    );
                    executed += hc.instructions;
                    // Accumulate baseline health-check windows so the
                    // reference covers the same phase mixture the testing
                    // aggregate does (one window is burst-biased); only
                    // act once at least two windows accumulated.
                    base_accum.add(&hc);
                    health_checks += 1;
                    let health_baseline = base_accum.metrics(wear_budget);
                    let testing_so_far = seg_testing.metrics(wear_budget);
                    let failed = DegradationLadder::reading_failed(
                        health_checks,
                        testing_so_far.ipc,
                        health_baseline.ipc,
                        testing_so_far.lifetime_years,
                        self.objective.lifetime_floor(),
                    );
                    // A failed check escalates the degradation ladder one
                    // rung: re-sample, then refit, then the paper's
                    // revert-to-static fallback (Section 5.4).
                    if failed {
                        seg_health_ok = false;
                    }
                    self.emit(executed, || StateRecord::HealthChecked {
                        segment,
                        check: health_checks,
                        passed: !failed,
                        testing_ipc: testing_so_far.ipc.to_bits(),
                        baseline_ipc: health_baseline.ipc.to_bits(),
                    });
                    let (action, transition) = ladder.observe(failed);
                    if let Some(tr) = transition {
                        self.emit(executed, || StateRecord::LadderMoved {
                            segment,
                            from: tr.from,
                            to: tr.to,
                            failures: tr.failures,
                            lifetime_years: testing_so_far.lifetime_years.to_bits(),
                        });
                    }
                    let mut resample = false;
                    match action {
                        DegradationAction::None => {}
                        DegradationAction::Resample => resample = true,
                        DegradationAction::Refit => {
                            // Fold the degraded testing observation into
                            // the sample set and re-optimize in place, so
                            // the model sees how the choice actually ran.
                            let refit_span = self.telemetry.span("refit", executed);
                            sample_data.push((chosen, testing_so_far));
                            let mut refit = MetricsPredictor::new(model);
                            refit.fit_traced(
                                &sample_data,
                                Some(last_baseline),
                                &mut self.telemetry,
                                executed,
                            );
                            let repredictions = refit.predict_all(&self.space);
                            opt = optimize(
                                &self.space,
                                &repredictions,
                                &self.objective,
                                self.baseline_config,
                                self.cfg.quota_fixup,
                            );
                            chosen = opt.config;
                            self.telemetry.close_span(refit_span, executed);
                            self.emit(executed, || decision(segment, &opt, true));
                            // The degraded refit mixed testing data into
                            // the sample set; it is not a clean phase fit
                            // and must never be reused by elision.
                            fit_cache.clear();
                            warm_coasting = false;
                        }
                        DegradationAction::RevertToStatic => {
                            health_fallback = true;
                            chosen = self.baseline_config;
                            fit_cache.clear();
                            warm_coasting = false;
                            self.telemetry.incr("health_fallbacks", 1);
                        }
                    }
                    self.telemetry.close_span(health_span, executed);
                    if resample {
                        // Rung 1: abandon the testing period and restart
                        // the segment so sampling observes the degraded
                        // regime. Stats were finalized and reset above, so
                        // the tail flush below is a no-op.
                        break;
                    }
                    sys.set_policy(chosen.to_policy());
                    sys.run_window(source, self.cfg.phase.window_insts / 4);
                    executed += self.cfg.phase.window_insts / 4;
                    sys.reset_stats();
                }
            }
            // Flush the tail of the measured region. The wear meter is
            // snapshotted after the finalize (it still covers the final
            // measured epoch) and before the reset clears it.
            let seg_wear_meter = {
                let stats = sys.finalize();
                if stats.instructions > 0 {
                    seg_testing.add(&stats);
                    total_testing.add(&stats);
                }
                let snap = sys.wear_snapshot();
                sys.reset_stats();
                snap
            };
            last_segment_healthy = seg_health_ok;
            self.telemetry.close_span(testing_span, executed);

            let seg_testing_metrics = if seg_testing.is_empty() {
                seg_sampling.metrics(wear_budget)
            } else {
                seg_testing.metrics(wear_budget)
            };
            self.emit(executed, || StateRecord::WearDelta {
                segment,
                sampling_wear: seg_sampling.wear_units.to_bits(),
                testing_wear: seg_testing.wear_units.to_bits(),
                meter: seg_wear_meter,
            });
            self.emit(executed, || StateRecord::SegmentCompleted {
                segment,
                chosen,
                health_fallback,
                fit_elided,
                warm_started,
                sampling_insts: seg_sampling.insts,
                testing_insts: seg_testing.insts,
                testing: seg_testing_metrics.into(),
            });
            // Segment boundaries compact the log into a snapshot (a
            // no-op while recovery is still verifying the prefix, and
            // after an injected crash).
            if let Some(session) = self.persist.as_mut() {
                let snap_span = self.telemetry.span("persist.snapshot", executed);
                session
                    .checkpoint()
                    // mct-tidy: allow(P003) -- documented `# Panics` contract: a failing store must not be ignored
                    .expect("persist: segment snapshot failed");
                self.telemetry.close_span(snap_span, executed);
            }

            segments.push(SegmentReport {
                optimization: opt,
                baseline: last_baseline,
                sampling: seg_sampling.metrics(wear_budget),
                testing: seg_testing_metrics,
                health_fallback,
                fit_elided,
                warm_started,
                sampling_insts: seg_sampling.insts,
                testing_insts: seg_testing.insts,
            });
            self.telemetry.close_span(segment_span, executed);
        }

        let final_metrics = if total_testing.is_empty() {
            total_sampling.metrics(wear_budget)
        } else {
            total_testing.metrics(wear_budget)
        };
        self.emit(executed, || StateRecord::RunCompleted {
            executed,
            chosen,
            segments: segments.len() as u64,
            final_metrics: final_metrics.into(),
        });
        if let Some(mut session) = self.persist.take() {
            // The final snapshot compacts a clean run to one snapshot
            // whose log ends in `run_completed` — the warm-start source
            // for the next `--resume`.
            session
                .checkpoint()
                // mct-tidy: allow(P003) -- documented `# Panics` contract: a failing store must not be ignored
                .expect("persist: final snapshot failed");
            self.telemetry.incr("persist.appends", session.appends());
            self.telemetry
                .incr("persist.snapshots", session.snapshots());
        }
        self.telemetry.close_span(run_span, executed);
        self.telemetry.finish(executed);
        Outcome {
            chosen_config: chosen,
            final_metrics,
            sampling_metrics: total_sampling.metrics(wear_budget),
            baseline_metrics: last_baseline,
            phases_detected: detector.phases_detected(),
            segments,
            sampling_insts: total_sampling.insts,
            testing_insts: total_testing.insts,
        }
    }

    /// Emit one state transition — the single path every controller
    /// state change takes. `build` runs only when someone listens: a
    /// recorder receives every transition (fitted-model payloads pruned),
    /// and the state store logs the [durable](StateRecord::durable) ones
    /// — appended, or verified against the log while recovery replays it.
    /// With neither attached this is one branch.
    ///
    /// # Panics
    /// Panics on store failure or on divergence between re-execution and
    /// a recovered log: the crash-recovery contract is bit-identical
    /// re-execution, so a mismatch is a bug that must surface immediately
    /// — continuing would persist split-brain state.
    fn emit(&mut self, sim_insts: u64, build: impl FnOnce() -> StateRecord) {
        if !self.telemetry.enabled() && self.persist.is_none() {
            return;
        }
        let record = build();
        if self.telemetry.enabled() {
            self.telemetry.transition(
                sim_insts,
                record.kind(),
                record.pruned().serialize_content(),
            );
        }
        if let Some(session) = self.persist.as_mut().filter(|_| record.durable()) {
            session
                .emit(record)
                // mct-tidy: allow(P003) -- documented `# Panics` contract: divergence must fail loudly, never persist split-brain state
                .expect("persist: state record rejected");
        }
    }

    /// Run one measurement window under `config` and return its stats.
    ///
    /// A settle window (one quarter of the measurement) runs between the
    /// policy switch and the measured region: switching drains the memory
    /// queues, and queue-occupancy-dependent behaviour (bank-aware issue,
    /// drain mode) is unrepresentative until they refill.
    ///
    /// With a recorder attached, each window also feeds the registry's
    /// `sim.accesses` counter and `sim.accesses_per_sec` histogram (host
    /// wall-clock simulator throughput), and the measured region is
    /// wrapped in a `sim.window` leaf span — the profiler's view of raw
    /// simulator time under whichever stage requested the window.
    fn measure<S: AccessSource>(
        &mut self,
        sys: &mut System,
        source: &mut S,
        config: NvmConfig,
        insts: u64,
        executed: u64,
    ) -> RunStats {
        sys.set_policy(config.to_policy());
        sys.run_window(source, (insts / 4).max(500));
        sys.reset_stats();
        // One recorder gate for the whole probe: with the default
        // NullRecorder the measured region runs with zero telemetry calls
        // in front of it (each span/observe call would branch on its own,
        // but four branches per window add up across a sweep's thousands
        // of windows).
        // Both span edges carry the caller's `executed` clock: the caller
        // only advances it after the window returns, and constant edges
        // keep the trace's sim_insts monotone. Duration lives in wall_us.
        let probe = self.telemetry.enabled().then(|| {
            let span = self.telemetry.span("sim.window", executed);
            // mct-tidy: allow(D002) -- telemetry-gated latency probe; never feeds results
            (span, std::time::Instant::now())
        });
        sys.run_window(source, insts);
        let stats = sys.finalize();
        sys.reset_stats();
        if let Some((window_span, start)) = probe {
            self.telemetry.close_span(window_span, executed);
            let accesses = stats.mem.reads_completed + stats.mem.writes_completed();
            self.telemetry.incr("sim.accesses", accesses);
            let host_secs = start.elapsed().as_secs_f64();
            if host_secs > 0.0 && accesses > 0 {
                self.telemetry
                    .observe("sim.accesses_per_sec", accesses as f64 / host_secs);
            }
        }
        stats
    }
}

/// The durable record of an optimizer decision: the segment's primary
/// choice, or (`refit`) an in-place re-decision forced by the ladder.
fn decision(segment: u64, opt: &OptimizationResult, refit: bool) -> StateRecord {
    StateRecord::DecisionMade {
        segment,
        config: opt.config,
        predicted: opt.predicted.into(),
        fell_back: opt.fell_back,
        refit,
        before_fixup: opt.fixup_changed().then_some(opt.config_before_fixup),
    }
}

/// The lasso support a fit diagnosis reports: nonzero weights of a lasso
/// refit on the samples, empty for other learners.
fn lasso_support(model: ModelKind, sample_data: &[(NvmConfig, Metrics)]) -> Vec<(String, f64)> {
    if !matches!(model, ModelKind::LinearLasso | ModelKind::QuadraticLasso) {
        return Vec::new();
    }
    lasso_feature_report(sample_data, 0, model == ModelKind::QuadraticLasso, 0.01)
        .into_iter()
        .filter(|(_, w)| w.abs() > 1e-6)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mct_workloads::Workload;

    fn quick() -> ControllerConfig {
        ControllerConfig::quick_demo()
    }

    #[test]
    fn runs_end_to_end_on_stream() {
        let mut c = Controller::new(quick(), Objective::paper_default(8.0));
        let outcome = c.run(&mut Workload::Stream.source(3));
        assert!(outcome.final_metrics.ipc > 0.0);
        assert!(!outcome.segments.is_empty());
        assert!(outcome.testing_insts > 0);
        assert!(outcome.sampling_insts > 0);
        outcome.chosen_config.validate().unwrap();
    }

    #[test]
    fn quota_fixup_applied_to_choice() {
        let mut c = Controller::new(quick(), Objective::paper_default(8.0));
        let outcome = c.run(&mut Workload::Stream.source(3));
        let seg = &outcome.segments[0];
        if !seg.health_fallback && !seg.optimization.fell_back {
            assert!(seg.optimization.config.wear_quota);
            assert_eq!(seg.optimization.config.wear_quota_target, 8.0);
        }
    }

    #[test]
    fn samples_include_anchors() {
        let c = Controller::new(quick(), Objective::paper_default(8.0));
        assert!(c
            .samples()
            .iter()
            .any(|s| *s == NvmConfig::default_config()));
        assert!(c
            .samples()
            .iter()
            .any(|s| *s == NvmConfig::static_baseline().without_wear_quota()));
    }

    #[test]
    fn feature_based_controller_has_more_samples() {
        let mut cfg = quick();
        cfg.feature_based_sampling = true;
        let c = Controller::new(cfg, Objective::paper_default(8.0));
        assert!(c.samples().len() >= 60);
    }

    #[test]
    fn extrapolation_formula() {
        let outcome = Outcome {
            chosen_config: NvmConfig::default_config(),
            final_metrics: Metrics {
                ipc: 1.0,
                lifetime_years: 8.0,
                energy_j: 10.0,
            },
            sampling_metrics: Metrics {
                ipc: 0.5,
                lifetime_years: 8.0,
                energy_j: 2.0,
            },
            baseline_metrics: Metrics {
                ipc: 0.9,
                lifetime_years: 8.0,
                energy_j: 9.0,
            },
            phases_detected: 0,
            segments: vec![],
            sampling_insts: 1000,
            testing_insts: 1000,
        };
        // alpha = 1: mean of sampling and testing IPC.
        assert!((outcome.extrapolated_ipc(1.0) - 0.75).abs() < 1e-12);
        // alpha -> large: approaches testing IPC.
        assert!((outcome.extrapolated_ipc(1e9) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn ocean_phases_trigger_resampling() {
        let mut cfg = quick();
        // Long enough to cross ocean's 2M-instruction phase boundary.
        cfg.total_insts = 3_000_000;
        cfg.warmup_insts = 200_000;
        cfg.phase.window_insts = 50_000;
        cfg.phase.history_windows = 40;
        cfg.phase.recent_windows = 4;
        let mut c = Controller::new(cfg, Objective::paper_default(8.0));
        let outcome = c.run(&mut Workload::Ocean.source(5));
        assert!(
            outcome.segments.len() >= 2,
            "ocean's coarse phases should trigger resampling (got {} segments, {} phases)",
            outcome.segments.len(),
            outcome.phases_detected
        );
    }
}
