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
use mct_sim::wear::WearSnapshot;
use mct_telemetry::{RecorderHandle, Telemetry};

use crate::config::NvmConfig;
use crate::degrade::{DegradationAction, DegradationLadder};
use crate::objective::Objective;
use crate::optimizer::{optimize, OptimizationResult};
use crate::persist::{
    config_digest, PersistConfig, PersistSession, PredictorState, StateRecord, SNAPSHOT_MODEL_SLOTS,
};
use crate::phase::{phase_signature, PhaseDetector, PhaseDetectorConfig};
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

/// One [`Controller::run`] in progress: the controller and the access
/// source it drives, plus everything the run carries from stage to stage
/// and segment to segment. Its stage methods advance it in the paper's
/// order.
struct RunState<'a, S> {
    ctl: &'a mut Controller,
    source: &'a mut S,
    sys: System,
    /// The measured-instruction clock: instructions run since warmup, and
    /// the `sim_insts` of every span edge and transition.
    executed: u64,
    detector: PhaseDetector,
    /// The degradation ladder outlives segments: faults persist across
    /// phase boundaries, so escalation must not reset on re-sample.
    ladder: DegradationLadder,
    /// Recently fitted predictors, each keyed by the measured workload
    /// intensity (accesses/kinst) at fit time: a new segment whose
    /// intensity stays within a quarter octave of a banked fit (and whose
    /// health record is clean) reuses that model instead of refitting —
    /// alternating phases (ocean's A→B→A) hit the bank on every return.
    /// Entries anchor on the intensity *at fit time*, so slow drift
    /// cannot ratchet an elided model arbitrarily far from the phase it
    /// was trained on. Dropped wholesale whenever the ladder forces a
    /// refit or a revert — the banked models no longer describe how the
    /// system behaves.
    fit_bank: Vec<(f64, MetricsPredictor)>,
    /// Warm start: a clean prior run's fitted models pre-seed the bank.
    /// While the controller coasts on them (until the first fresh fit or
    /// ladder action), segments that hit the bank skip their sampling
    /// period outright — the `--resume` acceptance criterion. A different
    /// workload behind the same config would be caught by the health
    /// checks, exactly as a stale banked fit would mid-run.
    warm_coasting: bool,
    /// Did every health check in the *previous* segment pass? A failed
    /// check means the banked model misjudged this regime, so the next
    /// segment must refit even if the intensity still matches.
    last_segment_healthy: bool,
    sampling: MetricAccum,
    testing: MetricAccum,
    last_baseline: Metrics,
    chosen: NvmConfig,
    segments: Vec<SegmentReport>,
}

/// One segment's working set, handed from stage to stage.
#[derive(Default)]
struct Segment {
    index: u64,
    /// The phase's memory workload, accesses per kilo-instruction.
    apki: f64,
    /// The bank entry this phase matches, if any.
    bank_slot: Option<usize>,
    fit_elided: bool,
    warm_started: bool,
    /// The fit's training set: each sample configuration with its
    /// cyclically sampled metrics.
    samples: Vec<(NvmConfig, Metrics)>,
    sampling: MetricAccum,
    testing: MetricAccum,
    /// Health-check reference: accumulated windows of the *actual*
    /// baseline (with its wear quota). The sampled anchor is quota-free
    /// and would read systematically fast.
    health_baseline: MetricAccum,
    health_checks: u32,
    check_failed: bool,
    health_fallback: bool,
}

impl Segment {
    /// The segment's fit record, carrying `model` for a fresh fit.
    fn fit_completed(&self, model: Option<PredictorState>) -> StateRecord {
        StateRecord::FitCompleted {
            segment: self.index,
            elided: self.fit_elided,
            apki: self.apki.to_bits(),
            signature: phase_signature(self.apki),
            model,
        }
    }
}

impl<S: AccessSource> RunState<'_, S> {
    /// Run one stage inside a span named `name`: the span opens at the
    /// measured-instruction clock the stage starts from and closes at the
    /// clock it leaves behind, so the span tree is the stage structure.
    /// The only place the controller opens spans, apart from `measure`'s
    /// `sim.window` leaf.
    fn staged<R>(
        &mut self,
        name: &'static str,
        labels: &[(&str, &str)],
        body: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let span = self.ctl.telemetry.span_with(name, self.executed, labels);
        let out = body(self);
        self.ctl.telemetry.close_span(span, self.executed);
        out
    }

    /// Open the run: the state store, the `RunStarted` record, warmup,
    /// the fault plan and the warm-start bank.
    ///
    /// Opening the store replays any existing log: a clean prior run arms
    /// the warm-start bank; an interrupted one becomes a verification
    /// prefix — the controller re-executes from instruction zero and,
    /// while inside the prefix, every durable record it emits is compared
    /// against the log instead of appended, so recovery provably
    /// converges on the pre-crash trajectory before any new state is
    /// persisted.
    fn start(&mut self) {
        let cfg = &self.ctl.cfg;
        let run_started = (cfg.persist.is_some() || self.ctl.telemetry.enabled()).then(|| {
            StateRecord::RunStarted {
                schema: crate::persist::STATE_SCHEMA_VERSION,
                seed: cfg.seed,
                model: cfg.model,
                total_insts: cfg.total_insts,
                config_digest: config_digest(cfg),
            }
        });
        if let (Some(pcfg), Some(started)) = (cfg.persist.clone(), &run_started) {
            self.staged("persist.open", &[], |st| {
                st.ctl.persist = match PersistSession::begin(&pcfg, started) {
                    Ok(session) => Some(session),
                    // mct-tidy: allow(P002) -- documented `# Panics` contract: an unrecoverable store must fail loudly
                    Err(e) => panic!("persist: cannot begin session in {}: {e}", pcfg.dir),
                };
            });
        }
        if let Some(started) = run_started {
            self.ctl.emit(0, || started);
        }
        // Span clocks stay at 0 through warmup: the trace's `sim_insts` is
        // the *measured* instruction clock (`executed`), which starts after
        // warmup. Wall time still captures the warmup cost.
        self.staged("warmup", &[], |st| {
            st.sys.warmup(st.source, st.ctl.cfg.warmup_insts);
        });
        // Faults arm after warmup, so plan timestamps are relative to the
        // start of the measured region (validated in `Controller::new`).
        if let Some(plan) = self.ctl.cfg.fault_plan.clone() {
            self.staged("fault.arm", &[], |st| st.sys.arm_faults(&plan));
        }
        // Warm start: a clean prior run's models pre-seed the fit bank.
        if let Some(session) = self.ctl.persist.as_mut() {
            for (apki_bits, state) in session.take_warm_bank() {
                if self.fit_bank.len() < SNAPSHOT_MODEL_SLOTS {
                    let predictor = MetricsPredictor::from_state(state);
                    self.fit_bank.push((f64::from_bits(apki_bits), predictor));
                    self.warm_coasting = true;
                }
            }
            let replayed_records = session.replayed() as u64;
            self.ctl.emit(0, || StateRecord::PersistRecovered {
                replayed_records,
                warm_start: self.warm_coasting,
                restored_models: self.fit_bank.len() as u64,
            });
        }
    }

    /// One sampling→optimize→test cycle (one detected phase), in the
    /// paper's order.
    fn segment(&mut self) {
        let index = self.segments.len() as u64;
        let label = index.to_string();
        let report = self.staged("segment", &[("segment", &label)], |st| {
            let executed = st.executed;
            st.ctl.emit(executed, || StateRecord::SegmentStarted {
                segment: index,
                executed,
            });
            let apki = st.baseline(index);
            let mut seg = st.sample(index, apki);
            let predictions = st.fit_or_reuse(&seg);
            let mut opt = st.decide(index, &predictions);
            let meter = st.test(&mut seg, &mut opt);
            st.close_segment(&seg, opt, meter)
        });
        self.segments.push(report);
    }

    /// Measure the static baseline, the segment's normalization
    /// reference. Returns the phase's memory workload in accesses per
    /// kilo-instruction.
    fn baseline(&mut self, segment: u64) -> f64 {
        let (stats, extended) = self.staged("baseline", &[], |st| {
            let (config, insts) = (st.ctl.baseline_config, st.ctl.cfg.baseline_insts);
            let mut stats = st.measure(config, insts);
            // Sparse phases need a longer window before the measurement
            // means anything; extend until ~1000 accesses were observed.
            let observed = stats.mem.reads_completed + stats.mem.writes_completed();
            let extended = observed < 1_000 && observed > 0;
            if extended {
                stats = st.measure(config, insts * (1_000 / observed.max(50)).min(50));
                st.executed += stats.instructions;
            }
            st.executed += insts;
            st.last_baseline = stats.metrics();
            (stats, extended)
        });
        if self.ctl.telemetry.enabled() {
            for (name, v) in stats.mem_counter_snapshot() {
                self.ctl
                    .telemetry
                    .observe(&format!("mem.baseline.{name}"), v as f64);
            }
        }
        self.ctl
            .emit(self.executed, || StateRecord::BaselineMeasured {
                segment,
                metrics: self.last_baseline.into(),
                insts: stats.instructions,
                extended,
            });
        stats.mem_accesses_per_kinst().max(0.5)
    }

    /// The sampling period: cyclic fine-grained sampling of every sample
    /// configuration (Section 5.2), skipped on a warm start.
    fn sample(&mut self, index: u64, apki: f64) -> Segment {
        let bank_slot = self.bank_slot(apki);
        let fit_elided =
            self.ctl.cfg.refit_elision && self.last_segment_healthy && bank_slot.is_some();
        let mut seg = Segment {
            index,
            apki,
            bank_slot,
            fit_elided,
            // Still coasting on restored models and this segment's
            // intensity hits the bank: skip the sampling period outright
            // (`sampling_insts` stays 0, the `--resume` acceptance
            // criterion).
            warm_started: self.warm_coasting && fit_elided,
            ..Segment::default()
        };
        if seg.warm_started {
            // The sample set stays empty (an all-zero one would poison a
            // later ladder-forced refit), and with no anchor sample the
            // pre-window baseline stands.
            self.ctl.telemetry.incr("persist.sampling_skipped", 1);
            return seg;
        }
        // Size the fine-grained sampling unit from the phase's mean
        // memory workload: dense phases use small units, sparse phases
        // larger ones, targeting ~100 accesses per unit. Many cyclic
        // rounds spread each sample's units across the phase's bursts (the
        // paper loops ~130 times); the sampling period is capped at ~40%
        // of the total budget by shrinking the unit, never the round
        // count, so burst coverage survives.
        let cfg = &self.ctl.cfg;
        let samples = self.ctl.samples.clone();
        let n_samples = samples.len() as u64;
        let rounds = cfg.sampling_rounds.max(1) as u64;
        let unit_insts = cfg
            .sample_unit_insts
            .max((100.0 / apki * 1e3) as u64)
            .min((cfg.total_insts as f64 * 0.4) as u64 / (n_samples * rounds))
            .max(1_000);
        let mut accums = vec![MetricAccum::default(); samples.len()];
        self.staged("sampling", &[], |st| {
            for round in 0..rounds {
                st.staged("sampling.round", &[], |st| {
                    for (config, accum) in samples.iter().zip(&mut accums) {
                        let stats = st.measure(*config, unit_insts);
                        st.executed += stats.instructions;
                        accum.add(&stats);
                        seg.sampling.add(&stats);
                        st.sampling.add(&stats);
                    }
                });
                st.ctl.emit(st.executed, || StateRecord::SamplingRound {
                    segment: index,
                    round,
                    total_rounds: rounds,
                    samples: n_samples,
                    unit_insts,
                });
            }
        });
        seg.samples = samples
            .iter()
            .zip(&accums)
            .map(|(c, a)| (*c, self.metrics(a)))
            .collect();
        // Normalize to the *cyclically sampled* baseline anchor: the
        // pre-window baseline can land inside a single burst phase, while
        // the anchor sample saw the same phase mixture as every other
        // sample (the whole point of cyclic fine-grained sampling).
        let anchor = NvmConfig::static_baseline().without_wear_quota();
        if let Some(idx) = samples.iter().position(|c| *c == anchor) {
            self.last_baseline = self.metrics(&accums[idx]);
        }
        seg
    }

    /// Fit the predictor on the segment's samples and bank it — or, on an
    /// elided segment, reuse the banked fit — then predict the whole
    /// space (wear quota excluded per Section 4.4).
    fn fit_or_reuse(&mut self, seg: &Segment) -> Vec<Metrics> {
        let slot = if seg.fit_elided {
            // Same phase, clean health record: the banked predictor still
            // describes this phase. No fit span, no diagnostics refits.
            self.ctl.emit(self.executed, || seg.fit_completed(None));
            self.ctl.telemetry.incr("fit.elided", 1);
            // mct-tidy: allow(P003) -- fit_elided implies a banked hit
            seg.bank_slot.expect("elision requires a cached fit")
        } else {
            // Crash recovery: a fresh fit inside the replayed prefix
            // restores its persisted model instead of refitting, pinning
            // the save/restore path to the bit-identical-decisions
            // contract on every recovery (not only in unit tests).
            let restored = self
                .ctl
                .persist
                .as_ref()
                .and_then(|s| s.replayed_fit(seg.index))
                .map(MetricsPredictor::from_state);
            let learner = self.ctl.cfg.model.short_label();
            let predictor = self.staged("fit", &[("learner", learner)], |st| {
                if restored.is_some() {
                    st.ctl.telemetry.incr("persist.models_restored", 1);
                }
                let predictor = restored.unwrap_or_else(|| st.fit(&seg.samples));
                // The first fresh fit ends warm coasting: from here the
                // bank is the controller's own, and sampling resumes its
                // normal cadence.
                st.warm_coasting = false;
                st.ctl
                    .emit(st.executed, || seg.fit_completed(predictor.save_state()));
                predictor
            });
            self.bank(seg.bank_slot, seg.apki, predictor)
        };
        let predictions = self.staged("predict", &[], |st| {
            st.fit_bank[slot].1.predict_all(&st.ctl.space)
        });
        // Diagnostics-only work (k-fold refits, a lasso report) runs
        // solely when a recorder is attached.
        if !seg.fit_elided && self.ctl.telemetry.enabled() {
            let (model, predictor) = (self.ctl.cfg.model, &self.fit_bank[slot].1);
            self.ctl.emit(self.executed, || StateRecord::FitDiagnosed {
                segment: seg.index,
                n_samples: seg.samples.len() as u64,
                cv_r2_ipc: predictor.cv_r2_ipc(&seg.samples, 4),
                lasso_features: lasso_support(model, &seg.samples),
            });
        }
        predictions
    }

    /// Constrained optimization plus the wear-quota fixup (Section 5.3);
    /// the choice becomes the configuration under test.
    fn decide(&mut self, segment: u64, predictions: &[Metrics]) -> OptimizationResult {
        let opt = self.staged("decide", &[], |st| st.choose(predictions));
        if opt.fell_back {
            self.ctl.telemetry.incr("optimizer_fallbacks", 1);
        }
        self.ctl
            .emit(self.executed, || decision(segment, &opt, false));
        opt
    }

    /// The testing period (Section 5.4): run the choice window by window,
    /// feeding the phase detector and health-checking against the
    /// baseline, until the budget runs out, the phase changes, or the
    /// ladder asks for a re-sample. Returns the wear meter over the last
    /// measured region.
    ///
    /// The measured region is finalized only at health-check and phase
    /// boundaries (not per window): finalizing drains the write queues,
    /// and doing so every window would deflate the testing IPC relative
    /// to the long-window methodology the static/ideal references are
    /// measured with.
    fn test(&mut self, seg: &mut Segment, opt: &mut OptimizationResult) -> WearSnapshot {
        let window = self.ctl.cfg.phase.window_insts;
        self.settle(window / 4);
        self.detector.reset();
        self.staged("testing", &[], |st| {
            let mut windows: u64 = 0;
            while st.executed < st.ctl.cfg.total_insts {
                let before = st.sys.perf_counters();
                st.sys.run_window(st.source, window);
                let workload = st.sys.perf_counters().workload_since(&before) as f64;
                st.executed += window;
                windows += 1;
                if st.detector.observe(workload) {
                    st.ctl.emit(st.executed, || StateRecord::PhaseDetected {
                        segment: seg.index,
                        score: st.detector.last_score(),
                        phases_detected: st.detector.phases_detected(),
                        mean_workload: workload * 1e3 / window as f64,
                    });
                    st.finalize_testing(&mut seg.testing);
                    break;
                }
                let every = st.ctl.cfg.health_check_every_windows;
                if !seg.health_fallback && every > 0 && windows.is_multiple_of(every) {
                    if st.health_check(seg, opt) {
                        // Rung 1: abandon the testing period and restart
                        // the segment so sampling observes the degraded
                        // regime. Stats were finalized and reset by the
                        // check, so the tail flush below is a no-op.
                        break;
                    }
                    st.settle(window / 4);
                }
            }
            // Flush the tail of the measured region.
            let meter = st.finalize_testing(&mut seg.testing);
            st.last_segment_healthy = !seg.check_failed;
            meter
        })
    }

    /// One periodic health check: run the baseline briefly and judge the
    /// testing period against it. A failed check escalates the
    /// degradation ladder one rung: re-sample, then refit, then the
    /// paper's revert-to-static fallback (Section 5.4). Returns whether
    /// the ladder asked for a re-sample.
    fn health_check(&mut self, seg: &mut Segment, opt: &mut OptimizationResult) -> bool {
        self.staged("health_check", &[], |st| {
            st.finalize_testing(&mut seg.testing);
            let hc = st.measure(st.ctl.baseline_config, st.ctl.cfg.health_check_insts);
            st.executed += hc.instructions;
            // Accumulate baseline health-check windows so the reference
            // covers the same phase mixture the testing aggregate does
            // (one window is burst-biased); only act once at least two
            // windows accumulated.
            seg.health_baseline.add(&hc);
            seg.health_checks += 1;
            let baseline = st.metrics(&seg.health_baseline);
            let testing = st.metrics(&seg.testing);
            let failed = DegradationLadder::reading_failed(
                seg.health_checks,
                testing.ipc,
                baseline.ipc,
                testing.lifetime_years,
                st.ctl.objective.lifetime_floor(),
            );
            seg.check_failed |= failed;
            st.ctl.emit(st.executed, || StateRecord::HealthChecked {
                segment: seg.index,
                check: seg.health_checks,
                passed: !failed,
                testing_ipc: testing.ipc.to_bits(),
                baseline_ipc: baseline.ipc.to_bits(),
            });
            let (action, transition) = st.ladder.observe(failed);
            if let Some(tr) = transition {
                st.ctl.emit(st.executed, || StateRecord::LadderMoved {
                    segment: seg.index,
                    from: tr.from,
                    to: tr.to,
                    failures: tr.failures,
                    lifetime_years: testing.lifetime_years.to_bits(),
                });
            }
            match action {
                DegradationAction::None => {}
                DegradationAction::Resample => return true,
                DegradationAction::Refit => st.refit(seg, opt, testing),
                DegradationAction::RevertToStatic => {
                    seg.health_fallback = true;
                    st.chosen = st.ctl.baseline_config;
                    st.forget_fits();
                    st.ctl.telemetry.incr("health_fallbacks", 1);
                }
            }
            false
        })
    }

    /// The ladder's refit rung: fold the degraded testing observation into
    /// the sample set and re-decide in place, so the model sees how the
    /// choice actually ran.
    fn refit(&mut self, seg: &mut Segment, opt: &mut OptimizationResult, observed: Metrics) {
        self.staged("refit", &[], |st| {
            seg.samples.push((st.chosen, observed));
            let predictor = st.fit(&seg.samples);
            *opt = st.choose(&predictor.predict_all(&st.ctl.space));
        });
        self.ctl
            .emit(self.executed, || decision(seg.index, opt, true));
        // The degraded refit mixed testing data into the sample set; it is
        // not a clean phase fit and must never be reused by elision.
        self.forget_fits();
    }

    /// Close a segment: its wear and completion records, the
    /// segment-boundary snapshot, and its report.
    fn close_segment(
        &mut self,
        seg: &Segment,
        opt: OptimizationResult,
        meter: WearSnapshot,
    ) -> SegmentReport {
        let testing = self.realized(&seg.testing, &seg.sampling);
        self.ctl.emit(self.executed, || StateRecord::WearDelta {
            segment: seg.index,
            sampling_wear: seg.sampling.wear_units.to_bits(),
            testing_wear: seg.testing.wear_units.to_bits(),
            meter,
        });
        self.ctl
            .emit(self.executed, || StateRecord::SegmentCompleted {
                segment: seg.index,
                chosen: self.chosen,
                health_fallback: seg.health_fallback,
                fit_elided: seg.fit_elided,
                warm_started: seg.warm_started,
                sampling_insts: seg.sampling.insts,
                testing_insts: seg.testing.insts,
                testing: testing.into(),
            });
        // Segment boundaries compact the log into a snapshot (a no-op
        // while recovery is still verifying the prefix, and after an
        // injected crash).
        if self.ctl.persist.is_some() {
            self.staged("persist.snapshot", &[], |st| st.ctl.checkpoint());
        }
        SegmentReport {
            optimization: opt,
            baseline: self.last_baseline,
            sampling: self.metrics(&seg.sampling),
            testing,
            health_fallback: seg.health_fallback,
            fit_elided: seg.fit_elided,
            warm_started: seg.warm_started,
            sampling_insts: seg.sampling.insts,
            testing_insts: seg.testing.insts,
        }
    }

    /// Close the run: the `RunCompleted` record and the final snapshot,
    /// which compacts a clean run to one snapshot whose log ends in
    /// `run_completed` — the warm-start source for the next `--resume`.
    /// Returns the run's realized metrics.
    fn complete(&mut self) -> Metrics {
        let final_metrics = self.realized(&self.testing, &self.sampling);
        self.ctl.emit(self.executed, || StateRecord::RunCompleted {
            executed: self.executed,
            chosen: self.chosen,
            segments: self.segments.len() as u64,
            final_metrics: final_metrics.into(),
        });
        self.ctl.checkpoint();
        if let Some(session) = self.ctl.persist.take() {
            let telemetry = &mut self.ctl.telemetry;
            telemetry.incr("persist.appends", session.appends());
            telemetry.incr("persist.snapshots", session.snapshots());
        }
        final_metrics
    }

    /// A fresh predictor fitted on `samples`, normalized to the baseline:
    /// the one fit body of the segment fit and the ladder's refit.
    fn fit(&mut self, samples: &[(NvmConfig, Metrics)]) -> MetricsPredictor {
        let mut predictor = MetricsPredictor::new(self.ctl.cfg.model);
        let baseline = Some(self.last_baseline);
        predictor.fit_traced(samples, baseline, &mut self.ctl.telemetry, self.executed);
        predictor
    }

    /// The one optimizer call: choose from `predictions` under the
    /// objective, apply the wear-quota fixup, and make the choice the
    /// configuration under test.
    fn choose(&mut self, predictions: &[Metrics]) -> OptimizationResult {
        let ctl = &self.ctl;
        let opt = optimize(
            &ctl.space,
            predictions,
            &ctl.objective,
            ctl.baseline_config,
            ctl.cfg.quota_fixup,
        );
        self.chosen = opt.config;
        opt
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
    /// simulator throughput over the window span's wall duration), and
    /// the measured region is wrapped in a `sim.window` leaf span — the
    /// profiler's view of raw simulator time under whichever stage
    /// requested the window. Both span edges carry the caller's clock:
    /// the caller only advances it after the window returns, and constant
    /// edges keep the trace's `sim_insts` monotone.
    fn measure(&mut self, config: NvmConfig, insts: u64) -> RunStats {
        self.sys.set_policy(config.to_policy());
        self.sys.run_window(self.source, (insts / 4).max(500));
        self.sys.reset_stats();
        let telemetry = &mut self.ctl.telemetry;
        let window = telemetry.span("sim.window", self.executed);
        self.sys.run_window(self.source, insts);
        let stats = self.sys.finalize();
        self.sys.reset_stats();
        let wall_us = telemetry.close_span(window, self.executed);
        if telemetry.enabled() {
            let accesses = stats.mem.reads_completed + stats.mem.writes_completed();
            telemetry.incr("sim.accesses", accesses);
            if wall_us > 0 && accesses > 0 {
                let per_sec = accesses as f64 * 1e6 / wall_us as f64;
                telemetry.observe("sim.accesses_per_sec", per_sec);
            }
        }
        stats
    }

    /// Switch the system to the chosen configuration and let it settle
    /// for `insts` unmeasured instructions.
    fn settle(&mut self, insts: u64) {
        self.sys.set_policy(self.chosen.to_policy());
        self.sys.run_window(self.source, insts);
        self.executed += insts;
        self.sys.reset_stats();
    }

    /// Close the measured testing region: its stats join the segment's
    /// (`seg_testing`) and the run's testing totals, and the epoch
    /// resets. Returns the wear meter as it stood over the closed region.
    fn finalize_testing(&mut self, seg_testing: &mut MetricAccum) -> WearSnapshot {
        let stats = self.sys.finalize();
        if stats.instructions > 0 {
            seg_testing.add(&stats);
            self.testing.add(&stats);
        }
        let meter = self.sys.wear_snapshot();
        self.sys.reset_stats();
        meter
    }

    /// Same-phase test: the banked fit nearest in intensity, if it sits
    /// within a quarter octave. A ratio test (not bucket equality) so
    /// ordinary segment-to-segment measurement jitter cannot straddle a
    /// bucket edge and force a spurious refit; ties keep the earliest
    /// (oldest) entry.
    fn bank_slot(&self, apki: f64) -> Option<usize> {
        self.fit_bank
            .iter()
            .enumerate()
            .map(|(slot, (fit_apki, _))| (slot, (apki / fit_apki).log2().abs()))
            .filter(|&(_, dist)| dist <= 0.25)
            .fold(None, |best: Option<(usize, f64)>, cand| match best {
                Some((_, d)) if d <= cand.1 => best,
                _ => Some(cand),
            })
            .map(|(slot, _)| slot)
    }

    /// Bank a fresh fit: refresh `slot` (the entry covering this
    /// intensity) if there is one, else evict the oldest entry. Returns
    /// the fit's slot.
    fn bank(&mut self, slot: Option<usize>, apki: f64, predictor: MetricsPredictor) -> usize {
        if let Some(slot) = slot {
            self.fit_bank[slot] = (apki, predictor);
            return slot;
        }
        if self.fit_bank.len() == SNAPSHOT_MODEL_SLOTS {
            self.fit_bank.remove(0);
        }
        self.fit_bank.push((apki, predictor));
        self.fit_bank.len() - 1
    }

    /// Drop the bank and stop coasting on it (after a ladder refit or
    /// revert).
    fn forget_fits(&mut self) {
        self.fit_bank.clear();
        self.warm_coasting = false;
    }

    /// Metrics of an accumulator under the configured wear budget.
    fn metrics(&self, accum: &MetricAccum) -> Metrics {
        accum.metrics(self.ctl.cfg.system.wear.budget())
    }

    /// Realized metrics: the testing period's, or the sampling period's
    /// when no testing ran.
    fn realized(&self, testing: &MetricAccum, sampling: &MetricAccum) -> Metrics {
        self.metrics(if testing.is_empty() {
            sampling
        } else {
            testing
        })
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
    /// metrics. Without one the controller's telemetry is disabled and
    /// skips all instrumentation work.
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
    /// The run is a straight line of private stage methods in the paper's
    /// order (`start`, then per segment `baseline`, `sample`,
    /// `fit_or_reuse`, `decide` and `test`) over one run state. With a
    /// recorder attached, each stage runs inside its own span: a `run`
    /// root (labeled with the learner) whose children — `warmup`,
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
        let mut st = RunState {
            sys: System::new(self.cfg.system.clone(), self.baseline_config.to_policy()),
            executed: 0,
            detector: PhaseDetector::new(self.cfg.phase),
            ladder: DegradationLadder::new(),
            fit_bank: Vec::new(),
            warm_coasting: false,
            last_segment_healthy: true,
            sampling: MetricAccum::default(),
            testing: MetricAccum::default(),
            last_baseline: Metrics {
                ipc: 1.0,
                lifetime_years: 1.0,
                energy_j: 1.0,
            },
            chosen: self.baseline_config,
            segments: Vec::new(),
            ctl: self,
            source,
        };
        let learner = st.ctl.cfg.model.short_label();
        let final_metrics = st.staged("run", &[("learner", learner)], |st| {
            st.start();
            while st.executed < st.ctl.cfg.total_insts {
                st.segment();
            }
            st.complete()
        });
        st.ctl.telemetry.finish(st.executed);
        Outcome {
            chosen_config: st.chosen,
            final_metrics,
            sampling_metrics: st.metrics(&st.sampling),
            baseline_metrics: st.last_baseline,
            phases_detected: st.detector.phases_detected(),
            sampling_insts: st.sampling.insts,
            testing_insts: st.testing.insts,
            segments: st.segments,
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

    /// Compact the state store's log into a snapshot, if one is attached.
    ///
    /// # Panics
    /// Panics if the store fails: a failing store must not be ignored.
    fn checkpoint(&mut self) {
        if let Some(session) = self.persist.as_mut() {
            session
                .checkpoint()
                // mct-tidy: allow(P003) -- documented `# Panics` contract: a failing store must not be ignored
                .expect("persist: snapshot failed");
        }
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
