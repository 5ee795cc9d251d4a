//! The decision timeline (`mct report`): one fold over a run's
//! [`StateRecord`] transitions.
//!
//! Per segment it narrates the baseline, the sampling rounds, the fit
//! (fresh or elided, with its diagnostics), the choice against its
//! prediction and the wear-quota fixup, the health checks and ladder
//! moves, and the realized metrics against the prediction. What no record
//! carries is derived in the fold: the prediction a segment is judged
//! against is its last decision's, a ladder move quotes the health
//! reading that triggered it, and a fallback is a segment that reverted
//! or whose optimizer fell back.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::Deserialize;

use mct_sim::stats::Metrics;
use mct_telemetry::{Event, Record};

use crate::config::NvmConfig;
use crate::degrade::DegradationStage;
use crate::persist::StateRecord;

/// The controller transitions a telemetry trace carries, in order.
/// Transitions this build cannot decode (a newer schema's variants) are
/// skipped and counted into `unknown` under their variant name, the way
/// the trace parser counts unknown event kinds.
pub fn trace_transitions(
    records: &[Record],
    unknown: &mut BTreeMap<String, u64>,
) -> Vec<StateRecord> {
    let mut out = Vec::new();
    for record in records {
        let Event::Transition(content) = &record.event else {
            continue;
        };
        match StateRecord::deserialize_content(content) {
            Ok(transition) => out.push(transition),
            Err(_) => {
                let kind = content
                    .as_map()
                    .and_then(|m| m.first())
                    .map_or("Transition", |(k, _)| k.as_str());
                *unknown.entry(kind.to_string()).or_insert(0) += 1;
            }
        }
    }
    out
}

fn fmt_metrics(m: &Metrics) -> String {
    format!(
        "ipc {:.4}, lifetime {:.2} y, energy {:.4} J",
        m.ipc, m.lifetime_years, m.energy_j
    )
}

fn pct_delta(realized: f64, predicted: f64) -> String {
    if predicted.abs() < 1e-12 || !predicted.is_finite() || !realized.is_finite() {
        "n/a".to_string()
    } else {
        format!("{:+.1}%", (realized / predicted - 1.0) * 100.0)
    }
}

/// Render a run's transitions as a human-readable decision timeline.
#[must_use]
pub fn render_timeline(records: &[StateRecord]) -> String {
    let mut out = String::new();
    let mut learner = "unknown learner";
    // The last health reading, quoted by the ladder move it triggers.
    let mut health = (f64::NAN, f64::NAN);
    // The segment's standing prediction: its last decision's, unless the
    // optimizer fell back (then there is nothing to judge against).
    let mut predicted: Option<Metrics> = None;
    let mut optimizer_fell_back = false;
    let (mut fallbacks, mut fresh_fits, mut elided_fits) = (0u64, 0u64, 0u64);
    let _ = writeln!(out, "MCT decision timeline: {} transitions", records.len());
    for record in records {
        match record {
            StateRecord::RunStarted {
                seed,
                model,
                total_insts,
                ..
            } => {
                learner = model.short_label();
                let _ = writeln!(
                    out,
                    "run: seed {seed}, {} ({learner}), budget {total_insts} insts",
                    model.label()
                );
            }
            StateRecord::PersistRecovered {
                replayed_records,
                warm_start,
                restored_models,
            } => {
                let mode = if *replayed_records > 0 {
                    format!("verifying replay of {replayed_records} persisted record(s)")
                } else if *warm_start {
                    format!("warm start from {restored_models} restored model(s)")
                } else {
                    "fresh state store".to_string()
                };
                let _ = writeln!(out, "crash-safe persistence armed: {mode}");
            }
            StateRecord::SegmentStarted { segment, executed } => {
                let _ = writeln!(
                    out,
                    "\n=== segment {} (at {executed} insts) ===",
                    segment + 1
                );
                if *segment == 0 {
                    let _ = writeln!(out, "  initial phase (monitoring begins)");
                }
            }
            StateRecord::BaselineMeasured {
                metrics,
                insts,
                extended,
                ..
            } => {
                let ext = if *extended { ", extended" } else { "" };
                let _ = writeln!(
                    out,
                    "  baseline {} over {insts} insts{ext}: {}",
                    NvmConfig::static_baseline(),
                    fmt_metrics(&metrics.to_metrics())
                );
            }
            StateRecord::SamplingRound {
                round,
                total_rounds,
                samples,
                unit_insts,
                ..
            } => {
                let _ = writeln!(
                    out,
                    "  sampling round {}/{total_rounds} ({samples} configs x {unit_insts} insts)",
                    round + 1
                );
            }
            StateRecord::FitCompleted {
                elided: true,
                signature,
                ..
            } => {
                elided_fits += 1;
                let _ = writeln!(
                    out,
                    "  refit elided: phase signature {signature} matches a banked {learner} fit"
                );
            }
            StateRecord::FitCompleted { .. } => {
                fresh_fits += 1;
                let _ = writeln!(out, "  predictor fitted ({learner})");
            }
            StateRecord::FitDiagnosed {
                n_samples,
                cv_r2_ipc,
                lasso_features,
                ..
            } => {
                let cv = match cv_r2_ipc {
                    Some(r2) => format!("cv R2(ipc) {r2:.3}"),
                    None => "cv R2 not computed".to_string(),
                };
                let _ = writeln!(out, "    {n_samples} samples, {cv}");
                if !lasso_features.is_empty() {
                    let feats: Vec<String> = lasso_features
                        .iter()
                        .take(6)
                        .map(|(name, w)| format!("{name} ({w:+.3})"))
                        .collect();
                    let _ = writeln!(
                        out,
                        "    lasso kept {}: {}",
                        lasso_features.len(),
                        feats.join(", ")
                    );
                }
            }
            StateRecord::DecisionMade {
                config,
                predicted: p,
                fell_back,
                refit,
                before_fixup,
                ..
            } => {
                let p = p.to_metrics();
                let again = if *refit { " (ladder refit)" } else { "" };
                let _ = writeln!(
                    out,
                    "  selected {config}{again}: predicted {}",
                    fmt_metrics(&p)
                );
                if config.wear_quota {
                    let _ = writeln!(
                        out,
                        "    wear quota {} y: predicted lifetime slack {:+.2} y",
                        config.wear_quota_target,
                        p.lifetime_years - config.wear_quota_target
                    );
                }
                if let Some(before) = before_fixup {
                    let _ = writeln!(out, "    quota fixup rewrote selection (was {before})");
                }
                if *fell_back {
                    let _ = writeln!(
                        out,
                        "    !! optimizer fell back to baseline (constraints unmet)"
                    );
                }
                predicted = (!fell_back).then_some(p);
                optimizer_fell_back = *fell_back;
            }
            StateRecord::HealthChecked {
                check,
                passed,
                testing_ipc,
                baseline_ipc,
                ..
            } => {
                health = (f64::from_bits(*testing_ipc), f64::from_bits(*baseline_ipc));
                let verdict = if *passed { "ok" } else { "FAIL" };
                let _ = writeln!(
                    out,
                    "  health check #{check} {verdict}: testing ipc {:.4} vs baseline {:.4}",
                    health.0, health.1
                );
            }
            StateRecord::LadderMoved {
                from,
                to,
                failures,
                lifetime_years,
                ..
            } => {
                let _ = writeln!(
                    out,
                    "    !! degradation {} -> {} (failure #{failures}): testing ipc {:.4} vs \
                     baseline {:.4}, lifetime {:.2} y",
                    from.label(),
                    to.label(),
                    health.0,
                    health.1,
                    f64::from_bits(*lifetime_years)
                );
                if *to == DegradationStage::RevertToStatic {
                    let _ = writeln!(out, "    !! fallback to baseline configuration");
                }
            }
            StateRecord::SegmentCompleted {
                segment,
                chosen,
                health_fallback,
                warm_started,
                sampling_insts,
                testing_insts,
                testing,
                ..
            } => {
                let realized = testing.to_metrics();
                let warm = if *warm_started { ", warm start" } else { "" };
                let _ = writeln!(
                    out,
                    "  segment {} done under {chosen} ({} insts{warm}): realized {}",
                    segment + 1,
                    sampling_insts + testing_insts,
                    fmt_metrics(&realized)
                );
                if let Some(p) = predicted.take() {
                    let _ = writeln!(
                        out,
                        "    vs predicted: ipc {}, lifetime {}, energy {}",
                        pct_delta(realized.ipc, p.ipc),
                        pct_delta(realized.lifetime_years, p.lifetime_years),
                        pct_delta(realized.energy_j, p.energy_j)
                    );
                }
                if *health_fallback || optimizer_fell_back {
                    fallbacks += 1;
                }
                optimizer_fell_back = false;
            }
            StateRecord::RunCompleted {
                executed,
                segments,
                final_metrics,
                ..
            } => {
                let _ = writeln!(out, "\n=== run completed ===");
                let _ = writeln!(
                    out,
                    "  {segments} segment(s), {executed} insts, {fallbacks} fallback(s)"
                );
                let _ = writeln!(
                    out,
                    "  aggregate: {}",
                    fmt_metrics(&final_metrics.to_metrics())
                );
            }
            StateRecord::PhaseDetected {
                score,
                phases_detected,
                mean_workload,
                ..
            } => {
                let _ = writeln!(
                    out,
                    "  phase change #{phases_detected} detected (t-score {score:.1}, \
                     workload {mean_workload:.2}/kinst)"
                );
            }
            StateRecord::WearDelta { .. } => {}
        }
    }
    if fresh_fits + elided_fits > 0 {
        let _ = writeln!(
            out,
            "\nfits: {fresh_fits} fresh, {elided_fits} refit(s) elided"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::BitMetrics;
    use crate::predictor::ModelKind;
    use serde::Serialize;

    fn bits(ipc: f64) -> BitMetrics {
        Metrics {
            ipc,
            lifetime_years: 8.0,
            energy_j: 0.02,
        }
        .into()
    }

    fn sample_run() -> Vec<StateRecord> {
        let chosen = NvmConfig::static_baseline();
        vec![
            StateRecord::RunStarted {
                schema: crate::persist::STATE_SCHEMA_VERSION,
                seed: 7,
                model: ModelKind::QuadraticLasso,
                total_insts: 400_000,
                config_digest: 1,
            },
            StateRecord::SegmentStarted {
                segment: 0,
                executed: 0,
            },
            StateRecord::BaselineMeasured {
                segment: 0,
                metrics: bits(1.0),
                insts: 50_000,
                extended: false,
            },
            StateRecord::SamplingRound {
                segment: 0,
                round: 0,
                total_rounds: 2,
                samples: 12,
                unit_insts: 2_000,
            },
            StateRecord::FitCompleted {
                segment: 0,
                elided: false,
                apki: 7.5f64.to_bits(),
                signature: 1077,
                model: None,
            },
            StateRecord::FitDiagnosed {
                segment: 0,
                n_samples: 24,
                cv_r2_ipc: Some(0.91),
                lasso_features: vec![("fast_latency".into(), -0.4)],
            },
            StateRecord::DecisionMade {
                segment: 0,
                config: chosen,
                predicted: bits(1.2),
                fell_back: false,
                refit: false,
                before_fixup: Some(NvmConfig::default_config()),
            },
            StateRecord::HealthChecked {
                segment: 0,
                check: 1,
                passed: false,
                testing_ipc: 0.9f64.to_bits(),
                baseline_ipc: 1.0f64.to_bits(),
            },
            StateRecord::LadderMoved {
                segment: 0,
                from: DegradationStage::Refit,
                to: DegradationStage::RevertToStatic,
                failures: 3,
                lifetime_years: 11.5f64.to_bits(),
            },
            StateRecord::SegmentCompleted {
                segment: 0,
                chosen,
                health_fallback: true,
                fit_elided: false,
                warm_started: false,
                sampling_insts: 100_000,
                testing_insts: 300_000,
                testing: bits(1.18),
            },
            StateRecord::RunCompleted {
                executed: 400_000,
                chosen,
                segments: 1,
                final_metrics: bits(1.18),
            },
        ]
    }

    #[test]
    fn timeline_narrates_and_derives_what_records_leave_out() {
        let report = render_timeline(&sample_run());
        for needle in [
            "seed 7",
            "initial phase",
            "segment 1",
            "sampling round 1/2",
            "predictor fitted (quad-lasso)",
            "cv R2(ipc) 0.910",
            "lasso kept 1: fast_latency",
            "selected ",
            "quota fixup rewrote selection",
            "predicted lifetime slack",
            "health check #1 FAIL",
            // The ladder line quotes the reading that triggered it.
            "degradation refit -> revert-to-static (failure #3): testing ipc 0.9000",
            "lifetime 11.50 y",
            "fallback to baseline configuration",
            "vs predicted: ipc -1.7%",
            "1 segment(s), 400000 insts, 1 fallback(s)",
            "fits: 1 fresh, 0 refit(s) elided",
        ] {
            assert!(report.contains(needle), "missing {needle:?} in\n{report}");
        }
    }

    #[test]
    fn trace_transitions_decode_in_order_and_count_unknown_variants() {
        let mut records: Vec<Record> = sample_run()
            .iter()
            .enumerate()
            .map(|(i, r)| Record {
                seq: i as u64,
                sim_insts: 0,
                wall_us: 0,
                event: Event::Transition(r.serialize_content()),
            })
            .collect();
        let future = serde_json::parse_content(r#"{"WarpEngaged":{"factor":9}}"#).expect("json");
        records.push(Record {
            seq: 99,
            sim_insts: 0,
            wall_us: 0,
            event: Event::Transition(future),
        });
        let mut unknown = BTreeMap::new();
        let decoded = trace_transitions(&records, &mut unknown);
        assert_eq!(decoded, sample_run());
        assert_eq!(unknown.get("WarpEngaged"), Some(&1));
    }

    #[test]
    fn pct_delta_guards_degenerate_predictions() {
        assert_eq!(pct_delta(1.0, 0.0), "n/a");
        assert_eq!(pct_delta(1.0, f64::NAN), "n/a");
        assert_eq!(pct_delta(1.1, 1.0), "+10.0%");
    }
}
