//! Property-based tests over the substrate's core invariants.

use proptest::prelude::*;

use memory_cocktail_therapy::framework::{ConfigSpace, NvmConfig, Objective};
use memory_cocktail_therapy::sim::cache::{Cache, CacheConfig};
use memory_cocktail_therapy::sim::energy::EnergyModel;
use memory_cocktail_therapy::sim::mem::{MemConfig, MemoryController};
use memory_cocktail_therapy::sim::stats::Metrics;
use memory_cocktail_therapy::sim::time::Time;
use memory_cocktail_therapy::sim::trace::AccessKind;
use memory_cocktail_therapy::sim::wear::WearModel;
use memory_cocktail_therapy::sim::{FaultEvent, FaultPlan, MellowPolicy, System, SystemConfig};
use memory_cocktail_therapy::workloads::Workload;

/// Strategy: a structurally-valid NvmConfig.
fn arb_config() -> impl Strategy<Value = NvmConfig> {
    (
        proptest::option::of(1u32..=4),
        proptest::option::of(prop_oneof![Just(4u32), Just(8), Just(16), Just(32)]),
        proptest::option::of(4.0f64..=10.0),
        0usize..7,
        0usize..7,
        prop_oneof![
            Just((false, false)),
            Just((false, true)),
            Just((true, true))
        ],
    )
        .prop_map(|(bank, eager, quota, fi, si_extra, (fc, sc))| {
            let grid = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0];
            let fast = grid[fi];
            let slow = grid[(fi + si_extra).min(6)];
            NvmConfig {
                bank_aware: bank.is_some(),
                bank_aware_threshold: bank.unwrap_or(0),
                eager_writebacks: eager.is_some(),
                eager_threshold: eager.unwrap_or(0),
                wear_quota: quota.is_some(),
                wear_quota_target: quota.unwrap_or(0.0),
                fast_latency: fast,
                slow_latency: slow,
                fast_cancellation: fc,
                slow_cancellation: sc,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_configs_are_valid_and_lower_to_policies(cfg in arb_config()) {
        cfg.validate().unwrap();
        let policy = cfg.to_policy();
        policy.validate().unwrap();
        prop_assert_eq!(policy.uses_slow_writes(), cfg.uses_slow_writes());
    }

    #[test]
    fn config_vector_round_trips_structure(cfg in arb_config()) {
        let v = cfg.to_vector();
        prop_assert_eq!(v.len(), 10);
        prop_assert_eq!(v[6], cfg.fast_latency);
        prop_assert_eq!(v[7], cfg.slow_latency);
        prop_assert!(v[7] >= v[6]);
        // Disabled techniques contribute zeros.
        if !cfg.bank_aware {
            prop_assert_eq!(v[0], 0.0);
            prop_assert_eq!(v[1], 0.0);
        }
    }

    #[test]
    fn memory_controller_conserves_requests(
        ops in proptest::collection::vec((0u64..512, any::<bool>()), 1..150)
    ) {
        let mut m = MemoryController::new(
            MemConfig::default(),
            MellowPolicy::static_baseline().without_wear_quota(),
            WearModel::default(),
            EnergyModel::default(),
        );
        let mut reads = 0u64;
        let mut writes = 0u64;
        for (i, (line, is_write)) in ops.iter().enumerate() {
            let t = Time::from_ns(i as f64 * 25.0);
            if *is_write {
                if m.issue_write(*line, t) {
                    writes += 1;
                } else {
                    let now = m.wait_write_space();
                    prop_assert!(m.issue_write(*line, now));
                    writes += 1;
                }
            } else if m.issue_read(*line, t).is_some() {
                reads += 1;
            } else {
                let _ = m.wait_read_space();
                prop_assert!(m.issue_read(*line, m.now()).is_some());
                reads += 1;
            }
        }
        m.drain_all();
        prop_assert_eq!(m.counters().reads_completed, reads);
        prop_assert_eq!(m.counters().writes_completed(), writes);
        // Wear is charged for every completed write at minimum 1/16 unit.
        prop_assert!(m.wear().wear_units() >= writes as f64 / 16.0 - 1e-9);
    }

    #[test]
    fn cache_never_exceeds_capacity_and_tracks_hits(
        lines in proptest::collection::vec(0u64..4096, 1..400)
    ) {
        let cfg = CacheConfig { size_bytes: 16 << 10, ways: 4, line_bytes: 64, hit_latency_cycles: 1 };
        let mut c = Cache::new(cfg);
        let mut resident: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for (i, &line) in lines.iter().enumerate() {
            let kind = if i % 3 == 0 { AccessKind::Write } else { AccessKind::Read };
            let out = c.access(line, kind);
            prop_assert_eq!(out.hit, resident.contains(&line));
            resident.insert(line);
            if let Some(ev) = out.evicted {
                resident.remove(&ev.line);
            }
            prop_assert!(resident.len() <= (cfg.size_bytes / cfg.line_bytes) as usize);
        }
        let stats = c.stats();
        prop_assert_eq!(stats.hits + stats.misses, lines.len() as u64);
        prop_assert_eq!(stats.stack_hits.iter().sum::<u64>(), stats.hits);
    }

    #[test]
    fn objective_selection_is_feasible_and_in_slack_window(
        target in 0.5f64..20.0,
        seed in 0u64..1000
    ) {
        use rand::Rng;
        let mut rng = rand_chacha_shim(seed);
        let candidates: Vec<Metrics> = (0..50)
            .map(|_| Metrics {
                ipc: rng.gen_range(0.1..2.0),
                lifetime_years: rng.gen_range(0.5..25.0),
                energy_j: rng.gen_range(1.0..10.0),
            })
            .collect();
        let obj = Objective::paper_default(target);
        if let Some(i) = obj.select(&candidates) {
            prop_assert!(candidates[i].lifetime_years >= target);
            let best_ipc = candidates
                .iter()
                .filter(|m| m.lifetime_years >= target)
                .map(|m| m.ipc)
                .fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(candidates[i].ipc >= best_ipc * 0.95 - 1e-12);
            // No feasible config in the window has strictly lower energy.
            for m in &candidates {
                if m.lifetime_years >= target && m.ipc >= best_ipc * 0.95 {
                    prop_assert!(candidates[i].energy_j <= m.energy_j + 1e-12);
                }
            }
        } else {
            prop_assert!(candidates.iter().all(|m| m.lifetime_years < target));
        }
    }

    #[test]
    fn space_membership_is_closed_under_quota_toggle(idx in 0usize..2030) {
        let space = ConfigSpace::without_wear_quota();
        let full = ConfigSpace::full(8.0);
        let cfg = space.configs()[idx % space.len()];
        prop_assert!(full.position_of(&cfg).is_some());
        prop_assert!(full.position_of(&cfg.with_wear_quota(8.0)).is_some());
    }
}

/// Small local RNG helper so the proptest body controls its own seeds.
fn rand_chacha_shim(seed: u64) -> impl rand::Rng {
    use rand::SeedableRng;
    rand_chacha::ChaCha8Rng::seed_from_u64(seed)
}

/// Strategy: a plan-relative timestamp, biased toward the boundaries the
/// compiler must clamp (zero, the validation ceiling) as well as the
/// short windows a small driven run actually crosses.
fn arb_event_ns() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..2e5,
        Just(0.0f64),
        Just(1e15f64), // MAX_EVENT_NS, the validation ceiling
    ]
}

/// Strategy: an arbitrary — overlapping, zero-width, whole-run — fault
/// event. Window endpoints are swapped into order so every generated
/// plan passes validation and exercises the runtime, not the validator.
fn arb_fault_event() -> impl Strategy<Value = FaultEvent> {
    prop_oneof![
        (
            proptest::option::of(0usize..16),
            arb_event_ns(),
            arb_event_ns(),
            1.0f64..8.0,
            0.0f64..10.0,
        )
            .prop_map(
                |(bank, a, b, factor, drift_per_ms)| FaultEvent::WriteLatencyDrift {
                    bank,
                    start_ns: a.min(b),
                    end_ns: a.max(b),
                    factor,
                    drift_per_ms,
                }
            ),
        (0u64..512, arb_event_ns(), 0u32..8).prop_map(|(line, from_ns, retries)| {
            FaultEvent::StuckLine {
                line,
                from_ns,
                retries,
            }
        }),
        (0usize..16, arb_event_ns(), arb_event_ns()).prop_map(|(bank, a, b)| {
            FaultEvent::BankOutage {
                bank,
                start_ns: a.min(b),
                end_ns: a.max(b),
            }
        }),
        (0.0f64..=0.9).prop_map(|amplitude| FaultEvent::MeasurementNoise { amplitude }),
    ]
}

/// Strategy: an arbitrary fault plan (possibly empty, possibly stacking
/// many overlapping windows on the same banks and lines).
fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        proptest::collection::vec(arb_fault_event(), 0..12),
    )
        .prop_map(|(seed, events)| FaultPlan { seed, events })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any generated plan validates, and the raw memory controller still
    /// conserves every request under it: outages only defer service,
    /// stuck-line retries re-run the same op in place, and wear only
    /// ever grows.
    #[test]
    fn memory_controller_survives_arbitrary_fault_plans(
        plan in arb_fault_plan(),
        ops in proptest::collection::vec((0u64..512, any::<bool>()), 1..120)
    ) {
        plan.validate().unwrap();
        let mut m = MemoryController::new(
            MemConfig::default(),
            MellowPolicy::static_baseline().without_wear_quota(),
            WearModel::default(),
            EnergyModel::default(),
        );
        m.arm_faults(&plan);
        let mut reads = 0u64;
        let mut writes = 0u64;
        let mut last_wear = 0.0f64;
        for (i, (line, is_write)) in ops.iter().enumerate() {
            let t = Time::from_ns(i as f64 * 25.0);
            if *is_write {
                if m.issue_write(*line, t) {
                    writes += 1;
                } else {
                    let now = m.wait_write_space();
                    prop_assert!(m.issue_write(*line, now));
                    writes += 1;
                }
            } else if m.issue_read(*line, t).is_some() {
                reads += 1;
            } else {
                let _ = m.wait_read_space();
                prop_assert!(m.issue_read(*line, m.now()).is_some());
                reads += 1;
            }
            let wear = m.wear().wear_units();
            prop_assert!(wear.is_finite() && wear >= last_wear, "wear must be monotone");
            last_wear = wear;
        }
        m.drain_all();
        prop_assert_eq!(m.counters().reads_completed, reads);
        prop_assert_eq!(m.counters().writes_completed(), writes);
        prop_assert!(m.wear().wear_units() >= last_wear);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A full system run under any fault plan finishes (no deadlock on
    /// outage windows), never panics, and never reports NaN metrics.
    #[test]
    fn system_metrics_stay_finite_under_arbitrary_fault_plans(plan in arb_fault_plan()) {
        let mut sys = System::new(
            SystemConfig::default(),
            MellowPolicy::static_baseline().without_wear_quota(),
        );
        let mut src = Workload::Stream.source(9);
        sys.warmup(&mut src, 20_000);
        sys.arm_faults(&plan);
        let mut last_wear = 0.0f64;
        for _ in 0..3 {
            sys.run_window(&mut src, 8_000);
            let wear = sys.mem().wear().wear_units();
            prop_assert!(wear.is_finite() && wear >= last_wear, "wear must be monotone");
            last_wear = wear;
        }
        let stats = sys.finalize();
        let m = stats.metrics();
        prop_assert!(!m.ipc.is_nan() && m.ipc >= 0.0);
        prop_assert!(!m.lifetime_years.is_nan() && m.lifetime_years >= 0.0);
        prop_assert!(!m.energy_j.is_nan() && m.energy_j >= 0.0);
        prop_assert!(!stats.wear_units.is_nan() && stats.wear_units >= 0.0);
    }
}

// --- Crash-point properties over the persistence layer. ---

use memory_cocktail_therapy::framework::{
    decode_dir, records_match, Controller, ControllerConfig, Outcome, PersistConfig,
    RecoveryReport, StateRecord,
};
use memory_cocktail_therapy::persist::{CrashPoint, TempDir};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Golden outcomes and reference traces, computed once per
/// (workload, seed) and shared across proptest cases — the property
/// varies the *crash*, not the run.
#[allow(clippy::type_complexity)]
fn crash_reference(workload: Workload, seed: u64) -> (Outcome, Vec<StateRecord>) {
    static CACHE: OnceLock<Mutex<HashMap<(String, u64), (Outcome, Vec<StateRecord>)>>> =
        OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (workload.name().to_string(), seed);
    let mut guard = cache.lock().expect("reference cache poisoned");
    guard
        .entry(key)
        .or_insert_with(|| {
            let dir = TempDir::new("mct-prop-ref");
            let outcome = persisted_run(dir.path(), workload, seed, false, CrashPoint::None);
            let trace = decode_dir(dir.path()).expect("clean store must decode");
            (outcome, trace)
        })
        .clone()
}

fn persisted_run(
    dir: &std::path::Path,
    workload: Workload,
    seed: u64,
    resume: bool,
    crash_point: CrashPoint,
) -> Outcome {
    let mut cfg = ControllerConfig::quick_demo();
    cfg.seed = seed;
    cfg.persist = Some(PersistConfig {
        dir: dir.display().to_string(),
        resume,
        crash_point,
    });
    Controller::new(cfg, Objective::paper_default(8.0)).run(&mut workload.source(seed))
}

fn arb_crash_point() -> impl Strategy<Value = CrashPoint> {
    prop_oneof![
        (0u64..48).prop_map(CrashPoint::AfterOp),
        (0u64..48, 0u64..64).prop_map(|(op, keep_bytes)| CrashPoint::TornOp { op, keep_bytes }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For ANY kill point — clean kill after op k or a torn write with an
    /// arbitrary byte prefix — the survivor store (a) still decodes, (b)
    /// holds exactly a prefix of the acked reference trace (nothing lost,
    /// nothing invented), and (c) resuming converges on the golden
    /// outcome bit for bit; a crash landing past the end of the run
    /// leaves a clean log whose resume warm-starts without panicking.
    #[test]
    fn any_crash_point_recovers_without_losing_acked_state(
        seed in prop_oneof![Just(11u64), Just(2017u64)],
        workload in prop_oneof![Just(Workload::Stream), Just(Workload::Ocean)],
        crash in arb_crash_point(),
    ) {
        let (golden, reference) = crash_reference(workload, seed);
        let dir = TempDir::new("mct-prop-crash");
        let crashed = persisted_run(dir.path(), workload, seed, false, crash);
        // The dying store is invisible to the in-flight run.
        prop_assert_eq!(&crashed, &golden);

        let report = RecoveryReport::from_dir(dir.path())
            .map_err(|e| TestCaseError::fail(format!("{crash:?}: store unreadable: {e}")))?;
        let survivor = decode_dir(dir.path())
            .map_err(|e| TestCaseError::fail(format!("{crash:?}: store undecodable: {e}")))?;
        prop_assert!(survivor.len() <= reference.len());
        for (i, (s, r)) in survivor.iter().zip(&reference).enumerate() {
            prop_assert!(
                records_match(r, s) || records_match(s, r),
                "{:?}: record {} not a prefix of the acked trace", crash, i
            );
        }

        let resumed = persisted_run(dir.path(), workload, seed, true, CrashPoint::None);
        if report.clean {
            // Kill point past the end of the run: warm start, not recovery.
            prop_assert!(resumed.final_metrics.ipc > 0.0);
        } else {
            prop_assert_eq!(&resumed, &golden);
            prop_assert_eq!(
                resumed.final_metrics.ipc.to_bits(),
                golden.final_metrics.ipc.to_bits()
            );
            let post = RecoveryReport::from_dir(dir.path())
                .map_err(|e| TestCaseError::fail(format!("{crash:?}: post-resume: {e}")))?;
            prop_assert!(post.clean, "{:?}: resumed store must end clean", crash);
        }
    }
}

/// JSON fragments: structure, the keys the trace and fault-plan decoders
/// know, and numbers and escapes at the edges of what they accept, so
/// generated text gets past the first token instead of failing there.
const JSON_FRAGMENTS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    " ",
    "\n",
    "null",
    "true",
    "false",
    "0",
    "-1",
    "1.5",
    "-0",
    "1e999",
    "-1e999",
    "18446744073709551616",
    "\"\\u00",
    "\"\\ud800\"",
    "\"seq\"",
    "\"sim_insts\"",
    "\"wall_us\"",
    "\"event\"",
    "\"Transition\"",
    "\"SpanOpen\"",
    "\"SpanClose\"",
    "\"MetricsRegistry\"",
    "\"PipelineCompleted\"",
    "\"id\"",
    "\"parent\"",
    "\"name\"",
    "\"labels\"",
    "\"snapshot\"",
    "\"counters\"",
    "\"histograms\"",
    "\"seed\"",
    "\"events\"",
    "\"MeasurementNoise\"",
    "\"amplitude\"",
    "\"WriteLatencyDrift\"",
    "\"StuckLine\"",
    "\"BankOutage\"",
    "\"bank\"",
    "\"start_ns\"",
    "\"end_ns\"",
    "\"factor\"",
    "\"drift_per_ms\"",
    "\"line\"",
    "\"from_ns\"",
    "\"retries\"",
];

/// Strategy: text made of JSON fragments and arbitrary bytes (lossily
/// decoded, as any `&str` input would be).
fn arb_text(max_pieces: usize) -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        (0usize..JSON_FRAGMENTS.len()).prop_map(|i| JSON_FRAGMENTS[i].to_string()),
        proptest::collection::vec((0u32..256).prop_map(|b| b as u8), 1..4)
            .prop_map(|b| String::from_utf8_lossy(&b).into_owned()),
    ];
    proptest::collection::vec(piece, 0..max_pieces).prop_map(|pieces| pieces.concat())
}

/// Strategy: a field value — in range, out of range, or of the wrong
/// type.
fn arb_json_value() -> impl Strategy<Value = String> {
    prop_oneof![
        (-1e3f64..1e3).prop_map(|v| format!("{v}")),
        any::<u64>().prop_map(|v| v.to_string()),
        (0usize..JSON_FRAGMENTS.len()).prop_map(|i| JSON_FRAGMENTS[i].to_string()),
        Just("1e308".to_string()),
        Just("-1e308".to_string()),
        Just("null".to_string()),
    ]
}

/// Strategy: a trace event — arbitrary text, or one of the event shapes
/// with every field drawn from [`arb_json_value`], so it often decodes
/// far enough to reach the event's own fields.
fn arb_event_json() -> impl Strategy<Value = String> {
    prop_oneof![
        arb_text(24),
        (arb_json_value(), arb_json_value(), arb_json_value(), arb_json_value()).prop_map(
            |(id, parent, name, labels)| format!(
                r#"{{"SpanOpen":{{"id":{id},"parent":{parent},"name":{name},"labels":[[{labels},"x"]]}}}}"#
            )
        ),
        (arb_json_value(), arb_json_value())
            .prop_map(|(id, name)| format!(r#"{{"SpanClose":{{"id":{id},"name":{name}}}}}"#)),
        arb_text(12).prop_map(|t| format!(r#"{{"Transition":{t}}}"#)),
        (arb_json_value(), arb_json_value()).prop_map(|(name, value)| format!(
            r#"{{"MetricsRegistry":{{"snapshot":{{"counters":[[{name},{value}]],"histograms":[]}}}}}}"#
        )),
    ]
}

/// Strategy: a fault plan in the committed fixture's shape with every
/// field drawn from [`arb_json_value`], so it usually decodes and the
/// validator sees hostile numbers.
fn arb_plan_json() -> impl Strategy<Value = String> {
    let event = prop_oneof![
        arb_json_value().prop_map(|a| format!(r#"{{"MeasurementNoise":{{"amplitude":{a}}}}}"#)),
        (
            arb_json_value(),
            arb_json_value(),
            arb_json_value(),
            arb_json_value(),
            arb_json_value(),
        )
            .prop_map(|(b, s, e, f, d)| format!(
                r#"{{"WriteLatencyDrift":{{"bank":{b},"start_ns":{s},"end_ns":{e},"factor":{f},"drift_per_ms":{d}}}}}"#
            )),
        (arb_json_value(), arb_json_value(), arb_json_value()).prop_map(|(l, f, r)| format!(
            r#"{{"StuckLine":{{"line":{l},"from_ns":{f},"retries":{r}}}}}"#
        )),
        (arb_json_value(), arb_json_value(), arb_json_value()).prop_map(|(b, s, e)| format!(
            r#"{{"BankOutage":{{"bank":{b},"start_ns":{s},"end_ns":{e}}}}}"#
        )),
    ];
    (any::<u64>(), proptest::collection::vec(event, 0..4))
        .prop_map(|(seed, events)| format!(r#"{{"seed":{seed},"events":[{}]}}"#, events.join(",")))
}

/// Decode `text` as a fault plan and validate it: either step may fail,
/// neither may panic.
fn plan_decodes_without_panic(text: &str) {
    if let Ok(plan) = serde_json::from_str::<FaultPlan>(text) {
        let _ = plan.validate();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary text as a trace file: the trace parser returns `Ok` or
    /// a typed error, never a panic.
    #[test]
    fn trace_parsers_never_panic_on_arbitrary_text(text in arb_text(40)) {
        let _ = memory_cocktail_therapy::telemetry::parse_jsonl_tolerant(&text);
    }

    /// Arbitrary event payloads inside a valid `Record` envelope, one per
    /// line between well-formed records: the parsers get past the
    /// envelope into the event decoders, and still never panics.
    #[test]
    fn trace_parsers_never_panic_on_arbitrary_events(
        events in proptest::collection::vec(arb_event_json(), 1..6),
        seq in any::<u64>(),
    ) {
        let lines: Vec<String> = events
            .iter()
            .map(|event| {
                format!(r#"{{"seq":{seq},"sim_insts":0,"wall_us":0,"event":{event}}}"#)
            })
            .collect();
        let valid = r#"{"seq":0,"sim_insts":0,"wall_us":0,"event":{"SpanClose":{"id":1,"name":"run"}}}"#;
        let text = format!("{valid}\n{}\n{valid}\n", lines.join("\n"));
        let _ = memory_cocktail_therapy::telemetry::parse_jsonl_tolerant(&text);
    }

    /// Arbitrary text, and plans of the fixture's shape with hostile
    /// field values, through `FaultPlan` decoding and validation: typed
    /// errors only, never a panic.
    #[test]
    fn fault_plan_json_never_panics(text in arb_text(40), plan in arb_plan_json()) {
        plan_decodes_without_panic(&text);
        plan_decodes_without_panic(&plan);
    }
}
