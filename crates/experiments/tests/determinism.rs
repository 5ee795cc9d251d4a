//! Sweeps must be bit-identical to a serial measurement loop.
//!
//! Every figure measures its configurations as grains on the grain
//! scheduler ([`run_grains`]), one clone of a warmed rig
//! per grain; nothing about scheduling may leak into the physics. The
//! grid below runs that path at several worker counts, on an unarmed rig
//! and on one armed with an empty fault plan, and demands bit-for-bit
//! equal metrics against a serial loop.

use mct_core::{ConfigSpace, NvmConfig};
use mct_experiments::sched::run_grains;
use mct_experiments::{Scale, WarmedRig, EXPERIMENT_SEED};
use mct_sim::stats::Metrics;
use mct_sim::FaultPlan;
use mct_workloads::Workload;

fn bits(m: &Metrics) -> [u64; 3] {
    [
        m.ipc.to_bits(),
        m.lifetime_years.to_bits(),
        m.energy_j.to_bits(),
    ]
}

/// {unarmed, armed-empty [`FaultPlan`]} × workers {1, 2, 3, 8}: each
/// cell's grain sweep must match a serial loop over the same closure.
/// The armed-empty column also carries the fault layer's zero-overhead
/// contract: every fault hook is a single `Option`-gated branch whose
/// empty-runtime body draws nothing and perturbs nothing, so its serial
/// loop must match the unarmed one.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in debug builds; CI runs this suite under --release"
)]
fn grain_sweeps_unarmed_and_armed_empty_are_bit_identical_to_serial() {
    let space = ConfigSpace::without_wear_quota();
    let stride = (space.len() / 64).max(1);
    let configs: Vec<NvmConfig> = space
        .configs()
        .iter()
        .step_by(stride)
        .take(64)
        .copied()
        .collect();
    assert!(configs.len() >= 64, "need at least 64 configurations");

    let unarmed = WarmedRig::new(Workload::Gups, Scale::Quick, EXPERIMENT_SEED);
    let mut armed = unarmed.clone();
    armed.arm_faults(&FaultPlan::empty(42));
    let unarmed_serial: Vec<[u64; 3]> = configs.iter().map(|c| bits(&unarmed.measure(c))).collect();

    for (label, rig) in [("unarmed", &unarmed), ("armed-empty", &armed)] {
        let measure = |c: &NvmConfig| rig.measure(c);
        let serial: Vec<[u64; 3]> = configs.iter().map(|c| bits(&measure(c))).collect();
        assert_eq!(serial, unarmed_serial, "{label}: serial loop");
        for workers in [1usize, 2, 3, 8] {
            let swept: Vec<[u64; 3]> = run_grains(&configs, workers, measure)
                .iter()
                .map(bits)
                .collect();
            assert_eq!(swept.len(), serial.len(), "{label} workers={workers}");
            for (i, (a, b)) in serial.iter().zip(&swept).enumerate() {
                assert_eq!(a, b, "{label}: config {i} differs with {workers} workers");
            }
        }
    }
}

/// Crash-safe persistence and tracing must have ZERO behavioral
/// footprint: a controller run with `persist: None` and no recorder (the
/// default everywhere), a run with a live state store attached, and a run
/// with both a store and a recorder on the transition stream must produce
/// bit-identical outcomes — both sinks only *observe* the decision
/// sequence, they never perturb it. Differential companion to the
/// kill-and-recover harness (`tests/crash_recovery.rs` at the workspace
/// root).
#[test]
fn persistence_observation_is_bit_invisible() {
    use mct_core::{Controller, ControllerConfig, Objective, Outcome, PersistConfig};
    use mct_telemetry::{RecorderHandle, VecRecorder};

    fn run(persist: Option<PersistConfig>, traced: bool) -> Outcome {
        let mut cfg = ControllerConfig::quick_demo();
        cfg.seed = EXPERIMENT_SEED;
        cfg.persist = persist;
        let mut controller = Controller::new(cfg, Objective::paper_default(8.0));
        if traced {
            let handle: RecorderHandle = VecRecorder::shared();
            controller = controller.with_recorder(handle);
        }
        controller.run(&mut Workload::Ocean.source(EXPERIMENT_SEED))
    }

    fn assert_bits(label: &str, a: &Outcome, b: &Outcome) {
        assert_eq!(
            a.final_metrics.ipc.to_bits(),
            b.final_metrics.ipc.to_bits(),
            "{label}: IPC bits differ"
        );
        assert_eq!(
            a.final_metrics.lifetime_years.to_bits(),
            b.final_metrics.lifetime_years.to_bits(),
            "{label}: lifetime bits differ"
        );
        assert_eq!(
            a.final_metrics.energy_j.to_bits(),
            b.final_metrics.energy_j.to_bits(),
            "{label}: energy bits differ"
        );
        assert_eq!(a, b, "{label}: outcomes differ");
    }

    let bare = run(None, false);
    let bare_again = run(None, false);
    assert_bits("persist=None repeatability", &bare_again, &bare);

    let dir = mct_persist::TempDir::new("mct-determinism-persist");
    let store = || Some(PersistConfig::fresh(dir.path().display().to_string()));
    let observed = run(store(), false);
    assert_bits("persist observation", &observed, &bare);
    let traced = run(store(), true);
    assert_bits("persisted + traced observation", &traced, &bare);
}
