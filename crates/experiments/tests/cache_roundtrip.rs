//! The per-config grain cache must be invisible to the physics.
//!
//! A cache hit has to be bit-identical to a fresh measurement at the
//! same seed — `to_bits` on every `Metrics` field, not an epsilon — and
//! a torn or bit-flipped shard must degrade to a re-measurement, never a
//! crash or a wrong number. The property tests fuzz the shard parser:
//! whatever bytes sit in `wal.bin`, opening never panics and serves only
//! entries written under the current `CACHE_VERSION`.

use std::collections::HashMap;
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use mct_core::NvmConfig;
use mct_experiments::cache::{cached_measurement, grain_key, GrainStore};
use mct_experiments::{measure_one, Scale, CACHE_VERSION, EXPERIMENT_SEED};
use mct_persist::{StateStore, TempDir};
use mct_sim::stats::Metrics;
use mct_telemetry::pipeline_stats;
use mct_workloads::Workload;
use proptest::prelude::*;

/// Tests that assert exact deltas of the process-wide discard counters
/// hold this lock, so the fuzz cases' discards cannot land in between.
fn lock_counters() -> MutexGuard<'static, ()> {
    static COUNTERS: Mutex<()> = Mutex::new(());
    COUNTERS.lock().unwrap_or_else(PoisonError::into_inner)
}

fn bits(m: Metrics) -> [u64; 3] {
    [
        m.ipc.to_bits(),
        m.lifetime_years.to_bits(),
        m.energy_j.to_bits(),
    ]
}

fn corrupt_discarded() -> u64 {
    pipeline_stats().snapshot().corrupt_discarded
}

#[test]
fn cache_hit_is_bit_identical_and_damage_is_survivable() {
    let _counters = lock_counters();
    let tmp = TempDir::new("mct-cache-roundtrip");
    let dir = tmp.join("grains_roundtrip");
    let wal = dir.join("wal.bin");

    let workload = Workload::Gups;
    let scale = Scale::Smoke;
    let cfg = NvmConfig::default_config();
    let budget = workload.detailed_insts(scale.detailed_factor());
    let key = grain_key(workload, EXPERIMENT_SEED, budget, &cfg);
    let fresh = bits(measure_one(workload, &cfg, scale, EXPERIMENT_SEED));
    let measure = |store: &GrainStore| {
        let computes = AtomicUsize::new(0);
        let m = cached_measurement(store, key, || {
            computes.fetch_add(1, Ordering::SeqCst);
            measure_one(workload, &cfg, scale, EXPERIMENT_SEED)
        });
        assert_eq!(bits(m), fresh, "cached or not, the bits must match");
        computes.load(Ordering::SeqCst)
    };

    // Populate through the miss path, then reopen from disk (not the
    // in-memory map): the persisted frame must hit and skip the compute.
    assert_eq!(
        measure(&GrainStore::open(dir.clone())),
        1,
        "first call must miss"
    );
    let reopened = GrainStore::open(dir.clone());
    assert_eq!(reopened.len(), 1, "one persisted grain expected");
    assert_eq!(measure(&reopened), 0, "persisted grain must hit");
    drop(reopened);

    // Torn tail: cut the only frame short, as a killed append would. The
    // unacknowledged frame is dropped and counted, and the grain is
    // re-measured.
    let whole = fs::read(&wal).expect("read wal");
    fs::write(&wal, &whole[..whole.len() - 3]).expect("tear wal");
    let before = corrupt_discarded();
    let torn = GrainStore::open(dir.clone());
    assert_eq!(corrupt_discarded() - before, 1, "torn tail counted");
    assert!(torn.is_empty(), "torn frame must not be served");
    assert_eq!(measure(&torn), 1, "torn grain must re-measure");
    // A second grain makes the first frame an interior one.
    torn.record(key ^ 1, Metrics::from_array([1.0, 2.0, 3.0]));
    drop(torn);

    // Interior bit flip: an acknowledged frame is damaged. The store
    // refuses the shard; the cache notes it, counts it, recreates the
    // shard empty and re-measures.
    let mut bytes = fs::read(&wal).expect("read wal");
    let header_and_frame_header = 20 + 16;
    bytes[header_and_frame_header + 4] ^= 0x10;
    fs::write(&wal, &bytes).expect("flip a bit");
    assert!(
        StateStore::replay_dir(&dir).is_err(),
        "the flip is corruption"
    );
    let before = corrupt_discarded();
    let flipped = GrainStore::open(dir.clone());
    assert_eq!(corrupt_discarded() - before, 1, "damaged shard counted");
    assert!(flipped.is_empty(), "damaged shard must be recreated empty");
    assert_eq!(fs::metadata(&wal).expect("wal").len(), 20, "header only");
    assert_eq!(measure(&flipped), 1, "damaged grain must re-measure");
    drop(flipped);

    // The re-measurement was re-recorded: a final reopen hits again.
    let healed = GrainStore::open(dir);
    assert_eq!(healed.len(), 1);
    assert_eq!(measure(&healed), 0, "healed shard must hit");
}

/// One frame payload for the shard fuzzer, and the entry the shard must
/// serve for it (`None` when the frame must be skipped).
type Frame = (Vec<u8>, Option<(u64, [u64; 3])>);

fn entry_json(v: u32, k: u64, val: &str) -> Vec<u8> {
    format!(r#"{{"v":{v},"k":{k},"val":{val}}}"#).into_bytes()
}

fn metrics_json([ipc, life, energy]: [u64; 3]) -> String {
    format!(r#"{{"ipc":{ipc},"lifetime_years":{life},"energy_j":{energy}}}"#)
}

fn arb_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec((0u32..256).prop_map(|b| b as u8), 0..max)
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    // Few keys, so later frames overwrite earlier ones.
    let current = (0u64..6, any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(k, a, b, c)| {
        let m = [a, b, c];
        (entry_json(CACHE_VERSION, k, &metrics_json(m)), Some((k, m)))
    });
    let stale = (0u32..CACHE_VERSION, 0u64..6, any::<u64>())
        .prop_map(|(v, k, a)| (entry_json(v, k, &metrics_json([a; 3])), None));
    let bad_value = (0u64..6).prop_map(|k| (entry_json(CACHE_VERSION, k, r#""x""#), None));
    let garbage = arb_bytes(48).prop_map(|b| (b, None));
    prop_oneof![current, stale, bad_value, garbage]
}

/// Read-only replay, then a read-write open: either may refuse the bytes
/// with a typed error, neither may panic.
fn store_parses_without_panic(dir: &Path) -> bool {
    let replayed = StateStore::replay_dir(dir).is_ok();
    let opened = StateStore::open(dir).is_ok();
    assert_eq!(replayed, opened, "replay and open agree on the same bytes");
    replayed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes as `wal.bin` (or as `snap.bin` beside an empty
    /// log): the store returns `Ok` or a typed `PersistError`, and a
    /// cache shard over the same bytes opens without panicking and
    /// serves nothing.
    #[test]
    fn arbitrary_store_bytes_never_panic(bytes in arb_bytes(160), as_snapshot in any::<bool>()) {
        let _counters = lock_counters();
        for name in ["raw", "shard"] {
            let tmp = TempDir::new("mct-cache-fuzz-raw");
            let dir = tmp.join(name);
            if as_snapshot {
                drop(StateStore::create(&dir).expect("create store"));
                fs::write(dir.join("snap.bin"), &bytes).expect("write snap.bin");
            } else {
                fs::create_dir_all(&dir).expect("create dir");
                fs::write(dir.join("wal.bin"), &bytes).expect("write wal.bin");
            }
            if name == "raw" {
                store_parses_without_panic(&dir);
            } else {
                prop_assert!(GrainStore::open(dir).is_empty());
            }
        }
    }

    /// A valid header followed by arbitrary frames and trailing bytes:
    /// the shard serves exactly the current-version entries (last write
    /// wins) when the store accepts the log, nothing when it refuses it,
    /// and never a stale or undecodable frame.
    #[test]
    fn shards_serve_only_current_version_entries(
        frames in proptest::collection::vec(arb_frame(), 0..10),
        tail in arb_bytes(40)
    ) {
        let _counters = lock_counters();
        let tmp = TempDir::new("mct-cache-fuzz-frames");
        let dir = tmp.join("grains_fuzz");
        let mut log = StateStore::create(&dir).expect("create store");
        let mut expected: HashMap<u64, [u64; 3]> = HashMap::new();
        for (payload, entry) in &frames {
            log.append(payload).expect("append frame");
            if let Some((k, m)) = entry {
                expected.insert(*k, *m);
            }
        }
        drop(log);
        let wal = dir.join("wal.bin");
        let mut bytes = fs::read(&wal).expect("read wal");
        bytes.extend_from_slice(&tail);
        fs::write(&wal, &bytes).expect("append tail");

        let probe = tmp.join("probe");
        fs::create_dir_all(&probe).expect("create probe dir");
        fs::write(probe.join("wal.bin"), &bytes).expect("copy wal");
        if !store_parses_without_panic(&probe) {
            expected.clear();
        }

        let store = GrainStore::open(dir);
        prop_assert_eq!(store.len(), expected.len());
        for (k, m) in &expected {
            prop_assert_eq!(store.get(*k).map(bits), Some(*m));
        }
    }
}
