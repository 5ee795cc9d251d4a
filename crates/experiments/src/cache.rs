//! Content-addressed, per-grain measurement cache.
//!
//! Brute-force sweeps are the expensive part of the reproduction (the
//! paper burned 300,000 compute-hours on them). Earlier revisions cached
//! whole sweeps as single JSON blobs — all-or-nothing: a killed run lost
//! everything, and any change to the config list invalidated the file.
//!
//! This module caches *measurement grains* instead. A grain is one
//! (workload × config × detailed budget) measurement, addressed by an
//! FNV-1a hash over its full calibration identity ([`grain_key`]). Each
//! shard is an `mct-persist` store directory ([`StateStore`]) holding a
//! checksummed `wal.bin`, and every grain is one frame `{v, k, val}`
//! appended and fsynced the moment it is measured. Grain values are
//! [`BitMetrics`], so every float — `+inf` lifetimes and NaNs included —
//! comes back bit for bit. A killed or partial run therefore loses
//! nothing, figures can share grains regardless of which config list
//! requested them, and [`load_or_compute_sweeps`] flattens *all*
//! outstanding grains across every requested sweep into one batch for
//! the work-stealing scheduler ([`crate::sched`]).
//!
//! Loading follows the store's corruption rule and re-measures rather
//! than crashing. A torn tail (the unacknowledged end of a killed
//! append) is dropped; a frame that passes its checksum but does not
//! decode is skipped; both count as `corrupt_discarded`. Frames written
//! under another [`CACHE_VERSION`] are skipped as `stale_discarded`. A
//! shard the store refuses to open (a bit flip in an acknowledged frame,
//! a bad header, another format version) is counted, noted once, and
//! recreated empty, so a damaged record is never used silently.
//!
//! Derived results (controller runs, mix runs) use the same store via
//! [`DerivedStore`]: arbitrary serde values keyed by a label + the
//! parameters that determine them.
//!
//! A shard has one writer: the process-wide pools give each shard one
//! handle per process, and two processes must not write to one data dir
//! at the same time.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use serde::{Content, Deserialize, Serialize};

use mct_core::persist::BitMetrics;
use mct_core::{fnv1a64, NvmConfig, StateStore};
use mct_sim::stats::Metrics;
use mct_telemetry::pipeline_stats;
use mct_workloads::Workload;

use crate::runner::{shared_rig, RigCell};
use crate::scale::Scale;
use crate::sched::{default_workers, run_grains};

/// Bump when the simulator/workload calibration changes incompatibly:
/// stale grains are discarded on load.
pub const CACHE_VERSION: u32 = 4;

/// Content address of one measurement grain: workload, seed, detailed
/// budget, and every knob of the configuration (as exact f64 bits).
///
/// The cache version is *not* hashed in — it is stored per frame so
/// that stale entries can be recognized, counted, and logged rather than
/// silently orphaned.
#[must_use]
pub fn grain_key(workload: Workload, seed: u64, detailed_insts: u64, cfg: &NvmConfig) -> u64 {
    vector_grain_key(workload, seed, detailed_insts, &cfg.to_vector())
}

/// [`grain_key`] over an arbitrary feature vector (extended-space
/// configurations have more knobs than [`NvmConfig`]; vectors of
/// different lengths hash differently).
#[must_use]
pub fn vector_grain_key(workload: Workload, seed: u64, detailed_insts: u64, vector: &[f64]) -> u64 {
    let mut bytes = Vec::with_capacity(32 + 8 * vector.len());
    bytes.extend_from_slice(workload.name().as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(&seed.to_le_bytes());
    bytes.extend_from_slice(&detailed_insts.to_le_bytes());
    for v in vector {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// Content address of a derived (non-grain) result: a label plus the
/// f64 parameters that determine it.
#[must_use]
pub fn derived_key(label: &str, seed: u64, params: &[f64]) -> u64 {
    let mut bytes = Vec::with_capacity(64 + 8 * params.len());
    bytes.extend_from_slice(label.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(&seed.to_le_bytes());
    for v in params {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// One cached value: the payload of one WAL frame.
#[derive(Debug, Serialize, Deserialize)]
struct Entry {
    /// Cache version the value was produced under.
    v: u32,
    /// [`grain_key`] or [`derived_key`] content address.
    k: u64,
    /// The serde-encoded value.
    val: Content,
}

/// An append-only cache shard: content-addressed values over one
/// [`StateStore`] log.
///
/// Each recorded value is appended and fsynced as its own frame, so a
/// killed run keeps everything recorded up to the kill. All methods are
/// thread-safe — scheduler workers record grains concurrently.
#[derive(Debug)]
pub struct Store<V> {
    dir: PathBuf,
    entries: Mutex<HashMap<u64, V>>,
    log: Mutex<StateStore>,
}

/// Measurement grains, keyed by [`grain_key`].
pub type GrainStore = Store<BitMetrics>;

/// Derived results — controller and mix outcomes — keyed by
/// [`derived_key`].
pub type DerivedStore = Store<Content>;

impl<V: Serialize + Deserialize + Clone> Store<V> {
    /// Open the shard directory `dir` (created if missing), loading every
    /// entry that decodes under [`CACHE_VERSION`]. Damage is counted,
    /// noted once, and re-measured (see the module docs).
    ///
    /// # Panics
    /// Panics when the shard cannot be created in `dir`.
    #[must_use]
    pub fn open(dir: PathBuf) -> Store<V> {
        let stats = pipeline_stats();
        let (log, frames, torn) = match StateStore::open(&dir) {
            Ok((log, replay)) => (log, replay.records, replay.torn.is_some()),
            Err(e) => {
                stats.add_corrupt_discarded(1);
                eprintln!(
                    "note: cache shard {} is damaged ({e}); recreating it empty and re-measuring",
                    dir.display()
                );
                let log = StateStore::create(&dir).expect("recreate cache shard");
                (log, Vec::new(), false)
            }
        };
        let mut entries = HashMap::with_capacity(frames.len());
        let (mut stale, mut corrupt) = (0u64, u64::from(torn));
        for frame in &frames {
            let entry = std::str::from_utf8(frame)
                .ok()
                .and_then(|text| serde_json::from_str::<Entry>(text).ok());
            match entry {
                Some(e) if e.v != CACHE_VERSION => stale += 1,
                Some(e) => match V::deserialize_content(&e.val) {
                    Ok(val) => {
                        entries.insert(e.k, val);
                    }
                    Err(_) => corrupt += 1,
                },
                None => corrupt += 1,
            }
        }
        if stale + corrupt > 0 {
            stats.add_stale_discarded(stale);
            stats.add_corrupt_discarded(corrupt);
            eprintln!(
                "note: cache shard {}: discarded {stale} stale (cache version != {CACHE_VERSION}) \
                 and {corrupt} corrupt or torn entries; re-measuring",
                dir.display()
            );
        }
        Store {
            dir,
            entries: Mutex::new(entries),
            log: Mutex::new(log),
        }
    }

    /// Number of cached entries.
    ///
    /// # Panics
    /// Panics if the store mutex is poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache shard lock").len()
    }

    /// True when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lookup(&self, key: u64) -> Option<V> {
        self.entries
            .lock()
            .expect("cache shard lock")
            .get(&key)
            .cloned()
    }

    /// Append `val` to the log (fsynced: a killed run loses at most the
    /// frame being written), then serve it from memory.
    fn insert(&self, key: u64, val: V) {
        let entry = Entry {
            v: CACHE_VERSION,
            k: key,
            val: val.serialize_content(),
        };
        self.log
            .lock()
            .expect("cache shard log lock")
            .append_record(&entry)
            .expect("append to cache shard");
        self.entries
            .lock()
            .expect("cache shard lock")
            .insert(key, val);
    }
}

impl GrainStore {
    /// The cached metrics for `key`, if present.
    ///
    /// # Panics
    /// Panics if the store mutex is poisoned.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<Metrics> {
        self.lookup(key).map(BitMetrics::to_metrics)
    }

    /// Record a freshly measured grain.
    ///
    /// # Panics
    /// Panics on an unwritable shard or a poisoned mutex.
    pub fn record(&self, key: u64, m: Metrics) {
        self.insert(key, BitMetrics::from(m));
    }
}

impl DerivedStore {
    /// The cached value for `key` decoded as `T`; a value that fails to
    /// decode (schema drift without a version bump) counts as corrupt
    /// and is re-computed.
    ///
    /// # Panics
    /// Panics if the store mutex is poisoned.
    #[must_use]
    pub fn get_as<T: Deserialize>(&self, key: u64) -> Option<T> {
        let val = self.lookup(key)?;
        match T::deserialize_content(&val) {
            Ok(t) => Some(t),
            Err(_) => {
                pipeline_stats().add_corrupt_discarded(1);
                eprintln!(
                    "note: cached derived result {key:#018x} in {} failed to decode; re-computing",
                    self.dir.display()
                );
                None
            }
        }
    }

    /// Record a derived result.
    ///
    /// # Panics
    /// Panics on an unwritable shard or a poisoned mutex.
    pub fn record<T: Serialize>(&self, key: u64, value: &T) {
        self.insert(key, value.serialize_content());
    }

    /// Serve `key` from the cache or compute, record, and return it.
    /// Both paths feed the pipeline hit rate: a hit counts as a cache
    /// hit, a compute as an executed grain, so `hits + executed` equals
    /// requests across grain and derived stores alike.
    pub fn get_or_compute<T, F>(&self, key: u64, compute: F) -> T
    where
        T: Serialize + Deserialize,
        F: FnOnce() -> T,
    {
        if let Some(v) = self.get_as::<T>(key) {
            pipeline_stats().add_cache_hits(1);
            return v;
        }
        let v = compute();
        pipeline_stats().add_grains_executed(1);
        self.record(key, &v);
        v
    }
}

/// Default cache directory (workspace `data/`), overridable with
/// `MCT_DATA_DIR`.
#[must_use]
pub fn data_dir() -> PathBuf {
    std::env::var_os("MCT_DATA_DIR").map_or_else(|| PathBuf::from("data"), PathBuf::from)
}

/// Process-wide shard pool, keyed by directory: every figure in a run
/// shares one loaded copy of each shard (and its one writer).
type Pool<V> = Mutex<HashMap<PathBuf, Arc<Store<V>>>>;

fn pooled<V: Serialize + Deserialize + Clone>(pool: &Pool<V>, dir: PathBuf) -> Arc<Store<V>> {
    Arc::clone(
        pool.lock()
            .expect("cache pool lock")
            .entry(dir.clone())
            .or_insert_with(|| Arc::new(Store::open(dir))),
    )
}

/// The shared grain store for (workload, scale, seed) under the current
/// data dir. Shards split per (workload, scale tag, seed) only to keep
/// them small; identity lives in the per-grain keys.
///
/// # Panics
/// Panics if the pool mutex is poisoned.
#[must_use]
pub fn grain_store(workload: Workload, scale: Scale, seed: u64) -> Arc<GrainStore> {
    static POOL: OnceLock<Pool<BitMetrics>> = OnceLock::new();
    let name = format!("grains_{}_{}_seed{seed}", workload.name(), scale.tag());
    pooled(POOL.get_or_init(Pool::default), data_dir().join(name))
}

/// The shared derived-result store for (scale, seed) under the current
/// data dir.
///
/// # Panics
/// Panics if the pool mutex is poisoned.
#[must_use]
pub fn derived_store(scale: Scale, seed: u64) -> Arc<DerivedStore> {
    static POOL: OnceLock<Pool<Content>> = OnceLock::new();
    let name = format!("derived_{}_seed{seed}", scale.tag());
    pooled(POOL.get_or_init(Pool::default), data_dir().join(name))
}

/// A cached brute-force sweep for one workload (assembled per request
/// from the grain store; kept as the figures' working representation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepDataset {
    /// Cache format/calibration version.
    pub version: u32,
    /// Workload name.
    pub workload: String,
    /// Scale tag the sweep ran at.
    pub scale: String,
    /// Space stride used.
    pub stride: usize,
    /// The measured configurations.
    pub configs: Vec<NvmConfig>,
    /// Parallel metrics.
    pub metrics: Vec<Metrics>,
}

impl SweepDataset {
    /// Pairs of (config, metrics).
    #[must_use]
    pub fn pairs(&self) -> Vec<(NvmConfig, Metrics)> {
        self.configs
            .iter()
            .copied()
            .zip(self.metrics.iter().copied())
            .collect()
    }

    /// Metrics of the first configuration equal to `cfg`, if measured.
    #[must_use]
    pub fn metrics_of(&self, cfg: &NvmConfig) -> Option<Metrics> {
        self.configs
            .iter()
            .position(|c| c == cfg)
            .map(|i| self.metrics[i])
    }
}

/// One sweep wanted by a figure: a workload and the configs to measure.
#[derive(Debug, Clone)]
pub struct SweepRequest {
    /// The workload to sweep.
    pub workload: Workload,
    /// The configurations to measure (already strided per the scale).
    pub configs: Vec<NvmConfig>,
}

/// A scheduled cache miss: everything a worker needs to measure and
/// persist one grain.
struct MissGrain {
    cfg: NvmConfig,
    key: u64,
    rig: Arc<RigCell>,
    store: Arc<GrainStore>,
}

/// Serve a batch of sweeps from the grain cache, measuring only the
/// missing grains — flattened across *all* requests into one
/// work-stealing round ([`crate::sched::run_grains`]), so a figure
/// needing ten workloads keeps every core busy instead of sweeping them
/// one at a time. Fresh grains are appended to their stores as they
/// complete; a killed run keeps them.
///
/// Returned datasets are index-parallel with `requests`, and the
/// metrics for a given grain are bit-identical whether served from
/// cache or measured fresh (measurement is deterministic per grain and
/// the shards store exact f64 bits).
///
/// # Panics
/// Panics on unwritable cache directories (a damaged shard is
/// recreated, not fatal).
#[must_use]
pub fn load_or_compute_sweeps(
    requests: &[SweepRequest],
    scale: Scale,
    seed: u64,
) -> Vec<SweepDataset> {
    let stats = pipeline_stats();
    let mut misses: Vec<MissGrain> = Vec::new();
    let mut scheduled: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut hits = 0u64;
    // Index-parallel with `requests`: (store, per-config keys).
    let mut plans: Vec<(Arc<GrainStore>, Vec<u64>)> = Vec::with_capacity(requests.len());

    for req in requests {
        let store = grain_store(req.workload, scale, seed);
        let budget = req.workload.detailed_insts(scale.detailed_factor());
        let mut keys = Vec::with_capacity(req.configs.len());
        let mut rig: Option<Arc<RigCell>> = None;
        for cfg in &req.configs {
            let key = grain_key(req.workload, seed, budget, cfg);
            keys.push(key);
            if store.get(key).is_some() || scheduled.contains(&key) {
                hits += 1;
                continue;
            }
            scheduled.insert(key);
            misses.push(MissGrain {
                cfg: *cfg,
                key,
                rig: Arc::clone(rig.get_or_insert_with(|| shared_rig(req.workload, seed, budget))),
                store: Arc::clone(&store),
            });
        }
        plans.push((store, keys));
    }
    stats.add_cache_hits(hits);

    if !misses.is_empty() {
        let workers = default_workers();
        // Pre-warm each distinct rig in parallel so no measurement worker
        // stalls behind another workload's warmup. Warmups are rig work,
        // not grains — they are accounted by the rig pool, not the
        // scheduler.
        let mut warm: Vec<Arc<RigCell>> = Vec::new();
        for g in &misses {
            if !warm.iter().any(|c| Arc::ptr_eq(c, &g.rig)) {
                warm.push(Arc::clone(&g.rig));
            }
        }
        // Single deployment-style measurements stay quiet; only real
        // sweep rounds get progress lines.
        let chatty = misses.len() >= 8;
        // mct-tidy: allow(D002) -- progress-line timing only; never feeds results
        let t0 = Instant::now();
        if chatty {
            eprintln!(
                "measuring {} grains across {} workload rigs ({} served from cache) at scale {scale} ...",
                misses.len(),
                warm.len(),
                hits
            );
        }
        std::thread::scope(|scope| {
            for chunk in warm.chunks(warm.len().div_ceil(workers.max(1))) {
                scope.spawn(move || {
                    for cell in chunk {
                        let _ = cell.rig();
                    }
                });
            }
        });
        let _ = run_grains(&misses, workers, |g| {
            let m = g.rig.rig().measure(&g.cfg);
            g.store.record(g.key, m);
            m
        });
        if chatty {
            eprintln!("  done in {:.1}s", t0.elapsed().as_secs_f64());
        }
    }

    requests
        .iter()
        .zip(plans)
        .map(|(req, (store, keys))| SweepDataset {
            version: CACHE_VERSION,
            workload: req.workload.name().to_string(),
            scale: scale.tag().to_string(),
            stride: scale.space_stride(),
            configs: req.configs.clone(),
            metrics: keys
                .iter()
                .map(|k| store.get(*k).expect("grain measured or cached"))
                .collect(),
        })
        .collect()
}

/// Load a cached sweep of `configs` for `workload`, or compute and cache
/// the missing grains. `configs` should already be strided per the
/// scale. Single-request convenience over [`load_or_compute_sweeps`].
///
/// # Panics
/// Panics on unwritable cache directories.
#[must_use]
pub fn load_or_compute_sweep(
    workload: Workload,
    configs: &[NvmConfig],
    scale: Scale,
    seed: u64,
) -> SweepDataset {
    load_or_compute_sweeps(
        &[SweepRequest {
            workload,
            configs: configs.to_vec(),
        }],
        scale,
        seed,
    )
    .pop()
    .expect("one dataset per request")
}

/// Serve one measurement grain from `store` or run `measure`, recording
/// the fresh result. The hit/executed counters feed the pipeline
/// cache-hit rate; use this for one-off deployment measurements that do
/// not warrant a scheduler round.
pub fn cached_measurement(
    store: &GrainStore,
    key: u64,
    measure: impl FnOnce() -> Metrics,
) -> Metrics {
    let stats = pipeline_stats();
    if let Some(m) = store.get(key) {
        stats.add_cache_hits(1);
        return m;
    }
    let m = measure();
    stats.add_grains_executed(1);
    store.record(key, m);
    m
}

/// Measure one (workload × config) grain at the scale's budget through
/// the cache and the shared rig pool.
#[must_use]
pub fn cached_measure(workload: Workload, cfg: &NvmConfig, scale: Scale, seed: u64) -> Metrics {
    let budget = workload.detailed_insts(scale.detailed_factor());
    let store = grain_store(workload, scale, seed);
    let key = grain_key(workload, seed, budget, cfg);
    cached_measurement(&store, key, || {
        shared_rig(workload, seed, budget).rig().measure(cfg)
    })
}

/// Apply the scale's stride to a configuration list, always retaining the
/// anchor configurations (default + static baseline variants) so every
/// figure can reference them.
#[must_use]
pub fn strided_configs(all: &[NvmConfig], scale: Scale) -> Vec<NvmConfig> {
    let stride = scale.space_stride();
    let mut out: Vec<NvmConfig> = all.iter().step_by(stride).copied().collect();
    for anchor in [
        NvmConfig::default_config(),
        NvmConfig::static_baseline(),
        NvmConfig::static_baseline().without_wear_quota(),
    ] {
        if all.contains(&anchor) && !out.contains(&anchor) {
            out.push(anchor);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mct_core::ConfigSpace;

    #[test]
    fn strided_configs_keep_anchors() {
        let space = ConfigSpace::full(8.0);
        let strided = strided_configs(space.configs(), Scale::Quick);
        assert!(strided.len() < space.len());
        assert!(strided.contains(&NvmConfig::default_config()));
        assert!(strided.contains(&NvmConfig::static_baseline()));
    }

    #[test]
    fn full_scale_is_identity_plus_anchors() {
        let space = ConfigSpace::full(8.0);
        let strided = strided_configs(space.configs(), Scale::Full);
        assert_eq!(strided.len(), space.len());
    }

    #[test]
    fn grain_keys_separate_every_identity_axis() {
        let cfg = NvmConfig::default_config();
        let base = grain_key(Workload::Gups, 1, 1000, &cfg);
        assert_eq!(base, grain_key(Workload::Gups, 1, 1000, &cfg), "stable");
        assert_ne!(base, grain_key(Workload::Stream, 1, 1000, &cfg));
        assert_ne!(base, grain_key(Workload::Gups, 2, 1000, &cfg));
        assert_ne!(base, grain_key(Workload::Gups, 1, 1001, &cfg));
        assert_ne!(
            base,
            grain_key(Workload::Gups, 1, 1000, &NvmConfig::static_baseline())
        );
    }

    fn metrics_bits(m: Metrics) -> [u64; 3] {
        [
            m.ipc.to_bits(),
            m.lifetime_years.to_bits(),
            m.energy_j.to_bits(),
        ]
    }

    #[test]
    fn grain_store_appends_and_reloads() {
        let tmp = mct_persist::TempDir::new("mct-grains");
        let dir = tmp.join("grains_test");
        let m = Metrics {
            ipc: 1.5,
            lifetime_years: 7.25,
            energy_j: 0.125,
        };
        {
            let store = GrainStore::open(dir.clone());
            assert!(store.is_empty());
            store.record(1, m);
            store.record(2, m);
            assert_eq!(store.len(), 2);
        }
        let store = GrainStore::open(dir);
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(1), Some(m));
        assert_eq!(store.get(3), None);
    }

    #[test]
    fn non_finite_grains_round_trip_bit_identical() {
        // A window that wore nothing projects an infinite lifetime; the
        // cache must serve it back as +inf, not NaN.
        let tmp = mct_persist::TempDir::new("mct-grains-inf");
        let dir = tmp.join("grains_inf");
        let m = Metrics {
            ipc: 0.75,
            lifetime_years: f64::INFINITY,
            energy_j: 0.5,
        };
        GrainStore::open(dir.clone()).record(9, m);
        let hit = GrainStore::open(dir).get(9).expect("persisted grain");
        assert_eq!(metrics_bits(hit), metrics_bits(m));
    }

    #[test]
    fn stale_and_undecodable_frames_are_discarded_not_fatal() {
        let tmp = mct_persist::TempDir::new("mct-grains-stale");
        let dir = tmp.join("grains_test");
        let frame = |v: u32, k: u64, val: Content| {
            serde_json::to_string(&Entry { v, k, val }).expect("serialize")
        };
        let good = BitMetrics::from(Metrics {
            ipc: 1.0,
            lifetime_years: 2.0,
            energy_j: 3.0,
        })
        .serialize_content();
        let mut log = StateStore::create(&dir).expect("create shard");
        for payload in [
            frame(CACHE_VERSION, 7, good.clone()),
            frame(CACHE_VERSION - 1, 8, good),
            "not json".to_string(),
            frame(CACHE_VERSION, 9, Content::Str("not metrics".into())),
        ] {
            log.append(payload.as_bytes()).expect("append");
        }
        drop(log);
        // A killed append leaves a partial frame header behind.
        let wal = dir.join("wal.bin");
        let mut bytes = std::fs::read(&wal).expect("read wal");
        bytes.extend_from_slice(&[0xAB; 5]);
        std::fs::write(&wal, bytes).expect("tear wal");

        let before = pipeline_stats().snapshot();
        let store = GrainStore::open(dir);
        let after = pipeline_stats().snapshot();
        assert_eq!(store.len(), 1, "only the good frame survives");
        assert!(store.get(7).is_some());
        assert_eq!(after.stale_discarded - before.stale_discarded, 1);
        assert_eq!(after.corrupt_discarded - before.corrupt_discarded, 3);
    }

    #[test]
    fn derived_store_round_trips_values() {
        let tmp = mct_persist::TempDir::new("mct-derived");
        let dir = tmp.join("derived_test");
        let key = derived_key("mix/all", 9, &[1.0, 2.5]);
        assert_ne!(key, derived_key("mix/all", 9, &[1.0, 2.0]));
        assert_ne!(key, derived_key("mix/other", 9, &[1.0, 2.5]));
        {
            let store = DerivedStore::open(dir.clone());
            let v: Vec<f64> = store.get_or_compute(key, || vec![1.0, 2.0, 3.0]);
            assert_eq!(v, vec![1.0, 2.0, 3.0]);
        }
        let store = DerivedStore::open(dir);
        let v: Vec<f64> = store.get_or_compute(key, || panic!("must be served from disk"));
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
    }
}
