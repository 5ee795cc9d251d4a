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
//! the grain scheduler ([`crate::sched`]).
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
//! Work that is not a sweep grain — Figures 7–9's controller runs,
//! Figure 10's six mix units (one batch, each unit serial on its
//! worker), the extension study's grains — goes through
//! [`Store::get_or_compute_many`] on either shard type, so Figures 7–10
//! and the extensions run on the pool rather than the caller's thread.
//! It and [`load_or_compute_sweeps`] share one batch lookup: look up
//! every key, run the misses as one scheduler round, record each value
//! as it completes.
//!
//! A shard has one writer: the process-wide pools give each shard one
//! handle per process, and two processes must not write to one data dir
//! at the same time.

use std::collections::{HashMap, HashSet};
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
use crate::sched::{default_workers, run_grains, run_grains_tallied};

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
                stats.add("pipeline.corrupt_discarded", 1);
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
            stats.add("pipeline.stale_discarded", stale);
            stats.add("pipeline.corrupt_discarded", corrupt);
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
                pipeline_stats().add("pipeline.corrupt_discarded", 1);
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
}

/// How a shard serves and records values of type `T`: grain shards hold
/// [`Metrics`] bit for bit, derived shards any serde value.
pub trait Cached<T> {
    /// The cached value for `key`, if present and decodable.
    fn fetch(&self, key: u64) -> Option<T>;
    /// Append a freshly computed value.
    fn put(&self, key: u64, value: &T);
}

impl Cached<Metrics> for GrainStore {
    fn fetch(&self, key: u64) -> Option<Metrics> {
        self.get(key)
    }
    fn put(&self, key: u64, value: &Metrics) {
        self.record(key, *value);
    }
}

impl<T: Serialize + Deserialize> Cached<T> for DerivedStore {
    fn fetch(&self, key: u64) -> Option<T> {
        self.get_as(key)
    }
    fn put(&self, key: u64, value: &T) {
        self.record(key, value);
    }
}

impl<V: Serialize + Deserialize + Clone> Store<V> {
    /// Serve each `(key, unit)` from the shard, or compute it: every key
    /// is looked up first, then the misses run as one scheduler round
    /// ([`crate::sched::run_grains`]) and each fresh value is recorded as
    /// its grain completes, so a killed run keeps what finished. Results
    /// come back in input order.
    ///
    /// A hit counts as a cache hit and a computed unit as an executed
    /// grain, so `hits + executed` equals requests across grain and
    /// derived shards alike. A key repeated within the batch is computed
    /// once and its repeats count as hits, as they would one call at a
    /// time. When every key hits, no round runs and no thread starts.
    ///
    /// # Panics
    /// Propagates a panic from `compute`; panics on an unwritable shard.
    pub fn get_or_compute_many<U, T, F>(&self, units: &[(u64, U)], compute: F) -> Vec<T>
    where
        Self: Cached<T> + Sync,
        U: Sync,
        T: Clone + Send,
        F: Fn(&U) -> T + Sync,
    {
        let units: Vec<(&Self, u64, &U)> =
            units.iter().map(|(key, unit)| (self, *key, unit)).collect();
        serve_batch(&units, |_, _| {}, |unit| compute(unit))
    }
}

/// The batch lookup behind [`Store::get_or_compute_many`] and
/// [`load_or_compute_sweeps`], over units that each name their shard and
/// key. `before_round` sees the deduplicated misses and the hit count
/// just before the misses' round starts, and is skipped when every unit
/// hits.
fn serve_batch<S, U, T>(
    units: &[(&S, u64, U)],
    before_round: impl FnOnce(&[&(&S, u64, U)], u64),
    compute: impl Fn(&U) -> T + Sync,
) -> Vec<T>
where
    S: Cached<T> + Sync,
    U: Sync,
    T: Clone + Send,
{
    let mut hits = 0u64;
    let mut misses = Vec::new();
    let mut scheduled = HashSet::new();
    let mut out: Vec<Option<T>> = Vec::with_capacity(units.len());
    for unit in units {
        let (store, key, _) = unit;
        let hit = store.fetch(*key);
        if hit.is_some() || !scheduled.insert(*key) {
            hits += 1;
        } else {
            misses.push(unit);
        }
        out.push(hit);
    }
    pipeline_stats().add("pipeline.cache_hits", hits);
    if misses.is_empty() {
        return out
            .into_iter()
            .map(|hit| hit.expect("every unit hit"))
            .collect();
    }
    before_round(&misses, hits);
    let fresh = run_grains(&misses, default_workers(), |(store, key, unit)| {
        let v = compute(unit);
        store.put(*key, &v);
        v
    });
    let fresh: HashMap<u64, T> = misses.iter().map(|(_, key, _)| *key).zip(fresh).collect();
    out.into_iter()
        .zip(units)
        .map(|(hit, (_, key, _))| hit.unwrap_or_else(|| fresh[key].clone()))
        .collect()
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

/// A workload's warm rig, taken from the pool only once one of its
/// grains misses: taking an already-warmed rig counts as a reuse.
struct LazyRig {
    workload: Workload,
    seed: u64,
    budget: u64,
    cell: OnceLock<Arc<RigCell>>,
}

impl LazyRig {
    fn get(&self) -> &Arc<RigCell> {
        self.cell
            .get_or_init(|| shared_rig(self.workload, self.seed, self.budget))
    }
}

/// Serve a batch of sweeps from the grain cache, measuring only the
/// missing grains — flattened across *all* requests into one
/// scheduler round ([`crate::sched::run_grains`]), so a figure
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
    let stores: Vec<Arc<GrainStore>> = requests
        .iter()
        .map(|req| grain_store(req.workload, scale, seed))
        .collect();
    let rigs: Vec<LazyRig> = requests
        .iter()
        .map(|req| LazyRig {
            workload: req.workload,
            seed,
            budget: req.workload.detailed_insts(scale.detailed_factor()),
            cell: OnceLock::new(),
        })
        .collect();
    let units: Vec<(&GrainStore, u64, (NvmConfig, &LazyRig))> = requests
        .iter()
        .zip(&stores)
        .zip(&rigs)
        .flat_map(|((req, store), rig)| {
            req.configs.iter().map(move |cfg| {
                let key = grain_key(req.workload, seed, rig.budget, cfg);
                (&**store, key, (*cfg, rig))
            })
        })
        .collect();

    let mut started: Option<Instant> = None;
    let metrics = serve_batch(
        &units,
        |misses, hits| {
            // Pre-warm each distinct rig on the same pool so no
            // measurement worker stalls behind another workload's warmup.
            // Warmups are rig work, not grains — they are accounted by
            // the rig pool, not as a scheduler round.
            let mut warm: Vec<Arc<RigCell>> = Vec::new();
            for (_, _, (_, rig)) in misses {
                let cell = rig.get();
                if !warm.iter().any(|c| Arc::ptr_eq(c, cell)) {
                    warm.push(Arc::clone(cell));
                }
            }
            // Single deployment-style measurements stay quiet; only real
            // sweep rounds get progress lines.
            if misses.len() >= 8 {
                // mct-tidy: allow(D002) -- progress-line timing only; never feeds results
                started = Some(Instant::now());
                eprintln!(
                    "measuring {} grains across {} workload rigs ({} served from cache) at scale {scale} ...",
                    misses.len(),
                    warm.len(),
                    hits
                );
            }
            let _ = run_grains_tallied(&warm, default_workers(), |cell| {
                let _ = cell.rig();
            });
        },
        |(cfg, rig)| rig.get().rig().measure(cfg),
    );
    if let Some(t0) = started {
        eprintln!("  done in {:.1}s", t0.elapsed().as_secs_f64());
    }

    let mut metrics = metrics.into_iter();
    requests
        .iter()
        .map(|req| SweepDataset {
            version: CACHE_VERSION,
            workload: req.workload.name().to_string(),
            scale: scale.tag().to_string(),
            stride: scale.space_stride(),
            configs: req.configs.clone(),
            metrics: metrics.by_ref().take(req.configs.len()).collect(),
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
            let v: Vec<Vec<f64>> =
                store.get_or_compute_many(&[(key, ())], |()| vec![1.0, 2.0, 3.0]);
            assert_eq!(v, vec![vec![1.0, 2.0, 3.0]]);
        }
        let store = DerivedStore::open(dir);
        let v: Vec<Vec<f64>> =
            store.get_or_compute_many(&[(key, ())], |()| panic!("must be served from disk"));
        assert_eq!(v, vec![vec![1.0, 2.0, 3.0]]);
    }

    #[test]
    fn batch_serves_hits_and_misses_in_input_order() {
        let tmp = mct_persist::TempDir::new("mct-derived-batch");
        let store = DerivedStore::open(tmp.join("derived_batch"));
        let key = |i: u64| derived_key("batch", 1, &[i as f64]);
        // Odd units are cached up front; the batch repeats unit 4.
        for i in [1u64, 3, 5] {
            store.record(key(i), &(i * 100));
        }
        let units: Vec<(u64, u64)> = [0u64, 1, 2, 3, 4, 5, 4]
            .iter()
            .map(|&i| (key(i), i))
            .collect();
        let computed = std::sync::Mutex::new(Vec::new());
        let got: Vec<u64> = store.get_or_compute_many(&units, |&i| {
            computed.lock().expect("computed").push(i);
            i * 100
        });
        assert_eq!(got, vec![0, 100, 200, 300, 400, 500, 400]);
        let mut computed = computed.into_inner().expect("computed");
        computed.sort_unstable();
        assert_eq!(computed, vec![0, 2, 4], "each miss computed once");
        // Everything hits now: the compute is never reached.
        let again: Vec<u64> = store.get_or_compute_many(&units, |_| panic!("all cached"));
        assert_eq!(again, got);
    }
}
