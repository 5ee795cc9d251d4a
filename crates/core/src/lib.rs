//! # mct-core — the Memory Cocktail Therapy framework
//!
//! The paper's contribution: a learning-based runtime that, per
//! application and per detected phase, picks a near-optimal combination of
//! NVM write-management techniques from a ~3,000-point configuration
//! space under a user-defined constrained objective.
//!
//! The pipeline (paper Sections 4–5):
//!
//! 1. [`space::ConfigSpace`] enumerates the 10-dimensional configuration
//!    space with the structural constraints of Section 3.3.1;
//! 2. [`phase::PhaseDetector`] watches memory-workload performance
//!    counters and flags dramatic phases via a Student's t-test;
//! 3. [`sampling`] chooses a small set of sample configurations —
//!    feature-guided (uniform over the three lasso-selected primary
//!    features) or random — and the controller exercises them with
//!    cyclic fine-grained sampling;
//! 4. [`predictor::MetricsPredictor`] fits lightweight models (quadratic
//!    lasso, gradient boosting, ...) to the samples and predicts
//!    IPC/lifetime/energy for every configuration;
//! 5. [`optimizer`] solves the user's constrained objective over the
//!    predictions and applies the wear-quota fixup;
//! 6. [`controller::Controller`] ties it together on a live simulated
//!    system, with baseline normalization, periodic health checks and
//!    baseline fallback, emitting one [`persist::StateRecord`] stream
//!    that the write-ahead log persists, telemetry traces and
//!    [`timeline`] renders.
//!
//! ```
//! use mct_core::{Controller, ControllerConfig, Objective};
//! use mct_workloads::Workload;
//!
//! let mut controller = Controller::new(
//!     ControllerConfig::quick_demo(),
//!     Objective::paper_default(8.0),
//! );
//! let outcome = controller.run(&mut Workload::Stream.source(7));
//! assert!(outcome.final_metrics.ipc > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod config;
pub mod controller;
pub mod degrade;
pub mod error;
pub mod extensions;
pub mod objective;
pub mod optimizer;
pub mod persist;
pub mod phase;
pub mod predictor;
pub mod sampling;
pub mod space;
pub mod timeline;

pub use config::NvmConfig;
pub use controller::{Controller, ControllerConfig, Outcome};
pub use degrade::{DegradationAction, DegradationLadder, DegradationStage};
pub use error::MctError;
pub use extensions::{extended_space, ExtendedNvmConfig};
/// The one FNV-1a hash of the workspace (WAL checksums, config digests,
/// grain-cache keys).
pub use mct_persist::fnv1a64;
/// The checksummed log that controller state and the experiment caches
/// share.
pub use mct_persist::{PersistError, StateStore};
pub use objective::{Constraint, Metric, Objective, OptimizeTarget};
pub use optimizer::{optimize, OptimizationResult};
pub use persist::{
    config_digest, decode_dir, records_match, PersistConfig, PredictorState, RecoverError,
    RecoveryReport, StateRecord, STATE_SCHEMA_VERSION,
};
pub use phase::{phase_signature, PhaseDetector, PhaseDetectorConfig};
pub use predictor::{MetricsPredictor, ModelKind};
pub use sampling::{feature_based_samples, random_samples};
pub use space::ConfigSpace;
pub use timeline::{render_timeline, trace_transitions};
