//! # mct-experiments — reproducing every table and figure
//!
//! The experiment harness behind the paper's evaluation (Section 6): a
//! brute-force sweep engine over the configuration space (the "ideal
//! policy" search that cost the authors 300,000 compute-hours, made
//! tractable here by the event-driven substrate plus warm-state cloning
//! and on-disk caching), plus one binary per table/figure.
//!
//! Binaries (`cargo run --release -p mct-experiments --bin <name> [--scale smoke|quick|full]`):
//!
//! | binary | reproduces |
//! |---|---|
//! | `calibrate` | default-config landscape (Figure 7's premise) |
//! | `config_space` | Tables 2–3 (space definition & count) |
//! | `table4` | Table 4 (leslie3d ideal vs lifetime target) |
//! | `figure1` | Figure 1 + Table 5 (default/baseline/ideal per app) |
//! | `table6` | Table 6 (top lasso-quadratic features) |
//! | `figure2` | Figure 2 (+Table 7 accuracy columns) |
//! | `figure3` | Figure 3 (wear quota in/out of the learned space) |
//! | `figure4` | Figure 4 (lasso coefficients; sampling strategies) |
//! | `figure6` | Figure 6 (phase detection on ocean) |
//! | `figure7` | Figure 7 + Table 10 (headline MCT results) |
//! | `figure8` | Figure 8 (lifetime-target sensitivity) |
//! | `figure9` | Figure 9 (sampling overhead & extrapolation) |
//! | `figure10` | Figure 10 + Table 11 (multi-program mixes) |
//! | `chaos` | fault-injection scenario sweep (MCT vs static under faults) |
//! | `run_all` | everything above in order |

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod chaos;
pub mod figures;
pub mod ideal;
pub mod mix_mct;
pub mod pipeline;
pub mod report;
pub mod runner;
pub mod scale;
pub mod sched;

pub use cache::{
    load_or_compute_sweep, load_or_compute_sweeps, SweepDataset, SweepRequest, CACHE_VERSION,
};
pub use ideal::{ideal_for, IdealSearch};
pub use mix_mct::{run_mix_all, run_mix_mct};
pub use report::{fmt_cell, Table};
pub use runner::{shared_rig, RigCell, WarmedRig, EXPERIMENT_SEED};
pub use scale::{Scale, ScaleArgError};
pub use sched::{default_workers, run_grains};
