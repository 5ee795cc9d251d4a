//! # mct-sim — NVM system simulation substrate
//!
//! This crate implements the simulation substrate used by the Memory
//! Cocktail Therapy (MCT) reproduction: an event-driven ReRAM main-memory
//! model (banks, prioritized read/write/eager queues, write cancellation,
//! bank-aware slow writes, eager mellow writebacks, wear quota), a
//! set-associative last-level cache with LRU-stack statistics, an
//! out-of-order core timing model, and wear/energy accounting.
//!
//! The substrate replaces gem5 + NVMain + McPAT/NVSim from the paper
//! (Deng et al., MICRO 2017). Parameters default to the paper's Table 8
//! (processor) and Table 9 (ReRAM main memory).
//!
//! ## Architecture
//!
//! ```text
//!  AccessSource (trace)           mct-workloads implements this
//!        |
//!        v
//!  CpuModel (MLP-limited OoO timing)     [cpu::CpuModel]
//!        |
//!        v
//!  Llc (2MB/16-way, LRU-stack stats)     [cache::Cache]
//!        |  miss reads / dirty evictions / eager writebacks
//!        v
//!  MemoryController (16 banks, queues)   [mem::MemoryController]
//!        |
//!        v
//!  WearMeter + EnergyMeter -> RunStats
//! ```
//!
//! ## Quick example
//!
//! ```
//! use mct_sim::{System, SystemConfig, MellowPolicy, TraceEvent, AccessKind, AccessSource};
//!
//! /// A trivial streaming source: one read every 50 instructions.
//! struct Stream { next: u64 }
//! impl AccessSource for Stream {
//!     fn next_access(&mut self) -> TraceEvent {
//!         self.next += 1;
//!         TraceEvent { gap_insts: 50, kind: AccessKind::Read, line: self.next }
//!     }
//! }
//!
//! let config = SystemConfig::default();
//! let mut system = System::new(config, MellowPolicy::default_fast());
//! let stats = system.run(&mut Stream { next: 0 }, 100_000);
//! assert!(stats.ipc() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod cache;
pub mod cpu;
pub mod energy;
pub mod error;
pub mod fault;
pub mod mem;
pub mod policy;
pub mod rigset;
pub mod stats;
pub mod system;
pub mod time;
pub mod trace;
pub mod wear;
pub mod wear_leveling;

pub use cache::{Cache, CacheConfig};
pub use cpu::{CpuConfig, CpuModel};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use error::SimError;
pub use fault::{FaultEvent, FaultPlan, FaultRuntime};
pub use mem::{MemConfig, MemoryController};
pub use policy::{CancellationMode, MellowPolicy, WriteSpeed};
pub use rigset::{RigSet, DEFAULT_SLICE_INSTS};
pub use stats::{PerfCounters, RunStats};
pub use system::{MultiSystem, System, SystemConfig};
pub use time::{Cycles, Time};
pub use trace::{AccessKind, AccessSource, TraceEvent};
pub use wear::{WearMeter, WearQuota, WearSnapshot};
pub use wear_leveling::StartGap;
