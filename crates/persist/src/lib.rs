//! # mct-persist — crash-safe controller state and experiment caches
//!
//! A versioned, checksummed write-ahead log + snapshot scheme for the MCT
//! controller's durable state and for the experiment harness's grain and
//! derived-result caches. The crate is deliberately schema-agnostic: it
//! stores opaque serde-JSON payloads, and the typed vocabularies live
//! with their users — the controller's records (wear deltas, fitted
//! models, ladder position) in `mct-core::persist`, the cache entries in
//! `mct-experiments::cache` — so the dependency arrow points framework →
//! durability, never back.
//!
//! ## On-disk layout
//!
//! A store is a directory with two files:
//!
//! * `wal.bin` — a 20-byte header (`MCT-WAL\n` magic, `u32` format
//!   version, `u64` generation) followed by framed records. Each frame is
//!   a 16-byte header — payload length, the length XOR-masked (so a bit
//!   flip in the length field itself is detectable before trusting it),
//!   and an FNV-1a-64 checksum of the payload — then the payload bytes.
//! * `snap.bin` — the same header shape (`MCT-SNP\n` magic) plus exactly
//!   one frame holding the compacted state. Written to `snap.tmp` and
//!   atomically renamed, so a half-written snapshot can never shadow a
//!   good one.
//!
//! ## Torn tails vs bit flips
//!
//! Crashes and corruption are *different* failures and the reader keeps
//! them apart (see [`Replay::torn`] vs [`PersistError::Corrupt`]):
//!
//! * A **torn tail** is a structurally truncated suffix — a partial frame
//!   header, or a frame whose payload runs past end-of-file. Under the
//!   prefix-write crash model (a dying process persists some prefix of
//!   its final append) only the last record can be torn, so the reader
//!   silently drops it: the record was never acknowledged.
//! * A **bit flip** is an interior frame whose length mask or checksum
//!   fails while the file continues past it, or a full-length final frame
//!   with a bad checksum. That record *was* acknowledged, so replay
//!   refuses to proceed with a hard [`PersistError::Corrupt`].
//!
//! ## Compaction and generations
//!
//! [`StateStore::snapshot`] writes the caller's compacted state, bumps the
//! generation, and resets the WAL under the new generation. If the process
//! dies between the snapshot rename and the WAL reset, the stale WAL (old
//! generation, records already folded into the snapshot) is detected by
//! the generation mismatch and discarded on the next open.
//!
//! ## Crash injection
//!
//! [`CrashPoint`] makes the kill-and-recover harness deterministic: the
//! store counts durable operations (appends and snapshots) and at the
//! configured index either completes the op then goes dead
//! ([`CrashPoint::AfterOp`]) or persists only a byte prefix of the frame
//! ([`CrashPoint::TornOp`]). A dead store silently drops every later op —
//! exactly the disk state a killed process leaves behind — while the
//! in-memory run continues, so a test can compare the survivor on disk
//! against the uninterrupted golden run.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod store;
pub mod tempdir;

pub use store::{CrashPoint, Replay, StateStore, TornTail, FORMAT_VERSION};
pub use tempdir::TempDir;

use std::fmt;
use std::io;

/// FNV-1a 64-bit over `bytes`.
///
/// Dependency-free and deterministic across platforms. Every step (XOR a
/// byte, multiply by an odd prime mod 2^64) is a bijection of the running
/// state, so any single corrupted byte necessarily changes the digest —
/// the property the frame checksum actually needs.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Everything that can go wrong opening, appending to, or replaying a
/// store.
#[derive(Debug)]
pub enum PersistError {
    /// An OS-level I/O failure (message includes the path and operation).
    Io(String),
    /// The file exists but does not start with this crate's magic bytes.
    NotAStore {
        /// Which file refused to parse.
        path: String,
    },
    /// The store was written by an incompatible format version. Failing
    /// loudly here is the contract: misparsing old frames as new ones
    /// would corrupt recovery silently.
    FormatVersion {
        /// Version found in the file header.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// An acknowledged (non-tail) record failed validation: a bit flip or
    /// interior truncation. Replay refuses to continue.
    Corrupt {
        /// Which file the corruption was found in.
        path: String,
        /// Byte offset of the offending frame.
        offset: u64,
        /// What exactly failed.
        detail: String,
    },
    /// A record payload decoded as bytes but not as the caller's type.
    Decode {
        /// Record index within the replayed sequence.
        index: usize,
        /// The serde error text.
        detail: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(msg) => write!(f, "i/o error: {msg}"),
            PersistError::NotAStore { path } => {
                write!(f, "{path}: not an mct-persist store (bad magic)")
            }
            PersistError::FormatVersion { found, supported } => write!(
                f,
                "store format version {found} is not supported \
                 (this build reads version {supported}); refusing to misparse"
            ),
            PersistError::Corrupt {
                path,
                offset,
                detail,
            } => write!(
                f,
                "{path}: corrupt frame at byte {offset}: {detail} \
                 (acknowledged record damaged — not a torn tail)"
            ),
            PersistError::Decode { index, detail } => {
                write!(f, "record {index} failed to decode: {detail}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl PersistError {
    pub(crate) fn io(op: &str, path: &std::path::Path, err: &io::Error) -> PersistError {
        PersistError::Io(format!("{op} {}: {err}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::fnv1a64;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
