//! The write-ahead log + snapshot store and its crash-injection hook.

use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::{fnv1a64, PersistError};

/// On-disk container format version, checked on every open. Bump on any
/// incompatible layout change; old stores then fail loudly with
/// [`PersistError::FormatVersion`] instead of misparsing.
pub const FORMAT_VERSION: u32 = 1;

const WAL_MAGIC: [u8; 8] = *b"MCT-WAL\n";
const SNAP_MAGIC: [u8; 8] = *b"MCT-SNP\n";
const HEADER_LEN: usize = 20;
const FRAME_HEADER_LEN: usize = 16;
/// Mask for the duplicated frame-length word: a bit flip in the length
/// field breaks `len ^ LEN_XOR == mask` before the length is trusted.
const LEN_XOR: u32 = 0xA5A5_A5A5;
/// Sanity cap well above any real record; a "length" past this is
/// corruption, not a record.
const MAX_RECORD_BYTES: u32 = 64 << 20;

const WAL_FILE: &str = "wal.bin";
const SNAP_FILE: &str = "snap.bin";
const SNAP_TMP_FILE: &str = "snap.tmp";

/// Deterministic crash injection for the kill-and-recover harness.
///
/// The store counts durable operations — appends and snapshots — from 0.
/// At the configured index the writer either completes the op and then
/// goes dead, or persists only a byte prefix of it. A dead store silently
/// drops every subsequent op, leaving the directory exactly as a killed
/// process would, while the in-memory run is free to continue (the
/// harness discards it and recovers from disk).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CrashPoint {
    /// Never crash (the production setting).
    #[default]
    None,
    /// Complete op `k`, then drop everything after it. For an append this
    /// means record `k` is durable and acknowledged; for a snapshot the
    /// snapshot file is renamed into place but the WAL reset that should
    /// follow never happens — the nastier half of the compaction window,
    /// which replay must resolve via the generation check.
    AfterOp(u64),
    /// On op `op`, persist only the first `keep_bytes` bytes of the frame
    /// (clamped to strictly less than the full frame), then go dead — a
    /// torn write. For a snapshot this tears the temp file before the
    /// atomic rename, so the previous snapshot survives untouched.
    TornOp {
        /// 0-based durable-op index to tear.
        op: u64,
        /// Byte prefix of the frame that reaches disk.
        keep_bytes: u64,
    },
}

/// A structurally truncated WAL suffix, dropped on open.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TornTail {
    /// Byte offset where the torn frame started.
    pub offset: u64,
    /// Bytes discarded from there to end-of-file.
    pub dropped_bytes: u64,
}

/// Everything a replay recovered from a store directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// The latest snapshot payload, if one was ever written.
    pub snapshot: Option<Vec<u8>>,
    /// WAL record payloads appended after that snapshot, in order.
    pub records: Vec<Vec<u8>>,
    /// Store generation (bumped by every snapshot).
    pub generation: u64,
    /// The torn tail dropped from the WAL, if any.
    pub torn: Option<TornTail>,
    /// Records discarded because the WAL belonged to an older generation
    /// than the snapshot (a crash landed between the snapshot rename and
    /// the WAL reset; those records are already inside the snapshot).
    pub stale_wal_records: u64,
}

impl Replay {
    /// Decode every WAL record payload as `T`, in order.
    ///
    /// # Errors
    /// [`PersistError::Decode`] with the failing record's index.
    pub fn decode_records<T: Deserialize>(&self) -> Result<Vec<T>, PersistError> {
        self.records
            .iter()
            .enumerate()
            .map(|(index, bytes)| decode_payload(index, bytes))
            .collect()
    }
}

fn decode_payload<T: Deserialize>(index: usize, bytes: &[u8]) -> Result<T, PersistError> {
    let text = std::str::from_utf8(bytes).map_err(|e| PersistError::Decode {
        index,
        detail: format!("payload is not UTF-8: {e}"),
    })?;
    serde_json::from_str(text).map_err(|e| PersistError::Decode {
        index,
        detail: e.to_string(),
    })
}

fn header_bytes(magic: [u8; 8], generation: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..8].copy_from_slice(&magic);
    h[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[12..20].copy_from_slice(&generation.to_le_bytes());
    h
}

/// Parse a store file header; returns the generation.
fn parse_header(path: &Path, bytes: &[u8], magic: [u8; 8]) -> Result<u64, PersistError> {
    if bytes.len() < HEADER_LEN || bytes[..8] != magic {
        return Err(PersistError::NotAStore {
            path: path.display().to_string(),
        });
    }
    let mut ver = [0u8; 4];
    ver.copy_from_slice(&bytes[8..12]);
    let found = u32::from_le_bytes(ver);
    if found != FORMAT_VERSION {
        return Err(PersistError::FormatVersion {
            found,
            supported: FORMAT_VERSION,
        });
    }
    let mut gen = [0u8; 8];
    gen.copy_from_slice(&bytes[12..20]);
    Ok(u64::from_le_bytes(gen))
}

fn encode_frame(payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_RECORD_BYTES as usize);
    let len = payload.len() as u32;
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&(len ^ LEN_XOR).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(b)
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(b)
}

/// Walk frames from `start`, separating a torn tail (dropped) from
/// interior corruption (hard error).
fn scan_frames(
    path: &Path,
    bytes: &[u8],
    start: usize,
) -> Result<(Vec<Vec<u8>>, Option<TornTail>), PersistError> {
    let corrupt = |offset: usize, detail: &str| PersistError::Corrupt {
        path: path.display().to_string(),
        offset: offset as u64,
        detail: detail.to_string(),
    };
    let torn = |offset: usize| TornTail {
        offset: offset as u64,
        dropped_bytes: (bytes.len() - offset) as u64,
    };
    let mut records = Vec::new();
    let mut o = start;
    loop {
        let rem = bytes.len() - o;
        if rem == 0 {
            return Ok((records, None));
        }
        if rem < FRAME_HEADER_LEN {
            // A partial frame header can only be the prefix of the final,
            // interrupted append.
            return Ok((records, Some(torn(o))));
        }
        let len = read_u32(bytes, o);
        let mask = read_u32(bytes, o + 4);
        if mask != len ^ LEN_XOR {
            // The header is present in full, so a torn (prefix) write
            // cannot explain it: a bit flipped in the length words.
            return Err(corrupt(o, "frame length mask mismatch"));
        }
        if len > MAX_RECORD_BYTES {
            return Err(corrupt(o, "frame length exceeds the record cap"));
        }
        let end = o + FRAME_HEADER_LEN + len as usize;
        if end > bytes.len() {
            // Payload runs past end-of-file: the final append was torn.
            return Ok((records, Some(torn(o))));
        }
        let crc = read_u64(bytes, o + 8);
        let payload = &bytes[o + FRAME_HEADER_LEN..end];
        if fnv1a64(payload) != crc {
            // Full-length frame, bad digest: this record was acknowledged
            // and later damaged. Never silently dropped.
            return Err(corrupt(o, "payload checksum mismatch"));
        }
        records.push(payload.to_vec());
        o = end;
    }
}

/// Parse `snap.bin`: header plus exactly one frame. Snapshots are written
/// to a temp file and atomically renamed, so a torn snapshot cannot exist
/// under the crash model — any damage here is corruption.
fn parse_snapshot(path: &Path, bytes: &[u8]) -> Result<(u64, Vec<u8>), PersistError> {
    let generation = parse_header(path, bytes, SNAP_MAGIC)?;
    let (mut records, torn) = scan_frames(path, bytes, HEADER_LEN)?;
    if torn.is_some() || records.len() != 1 {
        return Err(PersistError::Corrupt {
            path: path.display().to_string(),
            offset: HEADER_LEN as u64,
            detail: format!(
                "snapshot must hold exactly one intact frame (found {}, torn: {})",
                records.len(),
                torn.is_some()
            ),
        });
    }
    // mct-tidy: allow(P003) -- length checked to be exactly 1 above
    Ok((generation, records.pop().expect("one snapshot frame")))
}

#[derive(Clone, Copy)]
enum OpFate {
    Live,
    LastLive,
    Torn(u64),
    Dead,
}

/// A durable state store: one write-ahead log plus at most one snapshot,
/// in a dedicated directory. See the crate docs for the format and the
/// torn-tail / bit-flip / generation rules.
#[derive(Debug)]
pub struct StateStore {
    dir: PathBuf,
    wal_path: PathBuf,
    wal: File,
    generation: u64,
    ops: u64,
    appended: u64,
    crash: CrashPoint,
    dead: bool,
}

impl StateStore {
    /// Create a fresh store in `dir` (created if missing), discarding any
    /// previous WAL and snapshot.
    ///
    /// # Errors
    /// [`PersistError::Io`] on filesystem failure.
    pub fn create(dir: &Path) -> Result<StateStore, PersistError> {
        fs::create_dir_all(dir).map_err(|e| PersistError::io("create dir", dir, &e))?;
        let snap = dir.join(SNAP_FILE);
        let tmp = dir.join(SNAP_TMP_FILE);
        for stale in [&snap, &tmp] {
            if stale.exists() {
                fs::remove_file(stale).map_err(|e| PersistError::io("remove", stale, &e))?;
            }
        }
        let wal_path = dir.join(WAL_FILE);
        let mut wal = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&wal_path)
            .map_err(|e| PersistError::io("create", &wal_path, &e))?;
        wal.write_all(&header_bytes(WAL_MAGIC, 0))
            .map_err(|e| PersistError::io("write header", &wal_path, &e))?;
        wal.sync_data()
            .map_err(|e| PersistError::io("sync", &wal_path, &e))?;
        Ok(StateStore {
            dir: dir.to_path_buf(),
            wal_path,
            wal,
            generation: 0,
            ops: 0,
            appended: 0,
            crash: CrashPoint::None,
            dead: false,
        })
    }

    /// Open an existing store (or create a fresh one if the directory has
    /// no WAL), replay it, truncate any torn tail, and position the
    /// writer for further appends.
    ///
    /// # Errors
    /// [`PersistError::FormatVersion`] on a version mismatch,
    /// [`PersistError::Corrupt`] on interior damage, [`PersistError::Io`]
    /// on filesystem failure.
    pub fn open(dir: &Path) -> Result<(StateStore, Replay), PersistError> {
        let wal_path = dir.join(WAL_FILE);
        if !wal_path.exists() {
            let store = StateStore::create(dir)?;
            let generation = store.generation;
            return Ok((
                store,
                Replay {
                    snapshot: None,
                    records: Vec::new(),
                    generation,
                    torn: None,
                    stale_wal_records: 0,
                },
            ));
        }
        let mut replay = read_store(dir)?;
        let wal_bytes = fs::read(&wal_path).map_err(|e| PersistError::io("read", &wal_path, &e))?;
        // Drop the torn tail from disk so appends resume on a clean frame
        // boundary. (The torn record was never acknowledged.)
        let keep_len = match replay.torn {
            Some(t) => t.offset,
            None => wal_bytes.len() as u64,
        };
        let mut wal = OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .map_err(|e| PersistError::io("open", &wal_path, &e))?;
        if replay.stale_wal_records > 0 || keep_len < HEADER_LEN as u64 {
            // Stale generation (crash inside the compaction window) or a
            // torn header: reset the WAL under the effective generation.
            wal.set_len(0)
                .map_err(|e| PersistError::io("truncate", &wal_path, &e))?;
            wal.seek(SeekFrom::Start(0))
                .map_err(|e| PersistError::io("seek", &wal_path, &e))?;
            wal.write_all(&header_bytes(WAL_MAGIC, replay.generation))
                .map_err(|e| PersistError::io("write header", &wal_path, &e))?;
        } else {
            wal.set_len(keep_len)
                .map_err(|e| PersistError::io("truncate", &wal_path, &e))?;
            wal.seek(SeekFrom::Start(keep_len))
                .map_err(|e| PersistError::io("seek", &wal_path, &e))?;
        }
        wal.sync_data()
            .map_err(|e| PersistError::io("sync", &wal_path, &e))?;
        if replay.stale_wal_records > 0 {
            replay.records.clear();
        }
        let generation = replay.generation;
        Ok((
            StateStore {
                dir: dir.to_path_buf(),
                wal_path,
                wal,
                generation,
                ops: 0,
                appended: 0,
                crash: CrashPoint::None,
                dead: false,
            },
            replay,
        ))
    }

    /// Read-only replay of a store directory; never modifies the files.
    ///
    /// # Errors
    /// Same contract as [`StateStore::open`], plus [`PersistError::Io`]
    /// when no WAL exists at all.
    pub fn replay_dir(dir: &Path) -> Result<Replay, PersistError> {
        let wal_path = dir.join(WAL_FILE);
        if !wal_path.exists() {
            return Err(PersistError::Io(format!(
                "no state store at {}: {WAL_FILE} is missing",
                dir.display()
            )));
        }
        let mut replay = read_store(dir)?;
        if replay.stale_wal_records > 0 {
            replay.records.clear();
        }
        Ok(replay)
    }

    /// Arm deterministic crash injection (see [`CrashPoint`]).
    pub fn set_crash_point(&mut self, crash: CrashPoint) {
        self.crash = crash;
    }

    /// Whether an injected crash has fired: the writer is dead and every
    /// later durable op is silently dropped.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.dead
    }

    /// Records successfully appended (and acknowledged) this session.
    #[must_use]
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Durable ops (appends + snapshots) attempted this session — the
    /// index space [`CrashPoint`] counts in.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Current store generation.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn op_fate(&mut self) -> OpFate {
        if self.dead {
            return OpFate::Dead;
        }
        let idx = self.ops;
        self.ops += 1;
        match self.crash {
            CrashPoint::None => OpFate::Live,
            CrashPoint::AfterOp(k) if idx == k => OpFate::LastLive,
            CrashPoint::AfterOp(k) if idx > k => OpFate::Dead,
            CrashPoint::AfterOp(_) => OpFate::Live,
            CrashPoint::TornOp { op, keep_bytes } if idx == op => OpFate::Torn(keep_bytes),
            CrashPoint::TornOp { op, .. } if idx > op => OpFate::Dead,
            CrashPoint::TornOp { .. } => OpFate::Live,
        }
    }

    /// Append one record payload to the WAL and fsync it.
    ///
    /// Returns `true` when the record is durable (acknowledged); `false`
    /// when an injected crash dropped or tore it.
    ///
    /// # Errors
    /// [`PersistError::Io`] on filesystem failure.
    pub fn append(&mut self, payload: &[u8]) -> Result<bool, PersistError> {
        let frame = encode_frame(payload);
        let fate = self.op_fate();
        match fate {
            OpFate::Dead => Ok(false),
            OpFate::Live | OpFate::LastLive => {
                self.wal
                    .write_all(&frame)
                    .map_err(|e| PersistError::io("append", &self.wal_path, &e))?;
                self.wal
                    .sync_data()
                    .map_err(|e| PersistError::io("sync", &self.wal_path, &e))?;
                self.appended += 1;
                if matches!(fate, OpFate::LastLive) {
                    self.dead = true;
                }
                Ok(true)
            }
            OpFate::Torn(keep_bytes) => {
                // Strictly less than the full frame: a "torn" write that
                // persisted everything would just be a completed append.
                let keep = (keep_bytes as usize).min(frame.len() - 1);
                self.wal
                    .write_all(&frame[..keep])
                    .map_err(|e| PersistError::io("append", &self.wal_path, &e))?;
                self.wal
                    .sync_data()
                    .map_err(|e| PersistError::io("sync", &self.wal_path, &e))?;
                self.dead = true;
                Ok(false)
            }
        }
    }

    /// Serialize `rec` as JSON and [`StateStore::append`] it.
    ///
    /// # Errors
    /// [`PersistError::Io`] on filesystem failure.
    pub fn append_record<T: Serialize>(&mut self, rec: &T) -> Result<bool, PersistError> {
        let text = serde_json::to_string(rec)
            .map_err(|e| PersistError::Io(format!("encode record: {e}")))?;
        self.append(text.as_bytes())
    }

    /// Write a compacted snapshot and reset the WAL under a bumped
    /// generation. The snapshot lands via temp-file + atomic rename; a
    /// crash between the rename and the WAL reset leaves a stale-
    /// generation WAL that the next open detects and discards.
    ///
    /// Returns `true` when the snapshot is durable.
    ///
    /// # Errors
    /// [`PersistError::Io`] on filesystem failure.
    pub fn snapshot(&mut self, payload: &[u8]) -> Result<bool, PersistError> {
        let gen = self.generation + 1;
        let tmp = self.dir.join(SNAP_TMP_FILE);
        let snap = self.dir.join(SNAP_FILE);
        let mut body = header_bytes(SNAP_MAGIC, gen).to_vec();
        body.extend_from_slice(&encode_frame(payload));
        match self.op_fate() {
            OpFate::Dead => Ok(false),
            OpFate::Torn(keep_bytes) => {
                // Tear the temp file before the rename: the previous
                // snapshot (if any) stays authoritative.
                let keep = (keep_bytes as usize).min(body.len() - 1);
                write_file(&tmp, &body[..keep])?;
                self.dead = true;
                Ok(false)
            }
            OpFate::LastLive => {
                // Die in the compaction window: snapshot renamed into
                // place, WAL reset never happens.
                write_file(&tmp, &body)?;
                fs::rename(&tmp, &snap).map_err(|e| PersistError::io("rename", &snap, &e))?;
                sync_dir(&self.dir)?;
                self.dead = true;
                self.generation = gen;
                Ok(true)
            }
            OpFate::Live => {
                write_file(&tmp, &body)?;
                fs::rename(&tmp, &snap).map_err(|e| PersistError::io("rename", &snap, &e))?;
                sync_dir(&self.dir)?;
                self.wal
                    .set_len(0)
                    .map_err(|e| PersistError::io("truncate", &self.wal_path, &e))?;
                self.wal
                    .seek(SeekFrom::Start(0))
                    .map_err(|e| PersistError::io("seek", &self.wal_path, &e))?;
                self.wal
                    .write_all(&header_bytes(WAL_MAGIC, gen))
                    .map_err(|e| PersistError::io("write header", &self.wal_path, &e))?;
                self.wal
                    .sync_data()
                    .map_err(|e| PersistError::io("sync", &self.wal_path, &e))?;
                self.generation = gen;
                Ok(true)
            }
        }
    }

    /// [`StateStore::snapshot`] with a serde payload.
    ///
    /// # Errors
    /// [`PersistError::Io`] on filesystem failure.
    pub fn snapshot_record<T: Serialize>(&mut self, rec: &T) -> Result<bool, PersistError> {
        let text = serde_json::to_string(rec)
            .map_err(|e| PersistError::Io(format!("encode snapshot: {e}")))?;
        self.snapshot(text.as_bytes())
    }
}

fn write_file(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let mut f = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(path)
        .map_err(|e| PersistError::io("create", path, &e))?;
    f.write_all(bytes)
        .map_err(|e| PersistError::io("write", path, &e))?;
    f.sync_data()
        .map_err(|e| PersistError::io("sync", path, &e))?;
    Ok(())
}

fn sync_dir(dir: &Path) -> Result<(), PersistError> {
    // Durable rename needs the directory entry flushed too. Some
    // filesystems refuse to fsync a directory handle; that is a
    // durability gap, not a correctness bug, so it is tolerated.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Shared read path: parse snapshot + WAL, classify the tail, apply the
/// generation rule. Performs no writes.
fn read_store(dir: &Path) -> Result<Replay, PersistError> {
    let wal_path = dir.join(WAL_FILE);
    let snap_path = dir.join(SNAP_FILE);
    let wal_bytes = fs::read(&wal_path).map_err(|e| PersistError::io("read", &wal_path, &e))?;
    let snapshot = if snap_path.exists() {
        let bytes = fs::read(&snap_path).map_err(|e| PersistError::io("read", &snap_path, &e))?;
        Some(parse_snapshot(&snap_path, &bytes)?)
    } else {
        None
    };
    // A WAL shorter than its header is a torn creation: nothing was ever
    // acknowledged under it.
    if wal_bytes.len() < HEADER_LEN {
        let generation = snapshot.as_ref().map_or(0, |(g, _)| *g);
        return Ok(Replay {
            snapshot: snapshot.map(|(_, p)| p),
            records: Vec::new(),
            generation,
            torn: (!wal_bytes.is_empty()).then_some(TornTail {
                offset: 0,
                dropped_bytes: wal_bytes.len() as u64,
            }),
            stale_wal_records: 0,
        });
    }
    let wal_gen = parse_header(&wal_path, &wal_bytes, WAL_MAGIC)?;
    let (records, torn) = scan_frames(&wal_path, &wal_bytes, HEADER_LEN)?;
    match snapshot {
        Some((snap_gen, payload)) => {
            if wal_gen > snap_gen {
                return Err(PersistError::Corrupt {
                    path: wal_path.display().to_string(),
                    offset: 12,
                    detail: format!(
                        "WAL generation {wal_gen} is ahead of snapshot generation {snap_gen}"
                    ),
                });
            }
            let stale = wal_gen < snap_gen;
            Ok(Replay {
                snapshot: Some(payload),
                stale_wal_records: if stale { records.len() as u64 } else { 0 },
                records,
                generation: snap_gen,
                torn,
            })
        }
        None => Ok(Replay {
            snapshot: None,
            records,
            generation: wal_gen,
            torn,
            stale_wal_records: 0,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TempDir;

    fn recs(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("record-{i}-{}", "x".repeat(i % 7)).into_bytes())
            .collect()
    }

    #[test]
    fn append_replay_roundtrip() {
        let tmp = TempDir::new("mct-persist-roundtrip");
        let mut store = StateStore::create(tmp.path()).unwrap();
        for r in recs(5) {
            assert!(store.append(&r).unwrap());
        }
        drop(store);
        let replay = StateStore::replay_dir(tmp.path()).unwrap();
        assert_eq!(replay.records, recs(5));
        assert!(replay.torn.is_none());
        assert!(replay.snapshot.is_none());
        assert_eq!(replay.generation, 0);
    }

    #[test]
    fn open_resumes_appending() {
        let tmp = TempDir::new("mct-persist-resume");
        let mut store = StateStore::create(tmp.path()).unwrap();
        for r in recs(3) {
            store.append(&r).unwrap();
        }
        drop(store);
        let (mut store, replay) = StateStore::open(tmp.path()).unwrap();
        assert_eq!(replay.records.len(), 3);
        store.append(b"after-reopen").unwrap();
        drop(store);
        let replay = StateStore::replay_dir(tmp.path()).unwrap();
        assert_eq!(replay.records.len(), 4);
        assert_eq!(replay.records[3], b"after-reopen");
    }

    #[test]
    fn snapshot_compacts_and_generation_advances() {
        let tmp = TempDir::new("mct-persist-compact");
        let mut store = StateStore::create(tmp.path()).unwrap();
        for r in recs(4) {
            store.append(&r).unwrap();
        }
        assert!(store.snapshot(b"state-after-4").unwrap());
        store.append(b"post-snapshot").unwrap();
        assert_eq!(store.generation(), 1);
        drop(store);
        let replay = StateStore::replay_dir(tmp.path()).unwrap();
        assert_eq!(replay.snapshot.as_deref(), Some(&b"state-after-4"[..]));
        assert_eq!(replay.records, vec![b"post-snapshot".to_vec()]);
        assert_eq!(replay.generation, 1);
        // Compaction really shrank the WAL: only one frame remains.
        let wal_len = fs::metadata(tmp.path().join(WAL_FILE)).unwrap().len();
        assert!(wal_len < 100, "wal should hold a single small frame");
    }

    #[test]
    fn crash_after_op_drops_later_appends() {
        let tmp = TempDir::new("mct-persist-afterop");
        let mut store = StateStore::create(tmp.path()).unwrap();
        store.set_crash_point(CrashPoint::AfterOp(1));
        assert!(store.append(b"zero").unwrap());
        assert!(store.append(b"one").unwrap());
        assert!(store.crashed());
        assert!(!store.append(b"two").unwrap());
        assert!(!store.snapshot(b"snap").unwrap());
        drop(store);
        let replay = StateStore::replay_dir(tmp.path()).unwrap();
        assert_eq!(replay.records, vec![b"zero".to_vec(), b"one".to_vec()]);
        assert!(replay.torn.is_none());
    }

    #[test]
    fn torn_append_is_truncated_on_open() {
        for keep in [0u64, 3, 15, 16, 20, 200] {
            let tmp = TempDir::new("mct-persist-torn");
            let mut store = StateStore::create(tmp.path()).unwrap();
            store.set_crash_point(CrashPoint::TornOp {
                op: 2,
                keep_bytes: keep,
            });
            assert!(store.append(b"zero").unwrap());
            assert!(store.append(b"one").unwrap());
            assert!(!store.append(b"torn-record-payload").unwrap());
            drop(store);
            // Read-only replay reports the torn tail...
            let replay = StateStore::replay_dir(tmp.path()).unwrap();
            assert_eq!(replay.records, vec![b"zero".to_vec(), b"one".to_vec()]);
            assert_eq!(replay.torn.is_some(), keep > 0, "keep={keep}");
            // ...and open() truncates it, resuming cleanly.
            let (mut store, replay) = StateStore::open(tmp.path()).unwrap();
            assert_eq!(replay.records.len(), 2);
            store.append(b"recovered").unwrap();
            drop(store);
            let replay = StateStore::replay_dir(tmp.path()).unwrap();
            assert_eq!(
                replay.records,
                vec![b"zero".to_vec(), b"one".to_vec(), b"recovered".to_vec()]
            );
            assert!(replay.torn.is_none());
        }
    }

    #[test]
    fn crash_in_compaction_window_discards_stale_wal() {
        let tmp = TempDir::new("mct-persist-stale");
        let mut store = StateStore::create(tmp.path()).unwrap();
        for r in recs(3) {
            store.append(&r).unwrap();
        }
        // Op 3 is the snapshot: it renames into place, then dies before
        // the WAL reset.
        store.set_crash_point(CrashPoint::AfterOp(3));
        assert!(store.snapshot(b"compacted").unwrap());
        assert!(store.crashed());
        drop(store);
        let replay = StateStore::replay_dir(tmp.path()).unwrap();
        assert_eq!(replay.snapshot.as_deref(), Some(&b"compacted"[..]));
        assert!(replay.records.is_empty(), "stale WAL records discarded");
        assert_eq!(replay.stale_wal_records, 3);
        assert_eq!(replay.generation, 1);
        // open() resets the WAL under the snapshot generation.
        let (mut store, _) = StateStore::open(tmp.path()).unwrap();
        assert_eq!(store.generation(), 1);
        store.append(b"fresh").unwrap();
        drop(store);
        let replay = StateStore::replay_dir(tmp.path()).unwrap();
        assert_eq!(replay.records, vec![b"fresh".to_vec()]);
    }

    #[test]
    fn torn_snapshot_keeps_previous_snapshot() {
        let tmp = TempDir::new("mct-persist-tornsnap");
        let mut store = StateStore::create(tmp.path()).unwrap();
        store.append(b"zero").unwrap();
        assert!(store.snapshot(b"good").unwrap());
        store.append(b"one").unwrap();
        // Op 3 is the second snapshot; tear its temp file.
        store.set_crash_point(CrashPoint::TornOp {
            op: 3,
            keep_bytes: 9,
        });
        assert!(!store.snapshot(b"never-lands").unwrap());
        drop(store);
        let replay = StateStore::replay_dir(tmp.path()).unwrap();
        assert_eq!(replay.snapshot.as_deref(), Some(&b"good"[..]));
        assert_eq!(replay.records, vec![b"one".to_vec()]);
    }

    #[test]
    fn interior_bit_flip_is_a_hard_error() {
        let tmp = TempDir::new("mct-persist-bitflip");
        let mut store = StateStore::create(tmp.path()).unwrap();
        for r in recs(4) {
            store.append(&r).unwrap();
        }
        drop(store);
        let wal = tmp.path().join(WAL_FILE);
        let mut bytes = fs::read(&wal).unwrap();
        // Flip one bit inside the second frame's payload.
        let off = HEADER_LEN + FRAME_HEADER_LEN + recs(1)[0].len() + FRAME_HEADER_LEN + 2;
        bytes[off] ^= 0x10;
        fs::write(&wal, &bytes).unwrap();
        let err = StateStore::replay_dir(tmp.path()).unwrap_err();
        assert!(
            matches!(err, PersistError::Corrupt { .. }),
            "expected Corrupt, got {err}"
        );
        // A flip in a length word is equally fatal.
        let mut bytes = fs::read(&wal).unwrap();
        bytes[off] ^= 0x10; // restore payload
        bytes[HEADER_LEN + 1] ^= 0x40; // flip frame 0's length field
        fs::write(&wal, &bytes).unwrap();
        let err = StateStore::replay_dir(tmp.path()).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt { .. }));
    }

    #[test]
    fn final_frame_bit_flip_is_corrupt_not_torn() {
        let tmp = TempDir::new("mct-persist-lastflip");
        let mut store = StateStore::create(tmp.path()).unwrap();
        store.append(b"only-record").unwrap();
        drop(store);
        let wal = tmp.path().join(WAL_FILE);
        let mut bytes = fs::read(&wal).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&wal, &bytes).unwrap();
        // The frame is full length, so a bad digest means damage to an
        // acknowledged record — never silently dropped as a torn tail.
        let err = StateStore::replay_dir(tmp.path()).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt { .. }));
    }

    #[test]
    fn format_version_mismatch_fails_loudly() {
        let tmp = TempDir::new("mct-persist-version");
        let mut store = StateStore::create(tmp.path()).unwrap();
        store.append(b"rec").unwrap();
        drop(store);
        let wal = tmp.path().join(WAL_FILE);
        let mut bytes = fs::read(&wal).unwrap();
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 7).to_le_bytes());
        fs::write(&wal, &bytes).unwrap();
        match StateStore::replay_dir(tmp.path()).unwrap_err() {
            PersistError::FormatVersion { found, supported } => {
                assert_eq!(found, FORMAT_VERSION + 7);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected FormatVersion, got {other}"),
        }
        assert!(StateStore::open(tmp.path()).is_err());
    }

    #[test]
    fn bad_magic_is_not_a_store() {
        let tmp = TempDir::new("mct-persist-magic");
        fs::write(tmp.path().join(WAL_FILE), b"definitely not a wal header..").unwrap();
        let err = StateStore::replay_dir(tmp.path()).unwrap_err();
        assert!(matches!(err, PersistError::NotAStore { .. }));
    }

    #[test]
    fn json_record_helpers_roundtrip() {
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        struct Rec {
            idx: u64,
            bits: u64,
        }
        let tmp = TempDir::new("mct-persist-json");
        let mut store = StateStore::create(tmp.path()).unwrap();
        let written: Vec<Rec> = (0..4)
            .map(|i| Rec {
                idx: i,
                // Include non-finite values: raw bit patterns carry them.
                bits: if i == 3 {
                    f64::INFINITY
                } else {
                    0.1 * i as f64
                }
                .to_bits(),
            })
            .collect();
        for r in &written {
            store.append_record(r).unwrap();
        }
        drop(store);
        let replay = StateStore::replay_dir(tmp.path()).unwrap();
        let read: Vec<Rec> = replay.decode_records().unwrap();
        assert_eq!(read, written);
        assert!(f64::from_bits(read[3].bits).is_infinite());
    }

    #[test]
    fn ops_index_counts_appends_and_snapshots() {
        let tmp = TempDir::new("mct-persist-ops");
        let mut store = StateStore::create(tmp.path()).unwrap();
        store.append(b"a").unwrap();
        store.snapshot(b"s").unwrap();
        store.append(b"b").unwrap();
        assert_eq!(store.ops(), 3);
        assert_eq!(store.appended(), 2);
    }
}
