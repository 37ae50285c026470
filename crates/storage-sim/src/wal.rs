//! Per-shard write-ahead log with group commit, plus the checkpoint file
//! that truncates it.
//!
//! Each shard worker journals a [`WalRecord`] for every *applied* physical
//! op (allocations, flush copies, frees, cross-shard transfers) and every
//! route flip, buffering records in memory and writing them as **one framed
//! group commit per command boundary** — the WAL analogue of the engine's
//! channel batching, and the reason a WAL'd shard pays one fsync per batch
//! instead of one per op. Records that were appended but never committed
//! are exactly the work a crash is allowed to lose; everything inside a
//! committed frame is recovered.
//!
//! ## Frame format
//!
//! ```text
//!   [ magic "WAL1" u32 ][ epoch u32 ][ payload_len u32 ][ crc u64 ]
//!   [ payload: records, each tag u8 + fields as u64 LE ]
//! ```
//!
//! The CRC (FNV-1a, the same hash the substrate uses for object checksums)
//! covers the payload. Replay stops at the first frame whose header is
//! short, whose payload is truncated, or whose CRC disagrees. Only the
//! physical tail may be damaged that way: a torn tail from a crash
//! mid-commit is *discarded*, never half-applied, but a damaged frame
//! followed by an intact one is mid-log corruption — acked groups would be
//! lost — and the read fails instead. A reopened writer trims a torn tail
//! before appending, so its new frames never follow a damaged one.
//!
//! ## Checkpoint / truncate protocol
//!
//! A checkpoint captures the shard's full durable state (live extents with
//! byte digests + which ids the routing table assigns to this shard) under
//! `epoch + 1`, written to a temp file and atomically renamed; only then is
//! the log truncated and the writer's epoch advanced. Replay skips frames
//! whose epoch is *older* than the checkpoint's, so a crash between the
//! rename and the truncate is safe: the stale frames describe state the
//! checkpoint already contains.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use realloc_common::ObjectId;

/// Frame magic: `b"WAL1"`.
const WAL_MAGIC: u32 = u32::from_le_bytes(*b"WAL1");
/// Checkpoint magic: `b"CKP1"`.
const CKPT_MAGIC: u32 = u32::from_le_bytes(*b"CKP1");
/// Frame header: magic + epoch + payload_len + crc.
const FRAME_HEADER: usize = 4 + 4 + 4 + 8;

/// Frame CRC: the workspace's standard content hash (FNV-1a), shared with
/// the substrate's object checksums.
use crate::data::checksum as fnv1a;

/// One journaled event. Everything a shard does that affects durable state
/// maps to exactly one record; replaying the committed records over the
/// last checkpoint reproduces the shard's live set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalRecord {
    /// An object was allocated (insert or migrate-arrival) at `offset`
    /// with `len` cells whose bytes hash to `digest`.
    Allocate {
        /// The object.
        id: ObjectId,
        /// Start address inside the shard's window.
        offset: u64,
        /// Cells.
        len: u64,
        /// FNV-1a of the object's bytes at allocation time.
        digest: u64,
    },
    /// A flush copy moved an object inside the shard (bytes unchanged).
    Move {
        /// The object.
        id: ObjectId,
        /// Old start address.
        from: u64,
        /// New start address.
        to: u64,
        /// Cells.
        len: u64,
    },
    /// An object was freed (delete or post-move release).
    Free {
        /// The object.
        id: ObjectId,
        /// Start address of the freed extent.
        offset: u64,
        /// Cells.
        len: u64,
    },
    /// The object left this shard in cross-shard transfer `xfer`.
    MigrateOut {
        /// The object.
        id: ObjectId,
        /// Cells shipped.
        size: u64,
        /// Globally unique transfer sequence number (pairs this record
        /// with the target's [`WalRecord::MigrateIn`]).
        xfer: u64,
    },
    /// The object arrived on this shard in cross-shard transfer `xfer`.
    MigrateIn {
        /// The object.
        id: ObjectId,
        /// Start address inside this shard's window.
        offset: u64,
        /// Cells.
        len: u64,
        /// FNV-1a of the shipped payload bytes, verified on arrival.
        digest: u64,
        /// The transfer this arrival completes.
        xfer: u64,
    },
    /// The routing table now assigns `id` to `shard` (journaled by the
    /// *target* shard of transfer `xfer`, after its `MigrateIn`).
    RouteFlip {
        /// The re-homed object.
        id: ObjectId,
        /// Its new owner.
        shard: u64,
        /// The transfer that earned the flip.
        xfer: u64,
    },
}

impl WalRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        let mut put = |tag: u8, fields: &[u64]| {
            out.push(tag);
            for f in fields {
                out.extend_from_slice(&f.to_le_bytes());
            }
        };
        match *self {
            WalRecord::Allocate {
                id,
                offset,
                len,
                digest,
            } => put(1, &[id.0, offset, len, digest]),
            WalRecord::Move { id, from, to, len } => put(2, &[id.0, from, to, len]),
            WalRecord::Free { id, offset, len } => put(3, &[id.0, offset, len]),
            WalRecord::MigrateOut { id, size, xfer } => put(4, &[id.0, size, xfer]),
            WalRecord::MigrateIn {
                id,
                offset,
                len,
                digest,
                xfer,
            } => put(5, &[id.0, offset, len, digest, xfer]),
            WalRecord::RouteFlip { id, shard, xfer } => put(6, &[id.0, shard, xfer]),
        }
    }

    fn decode(buf: &[u8], at: &mut usize) -> Option<WalRecord> {
        let tag = *buf.get(*at)?;
        *at += 1;
        let mut field = || -> Option<u64> {
            let bytes = buf.get(*at..*at + 8)?;
            *at += 8;
            Some(u64::from_le_bytes(bytes.try_into().unwrap()))
        };
        Some(match tag {
            1 => WalRecord::Allocate {
                id: ObjectId(field()?),
                offset: field()?,
                len: field()?,
                digest: field()?,
            },
            2 => WalRecord::Move {
                id: ObjectId(field()?),
                from: field()?,
                to: field()?,
                len: field()?,
            },
            3 => WalRecord::Free {
                id: ObjectId(field()?),
                offset: field()?,
                len: field()?,
            },
            4 => WalRecord::MigrateOut {
                id: ObjectId(field()?),
                size: field()?,
                xfer: field()?,
            },
            5 => WalRecord::MigrateIn {
                id: ObjectId(field()?),
                offset: field()?,
                len: field()?,
                digest: field()?,
                xfer: field()?,
            },
            6 => WalRecord::RouteFlip {
                id: ObjectId(field()?),
                shard: field()?,
                xfer: field()?,
            },
            _ => return None,
        })
    }
}

/// The log file for shard `shard` under `dir`.
pub fn wal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.wal"))
}

/// The checkpoint file for shard `shard` under `dir`.
pub fn checkpoint_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.ckpt"))
}

/// An appender over one shard's log: [`append`](Self::append) buffers,
/// [`commit`](Self::commit) writes everything buffered as one frame.
#[derive(Debug)]
pub struct WalWriter {
    path: PathBuf,
    epoch: u32,
    pending: Vec<WalRecord>,
    records: u64,
    bytes: u64,
    commits: u64,
}

impl WalWriter {
    /// Opens (creating if absent) the log at `path`, stamping future frames
    /// with `epoch` — pass the epoch of the checkpoint recovery loaded, or
    /// 0 for a fresh shard.
    ///
    /// A torn tail left by a crash mid-commit is cut off first, so the
    /// frames this writer appends never follow a damaged one (which
    /// [`read_wal`] would reject as mid-log corruption).
    pub fn open(path: &Path, epoch: u32) -> std::io::Result<WalWriter> {
        let intact = read_wal(path)?.last().map_or(0, |g| g.end_offset);
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        if file.metadata()?.len() > intact {
            file.set_len(intact)?;
        }
        Ok(WalWriter {
            path: path.to_path_buf(),
            epoch,
            pending: Vec::new(),
            records: 0,
            bytes: 0,
            commits: 0,
        })
    }

    /// Buffers one record for the next group commit. Nothing is durable
    /// until [`commit`](Self::commit).
    pub fn append(&mut self, record: WalRecord) {
        self.pending.push(record);
    }

    /// Writes every buffered record as one framed group commit and flushes.
    /// Returns the frame bytes written (0 if nothing was pending — an empty
    /// batch costs no I/O).
    pub fn commit(&mut self) -> std::io::Result<u64> {
        if self.pending.is_empty() {
            return Ok(0);
        }
        let mut payload = Vec::new();
        for rec in &self.pending {
            rec.encode(&mut payload);
        }
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&WAL_MAGIC.to_le_bytes());
        frame.extend_from_slice(&self.epoch.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);

        let mut file = OpenOptions::new().append(true).open(&self.path)?;
        file.write_all(&frame)?;
        file.flush()?;

        self.records += self.pending.len() as u64;
        self.bytes += frame.len() as u64;
        self.commits += 1;
        self.pending.clear();
        Ok(frame.len() as u64)
    }

    /// Truncates the log and advances the writer to `epoch` — call only
    /// *after* the checkpoint carrying `epoch` is durably renamed.
    pub fn truncate_to_epoch(&mut self, epoch: u32) -> std::io::Result<()> {
        debug_assert!(self.pending.is_empty(), "commit before checkpointing");
        OpenOptions::new()
            .write(true)
            .truncate(true)
            .open(&self.path)?;
        self.epoch = epoch;
        Ok(())
    }

    /// The epoch future frames will carry.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Records buffered but not yet committed (lost if the process dies).
    pub fn pending_records(&self) -> usize {
        self.pending.len()
    }

    /// Records committed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Frame bytes written so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Group commits (frames) written so far.
    pub fn commits(&self) -> u64 {
        self.commits
    }
}

/// One committed frame read back from a log, with the byte offset of its
/// end — the kill-point matrix truncates a log at exactly these offsets to
/// simulate a crash after each group commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalGroup {
    /// The epoch the frame was stamped with.
    pub epoch: u32,
    /// The records the group committed, in append order.
    pub records: Vec<WalRecord>,
    /// Byte offset one past this frame in the file.
    pub end_offset: u64,
}

/// Reads every intact committed group from the log at `path`. A missing
/// file is an empty log. A torn tail (short header, truncated payload, CRC
/// mismatch, bad magic, malformed record) ends the scan at the last intact
/// frame — exactly the crash-discard semantics replay wants. Damage
/// anywhere else is corruption, not a crash: a bad frame followed by any
/// intact frame fails with [`std::io::ErrorKind::InvalidData`] rather than
/// silently dropping the acked groups behind it.
pub fn read_wal(path: &Path) -> std::io::Result<Vec<WalGroup>> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    }

    let mut groups = Vec::new();
    let mut at = 0usize;
    while let Some(group) = frame_at(&bytes, at) {
        at = group.end_offset as usize;
        groups.push(group);
    }
    if (at + 1..bytes.len()).any(|later| frame_at(&bytes, later).is_some()) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "{}: damaged frame at byte {at} is followed by an intact frame \
                 (mid-log corruption, not a torn tail)",
                path.display()
            ),
        ));
    }
    Ok(groups)
}

/// Decodes the frame starting at byte `at`, or `None` if there is no
/// intact one there (short header, bad magic, truncated payload, CRC
/// mismatch, or a malformed record).
fn frame_at(bytes: &[u8], at: usize) -> Option<WalGroup> {
    let header = bytes.get(at..at + FRAME_HEADER)?;
    let word = |o: usize| u32::from_le_bytes(header[o..o + 4].try_into().expect("4-byte field"));
    if word(0) != WAL_MAGIC {
        return None;
    }
    let payload_len = word(8) as usize;
    let crc = u64::from_le_bytes(header[12..20].try_into().expect("8-byte field"));
    let start = at + FRAME_HEADER;
    let payload = bytes.get(start..start + payload_len)?;
    if fnv1a(payload) != crc {
        return None;
    }
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < payload.len() {
        records.push(WalRecord::decode(payload, &mut pos)?);
    }
    Some(WalGroup {
        epoch: word(4),
        records,
        end_offset: (start + payload_len) as u64,
    })
}

/// One live object (or routing assignment) in a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointEntry {
    /// The object.
    pub id: ObjectId,
    /// Start address inside the shard's window at checkpoint time.
    pub offset: u64,
    /// Cells.
    pub len: u64,
    /// FNV-1a of the object's bytes at checkpoint time.
    pub digest: u64,
    /// Whether the routing table explicitly assigns this id to the shard
    /// (true for ids living off the rendezvous fallback — the tiny
    /// assignment table rides inside the shard checkpoint).
    pub assigned: bool,
}

/// A shard's durable state at a quiesce barrier.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Checkpoint {
    /// The epoch this checkpoint begins; log frames stamped with an older
    /// epoch predate it and are skipped on replay.
    pub epoch: u32,
    /// Every live object, with its routing-assignment flag.
    pub entries: Vec<CheckpointEntry>,
}

/// Writes `ckpt` to `path` atomically (temp file + rename), so a crash
/// mid-checkpoint leaves the previous checkpoint intact.
pub fn write_checkpoint(path: &Path, ckpt: &Checkpoint) -> std::io::Result<()> {
    let mut payload = Vec::with_capacity(ckpt.entries.len() * 33);
    for e in &ckpt.entries {
        payload.extend_from_slice(&e.id.0.to_le_bytes());
        payload.extend_from_slice(&e.offset.to_le_bytes());
        payload.extend_from_slice(&e.len.to_le_bytes());
        payload.extend_from_slice(&e.digest.to_le_bytes());
        payload.push(e.assigned as u8);
    }
    let mut bytes = Vec::with_capacity(FRAME_HEADER + payload.len());
    bytes.extend_from_slice(&CKPT_MAGIC.to_le_bytes());
    bytes.extend_from_slice(&ckpt.epoch.to_le_bytes());
    bytes.extend_from_slice(&(ckpt.entries.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);

    let tmp = path.with_extension("ckpt.tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(&bytes)?;
    file.flush()?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads the checkpoint at `path`; `Ok(None)` if none was ever written.
/// Unlike the log (whose tail may legitimately be torn), a checkpoint is
/// renamed into place atomically, so corruption here is a hard error.
pub fn read_checkpoint(path: &Path) -> std::io::Result<Option<Checkpoint>> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    }
    let corrupt = || std::io::Error::new(std::io::ErrorKind::InvalidData, "corrupt checkpoint");
    if bytes.len() < FRAME_HEADER {
        return Err(corrupt());
    }
    let word = |o: usize| -> u32 { u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap()) };
    if word(0) != CKPT_MAGIC {
        return Err(corrupt());
    }
    let epoch = word(4);
    let count = word(8) as usize;
    let crc = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let payload = &bytes[FRAME_HEADER..];
    if payload.len() != count * 33 || fnv1a(payload) != crc {
        return Err(corrupt());
    }
    let mut entries = Vec::with_capacity(count);
    for chunk in payload.chunks_exact(33) {
        let field = |o: usize| u64::from_le_bytes(chunk[o..o + 8].try_into().unwrap());
        entries.push(CheckpointEntry {
            id: ObjectId(field(0)),
            offset: field(8),
            len: field(16),
            digest: field(24),
            assigned: chunk[32] != 0,
        });
    }
    Ok(Some(Checkpoint { epoch, entries }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("realloc-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Allocate {
                id: ObjectId(7),
                offset: 0,
                len: 16,
                digest: 0xdead,
            },
            WalRecord::Move {
                id: ObjectId(7),
                from: 0,
                to: 32,
                len: 16,
            },
            WalRecord::Free {
                id: ObjectId(9),
                offset: 64,
                len: 8,
            },
            WalRecord::MigrateOut {
                id: ObjectId(7),
                size: 16,
                xfer: 3,
            },
            WalRecord::MigrateIn {
                id: ObjectId(11),
                offset: 128,
                len: 4,
                digest: 0xbeef,
                xfer: 4,
            },
            WalRecord::RouteFlip {
                id: ObjectId(11),
                shard: 2,
                xfer: 4,
            },
        ]
    }

    #[test]
    fn group_commit_round_trips_every_record_kind() {
        let dir = tmpdir("roundtrip");
        let path = wal_path(&dir, 0);
        let mut w = WalWriter::open(&path, 5).unwrap();
        for rec in sample_records() {
            w.append(rec);
        }
        assert_eq!(w.pending_records(), 6);
        assert_eq!(w.commits(), 0, "append alone must not touch the file");
        assert!(read_wal(&path).unwrap().is_empty());

        let frame = w.commit().unwrap();
        assert!(frame > 0);
        assert_eq!((w.records(), w.commits(), w.bytes()), (6, 1, frame));

        let groups = read_wal(&path).unwrap();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].epoch, 5);
        assert_eq!(groups[0].records, sample_records());
        assert_eq!(groups[0].end_offset, frame);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_commit_is_free() {
        let dir = tmpdir("empty");
        let mut w = WalWriter::open(&wal_path(&dir, 0), 0).unwrap();
        assert_eq!(w.commit().unwrap(), 0);
        assert_eq!((w.commits(), w.bytes()), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_discarded_at_every_cut() {
        let dir = tmpdir("torn");
        let path = wal_path(&dir, 0);
        let mut w = WalWriter::open(&path, 1).unwrap();
        w.append(WalRecord::Allocate {
            id: ObjectId(1),
            offset: 0,
            len: 8,
            digest: 1,
        });
        w.commit().unwrap();
        let first = read_wal(&path).unwrap()[0].end_offset;
        w.append(WalRecord::Free {
            id: ObjectId(1),
            offset: 0,
            len: 8,
        });
        w.commit().unwrap();
        let whole = std::fs::read(&path).unwrap();

        // Cut the file at every byte inside the second frame: the first
        // group always survives, the torn second is always discarded.
        for cut in first as usize..whole.len() {
            std::fs::write(&path, &whole[..cut]).unwrap();
            let groups = read_wal(&path).unwrap();
            assert_eq!(groups.len(), 1, "cut at {cut}");
            assert_eq!(groups[0].end_offset, first);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_frame_ends_the_scan() {
        let dir = tmpdir("corrupt");
        let path = wal_path(&dir, 0);
        let mut w = WalWriter::open(&path, 0).unwrap();
        w.append(WalRecord::Allocate {
            id: ObjectId(1),
            offset: 0,
            len: 8,
            digest: 1,
        });
        w.commit().unwrap();
        w.append(WalRecord::Allocate {
            id: ObjectId(2),
            offset: 8,
            len: 8,
            digest: 2,
        });
        w.commit().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let first_end = read_wal(&path).unwrap()[0].end_offset as usize;
        *bytes.last_mut().unwrap() ^= 0xff; // flip a payload byte in frame 2
        std::fs::write(&path, &bytes).unwrap();
        let groups = read_wal(&path).unwrap();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].end_offset, first_end as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A three-frame log (one `Allocate` per frame) and each frame's end.
    fn three_frame_log(path: &Path) -> (Vec<u8>, Vec<usize>) {
        let mut w = WalWriter::open(path, 0).unwrap();
        for i in 0..3u64 {
            w.append(WalRecord::Allocate {
                id: ObjectId(i),
                offset: 8 * i,
                len: 8,
                digest: i,
            });
            w.commit().unwrap();
        }
        let ends = read_wal(path)
            .unwrap()
            .iter()
            .map(|g| g.end_offset as usize)
            .collect();
        (std::fs::read(path).unwrap(), ends)
    }

    #[test]
    fn corrupt_first_frame_is_an_error_not_an_empty_log() {
        let dir = tmpdir("corrupt-first");
        let path = wal_path(&dir, 0);
        let (mut bytes, _) = three_frame_log(&path);
        bytes[FRAME_HEADER] ^= 0xff; // a payload byte of frame 0
        std::fs::write(&path, &bytes).unwrap();
        let err = read_wal(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // A writer refuses to append behind the damage, too.
        assert!(WalWriter::open(&path, 0).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_last_frame_is_a_torn_tail() {
        let dir = tmpdir("corrupt-last");
        let path = wal_path(&dir, 0);
        let (mut bytes, ends) = three_frame_log(&path);
        bytes[ends[1] + FRAME_HEADER] ^= 0xff; // a payload byte of frame 2
        std::fs::write(&path, &bytes).unwrap();
        let groups = read_wal(&path).unwrap();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[1].end_offset, ends[1] as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_payload_truncation_is_a_torn_tail() {
        let dir = tmpdir("torn-payload");
        let path = wal_path(&dir, 0);
        let (bytes, ends) = three_frame_log(&path);
        let cut = ends[1] + FRAME_HEADER + (ends[2] - ends[1] - FRAME_HEADER) / 2;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let groups = read_wal(&path).unwrap();
        assert_eq!(groups.len(), 2);

        // Reopening trims the torn tail, so the next commit lands right
        // after the last intact frame and the log reads back whole.
        let mut w = WalWriter::open(&path, 0).unwrap();
        w.append(WalRecord::Free {
            id: ObjectId(0),
            offset: 0,
            len: 8,
        });
        w.commit().unwrap();
        let groups = read_wal(&path).unwrap();
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[2].records.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_log_is_empty() {
        let dir = tmpdir("missing");
        assert!(read_wal(&wal_path(&dir, 3)).unwrap().is_empty());
        assert!(read_checkpoint(&checkpoint_path(&dir, 3))
            .unwrap()
            .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_advances_epoch_and_clears_log() {
        let dir = tmpdir("truncate");
        let path = wal_path(&dir, 0);
        let mut w = WalWriter::open(&path, 0).unwrap();
        w.append(WalRecord::Allocate {
            id: ObjectId(1),
            offset: 0,
            len: 8,
            digest: 1,
        });
        w.commit().unwrap();
        w.truncate_to_epoch(1).unwrap();
        assert_eq!(w.epoch(), 1);
        assert!(read_wal(&path).unwrap().is_empty());
        w.append(WalRecord::Free {
            id: ObjectId(1),
            offset: 0,
            len: 8,
        });
        w.commit().unwrap();
        let groups = read_wal(&path).unwrap();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].epoch, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_round_trips_and_is_atomic() {
        let dir = tmpdir("ckpt");
        let path = checkpoint_path(&dir, 2);
        let ckpt = Checkpoint {
            epoch: 4,
            entries: vec![
                CheckpointEntry {
                    id: ObjectId(1),
                    offset: 0,
                    len: 16,
                    digest: 0xaa,
                    assigned: false,
                },
                CheckpointEntry {
                    id: ObjectId(2),
                    offset: 16,
                    len: 4,
                    digest: 0xbb,
                    assigned: true,
                },
            ],
        };
        write_checkpoint(&path, &ckpt).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap().unwrap(), ckpt);
        assert!(
            !path.with_extension("ckpt.tmp").exists(),
            "temp file must be renamed away"
        );

        // Overwriting is atomic too: the new checkpoint fully replaces it.
        let newer = Checkpoint {
            epoch: 5,
            entries: Vec::new(),
        };
        write_checkpoint(&path, &newer).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap().unwrap(), newer);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_is_a_hard_error() {
        let dir = tmpdir("ckpt-corrupt");
        let path = checkpoint_path(&dir, 0);
        let ckpt = Checkpoint {
            epoch: 1,
            entries: vec![CheckpointEntry {
                id: ObjectId(1),
                offset: 0,
                len: 8,
                digest: 9,
                assigned: false,
            }],
        };
        write_checkpoint(&path, &ckpt).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_checkpoint(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
