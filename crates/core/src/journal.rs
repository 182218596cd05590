//! The epoch journal: bounded in-memory replay history plus an
//! optional durable, checksummed on-disk frame log.
//!
//! Supervision (PR 1/PR 4) replayed crashes from an *unbounded*
//! in-memory `Vec` of every job a worker ever received — replay cost
//! and memory grew linearly with the stream. This module fixes both
//! layers of that:
//!
//! * [`ReplayJournal`] is the in-memory journal [`crate::supervise`]
//!   now holds: the jobs since the last checkpoint plus the checkpoint
//!   itself. Installing a checkpoint **truncates** the job history, so
//!   replay cost and journal memory are bounded by the checkpoint
//!   interval, not the stream length.
//!
//! * [`EpochJournal`] is the durable variant: a length-prefixed,
//!   CRC-32-checksummed frame log ([`crate::wire`]) of `Block` /
//!   `Collect` / `Checkpoint` frames. A checkpoint **rotates** the file
//!   (write the checkpoint frame to a temp file, atomically rename),
//!   bounding the on-disk journal the same way. The reader tolerates a
//!   torn tail — the crash the journal exists for happens mid-append —
//!   and surfaces anything after the tear as a diagnostic rather than
//!   an error.

use crate::error::FlashError;
use crate::shard::UpdateBlock;
use crate::wire::{
    self, read_frame, write_frame, write_value_frame, FrameKind, FrameRead, WorkerCheckpoint,
};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Write};
use std::path::{Path, PathBuf};

/// Bounded in-memory replay journal: at most one checkpoint plus the
/// jobs that arrived after it.
pub(crate) struct ReplayJournal<J, C> {
    checkpoint: Option<C>,
    jobs: Vec<J>,
    truncations: u64,
}

impl<J, C> ReplayJournal<J, C> {
    pub fn new() -> Self {
        ReplayJournal { checkpoint: None, jobs: Vec::new(), truncations: 0 }
    }

    pub fn push(&mut self, job: J) {
        self.jobs.push(job);
    }

    /// Jobs to replay after the checkpoint (or from genesis).
    pub fn jobs(&self) -> &[J] {
        &self.jobs
    }

    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    pub fn checkpoint(&self) -> Option<&C> {
        self.checkpoint.as_ref()
    }

    /// Installs a checkpoint reflecting every journaled job and
    /// truncates the job history — the recovery-cost bound.
    pub fn install(&mut self, cp: C) {
        self.checkpoint = Some(cp);
        self.jobs.clear();
        self.truncations += 1;
    }

    /// Times a checkpoint truncated the journal.
    #[cfg(test)]
    pub fn truncations(&self) -> u64 {
        self.truncations
    }
}

/// One durable journal record.
#[derive(Debug)]
pub enum JournalEntry {
    Block(UpdateBlock),
    Collect,
    Checkpoint(WorkerCheckpoint),
    /// A bulk-ingestion block (seq is the `u64::MAX` sentinel; results
    /// are deferred to the closing [`JournalEntry::Seal`]).
    Ingest(UpdateBlock),
    /// Ends a bulk-ingestion snapshot at epoch `seq`, marking `devices`
    /// synchronized.
    Seal {
        seq: u64,
        devices: Vec<flash_netmodel::DeviceId>,
    },
}

/// What `read_entries` found after the last valid frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalTail {
    /// The file ended cleanly at a frame boundary.
    Clean,
    /// The file ended mid-frame or with a checksum mismatch — the
    /// expected shape after a crash mid-append. The message describes
    /// the tear; everything before it was recovered.
    Torn(String),
}

/// Append-side handle to a durable epoch journal file.
///
/// The writer appends `Block`/`Collect` frames as jobs arrive (before
/// they are processed, so a crash mid-block replays the block that
/// killed the worker) and rotates the file on every checkpoint.
#[derive(Debug)]
pub struct EpochJournal {
    path: PathBuf,
    file: File,
}

fn journal_err(path: &Path, what: &str, e: impl std::fmt::Display) -> FlashError {
    FlashError::Journal(format!("{} ({what}): {e}", path.display()))
}

impl EpochJournal {
    /// Creates (or truncates) the journal at `path`.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self, FlashError> {
        let path = path.into();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| journal_err(&path, "mkdir", e))?;
            }
        }
        let file = File::create(&path).map_err(|e| journal_err(&path, "create", e))?;
        Ok(EpochJournal { path, file })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one update-block frame.
    pub fn append_block(&mut self, block: &UpdateBlock) -> Result<(), FlashError> {
        write_value_frame(&mut self.file, FrameKind::Block, block)
            .map_err(|e| journal_err(&self.path, "append block", e))
    }

    /// Appends one collect marker.
    pub fn append_collect(&mut self) -> Result<(), FlashError> {
        write_frame(&mut self.file, FrameKind::Collect, &[])
            .map_err(|e| journal_err(&self.path, "append collect", e))
    }

    /// Appends one bulk-ingestion block frame.
    pub fn append_ingest(&mut self, block: &UpdateBlock) -> Result<(), FlashError> {
        write_value_frame(&mut self.file, FrameKind::Ingest, block)
            .map_err(|e| journal_err(&self.path, "append ingest", e))
    }

    /// Appends one seal marker closing a bulk-ingestion snapshot.
    pub fn append_seal(
        &mut self,
        seq: u64,
        devices: &[flash_netmodel::DeviceId],
    ) -> Result<(), FlashError> {
        write_value_frame(&mut self.file, FrameKind::Seal, &(seq, devices.to_vec()))
            .map_err(|e| journal_err(&self.path, "append seal", e))
    }

    /// Checkpoint rotation: writes `cp` as the sole frame of a fresh
    /// journal and atomically renames it over the old one — the durable
    /// twin of [`ReplayJournal::install`]. On-disk size is henceforth
    /// bounded by the blocks since this checkpoint.
    pub fn rotate_checkpoint(&mut self, cp: &WorkerCheckpoint) -> Result<(), FlashError> {
        let tmp = self.path.with_extension("rotate");
        let mut f = File::create(&tmp).map_err(|e| journal_err(&tmp, "create", e))?;
        write_value_frame(&mut f, FrameKind::Checkpoint, cp)
            .map_err(|e| journal_err(&tmp, "write checkpoint", e))?;
        f.sync_data().map_err(|e| journal_err(&tmp, "sync", e))?;
        std::fs::rename(&tmp, &self.path).map_err(|e| journal_err(&self.path, "rename", e))?;
        self.file = OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| journal_err(&self.path, "reopen", e))?;
        Ok(())
    }

    /// Flushes buffered writes (the journal writes unbuffered; kept for
    /// symmetry and future buffering).
    pub fn flush(&mut self) -> Result<(), FlashError> {
        self.file.flush().map_err(|e| journal_err(&self.path, "flush", e))
    }

    /// Reads every valid frame of a journal file, in order, stopping at
    /// a torn or corrupt tail.
    pub fn read_entries(path: impl AsRef<Path>) -> Result<(Vec<JournalEntry>, JournalTail), FlashError> {
        let path = path.as_ref();
        let file = File::open(path).map_err(|e| journal_err(path, "open", e))?;
        let mut r = BufReader::new(file);
        let mut entries = Vec::new();
        loop {
            match read_frame(&mut r) {
                Ok(FrameRead::Eof) => return Ok((entries, JournalTail::Clean)),
                Ok(FrameRead::Frame(kind, payload)) => {
                    let entry = match kind {
                        FrameKind::Block => match wire::decode::<UpdateBlock>(&payload) {
                            Ok(b) => JournalEntry::Block(b),
                            Err(e) => return Ok((entries, JournalTail::Torn(e.to_string()))),
                        },
                        FrameKind::Collect => JournalEntry::Collect,
                        FrameKind::Ingest => match wire::decode::<UpdateBlock>(&payload) {
                            Ok(b) => JournalEntry::Ingest(b),
                            Err(e) => return Ok((entries, JournalTail::Torn(e.to_string()))),
                        },
                        FrameKind::Seal => {
                            match wire::decode::<(u64, Vec<flash_netmodel::DeviceId>)>(&payload) {
                                Ok((seq, devices)) => JournalEntry::Seal { seq, devices },
                                Err(e) => return Ok((entries, JournalTail::Torn(e.to_string()))),
                            }
                        }
                        FrameKind::Checkpoint => {
                            match wire::decode::<WorkerCheckpoint>(&payload) {
                                Ok(cp) => JournalEntry::Checkpoint(cp),
                                Err(e) => return Ok((entries, JournalTail::Torn(e.to_string()))),
                            }
                        }
                    };
                    entries.push(entry);
                }
                Err(e) => return Ok((entries, JournalTail::Torn(e.to_string()))),
            }
        }
    }

    /// Recovery view of a journal: the latest checkpoint (if any) and
    /// the jobs recorded after it, ready for replay.
    pub fn recover(
        path: impl AsRef<Path>,
    ) -> Result<(Option<WorkerCheckpoint>, Vec<JournalEntry>), FlashError> {
        let (entries, _tail) = Self::read_entries(path)?;
        let mut cp = None;
        let mut jobs = Vec::new();
        for e in entries {
            match e {
                JournalEntry::Checkpoint(c) => {
                    cp = Some(c);
                    jobs.clear();
                }
                other => jobs.push(other),
            }
        }
        Ok((cp, jobs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_netmodel::{ActionId, DeviceId, HeaderLayout, Match, Rule, RuleUpdate};

    fn block(seq: u64) -> UpdateBlock {
        let layout = HeaderLayout::dst_only();
        UpdateBlock {
            seq,
            updates: vec![(
                DeviceId(seq as u32),
                RuleUpdate::insert(Rule::new(Match::dst_prefix(&layout, seq, 8), 1, ActionId(0))),
            )],
            routed: vec![vec![0]],
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("flash-journal-{}-{name}.fjl", std::process::id()));
        p
    }

    #[test]
    fn replay_journal_truncates_on_checkpoint() {
        let mut j: ReplayJournal<u64, &'static str> = ReplayJournal::new();
        for i in 0..5 {
            j.push(i);
        }
        assert_eq!(j.len(), 5);
        assert!(j.checkpoint().is_none());
        j.install("cp");
        assert_eq!(j.len(), 0, "checkpoint bounds the replay history");
        assert_eq!(j.checkpoint(), Some(&"cp"));
        assert_eq!(j.truncations(), 1);
        j.push(9);
        assert_eq!(j.jobs(), &[9]);
    }

    #[test]
    fn durable_journal_roundtrips_and_rotates() {
        let path = tmp("rotate");
        let mut j = EpochJournal::create(&path).unwrap();
        j.append_block(&block(0)).unwrap();
        j.append_collect().unwrap();
        j.append_block(&block(1)).unwrap();

        let (entries, tail) = EpochJournal::read_entries(&path).unwrap();
        assert_eq!(tail, JournalTail::Clean);
        assert_eq!(entries.len(), 3);
        assert!(matches!(&entries[0], JournalEntry::Block(b) if b.seq == 0));
        assert!(matches!(&entries[1], JournalEntry::Collect));

        let size_before = std::fs::metadata(&path).unwrap().len();
        let cp = WorkerCheckpoint { worker: 0, last_seq: 1, ..Default::default() };
        j.rotate_checkpoint(&cp).unwrap();
        j.append_block(&block(2)).unwrap();
        let size_after = std::fs::metadata(&path).unwrap().len();
        assert!(
            size_after < size_before + 200,
            "rotation must truncate the pre-checkpoint history"
        );

        let (cp_back, jobs) = EpochJournal::recover(&path).unwrap();
        assert_eq!(cp_back.map(|c| c.last_seq), Some(1));
        assert_eq!(jobs.len(), 1);
        assert!(matches!(&jobs[0], JournalEntry::Block(b) if b.seq == 2));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ingest_and_seal_frames_roundtrip() {
        let path = tmp("ingest");
        let mut j = EpochJournal::create(&path).unwrap();
        let mut b = block(0);
        b.seq = u64::MAX;
        j.append_ingest(&b).unwrap();
        j.append_seal(3, &[DeviceId(1), DeviceId(2)]).unwrap();
        let (entries, tail) = EpochJournal::read_entries(&path).unwrap();
        assert_eq!(tail, JournalTail::Clean);
        assert_eq!(entries.len(), 2);
        assert!(matches!(&entries[0], JournalEntry::Ingest(b) if b.seq == u64::MAX));
        assert!(
            matches!(&entries[1], JournalEntry::Seal { seq: 3, devices } if devices.len() == 2)
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let path = tmp("torn");
        let mut j = EpochJournal::create(&path).unwrap();
        j.append_block(&block(0)).unwrap();
        j.append_block(&block(1)).unwrap();
        drop(j);
        // Simulate a crash mid-append: chop bytes off the tail.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let (entries, tail) = EpochJournal::read_entries(&path).unwrap();
        assert_eq!(entries.len(), 1, "the complete frame survives");
        assert!(matches!(tail, JournalTail::Torn(_)));

        // A flipped byte inside the tail frame is also just a tear.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (_, tail) = EpochJournal::read_entries(&path).unwrap();
        assert!(matches!(tail, JournalTail::Torn(_) | JournalTail::Clean));
        let _ = std::fs::remove_file(&path);
    }
}
