//! The compact frame format of the durable epoch journal
//! ([`crate::journal`]).
//!
//! Routed update blocks, bulk-ingestion seals and recovery checkpoints
//! round-trip through a small length-prefixed frame encoding:
//!
//! ```text
//! frame := kind:u8  len:u32le  payload:[u8; len]  crc:u32le
//! ```
//!
//! where `crc` is CRC-32 (IEEE) over `kind` followed by the payload.
//! The checksum turns torn writes and bit flips into detectable
//! [`WireError`]s instead of silently corrupted models: the journal
//! reader tolerates a torn tail (the crash happened mid-append).
//!
//! Encoding is hand-rolled — little-endian fixed-width integers,
//! length-prefixed strings and sequences — to keep the workspace
//! dependency-free.

use flash_bdd::{EngineTelemetry, OpKind, OpStats};
use flash_imt::UpdateStats;
use flash_netmodel::{ActionId, DeviceId, Match, MatchKind, Rule, RuleOp, RuleUpdate};
use std::io::{Read, Write};
use std::time::Duration;

/// Upper bound on a single frame's payload; anything larger is treated
/// as corruption (a garbage length prefix), not a real frame.
pub const MAX_FRAME_LEN: u32 = 256 * 1024 * 1024;

/// A wire-level failure: truncated input, bad tag, checksum mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    pub msg: String,
}

impl WireError {
    pub fn new(msg: impl Into<String>) -> Self {
        WireError { msg: msg.into() }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire: {}", self.msg)
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::new(format!("io: {e}"))
    }
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Cursor over a received payload.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::new(format!(
                "truncated payload: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

/// A wire-encodable value.
pub trait Wire: Sized {
    fn put(&self, w: &mut Vec<u8>);
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, w: &mut Vec<u8>) {
                w.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                let b = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(b.try_into().expect("sized take")))
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64, i64);

impl Wire for usize {
    fn put(&self, w: &mut Vec<u8>) {
        (*self as u64).put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let v = u64::get(r)?;
        usize::try_from(v).map_err(|_| WireError::new("usize overflow"))
    }
}

impl Wire for bool {
    fn put(&self, w: &mut Vec<u8>) {
        w.push(*self as u8);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::new(format!("bad bool tag {t}"))),
        }
    }
}

impl Wire for f64 {
    fn put(&self, w: &mut Vec<u8>) {
        self.to_bits().put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::get(r)?))
    }
}

impl Wire for Duration {
    fn put(&self, w: &mut Vec<u8>) {
        // Nanoseconds, saturating at ~584 years: plenty for telemetry.
        u64::try_from(self.as_nanos()).unwrap_or(u64::MAX).put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Duration::from_nanos(u64::get(r)?))
    }
}

impl Wire for String {
    fn put(&self, w: &mut Vec<u8>) {
        self.len().put(w);
        w.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = usize::get(r)?;
        let b = r.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError::new("invalid utf-8"))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut Vec<u8>) {
        self.len().put(w);
        for v in self {
            v.put(w);
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = usize::get(r)?;
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, w: &mut Vec<u8>) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl Wire for DeviceId {
    fn put(&self, w: &mut Vec<u8>) {
        self.0.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(DeviceId(u32::get(r)?))
    }
}

impl Wire for ActionId {
    fn put(&self, w: &mut Vec<u8>) {
        self.0.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ActionId(u32::get(r)?))
    }
}

impl Wire for MatchKind {
    fn put(&self, w: &mut Vec<u8>) {
        match *self {
            MatchKind::Any => w.push(0),
            MatchKind::Exact(v) => {
                w.push(1);
                v.put(w);
            }
            MatchKind::Prefix { value, len } => {
                w.push(2);
                value.put(w);
                len.put(w);
            }
            MatchKind::Suffix { value, len } => {
                w.push(3);
                value.put(w);
                len.put(w);
            }
            MatchKind::Ternary { value, mask } => {
                w.push(4);
                value.put(w);
                mask.put(w);
            }
            MatchKind::Range { lo, hi } => {
                w.push(5);
                lo.put(w);
                hi.put(w);
            }
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match u8::get(r)? {
            0 => MatchKind::Any,
            1 => MatchKind::Exact(u64::get(r)?),
            2 => MatchKind::Prefix { value: u64::get(r)?, len: u32::get(r)? },
            3 => MatchKind::Suffix { value: u64::get(r)?, len: u32::get(r)? },
            4 => MatchKind::Ternary { value: u64::get(r)?, mask: u64::get(r)? },
            5 => MatchKind::Range { lo: u64::get(r)?, hi: u64::get(r)? },
            t => return Err(WireError::new(format!("bad match tag {t}"))),
        })
    }
}

impl Wire for Match {
    fn put(&self, w: &mut Vec<u8>) {
        self.kinds().to_vec().put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Match::from_kinds(Vec::<MatchKind>::get(r)?))
    }
}

impl Wire for Rule {
    fn put(&self, w: &mut Vec<u8>) {
        self.mat.put(w);
        self.priority.put(w);
        self.action.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Rule::new(Match::get(r)?, i64::get(r)?, ActionId::get(r)?))
    }
}

impl Wire for RuleOp {
    fn put(&self, w: &mut Vec<u8>) {
        w.push(match self {
            RuleOp::Insert => 0,
            RuleOp::Delete => 1,
        });
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::get(r)? {
            0 => Ok(RuleOp::Insert),
            1 => Ok(RuleOp::Delete),
            t => Err(WireError::new(format!("bad rule-op tag {t}"))),
        }
    }
}

impl Wire for RuleUpdate {
    fn put(&self, w: &mut Vec<u8>) {
        self.op.put(w);
        self.rule.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let op = RuleOp::get(r)?;
        let rule = Rule::get(r)?;
        Ok(match op {
            RuleOp::Insert => RuleUpdate::insert(rule),
            RuleOp::Delete => RuleUpdate::delete(rule),
        })
    }
}

impl Wire for OpStats {
    fn put(&self, w: &mut Vec<u8>) {
        self.calls.put(w);
        self.cache_hits.put(w);
        self.cache_misses.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(OpStats {
            calls: u64::get(r)?,
            cache_hits: u64::get(r)?,
            cache_misses: u64::get(r)?,
        })
    }
}

impl Wire for EngineTelemetry {
    fn put(&self, w: &mut Vec<u8>) {
        self.ops.put(w);
        self.per_op.to_vec().put(w);
        self.live_nodes.put(w);
        self.allocated_nodes.put(w);
        self.peak_live_nodes.put(w);
        self.unique_entries.put(w);
        self.occupancy.put(w);
        self.roots_live.put(w);
        self.gc_runs.put(w);
        self.gc_reclaimed_nodes.put(w);
        self.gc_pause_total.put(w);
        self.gc_pause_max.put(w);
        self.approx_bytes.put(w);
        self.cache_evictions.put(w);
        self.cache_admission_rejects.put(w);
        self.cache_occupancy_by_op.to_vec().put(w);
        self.cache_capacity.put(w);
        self.freelist_reuses.put(w);
        self.cell_probes.put(w);
        self.disjoint_skips.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let ops = u64::get(r)?;
        let per: Vec<OpStats> = Vec::get(r)?;
        if per.len() != OpKind::COUNT {
            return Err(WireError::new(format!(
                "per-op stats arity {} != {}",
                per.len(),
                OpKind::COUNT
            )));
        }
        let mut per_op = [OpStats::default(); OpKind::COUNT];
        per_op.copy_from_slice(&per);
        let live_nodes = usize::get(r)?;
        let allocated_nodes = usize::get(r)?;
        let peak_live_nodes = usize::get(r)?;
        let unique_entries = usize::get(r)?;
        let occupancy = f64::get(r)?;
        let roots_live = usize::get(r)?;
        let gc_runs = u64::get(r)?;
        let gc_reclaimed_nodes = u64::get(r)?;
        let gc_pause_total = Duration::get(r)?;
        let gc_pause_max = Duration::get(r)?;
        let approx_bytes = usize::get(r)?;
        let cache_evictions = u64::get(r)?;
        let cache_admission_rejects = u64::get(r)?;
        let occ: Vec<u64> = Vec::get(r)?;
        if occ.len() != OpKind::COUNT {
            return Err(WireError::new(format!(
                "cache-occupancy arity {} != {}",
                occ.len(),
                OpKind::COUNT
            )));
        }
        let mut cache_occupancy_by_op = [0u64; OpKind::COUNT];
        cache_occupancy_by_op.copy_from_slice(&occ);
        Ok(EngineTelemetry {
            ops,
            per_op,
            live_nodes,
            allocated_nodes,
            peak_live_nodes,
            unique_entries,
            occupancy,
            roots_live,
            gc_runs,
            gc_reclaimed_nodes,
            gc_pause_total,
            gc_pause_max,
            approx_bytes,
            cache_evictions,
            cache_admission_rejects,
            cache_occupancy_by_op,
            cache_capacity: usize::get(r)?,
            freelist_reuses: u64::get(r)?,
            cell_probes: u64::get(r)?,
            disjoint_skips: u64::get(r)?,
        })
    }
}

impl Wire for UpdateStats {
    fn put(&self, w: &mut Vec<u8>) {
        self.updates_accepted.put(w);
        self.updates_filtered.put(w);
        self.flushes.put(w);
        self.atomic_overwrites.put(w);
        self.compact_overwrites.put(w);
        self.match_memo_hits.put(w);
        self.match_memo_misses.put(w);
        self.classes_probed.put(w);
        self.classes_pruned.put(w);
        self.and_misses.put(w);
        self.index_rebuilds.put(w);
        self.shadow_acc_blocks.put(w);
        self.shadow_trie_blocks.put(w);
        self.map_reused_rules.put(w);
        self.engine.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(UpdateStats {
            updates_accepted: u64::get(r)?,
            updates_filtered: u64::get(r)?,
            flushes: u64::get(r)?,
            atomic_overwrites: u64::get(r)?,
            compact_overwrites: u64::get(r)?,
            match_memo_hits: u64::get(r)?,
            match_memo_misses: u64::get(r)?,
            classes_probed: u64::get(r)?,
            classes_pruned: u64::get(r)?,
            and_misses: u64::get(r)?,
            index_rebuilds: u64::get(r)?,
            shadow_acc_blocks: u64::get(r)?,
            shadow_trie_blocks: u64::get(r)?,
            map_reused_rules: u64::get(r)?,
            engine: EngineTelemetry::get(r)?,
        })
    }
}

/// Per-frame match dictionary for rule-heavy frames.
///
/// A block or checkpoint routinely carries thousands of rules drawn from a
/// far smaller set of distinct matches (every ToR prefix recurs once per
/// device on the path). Instead of serializing each rule's full constraint
/// vector, the encoder collects the distinct matches — cheap now that
/// [`Match`] is an interned 4-byte handle, so dedup is a `MatchId` map
/// probe — writes each structural form exactly once, and encodes rules as
/// `u32` dictionary indices. Ids are process-local, so the *dictionary
/// position* (dense, first-occurrence order) goes on the wire, never the
/// raw `MatchId`; the decoder re-interns each entry into its own table.
#[derive(Default)]
struct MatchDict {
    index: std::collections::HashMap<flash_netmodel::MatchId, u32>,
    order: Vec<Match>,
}

impl MatchDict {
    /// The dictionary index for `m`, assigning the next slot on first use.
    fn index_of(&mut self, m: &Match) -> u32 {
        *self.index.entry(m.id()).or_insert_with(|| {
            self.order.push(*m);
            (self.order.len() - 1) as u32
        })
    }

    /// Encodes the table itself (each distinct match's structural form,
    /// in index order). Must precede the rule body in the payload.
    fn put(&self, w: &mut Vec<u8>) {
        self.order.len().put(w);
        for m in &self.order {
            let kinds = m.kinds();
            kinds.len().put(w);
            for k in kinds {
                k.put(w);
            }
        }
    }

    /// Decodes a table, re-interning every entry into this process's
    /// global match table.
    fn get_table(r: &mut WireReader<'_>) -> Result<Vec<Match>, WireError> {
        let n = usize::get(r)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let k = usize::get(r)?;
            let mut kinds = Vec::with_capacity(k);
            for _ in 0..k {
                kinds.push(MatchKind::get(r)?);
            }
            out.push(Match::from_kinds(kinds));
        }
        Ok(out)
    }

    fn lookup(table: &[Match], idx: u32) -> Result<Match, WireError> {
        table
            .get(idx as usize)
            .copied()
            .ok_or_else(|| WireError::new(format!("match dict index {idx} out of range")))
    }
}

/// Encodes a rule against a frame dictionary: index + priority + action.
fn put_rule_dicted(rule: &Rule, dict: &mut MatchDict, w: &mut Vec<u8>) {
    dict.index_of(&rule.mat).put(w);
    rule.priority.put(w);
    rule.action.put(w);
}

fn get_rule_dicted(table: &[Match], r: &mut WireReader<'_>) -> Result<Rule, WireError> {
    let mat = MatchDict::lookup(table, u32::get(r)?)?;
    Ok(Rule::new(mat, i64::get(r)?, ActionId::get(r)?))
}

impl Wire for crate::shard::UpdateBlock {
    fn put(&self, w: &mut Vec<u8>) {
        self.seq.put(w);
        // Rules reference the dictionary by index, but the dictionary is
        // only known after walking them — encode the body to the side,
        // then emit dict before body so the decoder reads it first.
        let mut dict = MatchDict::default();
        let mut body = Vec::new();
        self.updates.len().put(&mut body);
        for (dev, u) in &self.updates {
            dev.put(&mut body);
            u.op.put(&mut body);
            put_rule_dicted(&u.rule, &mut dict, &mut body);
        }
        dict.put(w);
        w.extend_from_slice(&body);
        self.routed.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let seq = u64::get(r)?;
        let table = MatchDict::get_table(r)?;
        let n = usize::get(r)?;
        let mut updates = Vec::with_capacity(n);
        for _ in 0..n {
            let dev = DeviceId::get(r)?;
            let op = RuleOp::get(r)?;
            let rule = get_rule_dicted(&table, r)?;
            updates.push((
                dev,
                match op {
                    RuleOp::Insert => RuleUpdate::insert(rule),
                    RuleOp::Delete => RuleUpdate::delete(rule),
                },
            ));
        }
        Ok(crate::shard::UpdateBlock { seq, updates, routed: Vec::get(r)? })
    }
}

/// Recovery state of one shard at checkpoint time: the device FIBs
/// (from which the inverse model is a deterministic function), the
/// synchronized-device set, the verdict keys already emitted, the
/// distinct class fingerprints (an integrity check for restore), and
/// the cumulative model-manager work counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardCheckpoint {
    /// Global shard (subspace) index.
    pub shard: usize,
    /// Whether the shard's verifier had been constructed at all.
    pub built: bool,
    /// Per-device FIB rule snapshots, default wildcard omitted.
    pub fibs: Vec<(DeviceId, Vec<Rule>)>,
    /// Devices the loop verifier had marked synchronized.
    pub synced: Vec<DeviceId>,
    /// Verdict keys already emitted by the shard's verifier.
    pub emitted: Vec<String>,
    /// Sorted distinct class fingerprints at checkpoint time.
    pub class_fingerprints: Vec<u64>,
    /// Cumulative `ModelManager` work counters at checkpoint time.
    pub stats: UpdateStats,
}

impl Wire for ShardCheckpoint {
    fn put(&self, w: &mut Vec<u8>) {
        self.shard.put(w);
        self.built.put(w);
        // FIB snapshots dominate checkpoint size and repeat matches across
        // devices; encode them against a per-checkpoint match dictionary.
        let mut dict = MatchDict::default();
        let mut body = Vec::new();
        self.fibs.len().put(&mut body);
        for (dev, rules) in &self.fibs {
            dev.put(&mut body);
            rules.len().put(&mut body);
            for rule in rules {
                put_rule_dicted(rule, &mut dict, &mut body);
            }
        }
        dict.put(w);
        w.extend_from_slice(&body);
        self.synced.put(w);
        self.emitted.put(w);
        self.class_fingerprints.put(w);
        self.stats.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let shard = usize::get(r)?;
        let built = bool::get(r)?;
        let table = MatchDict::get_table(r)?;
        let nd = usize::get(r)?;
        let mut fibs = Vec::with_capacity(nd);
        for _ in 0..nd {
            let dev = DeviceId::get(r)?;
            let nr = usize::get(r)?;
            let mut rules = Vec::with_capacity(nr);
            for _ in 0..nr {
                rules.push(get_rule_dicted(&table, r)?);
            }
            fibs.push((dev, rules));
        }
        Ok(ShardCheckpoint {
            shard,
            built,
            fibs,
            synced: Vec::get(r)?,
            emitted: Vec::get(r)?,
            class_fingerprints: Vec::get(r)?,
            stats: UpdateStats::get(r)?,
        })
    }
}

/// A whole worker's recovery state: one [`ShardCheckpoint`] per owned
/// shard, the last block sequence folded in, and the `(seq, shard)`
/// results already released to the aggregator (so a cold restore never
/// double-reports).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkerCheckpoint {
    pub worker: usize,
    /// Highest block seq reflected in the shard snapshots; `u64::MAX`
    /// when no block had arrived yet.
    pub last_seq: u64,
    /// `(seq, shard)` results already delivered to the aggregator.
    pub reported: Vec<(u64, u64)>,
    pub shards: Vec<ShardCheckpoint>,
}

impl Wire for WorkerCheckpoint {
    fn put(&self, w: &mut Vec<u8>) {
        self.worker.put(w);
        self.last_seq.put(w);
        self.reported.put(w);
        self.shards.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(WorkerCheckpoint {
            worker: usize::get(r)?,
            last_seq: u64::get(r)?,
            reported: Vec::get(r)?,
            shards: Vec::get(r)?,
        })
    }
}

/// Frame type tags of the journal. The values are fixed so that journal
/// files written by earlier builds still read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// An applied update block: payload is an
    /// [`crate::shard::UpdateBlock`].
    Block = 2,
    /// A forced collection (empty payload).
    Collect = 3,
    /// A bulk-ingestion block (buffered, no results until `Seal`).
    /// Payload is an [`crate::shard::UpdateBlock`] with the sentinel
    /// seq `u64::MAX`.
    Ingest = 7,
    /// Ends a bulk-ingestion snapshot: payload is `(seq, devices)`.
    Seal = 8,
    /// A worker checkpoint: payload is a [`WorkerCheckpoint`].
    Checkpoint = 17,
}

impl FrameKind {
    pub fn from_u8(b: u8) -> Option<Self> {
        Some(match b {
            2 => FrameKind::Block,
            3 => FrameKind::Collect,
            7 => FrameKind::Ingest,
            8 => FrameKind::Seal,
            17 => FrameKind::Checkpoint,
            _ => return None,
        })
    }
}

/// Writes one frame: `kind, len, payload, crc32(kind ‖ payload)`.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> Result<(), WireError> {
    let mut out = Vec::with_capacity(payload.len() + 9);
    out.push(kind as u8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let mut crc_input = Vec::with_capacity(payload.len() + 1);
    crc_input.push(kind as u8);
    crc_input.extend_from_slice(payload);
    out.extend_from_slice(&crc32(&crc_input).to_le_bytes());
    w.write_all(&out)?;
    Ok(())
}

/// Encodes `value` and writes it as one frame.
pub fn write_value_frame<T: Wire>(
    w: &mut impl Write,
    kind: FrameKind,
    value: &T,
) -> Result<(), WireError> {
    write_frame(w, kind, &encode(value))
}

/// How a frame read ended.
pub enum FrameRead {
    /// A complete, checksum-valid frame.
    Frame(FrameKind, Vec<u8>),
    /// Clean EOF at a frame boundary.
    Eof,
}

/// Reads one frame. `Err` covers torn frames (EOF mid-frame), unknown
/// kinds, oversized lengths, and checksum mismatches — the caller
/// decides whether that is a tolerable journal tail or a fatal
/// transport failure.
pub fn read_frame(r: &mut impl Read) -> Result<FrameRead, WireError> {
    let mut kind_byte = [0u8; 1];
    match r.read(&mut kind_byte) {
        Ok(0) => return Ok(FrameRead::Eof),
        Ok(_) => {}
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => return read_frame(r),
        Err(e) => return Err(e.into()),
    }
    let kind = FrameKind::from_u8(kind_byte[0])
        .ok_or_else(|| WireError::new(format!("unknown frame kind {}", kind_byte[0])))?;
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)
        .map_err(|e| WireError::new(format!("torn frame header: {e}")))?;
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_LEN {
        return Err(WireError::new(format!("frame length {len} exceeds cap")));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)
        .map_err(|e| WireError::new(format!("torn frame payload: {e}")))?;
    let mut crc_bytes = [0u8; 4];
    r.read_exact(&mut crc_bytes)
        .map_err(|e| WireError::new(format!("torn frame checksum: {e}")))?;
    let mut crc_input = Vec::with_capacity(payload.len() + 1);
    crc_input.push(kind_byte[0]);
    crc_input.extend_from_slice(&payload);
    if crc32(&crc_input) != u32::from_le_bytes(crc_bytes) {
        return Err(WireError::new("frame checksum mismatch"));
    }
    Ok(FrameRead::Frame(kind, payload))
}

/// Decodes a full payload as one `T`, requiring it to be consumed
/// exactly.
pub fn decode<T: Wire>(payload: &[u8]) -> Result<T, WireError> {
    let mut r = WireReader::new(payload);
    let v = T::get(&mut r)?;
    if !r.is_empty() {
        return Err(WireError::new("trailing bytes after payload"));
    }
    Ok(v)
}

/// Encodes one `T` as a standalone payload.
pub fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.put(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_netmodel::{FieldId, HeaderLayout};

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode(&v);
        let back: T = decode(&bytes).expect("decode");
        assert_eq!(back, v);
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(true);
        roundtrip(3.25f64);
        roundtrip(String::from("dst"));
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Duration::from_micros(1234));
        roundtrip((DeviceId(3), 9u64));
    }

    #[test]
    fn rules_and_updates_roundtrip() {
        let layout = HeaderLayout::new(&[("dst", 8), ("src", 8)]);
        let m = Match::any(&layout)
            .with(FieldId(0), MatchKind::Prefix { value: 0xC0, len: 4 })
            .with(FieldId(1), MatchKind::Range { lo: 2, hi: 9 });
        roundtrip(m);
        roundtrip(Rule::new(m, -5, ActionId(3)));
        roundtrip(RuleUpdate::insert(Rule::new(m, 1, ActionId(1))));
        roundtrip(RuleUpdate::delete(Rule::new(m, 2, ActionId(2))));
    }

    #[test]
    fn blocks_and_results_roundtrip() {
        let layout = HeaderLayout::dst_only();
        let block = crate::shard::UpdateBlock {
            seq: 7,
            updates: vec![(
                DeviceId(1),
                RuleUpdate::insert(Rule::new(Match::dst_prefix(&layout, 10, 8), 1, ActionId(2))),
            )],
            routed: vec![vec![0], vec![]],
        };
        let bytes = encode(&block);
        let back: crate::shard::UpdateBlock = decode(&bytes).unwrap();
        assert_eq!(back.seq, 7);
        assert_eq!(back.updates, block.updates);
        assert_eq!(back.routed, block.routed);

        roundtrip(UpdateStats::default());
        roundtrip(EngineTelemetry::default());
    }

    #[test]
    fn match_dict_dedups_repeated_matches() {
        // 256 updates drawn from 8 distinct matches: the dicted frame must
        // round-trip exactly AND be markedly smaller than encoding every
        // rule's full constraint vector inline (the pre-dictionary format,
        // still used by the standalone `Rule` codec).
        let layout = HeaderLayout::new(&[("dst", 32), ("src", 32)]);
        let mats: Vec<Match> = (0..8u64)
            .map(|i| {
                Match::any(&layout)
                    .with(FieldId(0), MatchKind::Prefix { value: i << 24, len: 8 })
                    .with(FieldId(1), MatchKind::Range { lo: i, hi: i + 100 })
            })
            .collect();
        let updates: Vec<(DeviceId, RuleUpdate)> = (0..256)
            .map(|i| {
                let rule = Rule::new(mats[i % 8], i as i64, ActionId((i % 5) as u32));
                let u = if i % 3 == 0 {
                    RuleUpdate::delete(rule)
                } else {
                    RuleUpdate::insert(rule)
                };
                (DeviceId((i % 16) as u32), u)
            })
            .collect();
        let block =
            crate::shard::UpdateBlock { seq: 9, updates: updates.clone(), routed: vec![vec![0]] };
        let bytes = encode(&block);
        let back: crate::shard::UpdateBlock = decode(&bytes).unwrap();
        assert_eq!(back.seq, block.seq);
        assert_eq!(back.updates, block.updates);
        assert_eq!(back.routed, block.routed);

        // Size of the legacy inline encoding: every update with its full match.
        let inline: usize = updates
            .iter()
            .map(|(d, u)| encode(d).len() + encode(u).len())
            .sum();
        assert!(
            bytes.len() * 2 < inline,
            "dicted frame ({} B) should be well under half the inline form ({inline} B)",
            bytes.len()
        );

        // Out-of-range dictionary index must be a decode error, not a panic.
        let mut corrupt = Vec::new();
        block.seq.put(&mut corrupt);
        MatchDict::default().put(&mut corrupt); // empty dict
        1usize.put(&mut corrupt);
        DeviceId(0).put(&mut corrupt);
        RuleOp::Insert.put(&mut corrupt);
        7u32.put(&mut corrupt); // dangling index
        0i64.put(&mut corrupt);
        ActionId(0).put(&mut corrupt);
        Vec::<Vec<usize>>::new().put(&mut corrupt);
        assert!(decode::<crate::shard::UpdateBlock>(&corrupt).is_err());
    }

    #[test]
    fn checkpoints_and_hello_roundtrip() {
        let layout = HeaderLayout::dst_only();
        let cp = WorkerCheckpoint {
            worker: 1,
            last_seq: 42,
            reported: vec![(41, 0), (42, 2)],
            shards: vec![ShardCheckpoint {
                shard: 2,
                built: true,
                fibs: vec![(
                    DeviceId(0),
                    vec![Rule::new(Match::dst_prefix(&layout, 3, 8), 1, ActionId(1))],
                )],
                synced: vec![DeviceId(0), DeviceId(1)],
                emitted: vec!["noloop".into()],
                class_fingerprints: vec![1, 2, 3],
                stats: UpdateStats::default(),
            }],
        };
        roundtrip(cp);
    }

    #[test]
    fn frames_roundtrip_and_detect_corruption() {
        let payload = encode(&vec![1u64, 2, 3]);
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Block, &payload).unwrap();
        write_frame(&mut buf, FrameKind::Collect, &[]).unwrap();

        let mut cursor = std::io::Cursor::new(buf.clone());
        match read_frame(&mut cursor).unwrap() {
            FrameRead::Frame(FrameKind::Block, p) => assert_eq!(p, payload),
            _ => panic!("expected block frame"),
        }
        match read_frame(&mut cursor).unwrap() {
            FrameRead::Frame(FrameKind::Collect, p) => assert!(p.is_empty()),
            _ => panic!("expected collect frame"),
        }
        assert!(matches!(read_frame(&mut cursor).unwrap(), FrameRead::Eof));

        // Flip one payload byte: checksum must catch it.
        let mut corrupt = buf.clone();
        corrupt[7] ^= 0xFF;
        let mut cursor = std::io::Cursor::new(corrupt);
        assert!(read_frame(&mut cursor).is_err());

        // Truncate mid-frame: torn, not EOF.
        let torn = &buf[..buf.len() / 2];
        let mut cursor = std::io::Cursor::new(torn.to_vec());
        let first = read_frame(&mut cursor);
        assert!(first.is_err() || matches!(first, Ok(FrameRead::Frame(..))));
    }
}
