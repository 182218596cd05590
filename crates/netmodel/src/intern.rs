//! The global match-interning table.
//!
//! Hyper-scale data planes (LNet in the paper: 3.7×10⁷ rules) repeat a
//! comparatively tiny set of distinct matches across devices — every ToR
//! prefix appears once per switch on the path. Storing an owned
//! `Vec<MatchKind>` per rule therefore multiplies both memory and hashing
//! cost by the fan-out of the fabric. The [`MatchTable`] dedups every
//! match into a 4-byte [`MatchId`] handle whose per-field constraints live
//! exactly once in a packed, append-only pool, turning a [`crate::Rule`]
//! into a 16-byte `Copy` value and match equality into an integer compare.
//!
//! Lifecycle: the table is process-global and **append-only**. Entries are
//! never freed — the table is bounded by the number of *distinct* matches
//! a process ever sees, not by rule count, and a dead entry would come
//! back the moment its prefix reappears in a churn stream. There is
//! consequently no GC and no generation counter; `MatchId`s stay valid
//! for the life of the process. Ids are **not** stable across processes
//! (they depend on interning order), so nothing may persist them: a
//! value that leaves the process must carry the structural form
//! ([`crate::Match::kinds`]) and re-intern it.
//!
//! Concurrency: the write side is sharded — the structural hash of the
//! kinds picks one of [`INTERN_SHARDS`] independent mutexes, each owning
//! its own dedup map and bump pool, so N parallel parsers only contend
//! when they intern structurally equal matches at the same instant (and
//! equal matches *must* serialize through the same shard, which is what
//! makes the dedup sound). Ids come from one atomic counter; uniqueness
//! needs no coordination beyond `fetch_add`. Reads (`kinds`, the
//! precomputed structural hash, `is_any`) are lock-free — entries are
//! published through `OnceLock` slots in size-doubling chunks whose
//! addresses never move, so a handle received from another thread
//! dereferences without synchronization beyond the hand-off itself.

use crate::rule::MatchKind;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Packed handle to an interned match: an index into the process-global
/// [`MatchTable`]. Equal ids ⇔ structurally equal matches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MatchId(pub u32);

/// One interned match: its per-field constraints (a slice into the packed
/// pool), the precomputed structural hash, and the all-wildcard flag.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MatchEntry {
    pub kinds: &'static [MatchKind],
    /// `DefaultHasher` over the kinds slice — *structural*, never derived
    /// from interning order, so same-priority FIB tie-breaks
    /// ([`crate::fib::rule_cmp`]) agree across processes and restarts.
    pub hash: u64,
    pub is_any: bool,
}

/// First chunk holds `1 << BASE_BITS` entries; each subsequent chunk
/// doubles. 17 chunks ≈ 134M distinct matches.
const BASE_BITS: u32 = 10;
const BASE: usize = 1 << BASE_BITS;
const MAX_CHUNKS: usize = 17;

/// Packed-pool allocation unit (in `MatchKind` slots).
const POOL_CHUNK: usize = 8192;

/// Write-side lock shards. Power of two so shard selection is a mask on
/// the structural hash.
pub const INTERN_SHARDS: usize = 16;

type Chunk = Box<[OnceLock<MatchEntry>]>;

fn split_id(id: u32) -> (usize, usize) {
    let v = id as usize + BASE;
    let chunk = (usize::BITS - 1 - v.leading_zeros()) as usize - BASE_BITS as usize;
    (chunk, v - (BASE << chunk))
}

fn chunk_len(chunk: usize) -> usize {
    BASE << chunk
}

/// Interning statistics (for capacity planning and the scale benches).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatchTableStats {
    /// Distinct matches interned so far.
    pub distinct: usize,
    /// Intern calls answered from the dedup map (no new entry).
    pub hits: u64,
    /// `MatchKind` slots allocated in the packed pools (including the
    /// unused remainder of each shard's current chunk).
    pub pool_kinds: usize,
    /// Approximate resident bytes of the table (pools + entries + dedup).
    pub approx_bytes: usize,
    /// Intern calls that found their lock shard already held and had to
    /// block — the write-contention signal with parallel parsers.
    pub write_contention: u64,
    /// Pool-chunk allocations across all shards (each one `Box::leak` of
    /// `POOL_CHUNK` packed `MatchKind` slots).
    pub batch_flushes: u64,
}

/// One write shard: its own dedup map and bump pool, guarded by its own
/// mutex. Structurally equal matches always hash to the same shard.
struct InternShard {
    dedup: HashMap<&'static [MatchKind], u32>,
    /// Bump-allocation remainder of this shard's current pool chunk.
    /// Interning splits rule slices off the front; when a match does not
    /// fit, the (tiny) remainder is abandoned and a fresh chunk is leaked.
    pool: &'static mut [MatchKind],
    pool_kinds: usize,
    hits: u64,
    batch_flushes: u64,
}

/// The process-global, append-only match-interning table.
pub struct MatchTable {
    chunks: [OnceLock<Chunk>; MAX_CHUNKS],
    shards: [Mutex<InternShard>; INTERN_SHARDS],
    /// Next id. Incremented under a shard lock, so `len` can momentarily
    /// run ahead of *other* shards' published entries but never ahead of
    /// an id any caller holds.
    len: AtomicU32,
    contention: AtomicU64,
}

static GLOBAL: OnceLock<MatchTable> = OnceLock::new();

impl MatchTable {
    fn new() -> Self {
        MatchTable {
            chunks: std::array::from_fn(|_| OnceLock::new()),
            shards: std::array::from_fn(|_| {
                Mutex::new(InternShard {
                    dedup: HashMap::new(),
                    pool: &mut [],
                    pool_kinds: 0,
                    hits: 0,
                    batch_flushes: 0,
                })
            }),
            len: AtomicU32::new(0),
            contention: AtomicU64::new(0),
        }
    }

    /// The process-global table every [`crate::Match`] handle points into.
    pub fn global() -> &'static MatchTable {
        GLOBAL.get_or_init(MatchTable::new)
    }

    /// Interns a match given as one [`MatchKind`] per layout field,
    /// returning its (possibly pre-existing) handle.
    pub fn intern(&self, kinds: &[MatchKind]) -> MatchId {
        // Structural hash up front: it selects the lock shard *and* is
        // the entry hash, so equal kinds always serialize through the
        // same shard (what makes the sharded dedup sound).
        let mut h = DefaultHasher::new();
        kinds.hash(&mut h);
        let hash = h.finish();
        let shard = &self.shards[(hash as usize) & (INTERN_SHARDS - 1)];
        let mut g = match shard.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                shard.lock().expect("match table poisoned")
            }
            Err(std::sync::TryLockError::Poisoned(_)) => panic!("match table poisoned"),
        };
        if let Some(&id) = g.dedup.get(kinds) {
            g.hits += 1;
            return MatchId(id);
        }
        // Copy the kinds into the shard's packed pool: stable addresses,
        // one allocation per POOL_CHUNK matches instead of one per match.
        if g.pool.len() < kinds.len() {
            let cap = POOL_CHUNK.max(kinds.len());
            g.pool = Box::leak(vec![MatchKind::Any; cap].into_boxed_slice());
            g.pool_kinds += cap;
            g.batch_flushes += 1;
        }
        let pool = std::mem::take(&mut g.pool);
        let (slot, rest) = pool.split_at_mut(kinds.len());
        slot.copy_from_slice(kinds);
        g.pool = rest;
        let slice: &'static [MatchKind] = slot;

        let entry = MatchEntry {
            kinds: slice,
            hash,
            is_any: slice.iter().all(|k| matches!(k, MatchKind::Any)),
        };
        // Allocate the id while holding the shard lock: ids stay unique
        // (fetch_add) and an id is never observable before its entry —
        // `intern` publishes the entry before returning the handle.
        let id = self.len.fetch_add(1, Ordering::Relaxed);
        assert!(
            (id as usize) < BASE * ((1usize << MAX_CHUNKS) - 1),
            "match table capacity exhausted"
        );
        let (ci, si) = split_id(id);
        let chunk = self.chunks[ci].get_or_init(|| {
            (0..chunk_len(ci))
                .map(|_| OnceLock::new())
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        chunk[si].set(entry).expect("entry slot written twice");
        g.dedup.insert(slice, id);
        MatchId(id)
    }

    /// Lock-free entry lookup. Panics on a handle never produced by this
    /// process's `intern` (decoders must re-intern, never cast raw ids).
    pub(crate) fn entry(&self, id: MatchId) -> MatchEntry {
        let (ci, si) = split_id(id.0);
        *self.chunks[ci]
            .get()
            .and_then(|c| c[si].get())
            .expect("MatchId not interned in this process")
    }

    /// Distinct matches interned so far.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn stats(&self) -> MatchTableStats {
        let len = self.len();
        let mut hits = 0u64;
        let mut pool_kinds = 0usize;
        let mut batch_flushes = 0u64;
        let mut dedup_cap = 0usize;
        for shard in &self.shards {
            let g = shard.lock().expect("match table poisoned");
            hits += g.hits;
            pool_kinds += g.pool_kinds;
            batch_flushes += g.batch_flushes;
            dedup_cap += g.dedup.capacity();
        }
        let entry_bytes = len * std::mem::size_of::<OnceLock<MatchEntry>>();
        let pool_bytes = pool_kinds * std::mem::size_of::<MatchKind>();
        let dedup_bytes = dedup_cap
            * (std::mem::size_of::<&'static [MatchKind]>() + std::mem::size_of::<u32>() + 8);
        MatchTableStats {
            distinct: len,
            hits,
            pool_kinds,
            approx_bytes: entry_bytes + pool_bytes + dedup_bytes,
            write_contention: self.contention.load(Ordering::Relaxed),
            batch_flushes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_returns_same_id() {
        let t = MatchTable::global();
        let kinds = [MatchKind::Prefix { value: 0xDEAD_0000, len: 16 }, MatchKind::Any];
        let a = t.intern(&kinds);
        let b = t.intern(&kinds);
        assert_eq!(a, b);
        assert_eq!(t.entry(a).kinds, &kinds[..]);
    }

    #[test]
    fn distinct_matches_get_distinct_ids() {
        let t = MatchTable::global();
        let a = t.intern(&[MatchKind::Exact(0x1111_2222)]);
        let b = t.intern(&[MatchKind::Exact(0x1111_2223)]);
        assert_ne!(a, b);
        assert_ne!(t.entry(a).hash, t.entry(b).hash);
    }

    #[test]
    fn hash_is_structural() {
        let t = MatchTable::global();
        let kinds = [MatchKind::Range { lo: 77, hi: 777 }];
        let id = t.intern(&kinds);
        let mut h = DefaultHasher::new();
        kinds[..].hash(&mut h);
        assert_eq!(t.entry(id).hash, h.finish());
    }

    #[test]
    fn is_any_precomputed() {
        let t = MatchTable::global();
        let any = t.intern(&[MatchKind::Any, MatchKind::Any]);
        let not = t.intern(&[MatchKind::Any, MatchKind::Exact(0x5151_5151)]);
        assert!(t.entry(any).is_any);
        assert!(!t.entry(not).is_any);
    }

    #[test]
    fn id_chunk_addressing_roundtrips() {
        for id in [0u32, 1, 1023, 1024, 3071, 3072, 1_000_000] {
            let (c, s) = split_id(id);
            assert!(s < chunk_len(c), "id {id} → chunk {c} slot {s}");
            // Reconstruct: sum of capacities of earlier chunks + slot.
            let start: usize = (0..c).map(chunk_len).sum();
            assert_eq!(start + s, id as usize);
        }
    }

    #[test]
    fn stats_track_sharded_write_side() {
        let t = MatchTable::global();
        let before = t.stats();
        // Fresh kinds force a pool write in some shard; repeats are hits.
        let kinds = [MatchKind::Range { lo: 414243, hi: 515253 }];
        t.intern(&kinds);
        t.intern(&kinds);
        let after = t.stats();
        assert!(after.distinct > before.distinct);
        assert!(after.hits > before.hits);
        assert!(after.batch_flushes >= 1, "first intern allocates a pool chunk");
        assert!(after.write_contention >= before.write_contention);
        assert_eq!(after.distinct, t.len());
    }

    #[test]
    fn concurrent_interning_agrees() {
        let t = MatchTable::global();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    (0..256u64)
                        .map(|v| {
                            MatchTable::global()
                                .intern(&[MatchKind::Prefix { value: v << 40, len: 24 }])
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let ids: Vec<Vec<MatchId>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        for other in &ids[1..] {
            assert_eq!(&ids[0], other, "same kinds must intern to same ids");
        }
        let id = ids[0][17];
        assert_eq!(
            t.entry(id).kinds,
            &[MatchKind::Prefix { value: 17 << 40, len: 24 }][..]
        );
    }
}
