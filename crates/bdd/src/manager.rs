//! The BDD manager: fused node arena, computed cache, Boolean
//! operations, model counting and garbage collection.
//!
//! This is the *raw* layer: node ids are plain integers with no lifetime
//! tracking. Consumers outside this crate should use the rooted-handle
//! wrapper in [`crate::engine`] ([`crate::PredEngine`]), which keeps the
//! ids below alive across automatic mark-sweep collections.
//!
//! ## Storage layout
//!
//! Nodes live in a single open-addressed arena of 16-byte [`Slot`]s that
//! fuses what used to be three side tables:
//!
//! ```text
//!   Slot (16 bytes)
//!   +--------+--------+----------------------+--------+
//!   |  low   |  high  |        meta          |  next  |
//!   |  u32   |  u32   | var:16 born:15 mark:1|  u32   |
//!   +--------+--------+----------------------+--------+
//! ```
//!
//! `next` threads the slot into its unique-table bucket chain (heads in
//! [`Bdd::heads`]) — or into the free list once swept. `meta` packs the
//! decision variable (16 bits; `0xFFFF` marks a terminal, `0xFFFE` a
//! freed slot), the 15-bit GC generation the occupant was born in, and
//! the mark bit used by [`Bdd::sweep`]. A `mk()` probe therefore walks a
//! short chain of single-cache-line slots instead of fetching a node
//! *and* chasing a `HashMap` entry, and collections need no side
//! allocations at all.
//!
//! ## Concurrent snapshot reads
//!
//! Slots live in a **chunked, non-moving** arena ([`SlotArena`]): a fixed
//! spine of geometrically-sized chunks published through `OnceLock`, the
//! same lock-free-read idiom as the netmodel's match intern table. A slot,
//! once allocated, never moves, and all four words are relaxed atomics —
//! so a [`NodeView`] handed to another thread can traverse nodes while
//! the owning engine keeps mutating, under one contract: the reader only
//! visits nodes kept *rooted* in the owning [`crate::PredEngine`] (a
//! snapshot pin). Rooted-reachable slots are never freed or restamped by
//! the non-moving sweep, their `low`/`high` words are written exactly
//! once at creation (before the view is published), and the only
//! concurrent writes they see are mark/born bits inside `meta` — which
//! readers mask off. The publish handoff (a lock or channel) provides the
//! release/acquire edge that makes creation-time writes visible.

use crate::engine::{OpKind, OpStats};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

/// Index of a BDD node inside a [`Bdd`] manager.
///
/// Node ids are only meaningful relative to the manager that produced them.
/// Because nodes are hash-consed, two predicates are logically equal if and
/// only if their `NodeId`s are equal.
pub type NodeId = u32;

/// The constant-false predicate (empty header set).
pub const FALSE: NodeId = 0;
/// The constant-true predicate (full header space).
pub const TRUE: NodeId = 1;

/// Null link in bucket chains and the free list.
const NIL: u32 = u32::MAX;

/// Low 16 bits of `meta`: the decision variable.
const VAR_MASK: u32 = 0xFFFF;
/// Sentinel variable marking the two terminal nodes.
const TERMINAL_VAR: u32 = 0xFFFF;
/// Sentinel variable marking a swept (reusable) arena slot.
const FREE_VAR: u32 = 0xFFFE;
/// 15-bit birth-generation field of `meta` (bits 16..31).
const BORN_MASK: u32 = 0x7FFF;
/// Sweep mark bit (bit 31 of `meta`).
const MARK_BIT: u32 = 1 << 31;

/// A fused arena slot: decision node, unique-table chain link, birth
/// stamp and mark bit in 16 bytes (see the module docs for the diagram).
///
/// All four words are relaxed atomics so a [`NodeView`] on another
/// thread may read `low`/`high`/`meta` of *rooted* nodes while the
/// owning engine mutates the arena. Relaxed suffices: rooted slots'
/// `low`/`high` are written once before the view is published (the
/// publish handoff is the release/acquire edge), and the only racing
/// `meta` writes flip mark/born bits the reader masks off. The mutator
/// itself stays single-threaded, so its own reads always see its own
/// writes.
#[repr(C)]
struct Slot {
    low: AtomicU32,
    high: AtomicU32,
    /// `var:16 | born:15 | mark:1`.
    meta: AtomicU32,
    /// Unique-table bucket chain link, or free-list link once swept.
    /// Never read through a [`NodeView`].
    next: AtomicU32,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 16);

impl Slot {
    #[inline]
    fn low(&self) -> NodeId {
        self.low.load(Relaxed)
    }

    #[inline]
    fn high(&self) -> NodeId {
        self.high.load(Relaxed)
    }

    #[inline]
    fn meta(&self) -> u32 {
        self.meta.load(Relaxed)
    }

    #[inline]
    fn next(&self) -> u32 {
        self.next.load(Relaxed)
    }

    #[inline]
    fn var(&self) -> u32 {
        self.meta() & VAR_MASK
    }

    #[inline]
    fn born(&self) -> u32 {
        (self.meta() >> 16) & BORN_MASK
    }

    #[inline]
    fn store(&self, low: NodeId, high: NodeId, meta: u32, next: u32) {
        self.low.store(low, Relaxed);
        self.high.store(high, Relaxed);
        self.meta.store(meta, Relaxed);
        self.next.store(next, Relaxed);
    }
}

/// Chunk 0 holds `2^SPINE_BASE_BITS` slots; chunk `k >= 1` holds
/// `2^(SPINE_BASE_BITS + k - 1)`, so chunk boundaries land on powers of
/// two and [`locate`] is a couple of bit ops. 20 chunks cover the full
/// 32-bit id space.
const SPINE_BASE_BITS: u32 = 13;
const SPINE_MAX_CHUNKS: usize = 20;

/// Splits a node id into `(chunk, index-within-chunk)`.
#[inline]
fn locate(id: NodeId) -> (usize, usize) {
    let top = id >> SPINE_BASE_BITS;
    if top == 0 {
        (0, id as usize)
    } else {
        let k = 32 - top.leading_zeros();
        (k as usize, (id - (1u32 << (SPINE_BASE_BITS + k - 1))) as usize)
    }
}

/// Slot count of chunk `c` (see [`SPINE_BASE_BITS`]).
#[inline]
fn chunk_len(c: usize) -> usize {
    if c == 0 {
        1 << SPINE_BASE_BITS
    } else {
        1 << (SPINE_BASE_BITS as usize + c - 1)
    }
}

/// The fixed spine behind a [`SlotArena`]: geometrically-sized chunks
/// published through `OnceLock` (the same grow-by-appending-chunks,
/// never-move idiom as the netmodel match intern table). Shared with
/// [`NodeView`] readers via `Arc`; a chunk, once initialized, is never
/// freed or reallocated for the spine's lifetime.
struct Spine {
    chunks: [OnceLock<Box<[Slot]>>; SPINE_MAX_CHUNKS],
}

impl Spine {
    fn new() -> Self {
        Spine { chunks: std::array::from_fn(|_| OnceLock::new()) }
    }

    /// The slot for `id`. The caller must only pass ids below the owning
    /// arena's `len` (or, for views, ids reachable from a pinned root),
    /// which guarantees the chunk is initialized.
    #[inline]
    fn slot(&self, id: NodeId) -> &Slot {
        let (c, i) = locate(id);
        debug_assert!(
            self.chunks[c].get().is_some_and(|ch| i < ch.len()),
            "slot id {id} beyond allocated chunks"
        );
        // SAFETY: `SlotArena::push` initializes a chunk before handing out
        // any id inside it, `c < SPINE_MAX_CHUNKS` by construction of
        // `locate` over u32, and `i < chunk_len(c)` for any allocated id.
        unsafe {
            let chunk = self.chunks.get_unchecked(c).get().unwrap_unchecked();
            chunk.get_unchecked(i)
        }
    }
}

/// The chunked, non-moving slot store: a bump-allocated prefix of the
/// [`Spine`]. Only the owning [`Bdd`] can push; concurrent [`NodeView`]
/// readers share the spine read-only.
struct SlotArena {
    spine: Arc<Spine>,
    len: usize,
}

impl SlotArena {
    fn new() -> Self {
        SlotArena { spine: Arc::new(Spine::new()), len: 0 }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn slot(&self, id: NodeId) -> &Slot {
        debug_assert!((id as usize) < self.len, "slot id {id} out of bounds");
        self.spine.slot(id)
    }

    /// Appends a slot, initializing its chunk on first touch.
    fn push(&mut self, low: NodeId, high: NodeId, meta: u32, next: u32) -> NodeId {
        assert!(self.len < u32::MAX as usize, "node arena exhausted");
        let id = self.len as NodeId;
        let (c, i) = locate(id);
        let chunk = self.spine.chunks[c].get_or_init(|| {
            (0..chunk_len(c))
                .map(|_| Slot {
                    low: AtomicU32::new(0),
                    high: AtomicU32::new(0),
                    meta: AtomicU32::new(FREE_VAR),
                    next: AtomicU32::new(NIL),
                })
                .collect()
        });
        chunk[i].store(low, high, meta, next);
        self.len += 1;
        id
    }

    /// Rewinds to exactly the two terminal slots, keeping chunk memory.
    /// The terminals' words are rewritten, so any outstanding id — and
    /// any [`NodeView`] over this spine — is invalidated.
    fn reset_to_terminals(&mut self) {
        self.len = 0;
        self.push(0, 0, TERMINAL_VAR, NIL);
        self.push(1, 1, TERMINAL_VAR, NIL);
    }
}

/// A frozen, `Send + Sync` read surface over one manager's node store.
///
/// Obtained from [`crate::PredEngine::node_view`]; pairs with raw
/// [`NodeId`]s (e.g. exported snapshot roots) to let reader threads
/// traverse predicates **without copying any BDD structure** while the
/// owning engine keeps ingesting.
///
/// ## Safety contract
///
/// A view may only be asked about nodes that are **rooted in the owning
/// engine** (a live [`crate::Pred`] clone pins them) for the view's
/// whole useful life. Rooted nodes survive the engine's non-moving
/// mark-sweep with ids and `low`/`high` words intact; unrooted ids may
/// be swept and reused at any time, in which case a reader would walk
/// into unrelated (but allocated, hence memory-safe) nodes and return
/// garbage answers. The one operation that does invalidate a view
/// wholesale is the raw mark-compact [`Bdd::gc`], which remaps ids onto
/// a fresh spine — [`crate::PredEngine`] never calls it, and holders of
/// raw `Bdd`s must not mix it with live views.
#[derive(Clone)]
pub struct NodeView {
    spine: Arc<Spine>,
    num_vars: u32,
}

impl NodeView {
    /// Number of header bits the owning manager reasons about.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Evaluates the predicate rooted at `a` on a concrete header given
    /// as a bit vector indexed by header bit.
    pub fn eval(&self, a: NodeId, bits: &[bool]) -> bool {
        debug_assert!(bits.len() >= self.num_vars as usize);
        let mut cur = a;
        while cur > TRUE {
            let s = self.spine.slot(cur);
            cur = if bits[s.var() as usize] { s.high() } else { s.low() };
        }
        cur == TRUE
    }

    /// Prepares the partial assignment `bits` (indexed by header bit;
    /// `None` leaves the bit free) for [`NodeView::intersects`] probes
    /// against many roots.
    pub fn constrain<'a>(&self, bits: &'a [Option<bool>]) -> Constraint<'a> {
        debug_assert!(bits.len() >= self.num_vars as usize);
        let deepest = (0..self.num_vars).filter(|&v| bits[v as usize].is_some()).max();
        Constraint { bits, deepest }
    }

    /// True when the predicate rooted at `a` is satisfiable under the
    /// partial assignment `c`. This is the snapshot query tier's "does
    /// this class intersect this prefix" primitive.
    ///
    /// A node below the deepest fixed level is satisfiable unless it is
    /// FALSE, so the walk never descends past that level. Down to the
    /// first free variable above it — for a prefix on the leading field,
    /// all the way — the walk is a single path and allocates nothing;
    /// from there it is a guided DFS that forces constrained bits,
    /// explores both branches of free ones and memoizes visited nodes
    /// (satisfiability under a per-variable constraint is a function of
    /// the node alone, so the visited set is sound and the walk is linear
    /// in reachable nodes).
    pub fn intersects(&self, a: NodeId, c: &Constraint<'_>) -> bool {
        let Some(deepest) = c.deepest else {
            return a != FALSE;
        };
        let mut n = a;
        loop {
            if n <= TRUE {
                return n == TRUE;
            }
            let s = self.spine.slot(n);
            if s.var() > deepest {
                return true;
            }
            match c.bits[s.var() as usize] {
                Some(true) => n = s.high(),
                Some(false) => n = s.low(),
                None => break,
            }
        }
        let mut visited = std::collections::HashSet::new();
        let mut stack = vec![n];
        while let Some(n) = stack.pop() {
            if n == TRUE {
                return true;
            }
            if n == FALSE || !visited.insert(n) {
                continue;
            }
            let s = self.spine.slot(n);
            if s.var() > deepest {
                return true;
            }
            match c.bits[s.var() as usize] {
                Some(true) => stack.push(s.high()),
                Some(false) => stack.push(s.low()),
                None => {
                    stack.push(s.low());
                    stack.push(s.high());
                }
            }
        }
        false
    }
}

/// A partial header assignment prepared by [`NodeView::constrain`].
pub struct Constraint<'a> {
    bits: &'a [Option<bool>],
    /// Deepest variable the assignment fixes, if it fixes any.
    deepest: Option<u32>,
}

/// Multiplicative mix of a node key `(var, low, high)` for the
/// unique-table bucket chains. No DoS resistance needed.
#[inline]
fn node_hash(var: u32, low: NodeId, high: NodeId) -> u64 {
    let mut h = (((low as u64) << 32) | high as u64) ^ ((var as u64) << 17);
    h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 29;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 32;
    h
}

/// The unique table's multiplicative mix as a [`std::hash::Hasher`], for
/// in-process tables keyed on ids this program generated itself (node
/// ids, arena indices). No DoS resistance: never key it on outside input.
#[derive(Clone, Copy, Debug, Default)]
pub struct MixHasher(u64);

/// `BuildHasher` for [`MixHasher`]-keyed maps.
pub type MixBuildHasher = std::hash::BuildHasherDefault<MixHasher>;

impl std::hash::Hasher for MixHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(32) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 29;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^ (h >> 32)
    }
}

/// Operation tags for computed-cache keys. Tag 0 marks an empty slot, so
/// every real operation gets a non-zero tag.
const TAG_FREE: u8 = 0;
const TAG_AND: u8 = 1;
const TAG_OR: u8 = 2;
const TAG_XOR: u8 = 3;
const TAG_DIFF: u8 = 4;
const TAG_NOT: u8 = 5;
const TAG_EXISTS: u8 = 6;
/// Number of distinct tags (including `TAG_FREE`).
const NUM_TAGS: usize = 7;

/// Sizing knobs for the computed cache (see [`ComputedCache`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Initial slot count; rounded up to a power of two.
    pub initial_capacity: usize,
    /// Ceiling for thrash-driven growth; rounded up to a power of two.
    pub max_capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            initial_capacity: 1 << 13,
            max_capacity: 1 << 20,
        }
    }
}

/// One computed-cache entry: `op(a, b, c) = result`, stamped with the GC
/// generation at insertion time (`gen`) and a saturating reuse counter
/// (`stamp`) that drives 2-way admission. 20 bytes.
///
/// For binary ops `c` is unused (0 = the FALSE terminal, always live); for
/// `exists` the `b`/`c` words hold the quantified variable range, not node
/// ids.
#[repr(C)]
#[derive(Clone, Copy)]
struct CacheEntry {
    a: NodeId,
    b: NodeId,
    c: NodeId,
    result: NodeId,
    gen: u16,
    tag: u8,
    /// Saturating hit counter: bumped on every honoured lookup, decayed
    /// when the entry survives an admission challenge.
    stamp: u8,
}

const EMPTY_ENTRY: CacheEntry =
    CacheEntry { a: 0, b: 0, c: 0, result: 0, gen: 0, tag: TAG_FREE, stamp: 0 };

/// True when a cache entry is still trustworthy: every node it references
/// is live and was born in a generation no later than the entry's — i.e.
/// the arena slot has not been swept and reused since the result was
/// computed. `exists` entries pack a variable range (not node ids) into
/// `b`/`c`, so only `a` and `result` are checked for them.
#[inline]
fn entry_valid(e: &CacheEntry, slots: &SlotArena) -> bool {
    let ok = |n: NodeId| {
        (n as usize) < slots.len() && {
            let s = slots.slot(n);
            s.var() != FREE_VAR && s.born() as u16 <= e.gen
        }
    };
    match e.tag {
        TAG_EXISTS => ok(e.a) && ok(e.result),
        _ => ok(e.a) && ok(e.b) && ok(e.c) && ok(e.result),
    }
}

#[inline]
fn cache_hash(tag: u8, a: NodeId, b: NodeId, c: NodeId) -> u64 {
    // splitmix64-style finalizer over the packed key; cheap and well mixed.
    let mut h = (((a as u64) << 32) | b as u64) ^ ((c as u64) << 8) ^ tag as u64;
    h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h
}

/// The computed cache: a power-of-two table of 2-entry buckets with
/// op-tagged 3-operand keys and **admission-aware replacement**.
///
/// Lookups and inserts never allocate and touch exactly one bucket (two
/// adjacent 20-byte entries — one cache line). When an insert finds its
/// bucket full of valid entries, it challenges the way with the lower
/// reuse `stamp`: a never-reused victim (stamp 0) is evicted; a reused
/// one survives with its stamp decayed and the insert is **rejected**
/// instead (counted in `admission_rejects`). Long streams therefore
/// stop evicting their own working set: entries that keep hitting keep
/// their seats, transient results lose the challenge.
///
/// Sizing is **workload-driven**: only admission rejects count as
/// growth pressure. A reject means both ways held entries that have
/// demonstrably hit before — contention among the *useful* working
/// set, which a bigger table would retain. Evicting a never-reused
/// (stamp-0) victim is costless churn and does not grow the table, so
/// high-turnover streams keep a small, cache-resident table while
/// reuse-heavy workloads double up to `max_capacity`.
///
/// Staleness across mark-sweep collections is handled *lazily*: every
/// entry records the GC generation it was inserted in, and every arena
/// slot records the generation its current occupant was born in. A hit
/// is honoured only if every referenced node is still live **and** was
/// born no later than the entry — i.e. the slot has not been swept and
/// reused since the result was computed. Sweeps therefore never scan
/// the cache; invalid entries are reclaimed when next touched.
struct ComputedCache {
    entries: Vec<CacheEntry>,
    /// `entries.len() / 2 - 1`; the bucket count is a power of two.
    bucket_mask: usize,
    max_capacity: usize,
    /// Cumulative evictions (valid entries displaced) over the lifetime.
    evictions: u64,
    /// Inserts rejected because the incumbent won the admission challenge.
    admission_rejects: u64,
    /// Admission rejects since the last resize, driving growth.
    pressure_since_grow: u64,
    /// Live entries per tag (approximate: entries invalidated by a sweep
    /// stay counted until their slot is reclaimed).
    occupancy: [u64; NUM_TAGS],
}

impl ComputedCache {
    fn new(config: CacheConfig) -> Self {
        let cap = config.initial_capacity.max(2).next_power_of_two();
        let max = config.max_capacity.max(cap).next_power_of_two();
        ComputedCache {
            entries: vec![EMPTY_ENTRY; cap],
            bucket_mask: cap / 2 - 1,
            max_capacity: max,
            evictions: 0,
            admission_rejects: 0,
            pressure_since_grow: 0,
            occupancy: [0; NUM_TAGS],
        }
    }

    fn capacity(&self) -> usize {
        self.entries.len()
    }

    fn approx_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<CacheEntry>()
    }

    /// Looks up `op(a, b, c)`, validating any key match against the
    /// current arena state via [`entry_valid`]. Hits bump the entry's
    /// reuse stamp; stale matches are reclaimed on the spot.
    #[inline]
    fn get(
        &mut self,
        tag: u8,
        a: NodeId,
        b: NodeId,
        c: NodeId,
        slots: &SlotArena,
    ) -> Option<NodeId> {
        let i0 = ((cache_hash(tag, a, b, c) as usize) & self.bucket_mask) << 1;
        for idx in [i0, i0 | 1] {
            let e = self.entries[idx];
            if e.tag == tag && e.a == a && e.b == b && e.c == c {
                if entry_valid(&e, slots) {
                    self.entries[idx].stamp = e.stamp.saturating_add(1);
                    return Some(e.result);
                }
                self.occupancy[e.tag as usize] -= 1;
                self.entries[idx] = EMPTY_ENTRY;
                return None;
            }
        }
        None
    }

    /// Inserts `op(a, b, c) = result` under the admission policy
    /// described on the type.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn insert(
        &mut self,
        tag: u8,
        a: NodeId,
        b: NodeId,
        c: NodeId,
        result: NodeId,
        gen: u16,
        slots: &SlotArena,
    ) {
        let i0 = ((cache_hash(tag, a, b, c) as usize) & self.bucket_mask) << 1;
        let i1 = i0 | 1;
        // Same key already seated: refresh in place, keeping its stamp.
        for idx in [i0, i1] {
            let e = &mut self.entries[idx];
            if e.tag == tag && e.a == a && e.b == b && e.c == c {
                e.result = result;
                e.gen = gen;
                return;
            }
        }
        let fresh = CacheEntry { a, b, c, result, gen, tag, stamp: 0 };
        // A free or sweep-invalidated way: take the seat.
        for idx in [i0, i1] {
            let e = self.entries[idx];
            if e.tag == TAG_FREE {
                self.entries[idx] = fresh;
                self.occupancy[tag as usize] += 1;
                return;
            }
            if !entry_valid(&e, slots) {
                self.occupancy[e.tag as usize] -= 1;
                self.entries[idx] = fresh;
                self.occupancy[tag as usize] += 1;
                return;
            }
        }
        // Bucket full of valid entries: challenge the lower-stamp way.
        let victim = if self.entries[i0].stamp <= self.entries[i1].stamp { i0 } else { i1 };
        let v = self.entries[victim];
        if v.stamp == 0 {
            self.occupancy[v.tag as usize] -= 1;
            self.entries[victim] = fresh;
            self.occupancy[tag as usize] += 1;
            self.evictions += 1;
        } else {
            self.entries[victim].stamp = v.stamp - 1;
            self.admission_rejects += 1;
            self.pressure_since_grow += 1;
            if self.pressure_since_grow > self.entries.len() as u64
                && self.entries.len() < self.max_capacity
            {
                self.grow();
            }
        }
    }

    /// Doubles the table, rehashing surviving entries bucket-by-bucket.
    /// When two rehashed entries land in the same full bucket the lower
    /// reuse stamp loses — it is a cache, dropping is safe.
    fn grow(&mut self) {
        let old = std::mem::replace(
            &mut self.entries,
            vec![EMPTY_ENTRY; (self.bucket_mask + 1) * 4],
        );
        self.bucket_mask = self.entries.len() / 2 - 1;
        self.pressure_since_grow = 0;
        self.occupancy = [0; NUM_TAGS];
        for e in old {
            if e.tag == TAG_FREE {
                continue;
            }
            let i0 = ((cache_hash(e.tag, e.a, e.b, e.c) as usize) & self.bucket_mask) << 1;
            let i1 = i0 | 1;
            let seat = if self.entries[i0].tag == TAG_FREE {
                i0
            } else if self.entries[i1].tag == TAG_FREE {
                i1
            } else {
                let victim =
                    if self.entries[i0].stamp <= self.entries[i1].stamp { i0 } else { i1 };
                if self.entries[victim].stamp >= e.stamp {
                    continue;
                }
                self.occupancy[self.entries[victim].tag as usize] -= 1;
                victim
            };
            self.occupancy[e.tag as usize] += 1;
            self.entries[seat] = e;
        }
    }

    /// Drops every entry (used when node ids are remapped wholesale).
    fn clear(&mut self) {
        self.entries.fill(EMPTY_ENTRY);
        self.occupancy = [0; NUM_TAGS];
    }
}

/// Counters describing the size and activity of a manager.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BddStats {
    /// Live node count (including the two terminals).
    pub nodes: usize,
    /// Number of top-level Boolean operations performed so far. This is the
    /// "#predicate operations" metric of Table 3 in the paper.
    pub ops: u64,
    /// Number of garbage collections performed.
    pub gcs: u64,
    /// Approximate resident bytes (arena + bucket heads + caches).
    pub approx_bytes: usize,
}

/// A shared BDD manager over a fixed number of Boolean variables.
///
/// All predicates produced by one manager live in a single arena and share
/// structure. The manager is deliberately `!Sync`: Flash gives each subspace
/// verifier its own manager, mirroring the paper's one-verifier-per-subspace
/// design, so no locking is needed on the hot path.
pub struct Bdd {
    /// The fused arena: nodes, unique-table chains, free list, birth
    /// stamps and mark bits, all in 16 bytes per slot; chunked and
    /// non-moving so [`NodeView`] readers stay valid across growth.
    slots: SlotArena,
    /// Unique-table bucket heads; always a power of two, chains run
    /// through `Slot::next`.
    heads: Vec<u32>,
    cache: ComputedCache,
    /// Head of the free list threaded through `Slot::next`.
    free_head: u32,
    free_count: usize,
    /// Times `mk` satisfied an allocation from the free list instead of
    /// growing the arena.
    freelist_reuses: u64,
    /// Coarse cell-occupancy probes answered (see [`Bdd::cell_mask`]).
    cell_probes: u64,
    /// Full `diff` recursions skipped by [`Bdd::diff_assuming_disjoint`].
    disjoint_skips: u64,
    num_vars: u32,
    ops: u64,
    gcs: u64,
    /// 15-bit birth/validity stamp, bumped per sweep; wraps via a rare
    /// epoch reset (see [`Bdd::bump_stamp`]).
    stamp: u32,
    /// While > 0, top-level operations are not added to the paper's
    /// "#predicate operations" metric (see [`crate::OpCounterGuard`]).
    quiet_depth: u32,
    /// Per-op-kind call and computed-cache hit/miss tallies.
    tally: [OpStats; OpKind::COUNT],
}

impl Bdd {
    /// Creates a manager over `num_vars` Boolean variables (bits of the
    /// packet header). Variable 0 is tested first.
    pub fn new(num_vars: u32) -> Self {
        Self::with_config(num_vars, CacheConfig::default())
    }

    /// Creates a manager with explicit computed-cache sizing.
    pub fn with_config(num_vars: u32, cache: CacheConfig) -> Self {
        assert!(num_vars <= FREE_VAR, "at most {FREE_VAR} variables supported");
        let mut bdd = Bdd {
            slots: SlotArena::new(),
            heads: vec![NIL; 1 << 13],
            cache: ComputedCache::new(cache),
            free_head: NIL,
            free_count: 0,
            freelist_reuses: 0,
            cell_probes: 0,
            disjoint_skips: 0,
            num_vars,
            ops: 0,
            gcs: 0,
            stamp: 0,
            quiet_depth: 0,
            tally: [OpStats::default(); OpKind::COUNT],
        };
        bdd.genesis();
        bdd
    }

    /// Replaces the computed cache with an empty one of the given sizing.
    pub(crate) fn set_cache_config(&mut self, cache: CacheConfig) {
        self.cache = ComputedCache::new(cache);
    }

    /// The single genesis site: resets the arena to exactly the two
    /// terminal slots with empty bucket chains and free list. Callers
    /// must have dropped or remapped every outstanding `NodeId` and
    /// cleared the computed cache.
    fn genesis(&mut self) {
        self.slots.reset_to_terminals();
        self.heads.fill(NIL);
        self.free_head = NIL;
        self.free_count = 0;
        self.stamp = 0;
    }

    /// Number of header bits this manager reasons about.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Snapshot of size/activity counters.
    pub fn stats(&self) -> BddStats {
        BddStats {
            nodes: self.live_count(),
            ops: self.ops,
            gcs: self.gcs,
            approx_bytes: self.approx_bytes(),
        }
    }

    /// Number of live nodes (arena slots minus swept free slots).
    pub(crate) fn live_count(&self) -> usize {
        self.slots.len() - self.free_count
    }

    /// Total arena slots allocated so far (live + reusable).
    pub(crate) fn allocated_count(&self) -> usize {
        self.slots.len()
    }

    /// Entries in the unique (hash-consing) chains: every live decision
    /// node. Terminals are not chained.
    pub(crate) fn unique_len(&self) -> usize {
        self.live_count() - 2
    }

    /// Per-op-kind call / cache tallies.
    pub(crate) fn tally(&self) -> &[OpStats; OpKind::COUNT] {
        &self.tally
    }

    /// Cumulative computed-cache evictions (valid entries displaced).
    pub fn cache_evictions(&self) -> u64 {
        self.cache.evictions
    }

    /// Inserts the admission policy rejected in favour of the incumbent.
    pub fn cache_admission_rejects(&self) -> u64 {
        self.cache.admission_rejects
    }

    /// Current computed-cache slot count.
    pub fn cache_capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Approximate live computed-cache entries per op kind.
    pub fn cache_occupancy(&self) -> [u64; OpKind::COUNT] {
        let mut by_op = [0u64; OpKind::COUNT];
        by_op[OpKind::And as usize] = self.cache.occupancy[TAG_AND as usize];
        by_op[OpKind::Or as usize] = self.cache.occupancy[TAG_OR as usize];
        by_op[OpKind::Xor as usize] = self.cache.occupancy[TAG_XOR as usize];
        by_op[OpKind::Diff as usize] = self.cache.occupancy[TAG_DIFF as usize];
        by_op[OpKind::Not as usize] = self.cache.occupancy[TAG_NOT as usize];
        by_op[OpKind::Exists as usize] = self.cache.occupancy[TAG_EXISTS as usize];
        by_op
    }

    /// Times `mk` reused a swept arena slot instead of growing the arena.
    pub fn freelist_reuses(&self) -> u64 {
        self.freelist_reuses
    }

    /// Cell-occupancy probes answered by [`Bdd::cell_mask`].
    pub fn cell_probes(&self) -> u64 {
        self.cell_probes
    }

    /// Full `diff` recursions skipped by [`Bdd::diff_assuming_disjoint`].
    pub fn disjoint_skips(&self) -> u64 {
        self.disjoint_skips
    }

    pub(crate) fn quiet_enter(&mut self) {
        self.quiet_depth += 1;
    }

    pub(crate) fn quiet_exit(&mut self) {
        debug_assert!(self.quiet_depth > 0, "unbalanced quiet guard");
        self.quiet_depth = self.quiet_depth.saturating_sub(1);
    }

    /// Counts one top-level operation of kind `k`: per-kind calls always,
    /// the paper's "#predicate operations" metric only outside quiet
    /// sections.
    #[inline]
    fn count_op(&mut self, k: OpKind) {
        self.tally[k as usize].calls += 1;
        if self.quiet_depth == 0 {
            self.ops += 1;
        }
    }

    #[inline]
    fn cache_hit(&mut self, k: OpKind) {
        self.tally[k as usize].cache_hits += 1;
    }

    #[inline]
    fn cache_miss(&mut self, k: OpKind) {
        self.tally[k as usize].cache_misses += 1;
    }

    /// Approximate memory footprint in bytes: the fused arena plus the
    /// bucket heads plus the computed cache. Used for the "Memory Usage"
    /// column of Table 3.
    pub fn approx_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Slot>()
            + self.heads.len() * std::mem::size_of::<u32>()
            + self.cache.approx_bytes()
    }

    /// Total number of top-level Boolean operations performed.
    pub fn op_count(&self) -> u64 {
        self.ops
    }

    /// Resets the predicate-operation counter (used between benchmark runs).
    pub fn reset_op_count(&mut self) {
        self.ops = 0;
    }

    #[inline]
    fn var_of(&self, n: NodeId) -> u32 {
        self.slots.slot(n).var()
    }

    #[inline]
    fn low_of(&self, n: NodeId) -> NodeId {
        self.slots.slot(n).low()
    }

    #[inline]
    fn high_of(&self, n: NodeId) -> NodeId {
        self.slots.slot(n).high()
    }

    /// A frozen, thread-safe read view of this manager's node store.
    /// See [`NodeView`] for the rooted-nodes-only safety contract.
    pub(crate) fn node_view(&self) -> NodeView {
        NodeView {
            spine: self.slots.spine.clone(),
            num_vars: self.num_vars,
        }
    }

    /// Hash-consing constructor: returns the canonical node for
    /// `if var then high else low`, applying the reduction rule.
    pub(crate) fn mk(&mut self, var: u32, low: NodeId, high: NodeId) -> NodeId {
        if low == high {
            return low;
        }
        let h = (node_hash(var, low, high) as usize) & (self.heads.len() - 1);
        let mut cur = self.heads[h];
        while cur != NIL {
            let s = self.slots.slot(cur);
            if s.low() == low && s.high() == high && s.var() == var {
                return cur;
            }
            cur = s.next();
        }
        let meta = var | (self.stamp << 16);
        let id = if self.free_head != NIL {
            let id = self.free_head;
            let s = self.slots.slot(id);
            debug_assert_eq!(s.var(), FREE_VAR);
            self.free_head = s.next();
            self.free_count -= 1;
            self.freelist_reuses += 1;
            // Restamping the slot's birth generation is what invalidates
            // any computed-cache entry minted against its old occupant.
            s.store(low, high, meta, self.heads[h]);
            id
        } else {
            self.slots.push(low, high, meta, self.heads[h])
        };
        self.heads[h] = id;
        if self.live_count() > self.heads.len() {
            self.grow_buckets();
        }
        id
    }

    /// Doubles the bucket array and rebuilds every chain with one linear
    /// pass over the arena. Free-list links are untouched.
    fn grow_buckets(&mut self) {
        let new_len = self.heads.len() * 2;
        self.heads.clear();
        self.heads.resize(new_len, NIL);
        let mask = new_len - 1;
        for i in 2..self.slots.len() as u32 {
            let s = self.slots.slot(i);
            if s.var() >= FREE_VAR {
                continue;
            }
            let h = (node_hash(s.var(), s.low(), s.high()) as usize) & mask;
            s.next.store(self.heads[h], Relaxed);
            self.heads[h] = i;
        }
    }

    /// The predicate "bit `var` is 1".
    pub fn var(&mut self, var: u32) -> NodeId {
        debug_assert!(var < self.num_vars, "variable out of range");
        self.mk(var, FALSE, TRUE)
    }

    /// The predicate "bit `var` is 0".
    pub fn nvar(&mut self, var: u32) -> NodeId {
        debug_assert!(var < self.num_vars, "variable out of range");
        self.mk(var, TRUE, FALSE)
    }

    /// Conjunction `a ∧ b`. Counts as one predicate operation.
    pub fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.count_op(OpKind::And);
        self.and_rec(a, b)
    }

    /// Disjunction `a ∨ b`. Counts as one predicate operation.
    pub fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.count_op(OpKind::Or);
        self.or_rec(a, b)
    }

    /// Negation `¬a`. Counts as one predicate operation.
    pub fn not(&mut self, a: NodeId) -> NodeId {
        self.count_op(OpKind::Not);
        self.not_rec(a)
    }

    /// Difference `a ∧ ¬b`. Counts as one predicate operation (Flash uses
    /// this to subtract covered header space without materializing `¬b`).
    pub fn diff(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.count_op(OpKind::Diff);
        self.diff_rec(a, b)
    }

    /// Difference `a ∧ ¬b` for operands already **proved** disjoint
    /// (`a ∧ b = FALSE`), in which case the answer is `a` itself and the
    /// whole `op_diff` recursion is skipped. Soundness is the caller's
    /// obligation — e.g. via non-overlapping [`Bdd::cell_mask`]s, whose
    /// intersection law (`cell_mask(a ∧ b) ⊆ cell_mask(a) &
    /// cell_mask(b)`) makes an empty mask intersection a proof. Debug
    /// builds verify the claim; release builds trust it. Counts as one
    /// predicate operation (it replaces a diff).
    pub fn diff_assuming_disjoint(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.count_op(OpKind::Diff);
        self.disjoint_skips += 1;
        #[cfg(debug_assertions)]
        {
            self.quiet_enter();
            let inter = self.and_rec(a, b);
            self.quiet_exit();
            assert_eq!(
                inter, FALSE,
                "diff_assuming_disjoint called on overlapping operands"
            );
        }
        let _ = b;
        a
    }

    /// Exclusive or `a ⊕ b`. Counts as one predicate operation.
    pub fn xor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.count_op(OpKind::Xor);
        self.xor_rec(a, b)
    }

    /// If-then-else `(c ∧ t) ∨ (¬c ∧ e)`, composed from cached primitives.
    pub fn ite(&mut self, c: NodeId, t: NodeId, e: NodeId) -> NodeId {
        let ct = self.and(c, t);
        let ne = self.diff(e, c);
        self.or(ct, ne)
    }

    /// N-ary disjunction `⋁ operands` via a balanced pairwise reduction.
    ///
    /// Operands are sorted and deduplicated, `FALSE` (the identity) is
    /// dropped, and `TRUE` (the absorbing element) short-circuits the whole
    /// reduction. The reduction then combines adjacent pairs per round
    /// instead of left-folding, so intermediates are balanced subtrees that
    /// recur across calls and stay cache-keyable. Counts as **one**
    /// predicate operation regardless of operand count — the paper's metric
    /// counts algorithm-issued operations, and the batch is one of them.
    pub fn or_many(&mut self, operands: &[NodeId]) -> NodeId {
        self.count_op(OpKind::Or);
        let mut level = Vec::with_capacity(operands.len());
        for &n in operands {
            if n == TRUE {
                return TRUE;
            }
            if n != FALSE {
                level.push(n);
            }
        }
        self.reduce_pairwise(level, TAG_OR)
    }

    /// N-ary conjunction `⋀ operands`, dual of [`Bdd::or_many`]: `TRUE` is
    /// the identity, `FALSE` absorbs. Counts as one predicate operation.
    pub fn and_many(&mut self, operands: &[NodeId]) -> NodeId {
        self.count_op(OpKind::And);
        let mut level = Vec::with_capacity(operands.len());
        for &n in operands {
            if n == FALSE {
                return FALSE;
            }
            if n != TRUE {
                level.push(n);
            }
        }
        if level.is_empty() {
            return TRUE;
        }
        self.reduce_pairwise(level, TAG_AND)
    }

    /// Balanced pairwise reduction rounds, re-sorting and re-deduplicating
    /// between rounds so structurally equal intermediates merge early.
    fn reduce_pairwise(&mut self, mut level: Vec<NodeId>, tag: u8) -> NodeId {
        let absorbing = if tag == TAG_OR { TRUE } else { FALSE };
        let identity = if tag == TAG_OR { FALSE } else { TRUE };
        loop {
            level.sort_unstable();
            level.dedup();
            match level.len() {
                0 => return identity,
                1 => return level[0],
                _ => {}
            }
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                let r = match pair {
                    [a] => *a,
                    [a, b] => {
                        if tag == TAG_OR {
                            self.or_rec(*a, *b)
                        } else {
                            self.and_rec(*a, *b)
                        }
                    }
                    _ => unreachable!(),
                };
                if r == absorbing {
                    return absorbing;
                }
                next.push(r);
            }
            level = next;
        }
    }

    /// Fused MR² shadow kernel: `a ∧ ¬(b₁ ∨ b₂ ∨ …)` computed as
    /// successive differences `((a ∧ ¬b₁) ∧ ¬b₂) ∧ …` — the union is never
    /// materialized, and the running remainder shrinks monotonically with
    /// an early exit at `FALSE`. Counts as one predicate operation.
    pub fn diff_or(&mut self, a: NodeId, bs: &[NodeId]) -> NodeId {
        self.count_op(OpKind::Diff);
        let mut acc = a;
        for &b in bs {
            if acc == FALSE {
                return FALSE;
            }
            acc = self.diff_rec(acc, b);
        }
        acc
    }

    fn and_rec(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if a == b {
            return a;
        }
        if a == FALSE || b == FALSE {
            return FALSE;
        }
        if a == TRUE {
            return b;
        }
        if b == TRUE {
            return a;
        }
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        if let Some(r) = self.cache.get(TAG_AND, a, b, 0, &self.slots) {
            self.cache_hit(OpKind::And);
            return r;
        }
        self.cache_miss(OpKind::And);
        let (va, vb) = (self.var_of(a), self.var_of(b));
        let top = va.min(vb);
        let (a0, a1) = if va == top {
            (self.low_of(a), self.high_of(a))
        } else {
            (a, a)
        };
        let (b0, b1) = if vb == top {
            (self.low_of(b), self.high_of(b))
        } else {
            (b, b)
        };
        let low = self.and_rec(a0, b0);
        let high = self.and_rec(a1, b1);
        let r = self.mk(top, low, high);
        let gen = self.stamp as u16;
        self.cache.insert(TAG_AND, a, b, 0, r, gen, &self.slots);
        r
    }

    fn or_rec(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if a == b {
            return a;
        }
        if a == TRUE || b == TRUE {
            return TRUE;
        }
        if a == FALSE {
            return b;
        }
        if b == FALSE {
            return a;
        }
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        if let Some(r) = self.cache.get(TAG_OR, a, b, 0, &self.slots) {
            self.cache_hit(OpKind::Or);
            return r;
        }
        self.cache_miss(OpKind::Or);
        let (va, vb) = (self.var_of(a), self.var_of(b));
        let top = va.min(vb);
        let (a0, a1) = if va == top {
            (self.low_of(a), self.high_of(a))
        } else {
            (a, a)
        };
        let (b0, b1) = if vb == top {
            (self.low_of(b), self.high_of(b))
        } else {
            (b, b)
        };
        let low = self.or_rec(a0, b0);
        let high = self.or_rec(a1, b1);
        let r = self.mk(top, low, high);
        let gen = self.stamp as u16;
        self.cache.insert(TAG_OR, a, b, 0, r, gen, &self.slots);
        r
    }

    fn not_rec(&mut self, a: NodeId) -> NodeId {
        match a {
            FALSE => return TRUE,
            TRUE => return FALSE,
            _ => {}
        }
        if let Some(r) = self.cache.get(TAG_NOT, a, 0, 0, &self.slots) {
            self.cache_hit(OpKind::Not);
            return r;
        }
        self.cache_miss(OpKind::Not);
        let var = self.var_of(a);
        let (l, h) = (self.low_of(a), self.high_of(a));
        let low = self.not_rec(l);
        let high = self.not_rec(h);
        let r = self.mk(var, low, high);
        let gen = self.stamp as u16;
        self.cache.insert(TAG_NOT, a, 0, 0, r, gen, &self.slots);
        self.cache.insert(TAG_NOT, r, 0, 0, a, gen, &self.slots);
        r
    }

    fn diff_rec(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if a == FALSE || b == TRUE || a == b {
            return FALSE;
        }
        if b == FALSE {
            return a;
        }
        if a == TRUE {
            return self.not_rec(b);
        }
        if let Some(r) = self.cache.get(TAG_DIFF, a, b, 0, &self.slots) {
            self.cache_hit(OpKind::Diff);
            return r;
        }
        self.cache_miss(OpKind::Diff);
        let (va, vb) = (self.var_of(a), self.var_of(b));
        let top = va.min(vb);
        let (a0, a1) = if va == top {
            (self.low_of(a), self.high_of(a))
        } else {
            (a, a)
        };
        let (b0, b1) = if vb == top {
            (self.low_of(b), self.high_of(b))
        } else {
            (b, b)
        };
        let low = self.diff_rec(a0, b0);
        let high = self.diff_rec(a1, b1);
        let r = self.mk(top, low, high);
        let gen = self.stamp as u16;
        self.cache.insert(TAG_DIFF, a, b, 0, r, gen, &self.slots);
        r
    }

    fn xor_rec(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if a == b {
            return FALSE;
        }
        if a == FALSE {
            return b;
        }
        if b == FALSE {
            return a;
        }
        if a == TRUE {
            return self.not_rec(b);
        }
        if b == TRUE {
            return self.not_rec(a);
        }
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        if let Some(r) = self.cache.get(TAG_XOR, a, b, 0, &self.slots) {
            self.cache_hit(OpKind::Xor);
            return r;
        }
        self.cache_miss(OpKind::Xor);
        let (va, vb) = (self.var_of(a), self.var_of(b));
        let top = va.min(vb);
        let (a0, a1) = if va == top {
            (self.low_of(a), self.high_of(a))
        } else {
            (a, a)
        };
        let (b0, b1) = if vb == top {
            (self.low_of(b), self.high_of(b))
        } else {
            (b, b)
        };
        let low = self.xor_rec(a0, b0);
        let high = self.xor_rec(a1, b1);
        let r = self.mk(top, low, high);
        let gen = self.stamp as u16;
        self.cache.insert(TAG_XOR, a, b, 0, r, gen, &self.slots);
        r
    }

    /// Existential quantification of a contiguous variable range: `∃ x_offset … x_{offset+width-1}. a` — the header set
    /// reachable by assigning the field arbitrarily. This is the
    /// primitive behind header-rewrite support (NAT/tunnels): rewriting a
    /// field first forgets its old value, then constrains the new one.
    /// Counts as one predicate operation.
    pub fn exists_range(&mut self, a: NodeId, offset: u32, width: u32) -> NodeId {
        self.count_op(OpKind::Exists);
        self.exists_rec(a, offset, offset + width)
    }

    fn exists_rec(&mut self, a: NodeId, lo: u32, hi: u32) -> NodeId {
        if a <= TRUE {
            return a;
        }
        let var = self.var_of(a);
        if var >= hi {
            // Entirely below the quantified range: unchanged.
            return a;
        }
        // Shared-cache memoization keyed on the variable range (not node
        // ids in `b`/`c`), so repeated quantifications of the same field —
        // the rewrite_field hot path — hit across calls.
        if let Some(r) = self.cache.get(TAG_EXISTS, a, lo, hi, &self.slots) {
            self.cache_hit(OpKind::Exists);
            return r;
        }
        self.cache_miss(OpKind::Exists);
        let (l, h) = (self.low_of(a), self.high_of(a));
        let low = self.exists_rec(l, lo, hi);
        let high = self.exists_rec(h, lo, hi);
        let r = if var >= lo {
            // A quantified variable: either branch may be taken.
            self.or_rec(low, high)
        } else {
            self.mk(var, low, high)
        };
        let gen = self.stamp as u16;
        self.cache.insert(TAG_EXISTS, a, lo, hi, r, gen, &self.slots);
        r
    }

    /// Rewrites the `width`-bit field at `offset` to the constant `value`
    /// in every header selected by `a`: `(∃ field. a) ∧ (field = value)`.
    /// The primitive of tunnel/NAT modeling (§7 of the paper). Counts the
    /// quantification and conjunction as predicate operations.
    pub fn rewrite_field(&mut self, a: NodeId, offset: u32, width: u32, value: u64) -> NodeId {
        // The composite is tallied per-kind; its `ops` contribution comes
        // from the quantification and conjunction below, as before.
        self.tally[OpKind::Rewrite as usize].calls += 1;
        let forgotten = self.exists_range(a, offset, width);
        let constrained = self.exact(offset, width, value);
        self.and(forgotten, constrained)
    }

    /// True when the two predicates select disjoint header sets.
    pub fn disjoint(&mut self, a: NodeId, b: NodeId) -> bool {
        self.and(a, b) == FALSE
    }

    /// True when `a` selects a subset of the headers `b` selects.
    pub fn implies(&mut self, a: NodeId, b: NodeId) -> bool {
        self.diff(a, b) == FALSE
    }

    /// Number of satisfying assignments over all `num_vars` variables,
    /// as `f64` (header spaces easily exceed `u64`; the paper's header
    /// space is 2^104 in the general multi-field case).
    pub fn sat_count(&self, a: NodeId) -> f64 {
        let mut memo: HashMap<NodeId, f64> = HashMap::new();
        let frac = self.sat_frac(a, &mut memo);
        frac * 2f64.powi(self.num_vars as i32)
    }

    /// Fraction of the header space selected by `a`, in `[0, 1]`.
    pub fn sat_fraction(&self, a: NodeId) -> f64 {
        let mut memo: HashMap<NodeId, f64> = HashMap::new();
        self.sat_frac(a, &mut memo)
    }

    fn sat_frac(&self, a: NodeId, memo: &mut HashMap<NodeId, f64>) -> f64 {
        match a {
            FALSE => return 0.0,
            TRUE => return 1.0,
            _ => {}
        }
        if let Some(&f) = memo.get(&a) {
            return f;
        }
        let l = self.sat_frac(self.low_of(a), memo);
        let h = self.sat_frac(self.high_of(a), memo);
        let f = 0.5 * (l + h);
        memo.insert(a, f);
        f
    }

    /// Extracts one satisfying assignment as a bit vector (length
    /// `num_vars`, indexed by header bit), or `None` when the
    /// predicate is false. Unconstrained bits are reported as `false`.
    pub fn any_sat(&self, a: NodeId) -> Option<Vec<bool>> {
        if a == FALSE {
            return None;
        }
        let mut bits = vec![false; self.num_vars as usize];
        let mut cur = a;
        while cur != TRUE {
            let v = self.var_of(cur) as usize;
            if self.low_of(cur) != FALSE {
                bits[v] = false;
                cur = self.low_of(cur);
            } else {
                bits[v] = true;
                cur = self.high_of(cur);
            }
        }
        Some(bits)
    }

    /// Evaluates the predicate on a concrete header given as a bit vector
    /// indexed by header bit.
    pub fn eval(&self, a: NodeId, bits: &[bool]) -> bool {
        let mut cur = a;
        while cur != TRUE && cur != FALSE {
            cur = if bits[self.var_of(cur) as usize] { self.high_of(cur) } else { self.low_of(cur) };
        }
        cur == TRUE
    }

    /// Coarse cell-occupancy probe: partitions the `k` header
    /// bits starting at `offset` into `2^k` cells and returns a bitmask
    /// whose bit `c` is set iff the predicate is satisfiable somewhere in
    /// cell `c` (i.e. for some assignment of the remaining bits). `k` is
    /// capped at 6 so the mask fits in a `u64`.
    ///
    /// The walk visits the cell variables in order (the first one is the
    /// cell number's most significant bit) and never descends past the
    /// last of them, so it touches at most `O(2^k · k)` node/depth pairs
    /// regardless of predicate size — far cheaper than even one `and`
    /// against a real operand. Exact laws the overlap index relies on:
    /// `cell_mask(a ∨ b) = cell_mask(a) | cell_mask(b)` and
    /// `cell_mask(a ∧ b) ⊆ cell_mask(a) & cell_mask(b)` — so an empty
    /// intersection of masks **proves** the predicates disjoint.
    pub fn cell_mask(&mut self, a: NodeId, offset: u32, k: u32) -> u64 {
        debug_assert!((1..=6).contains(&k), "cell mask width must be 1..=6");
        self.cell_probes += 1;
        let mut cv = [0u32; 6];
        for i in 0..k {
            cv[i as usize] = offset + i;
        }
        let mut mask = 0u64;
        self.cell_walk(a, &cv[..k as usize], 0, 0, &mut mask);
        mask
    }

    /// Radix probe for index structures that mirror the diagram: fixes the
    /// first `6 · path.len()` levels to the cells in `path`
    /// (cell `i` assigns levels `6i..6i+6`, first level in the most
    /// significant bit — the cell numbering of [`Bdd::cell_mask`]) and
    /// returns the occupancy mask of the next `k` levels: bit `c` is set
    /// iff the restricted predicate is satisfiable with those levels
    /// equal to `c`.
    ///
    /// Every level above the cells is fixed, so the walk is one root-to-
    /// node descent of at most `6 · path.len()` steps followed by the
    /// bounded `O(2^k · k)` cell walk, whatever the predicate's size. It
    /// allocates nothing. The laws of [`Bdd::cell_mask`] hold under any
    /// fixed path: exact under `∨`, a superset under `∧`.
    pub fn level_mask(&mut self, a: NodeId, path: &[u8], k: u32) -> u64 {
        debug_assert!((1..=6).contains(&k), "cell mask width must be 1..=6");
        self.cell_probes += 1;
        let base = 6 * path.len() as u32;
        let mut n = a;
        loop {
            let v = self.var_of(n); // terminals sit beyond any real level
            if v >= base {
                break;
            }
            let bit = (path[(v / 6) as usize] >> (5 - v % 6)) & 1;
            n = if bit == 1 { self.high_of(n) } else { self.low_of(n) };
        }
        let mut cv = [0u32; 6];
        for i in 0..k {
            cv[i as usize] = base + i;
        }
        let mut mask = 0u64;
        self.cell_walk(n, &cv[..k as usize], 0, 0, &mut mask);
        mask
    }

    /// The shared walk behind the cell probes: ORs into `mask` every cell
    /// (an assignment of the ascending levels `cv`, `depth` of
    /// them already decided as `prefix`) in which `n` is satisfiable.
    fn cell_walk(&self, n: NodeId, cv: &[u32], depth: usize, prefix: u64, mask: &mut u64) {
        if n == FALSE {
            return;
        }
        let k = cv.len();
        if depth == k {
            *mask |= 1u64 << prefix;
            return;
        }
        let v = self.var_of(n); // terminals sit beyond any real level
        if v > cv[k - 1] {
            // Tests nothing in the remaining cell bits and is not FALSE:
            // satisfiable in every cell under this prefix.
            let span = 1u64 << (k - depth);
            *mask |= if span == 64 { u64::MAX } else { ((1u64 << span) - 1) << (prefix * span) };
        } else if v < cv[depth] {
            // A non-cell variable before the next cell bit: both
            // branches continue at the same depth.
            self.cell_walk(self.low_of(n), cv, depth, prefix, mask);
            self.cell_walk(self.high_of(n), cv, depth, prefix, mask);
        } else if v == cv[depth] {
            self.cell_walk(self.low_of(n), cv, depth + 1, prefix << 1, mask);
            self.cell_walk(self.high_of(n), cv, depth + 1, (prefix << 1) | 1, mask);
        } else {
            // Node skips this cell bit: unconstrained on it.
            self.cell_walk(n, cv, depth + 1, prefix << 1, mask);
            self.cell_walk(n, cv, depth + 1, (prefix << 1) | 1, mask);
        }
    }

    /// The support set of `a`: the sorted list of variables
    /// tested anywhere in the diagram. Used to decide whether a predicate
    /// is constrained on the indexed field at all.
    pub fn support(&self, a: NodeId) -> Vec<u32> {
        let mut seen = std::collections::HashSet::new();
        let mut vars = std::collections::BTreeSet::new();
        let mut stack = vec![a];
        while let Some(n) = stack.pop() {
            if n <= TRUE || !seen.insert(n) {
                continue;
            }
            vars.insert(self.var_of(n));
            stack.push(self.low_of(n));
            stack.push(self.high_of(n));
        }
        vars.into_iter().collect()
    }

    /// Number of decision nodes reachable from `a` (excluding terminals) —
    /// the conventional "BDD size" measure.
    pub fn size_of(&self, a: NodeId) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![a];
        while let Some(n) = stack.pop() {
            if n <= TRUE || !seen.insert(n) {
                continue;
            }
            stack.push(self.low_of(n));
            stack.push(self.high_of(n));
        }
        seen.len()
    }

    /// Mark-compact garbage collection.
    ///
    /// Retains exactly the nodes reachable from `roots`, rebuilds the arena
    /// and unique chains via [`Bdd::genesis`], drops the operation caches,
    /// and returns the new ids of the roots (in input order). Every
    /// `NodeId` not passed as a root is invalidated.
    pub fn gc(&mut self, roots: &[NodeId]) -> Vec<NodeId> {
        self.gcs += 1;
        // A fresh spine: ids are remapped wholesale, so any outstanding
        // [`NodeView`] over the old spine is invalidated (see its docs).
        let old = std::mem::replace(&mut self.slots, SlotArena::new());
        // Node ids are remapped wholesale, so no cached result survives.
        self.cache.clear();
        self.genesis();

        let mut remap: HashMap<NodeId, NodeId> = HashMap::new();
        remap.insert(FALSE, FALSE);
        remap.insert(TRUE, TRUE);

        // Iterative post-order copy so deep chains do not overflow the stack.
        for &root in roots {
            let mut stack = vec![(root, false)];
            while let Some((n, expanded)) = stack.pop() {
                if remap.contains_key(&n) {
                    continue;
                }
                let s = old.slot(n);
                let (l, h, var) = (s.low(), s.high(), s.var());
                if expanded {
                    let low = remap[&l];
                    let high = remap[&h];
                    let id = self.mk(var, low, high);
                    remap.insert(n, id);
                } else {
                    stack.push((n, true));
                    if !remap.contains_key(&h) {
                        stack.push((h, false));
                    }
                    if !remap.contains_key(&l) {
                        stack.push((l, false));
                    }
                }
            }
        }
        roots.iter().map(|r| remap[r]).collect()
    }

    /// Non-moving mark-sweep garbage collection: the in-place counterpart of
    /// [`Bdd::gc`] used by the [`crate::PredEngine`]. Nodes reachable from
    /// `roots` keep their ids; every other decision node is poisoned with
    /// the `FREE` sentinel and threaded onto the free list for reuse by
    /// `mk`. Marking uses the in-slot mark bits and the sweep is one
    /// linear pass that also rebuilds every unique-table chain — no side
    /// allocations. The computed cache is **not** scanned: entries over
    /// surviving ids keep their semantics (the hit rate no longer resets
    /// at every collection), while entries over swept or later-reused
    /// slots are rejected lazily at lookup time by the generation check in
    /// [`ComputedCache::get`] — the stamp bump below is what arms that
    /// check. Returns the number of reclaimed nodes.
    pub(crate) fn sweep(&mut self, roots: &[NodeId]) -> usize {
        self.gcs += 1;
        // Mark phase: set in-slot mark bits on everything reachable.
        let mut stack: Vec<NodeId> = Vec::with_capacity(256);
        for &r in roots {
            if r > TRUE {
                stack.push(r);
            }
        }
        while let Some(n) = stack.pop() {
            let s = self.slots.slot(n);
            let meta = s.meta();
            if meta & MARK_BIT != 0 {
                continue;
            }
            debug_assert_ne!(meta & VAR_MASK, FREE_VAR, "root into freed node");
            s.meta.store(meta | MARK_BIT, Relaxed);
            let (l, h) = (s.low(), s.high());
            if l > TRUE {
                stack.push(l);
            }
            if h > TRUE {
                stack.push(h);
            }
        }
        // Sweep phase: one linear pass rebuilds the bucket chains from the
        // survivors and threads everything else onto the free list.
        self.heads.fill(NIL);
        self.free_head = NIL;
        self.free_count = 0;
        let mask = self.heads.len() - 1;
        let mut reclaimed = 0;
        for i in (2..self.slots.len() as u32).rev() {
            let s = self.slots.slot(i);
            let meta = s.meta();
            if meta & MARK_BIT != 0 {
                let h = (node_hash(meta & VAR_MASK, s.low(), s.high()) as usize) & mask;
                s.meta.store(meta & !MARK_BIT, Relaxed);
                s.next.store(self.heads[h], Relaxed);
                self.heads[h] = i;
            } else {
                if meta & VAR_MASK != FREE_VAR {
                    reclaimed += 1;
                }
                // Clears mark + var, keeps the born stamp in place.
                s.meta.store((meta & !(MARK_BIT | VAR_MASK)) | FREE_VAR, Relaxed);
                s.next.store(self.free_head, Relaxed);
                self.free_head = i;
                self.free_count += 1;
            }
        }
        self.bump_stamp();
        reclaimed
    }

    /// Advances the 15-bit birth/validity stamp after a sweep. On the
    /// rare wrap (once per 32767 collections) the cache is dropped and
    /// every birth stamp rewound to zero — an epoch reset that keeps the
    /// `born <= gen` comparison exact without wider fields.
    fn bump_stamp(&mut self) {
        if self.stamp >= BORN_MASK {
            self.cache.clear();
            for i in 0..self.slots.len() as u32 {
                let s = self.slots.slot(i);
                s.meta.store(s.meta() & !(BORN_MASK << 16), Relaxed);
            }
            self.stamp = 0;
        } else {
            self.stamp += 1;
        }
    }
}

impl std::fmt::Debug for Bdd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bdd")
            .field("num_vars", &self.num_vars)
            .field("slots", &self.slots.len())
            .field("ops", &self.ops)
            .finish()
    }
}
