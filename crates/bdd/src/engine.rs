//! Rooted predicate handles over the raw BDD manager.
//!
//! [`PredEngine`] wraps [`Bdd`] with the ownership discipline the rest of
//! Flash builds on:
//!
//! * every operation returns a [`Pred`] handle that registers itself as a GC
//!   root on creation and unregisters on drop (ref-counted, so clones are
//!   cheap and `HashMap<Pred, _>` keys stay valid);
//! * garbage collection is **automatic**: when the live-node count crosses a
//!   load threshold the engine mark-sweeps every unrooted node in place.
//!   Because the sweep is non-moving, rooted node ids — and therefore `Pred`
//!   equality and hashing — are stable across collections;
//! * collections bump a *generation* counter, so a raw id exported with
//!   [`PredEngine::export`] and re-imported later is a detectable
//!   [`StaleHandle`] error instead of silent corruption;
//! * the per-operation counters, computed-cache hit rates, table occupancy
//!   and GC pauses are all visible through [`EngineTelemetry`].
//!
//! The raw [`Bdd`] stays public for encoders that build nodes bottom-up
//! (e.g. FIB match compilation); [`PredEngine::encode`] bridges the two
//! worlds by running a closure against the raw manager and rooting its
//! result. This is safe because the engine never collects in the middle of
//! an operation — only at handle-creation boundaries.

use crate::manager::{Bdd, CacheConfig, MixBuildHasher, NodeId, NodeView, FALSE, TRUE};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Default live-node count that triggers an automatic collection.
///
/// 2^20 nodes ≈ 12 MiB of arena — small enough that a long-lived verifier
/// stays cache-friendly, large enough that steady-state workloads (Table 3
/// scale) never collect. Use [`PredEngine::set_gc_threshold`] with
/// `usize::MAX` to disable auto-GC entirely.
pub const DEFAULT_GC_NODE_THRESHOLD: usize = 1 << 20;

static NEXT_ENGINE_ID: AtomicU64 = AtomicU64::new(1);

/// The kinds of top-level predicate operations the engine distinguishes in
/// its telemetry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Conjunction (`and`, also the workhorse of `ite`/`rewrite_field`).
    And,
    /// Disjunction.
    Or,
    /// Difference (`a ∧ ¬b`).
    Diff,
    /// Exclusive or.
    Xor,
    /// Negation.
    Not,
    /// Existential quantification of a field (`exists_range`).
    Exists,
    /// Field rewrite (composite: quantify + constrain).
    Rewrite,
}

impl OpKind {
    /// Number of distinct operation kinds (length of the tally arrays).
    pub const COUNT: usize = 7;
}

/// Call and computed-cache counters for one [`OpKind`].
///
/// `calls` counts top-level invocations (including those inside a
/// [`OpCounterGuard`] quiet section); hits/misses count computed-cache
/// probes made by the recursive core, so `hits + misses` grows with the
/// structural work done, not the call count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Top-level calls of this kind.
    pub calls: u64,
    /// Computed-cache (or memo) hits in the recursive core.
    pub cache_hits: u64,
    /// Computed-cache (or memo) misses in the recursive core.
    pub cache_misses: u64,
}

impl OpStats {
    /// Fraction of cache probes that hit; 0 when no probes were made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// A point-in-time snapshot of everything the engine can tell you about
/// where predicate time and memory went.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineTelemetry {
    /// Total top-level predicate operations — the paper's Table 3 metric.
    pub ops: u64,
    /// Per-kind call and cache counters, indexed by `OpKind as usize`.
    pub per_op: [OpStats; OpKind::COUNT],
    /// Nodes currently live (arena slots minus free-listed slots).
    pub live_nodes: usize,
    /// Arena slots allocated so far (live + reusable).
    pub allocated_nodes: usize,
    /// High-water mark of `live_nodes` over the engine's lifetime.
    pub peak_live_nodes: usize,
    /// Entries in the unique (hash-consing) table.
    pub unique_entries: usize,
    /// `live_nodes / allocated_nodes`: fraction of the arena in use. Low
    /// occupancy right after a collection is normal; persistently low
    /// occupancy means the GC threshold is too small.
    pub occupancy: f64,
    /// Distinct node ids currently held by at least one [`Pred`] handle.
    pub roots_live: usize,
    /// Automatic + explicit collections performed.
    pub gc_runs: u64,
    /// Total nodes reclaimed across all collections.
    pub gc_reclaimed_nodes: u64,
    /// Sum of all GC pauses.
    pub gc_pause_total: Duration,
    /// Longest single GC pause.
    pub gc_pause_max: Duration,
    /// Approximate resident bytes (arena + tables + caches).
    pub approx_bytes: usize,
    /// Computed-cache probe-window evictions (replacement-policy churn).
    pub cache_evictions: u64,
    /// Insertions the admission policy turned away because the incumbent
    /// entry in both ways had a higher reuse stamp. High rejects with a
    /// high hit rate means admission is protecting the working set; high
    /// rejects with a *low* hit rate means the cache is undersized.
    pub cache_admission_rejects: u64,
    /// Live computed-cache entries per operation kind, indexed by
    /// `OpKind as usize` (kinds without a cache tag stay 0). Shows which
    /// op family owns the cache under a given workload.
    pub cache_occupancy_by_op: [u64; OpKind::COUNT],
    /// Computed-cache slot count (summed across engines by `absorb`).
    pub cache_capacity: usize,
    /// Allocations satisfied from the swept-slot free list instead of
    /// growing the node arena.
    pub freelist_reuses: u64,
    /// Cell-occupancy probes answered for the class overlap index
    /// (see [`Bdd::cell_mask`]); probes are cheap and never allocate.
    pub cell_probes: u64,
    /// Differences answered by the disjoint-diff kernel
    /// ([`PredEngine::diff_assuming_disjoint`]) without recursing — each
    /// one is an `op_diff` the overlap index proved unnecessary.
    pub disjoint_skips: u64,
}

impl EngineTelemetry {
    /// Counters for one operation kind.
    pub fn op(&self, kind: OpKind) -> OpStats {
        self.per_op[kind as usize]
    }

    /// Aggregate computed-cache hit rate across all operation kinds.
    pub fn cache_hit_rate(&self) -> f64 {
        let (mut hits, mut total) = (0u64, 0u64);
        for s in &self.per_op {
            hits += s.cache_hits;
            total += s.cache_hits + s.cache_misses;
        }
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Folds another engine's snapshot into this one, for aggregate
    /// views over several engines (e.g. one per subspace worker or per
    /// active epoch). Additive counters sum; `gc_pause_max` takes the
    /// max; `occupancy` is recomputed from the summed node counts.
    pub fn absorb(&mut self, other: &EngineTelemetry) {
        self.ops += other.ops;
        for (mine, theirs) in self.per_op.iter_mut().zip(other.per_op.iter()) {
            mine.calls += theirs.calls;
            mine.cache_hits += theirs.cache_hits;
            mine.cache_misses += theirs.cache_misses;
        }
        self.live_nodes += other.live_nodes;
        self.allocated_nodes += other.allocated_nodes;
        self.peak_live_nodes += other.peak_live_nodes;
        self.unique_entries += other.unique_entries;
        self.occupancy = if self.allocated_nodes == 0 {
            0.0
        } else {
            self.live_nodes as f64 / self.allocated_nodes as f64
        };
        self.roots_live += other.roots_live;
        self.gc_runs += other.gc_runs;
        self.gc_reclaimed_nodes += other.gc_reclaimed_nodes;
        self.gc_pause_total += other.gc_pause_total;
        self.gc_pause_max = self.gc_pause_max.max(other.gc_pause_max);
        self.approx_bytes += other.approx_bytes;
        self.cache_evictions += other.cache_evictions;
        self.cache_admission_rejects += other.cache_admission_rejects;
        for (mine, theirs) in self
            .cache_occupancy_by_op
            .iter_mut()
            .zip(other.cache_occupancy_by_op.iter())
        {
            *mine += theirs;
        }
        self.cache_capacity += other.cache_capacity;
        self.freelist_reuses += other.freelist_reuses;
        self.cell_probes += other.cell_probes;
        self.disjoint_skips += other.disjoint_skips;
    }

    /// One-line human-readable digest, used by `flash-cli` and examples.
    pub fn summary(&self) -> String {
        format!(
            "{} ops ({:.1}% cache hit, {} slots, {} evictions, {} rejects) | \
             {} cell probes, {} disjoint skips | \
             nodes {} live / {} peak ({:.0}% occupancy) | \
             {} roots | gc: {} runs, {} reclaimed, {} slot reuses, \
             {:.2} ms max pause | ~{:.1} MiB",
            self.ops,
            self.cache_hit_rate() * 100.0,
            self.cache_capacity,
            self.cache_evictions,
            self.cache_admission_rejects,
            self.cell_probes,
            self.disjoint_skips,
            self.live_nodes,
            self.peak_live_nodes,
            self.occupancy * 100.0,
            self.roots_live,
            self.gc_runs,
            self.gc_reclaimed_nodes,
            self.freelist_reuses,
            self.gc_pause_max.as_secs_f64() * 1e3,
            self.approx_bytes as f64 / (1024.0 * 1024.0),
        )
    }
}

/// Why a [`RawPred`] could not be re-imported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StaleHandle {
    /// The raw id was exported from a different engine instance.
    ForeignEngine {
        /// Id of the engine asked to import.
        expected: u64,
        /// Id of the engine that exported the handle.
        found: u64,
    },
    /// A collection ran since export, so the raw id may now name a
    /// different (or freed) node.
    StaleGeneration {
        /// The engine's current generation.
        expected: u64,
        /// The generation at export time.
        found: u64,
    },
}

impl std::fmt::Display for StaleHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StaleHandle::ForeignEngine { expected, found } => write!(
                f,
                "raw predicate from engine #{found} imported into engine #{expected}"
            ),
            StaleHandle::StaleGeneration { expected, found } => write!(
                f,
                "raw predicate from GC generation {found} imported at generation {expected}"
            ),
        }
    }
}

impl std::error::Error for StaleHandle {}

/// An unrooted, copyable snapshot of a [`Pred`] (see [`PredEngine::export`]).
///
/// A `RawPred` does **not** keep its node alive: it is a ticket for
/// re-entry, valid only while no collection has run. [`PredEngine::import`]
/// checks both the engine identity and the GC generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RawPred {
    node: NodeId,
    engine: u64,
    generation: u64,
}

impl RawPred {
    /// The raw node id (only meaningful to the exporting engine/generation).
    pub fn node(&self) -> NodeId {
        self.node
    }
}

/// Ref-counted root registry shared between an engine and its handles.
/// Every `Pred` clone and drop probes it, and its keys are the engine's
/// own node ids, so the cheap mix is enough.
#[derive(Default)]
struct RootSet {
    counts: HashMap<NodeId, u32, MixBuildHasher>,
}

impl RootSet {
    fn inc(&mut self, n: NodeId) {
        *self.counts.entry(n).or_insert(0) += 1;
    }

    fn dec(&mut self, n: NodeId) {
        match self.counts.get_mut(&n) {
            Some(c) if *c > 1 => *c -= 1,
            Some(_) => {
                self.counts.remove(&n);
            }
            None => debug_assert!(false, "unrooting a node that was never rooted"),
        }
    }
}

/// A rooted handle to a BDD node.
///
/// While a `Pred` (or any clone of it) is alive, the node it names survives
/// garbage collection and its id never changes — so `Pred` equality **is**
/// logical predicate equality (hash consing), and `Pred` works as a
/// `HashMap` key across collections.
///
/// `Pred` is intentionally `!Send`/`!Sync` and not `Copy`: each subspace
/// verifier owns its engine and all handles into it, mirroring the paper's
/// one-verifier-per-subspace design.
pub struct Pred {
    node: NodeId,
    engine: u64,
    roots: Rc<RefCell<RootSet>>,
}

impl Pred {
    /// The underlying node id. Only meaningful to the owning engine; use
    /// [`PredEngine::export`] for anything that outlives this handle.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// True iff this is the constant-false predicate (empty header set).
    pub fn is_false(&self) -> bool {
        self.node == FALSE
    }

    /// True iff this is the constant-true predicate (full header space).
    pub fn is_true(&self) -> bool {
        self.node == TRUE
    }
}

impl Clone for Pred {
    fn clone(&self) -> Self {
        self.roots.borrow_mut().inc(self.node);
        Pred { node: self.node, engine: self.engine, roots: Rc::clone(&self.roots) }
    }
}

impl Drop for Pred {
    fn drop(&mut self) {
        self.roots.borrow_mut().dec(self.node);
    }
}

impl PartialEq for Pred {
    fn eq(&self, other: &Self) -> bool {
        self.node == other.node && self.engine == other.engine
    }
}

impl Eq for Pred {}

impl std::hash::Hash for Pred {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.node.hash(state);
        self.engine.hash(state);
    }
}

impl std::fmt::Debug for Pred {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pred")
            .field("node", &self.node)
            .field("engine", &self.engine)
            .finish()
    }
}

/// The shared, auto-collecting predicate engine.
///
/// See the [module docs](self) for the ownership model. All operations
/// validate that their operands belong to this engine (panicking on a
/// foreign handle — that is a programming error, not a runtime condition)
/// and may trigger a collection *after* rooting their result.
pub struct PredEngine {
    bdd: Bdd,
    roots: Rc<RefCell<RootSet>>,
    id: u64,
    generation: u64,
    gc_threshold: usize,
    /// Live-node count at which the next automatic collection fires.
    /// Rises after an ineffective collection so the engine cannot thrash.
    next_trigger: usize,
    gc_runs: u64,
    gc_reclaimed: u64,
    gc_pause_total: Duration,
    gc_pause_max: Duration,
    peak_live: usize,
}

impl PredEngine {
    /// Creates an engine over `num_vars` header bits with the default
    /// auto-GC threshold ([`DEFAULT_GC_NODE_THRESHOLD`]).
    pub fn new(num_vars: u32) -> Self {
        Self::with_gc_threshold(num_vars, DEFAULT_GC_NODE_THRESHOLD)
    }

    /// Creates an engine with an explicit auto-GC live-node threshold.
    /// `usize::MAX` disables automatic collection (explicit
    /// [`PredEngine::collect`] still works).
    pub fn with_gc_threshold(num_vars: u32, threshold: usize) -> Self {
        Self::with_config(num_vars, threshold, CacheConfig::default())
    }

    /// Creates an engine with explicit GC-threshold and computed-cache
    /// sizing.
    pub fn with_config(num_vars: u32, threshold: usize, cache: CacheConfig) -> Self {
        PredEngine {
            bdd: Bdd::with_config(num_vars, cache),
            roots: Rc::new(RefCell::new(RootSet::default())),
            id: NEXT_ENGINE_ID.fetch_add(1, Ordering::Relaxed),
            generation: 0,
            gc_threshold: threshold,
            next_trigger: threshold,
            gc_runs: 0,
            gc_reclaimed: 0,
            gc_pause_total: Duration::ZERO,
            gc_pause_max: Duration::ZERO,
            peak_live: 2,
        }
    }

    /// Number of header bits this engine reasons about.
    pub fn num_vars(&self) -> u32 {
        self.bdd.num_vars()
    }

    #[inline]
    fn check(&self, p: &Pred) {
        assert_eq!(
            p.engine, self.id,
            "Pred handle from engine #{} used on engine #{}",
            p.engine, self.id
        );
    }

    /// Roots `node` and returns its handle (no GC trigger — used for
    /// terminals and internal plumbing).
    fn root(&self, node: NodeId) -> Pred {
        self.roots.borrow_mut().inc(node);
        Pred { node, engine: self.id, roots: Rc::clone(&self.roots) }
    }

    /// Roots the result of an operation, updates the live-node high-water
    /// mark, and runs the auto-GC check. Collection happens *after* rooting,
    /// so the fresh result always survives.
    fn finish(&mut self, node: NodeId) -> Pred {
        let pred = self.root(node);
        let live = self.bdd.live_count();
        if live > self.peak_live {
            self.peak_live = live;
        }
        self.maybe_collect();
        pred
    }

    fn maybe_collect(&mut self) {
        if self.gc_threshold != usize::MAX && self.bdd.live_count() >= self.next_trigger {
            self.collect();
        }
    }

    /// Forces a mark-sweep collection: every node not reachable from a live
    /// [`Pred`] handle is reclaimed in place (ids of live nodes are stable).
    /// Bumps the GC generation, invalidating outstanding [`RawPred`]s.
    /// Returns the number of reclaimed nodes.
    pub fn collect(&mut self) -> usize {
        let start = Instant::now();
        let roots: Vec<NodeId> = self.roots.borrow().counts.keys().copied().collect();
        let reclaimed = self.bdd.sweep(&roots);
        self.generation += 1;
        let pause = start.elapsed();
        self.gc_runs += 1;
        self.gc_reclaimed += reclaimed as u64;
        self.gc_pause_total += pause;
        if pause > self.gc_pause_max {
            self.gc_pause_max = pause;
        }
        // Anti-thrash: if most nodes are rooted, wait for real growth
        // before collecting again.
        self.next_trigger = self.gc_threshold.max(self.bdd.live_count().saturating_mul(2));
        reclaimed
    }

    /// Current auto-GC live-node threshold.
    pub fn gc_threshold(&self) -> usize {
        self.gc_threshold
    }

    /// Re-arms the auto-GC trigger at a new live-node threshold
    /// (`usize::MAX` disables automatic collection).
    pub fn set_gc_threshold(&mut self, threshold: usize) {
        self.gc_threshold = threshold;
        self.next_trigger = threshold;
    }

    /// The GC generation: bumped by every collection. See
    /// [`PredEngine::export`] / [`PredEngine::import`].
    pub fn generation(&self) -> u64 {
        self.generation
    }

    // ----- constant and variable predicates ---------------------------------

    /// The constant-true predicate (full header space).
    pub fn true_pred(&self) -> Pred {
        self.root(TRUE)
    }

    /// The constant-false predicate (empty header set).
    pub fn false_pred(&self) -> Pred {
        self.root(FALSE)
    }

    /// Predicate "bit `var` is 1".
    pub fn var(&mut self, var: u32) -> Pred {
        let n = self.bdd.var(var);
        self.finish(n)
    }

    /// Predicate "bit `var` is 0".
    pub fn nvar(&mut self, var: u32) -> Pred {
        let n = self.bdd.nvar(var);
        self.finish(n)
    }

    // ----- field encoders ---------------------------------------------------

    /// Exact-match encoder: the `width`-bit field at `offset` equals `value`.
    pub fn exact(&mut self, offset: u32, width: u32, value: u64) -> Pred {
        let n = self.bdd.exact(offset, width, value);
        self.finish(n)
    }

    /// Prefix-match encoder (IPv4-style longest-prefix rules).
    pub fn prefix(&mut self, offset: u32, width: u32, value: u64, prefix_len: u32) -> Pred {
        let n = self.bdd.prefix(offset, width, value, prefix_len);
        self.finish(n)
    }

    /// Suffix-match encoder.
    pub fn suffix(&mut self, offset: u32, width: u32, value: u64, suffix_len: u32) -> Pred {
        let n = self.bdd.suffix(offset, width, value, suffix_len);
        self.finish(n)
    }

    /// Ternary (value/mask) encoder.
    pub fn ternary(&mut self, offset: u32, width: u32, value: u64, mask: u64) -> Pred {
        let n = self.bdd.ternary(offset, width, value, mask);
        self.finish(n)
    }

    /// Integer-range encoder: `lo <= field <= hi`.
    pub fn range(&mut self, offset: u32, width: u32, lo: u64, hi: u64) -> Pred {
        let n = self.bdd.range(offset, width, lo, hi);
        self.finish(n)
    }

    // ----- Boolean operations -----------------------------------------------

    /// Conjunction `a ∧ b`.
    pub fn and(&mut self, a: &Pred, b: &Pred) -> Pred {
        self.check(a);
        self.check(b);
        let n = self.bdd.and(a.node, b.node);
        self.finish(n)
    }

    /// Disjunction `a ∨ b`.
    pub fn or(&mut self, a: &Pred, b: &Pred) -> Pred {
        self.check(a);
        self.check(b);
        let n = self.bdd.or(a.node, b.node);
        self.finish(n)
    }

    /// Negation `¬a`.
    pub fn not(&mut self, a: &Pred) -> Pred {
        self.check(a);
        let n = self.bdd.not(a.node);
        self.finish(n)
    }

    /// Difference `a ∧ ¬b`.
    pub fn diff(&mut self, a: &Pred, b: &Pred) -> Pred {
        self.check(a);
        self.check(b);
        let n = self.bdd.diff(a.node, b.node);
        self.finish(n)
    }

    /// Difference `a ∧ ¬b` under the caller's proof that `a ∧ b = ∅` —
    /// returns `a` without recursing. Counts as a `Diff` operation and
    /// bumps the `disjoint_skips` telemetry counter. Debug builds verify
    /// the disjointness claim and panic on misuse; release builds trust
    /// the caller (the point of the kernel is to skip the traversal).
    ///
    /// Callers typically establish the proof with
    /// [`PredEngine::provably_disjoint`] or an external overlap index.
    pub fn diff_assuming_disjoint(&mut self, a: &Pred, b: &Pred) -> Pred {
        self.check(a);
        self.check(b);
        let n = self.bdd.diff_assuming_disjoint(a.node, b.node);
        self.finish(n)
    }

    /// Cheap sound-but-incomplete disjointness proof: compares the
    /// cell-occupancy masks of `a` and `b` over the `k` bits at `offset`.
    /// An empty mask intersection proves `a ∧ b = ∅` (the union law of
    /// [`Bdd::cell_mask`]); a non-empty one proves nothing. Never
    /// allocates nodes.
    pub fn provably_disjoint(&mut self, a: &Pred, b: &Pred, offset: u32, k: u32) -> bool {
        self.check(a);
        self.check(b);
        self.bdd.cell_mask(a.node, offset, k) & self.bdd.cell_mask(b.node, offset, k) == 0
    }

    /// Exclusive or `a ⊕ b`.
    pub fn xor(&mut self, a: &Pred, b: &Pred) -> Pred {
        self.check(a);
        self.check(b);
        let n = self.bdd.xor(a.node, b.node);
        self.finish(n)
    }

    /// N-ary disjunction `⋁ operands` via a balanced pairwise reduction
    /// with operand dedup and `TRUE` short-circuit (see [`Bdd::or_many`]).
    /// An empty operand set yields `FALSE`. Counts as one predicate
    /// operation.
    pub fn or_many<'a, I>(&mut self, operands: I) -> Pred
    where
        I: IntoIterator<Item = &'a Pred>,
    {
        let nodes: Vec<NodeId> = operands
            .into_iter()
            .map(|p| {
                self.check(p);
                p.node
            })
            .collect();
        let n = self.bdd.or_many(&nodes);
        self.finish(n)
    }

    /// N-ary conjunction `⋀ operands`, dual of [`PredEngine::or_many`]. An
    /// empty operand set yields `TRUE`. Counts as one predicate operation.
    pub fn and_many<'a, I>(&mut self, operands: I) -> Pred
    where
        I: IntoIterator<Item = &'a Pred>,
    {
        let nodes: Vec<NodeId> = operands
            .into_iter()
            .map(|p| {
                self.check(p);
                p.node
            })
            .collect();
        let n = self.bdd.and_many(&nodes);
        self.finish(n)
    }

    /// Fused shadow kernel `a ∧ ¬(b₁ ∨ b₂ ∨ …)` — subtracts every `bs`
    /// predicate from `a` without materializing their union, with an early
    /// exit once the remainder is empty (see [`Bdd::diff_or`]). Counts as
    /// one predicate operation.
    pub fn diff_or<'a, I>(&mut self, a: &Pred, bs: I) -> Pred
    where
        I: IntoIterator<Item = &'a Pred>,
    {
        self.check(a);
        let nodes: Vec<NodeId> = bs
            .into_iter()
            .map(|p| {
                self.check(p);
                p.node
            })
            .collect();
        let n = self.bdd.diff_or(a.node, &nodes);
        self.finish(n)
    }

    /// If-then-else `(c ∧ t) ∨ (¬c ∧ e)`.
    pub fn ite(&mut self, c: &Pred, t: &Pred, e: &Pred) -> Pred {
        self.check(c);
        self.check(t);
        self.check(e);
        let n = self.bdd.ite(c.node, t.node, e.node);
        self.finish(n)
    }

    /// Existential quantification of the `width`-bit field at `offset`.
    pub fn exists_range(&mut self, a: &Pred, offset: u32, width: u32) -> Pred {
        self.check(a);
        let n = self.bdd.exists_range(a.node, offset, width);
        self.finish(n)
    }

    /// Rewrites the field at `offset` to `value` in every header of `a`
    /// (the NAT/tunnel primitive).
    pub fn rewrite_field(&mut self, a: &Pred, offset: u32, width: u32, value: u64) -> Pred {
        self.check(a);
        let n = self.bdd.rewrite_field(a.node, offset, width, value);
        self.finish(n)
    }

    /// True when `a` and `b` select disjoint header sets.
    pub fn disjoint(&mut self, a: &Pred, b: &Pred) -> bool {
        self.check(a);
        self.check(b);
        self.bdd.disjoint(a.node, b.node)
    }

    /// True when every header of `a` is also a header of `b`.
    pub fn implies(&mut self, a: &Pred, b: &Pred) -> bool {
        self.check(a);
        self.check(b);
        self.bdd.implies(a.node, b.node)
    }

    // ----- queries ----------------------------------------------------------

    /// Number of satisfying headers (as `f64`; spaces exceed `u64`).
    pub fn sat_count(&self, a: &Pred) -> f64 {
        self.check(a);
        self.bdd.sat_count(a.node)
    }

    /// Fraction of the header space `a` covers, in `[0, 1]`.
    pub fn sat_fraction(&self, a: &Pred) -> f64 {
        self.check(a);
        self.bdd.sat_fraction(a.node)
    }

    /// A witness header selected by `a`, or `None` if `a` is false.
    pub fn any_sat(&self, a: &Pred) -> Option<Vec<bool>> {
        self.check(a);
        self.bdd.any_sat(a.node)
    }

    /// Evaluates `a` on a concrete header.
    pub fn eval(&self, a: &Pred, bits: &[bool]) -> bool {
        self.check(a);
        self.bdd.eval(a.node, bits)
    }

    /// Decision-node count of `a` (the conventional "BDD size").
    pub fn size_of(&self, a: &Pred) -> usize {
        self.check(a);
        self.bdd.size_of(a.node)
    }

    /// Coarse cell-occupancy probe over the `k` bits at `offset`: bit `c`
    /// of the result is set iff `a` is satisfiable in cell `c` of that
    /// field slice. See [`Bdd::cell_mask`] for the exact laws; the probe
    /// allocates no nodes and never descends past the cell bits.
    pub fn cell_mask(&mut self, a: &Pred, offset: u32, k: u32) -> u64 {
        self.check(a);
        self.bdd.cell_mask(a.node, offset, k)
    }

    /// Radix probe under fixed higher levels: the occupancy mask of the
    /// `k` diagram levels below `path`, one 6-level cell per path entry.
    /// See [`Bdd::level_mask`].
    pub fn level_mask(&mut self, a: &Pred, path: &[u8], k: u32) -> u64 {
        self.check(a);
        self.bdd.level_mask(a.node, path, k)
    }

    /// The sorted support set (variables tested anywhere) of `a`.
    pub fn support(&self, a: &Pred) -> Vec<u32> {
        self.check(a);
        self.bdd.support(a.node)
    }

    // ----- counters and telemetry -------------------------------------------

    /// Total top-level predicate operations (the paper's Table 3 metric).
    pub fn op_count(&self) -> u64 {
        self.bdd.op_count()
    }

    /// Resets the predicate-operation counter between measured runs.
    pub fn reset_op_count(&mut self) {
        self.bdd.reset_op_count();
    }

    /// Nodes currently live in the arena.
    pub fn live_nodes(&self) -> usize {
        self.bdd.live_count()
    }

    /// High-water mark of live nodes over the engine's lifetime.
    pub fn peak_live_nodes(&self) -> usize {
        self.peak_live.max(self.bdd.live_count())
    }

    /// Approximate resident bytes (arena + tables + caches).
    pub fn approx_bytes(&self) -> usize {
        self.bdd.approx_bytes()
    }

    /// Suspends the "#predicate operations" counter for the guard's
    /// lifetime. Guards nest; per-kind call tallies keep counting. This
    /// replaces the old subtract-after-the-fact `uncount_ops` API, which
    /// could go negative under nested measurement.
    pub fn quiet(&mut self) -> OpCounterGuard<'_> {
        self.bdd.quiet_enter();
        OpCounterGuard { engine: self }
    }

    /// Snapshot of every counter the engine keeps. Cheap (`Copy` struct).
    pub fn telemetry(&self) -> EngineTelemetry {
        let live = self.bdd.live_count();
        let allocated = self.bdd.allocated_count();
        EngineTelemetry {
            ops: self.bdd.op_count(),
            per_op: *self.bdd.tally(),
            live_nodes: live,
            allocated_nodes: allocated,
            peak_live_nodes: self.peak_live.max(live),
            unique_entries: self.bdd.unique_len(),
            occupancy: if allocated == 0 { 0.0 } else { live as f64 / allocated as f64 },
            roots_live: self.roots.borrow().counts.len(),
            gc_runs: self.gc_runs,
            gc_reclaimed_nodes: self.gc_reclaimed,
            gc_pause_total: self.gc_pause_total,
            gc_pause_max: self.gc_pause_max,
            approx_bytes: self.bdd.approx_bytes(),
            cache_evictions: self.bdd.cache_evictions(),
            cache_admission_rejects: self.bdd.cache_admission_rejects(),
            cache_occupancy_by_op: self.bdd.cache_occupancy(),
            cache_capacity: self.bdd.cache_capacity(),
            freelist_reuses: self.bdd.freelist_reuses(),
            cell_probes: self.bdd.cell_probes(),
            disjoint_skips: self.bdd.disjoint_skips(),
        }
    }

    // ----- raw-layer bridge -------------------------------------------------

    /// Runs `f` against the raw [`Bdd`] and roots the node it returns.
    ///
    /// This is the bridge for bottom-up encoders (FIB match compilation,
    /// rule batch encoding) that want the raw `NodeId` API. It is safe
    /// because the engine only collects at handle-creation boundaries —
    /// never while `f` is running — so intermediate ids inside `f` cannot
    /// be reclaimed under it.
    pub fn encode<F: FnOnce(&mut Bdd) -> NodeId>(&mut self, f: F) -> Pred {
        let node = f(&mut self.bdd);
        self.finish(node)
    }

    /// Runs `f` against the raw [`Bdd`] without rooting anything; for
    /// queries that return non-predicate data (e.g. FIB lookup actions).
    /// Any node ids created inside `f` and not otherwise rooted are
    /// garbage and will be reclaimed by the next collection — do not stash
    /// them.
    pub fn with_bdd<R>(&mut self, f: impl FnOnce(&mut Bdd) -> R) -> R {
        f(&mut self.bdd)
    }

    /// A frozen, `Send + Sync` read view over this engine's node store,
    /// for serving queries on other threads without copying any BDD
    /// structure.
    ///
    /// The view is only meaningful for node ids whose predicates stay
    /// **rooted here** (live [`Pred`] clones — e.g. a published
    /// snapshot's pins) for as long as the view is consulted: rooted
    /// nodes survive this engine's mark-sweep collections with ids and
    /// structure intact, while unrooted ids may be reclaimed and reused
    /// at any time (memory-safe, but the answers would be garbage). Pair
    /// it with [`PredEngine::export`]ed raw nodes to ship `(view, root)`
    /// pairs across threads.
    pub fn node_view(&self) -> NodeView {
        self.bdd.node_view()
    }

    /// Exports a copyable, unrooted snapshot of `p`, stamped with this
    /// engine's identity and current GC generation.
    pub fn export(&self, p: &Pred) -> RawPred {
        self.check(p);
        RawPred { node: p.node, engine: self.id, generation: self.generation }
    }

    /// Re-imports a [`RawPred`], re-rooting its node — or reports why the
    /// handle is stale. A raw handle survives only as long as no collection
    /// has run since export.
    pub fn import(&self, raw: RawPred) -> Result<Pred, StaleHandle> {
        if raw.engine != self.id {
            return Err(StaleHandle::ForeignEngine { expected: self.id, found: raw.engine });
        }
        if raw.generation != self.generation {
            return Err(StaleHandle::StaleGeneration {
                expected: self.generation,
                found: raw.generation,
            });
        }
        Ok(self.root(raw.node))
    }
}

impl std::fmt::Debug for PredEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredEngine")
            .field("id", &self.id)
            .field("generation", &self.generation)
            .field("live_nodes", &self.bdd.live_count())
            .field("roots", &self.roots.borrow().counts.len())
            .finish()
    }
}

/// Scoped suspension of the top-level op counter (see [`PredEngine::quiet`]).
///
/// Dereferences to the engine, so measured and unmeasured code read the
/// same. Nested guards are safe: the counter resumes only when the
/// outermost guard drops.
pub struct OpCounterGuard<'a> {
    engine: &'a mut PredEngine,
}

impl std::ops::Deref for OpCounterGuard<'_> {
    type Target = PredEngine;

    fn deref(&self) -> &PredEngine {
        self.engine
    }
}

impl std::ops::DerefMut for OpCounterGuard<'_> {
    fn deref_mut(&mut self) -> &mut PredEngine {
        self.engine
    }
}

impl Drop for OpCounterGuard<'_> {
    fn drop(&mut self) {
        self.engine.bdd.quiet_exit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_root_and_unroot() {
        let mut e = PredEngine::new(8);
        let p = e.exact(0, 8, 0xAB);
        assert_eq!(e.telemetry().roots_live, 1);
        let q = p.clone();
        assert_eq!(e.telemetry().roots_live, 1, "clone shares the root entry");
        drop(p);
        assert_eq!(e.telemetry().roots_live, 1, "still held by the clone");
        drop(q);
        assert_eq!(e.telemetry().roots_live, 0);
    }

    #[test]
    fn collect_preserves_live_handles_and_reclaims_garbage() {
        let mut e = PredEngine::with_gc_threshold(16, usize::MAX);
        let keep = e.range(0, 16, 100, 9000);
        let keep_count = e.sat_count(&keep);
        let keep_id = keep.id();
        for v in 0..64 {
            let t = e.exact(0, 16, v * 17);
            drop(t); // garbage
        }
        let before = e.live_nodes();
        let reclaimed = e.collect();
        assert!(reclaimed > 0, "garbage should be reclaimed");
        assert!(e.live_nodes() < before);
        // Non-moving sweep: the survivor keeps its id and semantics.
        assert_eq!(keep.id(), keep_id);
        assert_eq!(e.sat_count(&keep), keep_count);
        // The surviving node is still hash-consed: re-encoding finds it.
        let again = e.range(0, 16, 100, 9000);
        assert_eq!(again, keep);
    }

    #[test]
    fn auto_gc_triggers_and_bounds_live_nodes() {
        let mut e = PredEngine::with_gc_threshold(24, 256);
        let keep = e.prefix(0, 24, 0x0a0000, 16);
        for v in 0..2000u64 {
            let t = e.exact(0, 24, v);
            let _ = e.and(&keep, &t);
        }
        let t = e.telemetry();
        assert!(t.gc_runs > 0, "auto-GC should have fired");
        assert!(t.gc_reclaimed_nodes > 0);
        assert!(
            e.live_nodes() < 2000,
            "live nodes should stay bounded, got {}",
            e.live_nodes()
        );
        assert!(e.sat_count(&keep) > 0.0);
    }

    #[test]
    fn operations_agree_with_raw_bdd_semantics() {
        let mut e = PredEngine::new(8);
        let a = e.range(0, 8, 10, 200);
        let b = e.range(0, 8, 100, 250);
        let both = e.and(&a, &b);
        assert_eq!(e.sat_count(&both), 101.0); // 100..=200
        let either = e.or(&a, &b);
        assert_eq!(e.sat_count(&either), 241.0); // 10..=250
        let only_a = e.diff(&a, &b);
        assert_eq!(e.sat_count(&only_a), 90.0); // 10..=99
        assert!(e.implies(&both, &a));
        let below = e.range(0, 8, 0, 5);
        assert!(e.disjoint(&a, &below));
        let na = e.not(&a);
        assert_eq!(e.sat_count(&na), 256.0 - 191.0);
    }

    #[test]
    fn true_false_preds() {
        let e = PredEngine::new(4);
        let t = e.true_pred();
        let f = e.false_pred();
        assert!(t.is_true());
        assert!(f.is_false());
        assert_ne!(t, f);
    }

    #[test]
    #[should_panic(expected = "used on engine")]
    fn foreign_handle_panics() {
        let mut e1 = PredEngine::new(8);
        let mut e2 = PredEngine::new(8);
        let p = e1.var(0);
        let _ = e2.not(&p);
    }

    #[test]
    fn export_import_generation_check() {
        let mut e = PredEngine::with_gc_threshold(8, usize::MAX);
        let p = e.exact(0, 8, 7);
        let raw = e.export(&p);
        let back = e.import(raw).expect("same generation");
        assert_eq!(back, p);
        e.collect();
        match e.import(raw) {
            Err(StaleHandle::StaleGeneration { found: 0, expected: 1 }) => {}
            other => panic!("expected stale-generation error, got {other:?}"),
        }
    }

    #[test]
    fn import_rejects_foreign_engine() {
        let mut e1 = PredEngine::new(8);
        let e2 = PredEngine::new(8);
        let p = e1.var(3);
        let raw = e1.export(&p);
        assert!(matches!(e2.import(raw), Err(StaleHandle::ForeignEngine { .. })));
    }

    #[test]
    fn quiet_guard_suspends_op_counter_and_nests() {
        let mut e = PredEngine::new(8);
        let a = e.var(0);
        let b = e.var(1);
        let base = e.op_count();
        {
            let mut g = e.quiet();
            let _ = g.and(&a, &b);
            {
                let mut g2 = g.quiet();
                let _ = g2.or(&a, &b);
            }
            let _ = g.xor(&a, &b);
        }
        assert_eq!(e.op_count(), base, "quiet section must not count ops");
        let _ = e.and(&a, &b);
        assert_eq!(e.op_count(), base + 1, "counter resumes after the guard");
        // Per-kind call tallies keep counting even in quiet sections.
        let t = e.telemetry();
        assert_eq!(t.op(OpKind::Xor).calls, 1);
    }

    #[test]
    fn telemetry_counts_per_op_and_caches() {
        let mut e = PredEngine::new(16);
        let a = e.range(0, 16, 0, 999);
        let b = e.range(0, 16, 500, 1500);
        let _ = e.and(&a, &b);
        let _ = e.and(&a, &b); // replays from the computed cache
        let t = e.telemetry();
        assert_eq!(t.op(OpKind::And).calls, 2);
        assert!(t.op(OpKind::And).cache_hits > 0, "second call should hit");
        assert!(t.cache_hit_rate() > 0.0);
        assert!(t.live_nodes > 2);
        assert!(t.peak_live_nodes >= t.live_nodes);
        assert!(t.unique_entries + 2 >= t.live_nodes);
        assert!(!t.summary().is_empty());
    }

    #[test]
    fn nary_kernels_agree_with_binary_folds() {
        let mut e = PredEngine::new(16);
        let ps: Vec<Pred> = (0..9u64).map(|i| e.range(0, 16, i * 50, i * 50 + 80)).collect();

        let or_fold = ps[1..].iter().fold(ps[0].clone(), |acc, p| e.or(&acc, p));
        let or_kernel = e.or_many(&ps);
        assert_eq!(or_kernel, or_fold);

        let and_fold = ps[1..].iter().fold(ps[0].clone(), |acc, p| e.and(&acc, p));
        let and_kernel = e.and_many(&ps);
        assert_eq!(and_kernel, and_fold);

        let a = e.range(0, 16, 0, 60000);
        let diff_fold = ps.iter().fold(a.clone(), |acc, p| e.diff(&acc, p));
        let diff_kernel = e.diff_or(&a, &ps);
        assert_eq!(diff_kernel, diff_fold);

        // Identity / absorbing elements.
        let empty: Vec<Pred> = Vec::new();
        assert!(e.or_many(&empty).is_false());
        assert!(e.and_many(&empty).is_true());
        let t = e.true_pred();
        assert!(e.or_many([&ps[0], &t, &ps[1]]).is_true());
        let f = e.false_pred();
        assert!(e.and_many([&ps[0], &f]).is_false());
    }

    #[test]
    fn nary_kernels_count_one_op_each() {
        let mut e = PredEngine::new(16);
        let ps: Vec<Pred> = (0..7u64).map(|i| e.range(0, 16, i * 100, i * 100 + 150)).collect();
        let base = e.op_count();
        let _ = e.or_many(&ps);
        assert_eq!(e.op_count(), base + 1, "or_many is one issued operation");
        let a = e.range(0, 16, 0, 40000);
        let base = e.op_count();
        let _ = e.diff_or(&a, &ps);
        assert_eq!(e.op_count(), base + 1, "diff_or is one issued operation");
    }

    #[test]
    fn telemetry_reports_cache_capacity_and_evictions() {
        let mut e =
            PredEngine::with_config(16, usize::MAX, CacheConfig { initial_capacity: 64, max_capacity: 64 });
        let t = e.telemetry();
        assert_eq!(t.cache_capacity, 64);
        // Hammer a tiny cache until the probe windows fill and evict.
        for i in 0..400u64 {
            let a = e.range(0, 16, i * 7 % 50000, i * 11 % 60000 + 100);
            let b = e.range(0, 16, i * 13 % 40000, i * 17 % 60000 + 200);
            let _ = e.and(&a, &b);
        }
        let t = e.telemetry();
        assert!(t.cache_evictions > 0, "tiny cache must evict under load");
        let mut agg = EngineTelemetry::default();
        agg.absorb(&t);
        agg.absorb(&t);
        assert_eq!(agg.cache_evictions, t.cache_evictions * 2);
        assert_eq!(agg.cache_capacity, t.cache_capacity * 2);
        assert!(t.summary().contains("evictions"));
    }

    #[test]
    fn cache_survives_sweep_without_staleness() {
        let mut e = PredEngine::with_gc_threshold(16, usize::MAX);
        let a = e.range(0, 16, 0, 999);
        let b = e.range(0, 16, 500, 1500);
        let ab = e.and(&a, &b);
        let count = e.sat_count(&ab);
        // Make garbage, then sweep: entries over live nodes must survive
        // and still be correct; entries over dead nodes must be gone.
        for v in 0..300u64 {
            let g = e.exact(0, 16, v * 3);
            drop(g);
        }
        e.collect();
        let hits_before = e.telemetry().op(OpKind::And).cache_hits;
        let ab2 = e.and(&a, &b);
        assert_eq!(ab2, ab);
        assert_eq!(e.sat_count(&ab2), count);
        assert!(
            e.telemetry().op(OpKind::And).cache_hits > hits_before,
            "live-operand cache entries should survive a sweep"
        );
    }

    #[test]
    fn encode_bridges_raw_layer() {
        let mut e = PredEngine::new(8);
        let p = e.encode(|bdd| {
            let x = bdd.exact(0, 4, 0b1010);
            let y = bdd.exact(4, 4, 0b0101);
            bdd.and(x, y)
        });
        assert_eq!(e.sat_count(&p), 1.0);
        assert_eq!(e.telemetry().roots_live, 1);
    }

    #[test]
    fn repeated_collect_cycles_are_stable() {
        let mut e = PredEngine::with_gc_threshold(16, usize::MAX);
        let preds: Vec<Pred> = (0..10).map(|i| e.range(0, 16, i * 100, i * 100 + 50)).collect();
        let counts: Vec<f64> = preds.iter().map(|p| e.sat_count(p)).collect();
        for _ in 0..5 {
            for v in 0..100 {
                let g = e.exact(0, 16, v * 31);
                drop(g);
            }
            e.collect();
            for (p, c) in preds.iter().zip(&counts) {
                assert_eq!(e.sat_count(p), *c);
            }
        }
        assert_eq!(e.generation(), 5);
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut e = PredEngine::with_gc_threshold(16, usize::MAX);
        let mut round = || {
            for v in 0..200u64 {
                let t = e.range(0, 16, v, v + 37);
                drop(t);
            }
            e.collect();
            e.telemetry().allocated_nodes
        };
        let after_first = round();
        // Identical later rounds must draw entirely from the free list:
        // the arena does not grow with the number of dead predicates.
        for _ in 0..3 {
            assert_eq!(round(), after_first, "free-list reuse should cap the arena");
        }
        assert!(
            e.telemetry().freelist_reuses > 0,
            "telemetry must report free-list reuses"
        );
    }

    /// Brute-force cell mask: cell `c` is set iff some header with the top
    /// `k` bits equal to `c` satisfies the predicate.
    fn naive_cell_mask(e: &PredEngine, p: &Pred, bits: u32, k: u32) -> u64 {
        let mut mask = 0u64;
        for h in 0..(1u64 << bits) {
            let hb: Vec<bool> = (0..bits).map(|i| (h >> (bits - 1 - i)) & 1 == 1).collect();
            if e.eval(p, &hb) {
                mask |= 1u64 << (h >> (bits - k));
            }
        }
        mask
    }

    #[test]
    fn cell_mask_matches_brute_force() {
        let bits = 8u32;
        let mut e = PredEngine::new(bits);
        for k in 1..=6u32 {
            let cases = [
                e.false_pred(),
                e.true_pred(),
                e.exact(0, bits, 0xA7),
                e.prefix(0, bits, 0b1010_0000, 3),
                e.range(0, bits, 13, 77),
                e.var(7), // tests only a bit below every cell boundary
                e.nvar(0),
            ];
            for (i, p) in cases.iter().enumerate() {
                let got = e.cell_mask(p, 0, k);
                assert_eq!(got, naive_cell_mask(&e, p, bits, k), "case {i} at k={k}");
            }
            // Union law the overlap index depends on.
            let a = e.range(0, bits, 10, 50);
            let b = e.range(0, bits, 200, 250);
            let ab = e.or(&a, &b);
            let ma = e.cell_mask(&a, 0, k);
            let mb = e.cell_mask(&b, 0, k);
            assert_eq!(e.cell_mask(&ab, 0, k), ma | mb, "or law at k={k}");
        }
    }

    #[test]
    fn cell_mask_counts_probes_without_allocating() {
        let mut e = PredEngine::new(16);
        let p = e.range(0, 16, 100, 60000);
        let nodes = e.telemetry().live_nodes;
        let probes0 = e.telemetry().cell_probes;
        let m = e.cell_mask(&p, 0, 6);
        assert_ne!(m, 0);
        assert_eq!(e.telemetry().live_nodes, nodes, "probe must not allocate");
        assert_eq!(e.telemetry().cell_probes, probes0 + 1);
    }

    #[test]
    fn level_mask_matches_brute_force_under_every_path() {
        // 14 levels: two full 6-level cells and a 2-level tail.
        let bits = 14u32;
        let mut e = PredEngine::new(bits);
        let a = e.range(0, bits, 1000, 9000);
        let b = e.prefix(0, bits, 0b10_1101_1000_0000, 9);
        let nb = e.not(&b);
        let cases = [
            e.false_pred(),
            e.true_pred(),
            e.exact(0, bits, 0x2A7F),
            e.var(13),
            e.diff(&a, &b),
            e.or(&a, &nb),
        ];
        let header = |h: u64| -> Vec<bool> { (0..bits).map(|i| (h >> (bits - 1 - i)) & 1 == 1).collect() };
        for (i, p) in cases.iter().enumerate() {
            // Depth 0 equals the plain top-level probe.
            assert_eq!(e.level_mask(p, &[], 6), e.cell_mask(p, 0, 6), "case {i} at the root");
            for c0 in 0..64u64 {
                let mut want1 = 0u64;
                for c1 in 0..64u64 {
                    let mut want2 = 0u64;
                    for c2 in 0..4u64 {
                        if e.eval(p, &header((c0 << 8) | (c1 << 2) | c2)) {
                            want1 |= 1 << c1;
                            want2 |= 1 << c2;
                        }
                    }
                    let got2 = e.level_mask(p, &[c0 as u8, c1 as u8], 2);
                    assert_eq!(got2, want2, "case {i} under {c0}/{c1}");
                }
                assert_eq!(e.level_mask(p, &[c0 as u8], 6), want1, "case {i} under {c0}");
            }
        }
        let nodes = e.telemetry().live_nodes;
        let probes = e.telemetry().cell_probes;
        e.level_mask(&cases[4], &[17, 3], 2);
        assert_eq!(e.telemetry().live_nodes, nodes, "probe must not allocate");
        assert_eq!(e.telemetry().cell_probes, probes + 1);
    }

    #[test]
    fn support_reports_tested_variables() {
        let mut e = PredEngine::new(16);
        assert!(e.support(&e.true_pred()).is_empty());
        assert!(e.support(&e.false_pred()).is_empty());
        let p = e.exact(4, 4, 0b1010);
        assert_eq!(e.support(&p), vec![4, 5, 6, 7]);
        let q = e.var(13);
        let pq = e.and(&p, &q);
        assert_eq!(e.support(&pq), vec![4, 5, 6, 7, 13]);
    }
}
