//! The model manager of Figure 1: maintains per-device FIB snapshots and
//! the inverse model, applying update blocks through the MR² pipeline.
//!
//! The manager buffers incoming updates and flushes them through Fast IMT
//! once the **block size threshold** (BST, §5.2 / Figure 7) is reached.
//! `bst = 1` degenerates to the per-update mode used as a baseline in
//! Figure 11; `bst = usize::MAX` defers everything to an explicit
//! [`ModelManager::flush`].
//!
//! Memory management is delegated to the predicate engine: the model's
//! entries are rooted [`flash_bdd::Pred`] handles, so the engine's
//! automatic mark-sweep GC reclaims the map phase's transient predicates
//! without any root collection or id remapping here. The PAT arena is
//! compacted to the model's vectors by [`ModelManager::gc`] and at the
//! end of a flush once it has doubled; every `PatId` the manager holds is
//! renamed then (see [`crate::pat`]).

use crate::memo::{MatchMemo, DEFAULT_MATCH_MEMO_CAPACITY};
use crate::model::InverseModel;
use crate::mr2::{
    atomic_overwrites, build_rule_trie, calculate_atomic_overwrites,
    calculate_atomic_overwrites_trie, cancel_updates, merge_block_and_diff, rule_key, BulkMap,
    Netting,
};
use crate::pat::{PatId, PatRemap, PatStore};
use crate::snapshot::{EpochSnapshot, SnapshotClass, SnapshotPin};
use crate::subspace::SubspaceSpec;
use flash_bdd::{EngineTelemetry, Pred, PredEngine};
use flash_netmodel::{ActionId, DeviceId, Fib, HeaderLayout, RuleOp, RuleTrie, RuleUpdate};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of a model manager.
#[derive(Clone, Debug)]
pub struct ModelManagerConfig {
    pub layout: HeaderLayout,
    /// The subspace this manager is responsible for.
    pub subspace: SubspaceSpec,
    /// Flush automatically once this many updates are buffered.
    pub bst: usize,
    /// Drop updates whose match cannot intersect the subspace (cheap
    /// syntactic filter) before they are buffered.
    pub filter_updates: bool,
}

impl ModelManagerConfig {
    /// Whole-space manager with an effectively infinite BST (explicit
    /// flushing), the configuration used for the update-storm benchmarks.
    pub fn whole_space(layout: HeaderLayout) -> Self {
        ModelManagerConfig {
            layout,
            subspace: SubspaceSpec::whole(),
            bst: usize::MAX,
            filter_updates: false,
        }
    }
}

/// Cumulative wall-clock time per MR² phase (Figure 11's breakdown).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// Map: merging blocks and computing atomic overwrites.
    pub compute_atomic: Duration,
    /// Netting the atomic overwrites (both reduces).
    pub aggregate: Duration,
    /// Applying the compact overwrites to the inverse model.
    pub apply: Duration,
}

impl PhaseTimings {
    pub fn total(&self) -> Duration {
        self.compute_atomic + self.aggregate + self.apply
    }
}

/// Counters describing the work a manager has performed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct UpdateStats {
    /// Native updates accepted (post subspace filter).
    pub updates_accepted: u64,
    /// Native updates rejected by the subspace filter.
    pub updates_filtered: u64,
    /// Flushes performed.
    pub flushes: u64,
    /// Atomic overwrites produced by the map phase.
    pub atomic_overwrites: u64,
    /// Compact overwrites after both reduces.
    pub compact_overwrites: u64,
    /// Match-predicate memo hits (a FIB match re-encoded for free).
    pub match_memo_hits: u64,
    /// Match-predicate memo misses (a fresh BDD encoding).
    pub match_memo_misses: u64,
    /// Candidate classes probed by indexed overwrite application.
    pub classes_probed: u64,
    /// Classes skipped by the class index without touching the BDD.
    pub classes_pruned: u64,
    /// Probed candidates whose `and` came back empty.
    pub and_misses: u64,
    /// Full overlap-index rebuilds (including the initial lazy build).
    pub index_rebuilds: u64,
    /// Device blocks mapped with the accumulated-disjunction shadows.
    pub shadow_acc_blocks: u64,
    /// Device blocks mapped with per-rule trie shadows.
    pub shadow_trie_blocks: u64,
    /// Rules whose effective predicate a bulk load took unchanged from an
    /// earlier device's table ([`crate::mr2::BulkMap`]).
    pub map_reused_rules: u64,
    /// Snapshot of the predicate-engine telemetry (ops, cache hit rates,
    /// node counts, GC pauses) at the time [`ModelManager::stats`] was
    /// called.
    pub engine: EngineTelemetry,
}

impl UpdateStats {
    /// Adds every counter of `other` into `self` — used to aggregate the
    /// per-shard stats of a partitioned run into one fleet-wide view.
    pub fn absorb(&mut self, other: &UpdateStats) {
        self.updates_accepted += other.updates_accepted;
        self.updates_filtered += other.updates_filtered;
        self.flushes += other.flushes;
        self.atomic_overwrites += other.atomic_overwrites;
        self.compact_overwrites += other.compact_overwrites;
        self.match_memo_hits += other.match_memo_hits;
        self.match_memo_misses += other.match_memo_misses;
        self.classes_probed += other.classes_probed;
        self.classes_pruned += other.classes_pruned;
        self.and_misses += other.and_misses;
        self.index_rebuilds += other.index_rebuilds;
        self.shadow_acc_blocks += other.shadow_acc_blocks;
        self.shadow_trie_blocks += other.shadow_trie_blocks;
        self.map_reused_rules += other.map_reused_rules;
        self.engine.absorb(&other.engine);
    }
}

/// A decoded, device-sorted PAT action vector, shared with every
/// snapshot that publishes the class.
type SharedActionVector = Arc<Vec<(DeviceId, ActionId)>>;

/// The model manager: FIB snapshots + inverse model + MR² driver.
pub struct ModelManager {
    config: ModelManagerConfig,
    engine: PredEngine,
    pat: PatStore,
    model: InverseModel,
    clip: Pred,
    fibs: HashMap<DeviceId, Fib>,
    /// Per-device mirror of the FIB as an overlap trie (minus the default
    /// rule), maintained incrementally from each merge's applied updates.
    tries: HashMap<DeviceId, RuleTrie>,
    /// EWMA of the measured overlap degree (rules overlapping a sampled
    /// diff rule) per device — the cost model's α in `|diff|·α < |table|`.
    overlap_ewma: HashMap<DeviceId, f64>,
    memo: MatchMemo,
    pending: Vec<(DeviceId, RuleUpdate)>,
    timings: PhaseTimings,
    stats: UpdateStats,
    /// Memoized [`Self::class_keys`] result, keyed on the model's
    /// class-composition version; `RefCell` so the getters stay `&self`.
    class_keys_cache: RefCell<Option<(u64, Arc<Vec<u64>>)>>,
    /// Per-`PatId` class fingerprints, renamed (and cleared of dead ids)
    /// by every PAT compaction.
    fingerprint_memo: RefCell<HashMap<PatId, u64>>,
    /// Per-`PatId` decoded action vectors for snapshot publication,
    /// renamed like `fingerprint_memo`.
    vector_memo: RefCell<HashMap<PatId, SharedActionVector>>,
    /// Live snapshot pins: `Pred` clones keeping published epochs'
    /// roots alive until every snapshot holder is gone.
    snapshot_pins: Vec<SnapshotPin>,
    /// PAT nodes right after the last compaction; `flush` compacts again
    /// once the arena has doubled.
    pat_nodes_compacted: usize,
}

/// Initial overlap-degree estimate before any measurement: pessimistic
/// enough that tiny diffs still choose the trie, large diffs do not.
const OVERLAP_EWMA_INIT: f64 = 8.0;

/// Smallest PAT arena a flush compacts: below it the doubling rule would
/// compact small arenas over and over for no memory.
const PAT_COMPACT_MIN_NODES: usize = 1 << 12;

impl ModelManager {
    pub fn new(config: ModelManagerConfig) -> Self {
        let mut engine = PredEngine::new(config.layout.total_bits());
        let clip = config.subspace.universe(&config.layout, &mut engine);
        let model = InverseModel::new(clip.clone());
        let memo = MatchMemo::new(DEFAULT_MATCH_MEMO_CAPACITY);
        ModelManager {
            config,
            engine,
            pat: PatStore::new(),
            model,
            clip,
            fibs: HashMap::new(),
            tries: HashMap::new(),
            overlap_ewma: HashMap::new(),
            memo,
            pending: Vec::new(),
            timings: PhaseTimings::default(),
            stats: UpdateStats::default(),
            class_keys_cache: RefCell::new(None),
            fingerprint_memo: RefCell::new(HashMap::new()),
            vector_memo: RefCell::new(HashMap::new()),
            snapshot_pins: Vec::new(),
            pat_nodes_compacted: 0,
        }
    }

    pub fn layout(&self) -> &HeaderLayout {
        &self.config.layout
    }

    pub fn model(&self) -> &InverseModel {
        &self.model
    }

    pub fn engine(&self) -> &PredEngine {
        &self.engine
    }

    pub fn engine_mut(&mut self) -> &mut PredEngine {
        &mut self.engine
    }

    pub fn pat(&self) -> &PatStore {
        &self.pat
    }

    /// Canonical fingerprints of the model's equivalence classes: one
    /// hash per class over its decoded, device-ascending forwarding
    /// vector (explicit non-drop entries only).
    ///
    /// Unlike `PatId`s or predicate node ids, these are stable across
    /// engines, so the *distinct union* of `class_keys` over the models
    /// of a partition equals the whole-space class count — the
    /// cross-shard consistency check used by the sharded pipeline.
    /// Both the per-`PatId` fingerprints and the assembled key vector are
    /// memoized: a fingerprint lives as long as its vector (a PAT
    /// compaction renames it with the vector) and the key vector is keyed
    /// on the model's class-composition version, so repeated calls between class
    /// add/remove events — per-epoch shard equivalence checks, snapshot
    /// publication — are O(1) instead of O(n log n) hashing.
    pub fn class_keys(&self) -> Vec<u64> {
        self.class_keys_arc().as_ref().clone()
    }

    /// Allocation-free variant of [`Self::class_keys`]: the memoized key
    /// vector behind a shared handle.
    pub fn class_keys_arc(&self) -> Arc<Vec<u64>> {
        let version = self.model.version();
        if let Some((v, keys)) = self.class_keys_cache.borrow().as_ref() {
            if *v == version {
                return keys.clone();
            }
        }
        let mut fp = self.fingerprint_memo.borrow_mut();
        let keys: Arc<Vec<u64>> = Arc::new(
            self.model
                .entries()
                .iter()
                .map(|e| {
                    *fp.entry(e.vector).or_insert_with(|| {
                        use std::hash::{Hash, Hasher};
                        let mut h = std::collections::hash_map::DefaultHasher::new();
                        self.pat.entries(e.vector).hash(&mut h);
                        h.finish()
                    })
                })
                .collect(),
        );
        *self.class_keys_cache.borrow_mut() = Some((version, keys.clone()));
        keys
    }

    /// Publishes an immutable [`EpochSnapshot`] of the current model under
    /// epoch sequence `seq`, for concurrent query serving.
    ///
    /// Cheap: O(classes) `Pred` clones plus one decoded vector per
    /// distinct live `PatId` (memoized) — **no BDD structure is
    /// copied**. The snapshot holds decoded vectors, never `PatId`s, so
    /// later PAT compactions do not touch it. The manager pins every class predicate (clone-rooted in
    /// the engine) so collections here never reclaim snapshot nodes; the
    /// pin is released automatically once every `Arc<EpochSnapshot>` is
    /// dropped (dead pins are pruned at the next publish, or explicitly
    /// via [`Self::retire_snapshots`]).
    ///
    /// Call between flushes: the snapshot then observes exactly one
    /// sealed epoch (no partially-applied block).
    pub fn publish_snapshot(&mut self, seq: u64) -> Arc<EpochSnapshot> {
        self.retire_snapshots();
        let keys = self.class_keys_arc();
        let mut vec_memo = self.vector_memo.borrow_mut();
        let mut preds = Vec::with_capacity(self.model.len());
        let mut classes = Vec::with_capacity(self.model.len());
        for (e, &fingerprint) in self.model.entries().iter().zip(keys.iter()) {
            let vector = vec_memo
                .entry(e.vector)
                .or_insert_with(|| Arc::new(self.pat.entries(e.vector)))
                .clone();
            classes.push(SnapshotClass {
                root: self.engine.export(&e.pred).node(),
                fingerprint,
                vector,
            });
            preds.push(e.pred.clone());
        }
        drop(vec_memo);
        // Arena order: a reader that probes every class of the snapshot
        // then sweeps the node store front to back instead of hopping
        // through it in whatever order the entry vector was last
        // shuffled into.
        classes.sort_unstable_by_key(|c| c.root);
        let alive = Arc::new(());
        self.snapshot_pins.push(SnapshotPin {
            seq,
            _preds: preds,
            alive: Arc::downgrade(&alive),
        });
        Arc::new(EpochSnapshot::new(
            seq,
            self.config.subspace,
            self.config.layout.clone(),
            self.engine.node_view(),
            classes,
            alive,
        ))
    }

    /// Drops the pins of snapshots no holder references anymore, letting
    /// the next collection reclaim their exclusive nodes. Returns the
    /// number of still-pinned snapshots.
    pub fn retire_snapshots(&mut self) -> usize {
        self.snapshot_pins.retain(|p| p.alive.strong_count() > 0);
        self.snapshot_pins.len()
    }

    /// Epoch sequences currently pinned by live snapshots.
    pub fn pinned_epochs(&self) -> Vec<u64> {
        self.snapshot_pins
            .iter()
            .filter(|p| p.alive.strong_count() > 0)
            .map(|p| p.seq)
            .collect()
    }

    /// Split borrow for consumers (the CE2D verifier) that need predicate
    /// operations over the current model.
    pub fn parts_mut(&mut self) -> (&mut PredEngine, &mut PatStore, &InverseModel) {
        (&mut self.engine, &mut self.pat, &self.model)
    }

    pub fn timings(&self) -> PhaseTimings {
        self.timings
    }

    /// Work counters, including a fresh predicate-engine telemetry
    /// snapshot plus the current memo and overlap-index counters.
    pub fn stats(&self) -> UpdateStats {
        let mut s = self.stats;
        s.engine = self.engine.telemetry();
        s.match_memo_hits = self.memo.hits();
        s.match_memo_misses = self.memo.misses();
        let ix = self.model.index_stats();
        s.classes_probed = ix.probed;
        s.classes_pruned = ix.pruned;
        s.and_misses = ix.and_misses;
        s.index_rebuilds = ix.rebuilds;
        s
    }

    /// The FIB snapshot of a device (the default-only table when the
    /// device has never sent an update).
    pub fn fib(&mut self, dev: DeviceId) -> &Fib {
        let layout = &self.config.layout;
        self.fibs.entry(dev).or_insert_with(|| Fib::new(layout))
    }

    /// Devices with a tracked FIB snapshot.
    pub fn devices(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.fibs.keys().copied()
    }

    /// Per-device FIB snapshots (non-default rules only), sorted by
    /// device id — the recovery-checkpoint payload. The inverse model is
    /// a deterministic function of the current FIB set, so re-ingesting
    /// these rules into a fresh manager reconstructs an equivalent model
    /// without serializing any predicate-engine state.
    pub fn fib_snapshot(&self) -> Vec<(DeviceId, Vec<flash_netmodel::Rule>)> {
        let mut out: Vec<(DeviceId, Vec<flash_netmodel::Rule>)> = self
            .fibs
            .iter()
            .map(|(dev, fib)| {
                let rules: Vec<flash_netmodel::Rule> = fib
                    .rules()
                    .iter()
                    .filter(|r| !(r.priority == i64::MIN && r.mat.is_any()))
                    .cloned()
                    .collect();
                (*dev, rules)
            })
            .collect();
        out.sort_by_key(|(d, _)| d.0);
        out
    }

    /// Approximate resident bytes of the verifier state (BDD arena + PAT
    /// arena + model entries + rule snapshots).
    pub fn approx_bytes(&self) -> usize {
        let rule_bytes: usize = self
            .fibs
            .values()
            .map(|f| f.len() * std::mem::size_of::<flash_netmodel::Rule>())
            .sum();
        self.engine.approx_bytes()
            + self.pat.approx_bytes()
            + self.model.approx_bytes()
            + rule_bytes
    }

    /// Buffers updates for a device, flushing if the BST is reached.
    /// Returns `true` when a flush happened.
    pub fn submit(&mut self, dev: DeviceId, updates: impl IntoIterator<Item = RuleUpdate>) -> bool {
        for u in updates {
            if self.config.filter_updates
                && !self.config.subspace.admits(&u.rule.mat, &self.config.layout)
            {
                self.stats.updates_filtered += 1;
                continue;
            }
            self.stats.updates_accepted += 1;
            self.pending.push((dev, u));
        }
        if self.pending.len() >= self.config.bst {
            self.flush();
            true
        } else {
            false
        }
    }

    /// Number of buffered (unapplied) updates.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Buffers updates for a device without ever auto-flushing — the
    /// bulk-load companion of [`Self::submit`]. The same subspace filter
    /// applies; the buffered updates are released by [`Self::bulk_load`]
    /// (snapshot fast path) or [`Self::flush`] (incremental pipeline).
    pub fn submit_bulk(&mut self, dev: DeviceId, updates: impl IntoIterator<Item = RuleUpdate>) {
        for u in updates {
            if self.config.filter_updates
                && !self.config.subspace.admits(&u.rule.mat, &self.config.layout)
            {
                self.stats.updates_filtered += 1;
                continue;
            }
            self.stats.updates_accepted += 1;
            self.pending.push((dev, u));
        }
    }

    /// Applies every buffered update through the bulk snapshot path:
    /// each device's FIB is constructed in one sorted pass
    /// ([`Fib::from_sorted`]) and its whole rule set is the MR² diff, so
    /// the per-update merge/cancel/trie bookkeeping of [`Self::flush`] —
    /// pure overhead when every rule is new — is skipped. Each device's
    /// atomic overwrites are filed under their predicates as soon as they
    /// are mapped (only the distinct predicates stay rooted); the netting
    /// closes and the model apply runs once over the whole snapshot.
    ///
    /// The map ([`BulkMap`]) costs what the device tables *differ* by: the
    /// first device gets a full [`calculate_atomic_overwrites`] pass and
    /// becomes the template; each later one takes the template's effective
    /// predicates for the rules the two tables share and recomputes only
    /// the rest. A device too far from the template gets the full pass and
    /// becomes the new template.
    ///
    /// Falls back to [`Self::flush`] — identical semantics, incremental
    /// cost — unless every buffered update is an insert targeting a
    /// device whose FIB is still absent or default-only. Bulk load is an
    /// optimization of the initial snapshot, never a semantic fork.
    pub fn bulk_load(&mut self) -> Vec<DeviceId> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        let eligible = self.pending.iter().all(|(dev, u)| {
            u.op == RuleOp::Insert && self.fibs.get(dev).is_none_or(|f| f.len() == 1)
        });
        if !eligible {
            return self.flush();
        }
        self.stats.flushes += 1;
        let pending = std::mem::take(&mut self.pending);

        let mut per_device: HashMap<DeviceId, Vec<flash_netmodel::Rule>> = HashMap::new();
        let mut order: Vec<DeviceId> = Vec::new();
        for (dev, u) in pending {
            let e = per_device.entry(dev).or_default();
            if e.is_empty() {
                order.push(dev);
            }
            e.push(u.rule);
        }

        let clip = self.clip.clone();
        let layout = self.config.layout.clone();
        let mut net = Netting::new();
        let mut map = BulkMap::default();
        for &dev in &order {
            let t0 = Instant::now();
            let mut rules = per_device.remove(&dev).expect("device in order");
            rules.sort_by_cached_key(rule_key);
            // Keep the device's default rule (it may carry a non-drop
            // default action from `Fib::with_default`).
            rules.push(match self.fibs.get(&dev) {
                Some(f) => *f.rules().last().expect("fib default"),
                None => Fib::new(&layout).rules()[0],
            });
            let fib = Fib::from_sorted(rules);
            let effective = map.map(&mut self.engine, &layout, &fib, &clip, &mut self.memo);
            let atomics = atomic_overwrites(dev, &fib.rules()[..fib.len() - 1], effective);
            self.stats.atomic_overwrites += atomics.len() as u64;
            self.fibs.insert(dev, fib);
            // Any mirror trie was seeded from the pre-bulk (empty) FIB;
            // drop it so the first incremental block reseeds from the
            // post-bulk snapshot.
            self.tries.remove(&dev);
            self.timings.compute_atomic += t0.elapsed();
            let t1 = Instant::now();
            net.add(atomics);
            self.timings.aggregate += t1.elapsed();
        }
        self.stats.map_reused_rules += map.reused_rules;
        self.stats.shadow_acc_blocks += map.full_passes;

        let t1 = Instant::now();
        let compact = net.finish(&mut self.engine);
        self.timings.aggregate += t1.elapsed();
        self.stats.compact_overwrites += compact.len() as u64;

        let t2 = Instant::now();
        self.model
            .apply_overwrites(&mut self.engine, &mut self.pat, &compact);
        self.timings.apply += t2.elapsed();
        order
    }

    /// Applies all buffered updates through the MR² pipeline. Returns the
    /// devices whose FIB changed.
    pub fn flush(&mut self) -> Vec<DeviceId> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        self.stats.flushes += 1;
        let pending = std::mem::take(&mut self.pending);

        // Group by device preserving arrival order.
        let mut per_device: HashMap<DeviceId, Vec<RuleUpdate>> = HashMap::new();
        let mut order: Vec<DeviceId> = Vec::new();
        for (dev, u) in pending {
            let e = per_device.entry(dev).or_default();
            if e.is_empty() {
                order.push(dev);
            }
            e.push(u);
        }

        // ---- Map phase: per-device decomposition into atomic overwrites.
        let t0 = Instant::now();
        let clip = self.clip.clone();
        let layout = self.config.layout.clone();
        let mut atomics = Vec::new();
        for &dev in &order {
            let block = cancel_updates(&per_device[&dev]);
            if block.is_empty() {
                continue;
            }
            // Deleted rules may re-appear later with a different table
            // around them; their memoized predicates are still valid, but
            // dropping them keeps the memo biased toward live matches.
            for u in &block {
                if u.op == RuleOp::Delete {
                    self.memo.invalidate(&u.rule.mat);
                }
            }
            let fib = self
                .fibs
                .entry(dev)
                .or_insert_with(|| Fib::new(&layout));
            // First block for this device: seed the mirror from the
            // pre-merge snapshot, then replay the applied updates.
            let trie = self
                .tries
                .entry(dev)
                .or_insert_with(|| build_rule_trie(&layout, fib));
            let res = merge_block_and_diff(fib, &block, &layout);
            for (op, rule) in &res.applied {
                match op {
                    RuleOp::Insert => trie.insert(*rule),
                    RuleOp::Delete => {
                        trie.remove(rule);
                    }
                }
            }
            if res.diff.is_empty() {
                continue;
            }
            // Cost model: per-rule trie shadows beat the single accumulated
            // scan when probing |diff| rules (≈ α overlaps each) touches
            // fewer rules than one pass over the table. α is measured by
            // sampling one trie query per block, so the estimate tracks the
            // workload even while the accumulated path is being chosen.
            let sampled = trie.overlapping(&res.diff[0].mat).count() as f64;
            let est = self
                .overlap_ewma
                .entry(dev)
                .or_insert(OVERLAP_EWMA_INIT);
            *est = 0.7 * *est + 0.3 * sampled;
            if res.diff.len() as f64 * *est < fib.len() as f64 {
                atomics.extend(calculate_atomic_overwrites_trie(
                    &mut self.engine,
                    &layout,
                    dev,
                    trie,
                    &res.diff,
                    &clip,
                    &mut self.memo,
                ));
                self.stats.shadow_trie_blocks += 1;
            } else {
                let effective = calculate_atomic_overwrites(
                    &mut self.engine,
                    &layout,
                    fib,
                    &res.diff,
                    &clip,
                    &mut self.memo,
                );
                atomics.extend(atomic_overwrites(dev, &res.diff, effective));
                self.stats.shadow_acc_blocks += 1;
            }
        }
        self.timings.compute_atomic += t0.elapsed();
        self.stats.atomic_overwrites += atomics.len() as u64;

        // ---- Reduce: net by predicate, then by write set.
        let t1 = Instant::now();
        let mut net = Netting::new();
        net.add(atomics);
        let compact = net.finish(&mut self.engine);
        self.timings.aggregate += t1.elapsed();
        self.stats.compact_overwrites += compact.len() as u64;

        // ---- Apply phase: cross product against the inverse model.
        let t2 = Instant::now();
        self.model
            .apply_overwrites(&mut self.engine, &mut self.pat, &compact);
        self.timings.apply += t2.elapsed();

        // Transient map-phase predicates dropped above are collected by the
        // engine's automatic GC the next time its threshold trips. The PAT
        // arena is not: compacting it once it has doubled keeps it within
        // twice the live vectors at O(1) amortized cost per node, also for
        // callers that never run `gc`.
        if self.pat.node_count() >= 2 * self.pat_nodes_compacted.max(PAT_COMPACT_MIN_NODES) {
            self.compact_pat();
        }
        order
    }

    /// Forces a predicate-engine collection (the engine also collects
    /// automatically past the configured threshold) and compacts the PAT
    /// arena to the model's vectors. Returns the number of reclaimed
    /// predicate nodes.
    pub fn gc(&mut self) -> usize {
        let reclaimed = self.engine.collect();
        self.compact_pat();
        reclaimed
    }

    /// Copies the model's action vectors into a fresh PAT arena and renames
    /// every `PatId` the manager holds: the entries, the model's vector
    /// map and both memos, whose dead ids are dropped.
    fn compact_pat(&mut self) {
        let map = self.pat.compact(self.model.entries().iter().map(|e| e.vector));
        self.model.remap_vectors(&map);
        rename_keys(&self.fingerprint_memo, &map);
        rename_keys(&self.vector_memo, &map);
        self.pat_nodes_compacted = self.pat.node_count();
    }
}

/// Renames the keys of a per-`PatId` memo after a PAT compaction, dropping
/// the entries of dead vectors.
fn rename_keys<V>(memo: &RefCell<HashMap<PatId, V>>, map: &PatRemap) {
    let mut memo = memo.borrow_mut();
    let renamed = memo.drain().filter_map(|(id, v)| Some((*map.get(&id)?, v))).collect();
    *memo = renamed;
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_netmodel::{ActionTable, FieldId, Match, Rule};

    fn l() -> HeaderLayout {
        HeaderLayout::new(&[("dst", 8)])
    }

    fn mgr(bst: usize) -> ModelManager {
        ModelManager::new(ModelManagerConfig {
            bst,
            ..ModelManagerConfig::whole_space(l())
        })
    }

    #[test]
    fn empty_manager_has_default_model() {
        let m = mgr(usize::MAX);
        assert_eq!(m.model().len(), 1);
        assert!(m.model().universe().is_true());
    }

    #[test]
    fn manual_flush_applies_updates() {
        let mut at = ActionTable::new();
        let a1 = at.fwd(DeviceId(9));
        let mut m = mgr(usize::MAX);
        let layout = l();
        let r = Rule::new(Match::dst_prefix(&layout, 0xA0, 4), 1, a1);
        assert!(!m.submit(DeviceId(0), [RuleUpdate::insert(r)]));
        assert_eq!(m.model().len(), 1, "not applied before flush");
        let touched = m.flush();
        assert_eq!(touched, vec![DeviceId(0)]);
        assert_eq!(m.model().len(), 2);
        let (engine, _, model) = m.parts_mut();
        model.check_invariants(engine).unwrap();
    }

    #[test]
    fn bst_triggers_autoflush() {
        let mut at = ActionTable::new();
        let a1 = at.fwd(DeviceId(9));
        let mut m = mgr(2);
        let layout = l();
        let r1 = Rule::new(Match::dst_prefix(&layout, 0xA0, 4), 1, a1);
        let r2 = Rule::new(Match::dst_prefix(&layout, 0xB0, 4), 1, a1);
        assert!(!m.submit(DeviceId(0), [RuleUpdate::insert(r1)]));
        assert!(m.submit(DeviceId(0), [RuleUpdate::insert(r2)]));
        assert_eq!(m.pending_len(), 0);
        assert_eq!(m.stats().flushes, 1);
        assert_eq!(m.model().len(), 2); // one class for both prefixes
    }

    #[test]
    fn subspace_filter_rejects_foreign_updates() {
        let mut at = ActionTable::new();
        let a1 = at.fwd(DeviceId(9));
        let layout = l();
        let mut m = ModelManager::new(ModelManagerConfig {
            layout: layout.clone(),
            subspace: SubspaceSpec {
                field: FieldId(0),
                value: 0x80,
                len: 1,
            },
            bst: usize::MAX,
            filter_updates: true,
        });
        let inside = Rule::new(Match::dst_prefix(&layout, 0xA0, 4), 1, a1);
        let outside = Rule::new(Match::dst_prefix(&layout, 0x20, 4), 1, a1);
        m.submit(DeviceId(0), [RuleUpdate::insert(inside), RuleUpdate::insert(outside)]);
        assert_eq!(m.stats().updates_accepted, 1);
        assert_eq!(m.stats().updates_filtered, 1);
        m.flush();
        let (engine, _, model) = m.parts_mut();
        model.check_invariants(engine).unwrap();
    }

    #[test]
    fn clipped_model_stays_in_subspace() {
        let mut at = ActionTable::new();
        let a1 = at.fwd(DeviceId(9));
        let layout = l();
        let mut m = ModelManager::new(ModelManagerConfig {
            layout: layout.clone(),
            subspace: SubspaceSpec {
                field: FieldId(0),
                value: 0x80,
                len: 1,
            },
            bst: usize::MAX,
            filter_updates: false,
        });
        // A wildcard-ish rule crossing the subspace boundary is clipped.
        let r = Rule::new(Match::dst_prefix(&layout, 0x80, 0), 1, a1); // /0 = any dst
        m.submit(DeviceId(0), [RuleUpdate::insert(r)]);
        m.flush();
        let (engine, _, model) = m.parts_mut();
        model.check_invariants(engine).unwrap();
        // Universe is the half space: total fraction covered is 1/2.
        let covered: f64 = model
            .entries()
            .iter()
            .map(|e| engine.sat_fraction(&e.pred))
            .sum();
        assert!((covered - 0.5).abs() < 1e-9);
    }

    #[test]
    fn insert_then_delete_restores_model() {
        let mut at = ActionTable::new();
        let a1 = at.fwd(DeviceId(9));
        let layout = l();
        let mut m = mgr(usize::MAX);
        let r = Rule::new(Match::dst_prefix(&layout, 0xA0, 4), 1, a1);
        m.submit(DeviceId(0), [RuleUpdate::insert(r)]);
        m.flush();
        assert_eq!(m.model().len(), 2);
        m.submit(DeviceId(0), [RuleUpdate::delete(r)]);
        m.flush();
        assert_eq!(m.model().len(), 1, "deleting the rule restores default");
        assert_eq!(m.model().entries()[0].vector, crate::pat::PAT_NIL);
    }

    #[test]
    fn canceling_updates_in_one_block_are_noops() {
        let mut at = ActionTable::new();
        let a1 = at.fwd(DeviceId(9));
        let layout = l();
        let mut m = mgr(usize::MAX);
        let r = Rule::new(Match::dst_prefix(&layout, 0xA0, 4), 1, a1);
        m.submit(
            DeviceId(0),
            [RuleUpdate::insert(r), RuleUpdate::delete(r)],
        );
        m.flush();
        assert_eq!(m.model().len(), 1);
        assert_eq!(m.stats().atomic_overwrites, 0);
    }

    #[test]
    fn bulk_load_matches_incremental_replay() {
        let mut at = ActionTable::new();
        let layout = l();
        let mut rules: Vec<(DeviceId, Rule)> = Vec::new();
        for d in 0..3u32 {
            for i in 0..8u64 {
                let a = at.fwd(DeviceId(100 + ((d as u64 + i) % 5) as u32));
                rules.push((
                    DeviceId(d),
                    Rule::new(Match::dst_prefix(&layout, (i << 5) & 0xE0, 3), (i % 4) as i64, a),
                ));
            }
        }
        // Incremental reference: one flush per device.
        // Both sides insert one rule twice, and both keep two copies.
        let mut inc = mgr(usize::MAX);
        for (d, r) in &rules {
            inc.submit(*d, [RuleUpdate::insert(*r)]);
        }
        inc.submit(rules[0].0, [RuleUpdate::insert(rules[0].1)]);
        inc.flush();
        let mut bulk = mgr(usize::MAX);
        for (d, r) in &rules {
            bulk.submit_bulk(*d, [RuleUpdate::insert(*r)]);
        }
        bulk.submit_bulk(rules[0].0, [RuleUpdate::insert(rules[0].1)]);
        let touched = bulk.bulk_load();
        assert_eq!(touched.len(), 3);
        assert_eq!(bulk.pending_len(), 0);
        assert_eq!(bulk.model().len(), inc.model().len());
        let mut a = inc.class_keys();
        let mut b = bulk.class_keys();
        a.sort_unstable();
        a.dedup();
        b.sort_unstable();
        b.dedup();
        assert_eq!(a, b, "bulk and incremental models have identical classes");
        assert_eq!(bulk.fib_snapshot(), inc.fib_snapshot());
        let (engine, _, model) = bulk.parts_mut();
        model.check_invariants(engine).unwrap();
    }

    #[test]
    fn bulk_load_falls_back_for_non_snapshot_blocks() {
        let mut at = ActionTable::new();
        let a1 = at.fwd(DeviceId(9));
        let layout = l();
        let r1 = Rule::new(Match::dst_prefix(&layout, 0xA0, 4), 1, a1);
        let r2 = Rule::new(Match::dst_prefix(&layout, 0xB0, 4), 1, a1);
        // Device already has a non-default FIB: bulk must fall back.
        let mut m = mgr(usize::MAX);
        m.submit(DeviceId(0), [RuleUpdate::insert(r1)]);
        m.flush();
        m.submit_bulk(DeviceId(0), [RuleUpdate::insert(r2)]);
        m.bulk_load();
        assert_eq!(m.pending_len(), 0);
        assert_eq!(m.fib(DeviceId(0)).len(), 3, "both rules + default");
        // A delete in the buffer also forces the incremental pipeline.
        let mut m = mgr(usize::MAX);
        m.submit_bulk(DeviceId(1), [RuleUpdate::insert(r1), RuleUpdate::delete(r1)]);
        m.bulk_load();
        assert_eq!(m.model().len(), 1, "insert+delete cancel to a no-op");
        // Incremental updates after a bulk load reseed the trie mirror
        // from the post-bulk FIB and stay consistent.
        let mut m = mgr(usize::MAX);
        m.submit_bulk(DeviceId(2), [RuleUpdate::insert(r1)]);
        m.bulk_load();
        m.submit(DeviceId(2), [RuleUpdate::insert(r2), RuleUpdate::delete(r1)]);
        m.flush();
        let (engine, _, model) = m.parts_mut();
        model.check_invariants(engine).unwrap();
        assert_eq!(m.fib(DeviceId(2)).len(), 2);
    }

    #[test]
    fn gc_keeps_model_valid() {
        let mut at = ActionTable::new();
        let layout = l();
        let mut m = mgr(usize::MAX);
        for i in 0..16u64 {
            let a = at.fwd(DeviceId(100 + i as u32));
            let r = Rule::new(Match::dst_prefix(&layout, i << 4, 4), 1, a);
            m.submit(DeviceId(0), [RuleUpdate::insert(r)]);
        }
        m.flush();
        let classes = m.model().len();
        m.gc();
        assert_eq!(m.model().len(), classes);
        let (engine, _, model) = m.parts_mut();
        model.check_invariants(engine).unwrap();
    }

    /// Swap churn leaves a dead PAT vector behind on every class it moves.
    /// After each `gc()` the arena holds exactly the nodes reachable from
    /// the model, and the collection changes neither the class
    /// fingerprints nor what a snapshot published before it answers.
    #[test]
    fn gc_leaves_only_reachable_pat_nodes() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::hash::{Hash, Hasher};

        let layout = l();
        let mut at = ActionTable::new();
        let actions: Vec<ActionId> = (0..64).map(|i| at.fwd(DeviceId(100 + i))).collect();
        let mut rng = StdRng::seed_from_u64(0x5A_9C0A);
        // Six devices with eight overlapping prefixes each.
        let mut tables: Vec<Vec<Rule>> = (0..6)
            .map(|_| {
                (0..8i64)
                    .map(|prio| {
                        let len = rng.gen_range(1..=6u32);
                        let v = (rng.gen_range(0u64..256) >> (8 - len)) << (8 - len);
                        Rule::new(Match::dst_prefix(&layout, v, len), prio, actions[rng.gen_range(0..64)])
                    })
                    .collect()
            })
            .collect();
        let mut m = mgr(usize::MAX);
        for (d, rules) in tables.iter().enumerate() {
            m.submit(DeviceId(d as u32), rules.iter().map(|r| RuleUpdate::insert(*r)));
        }
        m.flush();
        let decoded = |m: &ModelManager| -> Vec<Vec<(DeviceId, ActionId)>> {
            m.model().entries().iter().map(|e| m.pat().entries(e.vector)).collect()
        };
        let fingerprints = |m: &ModelManager| -> Vec<u64> {
            decoded(m)
                .iter()
                .map(|v| {
                    let mut h = std::collections::hash_map::DefaultHasher::new();
                    v.hash(&mut h);
                    h.finish()
                })
                .collect()
        };
        let headers: Vec<Vec<bool>> =
            (0..=255u64).map(|h| (0..8).map(|i| (h >> (7 - i)) & 1 == 1).collect()).collect();

        let mut swap_block = |m: &mut ModelManager| {
            for _ in 0..4 {
                let (d, i) = (rng.gen_range(0..6), rng.gen_range(0..8));
                let old = tables[d][i];
                let next = actions[(actions.iter().position(|a| *a == old.action).unwrap() + 1) % 64];
                tables[d][i] = Rule::new(old.mat, old.priority, next);
                m.submit(DeviceId(d as u32), [RuleUpdate::delete(old), RuleUpdate::insert(tables[d][i])]);
            }
            m.flush();
        };

        let mut reclaimed = 0;
        for block in 0..500u64 {
            swap_block(&mut m);
            if block % 8 != 7 {
                continue;
            }
            // The memoized keys (renamed by the previous collection) agree
            // with a fresh decode.
            let keys = m.class_keys();
            assert_eq!(keys, fingerprints(&m), "block {block}");
            let vectors = decoded(&m);
            let snap = m.publish_snapshot(block);
            let before = m.pat().node_count();
            m.gc();
            reclaimed += before - m.pat().node_count();
            // Distinct nodes reachable from the model: the canonical trees
            // of its vectors, built in an arena of their own.
            let mut fresh = PatStore::new();
            for v in &vectors {
                fresh.from_entries(v);
            }
            assert_eq!(m.pat().node_count(), fresh.node_count(), "block {block}");
            assert_eq!(decoded(&m), vectors);
            assert_eq!(m.class_keys(), keys);
            let again = m.publish_snapshot(block + 1);
            for bits in &headers {
                let live = m.model().classify(m.engine(), bits).map(|e| m.pat().entries(e.vector));
                assert_eq!(live, snap.classify(bits).map(|c| c.vector.as_ref().clone()));
                assert_eq!(live, again.classify(bits).map(|c| c.vector.as_ref().clone()));
            }
        }
        assert!(reclaimed > 0, "the churn never left a dead vector behind");

        // Without `gc()`, `flush` compacts once the arena has doubled.
        let vectors = decoded(&m);
        let mut flush_compactions = 0;
        for _ in 0..1000 {
            let before = m.pat().node_count();
            swap_block(&mut m);
            flush_compactions += usize::from(m.pat().node_count() < before);
            assert!(m.pat().node_count() < 2 * PAT_COMPACT_MIN_NODES);
        }
        assert!(flush_compactions > 0, "the arena never reached the flush threshold");
        assert_ne!(decoded(&m), vectors, "the churn moved no class");
        assert_eq!(m.class_keys(), fingerprints(&m));
        let (engine, _, model) = m.parts_mut();
        model.check_invariants(engine).unwrap();
    }

    #[test]
    fn auto_gc_fires_above_threshold() {
        let mut at = ActionTable::new();
        let layout = l();
        let mut m = ModelManager::new(ModelManagerConfig {
            bst: 1,
            ..ModelManagerConfig::whole_space(layout.clone())
        });
        m.engine_mut().set_gc_threshold(64);
        for i in 0..32u64 {
            let a = at.fwd(DeviceId(100 + i as u32));
            let r = Rule::new(Match::dst_prefix(&layout, (i * 8) & 0xF8, 5), 1, a);
            m.submit(DeviceId((i % 4) as u32), [RuleUpdate::insert(r)]);
        }
        assert!(m.stats().engine.gc_runs > 0, "auto-GC should have fired");
        let (engine, _, model) = m.parts_mut();
        model.check_invariants(engine).unwrap();
    }

    #[test]
    fn timings_accumulate() {
        let mut at = ActionTable::new();
        let a1 = at.fwd(DeviceId(9));
        let layout = l();
        let mut m = mgr(usize::MAX);
        let r = Rule::new(Match::dst_prefix(&layout, 0xA0, 4), 1, a1);
        m.submit(DeviceId(0), [RuleUpdate::insert(r)]);
        m.flush();
        let t = m.timings();
        assert!(t.total() > Duration::ZERO);
    }

    #[test]
    fn class_keys_memo_tracks_model_changes() {
        let mut at = ActionTable::new();
        let layout = l();
        let mut m = mgr(usize::MAX);
        for i in 0..8u64 {
            let a = at.fwd(DeviceId(100 + i as u32));
            m.submit(DeviceId(0), [RuleUpdate::insert(Rule::new(
                Match::dst_prefix(&layout, i << 5, 3),
                1,
                a,
            ))]);
        }
        m.flush();
        let k1 = m.class_keys_arc();
        let k2 = m.class_keys_arc();
        assert!(Arc::ptr_eq(&k1, &k2), "unchanged model returns the cached keys");
        // A model-changing flush must invalidate the memo.
        let a = at.fwd(DeviceId(42));
        m.submit(DeviceId(1), [RuleUpdate::insert(Rule::new(
            Match::dst_prefix(&layout, 0xA0, 4),
            1,
            a,
        ))]);
        m.flush();
        let k3 = m.class_keys();
        assert_ne!(k1.as_ref(), &k3, "new class changes the key set");
        // Memoized keys equal a from-scratch recomputation.
        use std::hash::{Hash, Hasher};
        let fresh: Vec<u64> = m
            .model()
            .entries()
            .iter()
            .map(|e| {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                m.pat().entries(e.vector).hash(&mut h);
                h.finish()
            })
            .collect();
        assert_eq!(k3, fresh);
    }

    #[test]
    fn snapshot_classifies_like_live_model() {
        let mut at = ActionTable::new();
        let layout = l();
        let mut m = mgr(usize::MAX);
        for i in 0..8u64 {
            let a = at.fwd(DeviceId(100 + i as u32));
            m.submit(DeviceId(0), [RuleUpdate::insert(Rule::new(
                Match::dst_prefix(&layout, i << 5, 3),
                1,
                a,
            ))]);
        }
        m.flush();
        let snap = m.publish_snapshot(1);
        assert_eq!(snap.seq, 1);
        assert_eq!(snap.classes.len(), m.model().len());
        for hdr in 0..=255u64 {
            let bits: Vec<bool> = (0..8).map(|i| (hdr >> (7 - i)) & 1 == 1).collect();
            let live = m.model().classify(m.engine(), &bits).map(|e| m.pat().entries(e.vector));
            let snapshot = snap.classify(&bits).map(|c| c.vector.as_ref().clone());
            assert_eq!(live, snapshot, "header {hdr:#x}");
        }
    }

    #[test]
    fn snapshot_survives_churn_and_collection() {
        let mut at = ActionTable::new();
        let layout = l();
        let mut m = mgr(usize::MAX);
        let a = at.fwd(DeviceId(9));
        let r = Rule::new(Match::dst_prefix(&layout, 0xA0, 4), 1, a);
        m.submit(DeviceId(0), [RuleUpdate::insert(r)]);
        m.flush();
        let snap = m.publish_snapshot(1);
        let before: Vec<u64> = snap.classes.iter().map(|c| c.fingerprint).collect();
        // Churn the live model (including deleting the snapshot's rule)
        // and force collections: the pinned snapshot must keep answering
        // from its sealed epoch.
        m.submit(DeviceId(0), [RuleUpdate::delete(r)]);
        m.flush();
        for i in 0..16u64 {
            let a = at.fwd(DeviceId(200 + i as u32));
            m.submit(DeviceId(1), [RuleUpdate::insert(Rule::new(
                Match::dst_prefix(&layout, i << 4, 4),
                1,
                a,
            ))]);
            m.flush();
            m.gc();
        }
        let bits: Vec<bool> = (0..8).map(|i| (0xA5u64 >> (7 - i)) & 1 == 1).collect();
        let c = snap.classify(&bits).expect("snapshot classifies its epoch");
        assert_eq!(c.action_at(DeviceId(0)), Some(a0_of(&snap, 0xA5)));
        let after: Vec<u64> = snap.classes.iter().map(|c| c.fingerprint).collect();
        assert_eq!(before, after, "snapshot is immutable under live churn");
        assert_eq!(m.pinned_epochs(), vec![1]);
        drop(snap);
        assert_eq!(m.retire_snapshots(), 0, "dropping the holder releases the pin");
    }

    // The action the sealed epoch (rule 0xA0/4 → device 9) forwards
    // header `hdr` to at device 0.
    fn a0_of(snap: &crate::snapshot::EpochSnapshot, hdr: u64) -> flash_netmodel::ActionId {
        let bits: Vec<bool> = (0..8).map(|i| (hdr >> (7 - i)) & 1 == 1).collect();
        snap.classify(&bits).unwrap().vector[0].1
    }

    #[test]
    fn what_if_reports_touched_classes_without_mutating() {
        let mut at = ActionTable::new();
        let layout = l();
        let mut m = mgr(usize::MAX);
        for i in 0..4u64 {
            let a = at.fwd(DeviceId(100 + i as u32));
            m.submit(DeviceId(0), [RuleUpdate::insert(Rule::new(
                Match::dst_prefix(&layout, i << 6, 2),
                1,
                a,
            ))]);
        }
        m.flush();
        let snap = m.publish_snapshot(7);
        let before: Vec<u64> = snap.classes.iter().map(|c| c.fingerprint).collect();
        let a9 = at.fwd(DeviceId(9));
        // An update inside the 0b01 quarter touches exactly that class.
        let u = RuleUpdate::insert(Rule::new(Match::dst_prefix(&layout, 0x50, 4), 9, a9));
        let touched = snap.what_if(&[u]);
        assert_eq!(touched.len(), 1);
        // Insert+delete cancel: nothing touched.
        let r = Rule::new(Match::dst_prefix(&layout, 0x50, 4), 9, a9);
        assert!(snap
            .what_if(&[RuleUpdate::insert(r), RuleUpdate::delete(r)])
            .is_empty());
        let after: Vec<u64> = snap.classes.iter().map(|c| c.fingerprint).collect();
        assert_eq!(before, after, "what-if is a dry run");
        assert_eq!(snap.classes.len(), m.model().len(), "live model untouched");
    }

    #[test]
    fn stats_expose_engine_telemetry() {
        let mut at = ActionTable::new();
        let a1 = at.fwd(DeviceId(9));
        let layout = l();
        let mut m = mgr(usize::MAX);
        let r = Rule::new(Match::dst_prefix(&layout, 0xA0, 4), 1, a1);
        m.submit(DeviceId(0), [RuleUpdate::insert(r)]);
        m.flush();
        let s = m.stats();
        assert!(s.engine.ops > 0);
        assert!(s.engine.live_nodes > 2);
        assert!(s.engine.roots_live > 0);
    }
    /// The independent oracle: whatever the netting and the class index
    /// did, every header's action vector in the model must be what each
    /// device's rule list says by plain longest-priority lookup — no
    /// predicate involved. Runs the manager (netting by predicate, indexed
    /// apply) beside a replay through the paper's Reduce I → Reduce II and
    /// the linear-scan apply, over a bulk load and multi-device blocks of
    /// inserts, deletes and modifications, across forced collections.
    #[test]
    fn every_header_matches_fib_lookup_under_both_nettings() {
        use crate::mr2::{reduce_by_action, reduce_by_predicate};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::hash::{Hash, Hasher};

        const BITS: u32 = 10;
        const DEVS: u32 = 6;
        let layout = HeaderLayout::new(&[("dst", BITS)]);
        let mut rng = StdRng::seed_from_u64(0x0AC1_E5ED);

        // Matches come from a small nested pool so that devices share
        // predicates (what the netting keys on) and shadow each other.
        let pool: Vec<(u64, u32)> = (0..28)
            .map(|_| {
                let len = rng.gen_range(1..=BITS);
                ((rng.gen_range(0u64..1 << BITS) >> (BITS - len)) << (BITS - len), len)
            })
            .collect();
        // The oracle's FIBs: (value, len, priority, action), priorities
        // unique per device so that lookup needs no tie-break.
        let mut plain: Vec<Vec<(u64, u32, i64, ActionId)>> = vec![Vec::new(); DEVS as usize];
        let mut serial = 0i64;
        let mut fresh_rule = |rng: &mut StdRng| {
            let (value, len) = pool[rng.gen_range(0..pool.len())];
            serial += 1;
            (value, len, len as i64 * 10_000 + serial, ActionId(rng.gen_range(1u32..5)))
        };
        let rule = |&(value, len, prio, action): &(u64, u32, i64, ActionId)| {
            Rule::new(Match::dst_prefix(&layout, value, len), prio, action)
        };

        let mut mgr = ModelManager::new(ModelManagerConfig::whole_space(layout.clone()));
        // The reference: its own engine, the paper's reduces, no index.
        let mut ref_engine = PredEngine::new(BITS);
        let mut ref_pat = PatStore::new();
        let mut ref_model = InverseModel::new(ref_engine.true_pred());
        ref_model.set_index_enabled(false);
        let mut ref_fibs: HashMap<DeviceId, Fib> = HashMap::new();

        for round in 0..14 {
            // Round 0 is the snapshot; later rounds touch several devices.
            let mut block: Vec<(DeviceId, RuleUpdate)> = Vec::new();
            for d in 0..DEVS {
                let table = &mut plain[d as usize];
                let ops = if round == 0 { 20 } else { rng.gen_range(0..6) };
                for _ in 0..ops {
                    // The snapshot is inserts only, or `bulk_load` falls back.
                    match if round == 0 { 3 } else { rng.gen_range(0..4) } {
                        0 if !table.is_empty() => {
                            let old = table.swap_remove(rng.gen_range(0..table.len()));
                            block.push((DeviceId(d), RuleUpdate::delete(rule(&old))));
                        }
                        1 if !table.is_empty() => {
                            // Modification: same match and priority, next action.
                            let i = rng.gen_range(0..table.len());
                            let old = table[i];
                            table[i].3 = ActionId(old.3 .0 % 4 + 1);
                            block.push((DeviceId(d), RuleUpdate::delete(rule(&old))));
                            block.push((DeviceId(d), RuleUpdate::insert(rule(&table[i]))));
                        }
                        _ => {
                            let new = fresh_rule(&mut rng);
                            table.push(new);
                            block.push((DeviceId(d), RuleUpdate::insert(rule(&new))));
                        }
                    }
                }
            }

            for (d, u) in &block {
                mgr.submit_bulk(*d, [*u]);
            }
            if round == 0 {
                mgr.bulk_load();
                assert_eq!(mgr.stats().shadow_acc_blocks, DEVS as u64, "snapshot path taken");
            } else {
                mgr.flush();
            }

            let mut atomics = Vec::new();
            for d in 0..DEVS {
                let updates: Vec<RuleUpdate> =
                    block.iter().filter(|(dev, _)| dev.0 == d).map(|(_, u)| *u).collect();
                let fib = ref_fibs.entry(DeviceId(d)).or_insert_with(|| Fib::new(&layout));
                let res = merge_block_and_diff(fib, &cancel_updates(&updates), &layout);
                let clip = ref_engine.true_pred();
                let effective = calculate_atomic_overwrites(
                    &mut ref_engine,
                    &layout,
                    fib,
                    &res.diff,
                    &clip,
                    &mut MatchMemo::disabled(),
                );
                atomics.extend(atomic_overwrites(DeviceId(d), &res.diff, effective));
            }
            let reduced = reduce_by_action(&mut ref_engine, &atomics);
            for ow in reduce_by_predicate(&reduced) {
                ref_model.apply_overwrite_linear(&mut ref_engine, &mut ref_pat, &ow);
            }
            drop((atomics, reduced));

            if round % 3 == 2 {
                mgr.gc();
                ref_engine.collect();
            }

            for h in 0..1u64 << BITS {
                let bits: Vec<bool> = (0..BITS).map(|i| (h >> (BITS - 1 - i)) & 1 == 1).collect();
                let got = mgr.model().classify(mgr.engine(), &bits).expect("complementary");
                let want = ref_model.classify(&ref_engine, &bits).expect("complementary");
                for d in 0..DEVS {
                    let lookup = plain[d as usize]
                        .iter()
                        .filter(|(value, len, ..)| (h ^ value) >> (BITS - len) == 0)
                        .max_by_key(|(_, _, prio, _)| *prio)
                        .map_or(flash_netmodel::ACTION_DROP, |r| r.3);
                    assert_eq!(
                        mgr.pat().get(got.vector, DeviceId(d)),
                        lookup,
                        "round {round} header {h:#x} device {d}: netted model"
                    );
                    assert_eq!(
                        ref_pat.get(want.vector, DeviceId(d)),
                        lookup,
                        "round {round} header {h:#x} device {d}: reference model"
                    );
                }
            }
            let mut ref_keys: Vec<u64> = ref_model
                .entries()
                .iter()
                .map(|e| {
                    let mut hasher = std::collections::hash_map::DefaultHasher::new();
                    ref_pat.entries(e.vector).hash(&mut hasher);
                    hasher.finish()
                })
                .collect();
            let mut keys = mgr.class_keys();
            keys.sort_unstable();
            ref_keys.sort_unstable();
            assert_eq!(keys, ref_keys, "round {round}: class fingerprints");
            let (engine, _, model) = mgr.parts_mut();
            model.check_invariants(engine).unwrap();
        }
        let stats = mgr.stats();
        assert!(
            stats.compact_overwrites < stats.atomic_overwrites,
            "the workload never netted anything"
        );
        assert!(stats.classes_probed > 0, "the class index was never used");
    }
}
