//! The persistent sharded verification pipeline (§3.4 input-space
//! partition, §5.5 long-lived subspace verifiers).
//!
//! A [`ShardPool`] spawns N OS worker threads, each owning a static
//! share of the plan's subspaces ("shards", `shard % workers`). Every
//! worker keeps its [`SubspaceVerifier`]s **alive across update
//! blocks** — unique tables, computed caches, PAT stores and CE2D
//! class state all stay warm, which is where the paper's incremental
//! speed comes from: block k+1 only pays for what it changes.
//!
//! Blocks enter through [`ShardPool::submit`], which routes each
//! update against the plan **once** and broadcasts one
//! [`Arc<UpdateBlock>`] to every worker; per-shard queues are index
//! lists into the shared block, so routing a block to 16 shards bumps
//! a refcount instead of deep-cloning the update batch 16 times. The
//! update itself is cloned exactly once, at the shard that applies it.
//!
//! Submission is pipelined: `submit` returns as soon as the block is
//! on the bounded worker queues (waiting only while a queue is full;
//! no block is ever dropped), so routing of block k+1 overlaps
//! verification of block k. Verdicts stream back through a
//! sequence-numbered aggregator: workers emit one [`ShardResult`] per
//! owned shard per block, and [`ShardPool::recv_epoch`] releases an
//! [`EpochReport`] only when *all* shards of the next in-order block
//! have reported, merging property reports and engine telemetry into
//! a per-epoch view.
//!
//! Workers run under supervision ([`crate::supervise`]): a panicking
//! worker is rebuilt by replaying the block history it kept in memory
//! (from its last checkpoint, when checkpointing is on), and the
//! `reported` set it keeps outside the unwind boundary suppresses
//! duplicate results, so the aggregator's per-epoch accounting
//! survives crashes.

use crate::error::FlashError;
use crate::fault::FaultPlan;
use crate::pool::{PoolConfig, WorkerPool, WorkerStats};
use crate::supervise::{OutputClosed, RestartPolicy, SupervisedWorker, WorkerFaults, WorkerHealth};
use crate::verifier::{Property, PropertyReport, SubspaceVerifier, SubspaceVerifierConfig};
use flash_bdd::EngineTelemetry;
use flash_imt::{SubspacePlan, UpdateStats};
use flash_netmodel::{ActionTable, DeviceId, HeaderLayout, Rule, RuleUpdate, Topology};
use std::collections::{HashMap, HashSet};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One routed update block. Shared by `Arc` between the router, every
/// worker queue, and every replay journal: the updates are stored once,
/// and `routed[shard]` lists the indices that shard must apply.
#[derive(Debug)]
pub struct UpdateBlock {
    /// Position in the submission order (the aggregator's epoch key).
    pub seq: u64,
    /// The block's updates, in arrival order.
    pub updates: Vec<(DeviceId, RuleUpdate)>,
    /// Per-shard index lists into `updates` (routed once, at submit).
    pub routed: Vec<Vec<u32>>,
}

impl UpdateBlock {
    /// The devices reporting in this block, in first-appearance order.
    /// Synchronization is global: every shard marks all of them synced.
    pub fn devices(&self) -> Vec<DeviceId> {
        let mut devs = Vec::new();
        for (d, _) in &self.updates {
            if !devs.contains(d) {
                devs.push(*d);
            }
        }
        devs
    }
}

/// Sentinel sequence number carried by bulk-ingestion blocks: they
/// consume no aggregator epoch (no results are emitted until the
/// closing [`ShardJob::Seal`], which has a real seq).
const INGEST_SEQ: u64 = u64::MAX;

/// A job on a shard worker's queue.
#[derive(Clone, Debug)]
pub(crate) enum ShardJob {
    /// Apply (and verify) one routed update block.
    Block(Arc<UpdateBlock>),
    /// Force a mark-sweep collection on every warm engine.
    Collect,
    /// Buffer one routed bulk-ingestion block (seq = [`INGEST_SEQ`]);
    /// no flush, no verification, no results.
    Ingest(Arc<UpdateBlock>),
    /// Close a bulk-ingestion snapshot: bulk-load everything buffered,
    /// mark `devices` synchronized, verify, and emit one
    /// [`ShardResult`] per owned shard under the real epoch `seq`.
    Seal { seq: u64, devices: Arc<Vec<DeviceId>> },
}

/// What one shard produced for one block.
#[derive(Clone, Debug)]
pub struct ShardResult {
    /// The block this result belongs to.
    pub seq: u64,
    /// Global shard (subspace) index.
    pub shard: usize,
    /// Worker that owns the shard.
    pub worker: usize,
    /// True when the block routed nothing to this shard and no
    /// properties are registered: the engine was not touched, and the
    /// stats echo the previous state. (With a query hub, a never-built
    /// shard is built once anyway, to publish its default model.)
    pub skipped: bool,
    /// Time the worker spent on this shard for this block.
    pub cpu: Duration,
    /// Equivalence classes in the shard model after the block.
    pub classes: usize,
    /// Cumulative predicate operations of the shard engine.
    pub ops: u64,
    /// Approximate resident bytes of the shard verifier.
    pub bytes: usize,
    /// Predicate-engine telemetry snapshot after the block.
    pub engine: EngineTelemetry,
    /// New deterministic property reports from this shard.
    pub reports: Vec<PropertyReport>,
    /// Fingerprints of the shard's equivalence classes (one hash per
    /// model entry over its decoded PAT action vector), collected only
    /// when [`ShardPoolConfig::collect_class_keys`] is set.
    pub class_keys: Vec<u64>,
    /// Cumulative model-manager work counters (memo hits, overlap-index
    /// pruning, shadow-strategy choices, ...) after the block.
    pub stats: UpdateStats,
}

/// A shard whose result is missing from a partially released epoch
/// because its owning worker is degraded (or abandoned).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DegradedShard {
    /// Global shard (subspace) index with no result for this epoch.
    pub shard: usize,
    /// The worker that owns the shard.
    pub worker: usize,
    /// First epoch this worker has been missing from — the start of its
    /// degraded window.
    pub since_seq: u64,
}

/// All shard results of one block, in shard order — the pool's
/// per-epoch view.
///
/// Normally `shards` holds one result per shard of the plan. When a
/// worker has exhausted its restart budget and is **degraded** (or
/// abandoned), the aggregator releases the epoch *partially* instead of
/// wedging: the missing shards are listed in `degraded` and the verdict
/// stream is tagged via [`EpochReport::is_partial`]. A later successful
/// rejoin replays the degraded worker's journal; its catch-up verdicts
/// for already-released epochs arrive in a subsequent epoch's `late`
/// list, so the *cumulative* verdict stream stays complete.
#[derive(Clone, Debug)]
pub struct EpochReport {
    pub seq: u64,
    pub shards: Vec<ShardResult>,
    /// Shards with no result in this epoch (owning worker degraded or
    /// abandoned). Empty for a complete epoch.
    pub degraded: Vec<DegradedShard>,
    /// Catch-up property reports `(shard, report)` from earlier,
    /// partially released epochs, delivered by a worker that rejoined
    /// after those epochs had already been released.
    pub late: Vec<(usize, PropertyReport)>,
}

impl EpochReport {
    /// Sum of per-shard class counts (shards partition the space, so
    /// behaviours shared across shards are counted once per shard).
    pub fn total_classes(&self) -> usize {
        self.shards.iter().map(|s| s.classes).sum()
    }

    /// Distinct class fingerprints across all shards — matches the
    /// whole-space model's class count (requires `collect_class_keys`).
    pub fn distinct_classes(&self) -> usize {
        let mut keys = HashSet::new();
        for s in &self.shards {
            keys.extend(s.class_keys.iter().copied());
        }
        keys.len()
    }

    pub fn total_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.bytes).sum()
    }

    /// The slowest shard — the block's critical path with one core per
    /// shard.
    pub fn max_cpu(&self) -> Duration {
        self.shards.iter().map(|s| s.cpu).max().unwrap_or(Duration::ZERO)
    }

    /// True when this epoch was released without results from every
    /// shard (some owning workers degraded/abandoned): its verdicts are
    /// partial and excluded from exact-equivalence accounting.
    pub fn is_partial(&self) -> bool {
        !self.degraded.is_empty()
    }

    /// Every property report of the epoch, tagged with its shard —
    /// including catch-up reports from earlier partial epochs, so the
    /// cumulative stream over all released epochs is complete.
    pub fn reports(&self) -> impl Iterator<Item = (usize, &PropertyReport)> {
        self.shards
            .iter()
            .flat_map(|s| s.reports.iter().map(move |r| (s.shard, r)))
            .chain(self.late.iter().map(|(s, r)| (*s, r)))
    }

    /// Folded predicate-engine telemetry across all shards.
    pub fn engine_totals(&self) -> EngineTelemetry {
        let mut total = EngineTelemetry::default();
        for s in &self.shards {
            total.absorb(&s.engine);
        }
        total
    }
}

/// Configuration of a [`ShardPool`].
#[derive(Clone)]
pub struct ShardPoolConfig {
    pub topo: Arc<Topology>,
    pub actions: Arc<ActionTable>,
    pub layout: HeaderLayout,
    /// The input-space partition; one warm verifier per subspace.
    pub plan: SubspacePlan,
    /// Properties each shard verifies. Empty = pure model construction
    /// (blocks with nothing routed to a shard skip it, once it has
    /// published a model to the query hub, if there is one).
    pub properties: Vec<Property>,
    /// Fast IMT block size threshold (per shard).
    pub bst: usize,
    /// Worker threads; capped by the number of subspaces.
    pub threads: usize,
    /// Per-worker inbound queue capacity (in blocks). `submit` waits
    /// while a worker's queue is full.
    pub capacity: usize,
    pub restart: RestartPolicy,
    /// Collect per-class fingerprints into every [`ShardResult`]
    /// (needed by the parallel-vs-sequential equivalence checks; costs
    /// a model walk per shard per block).
    pub collect_class_keys: bool,
    /// Optional chaos testing: worker kills, hangs and per-batch delays.
    pub faults: Option<FaultPlan>,
    /// Take a per-worker checkpoint (and truncate the replay journal)
    /// every this many jobs. `None` disables checkpointing: crash replay
    /// starts from genesis and the journal grows with the stream.
    pub checkpoint_every: Option<u64>,
    /// Snapshot exchange for the concurrent query tier: when set, every
    /// worker publishes one [`flash_imt::EpochSnapshot`] per built shard
    /// into this hub after each applied block and each bulk-ingestion
    /// seal.
    pub query_hub: Option<Arc<crate::query::QueryHub>>,
}

impl ShardPoolConfig {
    /// A model-construction-only pool (no properties, no topology).
    pub fn model_only(layout: HeaderLayout, plan: SubspacePlan, bst: usize, threads: usize) -> Self {
        ShardPoolConfig {
            topo: Arc::new(Topology::new()),
            actions: Arc::new(ActionTable::new()),
            layout,
            plan,
            properties: Vec::new(),
            bst,
            threads,
            capacity: 64,
            restart: RestartPolicy::default(),
            collect_class_keys: false,
            faults: None,
            checkpoint_every: None,
            query_hub: None,
        }
    }
}

/// One built shard's recovery state. The inverse model is a
/// deterministic function of the FIBs, so this holds rule snapshots,
/// not engine state.
struct ShardCheckpoint {
    /// Global shard (subspace) index.
    shard: usize,
    /// Per-device FIB rule snapshots, default wildcard omitted.
    fibs: Vec<(DeviceId, Vec<Rule>)>,
    /// Devices the loop verifier had marked synchronized.
    synced: Vec<DeviceId>,
    /// Verdict keys already emitted by the shard's verifier.
    emitted: Vec<String>,
    /// Sorted distinct class fingerprints at checkpoint time.
    class_fingerprints: Vec<u64>,
}

/// The verification core of one shard worker: the warm verifiers for
/// its shards, plus checkpoint capture and restore. It is the state a
/// [`ShardWorker`] rebuilds after a panic.
struct ShardCore {
    cfg: Arc<ShardPoolConfig>,
    /// Global shard indices this core owns.
    shards: Vec<usize>,
    worker: usize,
    /// One warm verifier slot per owned shard, parallel to `shards`.
    /// `None` until the shard first has work.
    slots: Vec<Option<SubspaceVerifier>>,
}

impl ShardCore {
    fn new(cfg: Arc<ShardPoolConfig>, shards: Vec<usize>, worker: usize) -> Self {
        let slots = (0..shards.len()).map(|_| None).collect();
        ShardCore { cfg, shards, worker, slots }
    }

    /// Rebuilds a core from a checkpoint. The inverse model is a
    /// deterministic function of the current FIB set, so the checkpoint
    /// stores per-device rule snapshots, not engine state: restore
    /// bulk-loads them into fresh verifiers, merges the checkpointed
    /// emitted-verdict keys (suppressing every verdict that was already
    /// delivered — consistent detection is deterministic, so anything
    /// decidable now was decidable, and emitted, at checkpoint time),
    /// and re-marks the synchronized devices via a detection pass.
    fn restore(
        cfg: Arc<ShardPoolConfig>,
        shards: Vec<usize>,
        worker: usize,
        cp: &[ShardCheckpoint],
    ) -> Self {
        let mut core = ShardCore::new(cfg, shards, worker);
        for scp in cp {
            let Some(local) = core.shards.iter().position(|&s| s == scp.shard) else {
                continue;
            };
            // A fresh verifier receiving only inserts: the bulk path's
            // eligibility holds by construction, so every FIB lands in one
            // bulk load.
            let mut v = core.build_verifier(scp.shard);
            for (dev, rules) in &scp.fibs {
                v.ingest_bulk(*dev, rules.iter().map(|r| RuleUpdate::insert(*r)).collect());
            }
            v.manager_mut().bulk_load();
            v.merge_emitted(scp.emitted.iter().cloned());
            if !core.cfg.properties.is_empty() && !scp.synced.is_empty() {
                // Re-marks synchronization; all reports are suppressed
                // by the merged emitted set.
                let _ = v.detect(&scp.synced);
            }
            if core.cfg.collect_class_keys {
                // Integrity check: the restored model must reproduce the
                // checkpointed class fingerprints exactly.
                let mut keys = v.manager().class_keys();
                keys.sort_unstable();
                keys.dedup();
                assert_eq!(
                    keys, scp.class_fingerprints,
                    "restored shard {} diverges from its checkpoint",
                    scp.shard
                );
            }
            core.slots[local] = Some(v);
        }
        core
    }

    fn build_verifier(&self, shard: usize) -> SubspaceVerifier {
        SubspaceVerifier::new(SubspaceVerifierConfig {
            topo: self.cfg.topo.clone(),
            actions: self.cfg.actions.clone(),
            layout: self.cfg.layout.clone(),
            subspace: self.cfg.plan.subspaces[shard],
            bst: self.cfg.bst,
            properties: self.cfg.properties.clone(),
        })
    }

    /// The verifier of owned shard `local`, built on first use.
    fn warm(&mut self, local: usize) -> &mut SubspaceVerifier {
        if self.slots[local].is_none() {
            self.slots[local] = Some(self.build_verifier(self.shards[local]));
        }
        self.slots[local].as_mut().expect("just built")
    }

    /// Publishes owned shard `local`'s model as epoch `seq` to the query
    /// hub, if [`ShardPoolConfig::query_hub`] is set. Called before the
    /// shard's result is emitted: once an epoch completes at the
    /// aggregator, the hub holds that epoch (or newer) for every shard
    /// the epoch routed to.
    fn publish(&mut self, local: usize, seq: u64) {
        if let (Some(hub), Some(v)) = (&self.cfg.query_hub, &mut self.slots[local]) {
            hub.publish(self.shards[local], v.manager_mut().publish_snapshot(seq));
        }
    }

    /// True when owned shard `local` was never built but the query hub
    /// is set: the shard must still be built once, so that it publishes
    /// its one-class default model. Without it, a query over a block no
    /// rule names finds no snapshot there, and its answer would depend
    /// on how many shards the plan has.
    fn needs_default_model(&self, local: usize) -> bool {
        self.cfg.query_hub.is_some() && self.slots[local].is_none()
    }

    /// Owned shard `local`'s result for epoch `seq`, read from its
    /// verifier; a shard whose engine was never built reports zeros.
    fn result(
        &self,
        local: usize,
        seq: u64,
        skipped: bool,
        t0: Instant,
        reports: Vec<PropertyReport>,
    ) -> ShardResult {
        let mut r = ShardResult {
            seq,
            shard: self.shards[local],
            worker: self.worker,
            skipped,
            cpu: t0.elapsed(),
            classes: 0,
            ops: 0,
            bytes: 0,
            engine: EngineTelemetry::default(),
            reports,
            class_keys: Vec::new(),
            stats: UpdateStats::default(),
        };
        if let Some(v) = &self.slots[local] {
            let mgr = v.manager();
            r.classes = mgr.model().len();
            r.ops = mgr.engine().op_count();
            r.bytes = mgr.approx_bytes();
            r.engine = mgr.engine().telemetry();
            if self.cfg.collect_class_keys {
                r.class_keys = mgr.class_keys();
            }
            r.stats = mgr.stats();
        }
        r
    }

    /// Forces a mark-sweep collection on every warm engine and compacts
    /// its PAT arena.
    fn collect(&mut self) {
        for v in self.slots.iter_mut().flatten() {
            v.manager_mut().gc();
        }
    }

    /// Applies one routed block to every owned shard, handing each
    /// [`ShardResult`] to `sink` (which owns delivery + deduplication).
    fn apply_block(
        &mut self,
        block: &UpdateBlock,
        mut sink: impl FnMut(ShardResult) -> Result<(), OutputClosed>,
    ) -> Result<(), OutputClosed> {
        let devices = block.devices();
        let model_only = self.cfg.properties.is_empty();
        for local in 0..self.slots.len() {
            let t0 = Instant::now();
            let routed = &block.routed[self.shards[local]];
            if routed.is_empty() && model_only && !self.needs_default_model(local) {
                // Nothing routed here and nothing to verify: don't
                // construct (or touch) the engine. Echo the previous
                // state so aggregate counters stay meaningful.
                sink(self.result(local, block.seq, true, t0, Vec::new()))?;
                continue;
            }
            let v = self.warm(local);
            // The one real clone per update, at the applying shard.
            for &i in routed {
                let (d, u) = &block.updates[i as usize];
                v.ingest(*d, vec![*u]);
            }
            v.flush();
            let reports = if model_only {
                Vec::new()
            } else {
                // Synchronization is global: the block's devices
                // completed their epoch FIBs in every subspace.
                v.detect(&devices)
            };
            self.publish(local, block.seq);
            sink(self.result(local, block.seq, false, t0, reports))?;
        }
        Ok(())
    }

    /// Buffers one routed bulk-ingestion block into the owned shards'
    /// verifiers — no flush, no verification, no results. Consecutive
    /// same-device runs in the routed list are batched into one
    /// `ingest_bulk` call each.
    fn ingest_block(&mut self, block: &UpdateBlock) {
        for local in 0..self.slots.len() {
            let routed = &block.routed[self.shards[local]];
            if routed.is_empty() {
                continue;
            }
            let v = self.warm(local);
            let mut run_dev: Option<DeviceId> = None;
            let mut run: Vec<RuleUpdate> = Vec::new();
            for &i in routed {
                let (d, u) = &block.updates[i as usize];
                if run_dev != Some(*d) {
                    if let Some(dev) = run_dev.take() {
                        v.ingest_bulk(dev, std::mem::take(&mut run));
                    }
                    run_dev = Some(*d);
                }
                run.push(*u);
            }
            if let Some(dev) = run_dev {
                v.ingest_bulk(dev, run);
            }
        }
    }

    /// True while any owned shard still buffers bulk-ingested updates
    /// (between an `Ingest` and its `Seal`): a checkpoint taken now
    /// would silently drop the buffered rules, so the worker skips the
    /// opportunity instead.
    fn has_pending(&self) -> bool {
        self.slots
            .iter()
            .flatten()
            .any(|v| v.manager().pending_len() > 0)
    }

    /// Closes a bulk-ingestion snapshot: bulk-loads every owned shard's
    /// buffered updates, marks `devices` synchronized, verifies, and
    /// emits one result per owned shard under the real epoch `seq`.
    fn seal(
        &mut self,
        seq: u64,
        devices: &[DeviceId],
        mut sink: impl FnMut(ShardResult) -> Result<(), OutputClosed>,
    ) -> Result<(), OutputClosed> {
        let model_only = self.cfg.properties.is_empty();
        for local in 0..self.slots.len() {
            let t0 = Instant::now();
            if self.slots[local].is_none() && model_only && !self.needs_default_model(local) {
                // Never touched and nothing to verify: echo an empty
                // skipped result so the aggregator's epoch completes.
                sink(self.result(local, seq, true, t0, Vec::new()))?;
                continue;
            }
            let reports = self.warm(local).seal_bulk(devices);
            self.publish(local, seq);
            sink(self.result(local, seq, false, t0, reports))?;
        }
        Ok(())
    }

    /// Snapshots the core's recovery state: per built shard, its FIB
    /// rule snapshots, synchronized devices, emitted-verdict keys, and
    /// class fingerprints. A never-built shard restores as never built.
    fn checkpoint(&self) -> Vec<ShardCheckpoint> {
        self.slots
            .iter()
            .zip(&self.shards)
            .filter_map(|(slot, &shard)| {
                let v = slot.as_ref()?;
                let mut fingerprints = v.manager().class_keys();
                fingerprints.sort_unstable();
                fingerprints.dedup();
                Some(ShardCheckpoint {
                    shard,
                    fibs: v.manager().fib_snapshot(),
                    synced: v.synchronized_devices(),
                    emitted: v.emitted_keys(),
                    class_fingerprints: fingerprints,
                })
            })
            .collect()
    }

    fn telemetry(&self) -> EngineTelemetry {
        let mut total = EngineTelemetry::default();
        for v in self.slots.iter().flatten() {
            total.absorb(&v.manager().engine().telemetry());
        }
        total
    }
}

/// A shard worker's body: a [`ShardCore`] plus delivery deduplication.
/// The struct itself lives outside the unwind boundary and survives
/// restarts.
struct ShardWorker {
    cfg: Arc<ShardPoolConfig>,
    /// Global shard indices this worker owns.
    shards: Vec<usize>,
    worker: usize,
    out: mpsc::Sender<ShardResult>,
    /// `(seq, shard)` pairs already delivered; survives restarts so
    /// journal replay never double-reports an epoch to the aggregator.
    reported: HashSet<(u64, usize)>,
}

impl SupervisedWorker for ShardWorker {
    type Job = ShardJob;
    type State = ShardCore;
    type Checkpoint = Vec<ShardCheckpoint>;

    fn build(&mut self) -> ShardCore {
        ShardCore::new(self.cfg.clone(), self.shards.clone(), self.worker)
    }

    fn restore(&mut self, cp: &Vec<ShardCheckpoint>) -> ShardCore {
        ShardCore::restore(self.cfg.clone(), self.shards.clone(), self.worker, cp)
    }

    fn checkpoint_every(&self) -> Option<u64> {
        self.cfg.checkpoint_every
    }

    fn take_checkpoint(&mut self, state: &mut ShardCore) -> Option<Vec<ShardCheckpoint>> {
        if state.has_pending() {
            // Mid-bulk-ingestion: buffered updates are not yet in the
            // FIB snapshots. Skip this opportunity — the journal keeps
            // the Ingest frames until the post-seal checkpoint
            // truncates it.
            return None;
        }
        Some(state.checkpoint())
    }

    fn process(&mut self, state: &mut ShardCore, job: ShardJob) -> Result<(), OutputClosed> {
        match job {
            ShardJob::Collect => {
                state.collect();
                Ok(())
            }
            ShardJob::Block(block) => {
                let reported = &mut self.reported;
                let out = &self.out;
                state.apply_block(&block, |r| {
                    // Replay after a crash reprocesses the journal to
                    // rebuild warm state; only results the aggregator
                    // has not seen pass.
                    if reported.insert((r.seq, r.shard)) {
                        out.send(r).map_err(|_| OutputClosed)?;
                    }
                    Ok(())
                })
            }
            ShardJob::Ingest(block) => {
                // Buffered only; results wait for Seal.
                state.ingest_block(&block);
                Ok(())
            }
            ShardJob::Seal { seq, devices } => {
                let reported = &mut self.reported;
                let out = &self.out;
                state.seal(seq, &devices, |r| {
                    if reported.insert((r.seq, r.shard)) {
                        out.send(r).map_err(|_| OutputClosed)?;
                    }
                    Ok(())
                })
            }
        }
    }

    fn telemetry(&self, state: &ShardCore) -> EngineTelemetry {
        state.telemetry()
    }
}

/// Outcome of [`ShardPool::drain`].
#[derive(Debug)]
pub struct ShardDrainOutcome {
    /// Every epoch that completed (all shards reported), in order.
    pub epochs: Vec<EpochReport>,
    /// Late verdicts from rejoined workers that arrived after the last
    /// epoch was released — `(shard, report)` pairs with no epoch left
    /// to ride on. Fold these into cumulative verdict state.
    pub late: Vec<(usize, PropertyReport)>,
    /// Workers that missed the deadline and were abandoned un-joined.
    pub abandoned: Vec<usize>,
    /// Final per-worker counters.
    pub stats: Vec<WorkerStats>,
}

/// Routes update batches against the subspace plan away from the pool:
/// reader threads clone one `BlockRouter` each and route their parsed
/// batches themselves, handing the pre-routed result to
/// [`ShardPool::ingest_routed`] — routing of batch k+1 overlaps
/// verification of batch k even when the pool handle is busy.
#[derive(Clone, Debug)]
pub struct BlockRouter {
    plan: SubspacePlan,
    layout: HeaderLayout,
}

impl BlockRouter {
    /// Routes one batch into per-shard index lists.
    pub fn route(&self, updates: Vec<(DeviceId, RuleUpdate)>) -> RoutedBatch {
        let mut routed: Vec<Vec<u32>> = vec![Vec::new(); self.plan.len()];
        for (i, (_, u)) in updates.iter().enumerate() {
            for s in self.plan.route(&u.rule.mat, &self.layout) {
                routed[s].push(i as u32);
            }
        }
        RoutedBatch { updates, routed }
    }
}

/// A pre-routed update batch produced by a [`BlockRouter`].
#[derive(Debug)]
pub struct RoutedBatch {
    updates: Vec<(DeviceId, RuleUpdate)>,
    routed: Vec<Vec<u32>>,
}

/// Handle to a running persistent sharded verification pipeline.
pub struct ShardPool {
    pool: WorkerPool<ShardJob>,
    plan: SubspacePlan,
    layout: HeaderLayout,
    /// Worker count (shard `s` is owned by worker `s % workers`).
    workers: usize,
    results_rx: Receiver<ShardResult>,
    next_seq: u64,
    /// Next epoch the aggregator will release.
    next_deliver: u64,
    /// Incomplete epochs: seq → shard results received so far.
    pending: HashMap<u64, Vec<ShardResult>>,
    /// Blocks that targeted a worker whose channel had closed.
    lost_to_dead: u64,
    /// worker → first epoch released without it (degraded window start).
    degraded_since: HashMap<usize, u64>,
    /// Catch-up reports from already-released partial epochs, attached
    /// to the next released epoch.
    late: Vec<(usize, PropertyReport)>,
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool")
            .field("workers", &self.pool.worker_count())
            .field("shards", &self.plan.len())
            .field("next_seq", &self.next_seq)
            .finish_non_exhaustive()
    }
}

impl ShardPool {
    /// Spawns the pool: `threads` supervised workers (capped by the
    /// shard count), shard `s` owned by worker `s % threads`.
    pub fn spawn(cfg: ShardPoolConfig) -> Result<Self, FlashError> {
        if cfg.capacity == 0 {
            return Err(FlashError::Config("capacity must be >= 1".into()));
        }
        if cfg.bst == 0 {
            return Err(FlashError::Config(
                "bst (block size threshold) must be >= 1".into(),
            ));
        }
        if cfg.plan.is_empty() {
            return Err(FlashError::Config("subspace plan is empty".into()));
        }
        if let Some(hub) = &cfg.query_hub {
            if hub.shard_count() != cfg.plan.len() {
                return Err(FlashError::Config(format!(
                    "query hub has {} shards but the subspace plan has {}",
                    hub.shard_count(),
                    cfg.plan.len()
                )));
            }
        }
        let workers = cfg.threads.max(1).min(cfg.plan.len());
        if let Some(plan) = &cfg.faults {
            plan.validate(workers)?;
        }
        let (results_tx, results_rx) = mpsc::channel::<ShardResult>();
        let plan = cfg.plan.clone();
        let layout = cfg.layout.clone();
        let pool_cfg = PoolConfig {
            workers,
            capacity: cfg.capacity,
            restart: cfg.restart,
        };
        let faults = cfg.faults.clone();
        let worker_faults = |w: usize| WorkerFaults {
            kill_after: faults.as_ref().and_then(|p| p.kill_for(w)),
            delay: faults.as_ref().and_then(|p| p.worker_delay),
            hang: faults.as_ref().and_then(|p| p.hang_for(w)),
        };
        let cfg = Arc::new(cfg);
        let pool = WorkerPool::spawn(pool_cfg, worker_faults, |w| ShardWorker {
            cfg: cfg.clone(),
            shards: (0..plan.len()).filter(|s| s % workers == w).collect(),
            worker: w,
            out: results_tx.clone(),
            reported: HashSet::new(),
        });
        Ok(ShardPool {
            pool,
            plan,
            layout,
            workers,
            results_rx,
            next_seq: 0,
            next_deliver: 0,
            pending: HashMap::new(),
            lost_to_dead: 0,
            degraded_since: HashMap::new(),
            late: Vec::new(),
        })
    }

    pub fn worker_count(&self) -> usize {
        self.pool.worker_count()
    }

    pub fn shard_count(&self) -> usize {
        self.plan.len()
    }

    /// Routes one update block and broadcasts it to every worker.
    /// Returns the block's sequence number (its epoch key). Blocks are
    /// routed exactly once, here; workers share the block by `Arc`.
    ///
    /// Returns as soon as the block is enqueued: verification of this
    /// block overlaps the routing of the next.
    pub fn submit(&mut self, updates: Vec<(DeviceId, RuleUpdate)>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut routed: Vec<Vec<u32>> = vec![Vec::new(); self.plan.len()];
        for (i, (_, u)) in updates.iter().enumerate() {
            for s in self.plan.route(&u.rule.mat, &self.layout) {
                routed[s].push(i as u32);
            }
        }
        let block = Arc::new(UpdateBlock { seq, updates, routed });
        for w in 0..self.pool.worker_count() {
            if self.pool.send(w, ShardJob::Block(Arc::clone(&block))).is_err() {
                self.lost_to_dead += 1;
            }
        }
        seq
    }

    /// A routing handle for producer threads (see [`BlockRouter`]).
    pub fn router(&self) -> BlockRouter {
        BlockRouter { plan: self.plan.clone(), layout: self.layout.clone() }
    }

    /// Buffers one bulk-ingestion batch into every worker. No epoch is
    /// consumed and no results are emitted until [`Self::seal_snapshot`]
    /// closes the snapshot; workers intern the rules into their pending
    /// queues without flushing, so the expensive model construction
    /// runs once over the full FIB instead of once per batch.
    pub fn ingest(&mut self, updates: Vec<(DeviceId, RuleUpdate)>) -> Result<(), FlashError> {
        let batch = self.router().route(updates);
        self.ingest_routed(batch)
    }

    /// [`Self::ingest`] for batches already routed by a [`BlockRouter`]
    /// (typically on a reader thread).
    pub fn ingest_routed(&mut self, batch: RoutedBatch) -> Result<(), FlashError> {
        let block = Arc::new(UpdateBlock {
            seq: INGEST_SEQ,
            updates: batch.updates,
            routed: batch.routed,
        });
        for w in 0..self.pool.worker_count() {
            if self.pool.send(w, ShardJob::Ingest(Arc::clone(&block))).is_err() {
                self.lost_to_dead += 1;
            }
        }
        Ok(())
    }

    /// Closes the bulk-ingestion snapshot: every buffered update is
    /// bulk-loaded into the shard models, `devices` are marked
    /// synchronized, and one epoch's worth of results — the returned
    /// sequence number — is emitted. Subsequent [`Self::submit`] blocks
    /// continue incrementally from the loaded snapshot.
    pub fn seal_snapshot(&mut self, devices: Vec<DeviceId>) -> Result<u64, FlashError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let devices = Arc::new(devices);
        for w in 0..self.pool.worker_count() {
            let job = ShardJob::Seal { seq, devices: Arc::clone(&devices) };
            if self.pool.send(w, job).is_err() {
                self.lost_to_dead += 1;
            }
        }
        Ok(seq)
    }

    /// Forces a mark-sweep collection on every warm shard engine (the
    /// job queues behind any blocks already submitted).
    pub fn collect_all(&mut self) {
        for w in 0..self.pool.worker_count() {
            if self.pool.send(w, ShardJob::Collect).is_err() {
                self.lost_to_dead += 1;
            }
        }
    }

    fn absorb_result(&mut self, r: ShardResult) {
        // Any result from a worker clears its degraded window: it is
        // producing output again (rejoined, or back under its budget).
        self.degraded_since.remove(&r.worker);
        if r.seq < self.next_deliver {
            // A stale result for an epoch already released partially: a
            // rejoined worker replaying its journal. Its verdicts are
            // delivered late, attached to the next released epoch, so
            // the cumulative verdict stream stays complete. (This also
            // stops stale results from accumulating in `pending`
            // forever.)
            self.late
                .extend(r.reports.into_iter().map(|rep| (r.shard, rep)));
            return;
        }
        self.pending.entry(r.seq).or_default().push(r);
    }

    fn take_ready(&mut self) -> Option<EpochReport> {
        let complete = self
            .pending
            .get(&self.next_deliver)
            .is_some_and(|v| v.len() == self.plan.len());
        if !complete {
            return None;
        }
        let mut shards = self.pending.remove(&self.next_deliver).expect("checked");
        shards.sort_by_key(|r| r.shard);
        let seq = self.next_deliver;
        self.next_deliver += 1;
        Some(EpochReport {
            seq,
            shards,
            degraded: Vec::new(),
            late: std::mem::take(&mut self.late),
        })
    }

    /// Graceful degradation: releases the next epoch *partially* when
    /// every shard still missing from it belongs to a worker whose
    /// health is [`WorkerHealth::Degraded`] or
    /// [`WorkerHealth::Abandoned`] — the consumer keeps receiving
    /// (tagged) verdicts instead of the pipeline wedging behind a dead
    /// worker.
    fn take_partial(&mut self) -> Option<EpochReport> {
        if self.next_deliver >= self.next_seq {
            return None; // nothing submitted for this seq yet
        }
        let present: HashSet<usize> = self
            .pending
            .get(&self.next_deliver)
            .map(|v| v.iter().map(|r| r.shard).collect())
            .unwrap_or_default();
        let missing: Vec<usize> =
            (0..self.plan.len()).filter(|s| !present.contains(s)).collect();
        if missing.is_empty() {
            return None; // complete — take_ready's job
        }
        let out_of_service = |w: usize| {
            matches!(
                self.pool.health(w),
                WorkerHealth::Degraded | WorkerHealth::Abandoned
            )
        };
        if !missing.iter().all(|&s| out_of_service(s % self.workers)) {
            return None; // some missing shard's worker is merely slow
        }
        let seq = self.next_deliver;
        self.next_deliver += 1;
        let mut shards = self.pending.remove(&seq).unwrap_or_default();
        shards.sort_by_key(|r| r.shard);
        let degraded = missing
            .into_iter()
            .map(|shard| {
                let worker = shard % self.workers;
                let since_seq = *self.degraded_since.entry(worker).or_insert(seq);
                DegradedShard { shard, worker, since_seq }
            })
            .collect();
        Some(EpochReport {
            seq,
            shards,
            degraded,
            late: std::mem::take(&mut self.late),
        })
    }

    /// Blocks until the next in-order epoch is complete (all shards
    /// reported), or can be released partially (all missing shards on
    /// degraded/abandoned workers), or `timeout` elapses.
    pub fn recv_epoch(&mut self, timeout: Duration) -> Option<EpochReport> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(e) = self.take_ready() {
                return Some(e);
            }
            if let Some(e) = self.take_partial() {
                return Some(e);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            // Short slices: worker-health transitions (Running →
            // Degraded) don't send a result, so the partial-release
            // check must be re-run even when nothing arrives.
            let slice = (deadline - now).min(Duration::from_millis(25));
            match self.results_rx.recv_timeout(slice) {
                Ok(r) => self.absorb_result(r),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    return self.take_ready().or_else(|| self.take_partial())
                }
            }
        }
    }

    /// Per-worker supervision/channel/engine counters.
    pub fn stats(&self) -> Vec<WorkerStats> {
        self.pool.all_stats()
    }

    /// Blocks submitted to a worker whose channel had closed.
    pub fn lost_to_dead_workers(&self) -> u64 {
        self.lost_to_dead
    }

    /// Current lifecycle state of worker `w`.
    pub fn worker_health(&self, w: usize) -> WorkerHealth {
        self.pool.health(w)
    }

    /// Graceful drain: closes the queues (workers flush everything
    /// already submitted, then exit), joins under `deadline`, and
    /// returns every epoch that completed, in order.
    pub fn drain(mut self, deadline: Duration) -> ShardDrainOutcome {
        self.pool.close_inputs();
        let abandoned = self.pool.join_with_deadline(deadline);
        while let Ok(r) = self.results_rx.try_recv() {
            self.absorb_result(r);
        }
        let mut epochs = Vec::new();
        loop {
            if let Some(e) = self.take_ready() {
                epochs.push(e);
                continue;
            }
            // Worker health is final after the join: epochs missing
            // only degraded/abandoned shards are released partially.
            if let Some(e) = self.take_partial() {
                epochs.push(e);
                continue;
            }
            break;
        }
        ShardDrainOutcome {
            epochs,
            late: std::mem::take(&mut self.late),
            abandoned,
            stats: self.pool.all_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::KillSpec;
    use flash_netmodel::{FieldId, Match, Rule};

    fn triangle() -> (Arc<Topology>, Vec<DeviceId>, Arc<ActionTable>, HeaderLayout) {
        let mut t = Topology::new();
        let a = t.add_device("a");
        let b = t.add_device("b");
        let c = t.add_device("c");
        t.add_bilink(a, b);
        t.add_bilink(b, c);
        t.add_bilink(a, c);
        let layout = HeaderLayout::dst_only();
        let mut at = ActionTable::new();
        for d in [a, b, c] {
            at.fwd(d);
        }
        (Arc::new(t), vec![a, b, c], Arc::new(at), layout)
    }

    fn pool_config(
        topo: &Arc<Topology>,
        actions: &Arc<ActionTable>,
        layout: &HeaderLayout,
        plan: SubspacePlan,
        threads: usize,
    ) -> ShardPoolConfig {
        ShardPoolConfig {
            topo: topo.clone(),
            actions: actions.clone(),
            layout: layout.clone(),
            plan,
            properties: vec![Property::LoopFreedom],
            bst: usize::MAX,
            threads,
            capacity: 64,
            restart: RestartPolicy::default(),
            collect_class_keys: true,
            faults: None,
            checkpoint_every: None,
            query_hub: None,
        }
    }

    #[test]
    fn epochs_arrive_in_order_and_complete() {
        let (topo, ids, actions, layout) = triangle();
        let plan = SubspacePlan::by_prefix_bits(&layout, FieldId(0), 2);
        let mut pool =
            ShardPool::spawn(pool_config(&topo, &actions, &layout, plan, 2)).unwrap();
        let m = Match::dst_prefix(&layout, 10, 8);
        let fwd_b = flash_netmodel::ActionId(2);
        for k in 0..3u64 {
            pool.submit(vec![(
                ids[0],
                RuleUpdate::insert(Rule::new(m, (k + 1) as i64, fwd_b)),
            )]);
        }
        for k in 0..3u64 {
            let e = pool
                .recv_epoch(Duration::from_secs(10))
                .expect("epoch completes");
            assert_eq!(e.seq, k);
            assert_eq!(e.shards.len(), 4, "one result per shard");
            assert!(e.shards.windows(2).all(|w| w[0].shard < w[1].shard));
        }
        let out = pool.drain(Duration::from_secs(10));
        assert!(out.abandoned.is_empty());
    }

    #[test]
    fn loop_is_detected_by_exactly_one_shard() {
        let (topo, ids, actions, layout) = triangle();
        let plan = SubspacePlan::by_prefix_bits(&layout, FieldId(0), 1);
        let mut pool =
            ShardPool::spawn(pool_config(&topo, &actions, &layout, plan, 2)).unwrap();
        let m = Match::dst_prefix(&layout, 10, 8); // low half of dst space
        let (fwd_a, fwd_b) = (flash_netmodel::ActionId(1), flash_netmodel::ActionId(2));
        pool.submit(vec![
            (ids[0], RuleUpdate::insert(Rule::new(m, 1, fwd_b))),
            (ids[1], RuleUpdate::insert(Rule::new(m, 1, fwd_a))),
        ]);
        let e = pool.recv_epoch(Duration::from_secs(10)).expect("epoch");
        let loops: Vec<_> = e
            .reports()
            .filter(|(_, r)| matches!(r, PropertyReport::LoopFound { .. }))
            .collect();
        assert_eq!(loops.len(), 1, "the loop lives in one subspace");
        assert_eq!(loops[0].0, 0, "the low-half shard");
        pool.drain(Duration::from_secs(10));
    }

    #[test]
    fn empty_shards_are_skipped_in_model_only_mode() {
        let layout = HeaderLayout::new(&[("dst", 8)]);
        let plan = SubspacePlan::by_prefix_bits(&layout, FieldId(0), 2);
        let mut pool = ShardPool::spawn(ShardPoolConfig::model_only(
            layout.clone(),
            plan,
            usize::MAX,
            8,
        ))
        .unwrap();
        assert_eq!(pool.worker_count(), 4, "workers are capped at the shard count");
        // One insert confined to the first quarter of the space.
        let mut at = ActionTable::new();
        let a = at.fwd(DeviceId(5));
        pool.submit(vec![(
            DeviceId(0),
            RuleUpdate::insert(Rule::new(Match::dst_prefix(&layout, 0x00, 4), 4, a)),
        )]);
        let e = pool.recv_epoch(Duration::from_secs(10)).expect("epoch");
        assert!(!e.shards[0].skipped, "the routed shard runs");
        assert!(e.shards[0].classes >= 2);
        for s in &e.shards[1..] {
            assert!(s.skipped, "unrouted shard {} must be skipped", s.shard);
            assert_eq!(s.ops, 0, "no engine was constructed");
        }
        pool.drain(Duration::from_secs(10));
    }

    #[test]
    fn warm_state_survives_blocks_and_forced_collections() {
        let (topo, ids, actions, layout) = triangle();
        let plan = SubspacePlan::single();
        let mut pool =
            ShardPool::spawn(pool_config(&topo, &actions, &layout, plan, 1)).unwrap();
        let m = Match::dst_prefix(&layout, 10, 8);
        let fwd_b = flash_netmodel::ActionId(2);
        pool.submit(vec![(
            ids[0],
            RuleUpdate::insert(Rule::new(m, 1, fwd_b)),
        )]);
        let e0 = pool.recv_epoch(Duration::from_secs(10)).expect("epoch 0");
        let ops_after_0 = e0.shards[0].ops;
        pool.collect_all();
        pool.submit(vec![(
            ids[1],
            RuleUpdate::insert(Rule::new(m, 2, fwd_b)),
        )]);
        let e1 = pool.recv_epoch(Duration::from_secs(10)).expect("epoch 1");
        // Cumulative op counter proves the same engine survived the
        // block boundary and the forced collection.
        assert!(e1.shards[0].ops > ops_after_0);
        pool.drain(Duration::from_secs(10));
    }

    #[test]
    fn killed_worker_replays_without_duplicating_epochs() {
        let (topo, ids, actions, layout) = triangle();
        let plan = SubspacePlan::by_prefix_bits(&layout, FieldId(0), 2);
        let mut cfg = pool_config(&topo, &actions, &layout, plan, 2);
        cfg.faults = Some(FaultPlan {
            kill_workers: vec![KillSpec { worker: 0, after_batches: 2 }],
            ..FaultPlan::default()
        });
        let mut pool = ShardPool::spawn(cfg).unwrap();
        let m = Match::dst_prefix(&layout, 10, 8);
        let fwd_b = flash_netmodel::ActionId(2);
        for k in 0..4u64 {
            pool.submit(vec![(
                ids[(k % 3) as usize],
                RuleUpdate::insert(Rule::new(m, (k + 1) as i64, fwd_b)),
            )]);
        }
        for k in 0..4u64 {
            let e = pool
                .recv_epoch(Duration::from_secs(10))
                .expect("every epoch completes despite the crash");
            assert_eq!(e.seq, k);
            assert_eq!(e.shards.len(), 4);
        }
        let out = pool.drain(Duration::from_secs(10));
        assert!(out.abandoned.is_empty());
        assert_eq!(out.stats[0].restarts, 1, "worker 0 was respawned");
        assert!(out.epochs.is_empty(), "no duplicate epochs after replay");
    }

    #[test]
    fn restart_budget_exhaustion_abandons_worker_without_wedging_send() {
        let (topo, ids, actions, layout) = triangle();
        let plan = SubspacePlan::by_prefix_bits(&layout, FieldId(0), 1);
        let mut cfg = pool_config(&topo, &actions, &layout, plan, 2);
        cfg.capacity = 2;
        cfg.restart = RestartPolicy {
            max_restarts: 0,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
            rejoin_backoff: None,
        };
        cfg.faults = Some(FaultPlan {
            kill_workers: vec![KillSpec { worker: 0, after_batches: 1 }],
            ..FaultPlan::default()
        });
        let mut pool = ShardPool::spawn(cfg).unwrap();
        let m = Match::dst_prefix(&layout, 10, 8);
        let fwd_b = flash_netmodel::ActionId(2);
        let block = |k: i64| vec![(ids[0], RuleUpdate::insert(Rule::new(m, k, fwd_b)))];
        // More blocks than worker 0's queue holds: none of these submits
        // may wedge on the dying worker.
        for k in 0..20 {
            pool.submit(block(k));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.worker_health(0) != WorkerHealth::Abandoned {
            assert!(Instant::now() < deadline, "worker 0 was never abandoned");
            std::thread::sleep(Duration::from_millis(5));
        }
        for k in 20..40 {
            pool.submit(block(k));
        }
        assert!(pool.lost_to_dead_workers() > 0);
        let stats = pool.stats();
        assert!(matches!(
            stats[0].last_error,
            Some(FlashError::RestartsExhausted { worker: 0, restarts: 0 })
        ));
        // Every epoch is released without the abandoned worker's shard.
        for k in 0..40u64 {
            let e = pool
                .recv_epoch(Duration::from_secs(10))
                .expect("epochs are released partially, not wedged");
            assert_eq!(e.seq, k);
            assert!(e.is_partial());
            assert_eq!(e.shards.len(), 1);
            assert_eq!(
                e.degraded,
                vec![DegradedShard { shard: 0, worker: 0, since_seq: 0 }]
            );
        }
        let out = pool.drain(Duration::from_secs(5));
        assert!(out.abandoned.is_empty(), "the abandoned supervisor still exits");
        assert_eq!(out.stats[1].restarts, 0);
    }

    #[test]
    fn full_queues_block_submit_and_drop_nothing() {
        let (topo, ids, actions, layout) = triangle();
        let plan = SubspacePlan::by_prefix_bits(&layout, FieldId(0), 1);
        let mut cfg = pool_config(&topo, &actions, &layout, plan, 2);
        cfg.capacity = 1;
        cfg.faults = Some(FaultPlan {
            worker_delay: Some(Duration::from_millis(5)),
            ..FaultPlan::default()
        });
        let mut pool = ShardPool::spawn(cfg).unwrap();
        let m = Match::dst_prefix(&layout, 10, 8);
        let fwd_b = flash_netmodel::ActionId(2);
        // Back to back into one-slot queues of slow workers: each submit
        // waits for space instead of dropping a block.
        for k in 0..10i64 {
            pool.submit(vec![(ids[0], RuleUpdate::insert(Rule::new(m, k, fwd_b)))]);
        }
        for k in 0..10u64 {
            let e = pool.recv_epoch(Duration::from_secs(10)).expect("epoch completes");
            assert_eq!(e.seq, k, "epochs are released in order");
            assert!(!e.is_partial());
            assert_eq!(e.shards.len(), 2);
        }
        let out = pool.drain(Duration::from_secs(10));
        assert!(out.epochs.is_empty());
        for s in &out.stats {
            assert_eq!(s.channel.enqueued, 10, "worker {} lost a block", s.worker);
            assert!(s.channel.max_depth <= 1);
        }
    }

    /// Sorted distinct class fingerprints across an epoch's shards.
    fn epoch_keys(e: &EpochReport) -> Vec<u64> {
        let mut k: Vec<u64> =
            e.shards.iter().flat_map(|s| s.class_keys.iter().copied()).collect();
        k.sort_unstable();
        k.dedup();
        k
    }

    /// Sorted `(shard, report)` strings of an epoch.
    fn epoch_reports(e: &EpochReport) -> Vec<String> {
        let mut r: Vec<String> = e.reports().map(|(s, r)| format!("{s}:{r:?}")).collect();
        r.sort();
        r
    }

    #[test]
    fn bulk_ingest_seal_matches_submit() {
        let (topo, ids, actions, layout) = triangle();
        let plan = SubspacePlan::by_prefix_bits(&layout, FieldId(0), 2);
        let mut seq_pool =
            ShardPool::spawn(pool_config(&topo, &actions, &layout, plan.clone(), 2)).unwrap();
        let mut bulk_pool =
            ShardPool::spawn(pool_config(&topo, &actions, &layout, plan, 2)).unwrap();
        let m1 = Match::dst_prefix(&layout, 10, 8);
        let m2 = Match::dst_prefix(&layout, 200, 8);
        let (fwd_b, fwd_c) = (flash_netmodel::ActionId(2), flash_netmodel::ActionId(3));
        let updates = vec![
            (ids[0], RuleUpdate::insert(Rule::new(m1, 1, fwd_b))),
            (ids[1], RuleUpdate::insert(Rule::new(m1, 1, fwd_c))),
            (ids[0], RuleUpdate::insert(Rule::new(m2, 2, fwd_c))),
        ];
        seq_pool.submit(updates.clone());
        let e_seq = seq_pool.recv_epoch(Duration::from_secs(10)).expect("submit epoch");

        // The same snapshot in two ingest batches (one pre-routed on a
        // "reader thread", one routed by the pool) plus a seal.
        let router = bulk_pool.router();
        bulk_pool.ingest_routed(router.route(updates[..2].to_vec())).unwrap();
        bulk_pool.ingest(updates[2..].to_vec()).unwrap();
        let seq = bulk_pool.seal_snapshot(vec![ids[0], ids[1]]).unwrap();
        assert_eq!(seq, 0, "ingest batches consume no epochs");
        let e_bulk = bulk_pool.recv_epoch(Duration::from_secs(10)).expect("seal epoch");
        assert_eq!(e_bulk.seq, 0);
        assert_eq!(e_bulk.shards.len(), 4, "one result per shard at the seal");
        assert_eq!(epoch_keys(&e_bulk), epoch_keys(&e_seq), "identical models");
        assert_eq!(epoch_reports(&e_bulk), epoch_reports(&e_seq), "identical verdicts");

        // Incremental updates keep flowing after the seal.
        bulk_pool.submit(vec![(ids[2], RuleUpdate::insert(Rule::new(m2, 3, fwd_b)))]);
        let e1 = bulk_pool.recv_epoch(Duration::from_secs(10)).expect("post-seal epoch");
        assert_eq!(e1.seq, 1);
        seq_pool.drain(Duration::from_secs(10));
        bulk_pool.drain(Duration::from_secs(10));
    }

    #[test]
    fn killed_worker_replays_bulk_ingest() {
        let (topo, ids, actions, layout) = triangle();
        let plan = SubspacePlan::by_prefix_bits(&layout, FieldId(0), 2);
        let mut clean_cfg = pool_config(&topo, &actions, &layout, plan.clone(), 2);
        let mut cfg = pool_config(&topo, &actions, &layout, plan, 2);
        cfg.faults = Some(FaultPlan {
            kill_workers: vec![KillSpec { worker: 0, after_batches: 2 }],
            ..FaultPlan::default()
        });
        clean_cfg.faults = None;
        let mut clean = ShardPool::spawn(clean_cfg).unwrap();
        let mut pool = ShardPool::spawn(cfg).unwrap();
        let m = Match::dst_prefix(&layout, 10, 8);
        let fwd_b = flash_netmodel::ActionId(2);
        let batches: Vec<Vec<(DeviceId, RuleUpdate)>> = (0..3u64)
            .map(|k| {
                vec![(
                    ids[(k % 3) as usize],
                    RuleUpdate::insert(Rule::new(m, (k + 1) as i64, fwd_b)),
                )]
            })
            .collect();
        for p in [&mut clean, &mut pool] {
            for b in &batches {
                p.ingest(b.clone()).unwrap();
            }
            p.seal_snapshot(ids.clone()).unwrap();
        }
        let e_clean = clean.recv_epoch(Duration::from_secs(10)).expect("clean seal");
        // Worker 0 dies on its second ingest job; the journal replays
        // the buffered blocks and the seal still completes identically.
        let e = pool.recv_epoch(Duration::from_secs(10)).expect("seal survives the crash");
        assert_eq!(e.shards.len(), 4);
        assert_eq!(epoch_keys(&e), epoch_keys(&e_clean));
        assert_eq!(epoch_reports(&e), epoch_reports(&e_clean));
        let out = pool.drain(Duration::from_secs(10));
        assert_eq!(out.stats[0].restarts, 1, "worker 0 was respawned");
        clean.drain(Duration::from_secs(10));
    }

    #[test]
    fn checkpoints_defer_until_seal() {
        let (topo, ids, actions, layout) = triangle();
        // One worker owning both shards: the routed shard's pending
        // bulk queue must hold back the whole worker's checkpoint.
        let plan = SubspacePlan::by_prefix_bits(&layout, FieldId(0), 1);
        let mut cfg = pool_config(&topo, &actions, &layout, plan, 1);
        cfg.checkpoint_every = Some(1);
        let mut pool = ShardPool::spawn(cfg).unwrap();
        let m = Match::dst_prefix(&layout, 10, 8);
        let fwd_b = flash_netmodel::ActionId(2);
        for k in 0..3i64 {
            pool.ingest(vec![(
                ids[0],
                RuleUpdate::insert(Rule::new(m, k + 1, fwd_b)),
            )])
            .unwrap();
        }
        pool.seal_snapshot(vec![ids[0]]).unwrap();
        pool.recv_epoch(Duration::from_secs(10)).expect("seal epoch");
        // With checkpoint_every=1, every ingest job is a checkpoint
        // opportunity — all skipped while bulk updates are pending. The
        // first checkpoint lands right after the seal.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let stats = pool.stats();
            if stats.iter().all(|s| s.checkpoints >= 1) {
                for s in &stats {
                    assert_eq!(
                        s.checkpoints, 1,
                        "worker {} checkpointed mid-bulk",
                        s.worker
                    );
                }
                break;
            }
            assert!(Instant::now() < deadline, "no checkpoint after the seal");
            std::thread::sleep(Duration::from_millis(10));
        }
        pool.drain(Duration::from_secs(10));
    }

    /// A diamond with a chord over an 8-bit `dst`, and five blocks on it:
    /// a forwarding chain per quarter, churn, a 2-cycle, a delete, and a
    /// 3-cycle.
    fn diamond_stream() -> (ShardPoolConfig, Vec<Vec<(DeviceId, RuleUpdate)>>) {
        let mut t = Topology::new();
        let d: Vec<DeviceId> = ["a", "b", "c", "d"].iter().map(|n| t.add_device(*n)).collect();
        for i in 0..4 {
            t.add_bilink(d[i], d[(i + 1) % 4]);
        }
        t.add_bilink(d[0], d[2]);
        let layout = HeaderLayout::new(&[("dst", 8)]);
        let mut at = ActionTable::new();
        let fwd: Vec<_> = d.iter().map(|&x| at.fwd(x)).collect();
        let q = |i: u64| Match::dst_prefix(&layout, i << 6, 2);
        let p = |i: u64, v: u64| Match::dst_prefix(&layout, (i << 6) | (v << 2), 6);
        let ins = |dev: usize, m: Match, prio: i64, to: usize| {
            (d[dev], RuleUpdate::insert(Rule::new(m, prio, fwd[to])))
        };
        let stream = vec![
            (0..4).map(|i| ins(i, q(i as u64), 2, (i + 1) % 4)).collect(),
            vec![ins(0, p(0, 3), 6, 2), ins(2, p(2, 5), 6, 3), ins(3, p(3, 1), 6, 0)],
            vec![ins(0, p(1, 7), 6, 1), ins(1, p(1, 7), 6, 0)],
            vec![
                (d[0], RuleUpdate::delete(Rule::new(p(0, 3), 6, fwd[2]))),
                ins(2, p(2, 9), 6, 1),
            ],
            vec![ins(1, p(3, 11), 6, 2), ins(2, p(3, 11), 6, 3), ins(3, p(3, 11), 6, 1)],
        ];
        let plan = SubspacePlan::by_prefix_bits(&layout, FieldId(0), 2);
        let cfg = pool_config(&Arc::new(t), &Arc::new(at), &layout, plan, 1);
        (cfg, stream)
    }

    /// A checkpoint is equivalent to genesis replay: after k blocks,
    /// every built shard's checkpointed class fingerprints equal those
    /// of a fresh verifier replayed over the same k blocks, and a core
    /// restored from the checkpoint reproduces them (`restore` asserts
    /// that itself while `collect_class_keys` is set).
    #[test]
    fn checkpoint_matches_genesis_replay() {
        let (cfg, stream) = diamond_stream();
        let cfg = Arc::new(cfg);
        let shards: Vec<usize> = (0..cfg.plan.len()).collect();
        let router = BlockRouter { plan: cfg.plan.clone(), layout: cfg.layout.clone() };
        let k = 4;
        let mut core = ShardCore::new(cfg.clone(), shards.clone(), 0);
        let mut loops = 0;
        for (seq, updates) in stream[..k].iter().enumerate() {
            let RoutedBatch { updates, routed } = router.route(updates.clone());
            let block = UpdateBlock { seq: seq as u64, updates, routed };
            let sink = |r: ShardResult| {
                loops += r
                    .reports
                    .iter()
                    .filter(|rep| matches!(rep, PropertyReport::LoopFound { .. }))
                    .count();
                Ok(())
            };
            assert!(core.apply_block(&block, sink).is_ok());
        }
        assert_eq!(loops, 1, "the 2-cycle of block 2 is reported once");
        let cp = core.checkpoint();
        assert_eq!(cp.len(), shards.len(), "block 0 built every shard");
        for scp in &cp {
            let mut v = core.build_verifier(scp.shard);
            for block in &stream[..k] {
                for (d, u) in block {
                    v.ingest(*d, vec![*u]);
                }
                v.flush();
            }
            let mut genesis = v.manager().class_keys();
            genesis.sort_unstable();
            genesis.dedup();
            assert_eq!(
                genesis, scp.class_fingerprints,
                "shard {}: checkpoint fingerprints must equal genesis replay",
                scp.shard
            );
        }
        assert!(cp.iter().any(|scp| !scp.emitted.is_empty()), "the loop verdict is kept");
        let restored = ShardCore::restore(cfg, shards, 0, &cp);
        assert!(restored.slots.iter().all(Option::is_some), "every shard is rebuilt");
    }

    #[test]
    fn spawn_rejects_invalid_config() {
        let (topo, _, actions, layout) = triangle();
        let mut cfg =
            pool_config(&topo, &actions, &layout, SubspacePlan::single(), 1);
        cfg.capacity = 0;
        assert!(matches!(
            ShardPool::spawn(cfg),
            Err(FlashError::Config(_))
        ));
        let mut cfg =
            pool_config(&topo, &actions, &layout, SubspacePlan::single(), 1);
        cfg.bst = 0;
        assert!(matches!(
            ShardPool::spawn(cfg),
            Err(FlashError::Config(_))
        ));
    }
}
