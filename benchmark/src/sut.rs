//! Every call into the system under test.
//!
//! The rest of the benchmark sees only the types re-exported here and
//! the functions below, so a later change to the system's API is a
//! change to this file alone. Configurations are built from the
//! system's constructor helpers (`ShardPoolConfig::model_only`,
//! `ModelManagerConfig::whole_space`, `QueryServiceConfig::for_pool`)
//! plus their topology / action / property / hub fields; no tuning,
//! GC or cache field is named, so whatever defaults the system ships
//! are what is measured.

use crate::trace::Tracer;
use flash_bdd::EngineTelemetry;
use flash_ce2d::{LoopVerdict, LoopVerifier, RegexVerifier, Verdict};
use flash_core::{
    query, Backpressure, EpochReport, PropertyReport, QueryHub, QueryServiceConfig, ShardPool,
    ShardPoolConfig,
};
use flash_imt::{EpochSnapshot, ModelManager, ModelManagerConfig, SubspacePlan, UpdateStats};
use flash_netmodel::{Action, ActionTable, FieldId, HeaderLayout, Match, MatchTable, Topology};
use flash_spec::{parse_path_expr, Requirement};
use flash_workloads::dataset::{self, DatasetHeader};
use flash_workloads::fibgen::{self, FibDiscipline};
use flash_workloads::settings::Scale;
use flash_workloads::{fat_tree, Setting, SettingName};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use flash_core::shard::{BlockRouter as Router, RoutedBatch as Routed};
pub use flash_core::{
    AnswerKind, PendingAnswer, Property, Query, QueryAnswer, QueryService, QuerySession,
};
pub use flash_netmodel::{ActionId, DeviceId, Rule, RuleOp, RuleUpdate};

/// One native update addressed to its device.
pub type Update = (DeviceId, RuleUpdate);

/// How long the benchmark waits for one epoch before it counts the
/// operation as failed.
const EPOCH_TIMEOUT: Duration = Duration::from_secs(120);

/// What a pool and the layers need to know about a data plane.
#[derive(Clone)]
pub struct Plane {
    pub topo: Arc<Topology>,
    pub actions: Arc<ActionTable>,
    pub layout: HeaderLayout,
}

impl Plane {
    pub fn devices(&self) -> Vec<DeviceId> {
        self.topo.devices().collect()
    }

    pub fn successors(&self, dev: DeviceId) -> &[DeviceId] {
        self.topo.successors(dev)
    }

    /// The interned "forward to `next`" action, which the generated data
    /// planes all contain.
    pub fn fwd(&self, next: DeviceId) -> Option<ActionId> {
        self.actions.lookup(&Action::fwd(next))
    }

    pub fn next_hops(&self, action: ActionId) -> &[DeviceId] {
        self.actions.next_hops(action)
    }
}

/// A seed-independent content hash of a rule (the interned match ids
/// themselves depend on interning order).
pub fn rule_hash(r: &Rule) -> u64 {
    r.mat
        .hash64()
        .rotate_left(17)
        .wrapping_add(r.priority as u64)
        .rotate_left(17)
        .wrapping_add(r.action.0 as u64)
}

/// How many of `updates` (all for one device) survive MR²'s netting.
pub fn surviving_updates(updates: &[RuleUpdate]) -> usize {
    flash_imt::mr2::cancel_updates(updates).len()
}

/// Match-interning counters of the process-global table.
pub fn intern_counts() -> (u64, u64) {
    let s = MatchTable::global().stats();
    (s.distinct as u64, s.hits)
}

// ---------------------------------------------------------------------
// Inputs built by the system's own generators
// ---------------------------------------------------------------------

/// An in-memory data plane: context plus every device's rules.
pub struct Base {
    pub plane: Plane,
    pub fibs: Vec<(DeviceId, Vec<Rule>)>,
}

fn base_of(topo: Arc<Topology>, g: fibgen::GeneratedFibs) -> Base {
    Base {
        plane: Plane {
            topo,
            actions: Arc::new(g.actions),
            layout: g.layout,
        },
        fibs: g.fibs.into_iter().map(|f| (f.device, f.rules)).collect(),
    }
}

/// The Stanford-trace stand-in of Table 2: a 16-node mesh with random
/// overlapping prefixes.
pub fn stanford_trace(rules_per_device: usize) -> Base {
    let scale = Scale {
        trace_rules_per_device: rules_per_device,
        ..Scale::default()
    };
    let s = Setting::build(SettingName::StanfordTrace, scale);
    base_of(s.topo, s.fibs)
}

/// A fat tree's edge switches and the destination block each owns.
pub struct TorPrefixes(pub Vec<(DeviceId, u64, u32)>);

/// The switches of a fat tree by tier.
pub struct Tiers {
    pub tors: Vec<DeviceId>,
    pub aggs: Vec<DeviceId>,
    pub cores: Vec<DeviceId>,
}

/// A `k`-ary fat tree with full-ECMP shortest-path FIBs.
pub fn fat_tree_ecmp(k: u32, prefixes_per_tor: u32) -> (Base, TorPrefixes, Tiers) {
    let ft = fat_tree(k, 8);
    let g = fibgen::generate(&ft, FibDiscipline::ApspEcmp, prefixes_per_tor);
    let tiers = Tiers {
        tors: ft.all_tors(),
        aggs: ft.aggs.iter().flatten().copied().collect(),
        cores: ft.cores.clone(),
    };
    (
        base_of(ft.topo.clone(), g),
        TorPrefixes(ft.tor_prefix),
        tiers,
    )
}

/// Writes the `k`-ary fat-tree StdFIB dataset in the on-disk layout.
/// Returns `(devices, rules)` and the ToR prefix blocks.
pub fn generate_dataset(
    dir: &Path,
    k: u32,
    prefixes_per_tor: u32,
) -> Result<(usize, usize, TorPrefixes), String> {
    let _ = std::fs::remove_dir_all(dir);
    let ft = fat_tree(k, 8);
    let s = dataset::generate_fat_tree_dataset_from(dir, &ft, prefixes_per_tor)
        .map_err(|e| e.to_string())?;
    Ok((s.devices, s.rules, TorPrefixes(ft.tor_prefix)))
}

/// An on-disk dataset whose header and action table are loaded.
pub struct Dataset {
    header: DatasetHeader,
    pub plane: Plane,
    pub rules: usize,
}

impl Dataset {
    /// Reads the header files and makes the first pass over the route
    /// files, which builds the action table. `order` permutes the devices
    /// the second pass streams.
    pub fn open(dir: &Path, order: impl FnOnce(&mut [DeviceId])) -> Result<Dataset, String> {
        let mut header = dataset::load_header(dir).map_err(|e| e.to_string())?;
        order(&mut header.route_devices);
        let mut actions = ActionTable::new();
        let rules = header
            .stream_routes(&mut actions, |_, _| Ok(()))
            .map_err(|e| e.to_string())?;
        let plane = Plane {
            topo: header.topo.clone(),
            actions: Arc::new(actions),
            layout: header.layout.clone(),
        };
        Ok(Dataset {
            header,
            plane,
            rules,
        })
    }

    pub fn devices(&self) -> &[DeviceId] {
        &self.header.route_devices
    }

    /// Second pass on `readers` threads: each device's rules become
    /// insert updates, `map` runs on the reader thread and `sink` on the
    /// caller's, in device order.
    pub fn stream<T: Send>(
        &self,
        readers: usize,
        map: impl Fn(Vec<Update>) -> T + Sync,
        mut sink: impl FnMut(DeviceId, T),
    ) -> Result<usize, String> {
        self.header
            .stream_routes_parallel(
                &self.plane.actions,
                readers,
                |dev, rules| {
                    map(rules
                        .into_iter()
                        .map(|r| (dev, RuleUpdate::insert(r)))
                        .collect())
                },
                |dev, item| {
                    sink(dev, item);
                    Ok(())
                },
            )
            .map_err(|e| e.to_string())
    }
}

/// `src .* dst` for the packets of `prefix`: traffic entering at `src`
/// must reach `dst`.
pub fn reach_requirement(
    plane: &Plane,
    src: DeviceId,
    dst: DeviceId,
    prefix: (u64, u32),
) -> Property {
    let (s, d) = (plane.topo.name(src), plane.topo.name(dst));
    let expr = parse_path_expr(&format!("{s} .* {d}")).expect("device names are identifiers");
    Property::Requirement {
        requirement: Requirement::new(
            format!("{s}->{d}"),
            Match::dst_prefix(&plane.layout, prefix.0, prefix.1),
            vec![src],
            expr,
        ),
        dests: Vec::new(),
    }
}

// ---------------------------------------------------------------------
// The sharded pipeline
// ---------------------------------------------------------------------

/// What one released epoch said.
#[derive(Default)]
pub struct Epoch {
    /// Released without every shard's result.
    pub partial: bool,
    pub shard_cpu: Vec<Duration>,
    pub loop_free: usize,
    pub satisfied: usize,
    pub loops: usize,
    pub unsatisfied: usize,
    /// Sorted class fingerprints per shard (empty unless requested).
    pub class_keys: Vec<Vec<u64>>,
}

impl Epoch {
    fn of(r: EpochReport) -> Epoch {
        let mut e = Epoch {
            partial: r.is_partial(),
            ..Epoch::default()
        };
        for (_, report) in r.reports() {
            match report {
                PropertyReport::LoopFreedomHolds => e.loop_free += 1,
                PropertyReport::Satisfied { .. } => e.satisfied += 1,
                PropertyReport::LoopFound { .. } => e.loops += 1,
                PropertyReport::Unsatisfied { .. } => e.unsatisfied += 1,
            }
        }
        for s in r.shards {
            e.shard_cpu.push(s.cpu);
            let mut keys = s.class_keys;
            keys.sort_unstable();
            e.class_keys.push(keys);
        }
        e
    }

    pub fn verdicts(&self) -> usize {
        self.loop_free + self.satisfied + self.loops + self.unsatisfied
    }

    pub fn max_cpu(&self) -> Duration {
        self.shard_cpu.iter().copied().max().unwrap_or_default()
    }
}

fn plan_for(layout: &HeaderLayout, shards: usize) -> SubspacePlan {
    assert!(shards.is_power_of_two());
    match shards {
        1 => SubspacePlan::single(),
        n => SubspacePlan::by_prefix_bits(layout, FieldId(0), n.trailing_zeros()),
    }
}

/// A running `ShardPool` with one worker thread per shard.
pub struct Pool {
    inner: ShardPool,
    cfg: ShardPoolConfig,
    hub: Option<Arc<QueryHub>>,
}

impl Pool {
    pub fn spawn(
        plane: &Plane,
        shards: usize,
        properties: Vec<Property>,
        class_keys: bool,
        query_hub: bool,
    ) -> Pool {
        let plan = plan_for(&plane.layout, shards);
        let hub = query_hub.then(|| QueryHub::new(plan.len()));
        let mut cfg = ShardPoolConfig::model_only(plane.layout.clone(), plan, usize::MAX, shards);
        cfg.topo = plane.topo.clone();
        cfg.actions = plane.actions.clone();
        cfg.properties = properties;
        cfg.collect_class_keys = class_keys;
        cfg.query_hub = hub.clone();
        let inner = ShardPool::spawn(cfg.clone()).expect("thread-mode pool spawns");
        Pool { inner, cfg, hub }
    }

    pub fn router(&self) -> Router {
        self.inner.router()
    }

    pub fn submit(&mut self, block: Vec<Update>) {
        self.inner.submit(block);
    }

    /// The next epoch in order, or `None` after the benchmark's timeout.
    pub fn recv(&mut self) -> Option<Epoch> {
        self.inner.recv_epoch(EPOCH_TIMEOUT).map(Epoch::of)
    }

    pub fn recv_until(&mut self, deadline: Instant) -> Option<Epoch> {
        let left = deadline.saturating_duration_since(Instant::now());
        self.inner.recv_epoch(left).map(Epoch::of)
    }

    pub fn ingest(&mut self, batch: Routed) {
        self.inner
            .ingest_routed(batch)
            .expect("thread-mode pool ingests");
    }

    pub fn seal(&mut self, devices: Vec<DeviceId>) {
        self.inner
            .seal_snapshot(devices)
            .expect("thread-mode pool seals");
    }

    /// Bulk-loads a whole in-memory data plane and waits for its epoch.
    pub fn load(&mut self, fibs: &[(DeviceId, Vec<Rule>)]) -> Option<Epoch> {
        let router = self.router();
        for (dev, rules) in fibs {
            let ups = rules
                .iter()
                .map(|r| (*dev, RuleUpdate::insert(*r)))
                .collect();
            self.ingest(router.route(ups));
        }
        self.seal(fibs.iter().map(|(d, _)| *d).collect());
        self.recv()
    }

    pub fn collect_all(&mut self) {
        self.inner.collect_all();
    }

    /// A one-reader query service over this pool's hub.
    pub fn query_service(&self) -> QueryService {
        let hub = self.hub.clone().expect("pool was spawned with a query hub");
        QueryService::spawn(QueryServiceConfig::for_pool(&self.cfg, hub, 1))
            .expect("query service spawns")
    }

    /// Stops the workers and joins them.
    pub fn shutdown(self) {
        let out = self.inner.drain(Duration::from_secs(60));
        assert!(out.abandoned.is_empty(), "a shard worker did not stop");
    }
}

/// A tenant session that sheds once 64 answers are outstanding.
pub fn session(service: &QueryService) -> QuerySession {
    service.session("bench", Backpressure::Shed { max_lag: 64 })
}

// ---------------------------------------------------------------------
// The same work, layer by layer on the calling thread (traced replay)
// ---------------------------------------------------------------------

/// Sums of the counters the layers keep, read at span boundaries.
#[derive(Clone, Copy, Default)]
pub struct ImtCounts {
    pub map: Duration,
    pub reduce: Duration,
    pub apply: Duration,
    pub stats: UpdateStats,
}

/// One `ModelManager` per shard plus the CE2D verifiers of a one-shard
/// plane, driven through their public functions with a span around each
/// call.
pub struct Layers {
    plane: Plane,
    router: Router,
    mgrs: Vec<ModelManager>,
    loops: Option<LoopVerifier>,
    /// Each requirement's verifier and whether its verdict is out.
    regexes: Vec<(RegexVerifier, bool)>,
    snapshots: Vec<Option<Arc<EpochSnapshot>>>,
    plan: SubspacePlan,
    /// Verdicts released so far: `(loop freedom holds, satisfied, violated)`.
    pub verdicts: (usize, usize, usize),
    pub classes_published: u64,
    pub snapshots_published: u64,
}

impl Layers {
    /// Builds the managers and verifiers; the pool does this inside the
    /// first block it processes, so it is spanned like one.
    pub fn new(
        tr: &mut Tracer,
        epoch: u64,
        plane: &Plane,
        router: Router,
        shards: usize,
        properties: Vec<Property>,
    ) -> Layers {
        let span = tr.begin("ce2d", "build", epoch);
        let plan = plan_for(&plane.layout, shards);
        let mut mgrs: Vec<ModelManager> = plan
            .subspaces
            .iter()
            .map(|&subspace| {
                ModelManager::new(ModelManagerConfig {
                    subspace,
                    filter_updates: shards > 1,
                    ..ModelManagerConfig::whole_space(plane.layout.clone())
                })
            })
            .collect();
        assert!(
            properties.is_empty() || shards == 1,
            "properties replay on one shard"
        );
        let (mut loops, mut regexes) = (None, Vec::new());
        for p in properties {
            match p {
                Property::LoopFreedom => {
                    loops = Some(LoopVerifier::new(plane.topo.clone(), plane.actions.clone()))
                }
                Property::Requirement { requirement, dests } => regexes.push((
                    RegexVerifier::new(
                        plane.topo.clone(),
                        plane.actions.clone(),
                        requirement,
                        dests,
                        mgrs[0].engine_mut(),
                        &plane.layout,
                    ),
                    false,
                )),
            }
        }
        tr.end(span);
        Layers {
            plane: plane.clone(),
            router,
            snapshots: vec![None; mgrs.len()],
            mgrs,
            loops,
            regexes,
            plan,
            verdicts: (0, 0, 0),
            classes_published: 0,
            snapshots_published: 0,
        }
    }

    pub fn imt_counts(&self) -> ImtCounts {
        let mut c = ImtCounts::default();
        for m in &self.mgrs {
            let t = m.timings();
            c.map += t.compute_atomic;
            c.reduce += t.aggregate;
            c.apply += t.apply;
            c.stats.absorb(&m.stats());
        }
        c
    }

    pub fn classes(&self) -> usize {
        self.mgrs.iter().map(|m| m.model().len()).sum()
    }

    fn route(&self, tr: &mut Tracer, epoch: u64, updates: &[Update]) {
        let owned = updates.to_vec(); // the pool's caller hands its copy over too
        let s = tr.begin("core::shard", "route", epoch);
        std::hint::black_box(self.router.route(owned));
        tr.end(s);
    }

    /// One incremental block: route, submit + flush per shard, then
    /// detection and snapshot publication where the pool would run them.
    pub fn apply_block(&mut self, tr: &mut Tracer, epoch: u64, block: &[Update], publish: bool) {
        self.route(tr, epoch, block);
        let before = tr.enabled().then(|| self.imt_counts());
        let s = tr.begin("imt", "flush", epoch);
        for m in &mut self.mgrs {
            for (dev, u) in block {
                m.submit(*dev, [*u]);
            }
            m.flush();
        }
        self.end_imt(tr, s, before);
        let mut devices: Vec<DeviceId> = Vec::new();
        for (d, _) in block {
            if !devices.contains(d) {
                devices.push(*d);
            }
        }
        self.detect(tr, epoch, &devices);
        if publish {
            self.publish(tr, epoch);
        }
    }

    /// What the pool's `collect_all` makes every shard do.
    pub fn collect(&mut self, tr: &mut Tracer, epoch: u64) {
        let s = tr.begin("imt", "gc", epoch);
        for m in &mut self.mgrs {
            m.gc();
        }
        tr.end(s);
    }

    /// Buffers one device's share of an initial snapshot (`updates` are
    /// all for that device).
    pub fn ingest_bulk(&mut self, tr: &mut Tracer, updates: Vec<Update>) {
        let Some(&(dev, _)) = updates.first() else {
            return;
        };
        self.route(tr, 0, &updates);
        let s = tr.begin("imt", "submit_bulk", 0);
        for m in &mut self.mgrs {
            m.submit_bulk(dev, updates.iter().map(|(_, u)| *u));
        }
        tr.end(s);
    }

    /// Bulk-loads everything buffered, then detects once over `devices`.
    pub fn seal(&mut self, tr: &mut Tracer, devices: &[DeviceId], publish: bool) {
        let before = tr.enabled().then(|| self.imt_counts());
        let s = tr.begin("imt", "bulk_load", 0);
        for m in &mut self.mgrs {
            m.bulk_load();
        }
        self.end_imt(tr, s, before);
        self.detect(tr, 0, devices);
        if publish {
            self.publish(tr, 0);
        }
    }

    /// Closes an `imt` span with the counters' growth since `before`
    /// (read only when tracing, so the untraced replay pays nothing).
    fn end_imt(&self, tr: &mut Tracer, span: usize, before: Option<ImtCounts>) {
        let Some(before) = before else { return };
        let after = self.imt_counts();
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        tr.count(span, "map_ms", ms(after.map - before.map));
        tr.count(span, "reduce_ms", ms(after.reduce - before.reduce));
        tr.count(span, "apply_ms", ms(after.apply - before.apply));
        let (a, b) = (&after.stats, &before.stats);
        tr.count(
            span,
            "atomic_overwrites",
            (a.atomic_overwrites - b.atomic_overwrites) as f64,
        );
        tr.count(
            span,
            "compact_overwrites",
            (a.compact_overwrites - b.compact_overwrites) as f64,
        );
        tr.count(span, "bdd_ops", (a.engine.ops - b.engine.ops) as f64);
        tr.end(span);
    }

    fn detect(&mut self, tr: &mut Tracer, epoch: u64, devices: &[DeviceId]) {
        if let Some(lv) = &mut self.loops {
            let (engine, pat, model) = self.mgrs[0].parts_mut();
            let s = tr.begin("ce2d", "loop", epoch);
            let v = lv.on_model_update(engine, pat, model, devices);
            tr.end(s);
            match v {
                LoopVerdict::NoLoop => self.verdicts.0 += 1,
                LoopVerdict::LoopFound { .. } => self.verdicts.2 += 1,
                LoopVerdict::Unknown => {}
            }
        }
        for (rv, decided) in &mut self.regexes {
            let (engine, pat, model) = self.mgrs[0].parts_mut();
            let s = tr.begin("ce2d", "regex", epoch);
            let v = rv.on_model_update(engine, pat, model, devices);
            tr.end(s);
            // A decided requirement keeps answering; count it once.
            match v {
                Verdict::Satisfied if !*decided => self.verdicts.1 += 1,
                Verdict::Unsatisfied if !*decided => self.verdicts.2 += 1,
                _ => {}
            }
            *decided |= v != Verdict::Unknown;
        }
    }

    fn publish(&mut self, tr: &mut Tracer, epoch: u64) {
        let s = tr.begin("imt::snapshot", "publish", epoch);
        for (m, slot) in self.mgrs.iter_mut().zip(&mut self.snapshots) {
            let snap = m.publish_snapshot(epoch);
            self.classes_published += snap.classes.len() as u64;
            self.snapshots_published += 1;
            *slot = Some(snap);
        }
        tr.end(s);
    }

    /// Executes one query against the latest published snapshots.
    pub fn query(&mut self, tr: &mut Tracer, epoch: u64, q: &Query) -> QueryAnswer {
        let name = match q {
            Query::Reach { .. } => "reach",
            Query::Waypoint { .. } => "waypoint",
            Query::WhatIf { .. } => "what_if",
        };
        let s = tr.begin("core::query", name, epoch);
        let (mut snaps, mut missing) = (Vec::new(), Vec::new());
        for shard in q.route(&self.plan, &self.plane.layout) {
            match &self.snapshots[shard] {
                Some(snap) => snaps.push((shard, snap.clone())),
                None => missing.push(shard),
            }
        }
        let answer = query::execute(q, &snaps, missing, &self.plane.actions);
        tr.end(s);
        answer
    }
}

/// Counters of finished [`Layers`], summed: a workload that builds fresh
/// layers per epoch absorbs each one when the epoch ends.
#[derive(Default)]
pub struct LayerTotals {
    pub imt: UpdateStats,
    pub classes: usize,
    pub classes_published: u64,
    pub snapshots_published: u64,
}

impl LayerTotals {
    pub fn absorb(&mut self, layers: &Layers) {
        self.imt.absorb(&layers.imt_counts().stats);
        self.classes = layers.classes();
        self.classes_published += layers.classes_published;
        self.snapshots_published += layers.snapshots_published;
    }

    pub fn engine(&self) -> &EngineTelemetry {
        &self.imt.engine
    }
}
