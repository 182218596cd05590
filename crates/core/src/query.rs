//! The epoch-snapshot query tier: concurrent reachability, waypoint and
//! what-if serving against sealed [`EpochSnapshot`]s while update blocks
//! keep streaming through the owning [`crate::ShardPool`].
//!
//! The write path (shard workers) and the read path (query readers)
//! never share a lock on model state. Workers publish one immutable
//! snapshot per built shard into the [`QueryHub`] after every applied
//! block and every bulk-ingestion seal; readers grab the latest
//! `Arc<EpochSnapshot>` per routed shard and execute entirely against
//! frozen structure (the BDD node arena is non-moving and the manager
//! pins every snapshot root — see `flash_imt::snapshot`). The only
//! synchronization is the hub's per-shard `RwLock` around an `Arc`
//! swap, which doubles as the release/acquire edge the
//! [`flash_bdd::NodeView`] contract requires.
//!
//! ## Consistency
//!
//! A query observes **exactly one sealed epoch per routed shard**: the
//! snapshot `Arc` it resolves at admission time. Ingestion racing ahead
//! never tears a query — later epochs land as *new* snapshots, and the
//! old one stays pinned until its last holder drops. The consulted
//! `(shard, epoch)` pairs are reported in every [`QueryAnswer`] so
//! callers can correlate answers with the verdict stream.
//!
//! ## Multi-tenant admission
//!
//! Sessions ([`QueryService::session`]) carry a per-tenant
//! [`Backpressure`] policy. `Shed { max_lag }` refuses new queries while
//! the tenant has `max_lag` answers outstanding (bounded per-tenant
//! memory, no cross-tenant head-of-line blocking); `Block` admits
//! unconditionally and waits on the shared reader queue when it is
//! full.

use crate::channel::{policy_channel, PolicySender, RecvTimeoutError};
use crate::error::FlashError;
use flash_imt::{EpochSnapshot, SnapshotClass, SubspacePlan};
use flash_netmodel::{ActionTable, DeviceId, HeaderLayout, Match, RuleUpdate};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, RwLock};
use std::thread::JoinHandle;

/// The per-shard snapshot exchange between shard workers (writers) and
/// query readers. One slot per subspace; [`QueryHub::publish`] swaps in
/// a newer epoch, [`QueryHub::latest`] hands out a cheap `Arc` clone.
pub struct QueryHub {
    slots: Vec<RwLock<Option<Arc<EpochSnapshot>>>>,
}

impl QueryHub {
    /// A hub with one empty slot per shard of the subspace plan.
    pub fn new(shards: usize) -> Arc<Self> {
        Arc::new(QueryHub {
            slots: (0..shards).map(|_| RwLock::new(None)).collect(),
        })
    }

    pub fn shard_count(&self) -> usize {
        self.slots.len()
    }

    /// Installs `snap` as shard `shard`'s latest sealed snapshot.
    /// Monotone: an older epoch (a crashed worker replaying its history)
    /// never replaces a newer one.
    pub fn publish(&self, shard: usize, snap: Arc<EpochSnapshot>) {
        let mut slot = self.slots[shard].write().unwrap();
        match &*slot {
            Some(cur) if cur.seq > snap.seq => {}
            _ => *slot = Some(snap),
        }
    }

    /// The latest sealed snapshot of shard `shard`, if any epoch has
    /// been published there yet.
    pub fn latest(&self, shard: usize) -> Option<Arc<EpochSnapshot>> {
        self.slots[shard].read().unwrap().clone()
    }

    /// Per-shard latest sealed epoch sequence (`None` = nothing
    /// published yet).
    pub fn sealed_epochs(&self) -> Vec<Option<u64>> {
        self.slots
            .iter()
            .map(|s| s.read().unwrap().as_ref().map(|snap| snap.seq))
            .collect()
    }
}

impl std::fmt::Debug for QueryHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryHub")
            .field("shards", &self.slots.len())
            .field("sealed", &self.sealed_epochs())
            .finish()
    }
}

/// A verification question against the latest sealed snapshots. The
/// destination prefix is on header field 0 (the field the subspace
/// plans split), MSB-first like every encoder in the workspace.
#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    /// Can traffic with a destination in `prefix_value/prefix_len`,
    /// entering the network at `src`, reach device `dst`? Answered per
    /// equivalence class intersecting the prefix.
    Reach {
        src: DeviceId,
        dst: DeviceId,
        prefix_value: u64,
        prefix_len: u32,
    },
    /// Does every forwarding path from `src` to `dst` for the prefix
    /// traverse `via`? A class counts as satisfied only when it
    /// *delivers* to `dst` and cannot do so avoiding `via`.
    Waypoint {
        src: DeviceId,
        via: DeviceId,
        dst: DeviceId,
        prefix_value: u64,
        prefix_len: u32,
    },
    /// Dry-run impact analysis: which equivalence classes would this
    /// update block touch? Runs the MR² canceling pass and intersects
    /// the surviving matches against the snapshot — the model itself is
    /// never mutated.
    WhatIf { block: Vec<RuleUpdate> },
}

impl Query {
    /// Which shards of `plan` this query must consult.
    pub fn route(&self, plan: &SubspacePlan, layout: &HeaderLayout) -> Vec<usize> {
        match self {
            Query::Reach { prefix_value, prefix_len, .. } => {
                plan.route(&Match::dst_prefix(layout, *prefix_value, *prefix_len), layout)
            }
            Query::Waypoint { prefix_value, prefix_len, .. } => {
                plan.route(&Match::dst_prefix(layout, *prefix_value, *prefix_len), layout)
            }
            Query::WhatIf { block } => {
                let mut shards: Vec<usize> = block
                    .iter()
                    .flat_map(|u| plan.route(&u.rule.mat, layout))
                    .collect();
                shards.sort_unstable();
                shards.dedup();
                shards
            }
        }
    }
}

/// The query-specific payload of a [`QueryAnswer`].
#[derive(Clone, Debug, PartialEq)]
pub enum AnswerKind {
    /// `classes` equivalence classes intersect the prefix; `reachable`
    /// of them deliver from `src` to `dst`.
    Reach { classes: usize, reachable: usize },
    /// `classes` intersect the prefix; `satisfied` of them deliver to
    /// `dst` *and* cannot avoid the waypoint.
    Waypoint { classes: usize, satisfied: usize },
    /// Sorted, deduplicated fingerprints of every class the dry-run
    /// block would touch.
    WhatIf { touched: Vec<u64> },
}

/// A query result plus the exact epochs it observed.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryAnswer {
    pub kind: AnswerKind,
    /// `(shard, epoch)` of every snapshot consulted — the consistency
    /// witness: exactly one sealed epoch per routed shard.
    pub consulted: Vec<(usize, u64)>,
    /// Routed shards with no sealed snapshot yet (nothing published);
    /// they contribute nothing to the answer.
    pub missing: Vec<usize>,
}

/// BFS over one class's frozen forwarding vector: does traffic in this
/// class, entering at `src`, get delivered to `dst` — optionally while
/// never visiting `exclude`? Devices absent from the vector forward
/// with their default (drop) action; ECMP fans out to every next hop.
fn class_reaches(
    class: &SnapshotClass,
    actions: &ActionTable,
    src: DeviceId,
    dst: DeviceId,
    exclude: Option<DeviceId>,
) -> bool {
    if Some(src) == exclude {
        return false;
    }
    if src == dst {
        return true;
    }
    let mut visited: HashSet<DeviceId> = HashSet::new();
    visited.insert(src);
    let mut queue = VecDeque::from([src]);
    while let Some(cur) = queue.pop_front() {
        let Some(a) = class.action_at(cur) else {
            continue; // default drop
        };
        for &hop in actions.next_hops(a) {
            if hop == dst {
                return true;
            }
            if Some(hop) == exclude {
                continue;
            }
            if visited.insert(hop) {
                queue.push_back(hop);
            }
        }
    }
    false
}

/// Executes `q` against the resolved snapshots (one per routed shard).
/// Pure: no locks, no engine access — everything comes from the frozen
/// class predicates (via each snapshot's [`flash_bdd::NodeView`]) and
/// decoded action vectors. Exposed so the equivalence-oracle tests can
/// run the exact production read path against hand-built snapshots.
pub fn execute(
    q: &Query,
    snaps: &[(usize, Arc<EpochSnapshot>)],
    missing: Vec<usize>,
    actions: &ActionTable,
) -> QueryAnswer {
    let consulted: Vec<(usize, u64)> = snaps.iter().map(|(s, sn)| (*s, sn.seq)).collect();
    let kind = match q {
        Query::Reach { src, dst, prefix_value, prefix_len } => {
            let (mut classes, mut reachable) = (0, 0);
            for (_, snap) in snaps {
                let constraint = snap.prefix_constraint(0, *prefix_value, *prefix_len);
                for class in snap.intersecting(&constraint) {
                    classes += 1;
                    if class_reaches(class, actions, *src, *dst, None) {
                        reachable += 1;
                    }
                }
            }
            AnswerKind::Reach { classes, reachable }
        }
        Query::Waypoint { src, via, dst, prefix_value, prefix_len } => {
            let (mut classes, mut satisfied) = (0, 0);
            for (_, snap) in snaps {
                let constraint = snap.prefix_constraint(0, *prefix_value, *prefix_len);
                for class in snap.intersecting(&constraint) {
                    classes += 1;
                    let delivers = class_reaches(class, actions, *src, *dst, None);
                    // Endpoints trivially lie on every delivering path;
                    // otherwise the class must be unable to deliver with
                    // the waypoint carved out.
                    let ok = delivers
                        && (via == src
                            || via == dst
                            || !class_reaches(class, actions, *src, *dst, Some(*via)));
                    if ok {
                        satisfied += 1;
                    }
                }
            }
            AnswerKind::Waypoint { classes, satisfied }
        }
        Query::WhatIf { block } => {
            let mut touched: Vec<u64> = Vec::new();
            for (_, snap) in snaps {
                touched.extend(snap.what_if(block));
            }
            touched.sort_unstable();
            touched.dedup();
            AnswerKind::WhatIf { touched }
        }
    };
    QueryAnswer { kind, consulted, missing }
}

// ---------------------------------------------------------------------
// The reader-pool service and per-tenant sessions.
// ---------------------------------------------------------------------

/// Configuration of a [`QueryService`].
#[derive(Clone)]
pub struct QueryServiceConfig {
    /// The hub the owning [`crate::ShardPool`] publishes into.
    pub hub: Arc<QueryHub>,
    /// The pool's subspace plan (routing).
    pub plan: SubspacePlan,
    pub layout: HeaderLayout,
    pub actions: Arc<ActionTable>,
    /// Reader threads executing queries.
    pub readers: usize,
    /// Shared reader-queue capacity (in queries).
    pub capacity: usize,
}

impl QueryServiceConfig {
    /// A service matching a [`crate::ShardPoolConfig`] (same plan,
    /// layout and action table), reading the given hub.
    pub fn for_pool(cfg: &crate::ShardPoolConfig, hub: Arc<QueryHub>, readers: usize) -> Self {
        QueryServiceConfig {
            hub,
            plan: cfg.plan.clone(),
            layout: cfg.layout.clone(),
            actions: cfg.actions.clone(),
            readers,
            capacity: 1024,
        }
    }
}

struct Shared {
    hub: Arc<QueryHub>,
    plan: SubspacePlan,
    layout: HeaderLayout,
    actions: Arc<ActionTable>,
    served: AtomicU64,
    /// Shutdown flag: readers drain the queue, then exit. Needed because
    /// live sessions hold sender clones, so channel disconnect alone
    /// cannot signal shutdown.
    closed: std::sync::atomic::AtomicBool,
}

impl Shared {
    fn answer(&self, q: &Query) -> QueryAnswer {
        let mut snaps = Vec::new();
        let mut missing = Vec::new();
        for shard in q.route(&self.plan, &self.layout) {
            match self.hub.latest(shard) {
                Some(snap) => snaps.push((shard, snap)),
                None => missing.push(shard),
            }
        }
        execute(q, &snaps, missing, &self.actions)
    }
}

struct Job {
    query: Query,
    tenant: Arc<TenantShared>,
    reply: mpsc::Sender<QueryAnswer>,
}

struct TenantShared {
    name: String,
    admission: Backpressure,
    in_flight: AtomicUsize,
    admitted: AtomicU64,
    shed: AtomicU64,
}

/// A tenant session's admission policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backpressure {
    /// Admit every query; the submitter waits while the shared reader
    /// queue is full.
    Block,
    /// Refuse new queries while the tenant has `max_lag` answers
    /// outstanding.
    Shed { max_lag: usize },
}

/// Why a session refused (or lost) a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryRejected {
    /// Per-tenant admission shed the query (too many outstanding).
    Shed,
    /// The service has shut down.
    Closed,
}

impl std::fmt::Display for QueryRejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryRejected::Shed => write!(f, "query shed by tenant admission"),
            QueryRejected::Closed => write!(f, "query service closed"),
        }
    }
}

impl std::error::Error for QueryRejected {}

/// Per-tenant admission counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantStats {
    pub tenant: String,
    pub admitted: u64,
    pub shed: u64,
    pub in_flight: usize,
}

/// How long [`PendingAnswer::wait`] polls for its answer before parking.
const ANSWER_SPIN: std::time::Duration = std::time::Duration::from_micros(20);

/// An answer on its way back from the reader pool.
pub struct PendingAnswer {
    rx: mpsc::Receiver<QueryAnswer>,
}

impl PendingAnswer {
    /// Blocks until the reader pool answers.
    pub fn wait(self) -> Result<QueryAnswer, QueryRejected> {
        // Spin for about as long as parking would cost before parking.
        // With queries in flight the next answer is one service time (a
        // few µs) away, while a parked waiter makes the reader pay a
        // futex wake for every reply — on `query_mix` that wake, across
        // vCPUs, cost the reader more than answering the query did.
        let spin_until = std::time::Instant::now() + ANSWER_SPIN;
        loop {
            match self.rx.try_recv() {
                Ok(answer) => return Ok(answer),
                Err(mpsc::TryRecvError::Disconnected) => return Err(QueryRejected::Closed),
                Err(mpsc::TryRecvError::Empty) => {}
            }
            if std::time::Instant::now() >= spin_until {
                break;
            }
            std::hint::spin_loop();
        }
        self.rx.recv().map_err(|_| QueryRejected::Closed)
    }
}

/// One tenant's handle into the reader pool. Cloning shares the tenant's
/// admission budget (one logical session, many submitting threads).
#[derive(Clone)]
pub struct QuerySession {
    tenant: Arc<TenantShared>,
    tx: PolicySender<Job>,
}

impl QuerySession {
    /// Admits and enqueues one query. With `Backpressure::Shed`, refuses
    /// immediately once `max_lag` answers are outstanding for this
    /// tenant.
    pub fn submit(&self, query: Query) -> Result<PendingAnswer, QueryRejected> {
        if let Backpressure::Shed { max_lag } = self.tenant.admission {
            let prev = self.tenant.in_flight.fetch_add(1, Ordering::AcqRel);
            if prev >= max_lag.max(1) {
                self.tenant.in_flight.fetch_sub(1, Ordering::AcqRel);
                self.tenant.shed.fetch_add(1, Ordering::Relaxed);
                return Err(QueryRejected::Shed);
            }
        } else {
            self.tenant.in_flight.fetch_add(1, Ordering::AcqRel);
        }
        let (reply, rx) = mpsc::channel();
        let job = Job { query, tenant: self.tenant.clone(), reply };
        match self.tx.send(job) {
            Ok(_) => {
                self.tenant.admitted.fetch_add(1, Ordering::Relaxed);
                Ok(PendingAnswer { rx })
            }
            Err(_) => {
                self.tenant.in_flight.fetch_sub(1, Ordering::AcqRel);
                Err(QueryRejected::Closed)
            }
        }
    }

    /// Submit + wait, for callers without their own pipelining.
    pub fn query(&self, query: Query) -> Result<QueryAnswer, QueryRejected> {
        self.submit(query)?.wait()
    }

    pub fn stats(&self) -> TenantStats {
        TenantStats {
            tenant: self.tenant.name.clone(),
            admitted: self.tenant.admitted.load(Ordering::Relaxed),
            shed: self.tenant.shed.load(Ordering::Relaxed),
            in_flight: self.tenant.in_flight.load(Ordering::Acquire),
        }
    }
}

/// The reader pool: N threads pulling queries off one shared queue,
/// resolving snapshots from the hub and executing with zero engine
/// contact. See the module docs for the consistency story.
pub struct QueryService {
    tx: PolicySender<Job>,
    shared: Arc<Shared>,
    readers: Vec<JoinHandle<()>>,
}

impl QueryService {
    /// Spawns the reader pool.
    pub fn spawn(cfg: QueryServiceConfig) -> Result<Self, FlashError> {
        if cfg.readers == 0 {
            return Err(FlashError::Config("query readers must be >= 1".into()));
        }
        if cfg.plan.len() != cfg.hub.shard_count() {
            return Err(FlashError::Config(format!(
                "query hub has {} shards but the plan has {}",
                cfg.hub.shard_count(),
                cfg.plan.len()
            )));
        }
        let (tx, rx) = policy_channel::<Job>(cfg.capacity.max(1));
        let rx = Arc::new(rx);
        let shared = Arc::new(Shared {
            hub: cfg.hub,
            plan: cfg.plan,
            layout: cfg.layout,
            actions: cfg.actions,
            served: AtomicU64::new(0),
            closed: std::sync::atomic::AtomicBool::new(false),
        });
        let readers = (0..cfg.readers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("flash-query-{i}"))
                    .spawn(move || loop {
                        match rx.recv_timeout(std::time::Duration::from_millis(50)) {
                            Ok(job) => {
                                let answer = shared.answer(&job.query);
                                job.tenant.in_flight.fetch_sub(1, Ordering::AcqRel);
                                shared.served.fetch_add(1, Ordering::Relaxed);
                                // A caller that dropped its PendingAnswer
                                // just doesn't want the result anymore.
                                let _ = job.reply.send(answer);
                            }
                            Err(RecvTimeoutError::Timeout) => {
                                if shared.closed.load(Ordering::Acquire) {
                                    break;
                                }
                            }
                            Err(RecvTimeoutError::Disconnected) => break,
                        }
                    })
                    .expect("spawn query reader")
            })
            .collect();
        Ok(QueryService { tx, shared, readers })
    }

    /// Opens a tenant session with its own admission policy.
    pub fn session(&self, tenant: impl Into<String>, admission: Backpressure) -> QuerySession {
        QuerySession {
            tenant: Arc::new(TenantShared {
                name: tenant.into(),
                admission,
                in_flight: AtomicUsize::new(0),
                admitted: AtomicU64::new(0),
                shed: AtomicU64::new(0),
            }),
            tx: self.tx.clone(),
        }
    }

    /// Total queries answered by the reader pool.
    pub fn served(&self) -> u64 {
        self.shared.served.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: readers finish what is enqueued, then exit and
    /// are joined. Outstanding sessions keep working sender clones, but
    /// anything they submit afterwards resolves to
    /// [`QueryRejected::Closed`] when its reply channel drops.
    /// Returns the served total.
    pub fn shutdown(self) -> u64 {
        self.shared.closed.store(true, Ordering::Release);
        drop(self.tx);
        for r in self.readers {
            let _ = r.join();
        }
        self.shared.served.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{ShardPool, ShardPoolConfig};
    use flash_netmodel::{FieldId, Rule, Topology};
    use std::time::Duration;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn snapshot_and_hub_are_thread_safe() {
        assert_send_sync::<EpochSnapshot>();
        assert_send_sync::<QueryHub>();
        assert_send_sync::<QuerySession>();
    }

    #[test]
    fn pool_publishes_snapshots_and_queries_answer() {
        let mut topo = Topology::new();
        let ids: Vec<DeviceId> =
            ["a", "b", "c", "d"].iter().map(|n| topo.add_device(*n)).collect();
        for w in ids.windows(2) {
            topo.add_bilink(w[0], w[1]);
        }
        let layout = HeaderLayout::dst_only();
        let mut actions = ActionTable::new();
        let fwd: Vec<_> = ids.iter().map(|&d| actions.fwd(d)).collect();
        let topo = Arc::new(topo);
        let actions = Arc::new(actions);
        let plan = SubspacePlan::by_prefix_bits(&layout, FieldId(0), 1);
        let hub = QueryHub::new(plan.len());
        let cfg = ShardPoolConfig {
            topo,
            actions: actions.clone(),
            layout: layout.clone(),
            plan,
            properties: Vec::new(),
            bst: usize::MAX,
            threads: 2,
            capacity: 64,
            restart: crate::supervise::RestartPolicy::default(),
            collect_class_keys: false,
            faults: None,
            checkpoint_every: None,
            query_hub: Some(Arc::clone(&hub)),
        };
        let svc = QueryService::spawn(QueryServiceConfig::for_pool(
            &cfg,
            Arc::clone(&hub),
            2,
        ))
        .unwrap();
        let mut pool = ShardPool::spawn(cfg).unwrap();
        // a→b→c→d for the low half of the dst space.
        let m = Match::dst_prefix(&layout, 0x00, 1);
        let block: Vec<(DeviceId, RuleUpdate)> = ids[..3]
            .iter()
            .enumerate()
            .map(|(i, &d)| (d, RuleUpdate::insert(Rule::new(m, 1, fwd[i + 1]))))
            .collect();
        pool.submit(block);
        pool.recv_epoch(Duration::from_secs(10)).expect("epoch 0");

        let session = svc.session("tenant-a", Backpressure::Shed { max_lag: 64 });
        // The low-half shard (shard 0) has a sealed snapshot now.
        let reach = session
            .query(Query::Reach {
                src: ids[0],
                dst: ids[3],
                prefix_value: 0x00,
                prefix_len: 1,
            })
            .expect("admitted");
        match reach.kind {
            AnswerKind::Reach { classes, reachable } => {
                assert!(classes >= 1, "the installed class intersects the prefix");
                assert_eq!(reachable, classes, "the line delivers a to d");
            }
            other => panic!("wrong kind {other:?}"),
        }
        assert!(reach.consulted.iter().any(|&(s, _)| s == 0));
        assert!(reach.missing.is_empty(), "shard 0 must have a snapshot");

        // Every path a→d runs through c; none runs through a detour.
        let via_c = session
            .query(Query::Waypoint {
                src: ids[0],
                via: ids[2],
                dst: ids[3],
                prefix_value: 0x00,
                prefix_len: 1,
            })
            .expect("admitted");
        match via_c.kind {
            AnswerKind::Waypoint { classes, satisfied } => {
                assert_eq!(satisfied, classes, "the line traverses c");
            }
            other => panic!("wrong kind {other:?}"),
        }

        // The high half of the space was never routed, but its shard
        // still published its one-class default model: every switch
        // drops there, so a delivers to nothing.
        let high = session
            .query(Query::Reach {
                src: ids[0],
                dst: ids[3],
                prefix_value: 0x8000_0000,
                prefix_len: 1,
            })
            .expect("admitted");
        assert!(high.missing.is_empty(), "the never-routed shard has a snapshot");
        assert_eq!(high.kind, AnswerKind::Reach { classes: 1, reachable: 0 });

        // What-if on an update already applied: it cancels against
        // nothing, so it touches the class(es) its match intersects.
        let wi = session
            .query(Query::WhatIf {
                block: vec![RuleUpdate::insert(Rule::new(
                    Match::dst_prefix(&layout, 0x2000_0000, 3),
                    9,
                    fwd[0],
                ))],
            })
            .expect("admitted");
        match wi.kind {
            AnswerKind::WhatIf { touched } => assert!(!touched.is_empty()),
            other => panic!("wrong kind {other:?}"),
        }

        assert!(svc.served() >= 4);
        pool.drain(Duration::from_secs(10));
        svc.shutdown();
    }

    #[test]
    fn shed_admission_bounds_tenant_lag() {
        let layout = HeaderLayout::dst_only();
        let plan = SubspacePlan::single();
        let hub = QueryHub::new(plan.len());
        let svc = QueryService::spawn(QueryServiceConfig {
            hub,
            plan,
            layout,
            actions: Arc::new(ActionTable::new()),
            readers: 1,
            capacity: 1024,
        })
        .unwrap();
        let session = svc.session("greedy", Backpressure::Shed { max_lag: 4 });
        // Submit a burst without consuming answers: only max_lag stay
        // in flight, the rest shed. (Readers may drain some while we
        // submit, so the shed count is a lower bound.)
        let mut pending = Vec::new();
        let mut shed = 0;
        for i in 0..64u64 {
            match session.submit(Query::Reach {
                src: DeviceId(0),
                dst: DeviceId(1),
                prefix_value: i % 2,
                prefix_len: 1,
            }) {
                Ok(p) => pending.push(p),
                Err(QueryRejected::Shed) => shed += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(shed > 0, "burst of 64 with max_lag 4 must shed");
        assert_eq!(session.stats().shed, shed);
        for p in pending {
            p.wait().expect("admitted queries are answered");
        }
        assert_eq!(session.stats().in_flight, 0);
        svc.shutdown();
    }

    #[test]
    fn hub_publishes_are_monotone() {
        let layout = HeaderLayout::dst_only();
        let plan = SubspacePlan::single();
        let hub = QueryHub::new(plan.len());
        assert_eq!(hub.sealed_epochs(), vec![None]);
        // Build two snapshots at different epochs from a tiny verifier.
        let mut v = crate::verifier::SubspaceVerifier::new(crate::verifier::SubspaceVerifierConfig {
            topo: Arc::new(Topology::new()),
            actions: Arc::new(ActionTable::new()),
            layout: layout.clone(),
            subspace: flash_imt::SubspaceSpec::whole(),
            bst: usize::MAX,
            properties: Vec::new(),
        });
        let s1 = v.manager_mut().publish_snapshot(1);
        let s5 = v.manager_mut().publish_snapshot(5);
        hub.publish(0, s5);
        hub.publish(0, s1); // stale replay must not regress
        assert_eq!(hub.sealed_epochs(), vec![Some(5)]);
    }
}
