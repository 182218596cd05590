//! The shard pool on a simulated OpenR boot: the Figure 1 deployment
//! shape running for real (worker threads, bounded queues, supervision),
//! held to the single-threaded `Dispatcher` and to its own fault-free
//! run.
//!
//! The workload is the OpenR initialization burst over the Internet2
//! topology: one insert-only message per device, all tagged with the
//! same epoch, submitted one block per message into 2 shards that check
//! loop freedom. For such workloads the final report set is
//! order-independent — every loop detected early among a synchronized
//! subset persists in the final data plane, and the clean verdict only
//! fires at full synchronization — which is what makes exact
//! set-equality a sound oracle under a permuted submit order and a
//! worker kill.

use flash_core::{
    Dispatcher, DispatcherConfig, FaultPlan, KillSpec, Property, PropertyReport, ShardPool,
    ShardPoolConfig, WorkerStats,
};
use flash_imt::SubspacePlan;
use flash_netmodel::{ActionTable, FieldId, HeaderLayout, Topology};
use flash_routing::sim::internet2;
use flash_routing::{AgentMessage, OpenRSim, SimConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

struct Burst {
    topo: Arc<Topology>,
    actions: Arc<ActionTable>,
    layout: HeaderLayout,
    messages: Vec<AgentMessage>,
}

fn burst(buggy: bool) -> Burst {
    let topo = internet2();
    let layout = HeaderLayout::new(&[("dst", 16)]);
    let mut sim = OpenRSim::new(topo.clone(), layout.clone(), SimConfig::default());
    for (i, dev) in topo.devices().enumerate() {
        sim.advertise(dev, (i as u64) << 8, 8);
    }
    if buggy {
        sim.set_buggy(topo.lookup("salt").unwrap());
    }
    let mut messages = sim.initialize();
    messages.sort_by_key(|m| m.at);
    // A block marks exactly the devices it carries updates for, so an
    // empty message could not synchronize its device in the pool.
    assert!(messages.iter().all(|m| !m.updates.is_empty()));
    Burst {
        topo,
        actions: Arc::new(sim.actions().clone()),
        layout,
        messages,
    }
}

/// Two shards: the low and the high half of the dst space.
fn plan(layout: &HeaderLayout) -> SubspacePlan {
    SubspacePlan::by_prefix_bits(layout, FieldId(0), 1)
}

/// `(shard, verdict)` pairs; loop cycles are rotated to start at their
/// smallest device so the same cycle discovered from a different entry
/// point compares equal.
type Verdicts = BTreeSet<(usize, String)>;

fn normalize(report: &PropertyReport) -> String {
    match report {
        PropertyReport::LoopFound { cycle } => {
            let mut c = cycle.clone();
            if let Some(min) = c
                .iter()
                .enumerate()
                .min_by_key(|(_, d)| **d)
                .map(|(i, _)| i)
            {
                c.rotate_left(min);
            }
            format!("loop:{c:?}")
        }
        other => format!("{other:?}"),
    }
}

/// Submits the burst one message per block, in `order`, drains the pool
/// and returns its verdicts plus the final worker counters.
fn run_pool(b: &Burst, order: &[usize], faults: Option<FaultPlan>) -> (Verdicts, Vec<WorkerStats>) {
    let mut cfg = ShardPoolConfig::model_only(b.layout.clone(), plan(&b.layout), 1, 2);
    cfg.topo = b.topo.clone();
    cfg.actions = b.actions.clone();
    cfg.properties = vec![Property::LoopFreedom];
    cfg.faults = faults;
    let mut pool = ShardPool::spawn(cfg).expect("config is valid");
    for &i in order {
        let m = &b.messages[i];
        pool.submit(m.updates.iter().map(|u| (m.device, *u)).collect());
    }
    let out = pool.drain(Duration::from_secs(60));
    assert!(out.abandoned.is_empty(), "drain must join every worker");
    assert_eq!(
        out.epochs.len(),
        order.len(),
        "every block's epoch completes"
    );
    assert!(out.epochs.iter().all(|e| !e.is_partial()));
    let verdicts = out
        .epochs
        .iter()
        .flat_map(|e| e.reports())
        .map(|(shard, r)| (shard, normalize(r)))
        .collect();
    (verdicts, out.stats)
}

fn in_order(b: &Burst) -> Vec<usize> {
    (0..b.messages.len()).collect()
}

/// Kill worker 0 after 3 blocks and submit in a seeded permutation.
fn chaos_run(b: &Burst) -> (Verdicts, Vec<WorkerStats>) {
    let mut order = in_order(b);
    order.shuffle(&mut StdRng::seed_from_u64(0xF1A5));
    assert_ne!(
        order,
        in_order(b),
        "the seed must actually permute the burst"
    );
    let faults = FaultPlan {
        kill_workers: vec![KillSpec {
            worker: 0,
            after_batches: 3,
        }],
        ..FaultPlan::default()
    };
    run_pool(b, &order, Some(faults))
}

#[test]
fn threaded_pipeline_finds_the_buggy_loop() {
    let b = burst(true);
    let (verdicts, stats) = run_pool(&b, &in_order(&b), None);
    assert!(stats.iter().all(|w| w.restarts == 0));
    assert!(
        verdicts.iter().any(|(_, v)| v.starts_with("loop:")),
        "the buggy salt loop must be reported"
    );
}

#[test]
fn threaded_pipeline_clean_network_reports_loop_freedom() {
    let b = burst(false);
    let (verdicts, _) = run_pool(&b, &in_order(&b), None);
    assert!(
        verdicts.iter().any(|(_, v)| v == "LoopFreedomHolds"),
        "the converged clean state must be certified loop-free"
    );
    assert!(
        verdicts.iter().all(|(_, v)| !v.starts_with("loop:")),
        "clean network must not report a loop"
    );
}

#[test]
fn chaos_run_converges_to_fault_free_verdicts_on_buggy_network() {
    let b = burst(true);
    let (baseline, _) = run_pool(&b, &in_order(&b), None);
    let (chaotic, stats) = chaos_run(&b);
    assert_eq!(
        stats[0].restarts, 1,
        "the killed worker is respawned exactly once"
    );
    assert_eq!(stats[1].restarts, 0);
    assert_eq!(
        chaotic, baseline,
        "faulted run must converge to the fault-free verdict set"
    );
}

#[test]
fn chaos_run_converges_to_fault_free_verdicts_on_clean_network() {
    let b = burst(false);
    let (baseline, _) = run_pool(&b, &in_order(&b), None);
    let (chaotic, stats) = chaos_run(&b);
    assert_eq!(stats[0].restarts, 1);
    assert_eq!(stats[1].restarts, 0);
    assert_eq!(chaotic, baseline);
}

#[test]
fn chaos_is_deterministic_per_seed() {
    let b = burst(true);
    let (v1, s1) = chaos_run(&b);
    let (v2, s2) = chaos_run(&b);
    assert_eq!(v1, v2, "same seed, same verdicts");
    let trace = |s: &[WorkerStats]| -> Vec<(u32, u64, u64)> {
        s.iter()
            .map(|w| (w.restarts, w.processed, w.replayed))
            .collect()
    };
    assert_eq!(trace(&s1), trace(&s2), "same seed, same fault trace");
}

/// On a single-epoch stream the pool's `(shard, verdict)` set is the
/// `Dispatcher`'s `(subspace, verdict)` set: no threaded dispatcher is
/// needed to run CE2D across workers.
#[test]
fn pool_verdicts_equal_dispatcher_verdicts() {
    for buggy in [true, false] {
        let b = burst(buggy);
        let mut d = Dispatcher::new(DispatcherConfig {
            topo: b.topo.clone(),
            actions: b.actions.clone(),
            layout: b.layout.clone(),
            subspaces: plan(&b.layout).subspaces,
            bst: 1,
            properties: vec![Property::LoopFreedom],
        });
        for m in &b.messages {
            d.on_message(m.at, m.device, m.epoch, m.updates.clone());
        }
        let reference: Verdicts = d
            .reports()
            .iter()
            .map(|r| (r.subspace, normalize(&r.report)))
            .collect();
        let (pool, _) = run_pool(&b, &in_order(&b), None);
        assert_eq!(pool, reference, "buggy = {buggy}");
    }
}
