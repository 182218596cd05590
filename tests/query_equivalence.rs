//! Snapshot-query equivalence: answers served from the epoch snapshots
//! a [`ShardPool`] publishes into a [`QueryHub`] must equal a fresh
//! whole-space recomputation of the same update stream at that epoch —
//! on randomized churn, across forced mark-sweep collections, at 1, 2
//! and 4 worker threads — and what-if dry-runs must leave the sealed
//! snapshots untouched.
//!
//! Two properties make the oracle exact. First, restricted to a packet
//! subspace, the sharded model's class partition is identical to the
//! whole-space partition (distinct whole-space classes keep distinct
//! action vectors inside the subspace), so any query whose prefix is at
//! least as long as the shard bits consults exactly one shard and must
//! count the same classes as the whole-space model. Second, a shard
//! that received no update since its last publish still serves a stale
//! epoch seq — but its model is unchanged, so its answers remain equal
//! to the fresh recomputation at the newer epoch.

use flash_core::query::execute;
use flash_core::{
    AnswerKind, Property, Query, QueryAnswer, QueryHub, ShardPool, ShardPoolConfig,
    SubspaceVerifier, SubspaceVerifierConfig,
};
use flash_imt::{SubspacePlan, SubspaceSpec};
use flash_netmodel::{
    ActionId, ActionTable, DeviceId, FieldId, HeaderLayout, Match, Rule, RuleUpdate,
    Topology,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

const SHARD_BITS: u32 = 2;

struct Net {
    topo: Arc<Topology>,
    devs: Vec<DeviceId>,
    actions: Arc<ActionTable>,
    fwd: Vec<ActionId>,
    layout: HeaderLayout,
}

/// A ring of six devices with one chord — enough path diversity for
/// waypoint questions to have both answers.
fn ring6() -> Net {
    let mut t = Topology::new();
    let devs: Vec<DeviceId> = ["a", "b", "c", "d", "e", "f"]
        .iter()
        .map(|n| t.add_device(*n))
        .collect();
    for i in 0..devs.len() {
        t.add_bilink(devs[i], devs[(i + 1) % devs.len()]);
    }
    t.add_bilink(devs[0], devs[3]);
    let layout = HeaderLayout::new(&[("dst", 8)]);
    let mut at = ActionTable::new();
    let fwd = devs.iter().map(|&d| at.fwd(d)).collect();
    Net {
        topo: Arc::new(t),
        devs,
        actions: Arc::new(at),
        fwd,
        layout,
    }
}

/// Randomized churn: block 0 installs a full-space default route on
/// every device (so all four subspaces publish from epoch 0 on), later
/// blocks insert random prefix rules and delete previously installed
/// ones.
fn churn_blocks(net: &Net, seed: u64, blocks: usize) -> Vec<Vec<(DeviceId, RuleUpdate)>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let width = net.layout.field(FieldId(0)).width;
    let mut installed: Vec<(DeviceId, Rule)> = Vec::new();
    let mut out = Vec::new();
    let base: Vec<(DeviceId, RuleUpdate)> = net
        .devs
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let hop = net.fwd[(i + 1) % net.devs.len()];
            (d, RuleUpdate::insert(Rule::new(Match::dst_prefix(&net.layout, 0, 0), 0, hop)))
        })
        .collect();
    out.push(base);
    for _ in 1..blocks {
        let mut block = Vec::new();
        for _ in 0..12 {
            if !installed.is_empty() && rng.gen_bool(0.35) {
                let (d, r) = installed.swap_remove(rng.gen_range(0..installed.len()));
                block.push((d, RuleUpdate::delete(r)));
            } else {
                let dev = net.devs[rng.gen_range(0..net.devs.len())];
                let len = rng.gen_range(2..=width);
                let value = (rng.gen::<u64>() & ((1u64 << len) - 1)) << (width - len);
                let hop = net.fwd[rng.gen_range(0..net.fwd.len())];
                let r = Rule::new(
                    Match::dst_prefix(&net.layout, value, len),
                    len as i64,
                    hop,
                );
                if installed.iter().any(|(d2, r2)| *d2 == dev && *r2 == r) {
                    continue;
                }
                installed.push((dev, r));
                block.push((dev, RuleUpdate::insert(r)));
            }
        }
        out.push(block);
    }
    out
}

/// The fixed query battery; every prefix is at least [`SHARD_BITS`]
/// long so each query consults exactly one shard and the whole-space
/// class counts are directly comparable.
fn battery(net: &Net) -> Vec<Query> {
    let width = net.layout.field(FieldId(0)).width;
    let mut qs = Vec::new();
    for q in 0..4u64 {
        let value = q << (width - SHARD_BITS);
        qs.push(Query::Reach {
            src: net.devs[0],
            dst: net.devs[3],
            prefix_value: value,
            prefix_len: SHARD_BITS,
        });
        qs.push(Query::Waypoint {
            src: net.devs[1],
            via: net.devs[2],
            dst: net.devs[4],
            prefix_value: value,
            prefix_len: SHARD_BITS,
        });
        qs.push(Query::Reach {
            src: net.devs[5],
            dst: net.devs[2],
            prefix_value: value | (1 << (width - 3)),
            prefix_len: 3,
        });
    }
    qs
}

/// Answers the battery against the hub's latest snapshots.
fn answer_from_hub(
    net: &Net,
    plan: &SubspacePlan,
    hub: &QueryHub,
    qs: &[Query],
) -> Vec<QueryAnswer> {
    qs.iter()
        .map(|q| {
            let routed = q.route(plan, &net.layout);
            let mut snaps = Vec::new();
            let mut missing = Vec::new();
            for s in routed {
                match hub.latest(s) {
                    Some(snap) => snaps.push((s, snap)),
                    None => missing.push(s),
                }
            }
            execute(q, &snaps, missing, &net.actions)
        })
        .collect()
}

/// Whole-space oracle: replay the stream prefix through a fresh
/// verifier and answer the battery from one snapshot of its model.
fn answer_fresh(
    net: &Net,
    stream: &[Vec<(DeviceId, RuleUpdate)>],
    qs: &[Query],
) -> Vec<QueryAnswer> {
    let mut v = SubspaceVerifier::new(SubspaceVerifierConfig {
        topo: net.topo.clone(),
        actions: net.actions.clone(),
        layout: net.layout.clone(),
        subspace: SubspaceSpec::whole(),
        bst: 1,
        properties: Vec::<Property>::new(),
    });
    for block in stream {
        for (dev, u) in block {
            v.ingest_synchronized(*dev, vec![*u]);
        }
    }
    let snap = v.manager_mut().publish_snapshot(0);
    qs.iter()
        .map(|q| execute(q, &[(0usize, snap.clone())], Vec::new(), &net.actions))
        .collect()
}

/// Strips the consulted epoch seqs (which legitimately differ between
/// the pool and the single-snapshot oracle) down to the verdict.
fn kinds(answers: &[QueryAnswer]) -> Vec<AnswerKind> {
    answers.iter().map(|a| a.kind.clone()).collect()
}

fn pool_config(net: &Net, plan: SubspacePlan, threads: usize) -> ShardPoolConfig {
    let mut cfg = ShardPoolConfig::model_only(net.layout.clone(), plan, 1, threads);
    cfg.topo = net.topo.clone();
    cfg.actions = net.actions.clone();
    cfg
}

#[test]
fn snapshot_answers_equal_fresh_recomputation() {
    let net = ring6();
    let blocks = churn_blocks(&net, 0x5EED, 24);
    let qs = battery(&net);
    let plan = SubspacePlan::by_prefix_bits(&net.layout, FieldId(0), SHARD_BITS);
    // The epochs we stop and compare at; a forced collection runs
    // before the middle one so root pinning across GC is exercised.
    let checkpoints = [blocks.len() / 3, 2 * blocks.len() / 3, blocks.len() - 1];

    let mut per_thread_kinds: Vec<Vec<Vec<AnswerKind>>> = Vec::new();
    for threads in [1usize, 2, 4] {
        let hub = QueryHub::new(plan.len());
        let mut cfg = pool_config(&net, plan.clone(), threads);
        cfg.query_hub = Some(Arc::clone(&hub));
        let mut pool = ShardPool::spawn(cfg).expect("pool spawns");
        let mut seen = Vec::new();
        for (e, block) in blocks.iter().enumerate() {
            pool.submit(block.clone());
            pool.recv_epoch(Duration::from_secs(120)).expect("epoch completes");
            if !checkpoints.contains(&e) {
                continue;
            }
            if e == checkpoints[1] {
                pool.collect_all();
            }
            let pool_answers = answer_from_hub(&net, &plan, &hub, &qs);
            for a in &pool_answers {
                assert!(
                    a.missing.is_empty(),
                    "threads={threads} epoch={e}: unsealed shards {:?}",
                    a.missing
                );
            }
            let fresh = answer_fresh(&net, &blocks[..=e], &qs);
            assert_eq!(
                kinds(&pool_answers),
                kinds(&fresh),
                "threads={threads} epoch={e}: snapshot answers diverge from fresh \
                 whole-space recomputation"
            );
            seen.push(kinds(&pool_answers));
        }
        pool.drain(Duration::from_secs(30));
        per_thread_kinds.push(seen);
    }
    // The same plan at any worker-thread count must serve identical
    // answers at every checkpoint.
    assert_eq!(per_thread_kinds[0], per_thread_kinds[1]);
    assert_eq!(per_thread_kinds[0], per_thread_kinds[2]);
}

#[test]
fn what_if_leaves_snapshots_untouched() {
    let net = ring6();
    let blocks = churn_blocks(&net, 0xD1CE, 16);
    let plan = SubspacePlan::by_prefix_bits(&net.layout, FieldId(0), SHARD_BITS);
    let hub = QueryHub::new(plan.len());
    let mut cfg = pool_config(&net, plan.clone(), 2);
    cfg.query_hub = Some(Arc::clone(&hub));
    let mut pool = ShardPool::spawn(cfg).expect("pool spawns");
    for block in &blocks {
        pool.submit(block.clone());
        pool.recv_epoch(Duration::from_secs(120)).expect("epoch completes");
    }

    // A dry-run block mixing a delete of a live rule with a fresh
    // insert, routed across every shard.
    let width = net.layout.field(FieldId(0)).width;
    let what_if = Query::WhatIf {
        block: vec![
            RuleUpdate::insert(Rule::new(
                Match::dst_prefix(&net.layout, 0, 0),
                1,
                net.fwd[2],
            )),
            RuleUpdate::delete(Rule::new(
                Match::dst_prefix(&net.layout, 3 << (width - 2), 2),
                2,
                net.fwd[0],
            )),
        ],
    };

    let snaps: Vec<_> = (0..plan.len())
        .map(|s| (s, hub.latest(s).expect("every shard sealed")))
        .collect();
    let before: Vec<(u64, Vec<u64>)> = snaps
        .iter()
        .map(|(_, s)| {
            (
                s.model_fingerprint(),
                s.classes.iter().map(|c| c.fingerprint).collect(),
            )
        })
        .collect();

    let first = execute(&what_if, &snaps, Vec::new(), &net.actions);
    let again = execute(&what_if, &snaps, Vec::new(), &net.actions);
    let AnswerKind::WhatIf { touched } = &first.kind else {
        panic!("what-if answer expected");
    };
    assert!(!touched.is_empty(), "the dry run must touch the default-route classes");
    assert_eq!(first.kind, again.kind, "a dry run must be repeatable");

    let after: Vec<(u64, Vec<u64>)> = snaps
        .iter()
        .map(|(_, s)| {
            (
                s.model_fingerprint(),
                s.classes.iter().map(|c| c.fingerprint).collect(),
            )
        })
        .collect();
    assert_eq!(before, after, "a what-if dry run must not mutate the snapshots");

    // The live model is equally untouched: the same battery answers the
    // same before and after a real subsequent epoch re-publishes.
    let qs = battery(&net);
    let a1 = answer_from_hub(&net, &plan, &hub, &qs);
    pool.submit(vec![(
        net.devs[0],
        RuleUpdate::insert(Rule::new(
            Match::dst_prefix(&net.layout, 1 << (width - 4), 4),
            9,
            net.fwd[3],
        )),
    )]);
    pool.recv_epoch(Duration::from_secs(120)).expect("epoch completes");
    let fresh = answer_fresh(
        &net,
        &{
            let mut all = blocks.clone();
            all.push(vec![(
                net.devs[0],
                RuleUpdate::insert(Rule::new(
                    Match::dst_prefix(&net.layout, 1 << (width - 4), 4),
                    9,
                    net.fwd[3],
                )),
            )]);
            all
        },
        &qs,
    );
    let a2 = answer_from_hub(&net, &plan, &hub, &qs);
    assert_eq!(kinds(&a2), kinds(&fresh), "post-what-if epochs stay correct");
    drop(a1);
    pool.drain(Duration::from_secs(30));
}

/// The verdict `flash-cli query` prints for a reach answer. Raw class
/// counts may differ between plans where a class spans shards; this may
/// not.
fn verdict(a: &QueryAnswer) -> &'static str {
    match a.kind {
        AnswerKind::Reach { classes: 0, .. } => "EMPTY",
        AnswerKind::Reach { classes, reachable } if reachable == classes => "HOLDS",
        _ => "VIOLATED",
    }
}

/// A FIB on the ring that leaves the top quarter of `dst` to every
/// switch's default drop: below it, every device forwards round the
/// ring, and random longer prefixes divert slices of that.
fn fib_below_top_quarter(net: &Net, rng: &mut StdRng) -> Vec<(DeviceId, RuleUpdate)> {
    let width = net.layout.field(FieldId(0)).width;
    let mut fib = Vec::new();
    let mut named = std::collections::HashSet::new();
    for (i, &dev) in net.devs.iter().enumerate() {
        for (value, len) in [(0x00, 1), (0x80, 2)] {
            let rule = Rule::new(
                Match::dst_prefix(&net.layout, value, len),
                0,
                net.fwd[(i + 1) % 6],
            );
            fib.push((dev, RuleUpdate::insert(rule)));
        }
    }
    while fib.len() < 36 {
        let dev = net.devs[rng.gen_range(0..6)];
        let len = rng.gen_range(2..=width);
        let value = (rng.gen::<u64>() & ((1u64 << len) - 1)) << (width - len);
        if value >> (width - 2) == 3 || !named.insert((dev, value, len)) {
            continue;
        }
        let rule = Rule::new(
            Match::dst_prefix(&net.layout, value, len),
            len as i64,
            net.fwd[rng.gen_range(0..6)],
        );
        fib.push((dev, RuleUpdate::insert(rule)));
    }
    fib
}

/// Loads `fib` into a pool over `plan` with a query hub, as one bulk
/// snapshot or as blocks of 8, and answers `qs` from the hub.
fn pool_verdicts(
    net: &Net,
    plan: &SubspacePlan,
    fib: &[(DeviceId, RuleUpdate)],
    bulk: bool,
    qs: &[Query],
) -> Vec<&'static str> {
    let hub = QueryHub::new(plan.len());
    let mut cfg = pool_config(net, plan.clone(), 2);
    cfg.query_hub = Some(Arc::clone(&hub));
    let mut pool = ShardPool::spawn(cfg).expect("pool spawns");
    if bulk {
        pool.ingest(fib.to_vec())
            .expect("the pool accepts bulk ingest");
        pool.seal_snapshot(net.devs.clone())
            .expect("the pool accepts a seal");
        pool.recv_epoch(Duration::from_secs(120))
            .expect("seal epoch completes");
    }
    for block in fib.chunks(8).filter(|_| !bulk) {
        pool.submit(block.to_vec());
        pool.recv_epoch(Duration::from_secs(120))
            .expect("epoch completes");
    }
    let answers = answer_from_hub(net, plan, &hub, qs);
    pool.drain(Duration::from_secs(30));
    assert!(
        answers.iter().all(|a| a.missing.is_empty()),
        "a shard published no model"
    );
    answers.iter().map(verdict).collect()
}

/// A reach verdict must not depend on the sharding: the same FIB and
/// questions answer alike at 1, 2, 4 and 8 shards and on an uneven plan,
/// loaded in bulk or as blocks — also for questions about the quarter no
/// rule names, whose shard never receives an update.
#[test]
fn verdicts_do_not_depend_on_the_shard_count() {
    let net = ring6();
    let width = net.layout.field(FieldId(0)).width;
    let mut plans: Vec<SubspacePlan> = (0..=3)
        .map(|bits| SubspacePlan::by_prefix_bits(&net.layout, FieldId(0), bits))
        .collect();
    plans.push(SubspacePlan::by_prefixes(
        FieldId(0),
        &[(0x00, 1), (0x80, 2), (0xC0, 2)],
    ));
    for seed in [1u64, 2, 3] {
        let mut rng = StdRng::seed_from_u64(seed);
        let fib = fib_below_top_quarter(&net, &mut rng);
        // Every other question lies inside the top quarter.
        let qs: Vec<Query> = (0..24u64)
            .map(|i| {
                let src = rng.gen_range(0..6);
                let len = rng.gen_range(2 * (1 - i % 2) as u32..=width);
                let value = (rng.gen::<u64>() & ((1u64 << len) - 1)) << (width - len);
                Query::Reach {
                    src: net.devs[src],
                    dst: net.devs[(src + rng.gen_range(1..6)) % 6],
                    prefix_value: value | (3 * (1 - i % 2)) << (width - 2),
                    prefix_len: len,
                }
            })
            .collect();
        for bulk in [true, false] {
            let one = pool_verdicts(&net, &plans[0], &fib, bulk, &qs);
            assert!(
                one.contains(&"HOLDS") && !one.contains(&"EMPTY"),
                "seed {seed}: {one:?}"
            );
            for plan in &plans[1..] {
                let many = pool_verdicts(&net, plan, &fib, bulk, &qs);
                assert_eq!(many, one, "seed {seed}, bulk {bulk}: {} shards", plan.len());
            }
        }
    }
}
