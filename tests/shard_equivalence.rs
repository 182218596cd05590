//! Parallel-vs-sequential equivalence of the persistent shard pool:
//! for the same multi-block update stream, a [`ShardPool`] over a
//! 4-subspace plan must produce, per epoch, the same cumulative loop
//! verdicts as one whole-space [`SubspaceVerifier`], and the distinct
//! union of its per-shard equivalence classes must equal the
//! whole-space class set — at 1, 2 and 4 worker threads, with a forced
//! mark-sweep collection on every warm shard engine between blocks.

use flash_core::{
    Property, PropertyReport, ShardPool, ShardPoolConfig, SubspaceVerifier,
    SubspaceVerifierConfig,
};
use flash_imt::{SubspacePlan, SubspaceSpec};
use flash_netmodel::{
    ActionTable, DeviceId, FieldId, HeaderLayout, Match, Rule, RuleUpdate, Topology,
};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

struct Net {
    topo: Arc<Topology>,
    devs: Vec<DeviceId>,
    actions: Arc<ActionTable>,
    fwd: Vec<flash_netmodel::ActionId>,
    layout: HeaderLayout,
}

/// A diamond with a chord: a-b, b-c, c-d, d-a, a-c.
fn diamond() -> Net {
    let mut t = Topology::new();
    let a = t.add_device("a");
    let b = t.add_device("b");
    let c = t.add_device("c");
    let d = t.add_device("d");
    t.add_bilink(a, b);
    t.add_bilink(b, c);
    t.add_bilink(c, d);
    t.add_bilink(d, a);
    t.add_bilink(a, c);
    let layout = HeaderLayout::new(&[("dst", 8)]);
    let mut at = ActionTable::new();
    let fwd = [a, b, c, d].iter().map(|&x| at.fwd(x)).collect();
    Net {
        topo: Arc::new(t),
        devs: vec![a, b, c, d],
        actions: Arc::new(at),
        fwd,
        layout,
    }
}

/// A deterministic multi-block stream: block 0 is a loop-free chain
/// synchronizing every device, later blocks churn priorities and
/// introduce a 2-cycle (block 2, second quarter of the dst space) and
/// a 3-cycle (block 4, last quarter). Loops are never removed, so the
/// cumulative per-epoch verdict set is well-defined.
fn blocks(net: &Net) -> Vec<Vec<(DeviceId, RuleUpdate)>> {
    let l = &net.layout;
    let q = |i: u64| Match::dst_prefix(l, i << 6, 2); // quarter i
    let p = |i: u64, v: u64| Match::dst_prefix(l, (i << 6) | (v << 2), 6);
    let mut out = Vec::new();
    // Block 0: device i owns quarter i, forwarding to device i+1 (no
    // rule downstream → paths terminate). All four devices sync here.
    out.push(
        (0..4)
            .map(|i| {
                (
                    net.devs[i],
                    RuleUpdate::insert(Rule::new(q(i as u64), 2, net.fwd[(i + 1) % 4])),
                )
            })
            .collect(),
    );
    // Block 1: priority churn — more-specific rules shadowing parts of
    // the block-0 chain, still loop-free.
    out.push(vec![
        (net.devs[0], RuleUpdate::insert(Rule::new(p(0, 3), 6, net.fwd[2]))),
        (net.devs[2], RuleUpdate::insert(Rule::new(p(2, 5), 6, net.fwd[3]))),
        (net.devs[3], RuleUpdate::insert(Rule::new(p(3, 1), 6, net.fwd[0]))),
    ]);
    // Block 2: a 2-cycle a↔b on a slice of quarter 1.
    out.push(vec![
        (net.devs[0], RuleUpdate::insert(Rule::new(p(1, 7), 6, net.fwd[1]))),
        (net.devs[1], RuleUpdate::insert(Rule::new(p(1, 7), 6, net.fwd[0]))),
    ]);
    // Block 3: deletes of block-1 churn (never of loop rules) plus a
    // fresh insert.
    out.push(vec![
        (net.devs[0], RuleUpdate::delete(Rule::new(p(0, 3), 6, net.fwd[2]))),
        (net.devs[2], RuleUpdate::insert(Rule::new(p(2, 9), 6, net.fwd[1]))),
    ]);
    // Block 4: a 3-cycle b→c→d→b on a slice of quarter 3.
    out.push(vec![
        (net.devs[1], RuleUpdate::insert(Rule::new(p(3, 11), 6, net.fwd[2]))),
        (net.devs[2], RuleUpdate::insert(Rule::new(p(3, 11), 6, net.fwd[3]))),
        (net.devs[3], RuleUpdate::insert(Rule::new(p(3, 11), 6, net.fwd[1]))),
    ]);
    out
}

/// Cycle identity independent of starting point / orientation.
fn cycle_key(cycle: &[DeviceId]) -> Vec<u32> {
    let mut k: Vec<u32> = cycle.iter().map(|d| d.0).collect();
    k.sort_unstable();
    k
}

struct RefState {
    /// Cumulative distinct loop cycles after each block.
    cycles_by_block: Vec<HashSet<Vec<u32>>>,
    /// Whether LoopFreedomHolds was emitted by each block.
    holds_by_block: Vec<bool>,
    /// Distinct class fingerprints after each block.
    classes_by_block: Vec<HashSet<u64>>,
}

/// The sequential reference: one whole-space verifier over the same
/// stream, same flush boundaries, same detection points.
fn whole_space_reference(net: &Net, stream: &[Vec<(DeviceId, RuleUpdate)>]) -> RefState {
    let mut v = SubspaceVerifier::new(SubspaceVerifierConfig {
        topo: net.topo.clone(),
        actions: net.actions.clone(),
        layout: net.layout.clone(),
        subspace: SubspaceSpec::whole(),
        bst: usize::MAX,
        properties: vec![Property::LoopFreedom],
    });
    let mut cycles = HashSet::new();
    let mut holds = false;
    let mut st = RefState {
        cycles_by_block: Vec::new(),
        holds_by_block: Vec::new(),
        classes_by_block: Vec::new(),
    };
    for block in stream {
        let mut devs = Vec::new();
        for (d, u) in block {
            v.ingest(*d, vec![*u]);
            if !devs.contains(d) {
                devs.push(*d);
            }
        }
        v.flush();
        for r in v.detect(&devs) {
            match r {
                PropertyReport::LoopFound { cycle } => {
                    cycles.insert(cycle_key(&cycle));
                }
                PropertyReport::LoopFreedomHolds => holds = true,
                _ => {}
            }
        }
        st.cycles_by_block.push(cycles.clone());
        st.holds_by_block.push(holds);
        st.classes_by_block
            .push(v.manager().class_keys().into_iter().collect());
    }
    st
}

fn run_pool_and_compare(threads: usize) {
    let net = diamond();
    let stream = blocks(&net);
    let reference = whole_space_reference(&net, &stream);

    let plan = SubspacePlan::by_prefix_bits(&net.layout, FieldId(0), 2);
    let shard_count = plan.len();
    let mut pool = ShardPool::spawn(ShardPoolConfig {
        topo: net.topo.clone(),
        actions: net.actions.clone(),
        layout: net.layout.clone(),
        plan,
        properties: vec![Property::LoopFreedom],
        bst: usize::MAX,
        threads,
        capacity: 16,
        restart: flash_core::RestartPolicy::default(),
        collect_class_keys: true,
        faults: None,
        recovery: Default::default(),
        query_hub: None,
    })
    .unwrap();
    assert_eq!(pool.worker_count(), threads.min(shard_count));

    let mut cum_cycles: HashSet<Vec<u32>> = HashSet::new();
    let mut shard_holds: Vec<bool> = vec![false; shard_count];
    for (k, block) in stream.iter().enumerate() {
        let seq = pool.submit(block.clone());
        assert_eq!(seq, k as u64);
        // Satellite stressor: force a mark-sweep collection on every
        // warm shard engine mid-stream. Verdicts must not change.
        pool.collect_all();
        let epoch = pool
            .recv_epoch(Duration::from_secs(30))
            .unwrap_or_else(|| panic!("epoch {k} did not complete (threads={threads})"));
        assert_eq!(epoch.seq, k as u64);
        assert_eq!(epoch.shards.len(), shard_count);
        for (shard, r) in epoch.reports() {
            match r {
                PropertyReport::LoopFound { cycle } => {
                    cum_cycles.insert(cycle_key(cycle));
                }
                PropertyReport::LoopFreedomHolds => shard_holds[shard] = true,
                _ => {}
            }
        }
        // Per-epoch verdict equivalence.
        assert_eq!(
            cum_cycles, reference.cycles_by_block[k],
            "cumulative loop sets diverge at block {k} (threads={threads})"
        );
        assert_eq!(
            shard_holds.iter().all(|&h| h),
            reference.holds_by_block[k],
            "loop-freedom-holds diverges at block {k} (threads={threads})"
        );
        // Per-epoch class equivalence: distinct fingerprints across the
        // shard partition == whole-space distinct classes.
        let mut union: HashSet<u64> = HashSet::new();
        for s in &epoch.shards {
            union.extend(s.class_keys.iter().copied());
        }
        assert_eq!(
            union, reference.classes_by_block[k],
            "class fingerprints diverge at block {k} (threads={threads})"
        );
        assert_eq!(epoch.distinct_classes(), reference.classes_by_block[k].len());
    }

    let out = pool.drain(Duration::from_secs(30));
    assert!(out.abandoned.is_empty());
    // Both loops were found, exactly once each across the partition.
    assert_eq!(cum_cycles.len(), 2);
}

#[test]
fn shard_pool_matches_whole_space_at_one_thread() {
    run_pool_and_compare(1);
}

#[test]
fn shard_pool_matches_whole_space_at_two_threads() {
    run_pool_and_compare(2);
}

#[test]
fn shard_pool_matches_whole_space_at_four_threads() {
    run_pool_and_compare(4);
}
