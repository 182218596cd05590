//! Parallel-vs-sequential equivalence of the persistent shard pool:
//! for the same multi-block update stream, a [`ShardPool`] over a
//! 4-subspace plan must produce, per epoch, the same cumulative loop
//! verdicts as one whole-space [`SubspaceVerifier`], and the distinct
//! union of its per-shard equivalence classes must equal the
//! whole-space class set — at 1, 2 and 4 worker threads, with a forced
//! mark-sweep collection on every warm shard engine between blocks.

#[path = "common/diamond.rs"]
mod diamond;

use diamond::{cycle_key, diamond, loop_blocks, whole_space_reference};
use flash_core::{Property, PropertyReport, ShardPool, ShardPoolConfig};
use flash_imt::SubspacePlan;
use flash_netmodel::FieldId;
use std::collections::HashSet;
use std::time::Duration;

fn run_pool_and_compare(threads: usize) {
    let net = diamond();
    let stream = loop_blocks(&net);
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
        checkpoint_every: None,
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
