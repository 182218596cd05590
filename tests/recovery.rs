//! Crash recovery and graceful degradation — the fault-tolerance
//! contract of the persistent shard pool:
//!
//! * a pool taking periodic checkpoints whose workers are killed (or
//!   stalled) mid-stream must produce, per epoch, **exactly** the
//!   verdicts and class fingerprints of an unfaulted run, at 1, 2, 3
//!   and 4 workers (replay is invisible);
//! * a worker that exhausts its restart budget degrades instead of
//!   wedging the pipeline — epochs are released partially, tagged with
//!   the degraded shards — and a later successful rejoin delivers the
//!   missing verdicts late, keeping the *cumulative* verdict stream
//!   complete.
//!
//! Chaos knobs (used by the CI chaos lane): `FLASH_CHAOS_ITERS`
//! overrides the property-test case count, and `PROPTEST_RNG_SEED` pins
//! the sampler.

#[path = "common/diamond.rs"]
mod diamond;

use diamond::{cycle_key, diamond, loop_blocks, whole_space_reference, Net};
use flash_core::{
    EpochReport, FaultPlan, HangSpec, KillSpec, Property, PropertyReport, RestartPolicy,
    ShardPool, ShardPoolConfig,
};
use flash_imt::SubspacePlan;
use flash_netmodel::{DeviceId, FieldId, Match, Rule, RuleUpdate};
use std::collections::HashSet;
use std::time::Duration;

/// A 10-block stream: the 5-block loop scenario (a 2-cycle lands in
/// block 2, a 3-cycle in block 4, loops are never removed) followed by 5
/// blocks of loop-free churn — long enough for several checkpoints and
/// kills at varied offsets.
fn blocks(net: &Net) -> Vec<Vec<(DeviceId, RuleUpdate)>> {
    let p = |i: u64, v: u64| Match::dst_prefix(&net.layout, (i << 6) | (v << 2), 6);
    let mut out = loop_blocks(net);
    // Blocks 5–9: more loop-free churn (block-1-shaped inserts whose
    // targets have no covering rule for the slice, so paths terminate),
    // one delete, distinct /6 slices throughout.
    out.push(vec![
        (net.devs[0], RuleUpdate::insert(Rule::new(p(0, 2), 6, net.fwd[2]))),
        (net.devs[2], RuleUpdate::insert(Rule::new(p(2, 4), 6, net.fwd[3]))),
    ]);
    out.push(vec![
        (net.devs[3], RuleUpdate::insert(Rule::new(p(3, 6), 6, net.fwd[0]))),
        (net.devs[1], RuleUpdate::insert(Rule::new(p(1, 8), 6, net.fwd[2]))),
    ]);
    out.push(vec![
        (net.devs[2], RuleUpdate::delete(Rule::new(p(2, 4), 6, net.fwd[3]))),
        (net.devs[2], RuleUpdate::insert(Rule::new(p(2, 10), 6, net.fwd[1]))),
    ]);
    out.push(vec![
        (net.devs[1], RuleUpdate::insert(Rule::new(p(3, 13), 6, net.fwd[3]))),
    ]);
    out.push(vec![
        (net.devs[0], RuleUpdate::insert(Rule::new(p(2, 14), 6, net.fwd[2]))),
    ]);
    out
}

fn base_config(net: &Net, threads: usize) -> ShardPoolConfig {
    ShardPoolConfig {
        topo: net.topo.clone(),
        actions: net.actions.clone(),
        layout: net.layout.clone(),
        plan: SubspacePlan::by_prefix_bits(&net.layout, FieldId(0), 2),
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

/// Drives `cfg` over the stream one epoch at a time and asserts full
/// per-epoch equality with the sequential reference: same cumulative
/// loop sets, same distinct class-fingerprint unions, no partial
/// epochs. This is the "recovery is invisible" contract — it must hold
/// whatever faults the config injects, as long as restart budgets
/// suffice.
fn assert_stream_equivalence(net: &Net, cfg: ShardPoolConfig, label: &str) -> Vec<flash_core::WorkerStats> {
    let stream = blocks(net);
    let reference = whole_space_reference(net, &stream);
    let shard_count = cfg.plan.len();
    let mut pool = ShardPool::spawn(cfg).unwrap();
    let mut cum_cycles: HashSet<Vec<u32>> = HashSet::new();
    for (k, block) in stream.iter().enumerate() {
        pool.submit(block.clone());
        let epoch = pool
            .recv_epoch(Duration::from_secs(60))
            .unwrap_or_else(|| panic!("epoch {k} did not complete ({label})"));
        assert_eq!(epoch.seq, k as u64, "epoch order ({label})");
        assert!(
            !epoch.is_partial(),
            "epoch {k} released partially under a sufficient restart budget ({label})"
        );
        assert_eq!(epoch.shards.len(), shard_count);
        for (_, r) in epoch.reports() {
            if let PropertyReport::LoopFound { cycle } = r {
                cum_cycles.insert(cycle_key(cycle));
            }
        }
        assert_eq!(
            cum_cycles, reference.cycles_by_block[k],
            "cumulative loop sets diverge at block {k} ({label})"
        );
        let mut union: HashSet<u64> = HashSet::new();
        for s in &epoch.shards {
            union.extend(s.class_keys.iter().copied());
        }
        assert_eq!(
            union, reference.classes_by_block[k],
            "class fingerprints diverge at block {k} ({label})"
        );
    }
    let out = pool.drain(Duration::from_secs(60));
    assert!(out.abandoned.is_empty(), "abandoned workers ({label})");
    assert_eq!(cum_cycles.len(), 2, "both loops found exactly once ({label})");
    out.stats
}

// ---------------------------------------------------------------------
// Checkpointed restart.
// ---------------------------------------------------------------------

/// Workers killed mid-stream with periodic checkpoints: replay happens
/// from the last checkpoint, not genesis, and is invisible in the
/// verdict stream, at 1, 2 and 4 workers.
#[test]
fn checkpointed_restarts_match_unfaulted_run() {
    for workers in [1, 2, 4] {
        checkpointed_restarts_match_unfaulted_run_at(workers);
    }
}

/// Kills worker 0 after 3 batches and, with two or more workers,
/// worker 1 after 6.
fn checkpointed_restarts_match_unfaulted_run_at(workers: usize) {
    let net = diamond();
    let mut cfg = base_config(&net, workers);
    cfg.checkpoint_every = Some(2);
    let kills = [
        KillSpec { worker: 0, after_batches: 3 },
        KillSpec { worker: 1, after_batches: 6 },
    ];
    let kills = kills[..workers.min(2)].to_vec();
    let fired = kills.len() as u32;
    cfg.faults = Some(FaultPlan { kill_workers: kills, ..FaultPlan::default() });
    let stats = assert_stream_equivalence(&net, cfg, &format!("kill+checkpoint x{workers}"));
    assert_eq!(stats.len(), workers);
    let restarts: u32 = stats.iter().map(|s| s.restarts).sum();
    assert_eq!(restarts, fired, "every kill fault fired exactly once (x{workers})");
    for s in &stats {
        assert!(s.checkpoints >= 1, "worker {} never checkpointed", s.worker);
        // The whole point of checkpoints: replay is bounded by the
        // checkpoint interval, not the stream length.
        assert!(
            s.replayed <= 2,
            "worker {} replayed {} jobs despite checkpoint_every=2",
            s.worker,
            s.replayed
        );
        assert_eq!(s.batches, s.processed + s.replayed);
    }
}

// ---------------------------------------------------------------------
// Graceful degradation and rejoin.
// ---------------------------------------------------------------------

/// A worker with a zero restart budget dies; the pool must keep
/// releasing (partial, tagged) epochs instead of wedging, and the
/// worker's rejoin must deliver the missing verdicts late so the
/// cumulative stream completes. Both injected loops live on the killed
/// worker's shards, so this passes only if the late path really works.
#[test]
fn degraded_worker_rejoins_and_cumulative_verdicts_complete() {
    let net = diamond();
    let stream = blocks(&net);
    let reference = whole_space_reference(&net, &stream);
    let mut cfg = base_config(&net, 2);
    cfg.restart = RestartPolicy {
        max_restarts: 0,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(20),
        rejoin_backoff: Some(Duration::from_millis(300)),
    };
    cfg.checkpoint_every = Some(2);
    cfg.faults = Some(FaultPlan {
        kill_workers: vec![KillSpec { worker: 1, after_batches: 2 }],
        ..FaultPlan::default()
    });
    let mut pool = ShardPool::spawn(cfg).unwrap();
    for block in &stream {
        pool.submit(block.clone());
    }
    let mut epochs: Vec<EpochReport> = Vec::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while epochs.len() < stream.len() && std::time::Instant::now() < deadline {
        if let Some(e) = pool.recv_epoch(Duration::from_millis(100)) {
            epochs.push(e);
        }
    }
    assert_eq!(epochs.len(), stream.len(), "every epoch must be released");
    let partial = epochs.iter().filter(|e| e.is_partial()).count();
    assert!(
        partial >= 1,
        "the degraded window should have released at least one partial epoch"
    );
    for e in &epochs {
        // The degradation tag is honest: partial ⇔ degraded shards
        // listed, and every degraded shard names the dead worker.
        assert_eq!(e.is_partial(), !e.degraded.is_empty());
        for d in &e.degraded {
            assert_eq!(d.worker, 1);
            assert!(d.since_seq <= e.seq);
        }
    }
    let out = pool.drain(Duration::from_secs(60));
    assert!(out.abandoned.is_empty());
    let rejoins: u32 = out.stats.iter().map(|s| s.rejoins).sum();
    assert!(rejoins >= 1, "the dead worker should have rejoined");
    // Cumulative completeness: epoch reports + late attachments +
    // drain stragglers together contain every verdict of the unfaulted
    // run — both loops, which lived on the killed worker's shards.
    let mut cum_cycles: HashSet<Vec<u32>> = HashSet::new();
    for e in epochs.iter().chain(out.epochs.iter()) {
        for (_, r) in e.reports() {
            if let PropertyReport::LoopFound { cycle } = r {
                cum_cycles.insert(cycle_key(cycle));
            }
        }
    }
    for (_, r) in &out.late {
        if let PropertyReport::LoopFound { cycle } = r {
            cum_cycles.insert(cycle_key(cycle));
        }
    }
    assert_eq!(
        cum_cycles,
        reference.cycles_by_block.last().unwrap().clone(),
        "cumulative verdicts must complete once the worker rejoins"
    );
}

/// Chaos at 3 workers: one worker is killed mid-stream and another
/// stalls. The kill restarts its worker exactly once, from a checkpoint;
/// the hang only slows its epochs and restarts nothing. Neither shows
/// in the verdict stream.
#[test]
fn kill_and_hang_are_invisible_at_3_workers() {
    let net = diamond();
    let mut cfg = base_config(&net, 3);
    cfg.checkpoint_every = Some(2);
    cfg.faults = Some(FaultPlan {
        kill_workers: vec![KillSpec { worker: 1, after_batches: 3 }],
        hang_workers: vec![HangSpec {
            worker: 2,
            after_batches: 4,
            duration: Duration::from_millis(300),
        }],
        ..FaultPlan::default()
    });
    let stats = assert_stream_equivalence(&net, cfg, "kill+hang x3");
    let restarts: Vec<u32> = stats.iter().map(|s| s.restarts).collect();
    assert_eq!(restarts, vec![0, 1, 0], "the kill restarts once, the hang never");
}

// ---------------------------------------------------------------------
// Property-based chaos: random kill placements.
// ---------------------------------------------------------------------

#[cfg(feature = "proptest")]
mod chaos {
    use super::*;
    use proptest::prelude::*;

    fn chaos_cases() -> u32 {
        std::env::var("FLASH_CHAOS_ITERS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(4)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(chaos_cases()))]

        /// Whatever the worker count, checkpoint interval and kill
        /// offsets, a restartable pool is verdict- and
        /// class-equivalent to the sequential reference, per epoch.
        #[test]
        fn random_kills_with_checkpoints_are_invisible(
            threads in 1usize..=3,
            every in 1u64..=4,
            kill_a in 1u64..=9,
            kill_b in 1u64..=9,
        ) {
            let net = diamond();
            let mut cfg = base_config(&net, threads);
            cfg.checkpoint_every = Some(every);
            let mut kills = vec![KillSpec { worker: 0, after_batches: kill_a }];
            if threads > 1 {
                kills.push(KillSpec { worker: 1, after_batches: kill_b });
            }
            cfg.faults = Some(FaultPlan { kill_workers: kills, ..FaultPlan::default() });
            assert_stream_equivalence(
                &net,
                cfg,
                &format!("chaos t={threads} every={every} kills={kill_a},{kill_b}"),
            );
        }
    }
}
