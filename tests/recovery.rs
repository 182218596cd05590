//! Crash recovery, durable journals and graceful degradation — the
//! fault-tolerance contract of the persistent shard pool:
//!
//! * a pool taking periodic checkpoints whose workers are killed (or
//!   stalled) mid-stream must produce, per epoch, **exactly** the
//!   verdicts and class fingerprints of an unfaulted run, at 1, 2, 3
//!   and 4 workers (replay is invisible);
//! * a worker that exhausts its restart budget degrades instead of
//!   wedging the pipeline — epochs are released partially, tagged with
//!   the degraded shards — and a later successful rejoin delivers the
//!   missing verdicts late, keeping the *cumulative* verdict stream
//!   complete;
//! * the durable epoch journal is rotated on every checkpoint, so its
//!   size is bounded by the checkpoint interval, and replaying a
//!   checkpoint is equivalent to replaying from genesis (byte-identical
//!   class fingerprints).
//!
//! Chaos knobs (used by the CI chaos lane): `FLASH_CHAOS_ITERS`
//! overrides the property-test case count, `PROPTEST_RNG_SEED` pins the
//! sampler, and `FLASH_ARTIFACT_DIR` redirects journal scratch space so
//! failing runs leave their journals behind as artifacts.

use flash_core::{
    EpochJournal, EpochReport, FaultPlan, HangSpec, JournalEntry, JournalTail, KillSpec,
    Property, PropertyReport, RecoveryOptions, RestartPolicy, ShardPool, ShardPoolConfig,
    SubspaceVerifier, SubspaceVerifierConfig,
};
use flash_imt::{SubspacePlan, SubspaceSpec};
use flash_netmodel::{
    ActionTable, DeviceId, FieldId, HeaderLayout, Match, Rule, RuleUpdate, Topology,
};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

struct Net {
    topo: Arc<Topology>,
    devs: Vec<DeviceId>,
    actions: Arc<ActionTable>,
    fwd: Vec<flash_netmodel::ActionId>,
    layout: HeaderLayout,
}

/// The diamond-with-chord of `shard_equivalence.rs`.
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

/// A 10-block stream: the 5-block loop scenario of
/// `shard_equivalence.rs` (a 2-cycle lands in block 2, a 3-cycle in
/// block 4, loops are never removed) followed by 5 blocks of loop-free
/// churn — long enough for several checkpoint rotations and kills at
/// varied offsets.
fn blocks(net: &Net) -> Vec<Vec<(DeviceId, RuleUpdate)>> {
    let l = &net.layout;
    let q = |i: u64| Match::dst_prefix(l, i << 6, 2);
    let p = |i: u64, v: u64| Match::dst_prefix(l, (i << 6) | (v << 2), 6);
    let mut out: Vec<Vec<(DeviceId, RuleUpdate)>> = Vec::new();
    // Block 0: device i owns quarter i, forwarding to i+1 (chain).
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
    // Block 1: loop-free priority churn.
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
    // Block 3: a delete plus a fresh insert.
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

fn cycle_key(cycle: &[DeviceId]) -> Vec<u32> {
    let mut k: Vec<u32> = cycle.iter().map(|d| d.0).collect();
    k.sort_unstable();
    k
}

struct RefState {
    cycles_by_block: Vec<HashSet<Vec<u32>>>,
    classes_by_block: Vec<HashSet<u64>>,
}

/// Sequential whole-space reference, same flush/detect boundaries.
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
    let mut st = RefState { cycles_by_block: Vec::new(), classes_by_block: Vec::new() };
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
            if let PropertyReport::LoopFound { cycle } = r {
                cycles.insert(cycle_key(&cycle));
            }
        }
        st.cycles_by_block.push(cycles.clone());
        st.classes_by_block
            .push(v.manager().class_keys().into_iter().collect());
    }
    st
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
        recovery: RecoveryOptions::default(),
        query_hub: None,
    }
}

/// Scratch space for durable journals. `FLASH_ARTIFACT_DIR` (the CI
/// chaos lane) redirects it so failing runs leave journals behind.
fn scratch_dir(tag: &str) -> PathBuf {
    let base = std::env::var_os("FLASH_ARTIFACT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    base.join(format!("flash-recovery-{}-{tag}", std::process::id()))
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
    cfg.recovery.checkpoint_every = Some(2);
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
    cfg.recovery.checkpoint_every = Some(2);
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
    cfg.recovery.checkpoint_every = Some(2);
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
// Durable journal.
// ---------------------------------------------------------------------

/// The on-disk journal is rotated on every checkpoint (size bounded by
/// the interval), ends cleanly, and its checkpoint is *equivalent to
/// genesis replay*: rebuilding each shard from scratch over the blocks
/// the checkpoint covers yields byte-identical class fingerprints.
#[test]
fn durable_journal_is_bounded_and_checkpoint_matches_genesis_replay() {
    let net = diamond();
    let stream = blocks(&net);
    let dir = scratch_dir("journal");
    let _ = std::fs::remove_dir_all(&dir);
    let every = 3u64;
    let mut cfg = base_config(&net, 2);
    let plan = cfg.plan.clone();
    cfg.recovery.checkpoint_every = Some(every);
    cfg.recovery.journal_dir = Some(dir.clone());
    {
        let mut pool = ShardPool::spawn(cfg).unwrap();
        for (k, block) in stream.iter().enumerate() {
            pool.submit(block.clone());
            let e = pool.recv_epoch(Duration::from_secs(60)).expect("epoch");
            assert_eq!(e.seq, k as u64);
        }
        let out = pool.drain(Duration::from_secs(60));
        assert!(out.abandoned.is_empty());
        for s in &out.stats {
            assert!(s.checkpoints >= 2, "10 blocks / interval 3 → several rotations");
        }
    }
    for w in 0..2usize {
        let path = dir.join(format!("worker-{w}.fjl"));
        let (entries, tail) = EpochJournal::read_entries(&path).unwrap();
        assert_eq!(tail, JournalTail::Clean, "worker {w} journal must end cleanly");
        // Rotation bound: exactly one checkpoint, as the first frame,
        // followed by at most `every` journaled jobs.
        assert!(
            matches!(entries.first(), Some(JournalEntry::Checkpoint(_))),
            "worker {w}: rotated journal must lead with its checkpoint"
        );
        let jobs_after = entries.len() - 1;
        assert!(
            entries.iter().skip(1).all(|e| !matches!(e, JournalEntry::Checkpoint(_))),
            "worker {w}: exactly one checkpoint per rotated journal"
        );
        assert!(
            jobs_after as u64 <= every,
            "worker {w}: {jobs_after} journaled jobs exceed the checkpoint interval {every}"
        );
        // Checkpoint ≡ genesis: replay the covered prefix from scratch,
        // per shard, and compare fingerprints byte for byte.
        let (cp, _jobs) = EpochJournal::recover(&path).unwrap();
        let cp = cp.expect("checkpoint present");
        assert_ne!(cp.last_seq, u64::MAX);
        for scp in &cp.shards {
            assert!(scp.built, "every shard saw block 0");
            let mut v = SubspaceVerifier::new(SubspaceVerifierConfig {
                topo: net.topo.clone(),
                actions: net.actions.clone(),
                layout: net.layout.clone(),
                subspace: plan.subspaces[scp.shard],
                bst: usize::MAX,
                properties: vec![Property::LoopFreedom],
            });
            for block in stream.iter().take(cp.last_seq as usize + 1) {
                for (d, u) in block {
                    v.ingest(*d, vec![*u]);
                }
                v.flush();
            }
            let mut genesis: Vec<u64> = v.manager().class_keys();
            genesis.sort_unstable();
            genesis.dedup();
            assert_eq!(
                genesis, scp.class_fingerprints,
                "shard {}: checkpoint fingerprints must equal genesis replay",
                scp.shard
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
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
            cfg.recovery.checkpoint_every = Some(every);
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
