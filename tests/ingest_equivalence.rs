//! Bulk ingestion must be observationally equivalent to sequential
//! ingestion: identical equivalence-class fingerprints and identical
//! cumulative verdict sets, for
//!
//! * the on-disk dataset layout (`stream_routes_parallel` + bulk-load
//!   snapshot seal vs the sequential resolved pass with per-device
//!   detection), at 1, 2 and 4 reader threads;
//! * a `.network` file, parsed once by `parse_network` (`ingest_bulk` +
//!   `seal_bulk` vs per-device `ingest_synchronized`), with a
//!   requirement whose verdict both paths must reach;
//! * the shard pool's bulk-ingest protocol (`ingest` + `seal_snapshot`
//!   vs one `submit`), including a forced mark-sweep collection
//!   mid-load; and
//! * the verifier-level bulk-load fast path vs incremental replay of
//!   the same snapshot, including a snapshot that contains a loop.

use flash_core::adapter::parse_network;
use flash_core::{
    Property, ShardPool, ShardPoolConfig, SubspaceVerifier, SubspaceVerifierConfig,
};
use flash_imt::{SubspacePlan, SubspaceSpec};
use flash_netmodel::{
    ActionTable, DeviceId, FieldId, HeaderLayout, Match, Rule, RuleUpdate, Topology,
};
use flash_workloads::dataset;
use std::collections::{BTreeSet, HashSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("flash-ingest-eq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn verifier(
    topo: Arc<Topology>,
    actions: Arc<ActionTable>,
    layout: HeaderLayout,
    properties: Vec<Property>,
) -> SubspaceVerifier {
    SubspaceVerifier::new(SubspaceVerifierConfig {
        topo,
        actions,
        layout,
        subspace: SubspaceSpec::whole(),
        bst: usize::MAX,
        properties,
    })
}

/// The equivalence standard: sorted distinct class fingerprints plus
/// the verifier's cumulative emitted-verdict keys.
fn observe(v: &SubspaceVerifier) -> (Vec<u64>, Vec<String>) {
    let mut keys = v.manager().class_keys();
    keys.sort_unstable();
    keys.dedup();
    (keys, v.emitted_keys())
}

#[test]
fn dataset_parallel_ingest_matches_sequential() {
    let dir = tmpdir("dataset");
    dataset::generate_fat_tree_dataset(&dir, 4, 8, 2).unwrap();
    let header = dataset::load_header(&dir).unwrap();
    let mut actions = ActionTable::new();
    header.stream_routes(&mut actions, |_, _| Ok(())).unwrap();
    let actions = Arc::new(actions);

    // Sequential reference: resolved pass, flush + detect per device.
    let mut seq = verifier(
        header.topo.clone(),
        actions.clone(),
        header.layout.clone(),
        vec![Property::LoopFreedom],
    );
    header
        .stream_routes_resolved(&actions, |dev, rules| {
            let updates = rules.into_iter().map(RuleUpdate::insert).collect();
            seq.ingest_synchronized(dev, updates);
            Ok(())
        })
        .unwrap();
    let want = observe(&seq);
    assert!(!want.0.is_empty());

    for threads in [1usize, 2, 4] {
        let mut par = verifier(
            header.topo.clone(),
            actions.clone(),
            header.layout.clone(),
            vec![Property::LoopFreedom],
        );
        header
            .stream_routes_parallel(
                &actions,
                threads,
                |_, rules| rules.into_iter().map(RuleUpdate::insert).collect::<Vec<_>>(),
                |dev, updates| {
                    par.ingest_bulk(dev, updates);
                    Ok(())
                },
            )
            .unwrap();
        par.seal_bulk(&header.route_devices);
        assert_eq!(observe(&par), want, "{threads} reader threads");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A chain toward `gw` with an ECMP chord; the requirement source's
/// `fib` block comes last so sequential per-device detection reaches
/// its verdict at the same point the bulk seal does.
const NETWORK: &str = "
node s1\nnode s2\nnode s3\nnode s4\nnode s5\nnode s6\nexternal gw
link s1 s2\nlink s2 s3\nlink s2 s4\nlink s3 s4\nlink s4 s5\nlink s5 s6\nlink s6 gw
fib s2\n  10.0.0.0/8 1 ecmp(s3,s4)\n  10.0.9.0/24 2 s3\n  0.0.0.0/0 0 drop
fib s3\n  10.0.0.0/8 1 s4\n  0.0.0.0/0 0 drop
fib s4\n  10.0.0.0/8 1 s5\n  10.0.3.0/24 2 s5\n  0.0.0.0/0 0 drop
fib s5\n  10.0.0.0/8 1 s6\n  0.0.0.0/0 0 drop
fib s6\n  10.0.0.0/8 1 gw\n  0.0.0.0/0 0 drop
fib s1\n  10.0.0.0/8 1 s2\n  10.0.1.0/24 2 s2\n  0.0.0.0/0 0 drop
require reach 10.0.1.0/24 from s1 path \"s1 .* gw\"
";

#[test]
fn network_bulk_ingest_matches_sequential() {
    let net = parse_network(NETWORK).unwrap();
    let new_verifier = || {
        verifier(
            net.topo.clone(),
            net.actions.clone(),
            net.layout.clone(),
            net.properties.clone(),
        )
    };
    let inserts = |rules: &[Rule]| rules.iter().copied().map(RuleUpdate::insert).collect();

    let mut seq = new_verifier();
    for (dev, rules) in &net.fibs {
        seq.ingest_synchronized(*dev, inserts(rules));
    }
    let want = observe(&seq);
    assert!(
        want.1.iter().any(|k| k.contains("reach")),
        "requirement verdict missing from {:?}",
        want.1
    );

    let mut bulk = new_verifier();
    for (dev, rules) in &net.fibs {
        bulk.ingest_bulk(*dev, inserts(rules));
    }
    let mut synced: Vec<DeviceId> = net.fibs.iter().map(|(dev, _)| *dev).collect();
    synced.sort_unstable();
    synced.dedup();
    bulk.seal_bulk(&synced);
    assert_eq!(observe(&bulk), want);
}

/// A 4-device snapshot over an 8-bit dst space: a loop-free chain plus
/// more-specific churn plus a deliberate 2-cycle on one slice, all
/// inserts into empty FIBs (bulk-eligible).
type Snapshot = (
    Arc<Topology>,
    Arc<ActionTable>,
    HeaderLayout,
    Vec<(DeviceId, RuleUpdate)>,
);

fn snapshot() -> Snapshot {
    let mut t = Topology::new();
    let a = t.add_device("a");
    let b = t.add_device("b");
    let c = t.add_device("c");
    let d = t.add_device("d");
    t.add_bilink(a, b);
    t.add_bilink(b, c);
    t.add_bilink(c, d);
    t.add_bilink(d, a);
    let layout = HeaderLayout::new(&[("dst", 8)]);
    let mut at = ActionTable::new();
    let fwd: Vec<_> = [a, b, c, d].iter().map(|&x| at.fwd(x)).collect();
    let devs = [a, b, c, d];
    let q = |i: u64| Match::dst_prefix(&layout, i << 6, 2);
    let p = |i: u64, v: u64| Match::dst_prefix(&layout, (i << 6) | (v << 2), 6);
    let mut updates = Vec::new();
    for i in 0..4usize {
        updates.push((
            devs[i],
            RuleUpdate::insert(Rule::new(q(i as u64), 2, fwd[(i + 1) % 4])),
        ));
    }
    updates.push((a, RuleUpdate::insert(Rule::new(p(0, 3), 6, fwd[2]))));
    updates.push((c, RuleUpdate::insert(Rule::new(p(2, 5), 6, fwd[3]))));
    // A 2-cycle a<->b on a slice of quarter 1: both ingestion paths
    // must surface the same loop verdict.
    updates.push((a, RuleUpdate::insert(Rule::new(p(1, 7), 6, fwd[1]))));
    updates.push((b, RuleUpdate::insert(Rule::new(p(1, 7), 6, fwd[0]))));
    (Arc::new(t), Arc::new(at), layout, updates)
}

fn pool(
    topo: &Arc<Topology>,
    actions: &Arc<ActionTable>,
    layout: &HeaderLayout,
    plan: SubspacePlan,
) -> ShardPool {
    ShardPool::spawn(ShardPoolConfig {
        topo: topo.clone(),
        actions: actions.clone(),
        layout: layout.clone(),
        plan,
        properties: vec![Property::LoopFreedom],
        bst: usize::MAX,
        threads: 2,
        capacity: 16,
        restart: flash_core::RestartPolicy::default(),
        collect_class_keys: true,
        faults: None,
        recovery: Default::default(),
        query_hub: None,
    })
    .unwrap()
}

/// Distinct class fingerprints + sorted verdict strings of one epoch.
fn epoch_observation(e: &flash_core::EpochReport) -> (BTreeSet<u64>, Vec<String>) {
    let mut classes = BTreeSet::new();
    for s in &e.shards {
        classes.extend(s.class_keys.iter().copied());
    }
    let mut verdicts: Vec<String> = e
        .reports()
        .map(|(shard, r)| format!("{shard}:{r:?}"))
        .collect();
    verdicts.sort();
    (classes, verdicts)
}

#[test]
fn shard_pool_bulk_ingest_with_midload_collect_matches_submit() {
    let (topo, actions, layout, updates) = snapshot();
    let plan = SubspacePlan::by_prefix_bits(&layout, FieldId(0), 2);
    let devices: Vec<DeviceId> = {
        let s: HashSet<DeviceId> = updates.iter().map(|(d, _)| *d).collect();
        let mut v: Vec<DeviceId> = s.into_iter().collect();
        v.sort_unstable();
        v
    };

    // Reference: the whole snapshot as one submitted epoch.
    let mut a = pool(&topo, &actions, &layout, plan.clone());
    assert_eq!(a.submit(updates.clone()), 0);
    let ea = a.recv_epoch(Duration::from_secs(30)).expect("submit epoch");
    let want = epoch_observation(&ea);
    a.drain(Duration::from_secs(30));

    // Bulk: three ingest batches with a forced mark-sweep collection
    // mid-load, then one seal.
    let mut b = pool(&topo, &actions, &layout, plan);
    for (i, chunk) in updates.chunks(3).enumerate() {
        b.ingest(chunk.to_vec()).unwrap();
        if i == 1 {
            b.collect_all();
        }
    }
    let seq = b.seal_snapshot(devices).unwrap();
    assert_eq!(seq, 0, "bulk frames consume no epoch sequence numbers");
    let eb = b.recv_epoch(Duration::from_secs(30)).expect("seal epoch");
    assert_eq!(eb.seq, 0);
    assert_eq!(epoch_observation(&eb), want);
    // The snapshot's loop survived both paths.
    assert!(
        want.1.iter().any(|v| v.contains("LoopFound")),
        "expected a loop verdict in {:?}",
        want.1
    );
    b.drain(Duration::from_secs(30));
}

#[test]
fn bulk_load_matches_incremental_replay() {
    let (topo, actions, layout, updates) = snapshot();
    let devices: Vec<DeviceId> = {
        let s: HashSet<DeviceId> = updates.iter().map(|(d, _)| *d).collect();
        let mut v: Vec<DeviceId> = s.into_iter().collect();
        v.sort_unstable();
        v
    };

    // Incremental replay: per-device synchronized ingestion.
    let mut inc = verifier(
        topo.clone(),
        actions.clone(),
        layout.clone(),
        vec![Property::LoopFreedom],
    );
    for &dev in &devices {
        let ups: Vec<RuleUpdate> = updates
            .iter()
            .filter(|(d, _)| *d == dev)
            .map(|(_, u)| *u)
            .collect();
        inc.ingest_synchronized(dev, ups);
    }

    // Bulk load: buffer everything, one seal.
    let mut bulk = verifier(topo, actions, layout, vec![Property::LoopFreedom]);
    for (dev, u) in &updates {
        bulk.ingest_bulk(*dev, vec![*u]);
    }
    bulk.seal_bulk(&devices);

    // Class fingerprints must agree exactly. Verdicts are compared as
    // the final violation set: the incremental replay additionally
    // observed a transient "no loop yet" while only half the cycle was
    // synced — a state the single-seal snapshot path never passes
    // through by design.
    let (bulk_classes, bulk_keys) = observe(&bulk);
    let (inc_classes, inc_keys) = observe(&inc);
    assert_eq!(bulk_classes, inc_classes);
    // Loop keys embed the cycle starting at whichever device triggered
    // detection; canonicalize to the sorted member set.
    let violations = |keys: &[String]| -> BTreeSet<String> {
        keys.iter()
            .filter(|k| k.starts_with("loop:") || k.starts_with("unsat:"))
            .map(|k| {
                if let Some(cycle) = k.strip_prefix("loop:") {
                    let mut ids: Vec<u64> = cycle
                        .split(|c: char| !c.is_ascii_digit())
                        .filter(|s| !s.is_empty())
                        .map(|s| s.parse().unwrap())
                        .collect();
                    ids.sort_unstable();
                    format!("loop:{ids:?}")
                } else {
                    k.clone()
                }
            })
            .collect()
    };
    assert_eq!(violations(&bulk_keys), violations(&inc_keys));
    assert!(
        bulk_keys.iter().any(|k| k.starts_with("loop:")),
        "snapshot loop missing: {bulk_keys:?}"
    );
}
