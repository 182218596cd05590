//! Interned-representation equivalence: the Fast IMT pipeline (match
//! memoization keyed on `MatchId`, class overlap index, auto shadow
//! dispatch — all riding on the global match-interning table) must
//! reproduce a header-enumeration oracle on randomized insert/delete
//! churn, including across explicit predicate-engine collections, and
//! the verifier's verdict stream must not depend on the block size.

use flash_core::{Property, PropertyReport, SubspaceVerifier, SubspaceVerifierConfig};
use flash_imt::{ModelManager, ModelManagerConfig, SubspaceSpec};
use flash_netmodel::{
    ActionId, ActionTable, DeviceId, HeaderLayout, Match, Rule, RuleUpdate, Topology,
};
use header_oracle::check_against_headers;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

#[path = "../crates/imt/tests/support/header_oracle.rs"]
mod header_oracle;

/// Randomized churn: random prefix inserts, with each insert later
/// deleted with probability ~1/2, over `devices` devices and `actions`
/// distinct forwarding actions (ids 1..=actions; 0 is drop).
fn churn(
    layout: &HeaderLayout,
    devices: u32,
    actions: u32,
    steps: usize,
    seed: u64,
) -> Vec<(DeviceId, RuleUpdate)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<(DeviceId, Rule)> = Vec::new();
    let mut seq = Vec::with_capacity(steps);
    for _ in 0..steps {
        if !live.is_empty() && rng.gen_bool(0.4) {
            let i = rng.gen_range(0..live.len());
            let (d, r) = live.swap_remove(i);
            seq.push((d, RuleUpdate::delete(r)));
            continue;
        }
        let len = rng.gen_range(3..=10u32);
        let value = rng.gen_range(0..(1u64 << len));
        let dev = DeviceId(rng.gen_range(0..devices));
        let rule = Rule::new(
            Match::dst_prefix(layout, value, len),
            len as i64,
            ActionId(rng.gen_range(0..=actions)),
        );
        live.push((dev, rule));
        seq.push((dev, RuleUpdate::insert(rule)));
    }
    seq
}

fn manager(layout: &HeaderLayout) -> ModelManager {
    let mut m = ModelManager::new(ModelManagerConfig::whole_space(layout.clone()));
    m.engine_mut().set_gc_threshold(2048);
    m
}

#[test]
fn churn_fingerprints_match_header_oracle() {
    let layout = HeaderLayout::new(&[("dst", 12)]);
    let seq = churn(&layout, 10, 6, 3000, 0x1D7E);
    let mut m = manager(&layout);
    for (blk, chunk) in seq.chunks(250).enumerate() {
        for (d, u) in chunk {
            m.submit(*d, [*u]);
        }
        m.flush();
        check_against_headers(&mut m, 12, &format!("block {blk}"));
        // An explicit collection mid-stream must not perturb the model.
        if blk % 3 == 2 {
            let mut before = m.class_keys();
            m.engine_mut().collect();
            let mut after = m.class_keys();
            before.sort_unstable();
            after.sort_unstable();
            assert_eq!(after, before, "collect changed fingerprints");
        }
    }
}

#[test]
fn churn_fingerprints_stable_across_seeds() {
    // Three seeds so a lucky churn shape cannot mask a divergence.
    let layout = HeaderLayout::new(&[("dst", 10)]);
    for seed in [7u64, 99, 0xABCD] {
        let seq = churn(&layout, 6, 4, 1200, seed);
        let mut m = manager(&layout);
        for (d, u) in &seq {
            m.submit(*d, [*u]);
        }
        m.flush();
        check_against_headers(&mut m, 10, &format!("seed {seed}"));
    }
}

/// A fully "uphill"-linked topology: device `i` can only ever forward
/// to devices `j > i`, so no rule set can form a loop. With loops ruled
/// out by construction, every verdict a verifier can emit (loop freedom,
/// requirement satisfied/unsatisfied) is a deterministic function of the
/// model — loop *witness cycles* are not compared because which cycle is
/// reported first legitimately depends on class traversal order, which
/// the block size is allowed to change.
fn uphill(n: u32) -> (Arc<Topology>, Vec<DeviceId>, Arc<ActionTable>) {
    let mut t = Topology::new();
    let ids: Vec<DeviceId> = (0..n).map(|i| t.add_device(format!("u{i}"))).collect();
    for i in 0..n as usize {
        for j in i + 1..n as usize {
            t.add_bilink(ids[i], ids[j]);
        }
    }
    let mut at = ActionTable::new();
    for &d in &ids {
        at.fwd(d);
    }
    (Arc::new(t), ids, Arc::new(at))
}

/// Randomized churn that only installs uphill-forwarding rules:
/// device `i` forwards to a random `j > i` (action id `j + 1`; 0 is
/// drop and the last device only drops).
fn churn_acyclic(
    layout: &HeaderLayout,
    devices: u32,
    steps: usize,
    seed: u64,
) -> Vec<(DeviceId, RuleUpdate)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<(DeviceId, Rule)> = Vec::new();
    let mut seq = Vec::with_capacity(steps);
    for _ in 0..steps {
        if !live.is_empty() && rng.gen_bool(0.4) {
            let i = rng.gen_range(0..live.len());
            let (d, r) = live.swap_remove(i);
            seq.push((d, RuleUpdate::delete(r)));
            continue;
        }
        let len = rng.gen_range(3..=10u32);
        let value = rng.gen_range(0..(1u64 << len));
        let di = rng.gen_range(0..devices);
        let action = if di + 1 == devices {
            flash_netmodel::ACTION_DROP
        } else {
            ActionId(rng.gen_range(di + 1..devices) + 1)
        };
        let rule = Rule::new(Match::dst_prefix(layout, value, len), len as i64, action);
        live.push((DeviceId(di), rule));
        seq.push((DeviceId(di), RuleUpdate::insert(rule)));
    }
    seq
}

/// The verifier fed one block per device chunk against the same stream
/// at `bst = 1`, the paper's per-update mode: the reference applies
/// every update as its own block and only then marks the device
/// synchronized. The two sides cut the stream into different blocks
/// (and so take different shadow arms), yet after every chunk their
/// models must hold the same classes and their verdicts must agree.
#[test]
fn verdict_streams_match_per_update_reference() {
    let (topo, ids, actions) = uphill(6);
    let layout = HeaderLayout::new(&[("dst", 10)]);
    let seq = churn_acyclic(&layout, 6, 1500, 0xFEED);
    let req = flash_spec::Requirement::new(
        "u0-reaches-u5",
        Match::any(&layout),
        vec![ids[0]],
        flash_spec::parse_path_expr("u0 .* u5").unwrap(),
    );
    let mk = |bst| {
        SubspaceVerifier::new(SubspaceVerifierConfig {
            topo: topo.clone(),
            actions: actions.clone(),
            layout: layout.clone(),
            subspace: SubspaceSpec::whole(),
            bst,
            properties: vec![
                Property::LoopFreedom,
                Property::Requirement {
                    requirement: req.clone(),
                    dests: vec![],
                },
            ],
        })
    };
    let mut chunked = mk(usize::MAX);
    let mut per_update = mk(1);
    let mut chunked_stream: Vec<PropertyReport> = Vec::new();
    let mut per_update_stream: Vec<PropertyReport> = Vec::new();
    for (blk, chunk) in seq.chunks(100).enumerate() {
        // Group the chunk per device so both verifiers sync devices in
        // the same order.
        let mut per_dev: Vec<(DeviceId, Vec<RuleUpdate>)> = Vec::new();
        for (d, u) in chunk {
            match per_dev.iter_mut().find(|(pd, _)| pd == d) {
                Some((_, v)) => v.push(*u),
                None => per_dev.push((*d, vec![*u])),
            }
        }
        for (d, ups) in per_dev {
            for &u in &ups {
                per_update.ingest(d, vec![u]);
                assert_eq!(per_update.manager().pending_len(), 0, "bst = 1 flushes");
            }
            per_update_stream.extend(per_update.detect(&[d]));
            chunked_stream.extend(chunked.ingest_synchronized(d, ups));
        }
        assert_eq!(
            chunked_stream, per_update_stream,
            "verdict streams diverged at block {blk}"
        );
        let mut chunked_keys = chunked.manager().class_keys();
        let mut per_update_keys = per_update.manager().class_keys();
        chunked_keys.sort_unstable();
        per_update_keys.sort_unstable();
        assert_eq!(chunked_keys, per_update_keys, "models diverged at block {blk}");
        if blk % 4 == 3 {
            chunked.manager_mut().engine_mut().collect();
            per_update.manager_mut().engine_mut().collect();
        }
    }
    assert!(
        !chunked_stream.is_empty(),
        "churn over a ring should decide at least one verdict"
    );
}
