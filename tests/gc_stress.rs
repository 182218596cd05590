//! GC stress: a long churning update stream against a predicate engine
//! with a deliberately tiny collection budget must produce exactly the
//! same model and the same verification verdicts as an engine that never
//! collects, while keeping the live node count bounded.
//!
//! This is the integration-level counterpart of the unit GC tests in
//! `flash-bdd`: here the rooted handles live inside consumer data
//! structures (`InverseModel` entries, `RegexVerifier` EC tables) across
//! thousands of automatic collections.

use flash_ce2d::{RegexVerifier, Verdict};
use flash_imt::{ModelManager, ModelManagerConfig, SubspaceSpec};
use flash_netmodel::{
    ActionTable, DeviceId, HeaderLayout, Match, Rule, RuleUpdate, Topology,
};
use flash_spec::{parse_path_expr, Requirement};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Deterministic insert/delete churn over `devices` devices.
fn churn(
    layout: &HeaderLayout,
    devices: u32,
    steps: usize,
    seed: u64,
) -> (ActionTable, Vec<(DeviceId, RuleUpdate)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut actions = ActionTable::new();
    let mut installed: Vec<(DeviceId, Rule)> = Vec::new();
    let mut out = Vec::new();
    let dst_bits = layout.field(flash_netmodel::FieldId(0)).width;
    while out.len() < steps {
        let dev = DeviceId(rng.gen_range(0..devices));
        if !installed.is_empty() && rng.gen_bool(0.35) {
            let i = rng.gen_range(0..installed.len());
            let (d, r) = installed.swap_remove(i);
            out.push((d, RuleUpdate::delete(r)));
        } else {
            let len = rng.gen_range(2..=dst_bits);
            let v = (rng.gen::<u64>() & ((1u64 << dst_bits) - 1)) >> (dst_bits - len)
                << (dst_bits - len);
            let a = actions.fwd(DeviceId(1000 + rng.gen_range(0..6)));
            let r = Rule::new(Match::dst_prefix(layout, v, len), len as i64, a);
            if installed
                .iter()
                .any(|(d2, r2)| *d2 == dev && r2.mat == r.mat && r2.priority == r.priority)
            {
                continue;
            }
            installed.push((dev, r));
            out.push((dev, RuleUpdate::insert(r)));
        }
    }
    (actions, out)
}

fn manager(layout: &HeaderLayout, gc_threshold: usize) -> ModelManager {
    let mut m = ModelManager::new(ModelManagerConfig {
        layout: layout.clone(),
        subspace: SubspaceSpec::whole(),
        bst: usize::MAX,
        filter_updates: false,
    });
    m.engine_mut().set_gc_threshold(gc_threshold);
    m
}

#[test]
fn tight_gc_budget_reproduces_the_uncollected_model() {
    let layout = HeaderLayout::new(&[("dst", 12)]);
    let (_, updates) = churn(&layout, 8, 2500, 0x6C);

    // 512 nodes is far below what a 12-bit churn run allocates, so the
    // tight engine must collect many times along the way.
    let mut tight = manager(&layout, 512);
    let mut lax = manager(&layout, usize::MAX);
    for (chunk_no, chunk) in updates.chunks(64).enumerate() {
        for (d, u) in chunk {
            tight.submit(*d, [*u]);
            lax.submit(*d, [*u]);
        }
        tight.flush();
        lax.flush();
        if chunk_no % 8 == 0 {
            assert_eq!(tight.model().len(), lax.model().len(), "chunk {chunk_no}");
        }
    }

    let t = tight.stats().engine;
    let l = lax.stats().engine;
    assert!(t.gc_runs > 0, "tight engine never collected: {}", t.summary());
    assert_eq!(l.gc_runs, 0, "lax engine must not collect");
    assert!(t.gc_reclaimed_nodes > 0);
    assert!(
        t.live_nodes <= l.live_nodes,
        "collection must not grow the live set (tight {} vs lax {})",
        t.live_nodes,
        l.live_nodes
    );

    // Identical equivalence classes: same count, and the same class
    // boundaries/behaviours at every sampled header.
    assert_eq!(tight.model().len(), lax.model().len());
    let (te, tpat, tmodel) = tight.parts_mut();
    tmodel.check_invariants(te).unwrap();
    let (le, lpat, lmodel) = lax.parts_mut();
    lmodel.check_invariants(le).unwrap();
    for h in (0..4096u64).step_by(17) {
        let bits: Vec<bool> = (0..12).map(|i| (h >> (11 - i)) & 1 == 1).collect();
        let et = tmodel.classify(te, &bits).unwrap();
        let el = lmodel.classify(le, &bits).unwrap();
        for d in 0..8u32 {
            assert_eq!(
                tpat.get(et.vector, DeviceId(d)),
                lpat.get(el.vector, DeviceId(d)),
                "header {h} device {d}"
            );
        }
    }
}

#[test]
fn ce2d_verifier_verdicts_survive_ten_thousand_updates_of_gc() {
    // A line d0 - d1 - ... - d5 with a reachability requirement d0 .* d5.
    let mut t = Topology::new();
    let devs: Vec<DeviceId> = (0..6).map(|i| t.add_device(format!("d{i}"))).collect();
    for w in devs.windows(2) {
        t.add_bilink(w[0], w[1]);
    }
    let topo = Arc::new(t);
    let layout = HeaderLayout::new(&[("dst", 10)]);
    let (actions, updates) = churn(&layout, 6, 10_000, 0xF1A5);
    let actions = Arc::new(actions);

    let req = Requirement::new(
        "d0-reaches-d5",
        Match::any(&layout),
        vec![devs[0]],
        parse_path_expr("d0 .* d5").unwrap(),
    );

    let run = |gc_threshold: usize| -> (Vec<Verdict>, flash_bdd::EngineTelemetry) {
        let mut mgr = manager(&layout, gc_threshold);
        let mut verifier = RegexVerifier::new(
            topo.clone(),
            actions.clone(),
            req.clone(),
            vec![],
            mgr.engine_mut(),
            &layout,
        );
        let mut verdicts = Vec::new();
        for chunk in updates.chunks(128) {
            let mut synced = Vec::new();
            for (d, u) in chunk {
                mgr.submit(*d, [*u]);
                if !synced.contains(d) {
                    synced.push(*d);
                }
            }
            mgr.flush();
            let (engine, pat, model) = mgr.parts_mut();
            verdicts.push(verifier.on_model_update(engine, pat, model, &synced));
        }
        (verdicts, mgr.stats().engine)
    };

    let (tight_verdicts, tight) = run(384);
    let (lax_verdicts, lax) = run(usize::MAX);

    assert_eq!(
        tight_verdicts, lax_verdicts,
        "verdict stream must be independent of collection schedule"
    );
    assert!(tight.gc_runs > 0, "tight engine never collected: {}", tight.summary());
    assert_eq!(lax.gc_runs, 0);
    assert!(
        tight.live_nodes <= lax.live_nodes,
        "GC must bound the live set (tight {} vs lax {})",
        tight.live_nodes,
        lax.live_nodes
    );
    // The whole point of auto-GC on long streams: the tight engine's
    // resident arena stays a fraction of the uncollected one.
    assert!(
        tight.peak_live_nodes <= lax.peak_live_nodes,
        "peak {} vs {}",
        tight.peak_live_nodes,
        lax.peak_live_nodes
    );
}
