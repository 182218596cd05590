//! Equivalence of the overlap-indexed fast paths against their retained
//! linear references, on randomized workloads:
//!
//! * the [`ModelManager`] (overlap index + match memo + adaptive shadows)
//!   against a header-enumeration oracle — per device, the linear
//!   first-match lookup over the manager's FIB — on an insert/delete
//!   churn stream with forced mid-stream GC;
//! * indexed [`InverseModel::apply_overwrite`] against the index-free
//!   [`InverseModel::apply_overwrite_linear`] scan on random overwrite
//!   streams, across forced engine collections and index rebuilds;
//! * the class index's candidate sets against a full scan: for random
//!   predicates they must contain every class the predicate intersects,
//!   whatever splits, merges, removals and rebuilds came before.

use flash_bdd::{Pred, PredEngine};
use flash_imt::{InverseModel, ModelManager, ModelManagerConfig, Overwrite, PatStore};
use flash_netmodel::{ActionId, DeviceId, HeaderLayout, Match, Rule, RuleUpdate};
use header_oracle::check_against_headers;
use rand::{rngs::StdRng, Rng, SeedableRng};

#[path = "support/header_oracle.rs"]
mod header_oracle;

fn random_rule(rng: &mut StdRng, layout: &HeaderLayout) -> Rule {
    let len = rng.gen_range(1u32..=12);
    let value = (rng.gen_range(0u64..1 << 12) >> (12 - len)) << (12 - len);
    let action = ActionId(rng.gen_range(1u32..6));
    Rule::new(Match::dst_prefix(layout, value, len), len as i64, action)
}

/// Random insert/delete churn: ~60% fresh inserts, ~40% deletes of
/// currently installed rules, spread over `devs` devices.
fn churn_stream(
    layout: &HeaderLayout,
    devs: u32,
    steps: usize,
    seed: u64,
) -> Vec<(DeviceId, RuleUpdate)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut installed: Vec<(DeviceId, Rule)> = Vec::new();
    let mut out = Vec::new();
    for _ in 0..steps {
        if installed.is_empty() || rng.gen_range(0u32..10) < 6 {
            let d = DeviceId(rng.gen_range(0u32..devs));
            let r = random_rule(&mut rng, layout);
            installed.push((d, r));
            out.push((d, RuleUpdate::insert(r)));
        } else {
            let i = rng.gen_range(0usize..installed.len());
            let (d, r) = installed.swap_remove(i);
            out.push((d, RuleUpdate::delete(r)));
        }
    }
    out
}

#[test]
fn indexed_manager_matches_linear_manager_on_random_churn() {
    let layout = HeaderLayout::new(&[("dst", 12)]);
    let mut m = ModelManager::new(ModelManagerConfig::whole_space(layout.clone()));
    m.engine_mut().set_gc_threshold(2048);

    let stream = churn_stream(&layout, 8, 1200, 0xD1CE_2024);
    for (chunk_no, chunk) in stream.chunks(48).enumerate() {
        for (d, u) in chunk {
            m.submit(*d, [*u]);
        }
        m.flush();
        if chunk_no % 5 == 4 {
            // Forced mark-sweep: rooted model predicates must survive and
            // the rebuilt-on-demand index must stay consistent.
            m.gc();
        }
        check_against_headers(&mut m, 12, &format!("chunk {chunk_no}"));
    }

    // Make sure the run actually exercised the optimized paths.
    let stats = m.stats();
    assert!(
        stats.classes_pruned > 0,
        "overlap index never pruned a class"
    );
    assert!(stats.match_memo_hits > 0, "match memo never hit");
    // The cost model must have picked each shadow arm at least once.
    assert!(
        stats.shadow_acc_blocks > 0,
        "accumulated shadows never picked"
    );
    assert!(stats.shadow_trie_blocks > 0, "trie shadows never picked");

    let (engine, _, model) = m.parts_mut();
    model.check_invariants(engine).unwrap();
}

#[test]
fn indexed_overwrites_match_linear_reference_across_collect_and_rebuild() {
    let mut e = PredEngine::new(10);
    let mut pat = PatStore::new();
    let mut indexed = InverseModel::new(e.true_pred());
    let mut linear = InverseModel::new(e.true_pred());
    linear.set_index_enabled(false);

    let mut rng = StdRng::seed_from_u64(0x0AB5_EED5);
    for step in 0..220usize {
        let len = rng.gen_range(1u32..=8);
        let value = (rng.gen_range(0u64..1 << 10) >> (10 - len)) << (10 - len);
        let p = e.prefix(0, 10, value, len);
        let writes = (0..rng.gen_range(1usize..4))
            .map(|_| (DeviceId(rng.gen_range(0u32..6)), ActionId(rng.gen_range(0u32..5))))
            .collect();
        let ow = Overwrite { pred: p, writes };
        indexed.apply_overwrite(&mut e, &mut pat, &ow);
        linear.apply_overwrite_linear(&mut e, &mut pat, &ow);

        if step % 37 == 36 {
            e.collect();
        }
        if step % 53 == 52 {
            indexed.rebuild_index(&mut e);
        }
        if step % 20 == 19 {
            let fp = |m: &InverseModel| {
                let mut keys: Vec<(u64, Vec<(u32, u32)>)> = m
                    .entries()
                    .iter()
                    .map(|en| {
                        (
                            e.sat_count(&en.pred) as u64,
                            pat.entries(en.vector)
                                .into_iter()
                                .map(|(d, a)| (d.0, a.0))
                                .collect(),
                        )
                    })
                    .collect();
                keys.sort();
                keys
            };
            assert_eq!(fp(&indexed), fp(&linear), "models diverged at step {step}");
            indexed.check_invariants(&mut e).unwrap();
            linear.check_invariants(&mut e).unwrap();
        }
    }
    assert!(indexed.has_index(), "indexed model lost its index");
    assert!(indexed.index_stats().pruned > 0, "index never pruned");
    assert!(!linear.has_index(), "linear model must never build an index");
}

/// A random predicate that is not prefix shaped: ranges, their unions and
/// complements, and single low bits (wide at every level of the index).
fn random_pred(rng: &mut StdRng, e: &mut PredEngine, bits: u32) -> Pred {
    let span = 1u64 << bits;
    let range = |rng: &mut StdRng, e: &mut PredEngine| {
        let lo = rng.gen_range(0..span);
        let len = 1u64 << rng.gen_range(0..bits);
        e.range(0, bits, lo, (lo + rng.gen_range(0..len)).min(span - 1))
    };
    match rng.gen_range(0u32..5) {
        0 => range(rng, e),
        1 => {
            let (a, b) = (range(rng, e), range(rng, e));
            e.or(&a, &b)
        }
        2 => {
            let a = range(rng, e);
            e.not(&a)
        }
        3 => e.var(rng.gen_range(0..bits)),
        _ => {
            let len = rng.gen_range(1..=bits);
            let value = (rng.gen_range(0..span) >> (bits - len)) << (bits - len);
            e.prefix(0, bits, value, len)
        }
    }
}

#[test]
fn index_candidates_are_a_superset_of_intersecting_classes() {
    // 16 header bits: two full six-level groups and a four-level tail.
    const BITS: u32 = 16;
    let mut e = PredEngine::new(BITS);
    let mut pat = PatStore::new();
    let mut m = InverseModel::new(e.true_pred());
    let mut rng = StdRng::seed_from_u64(0x5EED_1DE4);

    let check = |m: &mut InverseModel, e: &mut PredEngine, rng: &mut StdRng, step: usize| {
        m.check_invariants(e).unwrap();
        for q in 0..24 {
            let p = random_pred(rng, e, BITS);
            let want: Vec<usize> = (0..m.len())
                .filter(|&i| !e.and(&m.entries()[i].pred, &p).is_false())
                .collect();
            let got = m.index_candidates(e, &p).expect("index enabled");
            assert!(got.windows(2).all(|w| w[0] < w[1]), "candidates sorted and distinct");
            assert!(got.iter().all(|&i| i < m.len()), "candidates are live classes");
            let missing: Vec<&usize> = want.iter().filter(|i| !got.contains(i)).collect();
            assert!(missing.is_empty(), "step {step} query {q}: classes {missing:?} not offered");
        }
    };

    let mut max_classes = 0;
    for step in 0..600usize {
        // Mostly long prefixes (many small classes: the tree splits three
        // levels deep), some short ones and some arbitrary predicates
        // (wide classes, whole-class moves, merges back into one vector).
        let pred = match rng.gen_range(0u32..10) {
            0 => random_pred(&mut rng, &mut e, BITS),
            1 => {
                let len = rng.gen_range(1u32..=6);
                let value = (rng.gen_range(0u64..1 << BITS) >> (BITS - len)) << (BITS - len);
                e.prefix(0, BITS, value, len)
            }
            _ => {
                let len = rng.gen_range(10u32..=BITS);
                let value = (rng.gen_range(0u64..1 << BITS) >> (BITS - len)) << (BITS - len);
                e.prefix(0, BITS, value, len)
            }
        };
        // A falling action range empties devices again late in the run, so
        // classes die and merge as well as split.
        let top = if step < 400 { 40 } else { 2 };
        let writes = (0..rng.gen_range(1usize..3))
            .map(|_| (DeviceId(rng.gen_range(0u32..3)), ActionId(rng.gen_range(0u32..top))))
            .collect();
        m.apply_overwrite(&mut e, &mut pat, &Overwrite { pred, writes });
        max_classes = max_classes.max(m.len());
        if step % 41 == 40 {
            e.collect();
        }
        if step % 97 == 96 {
            m.rebuild_index(&mut e);
        }
        if step % 15 == 14 {
            check(&mut m, &mut e, &mut rng, step);
        }
    }
    assert!(max_classes > 100, "workload too small to split the index: {max_classes}");
    assert!(m.len() < max_classes / 2, "workload never shrank the model: {}", m.len());
    let ix = m.index_stats();
    assert!(ix.rebuilds > 1, "slack never forced a rebuild");
    assert!(ix.pruned > 4 * ix.probed, "index offered {} of {}", ix.probed, ix.probed + ix.pruned);
    assert!(ix.and_misses * 2 < ix.probed, "{} of {} candidates missed", ix.and_misses, ix.probed);
}
