//! The bulk map's template reuse against the full pass it replaces.
//!
//! Each family below derives device tables from one shared template table
//! by dropping and adding rules, with per-device actions, the way routing
//! tables of one fabric differ. For every device, the table [`BulkMap`]
//! orders against its template must be the stable sort by `rule_cmp`, and
//! the effective predicates it returns — reused from the template where
//! the overlap law allows, recomputed elsewhere — must be exactly the
//! atomic overwrites a fresh `calculate_atomic_overwrites` pass computes
//! for that device alone. The netting of those tables through template
//! slots must build the compact overwrites, in order, that filing every
//! atomic overwrite builds. And a [`ModelManager`] that bulk-loads the
//! family must end with the class fingerprints of an incremental `flush`
//! replay.

use flash_bdd::{Pred, PredEngine};
use flash_imt::mr2::{atomic_overwrites, calculate_atomic_overwrites, BulkMap, Mapped};
use flash_imt::{
    InverseModel, MatchMemo, ModelManager, ModelManagerConfig, Netting, Overwrite, PatStore,
    SubspaceSpec,
};
use flash_netmodel::fib::rule_cmp;
use flash_netmodel::{
    ActionId, DeviceId, Fib, FieldId, HeaderLayout, Match, MatchKind, Rule, RuleUpdate,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A prefix of `len` bits over a `width`-bit field.
fn prefix(rng: &mut StdRng, width: u32, len: u32) -> MatchKind {
    let value = (rng.gen_range(0u64..1 << width) >> (width - len)) << (width - len);
    MatchKind::Prefix { value, len }
}

/// The device tables of one family, and the subspace their managers cover.
struct Family {
    layout: HeaderLayout,
    subspace: SubspaceSpec,
    tables: Vec<(DeviceId, Vec<Rule>)>,
}

/// `(match, priority)` pairs a family's tables are drawn from.
type Slots = Vec<(Match, i64)>;

/// Tables derived from `template`: near copies (a few slots dropped, a few
/// added from `pool`), a subset, a superset, one disjoint table, and one
/// with the template's exact slots. Every device draws its own actions, so
/// two rules sharing a slot may swap order between devices.
fn derive(rng: &mut StdRng, template: &Slots, pool: &Slots, devices: u32) -> Vec<Slots> {
    let outside: Slots = pool
        .iter()
        .filter(|s| !template.contains(s))
        .copied()
        .collect();
    let mut out = vec![template.clone()];
    for d in 1..devices {
        let mut t: Slots = match d % 5 {
            // Subset.
            1 => template
                .iter()
                .filter(|_| rng.gen_range(0u32..4) != 0)
                .copied()
                .collect(),
            // Superset.
            2 => template
                .iter()
                .chain(outside.iter().filter(|_| rng.gen_bool(0.3)))
                .copied()
                .collect(),
            // Disjoint (as far as the pool allows).
            3 if d == 3 => outside.clone(),
            // Near copy.
            _ => {
                let mut t: Slots = template
                    .iter()
                    .filter(|_| rng.gen_range(0u32..10) != 0)
                    .copied()
                    .collect();
                for _ in 0..rng.gen_range(0..4) {
                    if !outside.is_empty() {
                        t.push(outside[rng.gen_range(0..outside.len())]);
                    }
                }
                t
            }
        };
        if t.is_empty() {
            t.push(template[0]);
        }
        out.push(t);
    }
    out
}

fn with_actions(rng: &mut StdRng, slots: Vec<Slots>) -> Vec<(DeviceId, Vec<Rule>)> {
    slots
        .into_iter()
        .enumerate()
        .map(|(d, t)| {
            let rules = t
                .into_iter()
                .map(|(m, p)| Rule::new(m, p, ActionId(rng.gen_range(1u32..5))))
                .collect();
            (DeviceId(d as u32), rules)
        })
        .collect()
}

/// Random prefix slots over a one-field layout; `priority` picks each
/// slot's priority from its prefix length and the generator.
fn dst_slots(
    rng: &mut StdRng,
    layout: &HeaderLayout,
    n: usize,
    priority: impl Fn(&mut StdRng, u32) -> i64,
) -> Slots {
    let width = layout.field(FieldId(0)).width;
    (0..n)
        .map(|_| {
            let len = rng.gen_range(1..=width);
            let kind = prefix(rng, width, len);
            (
                Match::any(layout).with(FieldId(0), kind),
                priority(rng, len),
            )
        })
        .collect()
}

fn random_family(
    seed: u64,
    layout: HeaderLayout,
    subspace: SubspaceSpec,
    slots: impl Fn(&mut StdRng, &HeaderLayout, usize) -> Slots,
) -> Family {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = slots(&mut rng, &layout, 60);
    let template: Slots = pool[..36].to_vec();
    let tables = derive(&mut rng, &template, &pool, 12);
    let tables = with_actions(&mut rng, tables);
    Family {
        layout,
        subspace,
        tables,
    }
}

/// A fat tree in miniature: every switch holds the same equal-length
/// sub-prefixes of every ToR, and each ToR all of them but its own.
fn fat_tree_family() -> Family {
    let layout = HeaderLayout::new(&[("dst", 12)]);
    let (tors, per_tor, switches) = (8u64, 4u64, 6u32);
    let own = |t: u64| -> Vec<(Match, i64)> {
        (0..per_tor)
            .map(|s| (Match::dst_prefix(&layout, (t << 9) | (s << 7), 5), 5))
            .collect()
    };
    let mut tables = Vec::new();
    for d in 0..switches + tors as u32 {
        let rules = (0..tors)
            .filter(|&t| d < switches || t != (d - switches) as u64)
            .flat_map(own)
            .enumerate()
            .map(|(i, (m, p))| Rule::new(m, p, ActionId(1 + (d + i as u32) % 3)))
            .collect();
        tables.push((DeviceId(d), rules));
    }
    Family {
        layout,
        subspace: SubspaceSpec::whole(),
        tables,
    }
}

fn default_rule(layout: &HeaderLayout) -> Rule {
    Fib::new(layout).rules()[0]
}

/// `rules` in table order: the stable sort by [`rule_cmp`], default last.
fn sorted_fib(layout: &HeaderLayout, rules: &[Rule]) -> Fib {
    let mut rules = rules.to_vec();
    rules.sort_by(rule_cmp);
    rules.push(default_rule(layout));
    Fib::from_sorted(rules)
}

/// The effective predicates of a mapped table, template slots resolved.
fn resolve(effective: Vec<Mapped>, template: &[Pred]) -> Vec<Pred> {
    effective
        .into_iter()
        .map(|e| match e {
            Mapped::Slot(j) => template[j as usize].clone(),
            Mapped::Fresh(p) => p,
        })
        .collect()
}

/// Maps every table through one [`BulkMap`] and checks each device's
/// table order and atomic overwrites against the stable sort and a fresh
/// full pass. Returns the map's counters.
fn check_map(family: &Family) -> BulkMap {
    let layout = &family.layout;
    let mut engine = PredEngine::new(layout.total_bits());
    let clip: Pred = family.subspace.universe(layout, &mut engine);
    let mut memo = MatchMemo::new(1024);
    let mut map = BulkMap::default();
    for (dev, rules) in &family.tables {
        let mapped = map.map(&mut engine, layout, rules, default_rule(layout), &clip, &mut memo);
        let fib = mapped.fib;
        assert_eq!(
            fib.rules(),
            sorted_fib(layout, rules).rules(),
            "device {dev:?}: template order differs from the stable sort"
        );
        let table = &fib.rules()[..fib.len() - 1];
        let got = atomic_overwrites(*dev, table, resolve(mapped.effective, map.template()));
        let fresh = calculate_atomic_overwrites(
            &mut engine,
            layout,
            &fib,
            table,
            &clip,
            &mut MatchMemo::disabled(),
        );
        let want = atomic_overwrites(*dev, table, fresh);
        assert_eq!(
            got, want,
            "device {dev:?}: template map diverges from the full pass"
        );
    }
    map
}

fn manager(family: &Family) -> ModelManager {
    ModelManager::new(ModelManagerConfig {
        subspace: family.subspace,
        filter_updates: true,
        ..ModelManagerConfig::whole_space(family.layout.clone())
    })
}

/// Bulk-loads the family and replays it device by device through `flush`;
/// the class fingerprints and FIBs must agree. Returns the bulk manager's
/// reused-rule count.
fn check_manager(family: &Family) -> u64 {
    let inserts = |rules: &[Rule]| {
        rules
            .iter()
            .map(|r| RuleUpdate::insert(*r))
            .collect::<Vec<_>>()
    };
    let mut bulk = manager(family);
    for (dev, rules) in &family.tables {
        bulk.submit_bulk(*dev, inserts(rules));
    }
    bulk.bulk_load();
    let mut inc = manager(family);
    for (dev, rules) in &family.tables {
        inc.submit(*dev, inserts(rules));
        inc.flush();
    }
    let keys = |m: &ModelManager| {
        let mut k = m.class_keys();
        k.sort_unstable();
        k
    };
    assert_eq!(
        keys(&bulk),
        keys(&inc),
        "bulk and incremental classes differ"
    );
    assert_eq!(bulk.fib_snapshot(), inc.fib_snapshot());
    let (engine, _, model) = bulk.parts_mut();
    model.check_invariants(engine).unwrap();
    bulk.stats().map_reused_rules
}

fn check(family: Family) -> (BulkMap, u64) {
    (check_map(&family), check_manager(&family))
}

#[test]
fn fat_tree_family_reuses_nearly_every_predicate() {
    let family = fat_tree_family();
    let rules: usize = family.tables.iter().map(|(_, t)| t.len()).sum();
    let (map, reused) = check(family);
    assert_eq!(
        map.full_passes, 1,
        "every table is within reach of the first"
    );
    assert!(reused > 0, "the template reuse stopped firing");
    assert_eq!(map.reused_rules, reused);
    // Only the first table and the sub-prefixes some table lacks are
    // computed; everything else comes from the template.
    assert!(
        reused as usize * 10 > rules * 8,
        "reused {reused} of {rules}"
    );
}

#[test]
fn nested_prefixes_at_mixed_priorities() {
    for seed in 0..6 {
        let family = random_family(
            seed,
            HeaderLayout::new(&[("dst", 10)]),
            SubspaceSpec::whole(),
            |rng, l, n| dst_slots(rng, l, n, |rng, _| rng.gen_range(0i64..4)),
        );
        let (map, reused) = check(family);
        assert!(
            reused > 0 && map.full_passes >= 2,
            "seed {seed}: reuse and fallback both run"
        );
    }
}

#[test]
fn equal_priority_overlapping_matches() {
    for seed in 10..16 {
        let family = random_family(
            seed,
            HeaderLayout::new(&[("dst", 10)]),
            SubspaceSpec::whole(),
            |rng, l, n| dst_slots(rng, l, n, |_, _| 7),
        );
        let (_, reused) = check(family);
        assert!(reused > 0, "seed {seed}");
    }
}

#[test]
fn one_slot_held_twice_with_two_actions() {
    for seed in 20..26 {
        let mut family = random_family(
            seed,
            HeaderLayout::new(&[("dst", 10)]),
            SubspaceSpec::whole(),
            |rng, l, n| dst_slots(rng, l, n, |_, len| len as i64),
        );
        // A few slots are held twice, with two actions, wherever they
        // occur: the slot's rules sort by action, so they may swap order
        // between devices, and the second one is fully shadowed.
        let twins: Vec<(Match, i64)> = family.tables[0]
            .1
            .iter()
            .take(4)
            .map(|r| (r.mat, r.priority))
            .collect();
        for (_, rules) in &mut family.tables {
            let extra: Vec<Rule> = rules
                .iter()
                .filter(|r| twins.contains(&(r.mat, r.priority)))
                .map(|r| Rule::new(r.mat, r.priority, ActionId(r.action.0 % 4 + 1)))
                .collect();
            rules.extend(extra);
        }
        let (_, reused) = check(family);
        assert!(reused > 0, "seed {seed}");
    }
}

#[test]
fn two_field_dst_src_layout() {
    for seed in 30..36 {
        let family = random_family(
            seed,
            HeaderLayout::new(&[("dst", 6), ("src", 6)]),
            SubspaceSpec::whole(),
            |rng, l, n| {
                (0..n)
                    .map(|_| {
                        let (dl, sl) = (rng.gen_range(0..=6), rng.gen_range(0..=6));
                        let mut m = Match::any(l);
                        if dl > 0 {
                            m = m.with(FieldId(0), prefix(rng, 6, dl));
                        }
                        if sl > 0 {
                            m = m.with(FieldId(1), prefix(rng, 6, sl));
                        }
                        (m, rng.gen_range(0i64..3))
                    })
                    .collect()
            },
        );
        let (_, reused) = check(family);
        assert!(reused > 0, "seed {seed}");
    }
}

#[test]
fn non_true_subspace_clip() {
    for (seed, len) in [(40, 1), (41, 2), (42, 3), (43, 1)] {
        let family = random_family(
            seed,
            HeaderLayout::new(&[("dst", 10)]),
            SubspaceSpec {
                field: FieldId(0),
                value: 0b10 << 8,
                len,
            },
            |rng, l, n| dst_slots(rng, l, n, |rng, _| rng.gen_range(0i64..4)),
        );
        let (_, reused) = check(family);
        assert!(reused > 0, "seed {seed}");
    }
}

#[test]
fn a_change_above_a_wide_table_takes_the_full_pass() {
    // One catch-all rule on top of 300 prefixes: dropping it changes one
    // rule, but every rule below overlaps it, so reuse would recompute the
    // whole table with a scan each and the map falls back instead.
    let layout = HeaderLayout::new(&[("dst", 12)]);
    let mut rng = StdRng::seed_from_u64(50);
    let top = Rule::new(Match::any(&layout), 100, ActionId(1));
    let below: Vec<Rule> = dst_slots(&mut rng, &layout, 300, |rng, _| rng.gen_range(0i64..8))
        .into_iter()
        .map(|(m, p)| Rule::new(m, p, ActionId(2)))
        .collect();
    let with_top: Vec<Rule> = std::iter::once(top).chain(below.iter().copied()).collect();
    let family = Family {
        layout,
        subspace: SubspaceSpec::whole(),
        tables: vec![(DeviceId(0), with_top), (DeviceId(1), below)],
    };
    let (map, reused) = check(family);
    assert_eq!((map.full_passes, reused), (2, 0));
}

/// A family whose tables hold rules twice, a second action in some slots
/// and a shuffled input order, on top of `random_family`'s rules the
/// template lacks and its disjoint table (a new template mid-stream).
fn twisted_family(seed: u64) -> Family {
    use rand::seq::SliceRandom;
    let mut family = random_family(
        seed,
        HeaderLayout::new(&[("dst", 10)]),
        SubspaceSpec::whole(),
        |rng, l, n| {
            dst_slots(rng, l, n, |rng, len| {
                if rng.gen_bool(0.5) {
                    len as i64
                } else {
                    rng.gen_range(0i64..3)
                }
            })
        },
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7157_ED00);
    for (_, rules) in &mut family.tables {
        for _ in 0..rng.gen_range(0..5) {
            let r = rules[rng.gen_range(0..rules.len())];
            rules.push(match rng.gen_bool(0.5) {
                true => r,
                false => Rule::new(r.mat, r.priority, ActionId(r.action.0 % 4 + 1)),
            });
        }
        rules.shuffle(&mut rng);
    }
    family
}

#[test]
fn template_order_is_the_stable_sort() {
    let (mut reused, mut passes) = (0, 0);
    for seed in 100..160 {
        let family = twisted_family(seed);
        let map = check_map(&family);
        assert!(map.full_passes >= 2, "seed {seed}: no new template mid-stream");
        reused += map.reused_rules;
        passes += map.full_passes;
        check_manager(&family);
    }
    assert!(reused > passes * 10, "the template order stopped reusing slots");
}

/// Every table of `family` through one [`BulkMap`] and
/// [`Netting::add_mapped`], as `bulk_load` files them. Returns the compact
/// overwrites and the atomic overwrite count.
fn slot_netting(engine: &mut PredEngine, family: &Family, clip: &Pred) -> (Vec<Overwrite>, u64) {
    let layout = &family.layout;
    let (mut memo, mut map, mut net) = (MatchMemo::new(1024), BulkMap::default(), Netting::new());
    let mut atomics = 0;
    for (dev, rules) in &family.tables {
        let mapped = map.map(engine, layout, rules, default_rule(layout), clip, &mut memo);
        let table = &mapped.fib.rules()[..mapped.fib.len() - 1];
        let template = mapped.new_template.then(|| map.template());
        atomics += net.add_mapped(*dev, table, mapped.effective, template);
    }
    (net.finish(engine), atomics)
}

/// The reference: each device's atomic overwrites from a full pass over
/// its sorted table, filed one by one with [`Netting::add`].
fn atomic_netting(engine: &mut PredEngine, family: &Family, clip: &Pred) -> (Vec<Overwrite>, u64) {
    let layout = &family.layout;
    let mut net = Netting::new();
    let mut atomics = 0;
    for (dev, rules) in &family.tables {
        let fib = sorted_fib(layout, rules);
        let table = &fib.rules()[..fib.len() - 1];
        let effective =
            calculate_atomic_overwrites(engine, layout, &fib, table, clip, &mut MatchMemo::disabled());
        let device = atomic_overwrites(*dev, table, effective);
        atomics += device.len() as u64;
        net.add(device);
    }
    (net.finish(engine), atomics)
}

#[test]
fn slot_netting_builds_the_atomic_netting() {
    let families = (200..230)
        .map(twisted_family)
        .chain([fat_tree_family()])
        .chain((210..214).map(|seed| {
            random_family(
                seed,
                HeaderLayout::new(&[("dst", 6), ("src", 6)]),
                SubspaceSpec::whole(),
                |rng, l, n| dst_slots(rng, l, n, |rng, _| rng.gen_range(0i64..4)),
            )
        }));
    for family in families {
        let layout = &family.layout;
        let mut engine = PredEngine::new(layout.total_bits());
        let clip = engine.true_pred();
        let got = slot_netting(&mut engine, &family, &clip);
        let want = atomic_netting(&mut engine, &family, &clip);
        assert_eq!(got, want, "compact overwrites or atomic count differ");

        // `bulk_load` itself: its model is the one those overwrites build.
        let mut bulk = manager(&family);
        for (dev, rules) in &family.tables {
            bulk.submit_bulk(*dev, rules.iter().map(|r| RuleUpdate::insert(*r)));
        }
        bulk.bulk_load();
        assert_eq!(bulk.stats().atomic_overwrites, want.1);
        assert_eq!(bulk.stats().compact_overwrites, want.0.len() as u64);
        let universe = bulk.model().universe().clone();
        let (compact, _) = atomic_netting(bulk.engine_mut(), &family, &universe);
        let mut model = InverseModel::new(universe);
        let mut pat = PatStore::new();
        model.apply_overwrites(bulk.engine_mut(), &mut pat, &compact);
        let entries = |m: &InverseModel, p: &PatStore| -> Vec<(Pred, Vec<(DeviceId, ActionId)>)> {
            m.entries().iter().map(|e| (e.pred.clone(), p.entries(e.vector))).collect()
        };
        assert_eq!(entries(bulk.model(), bulk.pat()), entries(&model, &pat));
    }
}
