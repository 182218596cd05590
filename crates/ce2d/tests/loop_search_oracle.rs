//! The grouped, dense-row loop search against an independent oracle.
//!
//! `LoopVerifier` groups the equivalence classes by their actions at the
//! synchronized devices, reads each group's actions from a dense row and
//! searches each group once. The oracle below shares none of that: it
//! walks every class on its own, reads every action with one
//! `PatStore::get`, and takes a found loop's class predicate as the union
//! of all classes that agree with the looping class at every synchronized
//! device. Random models are fed to both one batch of reporting devices
//! at a time, so the synchronized set is partial for most calls and full
//! for the last ones; after every call the verdicts — cycle and predicate
//! included — must be identical.

use flash_bdd::{Pred, PredEngine};
use flash_ce2d::{LoopVerdict, LoopVerifier};
use flash_imt::{InverseModel, ModelManager, ModelManagerConfig, PatId, PatStore};
use flash_netmodel::{
    ActionId, ActionTable, DeviceId, HeaderLayout, Match, Rule, RuleUpdate, Topology,
};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

const WHITE: u8 = 0;
const GREY: u8 = 1;
const BLACK: u8 = 2;

/// Per-class recursive three-colour search over `PatStore::get`.
struct Oracle {
    topo: Arc<Topology>,
    actions: Arc<ActionTable>,
    sync: Vec<bool>,
    reported: HashSet<Vec<DeviceId>>,
}

impl Oracle {
    fn on_model_update(
        &mut self,
        engine: &mut PredEngine,
        pat: &PatStore,
        model: &InverseModel,
        newly_synced: &[DeviceId],
    ) -> LoopVerdict {
        for &d in newly_synced {
            self.sync[d.index()] = true;
        }
        let starts: Vec<DeviceId> =
            newly_synced.iter().copied().filter(|&d| !self.topo.is_external(d)).collect();
        if !starts.is_empty() {
            for entry in model.entries() {
                let mut colour = vec![WHITE; self.sync.len()];
                let mut found = None;
                for &s in &starts {
                    if colour[s.index()] == WHITE {
                        found = self.dfs(pat, entry.vector, s, &mut colour, &mut Vec::new());
                        if found.is_some() {
                            break;
                        }
                    }
                }
                if let Some(cycle) = found {
                    let synced: Vec<DeviceId> = (0..self.sync.len() as u32)
                        .map(DeviceId)
                        .filter(|d| self.sync[d.index()])
                        .collect();
                    let agrees = |v: PatId| {
                        synced.iter().all(|&d| pat.get(v, d) == pat.get(entry.vector, d))
                    };
                    let same: Vec<&Pred> = model
                        .entries()
                        .iter()
                        .filter(|e| agrees(e.vector))
                        .map(|e| &e.pred)
                        .collect();
                    let ec_pred =
                        if same.len() == 1 { same[0].clone() } else { engine.or_many(same) };
                    return LoopVerdict::LoopFound { cycle, ec_pred };
                }
            }
        }
        let all_synced = self
            .topo
            .devices()
            .all(|d| self.topo.is_external(d) || self.sync[d.index()]);
        if self.reported.is_empty() && all_synced {
            LoopVerdict::NoLoop
        } else {
            LoopVerdict::Unknown
        }
    }

    fn dfs(
        &mut self,
        pat: &PatStore,
        vector: PatId,
        u: DeviceId,
        colour: &mut [u8],
        stack: &mut Vec<DeviceId>,
    ) -> Option<Vec<DeviceId>> {
        colour[u.index()] = GREY;
        stack.push(u);
        let actions = self.actions.clone();
        for &v in actions.next_hops(pat.get(vector, u)) {
            if !self.sync[v.index()] || self.topo.is_external(v) {
                continue;
            }
            match colour[v.index()] {
                WHITE => {
                    if let Some(cycle) = self.dfs(pat, vector, v, colour, stack) {
                        return Some(cycle);
                    }
                }
                GREY => {
                    let pos = stack.iter().position(|&d| d == v).expect("grey is on the path");
                    let cycle = stack[pos..].to_vec();
                    let mut canon = cycle.clone();
                    canon.sort_unstable();
                    if self.reported.insert(canon) {
                        return Some(cycle);
                    }
                }
                _ => {}
            }
        }
        colour[u.index()] = BLACK;
        stack.pop();
        None
    }
}

/// Counts of what the random runs exercised.
#[derive(Default)]
struct Seen {
    loops: usize,
    partial_calls: usize,
    no_loop: usize,
}

fn run(seed: u64, seen: &mut Seen) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(4..10u32);
    let mut t = Topology::new();
    let internal: Vec<DeviceId> = (0..n).map(|i| t.add_device(format!("d{i}"))).collect();
    let out = t.add_external("out");
    let topo = Arc::new(t);

    // Forward to any device (external included), split over two, or drop;
    // in every other run only down the device order, so that the network
    // is loop free.
    let mut table = ActionTable::new();
    let mut pool: Vec<ActionId> = vec![flash_netmodel::ACTION_DROP];
    for &d in internal.iter().chain([&out]) {
        pool.push(table.fwd(d));
    }
    for _ in 0..4 {
        let a = internal[rng.gen_range(0..internal.len())];
        let b = internal[rng.gen_range(0..internal.len())];
        pool.push(table.ecmp(vec![a, b]));
    }
    let acyclic = seed.is_multiple_of(2);
    let options: Vec<Vec<ActionId>> = internal
        .iter()
        .map(|d| {
            let down = |a: &&ActionId| table.next_hops(**a).iter().all(|h| h > d || *h == out);
            pool.iter().filter(|a| !acyclic || down(a)).copied().collect()
        })
        .collect();
    let actions = Arc::new(table);

    let layout = HeaderLayout::new(&[("dst", 6)]);
    let prefixes: Vec<Match> = (0..6)
        .map(|_| {
            let len = rng.gen_range(1..=6u32);
            Match::dst_prefix(&layout, (rng.gen_range(0u64..64) >> (6 - len)) << (6 - len), len)
        })
        .collect();
    let fib = |rng: &mut StdRng, d: DeviceId| -> Vec<RuleUpdate> {
        let options = &options[d.index()];
        (0..rng.gen_range(1..5))
            .map(|_| {
                let m = prefixes[rng.gen_range(0..prefixes.len())];
                let a = options[rng.gen_range(0..options.len())];
                RuleUpdate::insert(Rule::new(m, rng.gen_range(0i64..4), a))
            })
            .collect()
    };

    let mut mgr = ModelManager::new(ModelManagerConfig::whole_space(layout.clone()));
    let mut verifier = LoopVerifier::new(topo.clone(), actions.clone());
    let mut oracle = Oracle {
        topo: topo.clone(),
        actions,
        sync: vec![false; topo.device_count()],
        reported: HashSet::new(),
    };

    // Some devices install rules before they report.
    let mut order: Vec<DeviceId> = internal.clone();
    order.shuffle(&mut rng);
    for &d in &order {
        if rng.gen_bool(0.4) {
            mgr.submit(d, fib(&mut rng, d));
        }
    }
    mgr.flush();

    // Report in batches; the external device sometimes reports too, and a
    // device may report again with its FIB unchanged.
    let mut synced: Vec<DeviceId> = Vec::new();
    let mut rest = order;
    while !rest.is_empty() {
        let k = rng.gen_range(1..=rest.len().min(3));
        let mut batch: Vec<DeviceId> = rest.drain(..k).collect();
        for &d in &batch {
            mgr.submit(d, fib(&mut rng, d));
        }
        mgr.flush();
        if rng.gen_bool(0.2) {
            batch.push(out);
        }
        if !synced.is_empty() && rng.gen_bool(0.2) {
            batch.push(synced[rng.gen_range(0..synced.len())]);
        }
        synced.extend(&batch);
        seen.partial_calls += usize::from(!rest.is_empty());
        let (engine, pat, model) = mgr.parts_mut();
        loop {
            let got = verifier.on_model_update(engine, pat, model, &batch);
            let want = oracle.on_model_update(engine, pat, model, &batch);
            assert_eq!(got, want, "seed {seed}: batch {batch:?}");
            match got {
                LoopVerdict::LoopFound { .. } => seen.loops += 1,
                LoopVerdict::NoLoop => {
                    seen.no_loop += 1;
                    break;
                }
                LoopVerdict::Unknown => break,
            }
        }
    }
}

#[test]
fn grouped_dense_row_search_matches_per_class_oracle() {
    let mut seen = Seen::default();
    for seed in 0..300 {
        run(seed, &mut seen);
    }
    assert!(seen.loops > 50, "only {} loops found", seen.loops);
    assert!(seen.partial_calls > 300, "only {} partial calls", seen.partial_calls);
    assert!(seen.no_loop > 100, "only {} loop-free verdicts", seen.no_loop);
}
