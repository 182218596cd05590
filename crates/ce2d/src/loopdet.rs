//! Algorithm 3: fast consistent partial loop detection (§4.3, App. D.3).
//!
//! A loop among synchronized devices is *consistent*: it will exist in the
//! converged state no matter what the still-unsynchronized devices do,
//! because synchronized devices will not change their FIB within the
//! epoch. The verifier therefore reports a loop as soon as one closes
//! inside the synchronized subset.
//!
//! **Incremental detection** keeps this cheap: if the previous state had
//! no unreported loop, a new deterministic loop must pass through a newly
//! synchronized device, so the search starts only from those. Each search
//! is a three-colour depth-first search over the forwarding graph
//! restricted to synchronized internal devices, so one call costs
//! O(V + E) per group of equivalence classes rather than one walk per
//! simple path.
//!
//! The paper's hyper-node compression (Figure 5) collapses each connected
//! component of unsynchronized devices into one node. It is needed only
//! for an *early* `NoLoop`: proving a partial state loop free before every
//! device has reported. This verifier says `NoLoop` only once every
//! internal device is synchronized, when no unsynchronized component is
//! left to compress, and a deterministic loop contains no hyper node by
//! definition. Compression would decide none of its verdicts, so the
//! search never leaves the synchronized devices.

use flash_bdd::{Pred, PredEngine};
use flash_imt::{InverseModel, PatId, PatStore};
use flash_netmodel::{ActionId, ActionTable, DeviceId, Topology};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The outcome of a loop check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LoopVerdict {
    /// A loop through synchronized devices only — consistent: it is
    /// guaranteed in the converged state. Carries the device cycle and the
    /// predicate of the equivalence class exhibiting it.
    LoopFound {
        cycle: Vec<DeviceId>,
        ec_pred: Pred,
    },
    /// No loop can exist: all devices synchronized, none found.
    NoLoop,
    /// Loops through unsynchronized devices remain possible.
    Unknown,
}

/// Search colours: unvisited, on the DFS stack, finished.
const WHITE: u8 = 0;
const GREY: u8 = 1;
const BLACK: u8 = 2;

/// Consistent partial loop detector for one model.
pub struct LoopVerifier {
    topo: Arc<Topology>,
    actions: Arc<ActionTable>,
    /// Device-indexed: has the device completed its epoch FIB?
    sync: Vec<bool>,
    /// Internal devices not yet synchronized.
    unsynced_internal: usize,
    /// Deterministic loops already reported (avoid duplicates).
    reported: HashSet<Vec<DeviceId>>,
    pub stats: LoopVerifierStats,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct LoopVerifierStats {
    /// Depth-first searches run (one per uncoloured start per group).
    pub searches: u64,
    /// Devices coloured by those searches; each costs one PAT lookup.
    pub visited_nodes: u64,
}

impl LoopVerifier {
    pub fn new(topo: Arc<Topology>, actions: Arc<ActionTable>) -> Self {
        let unsynced_internal = topo.devices().filter(|&d| !topo.is_external(d)).count();
        LoopVerifier {
            sync: vec![false; topo.device_count()],
            unsynced_internal,
            topo,
            actions,
            reported: HashSet::new(),
            stats: LoopVerifierStats::default(),
        }
    }

    /// The synchronized devices, in id order.
    pub fn synchronized(&self) -> impl Iterator<Item = DeviceId> + '_ {
        (0..self.sync.len() as u32)
            .map(DeviceId)
            .filter(|d| self.sync[d.index()])
    }

    /// Processes a model update: `newly_synced` devices just completed
    /// their epoch FIBs. Returns the strongest consistent verdict; a call
    /// reports at most one new loop, so callers repeat it with the same
    /// `newly_synced` while it returns `LoopFound`.
    pub fn on_model_update(
        &mut self,
        engine: &mut PredEngine,
        pat: &PatStore,
        model: &InverseModel,
        newly_synced: &[DeviceId],
    ) -> LoopVerdict {
        for &d in newly_synced {
            if !self.sync[d.index()] && !self.topo.is_external(d) {
                self.unsynced_internal -= 1;
            }
            self.sync[d.index()] = true;
        }
        let starts: Vec<DeviceId> = newly_synced
            .iter()
            .copied()
            .filter(|&d| !self.topo.is_external(d))
            .collect();

        if !starts.is_empty() {
            // The search only reads an EC's action vector at synchronized
            // devices, so ECs whose vectors project identically onto the
            // synchronized set traverse the same graph. Group them and run
            // one search per group; a found loop's ec_pred is the batched
            // union of the whole group.
            let synced_devs: Vec<DeviceId> = self.synchronized().collect();
            let mut group_index: HashMap<Vec<ActionId>, usize> = HashMap::new();
            let mut groups: Vec<(PatId, Vec<&Pred>)> = Vec::new();
            for entry in model.entries() {
                let key: Vec<ActionId> =
                    synced_devs.iter().map(|&d| pat.get(entry.vector, d)).collect();
                match group_index.get(&key) {
                    Some(&i) => groups[i].1.push(&entry.pred),
                    None => {
                        group_index.insert(key, groups.len());
                        groups.push((entry.vector, vec![&entry.pred]));
                    }
                }
            }

            let mut colour = vec![WHITE; self.sync.len()];
            for (vector, preds) in groups {
                colour.fill(WHITE);
                if let Some(cycle) = self.search(pat, vector, &starts, &mut colour) {
                    let ec_pred = if preds.len() == 1 {
                        preds[0].clone()
                    } else {
                        engine.or_many(preds)
                    };
                    return LoopVerdict::LoopFound { cycle, ec_pred };
                }
            }
        }

        // `NoLoop` is only a consistent verdict when every device is
        // synchronized AND no loop was ever found (a previously reported
        // loop persists: synchronized FIBs do not change within the epoch).
        if self.reported.is_empty() && self.unsynced_internal == 0 {
            LoopVerdict::NoLoop
        } else {
            LoopVerdict::Unknown
        }
    }

    /// One iterative three-colour DFS over the synchronized devices under
    /// `vector`, seeded at every uncoloured start. A back edge to a grey
    /// device closes a cycle: the stack segment from that device. Returns
    /// the first such cycle not reported before.
    fn search(
        &mut self,
        pat: &PatStore,
        vector: PatId,
        starts: &[DeviceId],
        colour: &mut [u8],
    ) -> Option<Vec<DeviceId>> {
        // (device, its action under `vector`, next-hop cursor)
        let mut stack: Vec<(DeviceId, ActionId, usize)> = Vec::new();
        for &start in starts {
            if colour[start.index()] != WHITE {
                continue;
            }
            self.stats.searches += 1;
            self.stats.visited_nodes += 1;
            colour[start.index()] = GREY;
            stack.push((start, pat.get(vector, start), 0));
            while let Some(top) = stack.last_mut() {
                let (u, act, cursor) = *top;
                let Some(&v) = self.actions.next_hops(act).get(cursor) else {
                    colour[u.index()] = BLACK;
                    stack.pop();
                    continue;
                };
                top.2 += 1;
                if !self.sync[v.index()] || self.topo.is_external(v) {
                    continue; // leaves the synchronized subgraph
                }
                match colour[v.index()] {
                    WHITE => {
                        self.stats.visited_nodes += 1;
                        colour[v.index()] = GREY;
                        stack.push((v, pat.get(vector, v), 0));
                    }
                    GREY => {
                        let pos = stack
                            .iter()
                            .position(|f| f.0 == v)
                            .expect("a grey device is on the stack");
                        let cycle: Vec<DeviceId> = stack[pos..].iter().map(|f| f.0).collect();
                        let mut canon = cycle.clone();
                        canon.sort_unstable();
                        if self.reported.insert(canon) {
                            return Some(cycle);
                        }
                    }
                    _ => {} // finished: its paths back to the stack were followed
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_imt::{ModelManager, ModelManagerConfig};
    use flash_netmodel::{HeaderLayout, Match, Rule, RuleUpdate};

    /// Figure 5 topology: A, B, C, X fully meshed enough for the examples.
    fn fig5() -> (Arc<Topology>, HashMap<&'static str, DeviceId>) {
        let mut t = Topology::new();
        let mut m = HashMap::new();
        for n in ["A", "B", "C", "X", "OUT"] {
            m.insert(n, if n == "OUT" { t.add_external(n) } else { t.add_device(n) });
        }
        for (a, b) in [("A", "B"), ("A", "C"), ("A", "X"), ("B", "X"), ("C", "X"), ("B", "C")] {
            let (x, y) = (m[a], m[b]);
            t.add_bilink(x, y);
        }
        t.add_link(m["C"], m["OUT"]);
        t.add_link(m["X"], m["OUT"]);
        (Arc::new(t), m)
    }

    struct Rig {
        verifier: LoopVerifier,
        mgr: ModelManager,
        actions: Arc<ActionTable>,
        layout: HeaderLayout,
    }

    fn rig(topo: &Arc<Topology>) -> Rig {
        let layout = HeaderLayout::new(&[("dst", 8)]);
        let mut actions = ActionTable::new();
        for d in topo.devices() {
            actions.fwd(d);
        }
        let actions = Arc::new(actions);
        Rig {
            verifier: LoopVerifier::new(topo.clone(), actions.clone()),
            mgr: ModelManager::new(ModelManagerConfig::whole_space(layout.clone())),
            actions,
            layout,
        }
    }

    fn sync(rig: &mut Rig, dev: DeviceId, next: DeviceId) -> LoopVerdict {
        let mut at = (*rig.actions).clone();
        let a = at.fwd(next);
        let r = Rule::new(Match::dst_prefix(&rig.layout, 0x10, 8), 1, a);
        rig.mgr.submit(dev, [RuleUpdate::insert(r)]);
        rig.mgr.flush();
        let (engine, pat, model) = rig.mgr.parts_mut();
        rig.verifier.on_model_update(engine, pat, model, &[dev])
    }

    #[test]
    fn figure5a_unknown_when_two_unsynchronized() {
        // sync = {A, B}: C and X are silent; a loop is possible
        // (B→A→X→B) but not determined.
        let (topo, m) = fig5();
        let mut r = rig(&topo);
        assert_eq!(sync(&mut r, m["B"], m["A"]), LoopVerdict::Unknown);
        let v = sync(&mut r, m["A"], m["X"]);
        assert_eq!(v, LoopVerdict::Unknown, "unsynchronized X keeps it undecided");
    }

    #[test]
    fn figure5b_loop_via_unsynchronized_is_unknown_then_confirmed() {
        // B→A, A→X with X unsynchronized stays Unknown; once X→B arrives
        // the synchronized cycle B→A→X→B is deterministic.
        let (topo, m) = fig5();
        let mut r = rig(&topo);
        sync(&mut r, m["B"], m["A"]);
        sync(&mut r, m["A"], m["X"]);
        // C synchronized (forwards out): still Unknown — X is free.
        let v = sync(&mut r, m["C"], m["OUT"]);
        assert_eq!(v, LoopVerdict::Unknown);
        // X closes the cycle.
        let v = sync(&mut r, m["X"], m["B"]);
        match v {
            LoopVerdict::LoopFound { cycle, .. } => {
                let names: HashSet<&str> =
                    cycle.iter().map(|d| topo.name(*d)).collect();
                assert_eq!(names, HashSet::from(["A", "B", "X"]));
            }
            other => panic!("expected LoopFound, got {other:?}"),
        }
    }

    #[test]
    fn no_loop_when_all_drain_out() {
        let (topo, m) = fig5();
        let mut r = rig(&topo);
        sync(&mut r, m["A"], m["C"]);
        sync(&mut r, m["B"], m["C"]);
        sync(&mut r, m["X"], m["OUT"]);
        let v = sync(&mut r, m["C"], m["OUT"]);
        assert_eq!(v, LoopVerdict::NoLoop);
    }

    #[test]
    fn two_node_loop_detected_early() {
        // A→B, B→A closes immediately even with C, X silent.
        let (topo, m) = fig5();
        let mut r = rig(&topo);
        assert_eq!(sync(&mut r, m["A"], m["B"]), LoopVerdict::Unknown);
        let v = sync(&mut r, m["B"], m["A"]);
        match v {
            LoopVerdict::LoopFound { cycle, .. } => assert_eq!(cycle.len(), 2),
            other => panic!("expected LoopFound, got {other:?}"),
        }
    }

    #[test]
    fn drop_breaks_the_loop() {
        // A→B, B drops: no deterministic loop; with C, X unsynchronized
        // the verdict stays Unknown (they could still loop).
        let (topo, m) = fig5();
        let mut r = rig(&topo);
        sync(&mut r, m["A"], m["B"]);
        let layout = r.layout.clone();
        let rr = Rule::new(
            Match::dst_prefix(&layout, 0x10, 8),
            1,
            flash_netmodel::ACTION_DROP,
        );
        r.mgr.submit(m["B"], [RuleUpdate::insert(rr)]);
        r.mgr.flush();
        let (engine, pat, model) = r.mgr.parts_mut();
        let v = r.verifier.on_model_update(engine, pat, model, &[m["B"]]);
        assert_eq!(v, LoopVerdict::Unknown);
    }

    #[test]
    fn duplicate_loops_not_rereported() {
        let (topo, m) = fig5();
        let mut r = rig(&topo);
        sync(&mut r, m["A"], m["B"]);
        let v1 = sync(&mut r, m["B"], m["A"]);
        assert!(matches!(v1, LoopVerdict::LoopFound { .. }));
        // Further syncs keep the network looping but must not re-report
        // the same cycle.
        let v2 = sync(&mut r, m["C"], m["OUT"]);
        assert!(!matches!(v2, LoopVerdict::LoopFound { .. }));
    }

    #[test]
    fn shared_colouring_visits_each_device_once_per_group() {
        // A ladder of ECMP diamonds: s → {a_i, b_i} → j_i → ... → sink has
        // 2^n simple paths but 3n + 1 devices; with a closed set one search
        // colours each device once.
        let n = 12;
        let mut t = Topology::new();
        let s = t.add_device("s");
        let sink = t.add_external("sink");
        let mut tiers = vec![s];
        let mut prev = s;
        for i in 0..n {
            let a = t.add_device(format!("a{i}"));
            let b = t.add_device(format!("b{i}"));
            let j = t.add_device(format!("j{i}"));
            for x in [a, b] {
                t.add_link(prev, x);
                t.add_link(x, j);
            }
            tiers.extend([a, b, j]);
            prev = j;
        }
        t.add_link(prev, sink);
        let topo = Arc::new(t);
        let layout = HeaderLayout::new(&[("dst", 8)]);
        let mut mgr = ModelManager::new(ModelManagerConfig::whole_space(layout.clone()));
        let mut at = ActionTable::new();
        let m = Match::dst_prefix(&layout, 0x10, 8);
        for &d in &tiers {
            let act = at.ecmp(topo.successors(d).to_vec());
            mgr.submit(d, [RuleUpdate::insert(Rule::new(m, 1, act))]);
        }
        mgr.flush();
        let mut verifier = LoopVerifier::new(topo.clone(), Arc::new(at));
        let (engine, pat, model) = mgr.parts_mut();
        let groups = model.len() as u64;
        let v = verifier.on_model_update(engine, pat, model, &tiers);
        assert_eq!(v, LoopVerdict::NoLoop);
        let visited = verifier.stats.visited_nodes;
        assert!(visited <= groups * tiers.len() as u64, "visited {visited} devices");
    }
}
