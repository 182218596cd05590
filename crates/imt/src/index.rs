//! The class index of the inverse model: a radix tree over the diagram's
//! decision levels that answers "which classes can this predicate
//! intersect?" in time proportional to the answer.
//!
//! Every node stands for the header region that fixes the first
//! `6 · depth` levels to the node's path, and splits it into the 64 cells
//! of the next six levels. A node lists classes as `(id, mask)` pairs,
//! `mask` being the cells of *this* node the class may occupy (one
//! [`PredEngine::level_mask`] probe). An unsplit node lists every class
//! that reaches its region; once it holds more than [`LEAF_CAP`] of them it
//! splits, handing each class that occupies at most [`SPREAD_CAP`] cells
//! down to the children of those cells and keeping the wider ones, so a
//! class is copied at most `SPREAD_CAP` times per level.
//!
//! **Superset law.** For every header `h` of a live class `C`, some node on
//! `h`'s root-to-leaf path lists `C` with the bit of `h`'s cell set. A
//! query walks exactly the nodes its own probe masks lead to and keeps the
//! listings whose mask meets them, so by `level_mask(a ∧ b) ⊆
//! level_mask(a) & level_mask(b)` it returns a superset of the classes it
//! intersects. Growing a class adds listings for the new part; shrinking
//! one leaves its listings in place (a superset of a superset) and is
//! counted as slack, as is a removed class, whose listings are dropped the
//! next time a query walks past them. The owner rebuilds the index once
//! slack outweighs the class count.
//!
//! **Cost model.** A query costs one probe per node visited — at most one
//! per six header bits for a prefix — plus the listings it scans there.
//! Listings filtered by mask cost a bit test; the rest are candidates.
//! A candidate that misses is a class that shares the query's cell at the
//! depth it is listed but parts from it lower down: at most `LEAF_CAP`
//! per unsplit node, and the wide classes kept at split nodes, whose
//! masks resolve no finer than their node's level. Classes told apart
//! only by header bits below a long shared wildcard (ports under `dst =
//! *`) are all wide, and the index degrades to one mask test per class
//! for them.
//!
//! Classes are named by **stable ids** here, so removing one is a table
//! write, not a scan of every list it appears in.

use crate::model::ModelEntry;
use flash_bdd::{Pred, PredEngine};

const NIL: u32 = u32::MAX;
/// `slot_of` value of a removed class.
const DEAD: u32 = u32::MAX;
/// An unsplit node splits once it lists more classes than this.
const LEAF_CAP: usize = 8;
/// At a split node, a class occupying more cells than this stays listed
/// there instead of being copied into every one of those children.
const SPREAD_CAP: u32 = 4;

#[derive(Clone, Debug)]
struct Node {
    /// `(stable class id, cells of this node the class may occupy)`.
    entries: Vec<(u32, u64)>,
    /// Child node per cell (`NIL` where no class was handed down); `None`
    /// until the node splits.
    kids: Option<Box<[u32; 64]>>,
}

#[derive(Clone, Debug)]
pub(crate) struct ClassIndex {
    /// Number of six-level groups covering the header.
    levels: usize,
    /// Width in levels of the last group (1..=6).
    last_k: u32,
    /// `nodes[0]` is the root.
    nodes: Vec<Node>,
    /// Stable id → current slot in the model's entry vector, or `DEAD`.
    /// Ids are never reused between rebuilds.
    slot_of: Vec<u32>,
    /// Slot → stable id, parallel to the model's entry vector.
    id_of: Vec<u32>,
    /// Shrinks and removals absorbed since the build (staleness pressure).
    slack: usize,
}

fn cells(mut mask: u64) -> impl Iterator<Item = u8> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let c = mask.trailing_zeros() as u8;
            mask &= mask - 1;
            c
        })
    })
}

impl ClassIndex {
    /// Indexes `classes` from fresh probes. `None` when the header has no
    /// bits to index on.
    pub(crate) fn build(engine: &mut PredEngine, classes: &[ModelEntry]) -> Option<ClassIndex> {
        let vars = engine.num_vars() as usize;
        if vars == 0 {
            return None;
        }
        let levels = vars.div_ceil(6);
        let mut ix = ClassIndex {
            levels,
            last_k: (vars - 6 * (levels - 1)) as u32,
            nodes: vec![Node {
                entries: Vec::new(),
                kids: None,
            }],
            slot_of: (0..classes.len() as u32).collect(),
            id_of: (0..classes.len() as u32).collect(),
            slack: 0,
        };
        for (slot, class) in classes.iter().enumerate() {
            ix.insert(engine, classes, slot, &class.pred);
        }
        Some(ix)
    }

    fn width(&self, depth: usize) -> u32 {
        if depth + 1 == self.levels {
            self.last_k
        } else {
            6
        }
    }

    /// Registers the class the model just pushed as its last entry.
    pub(crate) fn push_class(&mut self, engine: &mut PredEngine, classes: &[ModelEntry]) {
        let slot = classes.len() - 1;
        debug_assert_eq!(slot, self.id_of.len());
        self.id_of.push(self.slot_of.len() as u32);
        self.slot_of.push(slot as u32);
        self.insert(engine, classes, slot, &classes[slot].pred);
    }

    /// Lists the class in `slot` wherever `part` — its whole predicate or
    /// the piece it just grew by — reaches.
    pub(crate) fn insert(
        &mut self,
        engine: &mut PredEngine,
        classes: &[ModelEntry],
        slot: usize,
        part: &Pred,
    ) {
        let id = self.id_of[slot];
        self.insert_at(engine, classes, 0, &mut Vec::new(), id, part);
    }

    fn insert_at(
        &mut self,
        engine: &mut PredEngine,
        classes: &[ModelEntry],
        node: usize,
        path: &mut Vec<u8>,
        id: u32,
        part: &Pred,
    ) {
        let mask = engine.level_mask(part, path, self.width(path.len()));
        if mask == 0 {
            return;
        }
        let n = &mut self.nodes[node];
        if let Some(listed) = n.entries.iter().position(|(i, _)| *i == id) {
            n.entries[listed].1 |= mask;
            return;
        }
        if n.kids.is_some() && mask.count_ones() <= SPREAD_CAP {
            self.hand_down(engine, classes, node, path, id, part, mask);
            return;
        }
        n.entries.push((id, mask));
        if n.kids.is_none() && n.entries.len() > LEAF_CAP && path.len() + 1 < self.levels {
            self.split(engine, classes, node, path);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn hand_down(
        &mut self,
        engine: &mut PredEngine,
        classes: &[ModelEntry],
        node: usize,
        path: &mut Vec<u8>,
        id: u32,
        part: &Pred,
        mask: u64,
    ) {
        for c in cells(mask) {
            let fresh = self.nodes.len() as u32;
            let kids = self.nodes[node]
                .kids
                .as_mut()
                .expect("hand_down below a split node");
            let mut child = kids[c as usize];
            if child == NIL {
                child = fresh;
                kids[c as usize] = child;
                self.nodes.push(Node {
                    entries: Vec::new(),
                    kids: None,
                });
            }
            path.push(c);
            self.insert_at(engine, classes, child as usize, path, id, part);
            path.pop();
        }
    }

    /// Turns an overfull unsplit node into an inner one: live listings are
    /// re-probed from their class's current predicate (which sheds their
    /// staleness), narrow ones move to the children, wide ones stay.
    fn split(
        &mut self,
        engine: &mut PredEngine,
        classes: &[ModelEntry],
        node: usize,
        path: &mut Vec<u8>,
    ) {
        let k = self.width(path.len());
        let listed = std::mem::take(&mut self.nodes[node].entries);
        self.nodes[node].kids = Some(Box::new([NIL; 64]));
        for (id, _) in listed {
            let slot = self.slot_of[id as usize];
            if slot == DEAD {
                continue;
            }
            let pred = &classes[slot as usize].pred;
            let mask = engine.level_mask(pred, path, k);
            if mask.count_ones() > SPREAD_CAP {
                self.nodes[node].entries.push((id, mask));
            } else {
                self.hand_down(engine, classes, node, path, id, pred, mask);
            }
        }
    }

    /// The class in `slot` lost part of its predicate; its listings stay.
    pub(crate) fn note_shrink(&mut self) {
        self.slack += 1;
    }

    /// Mirrors the model's `swap_remove(slot)`.
    pub(crate) fn swap_remove(&mut self, slot: usize) {
        let id = self.id_of.swap_remove(slot);
        self.slot_of[id as usize] = DEAD;
        if let Some(&moved) = self.id_of.get(slot) {
            self.slot_of[moved as usize] = slot as u32;
        }
        self.slack += 1;
    }

    /// True once stale listings outweigh the classes they serve.
    pub(crate) fn is_stale(&self) -> bool {
        self.slack > self.id_of.len().max(64)
    }

    /// The current slot of a candidate id, `None` if the class is gone.
    pub(crate) fn slot(&self, id: u32) -> Option<usize> {
        let slot = self.slot_of[id as usize];
        (slot != DEAD).then_some(slot as usize)
    }

    /// The ids (sorted, distinct) of a superset of the live classes `pred`
    /// intersects. Listings of dead classes met on the way are dropped.
    pub(crate) fn candidates(&mut self, engine: &mut PredEngine, pred: &Pred) -> Vec<u32> {
        let mut out = Vec::new();
        self.collect(engine, 0, &mut Vec::new(), pred, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect(
        &mut self,
        engine: &mut PredEngine,
        node: usize,
        path: &mut Vec<u8>,
        pred: &Pred,
        out: &mut Vec<u32>,
    ) {
        let mask = engine.level_mask(pred, path, self.width(path.len()));
        if mask == 0 {
            return;
        }
        let slot_of = &self.slot_of;
        let n = &mut self.nodes[node];
        n.entries.retain(|&(id, _)| slot_of[id as usize] != DEAD);
        out.extend(
            n.entries
                .iter()
                .filter(|(_, m)| m & mask != 0)
                .map(|&(id, _)| id),
        );
        if n.kids.is_none() {
            return;
        }
        for c in cells(mask) {
            let child = self.nodes[node].kids.as_ref().expect("checked above")[c as usize];
            if child != NIL {
                path.push(c);
                self.collect(engine, child as usize, path, pred, out);
                path.pop();
            }
        }
    }

    /// The slot of the class containing the concrete header `bits`,
    /// scanning only the listings on its path.
    pub(crate) fn classify(
        &self,
        engine: &PredEngine,
        classes: &[ModelEntry],
        bits: &[bool],
    ) -> Option<usize> {
        let mut node = 0usize;
        for depth in 0..self.levels {
            let mut cell = 0usize;
            for j in 0..self.width(depth) {
                let b = *bits.get(6 * depth + j as usize)?;
                cell = (cell << 1) | b as usize;
            }
            let n = &self.nodes[node];
            let hit = n
                .entries
                .iter()
                .filter(|(_, m)| (m >> cell) & 1 == 1)
                .filter_map(|&(id, _)| self.slot(id))
                .find(|&slot| engine.eval(&classes[slot].pred, bits));
            if hit.is_some() {
                return hit;
            }
            match n.kids.as_ref().map(|k| k[cell]) {
                Some(child) if child != NIL => node = child as usize,
                _ => return None,
            }
        }
        None
    }

    /// Checks the id tables against `classes` and the superset law for
    /// every class from fresh probes. Test/debug use only.
    pub(crate) fn check(
        &self,
        engine: &mut PredEngine,
        classes: &[ModelEntry],
    ) -> Result<(), String> {
        if self.id_of.len() != classes.len() {
            return Err("index slot table diverges from class count".into());
        }
        for (slot, &id) in self.id_of.iter().enumerate() {
            if self.slot_of.get(id as usize) != Some(&(slot as u32)) {
                return Err(format!(
                    "class {slot}: id {id} does not map back to its slot"
                ));
            }
        }
        let live = self.slot_of.iter().filter(|&&s| s != DEAD).count();
        if live != classes.len() {
            return Err(format!("{live} live ids for {} classes", classes.len()));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            let mut ids: Vec<u32> = n.entries.iter().map(|&(id, _)| id).collect();
            ids.sort_unstable();
            if ids.windows(2).any(|w| w[0] == w[1]) {
                return Err(format!("index node {i} lists a class twice"));
            }
            if ids
                .last()
                .is_some_and(|&id| id as usize >= self.slot_of.len())
            {
                return Err(format!("index node {i} lists an unknown id"));
            }
        }
        for (slot, class) in classes.iter().enumerate() {
            self.covered(engine, 0, &mut Vec::new(), self.id_of[slot], &class.pred)
                .map_err(|at| format!("class {slot} is not listed for its headers under {at}"))?;
        }
        Ok(())
    }

    /// The superset law for one class below one node: every cell the class
    /// truly occupies is listed here or covered by that cell's child.
    fn covered(
        &self,
        engine: &mut PredEngine,
        node: usize,
        path: &mut Vec<u8>,
        id: u32,
        pred: &Pred,
    ) -> Result<(), String> {
        let n = &self.nodes[node];
        let truth = engine.level_mask(pred, path, self.width(path.len()));
        let listed = n
            .entries
            .iter()
            .find(|(i, _)| *i == id)
            .map_or(0, |&(_, m)| m);
        for c in cells(truth & !listed) {
            let child = n.kids.as_ref().map_or(NIL, |k| k[c as usize]);
            path.push(c);
            if child == NIL {
                return Err(format!("path {path:?}"));
            }
            self.covered(engine, child as usize, path, id, pred)?;
            path.pop();
        }
        Ok(())
    }
}
