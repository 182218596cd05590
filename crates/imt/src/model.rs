//! The inverse model — equivalence-class representation of a data plane
//! (§3.1 and Definition 6 of Appendix C).
//!
//! An [`InverseModel`] is a set of `(predicate, action-vector)` pairs that
//! is (1) unique in vectors, (2) mutually exclusive in predicates and
//! (3) complementary (the predicates union to the subspace universe). The
//! model-overwrite operator `⊗` (Definition 9) is implemented as the
//! paper's "cross product".
//!
//! Predicates are rooted [`Pred`] handles: the model never has to collect
//! roots or remap ids — the engine's automatic mark-sweep GC keeps every
//! entry alive for exactly as long as the model holds it.

use crate::index::ClassIndex;
use crate::mr2::Overwrite;
use crate::pat::{PatId, PatRemap, PatStore, PAT_NIL};
use flash_bdd::{Pred, PredEngine};
use std::collections::HashMap;

/// One equivalence class: the headers in `pred` experience exactly the
/// network-wide forwarding behaviour `vector`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelEntry {
    pub pred: Pred,
    pub vector: PatId,
}

/// Counters describing how much scanning the class index avoided.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Candidate classes `and`-tested by indexed overwrite application.
    pub probed: u64,
    /// Classes the index kept out of the candidate set.
    pub pruned: u64,
    /// Candidates whose `and` came back empty: the index's wasted work.
    pub and_misses: u64,
    /// Full index rebuilds (including the initial lazy build).
    pub rebuilds: u64,
}

/// The equivalence-class representation `M = {(p_j, y_j)}`.
#[derive(Clone, Debug)]
pub struct InverseModel {
    /// The universe predicate of this model's subspace (TRUE for a
    /// whole-network model).
    universe: Pred,
    entries: Vec<ModelEntry>,
    /// vector → index into `entries`, maintaining the uniqueness invariant.
    by_vector: HashMap<PatId, usize>,
    /// The class index (see [`crate::index`]); `None` until the first
    /// indexed overwrite builds it (or always when disabled).
    index: Option<ClassIndex>,
    index_enabled: bool,
    index_stats: IndexStats,
    /// Bumped whenever the **class composition** changes (an entry added
    /// or removed). Predicate-only mutations (splits/merges that keep the
    /// vector set) do not bump it: consumers key caches of
    /// per-class-vector data (e.g. fingerprints) off this counter.
    version: u64,
}

impl InverseModel {
    /// The initial model: the whole `universe` maps to the all-default
    /// action vector (every FIB is just its default rule).
    pub fn new(universe: Pred) -> Self {
        let mut by_vector = HashMap::new();
        by_vector.insert(PAT_NIL, 0);
        InverseModel {
            entries: vec![ModelEntry { pred: universe.clone(), vector: PAT_NIL }],
            universe,
            by_vector,
            index: None,
            index_enabled: true,
            index_stats: IndexStats::default(),
            version: 0,
        }
    }

    /// Monotonic class-composition version: changes exactly when an entry
    /// is added or removed (not on predicate-only splits/merges).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Enables or disables the class index. Disabling drops the
    /// index and makes every overwrite a full linear scan (the reference
    /// behaviour); re-enabling pays one lazy rebuild on the next
    /// overwrite.
    pub fn set_index_enabled(&mut self, enabled: bool) {
        self.index_enabled = enabled;
        if !enabled {
            self.index = None;
        }
    }

    /// Index pruning/probing counters.
    pub fn index_stats(&self) -> IndexStats {
        self.index_stats
    }

    /// Whether the class index is currently materialized.
    pub fn has_index(&self) -> bool {
        self.index.is_some()
    }

    pub fn universe(&self) -> &Pred {
        &self.universe
    }

    /// Number of equivalence classes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn entries(&self) -> &[ModelEntry] {
        &self.entries
    }

    /// The entry whose predicate contains the concrete header `bits`.
    ///
    /// With a materialized class index only the classes listed on the
    /// header's path are `eval`-scanned (the index's superset law puts the
    /// owning class among them); otherwise this is a full linear scan.
    pub fn classify(&self, engine: &PredEngine, bits: &[bool]) -> Option<ModelEntry> {
        match &self.index {
            Some(ix) => ix.classify(engine, &self.entries, bits).map(|i| self.entries[i].clone()),
            None => self.classify_linear(engine, bits),
        }
    }

    /// The index-free reference scan behind [`InverseModel::classify`].
    pub fn classify_linear(&self, engine: &PredEngine, bits: &[bool]) -> Option<ModelEntry> {
        self.entries.iter().find(|e| engine.eval(&e.pred, bits)).cloned()
    }

    /// Applies one conflict-free overwrite via the cross product
    /// (Definition 9): every class intersecting `ow.pred` is split; the
    /// intersected part moves to the class with `ow.writes` applied.
    ///
    /// Returns the number of classes whose predicate intersected the
    /// overwrite.
    pub fn apply_overwrite(
        &mut self,
        engine: &mut PredEngine,
        pat: &mut PatStore,
        ow: &Overwrite,
    ) -> usize {
        if ow.pred.is_false() || ow.writes.is_empty() {
            return 0;
        }
        if !self.index_enabled {
            return self.apply_overwrite_scan(engine, pat, ow);
        }
        if self.index.is_none() {
            self.rebuild_index(engine);
        }
        if self.index.is_none() {
            // Degenerate space (no header bits to index on).
            return self.apply_overwrite_scan(engine, pat, ow);
        }
        self.apply_overwrite_indexed(engine, pat, ow)
    }

    /// The pre-index reference implementation: a full linear scan over
    /// every class. Retained verbatim for the indexed-vs-linear
    /// equivalence suite. Drops the index (it would go stale); callers
    /// wanting the fast path again pay one lazy rebuild.
    pub fn apply_overwrite_linear(
        &mut self,
        engine: &mut PredEngine,
        pat: &mut PatStore,
        ow: &Overwrite,
    ) -> usize {
        if ow.pred.is_false() || ow.writes.is_empty() {
            return 0;
        }
        self.index = None;
        self.apply_overwrite_scan(engine, pat, ow)
    }

    fn apply_overwrite_scan(
        &mut self,
        engine: &mut PredEngine,
        pat: &mut PatStore,
        ow: &Overwrite,
    ) -> usize {
        debug_assert!(self.index.is_none(), "scan path would desync the index");
        let mut touched = 0usize;
        // (new_vector, predicate-to-add) accumulated across splits.
        let mut moved: Vec<(PatId, Pred)> = Vec::new();
        // Class predicates are pairwise disjoint, so the still-unmatched
        // part of the overwrite shrinks as classes consume it; once it is
        // empty no later class can intersect and the scan stops early.
        let mut remaining = ow.pred.clone();
        let mut i = 0;
        while i < self.entries.len() {
            if remaining.is_false() {
                break;
            }
            let (e_pred, e_vector) = {
                let e = &self.entries[i];
                (e.pred.clone(), e.vector)
            };
            let inter = engine.and(&e_pred, &remaining);
            if inter.is_false() {
                i += 1;
                continue;
            }
            touched += 1;
            remaining = engine.diff(&remaining, &inter);
            let new_vec = pat.overwrite(e_vector, &ow.writes);
            if new_vec == e_vector {
                // Overwrite is a no-op for this class (writes repeat the
                // existing actions); nothing moves.
                i += 1;
                continue;
            }
            let rest = engine.diff(&e_pred, &inter);
            moved.push((new_vec, inter));
            if rest.is_false() {
                // Whole class moves: remove it.
                self.remove_at(i);
                // Do not advance i: a new entry occupies this slot.
            } else {
                self.entries[i].pred = rest;
                i += 1;
            }
        }
        for (vec, pred) in moved {
            self.add_pred(engine, vec, pred);
        }
        touched
    }

    /// Index-assisted overwrite application: the index names the classes
    /// the overwrite can intersect (by stable id, so removals during the
    /// loop disturb nothing) and only those are `and`-tested. Classes are
    /// pairwise disjoint, so each is tested against the whole overwrite.
    fn apply_overwrite_indexed(
        &mut self,
        engine: &mut PredEngine,
        pat: &mut PatStore,
        ow: &Overwrite,
    ) -> usize {
        let cand = self
            .index
            .as_mut()
            .expect("indexed path requires index")
            .candidates(engine, &ow.pred);
        self.index_stats.probed += cand.len() as u64;
        self.index_stats.pruned += (self.entries.len() - cand.len()) as u64;

        let mut touched = 0usize;
        let mut moved: Vec<(PatId, Pred)> = Vec::new();
        for id in cand {
            let i = self
                .index
                .as_ref()
                .and_then(|ix| ix.slot(id))
                .expect("candidates are live classes");
            let (e_pred, e_vector) = {
                let e = &self.entries[i];
                (e.pred.clone(), e.vector)
            };
            let inter = engine.and(&e_pred, &ow.pred);
            if inter.is_false() {
                self.index_stats.and_misses += 1;
                continue;
            }
            touched += 1;
            let new_vec = pat.overwrite(e_vector, &ow.writes);
            if new_vec == e_vector {
                continue;
            }
            let rest = engine.diff(&e_pred, &inter);
            moved.push((new_vec, inter));
            if rest.is_false() {
                self.remove_at(i);
            } else {
                self.entries[i].pred = rest;
                if let Some(ix) = &mut self.index {
                    ix.note_shrink();
                }
            }
        }
        for (vec, pred) in moved {
            self.add_pred(engine, vec, pred);
        }
        if self.index.as_ref().is_some_and(ClassIndex::is_stale) {
            self.rebuild_index(engine);
        }
        touched
    }

    /// The index's candidate set for `pred`: positions in
    /// [`Self::entries`] of a superset of the classes `pred` intersects,
    /// ascending. Builds the index if need be; `None` when it is disabled.
    /// Diagnostic surface for the index's soundness tests.
    pub fn index_candidates(&mut self, engine: &mut PredEngine, pred: &Pred) -> Option<Vec<usize>> {
        if self.index.is_none() {
            self.rebuild_index(engine);
        }
        let ix = self.index.as_mut()?;
        let mut slots: Vec<usize> = ix
            .candidates(engine, pred)
            .into_iter()
            .map(|id| ix.slot(id).expect("candidates are live classes"))
            .collect();
        slots.sort_unstable();
        Some(slots)
    }

    /// Rebuilds the class index from fresh probes of every class.
    pub fn rebuild_index(&mut self, engine: &mut PredEngine) {
        if !self.index_enabled {
            return;
        }
        self.index = ClassIndex::build(engine, &self.entries);
        self.index_stats.rebuilds += 1;
    }

    /// Renames every entry's action vector after a PAT compaction that
    /// kept this model's vectors (`PatStore::compact`). The classes stay
    /// the same, so the version does not move.
    pub(crate) fn remap_vectors(&mut self, map: &PatRemap) {
        self.by_vector.clear();
        for (i, e) in self.entries.iter_mut().enumerate() {
            e.vector = *map.get(&e.vector).expect("the compaction kept every model vector");
            self.by_vector.insert(e.vector, i);
        }
    }

    /// Applies a batch of overwrites in order (they compose by Lemma 1).
    pub fn apply_overwrites(
        &mut self,
        engine: &mut PredEngine,
        pat: &mut PatStore,
        ows: &[Overwrite],
    ) -> usize {
        ows.iter().map(|ow| self.apply_overwrite(engine, pat, ow)).sum()
    }

    fn remove_at(&mut self, i: usize) {
        self.version += 1;
        let removed = self.entries.swap_remove(i);
        self.by_vector.remove(&removed.vector);
        if i < self.entries.len() {
            let moved_vec = self.entries[i].vector;
            self.by_vector.insert(moved_vec, i);
        }
        if let Some(ix) = &mut self.index {
            ix.swap_remove(i);
        }
    }

    /// Adds `pred` to the class with vector `vec`, creating it if needed,
    /// and lists the class in the index wherever `pred` reaches.
    fn add_pred(&mut self, engine: &mut PredEngine, vec: PatId, pred: Pred) {
        if pred.is_false() {
            return;
        }
        match self.by_vector.get(&vec) {
            Some(&i) => {
                let merged = engine.or(&self.entries[i].pred, &pred);
                self.entries[i].pred = merged;
                if let Some(ix) = &mut self.index {
                    ix.insert(engine, &self.entries, i, &pred);
                }
            }
            None => {
                self.version += 1;
                self.by_vector.insert(vec, self.entries.len());
                self.entries.push(ModelEntry { pred, vector: vec });
                if let Some(ix) = &mut self.index {
                    ix.push_class(engine, &self.entries);
                }
            }
        }
    }

    /// Checks the three validity invariants of Definition 6. `O(|M|²)`
    /// predicate work — test/debug use only.
    pub fn check_invariants(&self, engine: &mut PredEngine) -> Result<(), String> {
        // unique vectors
        let mut seen = std::collections::HashSet::new();
        for e in &self.entries {
            if !seen.insert(e.vector) {
                return Err(format!("duplicate action vector {:?}", e.vector));
            }
            if e.pred.is_false() {
                return Err("empty predicate in model".into());
            }
        }
        // mutually exclusive
        for i in 0..self.entries.len() {
            for j in (i + 1)..self.entries.len() {
                if !engine.disjoint(&self.entries[i].pred, &self.entries[j].pred) {
                    return Err(format!("classes {i} and {j} overlap"));
                }
            }
        }
        // complementary w.r.t. the universe
        let union = engine.or_many(self.entries.iter().map(|e| &e.pred));
        if union != self.universe {
            return Err("classes do not cover the universe".into());
        }
        // class-index consistency: id tables and the superset law.
        if let Some(ix) = &self.index {
            ix.check(engine, &self.entries)?;
        }
        Ok(())
    }

    /// Approximate resident bytes (entries + index), excluding the shared
    /// BDD/PAT arenas which are reported by their own stores.
    pub fn approx_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<ModelEntry>() + self.by_vector.capacity() * 24
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_netmodel::{ActionId, DeviceId};

    fn ow(pred: Pred, writes: Vec<(u32, u32)>) -> Overwrite {
        Overwrite {
            pred,
            writes: writes
                .into_iter()
                .map(|(d, a)| (DeviceId(d), ActionId(a)))
                .collect(),
        }
    }

    #[test]
    fn initial_model_is_single_default_class() {
        let e = PredEngine::new(8);
        let m = InverseModel::new(e.true_pred());
        assert_eq!(m.len(), 1);
        assert_eq!(m.entries()[0].vector, PAT_NIL);
        assert!(m.entries()[0].pred.is_true());
    }

    #[test]
    fn overwrite_splits_a_class() {
        let mut e = PredEngine::new(8);
        let mut pat = PatStore::new();
        let mut m = InverseModel::new(e.true_pred());
        let p = e.prefix(0, 8, 0xA0, 4);
        let touched = m.apply_overwrite(&mut e, &mut pat, &ow(p, vec![(0, 1)]));
        assert_eq!(touched, 1);
        assert_eq!(m.len(), 2);
        m.check_invariants(&mut e).unwrap();
    }

    #[test]
    fn overwrite_with_same_action_is_noop() {
        let mut e = PredEngine::new(8);
        let mut pat = PatStore::new();
        let mut m = InverseModel::new(e.true_pred());
        let p = e.prefix(0, 8, 0xA0, 4);
        m.apply_overwrite(&mut e, &mut pat, &ow(p, vec![(0, 1)]));
        let len = m.len();
        // Rewriting the same action on a sub-predicate must not split.
        let sub = e.prefix(0, 8, 0xA8, 5);
        m.apply_overwrite(&mut e, &mut pat, &ow(sub, vec![(0, 1)]));
        assert_eq!(m.len(), len);
        m.check_invariants(&mut e).unwrap();
    }

    #[test]
    fn classes_with_equal_vectors_merge() {
        let mut e = PredEngine::new(8);
        let mut pat = PatStore::new();
        let mut m = InverseModel::new(e.true_pred());
        let p1 = e.prefix(0, 8, 0xA0, 4);
        let p2 = e.prefix(0, 8, 0xB0, 4);
        m.apply_overwrite(&mut e, &mut pat, &ow(p1, vec![(0, 1)]));
        m.apply_overwrite(&mut e, &mut pat, &ow(p2, vec![(0, 1)]));
        // Both prefixes map device 0 to action 1 → must be ONE class.
        assert_eq!(m.len(), 2);
        m.check_invariants(&mut e).unwrap();
    }

    #[test]
    fn whole_class_moves_when_covered() {
        let mut e = PredEngine::new(8);
        let mut pat = PatStore::new();
        let mut m = InverseModel::new(e.true_pred());
        let p = e.prefix(0, 8, 0xA0, 4);
        m.apply_overwrite(&mut e, &mut pat, &ow(p.clone(), vec![(0, 1)]));
        // Now overwrite the exact same predicate with a different action:
        // the (p, [0→1]) class must fully move, not leave an empty shell.
        m.apply_overwrite(&mut e, &mut pat, &ow(p, vec![(0, 2)]));
        assert_eq!(m.len(), 2);
        m.check_invariants(&mut e).unwrap();
        for entry in m.entries() {
            assert!(!entry.pred.is_false());
        }
    }

    #[test]
    fn classify_finds_the_unique_class() {
        let mut e = PredEngine::new(8);
        let mut pat = PatStore::new();
        let mut m = InverseModel::new(e.true_pred());
        let p = e.prefix(0, 8, 0xA0, 4);
        m.apply_overwrite(&mut e, &mut pat, &ow(p, vec![(0, 1)]));
        let bits_a: Vec<bool> = (0..8).map(|i| (0xA5u8 >> (7 - i)) & 1 == 1).collect();
        let entry = m.classify(&e, &bits_a).unwrap();
        assert_eq!(pat.get(entry.vector, DeviceId(0)), ActionId(1));
        let bits_b: Vec<bool> = (0..8).map(|i| (0x15u8 >> (7 - i)) & 1 == 1).collect();
        let entry = m.classify(&e, &bits_b).unwrap();
        assert_eq!(entry.vector, PAT_NIL);
    }

    #[test]
    fn subspace_universe_respected() {
        let mut e = PredEngine::new(8);
        let mut pat = PatStore::new();
        let universe = e.prefix(0, 8, 0x80, 1); // top half of the space
        let mut m = InverseModel::new(universe.clone());
        let p = e.prefix(0, 8, 0xA0, 4);
        let clipped = e.and(&p, &universe);
        m.apply_overwrite(&mut e, &mut pat, &ow(clipped, vec![(0, 1)]));
        m.check_invariants(&mut e).unwrap();
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn gc_roundtrip() {
        let mut e = PredEngine::new(16);
        let mut pat = PatStore::new();
        let mut m = InverseModel::new(e.true_pred());
        for i in 0..8u64 {
            let p = e.prefix(0, 16, i << 12, 4);
            m.apply_overwrite(&mut e, &mut pat, &ow(p, vec![(0, (i + 1) as u32)]));
        }
        let before = m.len();
        // The model's handles are roots: a collection must not disturb it.
        let reclaimed = e.collect();
        assert_eq!(m.len(), before);
        m.check_invariants(&mut e).unwrap();
        // And a second collection is equally safe.
        e.collect();
        m.check_invariants(&mut e).unwrap();
        let _ = reclaimed;
    }

    #[test]
    fn classify_with_index_agrees_with_linear_scan() {
        let mut e = PredEngine::new(8);
        let mut pat = PatStore::new();
        let mut m = InverseModel::new(e.true_pred());
        for i in 0..12u64 {
            let p = e.range(0, 8, i * 17, i * 17 + 23);
            m.apply_overwrite(&mut e, &mut pat, &ow(p, vec![(i as u32 % 3, (i + 1) as u32)]));
        }
        assert!(m.has_index(), "overwrites must have built the index");
        for h in 0..256u64 {
            let bits: Vec<bool> = (0..8).map(|i| (h >> (7 - i)) & 1 == 1).collect();
            let via_index = m.classify(&e, &bits).map(|en| en.vector);
            let via_scan = m.classify_linear(&e, &bits).map(|en| en.vector);
            assert_eq!(via_index, via_scan, "header {h}");
        }
    }

    #[test]
    fn indexed_and_linear_application_agree() {
        let mk = |indexed: bool| {
            let mut e = PredEngine::new(8);
            let mut pat = PatStore::new();
            let mut m = InverseModel::new(e.true_pred());
            m.set_index_enabled(indexed);
            for i in 0..20u64 {
                let p = e.range(0, 8, (i * 31) % 240, (i * 31) % 240 + 19);
                m.apply_overwrite(&mut e, &mut pat, &ow(p, vec![(i as u32 % 4, (i % 5 + 1) as u32)]));
            }
            m.check_invariants(&mut e).unwrap();
            // Order-independent fingerprint: the set of (sat-count, vector
            // entries) pairs.
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
        assert_eq!(mk(true), mk(false));
    }

    #[test]
    fn index_prunes_disjoint_classes() {
        let mut e = PredEngine::new(8);
        let mut pat = PatStore::new();
        let mut m = InverseModel::new(e.true_pred());
        // 16 disjoint /4 classes, then touch exactly one of them.
        for i in 0..16u64 {
            let p = e.prefix(0, 8, i << 4, 4);
            m.apply_overwrite(&mut e, &mut pat, &ow(p, vec![(0, (i + 1) as u32)]));
        }
        let before = m.index_stats();
        let p = e.prefix(0, 8, 0x30, 4);
        m.apply_overwrite(&mut e, &mut pat, &ow(p, vec![(1, 9)]));
        let after = m.index_stats();
        assert!(
            after.pruned > before.pruned,
            "a one-cell overwrite against disjoint classes must prune"
        );
        m.check_invariants(&mut e).unwrap();
    }

    #[test]
    fn empty_overwrite_is_ignored() {
        let mut e = PredEngine::new(8);
        let mut pat = PatStore::new();
        let mut m = InverseModel::new(e.true_pred());
        let f = e.false_pred();
        let t = e.true_pred();
        assert_eq!(m.apply_overwrite(&mut e, &mut pat, &ow(f, vec![(0, 1)])), 0);
        assert_eq!(m.apply_overwrite(&mut e, &mut pat, &ow(t, vec![])), 0);
        assert_eq!(m.len(), 1);
    }
}
