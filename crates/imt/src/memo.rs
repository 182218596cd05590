//! Per-device memoization of compiled (and subspace-clipped) match
//! predicates.
//!
//! `calculate_atomic_overwrites` re-encodes `Match → Pred` for essentially
//! the whole FIB on every update block — the same prefix compiled hundreds
//! of times over a churn stream. A [`MatchMemo`] caches the *clipped*
//! predicate `⟦m⟧ ∧ clip` keyed by the match's interning handle
//! ([`MatchId`]), so each match is encoded once per FIB lifetime and a
//! lookup hashes 4 bytes instead of the whole constraint vector. Caching
//! the clipped form is sound for both shadow strategies because `(m ∧
//! clip) ∖ (s ∧ clip) = (m ∧ clip) ∧ ¬s`: accumulated-disjunction and
//! trie-assisted shadows compute the identical node either way.
//!
//! Entries hold rooted [`Pred`] handles, so they survive `collect()`
//! unchanged (the engine's mark-sweep is non-moving). The memo is
//! capacity-capped: when full, the least-recently-used half is evicted in
//! one pass. A memo is only valid for one `(engine, clip)` pair — in
//! practice one [`crate::ModelManager`], whose clip is fixed for its
//! lifetime. Rule deletion invalidates the rule's entry so the engine can
//! reclaim the nodes of matches that will not recur.

use flash_bdd::{Pred, PredEngine};
use flash_netmodel::{HeaderLayout, Match, MatchId};
use std::collections::HashMap;

struct MemoEntry {
    pred: Pred,
    /// Logical access time for the evict-half-by-recency policy.
    tick: u64,
    /// Lazily-probed cell mask over the engine's canonical index cells
    /// (`offset 0`, `k = num_vars.min(6)`), for the disjoint-diff
    /// shortcut. `None` until a masked lookup asks for it.
    mask: Option<u64>,
}

/// A capacity-capped `MatchId → Pred` cache. `capacity == 0` disables
/// caching entirely (every lookup encodes fresh, nothing is retained).
pub struct MatchMemo {
    map: HashMap<MatchId, MemoEntry>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

/// Default entry cap: comfortably holds the working set of a large FIB
/// while bounding rooted-handle growth on adversarial streams.
pub const DEFAULT_MATCH_MEMO_CAPACITY: usize = 8192;

impl MatchMemo {
    pub fn new(capacity: usize) -> Self {
        MatchMemo {
            map: HashMap::new(),
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// A memo that never caches — the reference behaviour, and the right
    /// thing for one-shot callers that do not own a long-lived engine.
    pub fn disabled() -> Self {
        Self::new(0)
    }

    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The clipped predicate `⟦mat⟧ ∧ clip`, from cache when possible.
    pub fn get_or_encode(
        &mut self,
        engine: &mut PredEngine,
        layout: &HeaderLayout,
        mat: &Match,
        clip: &Pred,
    ) -> Pred {
        let encode = |engine: &mut PredEngine| {
            let m = mat.to_pred(layout, engine);
            if clip.is_true() {
                m
            } else {
                engine.and(&m, clip)
            }
        };
        if self.capacity == 0 {
            return encode(engine);
        }
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.map.get_mut(&mat.id()) {
            e.tick = tick;
            self.hits += 1;
            return e.pred.clone();
        }
        self.misses += 1;
        let pred = encode(engine);
        if self.map.len() >= self.capacity {
            self.evict_older_half();
        }
        self.map.insert(mat.id(), MemoEntry { pred: pred.clone(), tick, mask: None });
        pred
    }

    /// Like [`MatchMemo::get_or_encode`], but also returns the predicate's
    /// cell-occupancy mask over the engine's canonical cells (`offset 0`,
    /// `k = num_vars.min(6)` — the same convention as the class overlap
    /// index). The mask is probed at most once per cached entry, so a
    /// churn stream pays one probe per distinct match, not one per block.
    pub fn get_or_encode_with_mask(
        &mut self,
        engine: &mut PredEngine,
        layout: &HeaderLayout,
        mat: &Match,
        clip: &Pred,
    ) -> (Pred, u64) {
        let k = engine.num_vars().min(6);
        if self.capacity == 0 || k == 0 {
            let pred = self.get_or_encode(engine, layout, mat, clip);
            let mask = if k == 0 { u64::MAX } else { engine.cell_mask(&pred, 0, k) };
            return (pred, mask);
        }
        self.tick += 1;
        let tick = self.tick;
        // Single-lookup hot path: the cursor in `calculate_atomic_overwrites`
        // calls this once per FIB rule per block, so a second map probe here
        // would show up in profiles.
        if let Some(e) = self.map.get_mut(&mat.id()) {
            e.tick = tick;
            self.hits += 1;
            let pred = e.pred.clone();
            if let Some(m) = e.mask {
                return (pred, m);
            }
            let m = engine.cell_mask(&pred, 0, k);
            if let Some(e) = self.map.get_mut(&mat.id()) {
                e.mask = Some(m);
            }
            return (pred, m);
        }
        self.misses += 1;
        let pred = {
            let m = mat.to_pred(layout, engine);
            if clip.is_true() {
                m
            } else {
                engine.and(&m, clip)
            }
        };
        let mask = engine.cell_mask(&pred, 0, k);
        if self.map.len() >= self.capacity {
            self.evict_older_half();
        }
        self.map
            .insert(mat.id(), MemoEntry { pred: pred.clone(), tick, mask: Some(mask) });
        (pred, mask)
    }

    /// The cell mask of [`MatchMemo::get_or_encode_with_mask`] alone: a
    /// hit with its mask already probed touches no predicate handle.
    pub(crate) fn cell_mask(
        &mut self,
        engine: &mut PredEngine,
        layout: &HeaderLayout,
        mat: &Match,
        clip: &Pred,
    ) -> u64 {
        if let Some(e) = self.map.get_mut(&mat.id()) {
            if let Some(m) = e.mask {
                self.tick += 1;
                e.tick = self.tick;
                self.hits += 1;
                return m;
            }
        }
        self.get_or_encode_with_mask(engine, layout, mat, clip).1
    }

    /// Drops one match's entry (rule deleted: its nodes should become
    /// collectable rather than stay rooted forever).
    pub fn invalidate(&mut self, mat: &Match) {
        self.map.remove(&mat.id());
    }

    /// Drops everything (e.g. when the engine or clip changes).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// One-pass eviction: keep only entries accessed more recently than
    /// the median tick — at least half the map goes.
    fn evict_older_half(&mut self) {
        let mut ticks: Vec<u64> = self.map.values().map(|e| e.tick).collect();
        ticks.sort_unstable();
        let cut = ticks[ticks.len() / 2];
        self.map.retain(|_, e| e.tick > cut);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_netmodel::HeaderLayout;

    fn layout() -> HeaderLayout {
        HeaderLayout::new(&[("dst", 8)])
    }

    #[test]
    fn caches_and_counts_hits() {
        let l = layout();
        let mut e = PredEngine::new(l.total_bits());
        let mut memo = MatchMemo::new(16);
        let clip = e.true_pred();
        let m = Match::dst_prefix(&l, 0xA0, 4);
        let p1 = memo.get_or_encode(&mut e, &l, &m, &clip);
        let p2 = memo.get_or_encode(&mut e, &l, &m, &clip);
        assert_eq!(p1, p2);
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
        memo.invalidate(&m);
        let _ = memo.get_or_encode(&mut e, &l, &m, &clip);
        assert_eq!((memo.hits(), memo.misses()), (1, 2));
    }

    #[test]
    fn clips_cached_predicates() {
        let l = layout();
        let mut e = PredEngine::new(l.total_bits());
        let mut memo = MatchMemo::new(16);
        let clip = e.prefix(0, 8, 0x80, 1);
        let m = Match::dst_prefix(&l, 0xA0, 4);
        let cached = memo.get_or_encode(&mut e, &l, &m, &clip);
        let direct = m.to_pred(&l, &mut e);
        let expect = e.and(&direct, &clip);
        assert_eq!(cached, expect);
    }

    #[test]
    fn entries_survive_collect() {
        let l = layout();
        let mut e = PredEngine::new(l.total_bits());
        let mut memo = MatchMemo::new(16);
        let clip = e.true_pred();
        let m = Match::dst_prefix(&l, 0x40, 3);
        let before = memo.get_or_encode(&mut e, &l, &m, &clip);
        e.collect();
        let after = memo.get_or_encode(&mut e, &l, &m, &clip);
        assert_eq!(before, after);
        assert_eq!(memo.hits(), 1, "post-collect lookup must hit");
    }

    #[test]
    fn eviction_keeps_recent_half() {
        let l = layout();
        let mut e = PredEngine::new(l.total_bits());
        let mut memo = MatchMemo::new(8);
        let clip = e.true_pred();
        for v in 0..16u64 {
            let m = Match::dst_prefix(&l, v << 4, 4);
            let _ = memo.get_or_encode(&mut e, &l, &m, &clip);
            assert!(memo.len() <= 8);
        }
        // The most recent insert always survives its own eviction.
        let last = Match::dst_prefix(&l, 15 << 4, 4);
        let hits = memo.hits();
        let _ = memo.get_or_encode(&mut e, &l, &last, &clip);
        assert_eq!(memo.hits(), hits + 1);
    }

    #[test]
    fn disabled_memo_never_retains() {
        let l = layout();
        let mut e = PredEngine::new(l.total_bits());
        let mut memo = MatchMemo::disabled();
        let clip = e.true_pred();
        let m = Match::dst_prefix(&l, 0xC0, 2);
        let a = memo.get_or_encode(&mut e, &l, &m, &clip);
        let b = memo.get_or_encode(&mut e, &l, &m, &clip);
        assert_eq!(a, b, "hash-consing still dedups the nodes");
        assert!(memo.is_empty());
        assert_eq!((memo.hits(), memo.misses()), (0, 0));
    }
}
