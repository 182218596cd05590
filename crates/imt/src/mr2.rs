//! The MR² algorithm — the heart of Fast IMT (§3.2–§3.3, Algorithm 1).
//!
//! Pipeline for one block of native updates on one device:
//!
//! 1. **Cancel** — remove insert/delete pairs of the same rule inside the
//!    block (they are no-ops end to end).
//! 2. **Merge** (`merge_block_and_diff`) — one merge pass over the sorted
//!    FIB and the sorted block applies the updates; a second pass over the
//!    updated table collects `R_diff`, the *expanding rules* (Definition
//!    13): new rules, plus the surviving rules below a deleted rule whose
//!    match may overlap theirs. A delete that the block re-inserts at the
//!    same match and priority (an action swap) un-shadows nothing, so a
//!    block of swaps expands only its inserts.
//! 3. **Map** (`calculate_atomic_overwrites`) — a second linear pass over
//!    the (now updated, sorted) FIB computes each expanding rule's
//!    effective predicate `eff = m ∧ ¬⋁(higher-priority matches)` with an
//!    accumulated disjunction, yielding the atomic overwrites `ΔM_i`.
//! 4. **Net** ([`Netting`]) — both reduces of the paper in the order that
//!    keeps their output proportional to the classes it creates: atomic
//!    overwrites are first grouped **by predicate** (Theorem 5: their
//!    write sets combine), then groups with the identical write set merge
//!    by disjoining their predicates (Theorem 4, for whole write sets
//!    instead of single `(device, action)` pairs).
//!
//! The result is a short list of compact conflict-free overwrites that the
//! inverse model applies with its cross-product operator. On a block of
//! one device every write set is a single `(device, action)` pair, so the
//! netting is exactly Reduce I; across the devices of a fat tree it emits
//! about one overwrite per equivalence class the block creates.
//!
//! All predicates are rooted [`Pred`] handles, so intermediate shadow
//! predicates become engine garbage the moment this pipeline drops them and
//! are reclaimed by the next automatic collection.

use crate::memo::MatchMemo;
use flash_bdd::{MixBuildHasher, Pred, PredEngine};
use flash_netmodel::fib::{match_hash, rule_cmp};
use flash_netmodel::{
    ActionId, DeviceId, Fib, HeaderLayout, Match, Rule, RuleOp, RuleTrie, RuleUpdate,
};
use std::cmp::Ordering;
use std::collections::HashMap;

/// An atomic overwrite: set `device`'s action to `action` for the headers
/// in `pred` (the master predicate of Definition 14).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AtomicOverwrite {
    pub pred: Pred,
    pub device: DeviceId,
    pub action: ActionId,
}

/// A compact conflict-free overwrite after both reduce steps: apply every
/// `(device, action)` write to the headers in `pred`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Overwrite {
    pub pred: Pred,
    pub writes: Vec<(DeviceId, ActionId)>,
}

/// Removes canceling updates (insert-after-delete / delete-after-insert of
/// the identical rule) from a block. A rule with `n` more inserts than
/// deletes survives as `n` inserts, one with `n` more deletes as `n`
/// deletes; a balanced rule drops out. The FIB that
/// [`merge_block_and_diff`] builds from the result is the one the block
/// leaves when applied one update at a time (where a rule inserted twice
/// is held twice), unless a delete names a rule the FIB does not hold.
/// Returns the surviving updates in the input order of each rule's last
/// update.
pub fn cancel_updates(block: &[RuleUpdate]) -> Vec<RuleUpdate> {
    // Net effect per rule in ONE pass: inserts count +1, deletes -1, and
    // each distinct rule remembers the position of its last op. `Rule` is a
    // packed 16-byte handle (interned match id + priority + action), so it
    // keys the map directly: equality is an integer compare and hashing
    // touches 16 bytes, never the underlying constraint vectors.
    let mut net: HashMap<Rule, (i64, usize)> = HashMap::new();
    for (pos, u) in block.iter().enumerate() {
        let delta = match u.op {
            RuleOp::Insert => 1,
            RuleOp::Delete => -1,
        };
        let e = net.entry(u.rule).or_insert((0, pos));
        e.0 += delta;
        e.1 = pos;
    }
    // Survivors: `|net|` copies of the op of the net effect's sign, at the
    // rule's last position.
    let mut out: Vec<(usize, RuleUpdate, i64)> = net
        .into_iter()
        .filter(|&(_, (net, _))| net != 0)
        .map(|(rule, (net, last_pos))| {
            let u = if net > 0 { RuleUpdate::insert(rule) } else { RuleUpdate::delete(rule) };
            (last_pos, u, net.abs())
        })
        .collect();
    out.sort_unstable_by_key(|&(p, _, _)| p);
    out.into_iter().flat_map(|(_, u, n)| std::iter::repeat_n(u, n as usize)).collect()
}

/// Output of the merge phase.
pub struct MergeResult {
    /// The expanding rules, in descending priority order: every inserted
    /// rule, and every surviving rule a delete may have un-shadowed (see
    /// [`merge_block_and_diff`]). A superset of the rules whose effective
    /// header set grew: an extra rule costs one shadow subtraction and
    /// rewrites actions the model already holds; a missing one would leave
    /// stale actions in the model.
    pub diff: Vec<Rule>,
    /// The updates that actually changed the FIB, in merge order: every
    /// insert, and only the deletes whose rule was present. Consumers
    /// maintaining a mirror of the FIB (the per-device [`RuleTrie`])
    /// replay exactly this list, so ignored deletes of missing rules can
    /// never desynchronize the mirror.
    pub applied: Vec<(RuleOp, Rule)>,
}

/// Algorithm 1's `MergeBlockAndDiff`: applies the sorted update block to
/// the FIB in one merge pass and returns the expanding rules.
///
/// `fib` is mutated in place to the post-update rule set `R'`.
///
/// Inserted rules always expand. A surviving rule `x` expands only when
/// some deleted rule `d` sorts at or above it, was not *replaced in
/// place*, and may overlap it (`d.mat.may_overlap(&x.mat, layout)`). `d`
/// is replaced in place when the block inserts a rule with `d`'s match
/// and priority and no other rule of `R'` shares `d`'s `(priority, match
/// hash)` slot of [`rule_cmp`]: the insert then takes `d`'s slot, and
/// every other rule keeps the same set of higher-priority matches.
///
/// Why that is enough: a rule's effective headers are
/// `eff(x) = x.m ∧ ¬⋃above(x)`. Deleting `d` shrinks `⋃above(x)` only
/// inside `d.m`, so `x` can gain headers only where `x.m ∩ d.m ≠ ∅`. The
/// headers `x` loses are won by inserted rules, whose overwrites are
/// emitted. Extra diff rules are wasted work but never wrong; a missing
/// one is wrong.
///
/// Cost: a block whose deletes are all replaced in place (action swaps)
/// pays nothing beyond the merge; otherwise at most
/// `|R'| × unreplaced deletes` calls to `may_overlap`.
pub fn merge_block_and_diff(
    fib: &mut Fib,
    block: &[RuleUpdate],
    layout: &HeaderLayout,
) -> MergeResult {
    let mut sorted: Vec<&RuleUpdate> = block.iter().collect();
    sorted.sort_by(|a, b| rule_cmp(&a.rule, &b.rule));

    let old_rules = fib.rules();
    let mut new_rules: Vec<Rule> = Vec::with_capacity(old_rules.len() + sorted.len());
    // Parallel to `new_rules`: whether this block inserted the rule.
    let mut inserted: Vec<bool> = Vec::with_capacity(new_rules.capacity());
    let mut deleted: Vec<Rule> = Vec::new();
    let mut applied: Vec<(RuleOp, Rule)> = Vec::new();

    let mut ri = 0usize; // cursor into old_rules
    for u in sorted {
        // Advance past existing rules that sort before this update.
        while ri < old_rules.len() && rule_cmp(&old_rules[ri], &u.rule) == Ordering::Less {
            new_rules.push(old_rules[ri]);
            inserted.push(false);
            ri += 1;
        }
        match u.op {
            RuleOp::Insert => {
                new_rules.push(u.rule);
                inserted.push(true);
                applied.push((RuleOp::Insert, u.rule));
            }
            RuleOp::Delete => {
                // The deleted rule must be the current head of old_rules.
                if ri < old_rules.len() && old_rules[ri] == u.rule {
                    ri += 1; // skip it: deleted
                    deleted.push(u.rule);
                    applied.push((RuleOp::Delete, u.rule));
                }
                // A delete of a missing rule is ignored (robustness to
                // out-of-sync feeds; the paper assumes well-formed blocks).
            }
        }
    }
    // Tail of the old table.
    new_rules.extend_from_slice(&old_rules[ri..]);
    inserted.resize(new_rules.len(), false);

    // The deletes that may un-shadow headers: all but those replaced in
    // place. The rules of one slot are contiguous in `R'`.
    let slot = |r: &Rule| (std::cmp::Reverse(r.priority), match_hash(&r.mat));
    let in_slot = |i: usize, d: &Rule| new_rules.get(i).is_some_and(|r| slot(r) == slot(d));
    let unreplaced: Vec<Rule> = deleted
        .into_iter()
        .filter(|d| {
            let at = new_rules.partition_point(|r| slot(r) < slot(d));
            !(in_slot(at, d) && !in_slot(at + 1, d) && inserted[at] && new_rules[at].mat == d.mat)
        })
        .collect();

    let mut diff: Vec<Rule> = Vec::new();
    let mut above = 0usize; // unreplaced[..above] sort at or above the current rule
    for (r, &new) in new_rules.iter().zip(&inserted) {
        while above < unreplaced.len() && rule_cmp(&unreplaced[above], r) != Ordering::Greater {
            above += 1;
        }
        if new || unreplaced[..above].iter().any(|d| d.mat.may_overlap(&r.mat, layout)) {
            diff.push(*r);
        }
    }

    *fib = Fib::from_sorted(new_rules);
    MergeResult { diff, applied }
}

/// Algorithm 1's `CalculateAtomicOverwrite`: computes the effective
/// predicate of every expanding rule with a single accumulated disjunction
/// over the updated table `R'`.
///
/// `clip` (the subspace predicate) is conjoined into every match — TRUE
/// for a whole-network model. `memo` caches the clipped match predicates
/// across blocks (pass [`MatchMemo::disabled`] for one-shot callers).
///
/// Returns one predicate per rule of `diff`, in order, empty ones
/// included: [`atomic_overwrites`] turns them into this device's atomic
/// overwrites, and the [`BulkMap`] keeps them whole as its template.
/// The complementary "no-overwrite" predicate of Algorithm 1 (L43) stays
/// implicit: the model's cross product leaves untouched header space in
/// place.
pub fn calculate_atomic_overwrites(
    engine: &mut PredEngine,
    layout: &HeaderLayout,
    fib: &Fib,
    diff: &[Rule],
    clip: &Pred,
    memo: &mut MatchMemo,
) -> Vec<Pred> {
    let rules = fib.rules();
    let mut out = Vec::with_capacity(diff.len());
    let mut p = engine.false_pred(); // accumulated union of higher-priority matches
    // Exact cell-occupancy mask of `p`, maintained incrementally via the
    // union law `cell_mask(a ∨ b) = cell_mask(a) | cell_mask(b)`. When an
    // expanding match's mask misses every cell of `p`, the shadow
    // subtraction is provably a no-op and the disjoint-diff kernel
    // returns `m` without recursing.
    let mut p_mask = 0u64;
    let mut ri = 0usize;
    // Incremental suffix reuse: each rule's shadow extends the previous
    // one via a single batched `or` over the matches the cursor skipped,
    // instead of one binary `or` per skipped rule.
    let mut batch: Vec<Pred> = Vec::new();
    for rd in diff {
        // Advance the cursor until we reach rd's slot in R'.
        batch.clear();
        while ri < rules.len() && rule_cmp(&rules[ri], rd) == std::cmp::Ordering::Less {
            let (mp, mm) = memo.get_or_encode_with_mask(engine, layout, &rules[ri].mat, clip);
            p_mask |= mm;
            batch.push(mp);
            ri += 1;
        }
        if !batch.is_empty() {
            batch.push(p.clone());
            p = engine.or_many(&batch);
        }
        debug_assert!(
            ri < rules.len() && rules[ri] == *rd,
            "expanding rule must be present in R'"
        );
        let (m, m_mask) = memo.get_or_encode_with_mask(engine, layout, &rd.mat, clip);
        out.push(if m_mask & p_mask == 0 {
            engine.diff_assuming_disjoint(&m, &p)
        } else {
            engine.diff(&m, &p)
        });
        // NOTE: rd itself is NOT folded into p here; only rules strictly
        // above the *next* diff rule are, which the cursor handles since
        // rd sorts before the next diff entry and will be consumed by the
        // while loop on the next iteration.
    }
    out
}

/// Pairs the rules of `diff` with their effective predicates (as
/// [`calculate_atomic_overwrites`] returns them) and drops the empty
/// ones: the atomic overwrites of `device`.
pub fn atomic_overwrites(
    device: DeviceId,
    diff: &[Rule],
    effective: Vec<Pred>,
) -> Vec<AtomicOverwrite> {
    diff.iter()
        .zip(effective)
        .filter(|(_, pred)| !pred.is_false())
        .map(|(r, pred)| AtomicOverwrite { pred, device, action: r.action })
        .collect()
}

/// Overlap checks the template pass may spend per rule of a device before
/// a full pass is the cheaper way to map it.
const REUSE_CHECKS_PER_RULE: usize = 64;

/// A rule's slot in the total order, actions ignored.
type SlotKey = (std::cmp::Reverse<i64>, u64);

fn slot_key(r: &Rule) -> SlotKey {
    (std::cmp::Reverse(r.priority), match_hash(&r.mat))
}

/// The key [`rule_cmp`] orders by, for sorting rules with one match-hash
/// lookup per rule instead of two per comparison.
fn rule_key(r: &Rule) -> (SlotKey, ActionId) {
    (slot_key(r), r.action)
}

/// Where a slot of the merged device and template tables puts a rule.
enum Slot {
    /// Device rule `.0` holds the same match and priority, alone in its
    /// slot, as template rule `.1`.
    Shared(usize, usize),
    /// Device rule only.
    Added(usize),
    /// Template rule only.
    Removed(usize),
}

/// Where [`BulkMap::map`] takes a rule's effective predicate from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mapped {
    /// The predicate of this slot of the template ([`BulkMap::template`]).
    Slot(u32),
    /// A predicate computed for this table.
    Fresh(Pred),
}

/// One device table as [`BulkMap::map`] returns it.
pub struct MappedTable {
    /// The table in [`rule_cmp`] order, default rule last.
    pub fib: Fib,
    /// For every rule but the default, in order, where its effective
    /// predicate comes from.
    pub effective: Vec<Mapped>,
    /// The map made this table its template: rule `i` is slot `i`.
    pub new_template: bool,
}

/// The bulk map: device tables mapped one after another, each in
/// proportion to how much it differs from the last table mapped in full.
///
/// An effective predicate `eff(x) = x.m ∧ ¬⋃above(x)` depends on the
/// table's sorted `(match, priority)` list and not on its actions, and
/// adding or removing a rule `d` above `x` changes `eff(x)` only inside
/// `d.m ∩ x.m` — the law [`merge_block_and_diff`] relies on too. So the
/// map keeps a *template*: the last table it mapped with a full
/// [`calculate_atomic_overwrites`] pass, with every rule's effective
/// predicate, empty ones included. A later table takes the template's
/// predicate for each rule the two share and recomputes only the rest
/// (`MapTemplate::reuse`); a table too far from the template gets the
/// full pass and becomes the new template. In a fat tree every core and
/// aggregation switch holds the same list, and a ToR the same list minus
/// its own prefixes, so nearly every predicate is computed once.
///
/// The template also orders the tables (`MapTemplate::order`): a rule it
/// holds goes to its template slot's place, so only the rules it lacks
/// are sorted.
#[derive(Default)]
pub struct BulkMap {
    template: Option<MapTemplate>,
    /// Rules whose effective predicate was taken from the template.
    pub reused_rules: u64,
    /// Tables mapped with a full pass.
    pub full_passes: u64,
}

impl BulkMap {
    /// Sorts `rules` — one device's table in any order, default rule
    /// excluded — into [`rule_cmp`] order (exactly the stable sort by
    /// that order), appends `default` and maps every other rule: to its
    /// template slot where the template's predicate holds, to a fresh
    /// predicate elsewhere. Either is the node a full
    /// [`calculate_atomic_overwrites`] pass over the sorted table returns
    /// for the rule, empty ones included.
    pub fn map(
        &mut self,
        engine: &mut PredEngine,
        layout: &HeaderLayout,
        rules: &[Rule],
        default: Rule,
        clip: &Pred,
        memo: &mut MatchMemo,
    ) -> MappedTable {
        let (ordered, reused) = match &self.template {
            Some(t) => {
                let ordered = t.order(rules);
                let reused = t.reuse(engine, layout, &ordered, clip, memo);
                (ordered, reused)
            }
            None => (MapTemplate::default().order(rules), None),
        };
        let Ordered { mut table, keys, .. } = ordered;
        table.push(default);
        let fib = Fib::from_sorted(table);
        if let Some((effective, n)) = reused {
            self.reused_rules += n as u64;
            return MappedTable { fib, effective, new_template: false };
        }
        let table = &fib.rules()[..fib.len() - 1];
        let effective = calculate_atomic_overwrites(engine, layout, &fib, table, clip, memo);
        let cells = table.iter().map(|r| memo.cell_mask(engine, layout, &r.mat, clip)).collect();
        self.full_passes += 1;
        self.template = Some(MapTemplate::new(table.to_vec(), keys, cells, effective));
        let effective = (0..table.len() as u32).map(Mapped::Slot).collect();
        MappedTable { fib, effective, new_template: true }
    }

    /// The template's effective predicates, by slot.
    pub fn template(&self) -> &[Pred] {
        self.template.as_ref().map_or(&[], |t| &t.effective)
    }
}

/// In [`MapTemplate::by_match`], a match the template does not hold; in
/// `order`'s per-slot device rule, a slot no device rule took.
const FREE: u32 = u32::MAX;
/// In [`MapTemplate::by_match`], a match the template holds more than
/// once or in a slot with another rule; in `order`, a slot two device
/// rules took.
const TAKEN: u32 = u32::MAX - 1;

/// A table the bulk map computed in full (default rule excluded), with
/// one slot key, cell mask and effective predicate per rule.
#[derive(Default)]
struct MapTemplate {
    rules: Vec<Rule>,
    keys: Vec<SlotKey>,
    cells: Vec<u64>,
    effective: Vec<Pred>,
    /// By [`MatchId`](flash_netmodel::MatchId): the slot of the template's
    /// only rule with that match when it is alone in its slot, else
    /// [`FREE`] or [`TAKEN`].
    by_match: Vec<u32>,
}

/// A device table in [`rule_cmp`] order, merged against the template.
struct Ordered {
    table: Vec<Rule>,
    keys: Vec<SlotKey>,
    /// Every rule of both tables, in slot order.
    slots: Vec<Slot>,
    /// Rules in only one of the tables, or in a slot not shared one to one.
    changed: usize,
}

impl MapTemplate {
    fn new(rules: Vec<Rule>, keys: Vec<SlotKey>, cells: Vec<u64>, effective: Vec<Pred>) -> Self {
        let mut by_match = Vec::new();
        for (j, r) in rules.iter().enumerate() {
            let id = r.mat.id().0 as usize;
            if id >= by_match.len() {
                by_match.resize(id + 1, FREE);
            }
            let alone = (j == 0 || keys[j - 1] != keys[j]) && keys.get(j + 1) != Some(&keys[j]);
            by_match[id] = if by_match[id] == FREE && alone { j as u32 } else { TAKEN };
        }
        MapTemplate { rules, keys, cells, effective, by_match }
    }

    /// Sorts `rules` into [`rule_cmp`] order and merges them against the
    /// template by slot (`(priority, match hash)`, actions ignored), in
    /// one pass that reads the match table only for the rules the
    /// template lacks.
    ///
    /// A rule whose match and priority the template holds alone in a slot
    /// (a *hit*) takes that slot's place, found through `by_match`. The
    /// other rules (*misses*) are keyed, sorted and merged in by key; their
    /// ties are broken by input position, which is how the stable sort
    /// breaks them, and a hit never shares a key with a miss but through a
    /// match-hash collision, handled in place. Two hits on one slot both
    /// become misses. So the table is exactly the stable sort by
    /// [`rule_cmp`].
    ///
    /// A slot is shared when each table holds one rule there and both have
    /// the same match; every other rule of either table is changed.
    fn order(&self, rules: &[Rule]) -> Ordered {
        let keyed = |i: usize| (rule_key(&rules[i]), i as u32);
        let mut at = vec![FREE; self.rules.len()];
        let mut misses = Vec::new();
        for (i, r) in rules.iter().enumerate() {
            let slot = self.by_match.get(r.mat.id().0 as usize).map(|&j| j as usize);
            match slot.filter(|&j| self.rules.get(j).is_some_and(|t| t.priority == r.priority)) {
                Some(j) if at[j] == FREE => at[j] = i as u32,
                Some(j) => {
                    if at[j] != TAKEN {
                        misses.push(keyed(at[j] as usize));
                        at[j] = TAKEN;
                    }
                    misses.push(keyed(i));
                }
                None => misses.push(keyed(i)),
            }
        }
        misses.sort_unstable();

        let n = rules.len();
        let (mut table, mut keys) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut slots = Vec::with_capacity(n.max(self.rules.len()));
        let (mut j, mut m, mut changed) = (0, 0, 0);
        while j < self.keys.len() || m < misses.len() {
            let key = match (self.keys.get(j), misses.get(m)) {
                (Some(&a), Some(&((b, _), _))) => a.min(b),
                (Some(&a), None) => a,
                (None, Some(&((b, _), _))) => b,
                (None, None) => unreachable!(),
            };
            let j2 = j + self.keys[j..].iter().take_while(|k| **k == key).count();
            let m2 = m + misses[m..].iter().take_while(|((k, _), _)| *k == key).count();
            let hit = (j2 == j + 1 && at[j] < TAKEN).then(|| at[j]);
            let single = match hit {
                Some(i) => (m2 == m).then_some(i),
                None => (m2 == m + 1).then(|| misses[m].1),
            };
            match single {
                Some(i) if j2 == j + 1 && rules[i as usize].mat == self.rules[j].mat => {
                    slots.push(Slot::Shared(table.len(), j));
                    table.push(rules[i as usize]);
                    keys.push(key);
                }
                _ => {
                    let from = table.len();
                    table.extend(misses[m..m2].iter().map(|&(_, i)| rules[i as usize]));
                    if let Some(i) = hit {
                        // A match-hash collision: a miss shares the hit's key.
                        let r = rules[i as usize];
                        let after = misses[m..m2].partition_point(|&((_, a), x)| (a, x) < (r.action, i));
                        table.insert(from + after, r);
                    }
                    keys.resize(table.len(), key);
                    slots.extend((from..table.len()).map(Slot::Added));
                    slots.extend((j..j2).map(Slot::Removed));
                    changed += (table.len() - from) + (j2 - j);
                }
            }
            (j, m) = (j2, m2);
        }
        Ordered { table, keys, slots, changed }
    }

    /// Maps an [`Ordered`] table, and counts the rules that take their
    /// template slot. `None` when the tables differ too much for reuse to
    /// pay: more changed rules than the table holds, or more overlap
    /// checks than [`REUSE_CHECKS_PER_RULE`] per rule. The caller then
    /// runs the full pass.
    ///
    /// A shared rule keeps its template slot unless a changed rule sorting
    /// above it may overlap it (cell masks first, then
    /// [`Match::may_overlap`](flash_netmodel::Match::may_overlap)). The
    /// device-only rules and the shared rules that fail that test are
    /// recomputed with one `diff_or` against the device's own higher rules
    /// that may overlap them. Predicates are canonical, so every entry is
    /// the node a full pass would return.
    fn reuse(
        &self,
        engine: &mut PredEngine,
        layout: &HeaderLayout,
        ordered: &Ordered,
        clip: &Pred,
        memo: &mut MatchMemo,
    ) -> Option<(Vec<Mapped>, usize)> {
        let rules = &ordered.table;
        if ordered.changed > rules.len() {
            return None;
        }
        if ordered.changed == 0 {
            // The same slots in the same order.
            return Some(((0..rules.len() as u32).map(Mapped::Slot).collect(), rules.len()));
        }

        let budget = REUSE_CHECKS_PER_RULE * rules.len();
        let mut checks = 0usize;
        // Both indexed by device rule; slots visit those in order. A rule
        // to recompute holds `Slot(FREE)` until the recompute below.
        let mut cells: Vec<u64> = Vec::with_capacity(rules.len());
        let mut effective: Vec<Mapped> = Vec::with_capacity(rules.len());
        let mut reused = 0usize;
        let mut recompute: Vec<usize> = Vec::new();
        // The changed rules met so far, and the union of their cells.
        let mut above: Vec<(Match, u64)> = Vec::new();
        let mut above_cells = 0u64;
        for s in &ordered.slots {
            let (changed, changed_cells) = match *s {
                Slot::Shared(i, j) => {
                    let c = self.cells[j];
                    cells.push(c);
                    let x = &rules[i];
                    let hit = c & above_cells != 0 && {
                        checks += above.len();
                        above.iter().any(|(m, ac)| ac & c != 0 && m.may_overlap(&x.mat, layout))
                    };
                    if hit {
                        recompute.push(i);
                        effective.push(Mapped::Slot(FREE));
                    } else {
                        effective.push(Mapped::Slot(j as u32));
                        reused += 1;
                    }
                    if checks > budget {
                        return None;
                    }
                    continue;
                }
                Slot::Added(i) => {
                    let c = memo.cell_mask(engine, layout, &rules[i].mat, clip);
                    cells.push(c);
                    recompute.push(i);
                    effective.push(Mapped::Slot(FREE));
                    (&rules[i], c)
                }
                Slot::Removed(j) => (&self.rules[j], self.cells[j]),
            };
            above.push((changed.mat, changed_cells));
            above_cells |= changed_cells;
        }
        if checks + recompute.iter().sum::<usize>() > budget {
            return None;
        }

        let keys = &ordered.keys;
        for i in recompute {
            let x = &rules[i];
            let m = memo.get_or_encode(engine, layout, &x.mat, clip);
            // Rules sorting strictly above `x`: a copy of `x` held twice
            // does not shadow it, as in the full pass.
            let shadows: Vec<Pred> = (0..i)
                .filter(|&k| (keys[k], rules[k].action) != (keys[i], x.action))
                .filter(|&k| cells[k] & cells[i] != 0 && rules[k].mat.may_overlap(&x.mat, layout))
                .map(|k| memo.get_or_encode(engine, layout, &rules[k].mat, clip))
                .collect();
            effective[i] = Mapped::Fresh(engine.diff_or(&m, &shadows));
        }
        Some((effective, reused))
    }
}

/// Trie-assisted variant of [`calculate_atomic_overwrites`] (§3.4, "Fast
/// Look-up for Overlapped Rules").
///
/// The accumulated-disjunction algorithm folds *every* higher-priority
/// match into the shadow predicate. When expanding rules are few and the
/// table is large, it is cheaper to compute each expanding rule's shadow
/// from only the rules whose matches *overlap* it, found through the
/// multi-dimension prefix trie. Produces exactly the same overwrites
/// (canonical BDDs: logically equal results are the identical node);
/// preferable when `|diff| · overlap degree ≪ |table|`.
///
/// The trie holds the post-merge rule set directly (the FIB's default
/// rule may be absent — it never shadows anything, sorting after every
/// real rule). Shadows are clipped like the expanding match itself:
/// `(m ∧ clip) ∖ (s ∧ clip) = (m ∧ clip) ∧ ¬s`, so the memo's clipped
/// entries are shared verbatim with the accumulated variant.
pub fn calculate_atomic_overwrites_trie(
    engine: &mut PredEngine,
    layout: &HeaderLayout,
    device: DeviceId,
    trie: &RuleTrie,
    diff: &[Rule],
    clip: &Pred,
    memo: &mut MatchMemo,
) -> Vec<AtomicOverwrite> {
    let mut out = Vec::with_capacity(diff.len());
    for rd in diff {
        // Candidate shadowing rules: overlapping AND strictly higher in
        // the total order.
        let mut shadows: Vec<Pred> = Vec::new();
        for r in trie.overlapping(&rd.mat) {
            if rule_cmp(r, rd) == std::cmp::Ordering::Less {
                shadows.push(memo.get_or_encode(engine, layout, &r.mat, clip));
            }
        }
        let m = memo.get_or_encode(engine, layout, &rd.mat, clip);
        // Fused shadow subtraction: the overlapping matches are peeled off
        // one by one with an early exit, never materializing their union.
        let eff = engine.diff_or(&m, &shadows);
        if !eff.is_false() {
            out.push(AtomicOverwrite {
                pred: eff,
                device,
                action: rd.action,
            });
        }
    }
    out
}

/// Builds the rule-level overlap trie for a FIB, skipping the built-in
/// default rule — with priority `i64::MIN` it never shadows anything and
/// would only bloat every overlap query (companion to
/// [`calculate_atomic_overwrites_trie`]).
pub fn build_rule_trie(layout: &HeaderLayout, fib: &Fib) -> RuleTrie {
    RuleTrie::from_rules(
        layout.clone(),
        fib.rules().iter().filter(|r| r.priority != i64::MIN),
    )
}

/// Nets the atomic overwrites of a block — of any number of devices — into
/// compact conflict-free overwrites: by predicate first, by write set
/// second.
///
/// **Why any grouping is sound.** One device's atomic predicates are
/// pairwise disjoint (each is its rule's match minus everything above it)
/// and different devices write different coordinates of the action vector,
/// so atomic overwrites commute: applying them in any order, or any
/// partition of them fused into `(⋁ preds, ⋃ writes)` groups whose members
/// agree on the writes, yields the same model. Grouping by predicate never
/// puts two different writes of one device together (its predicates are
/// disjoint and non-empty, hence distinct; only a rule held twice repeats
/// one), and two groups that overlap share no device, so the emitted
/// overwrites are conflict-free in any order too.
///
/// **Why this order.** Predicates are shared across devices (one prefix is
/// routed by every switch) while `(device, action)` pairs are not, so
/// disjoining per device first builds unions that cut across classes and
/// rarely coincide between devices. Keyed on the predicate, each distinct
/// packet set collects its whole write vector before any `or` runs, and
/// the only disjunctions left are between packet sets that end up in the
/// same class anyway.
///
/// Feed it device by device ([`Netting::add`], or [`Netting::add_mapped`]
/// for the tables of a [`BulkMap`]) so that only the distinct predicates
/// stay rooted while the map phase runs.
#[derive(Default)]
pub struct Netting {
    /// Predicate → position in `groups`. `Pred` hashes its immutable
    /// (node, engine) ids — this program's own — so the cheap mix is enough
    /// and its interior root count never touches the key.
    index: HashMap<Pred, usize, MixBuildHasher>,
    /// One `(pred, writes)` group per distinct predicate, first seen first.
    groups: Vec<Overwrite>,
    /// Per slot of the bulk map's current template: the group its
    /// predicate is filed under, [`FREE`] for an empty one.
    slots: Vec<u32>,
}

impl Netting {
    pub fn new() -> Self {
        Netting::default()
    }

    /// Files every atomic overwrite under its predicate.
    pub fn add(&mut self, atomics: Vec<AtomicOverwrite>) {
        for a in atomics {
            let g = self.group(a.pred);
            self.groups[g].writes.push((a.device, a.action));
        }
    }

    /// Files the atomic overwrites of one device table as [`BulkMap::map`]
    /// returned it — `table` without its default rule, `template` the
    /// map's [`BulkMap::template`] when the map made this table its new
    /// template — and returns how many there were (the non-empty
    /// predicates).
    ///
    /// A new template's predicates are filed once per slot, and each slot
    /// remembers its group. A rule that takes its template slot's
    /// predicate then appends its write to that slot's group: no predicate
    /// handle, no hash probe. Fresh predicates are filed as by
    /// [`Netting::add`]. The groups, their order and their writes are
    /// those `add` builds from the same tables' atomic overwrites.
    pub fn add_mapped(
        &mut self,
        device: DeviceId,
        table: &[Rule],
        effective: Vec<Mapped>,
        template: Option<&[Pred]>,
    ) -> u64 {
        if let Some(preds) = template {
            let slots = preds
                .iter()
                .map(|p| if p.is_false() { FREE } else { self.group(p.clone()) as u32 })
                .collect();
            self.slots = slots;
        }
        let mut atomics = 0;
        for (r, e) in table.iter().zip(effective) {
            let g = match e {
                Mapped::Slot(j) => self.slots[j as usize],
                Mapped::Fresh(p) if p.is_false() => FREE,
                Mapped::Fresh(p) => self.group(p) as u32,
            };
            if g != FREE {
                self.groups[g as usize].writes.push((device, r.action));
                atomics += 1;
            }
        }
        atomics
    }

    /// The group of `pred`, opened (with no writes) if it is new.
    fn group(&mut self, pred: Pred) -> usize {
        if let Some(&g) = self.index.get(&pred) {
            return g;
        }
        let g = self.groups.len();
        self.index.insert(pred.clone(), g);
        self.groups.push(Overwrite { pred, writes: Vec::new() });
        g
    }

    /// Merges the groups whose write sets are identical (one batched
    /// `or_many` each) and returns the compact overwrites, in first-seen
    /// order of their write sets.
    pub fn finish(self, engine: &mut PredEngine) -> Vec<Overwrite> {
        drop(self.index);
        let mut slot: HashMap<Vec<(DeviceId, ActionId)>, usize, MixBuildHasher> =
            HashMap::default();
        let mut preds: Vec<Vec<Pred>> = Vec::new();
        for mut g in self.groups {
            // Canonical order, so that equal sets are equal sequences
            // however the caller interleaved its devices. A FIB holding
            // one rule twice repeats its write; that is the same write.
            g.writes.sort_unstable_by_key(|(d, a)| (d.0, a.0));
            g.writes.dedup();
            debug_assert!(
                g.writes.windows(2).all(|w| w[0].0 != w[1].0),
                "one device wrote two actions to the same predicate"
            );
            let next = preds.len();
            let i = *slot.entry(g.writes).or_insert(next);
            if i == next {
                preds.push(Vec::new());
            }
            preds[i].push(g.pred);
        }
        let mut out: Vec<Overwrite> = preds
            .into_iter()
            .map(|mut ps| Overwrite {
                pred: if ps.len() == 1 { ps.remove(0) } else { engine.or_many(&ps) },
                writes: Vec::new(),
            })
            .collect();
        for (writes, i) in slot {
            out[i].writes = writes;
        }
        out
    }
}

/// Reduce I as the paper states it — aggregation by action (Theorem 4):
/// atomic overwrites that write the same `(device, action)` merge by
/// disjoining predicates. Kept as the reference [`Netting`] is tested
/// against.
#[cfg(test)]
pub(crate) fn reduce_by_action(
    engine: &mut PredEngine,
    atomics: &[AtomicOverwrite],
) -> Vec<AtomicOverwrite> {
    let mut index: HashMap<(DeviceId, ActionId), usize> = HashMap::new();
    let mut groups: Vec<(DeviceId, ActionId, Vec<&Pred>)> = Vec::new();
    for a in atomics {
        match index.get(&(a.device, a.action)) {
            Some(&i) => groups[i].2.push(&a.pred),
            None => {
                index.insert((a.device, a.action), groups.len());
                groups.push((a.device, a.action, vec![&a.pred]));
            }
        }
    }
    groups
        .into_iter()
        .map(|(device, action, preds)| AtomicOverwrite {
            pred: engine.or_many(preds),
            device,
            action,
        })
        .collect()
}

/// Reduce II as the paper states it — aggregation by predicate (Theorem
/// 5) over the output of [`reduce_by_action`]. Reference only.
#[cfg(test)]
pub(crate) fn reduce_by_predicate(atomics: &[AtomicOverwrite]) -> Vec<Overwrite> {
    #[allow(clippy::mutable_key_type)]
    let mut index: HashMap<Pred, usize> = HashMap::new();
    let mut out: Vec<Overwrite> = Vec::new();
    for a in atomics {
        match index.get(&a.pred) {
            Some(&i) => {
                assert!(
                    !out[i].writes.iter().any(|(d, _)| *d == a.device),
                    "one device wrote two actions to the same predicate"
                );
                out[i].writes.push((a.device, a.action));
            }
            None => {
                index.insert(a.pred.clone(), out.len());
                out.push(Overwrite {
                    pred: a.pred.clone(),
                    writes: vec![(a.device, a.action)],
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_netmodel::{ActionTable, Match};

    fn layout() -> HeaderLayout {
        HeaderLayout::new(&[("dst", 8)])
    }

    fn rule(l: &HeaderLayout, val: u64, len: u32, prio: i64, a: ActionId) -> Rule {
        Rule::new(Match::dst_prefix(l, val, len), prio, a)
    }

    /// The accumulated map of `diff`, as atomic overwrites of `dev`.
    fn map(
        e: &mut PredEngine,
        l: &HeaderLayout,
        dev: DeviceId,
        fib: &Fib,
        diff: &[Rule],
        clip: &Pred,
    ) -> Vec<AtomicOverwrite> {
        let effective =
            calculate_atomic_overwrites(e, l, fib, diff, clip, &mut MatchMemo::disabled());
        atomic_overwrites(dev, diff, effective)
    }

    #[test]
    fn cancel_removes_insert_delete_pairs() {
        let l = layout();
        let mut at = ActionTable::new();
        let a1 = at.fwd(DeviceId(1));
        let r = rule(&l, 0xA0, 4, 1, a1);
        let block = vec![RuleUpdate::insert(r), RuleUpdate::delete(r)];
        assert!(cancel_updates(&block).is_empty());
        // delete-then-insert also cancels (net zero)
        let block = vec![RuleUpdate::delete(r), RuleUpdate::insert(r)];
        assert!(cancel_updates(&block).is_empty());
        // unbalanced: one insert survives
        let block = vec![
            RuleUpdate::insert(r),
            RuleUpdate::delete(r),
            RuleUpdate::insert(r),
        ];
        let kept = cancel_updates(&block);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].op, RuleOp::Insert);
        // The net effect, not the last update, survives.
        let block = vec![
            RuleUpdate::insert(r),
            RuleUpdate::insert(r),
            RuleUpdate::delete(r),
        ];
        assert_eq!(cancel_updates(&block), vec![RuleUpdate::insert(r)]);
        // A rule inserted twice is held twice, as one update at a time.
        let block = vec![RuleUpdate::insert(r), RuleUpdate::insert(r)];
        assert_eq!(cancel_updates(&block), block);
        let mut fib = Fib::new(&l);
        merge_block_and_diff(&mut fib, &cancel_updates(&block), &l);
        merge_block_and_diff(&mut fib, &[RuleUpdate::delete(r)], &l);
        assert_eq!(fib.rules()[..fib.len() - 1], [r]);
    }

    #[test]
    fn merge_insert_collects_new_rule_as_expanding() {
        let l = layout();
        let mut at = ActionTable::new();
        let a1 = at.fwd(DeviceId(1));
        let mut fib = Fib::new(&l);
        let r = rule(&l, 0xA0, 4, 5, a1);
        let res = merge_block_and_diff(&mut fib, &[RuleUpdate::insert(r)], &l);
        assert_eq!(res.diff, vec![r]);
        assert_eq!(fib.len(), 2);
        assert_eq!(fib.rules()[0], r);
    }

    #[test]
    fn merge_delete_marks_lower_rules_expanding() {
        let l = layout();
        let mut at = ActionTable::new();
        let a1 = at.fwd(DeviceId(1));
        let a2 = at.fwd(DeviceId(2));
        let mut fib = Fib::new(&l);
        let high = rule(&l, 0xA0, 4, 10, a1);
        let apart = rule(&l, 0x10, 4, 7, a2); // disjoint from `high`
        let low = rule(&l, 0xA0, 2, 5, a2);
        for r in [high, apart, low] {
            fib.insert(r).unwrap();
        }
        let res = merge_block_and_diff(&mut fib, &[RuleUpdate::delete(high)], &l);
        // The lower rule the deleted match overlaps and the default rule
        // may expand; the disjoint one keeps its headers.
        assert_eq!(res.diff, vec![low, *fib.rules().last().unwrap()]);
        assert_eq!(fib.len(), 3);
    }

    #[test]
    fn swap_expands_only_the_reinserted_rule() {
        let l = layout();
        let mut at = ActionTable::new();
        let a1 = at.fwd(DeviceId(1));
        let a2 = at.fwd(DeviceId(2));
        let mut fib = Fib::new(&l);
        let high = rule(&l, 0x80, 1, 10, a1);
        let mid = rule(&l, 0xA0, 3, 8, a1);
        let low = rule(&l, 0xA0, 4, 6, a2);
        for r in [high, mid, low] {
            fib.insert(r).unwrap();
        }
        // Same match and priority, another action: the insert takes the
        // deleted rule's slot and nothing below it gains a header.
        let swapped = Rule::new(mid.mat, mid.priority, a2);
        let block = [RuleUpdate::delete(mid), RuleUpdate::insert(swapped)];
        let res = merge_block_and_diff(&mut fib, &block, &l);
        assert_eq!(res.diff, vec![swapped]);
        assert_eq!(fib.rules()[..3], [high, swapped, low]);
    }

    #[test]
    fn disjoint_delete_expands_only_the_default() {
        let l = layout();
        let mut at = ActionTable::new();
        let a1 = at.fwd(DeviceId(1));
        let mut fib = Fib::new(&l);
        let gone = rule(&l, 0xA0, 4, 10, a1);
        for r in [gone, rule(&l, 0x10, 4, 8, a1), rule(&l, 0x40, 2, 6, a1)] {
            fib.insert(r).unwrap();
        }
        let res = merge_block_and_diff(&mut fib, &[RuleUpdate::delete(gone)], &l);
        assert_eq!(res.diff, vec![*fib.rules().last().unwrap()]);
    }

    #[test]
    fn swap_past_a_shadowed_duplicate_expands_it() {
        // One match at one priority held twice, with different actions:
        // the first in the total order wins, the second is fully shadowed.
        // A swap whose new action sorts after the duplicate leaves the
        // duplicate first in the slot, so the duplicate must expand.
        let l = layout();
        let mut at = ActionTable::new();
        let a1 = at.fwd(DeviceId(1));
        let a2 = at.fwd(DeviceId(2));
        let a3 = at.fwd(DeviceId(3));
        assert!(a1 < a2 && a2 < a3);
        let m = Match::dst_prefix(&l, 0xA0, 4);
        let (first, dup, swapped) = (Rule::new(m, 5, a1), Rule::new(m, 5, a2), Rule::new(m, 5, a3));
        let mut fib = Fib::new(&l);
        fib.insert(first).unwrap();
        fib.insert(dup).unwrap();
        let block = [RuleUpdate::delete(first), RuleUpdate::insert(swapped)];
        let res = merge_block_and_diff(&mut fib, &block, &l);
        assert_eq!(fib.rules()[..2], [dup, swapped]);
        assert!(res.diff.contains(&dup), "the duplicate now owns the match");
        let mut e = PredEngine::new(8);
        let t = e.true_pred();
        let ows = map(&mut e, &l, DeviceId(0), &fib, &res.diff, &t);
        assert!(ows.iter().any(|o| o.action == a2 && e.sat_count(&o.pred) == 16.0));
        assert!(ows.iter().all(|o| o.action != a3), "the swapped-in rule is shadowed");
    }

    /// The independent oracle for the expanding set: each rule's header
    /// set before and after a block, by enumerating the 256 headers of an
    /// 8-bit layout and taking the first rule of the table that covers
    /// each. No predicate is built. A rule the diff leaves out must not
    /// have gained a header.
    #[test]
    fn diff_covers_every_rule_whose_header_set_grew() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::collections::HashSet;

        let l = layout();
        let mut rng = StdRng::seed_from_u64(0x0DD5_EED5);
        // Few prefixes and priorities, so that rules repeat a (match,
        // priority) pair and shadow each other.
        let prefixes: Vec<(u64, u32)> = (0..8)
            .map(|_| {
                let len = rng.gen_range(1..=8u32);
                ((rng.gen_range(0u64..256) >> (8 - len)) << (8 - len), len)
            })
            .collect();
        let mut span: HashMap<Match, (u64, u32)> = prefixes
            .iter()
            .map(|&(v, len)| (Match::dst_prefix(&l, v, len), (v, len)))
            .collect();
        span.insert(Match::any(&l), (0, 0));
        let covers = |r: &Rule, h: u64| {
            let (v, len) = span[&r.mat];
            (h ^ v) >> (8 - len) == 0
        };
        let header_sets = |fib: &Fib| {
            let mut sets: HashMap<Rule, HashSet<u64>> = HashMap::new();
            for h in 0..256u64 {
                let first = fib.rules().iter().find(|r| covers(r, h)).expect("the default covers all");
                sets.entry(*first).or_default().insert(h);
            }
            sets
        };
        let random_rule = |rng: &mut StdRng| {
            let (v, len) = prefixes[rng.gen_range(0..prefixes.len())];
            let action = ActionId(rng.gen_range(1u32..4));
            Rule::new(Match::dst_prefix(&l, v, len), rng.gen_range(0i64..3), action)
        };

        let (mut unshadowed, mut swaps) = (0, 0);
        for _ in 0..400 {
            // No `cancel_updates` on the seed: a rule may go in twice.
            let seed: Vec<RuleUpdate> = (0..rng.gen_range(0..10))
                .map(|_| RuleUpdate::insert(random_rule(&mut rng)))
                .collect();
            let mut fib = Fib::new(&l);
            merge_block_and_diff(&mut fib, &seed, &l);
            let installed = fib.rules()[..fib.len() - 1].to_vec();
            let mut block = Vec::new();
            for _ in 0..rng.gen_range(1..5) {
                match rng.gen_range(0..3) {
                    0 if !installed.is_empty() => {
                        block.push(RuleUpdate::delete(installed[rng.gen_range(0..installed.len())]));
                    }
                    1 if !installed.is_empty() => {
                        let old = installed[rng.gen_range(0..installed.len())];
                        let action = ActionId(rng.gen_range(1u32..4));
                        block.push(RuleUpdate::delete(old));
                        block.push(RuleUpdate::insert(Rule::new(old.mat, old.priority, action)));
                        swaps += 1;
                    }
                    _ => block.push(RuleUpdate::insert(random_rule(&mut rng))),
                }
            }
            let before = header_sets(&fib);
            let res = merge_block_and_diff(&mut fib, &cancel_updates(&block), &l);
            for (r, after) in header_sets(&fib) {
                if before.get(&r).is_none_or(|b| !after.is_subset(b)) {
                    assert!(res.diff.contains(&r), "{r:?} gained headers, diff {:?}", res.diff);
                    unshadowed += usize::from(before.contains_key(&r));
                }
            }
        }
        assert!(swaps > 0 && unshadowed > 0, "no block un-shadowed a surviving rule");
    }

    #[test]
    fn merge_mixed_block() {
        let l = layout();
        let mut at = ActionTable::new();
        let a1 = at.fwd(DeviceId(1));
        let a2 = at.fwd(DeviceId(2));
        let mut fib = Fib::new(&l);
        let r1 = rule(&l, 0x80, 1, 10, a1);
        let r2 = rule(&l, 0x40, 2, 8, a1);
        let r3 = rule(&l, 0x20, 3, 6, a1);
        fib.insert(r1).unwrap();
        fib.insert(r2).unwrap();
        fib.insert(r3).unwrap();
        // Delete r2 and insert a new rule between r2 and r3.
        let rnew = rule(&l, 0x60, 3, 7, a2);
        let res = merge_block_and_diff(
            &mut fib,
            &[RuleUpdate::delete(r2), RuleUpdate::insert(rnew)],
            &l,
        );
        // rnew expands (new) and so does the default (below the deleted
        // r2, which it overlaps); r3 is disjoint from r2.
        assert_eq!(res.diff, vec![rnew, *fib.rules().last().unwrap()]);
        assert!(!res.diff.contains(&r3));
        let prios: Vec<i64> = fib.rules().iter().map(|r| r.priority).collect();
        assert_eq!(prios, vec![10, 7, 6, i64::MIN]);
    }

    #[test]
    fn atomic_overwrites_shadowing() {
        let l = layout();
        let mut at = ActionTable::new();
        let a1 = at.fwd(DeviceId(1));
        let a2 = at.fwd(DeviceId(2));
        let mut e = PredEngine::new(8);
        let t = e.true_pred();
        let mut fib = Fib::new(&l);
        // Existing high-priority rule shadows half of the new rule.
        let shadow = rule(&l, 0xA0, 5, 10, a1); // 10100/5
        fib.insert(shadow).unwrap();
        let newr = rule(&l, 0xA0, 4, 5, a2); // 1010/4, shadowed on its 0xA0-0xA7 half
        let res = merge_block_and_diff(&mut fib, &[RuleUpdate::insert(newr)], &l);
        let ows = map(&mut e, &l, DeviceId(0), &fib, &res.diff, &t);
        assert_eq!(ows.len(), 1);
        assert_eq!(e.sat_count(&ows[0].pred), 8.0); // 16 - 8 shadowed
        assert_eq!(ows[0].action, a2);
    }

    #[test]
    fn fully_shadowed_rule_produces_no_overwrite() {
        let l = layout();
        let mut at = ActionTable::new();
        let a1 = at.fwd(DeviceId(1));
        let a2 = at.fwd(DeviceId(2));
        let mut e = PredEngine::new(8);
        let t = e.true_pred();
        let mut fib = Fib::new(&l);
        fib.insert(rule(&l, 0xA0, 4, 10, a1)).unwrap();
        // New rule entirely inside the shadow, lower priority.
        let newr = rule(&l, 0xA8, 5, 5, a2);
        let res = merge_block_and_diff(&mut fib, &[RuleUpdate::insert(newr)], &l);
        let ows = map(&mut e, &l, DeviceId(0), &fib, &res.diff, &t);
        assert!(ows.is_empty());
    }

    #[test]
    fn reduce_by_action_merges_predicates() {
        let mut e = PredEngine::new(8);
        let p1 = e.prefix(0, 8, 0xA0, 4);
        let p2 = e.prefix(0, 8, 0xB0, 4);
        let atomics = vec![
            AtomicOverwrite { pred: p1.clone(), device: DeviceId(0), action: ActionId(1) },
            AtomicOverwrite { pred: p2.clone(), device: DeviceId(0), action: ActionId(1) },
            AtomicOverwrite { pred: p1.clone(), device: DeviceId(1), action: ActionId(1) },
        ];
        let reduced = reduce_by_action(&mut e, &atomics);
        assert_eq!(reduced.len(), 2);
        let union = e.or(&p1, &p2);
        assert_eq!(reduced[0].pred, union);
    }

    #[test]
    fn reduce_by_predicate_groups_writes() {
        let mut e = PredEngine::new(8);
        let p = e.prefix(0, 8, 0xA0, 4);
        let q = e.prefix(0, 8, 0xC0, 4);
        let atomics = vec![
            AtomicOverwrite { pred: p.clone(), device: DeviceId(0), action: ActionId(1) },
            AtomicOverwrite { pred: p.clone(), device: DeviceId(1), action: ActionId(2) },
            AtomicOverwrite { pred: q.clone(), device: DeviceId(2), action: ActionId(3) },
        ];
        let ows = reduce_by_predicate(&atomics);
        assert_eq!(ows.len(), 2);
        assert_eq!(ows[0].writes.len(), 2);
        assert_eq!(ows[1].writes.len(), 1);
    }

    #[test]
    fn netting_groups_by_predicate_then_by_write_set() {
        let mut e = PredEngine::new(8);
        let p = e.prefix(0, 8, 0xA0, 4);
        let q = e.prefix(0, 8, 0xC0, 4);
        let r = e.prefix(0, 8, 0x10, 4);
        let at = |pred: &Pred, d: u32, a: u32| AtomicOverwrite {
            pred: pred.clone(),
            device: DeviceId(d),
            action: ActionId(a),
        };
        let mut net = Netting::new();
        // Device 1 first, device 0 second: the write sets of p and q are
        // the same set in the same canonical order.
        net.add(vec![at(&p, 1, 7), at(&q, 1, 7), at(&r, 1, 8)]);
        net.add(vec![at(&q, 0, 3), at(&p, 0, 3)]);
        let ows = net.finish(&mut e);
        assert_eq!(ows.len(), 2);
        assert_eq!(ows[0].pred, e.or(&p, &q));
        assert_eq!(
            ows[0].writes,
            vec![(DeviceId(0), ActionId(3)), (DeviceId(1), ActionId(7))]
        );
        assert_eq!(ows[1].pred, r);
        assert_eq!(ows[1].writes, vec![(DeviceId(1), ActionId(8))]);
    }

    #[test]
    fn netting_of_one_device_is_reduce_one() {
        let mut e = PredEngine::new(8);
        let atomics: Vec<AtomicOverwrite> = (0..12u64)
            .map(|i| AtomicOverwrite {
                pred: e.prefix(0, 8, i << 4, 4),
                device: DeviceId(4),
                action: ActionId((i % 3) as u32 + 1),
            })
            .collect();
        let want = reduce_by_predicate(&reduce_by_action(&mut e, &atomics));
        let mut net = Netting::new();
        net.add(atomics);
        assert_eq!(net.finish(&mut e), want);
    }

    #[test]
    fn trie_variant_matches_accumulated_variant() {
        // Same expanding rules, same FIB → identical atomic overwrites,
        // whichever shadow-computation strategy is used.
        let l = layout();
        let mut at = ActionTable::new();
        let mut e = PredEngine::new(8);
        let t = e.true_pred();
        let mut fib = Fib::new(&l);
        // A pile of overlapping rules at various priorities.
        let mut state = 0x5EEDu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..24u64 {
            let len = 1 + (next() % 7) as u32;
            let v = ((next() & 0xFF) >> (8 - len)) << (8 - len);
            let a = at.fwd(DeviceId(100 + (i % 4) as u32));
            let _ = fib.insert(rule(&l, v, len, (next() % 12) as i64, a));
        }
        // A block of inserts to decompose.
        let a9 = at.fwd(DeviceId(99));
        let block: Vec<RuleUpdate> = (0..6u64)
            .map(|i| RuleUpdate::insert(rule(&l, (i * 40) & 0xE0, 3, 20 + i as i64, a9)))
            .collect();
        let res = merge_block_and_diff(&mut fib, &block, &l);
        let acc = map(&mut e, &l, DeviceId(0), &fib, &res.diff, &t);
        let trie = crate::mr2::build_rule_trie(&l, &fib);
        let via_trie = calculate_atomic_overwrites_trie(
            &mut e,
            &l,
            DeviceId(0),
            &trie,
            &res.diff,
            &t,
            &mut MatchMemo::disabled(),
        );
        assert_eq!(acc.len(), via_trie.len());
        for (a, b) in acc.iter().zip(via_trie.iter()) {
            assert_eq!(a.pred, b.pred, "hash-consed predicates must be identical");
            assert_eq!(a.action, b.action);
        }
    }

    #[test]
    fn figure2_scenario() {
        // The running example of the paper (Figure 2): 3 switches, insert
        // two HTTP rules on each; after MR2 the six updates compact into
        // few overwrites and the model gains exactly one new class.
        let l = HeaderLayout::new(&[("dst", 8), ("port", 4)]);
        let mut at = ActionTable::new();
        let (s1, s2, s3) = (DeviceId(0), DeviceId(1), DeviceId(2));
        let (host_a, gw) = (DeviceId(3), DeviceId(4));
        let http = 0x8u64; // pretend port nibble 0x8 is HTTP

        let mut e = PredEngine::new(l.total_bits());
        let t = e.true_pred();
        let mut pat = crate::pat::PatStore::new();
        let mut model = crate::model::InverseModel::new(e.true_pred());
        let mut fibs = [Fib::new(&l), Fib::new(&l), Fib::new(&l)];

        // Initial data plane (Figure 2 left): S1 forwards the two subnets
        // to A, default to S3; S2 default to S1... (abridged: S1 rules only
        // matter for the class structure here).
        let a_to_a = at.fwd(host_a);
        let a_to_s3 = at.fwd(s3);
        let a_to_s1 = at.fwd(s1);
        let a_to_s2 = at.fwd(s2);
        let a_to_gw = at.fwd(gw);
        let subnet1 = Match::dst_prefix(&l, 0x10, 8); // "10.0.1.0/24"
        let subnet2 = Match::dst_prefix(&l, 0x20, 8); // "10.0.2.0/24"

        let init: Vec<(usize, Rule)> = vec![
            (0, Rule::new(subnet1, 2, a_to_a)),
            (0, Rule::new(subnet2, 1, a_to_a)),
            (0, Rule::new(Match::any(&l), 0, a_to_s3)),
            (1, Rule::new(Match::any(&l), 0, a_to_s1)),
            (2, Rule::new(subnet1, 2, a_to_s1)),
            (2, Rule::new(subnet2, 1, a_to_s1)),
            (2, Rule::new(Match::any(&l), 0, a_to_gw)),
        ];
        for (dev, r) in init {
            let block = vec![RuleUpdate::insert(r)];
            let res = merge_block_and_diff(&mut fibs[dev], &block, &l);
            let ows = map(&mut e, &l, DeviceId(dev as u32), &fibs[dev], &res.diff, &t);
            let mut net = Netting::new();
            net.add(ows);
            let ows = net.finish(&mut e);
            model.apply_overwrites(&mut e, &mut pat, &ows);
        }
        model.check_invariants(&mut e).unwrap();
        let classes_before = model.len();

        // The update block: +HTTP rules on all 3 switches (Figure 2 right).
        let mk_http = |m: &Match| {
            (*m).with(
                flash_netmodel::FieldId(1),
                flash_netmodel::MatchKind::Exact(http),
            )
        };
        let updates: Vec<(usize, Vec<RuleUpdate>)> = vec![
            (
                0,
                vec![
                    RuleUpdate::insert(Rule::new(mk_http(&subnet1), 3, a_to_a)),
                    RuleUpdate::insert(Rule::new(mk_http(&subnet2), 3, a_to_a)),
                ],
            ),
            (
                1,
                vec![
                    RuleUpdate::insert(Rule::new(mk_http(&subnet1), 3, a_to_s1)),
                    RuleUpdate::insert(Rule::new(mk_http(&subnet2), 3, a_to_s1)),
                ],
            ),
            (
                2,
                vec![
                    RuleUpdate::insert(Rule::new(mk_http(&subnet1), 3, a_to_s2)),
                    RuleUpdate::insert(Rule::new(mk_http(&subnet2), 3, a_to_s2)),
                ],
            ),
        ];
        let mut all_atomics = Vec::new();
        for (dev, block) in updates {
            let block = cancel_updates(&block);
            let res = merge_block_and_diff(&mut fibs[dev], &block, &l);
            all_atomics.extend(map(&mut e, &l, DeviceId(dev as u32), &fibs[dev], &res.diff, &t));
        }
        // 6 native updates → 6 atomic overwrites…
        assert_eq!(all_atomics.len(), 6);
        let r1 = reduce_by_action(&mut e, &all_atomics);
        // …→ 3 after Reduce I (each device's two HTTP predicates merge)…
        assert_eq!(r1.len(), 3);
        let r2 = reduce_by_predicate(&r1);
        // …→ 1 compact overwrite after Reduce II (same predicate p3).
        assert_eq!(r2.len(), 1);
        assert_eq!(r2[0].writes.len(), 3);
        // The netting reaches the same overwrite the other way round: two
        // predicates with three writes each, then one shared write set.
        let mut net = Netting::new();
        net.add(all_atomics);
        let netted = net.finish(&mut e);
        assert_eq!(netted, r2);

        model.apply_overwrites(&mut e, &mut pat, &r2);
        model.check_invariants(&mut e).unwrap();
        // Exactly one new equivalence class (the HTTP-to-subnets class).
        assert_eq!(model.len(), classes_before + 1);
    }
}
