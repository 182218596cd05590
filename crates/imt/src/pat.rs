//! Persistent action tree (PAT), §3.4 of the paper.
//!
//! An equivalence class carries an `N`-dimension action vector — the action
//! every device applies to packets in the class. Storing vectors as arrays
//! makes the common operation (overwrite the actions of a few devices)
//! `O(N)` in time and space. The PAT instead stores the vector as a
//! **persistent balanced binary search tree** keyed by device id: an
//! overwrite copies only the path from the root to each modified key,
//! `O(‖Δy‖ · log ‖y‖)`.
//!
//! Two extra properties make the PAT effective for the inverse model:
//!
//! * **Canonical shape.** The tree is a treap whose heap priority is a
//!   fixed hash of the key, so a given key→value map has exactly one shape.
//! * **Hash consing.** Nodes are interned, so equal subtrees are the same
//!   arena index, vector equality is `PatId == PatId`, and the structural
//!   sharing the paper relies on is automatic.
//!
//! Devices absent from a tree implicitly take the default action
//! (`ACTION_DROP`), which keeps initial all-default vectors at the empty
//! tree [`PAT_NIL`].
//!
//! ## Collection
//!
//! The arena only grows: an overwrite path-copies, and nothing is freed
//! when a vector stops being used. `PatStore::compact` copies the trees
//! reachable from a set of roots (the model's vectors) into a fresh arena
//! and returns the old → new id of every copied node; whoever holds a
//! `PatId` renames it through that map, and an id missing from it was
//! dead. The copies are interned like the originals, so vector equality
//! stays id equality. [`crate::ModelManager`] compacts in `gc()` and at
//! the end of a flush once the arena has doubled since its last
//! compaction.

use flash_bdd::MixBuildHasher;
use flash_netmodel::{ActionId, DeviceId, ACTION_DROP};
use std::collections::HashMap;

/// Index of a PAT node in a [`PatStore`]. `PAT_NIL` is the empty tree.
pub type PatId = u32;

/// Old → new ids of the nodes a `PatStore::compact` kept.
pub(crate) type PatRemap = HashMap<PatId, PatId, MixBuildHasher>;

/// The empty action vector (every device at the default action).
pub const PAT_NIL: PatId = 0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PatNode {
    key: u32,   // device id
    value: u32, // action id
    left: PatId,
    right: PatId,
}

impl std::hash::Hash for PatNode {
    /// Two packed words, so the intern table's hasher mixes twice per `mk`.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(((self.key as u64) << 32) | self.value as u64);
        state.write_u64(((self.left as u64) << 32) | self.right as u64);
    }
}

/// splitmix64 — the treap priority of a key. Deterministic across runs.
fn prio(key: u32) -> u64 {
    let mut z = (key as u64).wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Total priority order: hash first, key as tiebreak.
fn prio_key(key: u32) -> (u64, u32) {
    (prio(key), key)
}

/// Arena + intern table for persistent action trees.
#[derive(Debug, Default)]
pub struct PatStore {
    nodes: Vec<PatNode>,
    /// Keys are this store's own arena indices and the caller's dense
    /// device/action ids, so the unique table's cheap mix is enough.
    intern: HashMap<PatNode, PatId, MixBuildHasher>,
}

impl PatStore {
    pub fn new() -> Self {
        let mut s = PatStore {
            nodes: Vec::new(),
            intern: HashMap::default(),
        };
        // Slot 0 is a sentinel so PAT_NIL == 0 is never a real node.
        s.nodes.push(PatNode {
            key: u32::MAX,
            value: u32::MAX,
            left: 0,
            right: 0,
        });
        s
    }

    /// Number of live nodes (excluding the sentinel).
    pub fn node_count(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Approximate resident bytes.
    pub fn approx_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<PatNode>() + self.intern.capacity() * 32
    }

    fn mk(&mut self, key: u32, value: u32, left: PatId, right: PatId) -> PatId {
        let n = PatNode {
            key,
            value,
            left,
            right,
        };
        if let Some(&id) = self.intern.get(&n) {
            return id;
        }
        let id = self.nodes.len() as PatId;
        self.nodes.push(n);
        self.intern.insert(n, id);
        id
    }

    fn node(&self, id: PatId) -> PatNode {
        debug_assert_ne!(id, PAT_NIL);
        self.nodes[id as usize]
    }

    /// The action of `dev` in vector `t` (default drop when absent).
    pub fn get(&self, t: PatId, dev: DeviceId) -> ActionId {
        let mut cur = t;
        while cur != PAT_NIL {
            let n = self.node(cur);
            cur = match dev.0.cmp(&n.key) {
                std::cmp::Ordering::Equal => return ActionId(n.value),
                std::cmp::Ordering::Less => n.left,
                std::cmp::Ordering::Greater => n.right,
            };
        }
        ACTION_DROP
    }

    /// True when `dev` has an explicit (non-default) entry.
    pub fn contains(&self, t: PatId, dev: DeviceId) -> bool {
        let mut cur = t;
        while cur != PAT_NIL {
            let n = self.node(cur);
            cur = match dev.0.cmp(&n.key) {
                std::cmp::Ordering::Equal => return true,
                std::cmp::Ordering::Less => n.left,
                std::cmp::Ordering::Greater => n.right,
            };
        }
        false
    }

    /// Splits `t` into keys `< key` and keys `> key`, discarding `key`.
    fn split(&mut self, t: PatId, key: u32) -> (PatId, PatId) {
        if t == PAT_NIL {
            return (PAT_NIL, PAT_NIL);
        }
        let n = self.node(t);
        match key.cmp(&n.key) {
            std::cmp::Ordering::Equal => (n.left, n.right),
            std::cmp::Ordering::Less => {
                let (ll, lr) = self.split(n.left, key);
                let right = self.mk(n.key, n.value, lr, n.right);
                (ll, right)
            }
            std::cmp::Ordering::Greater => {
                let (rl, rr) = self.split(n.right, key);
                let left = self.mk(n.key, n.value, n.left, rl);
                (left, rr)
            }
        }
    }

    /// Returns `t` with `dev → action` set (persistently).
    pub fn set(&mut self, t: PatId, dev: DeviceId, action: ActionId) -> PatId {
        let (key, value) = (dev.0, action.0);
        if t == PAT_NIL {
            return self.mk(key, value, PAT_NIL, PAT_NIL);
        }
        let n = self.node(t);
        if prio_key(key) > prio_key(n.key) {
            // New node becomes the root of this subtree.
            let (l, r) = self.split(t, key);
            return self.mk(key, value, l, r);
        }
        match key.cmp(&n.key) {
            std::cmp::Ordering::Equal => {
                if n.value == value {
                    t // no change: preserve sharing
                } else {
                    self.mk(key, value, n.left, n.right)
                }
            }
            std::cmp::Ordering::Less => {
                let nl = self.set(n.left, dev, action);
                if nl == n.left {
                    t
                } else {
                    self.mk(n.key, n.value, nl, n.right)
                }
            }
            std::cmp::Ordering::Greater => {
                let nr = self.set(n.right, dev, action);
                if nr == n.right {
                    t
                } else {
                    self.mk(n.key, n.value, n.left, nr)
                }
            }
        }
    }

    /// Merges two trees where every key of `l` precedes every key of `r`
    /// (standard treap merge).
    fn merge(&mut self, l: PatId, r: PatId) -> PatId {
        if l == PAT_NIL {
            return r;
        }
        if r == PAT_NIL {
            return l;
        }
        let (nl, nr) = (self.node(l), self.node(r));
        if prio_key(nl.key) > prio_key(nr.key) {
            let right = self.merge(nl.right, r);
            self.mk(nl.key, nl.value, nl.left, right)
        } else {
            let left = self.merge(l, nr.left);
            self.mk(nr.key, nr.value, left, nr.right)
        }
    }

    /// Returns `t` with `dev` removed (reverting it to the default action).
    pub fn remove(&mut self, t: PatId, dev: DeviceId) -> PatId {
        if t == PAT_NIL {
            return PAT_NIL;
        }
        let n = self.node(t);
        match dev.0.cmp(&n.key) {
            std::cmp::Ordering::Equal => self.merge(n.left, n.right),
            std::cmp::Ordering::Less => {
                let nl = self.remove(n.left, dev);
                if nl == n.left {
                    t
                } else {
                    self.mk(n.key, n.value, nl, n.right)
                }
            }
            std::cmp::Ordering::Greater => {
                let nr = self.remove(n.right, dev);
                if nr == n.right {
                    t
                } else {
                    self.mk(n.key, n.value, n.left, nr)
                }
            }
        }
    }

    /// Applies a partial overwrite `Δy` (Definition 2's `←` operator):
    /// every `(device, action)` write replaces that device's entry.
    pub fn overwrite(&mut self, t: PatId, writes: &[(DeviceId, ActionId)]) -> PatId {
        // A netted overwrite of a snapshot writes every device of the
        // network into the all-default vector: build that tree in one pass
        // instead of `writes.len()` path-copying inserts.
        if t == PAT_NIL && writes.len() > 1 && writes.windows(2).all(|w| w[0].0 .0 < w[1].0 .0) {
            let entries: Vec<((u64, u32), u32)> = writes
                .iter()
                .filter(|(_, act)| *act != ACTION_DROP)
                .map(|(dev, act)| (prio_key(dev.0), act.0))
                .collect();
            return self.build(&entries);
        }
        let mut cur = t;
        for &(dev, act) in writes {
            cur = if act == ACTION_DROP {
                // Normalize: default-action entries are kept implicit so
                // equal vectors always intern to the same id.
                self.remove(cur, dev)
            } else {
                self.set(cur, dev, act)
            };
        }
        cur
    }

    /// The canonical tree of `entries` (`((priority, key), value)`, keys
    /// ascending): the highest priority is the root, the entries before
    /// and after it are its subtrees — the shape [`Self::set`] arrives at
    /// one insert at a time, so the interned ids are the same.
    fn build(&mut self, entries: &[((u64, u32), u32)]) -> PatId {
        let Some(root) = (0..entries.len()).max_by_key(|&i| entries[i].0) else {
            return PAT_NIL;
        };
        let left = self.build(&entries[..root]);
        let right = self.build(&entries[root + 1..]);
        let ((_, key), value) = entries[root];
        self.mk(key, value, left, right)
    }

    /// Number of explicit (non-default) entries — `‖y‖≠0` in the paper.
    pub fn weight(&self, t: PatId) -> usize {
        if t == PAT_NIL {
            return 0;
        }
        let n = self.node(t);
        1 + self.weight(n.left) + self.weight(n.right)
    }

    /// In-order (device-ascending) enumeration of the explicit entries.
    pub fn entries(&self, t: PatId) -> Vec<(DeviceId, ActionId)> {
        let mut out = Vec::new();
        self.walk(t, &mut out);
        out
    }

    fn walk(&self, t: PatId, out: &mut Vec<(DeviceId, ActionId)>) {
        if t == PAT_NIL {
            return;
        }
        let n = self.node(t);
        self.walk(n.left, out);
        out.push((DeviceId(n.key), ActionId(n.value)));
        self.walk(n.right, out);
    }

    /// Builds a vector from entries (order-insensitive).
    pub fn from_entries(&mut self, entries: &[(DeviceId, ActionId)]) -> PatId {
        self.overwrite(PAT_NIL, entries)
    }

    /// Copies the trees reachable from `roots` into a fresh arena and drops
    /// every other node. Returns the new id of each copied node, `PAT_NIL`
    /// included; an id missing from the map was dead.
    pub(crate) fn compact(&mut self, roots: impl IntoIterator<Item = PatId>) -> PatRemap {
        let old = std::mem::replace(self, PatStore::new());
        let mut map = PatRemap::default();
        map.insert(PAT_NIL, PAT_NIL);
        for root in roots {
            self.copy_tree(&old, root, &mut map);
        }
        map
    }

    fn copy_tree(&mut self, old: &PatStore, t: PatId, map: &mut PatRemap) -> PatId {
        if let Some(&id) = map.get(&t) {
            return id;
        }
        let n = old.node(t);
        let left = self.copy_tree(old, n.left, map);
        let right = self.copy_tree(old, n.right, map);
        let id = self.mk(n.key, n.value, left, right);
        map.insert(t, id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: u32) -> DeviceId {
        DeviceId(i)
    }
    fn a(i: u32) -> ActionId {
        ActionId(i)
    }

    #[test]
    fn empty_tree_defaults_to_drop() {
        let store = PatStore::new();
        assert_eq!(store.get(PAT_NIL, d(7)), ACTION_DROP);
        assert_eq!(store.weight(PAT_NIL), 0);
        assert!(store.entries(PAT_NIL).is_empty());
    }

    #[test]
    fn set_get_roundtrip() {
        let mut s = PatStore::new();
        let t = s.set(PAT_NIL, d(3), a(5));
        assert_eq!(s.get(t, d(3)), a(5));
        assert_eq!(s.get(t, d(4)), ACTION_DROP);
        assert_eq!(s.weight(t), 1);
    }

    #[test]
    fn canonical_shape_insertion_order_insensitive() {
        let mut s = PatStore::new();
        let mut t1 = PAT_NIL;
        for i in 0..50u32 {
            t1 = s.set(t1, d(i), a(i + 100));
        }
        let mut t2 = PAT_NIL;
        for i in (0..50u32).rev() {
            t2 = s.set(t2, d(i), a(i + 100));
        }
        assert_eq!(t1, t2, "hash-consed treaps must be canonical");
    }

    #[test]
    fn one_pass_build_interns_the_same_tree_as_repeated_sets() {
        let mut s = PatStore::new();
        for n in [2u32, 3, 17, 200, 1279] {
            // Ascending devices with gaps and default-action holes.
            let writes: Vec<(DeviceId, ActionId)> =
                (0..n).map(|i| (d(3 * i + n), a((i * 7 + n) % 5))).collect();
            let mut by_sets = PAT_NIL;
            for &(dev, act) in writes.iter().rev() {
                by_sets = if act == ACTION_DROP { s.remove(by_sets, dev) } else { s.set(by_sets, dev, act) };
            }
            let nodes = s.node_count();
            assert_eq!(s.overwrite(PAT_NIL, &writes), by_sets, "{n} writes");
            assert_eq!(s.node_count(), nodes, "the one-pass build interned nothing new");
            assert_eq!(s.weight(by_sets), writes.iter().filter(|w| w.1 != ACTION_DROP).count());
        }
    }

    #[test]
    fn overwrite_is_persistent() {
        let mut s = PatStore::new();
        let base = s.from_entries(&[(d(1), a(10)), (d(2), a(20)), (d(3), a(30))]);
        let new = s.overwrite(base, &[(d(2), a(99))]);
        assert_eq!(s.get(base, d(2)), a(20), "original untouched");
        assert_eq!(s.get(new, d(2)), a(99));
        assert_eq!(s.get(new, d(1)), a(10));
        assert_eq!(s.get(new, d(3)), a(30));
    }

    #[test]
    fn idempotent_set_preserves_id() {
        let mut s = PatStore::new();
        let t = s.from_entries(&[(d(1), a(10)), (d(2), a(20))]);
        let t2 = s.overwrite(t, &[(d(1), a(10))]);
        assert_eq!(t, t2, "writing an identical value must not copy");
    }

    #[test]
    fn drop_writes_are_normalized_away() {
        let mut s = PatStore::new();
        let t = s.from_entries(&[(d(1), a(10))]);
        let t2 = s.overwrite(t, &[(d(1), ACTION_DROP)]);
        assert_eq!(t2, PAT_NIL);
    }

    #[test]
    fn remove_missing_is_noop() {
        let mut s = PatStore::new();
        let t = s.from_entries(&[(d(1), a(10))]);
        assert_eq!(s.remove(t, d(9)), t);
    }

    #[test]
    fn entries_sorted_by_device() {
        let mut s = PatStore::new();
        let t = s.from_entries(&[(d(5), a(1)), (d(1), a(2)), (d(3), a(3))]);
        let e = s.entries(t);
        assert_eq!(e, vec![(d(1), a(2)), (d(3), a(3)), (d(5), a(1))]);
    }

    #[test]
    fn structural_sharing_bounds_node_growth() {
        let mut s = PatStore::new();
        let mut t = PAT_NIL;
        for i in 0..1024u32 {
            t = s.set(t, d(i), a(1));
        }
        let before = s.node_count();
        // A single-device overwrite on a 1024-entry vector must allocate
        // O(log n) nodes, not O(n).
        let _t2 = s.set(t, d(512), a(2));
        let grown = s.node_count() - before;
        assert!(grown <= 64, "expected O(log n) new nodes, got {grown}");
    }

    #[test]
    fn compact_keeps_only_the_reachable_trees() {
        let mut s = PatStore::new();
        let keep = s.from_entries(&[(d(1), a(10)), (d(2), a(20)), (d(3), a(30))]);
        let mut dead = keep;
        for i in 0..40u32 {
            dead = s.set(dead, d(100 + i), a(i + 1));
        }
        let kept = s.entries(keep);
        let map = s.compact([keep, keep]);
        assert_eq!(s.entries(map[&keep]), kept);
        assert_eq!(s.node_count(), 3, "only the kept vector's nodes survive");
        assert!(!map.contains_key(&dead));
        // The copies are interned: building the vector again finds them.
        assert_eq!(s.from_entries(&kept), map[&keep]);
        assert_eq!(s.node_count(), 3);
    }

    #[test]
    fn contains_distinguishes_default() {
        let mut s = PatStore::new();
        let t = s.from_entries(&[(d(1), a(10))]);
        assert!(s.contains(t, d(1)));
        assert!(!s.contains(t, d(2)));
    }
}
