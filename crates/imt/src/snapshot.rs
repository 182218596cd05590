//! Epoch snapshots: immutable, thread-safe views of one manager's model
//! at a sealed epoch, for the concurrent query tier.
//!
//! A snapshot is **cheap**: `O(classes)` handle clones and one decoded
//! action vector per *distinct* live `PatId` (memoized by the manager).
//! A snapshot keeps the decoded vectors, never `PatId`s, so the PAT
//! compaction that renames every `PatId` leaves it untouched. No BDD
//! structure is copied. Instead, each class predicate's root id is exported
//! alongside a [`NodeView`] over the owning engine's non-moving node
//! arena, and the manager keeps a **pin** — live [`Pred`] clones of
//! every class — for as long as the snapshot has holders. Pinned roots
//! survive the engine's mark-sweep collections with ids and structure
//! intact, which is exactly the [`NodeView`] safety contract.
//!
//! ## Lifecycle
//!
//! [`crate::ModelManager::publish_snapshot`] exports the current model
//! under a caller-supplied epoch sequence and registers the pin. Each
//! snapshot carries a liveness token (`Arc`); the manager holds only a
//! `Weak` and prunes dead pins at the next publish (or explicitly via
//! [`crate::ModelManager::retire_snapshots`]). Dropping the last
//! `Arc<EpochSnapshot>` therefore releases the roots, and the next
//! collection in the owning engine reclaims whatever the live model no
//! longer reaches — old epochs cost nothing once unpinned.
//!
//! ## Consistency
//!
//! A snapshot is built between flushes, so it observes **exactly one
//! sealed epoch**: every class predicate and action vector comes from
//! the same post-apply model state, and the structure it references is
//! frozen by the pin. Queries against it never block — and are never
//! blocked by — ingestion in the owning manager.

use flash_bdd::{NodeId, NodeView};
use flash_netmodel::{ActionId, DeviceId, HeaderLayout, Match, MatchKind, RuleUpdate};
use std::sync::Arc;

use crate::subspace::SubspaceSpec;

/// One frozen equivalence class: the root of its predicate in the
/// owning engine's arena, its engine-independent fingerprint, and its
/// decoded forwarding vector (device-ascending, explicit non-drop
/// entries only — absent devices forward with the default drop action).
#[derive(Clone, Debug)]
pub struct SnapshotClass {
    /// Predicate root; only meaningful through the snapshot's [`NodeView`].
    pub root: NodeId,
    /// Canonical cross-engine class fingerprint (see
    /// [`crate::ModelManager::class_keys`]).
    pub fingerprint: u64,
    /// Decoded action vector, shared across snapshots of the same epoch
    /// lineage (memoized per `PatId`).
    pub vector: Arc<Vec<(DeviceId, ActionId)>>,
}

impl SnapshotClass {
    /// The action this class's headers take at `dev`, or `None` when the
    /// device forwards with its default (drop) action.
    pub fn action_at(&self, dev: DeviceId) -> Option<ActionId> {
        self.vector
            .binary_search_by_key(&dev.0, |(d, _)| d.0)
            .ok()
            .map(|i| self.vector[i].1)
    }
}

/// An immutable, `Send + Sync` view of one subspace model at a sealed
/// epoch. See the module docs for lifecycle and consistency.
pub struct EpochSnapshot {
    /// The epoch sequence this snapshot observes (caller-assigned,
    /// monotone per manager).
    pub seq: u64,
    /// The subspace the owning manager is responsible for.
    pub subspace: SubspaceSpec,
    /// Header layout shared by every predicate and match in this space.
    pub layout: HeaderLayout,
    /// Thread-safe read surface over the owning engine's node arena.
    pub view: NodeView,
    /// The frozen equivalence classes.
    pub classes: Vec<SnapshotClass>,
    /// Liveness token: the owning manager holds a `Weak` to this and
    /// keeps the class roots pinned while any holder remains.
    _alive: Arc<()>,
}

/// The manager-side pin of one published snapshot: live `Pred` clones
/// keeping every class root alive, dropped once no snapshot holder
/// remains.
pub(crate) struct SnapshotPin {
    pub(crate) seq: u64,
    /// Never read — held solely so the engine's root set keeps the
    /// snapshot's nodes alive until this pin is dropped.
    pub(crate) _preds: Vec<flash_bdd::Pred>,
    pub(crate) alive: std::sync::Weak<()>,
}

impl EpochSnapshot {
    pub(crate) fn new(
        seq: u64,
        subspace: SubspaceSpec,
        layout: HeaderLayout,
        view: NodeView,
        classes: Vec<SnapshotClass>,
        alive: Arc<()>,
    ) -> Self {
        EpochSnapshot { seq, subspace, layout, view, classes, _alive: alive }
    }

    /// The class containing the concrete header `bits` (indexed by
    /// header bit). Classes are mutually exclusive, so the first `eval` hit
    /// is the answer; headers outside this subspace return `None`.
    pub fn classify(&self, bits: &[bool]) -> Option<&SnapshotClass> {
        self.classes.iter().find(|c| self.view.eval(c.root, bits))
    }

    /// Every class whose predicate intersects the partial assignment
    /// `constraint` (indexed by header bit, `None` = free).
    pub fn intersecting<'a>(
        &'a self,
        constraint: &'a [Option<bool>],
    ) -> impl Iterator<Item = &'a SnapshotClass> + 'a {
        let constraint = self.view.constrain(constraint);
        self.classes.iter().filter(move |c| self.view.intersects(c.root, &constraint))
    }

    /// A partial assignment constraining `field` to the `len`-bit prefix
    /// `value` (MSB-first within the field, matching the encoders).
    pub fn prefix_constraint(&self, field: usize, value: u64, len: u32) -> Vec<Option<bool>> {
        let mut c = vec![None; self.layout.total_bits() as usize];
        let spec = self.layout.field(flash_netmodel::FieldId(field as u32));
        let len = len.min(spec.width);
        for i in 0..len {
            let bit = (value >> (spec.width - 1 - i)) & 1 == 1;
            c[(spec.offset + i) as usize] = Some(bit);
        }
        c
    }

    /// A partial assignment equivalent to `mat` when every field is
    /// ternary-expressible; `Range` fields are left **free** (a
    /// conservative over-approximation: every header the match selects
    /// satisfies the returned constraint).
    pub fn match_constraint(&self, mat: &Match) -> Vec<Option<bool>> {
        let mut c = vec![None; self.layout.total_bits() as usize];
        for ((_, spec), kind) in self.layout.fields().zip(mat.kinds().iter()) {
            if let Some((value, mask)) = kind.as_ternary(spec.width) {
                for i in 0..spec.width {
                    let sel = spec.width - 1 - i;
                    if (mask >> sel) & 1 == 1 {
                        c[(spec.offset + i) as usize] = Some((value >> sel) & 1 == 1);
                    }
                }
            } else {
                debug_assert!(matches!(kind, MatchKind::Range { .. }));
            }
        }
        c
    }

    /// Dry-run what-if: which classes would a block of updates touch?
    ///
    /// Nets the block through the MR² canceling pass, then reports every
    /// class whose predicate intersects a surviving update's match — the
    /// set the real pipeline's map/apply phases would split or move.
    /// Purely read-only: the snapshot (and the owning model) are not
    /// mutated; `Range` match fields over-approximate (see
    /// [`EpochSnapshot::match_constraint`]). Returns the touched classes'
    /// fingerprints, deduplicated and sorted.
    pub fn what_if(&self, block: &[RuleUpdate]) -> Vec<u64> {
        let surviving = crate::mr2::cancel_updates(block);
        let mut touched: Vec<u64> = Vec::new();
        for u in &surviving {
            let constraint = self.match_constraint(&u.rule.mat);
            for c in self.intersecting(&constraint) {
                touched.push(c.fingerprint);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        touched
    }

    /// Order-independent fingerprint of the whole snapshot: the sorted
    /// class fingerprints hashed together. Equal across managers holding
    /// semantically identical models.
    pub fn model_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut keys: Vec<u64> = self.classes.iter().map(|c| c.fingerprint).collect();
        keys.sort_unstable();
        let mut h = std::collections::hash_map::DefaultHasher::new();
        keys.hash(&mut h);
        h.finish()
    }
}

impl std::fmt::Debug for EpochSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochSnapshot")
            .field("seq", &self.seq)
            .field("classes", &self.classes.len())
            .finish()
    }
}
