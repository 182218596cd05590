//! Fast Inverse Model Transformation (Fast IMT) — the core contribution of
//! the Flash paper (§3 and Appendix C).
//!
//! The inverse model (equivalence-class representation) of a data plane is
//! a set of pairs `(predicate, action vector)` that are unique, mutually
//! exclusive and complementary. This crate provides:
//!
//! * [`pat`] — the **persistent action tree** (§3.4): a hash-consed
//!   persistent treap storing action vectors with structural sharing, so
//!   that overwriting a handful of devices in an `N`-device vector costs
//!   `O(k · log N)` and vector equality is an integer comparison.
//! * [`model`] — the [`model::InverseModel`] with its validity invariants
//!   and the model-overwrite operator `⊗` (Definition 9), plus the class
//!   index (a radix tree over the diagram's levels) that names the
//!   classes an overwrite can touch in time proportional to their number.
//! * [`memo`] — the capacity-capped `Match → Pred` cache that encodes
//!   each FIB match once per lifetime instead of once per block.
//! * [`mr2`] — the **MR² algorithm**: Algorithm 1 (merge-based
//!   decomposition of a native update block into atomic conflict-free
//!   overwrites) and the netting that fuses both reduces (by predicate,
//!   then by write set), as driven and timed by the manager for Figure 11.
//! * [`manager`] — the model manager of Figure 1: per-device FIB
//!   snapshots, the block-size-threshold (BST) buffer, subspace filtering,
//!   and the per-update compatibility mode.
//! * [`subspace`] — input-space partitioning (§3.4) used to run many
//!   verifiers in parallel.

mod index;
pub mod manager;
pub mod memo;
pub mod model;
pub mod mr2;
pub mod pat;
pub mod snapshot;
pub mod subspace;

pub use manager::{ModelManager, ModelManagerConfig, PhaseTimings, UpdateStats};
pub use memo::MatchMemo;
pub use model::{IndexStats, InverseModel, ModelEntry};
pub use mr2::{AtomicOverwrite, Netting, Overwrite};
pub use pat::{PatId, PatStore, PAT_NIL};
pub use snapshot::{EpochSnapshot, SnapshotClass};
pub use subspace::{SubspacePlan, SubspaceSpec};
