//! A hash-consed binary decision diagram (BDD) engine specialized for packet
//! header predicates.
//!
//! Flash represents every header-space predicate — rule matches, effective
//! predicates, equivalence-class predicates — as a node in a shared BDD
//! manager. The paper uses the JDD Java library; this crate is a from-scratch
//! replacement with the features Flash needs:
//!
//! * **Hash consing** (a unique table) so that structurally equal predicates
//!   are pointer-equal, making equivalence-class lookups O(1).
//! * **Operation caching** for conjunction, disjunction, difference, xor and
//!   negation, mirroring JDD's computed table (footnote 10 of the paper).
//! * **Operation counters**: the paper's Table 3 reports "#predicate
//!   operations"; [`Bdd::op_count`] counts every top-level Boolean operation.
//! * **Encoders** for the match kinds found in FIBs: exact bits, IPv4-style
//!   prefixes, suffixes, ternary (value/mask) matches and integer ranges.
//! * **Model counting** and witness extraction for debugging and tests.
//! * **Rooted predicate handles with automatic mark-sweep GC**: the
//!   [`PredEngine`] wrapper hands out ref-counted [`Pred`] handles that keep
//!   their nodes alive across collections, so long verification runs with
//!   millions of transient predicates keep a bounded footprint without any
//!   manual root bookkeeping.
//! * **Telemetry**: [`EngineTelemetry`] exposes per-op call counts,
//!   computed-cache hit rates, table occupancy and GC pauses.
//!
//! Variable `0` is the root of the ordering (tested first). Encoders lay
//! fields out most-significant-bit first so that prefix predicates form
//! chains of length `prefix_len` — the representation that makes FIB
//! workloads cheap.
//!
//! # Example
//!
//! ```
//! use flash_bdd::Bdd;
//! let mut bdd = Bdd::new(32);
//! // dst in 10.0.1.0/24
//! let p = bdd.prefix(0, 32, 0x0a000100, 24);
//! // dst in 10.0.0.0/16
//! let q = bdd.prefix(0, 32, 0x0a000000, 16);
//! let both = bdd.and(p, q);
//! assert_eq!(both, p); // /24 is contained in the /16
//! assert_eq!(bdd.sat_count(p), (1u64 << 8) as f64);
//! ```

mod encode;
mod engine;
mod manager;

pub use engine::{
    EngineTelemetry, OpCounterGuard, OpKind, OpStats, Pred, PredEngine, RawPred, StaleHandle,
    DEFAULT_GC_NODE_THRESHOLD,
};
pub use manager::{
    Bdd, BddStats, CacheConfig, Constraint, MixBuildHasher, MixHasher, NodeId, NodeView, FALSE,
    TRUE,
};

#[cfg(test)]
mod tests;
