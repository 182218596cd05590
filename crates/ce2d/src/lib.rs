//! Consistent, Efficient Early Detection (CE2D) — §4 of the Flash paper.
//!
//! CE2D answers verification questions on a *partially known* data plane
//! without ever reporting a transient (inconsistent) error:
//!
//! * [`epoch`] — epoch tags, happens-before tracking, and the active-epoch
//!   set that identifies potential converged states (§4.1).
//! * [`product`] — the verification graph: the cross product of the network
//!   graph and the requirement automaton (§4.2).
//! * [`decremental`] — the decremental reachability structure (DGQ) that
//!   answers "can an accept state still be reached" in O(1) per query while
//!   edges are pruned (§4.2, reference 41).
//! * [`regex_verify`] — Algorithm 2: per-equivalence-class consistent
//!   partial verification for path-regular-expression requirements,
//!   including anycast/multicast/coverage variants (Appendix D.2).
//! * [`loopdet`] — Algorithm 3: consistent early *loop* detection by an
//!   incremental three-colour search over the synchronized devices (§4.3,
//!   Appendix D.3; the paper's hyper-node compression is not built, see
//!   the module doc).
//! * [`mt`] — the model-traversal baseline used in Figures 12 and 18.

pub mod decremental;
pub mod epoch;
pub mod loopdet;
pub mod mt;
pub mod product;
pub mod regex_verify;
pub mod rewrite;
pub mod vector_proto;

pub use decremental::DecrementalReach;
pub use epoch::{EpochEvent, EpochTag, EpochTracker};
pub use loopdet::{LoopVerdict, LoopVerifier, LoopVerifierStats};
pub use mt::ModelTraversal;
pub use product::ProductGraph;
pub use regex_verify::{RegexVerifier, Verdict};
pub use rewrite::RewriteTraversal;
pub use vector_proto::{CausalTag, ConvergenceDetector};
