//! # flash-dpv
//!
//! A from-scratch Rust implementation of **Flash** (SIGCOMM 2022): fast,
//! consistent data plane verification for large-scale network settings.
//!
//! Flash combines two techniques:
//!
//! * **Fast IMT** (`flash-imt`) — block update processing that transforms
//!   a storm of native rule updates into a handful of conflict-free
//!   inverse-model overwrites via the MR² algorithm;
//! * **CE2D** (`flash-ce2d`) — consistent, efficient early detection:
//!   epoch-tagged updates are dispatched to per-epoch verifiers that
//!   answer verification questions *before* all devices have reported,
//!   without ever reporting a transient error.
//!
//! This crate is the system of Figure 1: the [`Dispatcher`] (epoch
//! tracking, update queues, verifier life cycle), the
//! [`SubspaceVerifier`] (model manager + CE2D verifiers for one packet
//! subspace) and the [`ShardPool`] that keeps one warm verifier per
//! subspace alive across supervised OS threads.
//!
//! ## Quickstart
//!
//! ```
//! use flash_core::{Property, SubspaceVerifier, SubspaceVerifierConfig};
//! use flash_netmodel::*;
//! use std::sync::Arc;
//!
//! // A triangle network.
//! let mut topo = Topology::new();
//! let a = topo.add_device("a");
//! let b = topo.add_device("b");
//! let c = topo.add_device("c");
//! topo.add_bilink(a, b);
//! topo.add_bilink(b, c);
//! topo.add_bilink(a, c);
//! let topo = Arc::new(topo);
//!
//! let layout = HeaderLayout::dst_only();
//! let mut actions = ActionTable::new();
//! let fwd_b = actions.fwd(b);
//! let fwd_a = actions.fwd(a);
//! let actions = Arc::new(actions);
//!
//! let mut v = SubspaceVerifier::new(SubspaceVerifierConfig {
//!     topo: topo.clone(),
//!     actions: actions.clone(),
//!     layout: layout.clone(),
//!     subspace: flash_imt::SubspaceSpec::whole(),
//!     bst: 1,
//!     properties: vec![Property::LoopFreedom],
//! });
//!
//! // a→b then b→a: a consistent loop, detected with only 2/3 devices.
//! let m = Match::dst_prefix(&layout, 10, 8);
//! v.ingest_synchronized(a, vec![RuleUpdate::insert(Rule::new(m.clone(), 1, fwd_b))]);
//! let reports = v.ingest_synchronized(b, vec![RuleUpdate::insert(Rule::new(m, 1, fwd_a))]);
//! assert!(reports.iter().any(|r| matches!(r, flash_core::PropertyReport::LoopFound { .. })));
//! ```

pub mod adapter;
pub mod channel;
pub mod dispatcher;
pub mod error;
pub mod fault;
mod pool;
pub mod query;
pub mod shard;
pub mod supervise;
pub mod verifier;

pub use channel::ChannelStats;
pub use dispatcher::{Dispatcher, DispatcherConfig, TimedReport};
pub use error::FlashError;
pub use fault::{FaultPlan, HangSpec, KillSpec};
pub use pool::WorkerStats;
pub use query::{
    AnswerKind, Backpressure, PendingAnswer, Query, QueryAnswer, QueryHub, QueryRejected,
    QueryService, QueryServiceConfig, QuerySession, TenantStats,
};
pub use shard::{
    DegradedShard, EpochReport, ShardDrainOutcome, ShardPool, ShardPoolConfig, ShardResult,
    UpdateBlock,
};
pub use supervise::{RestartPolicy, WorkerHealth};
pub use verifier::{Property, PropertyReport, SubspaceVerifier, SubspaceVerifierConfig};
