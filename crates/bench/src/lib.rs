//! Experiment runners regenerating every table and figure of the paper's
//! evaluation (§5 and Appendices A/E). Each runner returns plain data,
//! and the `repro` binary formats it as the paper's rows.
//!
//! Scales are laptop-sized by default (see `DESIGN.md` §3 and
//! `EXPERIMENTS.md` for the mapping to the paper's scales); every runner
//! takes explicit scale knobs.

pub mod experiments;
pub mod util;

pub use experiments::*;
pub use util::*;
