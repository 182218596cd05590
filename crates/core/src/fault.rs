//! Deterministic fault injection for the shard pool's workers.
//!
//! Verifier workers crash, hang and fall behind. This module makes
//! those faults reproducible test inputs: a [`FaultPlan`] names which
//! worker fails, how, and after how many batches. Each fault fires
//! exactly once.
//!
//! * **kill** — the worker panics after processing `after_batches`
//!   jobs (exercises supervision + journal replay);
//! * **hang** — the worker stalls once, then carries on (a slow epoch,
//!   not a crash: nothing restarts);
//! * **worker_delay** — every batch takes at least this long (turns a
//!   worker into a slow consumer that fills its queue).

use std::time::Duration;

/// Kill one worker after it has processed a number of batches. The kill
/// fires exactly once, even though the replayed batches are processed
/// again after the restart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KillSpec {
    pub worker: usize,
    pub after_batches: u64,
}

/// Stall one worker for `duration` after it has processed
/// `after_batches` batches; fires exactly once. The worker goes slow:
/// its epochs wait for it, and nothing is restarted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HangSpec {
    pub worker: usize,
    pub after_batches: u64,
    pub duration: Duration,
}

/// A reproducible set of worker faults for chaos tests.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Workers to kill (each fires once).
    pub kill_workers: Vec<KillSpec>,
    /// Workers to stall (each fires once).
    pub hang_workers: Vec<HangSpec>,
    /// Minimum per-batch processing time (slow-consumer simulation).
    pub worker_delay: Option<Duration>,
}

impl FaultPlan {
    /// Validates every fault target against the worker count.
    pub fn validate(&self, workers: usize) -> Result<(), crate::error::FlashError> {
        if let Some(k) = self.kill_workers.iter().find(|k| k.worker >= workers) {
            return Err(crate::error::FlashError::Config(format!(
                "kill target worker {} out of range (workers = {})",
                k.worker, workers
            )));
        }
        if let Some(h) = self.hang_workers.iter().find(|h| h.worker >= workers) {
            return Err(crate::error::FlashError::Config(format!(
                "hang target worker {} out of range (workers = {})",
                h.worker, workers
            )));
        }
        Ok(())
    }

    /// The kill trigger for `worker`, if any.
    pub(crate) fn kill_for(&self, worker: usize) -> Option<u64> {
        self.kill_workers
            .iter()
            .find(|k| k.worker == worker)
            .map(|k| k.after_batches)
    }

    /// The hang trigger for `worker`, if any.
    pub(crate) fn hang_for(&self, worker: usize) -> Option<(u64, Duration)> {
        self.hang_workers
            .iter()
            .find(|h| h.worker == worker)
            .map(|h| (h.after_batches, h.duration))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_bad_plans() {
        let bad = FaultPlan {
            kill_workers: vec![KillSpec { worker: 5, after_batches: 1 }],
            ..FaultPlan::default()
        };
        assert!(bad.validate(2).is_err());
        let bad = FaultPlan {
            hang_workers: vec![HangSpec {
                worker: 2,
                after_batches: 1,
                duration: Duration::from_millis(1),
            }],
            ..FaultPlan::default()
        };
        assert!(bad.validate(2).is_err());
        assert!(FaultPlan::default().validate(1).is_ok());
    }
}
