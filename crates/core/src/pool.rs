//! The worker-pool scaffolding beneath [`crate::shard`]: N long-lived
//! OS threads, each running one [`SupervisedWorker`] behind a bounded,
//! blocking channel, with per-worker shared-state probes and a
//! deadline-bounded join.
//!
//! The pool knows nothing about *what* the workers do — the shard pool
//! plugs in warm subspace verifiers, in-thread or as proxies for child
//! processes — so supervision and drain are written (and tested) once.

use crate::channel::{policy_channel, ChannelProbe, ChannelStats, Disconnected, PolicySender};
use crate::error::FlashError;
use crate::supervise::{
    run_supervised, RestartPolicy, SupervisedWorker, WorkerFaults, WorkerHealth, WorkerShared,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-worker counters reported by [`crate::ShardPool::stats`].
#[derive(Clone, Debug)]
pub struct WorkerStats {
    pub worker: usize,
    /// Respawns after panics.
    pub restarts: u32,
    /// Messages processed, including epoch-replayed ones
    /// (`processed + replayed`).
    pub batches: u64,
    /// Fresh (live) messages processed, exactly once each.
    pub processed: u64,
    /// Messages re-processed during crash-recovery replay.
    pub replayed: u64,
    /// Rejoin attempts after entering the degraded state.
    pub rejoins: u32,
    /// Checkpoints taken (each one truncated the replay journal).
    pub checkpoints: u64,
    /// Jobs currently journaled since the last checkpoint.
    pub journal_len: u64,
    pub health: WorkerHealth,
    /// Inbound channel counters (peak depth, enqueued).
    pub channel: ChannelStats,
    /// Current inbound queue depth.
    pub depth: usize,
    /// Most recent failure, if any.
    pub last_error: Option<FlashError>,
    /// Aggregate predicate-engine telemetry across the worker's live
    /// verifiers, as of its most recently processed batch.
    pub engine: flash_bdd::EngineTelemetry,
}

/// Channel/supervision knobs common to every pool.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PoolConfig {
    pub workers: usize,
    /// Per-worker inbound queue capacity.
    pub capacity: usize,
    pub restart: RestartPolicy,
}

/// A pool of supervised workers consuming jobs of type `J`.
pub(crate) struct WorkerPool<J> {
    inputs: Vec<PolicySender<J>>,
    probes: Vec<ChannelProbe<J>>,
    shared: Vec<Arc<WorkerShared>>,
    handles: Vec<JoinHandle<()>>,
}

impl<J: Clone + Send + 'static> WorkerPool<J> {
    /// Spawns `cfg.workers` supervised threads. `make(w)` builds worker
    /// `w`'s body (sent to its thread); `fault_for(w)` its injected
    /// faults.
    pub fn spawn<W>(
        cfg: PoolConfig,
        fault_for: impl Fn(usize) -> WorkerFaults,
        mut make: impl FnMut(usize) -> W,
    ) -> Self
    where
        W: SupervisedWorker<Job = J> + Send + 'static,
    {
        let n = cfg.workers.max(1);
        let mut inputs = Vec::with_capacity(n);
        let mut probes = Vec::with_capacity(n);
        let mut shared = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for w in 0..n {
            let (tx, rx) = policy_channel::<J>(cfg.capacity);
            probes.push(tx.probe());
            inputs.push(tx);
            let ws = Arc::new(WorkerShared::new());
            shared.push(ws.clone());
            let worker = make(w);
            let faults = fault_for(w);
            let restart = cfg.restart;
            handles.push(std::thread::spawn(move || {
                run_supervised(worker, rx, w, restart, ws, faults);
            }));
        }
        WorkerPool {
            inputs,
            probes,
            shared,
            handles,
        }
    }

    pub fn worker_count(&self) -> usize {
        self.shared.len()
    }

    /// Sends a job to worker `w`, waiting while its queue is full.
    /// `Err(Disconnected)` means the worker was abandoned or drained.
    pub fn send(&self, w: usize, job: J) -> Result<(), Disconnected> {
        match self.inputs.get(w) {
            Some(tx) => tx.send(job),
            None => Err(Disconnected),
        }
    }

    /// Closing the channels is the drain signal: receivers hand out all
    /// queued jobs before reporting disconnection. Also raises each
    /// worker's shutdown flag so in-flight backoff sleeps and degraded
    /// waits are cut short instead of overshooting a drain deadline.
    pub fn close_inputs(&mut self) {
        for ws in &self.shared {
            ws.shutdown.store(true, Ordering::SeqCst);
        }
        self.inputs.clear();
    }

    /// Current lifecycle state of worker `w`.
    pub fn health(&self, w: usize) -> WorkerHealth {
        self.shared[w].health()
    }

    /// Per-worker counter snapshot.
    pub fn worker_stats(&self, w: usize) -> WorkerStats {
        let ws = &self.shared[w];
        WorkerStats {
            worker: w,
            restarts: ws.restarts.load(Ordering::SeqCst),
            batches: ws.batches.load(Ordering::SeqCst),
            processed: ws.processed.load(Ordering::SeqCst),
            replayed: ws.replayed.load(Ordering::SeqCst),
            rejoins: ws.rejoins.load(Ordering::SeqCst),
            checkpoints: ws.checkpoints.load(Ordering::SeqCst),
            journal_len: ws.journal_len.load(Ordering::SeqCst),
            health: ws.health(),
            channel: self.probes[w].stats(),
            depth: self.probes[w].depth(),
            last_error: ws.last_error.lock().unwrap().clone(),
            engine: *ws.engine.lock().unwrap(),
        }
    }

    /// Snapshot for every worker.
    pub fn all_stats(&self) -> Vec<WorkerStats> {
        (0..self.worker_count())
            .map(|w| self.worker_stats(w))
            .collect()
    }

    /// True when every supervisor thread has returned.
    pub fn all_done(&self) -> bool {
        self.shared.iter().all(|ws| ws.done.load(Ordering::SeqCst))
    }

    /// Joins workers until `deadline`, returning the indices of workers
    /// that missed it and were abandoned un-joined. Call
    /// [`Self::close_inputs`] first, or workers will never exit.
    pub fn join_with_deadline(&mut self, deadline: Duration) -> Vec<usize> {
        let t0 = Instant::now();
        while !self.all_done() && t0.elapsed() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut abandoned = Vec::new();
        for (w, h) in self.handles.drain(..).enumerate() {
            if self.shared[w].done.load(Ordering::SeqCst) {
                let _ = h.join();
            } else {
                // Deliberately leaked: the thread may be wedged. Its
                // channel is closed, so it can make no further progress
                // visible to consumers.
                abandoned.push(w);
            }
        }
        abandoned
    }
}
