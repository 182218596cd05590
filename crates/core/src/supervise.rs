//! Worker supervision: `catch_unwind` isolation plus replay recovery,
//! generic over the work a worker performs.
//!
//! The shard pool's persistent subspace verifiers ([`crate::shard`])
//! run under this supervision loop, one OS thread per worker. A worker
//! implements [`SupervisedWorker`]: `build` constructs its (possibly
//! `!Send`) processing state on the worker's own OS thread, and
//! `process` consumes one job. When the worker panics, the supervisor
//! (the same OS thread, one frame up) rebuilds fresh state and
//! **replays the job history it kept in memory** through it —
//! the paper's epoch-replay mechanism ("flushes the updates from the
//! device's update queue"), reused for crash recovery: replaying the
//! same jobs deterministically reconstructs trackers, model state, and
//! verifier sets. Results already delivered before the crash are
//! suppressed by emitted-sets the worker keeps *outside* the unwind
//! boundary (in the [`SupervisedWorker`] impl itself, which survives
//! restarts), so consumers see each verdict exactly once.
//!
//! The history is **bounded**: a worker that opts into checkpointing
//! ([`SupervisedWorker::checkpoint_every`]) periodically snapshots its
//! recovery state, and the [`ReplayJournal`] truncates the job history
//! at every snapshot — replay cost and history memory are bounded by
//! the checkpoint interval, not the stream length. A restart then runs
//! [`SupervisedWorker::restore`] and replays only the post-checkpoint
//! suffix. Nothing is written to disk: a process that dies loses the
//! history with its verifiers.
//!
//! Restarts are budgeted by [`RestartPolicy`]: exponential backoff
//! (capped, and interruptible by shutdown so a drain deadline is never
//! overshot by a sleeping supervisor) between respawns. After
//! `max_restarts` failures the worker is either abandoned — its
//! receiver drops, so senders observe a disconnected channel instead
//! of blocking forever — or, with [`RestartPolicy::rejoin_backoff`]
//! set, **degraded**: it keeps recording inbound jobs without
//! processing them and periodically attempts a full rebuild. A
//! successful rebuild replays the history and rejoins the live stream;
//! consumers (the shard aggregator) meanwhile release partial epochs
//! instead of wedging.

use crate::channel::{PolicyReceiver, RecvTimeoutError};
use crate::error::FlashError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How a supervisor responds to worker panics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RestartPolicy {
    /// Panics tolerated before the worker is abandoned (or degraded).
    pub max_restarts: u32,
    /// Backoff before the first respawn; doubles per restart.
    pub backoff_base: Duration,
    /// Upper bound on the backoff.
    pub backoff_cap: Duration,
    /// When set, a worker that exhausts its restart budget degrades
    /// instead of abandoning: it journals inbound jobs without
    /// processing and attempts a rebuild every `rejoin_backoff`. When
    /// `None` (the default) the pre-existing abandon behavior applies.
    pub rejoin_backoff: Option<Duration>,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            max_restarts: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            rejoin_backoff: None,
        }
    }
}

impl RestartPolicy {
    /// Backoff before restart number `n` (1-based): `base * 2^(n-1)`,
    /// capped.
    pub fn backoff_for(&self, n: u32) -> Duration {
        let shift = n.saturating_sub(1).min(16);
        self.backoff_cap
            .min(self.backoff_base.saturating_mul(1u32 << shift))
    }
}

/// Lifecycle state of a supervised worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerHealth {
    /// Processing (or between restarts).
    Running,
    /// Exited normally after its input channel drained and closed.
    Exited,
    /// Exhausted its restart budget; no longer consuming input.
    Abandoned,
    /// Exhausted its restart budget but configured to rejoin: inbound
    /// jobs are journaled (not processed) while rebuilds are attempted
    /// every [`RestartPolicy::rejoin_backoff`].
    Degraded,
}

/// State a supervised worker shares with the service handle.
pub(crate) struct WorkerShared {
    /// Times the worker has been respawned after a panic.
    pub restarts: AtomicU32,
    /// Jobs processed, *including* replayed ones (`processed +
    /// replayed`; kept for compatibility with existing dashboards).
    pub batches: AtomicU64,
    /// Fresh (live) jobs processed, exactly once each.
    pub processed: AtomicU64,
    /// Jobs re-processed during crash-recovery replay.
    pub replayed: AtomicU64,
    /// Rejoin attempts made after entering the degraded state.
    pub rejoins: AtomicU32,
    /// Checkpoints taken (journal truncations).
    pub checkpoints: AtomicU64,
    /// Jobs currently journaled since the last checkpoint.
    pub journal_len: AtomicU64,
    /// Latch ensuring an injected kill fires exactly once.
    pub kill_fired: AtomicBool,
    /// Latch ensuring an injected hang fires exactly once.
    pub hang_fired: AtomicBool,
    /// Set when the supervisor thread is about to return.
    pub done: AtomicBool,
    /// Shutdown/drain signal: backoff sleeps and degraded waits are cut
    /// short so `drain(deadline)` is never overshot by a sleeping
    /// supervisor.
    pub shutdown: AtomicBool,
    pub health: Mutex<WorkerHealth>,
    /// Most recent failure, if any.
    pub last_error: Mutex<Option<FlashError>>,
    /// Latest aggregate predicate-engine snapshot across the worker's
    /// live verifiers (refreshed after every processed batch).
    pub engine: Mutex<flash_bdd::EngineTelemetry>,
}

impl WorkerShared {
    pub fn new() -> Self {
        WorkerShared {
            restarts: AtomicU32::new(0),
            batches: AtomicU64::new(0),
            processed: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
            rejoins: AtomicU32::new(0),
            checkpoints: AtomicU64::new(0),
            journal_len: AtomicU64::new(0),
            kill_fired: AtomicBool::new(false),
            hang_fired: AtomicBool::new(false),
            done: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            health: Mutex::new(WorkerHealth::Running),
            last_error: Mutex::new(None),
            engine: Mutex::new(flash_bdd::EngineTelemetry::default()),
        }
    }

    pub fn health(&self) -> WorkerHealth {
        *self.health.lock().unwrap()
    }

    fn set_health(&self, h: WorkerHealth) {
        *self.health.lock().unwrap() = h;
    }
}

/// Faults the supervisor injects into its own worker (from a
/// [`crate::fault::FaultPlan`]).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct WorkerFaults {
    /// Panic once after this many processed batches.
    pub kill_after: Option<u64>,
    /// Minimum per-batch processing time.
    pub delay: Option<Duration>,
    /// Stall once for this long after this many processed batches (a
    /// hang, not a crash: it surfaces as slow epochs and restarts
    /// nothing).
    pub hang: Option<(u64, Duration)>,
}

/// Returned by [`SupervisedWorker::process`] when the result consumer
/// is gone: the worker has nobody to report to and exits cleanly.
pub(crate) struct OutputClosed;

/// One supervised, journal-replayed worker body.
///
/// The implementing struct itself lives *outside* the `catch_unwind`
/// boundary and survives restarts — put emitted-set deduplication and
/// result senders there. The per-run processing state (verifiers,
/// model managers, predicate engines — typically `!Send`) lives in
/// [`SupervisedWorker::State`], built fresh on the worker thread after
/// every (re)start and reconstructed deterministically by replay —
/// from genesis, or from the last checkpoint when the worker opts into
/// checkpointing.
pub(crate) trait SupervisedWorker {
    /// One unit of work; journaled, so cloning must be cheap (`Arc`).
    type Job: Clone + Send + 'static;
    /// Per-run processing state, rebuilt after each panic.
    type State;
    /// Snapshot of recovery state; installing one truncates the journal.
    type Checkpoint;

    /// Builds fresh processing state (on the worker's own thread).
    fn build(&mut self) -> Self::State;

    /// Rebuilds processing state from a checkpoint. Must be implemented
    /// by any worker whose [`Self::checkpoint_every`] returns `Some`.
    fn restore(&mut self, _cp: &Self::Checkpoint) -> Self::State {
        panic!("worker enabled checkpoints without implementing restore()");
    }

    /// Jobs between checkpoints; `None` (the default) disables
    /// checkpointing — the journal then grows with the stream, as
    /// before.
    fn checkpoint_every(&self) -> Option<u64> {
        None
    }

    /// Snapshots recovery state. Returning `None` skips this checkpoint
    /// opportunity (the journal keeps growing until the next one).
    fn take_checkpoint(&mut self, _state: &mut Self::State) -> Option<Self::Checkpoint> {
        None
    }

    /// Processes one job, sending any results to the worker's output.
    fn process(&mut self, state: &mut Self::State, job: Self::Job) -> Result<(), OutputClosed>;

    /// Aggregate predicate-engine snapshot of the current state.
    fn telemetry(&self, state: &Self::State) -> flash_bdd::EngineTelemetry;
}

/// Bounded in-memory replay journal: at most one checkpoint plus the
/// jobs that arrived after it. Installing a checkpoint **truncates** the
/// job history, so replay cost and journal memory are bounded by the
/// checkpoint interval, not the stream length.
pub(crate) struct ReplayJournal<J, C> {
    checkpoint: Option<C>,
    jobs: Vec<J>,
    truncations: u64,
}

impl<J, C> ReplayJournal<J, C> {
    pub fn new() -> Self {
        ReplayJournal { checkpoint: None, jobs: Vec::new(), truncations: 0 }
    }

    pub fn push(&mut self, job: J) {
        self.jobs.push(job);
    }

    /// Jobs to replay after the checkpoint (or from genesis).
    pub fn jobs(&self) -> &[J] {
        &self.jobs
    }

    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    pub fn checkpoint(&self) -> Option<&C> {
        self.checkpoint.as_ref()
    }

    /// Installs a checkpoint reflecting every journaled job and
    /// truncates the job history — the recovery-cost bound.
    pub fn install(&mut self, cp: C) {
        self.checkpoint = Some(cp);
        self.jobs.clear();
        self.truncations += 1;
    }

    /// Times a checkpoint truncated the journal.
    #[cfg(test)]
    pub fn truncations(&self) -> u64 {
        self.truncations
    }
}

enum ExitReason {
    /// Input channel closed after draining: graceful shutdown.
    Drained,
    /// Result consumer gone; nothing left to do.
    OutputClosed,
}

/// Sleeps `total` in small slices, returning early when `shutdown` is
/// set — the fix for drain deadlines overshot by a backoff sleep.
pub(crate) fn interruptible_sleep(total: Duration, shutdown: &AtomicBool) {
    let t0 = Instant::now();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let elapsed = t0.elapsed();
        if elapsed >= total {
            return;
        }
        std::thread::sleep((total - elapsed).min(Duration::from_millis(5)));
    }
}

/// Supervisor entry point: runs on the worker's OS thread and owns the
/// journal across restarts.
pub(crate) fn run_supervised<W: SupervisedWorker>(
    mut worker: W,
    rx: PolicyReceiver<W::Job>,
    worker_index: usize,
    policy: RestartPolicy,
    shared: Arc<WorkerShared>,
    faults: WorkerFaults,
) {
    // Survives panics: the journal feeds replay after a restart. It is
    // bounded by the worker's checkpoint interval (unbounded only for
    // workers that never checkpoint).
    let mut journal: ReplayJournal<W::Job, W::Checkpoint> = ReplayJournal::new();
    // Set when a degraded wait observed channel disconnection: the next
    // failed rejoin attempt is terminal (nothing new can ever arrive).
    let mut final_attempt = false;
    loop {
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            run_once(&mut worker, &rx, worker_index, &shared, &mut journal, faults)
        }));
        match attempt {
            Ok(ExitReason::Drained) | Ok(ExitReason::OutputClosed) => {
                shared.set_health(WorkerHealth::Exited);
                break;
            }
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                let n = shared.restarts.load(Ordering::SeqCst) + 1;
                shared.restarts.store(n, Ordering::SeqCst);
                *shared.last_error.lock().unwrap() =
                    Some(FlashError::WorkerPanic { worker: worker_index, message });
                if n <= policy.max_restarts {
                    interruptible_sleep(policy.backoff_for(n), &shared.shutdown);
                    // Loop: run_once restores from the last checkpoint
                    // (or rebuilds) and replays the journal suffix.
                    continue;
                }
                *shared.last_error.lock().unwrap() = Some(FlashError::RestartsExhausted {
                    worker: worker_index,
                    restarts: n - 1,
                });
                let Some(every) = policy.rejoin_backoff else {
                    shared.set_health(WorkerHealth::Abandoned);
                    break;
                };
                if final_attempt {
                    shared.set_health(WorkerHealth::Abandoned);
                    break;
                }
                shared.set_health(WorkerHealth::Degraded);
                let disconnected = degraded_wait(&rx, &mut journal, every, &shared);
                final_attempt = disconnected;
                shared.rejoins.fetch_add(1, Ordering::SeqCst);
                shared.set_health(WorkerHealth::Running);
                // Loop: one rejoin attempt per degraded wave.
            }
        }
    }
    shared.done.store(true, Ordering::SeqCst);
    // Returning drops `rx`: senders to an abandoned worker observe a
    // disconnected channel instead of blocking.
}

/// The degraded state: consume inbound jobs into the journal without
/// processing them, until `every` has elapsed (time for a rejoin
/// attempt) or the channel disconnects (drain: attempt a final rejoin
/// now). Returns `true` on disconnection.
fn degraded_wait<J, C>(
    rx: &PolicyReceiver<J>,
    journal: &mut ReplayJournal<J, C>,
    every: Duration,
    shared: &WorkerShared,
) -> bool {
    let t0 = Instant::now();
    // Under shutdown, don't sit out the full rejoin interval — but keep
    // a small floor so a deterministically-failing replay cannot spin.
    let wait = if shared.shutdown.load(Ordering::SeqCst) {
        every.min(Duration::from_millis(50))
    } else {
        every
    };
    loop {
        let elapsed = t0.elapsed();
        if elapsed >= wait {
            return false;
        }
        let slice = (wait - elapsed).min(Duration::from_millis(20));
        match rx.recv_timeout(slice) {
            Ok(job) => {
                journal.push(job);
                shared.journal_len.store(journal.len() as u64, Ordering::SeqCst);
            }
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return true,
        }
    }
}

fn run_once<W: SupervisedWorker>(
    worker: &mut W,
    rx: &PolicyReceiver<W::Job>,
    worker_index: usize,
    shared: &WorkerShared,
    journal: &mut ReplayJournal<W::Job, W::Checkpoint>,
    faults: WorkerFaults,
) -> ExitReason {
    let mut state = match journal.checkpoint() {
        // A checkpoint bounds recovery: restore, then replay only the
        // post-checkpoint suffix.
        Some(cp) => worker.restore(cp),
        None => worker.build(),
    };
    // Replay: re-feed the journaled history in arrival order. Restored
    // (or fresh) state deterministically reconstructs everything the
    // crash threw away; the worker's own emitted-sets silence results
    // that already reached the consumer.
    for i in 0..journal.len() {
        let job = journal.jobs()[i].clone();
        if step(worker, &mut state, job, worker_index, shared, faults, true).is_err() {
            return ExitReason::OutputClosed;
        }
    }
    // Live phase: journal *before* processing, so a crash mid-batch
    // replays the batch that killed us.
    while let Ok(job) = rx.recv() {
        journal.push(job.clone());
        shared.journal_len.store(journal.len() as u64, Ordering::SeqCst);
        if step(worker, &mut state, job, worker_index, shared, faults, false).is_err() {
            return ExitReason::OutputClosed;
        }
        if let Some(every) = worker.checkpoint_every() {
            if journal.len() as u64 >= every {
                if let Some(cp) = worker.take_checkpoint(&mut state) {
                    journal.install(cp);
                    shared.checkpoints.fetch_add(1, Ordering::SeqCst);
                    shared.journal_len.store(0, Ordering::SeqCst);
                }
            }
        }
    }
    ExitReason::Drained
}

#[allow(clippy::too_many_arguments)]
fn step<W: SupervisedWorker>(
    worker: &mut W,
    state: &mut W::State,
    job: W::Job,
    worker_index: usize,
    shared: &WorkerShared,
    faults: WorkerFaults,
    replaying: bool,
) -> Result<(), OutputClosed> {
    let batch = shared.batches.fetch_add(1, Ordering::SeqCst) + 1;
    if replaying {
        shared.replayed.fetch_add(1, Ordering::SeqCst);
    } else {
        shared.processed.fetch_add(1, Ordering::SeqCst);
    }
    if let Some(k) = faults.kill_after {
        if batch >= k && !shared.kill_fired.swap(true, Ordering::SeqCst) {
            panic!("injected fault: killing worker {worker_index} after {batch} batches");
        }
    }
    if let Some((after, dur)) = faults.hang {
        if batch >= after && !shared.hang_fired.swap(true, Ordering::SeqCst) {
            std::thread::sleep(dur);
        }
    }
    if let Some(d) = faults.delay {
        std::thread::sleep(d);
    }
    worker.process(state, job)?;
    *shared.engine.lock().unwrap() = worker.telemetry(state);
    Ok(())
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::policy_channel;
    use std::collections::HashSet;
    use std::sync::mpsc;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RestartPolicy {
            max_restarts: 10,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(70),
            rejoin_backoff: None,
        };
        assert_eq!(p.backoff_for(1), Duration::from_millis(10));
        assert_eq!(p.backoff_for(2), Duration::from_millis(20));
        assert_eq!(p.backoff_for(3), Duration::from_millis(40));
        assert_eq!(p.backoff_for(4), Duration::from_millis(70));
        assert_eq!(p.backoff_for(30), Duration::from_millis(70));
    }

    #[test]
    fn replay_journal_truncates_on_checkpoint() {
        let mut j: ReplayJournal<u64, &'static str> = ReplayJournal::new();
        for i in 0..5 {
            j.push(i);
        }
        assert_eq!(j.len(), 5);
        assert!(j.checkpoint().is_none());
        j.install("cp");
        assert_eq!(j.len(), 0, "checkpoint bounds the replay history");
        assert_eq!(j.checkpoint(), Some(&"cp"));
        assert_eq!(j.truncations(), 1);
        j.push(9);
        assert_eq!(j.jobs(), &[9]);
    }

    #[test]
    fn panic_message_extraction() {
        let p: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_message(p.as_ref()), "boom");
        let p: Box<dyn std::any::Any + Send> = Box::new(String::from("kapow"));
        assert_eq!(panic_message(p.as_ref()), "kapow");
        let p: Box<dyn std::any::Any + Send> = Box::new(17u32);
        assert_eq!(panic_message(p.as_ref()), "non-string panic payload");
    }

    #[test]
    fn interruptible_sleep_is_cut_short_by_shutdown() {
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = flag.clone();
        let h = std::thread::spawn(move || {
            let t0 = Instant::now();
            interruptible_sleep(Duration::from_secs(30), &f2);
            t0.elapsed()
        });
        std::thread::sleep(Duration::from_millis(30));
        flag.store(true, Ordering::SeqCst);
        let slept = h.join().unwrap();
        assert!(slept < Duration::from_secs(5), "sleep ignored shutdown: {slept:?}");
    }

    /// A toy checkpointing worker: running sum, emitted exactly once
    /// per job value. Checkpoint = the sum; restore resumes from it.
    struct SummingWorker {
        out: mpsc::Sender<(u64, u64)>,
        emitted: HashSet<u64>,
        restores: Arc<AtomicU32>,
    }

    impl SupervisedWorker for SummingWorker {
        type Job = u64;
        type State = u64;
        type Checkpoint = u64;

        fn build(&mut self) -> u64 {
            0
        }

        fn restore(&mut self, cp: &u64) -> u64 {
            self.restores.fetch_add(1, Ordering::SeqCst);
            *cp
        }

        fn checkpoint_every(&self) -> Option<u64> {
            Some(3)
        }

        fn take_checkpoint(&mut self, state: &mut u64) -> Option<u64> {
            Some(*state)
        }

        fn process(&mut self, state: &mut u64, job: u64) -> Result<(), OutputClosed> {
            *state += job;
            if self.emitted.insert(job) {
                self.out.send((job, *state)).map_err(|_| OutputClosed)?;
            }
            Ok(())
        }

        fn telemetry(&self, _state: &u64) -> flash_bdd::EngineTelemetry {
            flash_bdd::EngineTelemetry::default()
        }
    }

    fn reference_sums(jobs: &[u64]) -> Vec<(u64, u64)> {
        let mut sum = 0;
        jobs.iter()
            .map(|&j| {
                sum += j;
                (j, sum)
            })
            .collect()
    }

    #[test]
    fn checkpoint_restore_replays_only_the_suffix() {
        let (tx, rx) = policy_channel::<u64>(64);
        let (out_tx, out_rx) = mpsc::channel();
        let restores = Arc::new(AtomicU32::new(0));
        let shared = Arc::new(WorkerShared::new());
        let worker = SummingWorker { out: out_tx, emitted: HashSet::new(), restores: restores.clone() };
        let ws = shared.clone();
        let h = std::thread::spawn(move || {
            run_supervised(
                worker,
                rx,
                0,
                RestartPolicy {
                    backoff_base: Duration::from_millis(1),
                    ..RestartPolicy::default()
                },
                ws,
                WorkerFaults { kill_after: Some(8), ..WorkerFaults::default() },
            );
        });
        let jobs: Vec<u64> = (1..=10).collect();
        for &j in &jobs {
            tx.send(j).unwrap();
        }
        drop(tx);
        h.join().unwrap();

        let got: Vec<(u64, u64)> = out_rx.try_iter().collect();
        assert_eq!(got, reference_sums(&jobs), "exactly-once, correct sums");
        assert_eq!(shared.restarts.load(Ordering::SeqCst), 1);
        assert_eq!(restores.load(Ordering::SeqCst), 1, "restart used restore()");
        assert!(shared.checkpoints.load(Ordering::SeqCst) >= 2);
        // The kill fired at batch 8 = live job 8; checkpoints at 3 and
        // 6 mean at most 2 jobs were replayed — not the whole history.
        let replayed = shared.replayed.load(Ordering::SeqCst);
        assert!(replayed <= 3, "journal was not truncated: {replayed} replayed");
        assert_eq!(shared.processed.load(Ordering::SeqCst), 10);
        assert_eq!(shared.health(), WorkerHealth::Exited);
    }

    #[test]
    fn exhausted_worker_degrades_then_rejoins() {
        let (tx, rx) = policy_channel::<u64>(64);
        let (out_tx, out_rx) = mpsc::channel();
        let restores = Arc::new(AtomicU32::new(0));
        let shared = Arc::new(WorkerShared::new());
        let worker = SummingWorker { out: out_tx, emitted: HashSet::new(), restores: restores.clone() };
        let ws = shared.clone();
        let h = std::thread::spawn(move || {
            run_supervised(
                worker,
                rx,
                0,
                RestartPolicy {
                    max_restarts: 0,
                    backoff_base: Duration::from_millis(1),
                    backoff_cap: Duration::from_millis(1),
                    rejoin_backoff: Some(Duration::from_millis(20)),
                },
                ws,
                WorkerFaults { kill_after: Some(2), ..WorkerFaults::default() },
            );
        });
        let jobs: Vec<u64> = (1..=6).collect();
        for &j in &jobs {
            tx.send(j).unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(tx);
        h.join().unwrap();

        let got: Vec<(u64, u64)> = out_rx.try_iter().collect();
        assert_eq!(got, reference_sums(&jobs), "degraded jobs were journaled and replayed");
        assert!(shared.rejoins.load(Ordering::SeqCst) >= 1);
        assert_eq!(shared.health(), WorkerHealth::Exited, "worker rejoined and drained");
    }
}
