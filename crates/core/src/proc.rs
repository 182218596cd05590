//! Process-isolated shard workers (`ShardMode::Process`).
//!
//! Thread-mode supervision (`catch_unwind`) contains panics, but not
//! aborts, stack overflows, runaway allocation, or memory corruption —
//! a single bad shard takes the whole verifier down. In process mode
//! each shard worker runs as a supervised **child process**
//! (`flash-shardd`) speaking the [`crate::wire`] frame protocol over
//! stdin/stdout, so the blast radius of any failure is one worker.
//!
//! The parent side is [`ProcShardWorker`]: a [`SupervisedWorker`] whose
//! state is a [`ChildHandle`]. Each job is one synchronous round-trip —
//! a `Block` frame down, one `Result` frame back per owned shard — so
//! the lockstep mirrors thread mode's per-job synchrony and the
//! verdict-stream equivalence between the two modes holds by
//! construction. Failure detection is layered:
//!
//! * **death** — the child's stdout reaches EOF (reader thread hangs
//!   up) or a write to its stdin fails;
//! * **hang** — the child emits `Heartbeat` frames from a dedicated
//!   thread; silence beyond [`RecoveryOptions::heartbeat_timeout`]
//!   means the child is wedged (the heartbeat thread shares the stdout
//!   lock with result writes, so a child stuck holding that lock stops
//!   heartbeating — an *honest* liveness signal). A whole round-trip
//!   exceeding [`RecoveryOptions::epoch_deadline`] is also a hang;
//! * **corruption** — a frame with a bad checksum or an undecodable
//!   payload.
//!
//! All three surface as a parent-side panic, which the supervision
//! layer ([`crate::supervise`]) treats like any worker crash: kill the
//! child (the handle's `Drop`), back off, respawn, and replay from the
//! last checkpoint. Restore ships the [`WorkerCheckpoint`] to the fresh
//! child as a `Restore` frame.

use crate::error::FlashError;
use crate::journal::EpochJournal;
use crate::shard::{ShardCore, ShardCoreConfig, ShardJob, ShardPoolConfig, ShardResult};
use crate::supervise::{OutputClosed, SupervisedWorker};
use crate::verifier::Property;
use crate::wire::{
    self, read_frame, write_frame, write_value_frame, ChildFaults, FrameKind, FrameRead,
    ProcHello, WorkerCheckpoint,
};
use flash_bdd::EngineTelemetry;
use flash_imt::SubspacePlan;
use flash_netmodel::{ActionId, ActionTable, HeaderLayout, Topology};
use std::collections::HashSet;
use std::io::{BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub(crate) const DEFAULT_HEARTBEAT_TIMEOUT: Duration = Duration::from_secs(1);
pub(crate) const DEFAULT_EPOCH_DEADLINE: Duration = Duration::from_secs(30);

/// Locates the `flash-shardd` binary: explicit config path, then the
/// `FLASH_SHARDD` environment variable, then the directories above the
/// current executable (covering `target/<profile>/` and
/// `target/<profile>/deps/` layouts), then the sibling profile
/// directories of each — `cargo build --release && cargo test` leaves the
/// binary in `target/release/` and the test executables in
/// `target/debug/deps/`.
pub(crate) fn resolve_shardd(explicit: &Option<PathBuf>) -> Result<PathBuf, FlashError> {
    if let Some(p) = explicit {
        if p.is_file() {
            return Ok(p.clone());
        }
        return Err(FlashError::Config(format!(
            "shardd binary not found at {}",
            p.display()
        )));
    }
    if let Ok(p) = std::env::var("FLASH_SHARDD") {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Ok(p);
        }
        return Err(FlashError::Config(format!(
            "FLASH_SHARDD points at {}, which does not exist",
            p.display()
        )));
    }
    std::env::current_exe()
        .ok()
        .and_then(|exe| shardd_near(&exe))
        .ok_or_else(|| {
            FlashError::Config(
                "flash-shardd binary not found; set RecoveryOptions::shardd_path or FLASH_SHARDD"
                    .into(),
            )
        })
}

/// `flash-shardd` in one of the three directories above `exe`, else in a
/// subdirectory of one of them (nearest first, names ascending).
fn shardd_near(exe: &Path) -> Option<PathBuf> {
    let above: Vec<&Path> = exe.ancestors().skip(1).take(3).collect();
    let own = above.iter().map(|dir| dir.join(SHARDD_BIN)).find(|p| p.is_file());
    own.or_else(|| {
        above.iter().find_map(|dir| {
            let mut siblings: Vec<PathBuf> = std::fs::read_dir(dir)
                .ok()?
                .filter_map(|e| Some(e.ok()?.path().join(SHARDD_BIN)))
                .filter(|p| p.is_file())
                .collect();
            siblings.sort();
            siblings.into_iter().next()
        })
    })
}

const SHARDD_BIN: &str = "flash-shardd";

/// What the reader thread hands the parent: a frame, or the transport
/// error that ended the stream. Channel disconnection = child EOF.
type ChildFrame = Result<(FrameKind, Vec<u8>), String>;

/// A live child process plus its frame-reader thread. Dropping the
/// handle kills and reaps the child — no zombies, whatever path
/// (panic, drain, output-closed) releases the state.
pub(crate) struct ChildHandle {
    child: Child,
    stdin: ChildStdin,
    frames: mpsc::Receiver<ChildFrame>,
}

impl Drop for ChildHandle {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Parent-side proxy for one `flash-shardd` worker.
pub(crate) struct ProcShardWorker {
    /// Hello template for spawns. `faults` is latched to the default
    /// after the first spawn so an injected fault fires at most once
    /// per pool run (a respawned child must not re-fire it during
    /// replay).
    hello: ProcHello,
    shardd: PathBuf,
    worker: usize,
    /// Results expected per block round-trip (= owned shards).
    owned: usize,
    out: mpsc::Sender<ShardResult>,
    /// Parent-side delivery dedup; survives child restarts.
    reported: HashSet<(u64, usize)>,
    last_seq: Option<u64>,
    heartbeat_timeout: Duration,
    epoch_deadline: Duration,
    checkpoint_every: Option<u64>,
    journal: Option<EpochJournal>,
    /// Engine telemetry folded from the latest block's results.
    telemetry: EngineTelemetry,
}

impl ProcShardWorker {
    pub fn new(
        cfg: &ShardPoolConfig,
        shardd: PathBuf,
        shards: Vec<usize>,
        worker: usize,
        out: mpsc::Sender<ShardResult>,
        journal: Option<EpochJournal>,
    ) -> Self {
        let heartbeat_timeout =
            cfg.recovery.heartbeat_timeout.unwrap_or(DEFAULT_HEARTBEAT_TIMEOUT);
        let faults = cfg
            .faults
            .as_ref()
            .map(|p| ChildFaults {
                kill_at_block: p.kill_process_for(worker),
                hang_at_block: p
                    .hang_for(worker)
                    .map(|(after, dur)| (after, dur.as_millis() as u64)),
                corrupt_frame: p.corrupt_for(worker),
            })
            .unwrap_or_default();
        let hello = ProcHello {
            worker,
            shards,
            layout: cfg
                .layout
                .fields()
                .map(|(_, f)| (f.name.clone(), f.width))
                .collect(),
            devices: cfg
                .topo
                .devices()
                .map(|d| (cfg.topo.name(d).to_string(), cfg.topo.is_external(d)))
                .collect(),
            links: cfg
                .topo
                .devices()
                .flat_map(|d| cfg.topo.successors(d).iter().map(move |s| (d.0, s.0)))
                .collect(),
            actions: (0..cfg.actions.len())
                .map(|i| cfg.actions.get(ActionId(i as u32)).clone())
                .collect(),
            subspaces: cfg.plan.subspaces.clone(),
            loop_freedom: cfg
                .properties
                .iter()
                .any(|p| matches!(p, Property::LoopFreedom)),
            bst: cfg.bst as u64,
            collect_class_keys: cfg.collect_class_keys,
            heartbeat_ms: (heartbeat_timeout.as_millis() as u64 / 4).max(10),
            faults,
        };
        let owned = hello.shards.len();
        ProcShardWorker {
            hello,
            shardd,
            worker,
            owned,
            out,
            reported: HashSet::new(),
            last_seq: None,
            heartbeat_timeout,
            epoch_deadline: cfg.recovery.epoch_deadline.unwrap_or(DEFAULT_EPOCH_DEADLINE),
            checkpoint_every: cfg.recovery.checkpoint_every,
            journal,
            telemetry: EngineTelemetry::default(),
        }
    }

    /// Panics with a transport-level failure; supervision turns this
    /// into kill + backoff + respawn + checkpoint replay.
    fn transport_panic(&self, msg: impl Into<String>) -> ! {
        panic!("{}", FlashError::Process { worker: self.worker, msg: msg.into() })
    }

    fn spawn_child(&mut self, restore: Option<&WorkerCheckpoint>) -> ChildHandle {
        let mut child = match Command::new(&self.shardd)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
        {
            Ok(c) => c,
            Err(e) => self.transport_panic(format!(
                "failed to spawn {}: {e}",
                self.shardd.display()
            )),
        };
        let mut stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let (ftx, frames) = mpsc::channel::<ChildFrame>();
        std::thread::spawn(move || {
            let mut r = BufReader::new(stdout);
            loop {
                match read_frame(&mut r) {
                    Ok(FrameRead::Frame(kind, payload)) => {
                        if ftx.send(Ok((kind, payload))).is_err() {
                            return; // parent gone
                        }
                    }
                    Ok(FrameRead::Eof) => return, // hangup signals EOF
                    Err(e) => {
                        let _ = ftx.send(Err(e.to_string()));
                        return;
                    }
                }
            }
        });
        let hello = self.hello.clone();
        // Latch: injected faults ride the first Hello only. A child
        // respawned after the fault fired replays the same blocks and
        // must not re-fire it.
        self.hello.faults = ChildFaults::default();
        if let Err(e) = write_value_frame(&mut stdin, FrameKind::Hello, &hello) {
            drop(ChildHandle { child, stdin, frames });
            self.transport_panic(format!("hello write failed: {e}"));
        }
        if let Some(cp) = restore {
            if let Err(e) = write_value_frame(&mut stdin, FrameKind::Restore, cp) {
                drop(ChildHandle { child, stdin, frames });
                self.transport_panic(format!("restore write failed: {e}"));
            }
        }
        ChildHandle { child, stdin, frames }
    }

    /// Waits for the next non-heartbeat frame, enforcing both liveness
    /// layers: heartbeat silence and the whole-round-trip deadline.
    fn await_frame(&self, handle: &ChildHandle, round_start: Instant) -> (FrameKind, Vec<u8>) {
        let mut last_alive = Instant::now();
        loop {
            if round_start.elapsed() > self.epoch_deadline {
                self.transport_panic(format!(
                    "epoch deadline {:?} exceeded",
                    self.epoch_deadline
                ));
            }
            if last_alive.elapsed() > self.heartbeat_timeout {
                self.transport_panic(format!(
                    "no heartbeat for {:?} (child hung)",
                    self.heartbeat_timeout
                ));
            }
            match handle.frames.recv_timeout(Duration::from_millis(25)) {
                Ok(Ok((FrameKind::Heartbeat, _))) => last_alive = Instant::now(),
                Ok(Ok(frame)) => return frame,
                Ok(Err(msg)) => self.transport_panic(format!("corrupt frame: {msg}")),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    self.transport_panic("child process died (stdout EOF)")
                }
            }
        }
    }

    fn send_job_frame(&self, handle: &mut ChildHandle, job: &ShardJob) {
        let res = match job {
            ShardJob::Block(b) => write_value_frame(&mut handle.stdin, FrameKind::Block, &**b),
            ShardJob::Collect => write_frame(&mut handle.stdin, FrameKind::Collect, &[]),
            // Gated at the ShardPool API: bulk-ingestion jobs are never
            // routed to process-mode workers.
            ShardJob::Ingest(_) | ShardJob::Seal { .. } => {
                unreachable!("bulk-ingestion jobs are thread-mode only")
            }
        };
        if let Err(e) = res {
            self.transport_panic(format!("job write failed: {e}"));
        }
    }
}

impl SupervisedWorker for ProcShardWorker {
    type Job = ShardJob;
    type State = ChildHandle;
    type Checkpoint = WorkerCheckpoint;

    fn build(&mut self) -> ChildHandle {
        self.spawn_child(None)
    }

    fn restore(&mut self, cp: &WorkerCheckpoint) -> ChildHandle {
        self.spawn_child(Some(cp))
    }

    fn checkpoint_every(&self) -> Option<u64> {
        self.checkpoint_every
    }

    fn take_checkpoint(&mut self, state: &mut ChildHandle) -> Option<WorkerCheckpoint> {
        if let Err(e) = write_frame(&mut state.stdin, FrameKind::CheckpointReq, &[]) {
            self.transport_panic(format!("checkpoint request failed: {e}"));
        }
        let (kind, payload) = self.await_frame(state, Instant::now());
        if kind != FrameKind::Checkpoint {
            self.transport_panic(format!("expected Checkpoint frame, got {kind:?}"));
        }
        let mut cp: WorkerCheckpoint = match wire::decode(&payload) {
            Ok(cp) => cp,
            Err(e) => self.transport_panic(format!("undecodable checkpoint: {e}")),
        };
        // Delivery bookkeeping lives on the parent (it survives child
        // restarts); the child only snapshots verification state.
        cp.worker = self.worker;
        cp.last_seq = self.last_seq.unwrap_or(u64::MAX);
        cp.reported = {
            let mut v: Vec<(u64, u64)> =
                self.reported.iter().map(|&(s, sh)| (s, sh as u64)).collect();
            v.sort_unstable();
            v
        };
        Some(cp)
    }

    fn journal_job(&mut self, job: &ShardJob) {
        if let Some(j) = &mut self.journal {
            let res = match job {
                ShardJob::Block(b) => j.append_block(b),
                ShardJob::Collect => j.append_collect(),
                ShardJob::Ingest(b) => j.append_ingest(b),
                ShardJob::Seal { seq, devices } => j.append_seal(*seq, devices),
            };
            if let Err(e) = res {
                eprintln!("flash: disabling durable journal: {e}");
                self.journal = None;
            }
        }
    }

    fn journal_checkpoint(&mut self, cp: &WorkerCheckpoint) {
        if let Some(j) = &mut self.journal {
            if let Err(e) = j.rotate_checkpoint(cp) {
                eprintln!("flash: disabling durable journal: {e}");
                self.journal = None;
            }
        }
    }

    fn process(&mut self, state: &mut ChildHandle, job: ShardJob) -> Result<(), OutputClosed> {
        self.send_job_frame(state, &job);
        let round_start = Instant::now();
        match job {
            ShardJob::Collect => {
                let (kind, _) = self.await_frame(state, round_start);
                if kind != FrameKind::CollectDone {
                    self.transport_panic(format!("expected CollectDone, got {kind:?}"));
                }
                Ok(())
            }
            ShardJob::Block(block) => {
                self.last_seq = Some(block.seq);
                // Lockstep: one Result frame per owned shard, matching
                // thread mode's per-job synchrony exactly.
                let mut telemetry = EngineTelemetry::default();
                for _ in 0..self.owned {
                    let (kind, payload) = self.await_frame(state, round_start);
                    if kind != FrameKind::Result {
                        self.transport_panic(format!("expected Result frame, got {kind:?}"));
                    }
                    let r: ShardResult = match wire::decode(&payload) {
                        Ok(r) => r,
                        Err(e) => self.transport_panic(format!("undecodable result: {e}")),
                    };
                    telemetry.absorb(&r.engine);
                    if self.reported.insert((r.seq, r.shard)) {
                        self.out.send(r).map_err(|_| OutputClosed)?;
                    }
                }
                self.telemetry = telemetry;
                Ok(())
            }
            ShardJob::Ingest(_) | ShardJob::Seal { .. } => {
                unreachable!("bulk-ingestion jobs are thread-mode only")
            }
        }
    }

    fn telemetry(&self, _state: &ChildHandle) -> EngineTelemetry {
        self.telemetry
    }
}

// ---------------------------------------------------------------------
// Child side: the `flash-shardd` main loop.
// ---------------------------------------------------------------------

/// Rebuilds the shard-core configuration a Hello frame describes.
fn core_config_from_hello(hello: &ProcHello) -> ShardCoreConfig {
    let fields: Vec<(&str, u32)> =
        hello.layout.iter().map(|(n, w)| (n.as_str(), *w)).collect();
    let layout = HeaderLayout::new(&fields);
    let mut topo = Topology::new();
    for (name, external) in &hello.devices {
        if *external {
            topo.add_external(name.clone());
        } else {
            topo.add_device(name.clone());
        }
    }
    for &(from, to) in &hello.links {
        topo.add_link(flash_netmodel::DeviceId(from), flash_netmodel::DeviceId(to));
    }
    // Interning in id order reproduces identical ActionIds (Drop is
    // preinterned as id 0 by `ActionTable::new`, matching the parent).
    let mut actions = ActionTable::new();
    for a in &hello.actions {
        actions.intern(a.clone());
    }
    ShardCoreConfig {
        topo: Arc::new(topo),
        actions: Arc::new(actions),
        layout,
        plan: SubspacePlan { subspaces: hello.subspaces.clone() },
        properties: if hello.loop_freedom {
            vec![Property::LoopFreedom]
        } else {
            Vec::new()
        },
        bst: hello.bst as usize,
        collect_class_keys: hello.collect_class_keys,
    }
}

/// Writes one frame under the shared stdout lock (heartbeat thread and
/// result writes interleave at frame granularity).
fn write_locked(
    out: &Mutex<std::io::Stdout>,
    bytes: &[u8],
) -> Result<(), std::io::Error> {
    let mut o = out.lock().unwrap();
    o.write_all(bytes)?;
    o.flush()
}

/// The `flash-shardd` entry point: reads the Hello, hosts a
/// [`ShardCore`], and answers frames until stdin closes. Returns the
/// process exit code.
///
/// Liveness contract: a dedicated thread emits `Heartbeat` frames every
/// `heartbeat_ms` **under the same stdout lock as result writes** — a
/// child wedged while holding that lock (e.g. the injected hang fault)
/// genuinely stops heartbeating, which is exactly what the parent's
/// hang detector is supposed to catch.
pub fn shardd_main() -> i32 {
    let stdin = std::io::stdin();
    let mut input = BufReader::new(stdin.lock());
    let hello: ProcHello = match read_frame(&mut input) {
        Ok(FrameRead::Frame(FrameKind::Hello, payload)) => match wire::decode(&payload) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("flash-shardd: bad hello: {e}");
                return 2;
            }
        },
        other => {
            eprintln!("flash-shardd: expected Hello frame, got {:?}", other.map(|_| ()));
            return 2;
        }
    };
    let cfg = core_config_from_hello(&hello);
    let mut core = ShardCore::new(cfg.clone(), hello.shards.clone(), hello.worker);
    let mut last_seq: Option<u64> = None;

    let out = Arc::new(Mutex::new(std::io::stdout()));
    {
        let out = out.clone();
        let every = Duration::from_millis(hello.heartbeat_ms.max(1));
        std::thread::spawn(move || loop {
            std::thread::sleep(every);
            if write_locked(&out, &wire::frame_bytes(FrameKind::Heartbeat, &[])).is_err() {
                return; // parent gone
            }
        });
    }

    let faults = hello.faults;
    let mut blocks_seen: u64 = 0;
    let mut results_written: u64 = 0;
    let mut hang_fired = false;

    loop {
        let (kind, payload) = match read_frame(&mut input) {
            Ok(FrameRead::Frame(k, p)) => (k, p),
            Ok(FrameRead::Eof) => return 0, // parent closed stdin: shutdown
            Err(e) => {
                eprintln!("flash-shardd: corrupt inbound frame: {e}");
                return 3;
            }
        };
        match kind {
            FrameKind::Block => {
                blocks_seen += 1;
                if let Some(n) = faults.kill_at_block {
                    if blocks_seen >= n {
                        // A hard abort, not a panic: the process dies
                        // mid-protocol, the way a real crash would.
                        std::process::abort();
                    }
                }
                if let Some((n, ms)) = faults.hang_at_block {
                    if blocks_seen >= n && !hang_fired {
                        hang_fired = true;
                        // Wedge while *holding the output lock*: the
                        // heartbeat thread starves, so the parent sees a
                        // real heartbeat loss rather than a simulated
                        // flag.
                        let _guard = out.lock().unwrap();
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                }
                let block: crate::shard::UpdateBlock = match wire::decode(&payload) {
                    Ok(b) => b,
                    Err(e) => {
                        eprintln!("flash-shardd: bad block: {e}");
                        return 3;
                    }
                };
                last_seq = Some(block.seq);
                let corrupt_at = faults.corrupt_frame;
                let out_ref = &out;
                let res = core.apply_block(&block, |r| {
                    results_written += 1;
                    let payload = wire::encode(&r);
                    let mut bytes = wire::frame_bytes(FrameKind::Result, &payload);
                    if corrupt_at == Some(results_written) {
                        // Flip a payload byte *after* the checksum was
                        // computed: the parent must detect the mismatch.
                        let mid = 5 + payload.len() / 2;
                        bytes[mid] ^= 0x5A;
                    }
                    write_locked(out_ref, &bytes).map_err(|_| OutputClosed)?;
                    Ok(())
                });
                if res.is_err() {
                    return 0; // parent hung up
                }
            }
            FrameKind::Collect => {
                core.collect();
                if write_locked(&out, &wire::frame_bytes(FrameKind::CollectDone, &[])).is_err() {
                    return 0;
                }
            }
            FrameKind::CheckpointReq => {
                // Delivery bookkeeping is parent-side; the child
                // snapshots verification state only.
                let cp = core.checkpoint(last_seq, &HashSet::new());
                let payload = wire::encode(&cp);
                if write_locked(&out, &wire::frame_bytes(FrameKind::Checkpoint, &payload)).is_err()
                {
                    return 0;
                }
            }
            FrameKind::Restore => {
                let cp: WorkerCheckpoint = match wire::decode(&payload) {
                    Ok(cp) => cp,
                    Err(e) => {
                        eprintln!("flash-shardd: bad restore checkpoint: {e}");
                        return 3;
                    }
                };
                if cp.last_seq != u64::MAX {
                    last_seq = Some(cp.last_seq);
                }
                core = ShardCore::restore(cfg.clone(), hello.shards.clone(), hello.worker, &cp);
            }
            FrameKind::Shutdown => return 0,
            other => {
                eprintln!("flash-shardd: unexpected frame {other:?}");
                return 3;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_shardd_rejects_missing_explicit_path() {
        let missing = Some(PathBuf::from("/nonexistent/flash-shardd"));
        assert!(matches!(
            resolve_shardd(&missing),
            Err(FlashError::Config(_))
        ));
    }

    #[test]
    fn shardd_is_found_in_a_sibling_profile_but_the_own_profile_wins() {
        let root = std::env::temp_dir().join(format!("flash-shardd-near-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let deps = root.join("target/debug/deps");
        std::fs::create_dir_all(&deps).unwrap();
        std::fs::create_dir_all(root.join("target/release")).unwrap();
        let exe = deps.join("recovery-0123456789abcdef");
        assert_eq!(shardd_near(&exe), None, "nothing built yet");
        let release = root.join("target/release").join(SHARDD_BIN);
        std::fs::write(&release, b"").unwrap();
        assert_eq!(shardd_near(&exe), Some(release), "tier-1 layout: release bin, debug tests");
        let debug = root.join("target/debug").join(SHARDD_BIN);
        std::fs::write(&debug, b"").unwrap();
        assert_eq!(shardd_near(&exe), Some(debug), "the test's own profile comes first");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn hello_reconstruction_matches_parent_universe() {
        use flash_netmodel::{ActionTable as AT, HeaderLayout as HL, Topology as T};
        let mut topo = T::new();
        let a = topo.add_device("a");
        let b = topo.add_device("b");
        let x = topo.add_external("x");
        topo.add_bilink(a, b);
        topo.add_link(b, x);
        let mut actions = AT::new();
        actions.fwd(a);
        actions.ecmp(vec![a, b]);
        let layout = HL::new(&[("dst", 8), ("src", 4)]);
        let hello = ProcHello {
            worker: 0,
            shards: vec![0],
            layout: layout.fields().map(|(_, f)| (f.name.clone(), f.width)).collect(),
            devices: topo
                .devices()
                .map(|d| (topo.name(d).to_string(), topo.is_external(d)))
                .collect(),
            links: topo
                .devices()
                .flat_map(|d| topo.successors(d).iter().map(move |s| (d.0, s.0)))
                .collect(),
            actions: (0..actions.len())
                .map(|i| actions.get(ActionId(i as u32)).clone())
                .collect(),
            subspaces: vec![flash_imt::SubspaceSpec::whole()],
            loop_freedom: true,
            bst: 1,
            collect_class_keys: false,
            heartbeat_ms: 100,
            faults: ChildFaults::default(),
        };
        let cfg = core_config_from_hello(&hello);
        assert_eq!(cfg.topo.device_count(), 3);
        assert!(cfg.topo.is_external(x));
        assert!(cfg.topo.has_link(a, b) && cfg.topo.has_link(b, x));
        assert_eq!(cfg.actions.len(), actions.len());
        for i in 0..actions.len() {
            let id = ActionId(i as u32);
            assert_eq!(cfg.actions.get(id), actions.get(id), "action ids must be stable");
        }
        assert_eq!(cfg.layout.fields().count(), 2);
        assert!(matches!(cfg.properties[..], [Property::LoopFreedom]));
    }
}
