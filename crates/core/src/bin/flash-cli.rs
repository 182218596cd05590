//! `flash-cli` — verify a network described in the text adapter format.
//!
//! ```text
//! flash-cli check <network-file> [--classes] [--quiet] [--ingest-threads N]
//! flash-cli journal <journal-file>
//! flash-cli dataset generate <dir> [--k N] [--hostbits N] [--prefixes N] [--quiet]
//! flash-cli dataset load <dir> [--classes] [--quiet] [--ingest-threads N]
//! ```
//!
//! `check` verifies a text network file (see `flash_core::adapter` for
//! the format) with a two-pass streaming ingest: pass one parses the
//! topology, actions and requirements (dropping rule bodies), pass two
//! streams each device's FIB into Fast IMT as its block completes — the
//! whole rule set is never resident. Verdicts plus model statistics are
//! printed. Exit code 1 when any property is violated.
//!
//! With `--ingest-threads N >= 1` (the default: the machine's available
//! parallelism, or the `FLASH_INGEST_THREADS` env var), pass two runs
//! the pipelined snapshot path: N reader threads parse and resolve the
//! FIB blocks in parallel while the main thread buffers them through the
//! bulk-load fast path, and consistent detection runs once over the
//! sealed snapshot. `--ingest-threads 0` forces the legacy sequential
//! path, which re-verifies after every device.
//!
//! `dataset generate` writes a fat-tree StdFIB dataset to a directory in
//! the on-disk layout of `flash_workloads::dataset` (HeTu-style:
//! `topology.json`, `packet_space.json`, `edge_devices`,
//! `data/routes/<device>`), generating device by device. `dataset load`
//! streams such a directory through the verifier.
//!
//! `journal` pretty-prints a durable epoch journal (a `worker-N.fjl`
//! file written by `RecoveryOptions::journal_dir`): the checkpoint it
//! leads with, the jobs journaled since, and whether the tail is clean
//! or torn by a crash. Exit code 1 on a torn tail.
//!
//! `query` loads a dataset directory into a sharded pool with the
//! epoch-snapshot query tier attached and answers one reachability (or,
//! with `--via`, waypoint) question against the sealed snapshots. Exit
//! code 0 when every intersecting class satisfies the property, 1
//! otherwise.
//!
//! `--shard-mode thread|process` selects worker isolation for `check`
//! and `dataset load` (default `thread`). Process mode is incompatible
//! with the pipelined bulk-ingest path (`--ingest-threads >= 1`) and
//! with `query` (snapshots share node arenas); both combinations are
//! rejected at argument parsing, before any file is touched.

use flash_core::adapter::{
    format_prefix, parse_network_header, stream_network_fibs, stream_network_fibs_parallel,
};
use flash_core::{
    AnswerKind, Backpressure, EpochJournal, EpochReport, JournalEntry, JournalTail, Property,
    PropertyReport, Query, QueryHub, QueryService, QueryServiceConfig, ShardMode, ShardPool,
    ShardPoolConfig, SubspaceVerifier, SubspaceVerifierConfig,
};
use flash_imt::{SubspacePlan, SubspaceSpec};
use flash_netmodel::{ActionTable, DeviceId, FieldId, HeaderLayout, RuleUpdate, Topology};
use flash_workloads::dataset;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str =
    "usage: flash-cli check <network-file> [--classes] [--quiet] [--ingest-threads N] \
     [--shard-mode thread|process]\n       \
     flash-cli journal <journal-file>\n       \
     flash-cli dataset generate <dir> [--k N] [--hostbits N] [--prefixes N] [--quiet]\n       \
     flash-cli dataset load <dir> [--classes] [--quiet] [--ingest-threads N] \
     [--shard-mode thread|process]\n       \
     flash-cli query <dataset-dir> --src <device> --dst <device> [--via <device>] \
     [--prefix A.B.C.D/L] [--shard-bits N] [--readers N] [--quiet]";

/// Parses a `--shard-mode` value.
fn parse_shard_mode(v: &str) -> Option<ShardMode> {
    match v {
        "thread" => Some(ShardMode::Thread),
        "process" => Some(ShardMode::Process),
        _ => None,
    }
}

/// Fail-fast validation of the `--shard-mode` / `--ingest-threads`
/// combination, run at argument parsing so an incompatible pair is
/// rejected before any file is opened or any rule is loaded (previously
/// this surfaced only mid-load, as the pool's bulk-job config error).
fn validate_shard_mode(mode: ShardMode, ingest_threads: usize) -> Result<(), String> {
    if mode == ShardMode::Process && ingest_threads >= 1 {
        return Err(
            "--shard-mode process cannot run the pipelined bulk-ingest path \
             (bulk ingestion requires thread mode): pass --ingest-threads 0 for \
             the sequential path, or drop --shard-mode process"
                .into(),
        );
    }
    Ok(())
}

/// Parses `A.B.C.D/L` (dotted quad) or `V/L` (raw integer) into a
/// field-width-aligned `(value, len)` prefix.
fn parse_prefix(s: &str) -> Option<(u64, u32)> {
    let (v, l) = s.split_once('/')?;
    let len: u32 = l.parse().ok()?;
    let value = if v.contains('.') {
        let mut acc = 0u64;
        let mut parts = 0u32;
        for p in v.split('.') {
            let octet: u64 = p.parse().ok()?;
            if octet > 255 {
                return None;
            }
            acc = (acc << 8) | octet;
            parts += 1;
        }
        if parts != 4 {
            return None;
        }
        acc
    } else {
        v.parse().ok()?
    };
    Some((value, len))
}

/// Resolves the ingest-thread count: explicit flag, then the
/// `FLASH_INGEST_THREADS` environment variable, then the machine's
/// available parallelism (the shard-pool default). `0` selects the
/// legacy sequential per-device path.
fn resolve_ingest_threads(flag: Option<usize>) -> usize {
    flag.or_else(|| {
        std::env::var("FLASH_INGEST_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
    })
    .unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    match it.next().map(|s| s.as_str()) {
        Some("check") => {}
        Some("journal") => {
            let Some(path) = it.next() else {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            };
            return print_journal(path);
        }
        Some("dataset") => return cmd_dataset(&args[1..]),
        Some("query") => return cmd_query(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    }
    let mut files = Vec::new();
    let mut show_classes = false;
    let mut quiet = false;
    let mut ingest_threads: Option<usize> = None;
    let mut shard_mode = ShardMode::Thread;
    let mut expect: Option<&str> = None;
    for a in it {
        if let Some(flag) = expect.take() {
            match flag {
                "--ingest-threads" => {
                    let Ok(v) = a.parse::<usize>() else {
                        eprintln!("bad value for --ingest-threads: {a:?}");
                        return ExitCode::from(2);
                    };
                    ingest_threads = Some(v);
                }
                "--shard-mode" => {
                    let Some(m) = parse_shard_mode(a) else {
                        eprintln!("bad value for --shard-mode: {a:?} (thread or process)");
                        return ExitCode::from(2);
                    };
                    shard_mode = m;
                }
                _ => unreachable!(),
            }
            continue;
        }
        match a.as_str() {
            "--classes" => show_classes = true,
            "--quiet" => quiet = true,
            "--ingest-threads" | "--shard-mode" => expect = Some(a.as_str()),
            f => files.push(f.to_string()),
        }
    }
    if let Some(flag) = expect {
        eprintln!("{flag} needs a value");
        return ExitCode::from(2);
    }
    let Some(path) = files.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let threads = resolve_ingest_threads(ingest_threads);
    // Satellite fix: reject process mode + pipelined bulk ingest here,
    // with both flags in hand, instead of failing mid-load. An explicit
    // --ingest-threads 0 opts into the sequential path; with no explicit
    // flag, process mode implies it.
    let threads = if shard_mode == ShardMode::Process && ingest_threads.is_none() {
        0
    } else {
        threads
    };
    if let Err(msg) = validate_shard_mode(shard_mode, threads) {
        eprintln!("{msg}");
        return ExitCode::from(2);
    }
    cmd_check(path, show_classes, quiet, threads, shard_mode)
}

fn open_reader(path: &str) -> Result<std::io::BufReader<std::fs::File>, ExitCode> {
    match std::fs::File::open(path) {
        Ok(f) => Ok(std::io::BufReader::new(f)),
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            Err(ExitCode::from(2))
        }
    }
}

fn cmd_check(
    path: &str,
    show_classes: bool,
    quiet: bool,
    ingest_threads: usize,
    shard_mode: ShardMode,
) -> ExitCode {
    // Pass 1: header only — topology, actions, requirements, rule counts.
    let reader = match open_reader(path) {
        Ok(r) => r,
        Err(c) => return c,
    };
    let header = match parse_network_header(reader) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(2);
        }
    };
    if !quiet {
        println!(
            "loaded {}: {} devices, {} links, {} FIBs ({} rules), {} properties",
            path,
            header.topo.device_count(),
            header.topo.link_count(),
            header.fib_devices.len(),
            header.total_rules,
            header.properties.len()
        );
    }

    if shard_mode == ShardMode::Process {
        // Process-isolated pool, sequential per-device blocks (the
        // bulk path was rejected at argument parsing).
        let reader = match open_reader(path) {
            Ok(r) => r,
            Err(c) => return c,
        };
        let run = run_pool_sequential(
            &header.topo,
            &header.actions,
            header.layout.clone(),
            header.properties.clone(),
            quiet,
            |sink| stream_network_fibs(reader, |dev, rules| {
                sink(dev, rules.into_iter().map(RuleUpdate::insert).collect());
                Ok(())
            })
            .map(|_| ())
            .map_err(|e| e.to_string()),
        );
        return match run {
            Ok(violated) => {
                if violated {
                    ExitCode::from(1)
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                ExitCode::from(2)
            }
        };
    }

    let mut verifier = SubspaceVerifier::new(SubspaceVerifierConfig {
        topo: header.topo.clone(),
        actions: header.actions.clone(),
        layout: header.layout.clone(),
        subspace: SubspaceSpec::whole(),
        bst: usize::MAX,
        properties: header.properties.clone(),
    });

    // Pass 2: stream each device's FIB straight into the verifier —
    // pipelined through the bulk-load snapshot path, or sequentially
    // with per-device detection when --ingest-threads 0.
    let mut violated = false;
    let t0 = std::time::Instant::now();
    let topo = header.topo.clone();
    let streamed = if ingest_threads >= 1 {
        stream_network_fibs_parallel(
            || std::fs::File::open(path).map(std::io::BufReader::new),
            &header,
            ingest_threads,
            |_, rules| {
                rules
                    .into_iter()
                    .map(flash_netmodel::RuleUpdate::insert)
                    .collect::<Vec<_>>()
            },
            |dev, updates| {
                verifier.ingest_bulk(dev, updates);
                Ok(())
            },
        )
        .map(|_| ())
        .map(|()| {
            let mut synced = header.fib_devices.clone();
            synced.sort_unstable();
            synced.dedup();
            for report in verifier.seal_bulk(&synced) {
                print_report(&report, &topo, quiet, &mut violated);
            }
        })
    } else {
        let reader = match open_reader(path) {
            Ok(r) => r,
            Err(c) => return c,
        };
        stream_network_fibs(reader, |dev, rules| {
            let updates = rules
                .into_iter()
                .map(flash_netmodel::RuleUpdate::insert)
                .collect();
            for report in verifier.ingest_synchronized(dev, updates) {
                print_report(&report, &topo, quiet, &mut violated);
            }
            Ok(())
        })
        .map(|_| ())
    };
    if let Err(e) = streamed {
        eprintln!("{path}: {e}");
        return ExitCode::from(2);
    }
    let elapsed = t0.elapsed();

    print_model_stats(&verifier, quiet, elapsed);
    if show_classes {
        print_classes(&mut verifier, &header.topo, &header.actions);
    }

    if violated {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn print_report(
    report: &PropertyReport,
    topo: &Topology,
    quiet: bool,
    violated: &mut bool,
) {
    match report {
        PropertyReport::LoopFound { cycle } => {
            *violated = true;
            let names: Vec<&str> = cycle.iter().map(|d| topo.name(*d)).collect();
            println!("VIOLATION loop: {}", names.join(" -> "));
        }
        PropertyReport::Unsatisfied { requirement } => {
            *violated = true;
            println!("VIOLATION requirement {requirement:?} cannot be satisfied");
        }
        PropertyReport::Satisfied { requirement } => {
            if !quiet {
                println!("ok: requirement {requirement:?} satisfied");
            }
        }
        PropertyReport::LoopFreedomHolds => {
            if !quiet {
                println!("ok: loop freedom holds");
            }
        }
    }
}

fn print_epoch(ep: &EpochReport, topo: &Topology, quiet: bool, violated: &mut bool) {
    for s in &ep.shards {
        for r in &s.reports {
            print_report(r, topo, quiet, violated);
        }
    }
    for (_, r) in &ep.late {
        print_report(r, topo, quiet, violated);
    }
}

/// Runs a sequential per-device verification through a process-isolated
/// [`ShardPool`] (one whole-space shard): each device's FIB is one
/// submitted block, verdicts print as epochs complete. Returns whether
/// any property was violated.
fn run_pool_sequential(
    topo: &Arc<Topology>,
    actions: &Arc<ActionTable>,
    layout: HeaderLayout,
    properties: Vec<Property>,
    quiet: bool,
    stream: impl FnOnce(&mut dyn FnMut(DeviceId, Vec<RuleUpdate>)) -> Result<(), String>,
) -> Result<bool, String> {
    let t0 = std::time::Instant::now();
    let mut cfg = ShardPoolConfig::model_only(layout, SubspacePlan::single(), usize::MAX, 1);
    cfg.topo = topo.clone();
    cfg.actions = actions.clone();
    cfg.properties = properties;
    cfg.recovery.mode = ShardMode::Process;
    let mut pool = ShardPool::spawn(cfg).map_err(|e| e.to_string())?;
    let mut violated = false;
    let mut classes = 0usize;
    {
        let mut sink = |dev: DeviceId, updates: Vec<RuleUpdate>| {
            pool.submit(updates.into_iter().map(|u| (dev, u)).collect());
            while let Some(ep) = pool.try_recv_epoch() {
                classes = ep.total_classes();
                print_epoch(&ep, topo, quiet, &mut violated);
            }
        };
        stream(&mut sink)?;
    }
    let outcome = pool.drain(Duration::from_secs(600));
    for ep in &outcome.epochs {
        classes = ep.total_classes();
        print_epoch(ep, topo, quiet, &mut violated);
    }
    for (_, r) in &outcome.late {
        print_report(r, topo, quiet, &mut violated);
    }
    if !outcome.abandoned.is_empty() {
        return Err(format!(
            "workers {:?} missed the drain deadline",
            outcome.abandoned
        ));
    }
    if !quiet {
        println!(
            "model: {classes} equivalence classes (process-isolated shard pool), {:.1?}",
            t0.elapsed()
        );
    }
    Ok(violated)
}

fn print_model_stats(verifier: &SubspaceVerifier, quiet: bool, elapsed: std::time::Duration) {
    if quiet {
        return;
    }
    let mgr = verifier.manager();
    let stats = mgr.stats();
    println!(
        "model: {} equivalence classes from {} updates ({} atomic -> {} compact overwrites), \
         {} predicate ops, {:.1?}",
        mgr.model().len(),
        stats.updates_accepted,
        stats.atomic_overwrites,
        stats.compact_overwrites,
        mgr.engine().op_count(),
        elapsed
    );
    println!(
        "class index: {} candidates probed, {} missed, {} classes skipped, {} rebuilds",
        stats.classes_probed, stats.and_misses, stats.classes_pruned, stats.index_rebuilds
    );
    println!("predicates: {}", stats.engine.summary());
    let mt = flash_netmodel::MatchTable::global().stats();
    println!(
        "matches: {} distinct interned ({} hits, ~{} KiB)",
        mt.distinct,
        mt.hits,
        mt.approx_bytes / 1024
    );
}

fn cmd_dataset(args: &[String]) -> ExitCode {
    let mut it = args.iter();
    let sub = it.next().map(|s| s.as_str());
    let mut dirs = Vec::new();
    let mut quiet = false;
    let mut show_classes = false;
    let mut k = 8u32;
    let mut host_bits = 8u32;
    let mut prefixes = 4u32;
    let mut ingest_threads: Option<usize> = None;
    let mut shard_mode = ShardMode::Thread;
    let mut expect_num: Option<&str> = None;
    for a in it {
        if let Some(flag) = expect_num.take() {
            if flag == "--shard-mode" {
                let Some(m) = parse_shard_mode(a) else {
                    eprintln!("bad value for --shard-mode: {a:?} (thread or process)");
                    return ExitCode::from(2);
                };
                shard_mode = m;
                continue;
            }
            let Ok(v) = a.parse::<u32>() else {
                eprintln!("bad value for {flag}: {a:?}");
                return ExitCode::from(2);
            };
            match flag {
                "--k" => k = v,
                "--hostbits" => host_bits = v,
                "--prefixes" => prefixes = v,
                "--ingest-threads" => ingest_threads = Some(v as usize),
                _ => unreachable!(),
            }
            continue;
        }
        match a.as_str() {
            "--quiet" => quiet = true,
            "--classes" => show_classes = true,
            "--k" | "--hostbits" | "--prefixes" | "--ingest-threads" | "--shard-mode" => {
                expect_num = Some(a.as_str())
            }
            d => dirs.push(d.to_string()),
        }
    }
    if expect_num.is_some() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let Some(dir) = dirs.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match sub {
        Some("generate") => {
            if k < 2 || !k.is_multiple_of(2) {
                eprintln!("--k must be even and >= 2");
                return ExitCode::from(2);
            }
            match dataset::generate_fat_tree_dataset(Path::new(dir), k, host_bits, prefixes) {
                Ok(s) => {
                    if !quiet {
                        println!(
                            "generated {dir}: k={k} fat tree, {} devices, {} links, \
                             {} edge devices, {} rules",
                            s.devices, s.links, s.edge_devices, s.rules
                        );
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{dir}: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Some("load") => {
            let threads = resolve_ingest_threads(ingest_threads);
            // Same fail-fast as `check`: process mode defaults to the
            // sequential path, but an explicit pipelined request is an
            // error, reported before the dataset is opened.
            let threads = if shard_mode == ShardMode::Process && ingest_threads.is_none() {
                0
            } else {
                threads
            };
            if let Err(msg) = validate_shard_mode(shard_mode, threads) {
                eprintln!("{msg}");
                return ExitCode::from(2);
            }
            cmd_dataset_load(dir, show_classes, quiet, threads, shard_mode)
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn cmd_dataset_load(
    dir: &str,
    show_classes: bool,
    quiet: bool,
    ingest_threads: usize,
    shard_mode: ShardMode,
) -> ExitCode {
    let header = match dataset::load_header(Path::new(dir)) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("{dir}: {e}");
            return ExitCode::from(2);
        }
    };
    // Pass 1 over the route files: build the complete action table.
    let mut actions = ActionTable::new();
    let total = match header.stream_routes(&mut actions, |_, _| Ok(())) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{dir}: {e}");
            return ExitCode::from(2);
        }
    };
    if !quiet {
        println!(
            "loaded {dir}: {} devices, {} links, {} route files, {} rules, {} edge devices",
            header.topo.device_count(),
            header.topo.link_count(),
            header.route_devices.len(),
            total,
            header.edge_devices.len()
        );
    }
    let actions = Arc::new(actions);
    let layout: HeaderLayout = header.layout.clone();
    if shard_mode == ShardMode::Process {
        let run = run_pool_sequential(
            &header.topo,
            &actions,
            layout,
            vec![Property::LoopFreedom],
            quiet,
            |sink| {
                header
                    .stream_routes_resolved(&actions, |dev, rules| {
                        sink(dev, rules.into_iter().map(RuleUpdate::insert).collect());
                        Ok(())
                    })
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            },
        );
        return match run {
            Ok(violated) => {
                if violated {
                    ExitCode::from(1)
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("{dir}: {e}");
                ExitCode::from(2)
            }
        };
    }
    let mut verifier = SubspaceVerifier::new(SubspaceVerifierConfig {
        topo: header.topo.clone(),
        actions: actions.clone(),
        layout,
        subspace: SubspaceSpec::whole(),
        bst: usize::MAX,
        properties: vec![Property::LoopFreedom],
    });
    // Pass 2: stream rules into the verifier (ids agree with pass 1) —
    // parallel readers resolving actions read-only, feeding the
    // bulk-load snapshot path; or the legacy per-device sequential path
    // when --ingest-threads 0.
    let mut violated = false;
    let topo = header.topo.clone();
    let t0 = std::time::Instant::now();
    let streamed = if ingest_threads >= 1 {
        header
            .stream_routes_parallel(
                &actions,
                ingest_threads,
                |_, rules| {
                    rules
                        .into_iter()
                        .map(flash_netmodel::RuleUpdate::insert)
                        .collect::<Vec<_>>()
                },
                |dev, updates| {
                    verifier.ingest_bulk(dev, updates);
                    Ok(())
                },
            )
            .map(|_| {
                for report in verifier.seal_bulk(&header.route_devices) {
                    print_report(&report, &topo, quiet, &mut violated);
                }
            })
    } else {
        header
            .stream_routes_resolved(&actions, |dev, rules| {
                let updates = rules
                    .into_iter()
                    .map(flash_netmodel::RuleUpdate::insert)
                    .collect();
                for report in verifier.ingest_synchronized(dev, updates) {
                    print_report(&report, &topo, quiet, &mut violated);
                }
                Ok(())
            })
            .map(|_| ())
    };
    if let Err(e) = streamed {
        eprintln!("{dir}: {e}");
        return ExitCode::from(2);
    }
    let elapsed = t0.elapsed();
    print_model_stats(&verifier, quiet, elapsed);
    if show_classes {
        print_classes(&mut verifier, &header.topo, &actions);
    }
    if violated {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// `flash-cli query`: load a dataset into a sharded pool with the
/// epoch-snapshot query tier attached, seal it, and answer one
/// reachability or waypoint question against the sealed snapshots.
fn cmd_query(args: &[String]) -> ExitCode {
    let mut dirs = Vec::new();
    let mut quiet = false;
    let mut src: Option<String> = None;
    let mut dst: Option<String> = None;
    let mut via: Option<String> = None;
    let mut prefix: Option<(u64, u32)> = None;
    let mut shard_bits = 2u32;
    let mut readers = 4usize;
    let mut expect: Option<&str> = None;
    for a in args {
        if let Some(flag) = expect.take() {
            match flag {
                "--src" => src = Some(a.clone()),
                "--dst" => dst = Some(a.clone()),
                "--via" => via = Some(a.clone()),
                "--prefix" => {
                    let Some(p) = parse_prefix(a) else {
                        eprintln!("bad value for --prefix: {a:?} (A.B.C.D/L or V/L)");
                        return ExitCode::from(2);
                    };
                    prefix = Some(p);
                }
                "--shard-bits" => {
                    let Ok(v) = a.parse::<u32>() else {
                        eprintln!("bad value for --shard-bits: {a:?}");
                        return ExitCode::from(2);
                    };
                    shard_bits = v;
                }
                "--readers" => {
                    let Ok(v) = a.parse::<usize>() else {
                        eprintln!("bad value for --readers: {a:?}");
                        return ExitCode::from(2);
                    };
                    readers = v.max(1);
                }
                "--shard-mode" => match parse_shard_mode(a) {
                    Some(ShardMode::Thread) => {}
                    Some(ShardMode::Process) => {
                        // Fail fast, before the dataset is opened: the
                        // query tier shares snapshot node arenas with
                        // the shard workers.
                        eprintln!(
                            "flash-cli query requires --shard-mode thread: the snapshot \
                             query tier shares node arenas with the shard workers"
                        );
                        return ExitCode::from(2);
                    }
                    None => {
                        eprintln!("bad value for --shard-mode: {a:?} (thread or process)");
                        return ExitCode::from(2);
                    }
                },
                _ => unreachable!(),
            }
            continue;
        }
        match a.as_str() {
            "--quiet" => quiet = true,
            "--src" | "--dst" | "--via" | "--prefix" | "--shard-bits" | "--readers"
            | "--shard-mode" => expect = Some(a.as_str()),
            d => dirs.push(d.to_string()),
        }
    }
    if let Some(flag) = expect {
        eprintln!("{flag} needs a value");
        return ExitCode::from(2);
    }
    let (Some(dir), Some(src), Some(dst)) = (dirs.first(), src, dst) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };

    let header = match dataset::load_header(Path::new(dir)) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("{dir}: {e}");
            return ExitCode::from(2);
        }
    };
    let lookup = |name: &str| -> Option<DeviceId> {
        let id = header.topo.lookup(name);
        if id.is_none() {
            eprintln!("{dir}: no device named {name:?}");
        }
        id
    };
    let (Some(src), Some(dst)) = (lookup(&src), lookup(&dst)) else {
        return ExitCode::from(2);
    };
    let via = match &via {
        Some(name) => match lookup(name) {
            Some(id) => Some(id),
            None => return ExitCode::from(2),
        },
        None => None,
    };
    let (prefix_value, prefix_len) = prefix.unwrap_or((0, 0));

    // Pass 1 over the route files: the complete action table.
    let mut actions = ActionTable::new();
    let total = match header.stream_routes(&mut actions, |_, _| Ok(())) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{dir}: {e}");
            return ExitCode::from(2);
        }
    };
    let actions = Arc::new(actions);

    // Sharded pool with the query hub attached; bulk-load + seal
    // publishes one snapshot per shard.
    let plan = SubspacePlan::by_prefix_bits(&header.layout, FieldId(0), shard_bits);
    let hub = QueryHub::new(plan.len());
    let mut cfg = ShardPoolConfig::model_only(
        header.layout.clone(),
        plan.clone(),
        usize::MAX,
        plan.len(),
    );
    cfg.topo = header.topo.clone();
    cfg.actions = actions.clone();
    cfg.query_hub = Some(Arc::clone(&hub));
    let svc_cfg = QueryServiceConfig::for_pool(&cfg, hub, readers);
    let mut pool = match ShardPool::spawn(cfg) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{dir}: {e}");
            return ExitCode::from(2);
        }
    };
    let t0 = std::time::Instant::now();
    let streamed = header.stream_routes_resolved(&actions, |dev, rules| {
        let updates: Vec<(DeviceId, RuleUpdate)> =
            rules.into_iter().map(|r| (dev, RuleUpdate::insert(r))).collect();
        pool.ingest(updates).expect("thread-mode pool accepts bulk ingest");
        Ok(())
    });
    if let Err(e) = streamed {
        eprintln!("{dir}: {e}");
        return ExitCode::from(2);
    }
    pool.seal_snapshot(header.route_devices.clone())
        .expect("thread-mode pool accepts seal");
    let Some(sealed) = pool.recv_epoch(Duration::from_secs(600)) else {
        eprintln!("{dir}: seal epoch did not complete");
        return ExitCode::from(2);
    };
    if !quiet {
        println!(
            "sealed {dir}: {} rules, {} classes across {} shards, {:.1?}",
            total,
            sealed.total_classes(),
            pool.shard_count(),
            t0.elapsed()
        );
    }

    let svc = match QueryService::spawn(svc_cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{dir}: {e}");
            return ExitCode::from(2);
        }
    };
    let session = svc.session("cli", Backpressure::Shed { max_lag: 64 });
    let query = match via {
        Some(via) => Query::Waypoint { src, via, dst, prefix_value, prefix_len },
        None => Query::Reach { src, dst, prefix_value, prefix_len },
    };
    let t0 = std::time::Instant::now();
    let answer = match session.query(query) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{dir}: {e}");
            return ExitCode::from(2);
        }
    };
    let elapsed = t0.elapsed();

    let (classes, good, what) = match answer.kind {
        AnswerKind::Reach { classes, reachable } => (classes, reachable, "deliver"),
        AnswerKind::Waypoint { classes, satisfied } => (classes, satisfied, "traverse"),
        AnswerKind::WhatIf { .. } => unreachable!("CLI issues reach/waypoint only"),
    };
    let verdict = if classes == 0 {
        "EMPTY (no class intersects the prefix)"
    } else if good == classes {
        "HOLDS"
    } else {
        "VIOLATED"
    };
    println!(
        "{verdict}: {good}/{classes} intersecting classes {what} \
         {} -> {}{} for {} ({elapsed:.1?})",
        header.topo.name(src),
        header.topo.name(dst),
        via.map(|v| format!(" via {}", header.topo.name(v))).unwrap_or_default(),
        format_prefix(prefix_value, prefix_len),
    );
    if !quiet {
        let epochs: Vec<String> = answer
            .consulted
            .iter()
            .map(|(s, e)| format!("shard {s}@epoch {e}"))
            .collect();
        println!(
            "consulted: [{}]{}",
            epochs.join(", "),
            if answer.missing.is_empty() {
                String::new()
            } else {
                format!("; unsealed shards {:?}", answer.missing)
            }
        );
    }
    pool.drain(Duration::from_secs(60));
    svc.shutdown();
    if classes > 0 && good == classes {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Pretty-prints a durable epoch journal: checkpoint summary, journaled
/// jobs, tail status.
fn print_journal(path: &str) -> ExitCode {
    let (entries, tail) = match EpochJournal::read_entries(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!("{path}: {} entries", entries.len());
    for (i, e) in entries.iter().enumerate() {
        match e {
            JournalEntry::Checkpoint(cp) => {
                let last = if cp.last_seq == u64::MAX {
                    "-".to_string()
                } else {
                    cp.last_seq.to_string()
                };
                println!(
                    "  [{i}] checkpoint worker={} last_seq={last} shards={} delivered={}",
                    cp.worker,
                    cp.shards.len(),
                    cp.reported.len()
                );
                for s in &cp.shards {
                    println!(
                        "        shard {} built={} fib_rules={} synced={} classes={} \
                         updates_accepted={}",
                        s.shard,
                        s.built,
                        s.fibs.iter().map(|(_, rs)| rs.len()).sum::<usize>(),
                        s.synced.len(),
                        s.class_fingerprints.len(),
                        s.stats.updates_accepted
                    );
                }
            }
            JournalEntry::Block(b) => {
                println!(
                    "  [{i}] block seq={} updates={} shards_touched={}",
                    b.seq,
                    b.updates.len(),
                    b.routed.iter().filter(|r| !r.is_empty()).count()
                );
            }
            JournalEntry::Collect => println!("  [{i}] collect"),
            JournalEntry::Ingest(b) => {
                println!(
                    "  [{i}] ingest updates={} shards_touched={}",
                    b.updates.len(),
                    b.routed.iter().filter(|r| !r.is_empty()).count()
                );
            }
            JournalEntry::Seal { seq, devices } => {
                println!("  [{i}] seal seq={seq} devices={}", devices.len());
            }
        }
    }
    match tail {
        JournalTail::Clean => {
            println!("tail: clean");
            ExitCode::SUCCESS
        }
        JournalTail::Torn(msg) => {
            println!("tail: torn ({msg}) — entries above were recovered");
            ExitCode::from(1)
        }
    }
}

/// Prints every equivalence class as a witness prefix plus its action
/// vector.
fn print_classes(
    verifier: &mut SubspaceVerifier,
    topo: &Arc<Topology>,
    actions: &Arc<ActionTable>,
) {
    let topo = topo.clone();
    let actions = actions.clone();
    let mgr = verifier.manager_mut();
    let (engine, pat, model) = mgr.parts_mut();
    println!("equivalence classes:");
    for (i, e) in model.entries().iter().enumerate() {
        let frac = engine.sat_fraction(&e.pred);
        let witness = engine
            .any_sat(&e.pred)
            .map(|bits| {
                let v: u64 = bits.iter().fold(0, |acc, &b| (acc << 1) | b as u64);
                format_prefix(v, 32)
            })
            .unwrap_or_else(|| "-".into());
        let vector: Vec<String> = pat
            .entries(e.vector)
            .iter()
            .map(|(d, a)| {
                let hops: Vec<&str> = actions
                    .next_hops(*a)
                    .iter()
                    .map(|h| topo.name(*h))
                    .collect();
                format!(
                    "{}→{}",
                    topo.name(*d),
                    if hops.is_empty() {
                        "drop".to_string()
                    } else {
                        hops.join("|")
                    }
                )
            })
            .collect();
        println!(
            "  [{}] {:>6.2}% of space, witness {} : {}",
            i,
            frac * 100.0,
            witness,
            if vector.is_empty() {
                "all-default".to_string()
            } else {
                vector.join(", ")
            }
        );
    }
}
