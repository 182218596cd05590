//! `flash-cli` — verify a network described in the text adapter format.
//!
//! ```text
//! flash-cli check <network-file> [--classes] [--quiet] [--shard-mode thread|process]
//! flash-cli journal <journal-file>
//! flash-cli dataset generate <dir> [--k N] [--hostbits N] [--prefixes N] [--quiet]
//! flash-cli dataset load <dir> [--classes] [--quiet] [--ingest-threads N]
//!                              [--shard-mode thread|process]
//! ```
//!
//! `check` verifies a text network file (see `flash_core::adapter` for
//! the format): it reads the file in one sequential pass, buffers each
//! `fib` block through the bulk-load path and runs consistent detection
//! once over the sealed snapshot. Verdicts plus model statistics are
//! printed. Exit code 1 when any property is violated.
//!
//! `dataset generate` writes a fat-tree StdFIB dataset to a directory in
//! the on-disk layout of `flash_workloads::dataset` (HeTu-style:
//! `topology.json`, `packet_space.json`, `edge_devices`,
//! `data/routes/<device>`), generating device by device. `dataset load`
//! reads such a directory in two passes: pass one builds the action
//! table, pass two runs `--ingest-threads N` readers (N >= 1, default:
//! the machine's available parallelism) that feed the bulk-load path.
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
//! and `dataset load` (default `thread`). Process mode submits one block
//! per device to a process-isolated pool, sequentially; it cannot run
//! the bulk-load path, so `dataset load` rejects it together with
//! `--ingest-threads`, and `query` (snapshots share node arenas) rejects
//! it outright, both before any file is touched.
//!
//! An unknown flag, a flag without its value or a second positional
//! argument prints the usage message and exits 2.

use flash_core::adapter::{format_prefix, parse_network};
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
    "usage: flash-cli check <network-file> [--classes] [--quiet] [--shard-mode thread|process]\n       \
     flash-cli journal <journal-file>\n       \
     flash-cli dataset generate <dir> [--k N] [--hostbits N] [--prefixes N] [--quiet]\n       \
     flash-cli dataset load <dir> [--classes] [--quiet] [--ingest-threads N>=1] \
     [--shard-mode thread|process]\n       \
     flash-cli query <dataset-dir> --src <device> --dst <device> [--via <device>] \
     [--prefix A.B.C.D/L] [--shard-bits N] [--readers N] [--quiet]";

/// Prints the usage message; the exit code for a malformed command line.
fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// A command's one positional argument and its flags, each with its
/// value (`""` for a switch).
type Args<'a> = (Option<&'a str>, Vec<(&'a str, &'a str)>);

/// Splits a command's arguments. `None` when a flag is neither in
/// `switches` nor in `valued`, when a valued flag is the last argument,
/// or when a second positional argument follows the first.
fn parse_args<'a>(args: &'a [String], switches: &[&str], valued: &[&str]) -> Option<Args<'a>> {
    let mut positional = None;
    let mut flags = Vec::new();
    let mut it = args.iter().map(String::as_str);
    while let Some(a) = it.next() {
        if switches.contains(&a) {
            flags.push((a, ""));
        } else if valued.contains(&a) {
            flags.push((a, it.next()?));
        } else if a.starts_with('-') || positional.replace(a).is_some() {
            return None;
        }
    }
    Some((positional, flags))
}

/// Parses a `--shard-mode` value.
fn parse_shard_mode(v: &str) -> Option<ShardMode> {
    match v {
        "thread" => Some(ShardMode::Thread),
        "process" => Some(ShardMode::Process),
        _ => None,
    }
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("journal") => match parse_args(&args[1..], &[], &[]) {
            Some((Some(path), _)) => print_journal(path),
            _ => usage(),
        },
        Some("dataset") => cmd_dataset(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        _ => usage(),
    }
}

/// Exit code 1 if any property was violated, else success.
fn verdict_code(violated: bool) -> ExitCode {
    if violated {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_check(args: &[String]) -> ExitCode {
    let Some((Some(path), flags)) = parse_args(args, &["--classes", "--quiet"], &["--shard-mode"])
    else {
        return usage();
    };
    let mut show_classes = false;
    let mut quiet = false;
    let mut shard_mode = ShardMode::Thread;
    for (flag, value) in flags {
        match flag {
            "--classes" => show_classes = true,
            "--quiet" => quiet = true,
            _ => {
                let Some(m) = parse_shard_mode(value) else {
                    eprintln!("bad value for --shard-mode: {value:?} (thread or process)");
                    return ExitCode::from(2);
                };
                shard_mode = m;
            }
        }
    }
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let net = match parse_network(&text) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(2);
        }
    };
    if !quiet {
        println!(
            "loaded {}: {} devices, {} links, {} FIBs ({} rules), {} properties",
            path,
            net.topo.device_count(),
            net.topo.link_count(),
            net.fibs.len(),
            net.fibs.iter().map(|(_, rules)| rules.len()).sum::<usize>(),
            net.properties.len()
        );
    }
    let inserts = |rules: &[flash_netmodel::Rule]| -> Vec<RuleUpdate> {
        rules.iter().copied().map(RuleUpdate::insert).collect()
    };

    if shard_mode == ShardMode::Process {
        let run = run_pool_sequential(
            &net.topo,
            &net.actions,
            net.layout.clone(),
            net.properties.clone(),
            quiet,
            |sink| {
                for (dev, rules) in &net.fibs {
                    sink(*dev, inserts(rules));
                }
                Ok(())
            },
        );
        return match run {
            Ok(violated) => verdict_code(violated),
            Err(e) => {
                eprintln!("{path}: {e}");
                ExitCode::from(2)
            }
        };
    }

    let mut verifier = SubspaceVerifier::new(SubspaceVerifierConfig {
        topo: net.topo.clone(),
        actions: net.actions.clone(),
        layout: net.layout.clone(),
        subspace: SubspaceSpec::whole(),
        bst: usize::MAX,
        properties: net.properties.clone(),
    });
    // Buffer every block through the bulk-load path, then seal once.
    let t0 = std::time::Instant::now();
    let mut synced = Vec::with_capacity(net.fibs.len());
    for (dev, rules) in &net.fibs {
        verifier.ingest_bulk(*dev, inserts(rules));
        synced.push(*dev);
    }
    synced.sort_unstable();
    synced.dedup();
    let mut violated = false;
    for report in verifier.seal_bulk(&synced) {
        print_report(&report, &net.topo, quiet, &mut violated);
    }
    print_model_stats(&verifier, quiet, t0.elapsed());
    if show_classes {
        print_classes(&mut verifier, &net.topo, &net.actions);
    }
    verdict_code(violated)
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
    match args.first().map(String::as_str) {
        Some("generate") => cmd_dataset_generate(&args[1..]),
        Some("load") => cmd_dataset_load(&args[1..]),
        _ => usage(),
    }
}

fn cmd_dataset_generate(args: &[String]) -> ExitCode {
    let Some((Some(dir), flags)) =
        parse_args(args, &["--quiet"], &["--k", "--hostbits", "--prefixes"])
    else {
        return usage();
    };
    let mut quiet = false;
    let mut k = 8u32;
    let mut host_bits = 8u32;
    let mut prefixes = 4u32;
    for (flag, value) in flags {
        if flag == "--quiet" {
            quiet = true;
            continue;
        }
        let Ok(v) = value.parse::<u32>() else {
            eprintln!("bad value for {flag}: {value:?}");
            return ExitCode::from(2);
        };
        match flag {
            "--k" => k = v,
            "--hostbits" => host_bits = v,
            _ => prefixes = v,
        }
    }
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

fn cmd_dataset_load(args: &[String]) -> ExitCode {
    let Some((Some(dir), flags)) = parse_args(
        args,
        &["--classes", "--quiet"],
        &["--ingest-threads", "--shard-mode"],
    ) else {
        return usage();
    };
    let mut show_classes = false;
    let mut quiet = false;
    let mut ingest_threads: Option<usize> = None;
    let mut shard_mode = ShardMode::Thread;
    for (flag, value) in flags {
        match flag {
            "--classes" => show_classes = true,
            "--quiet" => quiet = true,
            "--ingest-threads" => match value.parse::<usize>() {
                Ok(n) if n >= 1 => ingest_threads = Some(n),
                _ => {
                    eprintln!("--ingest-threads takes a reader count N >= 1, got {value:?}");
                    return usage();
                }
            },
            _ => {
                let Some(m) = parse_shard_mode(value) else {
                    eprintln!("bad value for --shard-mode: {value:?} (thread or process)");
                    return ExitCode::from(2);
                };
                shard_mode = m;
            }
        }
    }
    // Fail fast, before the dataset is opened: process mode runs the
    // sequential per-device path, which has no readers to set.
    if shard_mode == ShardMode::Process && ingest_threads.is_some() {
        eprintln!(
            "--shard-mode process cannot run the pipelined bulk-ingest path \
             (bulk ingestion requires thread mode): drop --ingest-threads or \
             --shard-mode process"
        );
        return ExitCode::from(2);
    }
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
            Ok(violated) => verdict_code(violated),
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
    // Pass 2: parallel readers resolve actions read-only against the
    // pass-1 table and feed the bulk-load path; one seal at the end.
    let threads = ingest_threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    });
    let t0 = std::time::Instant::now();
    let streamed = header.stream_routes_parallel(
        &actions,
        threads,
        |_, rules| rules.into_iter().map(RuleUpdate::insert).collect::<Vec<_>>(),
        |dev, updates| {
            verifier.ingest_bulk(dev, updates);
            Ok(())
        },
    );
    if let Err(e) = streamed {
        eprintln!("{dir}: {e}");
        return ExitCode::from(2);
    }
    let mut violated = false;
    for report in verifier.seal_bulk(&header.route_devices) {
        print_report(&report, &header.topo, quiet, &mut violated);
    }
    print_model_stats(&verifier, quiet, t0.elapsed());
    if show_classes {
        print_classes(&mut verifier, &header.topo, &actions);
    }
    verdict_code(violated)
}

/// `flash-cli query`: load a dataset into a sharded pool with the
/// epoch-snapshot query tier attached, seal it, and answer one
/// reachability or waypoint question against the sealed snapshots.
fn cmd_query(args: &[String]) -> ExitCode {
    let Some((Some(dir), flags)) = parse_args(
        args,
        &["--quiet"],
        &["--src", "--dst", "--via", "--prefix", "--shard-bits", "--readers", "--shard-mode"],
    ) else {
        return usage();
    };
    let mut quiet = false;
    let mut src: Option<&str> = None;
    let mut dst: Option<&str> = None;
    let mut via: Option<&str> = None;
    let mut prefix: Option<(u64, u32)> = None;
    let mut shard_bits = 2u32;
    let mut readers = 4usize;
    for (flag, value) in flags {
        match flag {
            "--quiet" => quiet = true,
            "--src" => src = Some(value),
            "--dst" => dst = Some(value),
            "--via" => via = Some(value),
            "--prefix" => {
                let Some(p) = parse_prefix(value) else {
                    eprintln!("bad value for --prefix: {value:?} (A.B.C.D/L or V/L)");
                    return ExitCode::from(2);
                };
                prefix = Some(p);
            }
            "--shard-bits" => {
                let Ok(v) = value.parse::<u32>() else {
                    eprintln!("bad value for --shard-bits: {value:?}");
                    return ExitCode::from(2);
                };
                shard_bits = v;
            }
            "--readers" => {
                let Ok(v) = value.parse::<usize>() else {
                    eprintln!("bad value for --readers: {value:?}");
                    return ExitCode::from(2);
                };
                readers = v.max(1);
            }
            _ => match parse_shard_mode(value) {
                Some(ShardMode::Thread) => {}
                Some(ShardMode::Process) => {
                    // Fail fast, before the dataset is opened: the query
                    // tier shares snapshot node arenas with the shard
                    // workers.
                    eprintln!(
                        "flash-cli query requires --shard-mode thread: the snapshot \
                         query tier shares node arenas with the shard workers"
                    );
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("bad value for --shard-mode: {value:?} (thread or process)");
                    return ExitCode::from(2);
                }
            },
        }
    }
    let (Some(src), Some(dst)) = (src, dst) else {
        return usage();
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
    let (Some(src), Some(dst)) = (lookup(src), lookup(dst)) else {
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
