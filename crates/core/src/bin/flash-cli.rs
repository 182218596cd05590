//! `flash-cli` — verify a network described in the text adapter format.
//!
//! ```text
//! flash-cli check <network-file> [--classes] [--quiet]
//! flash-cli dataset generate <dir> [--k N] [--hostbits N] [--prefixes N] [--quiet]
//! flash-cli dataset load <dir> [--classes] [--quiet] [--ingest-threads N]
//! flash-cli query <dataset-dir> --src <device> --dst <device> [--via <device>]
//!                 [--prefix <hex>/<len>] [--shard-bits N] [--readers N] [--quiet]
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
//! `query` loads a dataset directory into a sharded pool with the
//! epoch-snapshot query tier attached and answers one reachability (or,
//! with `--via`, waypoint) question against the sealed snapshots.
//! `--prefix` is spelled as in the route files (`40/7`: hex over the
//! `dst` field's width, no bit set below the length) and is checked
//! against that width before any route file is read; without it the
//! question covers the whole space. Exit code 0 when every intersecting
//! class satisfies the property, 1 otherwise.
//!
//! An unknown flag, a flag without its value or a second positional
//! argument prints the usage message and exits 2.

use flash_core::adapter::{format_prefix, parse_network};
use flash_core::{
    AnswerKind, Backpressure, Property, PropertyReport, Query, QueryHub, QueryService,
    QueryServiceConfig, ShardPool, ShardPoolConfig, SubspaceVerifier, SubspaceVerifierConfig,
};
use flash_imt::{SubspacePlan, SubspaceSpec};
use flash_netmodel::{ActionTable, DeviceId, FieldId, HeaderLayout, RuleUpdate, Topology};
use flash_workloads::dataset;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: flash-cli check <network-file> [--classes] [--quiet]\n       \
     flash-cli dataset generate <dir> [--k N] [--hostbits N] [--prefixes N] [--quiet]\n       \
     flash-cli dataset load <dir> [--classes] [--quiet] [--ingest-threads N>=1]\n       \
     flash-cli query <dataset-dir> --src <device> --dst <device> [--via <device>] \
     [--prefix <hex>/<len>] [--shard-bits N] [--readers N] [--quiet]";

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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
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
    let Some((Some(path), flags)) = parse_args(args, &["--classes", "--quiet"], &[]) else {
        return usage();
    };
    let show_classes = flags.iter().any(|&(f, _)| f == "--classes");
    let quiet = flags.iter().any(|&(f, _)| f == "--quiet");
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
        verifier.ingest_bulk(*dev, rules.iter().copied().map(RuleUpdate::insert).collect());
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
    let Some((Some(dir), flags)) =
        parse_args(args, &["--classes", "--quiet"], &["--ingest-threads"])
    else {
        return usage();
    };
    let mut show_classes = false;
    let mut quiet = false;
    let mut ingest_threads: Option<usize> = None;
    for (flag, value) in flags {
        match flag {
            "--classes" => show_classes = true,
            "--quiet" => quiet = true,
            _ => match value.parse::<usize>() {
                Ok(n) if n >= 1 => ingest_threads = Some(n),
                _ => {
                    eprintln!("--ingest-threads takes a reader count N >= 1, got {value:?}");
                    return usage();
                }
            },
        }
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
        &["--src", "--dst", "--via", "--prefix", "--shard-bits", "--readers"],
    ) else {
        return usage();
    };
    let mut quiet = false;
    let mut src: Option<&str> = None;
    let mut dst: Option<&str> = None;
    let mut via: Option<&str> = None;
    let mut prefix: Option<&str> = None;
    let mut shard_bits = 2u32;
    let mut readers = 4usize;
    for (flag, value) in flags {
        match flag {
            "--quiet" => quiet = true,
            "--src" => src = Some(value),
            "--dst" => dst = Some(value),
            "--via" => via = Some(value),
            "--prefix" => prefix = Some(value),
            "--shard-bits" => {
                let Ok(v) = value.parse::<u32>() else {
                    eprintln!("bad value for --shard-bits: {value:?}");
                    return ExitCode::from(2);
                };
                shard_bits = v;
            }
            _ => {
                let Ok(v) = value.parse::<usize>() else {
                    eprintln!("bad value for --readers: {value:?}");
                    return ExitCode::from(2);
                };
                readers = v.max(1);
            }
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
    // The route files' spelling, checked against the dst field's width
    // before any route file is read.
    let width = header.layout.field(FieldId(0)).width;
    let (prefix_value, prefix_len) = match prefix {
        None => (0, 0),
        Some(p) => match dataset::parse_route_prefix(p, width) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("bad value for --prefix: {p:?}: {e}");
                return ExitCode::from(2);
            }
        },
    };

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
        pool.ingest(updates).expect("the pool accepts bulk ingest");
        Ok(())
    });
    if let Err(e) = streamed {
        eprintln!("{dir}: {e}");
        return ExitCode::from(2);
    }
    pool.seal_snapshot(header.route_devices.clone())
        .expect("the pool accepts a seal");
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
         {} -> {}{} for {prefix_value:x}/{prefix_len} ({elapsed:.1?})",
        header.topo.name(src),
        header.topo.name(dst),
        via.map(|v| format!(" via {}", header.topo.name(v))).unwrap_or_default(),
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
