//! `bench_scale` — hyper-scale streaming ingestion benchmark.
//!
//! ```text
//! bench_scale [--k N] [--hostbits N] [--prefixes N] [--ingest-threads N]
//!             [--dir <path>] [--keep] [--out <path>]
//! ```
//!
//! Exercises the full on-disk path at fat-tree scale: generate a
//! HeTu-style dataset directory device by device (`flash_workloads::
//! dataset`), load its header back, stream every route file through a
//! whole-space [`SubspaceVerifier`] checking loop freedom, and report
//! wall time per phase, per-device block latency percentiles, peak
//! resident memory (`VmHWM`) and match-interning statistics.
//!
//! Pass two is the pipelined snapshot path: `--ingest-threads N` reader
//! threads (default: the machine's available parallelism; `0` is
//! rejected) parse and resolve route files in parallel
//! (`stream_routes_parallel`) while the main thread buffers them through
//! the verifier's bulk-load fast path, sealed by one global snapshot
//! apply + one consistent detection. The verify scenario records the
//! parse/ingest vs seal wall split, the model manager's map / reduce /
//! apply share of the seal (`ModelManager::timings()`; the remainder —
//! detection — is `seal_other_ms`), the share of rules whose map the
//! bulk load reused from another device's table (`map_reuse_share`),
//! end-to-end rules/s, and the loop verifier's `searches` and
//! `visited_nodes` counters.
//!
//! Defaults are `--k 16 --prefixes 32` (320 devices, ~1.3M rules). CI's
//! non-gating `scale-smoke` lane runs `--k 8 --ingest-threads 2`. Writes
//! `BENCH_scale.json` as `{"scenarios": ...}`, the shape
//! `ci/bench_diff.py` renders; scenario names are prefixed `k<N>_` so
//! entries from different scales never collide in a diff. Exit code 1
//! if any property is violated (a correct fat-tree StdFIB must be loop
//! free), 2 on bad arguments, I/O or dataset errors.

use flash_bench::{mib, peak_rss_bytes, Stats};
use flash_core::{Property, PropertyReport, SubspaceVerifier, SubspaceVerifierConfig};
use flash_imt::SubspaceSpec;
use flash_netmodel::{ActionTable, MatchTable, RuleUpdate};
use flash_workloads::dataset;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Phase {
    name: String,
    wall_ms: f64,
    ops: u64,
    extra: Vec<(&'static str, f64)>,
}

fn phase_json(p: &Phase) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "    \"{}\": {{\n      \"wall_ms\": {:.3},\n      \"ops\": {}",
        p.name, p.wall_ms, p.ops
    );
    for (k, v) in &p.extra {
        if v.fract() == 0.0 && v.abs() < 1e15 {
            let _ = write!(out, ",\n      \"{}\": {}", k, *v as i64);
        } else {
            let _ = write!(out, ",\n      \"{}\": {:.3}", k, v);
        }
    }
    out.push_str("\n    }");
    out
}

const USAGE: &str = "usage: bench_scale [--k N] [--hostbits N] [--prefixes N] \
     [--ingest-threads N>=1] [--dir <path>] [--keep] [--out <path>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut k = 16u32;
    let mut host_bits = 8u32;
    let mut prefixes = 32u32;
    let mut keep = false;
    let mut ingest_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut dir: Option<PathBuf> = None;
    let mut out_path = "BENCH_scale.json".to_string();
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Option<&String> {
            *i += 1;
            args.get(*i)
        };
        match args[i].as_str() {
            "--k" => k = take(&mut i).and_then(|v| v.parse().ok()).unwrap_or(k),
            "--hostbits" => {
                host_bits = take(&mut i).and_then(|v| v.parse().ok()).unwrap_or(host_bits)
            }
            "--prefixes" => {
                prefixes = take(&mut i).and_then(|v| v.parse().ok()).unwrap_or(prefixes)
            }
            "--ingest-threads" => {
                ingest_threads = take(&mut i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(ingest_threads)
            }
            "--dir" => dir = take(&mut i).map(PathBuf::from),
            "--keep" => keep = true,
            "--out" => {
                if let Some(p) = take(&mut i) {
                    out_path = p.clone();
                }
            }
            other => {
                eprintln!("unknown argument {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    if ingest_threads == 0 {
        eprintln!("--ingest-threads must be at least 1\n{USAGE}");
        return ExitCode::from(2);
    }
    let (dir, ephemeral) = match dir {
        Some(d) => (d, false),
        None => (
            std::env::temp_dir().join(format!("flash-scale-{}", std::process::id())),
            !keep,
        ),
    };

    // Phase 1: generate the dataset device by device (nothing global is
    // ever materialized — the writer streams each device's FIB to disk).
    let t0 = Instant::now();
    let summary = match dataset::generate_fat_tree_dataset(&dir, k, host_bits, prefixes) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("generate {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    };
    let gen_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "generated k={k} fat tree at {}: {} devices, {} links, {} rules in {:.0}ms",
        dir.display(),
        summary.devices,
        summary.links,
        summary.rules,
        gen_ms
    );
    let generate = Phase {
        name: format!("k{k}_dataset_generate"),
        wall_ms: gen_ms,
        ops: summary.rules as u64,
        extra: vec![
            ("devices", summary.devices as f64),
            ("links", summary.links as f64),
            ("edge_devices", summary.edge_devices as f64),
        ],
    };

    let run = run_verify(&dir, &mut Vec::new(), k, ingest_threads);
    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    }
    let (load, verify, violated) = match run {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{}: {e}", dir.display());
            return ExitCode::from(2);
        }
    };

    let peak = peak_rss_bytes();
    let mt = MatchTable::global().stats();
    println!(
        "peak RSS: {}; {} distinct matches interned ({} hits, {} MiB table)",
        peak.map_or("n/a".into(), |b| format!("{} MiB", mib(b))),
        mt.distinct,
        mt.hits,
        mib(mt.approx_bytes)
    );

    let phases = [generate, load, verify];
    let body: Vec<String> = phases.iter().map(phase_json).collect();
    let json = format!(
        "{{\n  \"k\": {},\n  \"prefixes_per_tor\": {},\n  \"ingest_threads\": {},\n  \"peak_rss_bytes\": {},\n  \"interned_matches\": {},\n  \"intern_hits\": {},\n  \"intern_table_bytes\": {},\n  \"scenarios\": {{\n{}\n  }}\n}}\n",
        k,
        prefixes,
        ingest_threads,
        peak.map_or("null".to_string(), |b| b.to_string()),
        mt.distinct,
        mt.hits,
        mt.approx_bytes,
        body.join(",\n")
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::from(2);
    }
    println!("wrote {out_path}");
    if violated {
        eprintln!("FAIL: property violated on a generated fat-tree StdFIB");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// Load + verify phases; `reports` collects violations for the caller.
fn run_verify(
    dir: &std::path::Path,
    violations: &mut Vec<String>,
    k: u32,
    ingest_threads: usize,
) -> Result<(Phase, Phase, bool), dataset::DatasetError> {
    // Phase 2: load the header and make pass 1 over the route files to
    // intern every action (rules are parsed and dropped, never stored).
    let t1 = Instant::now();
    let header = dataset::load_header(dir)?;
    let mut actions = ActionTable::new();
    let total = header.stream_routes(&mut actions, |_, _| Ok(()))?;
    let load_ms = t1.elapsed().as_secs_f64() * 1e3;
    println!(
        "loaded header + actions: {} route files, {} rules, {} actions in {:.0}ms",
        header.route_devices.len(),
        total,
        actions.len(),
        load_ms
    );
    let load = Phase {
        name: format!("k{k}_dataset_load"),
        wall_ms: load_ms,
        ops: total as u64,
        extra: vec![("actions", actions.len() as f64)],
    };

    // Phase 3: pass 2 streams each device's FIB into the verifier as
    // its block completes; per-device latency is the block figure.
    let actions = std::sync::Arc::new(actions);
    let mut verifier = SubspaceVerifier::new(SubspaceVerifierConfig {
        topo: header.topo.clone(),
        actions: actions.clone(),
        layout: header.layout.clone(),
        subspace: SubspaceSpec::whole(),
        bst: usize::MAX,
        properties: vec![Property::LoopFreedom],
    });
    let mut per_block_ms = Stats::default();
    // Pipelined snapshot path: readers parse + resolve in parallel, the
    // consumer buffers through the bulk-load fast path, and one seal
    // applies the whole snapshot + runs detection once.
    let t2 = Instant::now();
    header.stream_routes_parallel(
        &actions,
        ingest_threads,
        |_, rules| {
            rules
                .into_iter()
                .map(RuleUpdate::insert)
                .collect::<Vec<_>>()
        },
        |dev, updates| {
            let tb = Instant::now();
            verifier.ingest_bulk(dev, updates);
            per_block_ms.push(tb.elapsed().as_secs_f64() * 1e3);
            Ok(())
        },
    )?;
    let ingest_ms = t2.elapsed().as_secs_f64() * 1e3;
    let ts = Instant::now();
    for report in verifier.seal_bulk(&header.route_devices) {
        match report {
            PropertyReport::LoopFound { cycle } => {
                let names: Vec<&str> = cycle.iter().map(|d| header.topo.name(*d)).collect();
                violations.push(format!("loop: {}", names.join(" -> ")));
            }
            PropertyReport::Unsatisfied { requirement } => {
                violations.push(format!("unsatisfied: {requirement}"));
            }
            _ => {}
        }
    }
    let seal_ms = ts.elapsed().as_secs_f64() * 1e3;
    let verify_ms = t2.elapsed().as_secs_f64() * 1e3;

    let loops = verifier.loop_stats().unwrap_or_default();
    let mgr = verifier.manager();
    let stats = mgr.stats();
    let timings = mgr.timings();
    let (map_ms, reduce_ms, apply_ms) = (
        timings.compute_atomic.as_secs_f64() * 1e3,
        timings.aggregate.as_secs_f64() * 1e3,
        timings.apply.as_secs_f64() * 1e3,
    );
    let seal_other_ms = (seal_ms - map_ms - reduce_ms - apply_ms).max(0.0);
    // Rules whose effective predicate the bulk map took from an earlier
    // device's table instead of computing it.
    let map_reuse_share = stats.map_reused_rules as f64 / total.max(1) as f64;
    println!(
        "verified {} rules in {:.0}ms ({:.0}ms ingest + {:.0}ms seal [map {:.0} reduce {:.0} \
         apply {:.0}], {} threads, {:.0} rules/s): {} classes, block p50 {:.2}ms p99 {:.2}ms \
         max {:.2}ms",
        total,
        verify_ms,
        ingest_ms,
        seal_ms,
        map_ms,
        reduce_ms,
        apply_ms,
        ingest_threads,
        total as f64 / (verify_ms / 1e3),
        mgr.model().len(),
        per_block_ms.percentile(50.0),
        per_block_ms.percentile(99.0),
        per_block_ms.max()
    );
    println!("map_reuse_share {map_reuse_share:.4}");
    for v in violations.iter() {
        println!("VIOLATION {v}");
    }
    let verify = Phase {
        name: format!("k{k}_stream_verify"),
        wall_ms: verify_ms,
        ops: mgr.engine().op_count() as u64,
        extra: vec![
            ("rules", total as f64),
            ("rules_per_sec", (total as f64 / (verify_ms / 1e3)).round()),
            ("ingest_threads", ingest_threads as f64),
            ("ingest_ms", ingest_ms),
            ("seal_ms", seal_ms),
            ("map_ms", map_ms),
            ("reduce_ms", reduce_ms),
            ("apply_ms", apply_ms),
            ("seal_other_ms", seal_other_ms),
            ("map_reuse_share", map_reuse_share),
            ("classes", mgr.model().len() as f64),
            ("updates_accepted", stats.updates_accepted as f64),
            ("atomic_overwrites", stats.atomic_overwrites as f64),
            ("compact_overwrites", stats.compact_overwrites as f64),
            ("classes_probed", stats.classes_probed as f64),
            ("and_misses", stats.and_misses as f64),
            ("loop_searches", loops.searches as f64),
            ("loop_visited_nodes", loops.visited_nodes as f64),
            ("block_p50_ms", per_block_ms.percentile(50.0)),
            ("block_p90_ms", per_block_ms.percentile(90.0)),
            ("block_p99_ms", per_block_ms.percentile(99.0)),
            ("block_max_ms", per_block_ms.max()),
            ("violations", violations.len() as f64),
        ],
    };
    Ok((load, verify, !violations.is_empty()))
}
