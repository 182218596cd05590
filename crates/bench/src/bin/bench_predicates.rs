//! `bench_predicates` — predicate-engine microbench report.
//!
//! ```text
//! bench_predicates [--quick] [--out <path>]
//!                  [--cache-cap <slots>] [--gc-threshold <nodes>]
//! ```
//!
//! `--cache-cap` caps every scenario's computed cache and
//! `--gc-threshold` replaces every scenario's auto-GC threshold (a model
//! manager's engine is resized right after construction). The effective
//! values land in the JSON so a report is self-describing.
//!
//! Runs three scenarios against the rooted predicate engine and writes
//! `BENCH_predicates.json` (machine-readable; one object per scenario
//! with wall time, op counts, computed-cache hit rate / capacity /
//! evictions, node peaks and GC pauses):
//!
//! * `bdd_microbench` — prefix encodes plus an or-chain and differences,
//!   the hot predicate operations of the map phase;
//! * `imt_churn` — a ModelManager under an insert/delete churn stream
//!   with the default auto-GC budget;
//! * `ce2d_long_stream` — a RegexVerifier over a long epoch stream on a
//!   tight GC budget, the bounded-memory deployment shape.

use flash_bdd::{CacheConfig, EngineTelemetry, PredEngine};
use flash_bench::churn_workload;
use flash_ce2d::RegexVerifier;
use flash_imt::{ModelManager, ModelManagerConfig, SubspaceSpec};
use flash_netmodel::{DeviceId, HeaderLayout, Match, Topology};
use flash_spec::{parse_path_expr, Requirement};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine settings for one run, from the flags.
#[derive(Clone, Copy)]
struct Knobs {
    cache: CacheConfig,
    /// `Some` when `--gc-threshold` overrides the per-scenario default.
    gc_override: Option<usize>,
}

struct Scenario {
    name: &'static str,
    wall: Duration,
    telemetry: EngineTelemetry,
    gc_threshold: usize,
    extra: Vec<(&'static str, f64)>,
}

fn bdd_microbench(quick: bool, knobs: &Knobs) -> Scenario {
    let n = if quick { 200u64 } else { 2000 };
    let gc = knobs.gc_override.unwrap_or(flash_bdd::DEFAULT_GC_NODE_THRESHOLD);
    let t0 = Instant::now();
    let mut engine = PredEngine::with_config(32, gc, knobs.cache);
    let mut acc = engine.false_pred();
    for i in 0..n {
        let p = engine.prefix(0, 32, i << 12, 20);
        acc = engine.or(&acc, &p);
    }
    for i in 0..n / 2 {
        let q = engine.range(0, 32, i << 13, (i << 13) + 4095);
        let d = engine.diff(&acc, &q);
        std::hint::black_box(engine.sat_count(&d));
    }
    Scenario {
        name: "bdd_microbench",
        wall: t0.elapsed(),
        telemetry: engine.telemetry(),
        gc_threshold: gc,
        extra: vec![("encoded_prefixes", n as f64)],
    }
}

fn imt_churn(quick: bool, knobs: &Knobs) -> Scenario {
    let steps = if quick { 1500 } else { 6000 };
    let layout = HeaderLayout::new(&[("dst", 16)]);
    let (_, updates) = churn_workload(&layout, 12, steps, 0xBE9C);
    let gc = knobs.gc_override.unwrap_or(4096);
    let t0 = Instant::now();
    let mut mgr = ModelManager::new(ModelManagerConfig {
        layout: layout.clone(),
        subspace: SubspaceSpec::whole(),
        bst: usize::MAX,
        filter_updates: false,
    });
    mgr.engine_mut().set_gc_threshold(gc);
    mgr.engine_mut().set_cache_config(knobs.cache);
    for chunk in updates.chunks(64) {
        for (d, u) in chunk {
            mgr.submit(*d, [*u]);
        }
        mgr.flush();
    }
    let stats = mgr.stats();
    Scenario {
        name: "imt_churn",
        wall: t0.elapsed(),
        telemetry: stats.engine,
        gc_threshold: gc,
        extra: vec![
            ("updates", steps as f64),
            ("classes", mgr.model().len() as f64),
            ("match_memo_hits", stats.match_memo_hits as f64),
            ("match_memo_misses", stats.match_memo_misses as f64),
            ("classes_probed", stats.classes_probed as f64),
            ("classes_pruned", stats.classes_pruned as f64),
            ("and_misses", stats.and_misses as f64),
            ("index_rebuilds", stats.index_rebuilds as f64),
            ("shadow_acc_blocks", stats.shadow_acc_blocks as f64),
            ("shadow_trie_blocks", stats.shadow_trie_blocks as f64),
        ],
    }
}

fn ce2d_long_stream(quick: bool, knobs: &Knobs) -> Scenario {
    let steps = if quick { 2000 } else { 10_000 };
    let mut t = Topology::new();
    let devs: Vec<DeviceId> = (0..6).map(|i| t.add_device(format!("d{i}"))).collect();
    for w in devs.windows(2) {
        t.add_bilink(w[0], w[1]);
    }
    let topo = Arc::new(t);
    let layout = HeaderLayout::new(&[("dst", 10)]);
    let (actions, updates) = churn_workload(&layout, 6, steps, 0x5EED);
    let actions = Arc::new(actions);
    let req = Requirement::new(
        "d0-reaches-d5",
        Match::any(&layout),
        vec![devs[0]],
        parse_path_expr("d0 .* d5").unwrap(),
    );

    let gc = knobs.gc_override.unwrap_or(512);
    let t0 = Instant::now();
    let mut mgr = ModelManager::new(ModelManagerConfig {
        layout: layout.clone(),
        subspace: SubspaceSpec::whole(),
        bst: usize::MAX,
        filter_updates: false,
    });
    mgr.engine_mut().set_gc_threshold(gc);
    mgr.engine_mut().set_cache_config(knobs.cache);
    let mut verifier = RegexVerifier::new(
        topo.clone(),
        actions.clone(),
        req,
        vec![],
        mgr.engine_mut(),
        &layout,
    );
    let mut verdict_flips = 0u64;
    for chunk in updates.chunks(128) {
        let mut synced = Vec::new();
        for (d, u) in chunk {
            mgr.submit(*d, [*u]);
            if !synced.contains(d) {
                synced.push(*d);
            }
        }
        mgr.flush();
        let (engine, pat, model) = mgr.parts_mut();
        let v = verifier.on_model_update(engine, pat, model, &synced);
        if v != flash_ce2d::Verdict::Unknown {
            verdict_flips += 1;
        }
    }
    let stats = mgr.stats();
    Scenario {
        name: "ce2d_long_stream",
        wall: t0.elapsed(),
        telemetry: stats.engine,
        gc_threshold: gc,
        extra: vec![
            ("updates", steps as f64),
            ("decided_checks", verdict_flips as f64),
            ("match_memo_hits", stats.match_memo_hits as f64),
            ("match_memo_misses", stats.match_memo_misses as f64),
            ("classes_pruned", stats.classes_pruned as f64),
            ("and_misses", stats.and_misses as f64),
            ("shadow_trie_blocks", stats.shadow_trie_blocks as f64),
        ],
    }
}

fn json_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

fn scenario_json(s: &Scenario) -> String {
    let t = &s.telemetry;
    let mut out = String::new();
    let _ = write!(
        out,
        "    \"{}\": {{\n      \"wall_ms\": {:.3},\n      \"ops\": {},\n      \"cache_hit_rate\": {:.4},\n      \"cache_capacity\": {},\n      \"cache_evictions\": {},\n      \"live_nodes\": {},\n      \"peak_live_nodes\": {},\n      \"allocated_nodes\": {},\n      \"occupancy\": {:.4},\n      \"roots_live\": {},\n      \"gc_runs\": {},\n      \"gc_reclaimed_nodes\": {},\n      \"gc_pause_total_ms\": {:.3},\n      \"gc_pause_max_ms\": {:.3},\n      \"freelist_reuses\": {},\n      \"approx_mib\": {:.3}",
        s.name,
        s.wall.as_secs_f64() * 1e3,
        t.ops,
        t.cache_hit_rate(),
        t.cache_capacity,
        t.cache_evictions,
        t.live_nodes,
        t.peak_live_nodes,
        t.allocated_nodes,
        t.occupancy,
        t.roots_live,
        t.gc_runs,
        t.gc_reclaimed_nodes,
        t.gc_pause_total.as_secs_f64() * 1e3,
        t.gc_pause_max.as_secs_f64() * 1e3,
        t.freelist_reuses,
        t.approx_bytes as f64 / (1024.0 * 1024.0),
    );
    let _ = write!(
        out,
        ",\n      \"cache_admission_rejects\": {},\n      \"disjoint_skips\": {},\n      \"cell_probes\": {},\n      \"gc_threshold\": {}",
        t.cache_admission_rejects,
        t.disjoint_skips,
        t.cell_probes,
        if s.gc_threshold == usize::MAX { -1i64 } else { s.gc_threshold as i64 },
    );
    for (k, v) in &s.extra {
        let _ = write!(out, ",\n      \"{}\": {}", k, json_number(*v));
    }
    for kind in flash_bdd::OpKind::ALL {
        let op = t.op(kind);
        let _ = write!(
            out,
            ",\n      \"op_{}\": {{\"calls\": {}, \"cache_hits\": {}, \"cache_misses\": {}}}",
            kind.label(),
            op.calls,
            op.cache_hits,
            op.cache_misses
        );
    }
    out.push_str("\n    }");
    out
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = flag_value(&args, "--out")
        .cloned()
        .unwrap_or_else(|| "BENCH_predicates.json".to_string());

    let mut cache = CacheConfig::default();
    if let Some(cap) = flag_value(&args, "--cache-cap").and_then(|v| v.parse::<usize>().ok()) {
        cache.max_capacity = cap.max(2);
        cache.initial_capacity = cache.initial_capacity.min(cache.max_capacity);
    }
    let gc_override = flag_value(&args, "--gc-threshold").and_then(|v| v.parse::<usize>().ok());
    let knobs = Knobs { cache, gc_override };

    let scenarios = [
        bdd_microbench(quick, &knobs),
        imt_churn(quick, &knobs),
        ce2d_long_stream(quick, &knobs),
    ];
    for s in &scenarios {
        println!(
            "{:>18}: {:>9.2?}  {}",
            s.name,
            s.wall,
            s.telemetry.summary()
        );
    }

    let peak = flash_bench::peak_rss_bytes();
    println!(
        "peak RSS: {}",
        peak.map_or("n/a".into(), |b| format!("{} MiB", flash_bench::mib(b)))
    );
    let body: Vec<String> = scenarios.iter().map(scenario_json).collect();
    let json = format!(
        "{{\n  \"quick\": {},\n  \"peak_rss_bytes\": {},\n  \"cache_cap\": {},\n  \"cache_initial\": {},\n  \"scenarios\": {{\n{}\n  }}\n}}\n",
        quick,
        peak.map_or("null".to_string(), |b| b.to_string()),
        knobs.cache.max_capacity,
        knobs.cache.initial_capacity,
        body.join(",\n")
    );
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => {
            eprintln!("cannot write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}
