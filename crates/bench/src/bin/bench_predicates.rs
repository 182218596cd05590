//! `bench_predicates` — predicate-engine microbench report.
//!
//! ```text
//! bench_predicates [--quick] [--out <path>]
//!                  [--cache-cap <slots>] [--gc-threshold <nodes>]
//!                  [--ordering-out <path>]
//! ```
//!
//! `--cache-cap` / `--gc-threshold` override the `FLASH_CACHE_CAP` /
//! `FLASH_GC_THRESHOLD` environment knobs; the effective values land in
//! the JSON so a report is self-describing.
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
//!
//! A fourth section compares BDD node counts for the identity versus
//! interleaved [`VarOrder`] on two-field workloads (`--ordering-out`
//! additionally writes it as a standalone artifact for CI).

use flash_bdd::{CacheConfig, EngineTelemetry, PredEngine, VarOrder};
use flash_bench::churn_workload;
use flash_ce2d::RegexVerifier;
use flash_imt::{ImtTuning, ModelManager, ModelManagerConfig, SubspaceSpec};
use flash_netmodel::{DeviceId, HeaderLayout, Match, Topology};
use flash_spec::{parse_path_expr, Requirement};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Effective engine tuning for one run: env knobs with flag overrides.
#[derive(Clone, Copy)]
struct Knobs {
    cache: CacheConfig,
    /// `Some` when `--gc-threshold`/`FLASH_GC_THRESHOLD` overrides the
    /// per-scenario default.
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
        gc_node_threshold: gc,
        tuning: ImtTuning::default(),
        cache: knobs.cache,
    });
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
        gc_node_threshold: gc,
        tuning: ImtTuning::default(),
        cache: knobs.cache,
    });
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

struct OrderingCase {
    name: &'static str,
    identity_nodes: usize,
    interleaved_nodes: usize,
}

/// Builds the same two-field predicates under the identity and the
/// interleaved [`VarOrder`] and compares diagram sizes. Also asserts the
/// orders agree semantically (`sat_count` is order-independent), pinning
/// the equivalence the ordering layer promises.
fn ordering_comparison(quick: bool) -> Vec<OrderingCase> {
    let n = if quick { 16u64 } else { 64 };
    let widths = [16u32, 16];
    let mut engines: Vec<(bool, PredEngine)> = vec![
        (false, PredEngine::new(32)),
        (
            true,
            PredEngine::with_var_order(
                32,
                usize::MAX,
                CacheConfig::default(),
                VarOrder::interleaved(&widths),
            ),
        ),
    ];
    let mut cases = Vec::new();
    for (case, which) in ["paired_prefixes", "dst_only_fib", "cross_product"]
        .into_iter()
        .enumerate()
    {
        let mut sizes = [0usize; 2];
        let mut counts = [0f64; 2];
        for (slot, (_, e)) in engines.iter_mut().enumerate() {
            let pred = match case {
                // Correlated fields: rule i matches dst i/12 AND src i/12 —
                // the shape where interleaving collapses the diagram.
                0 => {
                    let ps: Vec<_> = (0..n)
                        .map(|i| {
                            let d = e.prefix(0, 16, i << 8, 12);
                            let s = e.prefix(16, 16, i << 8, 12);
                            e.and(&d, &s)
                        })
                        .collect();
                    e.or_many(&ps)
                }
                // Single-field FIB: ordering cannot help (or hurt).
                1 => {
                    let ps: Vec<_> = (0..n).map(|i| e.prefix(0, 16, i << 7, 11)).collect();
                    e.or_many(&ps)
                }
                // Independent fields: interleaving pays a product penalty.
                _ => {
                    let ds: Vec<_> = (0..n / 4).map(|i| e.prefix(0, 16, i << 9, 9)).collect();
                    let d = e.or_many(&ds);
                    let ss: Vec<_> =
                        (0..n / 4).map(|i| e.prefix(16, 16, (i << 9) | 256, 10)).collect();
                    let s = e.or_many(&ss);
                    e.and(&d, &s)
                }
            };
            sizes[slot] = e.size_of(&pred);
            counts[slot] = e.sat_count(&pred);
        }
        assert!(
            (counts[0] - counts[1]).abs() < 1e-6 * counts[0].abs().max(1.0),
            "orders must agree semantically on {which}"
        );
        cases.push(OrderingCase {
            name: which,
            identity_nodes: sizes[0],
            interleaved_nodes: sizes[1],
        });
    }
    cases
}

fn ordering_json(cases: &[OrderingCase]) -> String {
    let rows: Vec<String> = cases
        .iter()
        .map(|c| {
            format!(
                "    {{\"case\": \"{}\", \"identity_nodes\": {}, \"interleaved_nodes\": {}}}",
                c.name, c.identity_nodes, c.interleaved_nodes
            )
        })
        .collect();
    format!("[\n{}\n  ]", rows.join(",\n"))
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

    // Engine knobs: flags override the environment, which overrides the
    // compiled-in defaults.
    let mut cache = CacheConfig::from_env();
    if let Some(cap) = flag_value(&args, "--cache-cap").and_then(|v| v.parse::<usize>().ok()) {
        cache.max_capacity = cap.max(2);
        cache.initial_capacity = cache.initial_capacity.min(cache.max_capacity);
    }
    let mut gc_override = match std::env::var("FLASH_GC_THRESHOLD") {
        Ok(_) => Some(PredEngine::gc_threshold_from_env(flash_bdd::DEFAULT_GC_NODE_THRESHOLD)),
        Err(_) => None,
    };
    if let Some(v) = flag_value(&args, "--gc-threshold").and_then(|v| v.parse::<usize>().ok()) {
        gc_override = Some(v);
    }
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
    let ordering = ordering_comparison(quick);
    for c in &ordering {
        println!(
            "  ordering {:>16}: identity {} nodes, interleaved {} nodes",
            c.name, c.identity_nodes, c.interleaved_nodes
        );
    }

    let peak = flash_bench::peak_rss_bytes();
    println!(
        "peak RSS: {}",
        peak.map_or("n/a".into(), |b| format!("{} MiB", flash_bench::mib(b)))
    );
    let body: Vec<String> = scenarios.iter().map(scenario_json).collect();
    let json = format!(
        "{{\n  \"quick\": {},\n  \"peak_rss_bytes\": {},\n  \"cache_cap\": {},\n  \"cache_initial\": {},\n  \"var_ordering\": {},\n  \"scenarios\": {{\n{}\n  }}\n}}\n",
        quick,
        peak.map_or("null".to_string(), |b| b.to_string()),
        knobs.cache.max_capacity,
        knobs.cache.initial_capacity,
        ordering_json(&ordering),
        body.join(",\n")
    );
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => {
            eprintln!("cannot write {out_path}: {e}");
            std::process::exit(1);
        }
    }
    if let Some(path) = flag_value(&args, "--ordering-out") {
        let artifact = format!("{{\n  \"cases\": {}\n}}\n", ordering_json(&ordering));
        match std::fs::write(path, &artifact) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
