//! `bench_parallel` — persistent shard-pool pipeline benchmark.
//!
//! ```text
//! bench_parallel [--quick] [--threads N]... [--out <path>]
//! ```
//!
//! Sweeps worker-thread counts (default 1, 2, 4, 8) over a multi-block
//! churn workload on a [`flash_core::ShardPool`], with shards = threads
//! (`--threads 1` runs the whole space on one warm worker; higher
//! counts split the dst field's top bits into one subspace per
//! worker). Each block is submitted and awaited in lockstep so the
//! per-block figure is a clean end-to-end latency; the workers stay
//! warm across all blocks, which is the whole point.
//!
//! Writes `BENCH_parallel.json`: per thread count the wall time,
//! per-block latency percentiles, cpu_total / max_cpu and the folded
//! [`EngineTelemetry`] of all shard engines; plus the 4-vs-1-thread
//! wall speedup and a warm-vs-cold comparison (warm block-k latency
//! against a cold one-shot pool that builds blocks 0..=k as one block
//! with the same 4-shard plan).

use flash_bdd::EngineTelemetry;
use flash_bench::{churn_workload, Stats};
use flash_core::{ShardPool, ShardPoolConfig};
use flash_imt::SubspacePlan;
use flash_netmodel::{DeviceId, FieldId, HeaderLayout, RuleUpdate};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct RunResult {
    threads: usize,
    shards: usize,
    blocks: usize,
    wall: Duration,
    per_block_ms: Stats,
    cpu_total: Duration,
    max_cpu: Duration,
    telemetry: EngineTelemetry,
}

fn plan_for(layout: &HeaderLayout, threads: usize) -> SubspacePlan {
    if threads == 1 {
        SubspacePlan::single()
    } else {
        assert!(threads.is_power_of_two(), "thread counts must be powers of two");
        SubspacePlan::by_prefix_bits(layout, FieldId(0), threads.trailing_zeros())
    }
}

fn run_pipeline(
    layout: &HeaderLayout,
    blocks: &[Vec<(DeviceId, RuleUpdate)>],
    threads: usize,
    bst: usize,
) -> RunResult {
    let plan = plan_for(layout, threads);
    let shards = plan.len();
    let mut pool = ShardPool::spawn(ShardPoolConfig::model_only(
        layout.clone(),
        plan,
        bst,
        threads,
    ))
    .expect("valid model-only config");
    let mut per_block_ms = Stats::default();
    let mut cpu_by_shard = vec![Duration::ZERO; shards];
    let mut telemetry = EngineTelemetry::default();
    let t0 = Instant::now();
    for (k, block) in blocks.iter().enumerate() {
        // Long-lived workers do periodic maintenance collections so the
        // warm engines stay trimmed; same cadence at every thread count.
        if k > 0 && k % 8 == 0 {
            pool.collect_all();
        }
        let owned = block.clone();
        let tb = Instant::now();
        pool.submit(owned);
        let epoch = pool
            .recv_epoch(Duration::from_secs(600))
            .expect("epoch completes");
        per_block_ms.push(tb.elapsed().as_secs_f64() * 1e3);
        for s in &epoch.shards {
            cpu_by_shard[s.shard] += s.cpu;
        }
        // Engine counters are cumulative per shard: the last epoch's
        // fold is the pipeline total.
        telemetry = epoch.engine_totals();
    }
    let wall = t0.elapsed();
    pool.drain(Duration::from_secs(60));
    RunResult {
        threads,
        shards,
        blocks: blocks.len(),
        wall,
        per_block_ms,
        cpu_total: cpu_by_shard.iter().sum(),
        max_cpu: cpu_by_shard.iter().max().copied().unwrap_or(Duration::ZERO),
        telemetry,
    }
}

/// Cold baseline for warm-vs-cold: to answer block `k` without warm
/// state, a non-persistent system rebuilds from scratch over blocks
/// `0..=k` — fresh engines, fresh models, same plan and same block
/// size threshold (so Fast IMT flushes at the same cadence in both
/// systems).
fn cold_oneshot_ms(
    layout: &HeaderLayout,
    blocks: &[Vec<(DeviceId, RuleUpdate)>],
    k: usize,
    threads: usize,
    bst: usize,
) -> f64 {
    let concat: Vec<(DeviceId, RuleUpdate)> =
        blocks[..=k].iter().flatten().cloned().collect();
    let t0 = Instant::now();
    let mut pool = ShardPool::spawn(ShardPoolConfig::model_only(
        layout.clone(),
        plan_for(layout, threads),
        bst,
        threads,
    ))
    .expect("valid model-only config");
    pool.submit(concat);
    pool.drain(Duration::from_secs(3600));
    t0.elapsed().as_secs_f64() * 1e3
}

fn telemetry_json(t: &EngineTelemetry) -> String {
    format!(
        "{{\"ops\": {}, \"cache_hit_rate\": {:.4}, \"cache_evictions\": {}, \"live_nodes\": {}, \"peak_live_nodes\": {}, \"gc_runs\": {}, \"gc_reclaimed_nodes\": {}, \"gc_pause_total_ms\": {:.3}, \"freelist_reuses\": {}, \"approx_mib\": {:.3}}}",
        t.ops,
        t.cache_hit_rate(),
        t.cache_evictions,
        t.live_nodes,
        t.peak_live_nodes,
        t.gc_runs,
        t.gc_reclaimed_nodes,
        t.gc_pause_total.as_secs_f64() * 1e3,
        t.freelist_reuses,
        t.approx_bytes as f64 / (1024.0 * 1024.0),
    )
}

fn run_json(r: &RunResult) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "    \"threads_{}\": {{\n      \"threads\": {},\n      \"shards\": {},\n      \"blocks\": {},\n      \"wall_ms\": {:.3},\n      \"block_p50_ms\": {:.3},\n      \"block_p90_ms\": {:.3},\n      \"block_p99_ms\": {:.3},\n      \"block_max_ms\": {:.3},\n      \"cpu_total_ms\": {:.3},\n      \"max_cpu_ms\": {:.3},\n      \"telemetry\": {}\n    }}",
        r.threads,
        r.threads,
        r.shards,
        r.blocks,
        r.wall.as_secs_f64() * 1e3,
        r.per_block_ms.percentile(50.0),
        r.per_block_ms.percentile(90.0),
        r.per_block_ms.percentile(99.0),
        r.per_block_ms.max(),
        r.cpu_total.as_secs_f64() * 1e3,
        r.max_cpu.as_secs_f64() * 1e3,
        telemetry_json(&r.telemetry),
    );
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_parallel.json".to_string());
    let mut sweep: Vec<usize> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--threads")
        .filter_map(|(i, _)| args.get(i + 1))
        .filter_map(|v| v.parse().ok())
        .collect();
    if sweep.is_empty() {
        sweep = vec![1, 2, 4, 8];
    }

    // The multi-block churn workload: a continuous insert/delete stream
    // chopped into update blocks, the stream shape of §5.5.
    let layout = HeaderLayout::new(&[("dst", 16)]);
    let (steps, block_size) = if quick { (1500, 150) } else { (3000, 100) };
    let (_actions, updates) = churn_workload(&layout, 12, steps, 0xF1A5);
    let blocks: Vec<Vec<(DeviceId, RuleUpdate)>> =
        updates.chunks(block_size).map(|c| c.to_vec()).collect();

    let mut runs = Vec::new();
    for &t in &sweep {
        let r = run_pipeline(&layout, &blocks, t, block_size);
        println!(
            "threads={:>2} shards={:>2}: wall {:>9.2?}  block p50 {:>7.2}ms p99 {:>7.2}ms  {}",
            r.threads,
            r.shards,
            r.wall,
            r.per_block_ms.percentile(50.0),
            r.per_block_ms.percentile(99.0),
            r.telemetry.summary(),
        );
        runs.push(r);
    }

    let wall_of = |t: usize| -> Option<f64> {
        runs.iter()
            .find(|r| r.threads == t)
            .map(|r| r.wall.as_secs_f64() * 1e3)
    };
    let speedup_4v1 = match (wall_of(1), wall_of(4)) {
        (Some(w1), Some(w4)) if w4 > 0.0 => Some(w1 / w4),
        _ => None,
    };

    // Warm-vs-cold at the 4-thread shape: the warm pipeline's latency
    // for block k against a cold one-shot rebuild of everything up to
    // and including block k.
    let warm_cold = runs.iter().find(|r| r.threads == 4).map(|r4| {
        let k = blocks.len() - 1;
        let warm_k = *r4.per_block_ms.samples.last().unwrap();
        let cold_k = cold_oneshot_ms(&layout, &blocks, k, 4, block_size);
        // A mid-stream block (k ≥ 2): early enough that the model is
        // still growing, late enough that warm state has real value.
        let k2 = (blocks.len() / 2).max(2).min(blocks.len() - 1);
        let warm_2 = r4.per_block_ms.samples[k2];
        let cold_2 = cold_oneshot_ms(&layout, &blocks, k2, 4, block_size);
        (k, warm_k, cold_k, k2, warm_2, cold_2)
    });

    let peak = flash_bench::peak_rss_bytes();
    println!(
        "peak RSS: {}",
        peak.map_or("n/a".into(), |b| format!("{} MiB", flash_bench::mib(b)))
    );
    let mut json = String::new();
    json.push_str(&format!("{{\n  \"quick\": {},\n", quick));
    json.push_str(&format!(
        "  \"peak_rss_bytes\": {},\n",
        peak.map_or("null".to_string(), |b| b.to_string())
    ));
    json.push_str(&format!(
        "  \"workload\": {{\"updates\": {}, \"devices\": 12, \"dst_bits\": 16, \"block_size\": {}, \"blocks\": {}}},\n",
        steps,
        block_size,
        blocks.len()
    ));
    json.push_str("  \"runs\": {\n");
    let bodies: Vec<String> = runs.iter().map(run_json).collect();
    json.push_str(&bodies.join(",\n"));
    json.push_str("\n  }");
    if let Some(s) = speedup_4v1 {
        json.push_str(&format!(",\n  \"speedup_4v1\": {s:.3}"));
        println!("speedup 4 threads vs 1: {s:.2}x");
    }
    if let Some((k, warm_k, cold_k, k2, warm_2, cold_2)) = warm_cold {
        json.push_str(&format!(
            ",\n  \"warm_vs_cold\": {{\"block\": {}, \"warm_block_ms\": {:.3}, \"cold_oneshot_ms\": {:.3}, \"early_block\": {}, \"warm_early_ms\": {:.3}, \"cold_early_ms\": {:.3}, \"warm_below_cold\": {}}}",
            k,
            warm_k,
            cold_k,
            k2,
            warm_2,
            cold_2,
            warm_k < cold_k && warm_2 < cold_2
        ));
        println!(
            "warm block {k}: {warm_k:.2}ms vs cold one-shot {cold_k:.2}ms; warm block {k2}: {warm_2:.2}ms vs cold {cold_2:.2}ms"
        );
    }
    json.push_str("\n}\n");

    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => {
            eprintln!("cannot write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}
