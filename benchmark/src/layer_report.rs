//! Turns a traced run into the per-layer metrics and the trace file.

use crate::stats::Sample;
use crate::sut::{Epoch, LayerTotals};
use crate::trace::Tracer;
use crate::{Args, Outcome, PER_LAYER};
use std::time::{Duration, Instant};

/// What only the pass through the pool can tell: waiting, not work.
#[derive(Default)]
pub struct Pooled {
    /// Σ over epochs of latency minus the slowest shard's processing time.
    pub wait_ms: f64,
    pub partial_epochs: u64,
    /// Median client-side query latency, µs.
    pub query_us: f64,
    /// Mean index of the block that released an epoch's last verdict.
    pub blocks_until_verdict: f64,
}

const SHARD_CPU: [&str; 2] = ["cpu_ms_shard0", "cpu_ms_shard1"];

impl Pooled {
    /// Records one epoch of the pool pass as a span with each shard's
    /// processing time on it.
    pub fn epoch(
        &mut self,
        tr: &mut Tracer,
        seq: u64,
        start: Instant,
        end: Instant,
        e: Option<&Epoch>,
    ) {
        let Some(e) = e.filter(|e| !e.partial) else {
            self.partial_epochs += 1;
            return;
        };
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        self.wait_ms += ms((end - start).saturating_sub(e.max_cpu()));
        let counts = SHARD_CPU
            .iter()
            .zip(&e.shard_cpu)
            .map(|(n, d)| (*n, ms(*d)))
            .collect();
        tr.closed("pool", "epoch", seq, start, end, counts);
    }
}

/// Fills in every per-layer metric, prints the self-time table and
/// writes `out/trace-<workload>.jsonl`.
///
/// `root` is the traced replay's outermost span and `untraced` the wall
/// time of the same replay with spans off.
pub fn finish(
    out: &mut Outcome,
    args: &Args,
    tr: &Tracer,
    root: usize,
    totals: &LayerTotals,
    pooled: &Pooled,
    untraced: Duration,
) {
    let wall_ms = tr.spans[root].ms();
    let self_times = tr.self_times(root);
    let layers_ms: f64 = self_times
        .iter()
        .filter(|(l, _)| **l != "harness")
        .map(|(_, ms)| ms)
        .sum();
    for (layer, ms) in &self_times {
        out.note(format!(
            "self_ms.{layer} {ms} ms  ({:.1}% of the replay)",
            100.0 * ms / wall_ms
        ));
    }
    let path = args.out_dir.join(format!("trace-{}.jsonl", args.workload));
    match tr.write(&path, &self_times) {
        Ok(()) => out.note(format!(
            "trace_file {} path  ({} spans)",
            path.display(),
            tr.spans.len()
        )),
        Err(e) => out
            .errors
            .push(format!("cannot write {}: {e}", path.display())),
    }

    let share = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    // Median service time of the `core::query` spans called `name`, µs.
    let exec_us = |name: Option<&str>| {
        let d: Vec<f64> = tr
            .spans
            .iter()
            .filter(|s| s.layer == "core::query" && name.is_none_or(|n| s.name == n))
            .map(|s| s.ms() * 1e3)
            .collect();
        if d.is_empty() {
            None
        } else {
            Some(Sample::new(d).median())
        }
    };
    let queue_us = exec_us(None).map_or(0.0, |exec| pooled.query_us - exec);
    let parse_ms: f64 = tr
        .spans
        .iter()
        .filter(|s| s.layer == "workloads::dataset")
        .map(|s| s.ms())
        .sum();
    let (imt, engine) = (&totals.imt, totals.engine());
    let overhead = wall_ms / (untraced.as_secs_f64() * 1e3) - 1.0;

    let exec = |name| exec_us(Some(name)).unwrap_or(0.0);
    let ms = |layer, name| tr.total_ms(layer, name);
    let count = |name| tr.total_count(name);
    let probes = imt.classes_probed + imt.classes_pruned;
    let lookups = imt.match_memo_hits + imt.match_memo_misses;
    let values: [(&'static str, f64); 34] = [
        ("parse_ms", parse_ms),
        ("rules_parsed", count("rules_parsed")),
        ("interned_matches", count("interned_matches")),
        ("intern_hits", count("intern_hits")),
        ("route_ms", ms("core::shard", "route")),
        ("wait_ms", pooled.wait_ms),
        ("partial_epochs", pooled.partial_epochs as f64),
        ("flush_ms", ms("imt", "flush")),
        ("bulk_load_ms", ms("imt", "bulk_load")),
        ("map_ms", count("map_ms")),
        ("reduce_ms", count("reduce_ms")),
        ("apply_ms", count("apply_ms")),
        ("atomic_overwrites", count("atomic_overwrites")),
        ("compact_overwrites", count("compact_overwrites")),
        ("classes", totals.classes as f64),
        ("probe_share", share(imt.classes_probed, probes)),
        ("memo_hit_share", share(imt.match_memo_hits, lookups)),
        ("bdd_ops", engine.ops as f64),
        ("bdd_cache_hit_share", engine.cache_hit_rate()),
        ("bdd_cache_evictions", engine.cache_evictions as f64),
        ("gc_pause_ms", engine.gc_pause_total.as_secs_f64() * 1e3),
        ("peak_live_nodes", engine.peak_live_nodes as f64),
        ("loop_ms", ms("ce2d", "loop")),
        ("regex_ms", ms("ce2d", "regex")),
        ("blocks_until_verdict", pooled.blocks_until_verdict),
        ("publish_ms", ms("imt::snapshot", "publish")),
        (
            "classes_per_snapshot",
            share(totals.classes_published, totals.snapshots_published),
        ),
        ("exec_us_reach", exec("reach")),
        ("exec_us_waypoint", exec("waypoint")),
        ("exec_us_what_if", exec("what_if")),
        ("queue_us", queue_us),
        ("replay_wall_ms", wall_ms),
        ("layers_share", layers_ms / wall_ms),
        ("trace_overhead_share", overhead),
    ];
    for (name, value) in values {
        let how = PER_LAYER.iter().find(|m| m.0 == name).map_or("", |m| m.2);
        out.metric(name, value, how);
    }
}
