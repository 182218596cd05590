//! `churn_trace` — steady-state incremental updates.
//!
//! The Stanford-trace stand-in (16-node mesh, 200 random overlapping
//! prefixes per device, about a thousand classes) is bulk-loaded into a
//! model-only pool of two shards as set-up. The run then submits blocks of
//! 32 rule modifications in lockstep — each deletes a rule and re-inserts
//! its match and priority with another action, so nothing nets out and the
//! tables keep their size — and collects every 8 blocks. MR² and the BDD
//! engine do nearly all the work; CE2D, the dataset reader and the query
//! tier are bypassed.

use crate::gen::{check_survives, Fingerprint, Modifier, Rng};
use crate::layer_report::{self, Pooled};
use crate::stats::Sample;
use crate::sut::{self, Base, LayerTotals, Layers, Pool, Update};
use crate::trace::Tracer;
use crate::{timed_setup, Args, Outcome};
use std::time::Instant;

const RULES_PER_DEVICE: usize = 200;
const SHARDS: usize = 2;
const MODIFICATIONS_PER_BLOCK: usize = 32;
const COLLECT_EVERY: usize = 8;
const TAIL: f64 = 95.0;
/// Blocks the traced run replays.
const TRACE_BLOCKS: usize = 200;

fn modifier(base: &Base, seed: u64) -> Modifier {
    Modifier::over_base(base, Rng::new(seed, 2))
}

fn blocks(base: &Base, seed: u64, count: usize) -> (Vec<Vec<Update>>, Fingerprint) {
    modifier(base, seed).blocks(count, MODIFICATIONS_PER_BLOCK)
}

fn loaded_pool(
    base: &Base,
    fibs: &[(sut::DeviceId, Vec<sut::Rule>)],
) -> (Pool, Option<sut::Epoch>) {
    let mut pool = Pool::spawn(&base.plane, SHARDS, Vec::new(), true, false);
    let epoch = pool.load(fibs);
    (pool, epoch)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let needed = Sample::needed_for(TAIL);
    let count = if args.trace {
        TRACE_BLOCKS
    } else {
        needed.max((args.seconds * 200.0) as usize)
    };
    let build = || {
        let base = sut::stanford_trace(RULES_PER_DEVICE);
        let (blocks, fp) = blocks(&base, args.seed, count);
        let (pool, loaded) = loaded_pool(&base, &base.fibs);
        (base, blocks, fp, pool, loaded)
    };
    let ((base, blocks, fp, mut pool, loaded), setup_s) = if args.trace {
        (build(), 0.0)
    } else {
        timed_setup(build, |(_, _, _, pool, _)| pool.shutdown())
    };
    out.check(loaded.is_some_and(|e| !e.partial), || {
        "the base load did not complete".into()
    });

    // Generator self-checks, before any timing.
    for (i, b) in blocks.iter().enumerate() {
        if let Err(e) = check_survives(b) {
            out.errors.push(format!("block {i}: {e}"));
            break;
        }
    }
    out.check(self::blocks(&base, args.seed, count).1 == fp, || {
        "the same seed gave other blocks".into()
    });
    let rules: usize = base.fibs.iter().map(|(_, r)| r.len()).sum();
    out.note(format!(
        "inputs_fingerprint {:016x} hash  ({count} blocks of {} updates over {rules} rules)",
        fp.0,
        2 * MODIFICATIONS_PER_BLOCK
    ));
    if !out.errors.is_empty() {
        pool.shutdown();
        return out;
    }
    if args.trace {
        traced(args, &base, &blocks, pool, &mut out);
        return out;
    }

    let mut latencies = Vec::new();
    let mut last = None;
    let started = Instant::now();
    for (i, block) in blocks.iter().enumerate() {
        if latencies.len() >= needed && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        if i > 0 && i % COLLECT_EVERY == 0 {
            pool.collect_all();
        }
        let block = block.clone();
        let t = Instant::now();
        pool.submit(block);
        let epoch = pool.recv();
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        if epoch.as_ref().is_none_or(|e| e.partial) {
            out.failed += 1;
        }
        last = epoch;
    }
    let stream_wall = started.elapsed().as_secs_f64();
    pool.shutdown();

    // The incrementally maintained model must equal a fresh bulk load of
    // the tables the applied blocks leave behind.
    let applied = latencies.len();
    let mut replayed = modifier(&base, args.seed);
    (0..applied).for_each(|_| drop(replayed.block(MODIFICATIONS_PER_BLOCK)));
    let (fresh_pool, fresh) = loaded_pool(&base, replayed.tables());
    fresh_pool.shutdown();
    let same = match (&last, &fresh) {
        (Some(a), Some(b)) => !a.class_keys.is_empty() && a.class_keys == b.class_keys,
        _ => false,
    };
    out.check(same, || {
        "final classes differ from a fresh bulk load of the final FIBs".into()
    });

    let updates = applied * 2 * MODIFICATIONS_PER_BLOCK;
    let sample = Sample::new(latencies);
    let n = sample.n();
    let tail = sample.percentile(TAIL);
    out.check(tail.is_some(), || format!("n={n} is too few for p{TAIL}"));
    out.metric(
        "wait_p50_ms",
        sample.median(),
        format!("submit -> recv_epoch per block, n={n}"),
    );
    out.metric(
        "wait_tail_ms",
        tail.unwrap_or(f64::NAN),
        format!("p{TAIL} of the same, n={n}"),
    );
    out.metric(
        "write_p50_ms",
        sample.median(),
        "the block is the write: equals wait_p50_ms",
    );
    out.metric(
        "work_per_s",
        updates as f64 / stream_wall,
        format!("{updates} native updates / wall of the block stream"),
    );
    out.metric(
        "setup_s",
        setup_s,
        "trace FIBs, block generation, pool spawn and base load, median of repeats",
    );
    out
}

fn traced(args: &Args, base: &Base, blocks: &[Vec<Update>], mut pool: Pool, out: &mut Outcome) {
    let mut tr = Tracer::new(true);
    let mut pooled = Pooled::default();
    for (i, block) in blocks.iter().enumerate() {
        if i > 0 && i % COLLECT_EVERY == 0 {
            pool.collect_all();
        }
        let block = block.clone();
        let t = Instant::now();
        pool.submit(block);
        let epoch = pool.recv();
        pooled.epoch(&mut tr, i as u64, t, Instant::now(), epoch.as_ref());
        out.attempted += 1;
    }
    out.failed = pooled.partial_epochs;
    let router = pool.router();
    pool.shutdown();

    let replay = |tr: &mut Tracer| {
        let mut off = Tracer::new(false);
        let mut layers = Layers::new(&mut off, 0, &base.plane, router.clone(), SHARDS, Vec::new());
        for (dev, rules) in &base.fibs {
            if !rules.is_empty() {
                let ups = rules
                    .iter()
                    .map(|r| (*dev, sut::RuleUpdate::insert(*r)))
                    .collect();
                layers.ingest_bulk(&mut off, ups);
            }
        }
        layers.seal(&mut off, &[], false);
        let t0 = Instant::now();
        let root = tr.begin("harness", "replay", 0);
        for (i, block) in blocks.iter().enumerate() {
            if i > 0 && i % COLLECT_EVERY == 0 {
                layers.collect(tr, i as u64);
            }
            layers.apply_block(tr, i as u64, block, false);
        }
        tr.end(root);
        let wall = t0.elapsed();
        let mut totals = LayerTotals::default();
        totals.absorb(&layers);
        (root, totals, wall)
    };
    let (_, _, untraced) = replay(&mut Tracer::new(false));
    let (root, totals, _) = replay(&mut tr);
    layer_report::finish(out, args, &tr, root, &totals, &pooled, untraced);
}
