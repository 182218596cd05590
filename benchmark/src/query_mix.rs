//! `query_mix` — reads beside writes on the same model.
//!
//! The k=8 fat tree with 8 prefixes per ToR (20,224 rules) is sealed from
//! disk into a two-shard pool with a query hub as set-up. One client
//! thread then keeps 16 queries in flight against a one-reader query
//! service (60% reachability, 30% waypoint, 10% two-rule what-if, aimed at
//! ToR prefixes; closed loop) while the main thread submits a block of 32
//! ToR uplink flips every 20 ms whether or not the last one is done (open
//! loop). A flip moves one ToR rule to another aggregation switch of its
//! pod: an equal-cost change, so the plane stays loop free and every ToR
//! stays reachable. Query execution, snapshot publication and the
//! lock-free reads dominate here and nowhere else, so a write-path gain
//! bought with slower publication or reads shows on this workload.

use crate::gen::{check_stays_in_pod, check_survives, Fingerprint, Modifier, QueryMix, Rng};
use crate::layer_report::{self, Pooled};
use crate::stats::Sample;
use crate::sut::{
    self, AnswerKind, Dataset, LayerTotals, Layers, Pool, Query, Rule, TorPrefixes, Update,
};
use crate::trace::Tracer;
use crate::{timed_setup, Args, Outcome};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const K: u32 = 8;
const PREFIXES_PER_TOR: u32 = 8;
const SHARDS: usize = 2;
const IN_FLIGHT: usize = 16;
const FLIPS_PER_BLOCK: usize = 32;
const PERIOD: Duration = Duration::from_millis(20);
const TAIL: f64 = 99.0;
/// Seconds of queries and writes the traced run replays.
const TRACE_SECONDS: f64 = 5.0;

struct Loaded {
    ds: Dataset,
    tors: TorPrefixes,
    /// Every ToR's table, the rules the flips and what-ifs draw on.
    tor_tables: Vec<(sut::DeviceId, Vec<Rule>)>,
    pool: Pool,
    sealed: bool,
}

/// Dataset on disk → sealed pool with a hub.
fn load(dir: &Path) -> Loaded {
    let (_, _, tors) = sut::generate_dataset(dir, K, PREFIXES_PER_TOR).expect("dataset is written");
    let ds = Dataset::open(dir, |_| {}).expect("dataset opens");
    let mut pool = Pool::spawn(&ds.plane, SHARDS, Vec::new(), false, true);
    let router = pool.router();
    let mut tor_tables = Vec::new();
    ds.stream(
        1,
        |ups| ups,
        |dev, ups: Vec<Update>| {
            if tors.0.iter().any(|(t, _, _)| *t == dev) {
                tor_tables.push((dev, ups.iter().map(|(_, u)| u.rule).collect()));
            }
            pool.ingest(router.route(ups));
        },
    )
    .expect("routes stream");
    pool.seal(ds.devices().to_vec());
    let sealed = pool.recv().is_some_and(|e| !e.partial);
    Loaded {
        ds,
        tors,
        tor_tables,
        pool,
        sealed,
    }
}

fn flip_blocks(l: &Loaded, seed: u64, count: usize) -> (Vec<Vec<Update>>, Fingerprint) {
    let plane = &l.ds.plane;
    let choices = l
        .tor_tables
        .iter()
        .map(|(tor, _)| {
            plane
                .successors(*tor)
                .iter()
                .filter_map(|agg| plane.fwd(*agg))
                .collect()
        })
        .collect();
    Modifier::new(l.tor_tables.clone(), choices, Rng::new(seed, 4)).blocks(count, FLIPS_PER_BLOCK)
}

fn query_mix(l: &Loaded, seed: u64) -> QueryMix {
    let rules = l
        .tor_tables
        .iter()
        .flat_map(|(_, t)| t.iter().copied())
        .step_by(7)
        .collect();
    QueryMix::new(seed, &l.tors, l.ds.plane.devices().len(), rules)
}

/// A reachability answer between two ToRs for the destination's own
/// prefix must find every class reachable, whatever flips have landed.
fn wrong_answer(q: &Query, kind: &AnswerKind, missing: usize) -> bool {
    match (q, kind) {
        (Query::Reach { .. }, AnswerKind::Reach { classes, reachable }) => {
            missing > 0 || *classes == 0 || reachable != classes
        }
        _ => missing > 0,
    }
}

#[derive(Default)]
struct Client {
    latency_us: Vec<f64>,
    answered: u64,
    failed: u64,
    wrong: u64,
}

/// Keeps `IN_FLIGHT` queries outstanding until `stop`; answers come back
/// in submission order from the one reader.
fn client(session: sut::QuerySession, mut mix: QueryMix, stop: &AtomicBool) -> Client {
    let mut c = Client::default();
    let mut pending = VecDeque::new();
    let settle = |c: &mut Client, (t, q, p): (Instant, Query, sut::PendingAnswer)| match p.wait() {
        Ok(a) => {
            c.latency_us.push(t.elapsed().as_secs_f64() * 1e6);
            c.answered += 1;
            c.wrong += wrong_answer(&q, &a.kind, a.missing.len()) as u64;
        }
        Err(_) => c.failed += 1,
    };
    while !stop.load(Ordering::Relaxed) {
        while pending.len() < IN_FLIGHT {
            let q = mix.next();
            let t = Instant::now();
            match session.submit(q.clone()) {
                Ok(p) => pending.push_back((t, q, p)),
                Err(_) => c.failed += 1,
            }
        }
        if let Some(front) = pending.pop_front() {
            settle(&mut c, front);
        }
    }
    pending.into_iter().for_each(|p| settle(&mut c, p));
    c
}

#[derive(Default)]
struct Writes {
    /// Due → epoch released, ms.
    latency_ms: Vec<f64>,
    /// Due → actually submitted, ms.
    late_ms: Vec<f64>,
    failed: u64,
}

/// Submits `blocks[i]` at `i × PERIOD`, never waiting for an epoch before
/// the next block is due.
fn paced_writes(
    pool: &mut Pool,
    blocks: &[Vec<Update>],
    mut each: impl FnMut(u64, Instant, Instant, Option<&sut::Epoch>),
) -> Writes {
    let mut w = Writes::default();
    let t0 = Instant::now();
    let mut outstanding: VecDeque<(u64, Instant)> = VecDeque::new();
    let mut next = 0;
    while next < blocks.len() || !outstanding.is_empty() {
        let due = t0 + PERIOD * next as u32;
        if next < blocks.len() && Instant::now() >= due {
            let block = blocks[next].clone();
            w.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
            pool.submit(block);
            outstanding.push_back((next as u64, due));
            next += 1;
        } else if outstanding.is_empty() {
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
        } else {
            let epoch = if next < blocks.len() {
                pool.recv_until(due)
            } else {
                pool.recv()
            };
            if epoch.is_none() && next < blocks.len() {
                continue; // the next block is due first
            }
            let (seq, was_due) = outstanding.pop_front().expect("an epoch was outstanding");
            let now = Instant::now();
            each(seq, was_due, now, epoch.as_ref());
            match epoch {
                Some(e) if !e.partial => w.latency_ms.push((now - was_due).as_secs_f64() * 1e3),
                _ => w.failed += 1,
            }
        }
    }
    w
}

/// Queries and paced writes side by side for `blocks.len() × PERIOD`.
fn serve(
    l: &mut Loaded,
    mix: QueryMix,
    blocks: &[Vec<Update>],
    each: impl FnMut(u64, Instant, Instant, Option<&sut::Epoch>),
) -> (Client, Writes, f64) {
    let queries = l.pool.query_service();
    let session = sut::session(&queries);
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let (c, w) = std::thread::scope(|s| {
        let reader = s.spawn(|| client(session, mix, &stop));
        let w = paced_writes(&mut l.pool, blocks, each);
        stop.store(true, Ordering::Relaxed);
        (reader.join().expect("client thread"), w)
    });
    let wall = started.elapsed().as_secs_f64();
    queries.shutdown();
    (c, w, wall)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let dir = args.out_dir.join("data-query_mix");
    let (mut l, setup_s) = if args.trace {
        (load(&dir), 0.0)
    } else {
        timed_setup(|| load(&dir), |l| l.pool.shutdown())
    };
    out.check(l.sealed, || "the base snapshot did not seal".into());
    let seconds = if args.trace {
        TRACE_SECONDS.min(args.seconds)
    } else {
        args.seconds
    };
    let count = (seconds / PERIOD.as_secs_f64()).ceil() as usize;
    let (blocks, fp) = flip_blocks(&l, args.seed, count);

    // Generator self-checks, before any timing.
    for (i, b) in blocks.iter().enumerate() {
        if let Err(e) = check_survives(b).and_then(|_| check_stays_in_pod(&l.ds.plane, b)) {
            out.errors.push(format!("block {i}: {e}"));
            break;
        }
    }
    out.check(flip_blocks(&l, args.seed, count).1 == fp, || {
        "the same seed gave other blocks".into()
    });
    out.note(format!(
        "inputs_fingerprint {:016x} hash  ({count} blocks of {} updates over {} rules)",
        fp.0,
        2 * FLIPS_PER_BLOCK,
        l.ds.rules
    ));
    if !out.errors.is_empty() {
        l.pool.shutdown();
        return out;
    }
    if args.trace {
        traced(args, l, &blocks, &dir, &mut out);
        return out;
    }

    let mix = query_mix(&l, args.seed);
    let (c, w, wall) = serve(&mut l, mix, &blocks, |_, _, _, _| {});
    l.pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    out.attempted = c.answered + c.failed + blocks.len() as u64;
    out.failed = c.failed + c.wrong + w.failed;
    out.check(c.wrong == 0, || {
        format!("{} answers were wrong or missed a shard", c.wrong)
    });
    out.check(c.failed + w.failed == 0, || {
        format!(
            "{} queries shed or lost, {} write epochs partial or lost",
            c.failed, w.failed
        )
    });
    if c.latency_us.is_empty() || w.latency_ms.is_empty() {
        return out;
    }

    let answered = c.answered;
    let (queries, writes, late) = (
        Sample::new(c.latency_us),
        Sample::new(w.latency_ms),
        Sample::new(w.late_ms),
    );
    let tail = queries.percentile(TAIL);
    out.check(tail.is_some(), || {
        format!("n={} is too few for p{TAIL}", queries.n())
    });
    out.note(format!(
        "generator_late_p50_ms {} ms  (due -> submitted, n={})",
        late.median(),
        late.n()
    ));
    if let Some(p95) = writes.percentile(95.0) {
        out.note(format!("ingest_p95_ms {p95} ms  (n={})", writes.n()));
    }
    out.metric(
        "wait_p50_ms",
        queries.median() / 1e3,
        format!(
            "client submit -> answer, {IN_FLIGHT} in flight, n={}",
            queries.n()
        ),
    );
    out.metric(
        "wait_tail_ms",
        tail.unwrap_or(f64::NAN) / 1e3,
        format!("p{TAIL} of the same, n={}", queries.n()),
    );
    out.metric(
        "write_p50_ms",
        writes.median(),
        format!(
            "write block due -> epoch released, one per {PERIOD:?}, n={}",
            writes.n()
        ),
    );
    out.metric(
        "work_per_s",
        answered as f64 / wall,
        format!("{answered} answered queries / wall"),
    );
    out.metric(
        "setup_s",
        setup_s,
        "dataset generation, pool spawn, load and seal, median of repeats",
    );
    out
}

fn traced(args: &Args, mut l: Loaded, blocks: &[Vec<Update>], dir: &Path, out: &mut Outcome) {
    let mut tr = Tracer::new(true);
    let mut pooled = Pooled::default();
    let mix = query_mix(&l, args.seed);
    let (c, w, _) = serve(&mut l, mix, blocks, |seq, due, end, e| {
        pooled.epoch(&mut tr, seq, due, end, e)
    });
    out.attempted = c.answered + c.failed + blocks.len() as u64;
    out.failed = c.failed + c.wrong + w.failed;
    let failed = out.failed;
    out.check(failed == 0, || {
        "the pool pass shed, lost or mis-answered operations".into()
    });
    if c.latency_us.is_empty() {
        l.pool.shutdown();
        return;
    }
    pooled.query_us = Sample::new(c.latency_us).median();
    let router = l.pool.router();
    let per_block = (c.answered as usize).div_ceil(blocks.len());

    let replay = |tr: &mut Tracer| {
        let mut off = Tracer::new(false);
        let mut layers = Layers::new(&mut off, 0, &l.ds.plane, router.clone(), SHARDS, Vec::new());
        l.ds.stream(1, |ups| ups, |_, ups| layers.ingest_bulk(&mut off, ups))
            .expect("routes stream");
        layers.seal(&mut off, &[], true);
        let mut mix = query_mix(&l, args.seed);
        let mut wrong = 0;
        let t0 = Instant::now();
        let root = tr.begin("harness", "replay", 0);
        for (i, block) in blocks.iter().enumerate() {
            layers.apply_block(tr, i as u64, block, true);
            for _ in 0..per_block {
                let q = mix.next();
                let a = layers.query(tr, i as u64, &q);
                wrong += wrong_answer(&q, &a.kind, a.missing.len()) as u64;
            }
        }
        tr.end(root);
        let wall = t0.elapsed();
        let mut totals = LayerTotals::default();
        totals.absorb(&layers);
        (root, totals, wall, wrong)
    };
    let (_, _, untraced, _) = replay(&mut Tracer::new(false));
    let (root, totals, _, wrong) = replay(&mut tr);
    l.pool.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    out.check(wrong == 0, || {
        format!("{wrong} replayed answers were wrong")
    });
    layer_report::finish(out, args, &tr, root, &totals, &pooled, untraced);
}
