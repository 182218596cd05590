//! `snapshot_k20` — a batch job: verify a whole data plane from disk.
//!
//! The k=20 fat tree with 16 prefixes per ToR (500 devices, 1.6M rules)
//! is written in the on-disk dataset layout as set-up. One verification
//! loads the header, streams the route files on two reader threads in a
//! seed-shuffled device order into a one-shard pool checking loop
//! freedom, seals the snapshot and waits for its verdict. Nearly all of
//! it is the model manager's bulk load, so this is where work on the seal
//! must show; CE2D runs once and the query tier not at all.

use crate::gen::{Fingerprint, Rng};
use crate::layer_report::{self, Pooled};
use crate::stats::Sample;
use crate::sut::{self, Dataset, DeviceId, Epoch, LayerTotals, Layers, Pool};
use crate::trace::Tracer;
use crate::{timed_setup, Args, Outcome};
use std::path::Path;
use std::time::{Duration, Instant};

const K: u32 = 20;
const PREFIXES_PER_TOR: u32 = 16;
const READERS: usize = 2;

fn shuffled(seed: u64) -> impl FnOnce(&mut [DeviceId]) {
    move |devices| Rng::new(seed, 1).shuffle(devices)
}

struct Verified {
    wall: Duration,
    /// From the seal request to the sealed epoch's release.
    seal: Duration,
    rules: usize,
    epoch: Option<Epoch>,
}

/// First route byte read → sealed epoch's verdict.
fn verify(dir: &Path, seed: u64) -> Result<Verified, String> {
    let t0 = Instant::now();
    let ds = Dataset::open(dir, shuffled(seed))?;
    let mut pool = Pool::spawn(&ds.plane, 1, vec![sut::Property::LoopFreedom], false, false);
    let router = pool.router();
    let rules = ds.stream(
        READERS,
        |ups| router.route(ups),
        |_, batch| pool.ingest(batch),
    )?;
    let sealing = Instant::now();
    pool.seal(ds.devices().to_vec());
    let epoch = pool.recv();
    let (wall, seal) = (t0.elapsed(), sealing.elapsed());
    pool.shutdown();
    Ok(Verified {
        wall,
        seal,
        rules,
        epoch,
    })
}

fn check(out: &mut Outcome, v: &Verified, rules: usize) {
    out.attempted += 1;
    let ok = v
        .epoch
        .as_ref()
        .is_some_and(|e| !e.partial && e.loop_free == 1 && e.loops == 0);
    if !ok {
        out.failed += 1;
    }
    out.check(ok, || {
        "a sealed fat-tree snapshot did not come back loop free".into()
    });
    out.check(v.rules == rules, || {
        format!("streamed {} rules, generated {rules}", v.rules)
    });
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let dir = args.out_dir.join("data-snapshot_k20");
    let generate = || sut::generate_dataset(&dir, K, PREFIXES_PER_TOR).expect("dataset is written");
    if args.trace {
        let (_, rules, _) = generate();
        traced(args, &dir, rules, &mut out);
        let _ = std::fs::remove_dir_all(&dir);
        return out;
    }
    let ((devices, rules, _), setup_s) = timed_setup(generate, |_| {});

    let mut fp = Fingerprint::new();
    fp.add(rules as u64);
    let mut order: Vec<DeviceId> = (0..devices as u32).map(DeviceId).collect();
    shuffled(args.seed)(&mut order);
    order.iter().for_each(|d| fp.add(d.0 as u64));
    out.note(format!(
        "inputs_fingerprint {:016x} hash  ({devices} devices, {rules} rules)",
        fp.0
    ));

    let started = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < 2 || started.elapsed().as_secs_f64() < args.seconds {
        match verify(&dir, args.seed) {
            Ok(v) => {
                check(&mut out, &v, rules);
                walls.push(v.wall.as_secs_f64());
            }
            Err(e) => {
                out.errors.push(e);
                break;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    if walls.is_empty() {
        return out;
    }

    let walls = Sample::new(walls);
    let n = walls.n();
    let wall_ms = walls.median() * 1e3;
    out.note(format!(
        "verify_wall_s {} s  (median of {n} verifications)",
        walls.median()
    ));
    out.metric(
        "wait_p50_ms",
        wall_ms,
        format!("first route byte read -> sealed epoch's verdict, n={n}"),
    );
    out.metric(
        "wait_tail_ms",
        wall_ms,
        format!("the median again: n={n} supports no tail percentile"),
    );
    out.metric(
        "write_p50_ms",
        wall_ms,
        "the verification is the write: equals wait_p50_ms",
    );
    out.metric(
        "work_per_s",
        rules as f64 / walls.median(),
        format!("{rules} rules / median wall"),
    );
    out.metric(
        "setup_s",
        setup_s,
        "dataset generation on disk, median of repeats",
    );
    out
}

/// One verification through the pool, then the same verification twice
/// on this thread through the layers' own functions: without spans for
/// the untraced wall time, with spans for the per-layer numbers.
fn traced(args: &Args, dir: &Path, rules: usize, out: &mut Outcome) {
    let mut tr = Tracer::new(true);
    let mut pooled = Pooled::default();
    match verify(dir, args.seed) {
        Ok(v) => {
            check(out, &v, rules);
            let end = Instant::now();
            pooled.epoch(&mut tr, 0, end - v.seal, end, v.epoch.as_ref());
        }
        Err(e) => {
            out.errors.push(e);
            return;
        }
    }
    let replay = |tr: &mut Tracer| -> Result<(usize, LayerTotals, Duration, usize), String> {
        let (interned, hits) = sut::intern_counts();
        let t0 = Instant::now();
        let root = tr.begin("harness", "replay", 0);
        let s = tr.begin("workloads::dataset", "open", 0);
        let ds = Dataset::open(dir, shuffled(args.seed))?;
        tr.end(s);
        // The router comes from a pool; this one stays idle.
        let idle = Pool::spawn(&ds.plane, 1, Vec::new(), false, false);
        let mut layers = Layers::new(
            tr,
            0,
            &ds.plane,
            idle.router(),
            1,
            vec![sut::Property::LoopFreedom],
        );
        let mut parse = tr.begin("workloads::dataset", "parse", 0);
        let streamed = ds.stream(
            1,
            |ups| ups,
            |_, ups| {
                tr.end(parse);
                layers.ingest_bulk(tr, ups);
                parse = tr.begin("workloads::dataset", "parse", 0);
            },
        )?;
        tr.end(parse);
        layers.seal(tr, ds.devices(), false);
        tr.end(root);
        let wall = t0.elapsed();
        idle.shutdown();
        let (interned2, hits2) = sut::intern_counts();
        tr.count(root, "rules_parsed", (ds.rules + streamed) as f64);
        tr.count(root, "interned_matches", (interned2 - interned) as f64);
        tr.count(root, "intern_hits", (hits2 - hits) as f64);
        let mut totals = LayerTotals::default();
        totals.absorb(&layers);
        Ok((root, totals, wall, layers.verdicts.0))
    };
    match (replay(&mut Tracer::new(false)), replay(&mut tr)) {
        (Ok((_, _, untraced, _)), Ok((root, totals, _, loop_free))) => {
            out.check(loop_free == 1, || {
                "the layered replay did not find loop freedom".into()
            });
            layer_report::finish(out, args, &tr, root, &totals, &pooled, untraced);
        }
        (Err(e), _) | (_, Err(e)) => out.errors.push(e),
    }
}
