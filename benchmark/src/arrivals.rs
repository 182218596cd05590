//! `arrivals_k6` — consistent early detection while devices report.
//!
//! Each arrival epoch is a fresh one-shard pool checking loop freedom and
//! 24 ToR-pair reachability requirements over the k=6 full-ECMP fat tree
//! (45 devices, 4 prefixes per ToR). The devices report one after the
//! other, a whole FIB per block, in an order drawn from the seed; the
//! operator waits from the first device's block until the block that
//! releases the last verdict. Loop detection over the partly synchronized
//! network is more than nine tenths of that time and the model manager
//! under a tenth, and how long it takes depends on the order.

use crate::gen::{arrival_order, Fingerprint, Rng};
use crate::layer_report::{self, Pooled};
use crate::stats::Sample;
use crate::sut::{self, Base, LayerTotals, Layers, Pool, Update};
use crate::trace::Tracer;
use crate::{timed_setup, Args, Outcome};
use std::time::Instant;

const K: u32 = 6;
const PREFIXES_PER_TOR: u32 = 4;
const REQUIREMENTS: usize = 24;
const TAIL: f64 = 90.0;
/// Arrival epochs the traced run replays.
const TRACE_EPOCHS: u64 = 50;

struct Inputs {
    base: Base,
    /// One block per device: its whole FIB as inserts.
    blocks: Vec<Vec<Update>>,
    /// Indices into `blocks` in the tier order of arrival.
    tiers: Vec<Vec<usize>>,
    properties: Vec<sut::Property>,
}

fn inputs(seed: u64) -> Inputs {
    let (base, tors, tiers) = sut::fat_tree_ecmp(K, PREFIXES_PER_TOR);
    let mut pairs: Vec<(usize, usize)> = (0..tors.0.len())
        .flat_map(|s| {
            (0..tors.0.len())
                .filter(move |d| *d != s)
                .map(move |d| (s, d))
        })
        .collect();
    Rng::new(seed, 3).shuffle(&mut pairs);
    let mut properties = vec![sut::Property::LoopFreedom];
    for &(s, d) in &pairs[..REQUIREMENTS] {
        let (dst, value, len) = tors.0[d];
        properties.push(sut::reach_requirement(
            &base.plane,
            tors.0[s].0,
            dst,
            (value, len),
        ));
    }
    let blocks = base
        .fibs
        .iter()
        .map(|(dev, rules)| {
            rules
                .iter()
                .map(|r| (*dev, sut::RuleUpdate::insert(*r)))
                .collect()
        })
        .collect();
    let index = |devs: &[sut::DeviceId]| -> Vec<usize> {
        devs.iter()
            .map(|d| {
                base.fibs
                    .iter()
                    .position(|(f, _)| f == d)
                    .expect("device has a FIB")
            })
            .collect()
    };
    let tiers = vec![index(&tiers.cores), index(&tiers.tors), index(&tiers.aggs)];
    Inputs {
        base,
        blocks,
        tiers,
        properties,
    }
}

/// Hash of the device blocks and of the arrival orders the traced run uses.
fn fingerprint(inp: &Inputs, seed: u64) -> Fingerprint {
    let mut fp = Fingerprint::new();
    inp.blocks.iter().for_each(|b| fp.add_block(b));
    (0..TRACE_EPOCHS)
        .flat_map(|e| arrival_order(seed, e, &inp.tiers))
        .for_each(|d| fp.add(d as u64));
    fp
}

/// One arrival epoch through a fresh pool.
struct Arrival {
    /// Latency of every block, in arrival order, ms.
    block_ms: Vec<f64>,
    /// Σ block latencies up to the block that released the last verdict.
    verdict_ms: f64,
    /// 1-based index of that block.
    verdict_block: usize,
    ok: bool,
}

fn arrive(
    inp: &Inputs,
    order: &[usize],
    mut each: impl FnMut(Instant, Instant, Option<&sut::Epoch>),
) -> Arrival {
    let mut pool = Pool::spawn(&inp.base.plane, 1, inp.properties.clone(), false, false);
    let mut a = Arrival {
        block_ms: Vec::new(),
        verdict_ms: 0.0,
        verdict_block: 0,
        ok: true,
    };
    let (mut loop_free, mut satisfied, mut elapsed_ms) = (0, 0, 0.0);
    for (i, &dev) in order.iter().enumerate() {
        let block = inp.blocks[dev].clone();
        let t = Instant::now();
        pool.submit(block);
        let epoch = pool.recv();
        let end = Instant::now();
        each(t, end, epoch.as_ref());
        let ms = (end - t).as_secs_f64() * 1e3;
        a.block_ms.push(ms);
        elapsed_ms += ms;
        let Some(e) = epoch.filter(|e| !e.partial) else {
            a.ok = false;
            break;
        };
        if e.verdicts() > 0 {
            (a.verdict_ms, a.verdict_block) = (elapsed_ms, i + 1);
        }
        loop_free += e.loop_free;
        satisfied += e.satisfied;
        a.ok &= e.loops == 0 && e.unsatisfied == 0;
    }
    pool.shutdown();
    a.ok &= loop_free == 1 && satisfied == REQUIREMENTS;
    a
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (inp, setup_s) = timed_setup(|| inputs(args.seed), |_| {});
    let devices = inp.blocks.len();

    // Generator self-checks, before any timing.
    out.check(
        arrival_order(args.seed, 0, &inp.tiers) != arrival_order(args.seed + 1, 0, &inp.tiers),
        || "seeds s and s+1 give the same arrival order".into(),
    );
    let fp = fingerprint(&inp, args.seed);
    let again = fingerprint(&inputs(args.seed), args.seed);
    out.check(fp == again, || {
        "the same seed gave other blocks or orders".into()
    });
    out.note(format!(
        "inputs_fingerprint {:016x} hash  ({devices} device blocks, {} properties, first {TRACE_EPOCHS} orders)",
        fp.0,
        inp.properties.len()
    ));
    if !out.errors.is_empty() {
        return out;
    }
    if args.trace {
        traced(args, &inp, &mut out);
        return out;
    }

    let needed = Sample::needed_for(TAIL) as u64;
    let (mut verdict_ms, mut block_ms, mut busy_ms) = (Vec::new(), Vec::new(), 0.0);
    let started = Instant::now();
    let mut epoch = 0;
    while epoch < needed || started.elapsed().as_secs_f64() < args.seconds {
        let a = arrive(
            &inp,
            &arrival_order(args.seed, epoch, &inp.tiers),
            |_, _, _| {},
        );
        out.attempted += 1;
        if a.ok {
            verdict_ms.push(a.verdict_ms);
        } else {
            out.failed += 1;
        }
        busy_ms += a.block_ms.iter().sum::<f64>();
        block_ms.extend(a.block_ms);
        epoch += 1;
    }
    let failed = out.failed;
    out.check(failed == 0, || {
        format!("{failed} epochs did not end loop free with {REQUIREMENTS} requirements satisfied")
    });
    if verdict_ms.is_empty() {
        return out;
    }

    let blocks = block_ms.len();
    let (verdicts, per_block) = (Sample::new(verdict_ms), Sample::new(block_ms));
    let n = verdicts.n();
    let tail = verdicts.percentile(TAIL);
    out.check(tail.is_some(), || format!("n={n} is too few for p{TAIL}"));
    out.metric(
        "wait_p50_ms",
        verdicts.median(),
        format!("first device's block -> last verdict, per arrival epoch, n={n}"),
    );
    out.metric(
        "wait_tail_ms",
        tail.unwrap_or(f64::NAN),
        format!("p{TAIL} of the same, n={n}"),
    );
    out.metric(
        "write_p50_ms",
        per_block.median(),
        format!("submit -> recv_epoch per device block, n={blocks}"),
    );
    out.metric(
        "work_per_s",
        blocks as f64 / (busy_ms / 1e3),
        format!("{blocks} device blocks / sum of their latencies"),
    );
    out.metric(
        "setup_s",
        setup_s,
        "FIB generation, requirements and device blocks, median of repeats",
    );
    out
}

fn traced(args: &Args, inp: &Inputs, out: &mut Outcome) {
    let mut tr = Tracer::new(true);
    let mut pooled = Pooled::default();
    let mut verdict_blocks = 0;
    for epoch in 0..TRACE_EPOCHS {
        let order = arrival_order(args.seed, epoch, &inp.tiers);
        let a = arrive(inp, &order, |start, end, e| {
            pooled.epoch(&mut tr, epoch, start, end, e)
        });
        out.attempted += 1;
        out.failed += !a.ok as u64;
        verdict_blocks += a.verdict_block;
    }
    pooled.blocks_until_verdict = verdict_blocks as f64 / TRACE_EPOCHS as f64;
    let failed = out.failed;
    out.check(failed == 0, || {
        format!("{failed} epochs of the pool pass went wrong")
    });

    // The router comes from a pool; this one stays idle.
    let idle = Pool::spawn(&inp.base.plane, 1, Vec::new(), false, false);
    let router = idle.router();
    let replay = |tr: &mut Tracer| {
        let mut totals = LayerTotals::default();
        let mut wrong = 0;
        let t0 = Instant::now();
        let root = tr.begin("harness", "replay", 0);
        for epoch in 0..TRACE_EPOCHS {
            let mut layers = Layers::new(
                tr,
                epoch,
                &inp.base.plane,
                router.clone(),
                1,
                inp.properties.clone(),
            );
            for dev in arrival_order(args.seed, epoch, &inp.tiers) {
                layers.apply_block(tr, epoch, &inp.blocks[dev], false);
            }
            wrong += (layers.verdicts != (1, REQUIREMENTS, 0)) as u64;
            totals.absorb(&layers);
        }
        tr.end(root);
        (root, totals, t0.elapsed(), wrong)
    };
    let (_, _, untraced, _) = replay(&mut Tracer::new(false));
    let (root, totals, _, wrong) = replay(&mut tr);
    idle.shutdown();
    out.check(wrong == 0, || {
        format!("{wrong} replayed epochs did not reach every verdict")
    });
    layer_report::finish(out, args, &tr, root, &totals, &pooled, untraced);
}
