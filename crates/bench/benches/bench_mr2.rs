//! MR² ablation: block decomposition with and without the netting of
//! atomic overwrites (the aggregation DESIGN.md calls out), plus the
//! merge-based decomposition itself.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use flash_bdd::PredEngine;
use flash_imt::mr2::{atomic_overwrites, calculate_atomic_overwrites, merge_block_and_diff, Netting};
use flash_imt::{InverseModel, MatchMemo, PatStore};
use flash_netmodel::{ActionTable, DeviceId, Fib, HeaderLayout, Match, Rule, RuleUpdate};

/// A block of `k` rule inserts across `devs` devices sharing predicates
/// (the aggregation-friendly shape of real network-wide flows).
fn block(layout: &HeaderLayout, devs: u32, per_dev: u64) -> Vec<(DeviceId, Vec<RuleUpdate>)> {
    let mut at = ActionTable::new();
    (0..devs)
        .map(|d| {
            let updates = (0..per_dev)
                .map(|i| {
                    let a = at.fwd(DeviceId(1000 + d));
                    RuleUpdate::insert(Rule::new(
                        Match::dst_prefix(layout, i << 6, 10),
                        10,
                        a,
                    ))
                })
                .collect();
            (DeviceId(d), updates)
        })
        .collect()
}

type Prepared = (PredEngine, PatStore, InverseModel, Vec<flash_imt::AtomicOverwrite>);

fn prepare(layout: &HeaderLayout) -> Prepared {
    let mut engine = PredEngine::new(layout.total_bits());
    let pat = PatStore::new();
    let universe = engine.true_pred();
    let model = InverseModel::new(universe);
    let mut atomics = Vec::new();
    for (dev, updates) in block(layout, 16, 64) {
        let mut fib = Fib::new(layout);
        let res = merge_block_and_diff(&mut fib, &updates, layout);
        let clip = engine.true_pred();
        let effective = calculate_atomic_overwrites(
            &mut engine,
            layout,
            &fib,
            &res.diff,
            &clip,
            &mut MatchMemo::disabled(),
        );
        atomics.extend(atomic_overwrites(dev, &res.diff, effective));
    }
    (engine, pat, model, atomics)
}

fn bench_decompose(c: &mut Criterion) {
    let layout = HeaderLayout::new(&[("dst", 16)]);
    c.bench_function("mr2/decompose_16x64", |b| {
        b.iter_batched(
            || (PredEngine::new(16), block(&layout, 16, 64)),
            |(mut engine, blocks)| {
                let mut n = 0;
                for (_, updates) in &blocks {
                    let mut fib = Fib::new(&layout);
                    let res = merge_block_and_diff(&mut fib, updates, &layout);
                    let clip = engine.true_pred();
                    n += calculate_atomic_overwrites(
                        &mut engine,
                        &layout,
                        &fib,
                        &res.diff,
                        &clip,
                        &mut MatchMemo::disabled(),
                    )
                    .len();
                }
                std::hint::black_box(n)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_apply_with_reduce(c: &mut Criterion) {
    let layout = HeaderLayout::new(&[("dst", 16)]);
    c.bench_function("mr2/apply_with_reduce", |b| {
        b.iter_batched(
            || prepare(&layout),
            |(mut engine, mut pat, mut model, atomics)| {
                let mut net = Netting::new();
                net.add(atomics);
                let compact = net.finish(&mut engine);
                model.apply_overwrites(&mut engine, &mut pat, &compact);
                std::hint::black_box(model.len())
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_apply_without_reduce(c: &mut Criterion) {
    // Ablation: apply every atomic overwrite individually (what a
    // reduce-free Fast IMT would do) — each one is a model cross product.
    let layout = HeaderLayout::new(&[("dst", 16)]);
    c.bench_function("mr2/apply_without_reduce", |b| {
        b.iter_batched(
            || prepare(&layout),
            |(mut engine, mut pat, mut model, atomics)| {
                for a in &atomics {
                    let ow = flash_imt::Overwrite {
                        pred: a.pred.clone(),
                        writes: vec![(a.device, a.action)],
                    };
                    model.apply_overwrite(&mut engine, &mut pat, &ow);
                }
                std::hint::black_box(model.len())
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_decompose, bench_apply_with_reduce, bench_apply_without_reduce
);
criterion_main!(benches);
