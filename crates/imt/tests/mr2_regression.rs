//! Regression pin for the kernelized MR² map step: the batched
//! `or_many`/`diff_or` rewrites of `calculate_atomic_overwrites` (and its
//! trie-assisted variant) must produce overwrites identical — same order,
//! same `(device, action)` writes, same hash-consed predicate handles —
//! to the original one-binary-`or`-per-rule fold, on a randomized
//! 1000-rule FIB hit by a 100-update mixed insert/delete block.

use flash_bdd::{Pred, PredEngine};
use flash_imt::mr2::{
    atomic_overwrites, build_rule_trie, calculate_atomic_overwrites, calculate_atomic_overwrites_trie,
    cancel_updates, merge_block_and_diff,
};
use flash_imt::{AtomicOverwrite, MatchMemo};
use flash_netmodel::fib::rule_cmp;
use flash_netmodel::{
    ActionId, DeviceId, Fib, HeaderLayout, Match, Rule, RuleUpdate,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashSet;

/// The pre-kernel reference: accumulate the shadow union with one binary
/// `or` per skipped rule and subtract it with one binary `diff`. This is
/// the fold `calculate_atomic_overwrites` used before the n-ary kernels.
fn fold_reference(
    engine: &mut PredEngine,
    layout: &HeaderLayout,
    device: DeviceId,
    fib: &Fib,
    diff: &[Rule],
) -> Vec<AtomicOverwrite> {
    let rules = fib.rules();
    let mut out = Vec::with_capacity(diff.len());
    let mut p = engine.false_pred();
    let mut ri = 0usize;
    for rd in diff {
        while ri < rules.len() && rule_cmp(&rules[ri], rd) == std::cmp::Ordering::Less {
            let m = rules[ri].mat.to_pred(layout, engine);
            p = engine.or(&p, &m);
            ri += 1;
        }
        let m = rd.mat.to_pred(layout, engine);
        let eff = engine.diff(&m, &p);
        if !eff.is_false() {
            out.push(AtomicOverwrite {
                pred: eff,
                device,
                action: rd.action,
            });
        }
    }
    out
}

fn random_rule(rng: &mut StdRng, layout: &HeaderLayout) -> (u64, u32, Rule) {
    let len = rng.gen_range(1u32..=16);
    let value = (rng.gen_range(0u64..1 << 16) >> (16 - len)) << (16 - len);
    let action = ActionId(rng.gen_range(1u32..8));
    (
        value,
        len,
        Rule::new(Match::dst_prefix(layout, value, len), len as i64, action),
    )
}

fn assert_identical(kind: &str, got: &[AtomicOverwrite], want: &[AtomicOverwrite]) {
    assert_eq!(got.len(), want.len(), "{kind}: overwrite count diverged");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.device, w.device, "{kind}: device of overwrite {i}");
        assert_eq!(g.action, w.action, "{kind}: action of overwrite {i}");
        // Pred equality is node identity in the hash-consed engine, so this
        // pins bit-exact predicate agreement, not just logical equivalence.
        assert_eq!(g.pred, w.pred, "{kind}: predicate of overwrite {i}");
    }
}

#[test]
fn kernelized_overwrites_match_binary_fold_on_random_block() {
    let layout = HeaderLayout::new(&[("dst", 16)]);
    let mut engine = PredEngine::new(layout.total_bits());
    let device = DeviceId(7);
    let mut rng = StdRng::seed_from_u64(0xF1A5_4001);

    // Seed FIB: 1000 distinct random prefix rules on one device.
    let mut seen: HashSet<(u64, u32)> = HashSet::new();
    let mut installed: Vec<Rule> = Vec::new();
    let mut seed_block: Vec<RuleUpdate> = Vec::new();
    while installed.len() < 1000 {
        let (value, len, rule) = random_rule(&mut rng, &layout);
        if !seen.insert((value, len)) {
            continue;
        }
        installed.push(rule);
        seed_block.push(RuleUpdate::insert(rule));
    }
    let mut fib = Fib::new(&layout);
    merge_block_and_diff(&mut fib, &seed_block, &layout);
    // 1000 random rules + the FIB's built-in default wildcard.
    assert_eq!(fib.rules().len(), 1001);

    // A 100-update block: ~60 fresh inserts, ~40 deletes of installed
    // rules (deletes make the lower-priority survivors they overlap
    // expand, exercising the cursor/suffix path, not just the new-rule
    // path).
    let mut block: Vec<RuleUpdate> = Vec::new();
    while block.len() < 100 {
        if block.len() % 5 < 3 {
            let (value, len, rule) = random_rule(&mut rng, &layout);
            if !seen.insert((value, len)) {
                continue;
            }
            block.push(RuleUpdate::insert(rule));
        } else if !installed.is_empty() {
            let pos = rng.gen_range(0usize..installed.len());
            block.push(RuleUpdate::delete(installed.swap_remove(pos)));
        }
    }
    let block = cancel_updates(&block);
    let diff = {
        let res = merge_block_and_diff(&mut fib, &block, &layout);
        res.diff
    };
    assert!(!diff.is_empty(), "block must produce expanding rules");

    let clip: Pred = engine.true_pred();
    let want = fold_reference(&mut engine, &layout, device, &fib, &diff);
    let effective =
        calculate_atomic_overwrites(&mut engine, &layout, &fib, &diff, &clip, &mut MatchMemo::disabled());
    let got = atomic_overwrites(device, &diff, effective);
    assert_identical("or_many kernel", &got, &want);

    // And again with a live memo: the cached clipped predicates must be the
    // identical hash-consed nodes, not merely equivalent ones.
    let mut memo = MatchMemo::new(4096);
    let effective = calculate_atomic_overwrites(&mut engine, &layout, &fib, &diff, &clip, &mut memo);
    let got_memo = atomic_overwrites(device, &diff, effective);
    assert_identical("memoized kernel", &got_memo, &want);

    let trie = build_rule_trie(&layout, &fib);
    let got_trie = calculate_atomic_overwrites_trie(
        &mut engine,
        &layout,
        device,
        &trie,
        &diff,
        &clip,
        &mut memo,
    );
    assert_identical("diff_or trie kernel", &got_trie, &want);
}
