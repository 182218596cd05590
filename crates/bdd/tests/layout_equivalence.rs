//! Layout equivalence: the fused 16-byte slot arena must be observationally
//! identical to a straightforward reference BDD (hash-map unique table, no
//! computed cache, no GC) on randomized operation streams — including across
//! forced mark-sweep collections.
//!
//! Also pins the disjoint-diff kernel: `diff_assuming_disjoint` must equal
//! `diff` whenever the operands really are disjoint, and the debug-assert
//! path must catch misuse on overlapping operands.

#![cfg(feature = "proptest")]

use flash_bdd::{CacheConfig, Pred, PredEngine};
use proptest::prelude::*;
use std::collections::HashMap;

const VARS: u32 = 6;

// ---------------------------------------------------------------------------
// Reference implementation: the classic two-table layout the fused arena
// replaced. Nodes live in a growable vec, the unique table is a HashMap,
// results are recomputed from scratch (no computed cache, no reclamation).
// ---------------------------------------------------------------------------

const R_FALSE: usize = 0;
const R_TRUE: usize = 1;

struct RefBdd {
    /// `(var, low, high)`; slots 0/1 are the terminals.
    nodes: Vec<(u32, usize, usize)>,
    unique: HashMap<(u32, usize, usize), usize>,
}

impl RefBdd {
    fn new() -> Self {
        RefBdd {
            nodes: vec![(u32::MAX, 0, 0), (u32::MAX, 1, 1)],
            unique: HashMap::new(),
        }
    }

    fn mk(&mut self, var: u32, low: usize, high: usize) -> usize {
        if low == high {
            return low;
        }
        *self.unique.entry((var, low, high)).or_insert_with(|| {
            self.nodes.push((var, low, high));
            self.nodes.len() - 1
        })
    }

    fn var(&mut self, v: u32) -> usize {
        self.mk(v, R_FALSE, R_TRUE)
    }

    fn apply(&mut self, op: u8, a: usize, b: usize) -> usize {
        let term = |x: usize| -> Option<bool> {
            match x {
                R_FALSE => Some(false),
                R_TRUE => Some(true),
                _ => None,
            }
        };
        if let (Some(x), Some(y)) = (term(a), term(b)) {
            let r = match op {
                0 => x && y,
                1 => x || y,
                2 => x ^ y,
                _ => x && !y,
            };
            return if r { R_TRUE } else { R_FALSE };
        }
        // Short circuits mirroring the engine's terminal rules.
        match (op, a, b) {
            (0, R_FALSE, _) | (0, _, R_FALSE) => return R_FALSE,
            (0, R_TRUE, x) | (0, x, R_TRUE) => return x,
            (1, R_TRUE, _) | (1, _, R_TRUE) => return R_TRUE,
            (1, R_FALSE, x) | (1, x, R_FALSE) => return x,
            (3, R_FALSE, _) => return R_FALSE,
            (3, x, R_FALSE) => return x,
            (3, _, R_TRUE) => return R_FALSE,
            _ => {}
        }
        let (va, vb) = (self.nodes[a].0, self.nodes[b].0);
        let v = va.min(vb);
        let (al, ah) = if va == v {
            (self.nodes[a].1, self.nodes[a].2)
        } else {
            (a, a)
        };
        let (bl, bh) = if vb == v {
            (self.nodes[b].1, self.nodes[b].2)
        } else {
            (b, b)
        };
        let low = self.apply(op, al, bl);
        let high = self.apply(op, ah, bh);
        self.mk(v, low, high)
    }

    fn not(&mut self, a: usize) -> usize {
        self.apply(2, a, R_TRUE)
    }

    fn eval(&self, a: usize, bits: &[bool]) -> bool {
        let mut cur = a;
        while cur != R_FALSE && cur != R_TRUE {
            let (v, l, h) = self.nodes[cur];
            cur = if bits[v as usize] { h } else { l };
        }
        cur == R_TRUE
    }
}

// ---------------------------------------------------------------------------
// Operation streams: a small command language interpreted against both
// implementations. `Collect` forces a mark-sweep in the fused engine (a
// no-op for the reference), exercising freelist reuse, generation bumps and
// lazy cache invalidation mid-stream.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Cmd {
    Var(u32),
    Not(usize),
    And(usize, usize),
    Or(usize, usize),
    Xor(usize, usize),
    Diff(usize, usize),
    Collect,
}

fn arb_cmds() -> impl Strategy<Value = Vec<Cmd>> {
    proptest::collection::vec(
        prop_oneof![
            (0..VARS).prop_map(Cmd::Var),
            any::<usize>().prop_map(Cmd::Not),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Cmd::And(a, b)),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Cmd::Or(a, b)),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Cmd::Xor(a, b)),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Cmd::Diff(a, b)),
            Just(Cmd::Collect),
        ],
        1..60,
    )
}

/// 64-bit truth-table fingerprint over all `2^VARS` assignments.
fn fingerprint(eval: impl Fn(&[bool]) -> bool) -> u64 {
    let mut fp = 0u64;
    for m in 0u32..(1 << VARS) {
        let bits: Vec<bool> = (0..VARS).map(|i| (m >> i) & 1 == 1).collect();
        if eval(&bits) {
            fp |= 1 << m;
        }
    }
    fp
}

/// Interprets `cmds` against the fused engine (with a deliberately tiny
/// cache + GC budget) and the reference, comparing the truth-table
/// fingerprint of every produced predicate.
fn run_stream(cmds: &[Cmd]) {
    let tiny = CacheConfig {
        initial_capacity: 4,
        max_capacity: 16,
    };
    let mut engine = PredEngine::with_config(VARS, usize::MAX, tiny);
    let mut reference = RefBdd::new();
    let mut preds: Vec<Pred> = vec![engine.false_pred(), engine.true_pred()];
    let mut refs: Vec<usize> = vec![R_FALSE, R_TRUE];
    let pick = |i: usize, len: usize| i % len;
    for cmd in cmds {
        let len = preds.len();
        match cmd {
            Cmd::Var(v) => {
                preds.push(engine.var(*v));
                refs.push(reference.var(*v));
            }
            Cmd::Not(a) => {
                let i = pick(*a, len);
                preds.push(engine.not(&preds[i].clone()));
                refs.push(reference.not(refs[i]));
            }
            Cmd::And(a, b) => {
                let (i, j) = (pick(*a, len), pick(*b, len));
                preds.push(engine.and(&preds[i].clone(), &preds[j].clone()));
                refs.push(reference.apply(0, refs[i], refs[j]));
            }
            Cmd::Or(a, b) => {
                let (i, j) = (pick(*a, len), pick(*b, len));
                preds.push(engine.or(&preds[i].clone(), &preds[j].clone()));
                refs.push(reference.apply(1, refs[i], refs[j]));
            }
            Cmd::Xor(a, b) => {
                let (i, j) = (pick(*a, len), pick(*b, len));
                preds.push(engine.xor(&preds[i].clone(), &preds[j].clone()));
                refs.push(reference.apply(2, refs[i], refs[j]));
            }
            Cmd::Diff(a, b) => {
                let (i, j) = (pick(*a, len), pick(*b, len));
                preds.push(engine.diff(&preds[i].clone(), &preds[j].clone()));
                refs.push(reference.apply(3, refs[i], refs[j]));
            }
            Cmd::Collect => {
                engine.collect();
                continue;
            }
        }
        let p = preds.last().unwrap();
        let r = *refs.last().unwrap();
        assert_eq!(
            fingerprint(|bits| engine.eval(p, bits)),
            fingerprint(|bits| reference.eval(r, bits)),
            "divergence after {cmd:?} (pred #{})",
            preds.len() - 1
        );
    }
    // Fingerprint every survivor once more after a final forced sweep: the
    // fused arena must preserve every rooted class across reclamation.
    engine.collect();
    for (p, r) in preds.iter().zip(&refs) {
        assert_eq!(
            fingerprint(|bits| engine.eval(p, bits)),
            fingerprint(|bits| reference.eval(*r, bits)),
            "class fingerprint changed across collect()"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fused_arena_matches_reference_layout(cmds in arb_cmds()) {
        run_stream(&cmds);
    }
}

// ---------------------------------------------------------------------------
// Disjoint-diff kernel.
// ---------------------------------------------------------------------------

/// On genuinely disjoint operands the kernel must agree with the full
/// recursive difference — same canonical node, same op-kind accounting.
#[test]
fn disjoint_diff_equals_diff_on_disjoint_operands() {
    let mut e = PredEngine::new(16);
    for i in 0..8u64 {
        let a = e.prefix(0, 16, i << 13, 3);
        let b = e.prefix(0, 16, ((i + 1) % 8) << 13, 3);
        assert!(e.disjoint(&a, &b));
        let full = e.diff(&a, &b);
        let fast = e.diff_assuming_disjoint(&a, &b);
        assert_eq!(fast.id(), full.id(), "kernel diverged on prefix pair {i}");
        assert_eq!(fast.id(), a.id(), "a \\ b must be a when disjoint");
    }
    assert_eq!(e.telemetry().disjoint_skips, 8);
}

/// The cell-mask proof obligation: whenever `provably_disjoint` says yes,
/// the kernel's precondition genuinely holds.
#[test]
fn provably_disjoint_implies_really_disjoint() {
    let mut e = PredEngine::new(12);
    let mut preds = Vec::new();
    for i in 0..16u64 {
        preds.push(e.prefix(0, 12, i << 8, 4 + (i % 3) as u32));
    }
    for i in 0..preds.len() {
        for j in 0..preds.len() {
            let (a, b) = (preds[i].clone(), preds[j].clone());
            if e.provably_disjoint(&a, &b, 0, 6) {
                assert!(e.disjoint(&a, &b), "cell-mask proof unsound for ({i},{j})");
                let fast = e.diff_assuming_disjoint(&a, &b);
                let full = e.diff(&a, &b);
                assert_eq!(fast.id(), full.id());
            }
        }
    }
}

/// Misusing the kernel on overlapping operands must trip the debug assert.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "diff_assuming_disjoint")]
fn disjoint_diff_misuse_panics_in_debug() {
    let mut e = PredEngine::new(8);
    let a = e.prefix(0, 8, 0x40, 2);
    let b = e.prefix(0, 8, 0x40, 4); // b ⊂ a: overlapping.
    let _ = e.diff_assuming_disjoint(&a, &b);
}
