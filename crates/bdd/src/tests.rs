//! Unit tests for the BDD engine. Property-based tests live in
//! `tests/properties.rs` at the crate root.

use crate::{Bdd, FALSE, TRUE};

#[test]
fn terminals_are_fixed() {
    let bdd = Bdd::new(8);
    assert_eq!(FALSE, 0);
    assert_eq!(TRUE, 1);
    assert_eq!(bdd.stats().nodes, 2);
}

#[test]
fn var_and_nvar_are_complements() {
    let mut bdd = Bdd::new(8);
    let x = bdd.var(3);
    let nx = bdd.nvar(3);
    assert_eq!(bdd.not(x), nx);
    assert_eq!(bdd.and(x, nx), FALSE);
    assert_eq!(bdd.or(x, nx), TRUE);
}

#[test]
fn hash_consing_makes_equal_predicates_identical() {
    let mut bdd = Bdd::new(16);
    let a = bdd.var(0);
    let b = bdd.var(1);
    let ab1 = bdd.and(a, b);
    let ab2 = bdd.and(b, a);
    assert_eq!(ab1, ab2);
    let o1 = bdd.or(ab1, a);
    assert_eq!(o1, a, "absorption: (a∧b)∨a = a");
}

#[test]
fn de_morgan() {
    let mut bdd = Bdd::new(8);
    let a = bdd.var(2);
    let b = bdd.var(5);
    let and = bdd.and(a, b);
    let lhs = bdd.not(and);
    let na = bdd.not(a);
    let nb = bdd.not(b);
    let rhs = bdd.or(na, nb);
    assert_eq!(lhs, rhs);
}

#[test]
fn diff_is_and_not() {
    let mut bdd = Bdd::new(8);
    let a = bdd.var(1);
    let b = bdd.var(4);
    let d = bdd.diff(a, b);
    let nb = bdd.not(b);
    let expect = bdd.and(a, nb);
    assert_eq!(d, expect);
}

#[test]
fn xor_against_definition() {
    let mut bdd = Bdd::new(8);
    let a = bdd.var(0);
    let b = bdd.var(7);
    let x = bdd.xor(a, b);
    let d1 = bdd.diff(a, b);
    let d2 = bdd.diff(b, a);
    let expect = bdd.or(d1, d2);
    assert_eq!(x, expect);
}

#[test]
fn ite_select() {
    let mut bdd = Bdd::new(8);
    let c = bdd.var(0);
    let t = bdd.var(1);
    let e = bdd.var(2);
    let r = bdd.ite(c, t, e);
    // Evaluate on all 8 assignments of (c,t,e).
    for bits_c in [false, true] {
        for bits_t in [false, true] {
            for bits_e in [false, true] {
                let mut bits = vec![false; 8];
                bits[0] = bits_c;
                bits[1] = bits_t;
                bits[2] = bits_e;
                let expect = if bits_c { bits_t } else { bits_e };
                assert_eq!(bdd.eval(r, &bits), expect);
            }
        }
    }
}

#[test]
fn prefix_contains_its_subprefixes() {
    let mut bdd = Bdd::new(32);
    let p24 = bdd.prefix(0, 32, 0x0a000100, 24);
    let p16 = bdd.prefix(0, 32, 0x0a000000, 16);
    assert!(bdd.implies(p24, p16));
    assert!(!bdd.implies(p16, p24));
    assert_eq!(bdd.and(p24, p16), p24);
}

#[test]
fn prefix_sat_count() {
    let mut bdd = Bdd::new(32);
    let p = bdd.prefix(0, 32, 0xC0A80000, 16); // 192.168/16
    assert_eq!(bdd.sat_count(p), 2f64.powi(16));
    let all = bdd.prefix(0, 32, 0, 0);
    assert_eq!(all, TRUE);
}

#[test]
fn disjoint_prefixes() {
    let mut bdd = Bdd::new(32);
    let a = bdd.prefix(0, 32, 0x0a000000, 8); // 10/8
    let b = bdd.prefix(0, 32, 0x0b000000, 8); // 11/8
    assert!(bdd.disjoint(a, b));
}

#[test]
fn exact_match_single_point() {
    let mut bdd = Bdd::new(16);
    let e = bdd.exact(0, 16, 0xBEEF);
    assert_eq!(bdd.sat_count(e), 1.0);
    let mut bits = vec![false; 16];
    for (i, bit) in bits.iter_mut().enumerate() {
        *bit = (0xBEEFu64 >> (15 - i)) & 1 == 1;
    }
    assert!(bdd.eval(e, &bits));
    bits[15] = !bits[15];
    assert!(!bdd.eval(e, &bits));
}

#[test]
fn suffix_match() {
    let mut bdd = Bdd::new(16);
    // low 8 bits equal 0x55
    let s = bdd.suffix(0, 16, 0x55, 8);
    assert_eq!(bdd.sat_count(s), 256.0);
    let mut bits = vec![false; 16];
    for i in 0..8 {
        bits[8 + i] = (0x55u64 >> (7 - i)) & 1 == 1;
    }
    assert!(bdd.eval(s, &bits));
}

#[test]
fn ternary_wildcard_bits() {
    let mut bdd = Bdd::new(8);
    // match xx1x_x0xx : bit5 (value order) = 1, bit2 = 0
    let t = bdd.ternary(0, 8, 0b0010_0000, 0b0010_0100);
    assert_eq!(bdd.sat_count(t), 64.0);
}

#[test]
fn range_simple() {
    let mut bdd = Bdd::new(8);
    let r = bdd.range(0, 8, 10, 20);
    assert_eq!(bdd.sat_count(r), 11.0);
    for v in 0u64..=255 {
        let bits: Vec<bool> = (0..8).map(|i| (v >> (7 - i)) & 1 == 1).collect();
        assert_eq!(bdd.eval(r, &bits), (10..=20).contains(&v), "v={v}");
    }
}

#[test]
fn range_full_width() {
    let mut bdd = Bdd::new(8);
    let r = bdd.range(0, 8, 0, 255);
    assert_eq!(r, TRUE);
    let one = bdd.range(0, 8, 7, 7);
    let e = bdd.exact(0, 8, 7);
    assert_eq!(one, e);
}

#[test]
fn range_port_like_16bit() {
    let mut bdd = Bdd::new(16);
    let r = bdd.range(0, 16, 1024, 65535);
    assert_eq!(bdd.sat_count(r), (65536 - 1024) as f64);
}

#[test]
fn any_sat_and_eval_agree() {
    let mut bdd = Bdd::new(12);
    let a = bdd.prefix(0, 12, 0b101100000000, 4);
    let w = bdd.any_sat(a).expect("nonempty");
    assert!(bdd.eval(a, &w));
    assert_eq!(bdd.any_sat(FALSE), None);
}

#[test]
fn op_counter_counts_public_ops_only() {
    let mut bdd = Bdd::new(32);
    let before = bdd.op_count();
    let _p = bdd.prefix(0, 32, 0x0a000000, 8);
    let _r = bdd.range(0, 32, 5, 300);
    assert_eq!(bdd.op_count(), before, "encoders must not count");
    let a = bdd.var(0);
    let b = bdd.var(1);
    bdd.and(a, b);
    bdd.or(a, b);
    bdd.not(a);
    assert_eq!(bdd.op_count(), before + 3);
}

#[test]
fn exists_range_forgets_a_field() {
    // Layout: two 8-bit fields. Quantify the second.
    let mut bdd = Bdd::new(16);
    let dst = bdd.prefix(0, 8, 0xA0, 4);
    let src = bdd.exact(8, 8, 0x55);
    let both = bdd.and(dst, src);
    let forgotten = bdd.exists_range(both, 8, 8);
    assert_eq!(forgotten, dst, "forgetting src leaves the dst constraint");
    // Quantifying a variable not in the support is a no-op.
    assert_eq!(bdd.exists_range(dst, 8, 8), dst);
    // Quantifying everything yields TRUE (for satisfiable predicates).
    assert_eq!(bdd.exists_range(both, 0, 16), TRUE);
    assert_eq!(bdd.exists_range(FALSE, 0, 16), FALSE);
}

#[test]
fn rewrite_field_sets_the_constant() {
    let mut bdd = Bdd::new(16);
    let dst = bdd.prefix(0, 8, 0xA0, 4);
    let src = bdd.exact(8, 8, 0x55);
    let both = bdd.and(dst, src);
    // NAT: rewrite src to 0x77.
    let rewritten = bdd.rewrite_field(both, 8, 8, 0x77);
    let expect_src = bdd.exact(8, 8, 0x77);
    let expect = bdd.and(dst, expect_src);
    assert_eq!(rewritten, expect);
    // Rewriting to the same value is idempotent on a constrained field.
    let again = bdd.rewrite_field(rewritten, 8, 8, 0x77);
    assert_eq!(again, rewritten);
    // Empty input stays empty.
    assert_eq!(bdd.rewrite_field(FALSE, 8, 8, 0x77), FALSE);
}

#[test]
fn gc_preserves_roots_and_drops_garbage() {
    let mut bdd = Bdd::new(32);
    let keep1 = bdd.prefix(0, 32, 0x0a000100, 24);
    let keep2 = bdd.prefix(0, 32, 0x0a000200, 24);
    // generate garbage
    for i in 0..200u64 {
        let g = bdd.prefix(0, 32, i << 8, 24);
        let _ = bdd.not(g);
    }
    let nodes_before = bdd.stats().nodes;
    let sat1 = bdd.sat_count(keep1);
    let union = bdd.or(keep1, keep2);
    let sat_u = bdd.sat_count(union);
    let roots = bdd.gc(&[keep1, keep2, union]);
    assert!(bdd.stats().nodes < nodes_before);
    assert_eq!(bdd.sat_count(roots[0]), sat1);
    assert_eq!(bdd.sat_count(roots[2]), sat_u);
    // semantics preserved: union of remapped parts equals remapped union
    let u2 = bdd.or(roots[0], roots[1]);
    assert_eq!(u2, roots[2]);
}

#[test]
fn gc_with_terminal_roots() {
    let mut bdd = Bdd::new(8);
    let roots = bdd.gc(&[TRUE, FALSE]);
    assert_eq!(roots, vec![TRUE, FALSE]);
}

#[test]
fn size_of_counts_decision_nodes() {
    let mut bdd = Bdd::new(32);
    assert_eq!(bdd.size_of(TRUE), 0);
    let p = bdd.prefix(0, 32, 0xff000000, 8);
    assert_eq!(bdd.size_of(p), 8);
}

#[test]
fn multifield_layout() {
    // dst(8) at offset 0, src(8) at offset 8
    let mut bdd = Bdd::new(16);
    let dst = bdd.prefix(0, 8, 0x12, 8);
    let src = bdd.prefix(8, 8, 0x34, 8);
    let both = bdd.and(dst, src);
    assert_eq!(bdd.sat_count(both), 1.0);
    let w = bdd.any_sat(both).unwrap();
    let d: u64 = (0..8).fold(0, |acc, i| (acc << 1) | w[i] as u64);
    let s: u64 = (8..16).fold(0, |acc, i| (acc << 1) | w[i] as u64);
    assert_eq!((d, s), (0x12, 0x34));
}

#[test]
fn node_view_is_send_sync_and_agrees_with_eval() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<crate::NodeView>();

    let mut eng = crate::PredEngine::new(16);
    let p = eng.encode(|b| b.prefix(0, 8, 0x12, 8));
    let view = eng.node_view();
    let raw = eng.export(&p);
    for hdr in [0x12u8, 0x13, 0x00, 0xff] {
        let bits: Vec<bool> = (0..16).map(|i| i < 8 && (hdr >> (7 - i)) & 1 == 1).collect();
        let expect = eng.with_bdd(|b| b.eval(raw.node(), &bits));
        assert_eq!(view.eval(raw.node(), &bits), expect, "hdr {hdr:#x}");
    }
}

#[test]
fn node_view_survives_collect_and_cross_thread_reads() {
    let mut eng = crate::PredEngine::new(16);
    let pinned = eng.encode(|b| b.prefix(0, 8, 0x12, 8));
    let raw = eng.export(&pinned);
    let view = eng.node_view();
    // Unpinned garbage churn plus a forced collection: the pinned root
    // must keep its id and structure through the non-moving sweep.
    for v in 0u64..200 {
        let _ = eng.encode(|b| b.exact(8, 8, v & 0xff));
    }
    eng.collect();
    let handle = std::thread::spawn(move || {
        let mut hits = 0;
        for hdr in 0u32..256 {
            let bits: Vec<bool> =
                (0..16).map(|i| i < 8 && (hdr >> (7 - i)) & 1 == 1).collect();
            if view.eval(raw.node(), &bits) {
                hits += 1;
            }
        }
        hits
    });
    assert_eq!(handle.join().unwrap(), 1); // exactly 0x12 matches the /8 exact prefix
    drop(pinned);
}

#[test]
fn node_view_intersects_under_partial_assignment() {
    let mut eng = crate::PredEngine::new(16);
    // dst in 0x10/4 (top nibble = 1)
    let p = eng.encode(|b| b.prefix(0, 8, 0x10, 4));
    let raw = eng.export(&p);
    let view = eng.node_view();
    let mut free = vec![None; 16];
    assert!(view.intersects(raw.node(), &view.constrain(&free)));
    // Constrain the top nibble to 0001 -> intersects.
    for (i, bit) in [false, false, false, true].into_iter().enumerate() {
        free[i] = Some(bit);
    }
    assert!(view.intersects(raw.node(), &view.constrain(&free)));
    // Constrain the top nibble to 0010 -> disjoint.
    free[2] = Some(true);
    free[3] = Some(false);
    assert!(!view.intersects(raw.node(), &view.constrain(&free)));
    assert!(!view.intersects(crate::FALSE, &view.constrain(&[None; 16])));
    assert!(view.intersects(crate::TRUE, &view.constrain(&[None; 16])));
}

/// `intersects` against enumeration: prefixes (the single-path walk),
/// assignments with free bits above fixed ones (the DFS), and nothing
/// fixed at all.
#[test]
fn node_view_intersects_matches_enumeration() {
    const BITS: u32 = 10;
    let mut eng = crate::PredEngine::with_gc_threshold(BITS, usize::MAX);
    let mut state = 0x1A7E_85EC_u64;
    let mut next = move |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % n
    };
    for case in 0..60 {
        let lo = next(1 << BITS);
        let a = eng.range(0, BITS, lo, (lo + next(300)).min((1 << BITS) - 1));
        let b = eng.prefix(0, BITS, next(1 << BITS), 1 + next(BITS as u64) as u32);
        let v = eng.var(next(BITS as u64) as u32);
        let p = match case % 4 {
            0 => a,
            1 => eng.diff(&a, &b),
            2 => eng.and(&b, &v),
            _ => eng.or(&a, &v),
        };
        let view = eng.node_view();
        for shape in 0..6 {
            let prefix_len = 1 + next(BITS as u64) as u32;
            let fixed: Vec<Option<bool>> = (0..BITS)
                .map(|i| {
                    let keep = match shape {
                        0 => false,
                        1 | 2 => i < prefix_len,
                        _ => next(2) == 0,
                    };
                    keep.then(|| next(2) == 0)
                })
                .collect();
            let want = (0..1u64 << BITS).any(|h| {
                let bits: Vec<bool> = (0..BITS).map(|i| (h >> (BITS - 1 - i)) & 1 == 1).collect();
                bits.iter().zip(&fixed).all(|(b, f)| f.is_none_or(|f| f == *b))
                    && eng.eval(&p, &bits)
            });
            let got = view.intersects(eng.export(&p).node(), &view.constrain(&fixed));
            assert_eq!(got, want, "case {case} shape {shape} under {fixed:?}");
        }
    }
}
