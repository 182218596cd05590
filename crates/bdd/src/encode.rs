//! Encoders from packet-match primitives to BDD predicates.
//!
//! Fields are laid out most-significant-bit first: for a field of width `w`
//! starting at variable `offset`, bit `offset` is the MSB. This makes a
//! length-`l` prefix match a chain of exactly `l` decision nodes, which is
//! what keeps FIB-style workloads compact.

use crate::manager::{Bdd, NodeId, FALSE, TRUE};

impl Bdd {
    /// Predicate: the `width`-bit field at `offset` equals `value` exactly.
    pub fn exact(&mut self, offset: u32, width: u32, value: u64) -> NodeId {
        self.ternary(offset, width, value, !0u64 >> (64 - width))
    }

    /// Predicate: the `width`-bit field at `offset` starts with the top
    /// `prefix_len` bits of `value` (classic longest-prefix match).
    ///
    /// `value` is given right-aligned (e.g. an IPv4 address as `u32 as u64`).
    pub fn prefix(&mut self, offset: u32, width: u32, value: u64, prefix_len: u32) -> NodeId {
        debug_assert!(prefix_len <= width);
        if prefix_len == 0 {
            return TRUE;
        }
        let mask = if prefix_len == 0 {
            0
        } else {
            (!0u64 >> (64 - prefix_len)) << (width - prefix_len)
        };
        self.ternary(offset, width, value, mask)
    }

    /// Predicate: the field's *lowest* `suffix_len` bits equal the lowest
    /// `suffix_len` bits of `value` (suffix-match routing, the `smr` FIB
    /// discipline of the LNet-smr setting).
    pub fn suffix(&mut self, offset: u32, width: u32, value: u64, suffix_len: u32) -> NodeId {
        debug_assert!(suffix_len <= width);
        if suffix_len == 0 {
            return TRUE;
        }
        let mask = !0u64 >> (64 - suffix_len);
        self.ternary(offset, width, value, mask)
    }

    /// Ternary match: bit positions where `mask` is 1 must equal `value`;
    /// the rest are wildcarded. Built bottom-up in a single pass, no
    /// intermediate Boolean operations (and none are counted).
    pub fn ternary(&mut self, offset: u32, width: u32, value: u64, mask: u64) -> NodeId {
        debug_assert!(offset + width <= self.num_vars());
        let mut acc = TRUE;
        // Build from the least significant (deepest variable) upward.
        for bit_index in 0..width {
            // bit_index 0 = LSB of the field value.
            if (mask >> bit_index) & 1 == 0 {
                continue;
            }
            let var = offset + (width - 1 - bit_index);
            let bit = (value >> bit_index) & 1 == 1;
            acc = if bit {
                self.mk_raw(var, FALSE, acc)
            } else {
                self.mk_raw(var, acc, FALSE)
            };
        }
        acc
    }

    /// Predicate: the `width`-bit unsigned field at `offset` lies in the
    /// inclusive range `[lo, hi]`. Decomposed into O(width) prefix cubes.
    pub fn range(&mut self, offset: u32, width: u32, lo: u64, hi: u64) -> NodeId {
        debug_assert!(lo <= hi);
        debug_assert!(width == 64 || hi < (1u64 << width));
        // Greedy decomposition into maximal aligned blocks.
        let mut acc = FALSE;
        let mut cur = lo;
        loop {
            // Largest block size 2^k such that cur is aligned and the block
            // fits inside [cur, hi].
            let mut k = if cur == 0 { width } else { cur.trailing_zeros().min(width) };
            while k > 0 && (cur + (1u64.wrapping_shl(k)).wrapping_sub(1) > hi || 1u64.checked_shl(k).is_none()) {
                k -= 1;
            }
            if k == width && cur == 0 && hi == (!0u64 >> (64 - width)) {
                return TRUE;
            }
            let cube = self.prefix(offset, width, cur, width - k);
            acc = self.or_quiet(acc, cube);
            let step = 1u64 << k;
            if cur + (step - 1) >= hi {
                break;
            }
            cur += step;
        }
        acc
    }

    /// Internal OR that bypasses the public op counter (range construction
    /// is a single logical "predicate operation" from Flash's perspective;
    /// a match predicate arrives pre-built from the FIB).
    fn or_quiet(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.quiet_enter();
        let r = self.or(a, b);
        self.quiet_exit();
        r
    }

    /// Raw hash-consed node constructor: encoders always build reduced,
    /// ordered chains bottom-up, so the internal constructor is safe here.
    fn mk_raw(&mut self, var: u32, low: NodeId, high: NodeId) -> NodeId {
        self.mk(var, low, high)
    }
}
