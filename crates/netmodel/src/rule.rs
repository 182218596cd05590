//! Rules, matches and native rule updates.
//!
//! A rule is `⟨match, priority, action⟩` (§3.1). A match constrains each
//! header field independently; the overall match predicate is the
//! conjunction of the per-field constraints. Matches compile either into a
//! BDD predicate (what Flash and APKeep* consume) or into a set of integer
//! intervals over the concatenated header space (what Delta-net* consumes).

use crate::action::ActionId;
use crate::header::{FieldId, HeaderLayout};
use crate::intern::{MatchId, MatchTable};
use flash_bdd::{Bdd, NodeId};

/// A constraint on a single header field.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MatchKind {
    /// No constraint (wildcard).
    Any,
    /// Field equals `value` exactly.
    Exact(u64),
    /// The top `len` bits of the field equal the top `len` bits of `value`
    /// (longest-prefix match; `value` right-aligned).
    Prefix { value: u64, len: u32 },
    /// The low `len` bits of the field equal the low `len` bits of `value`
    /// (suffix-match routing).
    Suffix { value: u64, len: u32 },
    /// Ternary match: positions with a 1 in `mask` must equal `value`.
    Ternary { value: u64, mask: u64 },
    /// Inclusive integer range.
    Range { lo: u64, hi: u64 },
}

impl MatchKind {
    /// Quick syntactic emptiness-of-intersection test with another
    /// constraint on the same field of width `w`. Conservative: `false`
    /// means "definitely disjoint"; `true` means "may overlap".
    pub fn may_overlap(&self, other: &MatchKind, w: u32) -> bool {
        use MatchKind::*;
        let full = |k: &MatchKind| -> Option<(u64, u64)> {
            // Represent prefix/exact/any as a range when possible.
            match *k {
                Any => Some((0, max_val(w))),
                Exact(v) => Some((v, v)),
                Prefix { value, len } => {
                    let lo = top_bits(value, w, len);
                    Some((lo, lo + (max_val(w - len.min(w)))))
                }
                Range { lo, hi } => Some((lo, hi)),
                _ => None,
            }
        };
        match (full(self), full(other)) {
            (Some((a0, a1)), Some((b0, b1))) => a0 <= b1 && b0 <= a1,
            _ => {
                // Ternary vs ternary: disjoint iff they disagree on a
                // commonly-constrained bit.
                if let (Some((v1, m1)), Some((v2, m2))) =
                    (self.as_ternary(w), other.as_ternary(w))
                {
                    let common = m1 & m2;
                    (v1 & common) == (v2 & common)
                } else {
                    true
                }
            }
        }
    }

    /// Ternary (value, mask) form when the constraint is bit-maskable.
    pub fn as_ternary(&self, w: u32) -> Option<(u64, u64)> {
        use MatchKind::*;
        match *self {
            Any => Some((0, 0)),
            Exact(v) => Some((v, max_val(w))),
            Prefix { value, len } => {
                let len = len.min(w);
                let mask = if len == 0 {
                    0
                } else {
                    (max_val(len)) << (w - len)
                };
                Some((top_bits(value, w, len), mask))
            }
            Suffix { value, len } => {
                let len = len.min(w);
                let mask = max_val(len);
                Some((value & mask, mask))
            }
            Ternary { value, mask } => Some((value & mask, mask)),
            Range { .. } => None,
        }
    }
}

fn max_val(width: u32) -> u64 {
    if width == 0 {
        0
    } else if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Keeps only the top `len` bits of a `w`-bit value (zeroing the rest).
fn top_bits(value: u64, w: u32, len: u32) -> u64 {
    if len == 0 {
        0
    } else {
        let keep = (max_val(len)) << (w - len);
        value & keep
    }
}

/// A multi-field match: one [`MatchKind`] per layout field, interned into
/// the process-global [`MatchTable`].
///
/// A `Match` is a 4-byte `Copy` handle; the per-field constraints live
/// exactly once in the table's packed pool. Equality is an id compare
/// (sound: the table dedups on structure) and hashing uses the
/// precomputed structural hash, so `Match` keys cost O(1) regardless of
/// field count. Handles are only meaningful within the interning process:
/// [`Match::kinds`] and [`Match::intern`] convert to and from values.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Match {
    id: MatchId,
}

impl std::hash::Hash for Match {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash64());
    }
}

impl std::fmt::Debug for Match {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Match").field("kinds", &self.kinds()).finish()
    }
}

impl Match {
    /// The all-wildcard match over `layout`.
    pub fn any(layout: &HeaderLayout) -> Self {
        Match::intern(&vec![MatchKind::Any; layout.field_count()])
    }

    /// Interns a match from one [`MatchKind`] per layout field.
    pub fn intern(kinds: &[MatchKind]) -> Self {
        Match { id: MatchTable::global().intern(kinds) }
    }

    /// Sets the constraint for one field (builder style). Re-interns: the
    /// original entry is untouched (matches are immutable values).
    pub fn with(self, field: FieldId, kind: MatchKind) -> Self {
        let mut kinds = self.kinds().to_vec();
        kinds[field.0 as usize] = kind;
        Match::intern(&kinds)
    }

    /// A destination-prefix match (field 0 by convention), interned once.
    pub fn dst_prefix(layout: &HeaderLayout, value: u64, len: u32) -> Self {
        let mut kinds = vec![MatchKind::Any; layout.field_count()];
        kinds[0] = MatchKind::Prefix { value, len };
        Match::intern(&kinds)
    }

    /// This match's interning handle — the key the match memo indexes on.
    pub fn id(&self) -> MatchId {
        self.id
    }

    /// The precomputed structural hash (`DefaultHasher` over the kinds).
    /// Deterministic across processes; used for same-priority FIB
    /// tie-breaks.
    pub fn hash64(&self) -> u64 {
        MatchTable::global().entry(self.id).hash
    }

    pub fn kind(&self, field: FieldId) -> &'static MatchKind {
        &self.kinds()[field.0 as usize]
    }

    pub fn kinds(&self) -> &'static [MatchKind] {
        MatchTable::global().entry(self.id).kinds
    }

    /// True when every field is a wildcard (precomputed at intern time).
    pub fn is_any(&self) -> bool {
        MatchTable::global().entry(self.id).is_any
    }

    /// Compiles the match into a BDD predicate under `layout`.
    pub fn to_bdd(&self, layout: &HeaderLayout, bdd: &mut Bdd) -> NodeId {
        let kinds = self.kinds();
        let mut acc = flash_bdd::TRUE;
        for (fid, spec) in layout.fields() {
            let kind = &kinds[fid.0 as usize];
            let p = match *kind {
                MatchKind::Any => continue,
                MatchKind::Exact(v) => bdd.exact(spec.offset, spec.width, v),
                MatchKind::Prefix { value, len } => bdd.prefix(spec.offset, spec.width, value, len),
                MatchKind::Suffix { value, len } => bdd.suffix(spec.offset, spec.width, value, len),
                MatchKind::Ternary { value, mask } => {
                    bdd.ternary(spec.offset, spec.width, value, mask)
                }
                MatchKind::Range { lo, hi } => bdd.range(spec.offset, spec.width, lo, hi),
            };
            // Skip the trivial TRUE ∧ p conjunction: single-field matches
            // (the common FIB case) compile without issuing any `and`.
            acc = if acc == flash_bdd::TRUE { p } else { bdd.and(acc, p) };
        }
        acc
    }

    /// Compiles the match into a rooted predicate handle. The raw
    /// compilation runs under [`flash_bdd::PredEngine::encode`], so the
    /// result is GC-safe the moment it is returned.
    pub fn to_pred(&self, layout: &HeaderLayout, engine: &mut flash_bdd::PredEngine) -> flash_bdd::Pred {
        engine.encode(|bdd| self.to_bdd(layout, bdd))
    }

    /// Conservative overlap test used by the prefix trie to prune.
    pub fn may_overlap(&self, other: &Match, layout: &HeaderLayout) -> bool {
        if self.id == other.id {
            return true; // a match always overlaps itself
        }
        let (a, b) = (self.kinds(), other.kinds());
        for (fid, spec) in layout.fields() {
            let i = fid.0 as usize;
            if !a[i].may_overlap(&b[i], spec.width) {
                return false;
            }
        }
        true
    }

    /// Decomposes the match into maximal disjoint intervals over the
    /// concatenated header integer (field 0 most significant).
    ///
    /// This is the representation the Delta-net* baseline uses. Prefix-only
    /// matches on the first field produce a single interval; constraints on
    /// later fields, suffix matches and ternary matches multiply the
    /// interval count — exactly the degradation the paper reports for
    /// Delta-net on LNet-ecmp and LNet-smr. The expansion is capped at
    /// `cap`; `None` is returned when it would exceed the cap.
    pub fn to_intervals(&self, layout: &HeaderLayout, cap: usize) -> Option<Vec<(u128, u128)>> {
        // Process fields from last (least significant) to first, tracking
        // the interval set over the suffix of fields seen so far.
        let kinds = self.kinds();
        let mut suffix: Vec<(u128, u128)> = vec![(0, 1)]; // [0,1): zero-width
        let mut suffix_bits: u32 = 0;
        let mut suffix_full = true;

        for (fid, spec) in layout.fields().collect::<Vec<_>>().into_iter().rev() {
            let w = spec.width;
            let field_ivs = field_intervals(&kinds[fid.0 as usize], w);
            let field_full =
                field_ivs.len() == 1 && field_ivs[0] == (0, 1u128 << w);
            let mut next: Vec<(u128, u128)> = Vec::new();
            if suffix_full {
                // Scale the field intervals by the suffix width.
                for &(lo, hi) in &field_ivs {
                    next.push((lo << suffix_bits, hi << suffix_bits));
                }
            } else {
                // Every concrete value of this field crosses with every
                // suffix interval.
                let mut count: u128 = 0;
                for &(lo, hi) in &field_ivs {
                    count += (hi - lo) * suffix.len() as u128;
                    if count > cap as u128 {
                        return None;
                    }
                }
                for &(lo, hi) in &field_ivs {
                    for v in lo..hi {
                        for &(slo, shi) in &suffix {
                            next.push(((v << suffix_bits) + slo, (v << suffix_bits) + shi));
                        }
                    }
                }
            }
            if next.len() > cap {
                return None;
            }
            suffix = next;
            suffix_bits += w;
            suffix_full = suffix_full && field_full;
        }
        // Merge adjacent intervals for canonical output.
        suffix.sort_unstable();
        let mut merged: Vec<(u128, u128)> = Vec::with_capacity(suffix.len());
        for (lo, hi) in suffix {
            if let Some(last) = merged.last_mut() {
                if last.1 == lo {
                    last.1 = hi;
                    continue;
                }
            }
            merged.push((lo, hi));
        }
        Some(merged)
    }
}

/// Disjoint half-open intervals `[lo, hi)` covered by one field constraint.
fn field_intervals(kind: &MatchKind, w: u32) -> Vec<(u128, u128)> {
    let full = 1u128 << w;
    match *kind {
        MatchKind::Any => vec![(0, full)],
        MatchKind::Exact(v) => vec![(v as u128, v as u128 + 1)],
        MatchKind::Prefix { value, len } => {
            let len = len.min(w);
            let lo = top_bits(value, w, len) as u128;
            let span = 1u128 << (w - len);
            vec![(lo, lo + span)]
        }
        MatchKind::Range { lo, hi } => vec![(lo as u128, hi as u128 + 1)],
        MatchKind::Suffix { value, len } => {
            let len = len.min(w);
            let s = (value & max_val(len)) as u128;
            let step = 1u128 << len;
            (0..(1u128 << (w - len)))
                .map(|k| {
                    let lo = k * step + s;
                    (lo, lo + 1)
                })
                .collect()
        }
        MatchKind::Ternary { value, mask } => {
            // Enumerate assignments of the wildcarded bits above the lowest
            // constrained run; each produces a contiguous interval across
            // the trailing wildcard bits.
            let mask = mask & max_val(w);
            let value = value & mask;
            if mask == 0 {
                return vec![(0, full)];
            }
            let trailing = mask.trailing_zeros().min(w);
            let span = 1u128 << trailing;
            // Free bit positions above `trailing`.
            let free: Vec<u32> = (trailing..w).filter(|b| (mask >> b) & 1 == 0).collect();
            let mut out = Vec::with_capacity(1 << free.len());
            for combo in 0u64..(1u64 << free.len()) {
                let mut v = value;
                for (i, &b) in free.iter().enumerate() {
                    if (combo >> i) & 1 == 1 {
                        v |= 1 << b;
                    }
                }
                let lo = (v >> trailing << trailing) as u128;
                out.push((lo, lo + span));
            }
            out.sort_unstable();
            out
        }
    }
}

/// A forwarding rule: `⟨match, priority, action⟩`.
///
/// With the interned match handle this is a packed 16-byte `Copy` value
/// (`u32` match id + `i64` priority + `u32` action id); a [`crate::Fib`]
/// stores its rules as one contiguous `Vec<Rule>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Rule {
    pub mat: Match,
    pub priority: i64,
    pub action: ActionId,
}

// The packed layout is a load-bearing part of the scale story: a million
// rules are 16 MB of contiguous FIB storage.
const _: () = assert!(std::mem::size_of::<Rule>() == 16);

impl Rule {
    pub fn new(mat: Match, priority: i64, action: ActionId) -> Self {
        Rule {
            mat,
            priority,
            action,
        }
    }
}

/// Insert or delete — the two native rule-update operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RuleOp {
    Insert,
    Delete,
}

/// One native rule update for one device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RuleUpdate {
    pub op: RuleOp,
    pub rule: Rule,
}

impl RuleUpdate {
    pub fn insert(rule: Rule) -> Self {
        RuleUpdate {
            op: RuleOp::Insert,
            rule,
        }
    }

    pub fn delete(rule: Rule) -> Self {
        RuleUpdate {
            op: RuleOp::Delete,
            rule,
        }
    }
}

/// A block of native updates destined for a single device (the unit Fast
/// IMT's Algorithm 1 consumes).
pub type UpdateBlock = Vec<RuleUpdate>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::HeaderLayout;
    use flash_bdd::Bdd;

    fn layout2() -> HeaderLayout {
        HeaderLayout::new(&[("dst", 8), ("src", 8)])
    }

    #[test]
    fn match_any_is_true() {
        let l = layout2();
        let mut bdd = Bdd::new(l.total_bits());
        let m = Match::any(&l);
        assert!(m.is_any());
        assert_eq!(m.to_bdd(&l, &mut bdd), flash_bdd::TRUE);
    }

    #[test]
    fn match_to_bdd_conjunction() {
        let l = layout2();
        let mut bdd = Bdd::new(l.total_bits());
        let m = Match::any(&l)
            .with(FieldId(0), MatchKind::Prefix { value: 0xA0, len: 4 })
            .with(FieldId(1), MatchKind::Exact(0x7));
        let p = m.to_bdd(&l, &mut bdd);
        assert_eq!(bdd.sat_count(p), 16.0); // 2^(8-4) dst values × 1 src
    }

    #[test]
    fn prefix_interval_single() {
        let l = layout2();
        let m = Match::dst_prefix(&l, 0xA0, 4);
        let ivs = m.to_intervals(&l, 1 << 20).unwrap();
        assert_eq!(ivs, vec![(0xA000, 0xB000)]);
    }

    #[test]
    fn src_constraint_explodes_intervals() {
        let l = layout2();
        let m = Match::any(&l)
            .with(FieldId(0), MatchKind::Prefix { value: 0xA0, len: 4 })
            .with(FieldId(1), MatchKind::Prefix { value: 0x80, len: 1 });
        let ivs = m.to_intervals(&l, 1 << 20).unwrap();
        // 16 dst values × 1 interval each (src top half) = 16 intervals
        assert_eq!(ivs.len(), 16);
        let total: u128 = ivs.iter().map(|(a, b)| b - a).sum();
        assert_eq!(total, 16 * 128);
    }

    #[test]
    fn suffix_match_intervals() {
        let l = HeaderLayout::new(&[("dst", 8)]);
        let m = Match::any(&l).with(FieldId(0), MatchKind::Suffix { value: 0x3, len: 2 });
        let ivs = m.to_intervals(&l, 1 << 20).unwrap();
        assert_eq!(ivs.len(), 64); // every 4th value
        assert_eq!(ivs[0], (3, 4));
        assert_eq!(ivs[1], (7, 8));
    }

    #[test]
    fn interval_cap_returns_none() {
        let l = HeaderLayout::new(&[("dst", 16)]);
        let m = Match::any(&l).with(FieldId(0), MatchKind::Suffix { value: 1, len: 1 });
        assert!(m.to_intervals(&l, 100).is_none());
        assert!(m.to_intervals(&l, 1 << 20).is_some());
    }

    #[test]
    fn intervals_agree_with_bdd_satcount() {
        let l = layout2();
        let cases = vec![
            Match::dst_prefix(&l, 0x10, 3),
            Match::any(&l).with(FieldId(1), MatchKind::Range { lo: 5, hi: 200 }),
            Match::any(&l)
                .with(FieldId(0), MatchKind::Ternary { value: 0b1010_0000, mask: 0b1110_0001 }),
            Match::any(&l)
                .with(FieldId(0), MatchKind::Suffix { value: 0x5, len: 3 })
                .with(FieldId(1), MatchKind::Exact(9)),
        ];
        for m in cases {
            let mut bdd = Bdd::new(l.total_bits());
            let p = m.to_bdd(&l, &mut bdd);
            let ivs = m.to_intervals(&l, 1 << 22).unwrap();
            let total: u128 = ivs.iter().map(|(a, b)| b - a).sum();
            assert_eq!(total as f64, bdd.sat_count(p), "mismatch for {m:?}");
            // intervals are disjoint & sorted
            for w in ivs.windows(2) {
                assert!(w[0].1 <= w[1].0);
            }
        }
    }

    #[test]
    fn may_overlap_prefix_cases() {
        let l = HeaderLayout::new(&[("dst", 8)]);
        let a = Match::dst_prefix(&l, 0b1010_0000, 4);
        let b = Match::dst_prefix(&l, 0b1010_1000, 5);
        let c = Match::dst_prefix(&l, 0b0101_0000, 4);
        assert!(a.may_overlap(&b, &l));
        assert!(!a.may_overlap(&c, &l));
        assert!(a.may_overlap(&Match::any(&l), &l));
    }

    #[test]
    fn dst_prefix_is_any_with_a_field0_prefix() {
        for specs in [&[("dst", 8)][..], &[("dst", 8), ("src", 8)]] {
            let l = HeaderLayout::new(specs);
            let n = specs.len();
            for (value, len) in [(0xA0, 4), (0, 0), (0xFF, 8)] {
                let want = Match::any(&l).with(FieldId(0), MatchKind::Prefix { value, len });
                let got = Match::dst_prefix(&l, value, len);
                assert_eq!(got.id(), want.id(), "{n} fields, {value:x}/{len}");
                assert_eq!(got.kinds().len(), n);
            }
        }
    }

    #[test]
    fn may_overlap_ternary_disagreement() {
        let k1 = MatchKind::Ternary { value: 0b10, mask: 0b10 };
        let k2 = MatchKind::Ternary { value: 0b00, mask: 0b10 };
        let k3 = MatchKind::Ternary { value: 0b01, mask: 0b01 };
        assert!(!k1.may_overlap(&k2, 8));
        assert!(k1.may_overlap(&k3, 8));
    }
}
