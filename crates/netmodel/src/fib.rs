//! Per-device FIB tables, kept sorted by descending priority.
//!
//! Algorithm 1 of the paper merges a sorted update block into the sorted
//! rule list, so the FIB maintains a strict total order on rules:
//! descending priority, ties broken by a deterministic hash of the match.
//! Footnote 4 relies on a default lowest-priority wildcard rule being
//! present; [`Fib::new`] installs one (action `Drop`) and refuses to delete
//! it.

use crate::action::{ActionId, ACTION_DROP};
use crate::header::HeaderLayout;
use crate::rule::{Match, Rule, RuleOp, RuleUpdate};
use std::cmp::Ordering;

/// Errors surfaced by FIB mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FibError {
    /// A delete referenced a rule that is not in the table.
    DeleteMissing,
    /// An insert duplicated an existing rule exactly.
    DuplicateInsert,
    /// The default wildcard rule cannot be removed.
    DefaultImmutable,
}

impl std::fmt::Display for FibError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FibError::DeleteMissing => write!(f, "delete of a rule not present in the FIB"),
            FibError::DuplicateInsert => write!(f, "insert of a rule already in the FIB"),
            FibError::DefaultImmutable => write!(f, "the default wildcard rule is immutable"),
        }
    }
}

impl std::error::Error for FibError {}

/// Deterministic 64-bit hash used to totally order same-priority rules.
/// Precomputed at intern time — an O(1) table read, but still *structural*
/// (never interning-order-dependent), so the order agrees across runs and
/// processes.
pub fn match_hash(m: &Match) -> u64 {
    m.hash64()
}

/// Total order on rules: higher priority first; ties by match hash, then
/// action id, so the order is deterministic across runs.
pub fn rule_cmp(a: &Rule, b: &Rule) -> Ordering {
    b.priority
        .cmp(&a.priority)
        .then_with(|| match_hash(&a.mat).cmp(&match_hash(&b.mat)))
        .then_with(|| a.action.cmp(&b.action))
}

/// A single device's forwarding table.
#[derive(Clone, Debug)]
pub struct Fib {
    /// Rules sorted by [`rule_cmp`] (descending priority). The last rule is
    /// always the default wildcard.
    rules: Vec<Rule>,
}

impl Fib {
    /// Creates a FIB containing only the default wildcard drop rule at
    /// priority `i64::MIN`.
    pub fn new(layout: &HeaderLayout) -> Self {
        Fib {
            rules: vec![Rule::new(Match::any(layout), i64::MIN, ACTION_DROP)],
        }
    }

    /// Creates a FIB whose default action is `default_action` instead of
    /// drop (useful for gateways with a default route).
    pub fn with_default(layout: &HeaderLayout, default_action: ActionId) -> Self {
        Fib {
            rules: vec![Rule::new(Match::any(layout), i64::MIN, default_action)],
        }
    }

    /// Number of rules including the default.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    pub fn is_empty(&self) -> bool {
        false // the default rule is always present
    }

    /// Rules in descending priority order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    fn position(&self, rule: &Rule) -> Result<usize, usize> {
        self.rules.binary_search_by(|r| rule_cmp(r, rule))
    }

    /// Inserts a rule, keeping the order invariant.
    pub fn insert(&mut self, rule: Rule) -> Result<(), FibError> {
        match self.position(&rule) {
            Ok(i) if self.rules[i] == rule => Err(FibError::DuplicateInsert),
            Ok(i) | Err(i) => {
                self.rules.insert(i, rule);
                Ok(())
            }
        }
    }

    /// Deletes a rule (matched by exact equality of match+priority+action).
    pub fn delete(&mut self, rule: &Rule) -> Result<(), FibError> {
        if rule.priority == i64::MIN && rule.mat.is_any() {
            return Err(FibError::DefaultImmutable);
        }
        match self.position(rule) {
            Ok(i) if self.rules[i] == *rule => {
                self.rules.remove(i);
                Ok(())
            }
            _ => Err(FibError::DeleteMissing),
        }
    }

    /// Applies a block of native updates one by one (the slow path; Fast
    /// IMT applies blocks by merging instead — see `flash-imt`).
    pub fn apply(&mut self, updates: &[RuleUpdate]) -> Result<(), FibError> {
        for u in updates {
            match u.op {
                RuleOp::Insert => self.insert(u.rule)?,
                RuleOp::Delete => self.delete(&u.rule)?,
            }
        }
        Ok(())
    }

    /// Looks up the highest-priority rule matching a concrete header (given
    /// as a bit vector under `layout`); used by tests and the oracle
    /// checker, not by the verifier hot path.
    pub fn lookup(
        &self,
        layout: &HeaderLayout,
        bdd: &mut flash_bdd::Bdd,
        bits: &[bool],
    ) -> ActionId {
        for r in &self.rules {
            let p = r.mat.to_bdd(layout, bdd);
            if bdd.eval(p, bits) {
                return r.action;
            }
        }
        unreachable!("default rule always matches")
    }

    /// Replaces the whole rule list (used when reconstructing snapshots).
    /// The caller must guarantee `rules` is sorted by [`rule_cmp`] and ends
    /// with a default wildcard.
    pub fn from_sorted(rules: Vec<Rule>) -> Self {
        debug_assert!(rules.windows(2).all(|w| rule_cmp(&w[0], &w[1]) != Ordering::Greater));
        Fib { rules }
    }
}

/// Sorts an arbitrary rule list into FIB order (used by generators).
pub fn sort_rules(rules: &mut [Rule]) {
    rules.sort_by(rule_cmp);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionTable;
    use crate::header::HeaderLayout;
    use crate::topology::DeviceId;

    fn setup() -> (HeaderLayout, ActionTable) {
        (HeaderLayout::new(&[("dst", 8)]), ActionTable::new())
    }

    #[test]
    fn new_fib_has_default() {
        let (l, _) = setup();
        let fib = Fib::new(&l);
        assert_eq!(fib.len(), 1);
        assert_eq!(fib.rules()[0].action, ACTION_DROP);
        assert_eq!(fib.rules()[0].priority, i64::MIN);
    }

    #[test]
    fn insert_keeps_priority_order() {
        let (l, mut at) = setup();
        let a1 = at.fwd(DeviceId(1));
        let a2 = at.fwd(DeviceId(2));
        let mut fib = Fib::new(&l);
        fib.insert(Rule::new(Match::dst_prefix(&l, 0x10, 4), 1, a1)).unwrap();
        fib.insert(Rule::new(Match::dst_prefix(&l, 0x10, 6), 3, a2)).unwrap();
        fib.insert(Rule::new(Match::dst_prefix(&l, 0x20, 4), 2, a1)).unwrap();
        let prios: Vec<i64> = fib.rules().iter().map(|r| r.priority).collect();
        assert_eq!(prios, vec![3, 2, 1, i64::MIN]);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let (l, mut at) = setup();
        let a1 = at.fwd(DeviceId(1));
        let mut fib = Fib::new(&l);
        let r = Rule::new(Match::dst_prefix(&l, 0x10, 4), 1, a1);
        fib.insert(r).unwrap();
        assert_eq!(fib.insert(r), Err(FibError::DuplicateInsert));
    }

    #[test]
    fn delete_roundtrip() {
        let (l, mut at) = setup();
        let a1 = at.fwd(DeviceId(1));
        let mut fib = Fib::new(&l);
        let r = Rule::new(Match::dst_prefix(&l, 0x10, 4), 1, a1);
        fib.insert(r).unwrap();
        assert_eq!(fib.len(), 2);
        fib.delete(&r).unwrap();
        assert_eq!(fib.len(), 1);
        assert_eq!(fib.delete(&r), Err(FibError::DeleteMissing));
    }

    #[test]
    fn default_rule_immutable() {
        let (l, _) = setup();
        let mut fib = Fib::new(&l);
        let default = fib.rules()[0];
        assert_eq!(fib.delete(&default), Err(FibError::DefaultImmutable));
    }

    #[test]
    fn lookup_respects_priority() {
        let (l, mut at) = setup();
        let a1 = at.fwd(DeviceId(1));
        let a2 = at.fwd(DeviceId(2));
        let mut fib = Fib::new(&l);
        // 0x10/4 -> a1 at prio 1; 0x18/5 -> a2 at prio 2
        fib.insert(Rule::new(Match::dst_prefix(&l, 0x10, 4), 1, a1)).unwrap();
        fib.insert(Rule::new(Match::dst_prefix(&l, 0x18, 5), 2, a2)).unwrap();
        let mut bdd = flash_bdd::Bdd::new(l.total_bits());
        let bits_of = |v: u8| (0..8).map(|i| (v >> (7 - i)) & 1 == 1).collect::<Vec<_>>();
        assert_eq!(fib.lookup(&l, &mut bdd, &bits_of(0x12)), a1);
        assert_eq!(fib.lookup(&l, &mut bdd, &bits_of(0x1A)), a2);
        assert_eq!(fib.lookup(&l, &mut bdd, &bits_of(0xFF)), ACTION_DROP);
    }

    #[test]
    fn apply_block() {
        let (l, mut at) = setup();
        let a1 = at.fwd(DeviceId(1));
        let mut fib = Fib::new(&l);
        let r1 = Rule::new(Match::dst_prefix(&l, 0x10, 4), 1, a1);
        let r2 = Rule::new(Match::dst_prefix(&l, 0x20, 4), 2, a1);
        fib.apply(&[
            RuleUpdate::insert(r1),
            RuleUpdate::insert(r2),
            RuleUpdate::delete(r1),
        ])
        .unwrap();
        assert_eq!(fib.len(), 2);
        assert_eq!(fib.rules()[0], r2);
    }
}
