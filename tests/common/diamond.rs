//! The diamond fixture that `shard_equivalence.rs` and `recovery.rs`
//! share: a four-device network, a five-block stream that adds a 2-cycle
//! and a 3-cycle, and the sequential whole-space reference the pool is
//! held to. Each suite includes it with `#[path]`.

#![allow(dead_code)] // each suite reads a different part of the reference

use flash_core::{Property, PropertyReport, SubspaceVerifier, SubspaceVerifierConfig};
use flash_imt::SubspaceSpec;
use flash_netmodel::{ActionTable, DeviceId, HeaderLayout, Match, Rule, RuleUpdate, Topology};
use std::collections::HashSet;
use std::sync::Arc;

pub struct Net {
    pub topo: Arc<Topology>,
    pub devs: Vec<DeviceId>,
    pub actions: Arc<ActionTable>,
    pub fwd: Vec<flash_netmodel::ActionId>,
    pub layout: HeaderLayout,
}

/// A diamond with a chord: a-b, b-c, c-d, d-a, a-c.
pub fn diamond() -> Net {
    let mut t = Topology::new();
    let a = t.add_device("a");
    let b = t.add_device("b");
    let c = t.add_device("c");
    let d = t.add_device("d");
    t.add_bilink(a, b);
    t.add_bilink(b, c);
    t.add_bilink(c, d);
    t.add_bilink(d, a);
    t.add_bilink(a, c);
    let layout = HeaderLayout::new(&[("dst", 8)]);
    let mut at = ActionTable::new();
    let fwd = [a, b, c, d].iter().map(|&x| at.fwd(x)).collect();
    Net {
        topo: Arc::new(t),
        devs: vec![a, b, c, d],
        actions: Arc::new(at),
        fwd,
        layout,
    }
}

/// A deterministic multi-block stream: block 0 is a loop-free chain
/// synchronizing every device, later blocks churn priorities and
/// introduce a 2-cycle (block 2, second quarter of the dst space) and
/// a 3-cycle (block 4, last quarter). Loops are never removed, so the
/// cumulative per-epoch verdict set is well-defined.
pub fn loop_blocks(net: &Net) -> Vec<Vec<(DeviceId, RuleUpdate)>> {
    let l = &net.layout;
    let q = |i: u64| Match::dst_prefix(l, i << 6, 2); // quarter i
    let p = |i: u64, v: u64| Match::dst_prefix(l, (i << 6) | (v << 2), 6);
    let mut out = Vec::new();
    // Block 0: device i owns quarter i, forwarding to device i+1 (no
    // rule downstream → paths terminate). All four devices sync here.
    out.push(
        (0..4)
            .map(|i| {
                (
                    net.devs[i],
                    RuleUpdate::insert(Rule::new(q(i as u64), 2, net.fwd[(i + 1) % 4])),
                )
            })
            .collect(),
    );
    // Block 1: priority churn — more-specific rules shadowing parts of
    // the block-0 chain, still loop-free.
    out.push(vec![
        (net.devs[0], RuleUpdate::insert(Rule::new(p(0, 3), 6, net.fwd[2]))),
        (net.devs[2], RuleUpdate::insert(Rule::new(p(2, 5), 6, net.fwd[3]))),
        (net.devs[3], RuleUpdate::insert(Rule::new(p(3, 1), 6, net.fwd[0]))),
    ]);
    // Block 2: a 2-cycle a↔b on a slice of quarter 1.
    out.push(vec![
        (net.devs[0], RuleUpdate::insert(Rule::new(p(1, 7), 6, net.fwd[1]))),
        (net.devs[1], RuleUpdate::insert(Rule::new(p(1, 7), 6, net.fwd[0]))),
    ]);
    // Block 3: deletes of block-1 churn (never of loop rules) plus a
    // fresh insert.
    out.push(vec![
        (net.devs[0], RuleUpdate::delete(Rule::new(p(0, 3), 6, net.fwd[2]))),
        (net.devs[2], RuleUpdate::insert(Rule::new(p(2, 9), 6, net.fwd[1]))),
    ]);
    // Block 4: a 3-cycle b→c→d→b on a slice of quarter 3.
    out.push(vec![
        (net.devs[1], RuleUpdate::insert(Rule::new(p(3, 11), 6, net.fwd[2]))),
        (net.devs[2], RuleUpdate::insert(Rule::new(p(3, 11), 6, net.fwd[3]))),
        (net.devs[3], RuleUpdate::insert(Rule::new(p(3, 11), 6, net.fwd[1]))),
    ]);
    out
}

/// Cycle identity independent of starting point / orientation.
pub fn cycle_key(cycle: &[DeviceId]) -> Vec<u32> {
    let mut k: Vec<u32> = cycle.iter().map(|d| d.0).collect();
    k.sort_unstable();
    k
}

pub struct RefState {
    /// Cumulative distinct loop cycles after each block.
    pub cycles_by_block: Vec<HashSet<Vec<u32>>>,
    /// Whether LoopFreedomHolds was emitted by each block.
    pub holds_by_block: Vec<bool>,
    /// Distinct class fingerprints after each block.
    pub classes_by_block: Vec<HashSet<u64>>,
}

/// The sequential reference: one whole-space verifier over the same
/// stream, same flush boundaries, same detection points.
pub fn whole_space_reference(net: &Net, stream: &[Vec<(DeviceId, RuleUpdate)>]) -> RefState {
    let mut v = SubspaceVerifier::new(SubspaceVerifierConfig {
        topo: net.topo.clone(),
        actions: net.actions.clone(),
        layout: net.layout.clone(),
        subspace: SubspaceSpec::whole(),
        bst: usize::MAX,
        properties: vec![Property::LoopFreedom],
    });
    let mut cycles = HashSet::new();
    let mut holds = false;
    let mut st = RefState {
        cycles_by_block: Vec::new(),
        holds_by_block: Vec::new(),
        classes_by_block: Vec::new(),
    };
    for block in stream {
        let mut devs = Vec::new();
        for (d, u) in block {
            v.ingest(*d, vec![*u]);
            if !devs.contains(d) {
                devs.push(*d);
            }
        }
        v.flush();
        for r in v.detect(&devs) {
            match r {
                PropertyReport::LoopFound { cycle } => {
                    cycles.insert(cycle_key(&cycle));
                }
                PropertyReport::LoopFreedomHolds => holds = true,
                _ => {}
            }
        }
        st.cycles_by_block.push(cycles.clone());
        st.holds_by_block.push(holds);
        st.classes_by_block
            .push(v.manager().class_keys().into_iter().collect());
    }
    st
}
