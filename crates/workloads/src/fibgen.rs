//! FIB generation: the three LNet disciplines plus trace-style FIBs.
//!
//! * `apsp` — *StdFIB*: shortest path from each switch to every ToR's
//!   host prefixes (Table 2, LNet-apsp). Prefix-only destination matches.
//! * `ecmp` — *StdFIB\**: StdFIB with source-match ECMP — rules
//!   additionally match a source-pod prefix and forward to the full set
//!   of equal-cost next hops (LNet-ecmp). Two-field matches.
//! * `smr` — StdFIB* with *suffix-match routing* on the destination's
//!   host bits (LNet-smr). Non-prefix matches: the case that degrades
//!   interval-based representations.
//! * `trace` — random-prefix FIBs of a given scale standing in for the
//!   Airtel/Stanford/Internet2 datasets.

use crate::fabric::FatTree;
use flash_netmodel::{
    ActionTable, DeviceId, FieldId, HeaderLayout, Match, MatchKind, Rule, Topology,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Which discipline to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FibDiscipline {
    /// StdFIB: destination-prefix shortest paths, one (rotating)
    /// equal-cost next hop per sub-prefix.
    Apsp,
    /// StdFIB with full ECMP: every rule forwards to the complete set of
    /// equal-cost next hops (the realistic Clos-fabric configuration;
    /// used by the Figure 12 reachability workload, where it gives the
    /// model-traversal baseline its full `O(|V|·(|V|+|E|))` cost).
    ApspEcmp,
    /// StdFIB* with source-match ECMP (`src_blocks` source groups).
    Ecmp { src_blocks: u32 },
    /// Suffix-match routing on the low `suffix_bits` of the destination.
    Smr { suffix_bits: u32 },
}

/// One device's generated rules.
#[derive(Clone, Debug)]
pub struct DeviceFib {
    pub device: DeviceId,
    pub rules: Vec<Rule>,
}

/// A complete generated data plane.
#[derive(Clone, Debug)]
pub struct GeneratedFibs {
    pub layout: HeaderLayout,
    pub actions: ActionTable,
    pub fibs: Vec<DeviceFib>,
}

impl GeneratedFibs {
    pub fn total_rules(&self) -> usize {
        self.fibs.iter().map(|f| f.rules.len()).sum()
    }
}

/// BFS distances to `dst` over links believed up (all of them here).
fn distances(topo: &Topology, dst: DeviceId) -> Vec<u32> {
    let mut dist = vec![u32::MAX; topo.device_count()];
    dist[dst.index()] = 0;
    let mut q = std::collections::VecDeque::new();
    q.push_back(dst);
    while let Some(u) = q.pop_front() {
        for &v in topo.predecessors(u) {
            if dist[v.index()] == u32::MAX {
                dist[v.index()] = dist[u.index()] + 1;
                q.push_back(v);
            }
        }
    }
    dist
}

/// Equal-cost next hops of `src` toward a node with distance table `dist`.
fn next_hops(topo: &Topology, src: DeviceId, dist: &[u32]) -> Vec<DeviceId> {
    if dist[src.index()] == u32::MAX || dist[src.index()] == 0 {
        return Vec::new();
    }
    topo.successors(src)
        .iter()
        .copied()
        .filter(|&n| dist[n.index()] != u32::MAX && dist[n.index()] + 1 == dist[src.index()])
        .collect()
}

/// Generates the LNet-style FIBs over a fat tree.
///
/// `prefixes_per_tor` splits every ToR block into that many host
/// sub-prefixes, scaling `|R|` linearly (the paper's `P` in Figure 15).
pub fn generate(ft: &FatTree, discipline: FibDiscipline, prefixes_per_tor: u32) -> GeneratedFibs {
    let src_bits = match discipline {
        FibDiscipline::Ecmp { src_blocks } => {
            32 - (src_blocks.max(2) - 1).leading_zeros()
        }
        _ => 0,
    };
    let layout = if src_bits > 0 {
        HeaderLayout::new(&[("dst", ft.dst_bits), ("src", src_bits)])
    } else {
        HeaderLayout::new(&[("dst", ft.dst_bits)])
    };
    let mut actions = ActionTable::new();
    let topo = &ft.topo;

    // Sub-prefix table: (owner, value, len) × prefixes_per_tor. One
    // sub-prefix per ToR is the whole ToR block (zero extra bits).
    let sub_bits = 32 - (prefixes_per_tor.max(1) - 1).leading_zeros();
    let mut prefixes: Vec<(DeviceId, u64, u32)> = Vec::new();
    for &(tor, value, len) in &ft.tor_prefix {
        let host_bits = ft.dst_bits - len;
        assert!(sub_bits <= host_bits, "prefixes_per_tor too large");
        for s in 0..prefixes_per_tor as u64 {
            prefixes.push((
                tor,
                value | (s << (host_bits - sub_bits)),
                len + sub_bits,
            ));
        }
    }

    let mut fibs: Vec<DeviceFib> = topo
        .devices()
        .map(|d| DeviceFib {
            device: d,
            rules: Vec::new(),
        })
        .collect();

    // Per-destination-ToR BFS, reused for all its sub-prefixes.
    for &(tor, base_value, base_len) in &ft.tor_prefix {
        let dist = distances(topo, tor);
        for (sub_idx, &(owner, value, len)) in prefixes
            .iter()
            .enumerate()
            .filter(|(_, (o, _, _))| *o == tor)
        {
            let _ = (base_value, base_len, owner);
            for dev in topo.devices() {
                if dev == tor {
                    continue;
                }
                let hops = next_hops(topo, dev, &dist);
                if hops.is_empty() {
                    continue;
                }
                match discipline {
                    FibDiscipline::Apsp => {
                        // Rotate across equal-cost hops by sub-prefix, the
                        // per-flow spreading real fabrics use; this is what
                        // makes distinct sub-prefixes distinct equivalence
                        // classes (still a shortest path either way).
                        let act = actions.fwd(hops[sub_idx % hops.len()]);
                        fibs[dev.index()].rules.push(Rule::new(
                            Match::dst_prefix(&layout, value, len),
                            len as i64,
                            act,
                        ));
                    }
                    FibDiscipline::ApspEcmp => {
                        let act = actions.ecmp(hops.clone());
                        fibs[dev.index()].rules.push(Rule::new(
                            Match::dst_prefix(&layout, value, len),
                            len as i64,
                            act,
                        ));
                    }
                    FibDiscipline::Ecmp { src_blocks } => {
                        // One rule per source block. Block 0 uses the full
                        // equal-cost set; other blocks drop one rotating
                        // member, so different source blocks genuinely
                        // take different ECMP groups.
                        for sb in 0..src_blocks {
                            let subset: Vec<DeviceId> = if sb == 0 || hops.len() == 1 {
                                hops.clone()
                            } else {
                                let skip = (sb as usize - 1) % hops.len();
                                hops.iter()
                                    .enumerate()
                                    .filter(|(i, _)| *i != skip)
                                    .map(|(_, &h)| h)
                                    .collect()
                            };
                            let act = actions.ecmp(subset);
                            // The source field is exactly sb_bits wide, so
                            // the block id is an exact (full-length) prefix.
                            let m = Match::dst_prefix(&layout, value, len).with(
                                FieldId(1),
                                MatchKind::Prefix {
                                    value: sb as u64,
                                    len: src_bits,
                                },
                            );
                            fibs[dev.index()].rules.push(Rule::new(
                                m,
                                len as i64,
                                act,
                            ));
                        }
                    }
                    FibDiscipline::Smr { suffix_bits } => {
                        // The destination prefix selects the rack; within
                        // it, traffic is spread by server suffix: one rule
                        // per suffix class, alternating among ECMP hops.
                        let classes = 1u64 << suffix_bits.min(3);
                        for s in 0..classes {
                            let act = actions.fwd(hops[(s as usize) % hops.len()]);
                            let m = Match::any(&layout)
                                .with(
                                    FieldId(0),
                                    MatchKind::Ternary {
                                        // rack prefix bits AND server-suffix bits
                                        value: value | s,
                                        mask: prefix_mask(ft.dst_bits, len)
                                            | suffix_mask(suffix_bits.min(3)),
                                    },
                                );
                            fibs[dev.index()].rules.push(Rule::new(
                                m,
                                (len + suffix_bits.min(3)) as i64,
                                act,
                            ));
                        }
                    }
                }
            }
        }
    }

    GeneratedFibs {
        layout,
        actions,
        fibs,
    }
}

/// Streaming StdFIB (`apsp`) generation: produces each device's rules and
/// hands them to `sink` one device at a time, so a hyper-scale fabric
/// (k=16: hundreds of devices, millions of rules) never materializes the
/// whole data plane. Per-ToR BFS distance tables are computed once up
/// front — `O(tors × devices)` ints — and every device's FIB is then a
/// pure function of those tables.
///
/// Rule order per device matches [`generate`] with `FibDiscipline::Apsp`
/// (tor-major, sub-prefix-minor); action *ids* may differ because the
/// interning order differs, but the denoted next hops are identical.
pub fn apsp_stream<E, F>(
    ft: &FatTree,
    prefixes_per_tor: u32,
    actions: &mut ActionTable,
    mut sink: F,
) -> Result<(HeaderLayout, usize), E>
where
    F: FnMut(&ActionTable, DeviceId, Vec<Rule>) -> Result<(), E>,
{
    let layout = HeaderLayout::new(&[("dst", ft.dst_bits)]);
    let topo = &ft.topo;
    let sub_bits = 32 - (prefixes_per_tor.max(1) - 1).leading_zeros();
    let dists: Vec<Vec<u32>> = ft
        .tor_prefix
        .iter()
        .map(|&(tor, _, _)| distances(topo, tor))
        .collect();
    let mut total = 0usize;
    for dev in topo.devices() {
        let mut rules = Vec::new();
        for (ti, &(tor, value, len)) in ft.tor_prefix.iter().enumerate() {
            if dev == tor {
                continue;
            }
            let hops = next_hops(topo, dev, &dists[ti]);
            if hops.is_empty() {
                continue;
            }
            let host_bits = ft.dst_bits - len;
            assert!(sub_bits <= host_bits, "prefixes_per_tor too large");
            for s in 0..prefixes_per_tor as u64 {
                // Global sub-prefix index, as in `generate`: rotation across
                // equal-cost hops keeps sub-prefixes in distinct classes.
                let sub_idx = ti * prefixes_per_tor as usize + s as usize;
                let act = actions.fwd(hops[sub_idx % hops.len()]);
                rules.push(Rule::new(
                    Match::dst_prefix(
                        &layout,
                        value | (s << (host_bits - sub_bits)),
                        len + sub_bits,
                    ),
                    (len + sub_bits) as i64,
                    act,
                ));
            }
        }
        total += rules.len();
        // The sink sees the table read-only (e.g. to render action names
        // while exporting); interning resumes on the next device.
        sink(actions, dev, rules)?;
    }
    Ok((layout, total))
}

fn prefix_mask(width: u32, len: u32) -> u64 {
    if len == 0 {
        0
    } else {
        ((1u64 << len) - 1) << (width - len)
    }
}

fn suffix_mask(len: u32) -> u64 {
    if len == 0 {
        0
    } else {
        (1u64 << len) - 1
    }
}

/// Trace-style FIBs: `rules_per_device` random prefixes per device over a
/// `dst_bits`-wide space, standing in for the Airtel/Stanford/Internet2
/// datasets of Table 2. Prefix lengths are skewed toward /16–/24-style
/// values scaled to the field width, matching BGP-derived tables.
pub fn trace_fibs(
    topo: &Arc<Topology>,
    dst_bits: u32,
    rules_per_device: usize,
    seed: u64,
) -> GeneratedFibs {
    let layout = HeaderLayout::new(&[("dst", dst_bits)]);
    let mut actions = ActionTable::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fibs = Vec::new();
    for dev in topo.devices() {
        let mut rules = Vec::new();
        let neighbors: Vec<DeviceId> = topo.successors(dev).to_vec();
        if neighbors.is_empty() {
            fibs.push(DeviceFib { device: dev, rules });
            continue;
        }
        for _ in 0..rules_per_device {
            // Skew: mostly mid-length prefixes, occasional short/long.
            let len = match rng.gen_range(0..10) {
                0 => rng.gen_range(1..=dst_bits / 4),
                1..=7 => rng.gen_range(dst_bits / 2..=dst_bits * 3 / 4),
                _ => rng.gen_range(dst_bits * 3 / 4..=dst_bits),
            }
            .max(1);
            let value = (rng.gen::<u64>() >> (64 - len)) << (dst_bits - len);
            let nh = neighbors[rng.gen_range(0..neighbors.len())];
            let act = actions.fwd(nh);
            rules.push(Rule::new(
                Match::dst_prefix(&layout, value, len),
                len as i64,
                act,
            ));
        }
        // Deduplicate identical (match, priority) pairs.
        rules.sort_by(flash_netmodel::fib::rule_cmp);
        rules.dedup_by(|a, b| a.mat == b.mat && a.priority == b.priority);
        fibs.push(DeviceFib { device: dev, rules });
    }
    GeneratedFibs {
        layout,
        actions,
        fibs,
    }
}

/// A random connected mesh topology with `n` nodes and average degree
/// `avg_degree` — used for the Airtel (68-node) and Stanford (16-node)
/// stand-ins.
pub fn random_mesh(n: u32, avg_degree: u32, seed: u64) -> Arc<Topology> {
    let mut topo = Topology::new();
    let ids: Vec<DeviceId> = (0..n).map(|i| topo.add_device(format!("n{i}"))).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    // Spanning chain for connectivity…
    for w in ids.windows(2) {
        topo.add_bilink(w[0], w[1]);
    }
    // …plus random chords up to the target degree.
    let extra = (n as usize * avg_degree as usize / 2).saturating_sub(n as usize - 1);
    for _ in 0..extra {
        let a = ids[rng.gen_range(0..n as usize)];
        let b = ids[rng.gen_range(0..n as usize)];
        if a != b {
            topo.add_bilink(a, b);
        }
    }
    Arc::new(topo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::fat_tree;

    #[test]
    fn apsp_generates_full_coverage() {
        let ft = fat_tree(4, 8);
        let g = generate(&ft, FibDiscipline::Apsp, 1);
        // Every device except the owner gets one rule per prefix:
        // 8 prefixes × (20-1) devices = 152 rules.
        assert_eq!(g.total_rules(), 8 * 19);
        assert_eq!(g.layout.field_count(), 1);
    }

    #[test]
    fn prefixes_per_tor_scales_rules() {
        let ft = fat_tree(4, 8);
        let g1 = generate(&ft, FibDiscipline::Apsp, 1);
        let g4 = generate(&ft, FibDiscipline::Apsp, 4);
        assert_eq!(g4.total_rules(), 4 * g1.total_rules());
    }

    #[test]
    fn sub_prefixes_tile_each_tor_block() {
        let ft = fat_tree(4, 8);
        let width = ft.dst_bits;
        for n in [1, 2, 4] {
            let g = generate(&ft, FibDiscipline::Apsp, n);
            // Every device holds every sub-prefix of every other ToR.
            let fib = &g.fibs[0];
            for &(tor, value, len) in &ft.tor_prefix {
                if tor == fib.device {
                    continue;
                }
                let mut subs: Vec<(u64, u64)> = fib
                    .rules
                    .iter()
                    .filter_map(|r| match *r.mat.kind(FieldId(0)) {
                        MatchKind::Prefix { value: v, len: l }
                            if l >= len && v >> (width - len) == value >> (width - len) =>
                        {
                            Some((v, 1u64 << (width - l)))
                        }
                        _ => None,
                    })
                    .collect();
                subs.sort_unstable();
                // Disjoint and gap-free from the block's first address
                // to its last.
                let mut next = value;
                for (v, size) in subs {
                    assert_eq!(v, next, "n={n}: gap or overlap in {tor:?}'s block");
                    next = v + size;
                }
                assert_eq!(
                    next,
                    value + (1u64 << (width - len)),
                    "n={n}: {tor:?}'s block"
                );
            }
        }
    }

    #[test]
    fn ecmp_has_multifield_rules_and_ecmp_actions() {
        let ft = fat_tree(4, 8);
        let g = generate(&ft, FibDiscipline::Ecmp { src_blocks: 4 }, 1);
        assert_eq!(g.layout.field_count(), 2);
        assert_eq!(g.total_rules(), 4 * 8 * 19);
        // At least one action must be a true multi-hop ECMP set.
        let has_ecmp = g.fibs.iter().flat_map(|f| &f.rules).any(|r| {
            g.actions.next_hops(r.action).len() > 1
        });
        assert!(has_ecmp);
    }

    #[test]
    fn smr_uses_ternary_matches() {
        let ft = fat_tree(4, 8);
        let g = generate(&ft, FibDiscipline::Smr { suffix_bits: 2 }, 1);
        let ternary = g
            .fibs
            .iter()
            .flat_map(|f| &f.rules)
            .filter(|r| matches!(r.mat.kind(FieldId(0)), MatchKind::Ternary { .. }))
            .count();
        assert!(ternary > 0);
        assert_eq!(g.total_rules(), 4 * 8 * 19);
    }

    #[test]
    fn apsp_routes_are_shortest_paths() {
        // Oracle: following apsp rules from any switch reaches the ToR in
        // dist hops.
        let ft = fat_tree(4, 8);
        let g = generate(&ft, FibDiscipline::Apsp, 1);
        let (tor, value, _len) = ft.tor_prefix[0];
        let dist = distances(&ft.topo, tor);
        for fib in &g.fibs {
            if fib.device == tor {
                continue;
            }
            let rule = fib
                .rules
                .iter()
                .find(|r| matches!(r.mat.kind(FieldId(0)), MatchKind::Prefix { value: v, .. } if *v == value))
                .expect("rule for prefix 0");
            let nh = g.actions.next_hops(rule.action)[0];
            assert_eq!(
                dist[nh.index()] + 1,
                dist[fib.device.index()],
                "next hop decreases distance"
            );
        }
    }

    #[test]
    fn apsp_stream_matches_batch() {
        let ft = fat_tree(4, 8);
        let g = generate(&ft, FibDiscipline::Apsp, 4);
        let mut actions = ActionTable::new();
        let mut streamed: Vec<(DeviceId, Vec<Rule>)> = Vec::new();
        let (layout, total) = apsp_stream::<std::convert::Infallible, _>(
            &ft,
            4,
            &mut actions,
            |_, d, r| {
                streamed.push((d, r));
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(total, g.total_rules());
        assert_eq!(layout.total_bits(), g.layout.total_bits());
        assert_eq!(streamed.len(), g.fibs.len());
        for (got, want) in streamed.iter().zip(&g.fibs) {
            assert_eq!(got.0, want.device);
            assert_eq!(got.1.len(), want.rules.len());
            for (a, b) in got.1.iter().zip(&want.rules) {
                assert_eq!(a.mat, b.mat);
                assert_eq!(a.priority, b.priority);
                // Interning order differs, so compare denoted hops not ids.
                assert_eq!(actions.next_hops(a.action), g.actions.next_hops(b.action));
            }
        }
    }

    #[test]
    fn trace_fibs_deterministic_and_bounded() {
        let topo = random_mesh(16, 4, 99);
        let a = trace_fibs(&topo, 16, 50, 7);
        let b = trace_fibs(&topo, 16, 50, 7);
        assert_eq!(a.total_rules(), b.total_rules());
        assert!(a.total_rules() <= 16 * 50);
        assert!(a.total_rules() > 16 * 30, "dedup should not eat most rules");
    }

    #[test]
    fn random_mesh_connected() {
        let topo = random_mesh(68, 8, 1);
        assert_eq!(topo.device_count(), 68);
        // BFS from node 0 reaches everyone.
        let start = topo.lookup("n0").unwrap();
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![start];
        while let Some(u) = stack.pop() {
            if seen.insert(u) {
                stack.extend(topo.successors(u).iter().copied());
            }
        }
        assert_eq!(seen.len(), 68);
    }
}
