//! On-disk dataset round trip: a fat tree generated straight to the
//! HeTu-style directory layout, loaded back through the streaming
//! loader and verified, must decide exactly what the in-memory
//! generator + verifier decide — same verdicts, same class count, same
//! decoded per-class forwarding behaviour. Action and device ids are
//! *not* required to agree across the boundary (the loader re-interns
//! both), so behaviours are compared by device/next-hop *names*.

use flash_core::adapter::parse_network;
use flash_core::{Property, PropertyReport, SubspaceVerifier, SubspaceVerifierConfig};
use flash_imt::SubspaceSpec;
use flash_netmodel::{ActionTable, DeviceId, HeaderLayout, Rule, RuleUpdate, Topology};
use flash_workloads::dataset;
use flash_workloads::{fat_tree, fibgen};
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flash-roundtrip-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Decoded, name-based behaviour of every equivalence class: for each
/// class the sorted list of `(device name, sorted next-hop names)`.
/// Stable across re-interned action/device ids.
fn behaviours(
    verifier: &mut SubspaceVerifier,
    topo: &Topology,
    actions: &ActionTable,
) -> Vec<Vec<(String, Vec<String>)>> {
    let (_, pat, model) = verifier.manager_mut().parts_mut();
    let mut out: Vec<Vec<(String, Vec<String>)>> = model
        .entries()
        .iter()
        .map(|e| {
            let mut v: Vec<(String, Vec<String>)> = pat
                .entries(e.vector)
                .iter()
                .map(|(d, a)| {
                    let mut hops: Vec<String> = actions
                        .next_hops(*a)
                        .iter()
                        .map(|h| topo.name(*h).to_string())
                        .collect();
                    hops.sort();
                    (topo.name(*d).to_string(), hops)
                })
                .collect();
            v.sort();
            v
        })
        .collect();
    out.sort();
    out
}

/// A whole-space verifier of loop freedom.
fn new_verifier(
    topo: &Arc<Topology>,
    actions: &Arc<ActionTable>,
    layout: &HeaderLayout,
) -> SubspaceVerifier {
    SubspaceVerifier::new(SubspaceVerifierConfig {
        topo: topo.clone(),
        actions: actions.clone(),
        layout: layout.clone(),
        subspace: SubspaceSpec::whole(),
        bst: usize::MAX,
        properties: vec![Property::LoopFreedom],
    })
}

fn verify_stream(
    topo: &Arc<Topology>,
    actions: &Arc<ActionTable>,
    layout: &HeaderLayout,
    blocks: impl IntoIterator<Item = (DeviceId, Vec<Rule>)>,
) -> (SubspaceVerifier, Vec<PropertyReport>) {
    let mut v = new_verifier(topo, actions, layout);
    let mut reports = Vec::new();
    for (dev, rules) in blocks {
        let updates = rules.into_iter().map(RuleUpdate::insert).collect();
        reports.extend(v.ingest_synchronized(dev, updates));
    }
    (v, reports)
}

#[test]
fn generated_dataset_verifies_like_in_memory() {
    let (k, host_bits, ppt) = (4u32, 8u32, 4u32);

    // In-memory path: generator straight into the verifier.
    let ft = fat_tree(k, host_bits);
    let fibs = fibgen::generate(&ft, fibgen::FibDiscipline::Apsp, ppt);
    let mem_actions = Arc::new(fibs.actions.clone());
    let (mut mem_v, mem_reports) = verify_stream(
        &ft.topo,
        &mem_actions,
        &fibs.layout,
        fibs.fibs.iter().map(|f| (f.device, f.rules.clone())),
    );

    // On-disk path: generate → load header → two-pass stream.
    let dir = tmpdir("verify");
    dataset::generate_fat_tree_dataset(&dir, k, host_bits, ppt).expect("generate");
    let header = dataset::load_header(&dir).expect("load header");
    let mut loaded_actions = ActionTable::new();
    header
        .stream_routes(&mut loaded_actions, |_, _| Ok(()))
        .expect("pass 1");
    let loaded_actions = Arc::new(loaded_actions);
    let mut blocks = Vec::new();
    let mut pass2 = ActionTable::new();
    header
        .stream_routes(&mut pass2, |dev, rules| {
            blocks.push((dev, rules));
            Ok(())
        })
        .expect("pass 2");
    let (mut disk_v, disk_reports) =
        verify_stream(&header.topo, &loaded_actions, &header.layout, blocks);
    let _ = std::fs::remove_dir_all(&dir);

    // A correct StdFIB fat tree is loop free on both paths.
    assert_eq!(mem_reports, vec![PropertyReport::LoopFreedomHolds]);
    assert_eq!(disk_reports, vec![PropertyReport::LoopFreedomHolds]);
    assert_eq!(
        mem_v.manager().model().len(),
        disk_v.manager().model().len(),
        "class counts diverge across the dataset boundary"
    );
    assert_eq!(
        behaviours(&mut mem_v, &ft.topo, &mem_actions),
        behaviours(&mut disk_v, &header.topo, &loaded_actions),
        "per-class forwarding behaviour diverges across the dataset boundary"
    );
}

/// Seals `blocks` through the bulk-load path.
fn bulk_seal(
    topo: &Arc<Topology>,
    actions: &Arc<ActionTable>,
    layout: &HeaderLayout,
    blocks: &[(DeviceId, Vec<Rule>)],
) -> (SubspaceVerifier, Vec<PropertyReport>) {
    let mut v = new_verifier(topo, actions, layout);
    let mut synced = Vec::new();
    for (dev, rules) in blocks {
        v.ingest_bulk(*dev, rules.iter().copied().map(RuleUpdate::insert).collect());
        synced.push(*dev);
    }
    synced.sort_unstable();
    synced.dedup();
    let reports = v.seal_bulk(&synced);
    (v, reports)
}

#[test]
fn export_reload_preserves_verification() {
    // Two data planes held in memory, exported and reloaded through the
    // parallel reader: a generated fat tree, and the paper's Figure 2 as
    // a `.network` file. Large inputs come in the dataset layout, so a
    // parsed file must verify the same there (its `require` lines have
    // no place in the layout and stay behind).
    let ft = fat_tree(4, 8);
    let fibs = fibgen::generate(&ft, fibgen::FibDiscipline::Apsp, 2);
    let net = parse_network(include_str!("../examples/figure2.net")).expect("parse");
    let planes = [
        (
            "export",
            ft.topo.clone(),
            fibs.layout.clone(),
            Arc::new(fibs.actions.clone()),
            ft.tors.iter().flatten().copied().collect(),
            fibs.fibs.iter().map(|f| (f.device, f.rules.clone())).collect(),
        ),
        ("network", net.topo, net.layout, net.actions, Vec::new(), net.fibs),
    ];
    for (tag, topo, layout, actions, edge, blocks) in planes {
        let (mut mem_v, mem_reports) = bulk_seal(&topo, &actions, &layout, &blocks);
        let dir = tmpdir(tag);
        dataset::export_dataset(
            &dir,
            &topo,
            &layout,
            &actions,
            &edge,
            blocks.iter().map(|(dev, rules)| (*dev, rules.as_slice())),
        )
        .expect("export");

        let header = dataset::load_header(&dir).expect("load header");
        assert_eq!(header.edge_devices.len(), edge.len());
        let mut loaded_actions = ActionTable::new();
        header
            .stream_routes(&mut loaded_actions, |_, _| Ok(()))
            .expect("pass 1");
        let loaded_actions = Arc::new(loaded_actions);
        let mut disk_v = new_verifier(&header.topo, &loaded_actions, &header.layout);
        header
            .stream_routes_parallel(
                &loaded_actions,
                2,
                |_, rules| rules.into_iter().map(RuleUpdate::insert).collect::<Vec<_>>(),
                |dev, updates| {
                    disk_v.ingest_bulk(dev, updates);
                    Ok(())
                },
            )
            .expect("pass 2");
        let disk_reports = disk_v.seal_bulk(&header.route_devices);
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(mem_reports, vec![PropertyReport::LoopFreedomHolds], "{tag}");
        assert_eq!(disk_reports, mem_reports, "{tag}");
        assert_eq!(
            mem_v.manager().model().len(),
            disk_v.manager().model().len(),
            "{tag}: class counts diverge across the dataset boundary"
        );
        assert_eq!(
            behaviours(&mut mem_v, &topo, &actions),
            behaviours(&mut disk_v, &header.topo, &loaded_actions),
            "{tag}: per-class forwarding behaviour diverges across the dataset boundary"
        );
    }
}
