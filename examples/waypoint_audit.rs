//! Waypoint audit: verifying a path-regular-expression policy across a
//! fabric using the requirement specification language (Appendix B).
//!
//! Every flow from a pod-0 ToR to a pod-1 ToR prefix must traverse an
//! aggregation switch and a core switch: `[tier=tor] [tier=agg]
//! [tier=core] [tier=agg] [tier=tor]`. We install correct FIBs, verify
//! the requirement is satisfied early, then break one path and watch the
//! verifier catch the violation.
//!
//! Run with: `cargo run --release -p flash-core --example waypoint_audit`

use flash_core::{Property, PropertyReport, SubspaceVerifier, SubspaceVerifierConfig};
use flash_imt::SubspaceSpec;
use flash_netmodel::{Match, Rule, RuleUpdate, ACTION_DROP};
use flash_spec::{parse_path_expr, Requirement};
use flash_workloads::{fat_tree, fibgen};
use std::sync::Arc;

fn main() {
    let ft = fat_tree(4, 8);
    let fibs = fibgen::generate(&ft, fibgen::FibDiscipline::Apsp, 1);
    println!(
        "== k=4 fat tree, {} switches, {} rules",
        ft.switch_count(),
        fibs.total_rules()
    );

    // Target flow: pod-0 ToR 0 → pod-1 ToR 0's prefix.
    let src_tor = ft.tors[0][0];
    let (dst_tor, dst_value, dst_len) = ft.tor_prefix[2]; // pod 1, tor 0
    assert!(ft.tors[1].contains(&dst_tor));
    let packet_space = Match::dst_prefix(&fibs.layout, dst_value, dst_len);

    let expr = parse_path_expr("[tier=tor] [tier=agg] [tier=core] [tier=agg] [tier=tor]").unwrap();
    let requirement = Requirement::new(
        "tor-agg-core-agg-tor",
        packet_space,
        vec![src_tor],
        expr,
    );

    let actions = Arc::new(fibs.actions.clone());
    let mut verifier = SubspaceVerifier::new(SubspaceVerifierConfig {
        topo: ft.topo.clone(),
        actions,
        layout: fibs.layout.clone(),
        subspace: SubspaceSpec::whole(),
        bst: usize::MAX,
        properties: vec![Property::Requirement {
            requirement,
            dests: vec![],
        }],
    });

    // Synchronize devices one by one, printing the first verdict.
    println!("== synchronizing devices (watch for an early verdict)");
    let mut synced = 0usize;
    let mut verdict_at = None;
    for fib in &fibs.fibs {
        let updates: Vec<RuleUpdate> = fib
            .rules
            .iter()
            .cloned()
            .map(RuleUpdate::insert)
            .collect();
        let reports = verifier.ingest_synchronized(fib.device, updates);
        synced += 1;
        for r in &reports {
            match r {
                PropertyReport::Satisfied { requirement } => {
                    println!(
                        "   verdict after {synced}/{} devices: {requirement:?} SATISFIED",
                        fibs.fibs.len()
                    );
                    verdict_at = Some(synced);
                }
                PropertyReport::Unsatisfied { requirement } => {
                    println!("   verdict: {requirement:?} VIOLATED");
                }
                _ => {}
            }
        }
        if verdict_at.is_some() {
            break;
        }
    }
    assert!(
        verdict_at.is_some(),
        "requirement should be decided before all devices sync"
    );

    // Now break the path: the source ToR black-holes the destination.
    println!("== injecting a blackhole at the source ToR");
    let mut verifier2 = SubspaceVerifier::new(SubspaceVerifierConfig {
        topo: ft.topo.clone(),
        actions: Arc::new(fibs.actions.clone()),
        layout: fibs.layout.clone(),
        subspace: SubspaceSpec::whole(),
        bst: usize::MAX,
        properties: vec![Property::Requirement {
            requirement: Requirement::new(
                "tor-agg-core-agg-tor",
                packet_space,
                vec![src_tor],
                parse_path_expr("[tier=tor] [tier=agg] [tier=core] [tier=agg] [tier=tor]")
                    .unwrap(),
            ),
            dests: vec![],
        }],
    });
    let blackhole = Rule::new(packet_space, 1_000, ACTION_DROP);
    let reports = verifier2.ingest_synchronized(src_tor, vec![RuleUpdate::insert(blackhole)]);
    for r in &reports {
        if let PropertyReport::Unsatisfied { requirement } = r {
            println!(
                "   verdict after 1/{} devices: {requirement:?} VIOLATED \
                 (no other FIB can fix a drop at the entry hop)",
                fibs.fibs.len()
            );
        }
    }
    assert!(reports
        .iter()
        .any(|r| matches!(r, PropertyReport::Unsatisfied { .. })));
}
