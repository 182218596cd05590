//! Quickstart: the running example of the paper's Figure 2.
//!
//! Three switches route two subnets toward a host A; a new policy steers
//! incoming HTTP traffic for the subnets along the detour S3→S2→S1. We
//! build the inverse model with Fast IMT, watch the six native updates
//! compact into a single conflict-free overwrite, and verify loop freedom
//! and a waypoint requirement before and after.
//!
//! Run with: `cargo run -p flash-core --example quickstart`

use flash_core::{Property, PropertyReport, SubspaceVerifier, SubspaceVerifierConfig};
use flash_imt::SubspaceSpec;
use flash_netmodel::*;
use flash_spec::{parse_path_expr, Requirement};
use std::sync::Arc;

fn main() {
    // ---- Topology: S1, S2, S3 in a triangle; host A and gateway GW.
    let mut topo = Topology::new();
    let s1 = topo.add_device("S1");
    let s2 = topo.add_device("S2");
    let s3 = topo.add_device("S3");
    let host_a = topo.add_external("A");
    let gw = topo.add_external("GW");
    topo.add_bilink(s1, s2);
    topo.add_bilink(s2, s3);
    topo.add_bilink(s1, s3);
    topo.add_link(s1, host_a);
    topo.add_link(s3, gw);
    let topo = Arc::new(topo);

    // ---- Header layout: an 8-bit "dst subnet" octet and a 4-bit "port
    // class" nibble (0x8 = HTTP), scaled down from dip/dport.
    let layout = HeaderLayout::new(&[("dst", 8), ("port", 4)]);
    let mut actions = ActionTable::new();
    let to_a = actions.fwd(host_a);
    let to_gw = actions.fwd(gw);
    let to_s1 = actions.fwd(s1);
    let to_s2 = actions.fwd(s2);
    let to_s3 = actions.fwd(s3);
    let actions = Arc::new(actions);

    let subnet1 = Match::dst_prefix(&layout, 0x10, 8); // "10.0.1.0/24"
    let subnet2 = Match::dst_prefix(&layout, 0x20, 8); // "10.0.2.0/24"
    let http = |m: &Match| (*m).with(FieldId(1), MatchKind::Exact(0x8));

    // ---- The operator's requirement: HTTP traffic to subnet 1 entering
    // at S3 must traverse S2 before reaching S1 (the Figure 2 policy).
    let requirement = Requirement::new(
        "http-via-s2",
        http(&subnet1),
        vec![s3],
        parse_path_expr("S3 S2 S1").unwrap(),
    );

    let mut verifier = SubspaceVerifier::new(SubspaceVerifierConfig {
        topo: topo.clone(),
        actions: actions.clone(),
        layout: layout.clone(),
        subspace: SubspaceSpec::whole(),
        bst: usize::MAX,
        properties: vec![
            Property::LoopFreedom,
            Property::Requirement {
                requirement,
                dests: vec![],
            },
        ],
    });

    // ---- Initial data plane (Figure 2, left).
    println!("== installing the initial data plane");
    let initial: Vec<(DeviceId, Vec<Rule>)> = vec![
        (
            s1,
            vec![
                Rule::new(subnet1, 2, to_a),
                Rule::new(subnet2, 1, to_a),
                Rule::new(Match::any(&layout), 0, to_s3),
            ],
        ),
        (s2, vec![Rule::new(Match::any(&layout), 0, to_s1)]),
        (
            s3,
            vec![
                Rule::new(subnet1, 2, to_s1),
                Rule::new(subnet2, 1, to_s1),
                Rule::new(Match::any(&layout), 0, to_gw),
            ],
        ),
    ];
    for (dev, rules) in initial {
        let updates: Vec<RuleUpdate> = rules.into_iter().map(RuleUpdate::insert).collect();
        for report in verifier.ingest_synchronized(dev, updates) {
            print_report(&topo, &report);
        }
    }
    let mgr = verifier.manager();
    println!(
        "   inverse model: {} equivalence classes, {} predicate ops",
        mgr.model().len(),
        mgr.engine().op_count()
    );

    // ---- The HTTP policy block (Figure 2, right): 6 native updates.
    println!("== applying the HTTP policy update block (6 native updates)");
    let block: Vec<(DeviceId, Vec<RuleUpdate>)> = vec![
        (
            s1,
            vec![
                RuleUpdate::insert(Rule::new(http(&subnet1), 3, to_a)),
                RuleUpdate::insert(Rule::new(http(&subnet2), 3, to_a)),
            ],
        ),
        (
            s2,
            vec![
                RuleUpdate::insert(Rule::new(http(&subnet1), 3, to_s1)),
                RuleUpdate::insert(Rule::new(http(&subnet2), 3, to_s1)),
            ],
        ),
        (
            s3,
            vec![
                RuleUpdate::insert(Rule::new(http(&subnet1), 3, to_s2)),
                RuleUpdate::insert(Rule::new(http(&subnet2), 3, to_s2)),
            ],
        ),
    ];
    for (dev, updates) in block {
        for report in verifier.ingest_synchronized(dev, updates) {
            print_report(&topo, &report);
        }
    }
    let mgr = verifier.manager();
    println!(
        "   inverse model now: {} equivalence classes (the 6 updates added exactly 1)",
        mgr.model().len()
    );
    let stats = mgr.stats();
    println!(
        "   MR2: {} native updates -> {} atomic -> {} compact overwrites",
        stats.updates_accepted, stats.atomic_overwrites, stats.compact_overwrites
    );
}

fn print_report(topo: &Topology, report: &PropertyReport) {
    match report {
        PropertyReport::LoopFound { cycle } => {
            let names: Vec<&str> = cycle.iter().map(|d| topo.name(*d)).collect();
            println!("   !! consistent loop: {}", names.join(" -> "));
        }
        PropertyReport::LoopFreedomHolds => println!("   ok: loop freedom holds"),
        PropertyReport::Satisfied { requirement } => {
            println!("   ok: requirement {requirement:?} satisfied");
        }
        PropertyReport::Unsatisfied { requirement } => {
            println!("   !! requirement {requirement:?} violated");
        }
    }
}
