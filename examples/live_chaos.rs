//! The supervised shard pool under an injected worker crash.
//!
//! The Internet2 topology boots a simulated OpenR control plane with one
//! buggy switch. Every agent message is submitted as one block to a
//! two-shard pool that checks loop freedom, and worker 0 is killed after
//! its third block. Supervision respawns the worker and replays its
//! journaled blocks, so the pool still reports the loop and a drain
//! joins every worker.
//!
//! Run with: `cargo run --release -p flash-core --example live_chaos`

use flash_core::{FaultPlan, KillSpec, Property, PropertyReport, ShardPool, ShardPoolConfig};
use flash_imt::SubspacePlan;
use flash_netmodel::{FieldId, HeaderLayout};
use flash_routing::sim::internet2;
use flash_routing::{OpenRSim, SimConfig};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let topo = internet2();
    let layout = HeaderLayout::new(&[("dst", 16)]);
    let mut sim = OpenRSim::new(topo.clone(), layout.clone(), SimConfig::default());
    for (i, dev) in topo.devices().enumerate() {
        sim.advertise(dev, (i as u64) << 8, 8);
    }
    let salt = topo.lookup("salt").unwrap();
    sim.set_buggy(salt);
    let mut messages = sim.initialize();
    messages.sort_by_key(|m| m.at);
    println!(
        "== simulated Internet2 boot: salt runs buggy OpenR, {} agent messages",
        messages.len()
    );

    let plan = SubspacePlan::by_prefix_bits(&layout, FieldId(0), 1);
    let mut cfg = ShardPoolConfig::model_only(layout, plan, 1, 2);
    cfg.topo = topo.clone();
    cfg.actions = Arc::new(sim.actions().clone());
    cfg.properties = vec![Property::LoopFreedom];
    cfg.faults = Some(FaultPlan {
        kill_workers: vec![KillSpec {
            worker: 0,
            after_batches: 3,
        }],
        ..FaultPlan::default()
    });
    println!("== chaos plan: kill worker 0 after 3 blocks");

    // The injected kill is an ordinary panic caught by supervision; keep
    // the demo output readable by reducing it to one line (real panics
    // still go through the default hook).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("injected fault"));
        if injected {
            println!("   ** {}", info.payload().downcast_ref::<String>().unwrap());
        } else {
            default_hook(info);
        }
    }));

    let mut pool = ShardPool::spawn(cfg).expect("valid configuration");
    for m in &messages {
        pool.submit(m.updates.iter().map(|u| (m.device, *u)).collect());
    }

    let out = pool.drain(Duration::from_secs(30));
    let mut loops = 0;
    for e in &out.epochs {
        for (shard, r) in e.reports() {
            match r {
                PropertyReport::LoopFound { cycle } => {
                    loops += 1;
                    let names: Vec<&str> = cycle.iter().map(|d| topo.name(*d)).collect();
                    println!(
                        "   !! block {} (shard {shard}): consistent loop {}",
                        e.seq,
                        names.join(" -> ")
                    );
                }
                PropertyReport::LoopFreedomHolds => {
                    println!("   ok block {} (shard {shard}): loop freedom holds", e.seq);
                }
                _ => {}
            }
        }
    }

    println!();
    for w in &out.stats {
        println!(
            "worker {}: {} restart(s), {} batches (incl. replay), health {:?}",
            w.worker, w.restarts, w.batches, w.health
        );
        println!("         predicates: {}", w.engine.summary());
    }
    if out.abandoned.is_empty() {
        println!("drain: clean (every worker joined before the deadline)");
    } else {
        println!("drain: abandoned workers {:?}", out.abandoned);
    }

    assert!(loops > 0, "the buggy salt loop must be reported");
    assert_eq!(
        out.stats[0].restarts, 1,
        "worker 0 is respawned exactly once"
    );
    assert_eq!(out.stats[1].restarts, 0, "worker 1 never fails");
    assert!(out.abandoned.is_empty(), "drain must join every worker");
}
