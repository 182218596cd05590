//! Update storm: the workload the paper's introduction motivates.
//!
//! A fat-tree data center boots up and every switch's FIB arrives at the
//! verifier at once. We build the inverse model three ways —
//! Flash (Fast IMT, one block), Flash per-update mode (BST = 1), and
//! parallel Flash with per-pod subspace partitioning — and compare the
//! time and predicate-operation counts.
//!
//! Run with: `cargo run --release -p flash-core --example update_storm`

use flash_core::{ShardPool, ShardPoolConfig};
use flash_imt::{ModelManager, ModelManagerConfig, SubspacePlan};
use flash_netmodel::FieldId;
use flash_workloads::{fat_tree, fibgen, updates};
use std::time::{Duration, Instant};

fn main() {
    let k = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8u32);
    println!("== generating a k={k} fat-tree data plane (apsp FIBs)");
    let ft = fat_tree(k, 8);
    let fibs = fibgen::generate(&ft, fibgen::FibDiscipline::Apsp, 2);
    println!(
        "   {} switches, {} rules",
        ft.switch_count(),
        fibs.total_rules()
    );
    let storm = updates::insert_all(&fibs);
    println!("   storm: {} native updates", storm.len());

    // ---- Flash: one big block through MR2.
    let t0 = Instant::now();
    let mut mgr = ModelManager::new(ModelManagerConfig::whole_space(fibs.layout.clone()));
    for (d, u) in &storm {
        mgr.submit(*d, [*u]);
    }
    mgr.flush();
    let flash_time = t0.elapsed();
    let flash_ops = mgr.engine().op_count();
    println!(
        "== Flash (block mode):      {:>10.2?}  {} classes  {} predicate ops",
        flash_time,
        mgr.model().len(),
        flash_ops
    );

    // ---- Flash per-update mode (the APKeep-style baseline shape).
    let t1 = Instant::now();
    let mut per = ModelManager::new(ModelManagerConfig {
        bst: 1,
        ..ModelManagerConfig::whole_space(fibs.layout.clone())
    });
    for (d, u) in &storm {
        per.submit(*d, [*u]);
    }
    per.flush();
    let per_time = t1.elapsed();
    println!(
        "== Flash (per-update mode): {:>10.2?}  {} classes  {} predicate ops",
        per_time,
        per.model().len(),
        per.engine().op_count()
    );

    // ---- Parallel Flash with one subspace per pod.
    let pods: Vec<(u64, u32)> = (0..k).map(|p| ft.pod_prefix(p)).collect();
    let plan = SubspacePlan::by_prefixes(FieldId(0), &pods);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let subspaces = plan.len();
    let t2 = Instant::now();
    let mut pool = ShardPool::spawn(ShardPoolConfig::model_only(
        fibs.layout.clone(),
        plan,
        usize::MAX,
        threads,
    ))
    .expect("model-only config is valid");
    pool.submit(storm);
    let epoch = pool
        .drain(Duration::from_secs(3600))
        .epochs
        .pop()
        .expect("the storm's block completes");
    let par_time = t2.elapsed();
    println!(
        "== Flash ({} subspaces, {} threads): {:>10.2?} wall ({:?} critical path)  {} classes",
        subspaces,
        threads,
        par_time,
        epoch.max_cpu(),
        epoch.total_classes()
    );

    println!(
        "\nspeedup of block over per-update: {:.1}x",
        per_time.as_secs_f64() / flash_time.as_secs_f64()
    );
    println!(
        "speedup of parallel over sequential block: {:.1}x",
        flash_time.as_secs_f64() / par_time.as_secs_f64()
    );
    // Subspaces split classes that straddle their boundaries, so the
    // per-subspace total can only meet or exceed the whole-space count.
    assert!(epoch.total_classes() >= mgr.model().len());
    assert_eq!(
        mgr.model().len(),
        per.model().len(),
        "block and per-update models agree"
    );
}
