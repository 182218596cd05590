//! Subspace partitioning correctness: the per-pod subspace models must
//! jointly equal the whole-space model — same behaviours inside every
//! subspace, full coverage, and consistent results from the threaded
//! shard pool.

use flash_core::{ShardPool, ShardPoolConfig};
use flash_imt::{ModelManager, ModelManagerConfig, SubspacePlan, SubspaceSpec};
use flash_netmodel::FieldId;
use flash_workloads::{fat_tree, fibgen, updates};
use std::time::Duration;

#[test]
fn subspace_models_agree_with_whole_space_model() {
    let ft = fat_tree(4, 6);
    let fibs = fibgen::generate(&ft, fibgen::FibDiscipline::Apsp, 1);
    let seq = updates::insert_all(&fibs);
    let layout = fibs.layout.clone();

    // Whole-space model.
    let mut whole = ModelManager::new(ModelManagerConfig::whole_space(layout.clone()));
    for (d, u) in &seq {
        whole.submit(*d, [*u]);
    }
    whole.flush();

    // One manager per pod prefix.
    let pods: Vec<(u64, u32)> = (0..4).map(|p| ft.pod_prefix(p)).collect();
    let mut subs: Vec<ModelManager> = pods
        .iter()
        .map(|&(value, len)| {
            let mut m = ModelManager::new(ModelManagerConfig {
                layout: layout.clone(),
                subspace: SubspaceSpec { field: FieldId(0), value, len },
                bst: usize::MAX,
                filter_updates: true,
            });
            for (d, u) in &seq {
                m.submit(*d, [*u]);
            }
            m.flush();
            m
        })
        .collect();

    // Every subspace model is valid, and behaviours match the whole-space
    // model at sampled points inside the subspace.
    let bits_total = layout.total_bits();
    let (wengine, wpat, wmodel) = whole.parts_mut();
    for (si, sub) in subs.iter_mut().enumerate() {
        let devices: Vec<_> = sub.devices().collect();
        let (sengine, spat, smodel) = sub.parts_mut();
        smodel.check_invariants(sengine).unwrap();
        let (pv, pl) = pods[si];
        for off in (0..(1u64 << (bits_total - pl))).step_by(13) {
            // The pod prefix value is already left-aligned in the field.
            let point = pv | off;
            let bits: Vec<bool> = (0..bits_total)
                .map(|i| (point >> (bits_total - 1 - i)) & 1 == 1)
                .collect();
            let we = wmodel.classify(wengine, &bits).unwrap();
            let se = smodel.classify(sengine, &bits).unwrap();
            for &d in devices.iter().take(6) {
                assert_eq!(
                    wpat.get(we.vector, d),
                    spat.get(se.vector, d),
                    "pod {si} point {point:#x} device {d}"
                );
            }
        }
    }
}

#[test]
fn subspace_filter_reduces_work() {
    let ft = fat_tree(4, 6);
    let fibs = fibgen::generate(&ft, fibgen::FibDiscipline::Apsp, 1);
    let seq = updates::insert_all(&fibs);
    let (pv, pl) = ft.pod_prefix(0);
    let mut sub = ModelManager::new(ModelManagerConfig {
        layout: fibs.layout.clone(),
        subspace: SubspaceSpec { field: FieldId(0), value: pv, len: pl },
        bst: usize::MAX,
        filter_updates: true,
    });
    for (d, u) in &seq {
        sub.submit(*d, [*u]);
    }
    sub.flush();
    let stats = sub.stats();
    assert!(
        stats.updates_filtered > stats.updates_accepted,
        "a 1-of-4 pod subspace should reject most updates \
         (accepted={}, filtered={})",
        stats.updates_accepted,
        stats.updates_filtered
    );

    let mut whole = ModelManager::new(ModelManagerConfig::whole_space(fibs.layout.clone()));
    for (d, u) in &seq {
        whole.submit(*d, [*u]);
    }
    whole.flush();
    assert!(
        sub.engine().op_count() < whole.engine().op_count(),
        "subspace construction must do fewer predicate ops"
    );
}

#[test]
fn parallel_runner_consistent_with_sequential_subspaces() {
    let ft = fat_tree(4, 6);
    let fibs = fibgen::generate(&ft, fibgen::FibDiscipline::Apsp, 1);
    let seq = updates::insert_all(&fibs);
    let pods: Vec<(u64, u32)> = (0..4).map(|p| ft.pod_prefix(p)).collect();
    let plan = SubspacePlan::by_prefixes(FieldId(0), &pods);

    let mut pool = ShardPool::spawn(ShardPoolConfig::model_only(
        fibs.layout.clone(),
        plan,
        usize::MAX,
        4,
    ))
    .expect("model-only config is valid");
    pool.submit(seq.clone());
    let par = pool
        .drain(Duration::from_secs(60))
        .epochs
        .pop()
        .expect("the one block completes");
    // Sequential per-subspace construction for comparison.
    let mut seq_classes = Vec::new();
    for &(value, len) in &pods {
        let mut m = ModelManager::new(ModelManagerConfig {
            layout: fibs.layout.clone(),
            subspace: SubspaceSpec { field: FieldId(0), value, len },
            bst: usize::MAX,
            filter_updates: true,
        });
        for (d, u) in &seq {
            m.submit(*d, [*u]);
        }
        m.flush();
        seq_classes.push(m.model().len());
    }
    let par_classes: Vec<usize> = par.shards.iter().map(|s| s.classes).collect();
    assert_eq!(par_classes, seq_classes);
}
