//! Consistent loop detection stays linear in what an update can affect.
//!
//! A k=6 full-ECMP fat tree reports one device at a time, ToRs first,
//! then aggregation switches, then cores: the order in which the most
//! synchronized paths stay open before the verdict, so a search that
//! enumerates simple paths instead of visiting each device once per
//! class is exponential in the tiers crossed. After every update the
//! loop verifier may colour each device at most once per equivalence
//! class.

use flash_ce2d::{LoopVerdict, LoopVerifier};
use flash_imt::{ModelManager, ModelManagerConfig};
use flash_netmodel::RuleUpdate;
use flash_workloads::{fat_tree, fibgen, FibDiscipline};
use std::sync::Arc;

#[test]
fn per_device_loop_search_is_linear_in_classes_times_devices() {
    let ft = fat_tree(6, 8);
    let gen = fibgen::generate(&ft, FibDiscipline::ApspEcmp, 4);
    let order: Vec<_> = ft
        .tors
        .iter()
        .chain(&ft.aggs)
        .flatten()
        .chain(&ft.cores)
        .copied()
        .collect();
    assert_eq!(order.len(), ft.topo.device_count());

    let mut mgr = ModelManager::new(ModelManagerConfig::whole_space(gen.layout.clone()));
    let mut verifier = LoopVerifier::new(ft.topo.clone(), Arc::new(gen.actions.clone()));
    let mut verdict = LoopVerdict::Unknown;
    for &dev in &order {
        let fib = gen.fibs.iter().find(|f| f.device == dev).unwrap();
        mgr.submit(dev, fib.rules.iter().cloned().map(RuleUpdate::insert));
        mgr.flush();
        let before = verifier.stats.visited_nodes;
        let (engine, pat, model) = mgr.parts_mut();
        let bound = (model.len() * ft.topo.device_count()) as u64;
        verdict = verifier.on_model_update(engine, pat, model, &[dev]);
        let visited = verifier.stats.visited_nodes - before;
        assert!(
            visited <= bound,
            "{}: visited {visited} devices, bound {bound}",
            ft.topo.name(dev)
        );
    }
    assert_eq!(verdict, LoopVerdict::NoLoop);
}
