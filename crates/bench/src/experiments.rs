//! The experiment runners, one per paper table/figure.

use crate::util::{run_with_deadline, Stats, Timed};
use flash_baselines::{ApKeep, DeltaNet};
use flash_ce2d::ModelTraversal;
use flash_core::{
    Dispatcher, DispatcherConfig, Property, PropertyReport, ShardPool, ShardPoolConfig,
};
use flash_imt::{ModelManager, ModelManagerConfig, SubspacePlan, SubspaceSpec};
use flash_netmodel::{ActionTable, DeviceId, FieldId, HeaderLayout, Match, Rule, RuleUpdate};
use flash_routing::sim::internet2;
use flash_routing::{LinkEvent, OpenRSim, SimConfig};
use flash_spec::{parse_path_expr, Requirement};
use flash_workloads::settings::{Scale, Setting, SettingName};
use flash_workloads::{fibgen, planning, updates};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Table 3 / Figure 6: model construction across verifiers and settings.
// ---------------------------------------------------------------------

/// One verifier's result on one setting.
#[derive(Clone, Debug)]
pub struct ConstructionResult {
    pub time: Timed,
    pub memory_bytes: usize,
    pub ops: u64,
    pub classes: usize,
}

/// One row of Table 3.
#[derive(Clone, Debug)]
pub struct Table3Row {
    pub setting: &'static str,
    pub rules: usize,
    pub deltanet: Option<ConstructionResult>,
    pub apkeep: ConstructionResult,
    pub flash: ConstructionResult,
}

/// Builds one setting's update storm and runs all three verifiers on it.
///
/// `deadline` caps each baseline (the paper kills runs at 10 hours; the
/// laptop equivalent defaults to tens of seconds).
pub fn construction_compare(
    fibs: &fibgen::GeneratedFibs,
    deadline: Duration,
) -> (Option<ConstructionResult>, ConstructionResult, ConstructionResult) {
    let seq = updates::insert_all(fibs);

    // Flash: a single Fast IMT block.
    let mut mm = ModelManager::new(ModelManagerConfig::whole_space(fibs.layout.clone()));
    let t0 = Instant::now();
    for (d, u) in &seq {
        mm.submit(*d, [*u]);
    }
    mm.flush();
    let flash = ConstructionResult {
        time: Timed::Done(t0.elapsed()),
        memory_bytes: mm.approx_bytes(),
        ops: mm.engine().op_count(),
        classes: mm.model().len(),
    };

    // APKeep*: per update, deadline-capped.
    let mut ap = ApKeep::new(fibs.layout.clone());
    let ap_time = run_with_deadline(&seq, deadline, 256, |(d, u)| ap.apply(*d, u));
    let apkeep = ConstructionResult {
        time: ap_time,
        memory_bytes: ap.approx_bytes(),
        ops: ap.op_count(),
        classes: ap.model().len(),
    };

    // Delta-net*: interval lowering may exceed its cap on non-prefix
    // workloads; a failure is reported as a timeout-style entry.
    let mut dn = DeltaNet::new(fibs.layout.clone());
    let mut lowering_failed = false;
    let dn_time = run_with_deadline(&seq, deadline, 256, |(d, u)| {
        if !lowering_failed && dn.apply(*d, u).is_err() {
            lowering_failed = true;
        }
    });
    let deltanet = if lowering_failed {
        None
    } else {
        Some(ConstructionResult {
            time: dn_time,
            memory_bytes: dn.approx_bytes(),
            ops: dn.op_count(),
            classes: dn.class_count(),
        })
    };

    (deltanet, apkeep, flash)
}

/// Table 3: all six settings (subspace partition applied to the LNet
/// rows by building them at per-pod subspace scale, as in the paper).
pub fn table3(scale: Scale, deadline: Duration) -> Vec<Table3Row> {
    let mut rows = Vec::new();
    for name in SettingName::all() {
        let setting = Setting::build(name, scale);
        let (deltanet, apkeep, flash) = construction_compare(&setting.fibs, deadline);
        rows.push(Table3Row {
            setting: name.label(),
            rules: setting.fibs.total_rules(),
            deltanet,
            apkeep,
            flash,
        });
    }
    rows
}

/// Figure 6: the two hard LNet settings, insert storms, no partition.
pub fn fig6(scale: Scale, deadline: Duration) -> Vec<Table3Row> {
    let mut rows = Vec::new();
    for name in [SettingName::LNetEcmp, SettingName::LNetSmr] {
        let setting = Setting::build(name, scale);
        let (deltanet, apkeep, flash) = construction_compare(&setting.fibs, deadline);
        rows.push(Table3Row {
            setting: name.label(),
            rules: setting.fibs.total_rules(),
            deltanet,
            apkeep,
            flash,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Figure 7: block size threshold sweep.
// ---------------------------------------------------------------------

/// One sweep point: `bst_fraction` of the FIB scale → normalized speed.
#[derive(Clone, Debug)]
pub struct BstPoint {
    pub fraction: f64,
    pub bst: usize,
    pub time: Duration,
    /// `T_baseline / T_x` where baseline = one infinite-BST flush.
    pub normalized_speed: f64,
}

/// Sweeps the BST for one setting's insert storm.
pub fn fig7_sweep(fibs: &fibgen::GeneratedFibs, fractions: &[f64]) -> Vec<BstPoint> {
    let seq = updates::insert_all(fibs);
    let n = seq.len().max(1);

    let run = |bst: usize| -> Duration {
        let mut mm = ModelManager::new(ModelManagerConfig {
            bst,
            ..ModelManagerConfig::whole_space(fibs.layout.clone())
        });
        let t0 = Instant::now();
        for (d, u) in &seq {
            mm.submit(*d, [*u]);
        }
        mm.flush();
        t0.elapsed()
    };

    let baseline = run(usize::MAX);
    fractions
        .iter()
        .map(|&fraction| {
            let bst = ((n as f64 * fraction) as usize).max(1);
            let time = run(bst);
            BstPoint {
                fraction,
                bst,
                time,
                normalized_speed: baseline.as_secs_f64() / time.as_secs_f64().max(1e-9),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 8: PUV / BUV / CE2D timeline on the simulated Internet2.
// ---------------------------------------------------------------------

/// The Figure 8 data: arrivals and per-strategy reports.
#[derive(Clone, Debug)]
pub struct Fig8Timeline {
    /// `(arrival ms, device name, epoch)` for every agent message.
    pub arrivals: Vec<(f64, String, u64)>,
    /// `(ms, is_loop)` reports per strategy.
    pub puv: Vec<(f64, bool)>,
    pub buv: Vec<(f64, bool)>,
    pub ce2d: Vec<(f64, bool)>,
    pub puv_transients: usize,
    pub buv_transients: usize,
    pub ce2d_transients: usize,
}

/// Runs the two-link-failure scenario and the three strategies.
pub fn fig8(seed: u64) -> Fig8Timeline {
    let topo = internet2();
    let layout = HeaderLayout::new(&[("dst", 16)]);
    let mut sim = OpenRSim::new(
        topo.clone(),
        layout.clone(),
        SimConfig { seed, ..Default::default() },
    );
    for (i, dev) in topo.devices().enumerate() {
        sim.advertise(dev, (i as u64) << 8, 8);
    }
    let mut msgs = sim.initialize();
    let chic = topo.lookup("chic").unwrap();
    let atla = topo.lookup("atla").unwrap();
    let kans = topo.lookup("kans").unwrap();
    // The paper fails chic-atla then chic-kans consecutively.
    sim.inject(LinkEvent { at: 1_000, a: chic, b: atla, up: false });
    sim.inject(LinkEvent { at: 40_000, a: chic, b: kans, up: false });
    msgs.extend(sim.run());
    msgs.sort_by_key(|m| m.at);

    let arrivals = msgs
        .iter()
        .map(|m| (m.at as f64 / 1000.0, topo.name(m.device).to_string(), m.epoch))
        .collect();

    let actions = Arc::new(sim.actions().clone());
    let stream: Vec<(u64, DeviceId, Vec<RuleUpdate>)> = msgs
        .iter()
        .map(|m| (m.at, m.device, m.updates.clone()))
        .collect();

    let to_points = |reports: &[flash_baselines::StrategyReport]| {
        reports
            .iter()
            .map(|r| {
                (
                    r.at as f64 / 1000.0,
                    matches!(r.kind, flash_baselines::ReportKind::Loop(_)),
                )
            })
            .collect::<Vec<_>>()
    };
    let puv_reports = flash_baselines::strategies::run_loop_checks(
        topo.clone(),
        actions.clone(),
        layout.clone(),
        &stream,
        flash_baselines::VerificationStrategy::PerUpdate,
    );
    let buv_reports = flash_baselines::strategies::run_loop_checks(
        topo.clone(),
        actions.clone(),
        layout.clone(),
        &stream,
        flash_baselines::VerificationStrategy::BlockUpdate,
    );

    let mut dispatcher = Dispatcher::new(DispatcherConfig {
        topo: topo.clone(),
        actions,
        layout,
        subspaces: vec![SubspaceSpec::whole()],
        bst: 1,
        properties: vec![Property::LoopFreedom],
    });
    let mut ce2d = Vec::new();
    for m in &msgs {
        for r in dispatcher.on_message(m.at, m.device, m.epoch, m.updates.clone()) {
            match r.report {
                PropertyReport::LoopFound { .. } => ce2d.push((r.at as f64 / 1000.0, true)),
                PropertyReport::LoopFreedomHolds => ce2d.push((r.at as f64 / 1000.0, false)),
                _ => {}
            }
        }
    }
    let ce2d_transients = ce2d.iter().filter(|(_, l)| *l).count();

    Fig8Timeline {
        arrivals,
        puv: to_points(&puv_reports),
        buv: to_points(&buv_reports),
        puv_transients: flash_baselines::strategies::transient_loops(&puv_reports),
        buv_transients: flash_baselines::strategies::transient_loops(&buv_reports),
        ce2d,
        ce2d_transients,
    }
}

// ---------------------------------------------------------------------
// Figures 9 & 10: long-tail report-time CDFs.
// ---------------------------------------------------------------------

/// Runs `trials` of the buggy-OpenR long-tail scenario with `dampened`
/// random delayed devices; returns the first-loop-report times in ms
/// (60,000 ms when only the tail reveals it).
pub fn longtail_openr_trials(trials: u64, dampened: usize) -> Stats {
    let mut stats = Stats::default();
    for seed in 0..trials {
        let topo = internet2();
        let layout = HeaderLayout::new(&[("dst", 16)]);
        let mut sim = OpenRSim::new(
            topo.clone(),
            layout.clone(),
            SimConfig { seed, ..Default::default() },
        );
        for (i, dev) in topo.devices().enumerate() {
            sim.advertise(dev, (i as u64) << 8, 8);
        }
        sim.set_buggy(topo.lookup("salt").unwrap());
        let devices: Vec<DeviceId> = topo.devices().collect();
        let picked = updates::pick_dampened(&devices, dampened, seed.wrapping_mul(31) + 7);
        for d in &picked {
            sim.set_agent_delay(*d, 60_000_000);
        }
        let mut msgs = sim.initialize();
        msgs.sort_by_key(|m| m.at);

        let actions = Arc::new(sim.actions().clone());
        let mut d = Dispatcher::new(DispatcherConfig {
            topo: topo.clone(),
            actions,
            layout,
            subspaces: vec![SubspaceSpec::whole()],
            bst: 1,
            properties: vec![Property::LoopFreedom],
        });
        let mut loop_at = None;
        for m in &msgs {
            for r in d.on_message(m.at, m.device, m.epoch, m.updates.clone()) {
                if matches!(r.report, PropertyReport::LoopFound { .. }) {
                    loop_at.get_or_insert(r.at);
                }
            }
        }
        stats.push(loop_at.unwrap_or(60_000_000) as f64 / 1000.0);
    }
    stats
}

/// The trace flavour (`I2-trace-loop-lt`): trace FIB blocks on the
/// Internet2 topology with an injected 2-device loop, burst arrivals,
/// `dampened` devices delayed by 60 s.
pub fn longtail_trace_trials(trials: u64, dampened: usize, rules_per_device: usize) -> Stats {
    let mut stats = Stats::default();
    let topo = internet2();
    let layout = HeaderLayout::new(&[("dst", 24)]);
    for seed in 0..trials {
        let fibs = fibgen::trace_fibs(&topo, 24, rules_per_device, seed);
        let mut actions = fibs.actions.clone();
        // Inject the loop: chic and kans point at each other for one
        // prefix, above any trace rule.
        let chic = topo.lookup("chic").unwrap();
        let kans = topo.lookup("kans").unwrap();
        let loop_prefix = Match::dst_prefix(&layout, 0xABCD00, 24);
        let to_kans = actions.fwd(kans);
        let to_chic = actions.fwd(chic);

        let mut per_device: Vec<(DeviceId, Vec<RuleUpdate>)> = fibs
            .fibs
            .iter()
            .map(|f| {
                let mut v: Vec<RuleUpdate> =
                    f.rules.iter().cloned().map(RuleUpdate::insert).collect();
                if f.device == chic {
                    v.push(RuleUpdate::insert(Rule::new(loop_prefix, 1 << 30, to_kans)));
                }
                if f.device == kans {
                    v.push(RuleUpdate::insert(Rule::new(loop_prefix, 1 << 30, to_chic)));
                }
                (f.device, v)
            })
            .collect();

        // Burst with jitter; dampen `dampened` random devices.
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(97) + 3);
        let devices: Vec<DeviceId> = topo.devices().collect();
        let picked = updates::pick_dampened(&devices, dampened, rng.gen());
        let mut timed: Vec<(u64, DeviceId, Vec<RuleUpdate>)> = per_device
            .drain(..)
            .map(|(d, us)| {
                let mut at = rng.gen_range(0..400_000u64); // ≤ 400 ms jitter
                if picked.contains(&d) {
                    at += 60_000_000;
                }
                (at, d, us)
            })
            .collect();
        timed.sort_by_key(|(at, _, _)| *at);

        let actions = Arc::new(actions);
        let mut disp = Dispatcher::new(DispatcherConfig {
            topo: topo.clone(),
            actions,
            layout: layout.clone(),
            subspaces: vec![SubspaceSpec::whole()],
            bst: 1,
            properties: vec![Property::LoopFreedom],
        });
        let mut loop_at = None;
        const EPOCH: u64 = 42;
        for (at, dev, us) in &timed {
            for r in disp.on_message(*at, *dev, EPOCH, us.clone()) {
                if matches!(r.report, PropertyReport::LoopFound { .. }) {
                    loop_at.get_or_insert(r.at);
                }
            }
            if loop_at.is_some() {
                break;
            }
        }
        stats.push(loop_at.unwrap_or(60_000_000) as f64 / 1000.0);
    }
    stats
}

// ---------------------------------------------------------------------
// Figure 11: phase breakdown of model construction.
// ---------------------------------------------------------------------

/// Seconds spent per phase for the three systems.
#[derive(Clone, Debug)]
pub struct Fig11Breakdown {
    /// (compute atomic, aggregate, apply)
    pub apkeep: (f64, f64, f64),
    pub flash_per_update: (f64, f64, f64),
    pub flash: (f64, f64, f64),
}

/// Runs the I2-trace storm through APKeep*, Flash per-update, and Flash.
pub fn fig11(scale: Scale) -> Fig11Breakdown {
    let setting = Setting::build(SettingName::I2Trace, scale);
    let seq = updates::insert_all(&setting.fibs);

    let mut ap = ApKeep::new(setting.fibs.layout.clone());
    ap.apply_all(&seq);
    let apkeep = (
        ap.time_compute.as_secs_f64(),
        0.0,
        ap.time_apply.as_secs_f64(),
    );

    let run_flash = |bst: usize| {
        let mut mm = ModelManager::new(ModelManagerConfig {
            bst,
            ..ModelManagerConfig::whole_space(setting.fibs.layout.clone())
        });
        for (d, u) in &seq {
            mm.submit(*d, [*u]);
        }
        mm.flush();
        let t = mm.timings();
        (
            t.compute_atomic.as_secs_f64(),
            t.aggregate.as_secs_f64(),
            t.apply.as_secs_f64(),
        )
    };

    Fig11Breakdown {
        apkeep,
        flash_per_update: run_flash(1),
        flash: run_flash(usize::MAX),
    }
}

// ---------------------------------------------------------------------
// Figures 12 & 18: DGQ vs MT reachability checking.
// ---------------------------------------------------------------------

/// Per-check times (ms) for both approaches, in processing order.
#[derive(Clone, Debug)]
pub struct DgqMtSeries {
    pub dgq_ms: Vec<f64>,
    pub mt_ms: Vec<f64>,
    /// Updates processed before each check (the Figure 18 x-axis).
    pub processed: Vec<usize>,
}

/// LNet-apsp subspace all-pair ToR reachability: after each switch's
/// batch, DGQ updates its decremental verification graphs while MT
/// re-traverses the model.
pub fn fig12(k: u32, prefixes_per_tor: u32, pairs: usize) -> DgqMtSeries {
    let ft = flash_workloads::fat_tree(k, 8);
    // Full-ECMP StdFIB: the realistic Clos configuration, and what gives
    // the MT baseline its O(|V|·(|V|+|E|)) traversal cost per source.
    let fibs = fibgen::generate(&ft, fibgen::FibDiscipline::ApspEcmp, prefixes_per_tor);
    let layout = fibs.layout.clone();
    let actions = Arc::new(fibs.actions.clone());

    // Subspace: pod 0; requirements: ToR-to-ToR reachability into pod 0.
    let dst_tors = &ft.tors[0];
    let all_tors = ft.all_tors();
    let mut mgr = ModelManager::new(ModelManagerConfig::whole_space(layout.clone()));

    // Build up to `pairs` verifiers: (src ToR, dst ToR) with dst prefix.
    let mut verifiers = Vec::new();
    'outer: for src in &all_tors {
        for dst in dst_tors {
            if src == dst {
                continue;
            }
            let (_, value, len) = *ft
                .tor_prefix
                .iter()
                .find(|(t, _, _)| t == dst)
                .expect("dst tor has a prefix");
            let expr = parse_path_expr(&format!(
                "{} .* {}",
                ft.topo.name(*src),
                ft.topo.name(*dst)
            ))
            .unwrap();
            let req = Requirement::new(
                format!("{}->{}", ft.topo.name(*src), ft.topo.name(*dst)),
                Match::dst_prefix(&layout, value, len),
                vec![*src],
                expr,
            );
            verifiers.push(flash_ce2d::RegexVerifier::new(
                ft.topo.clone(),
                actions.clone(),
                req,
                vec![],
                mgr.engine_mut(),
                &layout,
            ));
            if verifiers.len() >= pairs {
                break 'outer;
            }
        }
    }

    let mt = ModelTraversal::new(ft.topo.clone(), actions.clone());
    let mut series = DgqMtSeries {
        dgq_ms: Vec::new(),
        mt_ms: Vec::new(),
        processed: Vec::new(),
    };
    let mut processed = 0usize;

    for fib in &fibs.fibs {
        let block: Vec<RuleUpdate> = fib.rules.iter().cloned().map(RuleUpdate::insert).collect();
        processed += block.len();
        mgr.submit(fib.device, block);
        mgr.flush();

        // DGQ: feed the model update to every verifier.
        let t0 = Instant::now();
        {
            let (engine, pat, model) = mgr.parts_mut();
            for v in verifiers.iter_mut() {
                v.on_model_update(engine, pat, model, &[fib.device]);
            }
        }
        series.dgq_ms.push(t0.elapsed().as_secs_f64() * 1000.0);

        // MT: full traversal per (EC, source).
        let t1 = Instant::now();
        {
            let (_, pat, model) = mgr.parts_mut();
            let _ = mt.all_pair_reachability(pat, model, &all_tors, dst_tors);
        }
        series.mt_ms.push(t1.elapsed().as_secs_f64() * 1000.0);
        series.processed.push(processed);
    }
    series
}

// ---------------------------------------------------------------------
// Figure 14: cumulative update arrivals after link events (Appendix A).
// ---------------------------------------------------------------------

/// `(time ms, cumulative updates)` samples.
pub fn fig14(prefixes: usize) -> Vec<(f64, usize)> {
    // The FRR scenario of Figure 13: 3 routers, an external peering point
    // reachable via A and B; C prefers the path through A.
    let mut topo = flash_netmodel::Topology::new();
    let a = topo.add_device("A");
    let b = topo.add_device("B");
    let c = topo.add_device("C");
    let inet = topo.add_external("internet");
    topo.add_bilink(a, c);
    topo.add_bilink(a, b);
    // B-C exists but starts down (it is "set up" mid-experiment).
    topo.add_bilink(b, c);
    topo.add_link(a, inet);
    topo.add_link(b, inet);
    topo.add_link(inet, a);
    topo.add_link(inet, b);
    let topo = Arc::new(topo);

    let layout = HeaderLayout::new(&[("dst", 24)]);
    let mut sim = OpenRSim::new(topo.clone(), layout, SimConfig::default());
    for i in 0..prefixes {
        sim.advertise(inet, (i as u64) << 4, 20);
    }
    // Pre-experiment: take B-C down and settle.
    sim.inject(LinkEvent { at: 0, a: b, b: c, up: false });
    sim.initialize();
    sim.run();

    // Event 1 (t=1s): A loses its internet link.
    sim.inject(LinkEvent { at: 1_000_000, a, b: inet, up: false });
    // Event 2 (t=3s): link B-C comes up (C's path shortens to C-B-inet).
    sim.inject(LinkEvent { at: 3_000_000, a: b, b: c, up: true });
    let mut msgs = sim.run();
    msgs.sort_by_key(|m| m.at);

    let mut cum = 0usize;
    let mut out = Vec::new();
    for m in msgs {
        cum += m.updates.len();
        out.push((m.at as f64 / 1000.0, cum));
    }
    out
}

/// Figure 15: the pod-addition planning table.
pub fn fig15(rows: &[(u32, u32)]) -> Vec<planning::PlanningRow> {
    planning::figure15_rows(rows)
}

// ---------------------------------------------------------------------
// §5.5: computational overhead / operational cost.
// ---------------------------------------------------------------------

/// Cost-model output for the overhead quantification.
#[derive(Clone, Debug)]
pub struct OverheadReport {
    pub switches: usize,
    pub rules: usize,
    pub subspaces: usize,
    pub construction_wall: Duration,
    pub max_subspace_cpu: Duration,
    pub total_memory_bytes: usize,
    /// vCPUs needed at one per subspace verifier (paper's deployment).
    pub vcpus: usize,
    /// c6g.8xlarge instances (32 vCPU / 64 GB), as priced in the paper.
    pub instances: usize,
    pub dedicated_cost_per_hour: f64,
}

/// AWS c6g.8xlarge US-Ohio hourly rate quoted by the paper's cost model.
pub const C6G_8XLARGE_HOURLY: f64 = 0.6848;

/// Runs the LNet-ecmp parallel construction and derives the §5.5 cost
/// figures with the paper's instance arithmetic.
pub fn overhead(scale: Scale) -> OverheadReport {
    let setting = Setting::build(SettingName::LNetEcmp, scale);
    let ft = setting.fabric.as_ref().expect("LNet setting");
    let seq = updates::insert_all(&setting.fibs);
    let pods: Vec<(u64, u32)> = (0..ft.k).map(|p| ft.pod_prefix(p)).collect();
    let plan = SubspacePlan::by_prefixes(FieldId(0), &pods);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let subspaces = plan.len();
    let t0 = Instant::now();
    let mut pool = ShardPool::spawn(ShardPoolConfig::model_only(
        setting.fibs.layout.clone(),
        plan,
        usize::MAX,
        threads,
    ))
    .expect("model-only config is valid");
    pool.submit(seq);
    let epoch = pool
        .drain(Duration::from_secs(3600))
        .epochs
        .pop()
        .expect("the one block completes");
    let construction_wall = t0.elapsed();

    let vcpus = subspaces;
    // 32 vCPU per instance; memory is never the binding constraint at
    // this scale (the paper found the same at theirs).
    let instances = vcpus.div_ceil(32).max(1);
    OverheadReport {
        switches: ft.switch_count(),
        rules: setting.fibs.total_rules(),
        subspaces,
        construction_wall,
        max_subspace_cpu: epoch.max_cpu(),
        total_memory_bytes: epoch.total_bytes(),
        vcpus,
        instances,
        dedicated_cost_per_hour: instances as f64 * C6G_8XLARGE_HOURLY,
    }
}

// ---------------------------------------------------------------------
// Small shared helpers for the benches.
// ---------------------------------------------------------------------

/// A compact random single-device churn workload for micro benches.
pub fn churn_workload(
    layout: &HeaderLayout,
    devices: u32,
    steps: usize,
    seed: u64,
) -> (ActionTable, Vec<(DeviceId, RuleUpdate)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut actions = ActionTable::new();
    let mut installed: Vec<(DeviceId, Rule)> = Vec::new();
    let mut out = Vec::new();
    let dst_bits = layout.field(FieldId(0)).width;
    for _ in 0..steps {
        let dev = DeviceId(rng.gen_range(0..devices));
        if !installed.is_empty() && rng.gen_bool(0.3) {
            let i = rng.gen_range(0..installed.len());
            let (d, r) = installed.swap_remove(i);
            out.push((d, RuleUpdate::delete(r)));
        } else {
            let len = rng.gen_range(2..=dst_bits);
            let v = (rng.gen::<u64>() & ((1u64 << dst_bits) - 1)) >> (dst_bits - len)
                << (dst_bits - len);
            let a = actions.fwd(DeviceId(1000 + rng.gen_range(0..8)));
            let r = Rule::new(Match::dst_prefix(layout, v, len), len as i64, a);
            if installed
                .iter()
                .any(|(d2, r2)| *d2 == dev && r2.mat == r.mat && r2.priority == r.priority)
            {
                continue;
            }
            installed.push((dev, r));
            out.push((dev, RuleUpdate::insert(r)));
        }
    }
    (actions, out)
}
