//! Exhaustive soundness checks of consistent early detection — the
//! property Definition 16 / Appendix D.4 of the paper proves:
//!
//! * a **LoopFound** verdict must hold in *every completion* — however
//!   the unsynchronized devices end up forwarding, the reported loop
//!   exists;
//! * a **NoLoop** verdict means *no* completion has a loop;
//! * a **Satisfied / Unsatisfied** regex verdict must agree with every
//!   completion;
//! * otherwise the verdict must be Unknown.
//!
//! On small topologies we can literally enumerate all completions (each
//! unsynchronized device picks any neighbor or drop) and check the
//! early-detection verdict against ground truth.
//!
//! Soundness alone is met by a verifier that never reports, so the loop
//! checks also test **completeness** against an oracle that walks the
//! synchronized devices' choices (unsynchronized devices count as drop):
//! every loop among them must be reported.

#![cfg(feature = "proptest")]

use flash_ce2d::{LoopVerdict, LoopVerifier, RegexVerifier, Verdict};
use flash_core::{Property, PropertyReport, SubspaceVerifier, SubspaceVerifierConfig};
use flash_imt::{ModelManager, ModelManagerConfig, SubspaceSpec};
use flash_netmodel::{
    ActionTable, DeviceId, HeaderLayout, Match, Rule, RuleUpdate, Topology,
};
use flash_spec::{parse_path_expr, Requirement};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

const N: u32 = 4; // internal devices; completions ≤ (N+1)^N = 625

/// A small dense topology: N internal devices fully meshed, plus one
/// external sink attached to every device.
fn mesh() -> (Arc<Topology>, Vec<DeviceId>, DeviceId) {
    let mut t = Topology::new();
    let devs: Vec<DeviceId> = (0..N).map(|i| t.add_device(format!("d{i}"))).collect();
    let sink = t.add_external("out");
    for i in 0..devs.len() {
        for j in (i + 1)..devs.len() {
            t.add_bilink(devs[i], devs[j]);
        }
        t.add_link(devs[i], sink);
    }
    (Arc::new(t), devs, sink)
}

/// A forwarding choice for one device: None = drop, Some(d) = unicast.
type Choice = Option<DeviceId>;

/// Does the global assignment `choices` (indexed by device) contain a
/// forwarding loop?
fn has_loop(choices: &[Choice]) -> bool {
    for start in 0..choices.len() {
        let mut seen = HashSet::new();
        let mut cur = start;
        loop {
            if !seen.insert(cur) {
                return true;
            }
            match choices[cur] {
                Some(next) if (next.0 as usize) < choices.len() => cur = next.0 as usize,
                _ => break, // drop or exit to the external sink
            }
        }
    }
    false
}

/// The forwarding loops of `choices`, each as its sorted device indices.
fn loops_of(choices: &[Choice]) -> BTreeSet<Vec<usize>> {
    let mut out = BTreeSet::new();
    for start in 0..choices.len() {
        let mut path = vec![start];
        while let Some(next) = choices[*path.last().unwrap()] {
            let next = next.0 as usize;
            if next >= choices.len() {
                break; // exit to the external sink
            }
            if let Some(pos) = path.iter().position(|&d| d == next) {
                let mut cycle = path[pos..].to_vec();
                cycle.sort_unstable();
                out.insert(cycle);
                break;
            }
            path.push(next);
        }
    }
    out
}

/// The synchronized devices' choices alone; unsynchronized devices drop.
fn synchronized_only(partial: &[Option<Choice>]) -> Vec<Choice> {
    partial.iter().map(|p| p.flatten()).collect()
}

/// Does `choices` give a path from `src` to the external sink while the
/// regex `d<src> .* out` is satisfied? (Simple reachability-to-sink.)
fn reaches_sink(choices: &[Choice], src: usize, sink: DeviceId) -> bool {
    let mut seen = HashSet::new();
    let mut cur = src;
    loop {
        if !seen.insert(cur) {
            return false; // loop
        }
        match choices[cur] {
            None => return false,
            Some(next) if next == sink => return true,
            Some(next) => cur = next.0 as usize,
        }
    }
}

/// Enumerates every completion of `partial` (synchronized devices fixed,
/// the rest free over {drop} ∪ neighbors).
fn completions(
    partial: &[Option<Choice>],
    options: &[Vec<Choice>],
) -> Vec<Vec<Choice>> {
    let mut out: Vec<Vec<Choice>> = vec![Vec::new()];
    for (i, p) in partial.iter().enumerate() {
        let choices: Vec<Choice> = match p {
            Some(c) => vec![*c],
            None => options[i].clone(),
        };
        let mut next = Vec::with_capacity(out.len() * choices.len());
        for base in &out {
            for c in &choices {
                let mut v = base.clone();
                v.push(*c);
                next.push(v);
            }
        }
        out = next;
    }
    out
}

/// The action table every verifier here shares: one unicast forward per
/// device (external sink included).
fn unicast_actions(topo: &Topology) -> Arc<ActionTable> {
    let mut at = ActionTable::new();
    for d in topo.devices() {
        at.fwd(d);
    }
    Arc::new(at)
}

/// The one-rule FIB of a synchronized device.
fn choice_rule(layout: &HeaderLayout, at: &ActionTable, choice: Choice) -> Rule {
    let action = match choice {
        None => flash_netmodel::ACTION_DROP,
        Some(nh) => at.lookup(&flash_netmodel::Action::fwd(nh)).unwrap(),
    };
    Rule::new(Match::any(layout), 1, action)
}

/// Builds the verifier state for a partial assignment, one device per
/// call, and returns the strongest loop verdict and whether any call
/// returned `LoopFound`.
fn run_loop_verifier(
    topo: &Arc<Topology>,
    devs: &[DeviceId],
    partial: &[Option<Choice>],
) -> (LoopVerdict, bool) {
    let layout = HeaderLayout::new(&[("dst", 4)]);
    let at = unicast_actions(topo);
    let mut mgr = ModelManager::new(ModelManagerConfig::whole_space(layout.clone()));
    let mut verifier = LoopVerifier::new(topo.clone(), at.clone());
    let mut verdict = LoopVerdict::Unknown;
    let mut ever_loop = false;
    for (i, p) in partial.iter().enumerate() {
        let Some(choice) = p else { continue };
        mgr.submit(devs[i], [RuleUpdate::insert(choice_rule(&layout, &at, *choice))]);
        mgr.flush();
        let (engine, pat, model) = mgr.parts_mut();
        let v = verifier.on_model_update(engine, pat, model, &[devs[i]]);
        ever_loop |= matches!(v, LoopVerdict::LoopFound { .. });
        if matches!(v, LoopVerdict::LoopFound { .. }) || v == LoopVerdict::NoLoop {
            verdict = v;
        }
    }
    (verdict, ever_loop)
}

/// Seals every synchronized device's FIB at once through a
/// `SubspaceVerifier` and returns the reported loops (sorted device
/// indices) and whether loop freedom was reported.
fn seal_loop_reports(
    topo: &Arc<Topology>,
    devs: &[DeviceId],
    partial: &[Option<Choice>],
) -> (BTreeSet<Vec<usize>>, bool) {
    let layout = HeaderLayout::new(&[("dst", 4)]);
    let at = unicast_actions(topo);
    let mut v = SubspaceVerifier::new(SubspaceVerifierConfig {
        topo: topo.clone(),
        actions: at.clone(),
        layout: layout.clone(),
        subspace: SubspaceSpec::whole(),
        bst: 1,
        properties: vec![Property::LoopFreedom],
    });
    let mut synced = Vec::new();
    for (i, p) in partial.iter().enumerate() {
        let Some(choice) = p else { continue };
        v.ingest_bulk(devs[i], vec![RuleUpdate::insert(choice_rule(&layout, &at, *choice))]);
        synced.push(devs[i]);
    }
    let mut loops = BTreeSet::new();
    let mut holds = false;
    for report in v.seal_bulk(&synced) {
        match report {
            PropertyReport::LoopFound { cycle } => {
                let mut cycle: Vec<usize> = cycle.iter().map(|d| d.index()).collect();
                cycle.sort_unstable();
                assert!(loops.insert(cycle), "a loop was reported twice");
            }
            PropertyReport::LoopFreedomHolds => holds = true,
            other => panic!("unexpected report {other:?}"),
        }
    }
    (loops, holds)
}

fn arb_partial() -> impl Strategy<Value = Vec<Option<Option<u32>>>> {
    // Per device: None = unsynchronized; Some(None) = drop;
    // Some(Some(k)) = forward to neighbor k (mod choices).
    proptest::collection::vec(
        prop_oneof![
            2 => Just(None),
            1 => Just(Some(None)),
            4 => (0u32..N + 1).prop_map(|k| Some(Some(k))),
        ],
        N as usize,
    )
}

/// Guard against vacuity: across a deterministic sweep of partial
/// assignments, the verifier must produce all three verdict kinds.
#[test]
fn verdicts_are_not_vacuously_unknown() {
    let (topo, devs, _) = mesh();
    let mut found_loop = 0;
    let mut no_loop = 0;
    let mut unknown = 0;
    for mask in 0..81u32 {
        // Base-3 encode: 0 = unsync, 1 = drop, 2 = forward to next device.
        let mut partial: Vec<Option<Choice>> = Vec::new();
        let mut m = mask;
        for i in 0..N as usize {
            let digit = m % 3;
            m /= 3;
            partial.push(match digit {
                0 => None,
                1 => Some(None),
                _ => Some(Some(if i + 1 < N as usize {
                    devs[i + 1]
                } else {
                    devs[0]
                })),
            });
        }
        match run_loop_verifier(&topo, &devs, &partial).0 {
            LoopVerdict::LoopFound { .. } => found_loop += 1,
            LoopVerdict::NoLoop => no_loop += 1,
            LoopVerdict::Unknown => unknown += 1,
        }
    }
    assert!(found_loop > 0, "no LoopFound verdict in the sweep");
    assert!(no_loop > 0, "no NoLoop verdict in the sweep");
    assert!(unknown > 0, "no Unknown verdict in the sweep");
}

/// Completeness over every partial assignment of the mesh (each device
/// unsynchronized, dropping, or forwarding to a neighbor or the sink):
/// fed one device at a time or sealed all at once, every loop among the
/// synchronized devices is reported, and loop freedom exactly when all
/// devices are synchronized and none loops.
#[test]
fn every_synchronized_loop_is_reported() {
    let (topo, devs, sink) = mesh();
    let options: Vec<Option<Choice>> = std::iter::once(None)
        .chain(std::iter::once(Some(None)))
        .chain(devs.iter().chain([&sink]).map(|&d| Some(Some(d))))
        .collect();
    let mut two_loops = 0;
    for mut code in 0..options.len().pow(N) {
        let mut partial = Vec::new();
        for i in 0..N as usize {
            partial.push(options[code % options.len()]);
            code /= options.len();
            if partial[i] == Some(Some(devs[i])) {
                partial[i] = Some(None); // no self-links: read as drop
            }
        }
        let expected = loops_of(&synchronized_only(&partial));
        let all_synced = partial.iter().all(|p| p.is_some());
        let (_, ever_loop) = run_loop_verifier(&topo, &devs, &partial);
        assert_eq!(ever_loop, !expected.is_empty(), "partial={partial:?}");
        let (loops, holds) = seal_loop_reports(&topo, &devs, &partial);
        assert_eq!(loops, expected, "partial={partial:?}");
        assert_eq!(holds, all_synced && expected.is_empty(), "partial={partial:?}");
        two_loops += usize::from(expected.len() == 2);
    }
    assert!(two_loops > 0, "no assignment closes two loops at once");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn loop_verdicts_hold_in_every_completion(raw in arb_partial()) {
        let (topo, devs, sink) = mesh();
        // Decode into concrete choices over this topology.
        let decode = |i: usize, k: u32| -> Choice {
            // Options for device i: all other devices + the sink.
            let mut opts: Vec<DeviceId> =
                devs.iter().copied().filter(|d| d.0 != i as u32).collect();
            opts.push(sink);
            Some(opts[(k as usize) % opts.len()])
        };
        let partial: Vec<Option<Choice>> = raw
            .iter()
            .enumerate()
            .map(|(i, p)| match p {
                None => None,
                Some(None) => Some(None),
                Some(Some(k)) => Some(decode(i, *k)),
            })
            .collect();
        let options: Vec<Vec<Choice>> = (0..N as usize)
            .map(|i| {
                let mut o: Vec<Choice> = vec![None];
                for d in devs.iter().copied().filter(|d| d.0 != i as u32) {
                    o.push(Some(d));
                }
                o.push(Some(sink));
                o
            })
            .collect();

        let (verdict, ever_loop) = run_loop_verifier(&topo, &devs, &partial);
        // Completeness: a loop among the synchronized devices alone must
        // have been reported by some step.
        prop_assert!(
            ever_loop || !has_loop(&synchronized_only(&partial)),
            "synchronized devices loop but no LoopFound: partial={partial:?}"
        );
        let all = completions(&partial, &options);
        let loops: Vec<bool> = all.iter().map(|c| has_loop(c)).collect();
        match verdict {
            LoopVerdict::LoopFound { .. } => {
                prop_assert!(
                    loops.iter().all(|&l| l),
                    "LoopFound but some completion is loop-free: partial={partial:?}"
                );
            }
            LoopVerdict::NoLoop => {
                prop_assert!(
                    loops.iter().all(|&l| !l),
                    "NoLoop but some completion loops: partial={partial:?}"
                );
            }
            LoopVerdict::Unknown => {} // always sound
        }
    }

    #[test]
    fn regex_verdicts_hold_in_every_completion(raw in arb_partial()) {
        let (topo, devs, sink) = mesh();
        let layout = HeaderLayout::new(&[("dst", 4)]);
        let mut at = ActionTable::new();
        for d in topo.devices() {
            at.fwd(d);
        }
        let at = Arc::new(at);

        let decode = |i: usize, k: u32| -> Choice {
            let mut opts: Vec<DeviceId> =
                devs.iter().copied().filter(|d| d.0 != i as u32).collect();
            opts.push(sink);
            Some(opts[(k as usize) % opts.len()])
        };
        let partial: Vec<Option<Choice>> = raw
            .iter()
            .enumerate()
            .map(|(i, p)| match p {
                None => None,
                Some(None) => Some(None),
                Some(Some(k)) => Some(decode(i, *k)),
            })
            .collect();

        // Requirement: traffic entering at d0 reaches the external sink.
        let req = Requirement::new(
            "d0-out",
            Match::any(&layout),
            vec![devs[0]],
            parse_path_expr("d0 .* out").unwrap(),
        );
        let mut mgr = ModelManager::new(ModelManagerConfig::whole_space(layout.clone()));
        let mut verifier = RegexVerifier::new(
            topo.clone(),
            at.clone(),
            req,
            vec![],
            mgr.engine_mut(),
            &layout,
        );
        let mut verdict = Verdict::Unknown;
        for (i, p) in partial.iter().enumerate() {
            let Some(choice) = p else { continue };
            let rule = match choice {
                None => Rule::new(Match::any(&layout), 1, flash_netmodel::ACTION_DROP),
                Some(nh) => {
                    let mut t2 = (*at).clone();
                    let a = t2.fwd(*nh);
                    Rule::new(Match::any(&layout), 1, a)
                }
            };
            mgr.submit(devs[i], [RuleUpdate::insert(rule)]);
            mgr.flush();
            let (engine, pat, model) = mgr.parts_mut();
            let v = verifier.on_model_update(engine, pat, model, &[devs[i]]);
            if v != Verdict::Unknown {
                verdict = v;
            }
        }

        let options: Vec<Vec<Choice>> = (0..N as usize)
            .map(|i| {
                let mut o: Vec<Choice> = vec![None];
                for d in devs.iter().copied().filter(|d| d.0 != i as u32) {
                    o.push(Some(d));
                }
                o.push(Some(sink));
                o
            })
            .collect();
        let all = completions(&partial, &options);
        let sat: Vec<bool> = all.iter().map(|c| reaches_sink(c, 0, sink)).collect();
        match verdict {
            Verdict::Satisfied => {
                prop_assert!(
                    sat.iter().all(|&s| s),
                    "Satisfied but some completion fails: partial={partial:?}"
                );
            }
            Verdict::Unsatisfied => {
                prop_assert!(
                    sat.iter().all(|&s| !s),
                    "Unsatisfied but some completion satisfies: partial={partial:?}"
                );
            }
            Verdict::Unknown => {}
        }
    }
}
