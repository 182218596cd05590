//! The subspace verifier: one model manager plus the CE2D verifiers for
//! the properties the operator registered (Figure 1, left box).

use crate::error::FlashError;
use flash_ce2d::{LoopVerdict, LoopVerifier, LoopVerifierStats, RegexVerifier, Verdict};
use flash_imt::{ModelManager, ModelManagerConfig, SubspaceSpec};
use flash_netmodel::{ActionTable, DeviceId, HeaderLayout, RuleUpdate, Topology};
use flash_spec::Requirement;
use std::sync::Arc;

/// A property to verify.
#[derive(Clone, Debug)]
pub enum Property {
    /// All-pair loop freedom (§4.3).
    LoopFreedom,
    /// A path-regular-expression requirement (§4.2, Appendix B). `dests`
    /// resolves the `>` selector.
    Requirement {
        requirement: Requirement,
        dests: Vec<DeviceId>,
    },
}

/// A deterministic (consistent) early-detection report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PropertyReport {
    /// A consistent forwarding loop.
    LoopFound {
        cycle: Vec<DeviceId>,
    },
    /// All devices synchronized; no loop exists.
    LoopFreedomHolds,
    /// A regex requirement is consistently satisfied.
    Satisfied { requirement: String },
    /// A regex requirement is consistently violated.
    Unsatisfied { requirement: String },
}

/// Configuration of a [`SubspaceVerifier`].
#[derive(Clone)]
pub struct SubspaceVerifierConfig {
    pub topo: Arc<Topology>,
    pub actions: Arc<ActionTable>,
    pub layout: HeaderLayout,
    pub subspace: SubspaceSpec,
    /// Block size threshold for Fast IMT (usize::MAX = manual flushing).
    pub bst: usize,
    pub properties: Vec<Property>,
}

/// One subspace verifier: model manager + CE2D verifiers.
pub struct SubspaceVerifier {
    mgr: ModelManager,
    loop_verifier: Option<LoopVerifier>,
    regex_verifiers: Vec<RegexVerifier>,
    /// Verdicts already emitted (deduplicated).
    emitted: std::collections::HashSet<String>,
}

impl SubspaceVerifier {
    /// Validates the configuration before constructing: `bst == 0`
    /// never flushes correctly and is rejected as
    /// [`FlashError::Config`].
    pub fn try_new(config: SubspaceVerifierConfig) -> Result<Self, FlashError> {
        if config.bst == 0 {
            return Err(FlashError::Config(
                "bst (block size threshold) must be >= 1".into(),
            ));
        }
        Ok(Self::new_unchecked(config))
    }

    /// Infallible constructor kept for existing callers; panics on a
    /// configuration [`Self::try_new`] rejects.
    pub fn new(config: SubspaceVerifierConfig) -> Self {
        Self::try_new(config)
            .unwrap_or_else(|e| panic!("invalid SubspaceVerifierConfig: {e}"))
    }

    fn new_unchecked(config: SubspaceVerifierConfig) -> Self {
        let mut mgr = ModelManager::new(ModelManagerConfig {
            layout: config.layout.clone(),
            subspace: config.subspace,
            bst: config.bst,
            filter_updates: config.subspace.len > 0,
        });
        let mut loop_verifier = None;
        let mut regex_verifiers = Vec::new();
        for p in &config.properties {
            match p {
                Property::LoopFreedom => {
                    loop_verifier = Some(LoopVerifier::new(
                        config.topo.clone(),
                        config.actions.clone(),
                    ));
                }
                Property::Requirement { requirement, dests } => {
                    regex_verifiers.push(RegexVerifier::new(
                        config.topo.clone(),
                        config.actions.clone(),
                        requirement.clone(),
                        dests.clone(),
                        mgr.engine_mut(),
                        &config.layout,
                    ));
                }
            }
        }
        SubspaceVerifier {
            mgr,
            loop_verifier,
            regex_verifiers,
            emitted: std::collections::HashSet::new(),
        }
    }

    /// Access to the underlying model manager (inspection / benchmarks).
    pub fn manager(&self) -> &ModelManager {
        &self.mgr
    }

    pub fn manager_mut(&mut self) -> &mut ModelManager {
        &mut self.mgr
    }

    /// Feeds an update block *without* CE2D semantics (pure model
    /// construction, e.g. the update-storm benchmarks). Respects the BST.
    pub fn ingest(&mut self, dev: DeviceId, updates: Vec<RuleUpdate>) {
        self.mgr.submit(dev, updates);
    }

    /// Flushes buffered updates through Fast IMT.
    pub fn flush(&mut self) {
        self.mgr.flush();
    }

    /// Feeds a device's **complete epoch FIB delta** and marks it
    /// synchronized, then runs consistent early detection. Returns any
    /// *new* deterministic reports.
    pub fn ingest_synchronized(
        &mut self,
        dev: DeviceId,
        updates: Vec<RuleUpdate>,
    ) -> Vec<PropertyReport> {
        self.mgr.submit(dev, updates);
        self.mgr.flush();
        self.detect(&[dev])
    }

    /// Applies updates for a device that is *not* yet synchronized in
    /// this epoch (queued history replay): the model advances but no
    /// detection fires for it.
    pub fn ingest_unsynchronized(&mut self, dev: DeviceId, updates: Vec<RuleUpdate>) {
        self.mgr.submit(dev, updates);
        self.mgr.flush();
    }

    /// Buffers part of an initial snapshot without applying it — the
    /// bulk-load companion of [`Self::ingest`]. Nothing is flushed (the
    /// BST does not apply) until [`Self::seal_bulk`] releases the whole
    /// buffer through the model manager's snapshot fast path.
    pub fn ingest_bulk(&mut self, dev: DeviceId, updates: Vec<RuleUpdate>) {
        self.mgr.submit_bulk(dev, updates);
    }

    /// Seals a bulk snapshot: applies every buffered update through
    /// [`ModelManager::bulk_load`] (falling back to the incremental
    /// pipeline when the buffer is not a pure snapshot), marks `synced`
    /// as synchronized, and runs consistent early detection once over
    /// the finished snapshot. Returns any new deterministic reports.
    pub fn seal_bulk(&mut self, synced: &[DeviceId]) -> Vec<PropertyReport> {
        self.mgr.bulk_load();
        self.detect(synced)
    }

    /// Runs early detection after `newly_synced` completed their FIBs.
    pub fn detect(&mut self, newly_synced: &[DeviceId]) -> Vec<PropertyReport> {
        let mut out = Vec::new();
        if let Some(lv) = &mut self.loop_verifier {
            // One call reports at most one new loop; repeat until none is
            // left so that loops closing together are all reported.
            loop {
                let (engine, pat, model) = self.mgr.parts_mut();
                match lv.on_model_update(engine, pat, model, newly_synced) {
                    LoopVerdict::LoopFound { cycle, .. } => {
                        let key = format!("loop:{cycle:?}");
                        if self.emitted.insert(key) {
                            out.push(PropertyReport::LoopFound { cycle });
                        }
                    }
                    LoopVerdict::NoLoop => {
                        if self.emitted.insert("noloop".into()) {
                            out.push(PropertyReport::LoopFreedomHolds);
                        }
                        break;
                    }
                    LoopVerdict::Unknown => break,
                }
            }
        }
        for rv in &mut self.regex_verifiers {
            let (engine, pat, model) = self.mgr.parts_mut();
            let name = rv.requirement().name.clone();
            match rv.on_model_update(engine, pat, model, newly_synced) {
                Verdict::Satisfied => {
                    if self.emitted.insert(format!("sat:{name}")) {
                        out.push(PropertyReport::Satisfied { requirement: name });
                    }
                }
                Verdict::Unsatisfied => {
                    if self.emitted.insert(format!("unsat:{name}")) {
                        out.push(PropertyReport::Unsatisfied { requirement: name });
                    }
                }
                Verdict::Unknown => {}
            }
        }
        out
    }

    /// The devices currently synchronized (loop verifier view).
    pub fn synchronized_count(&self) -> usize {
        self.loop_verifier
            .as_ref()
            .map(|l| l.synchronized().count())
            .unwrap_or(0)
    }

    /// The loop verifier's search counters, if loop freedom is checked.
    pub fn loop_stats(&self) -> Option<LoopVerifierStats> {
        self.loop_verifier.as_ref().map(|l| l.stats)
    }

    /// The synchronized-device union across all property verifiers,
    /// sorted — the set a checkpoint must record so a restored verifier
    /// can re-mark them (via [`Self::detect`]) before going live.
    pub fn synchronized_devices(&self) -> Vec<DeviceId> {
        let mut set = std::collections::HashSet::new();
        if let Some(lv) = &self.loop_verifier {
            set.extend(lv.synchronized());
        }
        for rv in &self.regex_verifiers {
            set.extend(rv.synchronized().iter().copied());
        }
        let mut v: Vec<DeviceId> = set.into_iter().collect();
        v.sort_by_key(|d| d.0);
        v
    }

    /// The deduplication keys of every verdict already emitted, sorted
    /// (checkpoint capture).
    pub fn emitted_keys(&self) -> Vec<String> {
        let mut v: Vec<String> = self.emitted.iter().cloned().collect();
        v.sort();
        v
    }

    /// Pre-seeds the emitted-verdict dedup set (checkpoint restore).
    /// Merged *before* the restore-time [`Self::detect`] pass, so every
    /// verdict that was already delivered at checkpoint time is
    /// suppressed — consistent detection is deterministic, so a verdict
    /// decidable at restore was decidable (and emitted) at checkpoint.
    pub fn merge_emitted(&mut self, keys: impl IntoIterator<Item = String>) {
        self.emitted.extend(keys);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_netmodel::{Match, Rule};

    fn triangle() -> (Arc<Topology>, Vec<DeviceId>, Arc<ActionTable>, HeaderLayout) {
        let mut t = Topology::new();
        let a = t.add_device("a");
        let b = t.add_device("b");
        let c = t.add_device("c");
        t.add_bilink(a, b);
        t.add_bilink(b, c);
        t.add_bilink(a, c);
        let layout = HeaderLayout::dst_only();
        let mut at = ActionTable::new();
        for d in [a, b, c] {
            at.fwd(d);
        }
        (Arc::new(t), vec![a, b, c], Arc::new(at), layout)
    }

    fn config(
        topo: &Arc<Topology>,
        actions: &Arc<ActionTable>,
        layout: &HeaderLayout,
        properties: Vec<Property>,
    ) -> SubspaceVerifierConfig {
        SubspaceVerifierConfig {
            topo: topo.clone(),
            actions: actions.clone(),
            layout: layout.clone(),
            subspace: SubspaceSpec::whole(),
            bst: 1,
            properties,
        }
    }

    #[test]
    fn loop_detected_across_ingests() {
        let (topo, ids, actions, layout) = triangle();
        let mut v = SubspaceVerifier::new(config(&topo, &actions, &layout, vec![Property::LoopFreedom]));
        let m = Match::dst_prefix(&layout, 10, 8);
        let fwd_b = flash_netmodel::ActionId(2); // b is second device interned
        let fwd_a = flash_netmodel::ActionId(1);
        let r1 = v.ingest_synchronized(ids[0], vec![RuleUpdate::insert(Rule::new(m, 1, fwd_b))]);
        assert!(r1.is_empty());
        let r2 = v.ingest_synchronized(ids[1], vec![RuleUpdate::insert(Rule::new(m, 1, fwd_a))]);
        assert!(matches!(r2[0], PropertyReport::LoopFound { .. }));
    }

    #[test]
    fn loop_freedom_holds_when_all_synced_clean() {
        let (topo, ids, actions, layout) = triangle();
        let mut v = SubspaceVerifier::new(config(&topo, &actions, &layout, vec![Property::LoopFreedom]));
        let m = Match::dst_prefix(&layout, 10, 8);
        let fwd_c = flash_netmodel::ActionId(3);
        v.ingest_synchronized(ids[0], vec![RuleUpdate::insert(Rule::new(m, 1, fwd_c))]);
        v.ingest_synchronized(ids[1], vec![RuleUpdate::insert(Rule::new(m, 1, fwd_c))]);
        let r = v.ingest_synchronized(ids[2], vec![]);
        assert_eq!(r, vec![PropertyReport::LoopFreedomHolds]);
    }

    #[test]
    fn reports_are_deduplicated() {
        let (topo, ids, actions, layout) = triangle();
        let mut v = SubspaceVerifier::new(config(&topo, &actions, &layout, vec![Property::LoopFreedom]));
        let m = Match::dst_prefix(&layout, 10, 8);
        let (fwd_a, fwd_b) = (flash_netmodel::ActionId(1), flash_netmodel::ActionId(2));
        v.ingest_synchronized(ids[0], vec![RuleUpdate::insert(Rule::new(m, 1, fwd_b))]);
        let r2 = v.ingest_synchronized(ids[1], vec![RuleUpdate::insert(Rule::new(m, 1, fwd_a))]);
        assert_eq!(r2.len(), 1);
        // Another ingest keeps the same loop: no duplicate report.
        let r3 = v.ingest_synchronized(ids[2], vec![]);
        assert!(r3.is_empty());
    }

    #[test]
    fn regex_requirement_reports() {
        let (topo, ids, actions, layout) = triangle();
        let req = Requirement::new(
            "a-reaches-c",
            Match::dst_prefix(&layout, 10, 8),
            vec![ids[0]],
            flash_spec::parse_path_expr("a .* c").unwrap(),
        );
        let mut v = SubspaceVerifier::new(config(
            &topo,
            &actions,
            &layout,
            vec![Property::Requirement { requirement: req, dests: vec![] }],
        ));
        let m = Match::dst_prefix(&layout, 10, 8);
        let fwd_c = flash_netmodel::ActionId(3);
        v.ingest_synchronized(ids[0], vec![RuleUpdate::insert(Rule::new(m, 1, fwd_c))]);
        // c delivers locally (drop) — synchronize it so the path is final.
        let r = v.ingest_synchronized(
            ids[2],
            vec![RuleUpdate::insert(Rule::new(m, 1, flash_netmodel::ACTION_DROP))],
        );
        assert_eq!(
            r,
            vec![PropertyReport::Satisfied { requirement: "a-reaches-c".into() }]
        );
    }

    #[test]
    fn bulk_seal_matches_sequential_verdicts() {
        let (topo, ids, actions, layout) = triangle();
        let m = Match::dst_prefix(&layout, 10, 8);
        let fwd_c = flash_netmodel::ActionId(3);
        // Clean snapshot: all devices at once, one detect.
        let mut v = SubspaceVerifier::new(config(&topo, &actions, &layout, vec![Property::LoopFreedom]));
        v.ingest_bulk(ids[0], vec![RuleUpdate::insert(Rule::new(m, 1, fwd_c))]);
        v.ingest_bulk(ids[1], vec![RuleUpdate::insert(Rule::new(m, 1, fwd_c))]);
        let r = v.seal_bulk(&ids);
        assert_eq!(r, vec![PropertyReport::LoopFreedomHolds]);
        // Loopy snapshot reports the loop exactly once.
        let (fwd_a, fwd_b) = (flash_netmodel::ActionId(1), flash_netmodel::ActionId(2));
        let mut v = SubspaceVerifier::new(config(&topo, &actions, &layout, vec![Property::LoopFreedom]));
        v.ingest_bulk(ids[0], vec![RuleUpdate::insert(Rule::new(m, 1, fwd_b))]);
        v.ingest_bulk(ids[1], vec![RuleUpdate::insert(Rule::new(m, 1, fwd_a))]);
        let r = v.seal_bulk(&[ids[0], ids[1]]);
        assert!(matches!(r[0], PropertyReport::LoopFound { .. }), "{r:?}");
        assert!(v.seal_bulk(&[ids[2]]).iter().all(|p| !matches!(p, PropertyReport::LoopFound { .. })));
    }

    #[test]
    fn seal_reports_every_loop_closed_together() {
        // x0↔x1 and x2↔x3 close in one seal: both loops are reported.
        let mut t = Topology::new();
        let x: Vec<DeviceId> = (0..4).map(|i| t.add_device(format!("x{i}"))).collect();
        t.add_bilink(x[0], x[1]);
        t.add_bilink(x[2], x[3]);
        let mut at = ActionTable::new();
        let fwd: Vec<_> = x.iter().map(|&d| at.fwd(d)).collect();
        let (topo, actions, layout) = (Arc::new(t), Arc::new(at), HeaderLayout::dst_only());
        let mut v = SubspaceVerifier::new(config(&topo, &actions, &layout, vec![Property::LoopFreedom]));
        let m = Match::dst_prefix(&layout, 10, 8);
        for (dev, next) in [(0, 1), (1, 0), (2, 3), (3, 2)] {
            v.ingest_bulk(x[dev], vec![RuleUpdate::insert(Rule::new(m, 1, fwd[next]))]);
        }
        let mut loops: Vec<Vec<DeviceId>> = v
            .seal_bulk(&x)
            .into_iter()
            .map(|r| match r {
                PropertyReport::LoopFound { mut cycle } => {
                    cycle.sort_unstable();
                    cycle
                }
                other => panic!("unexpected report {other:?}"),
            })
            .collect();
        loops.sort_unstable();
        assert_eq!(loops, vec![vec![x[0], x[1]], vec![x[2], x[3]]]);
        assert!(v.detect(&[]).is_empty());
    }

    #[test]
    fn try_new_rejects_zero_bst() {
        let (topo, _, actions, layout) = triangle();
        let mut cfg = config(&topo, &actions, &layout, vec![Property::LoopFreedom]);
        cfg.bst = 0;
        assert!(matches!(
            SubspaceVerifier::try_new(cfg),
            Err(FlashError::Config(_))
        ));
    }

    #[test]
    fn storm_mode_ingest_respects_bst() {
        let (topo, ids, actions, layout) = triangle();
        let mut cfg = config(&topo, &actions, &layout, vec![]);
        cfg.bst = usize::MAX;
        let mut v = SubspaceVerifier::new(cfg);
        let m = Match::dst_prefix(&layout, 10, 8);
        v.ingest(ids[0], vec![RuleUpdate::insert(Rule::new(m, 1, flash_netmodel::ActionId(2)))]);
        assert_eq!(v.manager().model().len(), 1, "buffered");
        v.flush();
        assert_eq!(v.manager().model().len(), 2);
    }
}
