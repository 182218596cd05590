//! The CE2D dispatcher (Figure 1, right box; §4.1).
//!
//! The dispatcher consumes epoch-tagged agent messages, maintains the
//! happens-before tracker, manages the life cycle of per-epoch verifier
//! sets, and routes each device's updates:
//!
//! * updates tagged with an **active** epoch go to that epoch's verifier
//!   and mark the device synchronized there;
//! * updates tagged with an epoch that is already superseded are queued
//!   in the device's history; they reach future verifiers when those are
//!   seeded by replay (the paper's "flushes the updates from the device's
//!   update queue");
//! * when an epoch is deactivated its verifiers are destroyed.

use crate::error::FlashError;
use crate::verifier::{Property, PropertyReport, SubspaceVerifier, SubspaceVerifierConfig};
use flash_ce2d::{EpochTag, EpochTracker};
use flash_imt::SubspaceSpec;
use flash_netmodel::{ActionTable, DeviceId, HeaderLayout, RuleUpdate, Topology};
use std::collections::HashMap;
use std::sync::Arc;

/// Configuration of the dispatcher.
#[derive(Clone)]
pub struct DispatcherConfig {
    pub topo: Arc<Topology>,
    pub actions: Arc<ActionTable>,
    pub layout: HeaderLayout,
    /// Subspaces to verify (one verifier per subspace per active epoch).
    pub subspaces: Vec<SubspaceSpec>,
    pub bst: usize,
    pub properties: Vec<Property>,
}

/// A deterministic report with the virtual time it became available.
#[derive(Clone, Debug)]
pub struct TimedReport {
    /// Arrival time of the message that triggered the verdict.
    pub at: u64,
    pub epoch: EpochTag,
    /// Index of the reporting subspace.
    pub subspace: usize,
    pub report: PropertyReport,
}

struct EpochVerifiers {
    verifiers: Vec<SubspaceVerifier>,
}

/// The CE2D dispatcher.
pub struct Dispatcher {
    config: DispatcherConfig,
    tracker: EpochTracker,
    /// Full per-device update history `(epoch, updates)` in arrival order.
    history: HashMap<DeviceId, Vec<(EpochTag, Vec<RuleUpdate>)>>,
    active: HashMap<EpochTag, EpochVerifiers>,
    reports: Vec<TimedReport>,
    /// Verifiers created over the lifetime (for the §5.5 cost model).
    pub verifiers_created: u64,
}

impl Dispatcher {
    /// Validates the configuration before constructing. `bst == 0`
    /// would make Fast IMT never flush a block boundary correctly, so
    /// it is rejected rather than silently misbehaving.
    pub fn try_new(config: DispatcherConfig) -> Result<Self, FlashError> {
        if config.bst == 0 {
            return Err(FlashError::Config(
                "bst (block size threshold) must be >= 1".into(),
            ));
        }
        Ok(Self::new_unchecked(config))
    }

    /// Infallible constructor kept for existing callers; panics on a
    /// configuration [`Self::try_new`] rejects.
    pub fn new(config: DispatcherConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("invalid DispatcherConfig: {e}"))
    }

    fn new_unchecked(config: DispatcherConfig) -> Self {
        Dispatcher {
            config,
            tracker: EpochTracker::new(),
            history: HashMap::new(),
            active: HashMap::new(),
            reports: Vec::new(),
            verifiers_created: 0,
        }
    }

    fn make_verifiers(&mut self) -> EpochVerifiers {
        let verifiers = self
            .config
            .subspaces
            .iter()
            .map(|&subspace| {
                self.verifiers_created += 1;
                SubspaceVerifier::new(SubspaceVerifierConfig {
                    topo: self.config.topo.clone(),
                    actions: self.config.actions.clone(),
                    layout: self.config.layout.clone(),
                    subspace,
                    bst: self.config.bst,
                    properties: self.config.properties.clone(),
                })
            })
            .collect();
        EpochVerifiers { verifiers }
    }

    /// Processes one agent message; returns the deterministic reports it
    /// produced (also appended to [`Self::reports`]).
    pub fn on_message(
        &mut self,
        at: u64,
        device: DeviceId,
        epoch: EpochTag,
        updates: Vec<RuleUpdate>,
    ) -> Vec<TimedReport> {
        // 1. Record history.
        self.history
            .entry(device)
            .or_default()
            .push((epoch, updates.clone()));

        // 2. Track epochs.
        let ev = self.tracker.observe(device, epoch);
        for dead in &ev.deactivated {
            self.active.remove(dead);
        }

        let mut new_reports = Vec::new();

        // 3. New active epoch: seed a verifier set by replaying history.
        if ev.newly_active {
            let mut set = self.make_verifiers();
            let synced = self.tracker.synchronized(epoch);
            for (dev, log) in &self.history {
                let all: Vec<RuleUpdate> =
                    log.iter().flat_map(|(_, us)| us.iter().cloned()).collect();
                let is_synced = synced.contains(dev);
                if all.is_empty() && !is_synced {
                    continue;
                }
                // An empty update set still marks a synchronized device
                // (the agent's "nothing changed in this epoch" report).
                for (i, v) in set.verifiers.iter_mut().enumerate() {
                    if is_synced {
                        for r in v.ingest_synchronized(*dev, all.clone()) {
                            new_reports.push(TimedReport {
                                at,
                                epoch,
                                subspace: i,
                                report: r,
                            });
                        }
                    } else {
                        v.ingest_unsynchronized(*dev, all.clone());
                    }
                }
            }
            self.active.insert(epoch, set);
        } else if self.tracker.is_active(epoch) {
            // 4. Updates for an existing active epoch.
            if let Some(set) = self.active.get_mut(&epoch) {
                for (i, v) in set.verifiers.iter_mut().enumerate() {
                    for r in v.ingest_synchronized(device, updates.clone()) {
                        new_reports.push(TimedReport {
                            at,
                            epoch,
                            subspace: i,
                            report: r,
                        });
                    }
                }
            }
        }
        // 5. Inactive epoch: nothing beyond history (already recorded).

        self.reports.extend(new_reports.clone());
        new_reports
    }

    /// All deterministic reports so far, in arrival order.
    pub fn reports(&self) -> &[TimedReport] {
        &self.reports
    }

    /// Currently active epochs.
    pub fn active_epochs(&self) -> Vec<EpochTag> {
        self.active.keys().copied().collect()
    }

    /// Aggregate predicate-engine telemetry across every live verifier
    /// (all subspaces of all active epochs). Additive counters sum;
    /// see [`flash_bdd::EngineTelemetry::absorb`].
    pub fn engine_telemetry(&self) -> flash_bdd::EngineTelemetry {
        let mut total = flash_bdd::EngineTelemetry::default();
        for set in self.active.values() {
            for v in &set.verifiers {
                total.absorb(&v.manager().engine().telemetry());
            }
        }
        total
    }

    /// The tracker (inspection).
    pub fn tracker(&self) -> &EpochTracker {
        &self.tracker
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

    fn dispatcher(
        topo: &Arc<Topology>,
        actions: &Arc<ActionTable>,
        layout: &HeaderLayout,
    ) -> Dispatcher {
        Dispatcher::new(DispatcherConfig {
            topo: topo.clone(),
            actions: actions.clone(),
            layout: layout.clone(),
            subspaces: vec![SubspaceSpec::whole()],
            bst: 1,
            properties: vec![Property::LoopFreedom],
        })
    }

    #[test]
    fn consistent_loop_reported_within_one_epoch() {
        let (topo, ids, actions, layout) = triangle();
        let mut d = dispatcher(&topo, &actions, &layout);
        let m = Match::dst_prefix(&layout, 10, 8);
        let (fwd_a, fwd_b) = (flash_netmodel::ActionId(1), flash_netmodel::ActionId(2));
        d.on_message(0, ids[0], 77, vec![RuleUpdate::insert(Rule::new(m, 1, fwd_b))]);
        let r = d.on_message(5, ids[1], 77, vec![RuleUpdate::insert(Rule::new(m, 1, fwd_a))]);
        assert_eq!(r.len(), 1);
        assert!(matches!(r[0].report, PropertyReport::LoopFound { .. }));
        assert_eq!(r[0].epoch, 77);
        assert_eq!(r[0].at, 5);
    }

    #[test]
    fn transient_cross_epoch_loop_not_reported() {
        // a's *old* epoch points at b; b's *new* epoch points at a. A
        // naive single-model verifier would report a loop; CE2D must not,
        // because the two FIBs belong to different epochs.
        let (topo, ids, actions, layout) = triangle();
        let mut d = dispatcher(&topo, &actions, &layout);
        let m = Match::dst_prefix(&layout, 10, 8);
        let (fwd_a, fwd_b, fwd_c) =
            (flash_netmodel::ActionId(1), flash_netmodel::ActionId(2), flash_netmodel::ActionId(3));
        // Epoch 1: a→b (b,c silent so far).
        d.on_message(0, ids[0], 1, vec![RuleUpdate::insert(Rule::new(m, 1, fwd_b))]);
        // Epoch 2 arrives at b first: b→a. (In epoch 2, a will route to c.)
        d.on_message(5, ids[1], 2, vec![RuleUpdate::insert(Rule::new(m, 1, fwd_a))]);
        // No deterministic loop may be reported: within epoch 1 only a is
        // synced; within epoch 2 only b is synced.
        assert!(d.reports().iter().all(|r| !matches!(r.report, PropertyReport::LoopFound { .. })));
        // a reaches epoch 2 and reroutes to c: clean.
        d.on_message(
            9,
            ids[0],
            2,
            vec![
                RuleUpdate::delete(Rule::new(m, 1, fwd_b)),
                RuleUpdate::insert(Rule::new(m, 2, fwd_c)),
            ],
        );
        let r = d.on_message(12, ids[2], 2, vec![]);
        assert!(d.reports().iter().all(|r| !matches!(r.report, PropertyReport::LoopFound { .. })));
        assert!(r.iter().any(|x| x.report == PropertyReport::LoopFreedomHolds));
    }

    #[test]
    fn late_device_history_replayed_into_new_epoch() {
        // c reports epoch 1 (stale) after epoch 2 is active; its rules
        // must still appear in epoch 2's model once c reaches epoch 2.
        let (topo, ids, actions, layout) = triangle();
        let mut d = dispatcher(&topo, &actions, &layout);
        let m = Match::dst_prefix(&layout, 10, 8);
        let (fwd_a, fwd_b) = (flash_netmodel::ActionId(1), flash_netmodel::ActionId(2));
        d.on_message(0, ids[0], 1, vec![]);
        d.on_message(1, ids[0], 2, vec![RuleUpdate::insert(Rule::new(m, 1, fwd_b))]);
        // Epoch 1 is now inactive; c's stale message is queued only.
        d.on_message(2, ids[2], 1, vec![RuleUpdate::insert(Rule::new(m, 1, fwd_a))]);
        assert_eq!(d.active_epochs(), vec![2]);
        // b reports epoch 2 with b→a: loop a→b? a→b and b→a: yes, loop —
        // proving a's epoch-2 rule was present.
        let r = d.on_message(3, ids[1], 2, vec![RuleUpdate::insert(Rule::new(m, 1, fwd_a))]);
        assert!(r.iter().any(|x| matches!(x.report, PropertyReport::LoopFound { .. })));
    }

    #[test]
    fn deactivated_epoch_verifiers_destroyed() {
        let (topo, ids, actions, layout) = triangle();
        let mut d = dispatcher(&topo, &actions, &layout);
        d.on_message(0, ids[0], 1, vec![]);
        assert_eq!(d.active_epochs(), vec![1]);
        d.on_message(1, ids[0], 2, vec![]);
        assert_eq!(d.active_epochs(), vec![2]);
        assert_eq!(d.verifiers_created, 2);
    }

    #[test]
    fn dead_epoch_updates_reach_next_epoch_verifiers_via_replay() {
        // Updates tagged with an epoch that is *already superseded* go
        // only into the device's history queue; they must still reach
        // the verifiers of the next newly-activated epoch through the
        // seeding replay ("flushes the updates from the device's update
        // queue").
        let (topo, ids, actions, layout) = triangle();
        let mut d = dispatcher(&topo, &actions, &layout);
        let m = Match::dst_prefix(&layout, 10, 8);
        let (fwd_a, fwd_c) = (flash_netmodel::ActionId(1), flash_netmodel::ActionId(3));
        // Epoch 1 active, then superseded by epoch 2.
        d.on_message(0, ids[0], 1, vec![]);
        d.on_message(1, ids[0], 2, vec![]);
        assert_eq!(d.active_epochs(), vec![2]);
        // c reports the dead epoch 1 with c→a: queued in history only —
        // no active verifier for epoch 1 exists anymore.
        let r = d.on_message(2, ids[2], 1, vec![RuleUpdate::insert(Rule::new(m, 1, fwd_a))]);
        assert!(r.is_empty(), "dead-epoch updates produce no immediate reports");
        assert_eq!(d.active_epochs(), vec![2]);
        // b activates epoch 3: the new verifier set is seeded by replay,
        // which must include c's dead-epoch rule (c unsynchronized).
        d.on_message(3, ids[1], 3, vec![]);
        // a joins epoch 3 with a→c; no loop yet — c is not synchronized.
        let r = d.on_message(4, ids[0], 3, vec![RuleUpdate::insert(Rule::new(m, 1, fwd_c))]);
        assert!(r.iter().all(|x| !matches!(x.report, PropertyReport::LoopFound { .. })));
        // c synchronizes into epoch 3 with no new updates: the loop
        // a→c→a closes using the rule that arrived on the dead epoch,
        // proving history replay carried it into epoch 3's verifiers.
        let r = d.on_message(5, ids[2], 3, vec![]);
        assert!(
            r.iter().any(|x| matches!(x.report, PropertyReport::LoopFound { .. })),
            "replayed dead-epoch rule must be visible: {r:?}"
        );
    }

    #[test]
    fn try_new_rejects_zero_bst() {
        let (topo, _, actions, layout) = triangle();
        let cfg = DispatcherConfig {
            topo,
            actions,
            layout,
            subspaces: vec![SubspaceSpec::whole()],
            bst: 0,
            properties: vec![Property::LoopFreedom],
        };
        assert!(matches!(
            Dispatcher::try_new(cfg),
            Err(crate::error::FlashError::Config(_))
        ));
    }

    #[test]
    fn two_concurrent_active_epochs() {
        let (topo, ids, actions, layout) = triangle();
        let mut d = dispatcher(&topo, &actions, &layout);
        d.on_message(0, ids[0], 10, vec![]);
        d.on_message(1, ids[1], 20, vec![]);
        let mut active = d.active_epochs();
        active.sort_unstable();
        assert_eq!(active, vec![10, 20]);
    }
}
