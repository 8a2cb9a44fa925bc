#![forbid(unsafe_code)]

//! Dynamic network-event and fault-injection schedules.
//!
//! The paper's introduction lists "re-routing around faulty regions"
//! among the primary causes of the congestion trees CCFIT manages. This
//! crate provides the *schedule* side of the runtime fault subsystem:
//! a time-ordered list of [`NetworkEvent`]s — link failures/recoveries
//! and whole-switch failures/recoveries — that the simulator consumes
//! during a run, plus a seeded-random
//! generator for fault-storm workloads. The simulator-side semantics
//! (what a downed link does to in-flight flits, credits, Stop/Go state,
//! and routing) live in `ccfit-core`; see DESIGN.md §8.
//!
//! Schedules are plain data: deterministic, serializable, and
//! independent of the simulator, so the same schedule can be replayed
//! across mechanisms and seeds — exactly how `matrices/faultstorm.toml`
//! compares 1Q/VOQsw/VOQnet/ITh/FBICM/CCFIT under identical damage.

use ccfit_engine::ids::{PortId, SwitchId};
use ccfit_engine::units::Cycle;
use ccfit_topology::{Endpoint, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One dynamic network event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NetworkEvent {
    /// Cut the switch-to-switch cable at `(switch, port)`: everything
    /// in flight on it (data flits, credit returns, control events) is
    /// destroyed and counted as lost, and both senders' credit state is
    /// zeroed until the cable retrains on recovery.
    LinkDown {
        /// Near-end switch.
        switch: SwitchId,
        /// Near-end port.
        port: PortId,
    },
    /// Bring a previously failed cable back up (both endpoints retrain
    /// and re-synchronize flow control).
    LinkUp {
        /// Near-end switch (either end of the failed cable works).
        switch: SwitchId,
        /// Near-end port.
        port: PortId,
    },
    /// Fail a whole switch: every cable of the switch is cut, the
    /// switch's buffers are lost, and its attached nodes become
    /// unreachable until recovery.
    SwitchDown {
        /// The failing switch.
        switch: SwitchId,
    },
    /// Recover a failed switch with empty buffers; its cables to
    /// healthy peers come back up.
    SwitchUp {
        /// The recovering switch.
        switch: SwitchId,
    },
}

impl NetworkEvent {
    /// The `(switch, port)` the event targets (`port` is `None` for
    /// whole-switch events).
    pub fn target(&self) -> (SwitchId, Option<PortId>) {
        match *self {
            NetworkEvent::LinkDown { switch, port } | NetworkEvent::LinkUp { switch, port } => {
                (switch, Some(port))
            }
            NetworkEvent::SwitchDown { switch } | NetworkEvent::SwitchUp { switch } => {
                (switch, None)
            }
        }
    }
}

/// A [`NetworkEvent`] pinned to a simulation cycle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduledEvent {
    /// Cycle at which the event fires (consumed at the top of
    /// `Simulator::tick` for that cycle).
    pub at: Cycle,
    /// The event.
    pub event: NetworkEvent,
}

/// Schedule validation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// The event names a switch the topology does not have.
    UnknownSwitch(SwitchId),
    /// The event names a port the switch does not have.
    PortOutOfRange(SwitchId, PortId),
    /// Link events must target switch-to-switch cables (failing a node
    /// cable would strand the node; model that as a `SwitchDown` of the
    /// attachment switch or simply stop the node's traffic).
    NodeCable(SwitchId, PortId),
    /// The port is not cabled in the pristine topology.
    Uncabled(SwitchId, PortId),
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::UnknownSwitch(s) => write!(f, "unknown switch {s}"),
            FaultError::PortOutOfRange(s, p) => write!(f, "port {p} out of range on {s}"),
            FaultError::NodeCable(s, p) => {
                write!(f, "{s}:{p} is a node cable; only trunk cables can fail")
            }
            FaultError::Uncabled(s, p) => write!(f, "{s}:{p} is not cabled"),
        }
    }
}

impl std::error::Error for FaultError {}

/// A time-ordered fault schedule.
///
/// Events are kept sorted by `(cycle, insertion order)`, so two events
/// scheduled for the same cycle fire in the order they were added —
/// the simulator's application order is fully deterministic.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    events: Vec<ScheduledEvent>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an event, keeping the schedule sorted (stable for ties).
    pub fn push(&mut self, at: Cycle, event: NetworkEvent) -> &mut Self {
        let idx = self.events.partition_point(|e| e.at <= at);
        self.events.insert(idx, ScheduledEvent { at, event });
        self
    }

    /// Schedule a link failure.
    pub fn link_down(&mut self, at: Cycle, switch: SwitchId, port: PortId) -> &mut Self {
        self.push(at, NetworkEvent::LinkDown { switch, port })
    }

    /// Schedule a link recovery.
    pub fn link_up(&mut self, at: Cycle, switch: SwitchId, port: PortId) -> &mut Self {
        self.push(at, NetworkEvent::LinkUp { switch, port })
    }

    /// Schedule a whole-switch failure.
    pub fn switch_down(&mut self, at: Cycle, switch: SwitchId) -> &mut Self {
        self.push(at, NetworkEvent::SwitchDown { switch })
    }

    /// Schedule a switch recovery.
    pub fn switch_up(&mut self, at: Cycle, switch: SwitchId) -> &mut Self {
        self.push(at, NetworkEvent::SwitchUp { switch })
    }

    /// The events in firing order.
    pub fn events(&self) -> &[ScheduledEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Check every event against the *pristine* topology: switches and
    /// ports exist, and link events target switch-to-switch cables.
    /// (Temporal consistency — e.g. a `LinkUp` for a cable that is not
    /// down — is not a schedule error; the simulator skips such events
    /// and counts them as no-ops.)
    pub fn validate(&self, topo: &Topology) -> Result<(), FaultError> {
        for e in &self.events {
            let (s, port) = e.event.target();
            if s.index() >= topo.num_switches() {
                return Err(FaultError::UnknownSwitch(s));
            }
            let Some(p) = port else { continue };
            if p.index() >= topo.switch(s).num_ports() {
                return Err(FaultError::PortOutOfRange(s, p));
            }
            match topo.peer(s, p) {
                None => return Err(FaultError::Uncabled(s, p)),
                Some((Endpoint::Node(_), _)) => return Err(FaultError::NodeCable(s, p)),
                Some((Endpoint::Switch(..), _)) => {}
            }
        }
        Ok(())
    }
}

/// Parameters for seeded-random fault storms.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RandomFaults {
    /// RNG seed (independent of the simulation's master seed so the
    /// same damage can be replayed across traffic seeds).
    pub seed: u64,
    /// Number of link failures to inject.
    pub failures: usize,
    /// Failures are drawn uniformly in `[window_start, window_end)`.
    pub window_start: Cycle,
    /// End of the injection window (exclusive).
    pub window_end: Cycle,
    /// Each failed cable recovers this many cycles after it fails
    /// (`None` = permanent).
    pub repair_after: Option<Cycle>,
}

impl RandomFaults {
    /// Draw a deterministic schedule for `topo`: `failures` distinct
    /// switch-to-switch cables fail at uniform-random cycles inside the
    /// window, each repaired `repair_after` cycles later. The draw is a
    /// pure function of `(self, topo)`.
    pub fn schedule(&self, topo: &Topology) -> FaultSchedule {
        // Enumerate each trunk cable once, from its lower endpoint.
        let mut cables: Vec<(SwitchId, PortId)> = Vec::new();
        for s in topo.switch_ids() {
            for p in topo.switch(s).connected() {
                if let Some((Endpoint::Switch(o, op), _)) = topo.peer(s, p) {
                    if (s.index(), p.index()) < (o.index(), op.index()) {
                        cables.push((s, p));
                    }
                }
            }
        }
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0xFAB1_7000_0000_0001);
        let mut schedule = FaultSchedule::new();
        let n = self.failures.min(cables.len());
        for _ in 0..n {
            let i = rng.random_range(0..cables.len());
            let (s, p) = cables.swap_remove(i);
            let span = self.window_end.saturating_sub(self.window_start).max(1);
            let at = self.window_start + rng.random_range(0..span);
            schedule.link_down(at, s, p);
            if let Some(repair) = self.repair_after {
                schedule.link_up(at + repair, s, p);
            }
        }
        schedule
    }
}

/// Cycles between a topology change and the moment the recomputed
/// routing tables take effect network-wide. During this window the old
/// tables stay in force: traffic routed at a dead cable waits (or is
/// lost), modelling the management-plane delay of real subnet managers.
/// Destinations orphaned by a switch failure stay unreachable at least
/// this long. ≈ 25 µs at the paper's 25.6 ns cycle: a fast local
/// re-route, long enough for congestion to pool upstream of the fault.
pub const REROUTE_LATENCY_CYCLES: Cycle = 1000;

#[cfg(test)]
mod tests {
    use super::*;
    use ccfit_topology::{KAryNTree, LinkParams};

    fn tree() -> Topology {
        KAryNTree::new(2, 3).build(LinkParams::default())
    }

    #[test]
    fn push_keeps_events_sorted_and_stable() {
        let mut s = FaultSchedule::new();
        s.link_down(500, SwitchId(0), PortId(2));
        s.link_up(100, SwitchId(0), PortId(2));
        s.switch_down(500, SwitchId(3));
        let ats: Vec<Cycle> = s.events().iter().map(|e| e.at).collect();
        assert_eq!(ats, vec![100, 500, 500]);
        // Same-cycle events keep insertion order.
        assert!(matches!(s.events()[1].event, NetworkEvent::LinkDown { .. }));
        assert!(matches!(
            s.events()[2].event,
            NetworkEvent::SwitchDown { .. }
        ));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn validate_accepts_trunk_cables() {
        let t = tree();
        let mut s = FaultSchedule::new();
        s.link_down(10, SwitchId(0), PortId(2));
        s.switch_down(20, SwitchId(5));
        s.validate(&t).unwrap();
    }

    #[test]
    fn validate_rejects_bad_targets() {
        let t = tree();
        let mut s = FaultSchedule::new();
        s.link_down(10, SwitchId(99), PortId(0));
        assert_eq!(s.validate(&t), Err(FaultError::UnknownSwitch(SwitchId(99))));

        let mut s = FaultSchedule::new();
        s.link_down(10, SwitchId(0), PortId(99));
        assert!(matches!(
            s.validate(&t),
            Err(FaultError::PortOutOfRange(..))
        ));

        // Port 0 of a leaf switch is a node cable.
        let mut s = FaultSchedule::new();
        s.link_down(10, SwitchId(0), PortId(0));
        assert!(matches!(s.validate(&t), Err(FaultError::NodeCable(..))));
    }

    #[test]
    fn random_storms_are_seed_deterministic() {
        let t = tree();
        let cfg = RandomFaults {
            seed: 7,
            failures: 3,
            window_start: 1000,
            window_end: 5000,
            repair_after: Some(2000),
        };
        let a = cfg.schedule(&t);
        let b = cfg.schedule(&t);
        assert_eq!(a, b, "same seed, same storm");
        assert_eq!(a.len(), 6, "3 failures + 3 repairs");
        a.validate(&t).unwrap();
        let c = RandomFaults { seed: 8, ..cfg }.schedule(&t);
        assert_ne!(a, c, "different seed, different storm");
        // Every failure lands inside the window; repairs follow by the
        // configured delay.
        for e in a.events() {
            match e.event {
                NetworkEvent::LinkDown { .. } => {
                    assert!(e.at >= 1000 && e.at < 5000);
                }
                NetworkEvent::LinkUp { .. } => assert!(e.at >= 3000),
                _ => panic!("unexpected event kind"),
            }
        }
    }

    #[test]
    fn random_storm_draws_distinct_cables() {
        let t = tree();
        let cfg = RandomFaults {
            seed: 3,
            failures: 16, // 2-ary 3-tree has 16 trunk cables
            window_start: 0,
            window_end: 100,
            repair_after: None,
        };
        let s = cfg.schedule(&t);
        assert_eq!(s.len(), 16);
        let mut targets: Vec<(SwitchId, Option<PortId>)> =
            s.events().iter().map(|e| e.event.target()).collect();
        targets.sort_by_key(|(s, p)| (s.index(), p.map(|p| p.index())));
        targets.dedup();
        assert_eq!(targets.len(), 16, "each cable fails at most once");
    }

    #[test]
    fn serde_round_trip() {
        let t = tree();
        let mut s = FaultSchedule::new();
        s.link_down(10, SwitchId(0), PortId(2))
            .link_up(30, SwitchId(0), PortId(2));
        s.validate(&t).unwrap();
        let json = serde_json::to_string(&s).unwrap();
        let back: FaultSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
