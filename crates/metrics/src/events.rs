//! Structured congestion-control event log.
//!
//! The paper's whole argument (§IV) is read off *internal* CC dynamics —
//! congestion-state transitions at root ports, CFQ allocation and
//! release, FECN/BECN traffic, CCT index movement — so the simulator
//! records them as first-class [`CcEvent`]s instead of leaving them
//! implicit in throughput curves. Each occurrence is recorded once, by
//! [`MetricsCollector::record`](crate::MetricsCollector::record): it
//! bumps the counters [`CcEventKind::counters`] names and offers the
//! event to the collector's [`EventLog`] (see DESIGN.md §10), so the
//! counters a report prints and the log cannot drift apart.

use ccfit_engine::units::Cycle;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Bitmask of event classes — the `SimBuilder` knob that selects which
/// event families are recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventClass(pub u16);

impl EventClass {
    /// No events.
    pub const NONE: EventClass = EventClass(0);
    /// Congestion-state enter/leave at switch output ports.
    pub const CONGESTION: EventClass = EventClass(1 << 0);
    /// CFQ allocate/release/exhaustion (switch and injection adapter).
    pub const CFQ: EventClass = EventClass(1 << 1);
    /// CAM exhaustion (switch output CAMs and adapter IA-CAMs).
    pub const CAM: EventClass = EventClass(1 << 2);
    /// FECN marks placed on data packets.
    pub const FECN: EventClass = EventClass(1 << 3);
    /// BECN generation at destinations and reception at sources.
    pub const BECN: EventClass = EventClass(1 << 4);
    /// CCT-index increases (on BECN) and timer-driven decays.
    pub const CCTI: EventClass = EventClass(1 << 5);
    /// Stop/Go flow-control transitions between CFQ stages.
    pub const STOP_GO: EventClass = EventClass(1 << 6);
    /// Injection-throttle delays actually imposed on packets.
    pub const THROTTLE: EventClass = EventClass(1 << 7);
    /// Fault-schedule applications and re-route completions.
    pub const FAULT: EventClass = EventClass(1 << 8);
    /// Per-packet delivery records (for cross-validation against the
    /// aggregate series; high volume).
    pub const DELIVERY: EventClass = EventClass(1 << 9);
    /// ECN-CE marks placed on data packets (DCQCN-style schemes).
    pub const ECN: EventClass = EventClass(1 << 10);
    /// CNP generation at destinations and reception at sources.
    pub const CNP: EventClass = EventClass(1 << 11);
    /// INT feedback: folded telemetry echoed to sources via ACKs.
    pub const INT: EventClass = EventClass(1 << 12);
    /// Source rate/window changes by the modern reaction machines.
    pub const RATE: EventClass = EventClass(1 << 13);
    /// Every event class.
    pub const ALL: EventClass = EventClass((1 << 14) - 1);

    /// True when every class in `other` is enabled in `self`.
    #[inline]
    pub fn contains(self, other: EventClass) -> bool {
        self.0 & other.0 == other.0
    }

    /// True when no class is enabled.
    #[inline]
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl Default for EventClass {
    /// Defaults to [`EventClass::NONE`] — recording is opt-in.
    fn default() -> Self {
        EventClass::NONE
    }
}

impl std::ops::BitOr for EventClass {
    type Output = EventClass;
    fn bitor(self, rhs: EventClass) -> EventClass {
        EventClass(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for EventClass {
    fn bitor_assign(&mut self, rhs: EventClass) {
        self.0 |= rhs.0;
    }
}

/// What happened. Switch-side events carry the switch id and the local
/// port; adapter-side events carry the node id. All ids are raw indices
/// (`SwitchId::0`, `NodeId::0`, …) so the log stays `Copy` and compact.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CcEventKind {
    /// A switch output port entered the congested marking state.
    /// `occupancy_flits` is the queue occupancy that drove the
    /// transition: the summed root-CFQ occupancy feeding the port
    /// (FBICM/CCFIT) or the VOQ occupancy (ITh-style detection).
    CongestionEnter {
        /// Switch id.
        sw: u32,
        /// Output port.
        port: u32,
        /// Driving queue occupancy in flits.
        occupancy_flits: u32,
    },
    /// A switch output port left the congested marking state.
    CongestionLeave {
        /// Switch id.
        sw: u32,
        /// Output port.
        port: u32,
        /// Driving queue occupancy in flits.
        occupancy_flits: u32,
    },
    /// A CFQ was allocated at a switch input port.
    CfqAlloc {
        /// Switch id.
        sw: u32,
        /// Input port holding the CFQ.
        port: u32,
        /// Congested destination the CFQ isolates.
        dst: u32,
        /// True when this is a root allocation (congestion detected
        /// here) rather than a propagated one.
        root: bool,
    },
    /// A switch CFQ drained and was released.
    CfqDealloc {
        /// Switch id.
        sw: u32,
        /// Input port.
        port: u32,
        /// Destination it isolated.
        dst: u32,
    },
    /// An exhaustion episode ended: for `cycles` cycles up to `at`, every
    /// visit of a switch input port found a CFQ needed for `dst` and the
    /// port's CFQ pool exhausted. Logged once, when a visit first finds
    /// the site otherwise (or at the end of the run); credits `cycles` to
    /// `cfq_exhausted`.
    CfqExhausted {
        /// Switch id.
        sw: u32,
        /// Input port.
        port: u32,
        /// Destination that could not be isolated.
        dst: u32,
        /// True at the detection site (the CFQ would have been a root),
        /// false at the move site (a head of a propagated tree).
        root: bool,
        /// The episode's length: `at` minus the cycle it began.
        cycles: u64,
    },
    /// An injection-adapter CFQ was allocated.
    IaCfqAlloc {
        /// Node id.
        node: u32,
        /// Congested destination.
        dst: u32,
    },
    /// An injection-adapter CFQ drained and was released.
    IaCfqDealloc {
        /// Node id.
        node: u32,
        /// Destination it isolated.
        dst: u32,
    },
    /// An injection-adapter CFQ was needed but the pool was exhausted.
    IaCfqExhausted {
        /// Node id.
        node: u32,
        /// Destination that could not be isolated.
        dst: u32,
    },
    /// A propagated allocation notification was accepted upstream.
    AllocPropagated {
        /// Switch id.
        sw: u32,
        /// Input port that allocated in response.
        port: u32,
        /// Congested destination.
        dst: u32,
    },
    /// A switch output CAM had no free entry for a notification.
    CamExhausted {
        /// Switch id.
        sw: u32,
        /// Output port.
        port: u32,
        /// Destination the notification was for.
        dst: u32,
    },
    /// An injection-adapter CAM had no free entry.
    IaCamExhausted {
        /// Node id.
        node: u32,
        /// Destination the notification was for.
        dst: u32,
    },
    /// A data packet was FECN-marked while crossing a congested output.
    FecnMark {
        /// Switch id.
        sw: u32,
        /// Congested output port.
        port: u32,
        /// Packet destination.
        dst: u32,
        /// Packet flow.
        flow: u32,
    },
    /// A destination node turned a FECN-marked delivery into a BECN.
    BecnGenerated {
        /// Destination node generating the BECN.
        node: u32,
        /// Source node the BECN travels back to.
        src: u32,
    },
    /// A source adapter received a BECN.
    BecnReceived {
        /// Receiving (source) node.
        node: u32,
        /// Congested destination the BECN refers to.
        dst: u32,
    },
    /// A source adapter's CCT index for `dst` increased (BECN arrival).
    CctiIncrease {
        /// Source node.
        node: u32,
        /// Congested destination.
        dst: u32,
        /// New CCT index.
        ccti: u32,
        /// New inter-release delay `CCT[ccti]` in cycles — the
        /// throttle-delay change this implies.
        ird_cycles: u64,
    },
    /// A source adapter's CCT index for `dst` decayed (timer expiry).
    CctiDecay {
        /// Source node.
        node: u32,
        /// Destination.
        dst: u32,
        /// New CCT index.
        ccti: u32,
        /// New inter-release delay in cycles.
        ird_cycles: u64,
    },
    /// A Stop notification was sent upstream for a CFQ.
    StopSent {
        /// Switch id.
        sw: u32,
        /// Input port whose CFQ filled.
        port: u32,
        /// Destination of the stopped CFQ.
        dst: u32,
    },
    /// A Go notification was sent upstream for a CFQ.
    GoSent {
        /// Switch id.
        sw: u32,
        /// Input port whose CFQ drained.
        port: u32,
        /// Destination of the resumed CFQ.
        dst: u32,
    },
    /// A Stop notification was received at a switch output.
    StopReceived {
        /// Switch id.
        sw: u32,
        /// Output port.
        port: u32,
        /// Destination of the stopped flow set.
        dst: u32,
    },
    /// A Go notification was received at a switch output.
    GoReceived {
        /// Switch id.
        sw: u32,
        /// Output port.
        port: u32,
        /// Destination of the resumed flow set.
        dst: u32,
    },
    /// An injection was delayed by the throttle (non-zero IRD).
    ThrottledInjection {
        /// Injecting node.
        node: u32,
        /// Throttled destination.
        dst: u32,
        /// Imposed inter-release delay in cycles.
        ird_cycles: u64,
    },
    /// A fault-schedule event was applied to the network.
    Fault {
        /// Which kind of event.
        kind: FaultKind,
        /// Affected switch.
        sw: u32,
        /// Affected port (0 for whole-switch events).
        port: u32,
    },
    /// Live re-routing around a topology change completed.
    RerouteDone {
        /// Nodes left unreachable after the re-route.
        unreachable_nodes: u32,
    },
    /// A data packet reached its destination (cross-validation record).
    Delivered {
        /// Destination node.
        node: u32,
        /// Flow the packet belongs to.
        flow: u32,
        /// Payload bytes.
        bytes: u32,
        /// In-network latency in cycles.
        latency_cycles: u64,
        /// True when the packet arrived FECN-marked.
        fecn: bool,
    },
    /// A data packet was ECN-CE-marked crossing a switch output queue
    /// (DCQCN-style RED marking).
    EcnMark {
        /// Switch id.
        sw: u32,
        /// Output port whose queue drove the mark.
        port: u32,
        /// Packet destination.
        dst: u32,
        /// Queue occupancy (flits) at marking time.
        occupancy_flits: u32,
    },
    /// A destination turned an ECN-marked delivery into a CNP.
    CnpGenerated {
        /// Destination node generating the CNP.
        node: u32,
        /// Source node the CNP travels back to.
        src: u32,
    },
    /// A source adapter received a CNP.
    CnpReceived {
        /// Receiving (source) node.
        node: u32,
        /// Congested destination the CNP refers to.
        dst: u32,
    },
    /// INT feedback reached a source: an ACK echoed the folded per-hop
    /// telemetry of a delivered data packet.
    IntFeedback {
        /// Receiving (source) node.
        node: u32,
        /// Destination the sample describes the path to.
        dst: u32,
        /// Folded max hop utilization ×1e6 (kept integral so the event
        /// stays `Eq`-friendly and compact).
        u_ppm: u64,
        /// Hops that contributed to the fold.
        hops: u8,
    },
    /// A DCQCN rate machine changed its current rate.
    RateChange {
        /// Source node.
        node: u32,
        /// Destination whose flow changed.
        dst: u32,
        /// New current rate as parts-per-million of line rate.
        rate_ppm: u64,
        /// True for a multiplicative cut, false for an increase stage.
        decrease: bool,
    },
    /// An HPCC window machine changed its window.
    WindowChange {
        /// Source node.
        node: u32,
        /// Destination whose flow changed.
        dst: u32,
        /// New window in bytes.
        window_bytes: u64,
        /// True when the update shrank the window.
        decrease: bool,
    },
}

impl CcEventKind {
    /// The class this kind belongs to (for mask checks).
    pub fn class(&self) -> EventClass {
        use CcEventKind::*;
        match self {
            CongestionEnter { .. } | CongestionLeave { .. } => EventClass::CONGESTION,
            CfqAlloc { .. }
            | CfqDealloc { .. }
            | CfqExhausted { .. }
            | IaCfqAlloc { .. }
            | IaCfqDealloc { .. }
            | IaCfqExhausted { .. }
            | AllocPropagated { .. } => EventClass::CFQ,
            CamExhausted { .. } | IaCamExhausted { .. } => EventClass::CAM,
            FecnMark { .. } => EventClass::FECN,
            BecnGenerated { .. } | BecnReceived { .. } => EventClass::BECN,
            CctiIncrease { .. } | CctiDecay { .. } => EventClass::CCTI,
            StopSent { .. } | GoSent { .. } | StopReceived { .. } | GoReceived { .. } => {
                EventClass::STOP_GO
            }
            ThrottledInjection { .. } => EventClass::THROTTLE,
            Fault { .. } | RerouteDone { .. } => EventClass::FAULT,
            Delivered { .. } => EventClass::DELIVERY,
            EcnMark { .. } => EventClass::ECN,
            CnpGenerated { .. } | CnpReceived { .. } => EventClass::CNP,
            IntFeedback { .. } => EventClass::INT,
            RateChange { .. } | WindowChange { .. } => EventClass::RATE,
        }
    }

    /// The counters one occurrence of this kind bumps by
    /// [`Self::weight`], whether or not the log records it: fixed names,
    /// plus a per-site name for root CFQ allocations and FECN marks.
    /// Always inlined, like
    /// [`MetricsCollector::record`](crate::MetricsCollector::record).
    #[inline(always)]
    pub fn counters(&self) -> (&'static [&'static str], Option<SiteCounter>) {
        use CcEventKind::*;
        match *self {
            CfqAlloc {
                sw,
                port,
                dst,
                root: true,
            } => (
                &["cfq_allocated", "congestion_detected"],
                Some(SiteCounter {
                    what: "detected",
                    side: "in",
                    sw,
                    port,
                    dst,
                }),
            ),
            CfqAlloc { root: false, .. } => (&["cfq_allocated"], None),
            CfqDealloc { .. } => (&["cfq_deallocated"], None),
            CfqExhausted { .. } => (&["cfq_exhausted"], None),
            IaCfqAlloc { .. } => (&["ia_cfq_allocated"], None),
            IaCfqDealloc { .. } => (&["ia_cfq_deallocated"], None),
            IaCfqExhausted { .. } => (&["ia_cfq_exhausted"], None),
            AllocPropagated { .. } => (&["allocs_propagated"], None),
            CamExhausted { .. } => (&["out_cam_exhausted"], None),
            IaCamExhausted { .. } => (&["ia_cam_exhausted"], None),
            FecnMark { sw, port, dst, .. } => (
                &["fecn_marked"],
                Some(SiteCounter {
                    what: "fecn_marked",
                    side: "out",
                    sw,
                    port,
                    dst,
                }),
            ),
            BecnGenerated { .. } => (&["becn_generated"], None),
            BecnReceived { .. } => (&["becn_received"], None),
            StopSent { .. } => (&["stops_sent"], None),
            GoSent { .. } => (&["gos_sent"], None),
            StopReceived { .. } => (&["stops_received"], None),
            GoReceived { .. } => (&["gos_received"], None),
            ThrottledInjection { .. } => (&["throttled_injections"], None),
            EcnMark { .. } => (&["ecn_marked"], None),
            CnpGenerated { .. } => (&["cnp_generated"], None),
            CnpReceived { .. } => (&["cnp_received"], None),
            IntFeedback { .. } => (&["ack_received"], None),
            CongestionEnter { .. }
            | CongestionLeave { .. }
            | CctiIncrease { .. }
            | CctiDecay { .. }
            | Fault { .. }
            | RerouteDone { .. }
            | Delivered { .. }
            | RateChange { .. }
            | WindowChange { .. } => (&[], None),
        }
    }

    /// What one occurrence adds to each counter [`Self::counters`] names:
    /// the cycles of a `CfqExhausted` episode, 1 for every other kind.
    #[inline(always)]
    pub fn weight(&self) -> u64 {
        match *self {
            CcEventKind::CfqExhausted { cycles, .. } => cycles,
            _ => 1,
        }
    }
}

/// A counter named after the place an occurrence happened,
/// `{what}_sw{sw}_{side}{port}_dst{dst}` (e.g.
/// `fecn_marked_sw3_out1_dst7`): the per-(switch, port, destination)
/// breakdown of a total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteCounter {
    /// Counter family (`detected`, `fecn_marked`).
    pub what: &'static str,
    /// `in` for an input port, `out` for an output port.
    pub side: &'static str,
    /// Switch id.
    pub sw: u32,
    /// Port on that side.
    pub port: u32,
    /// Destination.
    pub dst: u32,
}

impl fmt::Display for SiteCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let SiteCounter {
            what,
            side,
            sw,
            port,
            dst,
        } = self;
        write!(f, "{what}_sw{sw}_{side}{port}_dst{dst}")
    }
}

/// The kind of an applied fault-schedule event, as seen by the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A directed link failed.
    LinkDown,
    /// A failed link was repaired.
    LinkUp,
    /// A whole switch failed.
    SwitchDown,
    /// A failed switch was repaired.
    SwitchUp,
}

/// One timestamped CC event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CcEvent {
    /// Simulator cycle at which the event fired.
    pub at: Cycle,
    /// What happened.
    pub kind: CcEventKind,
}

/// Event-log configuration: the `SimBuilder` knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventConfig {
    /// Which event classes to record.
    pub classes: EventClass,
    /// Ring capacity — the most events the log will hold. Overflow
    /// evicts the oldest event and advances the drop counter.
    pub cap: usize,
}

impl Default for EventConfig {
    fn default() -> Self {
        Self {
            classes: EventClass::ALL,
            cap: 1 << 20,
        }
    }
}

/// The collector-side event log: a class mask in front of a bounded
/// FIFO with explicit drop accounting. Once `cap` events are held, the
/// *oldest* is dropped to admit a newer one and the drop counter
/// advances, so truncation is never silent: `dropped_cap() == seen() −`
/// the events held, which is property-tested.
///
/// The class mask and the capacity bound are applied *only here*, on
/// the single event stream.
#[derive(Debug, Clone)]
pub struct EventLog {
    cfg: EventConfig,
    buf: VecDeque<CcEvent>,
    seen: u64,
    dropped_cap: u64,
}

impl EventLog {
    /// An empty log with the given knobs.
    pub fn new(cfg: EventConfig) -> Self {
        Self {
            cfg,
            buf: VecDeque::new(),
            seen: 0,
            dropped_cap: 0,
        }
    }

    /// Offer an event: drop it if masked, otherwise admit it, evicting
    /// the oldest (and counting the drop) when full.
    pub fn offer(&mut self, ev: CcEvent) {
        if !self.cfg.classes.contains(ev.kind.class()) {
            return;
        }
        self.seen += 1;
        if self.cfg.cap == 0 {
            self.dropped_cap += 1;
            return;
        }
        if self.buf.len() == self.cfg.cap {
            self.buf.pop_front();
            self.dropped_cap += 1;
        }
        self.buf.push_back(ev);
    }

    /// Events that passed the class mask so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Events evicted by the capacity bound so far.
    pub fn dropped_cap(&self) -> u64 {
        self.dropped_cap
    }

    /// Iterate the held events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &CcEvent> {
        self.buf.iter()
    }

    /// Freeze into the serializable report section.
    pub fn into_report(self) -> EventLogReport {
        EventLogReport {
            classes: self.cfg.classes.0,
            cap: self.cfg.cap as u64,
            seen: self.seen,
            dropped_cap: self.dropped_cap,
            events: self.buf.into(),
        }
    }
}

/// The event log as it appears inside a frozen
/// [`SimReport`](crate::SimReport).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventLogReport {
    /// Enabled class mask (raw bits).
    pub classes: u16,
    /// Ring capacity that was in effect.
    pub cap: u64,
    /// Events that passed the class mask.
    pub seen: u64,
    /// Events evicted by the capacity bound.
    pub dropped_cap: u64,
    /// The recorded events, in canonical emission order.
    pub events: Vec<CcEvent>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: Cycle) -> CcEvent {
        CcEvent {
            at,
            kind: CcEventKind::FecnMark {
                sw: 1,
                port: 2,
                dst: 3,
                flow: 4,
            },
        }
    }

    #[test]
    fn class_mask_contains() {
        let m = EventClass::FECN | EventClass::BECN;
        assert!(m.contains(EventClass::FECN));
        assert!(!m.contains(EventClass::CFQ));
        assert!(EventClass::ALL.contains(m));
        assert!(EventClass::NONE.is_none());
    }

    #[test]
    fn every_kind_maps_into_all() {
        let kinds = [
            CcEventKind::CongestionEnter {
                sw: 0,
                port: 0,
                occupancy_flits: 0,
            },
            CcEventKind::CfqAlloc {
                sw: 0,
                port: 0,
                dst: 0,
                root: true,
            },
            CcEventKind::CamExhausted {
                sw: 0,
                port: 0,
                dst: 0,
            },
            CcEventKind::FecnMark {
                sw: 0,
                port: 0,
                dst: 0,
                flow: 0,
            },
            CcEventKind::BecnReceived { node: 0, dst: 0 },
            CcEventKind::CctiDecay {
                node: 0,
                dst: 0,
                ccti: 0,
                ird_cycles: 0,
            },
            CcEventKind::StopSent {
                sw: 0,
                port: 0,
                dst: 0,
            },
            CcEventKind::ThrottledInjection {
                node: 0,
                dst: 0,
                ird_cycles: 1,
            },
            CcEventKind::Fault {
                kind: FaultKind::LinkDown,
                sw: 0,
                port: 0,
            },
            CcEventKind::Delivered {
                node: 0,
                flow: 0,
                bytes: 0,
                latency_cycles: 0,
                fecn: false,
            },
        ];
        for k in kinds {
            assert!(EventClass::ALL.contains(k.class()), "{k:?}");
            assert!(!EventClass::NONE.contains(k.class()), "{k:?}");
        }
    }

    /// A log recording every class, holding at most `cap` events.
    fn log_of_all(cap: usize) -> EventLog {
        EventLog::new(EventConfig {
            classes: EventClass::ALL,
            cap,
        })
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut log = log_of_all(3);
        for i in 0..5 {
            log.offer(ev(i));
        }
        assert_eq!(log.iter().count(), 3);
        assert_eq!(log.seen(), 5);
        assert_eq!(log.dropped_cap(), 2);
        let kept: Vec<Cycle> = log.iter().map(|e| e.at).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest events were evicted");
    }

    #[test]
    fn zero_cap_ring_keeps_nothing_but_counts() {
        let mut log = log_of_all(0);
        log.offer(ev(0));
        assert_eq!(log.iter().count(), 0);
        assert_eq!(log.seen(), 1);
        assert_eq!(log.dropped_cap(), 1);
    }

    #[test]
    fn log_masks_classes_and_caps_the_ring() {
        let mut log = EventLog::new(EventConfig {
            classes: EventClass::FECN,
            cap: 2,
        });
        // Masked class: invisible (not even counted as seen).
        log.offer(CcEvent {
            at: 0,
            kind: CcEventKind::BecnReceived { node: 0, dst: 0 },
        });
        assert_eq!(log.seen(), 0);
        for i in 0..5 {
            log.offer(ev(i)); // ring caps at 2 -> drops 0, 1, 2
        }
        assert_eq!(log.seen(), 5);
        assert_eq!(log.dropped_cap(), 3);
        let r = log.into_report();
        assert_eq!(r.events.len(), 2);
        assert_eq!(r.events[0].at, 3);
        assert_eq!(r.events[1].at, 4);
        assert_eq!(r.seen, r.dropped_cap + r.events.len() as u64);
    }

    #[test]
    fn events_round_trip_through_json() {
        let evs = vec![
            ev(7),
            CcEvent {
                at: 9,
                kind: CcEventKind::Fault {
                    kind: FaultKind::SwitchDown,
                    sw: 3,
                    port: 0,
                },
            },
        ];
        let json = serde_json::to_string(&evs).unwrap();
        let back: Vec<CcEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(evs, back);
    }
}
