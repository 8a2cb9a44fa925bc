//! The `CongestionControl` trait: the three roles every closed-loop CC
//! scheme plays, factored out of the switch/endnode code paths.
//!
//! A congestion-control mechanism is the composition of
//!
//! 1. **detection** — *where in the network congestion is recognised*:
//!    a queue-occupancy trigger at switch output ports (ITh's VOQ sum,
//!    CCFIT's root CFQs, DCQCN's RED ramp) or continuous telemetry
//!    (HPCC's INT), evaluated during the switch phases of the tick
//!    (Phase 5 congestion-state for the paper schemes, Phase 6 transmit
//!    for per-packet ECN/INT);
//! 2. **marking / feedback** — *how the signal travels to the source*:
//!    FECN bits turned into BECNs at the destination, ECN-CE bits turned
//!    into CNPs, or INT records echoed in ACKs. Feedback packets are
//!    always generated at end nodes during Phase 3 (node-bound
//!    deliveries);
//! 3. **source reaction** — *what the injecting end node does about it*:
//!    CCT-indexed inter-packet delays (IB-style), a DCQCN rate machine,
//!    or an HPCC window machine, all applied in the adapter's injection
//!    arbitration (Phase 8 side of the end node).
//!
//! The simulator consumes these three policies when assembling a run;
//! mechanisms with `None` policies cost nothing at tick time. The six
//! paper mechanisms map onto the trait without behavior change — their
//! policies carry exactly the parameter structs the switch/endnode
//! code already derived its configuration from, which is pinned by the
//! golden SimReport snapshots.

use crate::mechanism::Mechanism;
use crate::params::{DcqcnParams, HpccParams, IsolationParams, ThrottleParams};

/// Where and how congestion is recognised (role 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DetectionPolicy<'a> {
    /// No explicit congestion detection (1Q, VOQsw, VOQnet, DBBM).
    None,
    /// Isolation-only detection: NFQ occupancy allocates CFQs/CAM lines
    /// and drives Stop/Go, but no marking results (FBICM).
    Isolation(&'a IsolationParams),
    /// ITh: aggregate VOQ occupancy in front of an output port crosses
    /// the High/Low hysteresis thresholds.
    OutputOccupancy(&'a ThrottleParams),
    /// CCFIT: a *root* CFQ's occupancy (plus starvation + entry-delay
    /// filters) drives the output's congestion state; isolation runs
    /// alongside.
    RootCfq(&'a IsolationParams, &'a ThrottleParams),
    /// DCQCN: RED-style probabilistic marking ramp on the aggregate
    /// queue depth in front of an output port (Kmin/Kmax/Pmax).
    EcnQueue(&'a DcqcnParams),
    /// HPCC: no trigger at all — every data packet continuously samples
    /// per-hop queue depth and transmitted bytes over a window T.
    IntWindow(&'a HpccParams),
}

/// How the congestion signal travels back to the source (role 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeedbackPolicy<'a> {
    /// No end-to-end feedback (the queueing-only schemes and FBICM,
    /// whose Stop/Go signalling is hop-by-hop link-level control).
    None,
    /// IB-style: FECN bit set on data packets crossing a congested
    /// output; the destination returns one BECN per marked packet.
    FecnBecn(&'a ThrottleParams),
    /// DCQCN: ECN-CE bit; the destination returns CNPs, rate-limited to
    /// one per `cnp_interval_ns` per source.
    EcnCnp(&'a DcqcnParams),
    /// HPCC: the INT record folded along the path is echoed to the
    /// source in a per-packet ACK.
    IntAck(&'a HpccParams),
}

/// What the source does with the feedback (role 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReactionPolicy<'a> {
    /// No source reaction.
    None,
    /// IB-style CCT throttling: BECNs bump a per-destination CCTI whose
    /// CCT entry is an inter-packet injection delay; a timer decays it.
    CctThrottle(&'a ThrottleParams),
    /// DCQCN rate machine: alpha-EWMA multiplicative decrease on CNPs,
    /// fast-recovery / additive / hyper increase on timer + byte
    /// counters (see [`crate::DcqcnFlow`]).
    DcqcnRate(&'a DcqcnParams),
    /// HPCC window machine: multiplicative adjustment of a
    /// per-destination byte window toward η utilization
    /// (see [`crate::HpccFlow`]).
    HpccWindow(&'a HpccParams),
}

/// The three-role decomposition of a congestion-control scheme.
///
/// Implemented by [`Mechanism`]; the simulator assembles its switch
/// marking configuration, destination feedback generators and adapter
/// reaction state from these policies alone.
pub trait CongestionControl {
    /// Role 1: how congestion is recognised.
    fn detection(&self) -> DetectionPolicy<'_>;
    /// Role 2: how the signal reaches the source.
    fn feedback(&self) -> FeedbackPolicy<'_>;
    /// Role 3: how the source reacts.
    fn reaction(&self) -> ReactionPolicy<'_>;

    /// True if any role is active (i.e. the scheme is more than plain
    /// queueing).
    fn is_closed_loop(&self) -> bool {
        !matches!(self.feedback(), FeedbackPolicy::None)
    }
}

impl CongestionControl for Mechanism {
    fn detection(&self) -> DetectionPolicy<'_> {
        match self {
            Mechanism::OneQ
            | Mechanism::VoqSw
            | Mechanism::VoqNet { .. }
            | Mechanism::Dbbm { .. } => DetectionPolicy::None,
            Mechanism::Fbicm(iso) => DetectionPolicy::Isolation(iso),
            Mechanism::Ith(t) => DetectionPolicy::OutputOccupancy(t),
            Mechanism::Ccfit(iso, t) => DetectionPolicy::RootCfq(iso, t),
            Mechanism::Dcqcn(d) => DetectionPolicy::EcnQueue(d),
            Mechanism::Hpcc(h) => DetectionPolicy::IntWindow(h),
        }
    }

    fn feedback(&self) -> FeedbackPolicy<'_> {
        match self {
            Mechanism::OneQ
            | Mechanism::VoqSw
            | Mechanism::VoqNet { .. }
            | Mechanism::Dbbm { .. }
            | Mechanism::Fbicm(_) => FeedbackPolicy::None,
            Mechanism::Ith(t) | Mechanism::Ccfit(_, t) => FeedbackPolicy::FecnBecn(t),
            Mechanism::Dcqcn(d) => FeedbackPolicy::EcnCnp(d),
            Mechanism::Hpcc(h) => FeedbackPolicy::IntAck(h),
        }
    }

    fn reaction(&self) -> ReactionPolicy<'_> {
        match self {
            Mechanism::OneQ
            | Mechanism::VoqSw
            | Mechanism::VoqNet { .. }
            | Mechanism::Dbbm { .. }
            | Mechanism::Fbicm(_) => ReactionPolicy::None,
            Mechanism::Ith(t) | Mechanism::Ccfit(_, t) => ReactionPolicy::CctThrottle(t),
            Mechanism::Dcqcn(d) => ReactionPolicy::DcqcnRate(d),
            Mechanism::Hpcc(h) => ReactionPolicy::HpccWindow(h),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mechanisms_map_to_legacy_policies() {
        // The trait mapping must agree with the legacy accessors the
        // simulator derived its configuration from pre-refactor — this
        // is the compile-time half of the no-behavior-change guarantee
        // (the golden snapshots are the runtime half).
        for m in Mechanism::paper_set() {
            match (m.detection(), m.throttle(), m.isolation()) {
                (DetectionPolicy::None, None, None) => {}
                (DetectionPolicy::Isolation(iso), None, Some(iso2)) => assert_eq!(iso, iso2),
                (DetectionPolicy::OutputOccupancy(t), Some(t2), None) => assert_eq!(t, t2),
                (DetectionPolicy::RootCfq(iso, t), Some(t2), Some(iso2)) => {
                    assert_eq!(iso, iso2);
                    assert_eq!(t, t2);
                }
                other => panic!("{}: inconsistent mapping {:?}", m.name(), other.0),
            }
            match (m.feedback(), m.throttle()) {
                (FeedbackPolicy::None, None) => {}
                (FeedbackPolicy::FecnBecn(t), Some(t2)) => assert_eq!(t, t2),
                _ => panic!("{}: feedback/throttle disagree", m.name()),
            }
        }
    }

    #[test]
    fn closed_loop_classification() {
        assert!(!Mechanism::OneQ.is_closed_loop());
        assert!(!Mechanism::fbicm().is_closed_loop()); // Stop/Go is hop-by-hop
        assert!(Mechanism::ith().is_closed_loop());
        assert!(Mechanism::ccfit().is_closed_loop());
        assert!(Mechanism::dcqcn().is_closed_loop());
        assert!(Mechanism::hpcc().is_closed_loop());
    }

    #[test]
    fn modern_policies_carry_their_params() {
        match Mechanism::dcqcn().detection() {
            DetectionPolicy::EcnQueue(d) => assert_eq!(d.kmax_mtus, 8),
            other => panic!("unexpected {other:?}"),
        }
        match Mechanism::hpcc().reaction() {
            ReactionPolicy::HpccWindow(h) => assert_eq!(h.eta, 0.95),
            other => panic!("unexpected {other:?}"),
        }
    }
}
