//! Input-port queue organisation and the CFQ/CAM state of the
//! congested-flow-isolation machinery (Fig. 1 of the paper).
//!
//! Every input port owns a [`ccfit_engine::ram::PortRam`]-backed set of queues whose shape is
//! one of the paper's schemes ([`InputQueues`]). For the isolating
//! organisation (FBICM/CCFIT) each CFQ slot carries the state its CAM
//! line would hold in hardware: the congested destination, the output
//! port it drains through, whether this switch is the congestion root,
//! and the upstream-notification flags.

use ccfit_engine::ids::NodeId;
use ccfit_engine::queue::PacketQueue;
use ccfit_engine::units::Cycle;

/// CAM-line state of one allocated CFQ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfqState {
    /// The congested destination this CFQ isolates (the CAM key;
    /// footnote 3 of the paper).
    pub dst: NodeId,
    /// Output port packets of this destination take at this switch.
    pub out_port: usize,
    /// True when the CFQ was allocated by *local* detection — it is
    /// 1 hop from the congestion point ("the root"); only root CFQs
    /// drive the output port into the congestion state in CCFIT.
    pub root: bool,
    /// `CfqAlloc` notification already sent upstream.
    pub alloc_sent: bool,
    /// `Stop` currently asserted upstream (cleared by `Go`).
    pub stop_sent: bool,
    /// This CFQ currently counts toward its output port's
    /// over-High-threshold counter (CCFIT hysteresis).
    pub over_high: bool,
    /// First cycle of the current above-High stretch (congestion-state
    /// entry hysteresis).
    pub over_high_since: Option<Cycle>,
    /// First cycle of the current *calm* stretch (occupancy persistently
    /// below the propagation threshold). A CFQ is deallocated once it has
    /// been calm for the linger period and is momentarily empty — merely
    /// requiring emptiness would make a CFQ immortal while an innocent
    /// full-rate flow streams through it, pinning the resource forever.
    pub calm_since: Option<Cycle>,
    /// Flits granted from this CFQ since `window_start` (drain-rate
    /// measurement for the starvation test).
    pub granted_window: u32,
    /// Start of the current drain-rate measurement window.
    pub window_start: Cycle,
    /// Result of the last drain-rate evaluation: the CFQ received
    /// markedly less than its output link's capacity — the signature of a
    /// genuinely oversubscribed congestion root. A root CFQ above High
    /// that is *not* starved is just a full-rate flow with a standing
    /// hump (e.g. deposited by a faster upstream link); marking it would
    /// throttle an innocent flow.
    pub starved: bool,
}

impl CfqState {
    /// Fresh state for a newly allocated CFQ.
    pub fn new(dst: NodeId, out_port: usize, root: bool) -> Self {
        Self {
            dst,
            out_port,
            root,
            alloc_sent: false,
            stop_sent: false,
            over_high: false,
            over_high_since: None,
            calm_since: None,
            granted_window: 0,
            window_start: 0,
            starved: false,
        }
    }
}

/// One CFQ slot: a queue plus its CAM line when allocated.
#[derive(Debug, Clone, Default)]
pub struct CfqSlot {
    /// The isolated packets.
    pub queue: PacketQueue,
    /// CAM line; `None` = slot free.
    pub state: Option<CfqState>,
}

/// The queue organisation of one input port.
#[derive(Debug, Clone)]
pub enum InputQueues {
    /// 1Q: a single FIFO.
    Single(PacketQueue),
    /// VOQsw: one queue per output port of the switch.
    PerOutput(Vec<PacketQueue>),
    /// VOQnet: one queue per destination end node.
    PerDest(Vec<PacketQueue>),
    /// FBICM/CCFIT: a normal flow queue plus CFQ slots.
    Isolating {
        /// Non-congested traffic.
        nfq: PacketQueue,
        /// The small set of congested flow queues.
        cfqs: Vec<CfqSlot>,
    },
}

impl InputQueues {
    /// Build the organisation for a scheme.
    pub fn new(
        scheme: crate::params::QueueingScheme,
        num_ports: usize,
        num_dests: usize,
        num_cfqs: usize,
    ) -> Self {
        use crate::params::QueueingScheme as S;
        match scheme {
            S::Single => InputQueues::Single(PacketQueue::new()),
            S::PerOutput => {
                InputQueues::PerOutput((0..num_ports).map(|_| PacketQueue::new()).collect())
            }
            S::PerDest => {
                InputQueues::PerDest((0..num_dests).map(|_| PacketQueue::new()).collect())
            }
            S::Isolating => InputQueues::Isolating {
                nfq: PacketQueue::new(),
                cfqs: (0..num_cfqs).map(|_| CfqSlot::default()).collect(),
            },
        }
    }

    /// Total buffered flits across all queues of the port.
    pub fn total_occupancy_flits(&self) -> u32 {
        match self {
            InputQueues::Single(q) => q.occupancy_flits(),
            InputQueues::PerOutput(qs) | InputQueues::PerDest(qs) => {
                qs.iter().map(|q| q.occupancy_flits()).sum()
            }
            InputQueues::Isolating { nfq, cfqs } => {
                nfq.occupancy_flits() + cfqs.iter().map(|c| c.queue.occupancy_flits()).sum::<u32>()
            }
        }
    }

    /// Total buffered packets.
    pub fn total_packets(&self) -> usize {
        match self {
            InputQueues::Single(q) => q.len(),
            InputQueues::PerOutput(qs) | InputQueues::PerDest(qs) => {
                qs.iter().map(|q| q.len()).sum()
            }
            InputQueues::Isolating { nfq, cfqs } => {
                nfq.len() + cfqs.iter().map(|c| c.queue.len()).sum::<usize>()
            }
        }
    }

    /// Whether no queue of the port holds a packet; stops at the first
    /// one that does.
    pub fn is_empty(&self) -> bool {
        match self {
            InputQueues::Single(q) => q.is_empty(),
            InputQueues::PerOutput(qs) | InputQueues::PerDest(qs) => {
                qs.iter().all(|q| q.is_empty())
            }
            InputQueues::Isolating { nfq, cfqs } => {
                nfq.is_empty() && cfqs.iter().all(|c| c.queue.is_empty())
            }
        }
    }

    /// Buffered *data* packets (conservation checks exclude in-band
    /// control notifications such as BECNs).
    pub fn total_data_packets(&self) -> usize {
        let count = |q: &PacketQueue| q.iter().filter(|e| e.packet.is_data()).count();
        match self {
            InputQueues::Single(q) => count(q),
            InputQueues::PerOutput(qs) | InputQueues::PerDest(qs) => qs.iter().map(count).sum(),
            InputQueues::Isolating { nfq, cfqs } => {
                count(nfq) + cfqs.iter().map(|c| count(&c.queue)).sum::<usize>()
            }
        }
    }

    /// Index of the allocated CFQ isolating `dst`, if any (the CAM
    /// lookup).
    pub fn cfq_lookup(&self, dst: NodeId) -> Option<usize> {
        match self {
            InputQueues::Isolating { cfqs, .. } => cfqs
                .iter()
                .position(|c| matches!(c.state, Some(s) if s.dst == dst)),
            _ => None,
        }
    }

    /// Index of a free CFQ slot, if any.
    pub fn cfq_free_slot(&self) -> Option<usize> {
        match self {
            InputQueues::Isolating { cfqs, .. } => cfqs.iter().position(|c| c.state.is_none()),
            _ => None,
        }
    }

    /// Number of currently allocated CFQs.
    pub fn cfqs_allocated(&self) -> usize {
        match self {
            InputQueues::Isolating { cfqs, .. } => {
                cfqs.iter().filter(|c| c.state.is_some()).count()
            }
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::QueueingScheme;
    use ccfit_engine::ids::{FlowId, PacketId};
    use ccfit_engine::packet::Packet;

    fn pkt(flits: u32) -> Packet {
        Packet::data(
            PacketId(0),
            NodeId(0),
            NodeId(1),
            flits,
            flits * 64,
            FlowId(0),
            0,
        )
    }

    #[test]
    fn construction_shapes() {
        let s = InputQueues::new(QueueingScheme::Single, 4, 8, 2);
        assert!(matches!(s, InputQueues::Single(_)));
        let po = InputQueues::new(QueueingScheme::PerOutput, 4, 8, 2);
        match po {
            InputQueues::PerOutput(qs) => assert_eq!(qs.len(), 4),
            _ => panic!(),
        }
        let pd = InputQueues::new(QueueingScheme::PerDest, 4, 8, 2);
        match pd {
            InputQueues::PerDest(qs) => assert_eq!(qs.len(), 8),
            _ => panic!(),
        }
        let iso = InputQueues::new(QueueingScheme::Isolating, 4, 8, 2);
        match &iso {
            InputQueues::Isolating { cfqs, .. } => assert_eq!(cfqs.len(), 2),
            _ => panic!(),
        }
    }

    #[test]
    fn occupancy_sums_across_queues() {
        let mut q = InputQueues::new(QueueingScheme::PerOutput, 3, 8, 0);
        if let InputQueues::PerOutput(qs) = &mut q {
            qs[0].push(pkt(8), 0, 0);
            qs[2].push(pkt(4), 0, 0);
        }
        assert_eq!(q.total_occupancy_flits(), 12);
        assert_eq!(q.total_packets(), 2);
    }

    #[test]
    fn cfq_lookup_and_free_slot() {
        let mut q = InputQueues::new(QueueingScheme::Isolating, 4, 8, 2);
        assert_eq!(q.cfq_lookup(NodeId(4)), None);
        assert_eq!(q.cfq_free_slot(), Some(0));
        if let InputQueues::Isolating { cfqs, .. } = &mut q {
            cfqs[0].state = Some(CfqState::new(NodeId(4), 1, true));
        }
        assert_eq!(q.cfq_lookup(NodeId(4)), Some(0));
        assert_eq!(q.cfq_lookup(NodeId(5)), None);
        assert_eq!(q.cfq_free_slot(), Some(1));
        assert_eq!(q.cfqs_allocated(), 1);
        if let InputQueues::Isolating { cfqs, .. } = &mut q {
            cfqs[1].state = Some(CfqState::new(NodeId(5), 1, false));
        }
        assert_eq!(q.cfq_free_slot(), None);
    }

    #[test]
    fn non_isolating_schemes_have_no_cfqs() {
        let q = InputQueues::new(QueueingScheme::Single, 4, 8, 2);
        assert_eq!(q.cfq_lookup(NodeId(0)), None);
        assert_eq!(q.cfq_free_slot(), None);
        assert_eq!(q.cfqs_allocated(), 0);
    }

    #[test]
    fn fresh_cfq_state_flags() {
        let s = CfqState::new(NodeId(3), 2, true);
        assert!(s.root);
        assert!(!s.alloc_sent && !s.stop_sent && !s.over_high);
        assert_eq!(s.calm_since, None);
    }
}
