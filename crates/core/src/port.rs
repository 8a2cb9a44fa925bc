//! Input-port queue organisation and the CFQ/CAM state of the
//! congested-flow-isolation machinery (Fig. 1 of the paper).
//!
//! Every input port owns a [`ccfit_engine::ram::PortRam`]-backed set of
//! queues in one of two organisations ([`InputQueues`]):
//! - *static* (1Q, VOQsw, VOQnet): a fixed set of FIFOs, a packet's
//!   queue keyed by its routed output port or by its destination modulo
//!   the queue count ([`StaticKey`]);
//! - *isolating* (FBICM/CCFIT): one normal flow queue plus CFQ slots.
//!   Each slot carries the state its CAM line would hold in hardware: the
//!   congested destination, the output port it drains through, whether
//!   this switch is the congestion root, and the upstream-notification
//!   flags.
//!
//! The output-side CAM, the congested destinations the downstream hop
//! reported, is [`crate::cam::OutCam`].

use crate::params::IsolationParams;
use ccfit_engine::ids::NodeId;
use ccfit_engine::queue::PacketQueue;
use ccfit_engine::units::Cycle;
use ccfit_topology::RouteRow;

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

    /// Advance the calm stretch for a CFQ holding `occ` flits at `now`
    /// (calm: below the propagation threshold) and tell whether it may
    /// be released: calm for the linger period and empty now.
    pub(crate) fn releasable(
        &mut self,
        occ: u32,
        now: Cycle,
        iso: &IsolationParams,
        mtu_flits: u32,
    ) -> bool {
        if occ >= iso.propagate_threshold_mtus * mtu_flits {
            self.calm_since = None;
            return false;
        }
        let since = *self.calm_since.get_or_insert(now);
        occ == 0 && now.saturating_sub(since) >= iso.dealloc_linger_cycles
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

/// The CFQ slots of an isolating input port or an adapter: none until
/// the first allocation, `num` from then on, so a port or adapter that
/// never isolates holds no heap block for them. Reads the slots as a
/// slice, by index.
#[derive(Debug, Clone)]
pub struct CfqSlots {
    slots: Vec<CfqSlot>,
    num: usize,
}

/// The slots of a port that has none: a static port's.
static NO_CFQS: CfqSlots = CfqSlots::new(0);

impl CfqSlots {
    /// `num` slots, every one free and none allocated yet.
    pub(crate) const fn new(num: usize) -> Self {
        Self {
            slots: Vec::new(),
            num,
        }
    }

    /// Index of the allocated CFQ isolating `dst`, if any (the CAM
    /// lookup).
    pub(crate) fn lookup(&self, dst: NodeId) -> Option<usize> {
        self.slots
            .iter()
            .position(|c| matches!(c.state, Some(s) if s.dst == dst))
    }

    /// Whether [`Self::allocate`] would find a free slot.
    pub(crate) fn free(&self) -> bool {
        self.slots.len() < self.num || self.slots.iter().any(|c| c.state.is_none())
    }

    /// Give the first free slot the CAM line `state` and return its
    /// index; `None` when every slot is allocated (or there are none).
    pub(crate) fn allocate(&mut self, state: CfqState) -> Option<usize> {
        if self.slots.is_empty() {
            self.slots.reserve_exact(self.num);
            self.slots.resize_with(self.num, CfqSlot::default);
        }
        let free = self.slots.iter().position(|c| c.state.is_none())?;
        self.slots[free].state = Some(state);
        Some(free)
    }

    /// Number of currently allocated CFQs.
    pub(crate) fn allocated(&self) -> usize {
        self.slots.iter().filter(|c| c.state.is_some()).count()
    }
}

impl std::ops::Deref for CfqSlots {
    type Target = [CfqSlot];

    fn deref(&self) -> &[CfqSlot] {
        &self.slots
    }
}

impl std::ops::DerefMut for CfqSlots {
    fn deref_mut(&mut self) -> &mut [CfqSlot] {
        &mut self.slots
    }
}

/// Which of a static organisation's queues a packet joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticKey {
    /// The output port the packet is routed to: VOQsw, one queue per
    /// output port. A re-route re-bins the queued packets.
    Output,
    /// The destination modulo the queue count: 1Q has one queue, VOQnet
    /// one per destination end node.
    Dest,
}

impl StaticKey {
    /// The queue, of `count`, that a packet for `dst` joins at the
    /// switch whose routes are `routes`.
    pub(crate) fn queue(self, dst: NodeId, count: usize, routes: RouteRow<'_>) -> usize {
        match self {
            StaticKey::Output => routes.port(dst).index(),
            // 1Q's one queue and VOQnet's one per destination need no
            // division, which costs the paper matrix ~1 % of its cycle
            // rate.
            StaticKey::Dest => match dst.index() {
                d if d < count => d,
                _ if count == 1 => 0,
                d => d % count,
            },
        }
    }
}

/// The queue organisation of one input port.
#[derive(Debug, Clone)]
pub enum InputQueues {
    /// 1Q, VOQsw and VOQnet: a fixed set of FIFOs, a packet's queue
    /// chosen by `key` when it arrives.
    Static {
        /// The FIFOs, by queue index.
        queues: Vec<PacketQueue>,
        /// How a packet's queue index is chosen.
        key: StaticKey,
    },
    /// FBICM/CCFIT: a normal flow queue plus CFQ slots.
    Isolating {
        /// Non-congested traffic.
        nfq: PacketQueue,
        /// The small set of congested flow queues.
        cfqs: CfqSlots,
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
        let fixed = |count, key| InputQueues::Static {
            queues: (0..count).map(|_| PacketQueue::new()).collect(),
            key,
        };
        match scheme {
            S::Single => fixed(1, StaticKey::Dest),
            S::PerOutput => fixed(num_ports, StaticKey::Output),
            S::PerDest => fixed(num_dests, StaticKey::Dest),
            S::Isolating => InputQueues::Isolating {
                nfq: PacketQueue::new(),
                cfqs: CfqSlots::new(num_cfqs),
            },
        }
    }

    /// The CFQ slots; none at a static port.
    pub(crate) fn cfqs(&self) -> &CfqSlots {
        match self {
            InputQueues::Static { .. } => &NO_CFQS,
            InputQueues::Isolating { cfqs, .. } => cfqs,
        }
    }

    /// [`Self::cfqs`], mutably.
    pub(crate) fn cfqs_mut(&mut self) -> &mut [CfqSlot] {
        match self {
            InputQueues::Static { .. } => &mut [],
            InputQueues::Isolating { cfqs, .. } => cfqs,
        }
    }

    /// Every queue of the port in index order: the static queues, or the
    /// NFQ and then the CFQs.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &PacketQueue> {
        let plain = match self {
            InputQueues::Static { queues, .. } => queues.as_slice(),
            InputQueues::Isolating { nfq, .. } => std::slice::from_ref(nfq),
        };
        plain.iter().chain(self.cfqs().iter().map(|c| &c.queue))
    }

    /// [`Self::iter`], mutably.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut PacketQueue> {
        let (plain, cfqs): (&mut [PacketQueue], &mut [CfqSlot]) = match self {
            InputQueues::Static { queues, .. } => (queues, &mut []),
            InputQueues::Isolating { nfq, cfqs, .. } => (std::slice::from_mut(nfq), cfqs),
        };
        plain
            .iter_mut()
            .chain(cfqs.iter_mut().map(|c| &mut c.queue))
    }

    /// Total buffered flits across all queues of the port.
    pub fn total_occupancy_flits(&self) -> u32 {
        self.iter().map(PacketQueue::occupancy_flits).sum()
    }

    /// Total buffered packets.
    pub fn total_packets(&self) -> usize {
        self.iter().map(PacketQueue::len).sum()
    }

    /// Whether no queue of the port holds a packet; stops at the first
    /// one that does.
    pub fn is_empty(&self) -> bool {
        self.iter().all(PacketQueue::is_empty)
    }

    /// Buffered *data* packets (conservation checks exclude in-band
    /// control notifications such as BECNs).
    pub fn total_data_packets(&self) -> usize {
        self.iter()
            .flat_map(PacketQueue::iter)
            .filter(|e| e.packet.is_data())
            .count()
    }

    /// [`CfqSlots::allocate`]; `None` at a static port.
    pub(crate) fn cfq_allocate(&mut self, state: CfqState) -> Option<usize> {
        match self {
            InputQueues::Static { .. } => None,
            InputQueues::Isolating { cfqs, .. } => cfqs.allocate(state),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::QueueingScheme;
    use ccfit_engine::ids::{FlowId, PacketId, PortId, SwitchId};
    use ccfit_engine::packet::Packet;
    use ccfit_topology::RoutingTable;

    fn pkt(dst: u32, flits: u32) -> Packet {
        Packet::data(
            PacketId(0),
            NodeId(0),
            NodeId(dst),
            flits,
            flits * 64,
            FlowId(0),
            0,
        )
    }

    /// The static schemes on four ports and eight destinations, where
    /// destination `d` leaves by port `d / 2`.
    const STATIC_SCHEMES: [(QueueingScheme, usize, [usize; 8]); 3] = [
        (QueueingScheme::Single, 1, [0; 8]),
        (QueueingScheme::PerOutput, 4, [0, 0, 1, 1, 2, 2, 3, 3]),
        (QueueingScheme::PerDest, 8, [0, 1, 2, 3, 4, 5, 6, 7]),
    ];

    fn four_port_routing() -> RoutingTable {
        RoutingTable::from_rows(8, (0..8).map(|d| PortId(d / 2)).collect())
    }

    /// The queues each scheme builds and the queue each destination
    /// joins.
    #[test]
    fn construction_shapes() {
        let routing = four_port_routing();
        for (scheme, count, joins) in STATIC_SCHEMES {
            let q = InputQueues::new(scheme, 4, 8, 2);
            let InputQueues::Static { queues, key } = &q else {
                panic!("{scheme:?} is static");
            };
            assert_eq!(queues.len(), count, "{scheme:?}");
            for d in 0..8 {
                let i = key.queue(NodeId(d), count, routing.row(SwitchId(0)));
                assert_eq!(i, joins[d as usize], "{scheme:?}: destination {d}");
            }
        }
        // Fewer queues than destinations: the destination modulo the count.
        let modulo = |d| StaticKey::Dest.queue(NodeId(d), 3, routing.row(SwitchId(0)));
        assert_eq!(
            (0..8).map(modulo).collect::<Vec<_>>(),
            [0, 1, 2, 0, 1, 2, 0, 1]
        );
        // The CFQ slots come with the first allocation.
        let mut iso = InputQueues::new(QueueingScheme::Isolating, 4, 8, 2);
        assert!(iso.cfqs().is_empty());
        iso.cfq_allocate(CfqState::new(NodeId(4), 1, true));
        assert_eq!(iso.cfqs().len(), 2);
    }

    /// One packet per destination, of `d + 1` flits, in the queue it
    /// joins: the totals count all of them.
    #[test]
    fn occupancy_sums_across_queues() {
        let routing = four_port_routing();
        for (scheme, count, _) in STATIC_SCHEMES {
            let mut q = InputQueues::new(scheme, 4, 8, 2);
            assert!(q.is_empty(), "{scheme:?}");
            let InputQueues::Static { queues, key } = &mut q else {
                panic!("{scheme:?} is static");
            };
            for d in 0..8 {
                let i = key.queue(NodeId(d), count, routing.row(SwitchId(0)));
                queues[i].push(pkt(d, d + 1), 0, 0);
            }
            assert!(!q.is_empty(), "{scheme:?}");
            assert_eq!(q.total_packets(), 8, "{scheme:?}");
            assert_eq!(q.total_data_packets(), 8, "{scheme:?}");
            assert_eq!(q.total_occupancy_flits(), 36, "{scheme:?}: 1 + 2 + ... + 8");
        }
    }

    /// Allocation takes the first free slot, a freed slot is taken
    /// again, and a port with every slot allocated takes no more.
    #[test]
    fn cfq_lookup_and_free_slot() {
        let mut q = CfqSlots::new(2);
        assert_eq!(q.lookup(NodeId(4)), None);
        assert!(q.free(), "no slot allocated yet: both are free");
        assert_eq!(q.allocate(CfqState::new(NodeId(4), 1, true)), Some(0));
        assert!(q.free());
        assert_eq!(q.lookup(NodeId(4)), Some(0));
        assert_eq!(q.lookup(NodeId(5)), None);
        assert_eq!(q.allocated(), 1);
        assert_eq!(q.allocate(CfqState::new(NodeId(5), 1, false)), Some(1));
        assert!(!q.free());
        assert_eq!(q.allocate(CfqState::new(NodeId(6), 1, false)), None);
        assert_eq!(q.allocated(), 2);
        q[0].state = None;
        assert_eq!(q.allocate(CfqState::new(NodeId(6), 1, false)), Some(0));
        assert_eq!(q.lookup(NodeId(6)), Some(0));
        assert_eq!(q.lookup(NodeId(4)), None);
    }

    #[test]
    fn non_isolating_schemes_have_no_cfqs() {
        for (scheme, _, _) in STATIC_SCHEMES {
            let mut q = InputQueues::new(scheme, 4, 8, 2);
            assert_eq!(q.cfqs().lookup(NodeId(0)), None, "{scheme:?}");
            assert!(!q.cfqs().free(), "{scheme:?}");
            assert_eq!(
                q.cfq_allocate(CfqState::new(NodeId(0), 0, true)),
                None,
                "{scheme:?}"
            );
            assert_eq!(q.cfqs().allocated(), 0, "{scheme:?}");
        }
    }

    #[test]
    fn fresh_cfq_state_flags() {
        let s = CfqState::new(NodeId(3), 2, true);
        assert!(s.root);
        assert!(!s.alloc_sent && !s.stop_sent && !s.over_high);
        assert_eq!(s.calm_since, None);
    }
}
