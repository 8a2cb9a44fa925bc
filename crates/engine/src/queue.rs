//! Flit-accounted packet queues.
//!
//! A [`PacketQueue`] stores whole packets (virtual cut-through buffering)
//! but tracks its occupancy in flits, because detection, High/Low and
//! Stop/Go thresholds in the paper are all expressed as buffer fill levels
//! (in MTUs). Queues do not own their capacity — in the dynamically
//! managed input-port organisation of FBICM/CCFIT all queues at a port
//! (the NFQ and the CFQs) share one RAM, modelled by
//! [`crate::ram::PortRam`].
//!
//! A packet may be *enqueued before its tail has arrived* (cut-through):
//! `ready_at` records the cycle its last flit lands, and the head is only
//! *forwardable* once the header is present (`visible_at`). The
//! arbitration layer uses [`PacketQueue::head_visible`].

use crate::packet::Packet;
use crate::units::Cycle;
use std::collections::VecDeque;

/// Make room for one more element under the engine's FIFO growth rule:
/// the first push allocates exactly one slot and a full queue doubles
/// from there. `VecDeque`'s own rule starts at four slots, which most of
/// a large network's queues never fill — they rarely hold a second
/// packet at a time. Every FIFO of the engine (the [`PacketQueue`]s and
/// a link's three channels) grows through this.
pub(crate) fn reserve_one<T>(fifo: &mut VecDeque<T>) {
    if fifo.len() == fifo.capacity() {
        fifo.reserve_exact(fifo.capacity().max(1));
    }
}

/// An entry in a queue: the packet plus its cut-through timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedPacket {
    /// The buffered packet.
    pub packet: Packet,
    /// Cycle at which the packet's header is present and the packet may be
    /// considered by arbitration (VCT forwarding eligibility).
    pub visible_at: Cycle,
    /// Cycle at which the packet's tail has fully arrived.
    pub ready_at: Cycle,
}

/// A FIFO of packets with flit-level occupancy accounting.
#[derive(Debug, Clone, Default)]
pub struct PacketQueue {
    entries: VecDeque<QueuedPacket>,
    occupancy_flits: u32,
}

impl PacketQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue a packet whose header becomes visible at `visible_at` and
    /// whose tail arrives at `ready_at`.
    pub fn push(&mut self, packet: Packet, visible_at: Cycle, ready_at: Cycle) {
        debug_assert!(visible_at <= ready_at);
        self.occupancy_flits += packet.size_flits;
        reserve_one(&mut self.entries);
        self.entries.push_back(QueuedPacket {
            packet,
            visible_at,
            ready_at,
        });
    }

    /// Re-enqueue a packet at the *front* (used when a post-processing
    /// move has to be undone; not part of the normal data path).
    pub fn push_front(&mut self, entry: QueuedPacket) {
        self.occupancy_flits += entry.packet.size_flits;
        reserve_one(&mut self.entries);
        self.entries.push_front(entry);
    }

    /// Remove and return the head packet.
    pub fn pop(&mut self) -> Option<QueuedPacket> {
        let e = self.entries.pop_front()?;
        debug_assert!(self.occupancy_flits >= e.packet.size_flits);
        self.occupancy_flits -= e.packet.size_flits;
        Some(e)
    }

    /// Peek at the head packet without removing it.
    pub fn head(&self) -> Option<&QueuedPacket> {
        self.entries.front()
    }

    /// The head packet, if its header has arrived by `now` (virtual
    /// cut-through forwarding eligibility).
    pub fn head_visible(&self, now: Cycle) -> Option<&QueuedPacket> {
        self.entries.front().filter(|e| e.visible_at <= now)
    }

    /// Number of buffered packets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no packets are buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Occupancy in flits (includes flits still in flight for cut-through
    /// packets — buffer space is reserved for the whole packet when the
    /// header is accepted, exactly like credit-based flow control
    /// reserves it).
    pub fn occupancy_flits(&self) -> u32 {
        self.occupancy_flits
    }

    /// Occupancy in whole MTUs, rounding down, for threshold comparisons
    /// expressed in packets/MTUs ("High/Low thresholds set to 4 and 2
    /// packets").
    pub fn occupancy_mtus(&self, mtu_flits: u32) -> u32 {
        debug_assert!(mtu_flits > 0);
        self.occupancy_flits / mtu_flits
    }

    /// Iterate over the queued packets from head to tail.
    pub fn iter(&self) -> impl Iterator<Item = &QueuedPacket> {
        self.entries.iter()
    }

    /// Remove all packets, returning them (used only by teardown and
    /// tests; live simulation never drops packets — the network is
    /// lossless).
    pub fn drain_all(&mut self) -> Vec<QueuedPacket> {
        let mut out = Vec::new();
        self.drain_all_into(&mut out);
        out
    }

    /// Allocation-free `drain_all`: append the drained packets to `out`.
    pub fn drain_all_into(&mut self, out: &mut Vec<QueuedPacket>) {
        self.occupancy_flits = 0;
        out.extend(self.entries.drain(..));
    }

    /// Remove every packet matching `pred`, appending the removals to
    /// `out` in FIFO order and preserving the relative order of the
    /// survivors. Used by the fault subsystem to purge packets whose
    /// destination became unreachable; order preservation keeps the
    /// purge deterministic.
    pub fn drain_where_into(
        &mut self,
        mut pred: impl FnMut(&QueuedPacket) -> bool,
        out: &mut Vec<QueuedPacket>,
    ) {
        let occupancy = &mut self.occupancy_flits;
        self.entries.retain(|e| {
            let purge = pred(e);
            if purge {
                *occupancy -= e.packet.size_flits;
                out.push(*e);
            }
            !purge
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FlowId, NodeId, PacketId};

    fn pkt(id: u64, flits: u32) -> Packet {
        Packet::data(
            PacketId(id),
            NodeId(0),
            NodeId(1),
            flits,
            flits * 64,
            FlowId(0),
            0,
        )
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut q = PacketQueue::new();
        q.push(pkt(1, 4), 0, 3);
        q.push(pkt(2, 4), 1, 4);
        q.push(pkt(3, 4), 2, 5);
        assert_eq!(q.pop().unwrap().packet.id, PacketId(1));
        assert_eq!(q.pop().unwrap().packet.id, PacketId(2));
        assert_eq!(q.pop().unwrap().packet.id, PacketId(3));
        assert!(q.pop().is_none());
    }

    #[test]
    fn occupancy_tracks_pushes_and_pops() {
        let mut q = PacketQueue::new();
        assert_eq!(q.occupancy_flits(), 0);
        q.push(pkt(1, 32), 0, 31);
        q.push(pkt(2, 1), 0, 0);
        assert_eq!(q.occupancy_flits(), 33);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.occupancy_flits(), 1);
        q.pop();
        assert_eq!(q.occupancy_flits(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn occupancy_in_mtus_rounds_down() {
        let mut q = PacketQueue::new();
        q.push(pkt(1, 32), 0, 0);
        q.push(pkt(2, 31), 0, 0);
        assert_eq!(q.occupancy_mtus(32), 1); // 63 flits = 1 full MTU
        q.push(pkt(3, 1), 0, 0);
        assert_eq!(q.occupancy_mtus(32), 2);
    }

    #[test]
    fn head_visible_respects_cut_through_timing() {
        let mut q = PacketQueue::new();
        q.push(pkt(1, 32), 10, 41);
        assert!(q.head_visible(9).is_none(), "header not arrived yet");
        assert!(q.head_visible(10).is_some(), "header arrived");
        assert_eq!(q.head().unwrap().ready_at, 41);
    }

    #[test]
    fn push_front_restores_occupancy() {
        let mut q = PacketQueue::new();
        q.push(pkt(1, 8), 0, 7);
        let e = q.pop().unwrap();
        assert_eq!(q.occupancy_flits(), 0);
        q.push_front(e);
        assert_eq!(q.occupancy_flits(), 8);
        assert_eq!(q.head().unwrap().packet.id, PacketId(1));
    }

    #[test]
    fn drain_where_keeps_survivor_order_and_occupancy() {
        let mut q = PacketQueue::new();
        q.push(pkt(1, 4), 0, 3);
        q.push(pkt(2, 8), 0, 7);
        q.push(pkt(3, 4), 0, 3);
        q.push(pkt(4, 8), 0, 7);
        let mut purged = Vec::new();
        q.drain_where_into(|e| e.packet.size_flits == 8, &mut purged);
        assert_eq!(purged.len(), 2);
        assert_eq!(purged[0].packet.id, PacketId(2));
        assert_eq!(purged[1].packet.id, PacketId(4));
        assert_eq!(q.len(), 2);
        assert_eq!(q.occupancy_flits(), 8);
        assert_eq!(q.pop().unwrap().packet.id, PacketId(1));
        assert_eq!(q.pop().unwrap().packet.id, PacketId(3));
    }

    #[test]
    fn a_queue_grows_from_one_slot_by_doubling() {
        let mut q = PacketQueue::new();
        assert_eq!(q.entries.capacity(), 0, "an unused queue owns nothing");
        let mut caps = Vec::new();
        for id in 0..5 {
            q.push(pkt(id, 1), 0, 0);
            caps.push(q.entries.capacity());
        }
        assert_eq!(caps, [1, 2, 4, 4, 8]);
        let head = q.pop().unwrap();
        q.push_front(head);
        assert_eq!(q.entries.capacity(), 8, "room left: no growth");
    }

    #[test]
    fn drain_all_empties_and_zeroes() {
        let mut q = PacketQueue::new();
        q.push(pkt(1, 8), 0, 7);
        q.push(pkt(2, 8), 0, 7);
        let drained = q.drain_all();
        assert_eq!(drained.len(), 2);
        assert!(q.is_empty());
        assert_eq!(q.occupancy_flits(), 0);
    }
}
