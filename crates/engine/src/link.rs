//! Lossless links with credit-based flow control.
//!
//! A [`Link`] models **one direction** of a cable between two ports. The
//! forward direction carries data packets with a serialization latency
//! (`size / bandwidth`) plus a fixed propagation delay; the reverse
//! direction carries the bookkeeping the receiver sends back to the
//! sender:
//!
//! * **credit returns** — the receiver frees input-RAM space and the
//!   sender may use it again (credit-based link-level flow control,
//!   Table I), and
//! * **congestion-information control events** — the Stop/Go and CFQ
//!   allocation/deallocation notifications that FBICM/CCFIT propagate
//!   upstream, hop by hop, against the data flow.
//!
//! The sender consumes credits for the *whole* packet before starting to
//! transmit (virtual cut-through never commits a packet it cannot buffer
//! downstream), which is exactly what makes the network lossless. Control
//! events travel on a dedicated channel with the same propagation delay;
//! their bandwidth usage (a few flits per CFQ lifetime) is negligible and
//! not debited against data credits — see DESIGN.md §3 for the
//! substitution note.

use crate::ids::NodeId;
use crate::packet::Packet;
use crate::queue::reserve_one;
use crate::units::Cycle;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Static link parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Bandwidth in flits per cycle (1 = 2.5 GB/s under the default unit
    /// model, 2 = 5 GB/s).
    pub bw_flits_per_cycle: u32,
    /// Propagation delay in cycles.
    pub delay_cycles: Cycle,
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self {
            bw_flits_per_cycle: 1,
            delay_cycles: 1,
        }
    }
}

/// Congestion-information control events propagated upstream (receiver to
/// sender) by the congested-flow-isolation machinery. `dst` is always the
/// congested destination that keys the CAM lines on both sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CtrlEvent {
    /// Downstream allocated a CFQ for `dst` and its occupancy grew enough
    /// that the upstream switch must start isolating this flow too.
    CfqAlloc {
        /// Congested destination.
        dst: NodeId,
    },
    /// Downstream deallocated its CFQ for `dst`; the upstream output-port
    /// CAM line can be released.
    CfqDealloc {
        /// Congested destination.
        dst: NodeId,
    },
    /// Downstream CFQ for `dst` filled past the Stop threshold: pause
    /// forwarding packets of this congested flow.
    Stop {
        /// Congested destination.
        dst: NodeId,
    },
    /// Downstream CFQ for `dst` drained below the Go threshold: resume.
    Go {
        /// Congested destination.
        dst: NodeId,
    },
}

impl CtrlEvent {
    /// The congested destination the event is about.
    pub fn dst(self) -> NodeId {
        match self {
            CtrlEvent::CfqAlloc { dst }
            | CtrlEvent::CfqDealloc { dst }
            | CtrlEvent::Stop { dst }
            | CtrlEvent::Go { dst } => dst,
        }
    }
}

/// A packet on the wire.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    packet: Packet,
    /// Cycle the header reaches the receiver (packet becomes visible).
    header_at: Cycle,
    /// Cycle the tail reaches the receiver.
    tail_at: Cycle,
}

/// One direction of a cable, with its reverse bookkeeping channel.
#[derive(Debug, Clone)]
pub struct Link {
    cfg: LinkConfig,
    /// Credits (in flits) the sender currently holds against the
    /// receiver's input RAM.
    credits: u32,
    /// Cycle at which the transmitter finishes serializing the current
    /// packet and can accept another.
    tx_free_at: Cycle,
    /// The cable works: the forward channel accepts sends and the
    /// reverse channel carries credit returns and control events.
    /// Cleared by [`Link::fail`], set again by [`Link::restore`].
    up: bool,
    in_flight: VecDeque<InFlight>,
    /// Reverse channel: credit returns (arrival cycle, flits).
    credit_returns: VecDeque<(Cycle, u32)>,
    /// Reverse channel: congestion-information events.
    ctrl_in_flight: VecDeque<(Cycle, CtrlEvent)>,
}

/// What a fail-stop ([`Link::fail`]) destroyed: everything that was
/// travelling on the wire at that instant. The fault-injection
/// subsystem turns this into loss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireLoss {
    /// Data packets dropped from the forward channel.
    pub data_packets: u64,
    /// Flits of those data packets.
    pub data_flits: u64,
    /// Non-data (control notification) packets dropped from the forward
    /// channel.
    pub ctrl_packets: u64,
    /// Control events dropped from the reverse channel.
    pub ctrl_events: u64,
    /// Credit flits dropped from the reverse channel.
    pub credit_flits: u64,
}

impl WireLoss {
    /// Merge another loss tally into this one.
    pub fn absorb(&mut self, other: WireLoss) {
        self.data_packets += other.data_packets;
        self.data_flits += other.data_flits;
        self.ctrl_packets += other.ctrl_packets;
        self.ctrl_events += other.ctrl_events;
        self.credit_flits += other.credit_flits;
    }
}

/// A packet delivered to the receiver, with its cut-through timing.
#[derive(Debug, Clone, Copy)]
pub struct Delivery {
    /// The arriving packet.
    pub packet: Packet,
    /// Cycle the header arrived (the packet is visible to arbitration).
    pub visible_at: Cycle,
    /// Cycle the tail arrives (the packet is fully buffered).
    pub ready_at: Cycle,
}

impl Link {
    /// Create a link whose sender initially holds `initial_credits` flits
    /// of the receiver's RAM.
    pub fn new(cfg: LinkConfig, initial_credits: u32) -> Self {
        assert!(
            cfg.bw_flits_per_cycle > 0,
            "link bandwidth must be positive"
        );
        Self {
            cfg,
            credits: initial_credits,
            tx_free_at: 0,
            up: true,
            in_flight: VecDeque::new(),
            credit_returns: VecDeque::new(),
            ctrl_in_flight: VecDeque::new(),
        }
    }

    /// Whether the cable works (both channels).
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Fail-stop: the cable is cut. Everything in flight — data, credit
    /// returns, control events — is destroyed and tallied; the sender's
    /// remaining credits are zeroed (the receiver RAM they referenced is
    /// on the other side of the cut). Both channels stop working until
    /// [`Link::restore`].
    pub fn fail(&mut self) -> WireLoss {
        self.up = false;
        self.credits = 0;
        let mut loss = WireLoss::default();
        for f in self.in_flight.drain(..) {
            if f.packet.is_data() {
                loss.data_packets += 1;
                loss.data_flits += f.packet.size_flits as u64;
            } else {
                loss.ctrl_packets += 1;
            }
        }
        loss.ctrl_events = self.ctrl_in_flight.len() as u64;
        self.ctrl_in_flight.clear();
        loss.credit_flits = self.credit_returns.iter().map(|&(_, f)| f as u64).sum();
        self.credit_returns.clear();
        loss
    }

    /// Bring a failed link back up with a fresh credit grant (the
    /// endpoints re-synchronize flow control on link training). The wire
    /// is empty: [`Link::fail`] purged it and nothing enters a down link.
    pub fn restore(&mut self, credits: u32) {
        debug_assert!(self.is_idle(), "a down link carries nothing");
        self.up = true;
        self.credits = credits;
    }

    /// Static parameters.
    pub fn config(&self) -> LinkConfig {
        self.cfg
    }

    /// Credits currently available to the sender.
    pub fn credits(&self) -> u32 {
        self.credits
    }

    /// Cycles needed to serialize `flits` onto this link.
    pub fn serialization_cycles(&self, flits: u32) -> Cycle {
        (flits.div_ceil(self.cfg.bw_flits_per_cycle)).max(1) as Cycle
    }

    /// Whether the transmitter is idle at `now`.
    pub fn tx_idle(&self, now: Cycle) -> bool {
        self.tx_free_at <= now
    }

    /// First cycle at which the transmitter is idle again (a cycle in the
    /// past when it already is).
    pub fn tx_free_at(&self) -> Cycle {
        self.tx_free_at
    }

    /// Whether a packet of `size_flits` can start transmission at `now`
    /// (link up, transmitter idle *and* enough credits for the whole
    /// packet — virtual cut-through buffer reservation).
    pub fn can_send(&self, now: Cycle, size_flits: u32) -> bool {
        self.up && self.tx_idle(now) && self.credits >= size_flits
    }

    /// Start transmitting `packet` at `now`. Consumes credits for the
    /// whole packet and occupies the transmitter for the serialization
    /// time. Returns the cycle at which the transmitter frees up.
    ///
    /// # Panics
    /// Panics if called while `can_send` is false — the arbiter must
    /// check eligibility first.
    pub fn send(&mut self, now: Cycle, packet: Packet) -> Cycle {
        assert!(self.up, "sending on a downed link");
        assert!(self.tx_idle(now), "link transmitter busy");
        assert!(
            self.credits >= packet.size_flits,
            "sending without credits: have {}, need {}",
            self.credits,
            packet.size_flits
        );
        self.credits -= packet.size_flits;
        let ser = self.serialization_cycles(packet.size_flits);
        self.tx_free_at = now + ser;
        let header_at = now + self.cfg.delay_cycles + 1;
        let tail_at = now + self.cfg.delay_cycles + ser;
        reserve_one(&mut self.in_flight);
        self.in_flight.push_back(InFlight {
            packet,
            header_at,
            tail_at,
        });
        self.tx_free_at
    }

    /// Whether `deliver` would pop anything at `now` — lets the hot loop
    /// skip the scratch-buffer dance for the (common) idle link.
    pub fn has_delivery(&self, now: Cycle) -> bool {
        self.in_flight.front().is_some_and(|f| f.header_at <= now)
    }

    /// Pop every packet whose header has arrived by `now` into `out`.
    /// In-order delivery is guaranteed because sends are serialized.
    pub fn deliver_into(&mut self, now: Cycle, out: &mut Vec<Delivery>) {
        while let Some(front) = self.in_flight.front() {
            if front.header_at <= now {
                let f = self.in_flight.pop_front().expect("front exists");
                out.push(Delivery {
                    packet: f.packet,
                    visible_at: f.header_at,
                    ready_at: f.tail_at,
                });
            } else {
                break;
            }
        }
    }

    /// Receiver-side: return `flits` credits to the sender; they arrive
    /// after the propagation delay. Silently discarded while the link is
    /// down (the sender re-synchronizes its credit state on
    /// [`Link::restore`]).
    /// Same-cycle returns are coalesced into the tail entry: under a
    /// hotspot storm a receiver frees many buffers per cycle, and one
    /// `(arrival, flits)` entry absorbs them all without growing the
    /// queue. Coalescing is observationally identical — `poll_credits`
    /// absorbs whole entries whose arrival cycle has passed, and a merged
    /// entry carries the same flit total at the same arrival cycle.
    pub fn return_credits(&mut self, now: Cycle, flits: u32) {
        if flits > 0 && self.up {
            let at = now + self.cfg.delay_cycles;
            if let Some(last) = self.credit_returns.back_mut() {
                if last.0 == at {
                    last.1 += flits;
                    return;
                }
            }
            reserve_one(&mut self.credit_returns);
            self.credit_returns.push_back((at, flits));
        }
    }

    /// Number of distinct entries in the credit-return queue (tests the
    /// coalescing behaviour; conservation uses [`Link::credits_in_flight`]).
    pub fn credit_return_entries(&self) -> usize {
        self.credit_returns.len()
    }

    /// Sender-side: absorb credit returns that have arrived by `now`.
    pub fn poll_credits(&mut self, now: Cycle) {
        if self.credit_returns.is_empty() {
            return;
        }
        while let Some(&(at, flits)) = self.credit_returns.front() {
            if at <= now {
                self.credit_returns.pop_front();
                self.credits += flits;
            } else {
                break;
            }
        }
    }

    /// Receiver-side: send a congestion-information event upstream.
    /// Silently discarded while the link is down (the isolation state on
    /// the dead cable is quiesced by the fault subsystem instead).
    pub fn send_ctrl(&mut self, now: Cycle, ev: CtrlEvent) {
        if self.up {
            reserve_one(&mut self.ctrl_in_flight);
            self.ctrl_in_flight
                .push_back((now + self.cfg.delay_cycles, ev));
        }
    }

    /// Whether a control event has arrived by `now` (events are
    /// time-ordered, so the front suffices). Lets pollers skip the
    /// drain entirely on the common no-event cycle.
    pub fn has_ctrl(&self, now: Cycle) -> bool {
        self.ctrl_in_flight
            .front()
            .is_some_and(|&(at, _)| at <= now)
    }

    /// Sender-side: pop control events that have arrived by `now` into
    /// `out`.
    pub fn poll_ctrl_into(&mut self, now: Cycle, out: &mut Vec<CtrlEvent>) {
        while let Some(&(at, ev)) = self.ctrl_in_flight.front() {
            if at <= now {
                self.ctrl_in_flight.pop_front();
                out.push(ev);
            } else {
                break;
            }
        }
    }

    /// Whether nothing at all is travelling on this link (no data, no
    /// credit returns, no control events). `tx_free_at` is irrelevant: a
    /// busy transmitter with nothing queued cannot produce future events
    /// on its own.
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_empty()
            && self.credit_returns.is_empty()
            && self.ctrl_in_flight.is_empty()
    }

    /// Earliest cycle at which something on this link arrives (header,
    /// credit return, or control event), or `None` if the link is idle.
    /// Each queue is ordered by arrival time, so the fronts suffice.
    pub fn next_event_at(&self) -> Option<Cycle> {
        let mut next: Option<Cycle> = self.in_flight.front().map(|f| f.header_at);
        if let Some(&(at, _)) = self.credit_returns.front() {
            next = Some(next.map_or(at, |n| n.min(at)));
        }
        if let Some(&(at, _)) = self.ctrl_in_flight.front() {
            next = Some(next.map_or(at, |n| n.min(at)));
        }
        next
    }

    /// Number of packets currently on the wire (for conservation checks).
    pub fn in_flight_count(&self) -> usize {
        self.in_flight.len()
    }

    /// Number of *data* packets on the wire (conservation checks exclude
    /// control notifications).
    pub fn in_flight_data_count(&self) -> usize {
        self.in_flight.iter().filter(|f| f.packet.is_data()).count()
    }

    /// Flits of credit currently travelling back to the sender (for
    /// credit-conservation checks).
    pub fn credits_in_flight(&self) -> u32 {
        self.credit_returns.iter().map(|&(_, f)| f).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FlowId, PacketId};

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

    fn link(bw: u32, delay: Cycle, credits: u32) -> Link {
        Link::new(
            LinkConfig {
                bw_flits_per_cycle: bw,
                delay_cycles: delay,
            },
            credits,
        )
    }

    fn deliver(l: &mut Link, now: Cycle) -> Vec<Delivery> {
        let mut out = Vec::new();
        l.deliver_into(now, &mut out);
        out
    }

    fn poll_ctrl(l: &mut Link, now: Cycle) -> Vec<CtrlEvent> {
        let mut out = Vec::new();
        l.poll_ctrl_into(now, &mut out);
        out
    }

    #[test]
    fn send_consumes_credits_and_occupies_tx() {
        let mut l = link(1, 2, 64);
        assert!(l.can_send(0, 32));
        let free_at = l.send(0, pkt(1, 32));
        assert_eq!(free_at, 32, "32 flits at 1 flit/cycle");
        assert_eq!(l.credits(), 32);
        assert!(!l.tx_idle(10));
        assert!(l.tx_idle(32));
    }

    #[test]
    fn delivery_timing_honors_delay_and_serialization() {
        let mut l = link(1, 3, 64);
        l.send(10, pkt(1, 32));
        assert!(deliver(&mut l, 13).is_empty(), "header arrives at 10+3+1");
        let d = deliver(&mut l, 14);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].visible_at, 14);
        assert_eq!(d[0].ready_at, 10 + 3 + 32);
    }

    #[test]
    fn double_bandwidth_halves_serialization() {
        let mut l = link(2, 0, 64);
        let free_at = l.send(0, pkt(1, 32));
        assert_eq!(free_at, 16);
        let d = deliver(&mut l, 1);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].ready_at, 16);
    }

    #[test]
    fn in_order_delivery() {
        let mut l = link(1, 1, 64);
        l.send(0, pkt(1, 4));
        l.poll_credits(4);
        l.send(4, pkt(2, 4));
        let d = deliver(&mut l, 100);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].packet.id, PacketId(1));
        assert_eq!(d[1].packet.id, PacketId(2));
    }

    #[test]
    fn cannot_send_without_credits() {
        let mut l = link(1, 1, 40);
        l.send(0, pkt(1, 32));
        assert!(!l.can_send(32, 32), "only 8 credits left");
        assert!(l.can_send(32, 8));
    }

    #[test]
    fn credit_returns_arrive_after_delay() {
        let mut l = link(1, 5, 0);
        l.return_credits(10, 32);
        l.poll_credits(14);
        assert_eq!(l.credits(), 0, "in flight until cycle 15");
        l.poll_credits(15);
        assert_eq!(l.credits(), 32);
        assert_eq!(l.credits_in_flight(), 0);
    }

    #[test]
    fn zero_credit_return_is_a_no_op() {
        let mut l = link(1, 5, 0);
        l.return_credits(0, 0);
        assert_eq!(l.credits_in_flight(), 0);
    }

    #[test]
    fn same_cycle_credit_returns_coalesce() {
        let mut l = link(1, 5, 0);
        l.return_credits(10, 8);
        l.return_credits(10, 4);
        l.return_credits(10, 2);
        assert_eq!(l.credit_return_entries(), 1, "merged into one entry");
        assert_eq!(l.credits_in_flight(), 14);
        l.return_credits(11, 1);
        assert_eq!(l.credit_return_entries(), 2, "new cycle, new entry");
        l.poll_credits(14);
        assert_eq!(l.credits(), 0, "nothing arrived yet");
        l.poll_credits(15);
        assert_eq!(l.credits(), 14, "merged entry lands whole");
        l.poll_credits(16);
        assert_eq!(l.credits(), 15);
    }

    #[test]
    fn ctrl_events_arrive_in_order_after_delay() {
        let mut l = link(1, 4, 0);
        l.send_ctrl(0, CtrlEvent::CfqAlloc { dst: NodeId(9) });
        l.send_ctrl(1, CtrlEvent::Stop { dst: NodeId(9) });
        assert!(poll_ctrl(&mut l, 3).is_empty());
        let evs = poll_ctrl(&mut l, 4);
        assert_eq!(evs, vec![CtrlEvent::CfqAlloc { dst: NodeId(9) }]);
        let evs = poll_ctrl(&mut l, 5);
        assert_eq!(evs, vec![CtrlEvent::Stop { dst: NodeId(9) }]);
    }

    #[test]
    #[should_panic(expected = "transmitter busy")]
    fn overlapping_send_panics() {
        let mut l = link(1, 1, 128);
        l.send(0, pkt(1, 32));
        l.send(5, pkt(2, 32));
    }

    #[test]
    #[should_panic(expected = "without credits")]
    fn send_without_credits_panics() {
        let mut l = link(1, 1, 8);
        l.send(0, pkt(1, 32));
    }

    #[test]
    fn fail_stop_destroys_everything_in_flight() {
        let mut l = link(1, 2, 64);
        l.send(0, pkt(1, 32));
        l.return_credits(1, 8);
        l.send_ctrl(1, CtrlEvent::Stop { dst: NodeId(3) });
        let loss = l.fail();
        assert_eq!(loss.data_packets, 1);
        assert_eq!(loss.data_flits, 32);
        assert_eq!(loss.ctrl_events, 1);
        assert_eq!(loss.credit_flits, 8);
        assert!(!l.is_up());
        assert_eq!(l.credits(), 0);
        assert!(l.is_idle());
        assert!(!l.can_send(1000, 1));
        // The reverse channel is cut too: bookkeeping is discarded.
        l.return_credits(5, 16);
        l.send_ctrl(5, CtrlEvent::Go { dst: NodeId(3) });
        assert_eq!(l.credits_in_flight(), 0);
        assert!(!l.has_ctrl(1000));
    }

    #[test]
    fn restore_resynchronizes_credits() {
        let mut l = link(1, 2, 64);
        l.send(0, pkt(1, 32));
        l.fail();
        l.restore(48);
        assert!(l.is_up());
        assert_eq!(l.credits(), 48);
        assert!(l.can_send(100, 48));
    }

    #[test]
    fn wire_loss_absorb_accumulates() {
        let mut a = WireLoss {
            data_packets: 1,
            data_flits: 32,
            ctrl_packets: 0,
            ctrl_events: 2,
            credit_flits: 8,
        };
        a.absorb(WireLoss {
            data_packets: 2,
            data_flits: 64,
            ctrl_packets: 1,
            ctrl_events: 0,
            credit_flits: 0,
        });
        assert_eq!(a.data_packets, 3);
        assert_eq!(a.data_flits, 96);
        assert_eq!(a.ctrl_packets, 1);
        assert_eq!(a.ctrl_events, 2);
        assert_eq!(a.credit_flits, 8);
    }

    #[test]
    fn credit_conservation_across_round_trip() {
        let total = 64u32;
        let mut l = link(1, 2, total);
        l.send(0, pkt(1, 32));
        // Receiver immediately frees the space at tail arrival.
        l.return_credits(34, 32);
        // At any instant: sender credits + in-flight returns + "held by
        // receiver" == total. After the return lands:
        l.poll_credits(36);
        assert_eq!(l.credits(), total);
    }
}
