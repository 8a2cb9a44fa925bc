//! The end-node Input Adapter (§III-B, §III-D, Fig. 2).
//!
//! An [`Adapter`] is the injection side of an end node:
//!
//! * **AdVOQs** — one admittance queue per destination, so traffic
//!   generation never suffers HoL-blocking (like all per-destination
//!   state here, created the first time the destination is used),
//! * an **output buffer** organised like a switch input port: one NFQ
//!   plus (for FBICM/CCFIT) a few CFQs with a CAM, fed by the same
//!   Stop/Go congestion information the attached switch propagates up the
//!   injection link,
//! * the **throttling state** of the IB-style CC: the Congestion Control
//!   Table (CCT) of injection rate delays, the per-destination CCT index
//!   (CCTI) bumped by incoming BECNs, the recovery `Timer`, and the Last
//!   Time of Injection (LTI) used by the arbiter to gate each AdVOQ.
//!
//! Per cycle the adapter: expires timers, moves at most one packet from
//! an AdVOQ (round-robin, IRD-gated) into the output buffer, and offers
//! the output buffer's eligible head to the injection link.

use crate::bitset::{BitSet, DestMap, RoundRobin};
use crate::idle::IdleBound;
use crate::params::{IsolationParams, ThrottleParams};

use crate::cam::{Change, OutCam};
use crate::port::{CfqSlot, CfqSlots, CfqState};
use crate::switch::{PurgeStats, VoqNetCredits};
use ccfit_cc::{DcqcnCfg, DcqcnFlow, HpccCfg, HpccFlow};
use ccfit_engine::ids::{LinkId, NodeId, PacketId};
use ccfit_engine::link::{CtrlEvent, Link};
use ccfit_engine::packet::Packet;
use ccfit_engine::queue::{PacketQueue, QueuedPacket};
use ccfit_engine::ram::PortRam;
use ccfit_engine::units::{Cycle, UnitModel};
use ccfit_metrics::{CcEventKind, MetricsCollector};
use ccfit_traffic::GenPacket;
use std::sync::Arc;

/// Adapter-side throttling configuration, pre-converted to cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct AdapterThrottle {
    /// CCT: IRD (extra inter-packet delay) in cycles, indexed by CCTI.
    /// Every adapter of a run shares one table.
    pub cct: Arc<[Cycle]>,
    /// `CCTI_Timer` in cycles.
    pub ccti_timer_cycles: Cycle,
    /// CCTI increment per BECN.
    pub ccti_increase: u16,
}

impl AdapterThrottle {
    /// Derive from the mechanism parameters, materialising the CCT
    /// according to the configured profile.
    pub fn from_params(p: &ThrottleParams, units: &UnitModel) -> Self {
        use crate::params::CctProfile;
        let ird_ns = |i: usize| -> f64 {
            match p.cct_profile {
                CctProfile::Linear => i as f64 * p.cct_unit_ns,
                CctProfile::Exponential { period } => {
                    let period = period.max(1) as f64;
                    p.cct_unit_ns * (2f64.powf(i as f64 / period) - 1.0)
                }
            }
        };
        let cct = (0..p.cct_len)
            .map(|i| units.ns_to_cycles(ird_ns(i)))
            .collect();
        Self {
            cct,
            ccti_timer_cycles: units.ns_to_cycles(p.ccti_timer_ns),
            ccti_increase: p.ccti_increase,
        }
    }
}

/// Static adapter configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AdapterCfg {
    /// Isolation parameters when the mechanism isolates (FBICM/CCFIT).
    pub iso: Option<IsolationParams>,
    /// Throttling state when the mechanism throttles (ITh/CCFIT).
    pub thr: Option<AdapterThrottle>,
    /// MTU in flits.
    pub mtu_flits: u32,
    /// Output-buffer RAM in flits (64 KB by default, like a switch port).
    pub out_ram_flits: u32,
    /// Admittance capacity per AdVOQ in flits (application backpressure
    /// point).
    pub advoq_cap_flits: u32,
    /// NFQ fill level (flits) above which the AdVOQ arbiter pauses, so
    /// the output buffer never becomes a second HoL point.
    pub nfq_gate_flits: u32,
    /// VOQnet mode: bypass the NFQ funnel and arbitrate the injection
    /// link directly across the AdVOQs, honouring the per-destination
    /// reserved credits. A single output FIFO would reintroduce
    /// head-of-line blocking at the source, which is exactly what VOQnet
    /// exists to eliminate.
    pub per_dest_output: bool,
    /// DCQCN rate machine (modern CC); `None` for the paper mechanisms,
    /// which keeps their behaviour untouched.
    pub dcqcn: Option<DcqcnCfg>,
    /// HPCC window machine (modern CC).
    pub hpcc: Option<HpccCfg>,
    /// Wire overhead stamped on every injected data packet (e.g. INT
    /// header space under HPCC). Charged by byte accounting only, never
    /// by the flit-level link model.
    pub data_overhead_bytes: u16,
}

/// The part of a peer's state the arbiters read every cycle the peer
/// is backlogged: its AdVOQ and the cycle it may next inject. Kept to
/// these two so a walk over 63 blocked AdVOQs touches as few cache lines
/// as it did over the dense vectors. A fresh entry is exactly what a
/// never-used destination means, so creating one on first use changes
/// no result.
#[derive(Debug, Clone, Default)]
struct DestState {
    /// The AdVOQ.
    queue: PacketQueue,
    /// Earliest next injection: LTI + packet time + IRD.
    next_allowed: Cycle,
}

/// The rest of it, touched per BECN and per timer expiry.
#[derive(Debug, Clone, Copy)]
struct Throttle {
    /// CCTI recovery timer deadline; `Cycle::MAX` while not armed.
    timer_deadline: Cycle,
    /// CCT index, bumped by BECNs and decayed by the timer.
    ccti: u16,
}

impl Throttle {
    /// No BECN seen, no timer armed.
    const FRESH: Self = Self {
        timer_deadline: Cycle::MAX,
        ccti: 0,
    };
}

/// Where the AdVOQ arbiter puts a packet in the output buffer.
#[derive(Debug, Clone, Copy)]
enum Target {
    Nfq,
    /// The CFQ already allocated to the packet's destination.
    Cfq(usize),
    /// The first free CFQ slot, allocated to the destination by the move.
    NewCfq,
}

/// What the AdVOQ arbiter makes of the head of one AdVOQ at one cycle.
/// Computing it reads the adapter and writes nothing.
#[derive(Debug, Clone, Copy)]
enum Fate {
    /// Held by the clock alone, until this cycle: its header is not
    /// visible yet, or the IRD / rate gap of the last injection runs.
    NotBefore(Cycle),
    /// Held by adapter state — the HPCC window, the output RAM, a CFQ
    /// past its Stop threshold, the NFQ gate — or there is no head at
    /// all. Only a write that clears [`Adapter::idle`] changes that.
    Held,
    /// It moves.
    Move(Target),
    /// Its destination is congested, has no CFQ and none is free: the
    /// arbiter counts that every cycle it meets it, then falls back to
    /// the NFQ if the gate lets it (`moves`).
    CfqExhausted { moves: bool },
}

/// The injection side of one end node.
#[derive(Debug, Clone)]
pub struct Adapter {
    node: NodeId,
    cfg: AdapterCfg,
    inject_link: LinkId,
    inject_bw: u32,
    num_nodes: usize,
    /// Per-destination state, one entry per destination this node has
    /// exchanged anything with. Slot order is destination order, so the
    /// walks below meet destinations exactly as a walk over all
    /// `num_nodes` would.
    peers: DestMap<DestState>,
    /// Slot `s` is a member ⇔ `peers[s].queue` is non-empty. The
    /// arbiters walk its members, so a blocked adapter pays per
    /// backlogged destination, not per destination.
    backlogged: BitSet,
    /// Round-robin pointer, a destination. The walks start at its slot,
    /// `peers.rank(rr)`.
    rr: usize,
    nfq: PacketQueue,
    cfqs: CfqSlots,
    /// Congestion info received from the attached switch, keyed by
    /// congested destination (plays the role of an output-port CAM).
    cam: OutCam,
    out_ram: PortRam,
    /// Outgoing congestion notification packets (BECNs): transmitted with
    /// absolute priority, bypassing the NFQ/CFQ output buffer (§III-B).
    becn_out: std::collections::VecDeque<Packet>,
    /// Throttling state, one entry per slot of `peers`.
    throttle: Vec<Throttle>,
    // ---- modern-CC state, one entry per slot of `peers` under the
    // mechanism that uses it, empty otherwise ----
    /// DCQCN reaction-point rate machines (source side).
    dcqcn_flows: Vec<DcqcnFlow>,
    /// DCQCN notification-point gate: earliest cycle the *receive* side
    /// of this node may emit the next CNP toward each source.
    cnp_gate: Vec<Cycle>,
    /// HPCC sender window machines (source side).
    hpcc_flows: Vec<HpccFlow>,
    /// Lower bound of every peer's `timer_deadline`: no timer can expire
    /// before it, so [`Self::expire_timers`] skips its scan until then.
    /// Exact after each scan; BECNs re-arming a timer only lower it.
    earliest_deadline: Cycle,
    /// Per-call control-event scratch.
    ctrl_scratch: Vec<CtrlEvent>,
    /// Why an AdVOQ walk that moved nothing will keep moving nothing
    /// (DESIGN.md §12, "Who clears what"): every backlogged head was
    /// held — [`Fate::NotBefore`] by the clock, [`Fate::Held`] by state
    /// — and until one is freed a further walk is skipped: it would find
    /// the same, and a fruitless walk writes nothing, counts nothing and
    /// moves no pointer. Cleared by every write that can free a held
    /// head, and by a walk that moved a packet, or counted a
    /// [`Fate::CfqExhausted`] head, which the next one has to count
    /// again.
    idle: IdleBound,
}

/// A completed injection: the simulator releases `flits` of the output
/// RAM at cycle `at`.
#[derive(Debug, Clone, Copy)]
pub struct AdapterRelease {
    /// Completion cycle.
    pub at: Cycle,
    /// Flits to release.
    pub flits: u32,
}

impl Adapter {
    /// Build the adapter for `node` in a network of `num_nodes`.
    pub fn new(
        node: NodeId,
        cfg: AdapterCfg,
        inject_link: LinkId,
        inject_bw: u32,
        num_nodes: usize,
    ) -> Self {
        let num_cfqs = cfg.iso.map_or(0, |i| i.num_cfqs);
        let cam_lines = cfg.iso.map_or(0, |i| i.out_cam_lines);
        Self {
            node,
            out_ram: PortRam::new(cfg.out_ram_flits),
            cfg,
            inject_link,
            inject_bw,
            num_nodes,
            peers: DestMap::new(),
            backlogged: BitSet::new(0),
            rr: 0,
            nfq: PacketQueue::new(),
            cfqs: CfqSlots::new(num_cfqs),
            cam: OutCam::new(cam_lines),
            becn_out: std::collections::VecDeque::new(),
            throttle: Vec::new(),
            dcqcn_flows: Vec::new(),
            cnp_gate: Vec::new(),
            hpcc_flows: Vec::new(),
            earliest_deadline: Cycle::MAX,
            ctrl_scratch: Vec::new(),
            idle: IdleBound::default(),
        }
    }

    /// The node this adapter belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The slot of `dst`'s state, created fresh on first use.
    #[inline]
    fn peer(&mut self, dst: NodeId) -> usize {
        match self.peers.slot(dst.index()) {
            Some(slot) => slot,
            None => self.add_peer(dst.index()),
        }
    }

    /// Insert a fresh entry for destination `d` — a transparent flow
    /// (full rate / initial window, open gate) under modern CC — keeping
    /// everything else that is indexed by slot, `backlogged` among
    /// them, in step with the slots that moved up.
    #[cold]
    fn add_peer(&mut self, d: usize) -> usize {
        let slot = self.peers.insert(d, DestState::default());
        self.throttle.insert(slot, Throttle::FRESH);
        if let Some(dc) = &self.cfg.dcqcn {
            self.dcqcn_flows.insert(slot, DcqcnFlow::new(0, dc));
            self.cnp_gate.insert(slot, 0);
        }
        if let Some(hc) = &self.cfg.hpcc {
            self.hpcc_flows.insert(slot, HpccFlow::new(hc));
        }
        self.backlogged.insert_gap(slot, self.peers.len());
        slot
    }

    /// Move the round-robin pointer past the destination in `slot`.
    fn advance_rr(&mut self, slot: usize) {
        let next = self.peers.key(slot) + 1;
        self.rr = if next == self.num_nodes { 0 } else { next };
    }

    /// Admit a generated packet into its AdVOQ; `false` = admittance
    /// queue full (the generator keeps its budget and retries).
    pub fn try_inject(&mut self, now: Cycle, gp: GenPacket, id: PacketId) -> bool {
        let slot = self.peer(gp.dst);
        let q = &mut self.peers[slot].queue;
        if q.occupancy_flits() + gp.size_flits > self.cfg.advoq_cap_flits {
            return false;
        }
        let mut pkt = Packet::data(
            id,
            self.node,
            gp.dst,
            gp.size_flits,
            gp.size_bytes,
            gp.flow,
            now,
        );
        pkt.overhead_bytes = self.cfg.data_overhead_bytes;
        if q.is_empty() {
            // A new head. A push behind one changes nothing the arbiter
            // reads, and a saturated source pushes every cycle it can.
            self.idle.clear();
        }
        q.push(pkt, now, now);
        self.backlogged.insert(slot);
        true
    }

    /// Drain the congestion information the attached switch sent up the
    /// injection link (Stop/Go + CFQ allocation/deallocation hints).
    pub fn poll_ctrl(&mut self, now: Cycle, links: &mut [Link], metrics: &mut MetricsCollector) {
        if !links[self.inject_link.index()].has_ctrl(now) {
            return;
        }
        self.ctrl_scratch.clear();
        links[self.inject_link.index()].poll_ctrl_into(now, &mut self.ctrl_scratch);
        if self.cfg.iso.is_none() {
            // Non-isolating adapters ignore (and never receive) these.
            return;
        }
        // CAM lines come and go, and with them where a head is headed.
        self.idle.clear();
        for &ev in &self.ctrl_scratch {
            if self.cam.apply(ev) == Change::Full {
                metrics.record(
                    now,
                    CcEventKind::IaCamExhausted {
                        node: self.node.0,
                        dst: ev.dst().0,
                    },
                );
            }
        }
    }

    /// Queue an outgoing control packet generated by this node's receive
    /// side — a BECN for a FECN-marked delivery, a DCQCN CNP for an
    /// ECN-CE one, or an HPCC ACK. All three share the priority path and
    /// bypass the output RAM; they are sent by [`Self::tick`].
    pub fn queue_becn(&mut self, pkt: Packet) {
        debug_assert!(pkt.is_ctrl());
        self.becn_out.push_back(pkt);
    }

    /// Outgoing BECNs not yet on the wire (conservation checks).
    pub fn pending_becns(&self) -> usize {
        self.becn_out.len()
    }

    /// React to a BECN for congested destination `dst` (§III-D event #6):
    /// bump the CCTI and arm the recovery timer.
    pub fn on_becn(&mut self, now: Cycle, dst: NodeId, metrics: &mut MetricsCollector) {
        if self.cfg.thr.is_none() {
            return;
        }
        let slot = self.peer(dst);
        let thr = self.cfg.thr.as_ref().expect("checked above");
        let p = &mut self.throttle[slot];
        let max = (thr.cct.len() - 1) as u16;
        p.ccti = (p.ccti + thr.ccti_increase).min(max);
        p.timer_deadline = now + thr.ccti_timer_cycles;
        self.earliest_deadline = self.earliest_deadline.min(p.timer_deadline);
        metrics.record(
            now,
            CcEventKind::BecnReceived {
                node: self.node.0,
                dst: dst.0,
            },
        );
        metrics.record(
            now,
            CcEventKind::CctiIncrease {
                node: self.node.0,
                dst: dst.0,
                ccti: p.ccti as u32,
                ird_cycles: thr.cct[p.ccti as usize],
            },
        );
    }

    /// Current CCTI for a destination (tests and introspection).
    pub fn ccti(&self, dst: NodeId) -> u16 {
        let slot = self.peers.slot(dst.index());
        slot.map_or(0, |s| self.throttle[s].ccti)
    }

    /// DCQCN notification point (receive side): should this node emit a
    /// CNP toward `src` for an ECN-CE-marked delivery at `now`? At most
    /// one CNP per source per CNP interval; answering `true` arms the
    /// gate.
    pub fn cnp_due(&mut self, now: Cycle, src: NodeId) -> bool {
        let Some(interval) = self.cfg.dcqcn.as_ref().map(|dc| dc.cnp_interval_cycles) else {
            return false;
        };
        let slot = self.peer(src);
        let gate = &mut self.cnp_gate[slot];
        if now >= *gate {
            *gate = now + interval;
            true
        } else {
            false
        }
    }

    /// DCQCN reaction point: a CNP arrived for the flow toward `dst` —
    /// bump alpha and (at most once per decrease interval) cut the rate.
    pub fn on_cnp(&mut self, now: Cycle, dst: NodeId, metrics: &mut MetricsCollector) {
        if self.cfg.dcqcn.is_none() {
            return;
        }
        let slot = self.peer(dst);
        let dc = self.cfg.dcqcn.as_ref().expect("checked above");
        let f = &mut self.dcqcn_flows[slot];
        f.advance_to(now, dc);
        let cut = f.on_cnp(now, dc);
        metrics.record(
            now,
            CcEventKind::CnpReceived {
                node: self.node.0,
                dst: dst.0,
            },
        );
        if cut {
            metrics.record(
                now,
                CcEventKind::RateChange {
                    node: self.node.0,
                    dst: dst.0,
                    rate_ppm: (f.rc * 1e6) as u64,
                    decrease: true,
                },
            );
        }
    }

    /// HPCC sender: an ACK arrived for the flow toward `dst`, echoing
    /// the folded INT utilization `u_ack` over `acked_bytes` wire bytes.
    pub fn on_ack(
        &mut self,
        now: Cycle,
        dst: NodeId,
        u_ack: f32,
        hops: u8,
        acked_bytes: u32,
        metrics: &mut MetricsCollector,
    ) {
        if self.cfg.hpcc.is_none() {
            return;
        }
        let slot = self.peer(dst);
        let hc = self.cfg.hpcc.as_ref().expect("checked above");
        let f = &mut self.hpcc_flows[slot];
        let before = f.w;
        f.on_ack(f64::from(u_ack), u64::from(acked_bytes), hc);
        self.idle.clear(); // the window opened (or moved)
        metrics.record(
            now,
            CcEventKind::IntFeedback {
                node: self.node.0,
                dst: dst.0,
                u_ppm: (f64::from(u_ack) * 1e6) as u64,
                hops,
            },
        );
        if f.w != before {
            metrics.record(
                now,
                CcEventKind::WindowChange {
                    node: self.node.0,
                    dst: dst.0,
                    window_bytes: f.w as u64,
                    decrease: f.w < before,
                },
            );
        }
    }

    /// Current DCQCN rate fraction toward `dst` (tests, introspection):
    /// the fresh-flow rate for a destination never used, `None` when the
    /// adapter does not run DCQCN.
    pub fn dcqcn_rate(&self, dst: NodeId) -> Option<f64> {
        let dc = self.cfg.dcqcn.as_ref()?;
        let slot = self.peers.slot(dst.index());
        Some(slot.map_or_else(|| DcqcnFlow::new(0, dc).rc, |s| self.dcqcn_flows[s].rc))
    }

    /// Current HPCC window (bytes) toward `dst` (tests, introspection):
    /// the initial window for a destination never used, `None` when the
    /// adapter does not run HPCC.
    pub fn hpcc_window(&self, dst: NodeId) -> Option<f64> {
        let hc = self.cfg.hpcc.as_ref()?;
        let slot = self.peers.slot(dst.index());
        Some(slot.map_or_else(|| HpccFlow::new(hc).w, |s| self.hpcc_flows[s].w))
    }

    /// Number of destinations this adapter holds state for (memory
    /// follows traffic: tests and introspection).
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// One cycle of adapter work. Returns the RAM release to schedule if
    /// a packet started injecting.
    pub fn tick(
        &mut self,
        now: Cycle,
        links: &mut [Link],
        voqnet: Option<&mut VoqNetCredits>,
        metrics: &mut MetricsCollector,
    ) -> Option<AdapterRelease> {
        self.expire_timers(now, metrics);
        if self.cfg.per_dest_output {
            self.direct_output_arbitration(now, links, voqnet);
            return None;
        }
        self.advoq_arbitration(now, metrics);
        self.output_arbitration(now, links, voqnet)
    }

    /// Congestion notifications first, with absolute priority (§III-B):
    /// send the oldest pending BECN if the link and its per-destination
    /// credits admit it. Returns whether it sent.
    fn send_becn(
        &mut self,
        now: Cycle,
        links: &mut [Link],
        voqnet: Option<&mut VoqNetCredits>,
    ) -> bool {
        let Some(b) = self.becn_out.front() else {
            return false;
        };
        if !links[self.inject_link.index()].can_send(now, b.size_flits)
            || !Self::voqnet_ok(voqnet.as_deref(), self.inject_link, b.dst, b.size_flits)
        {
            return false;
        }
        let b = self.becn_out.pop_front().expect("front exists");
        if let Some(vn) = voqnet {
            vn.sub(self.inject_link.0, b.dst.0, b.size_flits);
        }
        links[self.inject_link.index()].send(now, b);
        true
    }

    /// VOQnet injection: round-robin directly over the AdVOQs, gated by
    /// the per-destination reserved credits of the injection link.
    fn direct_output_arbitration(
        &mut self,
        now: Cycle,
        links: &mut [Link],
        mut voqnet: Option<&mut VoqNetCredits>,
    ) {
        if !links[self.inject_link.index()].tx_idle(now)
            || self.send_becn(now, links, voqnet.as_deref_mut())
        {
            return;
        }
        let link = &links[self.inject_link.index()];
        let mut walk = RoundRobin::new(self.peers.rank(self.rr), self.peers.len());
        while let Some(s) = walk.next(&self.backlogged) {
            let p = &self.peers[s];
            let Some(head) = p.queue.head_visible(now) else {
                continue;
            };
            let size = head.packet.size_flits;
            if now < p.next_allowed
                || !link.can_send(now, size)
                || !Self::voqnet_ok(voqnet.as_deref(), self.inject_link, head.packet.dst, size)
            {
                continue;
            }
            let entry = self.pop_advoq(s);
            if let Some(vn) = voqnet.as_deref_mut() {
                vn.sub(self.inject_link.0, entry.packet.dst.0, size);
            }
            let packet_time = size.div_ceil(self.inject_bw).max(1) as Cycle;
            self.peers[s].next_allowed = now + packet_time;
            links[self.inject_link.index()].send(now, entry.packet);
            self.advance_rr(s);
            return;
        }
    }

    /// Timer expiry (§III-D event #7): decrement CCTI, re-arm while
    /// nonzero.
    fn expire_timers(&mut self, now: Cycle, metrics: &mut MetricsCollector) {
        let Some(thr) = &self.cfg.thr else { return };
        if now < self.earliest_deadline {
            return; // no deadline reached (all Cycle::MAX when none is armed)
        }
        let mut earliest = Cycle::MAX;
        for (s, p) in self.throttle.iter_mut().enumerate() {
            if now >= p.timer_deadline {
                if p.ccti > 0 {
                    p.ccti -= 1;
                    metrics.record(
                        now,
                        CcEventKind::CctiDecay {
                            node: self.node.0,
                            dst: self.peers.key(s) as u32,
                            ccti: p.ccti as u32,
                            ird_cycles: thr.cct[p.ccti as usize],
                        },
                    );
                }
                p.timer_deadline = if p.ccti > 0 {
                    now + thr.ccti_timer_cycles
                } else {
                    Cycle::MAX
                };
            }
            earliest = earliest.min(p.timer_deadline);
        }
        self.earliest_deadline = earliest;
    }

    /// What the arbiter makes of the head of the AdVOQ in `slot` at `now`.
    fn head_fate(&self, slot: usize, now: Cycle) -> Fate {
        let p = &self.peers[slot];
        let Some(head) = p.queue.head() else {
            return Fate::Held;
        };
        if head.visible_at > now {
            return Fate::NotBefore(head.visible_at);
        }
        if now < p.next_allowed {
            return Fate::NotBefore(p.next_allowed); // IRD throttling gates this destination.
        }
        if self.cfg.hpcc.is_some() && !self.hpcc_flows[slot].may_send(head.packet.wire_bytes()) {
            return Fate::Held; // HPCC window full for this destination.
        }
        let size = head.packet.size_flits;
        if !self.out_ram.can_reserve(size) {
            return Fate::Held;
        }
        // NFQ gate: keep backlog in the AdVOQs.
        let nfq_open = self.nfq.occupancy_flits() + size <= self.cfg.nfq_gate_flits.max(size);
        let dst = head.packet.dst;
        match self.cfg.iso {
            // Congested destination: goes to (or allocates) its CFQ,
            // honouring the Stop threshold as per-destination
            // backpressure into the AdVOQ.
            Some(iso) if self.cam.contains(dst) => match self.cfqs.lookup(dst) {
                Some(c) => {
                    let stop_flits = iso.stop_mtus * self.cfg.mtu_flits;
                    if self.cfqs[c].queue.occupancy_flits() + size <= stop_flits {
                        Fate::Move(Target::Cfq(c))
                    } else {
                        Fate::Held // CFQ full past Stop: hold in AdVOQ
                    }
                }
                None if self.cfqs.free() => Fate::Move(Target::NewCfq),
                // No CFQ left: fall back to the NFQ (the HoL risk the
                // paper accepts when isolation resources run out).
                None => Fate::CfqExhausted { moves: nfq_open },
            },
            _ if nfq_open => Fate::Move(Target::Nfq),
            _ => Fate::Held,
        }
    }

    /// Whether the idle bound of the last AdVOQ walk still stands at
    /// `now`: no time-only blocker has cleared and no write has cleared
    /// it.
    fn idle_bound_holds(&self, now: Cycle) -> bool {
        self.idle.holds(now)
    }

    /// Round-robin AdVOQ arbitration gated by the IRD (§III-D event #8):
    /// move at most one packet per cycle into the output buffer.
    fn advoq_arbitration(&mut self, now: Cycle, metrics: &mut MetricsCollector) {
        if self.idle_bound_holds(now) {
            debug_assert!(
                self.backlogged
                    .iter()
                    .all(|s| matches!(self.head_fate(s, now), Fate::NotBefore(_) | Fate::Held)),
                "stale AdVOQ idle bound at {} cycle {now}",
                self.node
            );
        } else {
            self.advoq_walk(now, metrics);
        }
        self.cfq_linger(now, metrics);
    }

    /// The walk of [`Self::advoq_arbitration`]: commit the first head
    /// that moves, or leave an idle bound saying why none did.
    fn advoq_walk(&mut self, now: Cycle, metrics: &mut MetricsCollector) {
        let mut idle = IdleBound::default();
        idle.open();
        let mut walk = RoundRobin::new(self.peers.rank(self.rr), self.peers.len());
        while let Some(s) = walk.next(&self.backlogged) {
            let target = match self.head_fate(s, now) {
                Fate::NotBefore(at) => {
                    idle.wake_at(at);
                    continue;
                }
                Fate::Held => continue,
                Fate::Move(target) => target,
                Fate::CfqExhausted { moves } => {
                    metrics.record(
                        now,
                        CcEventKind::IaCfqExhausted {
                            node: self.node.0,
                            dst: self.peers.key(s) as u32,
                        },
                    );
                    if !moves {
                        // Counted again next cycle: no bound, whatever
                        // the rest of the walk meets.
                        idle.clear();
                        continue;
                    }
                    Target::Nfq
                }
            };
            self.idle.clear();
            self.move_to_output(s, target, now, metrics);
            return; // one move per cycle
        }
        self.idle = idle;
    }

    /// Move the head of the AdVOQ in `slot` into the output buffer and
    /// charge its destination the gap to the next injection.
    fn move_to_output(
        &mut self,
        slot: usize,
        target: Target,
        now: Cycle,
        metrics: &mut MetricsCollector,
    ) {
        let entry = self.pop_advoq(slot);
        let dst = entry.packet.dst;
        let size = entry.packet.size_flits;
        let wire = entry.packet.wire_bytes();
        self.out_ram.reserve(size).expect("the head's fate checked");
        match target {
            Target::Nfq => self.nfq.push(entry.packet, now, now),
            Target::Cfq(c) => self.cfqs[c].queue.push(entry.packet, now, now),
            Target::NewCfq => {
                let c = self
                    .cfqs
                    .allocate(CfqState::new(dst, 0, false))
                    .expect("the head's fate checked");
                metrics.record(
                    now,
                    CcEventKind::IaCfqAlloc {
                        node: self.node.0,
                        dst: dst.0,
                    },
                );
                self.cfqs[c].queue.push(entry.packet, now, now);
            }
        }
        // LTI + IRD: earliest next injection for this destination.
        let packet_time = size.div_ceil(self.inject_bw).max(1) as Cycle;
        let ccti = self.throttle[slot].ccti;
        let ird = self.cfg.thr.as_ref().map_or(0, |t| t.cct[ccti as usize]);
        // Modern-CC source reactions: DCQCN stretches the inter-
        // packet gap by 1/rc; HPCC charges the in-flight window.
        let mut gap = 0;
        if let Some(dc) = &self.cfg.dcqcn {
            let f = &mut self.dcqcn_flows[slot];
            f.advance_to(now, dc);
            f.on_sent(wire, dc);
            gap = f.gap_cycles(packet_time);
            if gap > 0 {
                metrics.count("dcqcn_throttled_injections", 1);
            }
        }
        if self.cfg.hpcc.is_some() {
            self.hpcc_flows[slot].on_sent(wire);
        }
        self.peers[slot].next_allowed = now + packet_time + ird + gap;
        if ird > 0 {
            metrics.record(
                now,
                CcEventKind::ThrottledInjection {
                    node: self.node.0,
                    dst: dst.0,
                    ird_cycles: ird,
                },
            );
        }
        self.advance_rr(slot);
    }

    /// CFQ deallocation at the adapter: calm for the linger period,
    /// momentarily empty, and the switch has released the congestion
    /// tree (our CAM line was removed by its CfqDealloc).
    fn cfq_linger(&mut self, now: Cycle, metrics: &mut MetricsCollector) {
        let Some(iso) = self.cfg.iso else { return };
        for CfqSlot { queue, state } in self.cfqs.iter_mut() {
            let Some(st) = state else { continue };
            let occ = queue.occupancy_flits();
            if st.releasable(occ, now, &iso, self.cfg.mtu_flits) && !self.cam.contains(st.dst) {
                metrics.record(
                    now,
                    CcEventKind::IaCfqDealloc {
                        node: self.node.0,
                        dst: st.dst.0,
                    },
                );
                *state = None;
                self.idle.clear(); // a free CFQ slot
            }
        }
    }

    /// Pick an eligible output-buffer queue and start injecting.
    fn output_arbitration(
        &mut self,
        now: Cycle,
        links: &mut [Link],
        mut voqnet: Option<&mut VoqNetCredits>,
    ) -> Option<AdapterRelease> {
        // BECNs bypass the output RAM entirely.
        if !links[self.inject_link.index()].tx_idle(now)
            || self.send_becn(now, links, voqnet.as_deref_mut())
        {
            return None;
        }
        let link = &links[self.inject_link.index()];
        // Candidates: the NFQ plus every allocated, unstopped CFQ, in
        // slot order. Count-then-select keeps the hot path allocation
        // free; the candidate list used to be materialized as a Vec.
        let nfq_ok = self.nfq.head_visible(now).is_some_and(|h| {
            link.can_send(now, h.packet.size_flits)
                && Self::voqnet_ok(
                    voqnet.as_deref(),
                    self.inject_link,
                    h.packet.dst,
                    h.packet.size_flits,
                )
        });
        let cfq_ok = |slot: &CfqSlot| {
            let Some(st) = slot.state else { return false };
            if self.cam.stopped(st.dst) {
                return false;
            }
            slot.queue.head_visible(now).is_some_and(|h| {
                link.can_send(now, h.packet.size_flits)
                    && Self::voqnet_ok(
                        voqnet.as_deref(),
                        self.inject_link,
                        h.packet.dst,
                        h.packet.size_flits,
                    )
            })
        };
        let count = nfq_ok as usize + self.cfqs.iter().filter(|s| cfq_ok(s)).count();
        if count == 0 {
            return None;
        }
        let k = self.rr % count;
        let pick: Option<usize> = if nfq_ok && k == 0 {
            None // NFQ
        } else {
            let c = self
                .cfqs
                .iter()
                .enumerate()
                .filter(|(_, s)| cfq_ok(s))
                .nth(k - nfq_ok as usize)
                .map(|(c, _)| c)
                .expect("k indexes an eligible candidate");
            Some(c)
        };
        let entry = match pick {
            None => self.nfq.pop().expect("candidate head"),
            Some(c) => self.cfqs[c].queue.pop().expect("candidate head"),
        };
        // Room below the NFQ gate, or below a CFQ's Stop threshold.
        self.idle.clear();
        if let Some(vn) = voqnet {
            vn.sub(
                self.inject_link.0,
                entry.packet.dst.0,
                entry.packet.size_flits,
            );
        }
        let done = links[self.inject_link.index()].send(now, entry.packet);
        Some(AdapterRelease {
            at: done,
            flits: entry.packet.size_flits,
        })
    }

    /// Pop the head of the non-empty AdVOQ in `slot`.
    fn pop_advoq(&mut self, slot: usize) -> QueuedPacket {
        let q = &mut self.peers[slot].queue;
        let entry = q.pop().expect("backlogged AdVOQ has a head");
        if q.is_empty() {
            self.backlogged.remove(slot);
        }
        entry
    }

    fn voqnet_ok(voqnet: Option<&VoqNetCredits>, link: LinkId, dst: NodeId, size: u32) -> bool {
        match voqnet {
            Some(vn) => vn.has(link.0, dst.0, size),
            None => true,
        }
    }

    /// Release output-buffer RAM for a packet whose tail has left
    /// (scheduled by the simulator at the completion cycle).
    pub fn release_ram(&mut self, flits: u32) {
        self.out_ram.release(flits);
        self.idle.clear();
    }

    /// Idleness check for the active-set scheduler: no packet
    /// buffered anywhere, no outgoing BECN, and no allocated CFQ (an
    /// allocated-but-empty CFQ still needs per-cycle linger/dealloc
    /// bookkeeping). Armed CCTI timers do *not* block quietness — expiry
    /// is deadline-driven, so ticking at `next_timer_deadline()` is
    /// equivalent to ticking every cycle.
    pub fn is_quiet(&self) -> bool {
        debug_assert!(
            self.backlogged_matches_the_advoqs(),
            "backlogged set out of step with the AdVOQs at {}",
            self.node
        );
        self.holds_no_packet() && self.becn_out.is_empty() && !self.holds_a_cfq()
    }

    /// Whether no AdVOQ is backlogged and the NFQ and every CFQ are empty.
    fn holds_no_packet(&self) -> bool {
        self.backlogged.is_empty()
            && self.nfq.is_empty()
            && self.cfqs.iter().all(|c| c.queue.is_empty())
    }

    /// Whether some CFQ slot is allocated.
    fn holds_a_cfq(&self) -> bool {
        self.cfqs.allocated() > 0
    }

    /// The recount `backlogged` mirrors: slot `s` is a member ⇔ its AdVOQ
    /// holds a packet.
    fn backlogged_matches_the_advoqs(&self) -> bool {
        let mut queues = self.peers.values().iter().enumerate();
        queues.all(|(s, p)| self.backlogged.contains(s) != p.queue.is_empty())
    }

    /// Number of destinations with an armed CCTI recovery timer.
    pub fn armed_timer_count(&self) -> usize {
        (self.throttle.iter())
            .filter(|t| t.timer_deadline != Cycle::MAX)
            .count()
    }

    /// A lower bound of the earliest armed CCTI timer deadline — exact
    /// unless a BECN has re-armed the earliest timer since the last expiry
    /// scan — or `Cycle::MAX` when none is armed. No timer stage acts
    /// before it, so a parked adapter wakes no later.
    pub fn next_timer_deadline(&self) -> Cycle {
        let mut deadlines = self.throttle.iter().map(|t| t.timer_deadline);
        debug_assert!(
            deadlines.all(|d| self.earliest_deadline <= d)
                && (self.earliest_deadline == Cycle::MAX) == (self.armed_timer_count() == 0),
            "earliest CCTI deadline out of step with the timers at {}",
            self.node
        );
        self.earliest_deadline
    }

    /// Oracle mode: forget the idle bound of the last AdVOQ walk, so this
    /// cycle walks again — what [`crate::Simulator::run_reference`]
    /// compares the engine with, in release builds too (DESIGN.md §12).
    pub(crate) fn drop_memos(&mut self) {
        self.idle.clear();
    }

    /// The park rule (DESIGN.md §12): `Some(until)` exactly when every
    /// stage of [`Self::tick`] provably does nothing on any cycle before
    /// `until` (`Cycle::MAX` = until an activation) unless an event that
    /// activates the node lands first — a delivery, control on the
    /// injection link, a BECN, a RAM release, a fault, or its generator's
    /// own wake. Stage by stage: no CCTI timer expires before
    /// `earliest_deadline`; the AdVOQ walk holds its idle bound; no CFQ
    /// runs a linger clock; and the output stage either holds nothing or
    /// waits for `inject_link`'s transmitter alone. A VOQnet adapter
    /// arbitrates against per-destination credits nothing here watches,
    /// so it parks only while it holds nothing at all.
    ///
    /// `sink_awaited`: the node's generator holds a packet this adapter
    /// refused earlier in the cycle and waits for an AdVOQ to drain. The
    /// refusal only stands while the walk has not run since, which the
    /// walk's bound being current shows.
    pub(crate) fn park_bound(
        &self,
        now: Cycle,
        inject_link: &Link,
        sink_awaited: bool,
    ) -> Option<Cycle> {
        self.park_bound_from(now + 1, inject_link, &self.idle, sink_awaited)
    }

    /// Whether [`Self::try_inject`] would admit `gp` now.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn admits(&self, gp: &GenPacket) -> bool {
        self.advoq_occupancy(gp.dst) + gp.size_flits <= self.cfg.advoq_cap_flits
    }

    /// [`Self::park_bound`] with nothing taken from the walk's memo: the
    /// fate of every backlogged head, asked afresh.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn park_bound_rederived(
        &self,
        now: Cycle,
        inject_link: &Link,
        sink_awaited: bool,
    ) -> Option<Cycle> {
        let mut fresh = IdleBound::default();
        fresh.open();
        for s in self.backlogged.iter() {
            match self.head_fate(s, now) {
                Fate::NotBefore(at) => fresh.wake_at(at),
                Fate::Held => {}
                Fate::Move(_) | Fate::CfqExhausted { .. } => fresh.clear(),
            }
        }
        self.park_bound_from(now, inject_link, &fresh, sink_awaited)
    }

    /// The bound over the cycles from `next` on, given the AdVOQ walk's.
    fn park_bound_from(
        &self,
        next: Cycle,
        inject_link: &Link,
        walk: &IdleBound,
        sink_awaited: bool,
    ) -> Option<Cycle> {
        if self.holds_a_cfq() {
            return None;
        }
        let mut until = self.next_timer_deadline();
        if self.cfg.per_dest_output {
            let holds_nothing = self.holds_no_packet() && self.becn_out.is_empty();
            return (holds_nothing && !sink_awaited).then_some(until);
        }
        if !self.backlogged.is_empty() || sink_awaited {
            until = until.min(walk.current()?);
        }
        if !self.becn_out.is_empty() || !self.nfq.is_empty() {
            // Output-buffer entries are visible from the cycle they are
            // pushed; a transmitter found idle can be short of credits,
            // which return without an activation.
            if inject_link.tx_idle(next) {
                return None;
            }
            until = until.min(inject_link.tx_free_at());
        }
        Some(until)
    }

    /// Packets currently buffered in the adapter (AdVOQs + output
    /// buffer), for conservation checks.
    pub fn resident_packets(&self) -> usize {
        self.peers
            .values()
            .iter()
            .map(|p| p.queue.len())
            .sum::<usize>()
            + self.nfq.len()
            + self.cfqs.iter().map(|c| c.queue.len()).sum::<usize>()
    }

    /// Current backlog of one AdVOQ in flits (tests).
    pub fn advoq_occupancy(&self, dst: NodeId) -> u32 {
        let q = self.peers.get(dst.index()).map(|p| &p.queue);
        q.map_or(0, PacketQueue::occupancy_flits)
    }

    /// Fault subsystem: drop every buffered packet whose destination
    /// satisfies `unreachable` (live re-route made it undeliverable).
    /// AdVOQ entries hold no output RAM (it is reserved at the
    /// AdVOQ→NFQ/CFQ move), NFQ/CFQ entries release theirs; pending
    /// BECNs to such destinations are dropped as lost control traffic.
    /// `scratch` is caller-provided to avoid per-call allocation.
    pub fn purge_unreachable(
        &mut self,
        unreachable: &dyn Fn(NodeId) -> bool,
        scratch: &mut Vec<QueuedPacket>,
    ) -> PurgeStats {
        let mut stats = PurgeStats::default();
        self.idle.clear();
        scratch.clear();
        for s in 0..self.peers.len() {
            if unreachable(NodeId(self.peers.key(s) as u32)) {
                self.peers[s].queue.drain_all_into(scratch);
                self.backlogged.remove(s);
            }
        }
        let advoq_purged = scratch.len();
        self.nfq
            .drain_where_into(|e| unreachable(e.packet.dst), scratch);
        for c in self.cfqs.iter_mut() {
            c.queue
                .drain_where_into(|e| unreachable(e.packet.dst), scratch);
        }
        for e in scratch.iter() {
            stats.note(e.packet.is_data());
        }
        for e in scratch.iter().skip(advoq_purged) {
            self.out_ram.release(e.packet.size_flits);
        }
        let becns_before = self.becn_out.len();
        self.becn_out.retain(|b| !unreachable(b.dst));
        stats.ctrl_packets += (becns_before - self.becn_out.len()) as u64;
        scratch.clear();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccfit_engine::link::LinkConfig;
    use ccfit_engine::units::UnitModel;
    use ccfit_metrics::MetricsCollector;

    pub(super) fn cfg(thr: bool, iso: bool) -> AdapterCfg {
        let units = UnitModel::default();
        AdapterCfg {
            iso: iso.then(IsolationParams::default),
            thr: thr.then(|| AdapterThrottle::from_params(&ThrottleParams::default(), &units)),
            mtu_flits: 32,
            out_ram_flits: 1024,
            advoq_cap_flits: 256,
            nfq_gate_flits: 128,
            per_dest_output: false,
            dcqcn: None,
            hpcc: None,
            data_overhead_bytes: 0,
        }
    }

    fn adapter(thr: bool, iso: bool) -> (Adapter, Vec<Link>) {
        let links = vec![Link::new(LinkConfig::default(), 1024)];
        (
            Adapter::new(NodeId(0), cfg(thr, iso), LinkId(0), 1, 8),
            links,
        )
    }

    pub(super) fn gp(dst: u32) -> GenPacket {
        GenPacket {
            flow: ccfit_engine::ids::FlowId(0),
            dst: NodeId(dst),
            size_flits: 32,
            size_bytes: 2048,
        }
    }

    fn drain(l: &mut Link, now: u64) -> Vec<ccfit_engine::link::Delivery> {
        let mut v = Vec::new();
        l.deliver_into(now, &mut v);
        v
    }

    #[test]
    fn injection_flows_through_to_the_link() {
        let (mut a, mut links) = adapter(false, false);
        let mut m = MetricsCollector::new(UnitModel::default(), 1000.0);
        assert!(a.try_inject(0, gp(3), PacketId(1)));
        // Single-cycle passthrough: AdVOQ -> NFQ -> link within tick 0.
        let rel = a.tick(0, &mut links, None, &mut m);
        assert!(rel.is_some());
        let d = drain(&mut links[0], 100);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].packet.dst, NodeId(3));
        assert_eq!(a.resident_packets(), 0);
    }

    #[test]
    fn advoq_admission_is_bounded() {
        let (mut a, _links) = adapter(false, false);
        // Cap is 256 flits = 8 MTU packets.
        for i in 0..8 {
            assert!(a.try_inject(0, gp(3), PacketId(i)), "packet {i}");
        }
        assert!(
            !a.try_inject(0, gp(3), PacketId(99)),
            "ninth packet refused"
        );
        assert!(
            a.try_inject(0, gp(4), PacketId(100)),
            "other AdVOQ unaffected"
        );
    }

    #[test]
    fn becn_bumps_ccti_and_timer_decays_it() {
        let (mut a, mut links) = adapter(true, false);
        let mut m = MetricsCollector::new(UnitModel::default(), 1000.0);
        a.on_becn(0, NodeId(4), &mut m);
        a.on_becn(0, NodeId(4), &mut m);
        assert_eq!(a.ccti(NodeId(4)), 2);
        assert_eq!(a.ccti(NodeId(3)), 0, "per-destination state");
        assert_eq!(m.counter("becn_received"), 2);
        // CCTI_Timer = 8000 ns = 313 cycles; after two expiries it is 0.
        let timer = AdapterThrottle::from_params(&ThrottleParams::default(), &UnitModel::default())
            .ccti_timer_cycles;
        a.tick(timer, &mut links, None, &mut m);
        assert_eq!(a.ccti(NodeId(4)), 1);
        a.tick(2 * timer, &mut links, None, &mut m);
        assert_eq!(a.ccti(NodeId(4)), 0);
    }

    #[test]
    fn throttled_destination_injects_slower() {
        let (mut a, mut links) = adapter(true, false);
        let mut m = MetricsCollector::new(UnitModel::default(), 1000.0);
        // Saturate the AdVOQ for node 3, no BECNs: packets stream at line
        // rate (32 cycles per MTU).
        let mut next_id = 0u64;
        let mut sent_unthrottled = 0u64;
        for now in 0..3200u64 {
            if a.try_inject(now, gp(3), PacketId(next_id)) {
                next_id += 1;
            }
            a.tick(now, &mut links, None, &mut m);
            links[0].poll_credits(now);
        }
        for d in drain(&mut links[0], 10_000) {
            let _ = d;
            sent_unthrottled += 1;
        }
        // Now hammer BECNs to raise the IRD and measure again.
        let (mut b, mut links2) = adapter(true, false);
        for _ in 0..20 {
            b.on_becn(0, NodeId(3), &mut m);
        }
        let mut next_id = 0u64;
        let mut sent_throttled = 0u64;
        for now in 0..3200u64 {
            if b.try_inject(now, gp(3), PacketId(next_id)) {
                next_id += 1;
            }
            // Keep the CCTI pinned high against timer decay.
            if now % 100 == 0 {
                b.on_becn(now, NodeId(3), &mut m);
            }
            b.tick(now, &mut links2, None, &mut m);
            links2[0].poll_credits(now);
        }
        for d in drain(&mut links2[0], 10_000) {
            let _ = d;
            sent_throttled += 1;
        }
        assert!(
            sent_throttled * 2 < sent_unthrottled,
            "throttled {sent_throttled} vs unthrottled {sent_unthrottled}"
        );
        assert!(m.counter("throttled_injections") > 0);
    }

    #[test]
    fn stop_pauses_the_isolated_flow_and_go_resumes_it() {
        let (mut a, mut links) = adapter(false, true);
        let mut m = MetricsCollector::new(UnitModel::default(), 1000.0);
        // Switch announces congestion tree for node 4, then stops it.
        links[0].send_ctrl(0, CtrlEvent::CfqAlloc { dst: NodeId(4) });
        links[0].send_ctrl(0, CtrlEvent::Stop { dst: NodeId(4) });
        a.poll_ctrl(10, &mut links, &mut m);
        assert!(a.try_inject(10, gp(4), PacketId(0)));
        assert!(a.try_inject(10, gp(3), PacketId(1)));
        let mut injected_dsts = Vec::new();
        for now in 10..200u64 {
            a.tick(now, &mut links, None, &mut m);
            links[0].poll_credits(now);
        }
        for d in drain(&mut links[0], 1000) {
            injected_dsts.push(d.packet.dst);
        }
        assert_eq!(
            injected_dsts,
            vec![NodeId(3)],
            "only the uncongested flow moves"
        );
        // Go resumes.
        links[0].send_ctrl(200, CtrlEvent::Go { dst: NodeId(4) });
        a.poll_ctrl(210, &mut links, &mut m);
        for now in 210..400u64 {
            a.tick(now, &mut links, None, &mut m);
            links[0].poll_credits(now);
        }
        let d = drain(&mut links[0], 1000);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].packet.dst, NodeId(4));
    }

    #[test]
    fn isolated_flow_does_not_block_the_nfq() {
        let (mut a, mut links) = adapter(false, true);
        let mut m = MetricsCollector::new(UnitModel::default(), 1000.0);
        links[0].send_ctrl(0, CtrlEvent::CfqAlloc { dst: NodeId(4) });
        links[0].send_ctrl(0, CtrlEvent::Stop { dst: NodeId(4) });
        a.poll_ctrl(5, &mut links, &mut m);
        // Many packets for the stopped destination, then one for another.
        let mut id = 0u64;
        for _ in 0..4 {
            assert!(a.try_inject(5, gp(4), PacketId(id)));
            id += 1;
        }
        assert!(a.try_inject(5, gp(3), PacketId(id)));
        let mut got = Vec::new();
        for now in 5..400u64 {
            a.tick(now, &mut links, None, &mut m);
            links[0].poll_credits(now);
            for d in drain(&mut links[0], now) {
                got.push(d.packet.dst);
            }
        }
        assert_eq!(
            got,
            vec![NodeId(3)],
            "victim bypasses the stopped congested flow"
        );
    }

    #[test]
    fn non_throttling_adapter_ignores_becns() {
        let (mut a, _links) = adapter(false, false);
        let mut m = MetricsCollector::new(UnitModel::default(), 1000.0);
        a.on_becn(0, NodeId(4), &mut m);
        assert_eq!(a.ccti(NodeId(4)), 0);
    }

    /// A mechanism that is on answers for every destination — a fresh
    /// flow until the destination is used — and one that is off answers
    /// for none, whatever state exists.
    #[test]
    fn modern_cc_introspection_follows_the_configuration_not_the_state() {
        let cycles_per_ns = 1.0 / UnitModel::default().cycle_ns;
        let dc = DcqcnCfg::materialise(&Default::default(), cycles_per_ns);
        let hc = HpccCfg::materialise(&Default::default(), cycles_per_ns);
        let mut m = MetricsCollector::new(UnitModel::default(), 1000.0);
        let with = |dcqcn: Option<DcqcnCfg>, hpcc: Option<HpccCfg>| {
            let cfg = AdapterCfg {
                dcqcn,
                hpcc,
                ..cfg(false, false)
            };
            Adapter::new(NodeId(0), cfg, LinkId(0), 1, 8)
        };

        let mut a = with(Some(dc.clone()), None);
        assert_eq!(a.peer_count(), 0);
        assert_eq!(a.dcqcn_rate(NodeId(5)), Some(DcqcnFlow::new(0, &dc).rc));
        assert_eq!(a.hpcc_window(NodeId(5)), None);
        a.on_cnp(10, NodeId(5), &mut m);
        assert!(
            a.dcqcn_rate(NodeId(5)).unwrap() < 1.0,
            "the CNP cut the rate"
        );
        assert_eq!(a.dcqcn_rate(NodeId(4)), Some(1.0), "other peers untouched");
        assert_eq!(
            a.hpcc_window(NodeId(5)),
            None,
            "state exists, HPCC still off"
        );

        let mut a = with(None, Some(hc.clone()));
        assert_eq!(a.hpcc_window(NodeId(5)), Some(hc.w_init));
        assert_eq!(a.dcqcn_rate(NodeId(5)), None);
        a.on_ack(10, NodeId(5), 100.0, 3, 2048, &mut m);
        assert!(a.hpcc_window(NodeId(5)).unwrap() < hc.w_init);
        assert_eq!(a.hpcc_window(NodeId(4)), Some(hc.w_init));
        assert_eq!(a.peer_count(), 1);

        let mut a = with(None, None);
        a.on_cnp(10, NodeId(5), &mut m);
        a.on_ack(10, NodeId(5), 100.0, 3, 2048, &mut m);
        assert!(!a.cnp_due(10, NodeId(5)));
        assert_eq!(
            (a.dcqcn_rate(NodeId(5)), a.hpcc_window(NodeId(5))),
            (None, None)
        );
        assert_eq!(
            a.peer_count(),
            0,
            "feedback for a mechanism that is off creates nothing"
        );
    }

    #[test]
    fn ccti_saturates_at_cct_length() {
        let (mut a, _links) = adapter(true, false);
        let mut m = MetricsCollector::new(UnitModel::default(), 1000.0);
        for _ in 0..1000 {
            a.on_becn(0, NodeId(2), &mut m);
        }
        assert_eq!(
            a.ccti(NodeId(2)) as usize,
            ThrottleParams::default().cct_len - 1
        );
    }
}

/// The AdVOQ idle bound (DESIGN.md §12, "Who clears what"): one test per
/// write that clears the bound — a head held on exactly the state the
/// write changes, a fruitless walk that leaves a bound, the write, and
/// the head moving on the next call — and one per thing that must *not*
/// disturb a bound. In debug builds every skipped walk is also checked
/// against a fresh read of every head; these hold in `--release` too.
#[cfg(test)]
mod idle_bound_tests {
    use super::tests::{cfg, gp};
    use super::*;
    use ccfit_engine::link::LinkConfig;
    use ccfit_metrics::MetricsCollector;

    /// An 8-node adapter over a link with `credits` flits of credit; with
    /// none, nothing ever leaves the output buffer.
    struct Fx {
        a: Adapter,
        links: Vec<Link>,
        m: MetricsCollector,
        next_id: u64,
    }

    fn fx(cfg: AdapterCfg, credits: u32) -> Fx {
        Fx {
            a: Adapter::new(NodeId(0), cfg, LinkId(0), 1, 8),
            links: vec![Link::new(LinkConfig::default(), credits)],
            m: MetricsCollector::new(UnitModel::default(), 1000.0),
            next_id: 0,
        }
    }

    impl Fx {
        /// Offer one MTU packet for `dst`.
        fn inject(&mut self, now: Cycle, dst: u32) -> bool {
            self.next_id += 1;
            self.a.try_inject(now, gp(dst), PacketId(self.next_id))
        }

        fn tick(&mut self, now: Cycle) -> Option<AdapterRelease> {
            self.links[0].poll_credits(now);
            self.a.tick(now, &mut self.links, None, &mut self.m)
        }

        fn ctrl(&mut self, now: Cycle, ev: CtrlEvent) {
            self.links[0].send_ctrl(now, ev);
            let due = now + LinkConfig::default().delay_cycles;
            self.a.poll_ctrl(due, &mut self.links, &mut self.m);
        }

        fn backlog(&self, dst: u32) -> u32 {
            self.a.advoq_occupancy(NodeId(dst)) / 32
        }

        /// Allocated CFQ slots.
        fn cfqs(&self) -> usize {
            self.a.cfqs.iter().filter(|c| c.state.is_some()).count()
        }

        /// Fill the NFQ to its gate with one packet for each of
        /// destinations 1–4, over a link without credits; returns the
        /// next cycle.
        fn gate_the_nfq(&mut self) -> Cycle {
            for dst in 1..=4 {
                assert!(self.inject(0, dst));
            }
            for now in 0..4 {
                self.tick(now);
            }
            assert_eq!(self.a.nfq.occupancy_flits(), self.a.cfg.nfq_gate_flits);
            4
        }
    }

    #[test]
    fn a_new_head_wakes_the_walk_and_a_push_behind_it_does_not() {
        let mut f = fx(cfg(false, false), 1024);
        f.tick(0);
        assert!(f.a.idle_bound_holds(1), "nothing backlogged: bounded");
        assert_eq!(f.a.idle.until(), Cycle::MAX);
        assert!(f.inject(1, 3));
        assert!(!f.a.idle_bound_holds(1));
        assert!(f.tick(1).is_some(), "AdVOQ -> NFQ -> link in the tick");

        let mut f = fx(cfg(false, false), 0);
        let now = f.gate_the_nfq();
        assert!(f.inject(now, 5));
        f.tick(now);
        assert!(f.a.idle_bound_holds(now + 1), "held at the NFQ gate");
        while f.inject(now, 5) {}
        assert_eq!(f.backlog(5), 8, "admitted up to the AdVOQ cap");
        assert!(
            f.a.idle_bound_holds(now + 1),
            "pushes behind a head, and a refusal"
        );
        assert!(f.inject(now, 6));
        assert_eq!(f.a.idle.current(), None, "a push onto an empty AdVOQ");
    }

    #[test]
    fn absorbed_ctrl_clears_the_bound_and_frees_a_held_head() {
        let mut f = fx(cfg(false, true), 0);
        f.ctrl(0, CtrlEvent::CfqAlloc { dst: NodeId(4) });
        // Ten packets fill the CFQ to its Stop threshold; the eleventh
        // is held in the AdVOQ, also once its injection gap has run.
        let mut now = 1;
        while f.a.cfqs.first().map_or(0, |c| c.queue.len()) < 10 || f.backlog(4) == 0 {
            f.inject(now, 4);
            f.tick(now);
            now += 1;
            assert!(now < 1000, "the CFQ must fill");
        }
        now += 32;
        f.tick(now);
        assert!(f.a.idle_bound_holds(now + 1), "held: CFQ past Stop");
        assert_eq!(f.a.idle.until(), Cycle::MAX, "by state alone");
        let held = f.backlog(4);
        f.ctrl(now, CtrlEvent::CfqDealloc { dst: NodeId(4) });
        now += 2;
        f.tick(now);
        assert_eq!(
            f.backlog(4),
            held - 1,
            "no CAM line: the head takes the NFQ"
        );
        assert_eq!(f.a.nfq.len(), 1);

        for ev in [
            CtrlEvent::CfqAlloc { dst: NodeId(5) },
            CtrlEvent::Stop { dst: NodeId(5) },
            CtrlEvent::Go { dst: NodeId(5) },
            CtrlEvent::CfqDealloc { dst: NodeId(5) },
        ] {
            now += 2;
            f.tick(now);
            assert!(f.a.idle.current().is_some(), "{ev:?}: a bound to clear");
            f.ctrl(now, ev);
            assert_eq!(f.a.idle.current(), None, "{ev:?}");
        }
    }

    #[test]
    fn an_ack_reopens_the_hpcc_window() {
        let cycles_per_ns = 1.0 / UnitModel::default().cycle_ns;
        let hc = HpccCfg {
            w_init: 4096.0,
            ..HpccCfg::materialise(&Default::default(), cycles_per_ns)
        };
        let mut f = fx(
            AdapterCfg {
                hpcc: Some(hc),
                ..cfg(false, false)
            },
            1024,
        );
        for _ in 0..4 {
            assert!(f.inject(0, 3));
        }
        f.tick(0);
        f.tick(32);
        assert_eq!(f.backlog(3), 2, "two packets fill the window");
        f.tick(64);
        assert_eq!(f.backlog(3), 2);
        assert!(f.a.idle_bound_holds(65), "held: window full");
        f.a.on_ack(64, NodeId(3), 0.0, 3, 2048, &mut f.m);
        f.tick(65);
        assert_eq!(f.backlog(3), 1);
    }

    #[test]
    fn a_ram_release_frees_a_head_held_on_the_output_ram() {
        let mut f = fx(
            AdapterCfg {
                out_ram_flits: 64,
                ..cfg(false, false)
            },
            1024,
        );
        for _ in 0..3 {
            assert!(f.inject(0, 3));
        }
        let first = f.tick(0).expect("first packet injected");
        assert!(f.tick(32).is_some(), "second packet injected");
        f.tick(64);
        assert_eq!(f.backlog(3), 1, "RAM of both still reserved");
        assert!(f.a.idle_bound_holds(65));
        f.a.release_ram(first.flits);
        assert!(f.tick(65).is_some());
        assert_eq!(f.backlog(3), 0);
    }

    #[test]
    fn an_output_pop_reopens_the_nfq_gate() {
        let mut f = fx(cfg(false, false), 1024);
        for dst in 1..=6 {
            assert!(f.inject(0, dst));
        }
        // Cycle 0 sends the first packet (32 cycles on the wire), cycles
        // 1–4 fill the NFQ to its gate, and from cycle 5 on the last
        // head waits for the pop at cycle 32.
        for now in 0..=32 {
            f.tick(now);
            assert_eq!(f.backlog(6), 1, "cycle {now}");
            assert_eq!(f.a.idle_bound_holds(now + 1), (5..32).contains(&now));
        }
        f.tick(33);
        assert_eq!(f.backlog(6), 0);
    }

    #[test]
    fn cfq_deallocation_clears_the_bound() {
        let mut f = fx(cfg(false, true), 1024);
        f.ctrl(0, CtrlEvent::CfqAlloc { dst: NodeId(4) });
        assert!(f.inject(1, 4));
        f.tick(1);
        assert_eq!(
            (f.cfqs(), f.a.resident_packets()),
            (1, 0),
            "isolated and sent"
        );
        f.ctrl(2, CtrlEvent::CfqDealloc { dst: NodeId(4) });
        // Calm since cycle 1: one packet is below the calm threshold.
        let linger = IsolationParams::default().dealloc_linger_cycles;
        f.tick(linger);
        assert_eq!(f.cfqs(), 1);
        assert!(f.a.idle_bound_holds(1 + linger), "nothing backlogged");
        f.tick(1 + linger);
        assert_eq!(f.cfqs(), 0);
        assert_eq!(f.a.idle.current(), None);
    }

    #[test]
    fn a_purge_reopens_the_nfq_gate() {
        let mut f = fx(cfg(false, false), 0);
        let now = f.gate_the_nfq();
        assert!(f.inject(now, 5));
        f.tick(now);
        assert!(f.a.idle_bound_holds(now + 1));
        let stats = f.a.purge_unreachable(&|d| d.0 < 5, &mut Vec::new());
        assert_eq!(stats.data_packets, 4);
        f.tick(now + 1);
        assert_eq!((f.backlog(5), f.a.nfq.len()), (0, 1));
    }

    #[test]
    fn until_is_the_earliest_next_allowed() {
        let mut f = fx(cfg(true, false), 1024);
        // Destination 3 is throttled lightly and met first by the walk,
        // destination 4 heavily.
        for _ in 0..2 {
            f.a.on_becn(0, NodeId(3), &mut f.m);
        }
        for _ in 0..5 {
            f.a.on_becn(0, NodeId(4), &mut f.m);
        }
        for dst in [3, 4, 3, 4] {
            assert!(f.inject(0, dst));
        }
        f.tick(0);
        f.tick(1);
        assert_eq!((f.backlog(3), f.backlog(4)), (1, 1));
        f.tick(2);
        let cct = &f.a.cfg.thr.as_ref().unwrap().cct;
        let (free3, free4) = (32 + cct[2], 1 + 32 + cct[5]);
        assert!(free3 < free4);
        assert_eq!(f.a.idle.until(), free3);
        assert!(f.a.idle_bound_holds(3));
        // The output pop at cycle 32 clears the bound; the walk of the
        // next cycle records the same one.
        for now in 3..free3 {
            f.tick(now);
            let until = (now != 32).then_some(free3);
            assert_eq!(f.a.idle.current(), until, "cycle {now}");
        }
        assert_eq!((f.backlog(3), f.backlog(4)), (1, 1));
        f.tick(free3);
        assert_eq!((f.backlog(3), f.backlog(4)), (0, 1));
        f.tick(free3 + 1);
        assert_eq!(f.a.idle.until(), free4, "re-recorded by the next walk");
    }

    #[test]
    fn a_cfq_exhausted_walk_counts_every_cycle() {
        let mut f = fx(cfg(false, true), 0);
        for dst in [5, 6, 7] {
            f.ctrl(0, CtrlEvent::CfqAlloc { dst: NodeId(dst) });
        }
        // Destinations 5 and 6 take the two CFQs, 1–4 gate the NFQ, and
        // the head for 7 is left with neither.
        for dst in [5, 6, 1, 2, 3, 4, 7] {
            assert!(f.inject(1, dst));
        }
        for now in 1..=6 {
            f.tick(now);
        }
        assert_eq!((f.cfqs(), f.a.nfq.len(), f.backlog(7)), (2, 4, 1));
        let counted = f.m.counter("ia_cfq_exhausted");
        for now in 7..17 {
            f.tick(now);
            assert_eq!(f.a.idle.until(), 0, "no bound");
        }
        assert_eq!(f.m.counter("ia_cfq_exhausted"), counted + 10);
    }

    /// BECNs, CNPs and timer expiries change the gap charged at the next
    /// move, never whether a head may move: a bound survives them, and
    /// the move that follows pays the new price.
    #[test]
    fn throttle_feedback_leaves_the_bound_in_place() {
        let mut f = fx(cfg(true, false), 0);
        let now = f.gate_the_nfq();
        assert!(f.inject(now, 5));
        assert!(f.inject(now, 5));
        f.tick(now);
        assert!(f.a.idle_bound_holds(now + 1));
        f.a.on_becn(now, NodeId(5), &mut f.m);
        f.a.on_becn(now, NodeId(5), &mut f.m);
        let timer = f.a.cfg.thr.as_ref().unwrap().ccti_timer_cycles;
        f.tick(now + timer);
        assert_eq!(f.a.ccti(NodeId(5)), 1, "the timer expired once");
        assert!(f.a.idle_bound_holds(now + timer + 1));
        assert_eq!(f.backlog(5), 2);
        // The gate opens; the move is charged the IRD of CCTI 1.
        f.a.purge_unreachable(&|d| d.0 < 5, &mut Vec::new());
        let at = now + timer + 1;
        f.tick(at);
        assert_eq!(f.backlog(5), 1);
        let ird = f.a.cfg.thr.as_ref().unwrap().cct[1];
        assert_eq!(f.a.idle.until(), 0, "a move leaves no bound");
        f.tick(at + 1);
        assert_eq!(f.a.idle.until(), at + 32 + ird);

        let cycles_per_ns = 1.0 / UnitModel::default().cycle_ns;
        let mut f = fx(
            AdapterCfg {
                dcqcn: Some(DcqcnCfg::materialise(&Default::default(), cycles_per_ns)),
                ..cfg(false, false)
            },
            0,
        );
        let now = f.gate_the_nfq();
        assert!(f.inject(now, 5));
        f.tick(now);
        f.a.on_cnp(now, NodeId(5), &mut f.m);
        assert!(f.a.dcqcn_rate(NodeId(5)).unwrap() < 1.0);
        assert!(f.a.idle_bound_holds(now + 1));
        f.tick(now + 1);
        assert_eq!(f.backlog(5), 1);
    }

    // ---- the park rule: one case per clause of `park_bound` ----
    //
    // `Some(until)` takes the node off the work-list until `until`, so
    // each clause is shown denying (or lowering the bound) on its own.

    impl Fx {
        fn park_bound(&self, now: Cycle) -> Option<Cycle> {
            self.a.park_bound(now, &self.links[0], false)
        }
    }

    #[test]
    fn a_quiet_adapter_parks_until_its_earliest_timer() {
        let mut f = fx(cfg(true, false), 1024);
        assert_eq!(f.park_bound(0), Some(Cycle::MAX));
        f.a.on_becn(5, NodeId(3), &mut f.m);
        let timer = f.a.cfg.thr.as_ref().unwrap().ccti_timer_cycles;
        assert_eq!(f.park_bound(5), Some(5 + timer));
        assert_eq!(
            f.a.park_bound_rederived(6, &f.links[0], false),
            Some(5 + timer)
        );
        f.tick(5 + timer);
        assert_eq!(f.a.ccti(NodeId(3)), 0, "decayed on the deadline");
        assert_eq!(f.park_bound(5 + timer), Some(Cycle::MAX));
    }

    #[test]
    fn a_gapped_head_parks_the_adapter_until_its_next_injection() {
        let mut f = fx(cfg(false, false), 1024);
        assert!(f.inject(0, 3) && f.inject(0, 3));
        assert!(f.tick(0).is_some(), "first packet on the wire");
        assert_eq!(f.park_bound(0), None, "a walk that moved proves nothing");
        assert!(f.tick(1).is_none());
        assert_eq!(f.park_bound(1), Some(32), "the packet time of the first");
        for now in [2, 31] {
            let fresh = f.a.park_bound_rederived(now, &f.links[0], false);
            assert_eq!(fresh, Some(32), "cycle {now}");
        }
        assert_eq!(f.a.park_bound_rederived(32, &f.links[0], false), None);
        assert!(f.tick(32).is_some());
        assert_eq!(f.park_bound(32), Some(Cycle::MAX), "sent, nothing left");
    }

    #[test]
    fn an_output_head_waits_for_the_transmitter_alone() {
        let mut f = fx(cfg(false, false), 1024);
        for dst in 1..=3 {
            assert!(f.inject(0, dst));
        }
        assert!(f.tick(0).is_some());
        f.tick(1);
        assert_eq!(f.park_bound(1), None, "the walk moved a packet");
        f.tick(2);
        assert_eq!((f.a.nfq.len(), f.a.backlogged.is_empty()), (2, true));
        assert_eq!(f.park_bound(2), Some(32), "tx_free_at");
        assert_eq!(f.a.park_bound_rederived(31, &f.links[0], false), Some(32));
        assert_eq!(f.a.park_bound_rederived(32, &f.links[0], false), None);
        assert_eq!(f.park_bound(31), None, "the transmitter is free next cycle");

        // Short of credits with the transmitter idle: credits return
        // without activating the node.
        let mut f = fx(cfg(false, false), 0);
        assert!(f.inject(0, 3));
        f.tick(0);
        assert_eq!(f.a.nfq.len(), 1);
        assert_eq!(f.park_bound(0), None);
    }

    #[test]
    fn an_ack_clears_the_bound_and_ends_the_park() {
        let cycles_per_ns = 1.0 / UnitModel::default().cycle_ns;
        let hc = HpccCfg {
            w_init: 4096.0,
            ..HpccCfg::materialise(&Default::default(), cycles_per_ns)
        };
        let mut f = fx(
            AdapterCfg {
                hpcc: Some(hc),
                ..cfg(false, false)
            },
            1024,
        );
        for _ in 0..4 {
            assert!(f.inject(0, 3));
        }
        f.tick(0);
        f.tick(32);
        f.tick(64);
        assert_eq!(f.backlog(3), 2, "held: window full");
        assert_eq!(f.park_bound(64), Some(Cycle::MAX), "until an ACK");
        f.a.on_ack(70, NodeId(3), 0.0, 3, 2048, &mut f.m);
        assert_eq!(f.park_bound(70), None);
        f.tick(70);
        assert_eq!(f.backlog(3), 1);
    }

    #[test]
    fn a_refusal_stands_only_while_the_walk_has_not_run() {
        // An AdVOQ of one packet: the second offer is refused, and the
        // walk of the same cycle then empties the queue. Nothing is left
        // for the adapter to do, but the generator's retry would now be
        // admitted: the node may not park on the refusal.
        let one_packet = AdapterCfg {
            advoq_cap_flits: 32,
            ..cfg(false, false)
        };
        let mut f = fx(one_packet, 1024);
        assert!(f.inject(0, 3) && !f.inject(0, 3));
        assert!(!f.a.admits(&gp(3)));
        assert!(f.tick(0).is_some());
        assert!(f.a.admits(&gp(3)), "the walk made room");
        assert_eq!(
            f.park_bound(0),
            Some(Cycle::MAX),
            "the adapter alone is done"
        );
        assert_eq!(f.a.park_bound(0, &f.links[0], true), None);
        // Refused with the walk's bound standing, the refusal stands too.
        let mut f = fx(cfg(false, false), 1024);
        while f.inject(0, 3) {}
        f.tick(0);
        f.tick(1);
        while f.inject(2, 3) {}
        assert!(
            f.a.idle_bound_holds(2),
            "pushes behind a head, and a refusal"
        );
        f.tick(2);
        assert_eq!(f.a.park_bound(2, &f.links[0], true), Some(32));
        assert!(!f.a.admits(&gp(3)));
    }

    #[test]
    fn a_cfq_forbids_parking_while_it_lingers() {
        let mut f = fx(cfg(false, true), 1024);
        f.ctrl(0, CtrlEvent::CfqAlloc { dst: NodeId(4) });
        assert!(f.inject(1, 4));
        assert!(f.tick(1).is_some(), "through a fresh CFQ onto the wire");
        assert_eq!(f.cfqs(), 1);
        assert!(f.a.backlogged.is_empty() && f.a.nfq.is_empty());
        assert_eq!(f.park_bound(1), None, "its linger clock runs every cycle");
    }

    #[test]
    fn a_voqnet_adapter_parks_only_when_it_holds_nothing() {
        let direct = AdapterCfg {
            per_dest_output: true,
            ..cfg(false, false)
        };
        let mut f = fx(direct.clone(), 1024);
        assert_eq!(f.park_bound(0), Some(Cycle::MAX));
        assert!(f.inject(0, 3) && f.inject(0, 3));
        f.tick(0);
        f.tick(1);
        assert_eq!(f.backlog(3), 1);
        assert_eq!(f.park_bound(1), None);
        // Nor on a refusal its own arbitration has just made stale.
        let mut f = fx(
            AdapterCfg {
                advoq_cap_flits: 32,
                ..direct
            },
            1024,
        );
        assert!(f.inject(0, 3) && !f.inject(0, 3));
        f.tick(0);
        assert_eq!(f.park_bound(0), Some(Cycle::MAX));
        assert_eq!(f.a.park_bound(0, &f.links[0], true), None);
    }

    #[test]
    fn dropping_the_memos_makes_the_next_walk_run() {
        let mut f = fx(cfg(false, false), 1024);
        assert!(f.inject(0, 3) && f.inject(0, 3));
        f.tick(0);
        f.tick(1);
        assert!(f.a.idle_bound_holds(2));
        f.a.drop_memos();
        assert!(!f.a.idle_bound_holds(2));
        assert_eq!(f.park_bound(1), None);
    }
}

#[cfg(test)]
mod voqnet_tests {
    use super::*;
    use ccfit_engine::link::LinkConfig;
    use ccfit_engine::units::UnitModel;
    use ccfit_metrics::MetricsCollector;

    fn direct_adapter() -> (Adapter, Vec<Link>) {
        let cfg = AdapterCfg {
            iso: None,
            thr: None,
            mtu_flits: 32,
            out_ram_flits: 1024,
            advoq_cap_flits: 256,
            nfq_gate_flits: 128,
            per_dest_output: true,
            dcqcn: None,
            hpcc: None,
            data_overhead_bytes: 0,
        };
        let links = vec![Link::new(LinkConfig::default(), 1024)];
        (Adapter::new(NodeId(0), cfg, LinkId(0), 1, 8), links)
    }

    fn gp(dst: u32) -> ccfit_traffic::GenPacket {
        ccfit_traffic::GenPacket {
            flow: ccfit_engine::ids::FlowId(0),
            dst: NodeId(dst),
            size_flits: 32,
            size_bytes: 2048,
        }
    }

    fn drain(l: &mut Link, now: u64) -> Vec<ccfit_engine::link::Delivery> {
        let mut v = Vec::new();
        l.deliver_into(now, &mut v);
        v
    }

    #[test]
    fn direct_mode_bypasses_the_nfq() {
        let (mut a, mut links) = direct_adapter();
        let mut m = MetricsCollector::new(UnitModel::default(), 1000.0);
        assert!(a.try_inject(0, gp(3), PacketId(0)));
        let rel = a.tick(0, &mut links, None, &mut m);
        assert!(rel.is_none(), "direct mode does not use the output RAM");
        let d = drain(&mut links[0], 100);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].packet.dst, NodeId(3));
        assert_eq!(a.resident_packets(), 0);
    }

    #[test]
    fn per_dest_credits_block_only_their_destination() {
        let (mut a, mut links) = direct_adapter();
        let mut m = MetricsCollector::new(UnitModel::default(), 1000.0);
        // Per-destination credits: dst 4 has none, dst 3 plenty.
        let mut vn = VoqNetCredits::new(1, 8, 256);
        vn.set(0, 4, 0);
        vn.set(0, 3, 256);
        assert!(a.try_inject(0, gp(4), PacketId(0)));
        assert!(a.try_inject(0, gp(3), PacketId(1)));
        let mut dsts = Vec::new();
        let mut now = 0u64;
        for _ in 0..8 {
            a.tick(now, &mut links, Some(&mut vn), &mut m);
            links[0].poll_credits(now);
            now += 33;
            for d in drain(&mut links[0], now) {
                dsts.push(d.packet.dst);
            }
        }
        assert_eq!(
            dsts,
            vec![NodeId(3)],
            "hot destination held back, other flows"
        );
        assert_eq!(
            vn.get(0, 3),
            Some(256 - 32),
            "credits debited for the sent packet"
        );
        assert_eq!(
            a.advoq_occupancy(NodeId(4)),
            32,
            "blocked packet waits in its AdVOQ"
        );
    }

    #[test]
    fn direct_mode_round_robins_across_advoqs() {
        let (mut a, mut links) = direct_adapter();
        let mut m = MetricsCollector::new(UnitModel::default(), 1000.0);
        for (i, d) in [1u32, 2, 3].iter().enumerate() {
            assert!(a.try_inject(0, gp(*d), PacketId(i as u64)));
            assert!(a.try_inject(0, gp(*d), PacketId(100 + i as u64)));
        }
        let mut dsts = Vec::new();
        let mut now = 0u64;
        while dsts.len() < 6 {
            a.tick(now, &mut links, None, &mut m);
            links[0].poll_credits(now);
            now += 1;
            for d in drain(&mut links[0], now) {
                dsts.push(d.packet.dst.0);
            }
            assert!(now < 1000, "all packets must drain");
        }
        // Round robin: first three are 1,2,3 in some rotation, then repeat.
        assert_eq!(&dsts[0..3], &[1, 2, 3]);
        assert_eq!(&dsts[3..6], &[1, 2, 3]);
    }
}

/// The on-demand peer entries, the backlogged-slot walk and the
/// deadline-gated timer scan against the exhaustive forms they replaced:
/// state for every destination, every AdVOQ visited, every timer scanned.
#[cfg(test)]
mod walk_tests {
    use super::*;
    use ccfit_engine::ids::FlowId;
    use ccfit_engine::link::LinkConfig;
    use ccfit_metrics::MetricsCollector;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Sizes around the word boundary of the bitset.
    const SIZES: [usize; 6] = [1, 7, 64, 65, 100, 128];

    proptest! {
        /// The cursor yields exactly the members the `(start + step) % n`
        /// walk meets, in the order it meets them.
        #[test]
        fn round_robin_cursor_matches_the_modular_walk(
            size in 0usize..SIZES.len(),
            members in prop::collection::vec(any::<u32>(), 0..40),
            start in any::<u32>(),
        ) {
            let n = SIZES[size];
            let start = start as usize % n;
            let mut set = BitSet::new(n);
            for m in members {
                set.insert(m as usize % n);
            }
            let expect: Vec<usize> = (0..n)
                .map(|step| (start + step) % n)
                .filter(|&d| set.contains(d))
                .collect();
            let mut walk = RoundRobin::new(start, n);
            let mut got = Vec::new();
            while let Some(d) = walk.next(&set) {
                got.push(d);
            }
            prop_assert_eq!(got, expect);
        }
    }

    /// An adapter with its injection link, a sink that returns credits,
    /// and the release bookkeeping the simulator would do.
    struct Rig {
        a: Adapter,
        links: Vec<Link>,
        vn: Option<VoqNetCredits>,
        m: MetricsCollector,
        releases: Vec<AdapterRelease>,
        /// Packet ids in the order they reached the far end of the link.
        out: Vec<u64>,
    }

    /// Per-destination VOQnet credits: two MTU packets.
    const VN_CREDITS: u32 = 64;

    /// The adapter configurations the twin test runs under.
    #[derive(Debug, Clone, Copy)]
    struct Shape {
        thr: bool,
        iso: bool,
        direct: bool,
        dcqcn: bool,
        hpcc: bool,
    }

    const SHAPES: [Shape; 7] = {
        let paper = Shape {
            thr: false,
            iso: false,
            direct: false,
            dcqcn: false,
            hpcc: false,
        };
        [
            paper,
            Shape { thr: true, ..paper },
            Shape { iso: true, ..paper },
            Shape {
                thr: true,
                iso: true,
                ..paper
            },
            Shape {
                direct: true,
                ..paper
            },
            Shape {
                dcqcn: true,
                ..paper
            },
            Shape {
                hpcc: true,
                ..paper
            },
        ]
    };

    /// Everything the adapter knows about destination `d` except the
    /// queue itself; a never-used destination reads as a fresh entry.
    type PeerView = (
        u16,
        Cycle,
        Cycle,
        Option<(DcqcnFlow, Cycle)>,
        Option<HpccFlow>,
    );

    fn peer_view(a: &Adapter, d: usize) -> PeerView {
        let slot = a.peers.slot(d);
        let next_allowed = slot.map_or(0, |s| a.peers[s].next_allowed);
        let t = slot.map_or(Throttle::FRESH, |s| a.throttle[s]);
        let dcqcn = a.cfg.dcqcn.as_ref().map(|dc| {
            let fresh = (DcqcnFlow::new(0, dc), 0);
            slot.map_or(fresh, |s| (a.dcqcn_flows[s], a.cnp_gate[s]))
        });
        let hpcc = a
            .cfg
            .hpcc
            .as_ref()
            .map(|hc| slot.map_or_else(|| HpccFlow::new(hc), |s| a.hpcc_flows[s]));
        (t.ccti, t.timer_deadline, next_allowed, dcqcn, hpcc)
    }

    impl Rig {
        /// `dense` creates the entry of every destination up front, so
        /// slot = destination as in the per-destination vectors this
        /// state used to live in.
        fn new(n: usize, shape: Shape, dense: bool) -> Self {
            let Shape {
                thr,
                iso,
                direct,
                dcqcn,
                hpcc,
            } = shape;
            let units = UnitModel::default();
            let cycles_per_ns = 1.0 / units.cycle_ns;
            let cfg = AdapterCfg {
                iso: iso.then(IsolationParams::default),
                thr: thr.then(|| AdapterThrottle::from_params(&ThrottleParams::default(), &units)),
                mtu_flits: 32,
                out_ram_flits: 512,
                advoq_cap_flits: 128,
                nfq_gate_flits: 128,
                per_dest_output: direct,
                dcqcn: dcqcn.then(|| DcqcnCfg::materialise(&Default::default(), cycles_per_ns)),
                hpcc: hpcc.then(|| HpccCfg::materialise(&Default::default(), cycles_per_ns)),
                data_overhead_bytes: 0,
            };
            let vn = direct.then(|| {
                let mut vn = VoqNetCredits::new(1, n, VN_CREDITS);
                for d in 0..n {
                    vn.set(0, d as u32, VN_CREDITS);
                }
                vn
            });
            let mut a = Adapter::new(NodeId(0), cfg, LinkId(0), 1, n);
            if dense {
                // Descending, so every insertion moves all earlier slots.
                for d in (0..n).rev() {
                    a.peer(NodeId(d as u32));
                }
            }
            Self {
                a,
                links: vec![Link::new(LinkConfig::default(), 256)],
                vn,
                m: MetricsCollector::new(units, 1000.0),
                releases: Vec::new(),
                out: Vec::new(),
            }
        }

        /// One cycle. With `exhaustive` the arbiters walk every slot in
        /// round-robin order on every call and the timers are scanned, as
        /// before the backlogged set, the idle bound and the cached
        /// deadline existed.
        fn tick(&mut self, now: Cycle, exhaustive: bool) {
            let a = &mut self.a;
            self.releases.retain(|r| {
                if r.at <= now {
                    a.release_ram(r.flits);
                }
                r.at > now
            });
            self.links[0].poll_credits(now);
            a.poll_ctrl(now, &mut self.links, &mut self.m);
            if exhaustive {
                for s in 0..a.peers.len() {
                    a.backlogged.insert(s);
                }
                if a.cfg.thr.is_some() {
                    a.earliest_deadline = 0;
                }
                a.idle.clear();
            }
            let rel = a.tick(now, &mut self.links, self.vn.as_mut(), &mut self.m);
            self.releases.extend(rel);
            if exhaustive {
                for s in 0..a.peers.len() {
                    if a.peers[s].queue.is_empty() {
                        a.backlogged.remove(s);
                    }
                }
            }
            let mut arrived = Vec::new();
            self.links[0].deliver_into(now, &mut arrived);
            for d in arrived {
                self.out.push(d.packet.id.0);
                self.links[0].return_credits(now, d.packet.size_flits);
                // Every fifth destination never drains: its VOQnet
                // credits run out and its AdVOQ stays blocked.
                if let Some(vn) = &mut self.vn {
                    if d.packet.dst.0 % 5 != 0 {
                        vn.add(0, d.packet.dst.0, d.packet.size_flits);
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random inject / tick / purge / BECN / CNP / ACK / Stop-Go /
        /// RAM-release sequences drive two adapters in
        /// lock step — one creating peer entries as destinations come up,
        /// arbitrating over the backlogged slots and skipping the walk
        /// under its idle bound, the other holding an entry for every
        /// destination from the start and arbitrating exhaustively on
        /// every call:
        /// same packets out in the same order, same `rr`, same
        /// per-destination state, same counters. The order in which the
        /// first adapter met its destinations therefore shows nowhere.
        #[test]
        fn backlogged_walk_matches_the_exhaustive_walk(
            size in 0usize..3,
            shape in 0usize..SHAPES.len(),
            ops in prop::collection::vec((0u8..20, any::<u32>(), 0u64..48), 1..400),
        ) {
            let n = [7, 64, 100][size];
            let mut new = Rig::new(n, SHAPES[shape], false);
            let mut old = Rig::new(n, SHAPES[shape], true);
            let mut now: Cycle = 0;
            let mut next_id = 0u64;
            for (op, a, b) in ops {
                let dst = a % n as u32;
                match op {
                    0..=5 => {
                        let gp = GenPacket {
                            flow: FlowId(0),
                            dst: NodeId(dst),
                            size_flits: 32,
                            size_bytes: 2048,
                        };
                        let admitted = new.a.try_inject(now, gp, PacketId(next_id));
                        prop_assert_eq!(admitted, old.a.try_inject(now, gp, PacketId(next_id)));
                        next_id += 1;
                    }
                    6..=9 => {
                        now += 1 + b;
                        new.tick(now, false);
                        old.tick(now, true);
                    }
                    10 => {
                        let dead = |d: NodeId| d.0 % 3 == a % 3;
                        let mut scratch = Vec::new();
                        let purged = new.a.purge_unreachable(&dead, &mut scratch);
                        prop_assert_eq!(purged, old.a.purge_unreachable(&dead, &mut scratch));
                    }
                    11 => {
                        new.a.on_becn(now, NodeId(dst), &mut new.m);
                        old.a.on_becn(now, NodeId(dst), &mut old.m);
                    }
                    12 => {
                        new.a.on_cnp(now, NodeId(dst), &mut new.m);
                        old.a.on_cnp(now, NodeId(dst), &mut old.m);
                    }
                    13 => {
                        let due = new.a.cnp_due(now, NodeId(dst));
                        prop_assert_eq!(due, old.a.cnp_due(now, NodeId(dst)));
                    }
                    14 => {
                        let u = b as f32 / 32.0;
                        new.a.on_ack(now, NodeId(dst), u, 3, 2048, &mut new.m);
                        old.a.on_ack(now, NodeId(dst), u, 3, 2048, &mut old.m);
                    }
                    15..=17 => {
                        // Back-to-back cycles on state no op touched in
                        // between: where a bound gets used.
                        for _ in 0..1 + b % 8 {
                            now += 1;
                            new.tick(now, false);
                            old.tick(now, true);
                        }
                    }
                    18 => {
                        // The earliest pending RAM release lands now.
                        prop_assert_eq!(new.releases.len(), old.releases.len());
                        if !new.releases.is_empty() {
                            let at = new.releases.iter().map(|r| r.at).min();
                            for rig in [&mut new, &mut old] {
                                let i = rig.releases.iter().position(|r| Some(r.at) == at);
                                let r = rig.releases.swap_remove(i.expect("same releases"));
                                rig.a.release_ram(r.flits);
                            }
                        }
                    }
                    _ => {
                        let d = NodeId(dst);
                        let ev = match b % 4 {
                            0 => CtrlEvent::CfqAlloc { dst: d },
                            1 => CtrlEvent::Stop { dst: d },
                            2 => CtrlEvent::Go { dst: d },
                            _ => CtrlEvent::CfqDealloc { dst: d },
                        };
                        new.links[0].send_ctrl(now, ev);
                        old.links[0].send_ctrl(now, ev);
                    }
                }
                prop_assert!(new.a.backlogged_matches_the_advoqs());
                prop_assert_eq!(new.a.is_quiet(), old.a.is_quiet());
                prop_assert_eq!(new.a.rr, old.a.rr);
                prop_assert_eq!(old.a.peers.rank(old.a.rr), old.a.rr, "dense: slot = destination");
                prop_assert_eq!(&new.out, &old.out);
                for d in 0..n {
                    prop_assert_eq!(peer_view(&new.a, d), peer_view(&old.a, d), "dst {}", d);
                }
                // The cached deadline is a lower bound; the twin's is the
                // minimum its scan just found.
                prop_assert!(new.a.next_timer_deadline() <= old.a.next_timer_deadline());
                prop_assert_eq!(new.a.resident_packets(), old.a.resident_packets());
            }
            let labels = BTreeMap::new();
            prop_assert_eq!(
                new.m.finish("t", 1000.0, 1.0, &labels).to_json(),
                old.m.finish("t", 1000.0, 1.0, &labels).to_json()
            );
        }
    }
}

#[cfg(test)]
mod cct_tests {
    use super::*;
    use crate::params::CctProfile;
    use ccfit_engine::units::UnitModel;

    #[test]
    fn linear_cct_grows_proportionally() {
        let t = ThrottleParams::default();
        let a = AdapterThrottle::from_params(&t, &UnitModel::default());
        assert_eq!(a.cct[0], 0);
        // IRD(i) = i * 400 ns; one cycle = 25.6 ns.
        let one = a.cct[1];
        assert!((15..=16).contains(&one), "400 ns ~ 15.6 cycles: {one}");
        assert!(a.cct[10] >= 10 * one - 10 && a.cct[10] <= 10 * one + 10);
    }

    #[test]
    fn exponential_cct_doubles() {
        let t = ThrottleParams {
            cct_profile: CctProfile::Exponential { period: 8 },
            ..ThrottleParams::default()
        };
        let a = AdapterThrottle::from_params(&t, &UnitModel::default());
        assert_eq!(a.cct[0], 0);
        // IRD(8) = unit*(2-1) = 400 ns; IRD(16) = unit*3 = 1200 ns;
        // IRD(24) = unit*7 = 2800 ns.
        let u = UnitModel::default();
        assert_eq!(a.cct[8], u.ns_to_cycles(400.0));
        assert_eq!(a.cct[16], u.ns_to_cycles(1200.0));
        assert_eq!(a.cct[24], u.ns_to_cycles(2800.0));
        // Strictly non-decreasing everywhere.
        assert!(a.cct.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn exponential_outgrows_linear_at_high_ccti() {
        let u = UnitModel::default();
        let lin = AdapterThrottle::from_params(&ThrottleParams::default(), &u);
        let t = ThrottleParams {
            cct_profile: CctProfile::Exponential { period: 8 },
            ..ThrottleParams::default()
        };
        let exp = AdapterThrottle::from_params(&t, &u);
        assert!(exp.cct[64] > lin.cct[64]);
        assert!(exp.cct[8] < lin.cct[8], "gentler at small CCTI");
    }
}
