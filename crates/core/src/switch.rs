//! The input-queued switch model (§III-A, §III-C).
//!
//! A [`Switch`] owns its input ports (RAM + queues + isolation state) and
//! output ports (congestion state + output CAM), and implements the four
//! per-cycle duties of a CCFIT switch:
//!
//! 1. **accept** arriving packets into the scheme's queues,
//! 2. **post-process**: detect congestion on NFQ occupancy, allocate
//!    CFQs/CAM lines, move congested packets out of the NFQ, drive the
//!    Stop/Go and allocation/deallocation protocol with the upstream hop,
//!    and maintain the CCFIT High/Low congestion-state counters,
//! 3. **schedule** the crossbar with iSLIP over the eligible queue heads,
//! 4. **transmit** winners onto their output links, FECN-marking packets
//!    that cross an output port in the congestion state.
//!
//! The same structure runs every mechanism of the paper — the queueing
//! scheme, the isolation machinery and the marking source are selected by
//! [`SwitchCfg`].

use crate::arbiter::Islip;
use crate::bitset::BitSet;
use crate::idle::IdleBound;
use crate::params::{IsolationParams, QueueingScheme};
use crate::port::{CfqSlot, CfqState, InputQueues, StaticKey};
use ccfit_engine::cam::Cam;
use ccfit_engine::ids::{LinkId, NodeId, SwitchId};
use ccfit_engine::link::{CtrlEvent, Delivery, Link};
use ccfit_engine::queue::{PacketQueue, QueuedPacket};
use ccfit_engine::ram::PortRam;
use ccfit_engine::units::Cycle;
use ccfit_metrics::{CcEventKind, MetricsCollector};
use ccfit_topology::{RouteRow, RoutingTable};
use rand::rngs::SmallRng;
use rand::Rng;

/// Where the congestion state of an output port comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkingSource {
    /// ITh: aggregate VOQ occupancy for the output crosses High/Low and
    /// the port has credits (root condition of the IB CC).
    VoqOccupancy,
    /// CCFIT: the count of *root* CFQs above the High threshold that
    /// drain through this output (§III-C).
    RootCfq,
}

/// Switch-side throttling (marking) configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchThrottle {
    /// Fraction of eligible packets marked.
    pub marking_rate: f64,
    /// `Packet_Size`: only larger packets are marked.
    pub packet_size_threshold_bytes: u32,
    /// High threshold in flits.
    pub high_flits: u32,
    /// Low threshold in flits.
    pub low_flits: u32,
    /// Root-CFQ congestion-state entry hysteresis, in cycles (CCFIT).
    pub entry_delay_cycles: Cycle,
    /// Root-CFQ drain-rate measurement window, in cycles (CCFIT).
    pub starvation_window_cycles: Cycle,
    /// What drives the congestion state.
    pub source: MarkingSource,
}

/// Switch-side behaviour of the modern (non-paper) congestion-control
/// schemes, derived from the mechanism's DCQCN / HPCC parameters
/// (`Simulator::assemble`). Both act at the same place the
/// FECN marker does — the instant a packet wins arbitration for an
/// output — but on different header bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SwitchCcMode {
    /// DCQCN-style RED/ECN marking on the aggregate per-output VOQ
    /// occupancy: mark with probability 0 below `kmin_flits`, ramping
    /// linearly to `pmax` at `kmax_flits`, and 1 above.
    Ecn {
        /// RED ramp start (flits queued for the output).
        kmin_flits: u32,
        /// RED ramp end: occupancy at/above this always marks.
        kmax_flits: u32,
        /// Marking probability at the top of the ramp.
        pmax: f64,
    },
    /// HPCC-style INT stamping: every data packet crossing an output
    /// folds the hop's utilization sample — queued flits plus flits
    /// transmitted in the current `window_cycles` window, over the
    /// bandwidth-delay product — into its `int_u` header field.
    Int {
        /// INT measurement window in cycles.
        window_cycles: u64,
    },
}

/// Static switch configuration derived from the mechanism.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchCfg {
    /// Input queue organisation.
    pub scheme: QueueingScheme,
    /// Isolation parameters (FBICM/CCFIT).
    pub iso: Option<IsolationParams>,
    /// Marking configuration (ITh/CCFIT).
    pub thr: Option<SwitchThrottle>,
    /// MTU in flits (threshold unit).
    pub mtu_flits: u32,
    /// Input-port RAM in flits (under VOQnet, the per-destination
    /// reservation times the destination count).
    pub ram_flits: u32,
    /// Crossbar bandwidth in flits per cycle (Table I: 5 GB/s = 2 for
    /// Config #1, 2.5 GB/s = 1 for Configs #2/#3). An input port is busy
    /// for `size / crossbar_bw` cycles per transfer, so with speedup it
    /// can feed several outputs in the time one output link serializes a
    /// packet — without it, a trunk faster than the node links would
    /// overrun input FIFOs even when no output is contended.
    pub crossbar_bw_flits_per_cycle: u32,
    /// iSLIP iterations per cycle.
    pub islip_iterations: usize,
    /// Maximum NFQ→CFQ moves per input port per cycle (post-processing
    /// bandwidth).
    pub move_budget: u32,
    /// Modern-CC switch behaviour (ECN marking / INT stamping); `None`
    /// for the six paper mechanisms.
    pub cc: Option<SwitchCcMode>,
}

/// Output-port CAM payload: congestion info propagated from downstream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutCamState {
    /// Downstream CFQ asked us to pause this congested flow.
    pub stopped: bool,
}

/// One input port.
#[derive(Debug, Clone)]
pub struct InputPort {
    /// Link delivering packets into this port (this switch is receiver).
    pub in_link: Option<LinkId>,
    /// The shared, dynamically partitioned port memory.
    pub ram: PortRam,
    /// Queue organisation.
    pub queues: InputQueues,
    /// Crossbar-input busy horizon.
    pub busy_until: Cycle,
}

/// One output port.
#[derive(Debug, Clone)]
pub struct OutputPort {
    /// Link this port transmits on (this switch is sender).
    pub out_link: Option<LinkId>,
    /// Congestion info from downstream, keyed by congested destination.
    pub cam: Cam<NodeId, OutCamState>,
    /// Port is in the congestion state: crossing packets get FECN-marked.
    pub congested: bool,
    /// CCFIT: number of root CFQs above High draining through this port.
    pub over_high_count: u32,
    /// Cached bandwidth (flits/cycle) of `out_link`, so the starvation
    /// test in `isolation_tick` does not touch the link array. Set by
    /// the simulator at assembly.
    pub link_bw: u32,
    /// HPCC INT: index (`now / window_cycles`) of the measurement window
    /// `int_tx_flits` accumulates into. Rolled lazily at transmit time,
    /// so idle stretches (and the quiet-cycle fast-forward) cost nothing.
    pub int_win: u64,
    /// HPCC INT: flits transmitted in the current window.
    pub int_tx_flits: u64,
    /// HPCC INT: flits transmitted in the last *completed* window (zero
    /// if the port skipped a whole window).
    pub int_tx_last: u64,
}

/// Identifies a queue within an input port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKey {
    /// A static organisation's queue, by index.
    Static(usize),
    /// The normal flow queue.
    Nfq,
    /// A congested flow queue slot.
    Cfq(usize),
}

/// A queue head eligible for arbitration.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    queue: QueueKey,
    out: usize,
    /// Head packet is a BECN: transmitted with priority (§III-B).
    becn: bool,
}

/// A transmission completed this cycle: the simulator schedules the RAM
/// release and upstream credit return at `at`.
#[derive(Debug, Clone, Copy)]
pub struct PendingRelease {
    /// Completion cycle (tail has left the port).
    pub at: Cycle,
    /// Input port index the packet departed from.
    pub port: usize,
    /// Flits to release.
    pub flits: u32,
    /// Packet destination (per-destination VOQnet credit return).
    pub dst: NodeId,
}

/// Packets destroyed by a fault purge (see DESIGN.md §8).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PurgeStats {
    /// Data packets destroyed.
    pub data_packets: u64,
    /// Control (BECN) packets destroyed.
    pub ctrl_packets: u64,
}

impl PurgeStats {
    /// Tally one purged packet.
    pub fn note(&mut self, data: bool) {
        if data {
            self.data_packets += 1;
        } else {
            self.ctrl_packets += 1;
        }
    }
}

/// Per-link, per-destination reserved-buffer credits (VOQnet only; see
/// DESIGN.md §3).
///
/// A flat dense table indexed by `(link, dst)` — the hot paths (candidate
/// gathering, per-send debits, per-release credits) touch it every cycle,
/// so it must not hash. Entries default to *untracked* (the sentinel
/// `u32::MAX`): links whose receiver is not a switch input have no
/// per-destination reservation and always pass the credit check, matching
/// the old `HashMap`'s missing-key behaviour.
///
/// Dense on purpose: O(N) per port *is* VOQnet.
#[derive(Debug, Clone)]
pub struct VoqNetCredits {
    num_dests: usize,
    reservation: u32,
    table: Vec<u32>,
}

impl VoqNetCredits {
    /// Sentinel for an untracked `(link, dst)` pair.
    const UNTRACKED: u32 = u32::MAX;

    /// Build a table covering `num_links × num_dests`, all untracked,
    /// for queues that reserve `reservation` flits each.
    pub fn new(num_links: usize, num_dests: usize, reservation: u32) -> Self {
        Self {
            num_dests,
            reservation,
            table: vec![Self::UNTRACKED; num_links * num_dests],
        }
    }

    /// The flits each destination's queue reserves at a switch input.
    pub(crate) fn reservation(&self) -> u32 {
        self.reservation
    }

    fn idx(&self, link: u32, dst: u32) -> usize {
        link as usize * self.num_dests + dst as usize
    }

    /// Start tracking `(link, dst)` with `credits` flits of reserved space.
    pub fn set(&mut self, link: u32, dst: u32, credits: u32) {
        debug_assert_ne!(credits, Self::UNTRACKED);
        let i = self.idx(link, dst);
        self.table[i] = credits;
    }

    /// Current credits, or `None` if the pair is untracked.
    pub fn get(&self, link: u32, dst: u32) -> Option<u32> {
        match self.table[self.idx(link, dst)] {
            Self::UNTRACKED => None,
            c => Some(c),
        }
    }

    /// Whether a packet of `flits` may be sent (untracked pairs always
    /// pass).
    pub fn has(&self, link: u32, dst: u32, flits: u32) -> bool {
        let c = self.table[self.idx(link, dst)];
        c == Self::UNTRACKED || c >= flits
    }

    /// Return `flits` credits (no-op when untracked).
    pub fn add(&mut self, link: u32, dst: u32, flits: u32) {
        let i = self.idx(link, dst);
        let c = &mut self.table[i];
        if *c != Self::UNTRACKED {
            debug_assert_ne!(*c + flits, Self::UNTRACKED);
            *c += flits;
        }
    }

    /// Debit `flits` credits (no-op when untracked).
    pub fn sub(&mut self, link: u32, dst: u32, flits: u32) {
        let i = self.idx(link, dst);
        let c = &mut self.table[i];
        if *c != Self::UNTRACKED {
            *c -= flits;
        }
    }
}

/// The switch.
#[derive(Debug, Clone)]
pub struct Switch {
    /// This switch's id.
    pub id: SwitchId,
    cfg: SwitchCfg,
    /// Input ports, by port index.
    pub inputs: Vec<InputPort>,
    /// Output ports, by port index.
    pub outputs: Vec<OutputPort>,
    islip: Islip,
    /// Per-input round-robin pointer over that port's queues.
    queue_rr: Vec<usize>,
    marking_rng: SmallRng,
    num_dests: usize,
    /// Input ports holding at least one packet: the only ports the
    /// arbitration gather visits (DESIGN.md §12).
    occupied: BitSet,
    /// Input ports holding a packet or an allocated CFQ: the only ports
    /// the isolation stage has work at.
    iso_live: BitSet,
    /// An `over_high_count` changed since the last congestion-state
    /// update (RootCfq marking): the only cycles that update has to
    /// compare the counts with the `congested` flags.
    over_high_dirty: bool,
    /// Flits queued for each output across the input ports' VOQs
    /// (output-keyed static queues; all zero otherwise).
    voq_occ: Vec<u32>,
    /// Arbitration scratch; between calls it keeps the idle bound of the
    /// last gather.
    arb: ArbScratch,
    /// Per-call control-event scratch.
    ctrl_scratch: Vec<CtrlEvent>,
    /// Per input port, the quiet bound of the isolation stage's last
    /// visit (DESIGN.md §12 "Isolation fixed points"): that visit changed
    /// nothing — see [`Self::quiet_until`] — so the walk passes the port
    /// by while `now < iso_quiet[port]`, until the earliest clock the
    /// visit read comes due or one of its inputs changes. `Cycle::MAX`
    /// is a port no clock can wake (settled); 0 one the next walk
    /// visits. Reset by every event that can change what a visit reads,
    /// through [`Self::port_changed`], [`Self::all_ports_changed`] and
    /// [`Self::wake_drainers`] (its line's Stop/Go status flipped).
    iso_quiet: Vec<Cycle>,
    /// The open CFQ-exhaustion episodes, one per exhausted (port, site):
    /// a handful at a switch that ran out of CFQs, none elsewhere.
    exhausted: Vec<Exhaustion>,
    /// Per-call tally scratch of the detection scan.
    detect_tally: Vec<(NodeId, u32)>,
    /// Per-call packet scratch of the fault purges.
    purge_scratch: Vec<QueuedPacket>,
    /// Links sent on (ctrl or data) since the last
    /// [`Self::drain_touched_links`], so the simulator's work-list
    /// scheduler can activate them (DESIGN.md §12).
    touched_links: Vec<u32>,
}

/// An open CFQ-exhaustion episode (DESIGN.md §10): every visit of input
/// `port` since `since` found the site exhausted for `dst`. Closed, and
/// logged as one `CfqExhausted` covering its cycles, by the first visit
/// that does not, or at the end of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Exhaustion {
    port: u32,
    /// The detection site (the CFQ would have been a root) rather than
    /// the move site (a head of a propagated tree).
    root: bool,
    dst: NodeId,
    since: Cycle,
}

/// Control messages one visit of the per-CFQ protocol sends upstream
/// besides a release's (see [`Switch::cfq_step`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Upstream {
    /// `CfqAlloc`: the CFQ reached the propagation threshold.
    propagate: bool,
    /// `Stop` (after a `CfqAlloc` if none went out yet).
    stop: bool,
    /// `Go`.
    go: bool,
}

/// Result of the congestion-detection scan over one input port's NFQ.
#[derive(Debug, Clone, Copy)]
struct DetectScan {
    /// Flits of data packets matched by neither a CFQ of the port nor an
    /// output-CAM line.
    unmatched_total: u32,
    /// The destination dominating that backlog (`None` when it is empty).
    dominant: Option<NodeId>,
}

/// Reusable buffers for [`Switch::arbitrate_and_transmit`] so the per-cycle hot
/// path does not allocate. Taken out of the switch with `mem::take` for
/// the duration of a call (borrow-splitting) and put back after.
#[derive(Debug, Clone, Default)]
struct ArbScratch {
    /// Eligible heads of every input port, port by port: a gather visits
    /// the ports in ascending order, so each port's heads sit side by
    /// side.
    candidates: Vec<Candidate>,
    /// Per input port, the `start..end` of its heads in `candidates`;
    /// meaningful exactly for the members of `in_free`.
    spans: Vec<(u32, u32)>,
    /// Per output, the inputs with a candidate for it; non-empty exactly
    /// for the members of `out_free`.
    requesters: Vec<BitSet>,
    /// Inputs with a candidate. A busy input has none, so these are the
    /// free inputs iSLIP has to consider.
    in_free: BitSet,
    /// Outputs with a requester. A head only requests an output whose
    /// transmitter is idle, so these are the free outputs iSLIP has to
    /// consider.
    out_free: BitSet,
    matches: Vec<(usize, usize)>,
    /// Why a gather that found no candidate will keep finding none: every
    /// buffered head was blocked, and the bound records what each blocker
    /// waits for (DESIGN.md §12) — the clock (an input's `busy_until`, a
    /// head's `visible_at`, an output link's `tx_free_at`), a write that
    /// clears it (a stopped CFQ waits for a Go, an NFQ head for its
    /// move), or credits (`watched`). Dropped when a head blocks on
    /// something none of those watch (VOQnet per-destination credits, a
    /// downed link). Until one of those things happens a further gather
    /// is skipped — it would find nothing again, and iSLIP over an empty
    /// request set makes no match and moves no pointer.
    idle: IdleBound,
    /// Outputs some head was blocked on for credits alone, with the
    /// credits the link held then.
    watched: BitSet,
    credits_seen: Vec<u32>,
}

impl ArbScratch {
    fn new(num_ports: usize) -> Self {
        Self {
            candidates: Vec::new(),
            spans: vec![(0, 0); num_ports],
            requesters: vec![BitSet::new(num_ports); num_ports],
            in_free: BitSet::new(num_ports),
            out_free: BitSet::new(num_ports),
            matches: Vec::new(),
            idle: IdleBound::default(),
            watched: BitSet::new(num_ports),
            credits_seen: vec![0; num_ports],
        }
    }

    /// Empty the gather results (only what the last gather filled).
    fn reset(&mut self) {
        self.candidates.clear();
        for out in self.out_free.iter() {
            self.requesters[out].clear();
        }
        self.in_free.clear();
        self.out_free.clear();
        self.matches.clear();
        self.idle.open();
        self.watched.clear();
    }

    /// Add a head of input `port`, which is the last port given one.
    fn push(&mut self, port: usize, cand: Candidate) {
        let end = self.candidates.len() as u32;
        if !self.in_free.contains(port) {
            self.in_free.insert(port);
            self.spans[port].0 = end;
        }
        debug_assert!(self.in_free.next_in(port + 1, self.spans.len()).is_none());
        self.candidates.push(cand);
        self.spans[port].1 = end + 1;
        self.requesters[cand.out].insert(port);
        self.out_free.insert(cand.out);
    }

    /// The heads input `port` offered.
    fn of(&self, port: usize) -> &[Candidate] {
        let (start, end) = self.spans[port];
        &self.candidates[start as usize..end as usize]
    }
}

/// The head of `q` once its header has arrived; until then, a time-only
/// blocker noted in `idle`.
fn visible_head<'q>(
    q: &'q PacketQueue,
    now: Cycle,
    idle: &mut IdleBound,
) -> Option<&'q QueuedPacket> {
    let head = q.head()?;
    if head.visible_at > now {
        idle.wake_at(head.visible_at);
        return None;
    }
    Some(head)
}

impl Switch {
    /// Build a switch. `wiring[p]` gives the directed links of port `p`
    /// (`None, None` for unconnected ports).
    pub fn new(
        id: SwitchId,
        cfg: SwitchCfg,
        wiring: &[(Option<LinkId>, Option<LinkId>)],
        num_dests: usize,
        marking_rng: SmallRng,
    ) -> Self {
        let num_ports = wiring.len();
        let num_cfqs = cfg.iso.map_or(0, |i| i.num_cfqs);
        let inputs = wiring
            .iter()
            .map(|&(in_link, _)| InputPort {
                in_link,
                ram: PortRam::new(cfg.ram_flits),
                queues: InputQueues::new(cfg.scheme, num_ports, num_dests, num_cfqs),
                busy_until: 0,
            })
            .collect();
        let out_cam_lines = cfg.iso.map_or(0, |i| i.out_cam_lines);
        let outputs = wiring
            .iter()
            .map(|&(_, out_link)| OutputPort {
                out_link,
                cam: Cam::new(out_cam_lines),
                congested: false,
                over_high_count: 0,
                link_bw: 1,
                int_win: 0,
                int_tx_flits: 0,
                int_tx_last: 0,
            })
            .collect();
        let islip = Islip::new(num_ports, cfg.islip_iterations);
        Self {
            id,
            cfg,
            inputs,
            outputs,
            islip,
            queue_rr: vec![0; num_ports],
            marking_rng,
            num_dests,
            occupied: BitSet::new(num_ports),
            iso_live: BitSet::new(num_ports),
            over_high_dirty: false,
            voq_occ: vec![0; num_ports],
            arb: ArbScratch::new(num_ports),
            ctrl_scratch: Vec::new(),
            iso_quiet: vec![0; num_ports],
            exhausted: Vec::new(),
            detect_tally: Vec::new(),
            purge_scratch: Vec::new(),
            touched_links: Vec::new(),
        }
    }

    /// Static configuration.
    pub fn cfg(&self) -> &SwitchCfg {
        &self.cfg
    }

    /// Cache the bandwidth of output `port`'s link (at assembly).
    pub fn set_output_link_bw(&mut self, port: usize, bw_flits_per_cycle: u32) {
        self.outputs[port].link_bw = bw_flits_per_cycle;
    }

    /// Accept a packet delivered on input `port`. BECN notification
    /// packets travel the normal data path but only ever use the NFQ
    /// (§III-B).
    pub fn accept_delivery(&mut self, port: usize, d: Delivery, routing: &RoutingTable) {
        self.occupied.insert(port);
        self.iso_live.insert(port);
        self.port_changed(port);
        let input = &mut self.inputs[port];
        input
            .ram
            .reserve(d.packet.size_flits)
            .expect("credit flow control guarantees RAM space");
        match &mut input.queues {
            InputQueues::Static { queues, key } => {
                let i = key.queue(d.packet.dst, queues.len(), routing.row(self.id));
                queues[i].push(d.packet, d.visible_at, d.ready_at);
                if *key == StaticKey::Output {
                    self.voq_occ[i] += d.packet.size_flits;
                }
            }
            InputQueues::Isolating { nfq, .. } => nfq.push(d.packet, d.visible_at, d.ready_at),
        }
    }

    /// Drain control events arriving at the output ports (congestion info
    /// propagated upstream by the downstream switch/adapter).
    pub fn poll_output_ctrl(
        &mut self,
        now: Cycle,
        links: &mut [Link],
        metrics: &mut MetricsCollector,
    ) {
        let sw = self.id.0;
        let mut scratch = std::mem::take(&mut self.ctrl_scratch);
        // An output CAM gained or lost a key: every input port's
        // detection scan consults these CAMs. Control that changes
        // nothing — a line that exists, a flip to the status it has, a
        // full CAM — clears nothing.
        let mut cam_keys_changed = false;
        for o in 0..self.outputs.len() {
            let Some(link) = self.outputs[o].out_link else {
                continue;
            };
            if !links[link.index()].has_ctrl(now) {
                continue;
            }
            scratch.clear();
            links[link.index()].poll_ctrl_into(now, &mut scratch);
            let port = o as u32;
            for &ev in &scratch {
                let cam = &mut self.outputs[o].cam;
                match ev {
                    CtrlEvent::CfqAlloc { dst } | CtrlEvent::Stop { dst } => {
                        let stop = matches!(ev, CtrlEvent::Stop { .. });
                        match cam.lookup(dst).and_then(|i| cam.get_mut(i)) {
                            Some(line) => {
                                if stop && !line.value.stopped {
                                    line.value.stopped = true;
                                    self.wake_drainers(o, dst);
                                }
                            }
                            None => {
                                if cam.allocate(dst, OutCamState { stopped: stop }).is_ok() {
                                    cam_keys_changed = true;
                                } else {
                                    metrics.record(
                                        now,
                                        CcEventKind::CamExhausted {
                                            sw,
                                            port,
                                            dst: dst.0,
                                        },
                                    );
                                }
                            }
                        }
                        if stop {
                            metrics.record(
                                now,
                                CcEventKind::StopReceived {
                                    sw,
                                    port,
                                    dst: dst.0,
                                },
                            );
                        }
                    }
                    CtrlEvent::CfqDealloc { dst } => {
                        if let Some(i) = cam.lookup(dst) {
                            cam.free(i);
                            cam_keys_changed = true;
                        }
                    }
                    CtrlEvent::Go { dst } => {
                        if let Some(line) = cam.lookup(dst).and_then(|i| cam.get_mut(i)) {
                            if line.value.stopped {
                                line.value.stopped = false;
                                self.wake_drainers(o, dst);
                            }
                        }
                        metrics.record(
                            now,
                            CcEventKind::GoReceived {
                                sw,
                                port,
                                dst: dst.0,
                            },
                        );
                    }
                }
            }
        }
        self.ctrl_scratch = scratch;
        if cam_keys_changed {
            self.all_ports_changed();
        }
    }

    /// Tally the NFQ backlog of input `port` that nothing isolates yet.
    /// Packets that already match a CFQ or a propagated output-CAM line
    /// are about to be isolated anyway, so only *unisolated* traffic
    /// counts — otherwise the residue of an already-detected hotspot gets
    /// mis-attributed to whatever victim packet sits at the head
    /// (allocating a CFQ for a non-congested destination and, in CCFIT,
    /// marking and throttling the victim). The NFQ holds at most RAM/MTU
    /// packets, so the scan is small; a port with no CFQ left above the
    /// threshold is passed by on its quiet bound rather than re-scanned.
    fn scan_unisolated(
        &self,
        port: usize,
        routes: RouteRow<'_>,
        tally: &mut Vec<(NodeId, u32)>,
    ) -> DetectScan {
        let InputQueues::Isolating { nfq, cfqs, .. } = &self.inputs[port].queues else {
            unreachable!("detection scan on non-isolating scheme")
        };
        tally.clear();
        let mut unmatched_total = 0u32;
        for e in nfq.iter() {
            if !e.packet.is_data() {
                continue;
            }
            let dst = e.packet.dst;
            if cfqs.lookup(dst).is_some() {
                continue;
            }
            let out = routes.port(dst).index();
            if self.outputs[out].cam.lookup(dst).is_some() {
                continue;
            }
            unmatched_total += e.packet.size_flits;
            match tally.iter_mut().find(|(d, _)| *d == dst) {
                Some((_, f)) => *f += e.packet.size_flits,
                None => tally.push((dst, e.packet.size_flits)),
            }
        }
        DetectScan {
            unmatched_total,
            // The congested destination is the one dominating the
            // unisolated backlog. The tally is in first-seen order and
            // `max_by_key` keeps the last of equal maxima, so a tie goes
            // to the destination first seen furthest from the head.
            dominant: tally.iter().max_by_key(|(_, f)| *f).map(|&(d, _)| d),
        }
    }

    // ---- invalidation: every write to state a recorded scan read makes
    // exactly one of these calls, which clears every record the write
    // can break. Each also clears the arbiter's
    // bound: whatever a visit reads about a port's queues or lookups, the
    // gather reads too (DESIGN.md §12, "Who clears what"). ----

    /// Input `port`'s queues, its CFQs' occupancy or its CFQ set
    /// changed: forget its quiet bound.
    fn port_changed(&mut self, port: usize) {
        self.iso_quiet[port] = 0;
        self.arb.idle.clear();
    }

    /// An output CAM's key set or the routing table changed, which every
    /// port's visit looks its packets up in, or a purge emptied queues
    /// at any port: forget every quiet bound.
    fn all_ports_changed(&mut self) {
        self.iso_quiet.fill(0);
        self.arb.idle.clear();
    }

    /// The Stop/Go status of output `out`'s line for `dst` flipped: wake
    /// the protocol of the input ports whose CFQ for `dst` drains through
    /// `out`, the readers of that status (a CFQ is only released in Go),
    /// and the arbiter (a stopped CFQ does not compete).
    fn wake_drainers(&mut self, out: usize, dst: NodeId) {
        self.arb.idle.clear();
        let drains = |c: &CfqSlot| matches!(c.state, Some(s) if s.dst == dst && s.out_port == out);
        for (input, quiet) in self.inputs.iter().zip(&mut self.iso_quiet) {
            if input.queues.cfqs().iter().any(drains) {
                *quiet = 0;
            }
        }
    }

    /// Oracle mode: forget everything the last cycle memoised, so this
    /// one re-derives it — every isolation visit runs in full, the
    /// arbiter gathers, the congestion-state update compares every
    /// output. What [`crate::Simulator::run_reference`] compares the
    /// engine with, in release builds too (DESIGN.md §12).
    pub(crate) fn drop_memos(&mut self) {
        self.all_ports_changed();
        self.over_high_dirty = true;
    }

    /// What a visit of input `port` at `now` would conclude, re-derived
    /// from the queues without the recorded bound: `None` if it would change
    /// something — allocate, move, release, send upstream or write a
    /// CFQ's state — and otherwise the first cycle at which a clock it
    /// reads comes due (`Cycle::MAX`: none), the bound a quiet visit
    /// records. The clocks are an arriving NFQ head's `visible_at` and
    /// the deadlines of [`Self::cfq_deadline`]; everything else the visit
    /// reads only changes through an event that drops the bound (see
    /// `iso_quiet`). The walk and the park rule's re-derivation check
    /// every skip against this, and debug builds every visit.
    fn quiet_until(&self, port: usize, now: Cycle, routes: RouteRow<'_>) -> Option<Cycle> {
        let iso = self.cfg.iso?;
        let InputQueues::Isolating { nfq, cfqs, .. } = &self.inputs[port].queues else {
            return None;
        };
        let free = cfqs.free();
        let detect_flits = iso.detect_threshold_mtus * self.cfg.mtu_flits;
        if free
            && nfq.occupancy_flits() >= detect_flits
            && self
                .scan_unisolated(port, routes, &mut Vec::new())
                .unmatched_total
                >= detect_flits
        {
            return None; // detection allocates a root CFQ
        }
        let mut until = Cycle::MAX;
        match nfq.head() {
            _ if self.cfg.move_budget == 0 => {}
            Some(head) if head.visible_at > now => until = head.visible_at,
            Some(head) if head.packet.is_data() => {
                let dst = head.packet.dst;
                let out = routes.port(dst).index();
                if cfqs.lookup(dst).is_some()
                    || (free && self.outputs[out].cam.lookup(dst).is_some())
                {
                    return None; // the head moves
                }
            }
            _ => {}
        }
        let upstream = self.inputs[port].in_link.is_some();
        for slot in cfqs.iter() {
            let Some(st) = slot.state else { continue };
            let step = self.cfq_step(st, slot.queue.occupancy_flits(), now, upstream);
            if step != (st, Upstream::default(), false) {
                return None;
            }
            until = until.min(self.cfq_deadline(&st, now));
        }
        Some(until)
    }

    /// Is the congested flow `dst` draining through `out` currently
    /// stopped by the downstream hop?
    fn downstream_stopped(&self, out: usize, dst: NodeId) -> bool {
        let cam = &self.outputs[out].cam;
        cam.lookup(dst)
            .and_then(|i| cam.get(i))
            .is_some_and(|line| line.value.stopped)
    }

    /// The isolation duties of the post-processing stage (§III-C): runs
    /// only when the mechanism isolates congested flows. Control
    /// propagation goes upstream on `in_link`.
    pub fn isolation_tick(
        &mut self,
        now: Cycle,
        routing: &RoutingTable,
        links: &mut [Link],
        metrics: &mut MetricsCollector,
    ) {
        if self.cfg.iso.is_none() {
            return;
        }
        let routes = routing.row(self.id);
        // A port outside `iso_live` has an empty NFQ, no CFQ and no open
        // exhaustion episode: nothing to detect, move, propagate,
        // deallocate or close. A port inside it whose last visit was quiet
        // is passed by until its bound comes due.
        let num_ports = self.inputs.len();
        let mut next = 0;
        while let Some(port) = self.iso_live.next_in(next, num_ports) {
            next = port + 1;
            let quiet_until = self.iso_quiet[port];
            if now < quiet_until {
                debug_assert_eq!(
                    self.quiet_until(port, now, routes),
                    Some(quiet_until),
                    "stale quiet bound at {} in{port} cycle {now}",
                    self.id
                );
                continue;
            }
            if self.inputs[port].in_link.is_some() {
                self.visit_port(port, now, routes, links, metrics);
            }
        }
    }

    /// One visit of input `port`: detection, the moves, then the per-CFQ
    /// protocol. A visit that changes nothing records in `iso_quiet` the
    /// bound [`Self::quiet_until`] states; one that changes anything
    /// leaves the port to be visited again. Each of the two exhaustion
    /// sites extends, opens or closes its episode. In debug builds the
    /// visit asserts that [`Self::quiet_until`] foretold what it did, so
    /// a port wrongly called quiet panics on the visit that acts.
    fn visit_port(
        &mut self,
        port: usize,
        now: Cycle,
        routes: RouteRow<'_>,
        links: &mut [Link],
        metrics: &mut MetricsCollector,
    ) {
        #[cfg(debug_assertions)]
        let foretold = self.quiet_until(port, now, routes);
        let iso = self.cfg.iso.expect("only an isolating switch visits");
        let detect_flits = iso.detect_threshold_mtus * self.cfg.mtu_flits;
        let mut quiet = true;
        let mut until = Cycle::MAX;
        // ------- congestion detection (§III-C event #2) -------
        //
        // When the NFQ fill level crosses the detection threshold,
        // identify the congested destination and allocate a CFQ + CAM
        // line for it.
        let nfq_occ = {
            let InputQueues::Isolating { nfq, .. } = &self.inputs[port].queues else {
                unreachable!("isolation_tick on non-isolating scheme")
            };
            nfq.occupancy_flits()
        };
        let mut exhausted = None;
        if nfq_occ >= detect_flits {
            let mut tally = std::mem::take(&mut self.detect_tally);
            let scan = self.scan_unisolated(port, routes, &mut tally);
            self.detect_tally = tally;
            if scan.unmatched_total >= detect_flits {
                let dst = scan
                    .dominant
                    .expect("unmatched_total > 0 implies a tally entry");
                let out = routes.port(dst).index();
                // Locally detected => this switch is 1 hop from the
                // congestion point: a root CFQ.
                match self.inputs[port]
                    .queues
                    .cfq_allocate(CfqState::new(dst, out, true))
                {
                    Some(_) => {
                        self.port_changed(port);
                        quiet = false;
                        metrics.record(
                            now,
                            CcEventKind::CfqAlloc {
                                sw: self.id.0,
                                port: port as u32,
                                dst: dst.0,
                                root: true,
                            },
                        );
                    }
                    // The FBICM failure mode (Fig. 8b/c): no CFQ left,
                    // congested packets stay in the NFQ and HoL-block
                    // everything behind them.
                    None => exhausted = Some(dst),
                }
            }
        }
        self.note_exhaustion(port, true, exhausted, now, metrics);

        // ------- head post-processing: move congested packets -------
        let mut exhausted = None;
        for _ in 0..self.cfg.move_budget {
            let dst = {
                let InputQueues::Isolating { nfq, .. } = &self.inputs[port].queues else {
                    unreachable!()
                };
                let Some(head) = nfq.head() else {
                    break;
                };
                if head.visible_at > now {
                    until = head.visible_at; // the visit that sees it arrive may move it
                    break;
                }
                if !head.packet.is_data() {
                    break; // BECNs only use NFQs (§III-B), never CFQs
                }
                head.packet.dst
            };
            let out = routes.port(dst).index();
            let existing = self.inputs[port].queues.cfqs().lookup(dst);
            let out_cam_hit = self.outputs[out].cam.lookup(dst).is_some();
            let slot = match existing {
                Some(s) => Some(s),
                None if out_cam_hit => {
                    // A congestion tree propagated from downstream:
                    // isolate its packets here too (non-root CFQ).
                    match self.inputs[port]
                        .queues
                        .cfq_allocate(CfqState::new(dst, out, false))
                    {
                        Some(free) => {
                            metrics.record(
                                now,
                                CcEventKind::CfqAlloc {
                                    sw: self.id.0,
                                    port: port as u32,
                                    dst: dst.0,
                                    root: false,
                                },
                            );
                            Some(free)
                        }
                        None => {
                            exhausted = Some(dst);
                            None
                        }
                    }
                }
                None => None,
            };
            // Otherwise the head is non-congested, or unisolatable.
            let Some(s) = slot else { break };
            let InputQueues::Isolating { nfq, cfqs, .. } = &mut self.inputs[port].queues else {
                unreachable!()
            };
            let entry = nfq.pop().expect("head exists");
            cfqs[s]
                .queue
                .push(entry.packet, entry.visible_at, entry.ready_at);
            // The NFQ changed (and so did the CFQ set, if the slot was
            // allocated just above): drop the quiet bound, and let the
            // arbiter see the new heads.
            self.port_changed(port);
            quiet = false;
            metrics.count("packets_isolated", 1);
        }
        self.note_exhaustion(port, false, exhausted, now, metrics);

        // ------- per-CFQ protocol: propagate / stop / go / high-low /
        // dealloc -------
        let upstream = self.inputs[port].in_link.is_some();
        for c in 0..self.inputs[port].queues.cfqs().len() {
            let slot = &self.inputs[port].queues.cfqs()[c];
            let Some(st) = slot.state else { continue };
            let occ = slot.queue.occupancy_flits();
            let step = self.cfq_step(st, occ, now, upstream);
            if step == (st, Upstream::default(), false) {
                until = until.min(self.cfq_deadline(&st, now));
                continue;
            }
            quiet = false;
            let (next, _, release) = step;
            self.inputs[port].queues.cfqs_mut()[c].state = (!release).then_some(next);
            self.apply_cfq_step(port, st, step, now, links, metrics);
        }
        #[cfg(debug_assertions)]
        assert_eq!(
            foretold,
            quiet.then_some(until),
            "quiet_until foretold another visit at {} in{port} cycle {now}",
            self.id
        );
        self.iso_quiet[port] = if quiet { until } else { 0 };
    }

    /// One visit's worth of the per-CFQ protocol (§III-C) for an
    /// allocated CFQ in state `st` holding `occ` flits: the state it
    /// leaves, what it sends upstream (`upstream`: the port has an
    /// in-link to send on), and whether it releases the CFQ. Pure: the
    /// visit carries the result out ([`Self::apply_cfq_step`]), and
    /// [`Self::quiet_until`] asks whether there is anything to carry out.
    fn cfq_step(
        &self,
        mut st: CfqState,
        occ: u32,
        now: Cycle,
        upstream: bool,
    ) -> (CfqState, Upstream, bool) {
        let iso = self.cfg.iso.expect("only an isolating switch holds CFQs");
        let mtu = self.cfg.mtu_flits;
        let propagate_flits = iso.propagate_threshold_mtus * mtu;
        let mut up = Upstream::default();
        // Congestion-information propagation upstream.
        if upstream {
            if !st.alloc_sent && occ >= propagate_flits {
                st.alloc_sent = true;
                up.propagate = true;
            }
            if !st.stop_sent && occ >= iso.stop_mtus * mtu {
                st.alloc_sent = true;
                st.stop_sent = true;
                up.stop = true;
            }
            if st.stop_sent && occ <= iso.go_mtus * mtu {
                st.stop_sent = false;
                up.go = true;
            }
        }
        // CCFIT congestion state: root CFQs *persistently* above High
        // move the output port into the congestion state; below Low they
        // leave it. Two refinements reject false roots: an entry delay
        // (the High excursion must be sustained), and a starvation test
        // (the CFQ must be receiving clearly less than its output link's
        // capacity, which a genuinely oversubscribed root always is).
        if let Some(thr) = self.root_cfq_marking() {
            if st.root {
                // Periodic drain-rate evaluation.
                if now.saturating_sub(st.window_start) >= thr.starvation_window_cycles {
                    let out_bw = self.outputs[st.out_port].link_bw;
                    let capacity = (now - st.window_start) as f64 * out_bw as f64;
                    st.starved = (st.granted_window as f64) < 0.9 * capacity;
                    st.granted_window = 0;
                    st.window_start = now;
                }
                if occ >= thr.high_flits && st.starved {
                    let since = *st.over_high_since.get_or_insert(now);
                    if !st.over_high && now - since >= thr.entry_delay_cycles {
                        st.over_high = true;
                    }
                } else if occ < thr.low_flits || !st.starved {
                    st.over_high_since = None;
                    if st.over_high && occ < thr.low_flits {
                        st.over_high = false;
                    }
                }
            }
        }
        // Deallocation: the congestion tree has vanished when the CFQ has
        // stayed calm (below the propagation threshold) for the linger
        // period; release at a moment it is empty and in Go status both
        // ways.
        if occ < propagate_flits {
            let since = *st.calm_since.get_or_insert(now);
            let lingered = now.saturating_sub(since) >= iso.dealloc_linger_cycles;
            if occ == 0 && lingered && !self.downstream_stopped(st.out_port, st.dst) {
                return (st, up, true);
            }
        } else {
            st.calm_since = None;
        }
        (st, up, false)
    }

    /// The marking thresholds when root CFQs drive the congestion state
    /// (CCFIT).
    fn root_cfq_marking(&self) -> Option<SwitchThrottle> {
        self.cfg.thr.filter(|t| t.source == MarkingSource::RootCfq)
    }

    /// The earliest cycle after `now` at which a clock the per-CFQ
    /// protocol reads for `st` comes due (`Cycle::MAX`: none): the end of
    /// a root CFQ's drain-rate window, a pending High excursion's entry
    /// delay, a calm stretch's linger. Each is a threshold on `now` that
    /// stays crossed once crossed, so a deadline already passed cannot
    /// turn a quiet visit into a busy one and is left out.
    fn cfq_deadline(&self, st: &CfqState, now: Cycle) -> Cycle {
        let after = |at: Cycle| if at > now { at } else { Cycle::MAX };
        let mut due = Cycle::MAX;
        if let Some(thr) = self.root_cfq_marking().filter(|_| st.root) {
            due = due.min(after(
                st.window_start.saturating_add(thr.starvation_window_cycles),
            ));
            if let (false, Some(since)) = (st.over_high, st.over_high_since) {
                due = due.min(after(since.saturating_add(thr.entry_delay_cycles)));
            }
        }
        if let (Some(iso), Some(since)) = (self.cfg.iso, st.calm_since) {
            due = due.min(after(since.saturating_add(iso.dealloc_linger_cycles)));
        }
        due
    }

    /// Carry out the rest of the [`Self::cfq_step`] `(next, up, release)`
    /// of a CFQ at input `port` that was in state `st`, once its slot
    /// holds `next` (or nothing, on a release): the control messages, the
    /// over-High count, the release's bookkeeping.
    fn apply_cfq_step(
        &mut self,
        port: usize,
        st: CfqState,
        (next, up, release): (CfqState, Upstream, bool),
        now: Cycle,
        links: &mut [Link],
        metrics: &mut MetricsCollector,
    ) {
        let (sw, p, dst) = (self.id.0, port as u32, st.dst);
        let in_link = self.inputs[port].in_link;
        if let Some(link) = in_link {
            if up.propagate {
                self.send_ctrl_noting(links, link, now, CtrlEvent::CfqAlloc { dst });
                metrics.record(
                    now,
                    CcEventKind::AllocPropagated {
                        sw,
                        port: p,
                        dst: dst.0,
                    },
                );
            }
            if up.stop {
                if !st.alloc_sent && !up.propagate {
                    self.send_ctrl_noting(links, link, now, CtrlEvent::CfqAlloc { dst });
                }
                self.send_ctrl_noting(links, link, now, CtrlEvent::Stop { dst });
                metrics.record(
                    now,
                    CcEventKind::StopSent {
                        sw,
                        port: p,
                        dst: dst.0,
                    },
                );
            }
            if up.go {
                self.send_ctrl_noting(links, link, now, CtrlEvent::Go { dst });
                metrics.record(
                    now,
                    CcEventKind::GoSent {
                        sw,
                        port: p,
                        dst: dst.0,
                    },
                );
            }
        }
        if next.over_high != st.over_high {
            let count = &mut self.outputs[st.out_port].over_high_count;
            if next.over_high {
                *count += 1;
            } else {
                *count -= 1;
            }
            self.over_high_dirty = true;
        }
        if !release {
            return;
        }
        if let Some(link) = in_link {
            if next.stop_sent {
                self.send_ctrl_noting(links, link, now, CtrlEvent::Go { dst });
            }
            if next.alloc_sent {
                self.send_ctrl_noting(links, link, now, CtrlEvent::CfqDealloc { dst });
            }
        }
        if next.over_high {
            self.outputs[st.out_port].over_high_count -= 1;
            self.over_high_dirty = true;
        }
        self.port_changed(port);
        self.sync_live(port);
        metrics.record(
            now,
            CcEventKind::CfqDealloc {
                sw,
                port: p,
                dst: dst.0,
            },
        );
    }

    /// One visit's verdict at an exhaustion site of input `port` (`root`:
    /// detection, else the move site): `Some(dst)` when `dst` found no
    /// free CFQ. It extends the open episode of the same `dst`; otherwise
    /// it closes the open one at `now` and, if exhausted, opens a new one.
    /// So `cfq_exhausted` grows by the cycles of each episode — exactly
    /// the cycles on which a visit of the port found the site exhausted,
    /// whether or not the port was quiet, and its switch parked, between
    /// the visits that opened and closed it.
    ///
    /// Called twice by every visit, so the common case — nothing
    /// exhausted, nothing open — stays inline and the rest out of line:
    /// unsplit, the two calls made the isolation phase of the 4096-node
    /// uniform benchmark run about a third slower.
    #[inline]
    fn note_exhaustion(
        &mut self,
        port: usize,
        root: bool,
        dst: Option<NodeId>,
        now: Cycle,
        metrics: &mut MetricsCollector,
    ) {
        if dst.is_some() || !self.exhausted.is_empty() {
            self.update_exhaustion(port, root, dst, now, metrics);
        }
    }

    /// [`Self::note_exhaustion`] past its common case.
    #[inline(never)]
    fn update_exhaustion(
        &mut self,
        port: usize,
        root: bool,
        dst: Option<NodeId>,
        now: Cycle,
        metrics: &mut MetricsCollector,
    ) {
        let open = self
            .exhausted
            .iter()
            .position(|e| e.port == port as u32 && e.root == root);
        if let Some(i) = open {
            if Some(self.exhausted[i].dst) == dst {
                return;
            }
            let e = self.exhausted.swap_remove(i);
            self.record_exhaustion(e, now, metrics);
        }
        match dst {
            Some(dst) => self.exhausted.push(Exhaustion {
                port: port as u32,
                root,
                dst,
                since: now,
            }),
            // An episode keeps its port in the walk until a visit closes it.
            None if open.is_some() => self.sync_live(port),
            None => {}
        }
    }

    /// Log the exhaustion episode `e`, closed at `now`.
    fn record_exhaustion(&self, e: Exhaustion, now: Cycle, metrics: &mut MetricsCollector) {
        metrics.record(
            now,
            CcEventKind::CfqExhausted {
                sw: self.id.0,
                port: e.port,
                dst: e.dst.0,
                root: e.root,
                cycles: now - e.since,
            },
        );
    }

    /// End of the run at `now`: close every open exhaustion episode.
    pub(crate) fn close_exhaustion(&mut self, now: Cycle, metrics: &mut MetricsCollector) {
        for e in std::mem::take(&mut self.exhausted) {
            self.record_exhaustion(e, now, metrics);
            self.sync_live(e.port as usize);
        }
    }

    /// The cycles the open exhaustion episodes have lasted by `now` — what
    /// `cfq_exhausted` still owes for them.
    pub(crate) fn open_exhaustion_cycles(&self, now: Cycle) -> u64 {
        self.exhausted.iter().map(|e| now - e.since).sum()
    }

    /// Summed occupancy of the root CFQs draining through output `out`
    /// — the queue backlog behind a RootCfq congestion-state decision.
    /// Only called on state transitions, so the scan stays off the hot
    /// path.
    fn root_cfq_occupancy_flits(&self, out: usize) -> u32 {
        self.inputs
            .iter()
            .flat_map(|inp| inp.queues.cfqs().iter())
            .filter(|c| matches!(c.state, Some(st) if st.root && st.out_port == out))
            .map(|c| c.queue.occupancy_flits())
            .sum()
    }

    /// Update each output port's congestion state, recording an
    /// enter/leave event on each transition.
    pub fn congestion_state_tick(
        &mut self,
        now: Cycle,
        links: &[Link],
        metrics: &mut MetricsCollector,
    ) {
        let Some(thr) = self.cfg.thr else { return };
        match thr.source {
            MarkingSource::RootCfq => {
                // `congested` tracks `over_high_count > 0`, and this arm
                // is its only writer besides the purge: nothing to do
                // unless a count moved since the last update.
                if !std::mem::take(&mut self.over_high_dirty) {
                    debug_assert!(self
                        .outputs
                        .iter()
                        .all(|o| o.congested == (o.over_high_count > 0)));
                    return;
                }
                for o in 0..self.outputs.len() {
                    let congested = self.outputs[o].over_high_count > 0;
                    if congested != self.outputs[o].congested {
                        self.outputs[o].congested = congested;
                        let occupancy_flits = self.root_cfq_occupancy_flits(o);
                        let kind = if congested {
                            CcEventKind::CongestionEnter {
                                sw: self.id.0,
                                port: o as u32,
                                occupancy_flits,
                            }
                        } else {
                            CcEventKind::CongestionLeave {
                                sw: self.id.0,
                                port: o as u32,
                                occupancy_flits,
                            }
                        };
                        metrics.record(now, kind);
                    }
                }
            }
            MarkingSource::VoqOccupancy => {
                for o in 0..self.outputs.len() {
                    if self.outputs[o].out_link.is_none() {
                        continue;
                    }
                    let occ = self.output_voq_occupancy_flits(o);
                    let out = &mut self.outputs[o];
                    if !out.congested {
                        // Root condition: the port can still forward
                        // (it has credits), so it is the tree root rather
                        // than a victim of spreading.
                        let has_credits = out
                            .out_link
                            .is_some_and(|l| links[l.index()].credits() >= self.cfg.mtu_flits);
                        if occ >= thr.high_flits && has_credits {
                            out.congested = true;
                            metrics.record(
                                now,
                                CcEventKind::CongestionEnter {
                                    sw: self.id.0,
                                    port: o as u32,
                                    occupancy_flits: occ,
                                },
                            );
                        }
                    } else if occ <= thr.low_flits {
                        out.congested = false;
                        metrics.record(
                            now,
                            CcEventKind::CongestionLeave {
                                sw: self.id.0,
                                port: o as u32,
                                occupancy_flits: occ,
                            },
                        );
                    }
                }
            }
        }
    }

    /// Aggregate VOQ backlog for output `out` across the input ports —
    /// what the ITh congestion detector, DCQCN's ECN marker and HPCC's
    /// INT stamp read. All three run on static queues keyed by output
    /// port ([`StaticKey::Output`]), so other queue organisations
    /// contribute zero. Kept as a counter per output, moved by every VOQ
    /// push, pop, purge and re-bin.
    fn output_voq_occupancy_flits(&self, out: usize) -> u32 {
        debug_assert_eq!(self.voq_occ[out], self.summed_voq_occupancy_flits(out));
        self.voq_occ[out]
    }

    /// The sum [`Self::output_voq_occupancy_flits`] mirrors.
    fn summed_voq_occupancy_flits(&self, out: usize) -> u32 {
        self.inputs
            .iter()
            .map(|inp| match &inp.queues {
                InputQueues::Static {
                    queues,
                    key: StaticKey::Output,
                } => queues[out].occupancy_flits(),
                _ => 0,
            })
            .sum()
    }

    /// Re-derive input `port`'s membership of the live-port sets after
    /// its packet count, its CFQ set or its open exhaustion episodes
    /// shrank. (Growth needs no call: a delivery inserts the port, and a
    /// CFQ is only allocated, an episode only opened, at a port holding
    /// the NFQ packet that triggered it.)
    fn sync_live(&mut self, port: usize) {
        let held = !self.inputs[port].queues.is_empty();
        self.occupied.set(port, held);
        self.iso_live.set(
            port,
            held || self.inputs[port].queues.cfqs().allocated() > 0 || self.exhausting(port),
        );
    }

    /// Whether input `port` has an open exhaustion episode.
    fn exhausting(&self, port: usize) -> bool {
        self.exhausted.iter().any(|e| e.port == port as u32)
    }

    /// Gather the eligible queue heads of every occupied input port into
    /// `arb`, noting for each blocked head what it waits for in
    /// `arb.idle`.
    fn gather(
        &self,
        now: Cycle,
        routes: RouteRow<'_>,
        links: &[Link],
        voqnet: Option<&VoqNetCredits>,
        arb: &mut ArbScratch,
    ) {
        arb.reset();
        for port in self.occupied.iter() {
            self.candidates_into(port, now, routes, links, voqnet, arb);
        }
    }

    /// Gather eligible queue heads at one input port into `arb`.
    fn candidates_into(
        &self,
        port: usize,
        now: Cycle,
        routes: RouteRow<'_>,
        links: &[Link],
        voqnet: Option<&VoqNetCredits>,
        arb: &mut ArbScratch,
    ) {
        let input = &self.inputs[port];
        if input.busy_until > now {
            arb.idle.wake_at(input.busy_until);
            return;
        }
        let consider =
            |queue: QueueKey, head: &QueuedPacket, out_port: usize, arb: &mut ArbScratch| {
                let output = &self.outputs[out_port];
                // An uncabled output stays uncabled until a re-route
                // (which clears the bound) points the head elsewhere.
                let Some(link_id) = output.out_link else {
                    return;
                };
                let link = &links[link_id.index()];
                let size = head.packet.size_flits;
                if !link.can_send(now, size) {
                    if !link.is_up() {
                        arb.idle.clear();
                    } else if !link.tx_idle(now) {
                        arb.idle.wake_at(link.tx_free_at());
                    } else {
                        arb.watched.insert(out_port);
                        arb.credits_seen[out_port] = link.credits();
                    }
                    return;
                }
                if let Some(vn) = voqnet {
                    // Per-destination reserved space downstream (switch hops
                    // only; node sinks consume at line rate).
                    if !vn.has(link_id.0, head.packet.dst.0, size) {
                        arb.idle.clear();
                        return;
                    }
                }
                arb.push(
                    port,
                    Candidate {
                        queue,
                        out: out_port,
                        // CNPs and ACKs inherit the BECN transmission
                        // priority: all three are 1-flit feedback packets
                        // whose latency is the control loop's delay.
                        becn: head.packet.is_ctrl(),
                    },
                );
            };
        match &input.queues {
            InputQueues::Static { queues, key } => {
                for (i, q) in queues.iter().enumerate() {
                    if let Some(h) = visible_head(q, now, &mut arb.idle) {
                        // An output-keyed queue's index is its output.
                        let o = match key {
                            StaticKey::Output => i,
                            StaticKey::Dest => routes.port(h.packet.dst).index(),
                        };
                        consider(QueueKey::Static(i), h, o, arb);
                    }
                }
            }
            InputQueues::Isolating { nfq, cfqs, .. } => {
                if let Some(h) = visible_head(nfq, now, &mut arb.idle) {
                    // Post-processing guarantees only non-congested heads
                    // compete from the NFQ (§III-C): a head matching an
                    // allocated CFQ is awaiting its move and must not
                    // bypass through the normal path (it would corrupt
                    // in-CFQ ordering accounting and the CFQ drain-rate
                    // measurement). Heads that *cannot* be isolated (CFQs
                    // exhausted) do compete — that is FBICM's HoL failure
                    // mode.
                    let awaiting_move = h.packet.is_data() && cfqs.lookup(h.packet.dst).is_some();
                    if !awaiting_move {
                        let o = routes.port(h.packet.dst).index();
                        consider(QueueKey::Nfq, h, o, arb);
                    }
                }
                for (c, slot) in cfqs.iter().enumerate() {
                    let Some(st) = slot.state else { continue };
                    if self.downstream_stopped(st.out_port, st.dst) {
                        continue; // Stop/Go flow control pauses this CFQ.
                    }
                    if let Some(h) = visible_head(&slot.queue, now, &mut arb.idle) {
                        consider(QueueKey::Cfq(c), h, st.out_port, arb);
                    }
                }
            }
        }
    }

    /// Whether the idle bound of the last gather still stands at `now`:
    /// no time-only blocker has cleared, no write has cleared it, and
    /// every watched output link holds the credits it held then.
    fn idle_bound_holds(&self, now: Cycle, links: &[Link]) -> bool {
        self.arb.idle.holds(now)
            && self.arb.watched.iter().all(|out| {
                let link = self.outputs[out]
                    .out_link
                    .expect("a watched output is cabled");
                links[link.index()].credits() == self.arb.credits_seen[out]
            })
    }

    /// Pop the head of a queue.
    fn pop_queue(&mut self, port: usize, key: QueueKey) -> QueuedPacket {
        let entry = match &mut self.inputs[port].queues {
            InputQueues::Static { queues, key: by } => {
                let QueueKey::Static(i) = key else {
                    unreachable!("{key:?} at a static port")
                };
                let entry = queues[i].pop();
                if *by == StaticKey::Output {
                    self.voq_occ[i] -= entry.map_or(0, |e| e.packet.size_flits);
                }
                entry
            }
            InputQueues::Isolating { nfq, cfqs, .. } => {
                let entry = match key {
                    QueueKey::Nfq => nfq.pop(),
                    QueueKey::Cfq(c) => cfqs[c].queue.pop(),
                    QueueKey::Static(_) => unreachable!("{key:?} at an isolating port"),
                };
                self.port_changed(port);
                entry
            }
        };
        self.sync_live(port);
        entry.expect("candidate queue cannot be empty")
    }

    /// Run iSLIP and start the winning transmissions, appending the RAM
    /// releases to schedule to `releases`. `voqnet` per-destination
    /// credits are debited here for the packets sent. Allocation-free:
    /// the scratch is kept inside the switch.
    pub fn arbitrate_and_transmit(
        &mut self,
        now: Cycle,
        routing: &RoutingTable,
        links: &mut [Link],
        mut voqnet: Option<&mut VoqNetCredits>,
        metrics: &mut MetricsCollector,
        releases: &mut Vec<PendingRelease>,
    ) {
        if self.occupied.is_empty() {
            // No packet anywhere: no candidates, no requests, and iSLIP
            // with an empty request set makes no matches and moves no
            // pointers, so skipping it outright is behavior-identical.
            debug_assert_eq!(self.resident_packets(), 0);
            return;
        }
        let routes = routing.row(self.id);
        if self.idle_bound_holds(now, links) {
            debug_assert!(
                {
                    let mut fresh = ArbScratch::new(self.inputs.len());
                    self.gather(now, routes, links, voqnet.as_deref(), &mut fresh);
                    fresh.in_free.is_empty()
                },
                "stale arbitration idle bound at {} cycle {now}",
                self.id
            );
            return;
        }
        // Borrow-split: take the scratch out of `self` so `self` stays
        // free for `gather` / `islip` below; put it back at the end.
        let mut arb = std::mem::take(&mut self.arb);
        self.gather(now, routes, links, voqnet.as_deref(), &mut arb);
        if arb.in_free.is_empty() {
            // Nothing to schedule: iSLIP over an empty request set makes
            // no match and moves no pointer. Keep what the gather learnt
            // about the blockers as the bound for the next calls.
            self.arb = arb;
            return;
        }
        arb.idle.clear();
        self.islip.schedule_into(
            &arb.requesters,
            &arb.in_free,
            &arb.out_free,
            &mut arb.matches,
        );

        for &(port, out) in &arb.matches {
            // Choose which of the port's queues serves this output:
            // round-robin over the queue list for intra-port fairness.
            // BECNs have transmission priority (§III-B); otherwise round
            // robin over the port's queues. Two passes over the (tiny)
            // candidate list avoid collecting the matching subset.
            let port_cands = arb.of(port);
            let count = port_cands.iter().filter(|c| c.out == out).count();
            debug_assert!(count > 0);
            let pick = port_cands
                .iter()
                .filter(|c| c.out == out)
                .find(|c| c.becn)
                .copied()
                .unwrap_or_else(|| {
                    port_cands
                        .iter()
                        .filter(|c| c.out == out)
                        .nth(self.queue_rr[port] % count)
                        .copied()
                        .expect("count > 0")
                });
            self.queue_rr[port] = self.queue_rr[port].wrapping_add(1);

            let mut entry = self.pop_queue(port, pick.queue);
            if let QueueKey::Cfq(c) = pick.queue {
                if let Some(st) = &mut self.inputs[port].queues.cfqs_mut()[c].state {
                    st.granted_window += entry.packet.size_flits;
                }
            }
            // FECN marking at a congested output (§III-C event #7).
            if let Some(thr) = self.cfg.thr {
                if self.outputs[out].congested
                    && entry.packet.is_data()
                    && entry.packet.size_bytes > thr.packet_size_threshold_bytes
                    && self.marking_rng.random::<f64>() < thr.marking_rate
                {
                    entry.packet.fecn = true;
                    metrics.record(
                        now,
                        CcEventKind::FecnMark {
                            sw: self.id.0,
                            port: out as u32,
                            dst: entry.packet.dst.0,
                            flow: entry.packet.flow.0,
                        },
                    );
                }
            }
            // Modern-CC header work at the same adjudication point
            // (ECN-CE marking / INT stamping).
            match self.cfg.cc {
                Some(SwitchCcMode::Ecn {
                    kmin_flits,
                    kmax_flits,
                    pmax,
                }) if entry.packet.is_data() => {
                    let occ = self.output_voq_occupancy_flits(out);
                    let p = if occ >= kmax_flits {
                        1.0
                    } else if occ > kmin_flits {
                        pmax * f64::from(occ - kmin_flits) / f64::from(kmax_flits - kmin_flits)
                    } else {
                        0.0
                    };
                    if p > 0.0 && self.marking_rng.random::<f64>() < p {
                        entry.packet.ecn = true;
                        metrics.record(
                            now,
                            CcEventKind::EcnMark {
                                sw: self.id.0,
                                port: out as u32,
                                dst: entry.packet.dst.0,
                                occupancy_flits: occ,
                            },
                        );
                    }
                }
                Some(SwitchCcMode::Int { window_cycles }) => {
                    let occ = self.output_voq_occupancy_flits(out);
                    let op = &mut self.outputs[out];
                    let win = now / window_cycles;
                    if win != op.int_win {
                        op.int_tx_last = if win == op.int_win + 1 {
                            op.int_tx_flits
                        } else {
                            0 // the port idled through at least one window
                        };
                        op.int_win = win;
                        op.int_tx_flits = 0;
                    }
                    op.int_tx_flits += u64::from(entry.packet.size_flits);
                    if entry.packet.is_data() {
                        // The busier of the completing and completed
                        // windows: responsive on ramp-up, stable once
                        // the link streams.
                        let tx = op.int_tx_flits.max(op.int_tx_last);
                        let u = ccfit_cc::hop_utilization(
                            u64::from(occ),
                            tx,
                            f64::from(op.link_bw.max(1)),
                            window_cycles,
                        );
                        entry.packet.int_u = ccfit_cc::fold_u(entry.packet.int_u, u);
                        entry.packet.int_hops = entry.packet.int_hops.saturating_add(1);
                    }
                }
                _ => {}
            }
            let link_id = self.outputs[out]
                .out_link
                .expect("matched output is cabled");
            let wire_done = links[link_id.index()].send(now, entry.packet);
            self.touched_links.push(link_id.0);
            // The input port is occupied for the crossbar-transfer time
            // (shorter than wire serialization when the crossbar has
            // speedup), but virtual cut-through forwarding cannot
            // complete before the packet's tail has arrived from
            // upstream.
            let xbar = self.cfg.crossbar_bw_flits_per_cycle.max(1);
            let input_done = (now + (entry.packet.size_flits.div_ceil(xbar)).max(1) as Cycle)
                .max(entry.ready_at);
            let _ = wire_done; // the output link tracks its own busy time
            self.inputs[port].busy_until = input_done;
            if let Some(vn) = voqnet.as_deref_mut() {
                vn.sub(link_id.0, entry.packet.dst.0, entry.packet.size_flits);
            }
            releases.push(PendingRelease {
                at: input_done,
                port,
                flits: entry.packet.size_flits,
                dst: entry.packet.dst,
            });
        }
        self.arb = arb;
    }

    /// Release RAM for a departed packet (called by the simulator at the
    /// scheduled completion time; the credit return to the upstream hop
    /// is the simulator's job since it owns the links).
    pub fn release_ram(&mut self, port: usize, flits: u32) {
        self.inputs[port].ram.release(flits);
    }

    /// Send a control event, noting the link as touched so the event's
    /// consumer gets activated (DESIGN.md §12).
    fn send_ctrl_noting(&mut self, links: &mut [Link], link: LinkId, now: Cycle, ev: CtrlEvent) {
        links[link.index()].send_ctrl(now, ev);
        self.touched_links.push(link.0);
    }

    /// Move the links sent on since the last drain into `set`,
    /// activating them for the scheduler's link phases.
    pub fn drain_touched_links(&mut self, set: &mut ccfit_engine::ActiveSet) {
        for l in self.touched_links.drain(..) {
            set.insert(l);
        }
    }

    /// Fault subsystem: the whole switch failed. Wipe every queue, RAM
    /// and congestion state — its buffers are gone with it. Returns what
    /// was destroyed.
    pub fn purge_all(&mut self) -> PurgeStats {
        let mut stats = PurgeStats::default();
        let mut drained = std::mem::take(&mut self.purge_scratch);
        for inp in &mut self.inputs {
            for q in inp.queues.iter_mut() {
                q.drain_all_into(&mut drained);
            }
            for c in inp.queues.cfqs_mut() {
                c.state = None;
            }
            inp.ram = PortRam::new(inp.ram.capacity());
            inp.busy_until = 0;
        }
        for e in &drained {
            stats.note(e.packet.is_data());
        }
        for out in &mut self.outputs {
            out.cam.clear();
            out.congested = false;
            out.over_high_count = 0;
            out.int_win = 0;
            out.int_tx_flits = 0;
            out.int_tx_last = 0;
        }
        drained.clear();
        self.purge_scratch = drained;
        self.occupied.clear();
        // The open exhaustion episodes stay, and keep their ports in the
        // walk: the next visit finds the port empty and closes them.
        self.iso_live.clear();
        for e in &self.exhausted {
            self.iso_live.insert(e.port as usize);
        }
        self.voq_occ.fill(0);
        self.all_ports_changed();
        stats
    }

    /// Fault subsystem: drop every buffered packet whose destination
    /// satisfies `unreachable`, appending `(input_port, entry)` pairs to
    /// `out` so the caller can return the upstream credits (the simulator
    /// owns the links). Port RAM is freed here.
    pub fn purge_unreachable(
        &mut self,
        unreachable: &dyn Fn(NodeId) -> bool,
        out: &mut Vec<(usize, QueuedPacket)>,
    ) {
        let mut scratch = std::mem::take(&mut self.purge_scratch);
        for port in 0..self.inputs.len() {
            scratch.clear();
            {
                let inp = &mut self.inputs[port];
                let voqs = matches!(
                    inp.queues,
                    InputQueues::Static {
                        key: StaticKey::Output,
                        ..
                    }
                );
                for (i, q) in inp.queues.iter_mut().enumerate() {
                    let before = q.occupancy_flits();
                    q.drain_where_into(|e| unreachable(e.packet.dst), &mut scratch);
                    if voqs {
                        self.voq_occ[i] -= before - q.occupancy_flits();
                    }
                }
                for e in &scratch {
                    inp.ram.release(e.packet.size_flits);
                }
            }
            self.sync_live(port);
            for e in scratch.drain(..) {
                out.push((port, e));
            }
        }
        self.purge_scratch = scratch;
        self.all_ports_changed();
    }

    /// Fault subsystem: forget the downstream congestion state mirrored
    /// at output `port` — it died with the cable (fail-stop quiesce).
    pub fn clear_output_cam(&mut self, port: usize) {
        self.outputs[port].cam.clear();
        self.all_ports_changed();
    }

    /// Fault subsystem: forget that alloc/Stop notifications were sent
    /// upstream from input `port`'s CFQs — the upstream end of the cable
    /// lost that state, so the protocol must re-propagate it after a
    /// repair (fail-stop quiesce).
    pub fn reset_upstream_ctrl_flags(&mut self, port: usize) {
        for c in self.inputs[port].queues.cfqs_mut() {
            if let Some(st) = &mut c.state {
                st.alloc_sent = false;
                st.stop_sent = false;
            }
        }
        self.port_changed(port);
    }

    /// Occupancy (flits) of the destination-keyed queue that packets for
    /// `dst` join at input `port` (0 at output-keyed and isolating
    /// ports). Under VOQnet that queue holds `dst`'s packets alone; it
    /// re-derives the remote per-destination credits when a cable is
    /// repaired.
    pub fn per_dest_occupancy_flits(&self, port: usize, dst: usize) -> u32 {
        match &self.inputs[port].queues {
            InputQueues::Static {
                queues,
                key: StaticKey::Dest,
            } => queues[dst % queues.len()].occupancy_flits(),
            _ => 0,
        }
    }

    /// Routing tables changed (live re-route): re-bin output-keyed static
    /// queues (VOQsw) — a packet's queue is its *output port*, chosen at
    /// acceptance — and
    /// re-point allocated CFQs at their destination's new output,
    /// migrating the over-High accounting with them. Queue contents are
    /// re-binned in input-port, then queue, order, preserving FIFO order
    /// within each source queue, so the result is deterministic.
    pub fn on_routing_changed(&mut self, routing: &RoutingTable) {
        let routes = routing.row(self.id);
        let mut rebin: Vec<QueuedPacket> = Vec::new();
        for port in 0..self.inputs.len() {
            if let InputQueues::Static {
                queues,
                key: StaticKey::Output,
            } = &mut self.inputs[port].queues
            {
                rebin.clear();
                for (o, q) in queues.iter_mut().enumerate() {
                    self.voq_occ[o] -= q.occupancy_flits();
                    q.drain_all_into(&mut rebin);
                }
                for e in rebin.drain(..) {
                    let o = routes.port(e.packet.dst).index();
                    queues[o].push(e.packet, e.visible_at, e.ready_at);
                    self.voq_occ[o] += e.packet.size_flits;
                }
            }
            for c in self.inputs[port].queues.cfqs_mut() {
                let Some(st) = &mut c.state else { continue };
                let new_out = routes.port(st.dst).index();
                if new_out != st.out_port {
                    if st.over_high {
                        self.outputs[st.out_port].over_high_count -= 1;
                        self.outputs[new_out].over_high_count += 1;
                        self.over_high_dirty = true;
                    }
                    st.out_port = new_out;
                }
            }
        }
        self.all_ports_changed();
    }

    /// Recount everything the live-port sets and the VOQ occupancy
    /// counters mirror.
    fn live_state_matches_a_recount(&self) -> bool {
        self.inputs.iter().enumerate().all(|(p, inp)| {
            let packets = inp.queues.total_packets();
            self.occupied.contains(p) == (packets > 0)
                && self.iso_live.contains(p)
                    == (packets > 0 || inp.queues.cfqs().allocated() > 0 || self.exhausting(p))
        }) && (0..self.outputs.len()).all(|o| self.voq_occ[o] == self.summed_voq_occupancy_flits(o))
    }

    /// Whether the switch's congestion machinery provably does nothing
    /// this cycle: no buffered packets (so no detection, no moves, no
    /// arbitration), no allocated CFQs (so no propagation, Stop/Go,
    /// High/Low bookkeeping, or deallocation), no open exhaustion episode
    /// (so none to close), and no output in the congestion state (so no
    /// exit transition is pending). A degenerate
    /// `High = 0` threshold could enter the congestion state with zero
    /// occupancy, so such a switch never counts as quiescent.
    pub fn is_quiescent(&self) -> bool {
        debug_assert!(self.live_state_matches_a_recount());
        self.occupied.is_empty()
            && self.cfqs_allocated() == 0
            && self.exhausted.is_empty()
            && self.outputs.iter().all(|o| !o.congested)
            && self.cfg.thr.is_none_or(|t| t.high_flits > 0)
    }

    /// The park rule (DESIGN.md §12): `Some(until)` exactly when every
    /// stage of this switch's tick provably does nothing on any cycle
    /// before `until` (`Cycle::MAX` = until an activation) unless an event
    /// that activates the switch lands first — a delivery, control on an
    /// output link, a fault. Stage by stage: every live port's last
    /// isolation visit was quiet, and `until` is no later than the
    /// earliest of their bounds (a CFQ's protocol clocks, an arriving
    /// head); no over-High count moved since the congestion-state update
    /// (RootCfq), or no output is in the congestion state or about to
    /// enter it (VoqOccupancy: VOQ occupancy below High everywhere); and
    /// the arbiter either has nothing buffered or holds an idle bound no
    /// credit return can lift.
    pub(crate) fn park_bound(&self) -> Option<Cycle> {
        self.park_bound_from(
            |port| Some(self.iso_quiet[port]).filter(|&until| until > 0),
            || (&self.arb.idle, &self.arb.watched),
        )
    }

    /// [`Self::park_bound`] with nothing taken from a memo: `quiet_until`
    /// asked of every live port, and a fresh gather into fresh scratch.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn park_bound_rederived(
        &self,
        now: Cycle,
        routing: &RoutingTable,
        links: &[Link],
        voqnet: Option<&VoqNetCredits>,
    ) -> Option<Cycle> {
        let routes = routing.row(self.id);
        let mut fresh = ArbScratch::new(self.inputs.len());
        self.gather(now, routes, links, voqnet, &mut fresh);
        if !fresh.in_free.is_empty() {
            fresh.idle.clear();
        }
        self.park_bound_from(
            |port| self.quiet_until(port, now, routes),
            || (&fresh.idle, &fresh.watched),
        )
    }

    fn park_bound_from<'a>(
        &self,
        port_quiet: impl Fn(usize) -> Option<Cycle>,
        arbiter: impl FnOnce() -> (&'a IdleBound, &'a BitSet),
    ) -> Option<Cycle> {
        if self.over_high_dirty {
            return None;
        }
        if let Some(thr) = self.cfg.thr {
            // The VoqOccupancy arm flips an output on its own only where
            // it is not congested at High (it enters the cycle credits
            // return, which activates nobody) or congested at Low (this
            // tick's pops brought it there after the arm ran). Between
            // them only a delivery or a fault moves `voq_occ`, and both
            // activate the switch.
            let marks_on_voqs = thr.source == MarkingSource::VoqOccupancy;
            if marks_on_voqs
                && (self.outputs.iter().zip(&self.voq_occ)).any(|(o, &occ)| match o.congested {
                    false => occ >= thr.high_flits,
                    true => occ <= thr.low_flits,
                })
            {
                return None;
            }
        }
        let mut until = Cycle::MAX;
        if self.cfg.iso.is_some() {
            for port in self.iso_live.iter() {
                until = until.min(port_quiet(port)?);
            }
        }
        if !self.occupied.is_empty() {
            let (idle, watched) = arbiter();
            until = until.min(idle.current().filter(|_| watched.is_empty())?);
        }
        Some(until)
    }

    /// Buffered packets across all input ports.
    pub fn resident_packets(&self) -> usize {
        self.inputs.iter().map(|i| i.queues.total_packets()).sum()
    }

    /// Buffered *data* packets (conservation checks).
    pub fn resident_data_packets(&self) -> usize {
        self.inputs
            .iter()
            .map(|i| i.queues.total_data_packets())
            .sum()
    }

    /// Number of CFQs currently allocated across all input ports.
    pub fn cfqs_allocated(&self) -> usize {
        self.inputs
            .iter()
            .map(|i| i.queues.cfqs().allocated())
            .sum()
    }

    /// Number of destinations this switch routes (for VOQnet sizing).
    pub fn num_dests(&self) -> usize {
        self.num_dests
    }

    /// Human-readable dump of the port state (debugging and examples).
    pub fn debug_state(&self, links: &[Link]) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(out, "{} :", self.id).unwrap();
        for (p, inp) in self.inputs.iter().enumerate() {
            if inp.in_link.is_none() {
                continue;
            }
            match &inp.queues {
                InputQueues::Isolating { nfq, cfqs, .. } => {
                    write!(
                        out,
                        "  in{p}: ram={}/{} nfq={}f",
                        inp.ram.used(),
                        inp.ram.capacity(),
                        nfq.occupancy_flits()
                    )
                    .unwrap();
                    for (c, slot) in cfqs.iter().enumerate() {
                        if let Some(st) = slot.state {
                            write!(
                                out,
                                " cfq{c}[dst={} occ={}f root={} stop_sent={} down_stopped={}]",
                                st.dst.0,
                                slot.queue.occupancy_flits(),
                                st.root,
                                st.stop_sent,
                                self.downstream_stopped(st.out_port, st.dst)
                            )
                            .unwrap();
                        }
                    }
                    writeln!(out).unwrap();
                }
                q => {
                    writeln!(
                        out,
                        "  in{p}: ram={}/{} occ={}f pkts={}",
                        inp.ram.used(),
                        inp.ram.capacity(),
                        q.total_occupancy_flits(),
                        q.total_packets()
                    )
                    .unwrap();
                }
            }
        }
        for (p, o) in self.outputs.iter().enumerate() {
            if o.out_link.is_none() {
                continue;
            }
            let credits = o.out_link.map(|l| links[l.index()].credits()).unwrap_or(0);
            write!(
                out,
                "  out{p}: congested={} over_high={} credits={}",
                o.congested, o.over_high_count, credits
            )
            .unwrap();
            for (_, line) in o.cam.iter() {
                write!(
                    out,
                    " cam[dst={} stopped={}]",
                    line.key.0, line.value.stopped
                )
                .unwrap();
            }
            writeln!(out).unwrap();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ThrottleParams;
    use ccfit_engine::ids::{FlowId, PacketId, PortId};
    use ccfit_engine::link::LinkConfig;
    use ccfit_engine::packet::Packet;
    use ccfit_engine::rng::SeedSplitter;
    use ccfit_engine::units::UnitModel;
    use ccfit_metrics::MetricsCollector;

    const MTU: u32 = 32;

    /// A 3-port test switch: port 0 is an input (fed by link 0, which we
    /// drive directly), ports 1 and 2 are outputs (links 1 and 2).
    /// Destinations 0..4 route to output 1, destinations 4.. to output 2.
    struct Fixture {
        sw: Switch,
        links: Vec<Link>,
        routing: RoutingTable,
        metrics: MetricsCollector,
    }

    fn fixture(
        scheme: QueueingScheme,
        iso: Option<IsolationParams>,
        thr: Option<SwitchThrottle>,
    ) -> Fixture {
        fixture_cc(scheme, iso, thr, None)
    }

    fn fixture_cc(
        scheme: QueueingScheme,
        iso: Option<IsolationParams>,
        thr: Option<SwitchThrottle>,
        cc: Option<SwitchCcMode>,
    ) -> Fixture {
        let cfg = SwitchCfg {
            scheme,
            iso,
            thr,
            mtu_flits: MTU,
            // VOQnet: 64 flits reserved for each of the 8 destinations.
            ram_flits: if scheme == QueueingScheme::PerDest {
                64 * 8
            } else {
                1024
            },
            islip_iterations: 2,
            move_budget: 4,
            crossbar_bw_flits_per_cycle: 1,
            cc,
        };
        let wiring = vec![
            (Some(LinkId(0)), None), // port 0: input only
            (None, Some(LinkId(1))), // port 1: output only
            (None, Some(LinkId(2))), // port 2: output only
        ];
        let sw = Switch::new(
            SwitchId(0),
            cfg,
            &wiring,
            8,
            SeedSplitter::new(1).rng("m", 0),
        );
        let links = (0..3)
            .map(|_| Link::new(LinkConfig::default(), 1024))
            .collect();
        let routing = RoutingTable::from_rows(
            8,
            (0..8)
                .map(|d| if d < 4 { PortId(1) } else { PortId(2) })
                .collect(),
        );
        let metrics = MetricsCollector::new(UnitModel::default(), 100_000.0);
        Fixture {
            sw,
            links,
            routing,
            metrics,
        }
    }

    /// `cfq_exhausted` once cycle `ticked` has run: the closed episodes'
    /// cycles plus the open ones' so far, as a mid-run read of the
    /// simulator's counter reports it.
    fn cfq_exhausted(fx: &Fixture, ticked: Cycle) -> u64 {
        fx.metrics.counter("cfq_exhausted") + fx.sw.open_exhaustion_cycles(ticked + 1)
    }

    fn pkt(id: u64, dst: u32) -> Packet {
        Packet::data(
            PacketId(id),
            NodeId(0),
            NodeId(dst),
            MTU,
            2048,
            FlowId(0),
            0,
        )
    }

    fn deliver(fx: &mut Fixture, now: Cycle, p: Packet) {
        fx.sw.accept_delivery(
            0,
            Delivery {
                packet: p,
                visible_at: now,
                ready_at: now,
            },
            &fx.routing,
        );
    }

    fn drain(l: &mut Link, now: Cycle) -> Vec<Delivery> {
        let mut v = Vec::new();
        l.deliver_into(now, &mut v);
        v
    }

    fn drain_ctrl(l: &mut Link, now: Cycle) -> Vec<CtrlEvent> {
        let mut v = Vec::new();
        l.poll_ctrl_into(now, &mut v);
        v
    }

    fn default_thr(source: MarkingSource) -> SwitchThrottle {
        let t = ThrottleParams::default();
        SwitchThrottle {
            marking_rate: 1.0, // deterministic marking for the tests
            packet_size_threshold_bytes: t.packet_size_threshold_bytes,
            high_flits: t.high_mtus * MTU,
            low_flits: t.low_mtus * MTU,
            entry_delay_cycles: 0,
            starvation_window_cycles: 64,
            source,
        }
    }

    /// Each static scheme reserves a delivery's RAM and files it in the
    /// queue its key names; only the output key moves the VOQ occupancy,
    /// and only the destination key answers the per-destination read.
    #[test]
    fn accept_delivery_reserves_ram_per_scheme() {
        // Destination 2 leaves by output 1, destination 6 by output 2.
        for (scheme, joins, voq_occ, dst6_flits) in [
            (QueueingScheme::Single, [0, 0], [0; 3], 2 * MTU),
            (QueueingScheme::PerOutput, [1, 2], [0, MTU, MTU], 0),
            (QueueingScheme::PerDest, [2, 6], [0; 3], MTU),
        ] {
            let mut fx = fixture(scheme, None, None);
            deliver(&mut fx, 0, pkt(1, 2));
            deliver(&mut fx, 0, pkt(2, 6));
            assert_eq!(fx.sw.inputs[0].ram.used(), 2 * MTU, "{scheme:?}");
            assert_eq!(fx.sw.resident_packets(), 2);
            let InputQueues::Static { queues, .. } = &fx.sw.inputs[0].queues else {
                panic!("{scheme:?} is static");
            };
            for (dst, i) in [2, 6].into_iter().zip(joins) {
                assert!(
                    queues[i].iter().any(|e| e.packet.dst == NodeId(dst)),
                    "{scheme:?}: destination {dst} is not in queue {i}"
                );
            }
            assert_eq!(fx.sw.voq_occ, voq_occ, "{scheme:?}");
            assert_eq!(
                fx.sw.per_dest_occupancy_flits(0, 6),
                dst6_flits,
                "{scheme:?}"
            );
        }
    }

    #[test]
    fn arbitration_routes_to_the_right_output() {
        let mut fx = fixture(QueueingScheme::PerOutput, None, None);
        deliver(&mut fx, 0, pkt(1, 2)); // -> output 1
        deliver(&mut fx, 0, pkt(2, 6)); // -> output 2
        let rel = arbitrate(&mut fx, 0);
        // Only one transfer can start per input per cycle.
        assert_eq!(rel.len(), 1);
        // After the input frees up, the second follows.
        let done = rel[0].at;
        let rel2 = arbitrate(&mut fx, done);
        assert_eq!(rel2.len(), 1);
        let d1 = drain(&mut fx.links[1], 1000);
        let d2 = drain(&mut fx.links[2], 1000);
        assert_eq!(d1.len(), 1);
        assert_eq!(d2.len(), 1);
        assert_eq!(d1[0].packet.dst, NodeId(2));
        assert_eq!(d2[0].packet.dst, NodeId(6));
    }

    #[test]
    fn crossbar_speedup_halves_input_occupancy() {
        let mut fx = fixture(QueueingScheme::PerOutput, None, None);
        fx.sw.cfg.crossbar_bw_flits_per_cycle = 2;
        deliver(&mut fx, 0, pkt(1, 2));
        deliver(&mut fx, 0, pkt(2, 6));
        let rel = arbitrate(&mut fx, 0);
        assert_eq!(rel.len(), 1);
        assert_eq!(
            rel[0].at, 16,
            "32 flits at 2 flits/cycle across the crossbar"
        );
        // Input free at 16 even though the wire serializes for 32 cycles.
        let rel2 = arbitrate(&mut fx, 16);
        assert_eq!(
            rel2.len(),
            1,
            "second output served while the first wire is busy"
        );
    }

    #[test]
    fn single_queue_exhibits_hol_blocking() {
        let mut fx = fixture(QueueingScheme::Single, None, None);
        // Make output 1 unusable by exhausting its credits.
        fx.links[1] = Link::new(LinkConfig::default(), 0);
        deliver(&mut fx, 0, pkt(1, 2)); // head, blocked (-> output 1)
        deliver(&mut fx, 0, pkt(2, 6)); // victim behind it (-> output 2)
        let rel = arbitrate(&mut fx, 0);
        assert!(
            rel.is_empty(),
            "single queue: blocked head blocks the victim"
        );
        // Per-output queueing would have let the victim through.
        let mut fx2 = fixture(QueueingScheme::PerOutput, None, None);
        fx2.links[1] = Link::new(LinkConfig::default(), 0);
        deliver(&mut fx2, 0, pkt(1, 2));
        deliver(&mut fx2, 0, pkt(2, 6));
        let rel2 = arbitrate(&mut fx2, 0);
        assert_eq!(rel2.len(), 1, "VOQsw: victim bypasses the blocked flow");
        assert_eq!(rel2[0].dst, NodeId(6));
    }

    #[test]
    fn detection_allocates_a_root_cfq_for_the_dominant_destination() {
        let mut fx = fixture(
            QueueingScheme::Isolating,
            Some(IsolationParams::default()),
            None,
        );
        // Fill the NFQ past 8 MTUs: 6 packets to dst 6 (hot), 3 to dst 2.
        let mut id = 0;
        for _ in 0..6 {
            deliver(&mut fx, 0, pkt(id, 6));
            id += 1;
        }
        for _ in 0..3 {
            deliver(&mut fx, 0, pkt(id, 2));
            id += 1;
        }
        fx.sw
            .isolation_tick(0, &fx.routing, &mut fx.links, &mut fx.metrics);
        let cfqs = fx.sw.inputs[0].queues.cfqs();
        let cfq = cfqs.lookup(NodeId(6)).expect("hot destination isolated");
        let st = cfqs[cfq].state.unwrap();
        assert!(st.root, "locally detected => root");
        assert_eq!(st.out_port, 2);
        assert_eq!(
            cfqs.lookup(NodeId(2)),
            None,
            "minority destination not isolated"
        );
        assert_eq!(fx.metrics.counter("congestion_detected"), 1);
    }

    #[test]
    fn post_processing_moves_matching_heads_only() {
        let mut fx = fixture(
            QueueingScheme::Isolating,
            Some(IsolationParams::default()),
            None,
        );
        let mut id = 0;
        for _ in 0..9 {
            deliver(&mut fx, 0, pkt(id, 6));
            id += 1;
        }
        deliver(&mut fx, 0, pkt(id, 2));
        fx.sw
            .isolation_tick(0, &fx.routing, &mut fx.links, &mut fx.metrics);
        // move_budget = 4: four hot packets moved this cycle.
        assert_eq!(fx.metrics.counter("packets_isolated"), 4);
        fx.sw
            .isolation_tick(1, &fx.routing, &mut fx.links, &mut fx.metrics);
        fx.sw
            .isolation_tick(2, &fx.routing, &mut fx.links, &mut fx.metrics);
        // All nine hot packets isolated; the dst-2 packet stays in the NFQ.
        assert_eq!(fx.metrics.counter("packets_isolated"), 9);
        if let InputQueues::Isolating { nfq, .. } = &fx.sw.inputs[0].queues {
            assert_eq!(nfq.len(), 1);
            assert_eq!(nfq.head().unwrap().packet.dst, NodeId(2));
        }
    }

    #[test]
    fn stop_is_sent_upstream_and_matched_by_go() {
        let mut fx = fixture(
            QueueingScheme::Isolating,
            Some(IsolationParams::default()),
            None,
        );
        // Saturate: 11 MTUs to dst 6 (stop threshold is 10).
        for id in 0..11 {
            deliver(&mut fx, 0, pkt(id, 6));
        }
        for now in 0..4 {
            fx.sw
                .isolation_tick(now, &fx.routing, &mut fx.links, &mut fx.metrics);
        }
        assert_eq!(fx.metrics.counter("stops_sent"), 1);
        // The upstream side of link 0 sees CfqAlloc then Stop.
        let evs = drain_ctrl(&mut fx.links[0], 100);
        assert!(evs.contains(&CtrlEvent::CfqAlloc { dst: NodeId(6) }));
        assert!(evs.contains(&CtrlEvent::Stop { dst: NodeId(6) }));
        // Drain the CFQ via arbitration; Go must follow.
        let mut now = 100;
        for _ in 0..11 {
            let rel = arbitrate(&mut fx, now);
            now = rel.first().map(|r| r.at).unwrap_or(now + 32);
            for r in rel {
                fx.sw.release_ram(r.port, r.flits);
            }
            fx.sw
                .isolation_tick(now, &fx.routing, &mut fx.links, &mut fx.metrics);
        }
        assert_eq!(fx.metrics.counter("gos_sent"), 1);
        let evs = drain_ctrl(&mut fx.links[0], 10_000);
        assert!(evs.contains(&CtrlEvent::Go { dst: NodeId(6) }));
    }

    #[test]
    fn output_cam_stop_pauses_the_cfq() {
        let mut fx = fixture(
            QueueingScheme::Isolating,
            Some(IsolationParams::default()),
            None,
        );
        // Downstream announces a congestion tree for dst 6 and stops it.
        fx.links[2].send_ctrl(0, CtrlEvent::CfqAlloc { dst: NodeId(6) });
        fx.links[2].send_ctrl(0, CtrlEvent::Stop { dst: NodeId(6) });
        fx.sw.poll_output_ctrl(10, &mut fx.links, &mut fx.metrics);
        deliver(&mut fx, 10, pkt(1, 6));
        deliver(&mut fx, 10, pkt(2, 2));
        fx.sw
            .isolation_tick(10, &fx.routing, &mut fx.links, &mut fx.metrics);
        // The hot packet was isolated (out-CAM hit) into a *non-root* CFQ.
        let cfqs = fx.sw.inputs[0].queues.cfqs();
        let c = cfqs
            .lookup(NodeId(6))
            .expect("isolated via propagated info");
        assert!(!cfqs[c].state.unwrap().root);
        // Arbitration: only the dst-2 packet may go (dst 6 is stopped).
        let rel = arbitrate(&mut fx, 10);
        assert_eq!(rel.len(), 1);
        assert_eq!(rel[0].dst, NodeId(2));
        // Go resumes the flow.
        fx.links[2].send_ctrl(50, CtrlEvent::Go { dst: NodeId(6) });
        fx.sw.poll_output_ctrl(60, &mut fx.links, &mut fx.metrics);
        let rel = arbitrate(&mut fx, 60);
        assert_eq!(rel.len(), 1);
        assert_eq!(rel[0].dst, NodeId(6));
    }

    #[test]
    fn cfq_exhaustion_leaves_the_head_blocked() {
        let iso = IsolationParams {
            num_cfqs: 1,
            ..IsolationParams::default()
        };
        let mut fx = fixture(QueueingScheme::Isolating, Some(iso), None);
        // First tree (dst 6) takes the only CFQ.
        for id in 0..9 {
            deliver(&mut fx, 0, pkt(id, 6));
        }
        fx.sw
            .isolation_tick(0, &fx.routing, &mut fx.links, &mut fx.metrics);
        assert_eq!(fx.sw.cfqs_allocated(), 1);
        // Second tree (dst 2) cannot be isolated.
        for id in 10..19 {
            deliver(&mut fx, 0, pkt(id, 2));
        }
        for now in 1..6 {
            fx.sw
                .isolation_tick(now, &fx.routing, &mut fx.links, &mut fx.metrics);
        }
        assert!(cfq_exhausted(&fx, 5) > 0);
        assert_eq!(fx.sw.cfqs_allocated(), 1, "no second CFQ materialised");
    }

    #[test]
    fn ith_congestion_state_follows_voq_occupancy_with_hysteresis() {
        let thr = default_thr(MarkingSource::VoqOccupancy);
        let mut fx = fixture(QueueingScheme::PerOutput, None, Some(thr));
        // 5 MTUs toward output 2 (High = 4 MTUs) and credits available.
        for id in 0..5 {
            deliver(&mut fx, 0, pkt(id, 6));
        }
        fx.sw.congestion_state_tick(0, &fx.links, &mut fx.metrics);
        assert!(
            fx.sw.outputs[2].congested,
            "above High with credits => congested"
        );
        assert!(!fx.sw.outputs[1].congested);
        // Drain below Low (2 MTUs): three departures.
        let mut now = 0;
        for _ in 0..3 {
            let rel = arbitrate(&mut fx, now);
            assert_eq!(rel.len(), 1);
            now = rel[0].at;
            fx.sw.release_ram(rel[0].port, rel[0].flits);
        }
        fx.sw.congestion_state_tick(now, &fx.links, &mut fx.metrics);
        assert!(
            !fx.sw.outputs[2].congested,
            "below Low => out of congestion state"
        );
    }

    #[test]
    fn marking_sets_fecn_only_in_congestion_state() {
        let thr = default_thr(MarkingSource::VoqOccupancy);
        let mut fx = fixture(QueueingScheme::PerOutput, None, Some(thr));
        for id in 0..5 {
            deliver(&mut fx, 0, pkt(id, 6));
        }
        // Not congested yet: first departure unmarked.
        let rel = arbitrate(&mut fx, 0);
        fx.sw.release_ram(rel[0].port, rel[0].flits);
        assert_eq!(fx.metrics.counter("fecn_marked"), 0);
        // Enter congestion state; with marking_rate = 1 every departure
        // through output 2 is marked.
        fx.sw.congestion_state_tick(32, &fx.links, &mut fx.metrics);
        assert!(fx.sw.outputs[2].congested);
        let rel = arbitrate(&mut fx, 32);
        assert_eq!(rel.len(), 1);
        assert_eq!(fx.metrics.counter("fecn_marked"), 1);
        let delivered = drain(&mut fx.links[2], 10_000);
        assert!(delivered.last().unwrap().packet.fecn);
    }

    #[test]
    fn ecn_marks_above_kmin_and_never_below() {
        let cc = SwitchCcMode::Ecn {
            kmin_flits: MTU,     // one buffered MTU behind the head
            kmax_flits: 2 * MTU, // two -> always mark
            pmax: 0.2,
        };
        let mut fx = fixture_cc(QueueingScheme::PerOutput, None, None, Some(cc));
        deliver(&mut fx, 0, pkt(1, 6));
        // Occupancy 1 MTU == kmin: below the ramp, never marked.
        let rel = arbitrate(&mut fx, 0);
        fx.sw.release_ram(rel[0].port, rel[0].flits);
        assert_eq!(fx.metrics.counter("ecn_marked"), 0);
        // Backlog of 3 MTUs >= kmax: marking probability 1.
        let now = rel[0].at;
        for id in 2..5 {
            deliver(&mut fx, now, pkt(id, 6));
        }
        let rel = arbitrate(&mut fx, now);
        assert_eq!(rel.len(), 1);
        assert_eq!(fx.metrics.counter("ecn_marked"), 1);
        let delivered = drain(&mut fx.links[2], 10_000);
        let last = delivered.last().unwrap().packet;
        assert!(last.ecn);
        assert!(!last.fecn, "ECN mode never touches the FECN bit");
    }

    #[test]
    fn int_stamping_folds_hop_utilization_and_rolls_the_window() {
        let window_cycles = 64;
        let mut fx = fixture_cc(
            QueueingScheme::PerOutput,
            None,
            None,
            Some(SwitchCcMode::Int { window_cycles }),
        );
        fx.sw.set_output_link_bw(2, 1);
        for id in 0..3 {
            deliver(&mut fx, 0, pkt(id, 6));
        }
        let mut now = 0;
        let mut got = Vec::new();
        while got.len() < 3 {
            let rel = arbitrate(&mut fx, now);
            for r in &rel {
                fx.sw.release_ram(r.port, r.flits);
            }
            now = rel.first().map_or(now + 1, |r| r.at);
            got.extend(drain(&mut fx.links[2], 10_000));
            assert!(now < 10_000, "packets must drain");
        }
        // First departure: 3 MTUs queued (head included in occupancy at
        // sample time minus itself after pop = 2 MTUs) + its own tx
        // flits over bw*T = 64 flits -> u > 0, one hop.
        assert_eq!(got[0].packet.int_hops, 1);
        assert!(got[0].packet.int_u > 0.0);
        // The busiest sample (most backlog) is the first one.
        assert!(got[0].packet.int_u >= got[2].packet.int_u);
        // The tx-window counters rolled with the clock.
        assert_eq!(fx.sw.outputs[2].int_win, now / window_cycles);
    }

    #[test]
    fn starved_root_cfq_drives_ccfit_congestion_state() {
        let thr = default_thr(MarkingSource::RootCfq);
        let mut fx = fixture(
            QueueingScheme::Isolating,
            Some(IsolationParams::default()),
            Some(thr),
        );
        // Hot backlog: 9 MTUs to dst 6 -> root CFQ above High.
        for id in 0..9 {
            deliver(&mut fx, 0, pkt(id, 6));
        }
        // Block output 2 so the CFQ is starved (no grants at all).
        fx.links[2] = Link::new(LinkConfig::default(), 0);
        for now in 0..200 {
            fx.sw
                .isolation_tick(now, &fx.routing, &mut fx.links, &mut fx.metrics);
            fx.sw.congestion_state_tick(now, &fx.links, &mut fx.metrics);
        }
        assert!(
            fx.sw.outputs[2].congested,
            "starved root CFQ above High => congestion state"
        );
        // A CFQ draining at full output rate must NOT mark: new fixture,
        // same backlog, output free, and we keep draining while refilling.
        let thr = default_thr(MarkingSource::RootCfq);
        let mut fx2 = fixture(
            QueueingScheme::Isolating,
            Some(IsolationParams::default()),
            Some(thr),
        );
        for id in 0..9 {
            deliver(&mut fx2, 0, pkt(id, 6));
        }
        let mut now = 0u64;
        for next_id in 100..120 {
            fx2.sw
                .isolation_tick(now, &fx2.routing, &mut fx2.links, &mut fx2.metrics);
            fx2.sw
                .congestion_state_tick(now, &fx2.links, &mut fx2.metrics);
            assert!(!fx2.sw.outputs[2].congested, "full-rate CFQ never congests");
            let rel = arbitrate(&mut fx2, now);
            for r in &rel {
                fx2.sw.release_ram(r.port, r.flits);
            }
            fx2.links[2].poll_credits(now);
            // Refill one packet per departure: steady full-rate stream.
            deliver(&mut fx2, now, pkt(next_id, 6));
            now += 32;
            for d in drain(&mut fx2.links[2], now) {
                fx2.links[2].return_credits(now, d.packet.size_flits);
            }
        }
    }

    #[test]
    fn releasing_a_cfq_still_over_high_ends_the_congestion_state() {
        // Low = 0: a CFQ is never "below Low", so it still counts toward
        // its output's over-High total when it is released.
        let thr = SwitchThrottle {
            low_flits: 0,
            ..default_thr(MarkingSource::RootCfq)
        };
        let iso = IsolationParams {
            dealloc_linger_cycles: 16,
            ..IsolationParams::default()
        };
        let mut fx = fixture(QueueingScheme::Isolating, Some(iso), Some(thr));
        for id in 0..9 {
            deliver(&mut fx, 0, pkt(id, 6));
        }
        // Output 2 blocked: the root CFQ is starved and goes over High.
        fx.links[2] = Link::new(LinkConfig::default(), 0);
        let mut now = 0;
        while now < 200 {
            fx.sw
                .isolation_tick(now, &fx.routing, &mut fx.links, &mut fx.metrics);
            fx.sw.congestion_state_tick(now, &fx.links, &mut fx.metrics);
            now += 1;
        }
        assert!(fx.sw.outputs[2].congested);
        // Unblock it; the CFQ drains, lingers and is released.
        fx.links[2] = Link::new(LinkConfig::default(), 1024);
        while fx.sw.cfqs_allocated() > 0 {
            for r in arbitrate(&mut fx, now) {
                fx.sw.release_ram(r.port, r.flits);
            }
            fx.sw
                .isolation_tick(now, &fx.routing, &mut fx.links, &mut fx.metrics);
            fx.sw.congestion_state_tick(now, &fx.links, &mut fx.metrics);
            now += 1;
            assert!(now < 2000, "the CFQ must be released");
        }
        assert_eq!(fx.sw.outputs[2].over_high_count, 0);
        assert!(!fx.sw.outputs[2].congested);
        assert!(fx.sw.is_quiescent());
    }

    #[test]
    fn cfq_deallocates_after_calm_and_notifies_upstream() {
        let iso = IsolationParams {
            dealloc_linger_cycles: 16,
            ..IsolationParams::default()
        };
        let mut fx = fixture(QueueingScheme::Isolating, Some(iso), None);
        for id in 0..9 {
            deliver(&mut fx, 0, pkt(id, 6));
        }
        let mut now = 0u64;
        fx.sw
            .isolation_tick(now, &fx.routing, &mut fx.links, &mut fx.metrics);
        assert_eq!(fx.sw.cfqs_allocated(), 1);
        // Drain completely.
        for _ in 0..9 {
            let rel = arbitrate(&mut fx, now);
            now = rel.first().map(|r| r.at).unwrap_or(now + 32);
            for r in rel {
                fx.sw.release_ram(r.port, r.flits);
            }
            fx.sw
                .isolation_tick(now, &fx.routing, &mut fx.links, &mut fx.metrics);
            fx.links[2].poll_credits(now);
        }
        // Linger, then deallocate.
        for t in 0..40 {
            fx.sw
                .isolation_tick(now + t, &fx.routing, &mut fx.links, &mut fx.metrics);
        }
        assert_eq!(fx.sw.cfqs_allocated(), 0);
        assert_eq!(fx.metrics.counter("cfq_deallocated"), 1);
        // Upstream got the CfqDealloc (after the earlier CfqAlloc).
        let evs = drain_ctrl(&mut fx.links[0], 1 << 30);
        assert!(evs.contains(&CtrlEvent::CfqDealloc { dst: NodeId(6) }));
    }

    #[test]
    fn out_cam_exhaustion_is_counted() {
        let iso = IsolationParams {
            out_cam_lines: 1,
            ..IsolationParams::default()
        };
        let mut fx = fixture(QueueingScheme::Isolating, Some(iso), None);
        fx.links[2].send_ctrl(0, CtrlEvent::CfqAlloc { dst: NodeId(6) });
        fx.links[2].send_ctrl(0, CtrlEvent::CfqAlloc { dst: NodeId(7) });
        fx.sw.poll_output_ctrl(10, &mut fx.links, &mut fx.metrics);
        assert_eq!(fx.metrics.counter("out_cam_exhausted"), 1);
        // Dealloc frees the line for reuse.
        fx.links[2].send_ctrl(20, CtrlEvent::CfqDealloc { dst: NodeId(6) });
        fx.links[2].send_ctrl(21, CtrlEvent::CfqAlloc { dst: NodeId(7) });
        fx.sw.poll_output_ctrl(30, &mut fx.links, &mut fx.metrics);
        assert_eq!(
            fx.metrics.counter("out_cam_exhausted"),
            1,
            "no new exhaustion"
        );
        assert!(fx.sw.outputs[2].cam.lookup(NodeId(7)).is_some());
    }

    // ---- congestion detection's verdict ----
    //
    // A port above the detection threshold names the destination that
    // dominates its unisolated backlog; the events that can change that
    // verdict are rows of the writer table
    // (`every_writer_clears_the_records_it_can_break`).

    /// Isolating fixture with `num_cfqs` CFQs per port and the default
    /// 8-MTU detection threshold. With no CFQ every detection ends in an
    /// exhaustion episode for the dominant destination, which makes the
    /// verdict of each cycle observable.
    fn iso_fixture(num_cfqs: usize) -> Fixture {
        let iso = IsolationParams {
            num_cfqs,
            ..IsolationParams::default()
        };
        fixture(QueueingScheme::Isolating, Some(iso), None)
    }

    fn deliver_n(fx: &mut Fixture, id: &mut u64, n: usize, dst: u32) {
        deliver_n_at(fx, 0, id, n, dst)
    }

    fn deliver_n_at(fx: &mut Fixture, now: Cycle, id: &mut u64, n: usize, dst: u32) {
        for _ in 0..n {
            deliver(fx, now, pkt(*id, dst));
            *id += 1;
        }
    }

    /// Run one post-processing cycle and return the destinations the
    /// stage named this cycle: a root `CfqAlloc`, or an exhaustion
    /// episode open at input 0 (detection site first).
    fn verdicts(fx: &mut Fixture, now: Cycle) -> Vec<u32> {
        let mut m = MetricsCollector::new(UnitModel::default(), 100_000.0);
        m.enable_events(ccfit_metrics::EventConfig::default());
        fx.sw
            .isolation_tick(now, &fx.routing, &mut fx.links, &mut m);
        let allocated = m
            .events()
            .expect("log enabled")
            .iter()
            .filter_map(|e| match e.kind {
                CcEventKind::CfqAlloc {
                    dst, root: true, ..
                } => Some(dst),
                _ => None,
            });
        let exhausted = [true, false].into_iter().flat_map(|root| {
            fx.sw
                .exhausted
                .iter()
                .filter(move |e| e.port == 0 && e.root == root)
                .map(|e| e.dst.0)
        });
        allocated.chain(exhausted).collect()
    }

    #[test]
    fn an_exhausted_port_repeats_its_verdict_every_cycle() {
        let mut fx = iso_fixture(0);
        let mut id = 0;
        deliver_n(&mut fx, &mut id, 6, 6);
        deliver_n(&mut fx, &mut id, 3, 2);
        for now in 0..5 {
            assert_eq!(verdicts(&mut fx, now), vec![6], "cycle {now}");
        }
    }

    #[test]
    fn a_tie_goes_to_the_destination_first_seen_last() {
        // 4 MTUs each, 8 in all: the threshold. Equal maxima in the
        // tally, which is in first-seen order; `max_by_key` keeps the
        // last of them.
        for (first, second) in [(6, 2), (2, 6)] {
            let mut fx = iso_fixture(1);
            let mut id = 0;
            deliver_n(&mut fx, &mut id, 4, first);
            deliver_n(&mut fx, &mut id, 4, second);
            assert_eq!(verdicts(&mut fx, 0), vec![second], "{first} then {second}");
        }
    }

    // ---- isolation fixed points and their invalidation contract ----
    //
    // A visit of input 0 that changes nothing records how long the port
    // stays quiet, and the walk then passes it by: until a write drops
    // the bound, or the earliest clock the visit read comes due. Settled
    // is the bound no clock ends. One case per clock; the writers are
    // rows of the writer table.

    fn iso_tick(fx: &mut Fixture, now: Cycle) {
        fx.sw
            .isolation_tick(now, &fx.routing, &mut fx.links, &mut fx.metrics);
    }

    fn settled(fx: &Fixture) -> bool {
        fx.sw.iso_quiet[0] == Cycle::MAX
    }

    /// The hop downstream of output `out` sends `ev` at `now`; it is
    /// absorbed ten cycles later, the cycle returned.
    fn downstream_says(fx: &mut Fixture, out: usize, now: Cycle, ev: CtrlEvent) -> Cycle {
        fx.links[out].send_ctrl(now, ev);
        fx.sw
            .poll_output_ctrl(now + 10, &mut fx.links, &mut fx.metrics);
        now + 10
    }

    /// Two CFQs per port; `(count, dst)` runs of MTU packets delivered at
    /// `now`, then one visit, which must settle the port.
    fn settle(fx: &mut Fixture, now: Cycle, runs: &[(usize, u32)]) {
        let mut id = 1000 * now;
        for &(n, dst) in runs {
            deliver_n_at(fx, now, &mut id, n, dst);
        }
        iso_tick(fx, now);
        assert!(settled(fx), "fixture: the visit at {now} settles the port");
        assert_eq!(
            fx.sw.quiet_until(0, now, fx.routing.row(fx.sw.id)),
            Some(Cycle::MAX)
        );
    }

    #[test]
    fn a_settled_port_is_passed_by_until_an_input_changes() {
        let mut fx = iso_fixture(2);
        settle(&mut fx, 0, &[(1, 2)]);
        for now in 1..50 {
            iso_tick(&mut fx, now);
            assert!(settled(&fx), "cycle {now}");
        }
        assert_eq!(fx.metrics.counter("congestion_detected"), 0);
        assert_eq!(fx.metrics.counter("packets_isolated"), 0);
        // A BECN head never moves either (§III-B).
        let mut fx = iso_fixture(2);
        let becn = Packet::becn(PacketId(1), NodeId(1), NodeId(6), 0);
        downstream_says(&mut fx, 2, 0, CtrlEvent::CfqAlloc { dst: NodeId(6) });
        deliver(&mut fx, 10, becn);
        iso_tick(&mut fx, 10);
        assert!(settled(&fx), "a control head, CAM line or not");
    }

    /// A port that has never held a CFQ has every slot free, though it
    /// holds none yet: an NFQ over the detection threshold, or a head of
    /// a tree propagated from downstream, makes its next visit act.
    #[test]
    fn a_port_that_never_isolated_is_not_quiet_before_it_must() {
        let mut fx = iso_fixture(2);
        deliver_n_at(&mut fx, 0, &mut 0, 9, 6);
        assert_eq!(
            fx.sw.quiet_until(0, 0, fx.routing.row(fx.sw.id)),
            None,
            "detection allocates a root CFQ"
        );
        let mut fx = iso_fixture(2);
        downstream_says(&mut fx, 2, 0, CtrlEvent::CfqAlloc { dst: NodeId(6) });
        deliver(&mut fx, 10, pkt(1, 6));
        assert_eq!(
            fx.sw.quiet_until(0, 10, fx.routing.row(fx.sw.id)),
            None,
            "the head moves into a new CFQ"
        );
        iso_tick(&mut fx, 10);
        assert_eq!(fx.metrics.counter("packets_isolated"), 1);
    }

    #[test]
    fn an_invisible_head_is_not_settled() {
        let mut fx = iso_fixture(2);
        downstream_says(&mut fx, 2, 0, CtrlEvent::CfqAlloc { dst: NodeId(6) });
        // Its header lands at 50; only then can post-processing see that
        // it belongs to the tree. No event marks that cycle.
        deliver_later(&mut fx, pkt(1, 6), 50);
        for now in 10..50 {
            iso_tick(&mut fx, now);
            assert!(!settled(&fx), "cycle {now}");
            assert_eq!(fx.sw.iso_quiet[0], 50, "quiet until it lands");
            assert_eq!(
                fx.sw.quiet_until(0, now, fx.routing.row(fx.sw.id)),
                Some(50)
            );
        }
        iso_tick(&mut fx, 50);
        assert_eq!(fx.metrics.counter("packets_isolated"), 1);
    }

    #[test]
    fn an_exhausted_port_is_quiet_and_counts_every_cycle() {
        // Detection with no CFQ to allocate: 9 MTUs for dst 6 against the
        // 8-MTU threshold, until the second departure. Between the two the
        // port is settled and the switch parks, and the count still grows
        // by one a cycle.
        let mut fx = iso_fixture(0);
        deliver_n_at(&mut fx, 0, &mut 0, 9, 6);
        assert_eq!(full_tick(&mut fx, 0), 1);
        assert_eq!(full_tick(&mut fx, 1), 0);
        assert!(settled(&fx), "exhausted, with nothing else to do");
        assert_eq!(fx.sw.park_bound(), Some(32), "parked until the input frees");
        let fresh = fx.sw.park_bound_rederived(2, &fx.routing, &fx.links, None);
        assert_eq!(fresh, Some(32));
        for now in 1..32 {
            assert_eq!(cfq_exhausted(&fx, now), now + 1, "cycle {now}");
        }
        assert_eq!(full_tick(&mut fx, 32), 1, "the second departure");
        assert_eq!(cfq_exhausted(&fx, 32), 33);
        full_tick(&mut fx, 33); // 7 MTUs left: below the threshold
        assert!(fx.sw.exhausted.is_empty(), "the episode closed at 33");
        assert_eq!(fx.metrics.counter("cfq_exhausted"), 33, "cycles 0..=32");

        // ... and heads of a propagated tree with no CFQ to move them to.
        let mut fx = iso_fixture(0);
        downstream_says(&mut fx, 2, 0, CtrlEvent::CfqAlloc { dst: NodeId(6) });
        deliver_n_at(&mut fx, 10, &mut 0, 2, 6);
        assert_eq!(full_tick(&mut fx, 10), 1);
        assert_eq!(full_tick(&mut fx, 11), 0);
        assert!(settled(&fx));
        assert_eq!(fx.sw.park_bound(), Some(42));
        assert_eq!(cfq_exhausted(&fx, 41), 32, "cycles 10..=41");
        assert_eq!(full_tick(&mut fx, 42), 1);
        full_tick(&mut fx, 43); // the NFQ is empty: the episode closes ...
        assert_eq!(fx.metrics.counter("cfq_exhausted"), 33, "cycles 10..=42");
        assert!(
            !fx.sw.iso_live.contains(0),
            "... and the port leaves the walk"
        );
        assert!(fx.sw.is_quiescent());
    }

    /// Linger 16 and a dst-6 line on output 2 announced by `ev`: the
    /// packet delivered at 10 is moved into a non-root CFQ, which the
    /// crossbar empties at once; the CFQ is calm from 10.
    fn emptied_cfq_fixture(ev: CtrlEvent) -> Fixture {
        let iso = IsolationParams {
            dealloc_linger_cycles: 16,
            ..IsolationParams::default()
        };
        let mut fx = fixture(QueueingScheme::Isolating, Some(iso), None);
        downstream_says(&mut fx, 2, 0, ev);
        deliver(&mut fx, 10, pkt(1, 6));
        iso_tick(&mut fx, 10);
        let c = fx.sw.inputs[0].queues.cfqs().lookup(NodeId(6)).unwrap();
        let e = fx.sw.pop_queue(0, QueueKey::Cfq(c));
        fx.sw.release_ram(0, e.packet.size_flits);
        fx
    }

    #[test]
    fn a_quiet_cfq_wakes_at_its_linger_deadline() {
        let mut fx = emptied_cfq_fixture(CtrlEvent::CfqAlloc { dst: NodeId(6) });
        iso_tick(&mut fx, 11);
        assert_eq!(fx.sw.iso_quiet[0], 26, "calm since 10, linger 16");
        assert_eq!(fx.sw.park_bound(), Some(26));
        iso_tick(&mut fx, 25);
        assert_eq!(fx.sw.cfqs_allocated(), 1);
        iso_tick(&mut fx, 26);
        assert_eq!(fx.sw.cfqs_allocated(), 0, "released");
    }

    #[test]
    fn a_quiet_root_cfq_wakes_at_its_window_and_entry_deadlines() {
        let thr = SwitchThrottle {
            entry_delay_cycles: 10,
            ..default_thr(MarkingSource::RootCfq)
        };
        let mut fx = fixture(
            QueueingScheme::Isolating,
            Some(IsolationParams::default()),
            Some(thr),
        );
        // Nothing drains: the root CFQ is starved once a window measures it.
        fx.links[2] = Link::new(LinkConfig::default(), 0);
        deliver_n_at(&mut fx, 0, &mut 0, 9, 6);
        let mut entered = None;
        for now in 0..100 {
            iso_tick(&mut fx, now);
            fx.sw.congestion_state_tick(now, &fx.links, &mut fx.metrics);
            match now {
                3..=63 => assert_eq!(fx.sw.iso_quiet[0], 64, "window end"),
                65..=73 => assert_eq!(fx.sw.iso_quiet[0], 74, "entry delay"),
                _ => {}
            }
            if fx.sw.outputs[2].congested {
                entered.get_or_insert(now);
            }
        }
        assert_eq!(entered, Some(74), "starved and over High since 64");
    }

    #[test]
    fn a_cfqs_life_parked_matches_its_life_ticked() {
        // Root allocation, the moves once the dst-2 head has left, the
        // drain, the linger and the release — ticked on every cycle with
        // nothing memoised, and ticked only on the cycles the park rule
        // keeps the switch on the work-list: quiet between its events,
        // the CFQ's port lets the switch sit out most of them.
        let run = |parked: bool| {
            let iso = IsolationParams {
                dealloc_linger_cycles: 16,
                ..IsolationParams::default()
            };
            let mut fx = fixture(QueueingScheme::Isolating, Some(iso), None);
            let mut id = 0;
            deliver_n_at(&mut fx, 0, &mut id, 1, 2);
            deliver_n_at(&mut fx, 0, &mut id, 8, 6);
            let (mut now, mut ticks, mut sent) = (0, 0, Vec::new());
            loop {
                if !parked {
                    fx.sw.drop_memos();
                }
                iso_tick(&mut fx, now);
                for r in arbitrate(&mut fx, now) {
                    fx.sw.release_ram(r.port, r.flits);
                    sent.push((now, r.dst));
                }
                ticks += 1;
                if fx.metrics.counter("cfq_deallocated") > 0 {
                    break;
                }
                now = match fx.sw.park_bound() {
                    Some(until) if parked && until > now + 1 => until,
                    _ => now + 1,
                };
                assert!(now < 2000, "the CFQ must be released");
            }
            assert_eq!(fx.metrics.counter("packets_isolated"), 8);
            let upstream = drain_ctrl(&mut fx.links[0], 1 << 30);
            (now, sent, upstream, ticks)
        };
        let (released, sent, upstream, ticks) = run(false);
        let (parked_released, parked_sent, parked_upstream, parked_ticks) = run(true);
        assert_eq!(
            (parked_released, parked_sent, parked_upstream),
            (released, sent, upstream)
        );
        assert!(
            parked_ticks * 4 < ticks,
            "{parked_ticks} of {ticks} cycles ticked"
        );
    }

    // ---- the arbitration idle bound ----
    //
    // A gather that finds no candidate leaves a bound behind; while it
    // holds, `arbitrate_and_transmit` returns without gathering. One case
    // per clock and per credit input of the bound; the writers that clear
    // it are rows of the writer table.

    fn arbitrate(fx: &mut Fixture, now: Cycle) -> Vec<PendingRelease> {
        let mut rel = Vec::new();
        let (routing, links) = (&fx.routing, &mut fx.links);
        fx.sw
            .arbitrate_and_transmit(now, routing, links, None, &mut fx.metrics, &mut rel);
        rel
    }

    fn idle_holds(fx: &Fixture, now: Cycle) -> bool {
        fx.sw.idle_bound_holds(now, &fx.links)
    }

    /// Deliver a packet whose header only arrives at `visible_at`.
    fn deliver_later(fx: &mut Fixture, p: Packet, visible_at: Cycle) {
        fx.sw.accept_delivery(
            0,
            Delivery {
                packet: p,
                visible_at,
                ready_at: visible_at + Cycle::from(p.size_flits),
            },
            &fx.routing,
        );
    }

    /// An isolating switch holding one dst-6 packet in a CFQ that the
    /// downstream hop has stopped: nothing can leave until a Go arrives
    /// or the CAM line is dropped.
    fn stopped_cfq_fixture() -> Fixture {
        let mut fx = iso_fixture(2);
        fx.links[2].send_ctrl(0, CtrlEvent::CfqAlloc { dst: NodeId(6) });
        fx.links[2].send_ctrl(0, CtrlEvent::Stop { dst: NodeId(6) });
        fx.sw.poll_output_ctrl(10, &mut fx.links, &mut fx.metrics);
        deliver(&mut fx, 10, pkt(1, 6));
        fx.sw
            .isolation_tick(10, &fx.routing, &mut fx.links, &mut fx.metrics);
        assert!(arbitrate(&mut fx, 10).is_empty());
        assert_eq!(
            fx.sw.arb.idle.until(),
            Cycle::MAX,
            "nothing the clock clears"
        );
        assert!(idle_holds(&fx, 1 << 40));
        fx
    }

    #[test]
    fn idle_bound_is_the_earliest_time_blocker() {
        let mut fx = fixture(QueueingScheme::PerOutput, None, None);
        fx.sw.cfg.crossbar_bw_flits_per_cycle = 2;
        // Head visibility.
        deliver_later(&mut fx, pkt(1, 2), 50);
        deliver_later(&mut fx, pkt(2, 2), 50);
        deliver_later(&mut fx, pkt(3, 6), 90);
        assert!(arbitrate(&mut fx, 0).is_empty());
        assert_eq!(fx.sw.arb.idle.until(), 50);
        assert!(idle_holds(&fx, 49));
        assert!(!idle_holds(&fx, 50));
        assert_eq!(arbitrate(&mut fx, 50).len(), 1);
        assert!(
            !idle_holds(&fx, 50),
            "a gather with a candidate leaves no bound"
        );
        // Input busy: the tail of packet 1 lands at 82.
        assert!(arbitrate(&mut fx, 51).is_empty());
        assert_eq!(fx.sw.arb.idle.until(), 82);
        // Input free again, output 1 still serializing packet 1 (sent at
        // 50, 32 flits at 1 flit/cycle).
        fx.sw.inputs[0].busy_until = 60;
        assert!(arbitrate(&mut fx, 60).is_empty());
        assert_eq!(fx.sw.arb.idle.until(), 82, "tx_free_at of output 1");
        assert!(idle_holds(&fx, 81));
        assert_eq!(arbitrate(&mut fx, 82).len(), 1);
    }

    #[test]
    fn a_credit_return_wakes_a_credit_blocked_head() {
        let mut fx = fixture(QueueingScheme::PerOutput, None, None);
        fx.links[1] = Link::new(LinkConfig::default(), 0);
        deliver(&mut fx, 0, pkt(1, 2));
        assert!(arbitrate(&mut fx, 0).is_empty());
        assert_eq!(fx.sw.arb.idle.until(), Cycle::MAX);
        assert!(fx.sw.arb.watched.contains(1));
        assert!(idle_holds(&fx, 1 << 40), "only credits can wake it");
        fx.links[1].return_credits(5, MTU);
        assert!(idle_holds(&fx, 6), "credits still on the wire");
        fx.links[1].poll_credits(6);
        assert!(!idle_holds(&fx, 6));
        assert_eq!(arbitrate(&mut fx, 6).len(), 1);
    }

    #[test]
    fn voqnet_credits_and_downed_links_leave_no_bound() {
        let mut fx = fixture(QueueingScheme::PerDest, None, None);
        let mut vn = VoqNetCredits::new(3, 8, MTU);
        vn.set(1, 2, 0);
        deliver(&mut fx, 0, pkt(1, 2));
        let arb = |fx: &mut Fixture, vn: &mut VoqNetCredits, now| {
            let mut rel = Vec::new();
            let (routing, links) = (&fx.routing, &mut fx.links);
            fx.sw
                .arbitrate_and_transmit(now, routing, links, Some(vn), &mut fx.metrics, &mut rel);
            rel
        };
        assert!(arb(&mut fx, &mut vn, 0).is_empty());
        assert!(!idle_holds(&fx, 1), "per-destination credits: re-scan");
        vn.add(1, 2, MTU);
        assert_eq!(arb(&mut fx, &mut vn, 1).len(), 1);

        let mut fx = fixture(QueueingScheme::PerDest, None, None);
        fx.links[1].fail();
        deliver(&mut fx, 0, pkt(1, 2));
        assert!(arbitrate(&mut fx, 0).is_empty());
        assert!(!idle_holds(&fx, 1), "downed link: re-scan");
        fx.links[1].restore(1024);
        assert_eq!(arbitrate(&mut fx, 1).len(), 1);
    }

    // ---- the park rule: one case per clause of `park_bound` ----
    //
    // `Some(until)` takes the switch off the work-list until `until`, so
    // each clause is shown denying on its own: with it deleted, the case
    // would park a switch that still has a cycle's work to do.

    /// Every stage in turn, the way the engine calls them.
    fn full_tick(fx: &mut Fixture, now: Cycle) -> usize {
        iso_tick(fx, now);
        fx.sw.congestion_state_tick(now, &fx.links, &mut fx.metrics);
        arbitrate(fx, now).len()
    }

    #[test]
    fn a_switch_holding_nothing_parks_until_an_activation() {
        for mut fx in [
            fixture(QueueingScheme::PerOutput, None, None),
            iso_fixture(2),
        ] {
            assert_eq!(fx.sw.park_bound(), Some(Cycle::MAX));
            deliver(&mut fx, 0, pkt(1, 2));
            assert_eq!(fx.sw.park_bound(), None, "a delivery: nothing proved yet");
            assert_eq!(full_tick(&mut fx, 0), 1);
            assert_eq!(fx.sw.park_bound(), Some(Cycle::MAX), "forwarded and empty");
        }
    }

    #[test]
    fn a_blocked_switch_parks_until_its_idle_bound_expires() {
        for mut fx in [
            fixture(QueueingScheme::PerOutput, None, None),
            iso_fixture(2),
        ] {
            deliver(&mut fx, 0, pkt(1, 2));
            deliver(&mut fx, 0, pkt(2, 2));
            assert_eq!(full_tick(&mut fx, 0), 1);
            assert_eq!(
                fx.sw.park_bound(),
                None,
                "a gather that sent proves nothing"
            );
            assert_eq!(full_tick(&mut fx, 1), 0);
            assert_eq!(
                fx.sw.park_bound(),
                Some(32),
                "input and output busy until 32"
            );
            // The re-derivation the engine's invariant makes agrees, on
            // every cycle the switch would sit out.
            for now in [2, 31] {
                let fresh = fx
                    .sw
                    .park_bound_rederived(now, &fx.routing, &fx.links, None);
                assert_eq!(fresh, Some(32), "cycle {now}");
            }
            // An event that can free a head ends the bound early.
            deliver(&mut fx, 5, pkt(3, 6));
            assert_eq!(fx.sw.park_bound(), None, "a delivery clears the bound");
            assert_eq!(full_tick(&mut fx, 5), 0, "the input is still busy");
            assert_eq!(fx.sw.park_bound(), Some(32));
            assert_eq!(full_tick(&mut fx, 32), 1);
        }
    }

    #[test]
    fn a_credit_watched_output_forbids_parking() {
        let mut fx = fixture(QueueingScheme::PerOutput, None, None);
        fx.links[1] = Link::new(LinkConfig::default(), 0);
        deliver(&mut fx, 0, pkt(1, 2));
        assert_eq!(full_tick(&mut fx, 0), 0);
        assert!(idle_holds(&fx, 1), "the arbiter itself may skip");
        assert_eq!(
            fx.sw.park_bound(),
            None,
            "credits return without activating the switch"
        );
        let fresh = fx.sw.park_bound_rederived(1, &fx.routing, &fx.links, None);
        assert_eq!(fresh, None);
    }

    #[test]
    fn a_port_awaiting_a_header_parks_until_it_lands() {
        let mut fx = iso_fixture(2);
        deliver_later(&mut fx, pkt(1, 2), 50);
        assert_eq!(full_tick(&mut fx, 0), 0);
        assert!(idle_holds(&fx, 49), "the arbiter waits for the header");
        assert_eq!(fx.sw.iso_quiet[0], 50, "so does the isolation stage");
        assert_eq!(fx.sw.park_bound(), Some(50));
        let fresh = fx.sw.park_bound_rederived(1, &fx.routing, &fx.links, None);
        assert_eq!(fresh, Some(50));
        // Until a visit proves it quiet, a port forbids parking.
        deliver(&mut fx, 1, pkt(2, 2));
        assert_eq!(fx.sw.park_bound(), None);
    }

    #[test]
    fn a_cfq_parks_its_switch_until_its_next_deadline() {
        // One packet in a CFQ stopped downstream: nothing moves until a
        // Go, and the only clock is the linger of a CFQ below the
        // propagation threshold, calm since its allocation at 10.
        let mut fx = stopped_cfq_fixture();
        assert_eq!(fx.sw.cfqs_allocated(), 1);
        assert_eq!(
            fx.sw.park_bound(),
            None,
            "the allocating visit proves nothing"
        );
        assert_eq!(full_tick(&mut fx, 11), 0);
        let due = 10 + IsolationParams::default().dealloc_linger_cycles;
        assert_eq!(fx.sw.park_bound(), Some(due));
        let fresh = fx.sw.park_bound_rederived(12, &fx.routing, &fx.links, None);
        assert_eq!(fresh, Some(due));
    }

    #[test]
    fn voq_marking_forbids_parking_only_where_the_state_can_flip() {
        let thr = default_thr(MarkingSource::VoqOccupancy);
        let mut fx = fixture(QueueingScheme::PerOutput, None, Some(thr));
        fx.links[2] = Link::new(LinkConfig::default(), MTU + 8);
        // One packet leaves and takes the credits with it; four more make
        // 4 MTUs toward output 2 = High. Without credits the output is not
        // a root yet — it becomes one the cycle credits return, and no
        // activation comes with them.
        deliver(&mut fx, 0, pkt(0, 6));
        assert_eq!(full_tick(&mut fx, 0), 1);
        for id in 1..5 {
            deliver(&mut fx, 1, pkt(id, 6));
        }
        assert_eq!(full_tick(&mut fx, 1), 0);
        assert_eq!(fx.sw.voq_occ[2], thr.high_flits);
        assert!(!fx.sw.outputs[2].congested);
        assert_eq!(fx.sw.arb.idle.current(), Some(32));
        assert!(
            fx.sw.arb.watched.is_empty(),
            "the input is busy: no head looked at"
        );
        assert_eq!(fx.sw.park_bound(), None);
        fx.links[2].return_credits(4, MTU);
        fx.links[2].poll_credits(5);
        assert_eq!(full_tick(&mut fx, 5), 0);
        assert!(fx.sw.outputs[2].congested, "entered with the credits");

        // Congested, the output leaves only at Low, and above Low only a
        // delivery (an activation) or the switch's own pop moves its
        // backlog: it parks at High and between Low and High, and not the
        // cycle a pop brought it to Low, before the arm has seen it.
        let mut fx = fixture(QueueingScheme::PerOutput, None, Some(thr));
        let rederived =
            |fx: &Fixture, now| (fx.sw).park_bound_rederived(now, &fx.routing, &fx.links, None);
        for id in 0..5 {
            deliver(&mut fx, 0, pkt(id, 6));
        }
        assert_eq!(full_tick(&mut fx, 0), 1);
        assert!(fx.sw.outputs[2].congested);
        assert_eq!(full_tick(&mut fx, 1), 0);
        assert_eq!(fx.sw.voq_occ[2], thr.high_flits);
        assert_eq!(fx.sw.park_bound(), Some(32), "congested at High");
        assert_eq!(rederived(&fx, 2), Some(32));
        assert_eq!(full_tick(&mut fx, 32), 1);
        assert_eq!(full_tick(&mut fx, 33), 0);
        assert!(fx.sw.voq_occ[2] < thr.high_flits && fx.sw.voq_occ[2] > thr.low_flits);
        assert!(fx.sw.outputs[2].congested);
        assert_eq!(
            fx.sw.park_bound(),
            Some(64),
            "congested between Low and High"
        );
        assert_eq!(rederived(&fx, 34), Some(64));
        assert_eq!(full_tick(&mut fx, 64), 1);
        assert_eq!(fx.sw.voq_occ[2], thr.low_flits);
        assert!(fx.sw.outputs[2].congested, "the arm ran before the pop");
        assert_eq!(fx.sw.park_bound(), None, "a leave is due");
        assert_eq!(rederived(&fx, 65), None);
        assert_eq!(full_tick(&mut fx, 65), 0);
        assert!(!fx.sw.outputs[2].congested, "left at Low");
        assert_eq!(fx.sw.park_bound(), Some(96));
    }

    #[test]
    fn a_pending_congestion_state_update_forbids_parking() {
        let mut fx = fixture(
            QueueingScheme::Isolating,
            Some(IsolationParams::default()),
            Some(default_thr(MarkingSource::RootCfq)),
        );
        deliver(&mut fx, 0, pkt(1, 2));
        deliver(&mut fx, 0, pkt(2, 2));
        assert_eq!(full_tick(&mut fx, 0), 1);
        assert_eq!(full_tick(&mut fx, 1), 0);
        assert_eq!(fx.sw.park_bound(), Some(32));
        fx.sw.over_high_dirty = true; // an over-High count moved
        assert_eq!(fx.sw.park_bound(), None);
    }

    // ---- the writer table: who clears what ----
    //
    // Two records let a scan be skipped while nothing it read has
    // changed: input 0's quiet bound (`QUIET`) and the arbiter's idle
    // bound (`ARBITER`). One row per
    // writer of what they read: a switch in which the records the write
    // can break stand, the write, the records left standing, and — where
    // a stale record would lose an action — that action, the wrong result
    // a release build would report (in a debug build the skip's own
    // re-derivation fires first). The last rows absorb control that
    // changes nothing a scan read, and must leave every record standing.

    const QUIET: u8 = 1;
    const ARBITER: u8 = 2;
    const ALL: u8 = QUIET | ARBITER;

    /// The records standing at `now`.
    fn records(fx: &Fixture, now: Cycle) -> u8 {
        [
            (QUIET, now < fx.sw.iso_quiet[0]),
            (ARBITER, idle_holds(fx, now)),
        ]
        .into_iter()
        .filter_map(|(record, stands)| stands.then_some(record))
        .sum()
    }

    struct Writer {
        name: &'static str,
        /// A switch, and the cycle at which the records `primed` stand.
        setup: fn() -> (Fixture, Cycle),
        primed: u8,
        /// The write, from the setup's cycle; returns the cycle it ends.
        write: fn(&mut Fixture, Cycle) -> Cycle,
        /// The records standing once it is done.
        left: u8,
        /// The action a stale record would lose, if any.
        then: fn(&mut Fixture, Cycle),
    }

    /// Every output blocked for want of credits; 10 × dst 6 and
    /// 9 × dst 5 in the NFQ and no CFQ: dst 6 is found congested, and
    /// exhausts the site, every visit.
    fn exhausted_port() -> (Fixture, Cycle) {
        let mut fx = iso_fixture(0);
        for out in [1, 2] {
            fx.links[out] = Link::new(LinkConfig::default(), 0);
        }
        deliver_n_at(&mut fx, 0, &mut 0, 10, 6);
        deliver_n_at(&mut fx, 0, &mut 10, 9, 5);
        assert_eq!(verdicts(&mut fx, 0), vec![6]);
        assert!(arbitrate(&mut fx, 0).is_empty());
        (fx, 1)
    }

    /// One CFQ and one output-CAM line. Output 2's line for dst 6 is
    /// announced by `line`; a dst-6 packet sits in its non-root CFQ, and
    /// 8 × dst 2 in the NFQ exhaust detection behind it. Output 1 has no
    /// credits, output 2 `out2_credits`: nothing leaves.
    fn cfq_on_a_line(line: CtrlEvent, out2_credits: u32) -> (Fixture, Cycle) {
        let iso = IsolationParams {
            num_cfqs: 1,
            out_cam_lines: 1,
            ..IsolationParams::default()
        };
        let mut fx = fixture(QueueingScheme::Isolating, Some(iso), None);
        fx.links[1] = Link::new(LinkConfig::default(), 0);
        fx.links[2] = Link::new(LinkConfig::default(), out2_credits);
        downstream_says(&mut fx, 2, 0, line);
        deliver(&mut fx, 10, pkt(0, 6));
        iso_tick(&mut fx, 10);
        assert_eq!(fx.metrics.counter("packets_isolated"), 1);
        deliver_n_at(&mut fx, 10, &mut 1, 8, 2);
        assert!(arbitrate(&mut fx, 10).is_empty());
        iso_tick(&mut fx, 11);
        (fx, 11)
    }

    fn stopped_line() -> (Fixture, Cycle) {
        cfq_on_a_line(CtrlEvent::Stop { dst: NodeId(6) }, 1024)
    }

    fn running_line() -> (Fixture, Cycle) {
        cfq_on_a_line(CtrlEvent::CfqAlloc { dst: NodeId(6) }, 0)
    }

    /// The packet for dst 6 leaves, alone.
    fn dst6_leaves(fx: &mut Fixture, now: Cycle) {
        let rel = arbitrate(fx, now);
        assert_eq!(rel.iter().map(|r| r.dst.0).collect::<Vec<_>>(), [6]);
    }

    fn writers() -> Vec<Writer> {
        vec![
            Writer {
                name: "a delivery (VOQsw)",
                setup: || {
                    let mut fx = fixture(QueueingScheme::PerOutput, None, None);
                    deliver_later(&mut fx, pkt(1, 2), 1000);
                    assert!(arbitrate(&mut fx, 0).is_empty());
                    (fx, 1)
                },
                primed: ARBITER,
                write: |fx, now| {
                    deliver(fx, now, pkt(2, 6));
                    now
                },
                left: 0,
                then: dst6_leaves,
            },
            Writer {
                name: "a delivery (isolating)",
                setup: exhausted_port,
                primed: ALL,
                write: |fx, now| {
                    deliver_n_at(fx, now, &mut 100, 2, 5);
                    now
                },
                left: 0,
                then: |fx, now| assert_eq!(verdicts(fx, now), vec![5], "11 MTUs to 10"),
            },
            Writer {
                name: "an NFQ departure",
                setup: || {
                    let mut fx = iso_fixture(0);
                    deliver_n_at(&mut fx, 0, &mut 0, 6, 6);
                    deliver_n_at(&mut fx, 0, &mut 6, 5, 2);
                    assert_eq!(verdicts(&mut fx, 0), vec![6]);
                    (fx, 0)
                },
                primed: QUIET,
                write: |fx, now| {
                    let first = arbitrate(fx, now)[0].at;
                    assert_eq!(arbitrate(fx, first)[0].dst, NodeId(6));
                    first
                },
                left: 0,
                then: |fx, now| assert_eq!(verdicts(fx, now), vec![2], "4 MTUs to 5"),
            },
            Writer {
                name: "a CFQ departure",
                setup: || {
                    // A propagated tree fills a CFQ to Stop; above the
                    // propagation threshold no clock runs.
                    let mut fx = iso_fixture(2);
                    fx.links[2] = Link::new(LinkConfig::default(), 0);
                    downstream_says(&mut fx, 2, 0, CtrlEvent::CfqAlloc { dst: NodeId(6) });
                    deliver_n_at(&mut fx, 10, &mut 0, 10, 6);
                    for now in 10..20 {
                        iso_tick(&mut fx, now);
                    }
                    assert_eq!(fx.metrics.counter("stops_sent"), 1);
                    assert!(arbitrate(&mut fx, 20).is_empty());
                    (fx, 20)
                },
                primed: ALL,
                write: |fx, now| {
                    // Six departures take it down to Go.
                    let c = fx.sw.inputs[0].queues.cfqs().lookup(NodeId(6)).unwrap();
                    for _ in 0..6 {
                        let e = fx.sw.pop_queue(0, QueueKey::Cfq(c));
                        fx.sw.release_ram(0, e.packet.size_flits);
                    }
                    now
                },
                left: 0,
                then: |fx, now| {
                    iso_tick(fx, now);
                    assert_eq!(fx.metrics.counter("gos_sent"), 1);
                },
            },
            Writer {
                name: "a root CFQ allocation",
                setup: || {
                    // A dst-2 head, blocked for credits, keeps the
                    // visit from moving anything.
                    let mut fx = iso_fixture(1);
                    fx.links[1] = Link::new(LinkConfig::default(), 0);
                    deliver_n_at(&mut fx, 0, &mut 0, 1, 2);
                    deliver_n_at(&mut fx, 0, &mut 1, 9, 6);
                    deliver_n_at(&mut fx, 0, &mut 10, 2, 2);
                    assert!(arbitrate(&mut fx, 0).is_empty());
                    (fx, 0)
                },
                primed: ARBITER,
                write: |fx, now| {
                    iso_tick(fx, now);
                    assert_eq!(fx.sw.cfqs_allocated(), 1);
                    now
                },
                left: 0,
                then: |fx, now| {
                    // dst 6 is isolated now: 3 unisolated MTUs are below
                    // the threshold.
                    assert_eq!(verdicts(fx, now + 1), Vec::<u32>::new());
                },
            },
            Writer {
                name: "the NFQ -> CFQ moves",
                setup: || {
                    // A propagated tree's CFQ drains and lingers, empty;
                    // the next dst-6 packets wait in the NFQ for their
                    // move and must not bypass it.
                    let mut fx = iso_fixture(2);
                    downstream_says(&mut fx, 2, 0, CtrlEvent::CfqAlloc { dst: NodeId(6) });
                    deliver(&mut fx, 10, pkt(0, 6));
                    iso_tick(&mut fx, 10);
                    assert_eq!(arbitrate(&mut fx, 10).len(), 1, "the CFQ drains");
                    deliver_n_at(&mut fx, 50, &mut 1, 9, 6);
                    assert!(arbitrate(&mut fx, 50).is_empty());
                    (fx, 50)
                },
                primed: ARBITER,
                write: |fx, now| {
                    iso_tick(fx, now);
                    assert_eq!(fx.metrics.counter("packets_isolated"), 5);
                    now
                },
                left: 0,
                then: dst6_leaves,
            },
            Writer {
                name: "a CFQ release",
                setup: || {
                    // No moves: the empty root CFQ lingers two cycles
                    // and parks the dst-6 head awaiting its move.
                    let iso = IsolationParams {
                        num_cfqs: 1,
                        dealloc_linger_cycles: 2,
                        ..IsolationParams::default()
                    };
                    let mut fx = fixture(QueueingScheme::Isolating, Some(iso), None);
                    fx.sw.cfg.move_budget = 0;
                    deliver_n_at(&mut fx, 0, &mut 0, 9, 6);
                    iso_tick(&mut fx, 0);
                    assert!(arbitrate(&mut fx, 0).is_empty(), "head awaits its move");
                    iso_tick(&mut fx, 1);
                    (fx, 1)
                },
                primed: ALL,
                write: |fx, now| {
                    iso_tick(fx, now + 1);
                    assert_eq!(fx.sw.cfqs_allocated(), 0);
                    now + 1
                },
                left: 0,
                then: dst6_leaves,
            },
            Writer {
                name: "an output-CAM line announced by CfqAlloc",
                setup: exhausted_port,
                primed: ALL,
                write: |fx, now| {
                    downstream_says(fx, 2, now, CtrlEvent::CfqAlloc { dst: NodeId(6) })
                },
                left: 0,
                then: |fx, now| {
                    // dst 6 is matched: detection names dst 5, and the
                    // dst-6 head exhausts the move site.
                    assert_eq!(verdicts(fx, now), vec![5, 6]);
                },
            },
            Writer {
                name: "an output-CAM line announced by Stop",
                setup: exhausted_port,
                primed: ALL,
                write: |fx, now| downstream_says(fx, 2, now, CtrlEvent::Stop { dst: NodeId(6) }),
                left: 0,
                then: |fx, now| {
                    // dst 6 is matched: detection names dst 5, and the
                    // dst-6 head exhausts the move site.
                    assert_eq!(verdicts(fx, now), vec![5, 6]);
                },
            },
            Writer {
                name: "an output-CAM line freed by CfqDealloc",
                setup: stopped_line,
                primed: ALL,
                write: |fx, now| {
                    downstream_says(fx, 2, now, CtrlEvent::CfqDealloc { dst: NodeId(6) })
                },
                left: 0,
                then: dst6_leaves,
            },
            Writer {
                name: "a Go for a stopped line",
                setup: stopped_line,
                primed: ALL,
                write: |fx, now| downstream_says(fx, 2, now, CtrlEvent::Go { dst: NodeId(6) }),
                left: 0,
                then: dst6_leaves,
            },
            Writer {
                name: "a Stop for a running line",
                setup: running_line,
                primed: ALL,
                write: |fx, now| downstream_says(fx, 2, now, CtrlEvent::Stop { dst: NodeId(6) }),
                left: 0,
                then: |_, _| {},
            },
            Writer {
                name: "clearing an output CAM (fault)",
                setup: stopped_line,
                primed: ALL,
                write: |fx, now| {
                    fx.sw.clear_output_cam(2);
                    now
                },
                left: 0,
                then: dst6_leaves,
            },
            Writer {
                name: "a re-route",
                setup: stopped_line,
                primed: ALL,
                write: |fx, now| {
                    // dst 2 moves to output 2, which has credits.
                    let to = |d: usize| PortId(if d < 2 || d == 3 { 1 } else { 2 });
                    fx.routing = RoutingTable::from_rows(8, (0..8).map(to).collect());
                    fx.sw.on_routing_changed(&fx.routing);
                    now
                },
                left: 0,
                then: |fx, now| assert_eq!(arbitrate(fx, now)[0].dst, NodeId(2)),
            },
            Writer {
                name: "a purge of unreachable destinations",
                setup: exhausted_port,
                primed: ALL,
                write: |fx, now| {
                    let mut purged = Vec::new();
                    fx.sw.purge_unreachable(&|d| d == NodeId(6), &mut purged);
                    assert_eq!(purged.len(), 10);
                    now
                },
                left: 0,
                then: |fx, now| assert_eq!(verdicts(fx, now), vec![5]),
            },
            Writer {
                name: "a purge that finds nothing",
                setup: exhausted_port,
                primed: ALL,
                write: |fx, now| {
                    fx.sw.purge_unreachable(&|_| false, &mut Vec::new());
                    now
                },
                left: 0,
                then: |_, _| {},
            },
            Writer {
                name: "the whole-switch purge",
                setup: exhausted_port,
                primed: ALL,
                write: |fx, now| {
                    fx.sw.purge_all();
                    now
                },
                left: 0,
                then: |_, _| {},
            },
            Writer {
                name: "resetting the upstream notification flags",
                setup: stopped_line,
                primed: ALL,
                write: |fx, now| {
                    fx.sw.reset_upstream_ctrl_flags(0);
                    now
                },
                left: 0,
                then: |_, _| {},
            },
            Writer {
                name: "a Stop for a stopped line (no change)",
                setup: stopped_line,
                primed: ALL,
                write: |fx, now| downstream_says(fx, 2, now, CtrlEvent::Stop { dst: NodeId(6) }),
                left: ALL,
                then: |_, _| {},
            },
            Writer {
                name: "a Go for a running line (no change)",
                setup: running_line,
                primed: ALL,
                write: |fx, now| downstream_says(fx, 2, now, CtrlEvent::Go { dst: NodeId(6) }),
                left: ALL,
                then: |_, _| {},
            },
            Writer {
                name: "a CfqAlloc for a line that exists (no change)",
                setup: running_line,
                primed: ALL,
                write: |fx, now| {
                    downstream_says(fx, 2, now, CtrlEvent::CfqAlloc { dst: NodeId(6) })
                },
                left: ALL,
                then: |_, _| {},
            },
            Writer {
                name: "a CfqAlloc the full CAM cannot hold (no change)",
                setup: running_line,
                primed: ALL,
                write: |fx, now| {
                    downstream_says(fx, 2, now, CtrlEvent::CfqAlloc { dst: NodeId(7) })
                },
                left: ALL,
                then: |fx, _| assert_eq!(fx.metrics.counter("out_cam_exhausted"), 1),
            },
        ]
    }

    /// Runs every row, so a missing call names all the rows it breaks.
    #[test]
    fn every_writer_clears_the_records_it_can_break() {
        let failed: Vec<_> = writers()
            .into_iter()
            .filter(|w| {
                std::panic::catch_unwind(|| {
                    let (mut fx, now) = (w.setup)();
                    assert_eq!(records(&fx, now), w.primed, "{}: primed", w.name);
                    let now = (w.write)(&mut fx, now);
                    assert_eq!(records(&fx, now), w.left, "{}: left", w.name);
                    (w.then)(&mut fx, now);
                })
                .is_err()
            })
            .map(|w| w.name)
            .collect();
        assert!(failed.is_empty(), "rows failed: {failed:?}");
    }
}

/// The occupancy-driven tick against the exhaustive one it replaced.
#[cfg(test)]
mod twin_tests {
    use super::*;
    use ccfit_engine::ids::{FlowId, PacketId, PortId};
    use ccfit_engine::link::LinkConfig;
    use ccfit_engine::packet::Packet;
    use ccfit_engine::rng::SeedSplitter;
    use ccfit_engine::units::UnitModel;
    use ccfit_metrics::MetricsCollector;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    const PORTS: usize = 5;
    const DESTS: usize = 10;
    const MTU: u32 = 8;
    /// Credits an output link starts with (and regains on a restore).
    const OUT_CREDITS: u32 = 3 * MTU;
    /// Per-destination VOQnet credits: two MTU packets.
    const VN_CREDITS: u32 = 2 * MTU;
    /// Per-destination VOQnet queue reservation: three MTU packets.
    const VN_QUEUE_FLITS: u32 = 3 * MTU;

    /// The switch shapes under test: every queueing scheme, the marking
    /// sources and modern-CC modes that read the VOQ occupancy counters,
    /// with and without VOQnet per-destination credits.
    fn shape(i: usize) -> (SwitchCfg, bool) {
        let thr = |source| SwitchThrottle {
            marking_rate: 0.5,
            packet_size_threshold_bytes: 0,
            high_flits: 2 * MTU,
            low_flits: MTU,
            entry_delay_cycles: 2,
            starvation_window_cycles: 16,
            source,
        };
        let iso = IsolationParams {
            detect_threshold_mtus: 3,
            propagate_threshold_mtus: 1,
            stop_mtus: 3,
            go_mtus: 1,
            dealloc_linger_cycles: 12,
            out_cam_lines: 2,
            ..IsolationParams::default()
        };
        let ecn = SwitchCcMode::Ecn {
            kmin_flits: MTU,
            kmax_flits: 4 * MTU,
            pmax: 0.5,
        };
        let (scheme, iso, thr, cc, voqnet) = [
            (QueueingScheme::Single, None, None, None, false),
            (
                QueueingScheme::PerOutput,
                None,
                Some(thr(MarkingSource::VoqOccupancy)),
                None,
                false,
            ),
            (QueueingScheme::PerOutput, None, None, Some(ecn), true),
            (
                QueueingScheme::PerOutput,
                None,
                None,
                Some(SwitchCcMode::Int { window_cycles: 16 }),
                false,
            ),
            (QueueingScheme::PerDest, None, None, None, false),
            (QueueingScheme::PerDest, None, None, None, true),
            (QueueingScheme::Isolating, Some(iso), None, None, false),
            (
                QueueingScheme::Isolating,
                Some(iso),
                Some(thr(MarkingSource::RootCfq)),
                None,
                false,
            ),
            (
                QueueingScheme::Isolating,
                Some(iso),
                Some(thr(MarkingSource::RootCfq)),
                None,
                true,
            ),
        ][i];
        let cfg = SwitchCfg {
            scheme,
            iso,
            thr,
            mtu_flits: MTU,
            ram_flits: if scheme == QueueingScheme::PerDest {
                VN_QUEUE_FLITS * DESTS as u32
            } else {
                24 * MTU
            },
            crossbar_bw_flits_per_cycle: 2,
            islip_iterations: 2,
            move_budget: 2,
            cc,
        };
        (cfg, voqnet)
    }
    const SHAPES: usize = 9;

    /// Everything a cycle of the switch shows the outside world.
    #[derive(Debug, Default, PartialEq)]
    struct Observed {
        /// `(output, packet id, fecn, ecn, int_u bits, int_hops)` in the
        /// order the packets reached the far end of the output links.
        sent: Vec<(usize, u64, bool, bool, u32, u8)>,
        /// `(at, port, flits, dst)` of every `PendingRelease`.
        releases: Vec<(Cycle, usize, u32, u32)>,
        /// Control events sent upstream, per input port.
        upstream: Vec<(usize, CtrlEvent)>,
    }

    /// A 5-port switch (input link `p` and output link `PORTS + p` at
    /// port `p`), the far ends of its links, and the release bookkeeping
    /// the simulator would do.
    struct Rig {
        sw: Switch,
        links: Vec<Link>,
        routes: [RoutingTable; 2],
        route: usize,
        vn: Option<VoqNetCredits>,
        m: MetricsCollector,
        pending: Vec<PendingRelease>,
        /// Credits the far end of each output link holds back.
        withheld: Vec<u32>,
        seen: Observed,
    }

    impl Rig {
        fn new(shape_idx: usize) -> Self {
            let (cfg, voqnet) = shape(shape_idx);
            let wiring: Vec<_> = (0..PORTS)
                .map(|p| (Some(LinkId(p as u32)), Some(LinkId((PORTS + p) as u32))))
                .collect();
            let sw = Switch::new(
                SwitchId(0),
                cfg,
                &wiring,
                DESTS,
                SeedSplitter::new(1).rng("m", 0),
            );
            let links = (0..2 * PORTS)
                .map(|_| Link::new(LinkConfig::default(), OUT_CREDITS))
                .collect();
            let table = |shift: usize| {
                RoutingTable::from_rows(
                    DESTS,
                    (0..DESTS)
                        .map(|d| PortId(((d + shift) % PORTS) as u16))
                        .collect(),
                )
            };
            let vn = voqnet.then(|| {
                let mut vn = VoqNetCredits::new(2 * PORTS, DESTS, VN_CREDITS);
                for l in PORTS..2 * PORTS {
                    for d in 0..DESTS {
                        vn.set(l as u32, d as u32, VN_CREDITS);
                    }
                }
                vn
            });
            Self {
                sw,
                links,
                routes: [table(0), table(2)],
                route: 0,
                vn,
                m: MetricsCollector::new(UnitModel::default(), 1000.0),
                pending: Vec::new(),
                withheld: vec![0; PORTS],
                seen: Observed::default(),
            }
        }

        fn deliver(&mut self, port: usize, p: Packet, visible_at: Cycle) {
            let fits = if self.sw.cfg.scheme == QueueingScheme::PerDest {
                self.sw.per_dest_occupancy_flits(port, p.dst.index()) + p.size_flits
                    <= VN_QUEUE_FLITS
            } else {
                self.sw.inputs[port].ram.can_reserve(p.size_flits)
            };
            if fits {
                let d = Delivery {
                    packet: p,
                    visible_at,
                    ready_at: visible_at + Cycle::from(p.size_flits) - 1,
                };
                self.sw.accept_delivery(port, d, &self.routes[self.route]);
            }
        }

        /// Put every port in the live sets and drop what the last cycle
        /// memoised: the switch then walks `0..ports` everywhere, visits
        /// every port in full, gathers on every call and compares every
        /// output's congestion state, as it did before the sets existed.
        fn force_exhaustive(&mut self) {
            for p in 0..PORTS {
                self.sw.occupied.insert(p);
                self.sw.iso_live.insert(p);
            }
            self.sw.drop_memos();
        }

        fn resync(&mut self) {
            for p in 0..PORTS {
                self.sw.sync_live(p);
            }
        }

        /// A live input port the switch holds quiet — one holding a CFQ
        /// if there is one — with its NFQ head's destination and its
        /// first allocated CFQ (index and state).
        #[allow(clippy::type_complexity)]
        fn quiet_port(&self) -> Option<(usize, Option<NodeId>, Option<(usize, CfqState)>)> {
            let quiet = (0..PORTS)
                .filter(|&p| self.sw.iso_live.contains(p) && self.sw.iso_quiet[p] > 0)
                .map(|port| {
                    let InputQueues::Isolating { nfq, cfqs, .. } = &self.sw.inputs[port].queues
                    else {
                        unreachable!("only an isolating port is quiet")
                    };
                    let head = nfq.head().map(|h| h.packet.dst);
                    let cfq = cfqs
                        .iter()
                        .enumerate()
                        .find_map(|(c, slot)| slot.state.map(|st| (c, st)));
                    (port, head, cfq)
                });
            quiet.min_by_key(|(_, _, cfq)| cfq.is_none())
        }

        /// The earliest cycle after `now` on which a quiet port's bound
        /// comes due, if one does within `horizon` cycles.
        fn next_due(&self, now: Cycle, horizon: Cycle) -> Option<Cycle> {
            self.sw
                .iso_live
                .iter()
                .map(|p| self.sw.iso_quiet[p])
                .filter(|&until| until > now && until - now <= horizon)
                .min()
        }

        /// The crossbar takes the head of `key` at `port` (what a won
        /// arbitration does to the switch).
        fn depart(&mut self, port: usize, key: QueueKey) {
            let e = self.sw.pop_queue(port, key);
            self.sw.release_ram(port, e.packet.size_flits);
            self.sw.arb.idle.clear();
        }

        /// One cycle, in the simulator's phase order.
        fn tick(&mut self, now: Cycle, exhaustive: bool) {
            let sw = &mut self.sw;
            self.pending.retain(|r| {
                if r.at <= now {
                    sw.release_ram(r.port, r.flits);
                }
                r.at > now
            });
            for l in &mut self.links[PORTS..] {
                l.poll_credits(now);
            }
            self.sw.poll_output_ctrl(now, &mut self.links, &mut self.m);
            if exhaustive {
                self.force_exhaustive();
            }
            let routing = &self.routes[self.route];
            self.sw
                .isolation_tick(now, routing, &mut self.links, &mut self.m);
            self.sw.congestion_state_tick(now, &self.links, &mut self.m);
            if !self.sw.occupied.is_empty() {
                let mut rel = Vec::new();
                self.sw.arbitrate_and_transmit(
                    now,
                    routing,
                    &mut self.links,
                    self.vn.as_mut(),
                    &mut self.m,
                    &mut rel,
                );
                for r in rel {
                    self.seen.releases.push((r.at, r.port, r.flits, r.dst.0));
                    self.pending.push(r);
                }
            }
            if exhaustive {
                self.resync();
            }
            // The far ends: sinks that return credits (some held back),
            // and the upstream hops hearing the isolation protocol.
            let mut arrived = Vec::new();
            for out in 0..PORTS {
                arrived.clear();
                self.links[PORTS + out].deliver_into(now, &mut arrived);
                for d in &arrived {
                    let p = d.packet;
                    self.seen.sent.push((
                        out,
                        p.id.0,
                        p.fecn,
                        p.ecn,
                        p.int_u.to_bits(),
                        p.int_hops,
                    ));
                    // Every fifth destination drains slowly: its credits
                    // are held back until an explicit release.
                    if p.dst.0 % 5 == 0 {
                        self.withheld[out] += p.size_flits;
                    } else {
                        self.links[PORTS + out].return_credits(now, p.size_flits);
                        if let Some(vn) = &mut self.vn {
                            vn.add((PORTS + out) as u32, p.dst.0, p.size_flits);
                        }
                    }
                }
            }
            let mut evs = Vec::new();
            for port in 0..PORTS {
                evs.clear();
                self.links[port].poll_ctrl_into(now, &mut evs);
                self.seen.upstream.extend(evs.iter().map(|&e| (port, e)));
            }
        }

        /// The arbitration state that must evolve identically.
        fn arbiter_state(&self) -> (Vec<usize>, Vec<usize>, Vec<usize>, u64, Vec<Cycle>) {
            let (grant, accept) = self.sw.islip.pointers();
            (
                self.sw.queue_rr.clone(),
                grant.to_vec(),
                accept.to_vec(),
                self.sw.marking_rng.clone().random::<u64>(),
                self.sw.inputs.iter().map(|i| i.busy_until).collect(),
            )
        }

        fn congestion_state(&self) -> (usize, usize, usize, Vec<(bool, u32)>) {
            (
                self.sw.resident_packets(),
                self.sw.cfqs_allocated(),
                self.sw.outputs.iter().filter(|o| o.congested).count(),
                self.sw
                    .outputs
                    .iter()
                    .map(|o| (o.congested, o.over_high_count))
                    .collect(),
            )
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Random deliver / tick / ctrl / credit / purge / re-route /
        /// link-fault sequences drive two switches in lock step, one
        /// ticking over its live-port sets with the idle bound and the
        /// ports' quiet bounds, the other forced into the exhaustive walk
        /// on every call; six of the ops aim at a port the first switch
        /// holds quiet, if it has one — a packet behind its head, a tree
        /// announced or withdrawn for the head, a departure from its CFQ,
        /// a Stop/Go flip on the line that CFQ drains to, a tick on the
        /// cycle its bound comes due: same packets out in the same order
        /// with the same marks, same releases, same upstream control
        /// events, same pointers, RNG position, exhaustion episodes and
        /// counters.
        #[test]
        fn occupancy_driven_tick_matches_the_exhaustive_tick(
            shape_idx in 0usize..SHAPES,
            ops in prop::collection::vec((0u8..38, any::<u32>(), 0u64..24), 1..500),
        ) {
            let mut new = Rig::new(shape_idx);
            let mut old = Rig::new(shape_idx);
            let mut now: Cycle = 0;
            let mut next_id = 0u64;
            for (op, a, b) in ops {
                let port = a as usize % PORTS;
                // Half the traffic goes to the two slow-draining
                // destinations, so trees form behind output 0.
                let dst = match a >> 30 {
                    0 => NodeId(0),
                    1 => NodeId(5),
                    _ => NodeId((a >> 8) % DESTS as u32),
                };
                // A quiet port, its head's destination and its first CFQ
                // (the random port and destination where there is none).
                let quiet = new.quiet_port();
                let q_port = quiet.map_or(port, |(p, ..)| p);
                let q_dst = quiet.and_then(|(_, head, _)| head).unwrap_or(dst);
                let q_out = new.routes[new.route].route(SwitchId(0), q_dst).index();
                let q_cfq = quiet.and_then(|(.., cfq)| cfq);
                let due = new.next_due(now, 64).unwrap_or(now + 1);
                for (rig, exhaustive) in [(&mut new, false), (&mut old, true)] {
                    match op {
                        // 32: a full packet behind a quiet port's head.
                        0..=11 | 32 => {
                            let (to, flits, visible_at) = if op == 32 {
                                (q_port, MTU, now)
                            } else {
                                let flits = [MTU, MTU, MTU / 2, 1][(a >> 16) as usize % 4];
                                (port, flits, now + b % 4)
                            };
                            let p = Packet::data(
                                PacketId(next_id),
                                NodeId(0),
                                dst,
                                flits,
                                flits * 64,
                                FlowId(0),
                                now,
                            );
                            rig.deliver(to, p, visible_at);
                        }
                        12 => {
                            let p = Packet::becn(PacketId(next_id), NodeId(1), dst, now);
                            rig.deliver(port, p, now);
                        }
                        13..=19 => {
                            for step in 1..=1 + b % 8 {
                                rig.tick(now + step, exhaustive);
                            }
                        }
                        20..=22 => rig.tick(now + 1 + b, exhaustive),
                        23 | 24 => {
                            let ev = match b % 4 {
                                0 => CtrlEvent::CfqAlloc { dst },
                                1 => CtrlEvent::Stop { dst },
                                2 => CtrlEvent::Go { dst },
                                _ => CtrlEvent::CfqDealloc { dst },
                            };
                            rig.links[PORTS + port].send_ctrl(now, ev);
                        }
                        25 => {
                            let flits = std::mem::take(&mut rig.withheld[port]);
                            rig.links[PORTS + port].return_credits(now, flits);
                        }
                        26 => {
                            let dead = |d: NodeId| d.0 % 4 == a % 4;
                            let mut purged = Vec::new();
                            rig.sw.purge_unreachable(&dead, &mut purged);
                        }
                        27 => {
                            if b == 0 {
                                rig.sw.purge_all();
                                rig.pending.clear();
                            }
                        }
                        28 => rig.sw.clear_output_cam(port),
                        29 => rig.sw.reset_upstream_ctrl_flags(port),
                        30 => {
                            rig.route ^= 1;
                            rig.sw.on_routing_changed(&rig.routes[rig.route]);
                        }
                        // A tree announced / withdrawn for a quiet head's
                        // destination, on the output it leaves by.
                        33 => rig.links[PORTS + q_out].send_ctrl(now, CtrlEvent::CfqAlloc { dst: q_dst }),
                        34 => rig.links[PORTS + q_out].send_ctrl(now, CtrlEvent::CfqDealloc { dst: q_dst }),
                        // A departure from a quiet port's CFQ.
                        35 => {
                            if let Some((c, _)) = q_cfq {
                                if !rig.sw.inputs[q_port].queues.cfqs()[c].queue.is_empty() {
                                    rig.depart(q_port, QueueKey::Cfq(c));
                                }
                            }
                        }
                        // Stop or Go on the line a quiet port's CFQ drains to.
                        36 => {
                            if let Some((_, st)) = q_cfq {
                                let ev = if b % 2 == 0 {
                                    CtrlEvent::Stop { dst: st.dst }
                                } else {
                                    CtrlEvent::Go { dst: st.dst }
                                };
                                rig.links[PORTS + st.out_port].send_ctrl(now, ev);
                            }
                        }
                        // The cycle a quiet port's bound comes due: a
                        // header lands, a drain-rate window ends, an entry
                        // delay or a linger runs out.
                        37 => rig.tick(due, exhaustive),
                        _ => {
                            let link = &mut rig.links[PORTS + port];
                            if link.is_up() {
                                link.fail();
                            } else {
                                link.restore(OUT_CREDITS);
                                rig.withheld[port] = 0;
                            }
                        }
                    }
                }
                match op {
                    0..=12 | 32 => next_id += 1,
                    13..=19 => now += 1 + b % 8,
                    20..=22 => now += 1 + b,
                    37 => now = due,
                    _ => {}
                }
                prop_assert!(new.sw.live_state_matches_a_recount());
                prop_assert_eq!(&new.sw.exhausted, &old.sw.exhausted);
                prop_assert_eq!(&new.seen, &old.seen);
                prop_assert_eq!(new.arbiter_state(), old.arbiter_state());
                prop_assert_eq!(new.congestion_state(), old.congestion_state());
            }
            let labels = BTreeMap::new();
            prop_assert_eq!(
                new.m.finish("t", 1000.0, 1.0, &labels).to_json(),
                old.m.finish("t", 1000.0, 1.0, &labels).to_json()
            );
        }
    }
}
