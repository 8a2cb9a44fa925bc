//! The network simulator: assembles switches, adapters and links from a
//! topology + mechanism + traffic pattern, and runs the deterministic
//! per-cycle phase loop (DESIGN.md §6).

use crate::endnode::{Adapter, AdapterCfg, AdapterThrottle};
use crate::params::Mechanism;
use crate::switch::{
    MarkingSource, PurgeStats, Switch, SwitchCcMode, SwitchCfg, SwitchThrottle, VoqNetCredits,
};
use ccfit_cc::{DcqcnCfg, HpccCfg};
use ccfit_engine::ids::{FlowId, LinkId, NodeId, PacketId, PortId, SwitchId};
use ccfit_engine::link::{Link, LinkConfig, WireLoss};
use ccfit_engine::packet::Packet;
use ccfit_engine::queue::QueuedPacket;
use ccfit_engine::rng::SeedSplitter;
use ccfit_engine::units::{Cycle, UnitModel, MTU_BYTES};
use ccfit_engine::{BadParam, CalendarQueue};
use ccfit_faults::{FaultSchedule, NetworkEvent, REROUTE_LATENCY_CYCLES};
use ccfit_metrics::{
    CcEventKind, EventConfig, FaultKind, FaultSummary, FlowGoal, MetricsCollector, SimReport,
};
use ccfit_topology::{Endpoint, LinkParams, RoutingTable, Topology};
use ccfit_traffic::{GenPacket, NodeGenerator, TrafficPattern};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// How congestion notification packets travel back to the sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum BecnTransport {
    /// The paper's model: BECNs are 1-flit packets injected by the
    /// destination with absolute priority, riding the normal data path
    /// (NFQs only) back to the source.
    #[default]
    InBand,
    /// Modelling shortcut: BECNs arrive after `hops × (delay + 1)`
    /// cycles without touching the data path. Useful to isolate the
    /// feedback loop from data-path effects and to validate that the
    /// in-band path behaves equivalently (see the integration tests).
    OutOfBand,
}

/// iSLIP iterations per cycle (Table I).
pub const ISLIP_ITERATIONS: usize = 2;

/// IA NFQ gate in MTUs.
const NFQ_GATE_MTUS: u32 = 4;

/// NFQ→CFQ post-processing moves per port per cycle.
const MOVE_BUDGET: u32 = 4;

/// Global simulation parameters (defaults reproduce Table I). The unit
/// model is [`UnitModel::default`], the MTU [`MTU_BYTES`] and the iSLIP
/// iteration count [`ISLIP_ITERATIONS`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Input-port memory in bytes (Table I: 64 KB). VOQnet overrides this
    /// with its per-destination reservation.
    pub port_ram_bytes: u32,
    /// Simulated time in nanoseconds.
    pub duration_ns: f64,
    /// Metrics bin width in nanoseconds.
    pub metrics_bin_ns: f64,
    /// Master seed.
    pub seed: u64,
    /// AdVOQ admittance capacity in MTUs.
    pub advoq_cap_mtus: u32,
    /// Crossbar bandwidth in flits/cycle (Table I: 2 for Config #1,
    /// 1 for Configs #2/#3).
    pub crossbar_bw_flits_per_cycle: u32,
    /// BECN transport model.
    pub becn_transport: BecnTransport,
    /// Structured congestion-control event recording (DESIGN.md §10).
    /// `None` (the default) compiles the emission sites down to a single
    /// predicted-false branch each; `Some` captures the selected event
    /// classes into the report's [`ccfit_metrics::EventLogReport`].
    pub events: Option<EventConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            port_ram_bytes: 64 * 1024,
            duration_ns: 1e6,
            metrics_bin_ns: 100_000.0,
            seed: 0xCCF1_7000,
            advoq_cap_mtus: 8,
            crossbar_bw_flits_per_cycle: 1,
            becn_transport: BecnTransport::InBand,
            events: None,
        }
    }
}

impl SimConfig {
    /// Whether a simulator can be built on this config: `Err` names the
    /// first field it cannot honour. [`SimBuilder::build`] panics on
    /// exactly these.
    pub fn check(&self) -> Result<(), BadParam> {
        let bin = self.metrics_bin_ns;
        if !(bin.is_finite() && bin > 0.0) {
            return Err(BadParam::new(
                "metrics_bin_ns",
                format!("must be positive and finite, got {bin}"),
            ));
        }
        Ok(())
    }
}

/// Where a directed link terminates.
#[derive(Debug, Clone, Copy)]
enum LinkDst {
    SwitchIn(SwitchId, PortId),
    NodeRecv(NodeId),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Release {
    /// Free `flits` of switch `sw` input `port` RAM and return credits on
    /// its in-link (plus VOQnet per-destination credits for `dst`).
    SwitchPort {
        sw: u32,
        port: u16,
        flits: u32,
        dst: u32,
    },
    /// Free `flits` of node `node`'s adapter output RAM.
    Node { node: u32, flits: u32 },
}

/// A trunk cable currently down, recorded from the end the triggering
/// event named so it can be reinstalled exactly as it was.
#[derive(Debug, Clone, Copy)]
struct DownCable {
    s: SwitchId,
    p: PortId,
    os: SwitchId,
    op: PortId,
    params: LinkParams,
    /// Downed as a side effect of a whole-switch failure; such cables
    /// are restored by `SwitchUp`, while individually failed cables
    /// need an explicit `LinkUp`.
    by_switch: bool,
}

/// Live state of the fault-injection subsystem (DESIGN.md §8): the
/// schedule cursor, which hardware is currently down, the pending
/// re-route deadline, the reachability snapshot the *current* routing
/// tables were computed against, and all loss/availability accounting.
///
/// The reachability snapshot (`comp`/`node_comp`) is deliberately only
/// refreshed when a re-route completes, never at event time: drop and
/// refusal guards must agree with the routing tables actually in force,
/// otherwise a packet could be refused for a route that still works or,
/// worse, forwarded on a stale default route and misdelivered.
struct FaultRuntime {
    schedule: FaultSchedule,
    /// Index of the next unapplied schedule entry.
    next: usize,
    down_cables: Vec<DownCable>,
    down_switches: Vec<SwitchId>,
    /// When the pending routing recomputation takes effect.
    routing_update_at: Option<Cycle>,
    /// Start of the current stale-routing window.
    stale_since: Option<Cycle>,
    /// Connected component of each switch under the routing in force
    /// (`u32::MAX` = switch was down at the last recomputation).
    comp: Vec<u32>,
    /// Component of each node's attachment switch (`u32::MAX` = the
    /// node is orphaned: its switch is down).
    node_comp: Vec<u32>,
    /// Per-node unreachability window start (`Some` while counted).
    unreachable_since: Vec<Option<Cycle>>,
    loss: WireLoss,
    packets_purged: u64,
    ctrl_purged: u64,
    packets_refused: u64,
    events_applied: u64,
    events_skipped: u64,
    reroutes: u64,
    unreachable_cycles: u64,
    stale_cycles: u64,
    first_fault: Option<Cycle>,
    last_recovery: Cycle,
    /// Scratch for adapter purges.
    purge_scratch: Vec<QueuedPacket>,
    /// Scratch for switch purges.
    switch_purge_scratch: Vec<(usize, QueuedPacket)>,
}

impl FaultRuntime {
    fn new(schedule: FaultSchedule, topo: &Topology) -> Self {
        let (comp, node_comp) = compute_components(topo, &[]);
        Self {
            schedule,
            next: 0,
            down_cables: Vec::new(),
            down_switches: Vec::new(),
            routing_update_at: None,
            stale_since: None,
            comp,
            node_comp,
            unreachable_since: vec![None; topo.num_nodes()],
            loss: WireLoss::default(),
            packets_purged: 0,
            ctrl_purged: 0,
            packets_refused: 0,
            events_applied: 0,
            events_skipped: 0,
            reroutes: 0,
            unreachable_cycles: 0,
            stale_cycles: 0,
            first_fault: None,
            last_recovery: 0,
            purge_scratch: Vec::new(),
            switch_purge_scratch: Vec::new(),
        }
    }

    fn is_switch_down(&self, s: SwitchId) -> bool {
        self.down_switches.contains(&s)
    }

    /// Mark one event applied.
    fn applied(&mut self, now: Cycle) {
        self.events_applied += 1;
        if self.first_fault.is_none() {
            self.first_fault = Some(now);
        }
    }

    /// Arm (or re-arm) the routing recomputation: every topology change
    /// restarts the re-routing latency, and the stale window runs from
    /// the first unabsorbed change.
    fn schedule_reroute(&mut self, now: Cycle) {
        self.routing_update_at = Some(now + REROUTE_LATENCY_CYCLES);
        if self.stale_since.is_none() {
            self.stale_since = Some(now);
        }
    }

    /// A packet arriving at switch `sw` cannot be delivered: the
    /// destination is not in the switch's component under the routing
    /// in force (forwarding it would follow a stale or default route and
    /// could misdeliver). Nothing arrives at a dead switch: its links
    /// were cut and purged when it failed.
    fn arrival_is_undeliverable(&self, sw: SwitchId, dst: NodeId) -> bool {
        debug_assert!(!self.is_switch_down(sw), "delivery to a dead switch");
        let dc = self.node_comp[dst.index()];
        dc == u32::MAX || dc != self.comp[sw.index()]
    }

    /// Injection guard: `src` cannot currently reach `dst` under the
    /// routing in force.
    fn pair_unreachable(&self, src: usize, dst: NodeId) -> bool {
        let sc = self.node_comp[src];
        let dc = self.node_comp[dst.index()];
        sc == u32::MAX || dc == u32::MAX || sc != dc
    }

    fn note_purged(&mut self, data: bool) {
        if data {
            self.packets_purged += 1;
        } else {
            self.ctrl_purged += 1;
        }
    }

    fn absorb_purge(&mut self, stats: PurgeStats) {
        self.packets_purged += stats.data_packets;
        self.ctrl_purged += stats.ctrl_packets;
    }
}

/// Connected components of the switch graph with `down` switches
/// removed, plus each node's component (`u32::MAX` for switches/nodes
/// that are down or attached to a down switch). BFS in switch-index
/// order, so component numbering is deterministic.
fn compute_components(topo: &Topology, down: &[SwitchId]) -> (Vec<u32>, Vec<u32>) {
    let n = topo.num_switches();
    let mut comp = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut q: VecDeque<SwitchId> = VecDeque::new();
    for s0 in topo.switch_ids() {
        if comp[s0.index()] != u32::MAX || down.contains(&s0) {
            continue;
        }
        comp[s0.index()] = next;
        q.push_back(s0);
        while let Some(s) = q.pop_front() {
            let neighbors: Vec<SwitchId> = topo
                .switch(s)
                .connected()
                .filter_map(|p| match topo.peer(s, p) {
                    Some((Endpoint::Switch(t, _), _)) => Some(t),
                    _ => None,
                })
                .collect();
            for t in neighbors {
                if comp[t.index()] == u32::MAX && !down.contains(&t) {
                    comp[t.index()] = next;
                    q.push_back(t);
                }
            }
        }
        next += 1;
    }
    let node_comp = topo
        .node_ids()
        .map(|nid| comp[topo.node_attachment(nid).0.index()])
        .collect();
    (comp, node_comp)
}

/// Builder for a [`Simulator`].
#[derive(Debug, Clone)]
pub struct SimBuilder {
    topo: Topology,
    routing: Option<RoutingTable>,
    mech: Mechanism,
    pattern: Option<TrafficPattern>,
    cfg: SimConfig,
    faults: Option<FaultSchedule>,
}

impl SimBuilder {
    /// Start from a topology. Mechanism defaults to CCFIT; routing to
    /// deterministic shortest-path (use [`Self::routing`] to install DET
    /// fat-tree tables).
    pub fn new(topo: Topology) -> Self {
        Self {
            topo,
            routing: None,
            mech: Mechanism::ccfit(),
            pattern: None,
            cfg: SimConfig::default(),
            faults: None,
        }
    }

    /// Select the congestion-control mechanism.
    pub fn mechanism(mut self, m: Mechanism) -> Self {
        self.mech = m;
        self
    }

    /// Install explicit routing tables.
    pub fn routing(mut self, r: RoutingTable) -> Self {
        self.routing = Some(r);
        self
    }

    /// Set the workload.
    pub fn traffic(mut self, p: TrafficPattern) -> Self {
        self.pattern = Some(p);
        self
    }

    /// Simulated duration in nanoseconds.
    pub fn duration_ns(mut self, ns: f64) -> Self {
        self.cfg.duration_ns = ns;
        self
    }

    /// Metrics bin width in nanoseconds.
    pub fn metrics_bin_ns(mut self, ns: f64) -> Self {
        self.cfg.metrics_bin_ns = ns;
        self
    }

    /// Master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Crossbar bandwidth in flits per cycle (Table I: Config #1 uses 2,
    /// i.e. a 5 GB/s crossbar; the fat-tree configs use 1).
    pub fn crossbar_bw(mut self, flits_per_cycle: u32) -> Self {
        self.cfg.crossbar_bw_flits_per_cycle = flits_per_cycle;
        self
    }

    /// Record structured CC events with the given configuration
    /// (classes, ring capacity). See
    /// [`SimConfig::events`].
    pub fn events(mut self, cfg: EventConfig) -> Self {
        self.cfg.events = Some(cfg);
        self
    }

    /// Override every [`SimConfig`] field at once.
    pub fn config(mut self, cfg: SimConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Install a dynamic network-event schedule (mid-run link/switch
    /// failures and recoveries). An empty schedule is the same as not
    /// calling this.
    pub fn faults(mut self, schedule: FaultSchedule) -> Self {
        self.faults = Some(schedule);
        self
    }

    /// Assemble the simulator.
    ///
    /// # Panics
    /// Panics on a config [`SimConfig::check`] rejects, invalid mechanism
    /// parameters, a missing traffic pattern, or a pattern referencing
    /// nodes outside the topology.
    pub fn build(self) -> Simulator {
        if let Err(e) = self.cfg.check() {
            panic!("invalid simulation config: {e}");
        }
        let pattern = self.pattern.expect("a traffic pattern is required");
        self.mech
            .validate()
            .expect("mechanism parameters are invalid");
        let routing = self
            .routing
            .unwrap_or_else(|| RoutingTable::shortest_path(&self.topo));
        let faults = self.faults.filter(|s| !s.is_empty()).inspect(|s| {
            s.validate(&self.topo)
                .expect("fault schedule references hardware the topology does not have");
        });
        Simulator::assemble(self.topo, routing, self.mech, pattern, self.cfg, faults)
    }
}

/// Who sends on a directed link. The reverse control channel of a link
/// is consumed by its *sender* (Stop/Go/alloc events travel upstream),
/// so the phase-4 ctrl consumers are derived from this map.
#[derive(Debug, Clone, Copy)]
enum LinkSrc {
    Switch(u32),
    Node(u32),
}

/// Per-phase wall-time breakdown, accumulated by
/// [`Simulator::tick_profiled`] (the benchmark's traced mode reports it
/// as `core.simulator.phase.*`).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseProfile {
    /// Nanoseconds spent per phase, indexed like [`PHASE_NAMES`].
    pub nanos: [u64; 10],
    /// Ticks accumulated into this profile.
    pub ticks: u64,
}

/// Names of the [`PhaseProfile::nanos`] slots, in phase order. The
/// per-switch congestion-state refresh runs fused with arbitration and
/// is timed there; `iso+congestion` covers detection and isolation.
/// Slot 9 times the work-list swap and the clock's jump; it keeps the
/// label `gauges+advance` from when gauge sampling ran there, because
/// the benchmark's per-phase metric names are built from these labels.
pub const PHASE_NAMES: [&str; 10] = [
    "faults",
    "releases",
    "credits",
    "deliver",
    "ctrl",
    "iso+congestion",
    "arbitration",
    "becn",
    "nodes",
    "gauges+advance",
];

/// Timer helper for [`PhaseProfile`]: a no-op (one predictable branch
/// per lap) when profiling is off, so `tick()` pays nothing for it.
struct PhaseTimer(Option<std::time::Instant>);

impl PhaseTimer {
    fn start(on: bool) -> Self {
        Self(on.then(std::time::Instant::now))
    }

    #[inline]
    fn lap(&mut self, prof: &mut Option<&mut PhaseProfile>, idx: usize) {
        if let Some(t0) = self.0.as_mut() {
            let t1 = std::time::Instant::now();
            if let Some(p) = prof.as_mut() {
                p.nanos[idx] += t1.duration_since(*t0).as_nanos() as u64;
            }
            *t0 = t1;
        }
    }
}

/// Active-set occupancy statistics: how many switches / adapters /
/// links were on the per-cycle work-lists, summed and maxed over ticks.
/// The benchmark reports them as `engine.active.*`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ActiveSetStats {
    /// Ticks recorded.
    pub ticks: u64,
    /// Sum over ticks of active-switch counts.
    pub sw_sum: u64,
    /// Max over ticks of active-switch counts.
    pub sw_max: u32,
    /// Sum over ticks of active-adapter counts.
    pub node_sum: u64,
    /// Max over ticks of active-adapter counts.
    pub node_max: u32,
    /// Sum over ticks of active-link counts.
    pub link_sum: u64,
    /// Max over ticks of active-link counts.
    pub link_max: u32,
}

impl ActiveSetStats {
    #[inline]
    fn record(&mut self, sw: usize, nodes: usize, links: usize) {
        self.ticks += 1;
        self.sw_sum += sw as u64;
        self.sw_max = self.sw_max.max(sw as u32);
        self.node_sum += nodes as u64;
        self.node_max = self.node_max.max(nodes as u32);
        self.link_sum += links as u64;
        self.link_max = self.link_max.max(links as u32);
    }

    /// Mean active switches per recorded tick.
    pub fn avg_switches(&self) -> f64 {
        self.sw_sum as f64 / (self.ticks.max(1)) as f64
    }

    /// Mean active adapters per recorded tick.
    pub fn avg_adapters(&self) -> f64 {
        self.node_sum as f64 / (self.ticks.max(1)) as f64
    }
}

/// The assembled network, ready to run.
pub struct Simulator {
    cfg: SimConfig,
    topo: Topology,
    routing: RoutingTable,
    mech: Mechanism,
    pattern: TrafficPattern,
    switches: Vec<Switch>,
    adapters: Vec<Adapter>,
    gens: Vec<NodeGenerator>,
    links: Vec<Link>,
    link_dst: Vec<LinkDst>,
    voqnet: Option<VoqNetCredits>,
    metrics: MetricsCollector,
    /// Scheduled RAM releases / credit returns. The calendar queue pops
    /// in ascending-cycle FIFO order, which is exactly the `(at, seq)`
    /// heap order it replaced: pushes within a cycle happen in component
    /// order, so FIFO == seq order.
    release_q: CalendarQueue<Release>,
    becn_q: BinaryHeap<Reverse<(Cycle, u64, u32, u32)>>, // (at, seq, congested_dst, throttle_node)
    num_nodes: usize,
    /// Per-tick delivery scratch (no state across ticks).
    delivery_scratch: Vec<ccfit_engine::link::Delivery>,
    /// Per-tick release scratch (no state across ticks).
    release_scratch: Vec<crate::switch::PendingRelease>,
    seq: u64,
    now: Cycle,
    end: Cycle,
    next_packet_id: u64,
    injected: u64,
    /// Injection link of each node (node → switch).
    inject_link: Vec<LinkId>,
    /// Reception link of each node (switch → node).
    recv_link: Vec<LinkId>,
    /// Credit grant of a node's ideal reception sink.
    node_sink_credits: u32,
    /// Fault-injection runtime (`None` for fault-free runs: the hot
    /// path then pays a single branch per tick).
    faults: Option<FaultRuntime>,
    /// Wire-byte accounting is active (modern CC only, so the paper
    /// mechanisms' counter sets — pinned by golden snapshots — never
    /// change).
    cc_wire: bool,
    /// Sender of each directed link (phase-4 ctrl consumers).
    link_src: Vec<LinkSrc>,
    /// Links with events in flight (deliveries, ctrl, credit returns).
    act_links: ccfit_engine::ActiveSet,
    /// Switches that may act this cycle / next cycle.
    act_sw: ccfit_engine::ActiveSet,
    act_sw_next: ccfit_engine::ActiveSet,
    /// Adapters (node indices) that may act this cycle / next cycle.
    act_nodes: ccfit_engine::ActiveSet,
    act_nodes_next: ccfit_engine::ActiveSet,
    /// Phase-4 scratch: ctrl consumers derived from `act_links`.
    ctrl_sw: ccfit_engine::ActiveSet,
    ctrl_nodes: ccfit_engine::ActiveSet,
    /// Parked nodes' wake-ups, as `(cycle, node)`: the earlier of the
    /// adapter's park bound (`Adapter::park_bound`) and the generator's
    /// next possible action (`NodeGenerator::next_park_wake`). Stale
    /// entries are harmless (a woken node whose bound still holds ticks
    /// into a no-op and parks again).
    node_wake: BinaryHeap<Reverse<(Cycle, u32)>>,
    /// Parked switches' wake-ups (`Switch::park_bound`), likewise.
    sw_wake: BinaryHeap<Reverse<(Cycle, u32)>>,
    /// Active-set occupancy counters for the bench output.
    act_stats: ActiveSetStats,
}

/// Lower-bound completion time for a sized flow, in cycles: the whole
/// flow serialized through the narrowest link on its route, plus the
/// sum of link propagation delays from source NIC to destination NIC
/// (injection link + every traced hop, reception link included).
/// Switch-crossing and queueing cycles are deliberately excluded, and
/// the serialization term is `ceil(flits / bw) - 1` because the source
/// token bucket can emit the packet containing the last byte as soon as
/// that many cycles of budget have accrued — so measured FCT ≥ ideal
/// holds by construction, never by margin-tuning.
fn ideal_fct_cycles(
    topo: &Topology,
    routing: &RoutingTable,
    units: &UnitModel,
    f: &ccfit_traffic::SizedFlow,
) -> Cycle {
    let mtu = MTU_BYTES;
    let full_packets = f.bytes / mtu as u64;
    let tail_bytes = (f.bytes % mtu as u64) as u32;
    let mut flits = full_packets * units.bytes_to_flits(mtu) as u64;
    if tail_bytes > 0 {
        flits += units.bytes_to_flits(tail_bytes) as u64;
    }
    let (_, _, inject) = topo.node_attachment(f.src);
    let mut min_bw = inject.bw_flits_per_cycle.max(1);
    let mut delay = inject.delay_cycles;
    let path = routing
        .trace(topo, f.src, f.dst)
        .expect("sized flow route must deliver");
    for (sw, port) in path {
        let (_, params) = topo.peer(sw, port).expect("traced hop is connected");
        min_bw = min_bw.min(params.bw_flits_per_cycle.max(1));
        delay += params.delay_cycles;
    }
    (flits.div_ceil(min_bw as u64).saturating_sub(1) + delay).max(1)
}

impl Simulator {
    fn assemble(
        topo: Topology,
        routing: RoutingTable,
        mech: Mechanism,
        pattern: TrafficPattern,
        cfg: SimConfig,
        faults: Option<FaultSchedule>,
    ) -> Self {
        let units = UnitModel::default();
        let mtu_flits = units.bytes_to_flits(MTU_BYTES);
        let ram_flits = units
            .bytes_to_flits_exact(cfg.port_ram_bytes)
            .expect("port RAM must be a whole number of flits");
        let num_nodes = topo.num_nodes();
        let num_switches = topo.num_switches();
        let seeds = SeedSplitter::new(cfg.seed);

        // ---- mechanism-derived static configs ----
        // VOQnet reserves each destination's queue space at every switch
        // input: the port RAM is the reservation times the destinations.
        let voqnet_queue_flits = match mech {
            Mechanism::VoqNet { per_queue_flits } => Some(per_queue_flits),
            _ => None,
        };
        let switch_ram_flits = voqnet_queue_flits.map_or(ram_flits, |q| q * num_nodes as u32);
        let thr_cfg = mech.throttle().map(|t| SwitchThrottle {
            marking_rate: t.marking_rate,
            packet_size_threshold_bytes: t.packet_size_threshold_bytes,
            high_flits: t.high_mtus * mtu_flits,
            low_flits: t.low_mtus * mtu_flits,
            entry_delay_cycles: units.ns_to_cycles(t.congestion_entry_delay_ns),
            starvation_window_cycles: units.ns_to_cycles(t.starvation_window_ns),
            source: if mech.isolation().is_some() {
                MarkingSource::RootCfq
            } else {
                MarkingSource::VoqOccupancy
            },
        });
        // Modern CC (DCQCN/HPCC): materialise the cycle-domain configs
        // once and derive the switch-side marking/telemetry mode from
        // them. Paper mechanisms get `None` everywhere, which keeps their
        // tick behaviour untouched.
        let cycles_per_ns = 1.0 / units.cycle_ns;
        let dcqcn_cfg = mech
            .dcqcn_params()
            .map(|p| DcqcnCfg::materialise(p, cycles_per_ns));
        let hpcc_cfg = mech
            .hpcc_params()
            .map(|p| HpccCfg::materialise(p, cycles_per_ns));
        let ecn = mech.dcqcn_params().map(|p| SwitchCcMode::Ecn {
            kmin_flits: p.kmin_mtus * mtu_flits,
            kmax_flits: (p.kmax_mtus * mtu_flits).max(p.kmin_mtus * mtu_flits + 1),
            pmax: p.pmax,
        });
        let int = hpcc_cfg.as_ref().map(|h| SwitchCcMode::Int {
            window_cycles: h.window_cycles,
        });
        let switch_cc = ecn.or(int);
        let switch_cfg = SwitchCfg {
            scheme: mech.queueing(),
            iso: mech.isolation().copied(),
            thr: thr_cfg,
            mtu_flits,
            ram_flits: switch_ram_flits,
            islip_iterations: ISLIP_ITERATIONS,
            move_budget: MOVE_BUDGET,
            crossbar_bw_flits_per_cycle: cfg.crossbar_bw_flits_per_cycle,
            cc: switch_cc,
        };

        // ---- links ----
        // For each switch port we create this port's *outgoing* directed
        // link; incoming links are created by the peer's iteration (or by
        // the node loop for injection links). Every cable is two directed
        // links, so `links` (128 B a link) is allocated at its final
        // length. `link_dst` (8 B a link) grows by push: allocated up
        // front, it measured a 3x slower traffic-generator build at 64
        // nodes, a glibc heap-placement effect.
        let num_links = 2 * topo.num_cables();
        let mut links: Vec<Link> = Vec::with_capacity(num_links);
        let mut link_dst: Vec<LinkDst> = Vec::new();
        let mut out_link: Vec<Vec<Option<LinkId>>> = Vec::with_capacity(num_switches);
        let mut in_link: Vec<Vec<Option<LinkId>>> = Vec::with_capacity(num_switches);
        for s in topo.switch_ids() {
            let n_ports = topo.switch(s).num_ports();
            out_link.push(vec![None; n_ports]);
            in_link.push(vec![None; n_ports]);
        }
        let mut inject_link: Vec<Option<LinkId>> = vec![None; num_nodes];
        let mut recv_link: Vec<Option<LinkId>> = vec![None; num_nodes];
        let node_sink_credits = 4 * switch_ram_flits.max(1024);

        let push_link = |links: &mut Vec<Link>,
                         link_dst: &mut Vec<LinkDst>,
                         params: ccfit_topology::LinkParams,
                         dst: LinkDst,
                         credits: u32| {
            let id = LinkId(links.len() as u32);
            links.push(Link::new(
                LinkConfig {
                    bw_flits_per_cycle: params.bw_flits_per_cycle,
                    delay_cycles: params.delay_cycles,
                },
                credits,
            ));
            link_dst.push(dst);
            id
        };

        for s in topo.switch_ids() {
            for p in topo.switch(s).connected() {
                let (peer, params) = topo.peer(s, p).expect("connected");
                match peer {
                    Endpoint::Switch(t, q) => {
                        let id = push_link(
                            &mut links,
                            &mut link_dst,
                            params,
                            LinkDst::SwitchIn(t, q),
                            switch_ram_flits,
                        );
                        out_link[s.index()][p.index()] = Some(id);
                        in_link[t.index()][q.index()] = Some(id);
                    }
                    Endpoint::Node(n) => {
                        // switch -> node (reception)
                        let id = push_link(
                            &mut links,
                            &mut link_dst,
                            params,
                            LinkDst::NodeRecv(n),
                            node_sink_credits,
                        );
                        out_link[s.index()][p.index()] = Some(id);
                        recv_link[n.index()] = Some(id);
                        // node -> switch (injection)
                        let id = push_link(
                            &mut links,
                            &mut link_dst,
                            params,
                            LinkDst::SwitchIn(s, p),
                            switch_ram_flits,
                        );
                        inject_link[n.index()] = Some(id);
                        in_link[s.index()][p.index()] = Some(id);
                    }
                }
            }
        }

        debug_assert_eq!(links.len(), num_links, "two directed links per cable");
        let inject_link: Vec<LinkId> = inject_link
            .into_iter()
            .map(|l| l.expect("every node has an injection link"))
            .collect();
        let recv_link: Vec<LinkId> = recv_link
            .into_iter()
            .map(|l| l.expect("every node has a reception link"))
            .collect();

        // Sender of each directed link: every switch out-link (trunk or
        // reception) is transmitted by that switch, injection links by
        // their node. Phase-4 ctrl consumers are derived from this
        // (ctrl events travel to the sender).
        let mut link_src: Vec<Option<LinkSrc>> = vec![None; links.len()];
        for s in topo.switch_ids() {
            for l in out_link[s.index()].iter().flatten() {
                link_src[l.index()] = Some(LinkSrc::Switch(s.0));
            }
        }
        for (n, l) in inject_link.iter().enumerate() {
            link_src[l.index()] = Some(LinkSrc::Node(n as u32));
        }
        let link_src: Vec<LinkSrc> = link_src
            .into_iter()
            .map(|s| s.expect("every link has a sender"))
            .collect();

        // ---- VOQnet per-destination reserved credits ----
        let voqnet = voqnet_queue_flits.map(|queue_flits| {
            let mut vn = VoqNetCredits::new(links.len(), num_nodes, queue_flits);
            for (li, dst) in link_dst.iter().enumerate() {
                if matches!(dst, LinkDst::SwitchIn(..)) {
                    for d in 0..num_nodes {
                        vn.set(li as u32, d as u32, queue_flits);
                    }
                }
            }
            vn
        });

        // ---- switches ----
        let mut switches: Vec<Switch> = topo
            .switch_ids()
            .map(|s| {
                let n_ports = topo.switch(s).num_ports();
                let wiring: Vec<(Option<LinkId>, Option<LinkId>)> = (0..n_ports)
                    .map(|p| (in_link[s.index()][p], out_link[s.index()][p]))
                    .collect();
                Switch::new(
                    s,
                    switch_cfg.clone(),
                    &wiring,
                    num_nodes,
                    seeds.rng("marking", s.index() as u64),
                )
            })
            .collect();
        // Cache each output's link bandwidth on the switch (read by the
        // starvation detector without touching the link array).
        for sw in switches.iter_mut() {
            for p in 0..sw.outputs.len() {
                if let Some(l) = sw.outputs[p].out_link {
                    sw.set_output_link_bw(p, links[l.index()].config().bw_flits_per_cycle);
                }
            }
        }

        // ---- adapters ----
        let adapter_thr = mech
            .throttle()
            .map(|t| AdapterThrottle::from_params(t, &units));
        let adapters: Vec<Adapter> = topo
            .node_ids()
            .map(|n| {
                let (_, _, params) = topo.node_attachment(n);
                let acfg = AdapterCfg {
                    iso: mech.isolation().copied(),
                    thr: adapter_thr.clone(),
                    mtu_flits,
                    out_ram_flits: ram_flits,
                    advoq_cap_flits: cfg.advoq_cap_mtus * mtu_flits,
                    nfq_gate_flits: NFQ_GATE_MTUS * mtu_flits,
                    per_dest_output: voqnet_queue_flits.is_some(),
                    dcqcn: dcqcn_cfg.clone(),
                    hpcc: hpcc_cfg.clone(),
                    data_overhead_bytes: mech.hpcc_params().map_or(0, |p| p.int_overhead_bytes),
                };
                Adapter::new(
                    n,
                    acfg,
                    inject_link[n.index()],
                    params.bw_flits_per_cycle,
                    num_nodes,
                )
            })
            .collect();

        // ---- traffic ----
        let gens = pattern.build_generators(
            num_nodes,
            &units,
            |n| topo.node_attachment(n).2.bw_flits_per_cycle,
            &seeds,
        );

        let mut metrics = MetricsCollector::new(units, cfg.metrics_bin_ns);
        if let Some(ec) = cfg.events {
            metrics.enable_events(ec);
        }
        if !pattern.sized.is_empty() {
            let goals = pattern
                .sized
                .iter()
                .map(|f| FlowGoal {
                    id: f.id,
                    label: f.label.clone(),
                    bytes: f.bytes,
                    // The start the source generator actually observes:
                    // its activation cycle, back in ns. Using the raw
                    // (un-quantized) start_ns could make slowdown dip
                    // below 1 by a fraction of a cycle.
                    start_ns: units.cycles_to_ns(units.ns_to_cycles(f.start_ns)),
                    ideal_ns: units.cycles_to_ns(ideal_fct_cycles(&topo, &routing, &units, f)),
                    priority: f.priority,
                })
                .collect();
            metrics.track_flows(goals);
        }
        let end = units.ns_to_cycles(cfg.duration_ns);

        let faults = faults.map(|schedule| FaultRuntime::new(schedule, &topo));
        let cc_wire = dcqcn_cfg.is_some() || hpcc_cfg.is_some();

        // ---- work-list scheduler state (DESIGN.md §12) ----
        // Seed-all at cycle 0: every component proves itself quiet once
        // before dropping off the work-lists.
        let mut act_links = ccfit_engine::ActiveSet::new(links.len());
        let mut act_sw = ccfit_engine::ActiveSet::new(num_switches);
        let mut act_nodes = ccfit_engine::ActiveSet::new(num_nodes);
        act_links.fill_all();
        act_sw.fill_all();
        act_nodes.fill_all();

        Simulator {
            cfg,
            topo,
            routing,
            mech,
            pattern,
            switches,
            adapters,
            gens,
            links,
            link_dst,
            voqnet,
            metrics,
            release_q: CalendarQueue::new(),
            becn_q: BinaryHeap::new(),
            num_nodes,
            delivery_scratch: Vec::new(),
            release_scratch: Vec::new(),
            seq: 0,
            now: 0,
            end,
            next_packet_id: 0,
            injected: 0,
            inject_link,
            recv_link,
            node_sink_credits,
            faults,
            cc_wire,
            link_src,
            act_links,
            act_sw,
            act_sw_next: ccfit_engine::ActiveSet::new(num_switches),
            act_nodes,
            act_nodes_next: ccfit_engine::ActiveSet::new(num_nodes),
            ctrl_sw: ccfit_engine::ActiveSet::new(num_switches),
            ctrl_nodes: ccfit_engine::ActiveSet::new(num_nodes),
            node_wake: BinaryHeap::new(),
            sw_wake: BinaryHeap::new(),
            act_stats: ActiveSetStats::default(),
        }
    }

    /// The mechanism under simulation.
    pub fn mechanism(&self) -> &Mechanism {
        &self.mech
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Final cycle (exclusive).
    pub fn end_cycle(&self) -> Cycle {
        self.end
    }

    /// Data packets admitted into adapters so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Data packets delivered to their destinations so far.
    pub fn delivered(&self) -> u64 {
        self.metrics.delivered_packets()
    }

    /// Data packets currently buffered in adapters, switches, or on
    /// links — the conservation counterpart of
    /// `injected() - delivered()`. In-band BECNs are excluded (they are
    /// control traffic, not workload).
    pub fn resident_packets(&self) -> usize {
        self.adapters
            .iter()
            .map(|a| a.resident_packets())
            .sum::<usize>()
            + self
                .switches
                .iter()
                .map(|s| s.resident_data_packets())
                .sum::<usize>()
            + self
                .links
                .iter()
                .map(|l| l.in_flight_data_count())
                .sum::<usize>()
    }

    /// CFQs currently allocated network-wide (scalability introspection;
    /// a recount over every switch's ports).
    pub fn cfqs_allocated(&self) -> usize {
        self.switches.iter().map(|s| s.cfqs_allocated()).sum()
    }

    /// Live access to a metrics counter. `cfq_exhausted` includes the
    /// cycles of the exhaustion episodes still open, so a mid-run read
    /// counts every port-cycle spent exhausted so far, as the report will.
    pub fn counter(&self, name: &str) -> u64 {
        let open: u64 = match name {
            "cfq_exhausted" => self
                .switches
                .iter()
                .map(|s| s.open_exhaustion_cycles(self.now))
                .sum(),
            _ => 0,
        };
        self.metrics.counter(name) + open
    }

    /// BECN transit time from `from` to `to` over the routing in force:
    /// one propagation delay plus one flit serialization per hop (CNPs
    /// are single-flit priority packets riding the NFQ path; see
    /// DESIGN.md §3).
    fn becn_delay(&self, from: NodeId, to: NodeId) -> Cycle {
        let hops = self
            .routing
            .trace(&self.topo, from, to)
            .map_or(1, |p| p.len());
        hops as Cycle * 2 + 1
    }

    /// Advance the clock through one pass of the phase pipeline: one
    /// cycle, or — when every work-list drained — straight to the next
    /// pending event.
    pub fn tick(&mut self) {
        self.cycle::<false>(None);
    }

    /// [`Self::tick`] with a per-phase wall-time breakdown accumulated
    /// into `prof` (the benchmark's traced mode). Identical
    /// results; the only extra work is one monotonic-clock read per
    /// phase.
    pub fn tick_profiled(&mut self, prof: &mut PhaseProfile) {
        prof.ticks += 1;
        self.cycle::<false>(Some(prof));
    }

    /// Advance exactly one cycle in **reference (oracle) mode**: the
    /// same pipeline as [`Self::tick`] with every scheduling shortcut
    /// switched off — all three work-lists are re-filled at the top of
    /// the cycle, every switch and adapter polls its control channel,
    /// every switch and adapter
    /// forgets what it memoised last cycle (`Switch::drop_memos`,
    /// `Adapter::drop_memos`), nothing ever parks and the clock never
    /// jumps. The engine is only allowed shortcuts that
    /// are provably no-ops, so reports must be byte-identical to this
    /// walk; the determinism suite, `integration_scale` and the
    /// proptests compare against it. Deliberately not reachable from
    /// [`SimConfig`], the orchestrator or any CLI.
    pub fn tick_reference(&mut self) {
        self.cycle::<true>(None);
    }

    /// Run to the end of the configured duration in reference mode (see
    /// [`Self::tick_reference`]); the oracle counterpart of
    /// [`Self::run_to_end`].
    pub fn run_reference(&mut self) {
        while self.now < self.end {
            self.tick_reference();
        }
    }

    /// The phase pipeline (DESIGN.md §6) — the only place the cycle's
    /// phase order is written down. Each phase walks a work-list of
    /// components that *may* act, maintained by the events that can
    /// activate them; every stage of a member's tick returns early on
    /// what it has nothing to do for, so a conservative (stale) member
    /// is a no-op.
    ///
    /// Activation rules (who inserts whom):
    /// * `act_links` — senders: switch transmits (data phase 6, ctrl
    ///   phase 5) via `Switch::drain_touched_links`, adapter ticks
    ///   (the injection link), credit returns in `drain_releases`. Links
    ///   leave the set when idle (nothing in flight, no pending
    ///   credits/ctrl).
    /// * `act_sw` — deliveries (phase 3), ctrl consumers (phase 4),
    ///   expired park bounds (`sw_wake`), plus a carry while the switch
    ///   cannot bound its own idleness (`carry_switch`).
    /// * `act_nodes` — feedback delivered to the node or owed by it
    ///   (phase 3), ctrl on the injection link (phase 4), output-RAM
    ///   releases (phase 1), BECN arrivals (phase 7), expired park bounds
    ///   (`node_wake`), plus a carry while the adapter cannot bound its
    ///   own idleness or the generator has an offer still to make
    ///   (`park_or_carry`). A generator merely accruing tokens parks at a
    ///   lower bound of its next emission and replays the skipped
    ///   accrual on wake (see `NodeGenerator::next_park_wake`).
    /// * fault events re-activate everything (`activate_all`).
    ///
    /// The park rule rests on one invariant: every writer of state a
    /// park bound depends on runs inside the component's own tick, or
    /// arrives with one of the activations above.
    ///
    /// `ORACLE` selects the reference mode of [`Self::tick_reference`].
    fn cycle<const ORACLE: bool>(&mut self, mut prof: Option<&mut PhaseProfile>) {
        let now = self.now;
        let mut timer = PhaseTimer::start(prof.is_some());

        if ORACLE {
            self.activate_all();
        } else {
            // Wake the parked components whose bound expires now. A
            // stale (superseded) entry wakes its component into a no-op
            // tick — harmless.
            for (wake, act) in [
                (&mut self.sw_wake, &mut self.act_sw),
                (&mut self.node_wake, &mut self.act_nodes),
            ] {
                while let Some(&Reverse((at, id))) = wake.peek() {
                    if at > now {
                        break;
                    }
                    wake.pop();
                    act.insert(id);
                }
            }
            #[cfg(debug_assertions)]
            self.assert_work_list_invariants(now);
        }

        // Phase 0: dynamic network events (fault injection) and pending
        // routing recomputations. They re-activate the whole network.
        if self.faults.is_some() {
            self.apply_fault_events(now);
        }
        timer.lap(&mut prof, 0);

        // Phase 1: scheduled RAM releases + credit returns; the credited
        // links join `act_links` so phase 2 absorbs them this cycle.
        self.drain_releases(now);
        timer.lap(&mut prof, 1);

        // Phase 2: senders absorb returned credits. Sorted so phases
        // 2–4 walk links in ascending order; later phases only append,
        // past `n_links_act`.
        self.act_links.sort();
        let n_links_act = self.act_links.len();
        for i in 0..n_links_act {
            let li = self.act_links.member(i) as usize;
            self.links[li].poll_credits(now);
        }
        timer.lap(&mut prof, 2);

        // Phase 3: link deliveries, in ascending link order.
        let mut deliveries = std::mem::take(&mut self.delivery_scratch);
        for i in 0..n_links_act {
            let li = self.act_links.member(i) as usize;
            if !self.links[li].has_delivery(now) {
                continue;
            }
            deliveries.clear();
            self.links[li].deliver_into(now, &mut deliveries);
            match self.link_dst[li] {
                LinkDst::SwitchIn(s, p) => {
                    // A delivery activates the receiving switch for this
                    // cycle's phases 5/6.
                    self.act_sw.insert(s.0);
                    for d in deliveries.drain(..) {
                        // Fault guard: a packet already on a healthy
                        // link when a fault orphaned its destination
                        // arrives with a destination the routing in
                        // force cannot deliver — consume it here rather
                        // than forward it down a stale route.
                        if let Some(frt) = self.faults.as_mut() {
                            if frt.arrival_is_undeliverable(s, d.packet.dst) {
                                frt.note_purged(d.packet.is_data());
                                self.links[li].return_credits(d.ready_at, d.packet.size_flits);
                                if let Some(vn) = self.voqnet.as_mut() {
                                    vn.add(li as u32, d.packet.dst.0, d.packet.size_flits);
                                }
                                continue;
                            }
                        }
                        self.switches[s.index()].accept_delivery(p.index(), d, &self.routing);
                    }
                }
                LinkDst::NodeRecv(n) => {
                    for d in deliveries.drain(..) {
                        // `deliver_to_node` activates the node.
                        self.deliver_to_node(n, li, d);
                    }
                }
            }
        }
        self.delivery_scratch = deliveries;
        timer.lap(&mut prof, 3);

        // Phase 4 prep: ctrl consumers are the *senders* of links
        // carrying a due ctrl event (Stop/Go/alloc travel upstream). A
        // component without such a link provably does nothing in its
        // poll (the polls early-return without pending ctrl and emit
        // nothing). Consumers are conservatively activated for phases
        // 5/6/8 too: absorbed ctrl (Stop, CFQ alloc, CNP/ACK) feeds
        // switch isolation state and can un-quiet an adapter.
        if ORACLE {
            self.ctrl_sw.fill_all();
            self.ctrl_nodes.fill_all();
        } else {
            self.derive_ctrl_sets(now);
        }
        for i in 0..self.ctrl_sw.len() {
            self.act_sw.insert(self.ctrl_sw.member(i));
        }
        for i in 0..self.ctrl_nodes.len() {
            self.act_nodes.insert(self.ctrl_nodes.member(i));
        }
        self.act_sw.sort();
        let n_sw_act = self.act_sw.len();

        // Phases 4–6: control polling, isolation, then congestion state
        // + arbitration per switch. Isolation runs for every member
        // before any congestion-state refresh: it writes ctrl onto
        // in-links whose credits the far switch's refresh reads.
        // Afterwards every member hands over the links it sent on and
        // stays on the list or parks (`carry_switch`).
        for i in 0..self.ctrl_sw.len() {
            let s = self.ctrl_sw.member(i) as usize;
            self.switches[s].poll_output_ctrl(now, &mut self.links, &mut self.metrics);
        }
        for i in 0..self.ctrl_nodes.len() {
            let n = self.ctrl_nodes.member(i) as usize;
            self.adapters[n].poll_ctrl(now, &mut self.links, &mut self.metrics);
        }
        timer.lap(&mut prof, 4);

        // Phase 5a: post-processing (detection, isolation, Stop/Go,
        // deallocation). Every stage of a member's tick returns early on
        // what it has nothing to do for. The oracle also has every switch
        // forget what it memoised last cycle, so the shortcuts *inside* a
        // switch are compared against a re-derivation here, not only by
        // their `debug_assert!`s.
        for i in 0..n_sw_act {
            let si = self.act_sw.member(i) as usize;
            if ORACLE {
                self.switches[si].drop_memos();
            }
            self.switches[si].isolation_tick(
                now,
                &self.routing,
                &mut self.links,
                &mut self.metrics,
            );
        }
        timer.lap(&mut prof, 5);

        // Phase 5b + 6: congestion-state update, then crossbar
        // scheduling and transmission.
        let mut releases = std::mem::take(&mut self.release_scratch);
        for i in 0..n_sw_act {
            let si = self.act_sw.member(i) as usize;
            self.switches[si].congestion_state_tick(now, &self.links, &mut self.metrics);
            releases.clear();
            self.switches[si].arbitrate_and_transmit(
                now,
                &self.routing,
                &mut self.links,
                self.voqnet.as_mut(),
                &mut self.metrics,
                &mut releases,
            );
            for r in releases.drain(..) {
                self.push_switch_release(si as u32, r);
            }
            self.carry_switch::<ORACLE>(si, now);
        }
        self.release_scratch = releases;
        timer.lap(&mut prof, 6);

        // Phase 7: BECN arrivals throttle their sources (and activate
        // them for this cycle's phase 8).
        self.drain_becns(now);
        timer.lap(&mut prof, 7);

        // Phase 8: traffic generation, then adapter arbitration and
        // injection. Generation draws seeded randomness and allocates
        // global packet ids — strictly node order; a generator with no
        // flow in its active window injects nothing and draws no
        // randomness. A node's adapter ticks right after its own
        // generator, while the node is still in cache (a separate
        // generator pass measured +7 % or more on this phase).
        // Afterwards every member stays on the list or parks
        // (`park_or_carry`).
        self.act_nodes.sort();
        let n_nodes_act = self.act_nodes.len();
        for i in 0..n_nodes_act {
            let n = self.act_nodes.member(i) as usize;
            self.gen_node(n, now);
            if ORACLE {
                self.adapters[n].drop_memos();
            }
            let adapter = &mut self.adapters[n];
            let voqnet = self.voqnet.as_mut();
            if let Some(rel) = adapter.tick(now, &mut self.links, voqnet, &mut self.metrics) {
                self.push_node_release(n as u32, rel);
            }
            // A ticked adapter may have sent on its injection link.
            self.act_links.insert(self.inject_link[n].0);
            self.park_or_carry::<ORACLE>(n, now);
        }
        timer.lap(&mut prof, 8);

        self.act_stats.record(n_sw_act, n_nodes_act, n_links_act);

        // Swap in next cycle's work-lists and retire idle links.
        std::mem::swap(&mut self.act_sw, &mut self.act_sw_next);
        self.act_sw_next.clear();
        std::mem::swap(&mut self.act_nodes, &mut self.act_nodes_next);
        self.act_nodes_next.clear();
        let links = &self.links;
        self.act_links.retain(|li| !links[li as usize].is_idle());

        self.now = if ORACLE {
            now + 1
        } else {
            self.jump_target(now)
        };
        timer.lap(&mut prof, 9);
    }

    /// End of phase 6 for an active switch: activate the links it sent
    /// on (ctrl in phase 5 or data in phase 6), then keep it on the
    /// work-list only if it might act next cycle. A switch that has
    /// proved every stage of its tick idle until a named cycle
    /// (`Switch::park_bound`) leaves the list and parks on `sw_wake`
    /// until then; the events that can end the bound early — a delivery,
    /// control on an output link, a fault — all activate it. The oracle
    /// never parks, so `sw_wake` stays empty under it.
    fn carry_switch<const ORACLE: bool>(&mut self, si: usize, now: Cycle) {
        self.switches[si].drain_touched_links(&mut self.act_links);
        match self.switches[si].park_bound() {
            Some(until) if !ORACLE && until > now + 1 => {
                if until != Cycle::MAX {
                    self.sw_wake.push(Reverse((until, si as u32)));
                }
            }
            _ => {
                self.act_sw_next.insert(si as u32);
            }
        }
    }

    /// End of phase 8 for an active node. It stays on the work-list
    /// only if it might act next cycle: its adapter cannot bound its own
    /// idleness (`Adapter::park_bound`), or its generator has a full
    /// packet banked that it has yet to offer. Otherwise it parks until
    /// the earlier of the adapter's bound — a CC-timer deadline, an
    /// AdVOQ head's IRD gap, the injection link's transmitter — and a
    /// conservative lower bound of the generator's next emission, whose
    /// skipped accrual cycles are replayed on wake
    /// (`NodeGenerator::next_park_wake`). A generator whose packet the
    /// adapter just refused waits for the adapter, so the adapter's bound
    /// covers it. The oracle never parks: it visits every node every
    /// cycle, so `node_wake` stays empty.
    fn park_or_carry<const ORACLE: bool>(&mut self, n: usize, now: Cycle) {
        if !ORACLE {
            let link = &self.links[self.inject_link[n].index()];
            let sink_awaited = self.gens[n].refused_offers(now).next().is_some();
            let bound = self.adapters[n]
                .park_bound(now, link, sink_awaited)
                .and_then(|a| Some(a.min(self.gens[n].next_park_wake(now)?)));
            if let Some(at) = bound.filter(|&at| at > now + 1) {
                if at != Cycle::MAX {
                    self.node_wake.push(Reverse((at, n as u32)));
                }
                return;
            }
        }
        self.act_nodes_next.insert(n as u32);
    }

    fn push_switch_release(&mut self, sw: u32, r: crate::switch::PendingRelease) {
        self.release_q.push(
            r.at,
            Release::SwitchPort {
                sw,
                port: r.port as u16,
                flits: r.flits,
                dst: r.dst.0,
            },
        );
    }

    fn push_node_release(&mut self, node: u32, rel: crate::endnode::AdapterRelease) {
        self.release_q.push(
            rel.at,
            Release::Node {
                node,
                flits: rel.flits,
            },
        );
    }

    /// Fill `ctrl_sw` / `ctrl_nodes` with the senders of active links
    /// carrying a control event due at `now`, sorted ascending.
    fn derive_ctrl_sets(&mut self, now: Cycle) {
        let mut ctrl_sw = std::mem::take(&mut self.ctrl_sw);
        let mut ctrl_nodes = std::mem::take(&mut self.ctrl_nodes);
        ctrl_sw.clear();
        ctrl_nodes.clear();
        for &li in self.act_links.members() {
            if !self.links[li as usize].has_ctrl(now) {
                continue;
            }
            match self.link_src[li as usize] {
                LinkSrc::Switch(s) => {
                    ctrl_sw.insert(s);
                }
                LinkSrc::Node(n) => {
                    ctrl_nodes.insert(n);
                }
            }
        }
        ctrl_sw.sort();
        ctrl_nodes.sort();
        self.ctrl_sw = ctrl_sw;
        self.ctrl_nodes = ctrl_nodes;
    }

    /// Where the clock may jump to after a cycle. Non-empty work-lists
    /// mean `now + 1`. Empty ones mean every component is provably
    /// unable to act before its next pending event (carries keep every
    /// switch and node that might act next cycle in the sets, and
    /// non-members satisfy the debug invariant) — parking lets the lists
    /// drain even mid-flow, between emissions and while packets are
    /// merely in transit — so nothing observable can happen before the
    /// earliest of: the next scheduled RAM release or out-of-band BECN,
    /// the next in-flight link event, the next parked wake-up
    /// (`node_wake` / `sw_wake` hold a conservative lower bound of every
    /// parked component's next action; an early landing is a no-op tick
    /// that re-jumps), and the next fault event or re-route. With none
    /// of these pending the jump lands on `end`, so runs terminate on
    /// exactly the cycle the oracle does.
    fn jump_target(&self, now: Cycle) -> Cycle {
        let step = now + 1;
        if !self.act_sw.is_empty() || !self.act_nodes.is_empty() {
            return step;
        }
        let mut target = self.end;
        if let Some(at) = self.release_q.next_at() {
            target = target.min(at);
        }
        if let Some(&Reverse((at, _, _, _))) = self.becn_q.peek() {
            target = target.min(at);
        }
        for &li in self.act_links.members() {
            if let Some(at) = self.links[li as usize].next_event_at() {
                target = target.min(at);
            }
        }
        for wake in [&self.node_wake, &self.sw_wake] {
            if let Some(&Reverse((at, _))) = wake.peek() {
                target = target.min(at);
            }
        }
        if let Some(frt) = &self.faults {
            if let Some(ev) = frt.schedule.events().get(frt.next) {
                target = target.min(ev.at);
            }
            if let Some(at) = frt.routing_update_at {
                target = target.min(at);
            }
        }
        target.max(step)
    }

    /// Debug-mode conservativeness cross-check: at the top of a cycle,
    /// every component *not* on its work-list must be provably unable
    /// to act before something re-inserts it. A violation means an
    /// activation rule missed an event, or a park bound outlived the
    /// state it was derived from. The bounds are re-derived here from
    /// the queues themselves — a fresh arbitration gather and
    /// `quiet_until` per live port for a switch, `head_fate` over the
    /// backlogged AdVOQs for an adapter — not read back from the memos
    /// the park decision trusted.
    #[cfg(debug_assertions)]
    fn assert_work_list_invariants(&self, now: Cycle) {
        let earliest = |wakes: &BinaryHeap<Reverse<(Cycle, u32)>>, n: usize| {
            let mut first = vec![Cycle::MAX; n];
            for &Reverse((at, id)) in wakes {
                first[id as usize] = first[id as usize].min(at);
            }
            first
        };
        let sw_wake = earliest(&self.sw_wake, self.switches.len());
        let node_wake = earliest(&self.node_wake, self.adapters.len());
        let links = &self.links;
        for (i, sw) in self.switches.iter().enumerate() {
            // `is_quiescent` first: it recounts every switch's live-port
            // state, the work-list members' included.
            if sw.is_quiescent() || self.act_sw.contains(i as u32) {
                continue;
            }
            // A parked switch does nothing before its bound, and a wake
            // entry is pending by the time a finite bound expires.
            let bound = sw.park_bound_rederived(now, &self.routing, links, self.voqnet.as_ref());
            debug_assert!(
                bound.is_some_and(|until| until > now && sw_wake[i] <= until),
                "switch {i} is not in act_sw at cycle {now} with bound {bound:?} and wake {}",
                sw_wake[i]
            );
        }
        for (i, a) in self.adapters.iter().enumerate() {
            // `is_quiet` recounts every adapter's mirrors, the members' too.
            let _ = a.is_quiet();
            if self.act_nodes.contains(i as u32) {
                continue;
            }
            // Likewise a non-member node: the adapter's bound stands, and
            // the generator is inert, waits for the adapter, or has a
            // wake entry pending for its next action.
            let mut refused = self.gens[i].refused_offers(now).peekable();
            let inject_link = &links[self.inject_link[i].index()];
            let bound = a.park_bound_rederived(now, inject_link, refused.peek().is_some());
            let gen_wake = self.gens[i].next_park_wake(now);
            let gen_ok = match gen_wake {
                None => false,
                Some(Cycle::MAX) => true,
                Some(_) => node_wake[i] != Cycle::MAX,
            };
            debug_assert!(
                gen_ok && bound.is_some_and(|until| until > now && node_wake[i] <= until),
                "node {i} is not in act_nodes at cycle {now} with bound {bound:?}, \
                 generator wake {gen_wake:?} and wake entry {}",
                node_wake[i]
            );
            debug_assert!(
                !refused.any(|gp| a.admits(&gp)),
                "node {i} sits out cycle {now} on a refusal that no longer stands"
            );
        }
        for (i, l) in links.iter().enumerate() {
            debug_assert!(
                self.act_links.contains(i as u32) || l.is_idle(),
                "link {i} has events in flight but is not in act_links at cycle {now}"
            );
        }
    }

    /// Re-activate every component (fault events can purge, reroute or
    /// restore arbitrary hardware; everything re-proves quietness).
    fn activate_all(&mut self) {
        self.act_links.fill_all();
        self.act_sw.fill_all();
        self.act_nodes.fill_all();
    }

    /// Active-set occupancy statistics, one record per pipeline pass.
    pub fn active_set_stats(&self) -> ActiveSetStats {
        self.act_stats
    }

    /// Phase 1: apply every RAM release / credit return due at `now`.
    fn drain_releases(&mut self, now: Cycle) {
        while let Some((_, rel)) = self.release_q.pop_due(now) {
            match rel {
                Release::SwitchPort {
                    sw,
                    port,
                    flits,
                    dst,
                } => {
                    let sw_idx = sw as usize;
                    let port_idx = port as usize;
                    self.switches[sw_idx].release_ram(port_idx, flits);
                    if let Some(link) = self.switches[sw_idx].inputs[port_idx].in_link {
                        self.links[link.index()].return_credits(now, flits);
                        // The credited link must be polled by this
                        // cycle's phase 2 (credits absorb same-cycle).
                        self.act_links.insert(link.0);
                        if let Some(vn) = self.voqnet.as_mut() {
                            vn.add(link.0, dst, flits);
                        }
                    }
                }
                Release::Node { node, flits } => {
                    // Freed output RAM can release an AdVOQ head a parked
                    // adapter holds; a quiet adapter holds none.
                    let adapter = &mut self.adapters[node as usize];
                    adapter.release_ram(flits);
                    if !adapter.is_quiet() {
                        self.act_nodes.insert(node);
                    }
                }
            }
        }
    }

    /// Phase 7: BECN arrivals throttle their sources.
    fn drain_becns(&mut self, now: Cycle) {
        while let Some(&Reverse((at, _, congested_dst, node))) = self.becn_q.peek() {
            if at > now {
                break;
            }
            self.becn_q.pop();
            // A throttle update can arm timers / stretch gaps: the node
            // must run this cycle's phase 8.
            self.act_nodes.insert(node);
            self.adapters[node as usize].on_becn(now, NodeId(congested_dst), &mut self.metrics);
        }
    }

    /// Phase 8a: run node `n`'s traffic generator against its adapter's
    /// admittance logic.
    fn gen_node(&mut self, n: usize, now: Cycle) {
        let adapter = &mut self.adapters[n];
        let next_packet_id = &mut self.next_packet_id;
        let injected = &mut self.injected;
        let faults = &mut self.faults;
        let metrics = &mut self.metrics;
        let cc_wire = self.cc_wire;
        let data_overhead = self.mech.hpcc_params().map_or(0, |p| p.int_overhead_bytes);
        let mut sink = |gp: GenPacket| {
            // Fault guard: a source never stalls on a currently
            // unreachable destination — the packet is consumed
            // (counted as refused) but not injected.
            if let Some(frt) = faults.as_mut() {
                if frt.pair_unreachable(n, gp.dst) {
                    frt.packets_refused += 1;
                    return true;
                }
            }
            let id = PacketId(*next_packet_id);
            if adapter.try_inject(now, gp, id) {
                *next_packet_id += 1;
                *injected += 1;
                if cc_wire {
                    metrics.count(
                        "wire_bytes_injected",
                        u64::from(gp.size_bytes) + u64::from(data_overhead),
                    );
                }
                true
            } else {
                false
            }
        };
        self.gens[n].tick(now, &mut sink);
    }

    /// Phase 0: apply every scheduled event due at `now`, then any
    /// pending routing recomputation. The runtime is temporarily moved
    /// out of `self` so event application can borrow the rest of the
    /// simulator freely.
    fn apply_fault_events(&mut self, now: Cycle) {
        let mut frt = self.faults.take().expect("caller checked");
        let applied_before = frt.events_applied;
        let reroutes_before = frt.reroutes;
        while let Some(ev) = frt.schedule.events().get(frt.next).copied() {
            if ev.at > now {
                break;
            }
            frt.next += 1;
            let before = frt.events_applied;
            self.apply_network_event(now, &mut frt, ev.event);
            // Skipped events (stale schedule entries) are not logged —
            // they changed nothing.
            if frt.events_applied > before {
                let kind = match ev.event {
                    NetworkEvent::LinkDown { .. } => FaultKind::LinkDown,
                    NetworkEvent::LinkUp { .. } => FaultKind::LinkUp,
                    NetworkEvent::SwitchDown { .. } => FaultKind::SwitchDown,
                    NetworkEvent::SwitchUp { .. } => FaultKind::SwitchUp,
                };
                let (sw, port) = ev.event.target();
                self.metrics.record(
                    now,
                    CcEventKind::Fault {
                        kind,
                        sw: sw.0,
                        port: port.map_or(0, |p| p.index() as u32),
                    },
                );
            }
        }
        if frt.routing_update_at.is_some_and(|t| t <= now) {
            frt.routing_update_at = None;
            self.complete_reroute(now, &mut frt);
        }
        let changed = frt.events_applied != applied_before || frt.reroutes != reroutes_before;
        self.faults = Some(frt);
        if changed {
            // Events and re-route completions purge RAM / reset links /
            // re-route packets outside the phase loops: re-activate
            // everything. A link that failed under a head turns
            // "transmitter busy until T" into "down until repaired", so
            // every switch also re-derives what its bounds rest on.
            self.activate_all();
            for sw in &mut self.switches {
                sw.drop_memos();
            }
        }
    }

    fn apply_network_event(&mut self, now: Cycle, frt: &mut FaultRuntime, event: NetworkEvent) {
        match event {
            NetworkEvent::LinkDown { switch: s, port: p } => {
                let Some((Endpoint::Switch(os, op), _)) = self.topo.peer(s, p) else {
                    // Already down, or a node cable (validation rejects
                    // the latter up front, but a hand-built schedule
                    // could still race a switch failure).
                    frt.events_skipped += 1;
                    return;
                };
                if frt.is_switch_down(s) || frt.is_switch_down(os) {
                    frt.events_skipped += 1;
                    return;
                }
                let (_, _, params) = self.topo.remove_cable(s, p).expect("peer verified");
                self.take_cable_down(frt, s, p, os, op);
                frt.down_cables.push(DownCable {
                    s,
                    p,
                    os,
                    op,
                    params,
                    by_switch: false,
                });
                frt.schedule_reroute(now);
                frt.applied(now);
            }
            NetworkEvent::LinkUp { switch: s, port: p } => {
                let Some(i) = frt
                    .down_cables
                    .iter()
                    .position(|c| (c.s, c.p) == (s, p) || (c.os, c.op) == (s, p))
                else {
                    frt.events_skipped += 1;
                    return;
                };
                let c = frt.down_cables[i];
                if frt.is_switch_down(c.s) || frt.is_switch_down(c.os) {
                    // The cable comes back with the switch (`SwitchUp`).
                    frt.events_skipped += 1;
                    return;
                }
                frt.down_cables.remove(i);
                self.topo
                    .restore_cable(c.s, c.p, c.os, c.op, c.params)
                    .expect("recorded from remove_cable");
                self.restore_cable_links(c);
                frt.schedule_reroute(now);
                frt.applied(now);
            }
            NetworkEvent::SwitchDown { switch: sw } => {
                if frt.is_switch_down(sw) {
                    frt.events_skipped += 1;
                    return;
                }
                let ports: Vec<PortId> = self.topo.switch(sw).connected().collect();
                for p in ports {
                    match self.topo.peer(sw, p) {
                        Some((Endpoint::Switch(os, op), _)) => {
                            let (_, _, params) =
                                self.topo.remove_cable(sw, p).expect("peer verified");
                            self.take_cable_down(frt, sw, p, os, op);
                            frt.down_cables.push(DownCable {
                                s: sw,
                                p,
                                os,
                                op,
                                params,
                                by_switch: true,
                            });
                        }
                        Some((Endpoint::Node(n), _)) => {
                            // The node's access links die with the
                            // switch (the node itself is fine — it is
                            // orphaned until `SwitchUp`).
                            let inj = self.inject_link[n.index()].index();
                            let rcv = self.recv_link[n.index()].index();
                            frt.loss.absorb(self.links[inj].fail());
                            frt.loss.absorb(self.links[rcv].fail());
                            if frt.unreachable_since[n.index()].is_none() {
                                frt.unreachable_since[n.index()] = Some(now);
                            }
                        }
                        None => {}
                    }
                }
                // Its buffers and scheduled RAM releases die with it
                // (the upstream credits the releases would have returned
                // are already tallied as lost by the wire cut or will be
                // re-granted on restore from ground-truth RAM occupancy).
                let stats = self.switches[sw.index()].purge_all();
                frt.absorb_purge(stats);
                self.release_q.retain(|rel| {
                    !matches!(rel, Release::SwitchPort { sw: x, .. } if *x == sw.index() as u32)
                });
                frt.down_switches.push(sw);
                frt.schedule_reroute(now);
                frt.applied(now);
            }
            NetworkEvent::SwitchUp { switch: sw } => {
                let Some(i) = frt.down_switches.iter().position(|&d| d == sw) else {
                    frt.events_skipped += 1;
                    return;
                };
                frt.down_switches.remove(i);
                // Reinstall the cables its failure took down, skipping
                // those whose far end is still a dead switch (they come
                // back with *that* switch) and those that had failed
                // individually before the switch died (they need their
                // own `LinkUp`).
                let mut i = 0;
                while i < frt.down_cables.len() {
                    let c = frt.down_cables[i];
                    let other = if c.s == sw {
                        Some(c.os)
                    } else if c.os == sw {
                        Some(c.s)
                    } else {
                        None
                    };
                    match other {
                        Some(o) if c.by_switch && !frt.is_switch_down(o) => {
                            frt.down_cables.remove(i);
                            self.topo
                                .restore_cable(c.s, c.p, c.os, c.op, c.params)
                                .expect("recorded from remove_cable");
                            self.restore_cable_links(c);
                        }
                        _ => i += 1,
                    }
                }
                // Node access links retrain. The switch-side input RAM
                // was purged with the switch, so the fresh grant is its
                // full capacity; nodes stay accounted unreachable until
                // the re-route completes.
                let ports: Vec<PortId> = self.topo.switch(sw).connected().collect();
                for p in ports {
                    if let Some((Endpoint::Node(n), _)) = self.topo.peer(sw, p) {
                        let inj = self.inject_link[n.index()];
                        let rcv = self.recv_link[n.index()].index();
                        let grant = self.switches[sw.index()].inputs[p.index()].ram.free();
                        self.links[inj.index()].restore(grant);
                        self.links[rcv].restore(self.node_sink_credits);
                        self.reset_voqnet_credits(inj, sw, p.index());
                    }
                }
                frt.schedule_reroute(now);
                frt.applied(now);
            }
        }
    }

    /// Cut both directed links of a trunk cable and quiesce the
    /// per-cable protocol state at both ends: the output CAMs mirroring
    /// downstream congestion, and the CFQ alloc/Stop flags that claim
    /// upstream has been notified — all of that state died with the wire
    /// and must re-propagate after a repair.
    fn take_cable_down(
        &mut self,
        frt: &mut FaultRuntime,
        s: SwitchId,
        p: PortId,
        os: SwitchId,
        op: PortId,
    ) {
        let fwd = self.switches[s.index()].outputs[p.index()]
            .out_link
            .expect("cabled");
        let rev = self.switches[os.index()].outputs[op.index()]
            .out_link
            .expect("cabled");
        frt.loss.absorb(self.links[fwd.index()].fail());
        frt.loss.absorb(self.links[rev.index()].fail());
        self.switches[s.index()].clear_output_cam(p.index());
        self.switches[os.index()].clear_output_cam(op.index());
        self.switches[s.index()].reset_upstream_ctrl_flags(p.index());
        self.switches[os.index()].reset_upstream_ctrl_flags(op.index());
    }

    /// Retrain both directed links of a reinstalled trunk cable. The
    /// fresh credit grant is the receiving input port's *current* free
    /// RAM — ground truth, since the credit returns of the downtime were
    /// destroyed while the RAM kept draining.
    fn restore_cable_links(&mut self, c: DownCable) {
        let fwd = self.switches[c.s.index()].outputs[c.p.index()]
            .out_link
            .expect("cabled");
        let rev = self.switches[c.os.index()].outputs[c.op.index()]
            .out_link
            .expect("cabled");
        let fwd_grant = self.switches[c.os.index()].inputs[c.op.index()].ram.free();
        let rev_grant = self.switches[c.s.index()].inputs[c.p.index()].ram.free();
        self.links[fwd.index()].restore(fwd_grant);
        self.links[rev.index()].restore(rev_grant);
        self.reset_voqnet_credits(fwd, c.os, c.op.index());
        self.reset_voqnet_credits(rev, c.s, c.p.index());
    }

    /// VOQnet retrains its per-destination reserved credits alongside
    /// the link-level grant: each destination's remote credit is its
    /// queue reservation minus what is still buffered at the receiver.
    fn reset_voqnet_credits(&mut self, link: LinkId, sw: SwitchId, port: usize) {
        let Some(vn) = self.voqnet.as_mut() else {
            return;
        };
        for d in 0..self.num_nodes {
            let held = self.switches[sw.index()].per_dest_occupancy_flits(port, d);
            vn.set(link.0, d as u32, vn.reservation().saturating_sub(held));
        }
    }

    /// The re-routing latency elapsed: recompute routing tables for the
    /// surviving topology, refresh the reachability snapshot, purge
    /// every buffered packet the new tables cannot deliver, and settle
    /// the availability accounting.
    fn complete_reroute(&mut self, now: Cycle, frt: &mut FaultRuntime) {
        self.routing = RoutingTable::shortest_path(&self.topo);
        let (comp, node_comp) = compute_components(&self.topo, &frt.down_switches);
        frt.comp = comp;
        frt.node_comp = node_comp;
        for n in 0..self.num_nodes {
            if frt.node_comp[n] != u32::MAX {
                if let Some(t0) = frt.unreachable_since[n].take() {
                    frt.unreachable_cycles += now - t0;
                }
            } else if frt.unreachable_since[n].is_none() {
                frt.unreachable_since[n] = Some(now);
            }
        }
        self.purge_unreachable_everywhere(now, frt);
        for si in 0..self.switches.len() {
            if !frt.is_switch_down(SwitchId(si as u32)) {
                self.switches[si].on_routing_changed(&self.routing);
            }
        }
        if let Some(t0) = frt.stale_since.take() {
            frt.stale_cycles += now - t0;
        }
        frt.reroutes += 1;
        frt.last_recovery = now;
        let unreachable = frt.unreachable_since.iter().filter(|s| s.is_some()).count();
        self.metrics.record(
            now,
            CcEventKind::RerouteDone {
                unreachable_nodes: unreachable as u32,
            },
        );
    }

    /// Drop every buffered packet (switch queues and adapter queues)
    /// whose destination the routing now in force cannot deliver,
    /// freeing RAM and returning upstream credits exactly as a normal
    /// departure would.
    fn purge_unreachable_everywhere(&mut self, now: Cycle, frt: &mut FaultRuntime) {
        let mut purged = std::mem::take(&mut frt.switch_purge_scratch);
        for si in 0..self.switches.len() {
            if frt.is_switch_down(SwitchId(si as u32)) {
                continue;
            }
            let swc = frt.comp[si];
            let node_comp = &frt.node_comp;
            purged.clear();
            self.switches[si].purge_unreachable(
                &|d: NodeId| {
                    let dc = node_comp[d.index()];
                    dc == u32::MAX || dc != swc
                },
                &mut purged,
            );
            for (port, e) in purged.drain(..) {
                frt.note_purged(e.packet.is_data());
                if let Some(link) = self.switches[si].inputs[port].in_link {
                    self.links[link.index()].return_credits(now, e.packet.size_flits);
                    if let Some(vn) = self.voqnet.as_mut() {
                        vn.add(link.0, e.packet.dst.0, e.packet.size_flits);
                    }
                }
            }
        }
        frt.switch_purge_scratch = purged;
        let mut scratch = std::mem::take(&mut frt.purge_scratch);
        for n in 0..self.num_nodes {
            let sc = frt.node_comp[n];
            let node_comp = &frt.node_comp;
            // An orphaned source keeps its buffered packets — they can
            // flow again once its switch recovers — except those for
            // destinations that are themselves orphaned.
            let stats = self.adapters[n].purge_unreachable(
                &|d: NodeId| {
                    let dc = node_comp[d.index()];
                    dc == u32::MAX || (sc != u32::MAX && dc != sc)
                },
                &mut scratch,
            );
            frt.absorb_purge(stats);
        }
        frt.purge_scratch = scratch;
    }

    /// Nodes the fault runtime currently counts as unreachable (empty
    /// for fault-free runs).
    pub fn unreachable_nodes(&self) -> Vec<NodeId> {
        self.faults
            .as_ref()
            .map(|frt| {
                frt.unreachable_since
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.is_some())
                    .map(|(n, _)| NodeId(n as u32))
                    .collect()
            })
            .unwrap_or_default()
    }

    fn deliver_to_node(&mut self, node: NodeId, link_idx: usize, d: ccfit_engine::link::Delivery) {
        // Ideal sink: space is freed the moment the tail lands.
        self.links[link_idx].return_credits(d.ready_at, d.packet.size_flits);
        // Feedback that reaches the adapter (BECN/CNP/ACK), or that it has
        // to send (below), changes its state: it must run this cycle's
        // phase 8. A data packet that asks for none leaves it as it was.
        match d.packet.kind {
            ccfit_engine::packet::PacketKind::Becn => {
                // An in-band BECN reached the source it throttles.
                self.act_nodes.insert(node.0);
                self.adapters[node.index()].on_becn(d.ready_at, d.packet.src, &mut self.metrics);
                return;
            }
            ccfit_engine::packet::PacketKind::Cnp => {
                // DCQCN: a CNP reached the reaction point. It moves the
                // rate machine, which only the next move reads — nothing
                // a parked adapter's bound rests on, so no activation.
                self.metrics
                    .count("ctrl_wire_bytes_delivered", d.packet.wire_bytes());
                self.adapters[node.index()].on_cnp(d.ready_at, d.packet.src, &mut self.metrics);
                return;
            }
            ccfit_engine::packet::PacketKind::Ack => {
                // HPCC: the INT echo reached the sender's window machine.
                self.act_nodes.insert(node.0);
                self.metrics
                    .count("ctrl_wire_bytes_delivered", d.packet.wire_bytes());
                self.adapters[node.index()].on_ack(
                    d.ready_at,
                    d.packet.src,
                    d.packet.int_u,
                    d.packet.int_hops,
                    d.packet.ack_bytes,
                    &mut self.metrics,
                );
                return;
            }
            ccfit_engine::packet::PacketKind::Data => {}
        }
        self.metrics.record_delivery(d.ready_at, &d.packet);
        if self.cc_wire {
            // Byte accounting at reception, consistent across data
            // and control traffic: wire = payload + scheme overhead.
            self.metrics
                .count("wire_bytes_delivered", d.packet.wire_bytes());
            self.metrics
                .count("payload_bytes_delivered", u64::from(d.packet.size_bytes));
            self.metrics.count(
                "overhead_bytes_delivered",
                u64::from(d.packet.overhead_bytes),
            );
        }
        self.metrics.record(
            d.ready_at,
            CcEventKind::Delivered {
                node: node.0,
                flow: d.packet.flow.0,
                bytes: d.packet.size_bytes,
                latency_cycles: d.ready_at.saturating_sub(d.packet.injected_at),
                fecn: d.packet.fecn,
            },
        );
        // FECN → BECN (§III-B): the destination returns a congestion
        // notification to the packet's source.
        if d.packet.fecn && self.mech.throttle().is_some() {
            self.metrics.record(
                d.ready_at,
                CcEventKind::BecnGenerated {
                    node: node.0,
                    src: d.packet.src.0,
                },
            );
            match self.cfg.becn_transport {
                BecnTransport::InBand => {
                    let id = PacketId(self.next_packet_id);
                    self.next_packet_id += 1;
                    self.act_nodes.insert(node.0);
                    self.adapters[node.index()].queue_becn(Packet::becn(
                        id,
                        node,
                        d.packet.src,
                        d.ready_at,
                    ));
                }
                BecnTransport::OutOfBand => {
                    let delay = self.becn_delay(node, d.packet.src);
                    self.seq += 1;
                    self.becn_q.push(Reverse((
                        d.ready_at + delay,
                        self.seq,
                        node.0,         // the congested destination
                        d.packet.src.0, // the source to throttle
                    )));
                }
            }
        }
        // ECN-CE → CNP (DCQCN notification point): answer a marked
        // delivery with one CNP, rate-limited per source.
        if d.packet.ecn && self.mech.dcqcn_params().is_some() {
            let overhead = self.mech.dcqcn_params().map_or(0, |p| p.cnp_overhead_bytes);
            if self.adapters[node.index()].cnp_due(d.ready_at, d.packet.src) {
                let id = PacketId(self.next_packet_id);
                self.next_packet_id += 1;
                let cnp = Packet::cnp(id, node, d.packet.src, d.ready_at, overhead);
                self.metrics.count("ctrl_wire_bytes_sent", cnp.wire_bytes());
                self.metrics.record(
                    d.ready_at,
                    CcEventKind::CnpGenerated {
                        node: node.0,
                        src: d.packet.src.0,
                    },
                );
                self.act_nodes.insert(node.0);
                self.adapters[node.index()].queue_becn(cnp);
            }
        }
        // Data delivery → per-packet ACK echoing the INT fold (HPCC).
        if let Some(p) = self.mech.hpcc_params() {
            let id = PacketId(self.next_packet_id);
            self.next_packet_id += 1;
            let ack = Packet::ack(
                id,
                node,
                d.packet.src,
                d.ready_at,
                d.packet.int_u,
                d.packet.int_hops,
                d.packet.wire_bytes() as u32,
                p.ack_overhead_bytes,
            );
            self.metrics.count("ack_generated", 1);
            self.metrics.count("ctrl_wire_bytes_sent", ack.wire_bytes());
            self.act_nodes.insert(node.0);
            self.adapters[node.index()].queue_becn(ack);
        }
    }

    /// Run to completion and produce the report.
    pub fn run(mut self) -> SimReport {
        self.run_to_end();
        self.finish()
    }

    /// Advance the clock to the end of the configured duration without
    /// consuming the simulator, so callers can still inspect live state
    /// ([`Self::counter`], [`Self::switch`], …) before [`Self::finish`].
    pub fn run_to_end(&mut self) {
        while self.now < self.end {
            self.tick();
        }
    }

    /// Run `cycles` more cycles (tests drive the simulator piecewise).
    /// The clock lands exactly on `now + cycles` regardless of any
    /// quiet-cycle fast-forward: the jump horizon is temporarily capped
    /// so a jump can never overshoot the caller's target.
    pub fn run_cycles(&mut self, cycles: Cycle) {
        let target = self.now.saturating_add(cycles);
        let saved_end = self.end;
        self.end = self.end.min(target);
        while self.now < target {
            self.tick();
        }
        self.end = saved_end;
    }

    /// Freeze into a report without necessarily having reached the end.
    pub fn finish(self) -> SimReport {
        let labels: BTreeMap<FlowId, String> = self
            .pattern
            .flows
            .iter()
            .map(|f| (f.id, f.label.clone()))
            .chain(self.pattern.sized.iter().map(|f| (f.id, f.label.clone())))
            .collect();
        // Reception capacity: Σ node-link bandwidths, in bytes/ns.
        let u = UnitModel::default();
        let capacity: f64 = self
            .topo
            .node_ids()
            .map(|n| {
                let (_, _, p) = self.topo.node_attachment(n);
                u.flits_per_cycle_to_bandwidth(p.bw_flits_per_cycle) / 1e9
            })
            .sum();
        let simulated_ns = u.cycles_to_ns(self.now);
        let mut m = self.metrics;
        let mut switches = self.switches;
        for sw in &mut switches {
            sw.close_exhaustion(self.now, &mut m);
        }
        m.count("injected_packets", self.injected);
        m.count("delivered_packets_total", m.delivered_packets());
        if let Some(mut frt) = self.faults {
            // Close the availability windows still open at the end of
            // the run.
            for s in frt.unreachable_since.iter_mut() {
                if let Some(t0) = s.take() {
                    frt.unreachable_cycles += self.now - t0;
                }
            }
            if let Some(t0) = frt.stale_since.take() {
                frt.stale_cycles += self.now - t0;
            }
            m.set_faults(FaultSummary {
                events_applied: frt.events_applied,
                events_skipped: frt.events_skipped,
                packets_lost_wire: frt.loss.data_packets,
                flits_lost_wire: frt.loss.data_flits,
                packets_purged: frt.packets_purged,
                packets_refused: frt.packets_refused,
                ctrl_lost: frt.loss.ctrl_packets + frt.loss.ctrl_events + frt.ctrl_purged,
                credits_lost: frt.loss.credit_flits,
                node_unreachable_ns: u.cycles_to_ns(frt.unreachable_cycles),
                stale_route_ns: u.cycles_to_ns(frt.stale_cycles),
                reroutes: frt.reroutes,
                first_fault_ns: frt.first_fault.map(|c| u.cycles_to_ns(c)).unwrap_or(0.0),
                last_recovery_ns: u.cycles_to_ns(frt.last_recovery),
            });
        }
        m.finish(
            format!("{}/{}", self.mech.name(), self.pattern.name),
            simulated_ns,
            capacity,
            &labels,
        )
    }

    /// Immutable access to an adapter (tests).
    pub fn adapter(&self, n: NodeId) -> &Adapter {
        &self.adapters[n.index()]
    }

    /// Immutable access to a switch (tests).
    pub fn switch(&self, s: SwitchId) -> &Switch {
        &self.switches[s.index()]
    }

    /// Debug dump of every switch's port state.
    pub fn debug_state(&self) -> String {
        self.switches
            .iter()
            .map(|s| s.debug_state(&self.links))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccfit_topology::config1_topology;
    use ccfit_traffic::{FlowSpec, TrafficPattern};

    fn tiny_pattern() -> TrafficPattern {
        TrafficPattern::new(
            "tiny",
            vec![FlowSpec::hotspot(0, NodeId(0), NodeId(3), 0.0, None)],
        )
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let sim = SimBuilder::new(config1_topology())
            .traffic(tiny_pattern())
            .duration_ns(51_200.0)
            .seed(9)
            .build();
        assert_eq!(sim.mechanism().name(), "CCFIT", "CCFIT is the default");
        assert_eq!(sim.end_cycle(), 2000, "51.2 us at 25.6 ns/cycle");
        assert_eq!(sim.now(), 0);
    }

    #[test]
    #[should_panic(expected = "traffic pattern is required")]
    fn builder_requires_traffic() {
        let _ = SimBuilder::new(config1_topology()).build();
    }

    #[test]
    #[should_panic(expected = "mechanism parameters are invalid")]
    fn builder_validates_mechanism() {
        let iso = crate::params::IsolationParams {
            num_cfqs: 0,
            ..Default::default()
        };
        let _ = SimBuilder::new(config1_topology())
            .mechanism(Mechanism::Fbicm(iso))
            .traffic(tiny_pattern())
            .build();
    }

    #[test]
    fn run_cycles_then_finish_matches_run() {
        let build = || {
            SimBuilder::new(config1_topology())
                .traffic(tiny_pattern())
                .duration_ns(100_000.0)
                .seed(4)
                .build()
        };
        let a = build().run();
        let mut sim = build();
        sim.run_cycles(sim.end_cycle());
        let b = sim.finish();
        assert_eq!(a, b);
    }

    #[test]
    fn counters_start_clean_and_accumulate() {
        let mut sim = SimBuilder::new(config1_topology())
            .traffic(tiny_pattern())
            .duration_ns(200_000.0)
            .seed(5)
            .build();
        assert_eq!(sim.injected(), 0);
        assert_eq!(sim.delivered(), 0);
        assert_eq!(sim.resident_packets(), 0);
        sim.run_cycles(sim.end_cycle());
        assert!(sim.injected() > 100);
        assert!(sim.delivered() > 100);
    }

    #[test]
    fn debug_state_mentions_every_switch() {
        let sim = SimBuilder::new(config1_topology())
            .traffic(tiny_pattern())
            .duration_ns(10_000.0)
            .build();
        let dump = sim.debug_state();
        assert!(dump.contains("SwitchId0"));
        assert!(dump.contains("SwitchId1"));
    }

    /// First switch-to-switch cable of the topology (fault targets).
    fn first_trunk_cable(topo: &Topology) -> (SwitchId, PortId) {
        for s in topo.switch_ids() {
            for p in topo.switch(s).connected() {
                if let Some((Endpoint::Switch(..), _)) = topo.peer(s, p) {
                    return (s, p);
                }
            }
        }
        panic!("topology has no trunk cable");
    }

    fn tree_sim(schedule: FaultSchedule, mech: Mechanism) -> Simulator {
        use ccfit_topology::KAryNTree;
        let tree = KAryNTree::new(2, 3);
        let topo = tree.build(LinkParams::default());
        let cfg = SimConfig {
            duration_ns: 400_000.0,
            metrics_bin_ns: 20_000.0,
            ..SimConfig::default()
        };
        SimBuilder::new(topo)
            .routing(tree.det_routing())
            .mechanism(mech)
            .traffic(TrafficPattern::new(
                "faulty",
                vec![
                    FlowSpec::hotspot(0, NodeId(0), NodeId(7), 0.0, None),
                    FlowSpec::hotspot(1, NodeId(3), NodeId(5), 0.0, None),
                ],
            ))
            .config(cfg)
            .seed(11)
            .faults(schedule)
            .build()
    }

    #[test]
    fn fail_stop_trunk_failure_reroutes_and_conserves() {
        use ccfit_topology::KAryNTree;
        let tree = KAryNTree::new(2, 3);
        let topo = tree.build(LinkParams::default());
        let (s, p) = first_trunk_cable(&topo);
        let mut sched = FaultSchedule::new();
        sched.link_down(2000, s, p);
        let mut sim = tree_sim(sched, Mechanism::ccfit());
        sim.run_cycles(5000);
        let delivered_early = sim.delivered();
        sim.run_cycles(sim.end_cycle() - sim.now());
        let injected = sim.injected();
        let delivered = sim.delivered();
        let resident = sim.resident_packets() as u64;
        assert!(
            delivered > delivered_early,
            "delivery must continue after the re-route"
        );
        let report = sim.finish();
        let f = report.faults.as_ref().expect("fault summary attached");
        assert_eq!(f.events_applied, 1);
        assert_eq!(f.events_skipped, 0);
        assert_eq!(f.reroutes, 1);
        assert!(f.stale_route_ns > 0.0, "re-route latency was modelled");
        assert_eq!(
            injected,
            delivered + resident + f.packets_lost(),
            "every injected packet is delivered, buffered, or accounted lost"
        );
    }

    #[test]
    fn switch_down_orphans_nodes_then_recovers() {
        use ccfit_topology::KAryNTree;
        let tree = KAryNTree::new(2, 3);
        let topo = tree.build(LinkParams::default());
        let leaf = topo.node_attachment(NodeId(7)).0;
        let mut sched = FaultSchedule::new();
        sched.switch_down(2000, leaf);
        sched.switch_up(8000, leaf);
        let mut sim = tree_sim(sched, Mechanism::ccfit());
        sim.run_cycles(4000);
        assert!(
            sim.unreachable_nodes().contains(&NodeId(7)),
            "node 7 is orphaned while its switch is down"
        );
        sim.run_cycles(sim.end_cycle() - sim.now());
        assert!(sim.unreachable_nodes().is_empty(), "recovery completed");
        let injected = sim.injected();
        let delivered = sim.delivered();
        let resident = sim.resident_packets() as u64;
        let report = sim.finish();
        let f = report.faults.as_ref().expect("fault summary attached");
        assert_eq!(f.events_applied, 2);
        assert_eq!(f.reroutes, 2, "one re-route per topology change");
        assert!(f.node_unreachable_ns > 0.0);
        assert!(
            f.packets_refused > 0,
            "sources refuse injection toward the orphaned node"
        );
        assert_eq!(injected, delivered + resident + f.packets_lost());
    }

    #[test]
    fn a_link_up_for_a_live_cable_is_skipped() {
        use ccfit_topology::KAryNTree;
        let tree = KAryNTree::new(2, 3);
        let topo = tree.build(LinkParams::default());
        let (s, p) = first_trunk_cable(&topo);
        let mut sched = FaultSchedule::new();
        sched.link_up(4000, s, p); // never went down -> skipped
        let report = tree_sim(sched, Mechanism::ccfit()).run();
        let f = report.faults.as_ref().expect("fault summary attached");
        assert_eq!(f.events_applied, 0);
        assert_eq!(f.events_skipped, 1);
        assert_eq!(f.reroutes, 0, "a skipped event changes no topology");
        assert_eq!(f.packets_lost(), 0, "a skipped event loses nothing");
        assert!(report.delivered_packets > 0);
    }

    /// Equal reports cannot show that the oracle is exhaustive — a
    /// bypassed gate is a no-op by construction — so check it from the
    /// work-list occupancy: over a run with quiet gaps the oracle visits
    /// every switch, adapter and link on every cycle and never parks,
    /// while the engine executes fewer passes than there are cycles.
    #[test]
    fn oracle_is_exhaustive_and_the_engine_is_not() {
        let build = || {
            SimBuilder::new(config1_topology())
                .traffic(TrafficPattern::new(
                    "bursts",
                    vec![
                        FlowSpec::hotspot(0, NodeId(0), NodeId(3), 0.0, Some(40_000.0)),
                        FlowSpec::hotspot(1, NodeId(1), NodeId(4), 150_000.0, Some(190_000.0)),
                    ],
                ))
                .duration_ns(300_000.0)
                .seed(6)
                .build()
        };
        let mut oracle = build();
        oracle.run_reference();
        let end = oracle.end_cycle();
        let st = oracle.active_set_stats();
        assert_eq!(st.ticks, end, "the oracle advances one cycle per pass");
        assert_eq!(st.sw_sum, end * oracle.switches.len() as u64);
        assert_eq!(st.node_sum, end * oracle.adapters.len() as u64);
        assert_eq!(st.link_sum, end * oracle.links.len() as u64);
        assert!(oracle.node_wake.is_empty(), "the oracle never parks a node");
        assert!(oracle.sw_wake.is_empty(), "nor a switch");

        let mut engine = build();
        engine.run_to_end();
        let st = engine.active_set_stats();
        assert!(
            st.ticks < end,
            "the engine must jump the quiet gaps ({} passes over {end} cycles)",
            st.ticks
        );
        assert!(st.node_sum < st.ticks * engine.adapters.len() as u64);
        assert_eq!(engine.finish(), oracle.finish());
    }

    /// The jump lands only on events: an idle network has none after
    /// the seeding pass, so a whole run is that one pass.
    #[test]
    fn an_idle_network_runs_in_one_pass() {
        use ccfit_topology::KAryNTree;
        let tree = KAryNTree::new(2, 3);
        let mut sim = SimBuilder::new(tree.build(LinkParams::default()))
            .routing(tree.det_routing())
            .traffic(TrafficPattern::new("idle", Vec::new()))
            .duration_ns(1_000_000.0)
            .build();
        sim.run_to_end();
        assert_eq!(sim.now(), sim.end_cycle());
        assert_eq!(sim.active_set_stats().ticks, 1);
    }

    /// `cfq_exhausted` grows by whole episodes, but a mid-run read adds
    /// the open ones: on Fig. 8b's four trees, where FBICM runs out of
    /// CFQs and the engine parks exhausted switches, the engine's read
    /// equals the oracle's at every stop, and the last one the report.
    #[test]
    fn a_mid_run_read_counts_the_open_exhaustion_episodes() {
        let spec = crate::ConfigId::Config3Case4 {
            hotspots: 4,
            duration_ms: 4.0,
            scale: 0.02,
        }
        .resolve();
        let cfg = SimConfig {
            metrics_bin_ns: 20_000.0,
            ..SimConfig::default()
        };
        let mut engine = spec.build_sim(Mechanism::fbicm(), 3, cfg.clone());
        let mut oracle = spec.build_sim(Mechanism::fbicm(), 3, cfg);
        let mut open_seen = 0;
        while engine.now() < engine.end_cycle() {
            let step = 97.min(engine.end_cycle() - engine.now());
            engine.run_cycles(step);
            for _ in 0..step {
                oracle.tick_reference();
            }
            let now = engine.now();
            assert_eq!(oracle.now(), now);
            let read = engine.counter("cfq_exhausted");
            assert_eq!(read, oracle.counter("cfq_exhausted"), "cycle {now}");
            let open: u64 = engine
                .switches
                .iter()
                .map(|s| s.open_exhaustion_cycles(now))
                .sum();
            assert!(read >= open);
            open_seen += usize::from(open > 0);
        }
        assert!(open_seen > 10, "episodes were open at {open_seen} stops");
        let read = engine.counter("cfq_exhausted");
        assert_eq!(engine.finish().counters["cfq_exhausted"], read);
    }

    // ---- the park rule's wake sources (DESIGN.md §12) ----
    //
    // A parked component sits out every cycle until its bound expires,
    // so each event that can end the bound early has to put it back on
    // the work-list the cycle it lands. One case per such event: an
    // engine and an oracle built alike advance in lock-step, everything
    // the next cycle can observe is compared after each one (a late wake
    // shows on the cycle it is late, not only in the final report), and
    // the case counts how often its event landed on a parked component —
    // a scenario in which it never does proves nothing.

    /// What the next cycle can observe of `sim`: everything but the memos
    /// the engine keeps and the oracle drops.
    fn observable(sim: &Simulator) -> String {
        use std::fmt::Write;
        let mut out = sim.debug_state();
        for a in &sim.adapters {
            let dsts = (0..sim.num_nodes).map(|d| NodeId(d as u32));
            let ccti: u32 = dsts.map(|d| u32::from(a.ccti(d))).sum();
            let (held, becns) = (a.resident_packets(), a.pending_becns());
            write!(out, "{held} {becns} {} {ccti}|", a.armed_timer_count()).unwrap();
        }
        for l in &sim.links {
            let (flying, free) = (l.in_flight_count(), l.tx_free_at());
            write!(out, "{flying} {} {free}|", l.credits()).unwrap();
        }
        let refused = sim.faults.as_ref().map_or(0, |frt| frt.packets_refused);
        let ids = sim.next_packet_id;
        write!(out, "{} {} {ids} {refused}", sim.injected, sim.delivered()).unwrap();
        out
    }

    /// Advance an engine and an oracle from `build` through `cycles`
    /// cycles in lock-step. Before each one `lands(&engine)` says whether
    /// the event under test is about to land on a parked component;
    /// returns how often it did.
    fn lockstep(
        build: impl Fn() -> Simulator,
        cycles: Cycle,
        mut lands: impl FnMut(&Simulator) -> bool,
    ) -> usize {
        let (mut engine, mut oracle) = (build(), build());
        let mut landed = 0;
        for _ in 0..cycles {
            landed += usize::from(lands(&engine));
            engine.run_cycles(1);
            oracle.tick_reference();
            assert_eq!(engine.now, oracle.now);
            let cycle = oracle.now - 1;
            assert_eq!(observable(&engine), observable(&oracle), "cycle {cycle}");
        }
        let (visits, all) = (engine.act_stats, oracle.act_stats);
        assert!(visits.sw_sum < all.sw_sum && visits.node_sum < all.node_sum);
        assert_eq!(engine.finish(), oracle.finish());
        landed
    }

    fn no_wake_due(wake: &BinaryHeap<Reverse<(Cycle, u32)>>, id: u32, now: Cycle) -> bool {
        !wake.iter().any(|&Reverse((at, i))| i == id && at <= now)
    }

    /// Off its work-list with packets in hand and no wake entry due: only
    /// an activation can bring it back this cycle.
    fn switch_parked(sim: &Simulator, s: u32) -> bool {
        !sim.act_sw.contains(s)
            && !sim.switches[s as usize].is_quiescent()
            && no_wake_due(&sim.sw_wake, s, sim.now)
    }

    fn node_parked(sim: &Simulator, n: u32) -> bool {
        !sim.act_nodes.contains(n) && no_wake_due(&sim.node_wake, n, sim.now)
    }

    fn node_parked_busy(sim: &Simulator, n: u32) -> bool {
        node_parked(sim, n) && !sim.adapters[n as usize].is_quiet()
    }

    fn any_node(sim: &Simulator, mut f: impl FnMut(usize) -> bool) -> bool {
        (0..sim.num_nodes).any(&mut f)
    }

    /// A 2-ary 3-tree (8 nodes, 12 switches) under `flows`.
    fn park_sim(mech: Mechanism, cfg: SimConfig, flows: Vec<FlowSpec>) -> SimBuilder {
        use ccfit_topology::KAryNTree;
        let tree = KAryNTree::new(2, 3);
        SimBuilder::new(tree.build(LinkParams::default()))
            .routing(tree.det_routing())
            .mechanism(mech)
            .traffic(TrafficPattern::new("park", flows))
            .config(SimConfig {
                duration_ns: 150_000.0,
                metrics_bin_ns: 20_000.0,
                seed: 21,
                ..cfg
            })
    }

    /// Two fixed-destination flows per node, crossing in the middle of
    /// the tree and together offering more than a link carries: switches
    /// wait for busy outputs, adapters for their transmitter, generators
    /// for room in a full AdVOQ.
    fn crossing_flows() -> Vec<FlowSpec> {
        let flow = |i: u32| {
            let (src, hop) = (i / 2, [3, 5][i as usize % 2]);
            let dst = NodeId((src + hop) % 8);
            let mut f = FlowSpec::hotspot(i, NodeId(src), dst, 0.0, None);
            f.rate = 0.45 + 0.05 * f64::from(i % 4);
            f
        };
        (0..16).map(flow).collect()
    }

    /// The crossing flows at half rate, under four 12 µs bursts in which
    /// every other node saturates node 7: congestion trees grow, are
    /// throttled and vanish again, among switches and adapters that are
    /// not all busy with them.
    fn burst_flows() -> Vec<FlowSpec> {
        let mut flows = crossing_flows();
        for f in &mut flows {
            f.rate *= 0.5;
        }
        for burst in 0..4 {
            let start = f64::from(burst) * 35_000.0;
            for src in 0..7 {
                let id = flows.len() as u32;
                let end = Some(start + 12_000.0);
                flows.push(FlowSpec::hotspot(id, NodeId(src), NodeId(7), start, end));
            }
        }
        flows
    }

    fn crossing(mech: Mechanism, cfg: SimConfig) -> impl Fn() -> Simulator {
        move || park_sim(mech.clone(), cfg.clone(), crossing_flows()).build()
    }

    fn bursts(mech: Mechanism, cfg: SimConfig) -> impl Fn() -> Simulator {
        move || park_sim(mech.clone(), cfg.clone(), burst_flows()).build()
    }

    #[test]
    fn a_delivery_wakes_a_parked_switch() {
        let build = crossing(Mechanism::ccfit(), SimConfig::default());
        let landed = lockstep(build, 4000, |sim| {
            sim.link_dst.iter().zip(&sim.links).any(|(dst, link)| {
                matches!(*dst, LinkDst::SwitchIn(s, _) if switch_parked(sim, s.0))
                    && link.has_delivery(sim.now)
            })
        });
        assert!(landed > 50, "only {landed} deliveries met a parked switch");
    }

    #[test]
    fn control_on_a_link_wakes_its_parked_sender() {
        let build = bursts(Mechanism::ccfit(), SimConfig::default());
        let (mut switches, mut nodes) = (0, 0);
        lockstep(build, 5800, |sim| {
            for (src, link) in sim.link_src.iter().zip(&sim.links) {
                if link.has_ctrl(sim.now) {
                    match *src {
                        LinkSrc::Switch(s) => switches += usize::from(switch_parked(sim, s)),
                        LinkSrc::Node(n) => nodes += usize::from(node_parked_busy(sim, n)),
                    }
                }
            }
            false
        });
        assert!(switches > 0, "no control event met a parked switch");
        assert!(nodes > 0, "no control event met a parked node");
    }

    #[test]
    fn a_becn_wakes_a_parked_node() {
        // Six sources keep node 7's link marking; node 6 adds three
        // packets every 30 µs and falls silent before the BECNs they earn
        // come back, with every earlier timer long expired: the arrival
        // arms a timer on a node that has no other reason to wake.
        // Nothing else is addressed to node 6, so under the in-band
        // transport every delivery to it is a BECN.
        let mut flows: Vec<FlowSpec> = (0..6)
            .map(|src| FlowSpec::hotspot(src, NodeId(src), NodeId(7), 0.0, None))
            .collect();
        for blip in 0..5 {
            let start = 10_000.0 + f64::from(blip) * 30_000.0;
            let id = flows.len() as u32;
            let end = Some(start + 2_500.0);
            flows.push(FlowSpec::hotspot(id, NodeId(6), NodeId(7), start, end));
        }
        for becn_transport in [BecnTransport::OutOfBand, BecnTransport::InBand] {
            let cfg = SimConfig {
                becn_transport,
                ..SimConfig::default()
            };
            let build = || park_sim(Mechanism::ith(), cfg.clone(), flows.clone()).build();
            let landed = lockstep(build, 5800, |sim| {
                let unarmed = sim.adapters[6].armed_timer_count() == 0;
                let out_of_band = |&Reverse((at, _, _, node)): &Reverse<(Cycle, u64, u32, u32)>| {
                    at <= sim.now && node == 6
                };
                let in_band = sim.links[sim.recv_link[6].index()].has_delivery(sim.now);
                (in_band || sim.becn_q.iter().any(out_of_band)) && unarmed && node_parked(sim, 6)
            });
            assert!(
                landed > 2,
                "{becn_transport:?}: {landed} BECNs met a parked node"
            );
        }
    }

    /// Feedback a delivery brings (an in-band BECN, an ACK) or asks the
    /// receiving adapter to send (a BECN for a FECN mark, a CNP for an ECN
    /// mark, an ACK for every HPCC data packet).
    #[test]
    fn feedback_wakes_a_parked_node() {
        let small_windows = Mechanism::Hpcc(crate::params::HpccParams {
            w_init_bytes: 4096.0,
            w_max_bytes: 8192.0,
            ..Default::default()
        });
        let scenarios = [
            ("BECN", Mechanism::ccfit(), burst_flows()),
            ("ACK", small_windows, crossing_flows()),
            ("CNP", Mechanism::dcqcn(), burst_flows()),
        ];
        for (what, mech, flows) in scenarios {
            let build = || park_sim(mech.clone(), SimConfig::default(), flows.clone()).build();
            let (mut busy, mut quiet) = (0, 0);
            lockstep(build, 5800, |sim| {
                for n in 0..sim.num_nodes {
                    if sim.links[sim.recv_link[n].index()].has_delivery(sim.now) {
                        busy += usize::from(node_parked_busy(sim, n as u32));
                        quiet += usize::from(node_parked(sim, n as u32));
                    }
                }
                false
            });
            assert!(busy > 20 && quiet > busy, "{what}: {busy} of {quiet}");
        }
    }

    #[test]
    fn an_output_ram_release_wakes_a_parked_node() {
        // One MTU of output RAM: the packet on the wire holds all of it,
        // so the next AdVOQ head waits for the release and nothing else —
        // a bound with no expiry.
        let cfg = SimConfig {
            port_ram_bytes: 2048,
            ..SimConfig::default()
        };
        let landed = lockstep(crossing(Mechanism::ccfit(), cfg), 4000, |sim| {
            let sent = |n: usize| sim.links[sim.inject_link[n].index()].tx_free_at();
            sim.release_q.next_at() == Some(sim.now)
                && any_node(sim, |n| {
                    node_parked_busy(sim, n as u32) && sent(n) == sim.now
                })
        });
        assert!(landed > 50, "only {landed} releases met a parked node");
    }

    #[test]
    fn a_fault_event_wakes_everything_parked() {
        // A leaf switch dies and comes back, and a trunk cable elsewhere
        // does the same. Each change is followed by a re-route that
        // purges what can no longer be delivered: a source stalled behind
        // a full AdVOQ toward an orphaned node has room again that very
        // cycle, and from then on every packet it offers is consumed.
        use ccfit_topology::KAryNTree;
        let topo = KAryNTree::new(2, 3).build(LinkParams::default());
        let leaf = topo.node_attachment(NodeId(7)).0;
        let (s, p) = first_trunk_cable(&topo);
        // Each change lands after the previous re-route completed
        // (`REROUTE_LATENCY_CYCLES` later), so every event and every
        // re-route is a wake of its own.
        let build = || {
            let mut sched = FaultSchedule::new();
            sched
                .switch_down(1003, leaf)
                .link_down(2207, s, p)
                .switch_up(3411, leaf)
                .link_up(4615, s, p);
            park_sim(Mechanism::ccfit(), SimConfig::default(), crossing_flows())
                .faults(sched)
                .build()
        };
        let landed = lockstep(build, 5800, |sim| {
            let frt = sim.faults.as_ref().expect("schedule installed");
            let next = frt.schedule.events().get(frt.next).map(|ev| ev.at);
            (next == Some(sim.now) || frt.routing_update_at == Some(sim.now))
                && (0..sim.switches.len()).any(|s| switch_parked(sim, s as u32))
                && any_node(sim, |n| node_parked_busy(sim, n as u32))
        });
        assert!(landed > 3, "only {landed} fault events met parked ones");
    }

    #[test]
    fn an_expired_bound_wakes_its_component() {
        let build = crossing(Mechanism::ccfit(), SimConfig::default());
        let (mut switches, mut nodes) = (0, 0);
        lockstep(build, 4000, |sim| {
            let expiring = |wake: &BinaryHeap<Reverse<(Cycle, u32)>>,
                            act: &ccfit_engine::ActiveSet| {
                let due = |&&Reverse((at, id)): &&Reverse<(Cycle, u32)>| {
                    at == sim.now && !act.contains(id)
                };
                wake.iter().filter(due).count()
            };
            switches += expiring(&sim.sw_wake, &sim.act_sw);
            nodes += expiring(&sim.node_wake, &sim.act_nodes);
            false
        });
        assert!(
            switches > 50 && nodes > 50,
            "{switches} switches, {nodes} nodes"
        );
    }

    /// With crossbar speed-up an input port frees (and its RAM release
    /// falls due) before the output transmitter does, so a switch waiting
    /// for that transmitter can be the only thing the network has
    /// pending: the jump must land on its wake, not beyond it.
    #[test]
    fn the_jump_lands_on_a_parked_switch() {
        let build = || {
            let flow = |id, src, rate| {
                let mut f = FlowSpec::hotspot(id, NodeId(src), NodeId(3), 0.0, Some(60_000.0));
                f.rate = rate;
                f
            };
            SimBuilder::new(config1_topology())
                .crossbar_bw(2)
                .traffic(TrafficPattern::new(
                    "pair",
                    vec![flow(0, 0, 0.4), flow(1, 1, 0.45)],
                ))
                .duration_ns(100_000.0)
                .seed(2)
                .build()
        };
        let (mut engine, mut oracle) = (build(), build());
        let mut jumped_to_a_switch = 0;
        while engine.now < engine.end {
            let before = engine.now;
            let wake = engine.sw_wake.peek().map(|&Reverse((at, _))| at);
            engine.tick();
            if engine.now > before + 1 && wake == Some(engine.now) {
                jumped_to_a_switch += 1;
            }
        }
        assert!(jumped_to_a_switch > 10, "{jumped_to_a_switch} such jumps");
        oracle.run_reference();
        assert_eq!(engine.finish(), oracle.finish());
    }

    /// A refused retry to a redrawn destination draws from the flow RNG,
    /// so a node whose uniform source is back-pressured stays on the
    /// work-list while a fixed-destination source beside it may not. Two
    /// nodes, so "uniform" always means the other one and its AdVOQ is
    /// the one the fixed flow keeps full.
    #[test]
    fn a_uniform_source_refused_by_a_full_advoq_never_parks() {
        use ccfit_topology::TopologyBuilder;
        let build = || {
            let mut b = TopologyBuilder::new("pair");
            let s = b.add_switch(2);
            for p in 0..2 {
                let n = b.add_node();
                b.attach(n, s, PortId(p)).expect("free port");
            }
            let flows = vec![
                FlowSpec::hotspot(0, NodeId(0), NodeId(1), 0.0, None),
                FlowSpec::uniform(1, NodeId(0), 0.0, None),
            ];
            SimBuilder::new(b.build().expect("a valid pair"))
                .traffic(TrafficPattern::new("pair", flows))
                .duration_ns(60_000.0)
                .seed(3)
                .build()
        };
        let (mut engine, mut oracle) = (build(), build());
        let mut refused = 0;
        while engine.now < 2000 {
            engine.run_cycles(1);
            oracle.tick_reference();
            let cycle = engine.now - 1;
            if engine.gens[0].next_park_wake(cycle).is_none() {
                refused += 1;
                assert!(engine.act_nodes.contains(0), "parked at cycle {cycle}");
            }
        }
        assert!(
            refused > 500,
            "the uniform flow was refused {refused} times"
        );
        // Same RNG position: both draw the same destinations from here.
        let offers = |sim: &Simulator| {
            let mut gen = sim.gens[0].clone();
            let mut got = Vec::new();
            for now in 2000..2200 {
                gen.tick(now, &mut |p: GenPacket| {
                    got.push((now, p));
                    true
                });
            }
            got
        };
        assert_eq!(offers(&engine), offers(&oracle));
        assert_eq!(engine.finish(), oracle.finish());
    }

    #[test]
    fn fault_schedule_is_deterministic_across_fast_and_slow_paths() {
        use ccfit_topology::KAryNTree;
        let tree = KAryNTree::new(2, 3);
        let topo = tree.build(LinkParams::default());
        let (s, p) = first_trunk_cable(&topo);
        let make = || {
            let mut sched = FaultSchedule::new();
            sched.link_down(1500, s, p).link_up(6000, s, p);
            sched
        };
        let fast = tree_sim(make(), Mechanism::ccfit()).run();
        let mut oracle = tree_sim(make(), Mechanism::ccfit());
        oracle.run_reference();
        assert_eq!(
            fast,
            oracle.finish(),
            "fault handling must not break determinism"
        );
    }

    #[test]
    fn voqnet_survives_link_failure_and_repair() {
        use ccfit_topology::KAryNTree;
        let tree = KAryNTree::new(2, 3);
        let topo = tree.build(LinkParams::default());
        let (s, p) = first_trunk_cable(&topo);
        let mut sched = FaultSchedule::new();
        sched.link_down(2000, s, p).link_up(7000, s, p);
        let mut sim = tree_sim(sched, Mechanism::voqnet());
        sim.run_cycles(sim.end_cycle());
        let injected = sim.injected();
        let delivered = sim.delivered();
        let resident = sim.resident_packets() as u64;
        let report = sim.finish();
        let f = report.faults.as_ref().expect("fault summary attached");
        assert_eq!(f.events_applied, 2);
        assert_eq!(injected, delivered + resident + f.packets_lost());
    }

    #[test]
    fn report_name_combines_mechanism_and_pattern() {
        let report = SimBuilder::new(config1_topology())
            .mechanism(Mechanism::fbicm())
            .traffic(tiny_pattern())
            .duration_ns(50_000.0)
            .build()
            .run();
        assert_eq!(report.name, "FBICM/tiny");
        // Capacity: 7 nodes at 2.5 GB/s = 17.5 bytes/ns.
        assert!((report.reception_capacity_bytes_per_ns - 17.5).abs() < 1e-9);
    }
}
