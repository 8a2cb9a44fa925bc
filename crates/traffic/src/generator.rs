//! Per-node packet generation: token buckets over saturated sources.
//!
//! Each node runs one [`NodeGenerator`] holding the flows sourced there.
//! A flow accrues `rate × link_bandwidth` flits of budget per cycle while
//! active; whenever a full packet's worth is available, the generator
//! offers a packet to the injection sink (the input adapter's admittance
//! queues). If the sink refuses — the AdVOQ for that destination is full,
//! i.e. the NIC is backpressured — the budget is retained but capped at a
//! small burst allowance, modelling a *saturated source*: an application
//! that always has data ready but cannot buffer unboundedly inside the
//! NIC.

use crate::flow::{Destination, FlowSpec};
use crate::sized::SizedFlow;
use ccfit_engine::ids::{FlowId, NodeId};
use ccfit_engine::rng::SeedSplitter;
use ccfit_engine::units::{Cycle, UnitModel, MTU_BYTES};
use rand::rngs::SmallRng;
use rand::Rng;

/// A packet offered by a generator to the injection path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenPacket {
    /// Flow the packet belongs to.
    pub flow: FlowId,
    /// Chosen destination.
    pub dst: NodeId,
    /// Size in flits.
    pub size_flits: u32,
    /// Payload size in bytes.
    pub size_bytes: u32,
}

/// Where generated packets are offered. Implemented by the input adapter.
pub trait InjectSink {
    /// Try to accept the packet; `false` = backpressure (the generator
    /// retains its budget and retries next cycle).
    fn try_inject(&mut self, pkt: GenPacket) -> bool;
}

impl<F: FnMut(GenPacket) -> bool> InjectSink for F {
    fn try_inject(&mut self, pkt: GenPacket) -> bool {
        self(pkt)
    }
}

/// Maximum retained budget, in packets, while backpressured.
const BURST_CAP_PACKETS: f64 = 2.0;

/// How many accrual cycles short of a full packet `next_park_wake` stops
/// estimating the emission cycle and steps to it.
const EXACT_HORIZON: Cycle = 16;

#[derive(Debug, Clone)]
struct FlowState {
    id: FlowId,
    dst: Destination,
    start: Cycle,
    end: Option<Cycle>,
    flits_per_cycle: f64,
    tokens: f64,
    rng: SmallRng,
    /// Closed-loop sized flows: payload bytes left to inject. `None`
    /// for open-loop rate-window flows; `Some(0)` = drained (the flow
    /// never acts again).
    remaining: Option<u64>,
    /// The last tick offered this flow's packet to a fixed destination
    /// and the sink refused it. Every retry offers the same packet to the
    /// same queue, so until the sink itself moves each one is refused
    /// again and changes nothing but the (replayable) token accrual. A
    /// [`Destination::Uniform`] flow redraws its destination on every
    /// retry and is never marked.
    refused: bool,
}

impl FlowState {
    /// Active = inside the time window and, for sized flows, not yet
    /// drained.
    fn is_active(&self, now: Cycle) -> bool {
        now >= self.start && !self.is_spent(now)
    }

    /// Can never act again: drained, or past the end of its window (the
    /// clock only moves forward).
    fn is_spent(&self, now: Cycle) -> bool {
        self.remaining == Some(0) || self.end.is_some_and(|e| now >= e)
    }

    /// `(flits, bytes)` of the next packet this flow would emit: an MTU
    /// of `mtu_flits`, except a sized flow's final packet carries only
    /// the remainder.
    fn next_packet(&self, flit_bytes: u32, mtu_flits: u32) -> (u32, u32) {
        match self.remaining {
            Some(rem) if rem < MTU_BYTES as u64 => {
                let bytes = rem as u32;
                (bytes.div_ceil(flit_bytes), bytes)
            }
            _ => (mtu_flits, MTU_BYTES),
        }
    }
}

/// Token-bucket generator for all flows sourced at one node.
#[derive(Debug, Clone)]
pub struct NodeGenerator {
    node: NodeId,
    num_nodes: usize,
    flit_bytes: u32,
    /// Flits of an MTU packet.
    mtu_flits: u32,
    /// The flows that can still act, in declaration order. [`Self::tick`]
    /// drops a flow once it is spent, so the per-cycle scans
    /// (`any_active`, `next_park_wake`, the tick and its replay) cost
    /// what is live, not what was configured: an all-to-all's sized
    /// flows drain in the first cycles of a run and would otherwise be
    /// polled for the rest of it. A spent flow contributed nothing to any
    /// of those scans, so dropping it changes no result.
    flows: Vec<FlowState>,
    /// Flows configured at this node, spent ones included.
    configured: usize,
    /// Last cycle [`Self::tick`] ran, `Cycle::MAX` before the first
    /// tick. The sparse engine parks emission-idle nodes and skips
    /// their ticks; the next tick replays the gap's accrual to the bit
    /// (`replay_to`), so the token trajectory stays byte-identical.
    last_tick: Cycle,
}

impl NodeGenerator {
    /// Build the generator for `node` from the flows sourced there.
    ///
    /// `link_bw_flits_per_cycle` is the node's injection-link bandwidth
    /// (rate 1.0 saturates it); `num_nodes` bounds uniform destination
    /// selection; seeds are derived per flow for reproducibility.
    pub fn new(
        node: NodeId,
        flows: &[FlowSpec],
        units: &UnitModel,
        link_bw_flits_per_cycle: u32,
        num_nodes: usize,
        seeds: &SeedSplitter,
    ) -> Self {
        Self::new_with_sized(
            node,
            flows,
            &[],
            units,
            link_bw_flits_per_cycle,
            num_nodes,
            seeds,
        )
    }

    /// [`Self::new`] plus closed-loop sized flows. Sized flows inject
    /// at line rate (an application handing the NIC a complete message)
    /// and go permanently idle once their byte budget is drained; the
    /// final packet carries the remainder so delivered bytes sum
    /// exactly to [`SizedFlow::bytes`]. Rate flows come first, sized
    /// flows after, each in declaration order — the per-cycle emission
    /// order is part of the byte-identity contract.
    pub fn new_with_sized(
        node: NodeId,
        flows: &[FlowSpec],
        sized: &[SizedFlow],
        units: &UnitModel,
        link_bw_flits_per_cycle: u32,
        num_nodes: usize,
        seeds: &SeedSplitter,
    ) -> Self {
        Self::from_own_flows(
            node,
            flows.iter().filter(|f| f.src == node),
            sized.iter().filter(|f| f.src == node),
            units,
            link_bw_flits_per_cycle,
            num_nodes,
            seeds,
        )
    }

    /// [`Self::new_with_sized`] from the flows sourced at `node` alone,
    /// each kind in declaration order.
    pub(crate) fn from_own_flows<'a>(
        node: NodeId,
        flows: impl Iterator<Item = &'a FlowSpec>,
        sized: impl Iterator<Item = &'a SizedFlow>,
        units: &UnitModel,
        link_bw_flits_per_cycle: u32,
        num_nodes: usize,
        seeds: &SeedSplitter,
    ) -> Self {
        let mut flows: Vec<FlowState> = flows
            .map(|f| FlowState {
                id: f.id,
                dst: f.dst,
                start: units.ns_to_cycles(f.start_ns),
                end: f.end_ns.map(|e| units.ns_to_cycles(e)),
                flits_per_cycle: f.rate * link_bw_flits_per_cycle as f64,
                tokens: 0.0,
                rng: seeds.rng("traffic-flow", f.id.0 as u64),
                remaining: None,
                refused: false,
            })
            .collect();
        flows.extend(sized.map(|f| FlowState {
            id: f.id,
            dst: Destination::Fixed(f.dst),
            start: units.ns_to_cycles(f.start_ns),
            end: None,
            flits_per_cycle: link_bw_flits_per_cycle as f64,
            tokens: 0.0,
            rng: seeds.rng("traffic-flow", f.id.0 as u64),
            remaining: Some(f.bytes),
            refused: false,
        }));
        Self {
            node,
            num_nodes,
            flit_bytes: units.flit_bytes,
            mtu_flits: units.bytes_to_flits(MTU_BYTES),
            configured: flows.len(),
            flows,
            last_tick: Cycle::MAX,
        }
    }

    /// The node this generator belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of flows configured at this node — a property of the
    /// workload, so flows that have drained or expired since still count.
    pub fn num_flows(&self) -> usize {
        self.configured
    }

    /// True if any flow is active at `now`.
    pub fn any_active(&self, now: Cycle) -> bool {
        self.flows.iter().any(|f| f.is_active(now))
    }

    /// Sparse-engine parking contract (DESIGN.md §12): the earliest
    /// future cycle at which ticking this generator could observably
    /// act — emit a packet (an offer to the sink, which may draw
    /// destination randomness and is refusable). Until then every tick
    /// is pure token accrual, which [`Self::tick`] replays on wake-up,
    /// so the engine
    /// may park the node and skip its ticks entirely.
    ///
    /// Returns `None` when the node must tick next cycle (the sink
    /// refused a packet whose destination is redrawn on every retry), and
    /// `Some(Cycle::MAX)` when no flow can act again before the sink
    /// does: each is spent, or holds a packet for a fixed destination
    /// that the sink refused on the last tick. Such a flow is left out of
    /// the bound altogether — every retry is refused again until the sink
    /// itself moves, so the caller wakes the node no later than the sink
    /// can, and does not park it at all if the sink has moved since the
    /// refusal ([`Self::refused_offers`]). The wake is a conservative *lower* bound: waking
    /// early is a gated no-op that re-parks, while waking late would
    /// skip an emission and break byte-identity — so from afar the
    /// estimate backs off from the closed-form float division far enough
    /// to absorb any rounding drift versus the replayed per-cycle
    /// accrual, and within [`EXACT_HORIZON`] cycles it makes those very
    /// additions and names the emission cycle itself.
    pub fn next_park_wake(&self, now: Cycle) -> Option<Cycle> {
        let mut wake = Cycle::MAX;
        for f in &self.flows {
            if f.is_spent(now) {
                continue;
            }
            if f.start > now {
                wake = wake.min(f.start);
                continue;
            }
            let (next_flits, _) = f.next_packet(self.flit_bytes, self.mtu_flits);
            if f.tokens >= next_flits as f64 && !f.refused {
                return None;
            }
            let accrual = f.flits_per_cycle;
            if accrual > 0.0 && !f.refused {
                let need = next_flits as f64;
                let k = ((need - f.tokens) / accrual).floor() as Cycle;
                let ahead = if k > EXACT_HORIZON {
                    k - (2 + (k >> 16))
                } else {
                    // Close enough to step there: the same capped
                    // additions the ticks (or their replay) will make, so
                    // this is the emission cycle itself.
                    let (mut tokens, mut ahead) = (f.tokens, 0);
                    while tokens < need {
                        tokens = (tokens + accrual).min(BURST_CAP_PACKETS * need);
                        ahead += 1;
                    }
                    ahead
                };
                wake = wake.min(now + ahead);
            }
        }
        Some(wake)
    }

    /// The packets the last tick offered to a fixed destination and saw
    /// refused, less those of flows whose window has closed by `now`:
    /// what every retry offers again until the sink makes room — the
    /// flows [`Self::next_park_wake`] leaves to the sink's owner.
    pub fn refused_offers(&self, now: Cycle) -> impl Iterator<Item = GenPacket> + '_ {
        let retries = move |f: &&FlowState| f.refused && !f.is_spent(now);
        self.flows.iter().filter(retries).map(|f| {
            let (size_flits, size_bytes) = f.next_packet(self.flit_bytes, self.mtu_flits);
            let Destination::Fixed(dst) = f.dst else {
                unreachable!("only a fixed destination is marked refused")
            };
            GenPacket {
                flow: f.id,
                dst,
                size_flits,
                size_bytes,
            }
        })
    }

    /// Replay the cycles in `(last_tick, now)` skipped while the node
    /// was parked, flow by flow. Parking guarantees no accepted emission
    /// falls inside a gap (debug-asserted; a refused flow's retries are
    /// refused throughout it), so a flow's `remaining` and hence its cap
    /// are constant there, and it makes one capped addition of its
    /// accrual for each gap cycle inside its
    /// `[start, end)` window — [`accrue_n`] gives their exact result.
    /// Outside the window a skipped tick would only have zeroed the
    /// bucket: before `start` it is still zero, and a flow whose window
    /// closed in the gap is inactive at `now`, whose tick zeroes it.
    fn replay_to(&mut self, now: Cycle) {
        let (flit_bytes, mtu_flits) = (self.flit_bytes, self.mtu_flits);
        let from = match self.last_tick {
            Cycle::MAX => 0,
            t => t + 1,
        };
        for f in &mut self.flows {
            let (lo, hi) = (from.max(f.start), f.end.map_or(now, |e| e.min(now)));
            if lo >= hi || f.remaining == Some(0) {
                continue;
            }
            let (next_flits, _) = f.next_packet(flit_bytes, mtu_flits);
            let cap = BURST_CAP_PACKETS * next_flits as f64;
            f.tokens = accrue_n(f.tokens, f.flits_per_cycle, cap, hi - lo);
            debug_assert!(
                f.tokens < next_flits as f64 || f.refused,
                "parked across an accepted emission"
            );
        }
    }

    /// Advance one cycle: accrue budget and offer ready packets to the
    /// sink. Offers at most one packet per flow per cycle (a node cannot
    /// source faster than its flows' combined budget anyway; the cap
    /// bounds worst-case work per cycle).
    pub fn tick(&mut self, now: Cycle, sink: &mut impl InjectSink) {
        if self.accrue_and_offer(now, sink) {
            self.flows.retain(|f| !f.is_spent(now));
        }
    }

    /// The cycle itself; `true` when it met (or made) a spent flow.
    fn accrue_and_offer(&mut self, now: Cycle, sink: &mut impl InjectSink) -> bool {
        if self.last_tick == Cycle::MAX || now > self.last_tick + 1 {
            self.replay_to(now);
        }
        self.last_tick = now;
        let (flit_bytes, mtu_flits) = (self.flit_bytes, self.mtu_flits);
        let mut spent = false;
        for f in &mut self.flows {
            if !f.is_active(now) {
                // Budget does not accumulate while inactive; leftover
                // tokens are discarded so a reactivated flow starts
                // cleanly.
                f.tokens = 0.0;
                f.refused = false;
                spent |= f.is_spent(now);
                continue;
            }
            let (next_flits, next_bytes) = f.next_packet(flit_bytes, mtu_flits);
            f.tokens = (f.tokens + f.flits_per_cycle).min(BURST_CAP_PACKETS * next_flits as f64);
            f.refused = false;
            if f.tokens >= next_flits as f64 {
                let dst = match f.dst {
                    Destination::Fixed(d) => d,
                    Destination::Uniform => {
                        // Uniform over all nodes except the source.
                        let r = f.rng.random_range(0..self.num_nodes - 1);
                        let d = if r >= self.node.index() { r + 1 } else { r };
                        NodeId::from(d)
                    }
                };
                let accepted = sink.try_inject(GenPacket {
                    flow: f.id,
                    dst,
                    size_flits: next_flits,
                    size_bytes: next_bytes,
                });
                if accepted {
                    f.tokens -= next_flits as f64;
                    if let Some(rem) = &mut f.remaining {
                        *rem -= next_bytes as u64;
                        spent |= *rem == 0;
                    }
                }
                // On refusal the tokens stay (capped), modelling a
                // saturated source that retries immediately.
                f.refused = !accepted && matches!(f.dst, Destination::Fixed(_));
            }
        }
        spent
    }
}

/// `n` rounds of `t = (t + a).min(cap)`, to the bit, in a few float steps
/// per binade of `t` instead of one per round. Inputs are a token
/// bucket's: `t ≥ 0`, `a ≥ 0`, `cap > 0`, all finite.
///
/// Inside one binade `[lo, top)` of `t`, whose values are the multiples
/// of its ulp `u`, the rounded sum `fl(t + a)` is `t + r`, where `r` is
/// `a` rounded to a multiple of `u`. So `k` rounds whose results stay
/// below `top` and `cap` are exactly `t + k·r`, which is integer
/// arithmetic in units of `u`. The round that reaches `top` or `cap` is
/// made for real, and the next binade starts from its result. Nothing
/// else needs a real step except a half-ulp tie (`a` an odd multiple of
/// `u / 2`), which rounds to even and so depends on the parity of `t`:
/// from an odd multiple of `u` one real round lands on an even one, and
/// from there every round adds the same even `r`. `a == 0` and `t ≥ cap`
/// settle at once. Zero and the subnormals form one binade with the ulp
/// of the smallest normal.
fn accrue_n(mut t: f64, a: f64, cap: f64, mut n: u64) -> f64 {
    while n > 0 {
        if t >= cap {
            return cap;
        }
        if a == 0.0 {
            return t;
        }
        let (u, top) = if t < f64::MIN_POSITIVE {
            (f64::from_bits(1), f64::MIN_POSITIVE)
        } else {
            let lo = f64::from_bits(t.to_bits() & 0x7ff0_0000_0000_0000);
            (lo * f64::EPSILON, lo * 2.0)
        };
        // Below `top`, `a / u` and `t / u` are exact: `u` is a power of two.
        let (q, units) = (a / u, t / u);
        let tie = q - q.floor() == 0.5;
        if a < top && !(tie && units % 2.0 == 1.0) {
            let r = q.round_ties_even() as u64;
            if r == 0 {
                return t;
            }
            // Results below `limit` units are below both `top` and `cap`.
            let limit = if cap < top { (cap / u).ceil() } else { top / u } as u64;
            let k = ((limit - 1 - units as u64) / r).min(n);
            t = (units as u64 + k * r) as f64 * u;
            n -= k;
            if n == 0 {
                break;
            }
        }
        t = (t + a).min(cap);
        n -= 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowSpec;

    fn units() -> UnitModel {
        UnitModel::default()
    }

    fn gen_for(specs: &[FlowSpec], node: u32) -> NodeGenerator {
        NodeGenerator::new(NodeId(node), specs, &units(), 1, 8, &SeedSplitter::new(42))
    }

    /// Run `cycles` cycles with an always-accepting sink; count packets.
    fn run_accepting(g: &mut NodeGenerator, cycles: u64) -> Vec<GenPacket> {
        let mut got = Vec::new();
        let mut sink = |p: GenPacket| {
            got.push(p);
            true
        };
        for now in 0..cycles {
            g.tick(now, &mut sink);
        }
        got
    }

    #[test]
    fn full_rate_flow_saturates_the_link() {
        let specs = vec![FlowSpec::hotspot(0, NodeId(0), NodeId(4), 0.0, None)];
        let mut g = gen_for(&specs, 0);
        let got = run_accepting(&mut g, 3200);
        // 3200 cycles at 1 flit/cycle = 100 MTU packets of 32 flits.
        assert_eq!(got.len(), 100);
        assert!(got.iter().all(|p| p.dst == NodeId(4) && p.size_flits == 32));
    }

    #[test]
    fn half_rate_flow_generates_half_the_packets() {
        let mut spec = FlowSpec::hotspot(0, NodeId(0), NodeId(4), 0.0, None);
        spec.rate = 0.5;
        let mut g = gen_for(&[spec], 0);
        let got = run_accepting(&mut g, 6400);
        assert_eq!(got.len(), 100);
    }

    #[test]
    fn flow_respects_activation_window() {
        let u = units();
        let start_ns = 1000.0 * u.cycle_ns;
        let end_ns = 2000.0 * u.cycle_ns;
        let specs = vec![FlowSpec::hotspot(
            0,
            NodeId(0),
            NodeId(4),
            start_ns,
            Some(end_ns),
        )];
        let mut g = gen_for(&specs, 0);
        let mut times = Vec::new();
        let mut count = 0usize;
        for now in 0..3000u64 {
            let mut sink = |_: GenPacket| {
                times.push(now);
                count += 1;
                true
            };
            g.tick(now, &mut sink);
        }
        assert!(!times.is_empty());
        assert!(*times.first().unwrap() >= 1000);
        assert!(*times.last().unwrap() < 2000 + 32, "stops at deactivation");
        // Roughly 1000 cycles of activity = ~31 packets.
        assert!((28..=33).contains(&count), "got {count}");
    }

    #[test]
    fn backpressure_retains_budget_up_to_burst_cap() {
        let specs = vec![FlowSpec::hotspot(0, NodeId(0), NodeId(4), 0.0, None)];
        let mut g = gen_for(&specs, 0);
        // Refuse everything for 1000 cycles.
        let mut refuse = |_: GenPacket| false;
        for now in 0..1000u64 {
            g.tick(now, &mut refuse);
        }
        // Then accept: only the burst cap (2 packets) plus steady-state
        // generation may appear in a short window.
        let mut got = 0usize;
        let mut accept = |_: GenPacket| {
            got += 1;
            true
        };
        for now in 1000..1002u64 {
            g.tick(now, &mut accept);
        }
        assert!(got <= 2, "burst after stall is capped, got {got}");
    }

    #[test]
    fn uniform_flow_never_picks_its_own_node() {
        let specs = vec![FlowSpec::uniform(0, NodeId(3), 0.0, None)];
        let mut g = gen_for(&specs, 3);
        let got = run_accepting(&mut g, 32 * 200);
        assert_eq!(got.len(), 200);
        assert!(got.iter().all(|p| p.dst != NodeId(3)));
    }

    #[test]
    fn uniform_flow_covers_all_other_destinations() {
        let specs = vec![FlowSpec::uniform(0, NodeId(0), 0.0, None)];
        let mut g = gen_for(&specs, 0);
        let got = run_accepting(&mut g, 32 * 700);
        let mut seen = [false; 8];
        for p in &got {
            seen[p.dst.index()] = true;
        }
        assert!(!seen[0]);
        assert!(
            seen[1..].iter().all(|&s| s),
            "all 7 other nodes hit: {seen:?}"
        );
    }

    #[test]
    fn generators_are_deterministic() {
        let specs = vec![FlowSpec::uniform(0, NodeId(0), 0.0, None)];
        let mut a = gen_for(&specs, 0);
        let mut b = gen_for(&specs, 0);
        let ga = run_accepting(&mut a, 3200);
        let gb = run_accepting(&mut b, 3200);
        assert_eq!(ga, gb);
    }

    #[test]
    fn only_own_flows_are_instantiated() {
        let specs = vec![
            FlowSpec::hotspot(0, NodeId(0), NodeId(4), 0.0, None),
            FlowSpec::hotspot(1, NodeId(1), NodeId(4), 0.0, None),
        ];
        let g = gen_for(&specs, 0);
        assert_eq!(g.num_flows(), 1);
    }

    /// Drive three generators built by `make` against a sink that is
    /// shut for 30 cycles in every 97: one ticked every cycle that never
    /// drops a spent flow (the reference), one ticked every cycle, and
    /// one ticked the way the engine does — only at `next_park_wake`
    /// cycles or, after a refusal, when the sink next opens if that is
    /// sooner, replaying the gaps. Every emission (cycle + packet) must
    /// agree, and wherever the first two stand side by side, so must
    /// `any_active` and `next_park_wake`. Byte-identity of the parking
    /// contract and of live-flow scanning in a bottle. Returns the
    /// densely ticked generator as the run left it.
    pub(super) fn assert_parked_matches_dense_with(
        make: impl Fn() -> NodeGenerator,
        cycles: u64,
    ) -> NodeGenerator {
        let accepts = |now: Cycle| now % 97 >= 30;
        let reopens = |now: Cycle| (now + 1).max(now / 97 * 97 + 30);
        let (mut keep, mut dense) = (make(), make());
        let (mut keep_got, mut dense_got) = (Vec::new(), Vec::new());
        for now in 0..cycles {
            assert_eq!(dense.any_active(now), keep.any_active(now), "cycle {now}");
            let _ = keep.accrue_and_offer(now, &mut |p: GenPacket| {
                keep_got.push((now, p));
                accepts(now)
            });
            dense.tick(now, &mut |p: GenPacket| {
                dense_got.push((now, p));
                accepts(now)
            });
            assert_eq!(
                dense.next_park_wake(now),
                keep.next_park_wake(now),
                "cycle {now}"
            );
        }
        assert_eq!(
            keep.flows.len(),
            keep.num_flows(),
            "the reference drops none"
        );
        assert_eq!(dense_got, keep_got);
        let mut parked = make();
        let mut parked_got = Vec::new();
        let mut now = 0u64;
        while now < cycles {
            let mut sink_moves = Cycle::MAX;
            parked.tick(now, &mut |p: GenPacket| {
                parked_got.push((now, p));
                if !accepts(now) {
                    sink_moves = reopens(now);
                }
                accepts(now)
            });
            let next = match parked.next_park_wake(now) {
                None => now + 1,
                Some(at) => at.min(sink_moves).max(now + 1),
            };
            if next == Cycle::MAX {
                break;
            }
            now = next;
        }
        // The parked generator is spared the retries a shut sink refuses
        // a fixed-destination flow; what the sink accepted must agree.
        dense_got.retain(|&(at, _)| accepts(at));
        parked_got.retain(|&(at, _)| accepts(at));
        assert_eq!(dense_got, parked_got);
        assert!(!dense_got.is_empty(), "vacuous: no emissions at all");
        dense
    }

    fn assert_parked_matches_dense(specs: &[FlowSpec], cycles: u64) {
        assert_parked_matches_dense_with(|| gen_for(specs, 0), cycles);
    }

    #[test]
    fn parked_smooth_flow_emits_identically() {
        let mut spec = FlowSpec::uniform(0, NodeId(0), 0.0, None);
        spec.rate = 0.37;
        assert_parked_matches_dense(&[spec], 20_000);
    }

    #[test]
    fn parked_windowed_flows_emit_identically() {
        let u = units();
        let mut a = FlowSpec::hotspot(0, NodeId(0), NodeId(4), 500.0 * u.cycle_ns, None);
        a.rate = 0.11;
        let b = FlowSpec::uniform(1, NodeId(0), 3000.0 * u.cycle_ns, Some(9000.0 * u.cycle_ns));
        assert_parked_matches_dense(&[a, b], 20_000);
    }

    #[test]
    fn parked_non_dyadic_rates_emit_identically() {
        // 0.1 and 1/3 are not sums of a few powers of two: their
        // accrual rounds differently in every binade the bucket crosses.
        for (id, rate) in [(0, 0.1), (1, 1.0 / 3.0)] {
            let mut spec = FlowSpec::uniform(id, NodeId(0), 0.0, None);
            spec.rate = rate;
            assert_parked_matches_dense(&[spec], 25_000);
        }
    }

    #[test]
    fn parked_window_closing_inside_a_gap_emits_identically() {
        // At rate 0.1 the hotspot flow emits every 320 cycles, so its
        // window closes 80 cycles after an emission, with the node
        // parked; the slow uniform flow keeps the node alive after it.
        let u = units();
        let mut a = FlowSpec::hotspot(0, NodeId(0), NodeId(4), 0.0, Some(5_000.0 * u.cycle_ns));
        a.rate = 0.1;
        let mut b = FlowSpec::uniform(1, NodeId(0), 0.0, None);
        b.rate = 0.03;
        assert_parked_matches_dense(&[a, b], 20_000);
    }

    #[test]
    fn banked_packet_forbids_parking() {
        // A redrawn destination: every retry draws from the flow RNG and
        // may land on a queue with room, so each has to be made.
        let mut g = gen_for(&[FlowSpec::uniform(0, NodeId(0), 0.0, None)], 0);
        let mut refuse = |_: GenPacket| false;
        for now in 0..100u64 {
            g.tick(now, &mut refuse);
        }
        assert_eq!(g.next_park_wake(99), None);
    }

    #[test]
    fn a_refused_fixed_flow_waits_for_the_sink() {
        // The same packet meets the same full queue until the sink moves,
        // and the sink's owner knows when that is.
        let specs = vec![FlowSpec::hotspot(0, NodeId(0), NodeId(4), 0.0, None)];
        let mut g = gen_for(&specs, 0);
        let mut refuse = |_: GenPacket| false;
        for now in 0..100u64 {
            g.tick(now, &mut refuse);
        }
        assert_eq!(g.next_park_wake(99), Some(Cycle::MAX));
        // The retries it was spared are replayed as accrual alone: woken
        // late, it offers the same packet an every-cycle twin does.
        let mut twin = g.clone();
        for now in 100..150u64 {
            twin.tick(now, &mut refuse);
        }
        let (mut got, mut twin_got) = (Vec::new(), Vec::new());
        g.tick(150, &mut |p: GenPacket| {
            got.push(p);
            true
        });
        twin.tick(150, &mut |p: GenPacket| {
            twin_got.push(p);
            true
        });
        assert_eq!((got.len(), &got), (1, &twin_got));
        assert_eq!(g.flows[0].tokens, twin.flows[0].tokens);
        // Accepting the retry drains the bank and parking resumes.
        let mut accept = |_: GenPacket| true;
        g.tick(151, &mut accept);
        let wake = g.next_park_wake(151).expect("parkable again");
        assert!(wake > 151 && wake < Cycle::MAX);
    }

    #[test]
    fn inactive_generator_reports_idle() {
        let specs = vec![FlowSpec::hotspot(0, NodeId(0), NodeId(4), 1e6, None)];
        let g = gen_for(&specs, 0);
        assert!(!g.any_active(0));
        assert!(g.any_active(units().ns_to_cycles(1e6)));
    }

    /// What [`accrue_n`] must reproduce: one capped addition per round.
    fn accrue_stepwise(mut t: f64, a: f64, cap: f64, n: u64) -> f64 {
        for _ in 0..n {
            t = (t + a).min(cap);
        }
        t
    }

    fn assert_accrues_like_the_loop(t: f64, a: f64, cap: f64, n: u64) {
        assert_eq!(
            accrue_n(t, a, cap, n).to_bits(),
            accrue_stepwise(t, a, cap, n).to_bits(),
            "t = {t:e}, a = {a:e}, cap = {cap}, n = {n}"
        );
    }

    #[test]
    fn accrue_n_matches_the_stepwise_loop() {
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(27);
        for case in 0..200_000u64 {
            let cap = BURST_CAP_PACKETS * rng.random_range(1..=64u32) as f64;
            let link_bw = rng.random_range(1..=2u32) as f64;
            let rate = match case % 6 {
                0 => 0.1,
                1 => 1.0 / 3.0,
                2 => 0.75,
                3 => 1.0,
                4 => 1e-9,
                _ => rng.random::<f64>() * 0.5f64.powi(rng.random_range(0..40)),
            };
            let t = match case / 6 % 4 {
                0 => 0.0,
                1 => rng.random_range(0..cap as u32) as f64,
                2 => rng.random::<f64>() * cap,
                _ => cap * (1.0 + rng.random::<f64>()),
            };
            assert_accrues_like_the_loop(t, rate * link_bw, cap, rng.random_range(0..=2_000u64));
        }
    }

    #[test]
    fn accrue_n_edge_cases() {
        // a == 0: the cap applies once and nothing else moves.
        assert_eq!(accrue_n(3.5, 0.0, 64.0, 1_000), 3.5);
        assert_eq!(accrue_n(70.0, 0.0, 64.0, 1_000), 64.0);
        // t ≥ cap: the first round lands on the cap, and n == 0 is no round.
        assert_eq!(accrue_n(64.0, 0.1, 64.0, 5), 64.0);
        assert_eq!(accrue_n(100.0, 0.1, 4.0, 1), 4.0);
        assert_eq!(accrue_n(100.0, 0.1, 4.0, 0), 100.0);
        // A half-ulp tie in [1, 2): from the odd 1 + u the first round
        // rounds up to 1 + 4u, every later one adds 2u (to even).
        let u = f64::EPSILON;
        let (odd, tie) = (1.0 + u, 2.5 * u);
        assert_eq!(accrue_stepwise(odd, tie, 64.0, 1), 1.0 + 4.0 * u);
        assert_eq!(accrue_stepwise(odd, tie, 64.0, 3), 1.0 + 8.0 * u);
        for n in 0..64 {
            for t in [odd, 1.0, 2.0 - 8.0 * u, 2.0 - 3.0 * u] {
                assert_accrues_like_the_loop(t, tie, 64.0, n);
                assert_accrues_like_the_loop(t, 0.5 * u, 64.0, n);
                assert_accrues_like_the_loop(t, 3.5 * u, 64.0, n);
            }
        }
        // Subnormal accrual, and an addend that dwarfs the bucket.
        assert_accrues_like_the_loop(0.0, 3.0 * f64::from_bits(1), 1.0, 1_000);
        assert_accrues_like_the_loop(f64::from_bits(5), 1.0, 64.0, 100);
    }
}

#[cfg(test)]
mod sized_tests {
    use super::*;
    use crate::sized::SizedFlow;

    fn gen_sized(specs: &[SizedFlow], node: u32) -> NodeGenerator {
        NodeGenerator::new_with_sized(
            NodeId(node),
            &[],
            specs,
            &UnitModel::default(),
            1,
            8,
            &SeedSplitter::new(42),
        )
    }

    fn drain(g: &mut NodeGenerator, cycles: u64) -> Vec<GenPacket> {
        let mut got = Vec::new();
        let mut sink = |p: GenPacket| {
            got.push(p);
            true
        };
        for now in 0..cycles {
            g.tick(now, &mut sink);
        }
        got
    }

    #[test]
    fn sized_flow_emits_exactly_its_bytes_then_goes_idle() {
        // 5 full MTU packets plus a 100 B tail.
        let bytes = 5 * MTU_BYTES as u64 + 100;
        let specs = vec![SizedFlow::new(0, NodeId(0), NodeId(4), bytes, 0.0)];
        let mut g = gen_sized(&specs, 0);
        let got = drain(&mut g, 10_000);
        assert_eq!(got.len(), 6);
        assert_eq!(got.iter().map(|p| p.size_bytes as u64).sum::<u64>(), bytes);
        assert_eq!(got[5].size_bytes, 100);
        assert_eq!(got[5].size_flits, 2, "100 B = 2 flits of 64 B");
        assert!(!g.any_active(10_000), "drained flow is inactive");
        assert_eq!(g.next_park_wake(10_000), Some(Cycle::MAX));
    }

    #[test]
    fn sized_flow_survives_backpressure_without_losing_bytes() {
        let bytes = 3 * MTU_BYTES as u64;
        let specs = vec![SizedFlow::new(0, NodeId(0), NodeId(4), bytes, 0.0)];
        let mut g = gen_sized(&specs, 0);
        let mut refuse = |_: GenPacket| false;
        for now in 0..500u64 {
            g.tick(now, &mut refuse);
        }
        assert_eq!(
            g.next_park_wake(499),
            Some(Cycle::MAX),
            "a refused sized flow waits for the sink"
        );
        let mut got = Vec::new();
        let mut accept = |p: GenPacket| {
            got.push(p);
            true
        };
        for now in 500..5000u64 {
            g.tick(now, &mut accept);
        }
        assert_eq!(got.iter().map(|p| p.size_bytes as u64).sum::<u64>(), bytes);
    }

    #[test]
    fn parked_sized_flows_emit_identically() {
        let specs = vec![
            SizedFlow::new(0, NodeId(0), NodeId(4), 10 * 2048 + 700, 0.0),
            SizedFlow::new(
                1,
                NodeId(0),
                NodeId(5),
                3 * 2048,
                2000.0 * UnitModel::default().cycle_ns,
            ),
        ];
        let g = super::tests::assert_parked_matches_dense_with(|| gen_sized(&specs, 0), 20_000);
        assert!(g.flows.is_empty(), "both drained, both dropped");
    }

    /// Rate flows whose windows open and close at different times beside
    /// sized flows that start and drain mid-run: a flow is dropped from
    /// the scans once it is spent, later ones keep their declaration
    /// order, and none of it shows — same packets in the same order on
    /// the same cycles as a generator that keeps every flow, and the
    /// same `any_active` / `next_park_wake` after every cycle.
    #[test]
    fn spent_flows_are_dropped_without_a_trace() {
        let ns = |cycles: f64| cycles * UnitModel::default().cycle_ns;
        let mut slow = FlowSpec::uniform(0, NodeId(0), ns(200.0), None);
        slow.rate = 0.13;
        let early = FlowSpec::hotspot(1, NodeId(0), NodeId(4), 0.0, Some(ns(1500.0)));
        let mut late = FlowSpec::hotspot(2, NodeId(0), NodeId(5), ns(4000.0), Some(ns(9000.0)));
        late.rate = 0.4;
        let rate = [slow, early, late];
        let sized = [
            SizedFlow::new(4, NodeId(0), NodeId(6), 3 * 2048 + 100, 0.0),
            SizedFlow::new(5, NodeId(0), NodeId(7), 40 * 2048, ns(2500.0)),
            SizedFlow::new(6, NodeId(0), NodeId(1), 1, ns(2500.0)),
            SizedFlow::new(7, NodeId(0), NodeId(2), 2048, ns(12_000.0)),
        ];
        let make = |rate: &[FlowSpec]| {
            let seeds = SeedSplitter::new(42);
            NodeGenerator::new_with_sized(
                NodeId(0),
                rate,
                &sized,
                &UnitModel::default(),
                1,
                8,
                &seeds,
            )
        };
        let g = super::tests::assert_parked_matches_dense_with(|| make(&rate), 30_000);
        assert_eq!(g.num_flows(), 7, "the configured count");
        let live: Vec<u32> = g.flows.iter().map(|f| f.id.0).collect();
        assert_eq!(live, [0], "the open-ended flow");

        // Every flow spent: the generator ends up scanning nothing.
        let g = super::tests::assert_parked_matches_dense_with(|| make(&rate[1..3]), 30_000);
        assert_eq!((g.flows.len(), g.num_flows()), (0, 6));
        assert!(!g.any_active(30_000));
        assert_eq!(g.next_park_wake(30_000), Some(Cycle::MAX));
    }

    #[test]
    fn sized_and_rate_flows_coexist() {
        let rate = vec![FlowSpec::hotspot(0, NodeId(0), NodeId(4), 0.0, None)];
        let sized = vec![SizedFlow::new(1, NodeId(0), NodeId(5), 2048, 0.0)];
        let mut g = NodeGenerator::new_with_sized(
            NodeId(0),
            &rate,
            &sized,
            &UnitModel::default(),
            1,
            8,
            &SeedSplitter::new(42),
        );
        assert_eq!(g.num_flows(), 2);
        let got = drain(&mut g, 3200);
        let sized_pkts: Vec<_> = got.iter().filter(|p| p.flow == FlowId(1)).collect();
        assert_eq!(sized_pkts.len(), 1);
        assert!(got.iter().filter(|p| p.flow == FlowId(0)).count() > 50);
        assert_eq!(g.num_flows(), 2, "the drained flow still counts");
    }
}
