//! The sharded side of the tick pipeline's fan-out points (DESIGN.md §9).
//!
//! The phase pipeline is written once, in `Simulator::cycle`; with
//! `threads > 1` its coordinator partitions switches and adapters into
//! `threads` contiguous shards and dispatches the per-component phases
//! — link deliveries into switches, control polling, isolation,
//! congestion-state + arbitration, and adapter ticks — to a persistent
//! worker pool, each shard walking its slice of the sorted work-lists.
//! Everything a shard does to state it does not own (RAM releases,
//! metric updates, fault-purge tallies) is recorded into a
//! per-shard [`ShardOutbox`] and replayed by the coordinator in the
//! canonical order *(shard index, component index, emission order)*.
//! Because shards are contiguous component ranges, that replay order is
//! exactly the component-index order of the serial engine, so a parallel
//! run is **byte-identical** to a serial one — a property the
//! determinism suite pins for `threads ∈ {1, 2, 4}`.
//!
//! ## Why this is sound
//!
//! Every parallel section touches a statically disjoint link set per
//! shard (links are the shard boundary; they carry ≥ 1 cycle of latency,
//! so nothing a shard emits is visible to another shard within the same
//! cycle):
//!
//! * **Deliver** — a link is drained by the shard of its *receiving*
//!   switch (credit refunds on a fault purge touch the same link).
//! * **Ctrl** — a switch polls its own output links; an adapter polls
//!   its own injection link. Output links and injection links are
//!   disjoint sets (injection links are sent on by adapters).
//! * **Iso** — a switch sends Stop/Go/alloc control *upstream* on its
//!   own input links; the cached [`crate::switch::OutputPort::link_bw`]
//!   removes the one foreign read the starvation test used to make.
//! * **CstArb** — a switch reads credits of and transmits on its own
//!   output links.
//! * **AdapterTick** — an adapter transmits on its own injection link.
//!
//! VOQnet per-destination credits are atomics indexed by link, so each
//! row inherits the single-writer guarantee of the link that owns it.
//! Sections are separated by sense-reversing barriers, which provide the
//! happens-before edges the aliased [`LinkSlice`] views rely on.

use crate::endnode::{Adapter, AdapterRelease};
use crate::switch::{PendingRelease, Switch, VoqNetCredits};
use ccfit_engine::ids::{PacketId, SwitchId};
use ccfit_engine::link::{Delivery, Link, LinkSlice};
use ccfit_engine::units::Cycle;
use ccfit_metrics::MetricsScratch;
use ccfit_topology::RoutingTable;
use std::cell::UnsafeCell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Simulated cycles per worker-pool dispatch. Inside a batch the workers
/// stay hot and cross cheap spin-biased barriers; only the batch boundary
/// is a park-capable rendezvous, so a batch amortizes wakeup latency.
/// Per-cycle phase and merge order do not depend on it, so it cannot
/// affect results.
pub(crate) const BATCH_CYCLES: usize = 16;

/// Minimum per-shard work estimate (in [`network_weight`] units —
/// roughly "connected ports plus adapters, scaled by mechanism cost")
/// below which the auto-fallback runs serially: a shard that ticks a
/// handful of components finishes in well under a microsecond, which is
/// less than the barrier crossings cost. The three paper configs (≤ 64
/// nodes) all land below this; a 16-ary 3-tree (4096 nodes) is ~150×
/// above it.
pub const MIN_SHARD_WEIGHT: u64 = 512;

/// Worker-pool configuration for the sharded parallel tick engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// OS threads ticking the network. `1` (the default) keeps the
    /// serial engine; `n > 1` runs the sharded engine on `n` threads
    /// (the calling thread works shard 0). Results are byte-identical
    /// for every value.
    pub threads: usize,
    /// Whether the engine may overrule `threads` when parallelism cannot
    /// pay for its synchronization (see [`EngineDecision`]).
    pub fallback: ParallelFallback,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            fallback: ParallelFallback::Auto,
        }
    }
}

/// Policy for degrading a parallel request that cannot pay off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParallelFallback {
    /// Degrade automatically: run serially on a single-CPU host or when
    /// shards would be too small, and clamp `threads` to the host's CPU
    /// count. The default — results are identical either way, only
    /// wall-clock changes.
    #[default]
    Auto,
    /// Run exactly `threads` workers no matter what. Used by the
    /// determinism suite (which must exercise the sharded engine even on
    /// a 1-CPU CI runner) and available via
    /// [`crate::SimBuilder::force_parallel`].
    Never,
}

/// Why the engine did not run with the requested thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The host has one CPU: every barrier crossing would be a scheduler
    /// round-trip (the configuration that measured 0.008× speedup).
    SingleCpu,
    /// `threads` exceeded the host's CPU count; the engine still runs in
    /// parallel, clamped to the CPUs that exist.
    Oversubscribed,
    /// Per-shard work below [`MIN_SHARD_WEIGHT`]: synchronization would
    /// cost more than the work it distributes.
    TinyShards,
}

impl FallbackReason {
    /// Stable lowercase token for logs/JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            FallbackReason::SingleCpu => "single-cpu",
            FallbackReason::Oversubscribed => "oversubscribed",
            FallbackReason::TinyShards => "tiny-shards",
        }
    }
}

/// The engine-selection verdict for one run: what was asked, what will
/// actually execute, and why they differ (if they do). Computed before
/// the first tick from the host CPU count and a static work estimate —
/// deliberately *not* part of [`crate::simulator::SimReport`], so the
/// report stays byte-identical across hosts and thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineDecision {
    /// `ParallelConfig::threads` as configured.
    pub requested_threads: usize,
    /// Worker count that will actually run (`1` = serial engine).
    pub effective_threads: usize,
    /// Host CPUs visible to the process.
    pub host_cpus: usize,
    /// Estimated per-shard work at `effective_threads.max(1)` shards,
    /// in [`network_weight`] units.
    pub shard_weight: u64,
    /// `Some` when the engine overruled or clamped the request.
    pub fallback: Option<FallbackReason>,
}

impl EngineDecision {
    /// The advisory line for a degraded request, `None` when the engine
    /// runs exactly what was asked. Bench harnesses surface this next to
    /// wall-clock numbers so a fallen-back "parallel" leg cannot
    /// masquerade as a parallel measurement.
    pub fn warning(&self) -> Option<String> {
        self.fallback.map(|_| self.summary())
    }

    /// One-line human summary (the auto-fallback warning body).
    pub fn summary(&self) -> String {
        match self.fallback {
            None => format!(
                "parallel tick: {} thread(s) on {} CPU(s)",
                self.effective_threads, self.host_cpus
            ),
            Some(r) => format!(
                "parallel tick requested {} thread(s) but running {} ({}; host has {} CPU(s), \
                 per-shard work ≈ {}); set SimBuilder::force_parallel() to override",
                self.requested_threads,
                self.effective_threads,
                r.as_str(),
                self.host_cpus,
                self.shard_weight,
            ),
        }
    }
}

/// Decide how a [`ParallelConfig`] request should execute on a host with
/// `host_cpus` CPUs against a network whose total static work estimate
/// is `total_weight` (see [`network_weight`]). Pure — the simulator and
/// the bench harness both call this, so the warning a user sees is the
/// decision the engine makes.
pub fn decide(cfg: &ParallelConfig, host_cpus: usize, total_weight: u64) -> EngineDecision {
    let requested = cfg.threads.max(1);
    let host_cpus = host_cpus.max(1);
    let mut d = EngineDecision {
        requested_threads: requested,
        effective_threads: requested,
        host_cpus,
        shard_weight: total_weight / requested.max(1) as u64,
        fallback: None,
    };
    if requested == 1 || cfg.fallback == ParallelFallback::Never {
        return d;
    }
    if host_cpus == 1 {
        d.effective_threads = 1;
        d.shard_weight = total_weight;
        d.fallback = Some(FallbackReason::SingleCpu);
        return d;
    }
    let clamped = requested.min(host_cpus);
    d.shard_weight = total_weight / clamped as u64;
    if d.shard_weight < MIN_SHARD_WEIGHT {
        d.effective_threads = 1;
        d.shard_weight = total_weight;
        d.fallback = Some(FallbackReason::TinyShards);
        return d;
    }
    d.effective_threads = clamped;
    if clamped < requested {
        d.fallback = Some(FallbackReason::Oversubscribed);
    }
    d
}

/// Static work estimate for a network: one unit per connected switch
/// port and per adapter, scaled by the mechanism's per-component cost
/// factor ([`crate::Mechanism::tick_weight`]). The same quantity drives
/// shard balancing, so "per-shard weight" in [`EngineDecision`] is the
/// load the busiest worker actually receives.
pub fn network_weight(
    switch_ports: impl Iterator<Item = usize>,
    num_adapters: usize,
    mech_factor: u64,
) -> u64 {
    let ports: u64 = switch_ports.map(|p| p as u64).sum();
    ports * mech_factor + num_adapters as u64
}

/// Which parallel section of the tick to run (see the module docs for
/// the per-section link-ownership argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PhaseKind {
    /// Phase 3a: drain switch-bound links into their receiving switches.
    Deliver,
    /// Phase 4: switches poll output-link ctrl, adapters poll injection
    /// ctrl.
    Ctrl,
    /// Phase 5a: isolation / post-processing (records its activity gate
    /// into `p5_ran` for reuse by `CstArb`).
    Iso,
    /// Phases 5b + 6: congestion-state refresh, then iSLIP arbitration
    /// and transmission.
    CstArb,
    /// Phase 8b: adapter output work (AdVOQ moves + injection).
    AdapterTick,
}

/// The static shard layout: contiguous switch/adapter ranges plus the
/// shard owning each switch-bound link.
#[derive(Debug, Clone)]
pub(crate) struct ShardPlan {
    pub(crate) shards: usize,
    pub(crate) switch_ranges: Vec<Range<usize>>,
    pub(crate) adapter_ranges: Vec<Range<usize>>,
    /// Shard owning each link's receiving switch (`u32::MAX` for
    /// node-bound links, which stay serial). `Deliver` walks the sorted
    /// active-link list and keeps only its own links, so every switch
    /// sees its deliveries in ascending link order.
    pub(crate) link_owner: Vec<u32>,
    /// `(switch, port)` each switch-bound link delivers into (zeros for
    /// node-bound links; never read for them).
    pub(crate) link_sw_port: Vec<(u32, u32)>,
}

/// Split `weights` into `parts` contiguous ranges whose weight sums are
/// as even as a greedy left-to-right pass can make them. Deterministic;
/// the concatenation of the ranges is always exactly `0..weights.len()`
/// (a proptest in `tests/` pins that invariant), and with uniform
/// weights it degenerates to the near-even index split. Trailing ranges
/// may be empty when there are more parts than items.
pub fn partition_weighted(weights: &[u64], parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1);
    let n = weights.len();
    let mut ranges = Vec::with_capacity(parts);
    let mut remaining: u64 = weights.iter().sum();
    let mut start = 0usize;
    for w in 0..parts {
        let end = if w + 1 == parts {
            n
        } else {
            // This part's fair share of what is left. Take items while
            // under it; overshoot only when the overshoot lands closer
            // to the share than stopping short would.
            let share = remaining.div_ceil((parts - w) as u64).max(1);
            let mut acc = 0u64;
            let mut end = start;
            while end < n && acc < share {
                let wi = weights[end];
                if acc > 0 && acc + wi > share && (acc + wi - share) > (share - acc) {
                    break;
                }
                acc += wi;
                end += 1;
            }
            remaining -= acc;
            end
        };
        ranges.push(start..end);
        start = end;
    }
    ranges
}

impl ShardPlan {
    /// Partition switches (weighted — see [`network_weight`]) and
    /// `num_adapters` adapters into `threads` contiguous shards.
    /// `link_sw_dst[li]` is the `(switch, port)` a link delivers into
    /// (`None` for node-bound links, which stay serial). Contiguity is
    /// load-bearing: replaying shard outboxes in shard order must equal
    /// component-index order.
    pub(crate) fn build(
        threads: usize,
        switch_weights: &[u64],
        num_adapters: usize,
        link_sw_dst: &[Option<(u32, u32)>],
    ) -> Self {
        let shards = threads.max(1);
        let chunk =
            |n: usize, w: usize| -> Range<usize> { (w * n / shards)..((w + 1) * n / shards) };
        let switch_ranges = partition_weighted(switch_weights, shards);
        let adapter_ranges: Vec<_> = (0..shards).map(|w| chunk(num_adapters, w)).collect();
        let shard_of_switch = |s: usize| -> usize {
            switch_ranges
                .iter()
                .position(|r| r.contains(&s))
                .expect("every switch is in exactly one shard")
        };
        let mut link_owner = vec![u32::MAX; link_sw_dst.len()];
        let mut link_sw_port = vec![(0u32, 0u32); link_sw_dst.len()];
        for (li, dst) in link_sw_dst.iter().enumerate() {
            if let Some((s, p)) = *dst {
                link_owner[li] = shard_of_switch(s as usize) as u32;
                link_sw_port[li] = (s, p);
            }
        }
        Self {
            shards,
            switch_ranges,
            adapter_ranges,
            link_owner,
            link_sw_port,
        }
    }
}

/// Everything a shard produced that must be applied to shared state,
/// replayed by the coordinator in shard order after the section barrier.
#[derive(Debug, Default)]
pub(crate) struct ShardOutbox {
    /// Metric operations, replayed verbatim (an op log, not partial
    /// sums, so floating-point accumulation order matches the serial
    /// engine exactly).
    pub(crate) metrics: MetricsScratch,
    /// `(switch, release)` RAM releases from arbitration.
    pub(crate) releases: Vec<(u32, PendingRelease)>,
    /// `(node, release)` RAM releases from adapter injection.
    pub(crate) adapter_releases: Vec<(u32, AdapterRelease)>,
    /// Data packets consumed by the phase-3a fault guard.
    pub(crate) purged_data: u64,
    /// Control packets consumed by the phase-3a fault guard.
    pub(crate) purged_ctrl: u64,
    /// `(packet, switch, arrival)` hops of traced packets seen by this
    /// shard's phase 3a, replayed into the central `TraceLog` in shard
    /// order (a packet makes at most one hop per cycle, so per-packet
    /// hop order is cycle order regardless of the shard layout).
    pub(crate) trace_hops: Vec<(PacketId, SwitchId, Cycle)>,
    /// Switches this shard's `Deliver` drained a link into, for the
    /// coordinator to fold into the active-switch set.
    pub(crate) activated: Vec<u32>,
    /// Per-shard delivery drain scratch (no cross-tick state).
    deliveries: Vec<Delivery>,
    /// Per-shard arbitration release scratch.
    rel_scratch: Vec<PendingRelease>,
}

/// Read-only snapshot of the fault runtime's reachability state, enough
/// to evaluate the phase-3a arrival guard from any shard.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultView {
    pub(crate) comp: *const u32,
    pub(crate) node_comp: *const u32,
    pub(crate) down: *const SwitchId,
    pub(crate) n_down: usize,
}

/// The per-section context handed to every worker: raw pointers into
/// the simulator plus the tick parameters. Rebuilt by the coordinator
/// for each section so the pointers are re-derived after every serial
/// interlude.
pub(crate) struct TickCtx {
    pub(crate) now: Cycle,
    pub(crate) switches: *mut Switch,
    pub(crate) adapters: *mut Adapter,
    pub(crate) links: *mut Link,
    pub(crate) n_links: usize,
    pub(crate) routing: *const RoutingTable,
    /// Null when the mechanism has no VOQnet credit table.
    pub(crate) voqnet: *const VoqNetCredits,
    /// `2 × shards` outboxes: `[0, shards)` switch-side, `[shards, 2·shards)`
    /// adapter-side.
    pub(crate) outboxes: *mut ShardOutbox,
    /// Phase-5 activity gate, one flag per switch, written by `Iso` and
    /// read by `CstArb` (the gate is evaluated once for both halves, and
    /// isolation can change quiescence).
    pub(crate) p5_ran: *mut bool,
    pub(crate) plan: *const ShardPlan,
    pub(crate) faults: Option<FaultView>,
    /// `TraceLog::sample_every` when packet tracing is on, `0` when off
    /// — lets the Deliver phase apply the serial engine's sampling
    /// filter without touching the central `TraceLog`.
    pub(crate) trace_sample: u64,
    /// Sorted members of the simulator's active/ctrl sets, as
    /// `(ptr, len)` (stable for the section: the coordinator rebuilds
    /// the ctx after any mutation of a set). Workers iterate their
    /// shard's subrange of each list.
    pub(crate) act_links: (*const u32, usize),
    pub(crate) act_sw: (*const u32, usize),
    pub(crate) ctrl_sw: (*const u32, usize),
    pub(crate) ctrl_nodes: (*const u32, usize),
    pub(crate) act_nodes: (*const u32, usize),
    /// SoA port-occupancy mirror (maintained by `Deliver` for the
    /// shard's own switches — element-disjoint like the switches).
    pub(crate) port_base: *const u32,
    pub(crate) port_occ: *mut u32,
}

// SAFETY: the pointers are only dereferenced inside `run_shard`, whose
// per-phase access pattern is element-disjoint across shards (module
// docs); barriers order the sections.
unsafe impl Send for TickCtx {}
unsafe impl Sync for TickCtx {}

impl TickCtx {
    /// The phase-3a arrival guard (`FaultRuntime::arrival_is_undeliverable`
    /// evaluated against the shared read-only snapshot).
    ///
    /// # Safety
    /// The `FaultView` pointers must still be live.
    unsafe fn arrival_is_undeliverable(&self, sw: u32, dst: u32) -> bool {
        let Some(fv) = self.faults else { return false };
        let down = std::slice::from_raw_parts(fv.down, fv.n_down);
        if down.iter().any(|d| d.0 == sw) {
            return true;
        }
        let dc = *fv.node_comp.add(dst as usize);
        dc == u32::MAX || dc != *fv.comp.add(sw as usize)
    }
}

/// View a `(ptr, len)` member list captured in a [`TickCtx`].
///
/// # Safety
/// The pointer must be live for the section (the coordinator rebuilds
/// the ctx after any mutation of the underlying set).
unsafe fn members<'a>(p: (*const u32, usize)) -> &'a [u32] {
    std::slice::from_raw_parts(p.0, p.1)
}

/// The subrange of a sorted member list whose indices fall in `r` —
/// shard `w`'s slice of an active set.
fn range_members<'a>(m: &'a [u32], r: &Range<usize>) -> &'a [u32] {
    let lo = m.partition_point(|&x| (x as usize) < r.start);
    let hi = m.partition_point(|&x| (x as usize) < r.end);
    &m[lo..hi]
}

/// Drain one switch-bound link into its receiving switch.
///
/// # Safety
/// Same contract as [`run_shard`]; the switch in `sp` must belong to
/// the calling shard's switch range.
unsafe fn deliver_link(
    ctx: &TickCtx,
    links: &mut LinkSlice<'_>,
    ob: &mut ShardOutbox,
    scratch: &mut Vec<Delivery>,
    voqnet: Option<&VoqNetCredits>,
    li: usize,
    (s, p): (u32, u32),
) {
    let now = ctx.now;
    scratch.clear();
    links[li].deliver_into(now, scratch);
    let sw = &mut *ctx.switches.add(s as usize);
    for d in scratch.drain(..) {
        // Fault guard: consume stragglers the routing in
        // force cannot deliver (see the serial phase 3).
        if ctx.faults.is_some() && ctx.arrival_is_undeliverable(s, d.packet.dst.0) {
            if d.packet.is_data() {
                ob.purged_data += 1;
            } else {
                ob.purged_ctrl += 1;
            }
            links[li].return_credits(d.ready_at, d.packet.size_flits);
            if let Some(vn) = voqnet {
                vn.add(li as u32, d.packet.dst.0, d.packet.size_flits);
            }
            continue;
        }
        if ctx.trace_sample != 0
            && d.packet.is_data()
            && d.packet.id.0.is_multiple_of(ctx.trace_sample)
        {
            ob.trace_hops.push((d.packet.id, SwitchId(s), d.visible_at));
        }
        *ctx.port_occ
            .add((*ctx.port_base.add(s as usize) + p) as usize) += d.packet.size_flits;
        sw.accept_delivery(p as usize, d, &*ctx.routing);
    }
}

/// Run shard `w`'s slice of `phase`.
///
/// # Safety
/// `ctx` must point into a live simulator whose components the caller
/// is not otherwise touching; at most one concurrent caller per `w`;
/// all callers must run the same `phase` between the same two barriers.
pub(crate) unsafe fn run_shard(phase: PhaseKind, ctx: &TickCtx, w: usize) {
    let plan = &*ctx.plan;
    let now = ctx.now;
    let mut links = LinkSlice::from_raw(ctx.links, ctx.n_links);
    let voqnet: Option<&VoqNetCredits> = ctx.voqnet.as_ref();
    match phase {
        PhaseKind::Deliver => {
            let ob = &mut *ctx.outboxes.add(w);
            let mut scratch = std::mem::take(&mut ob.deliveries);
            // Walk the active links, keeping this shard's. Receiving
            // switches are reported for the coordinator to activate.
            for &li32 in members(ctx.act_links) {
                let li = li32 as usize;
                if plan.link_owner[li] != w as u32 || !links[li].has_delivery(now) {
                    continue;
                }
                let (s, p) = plan.link_sw_port[li];
                ob.activated.push(s);
                deliver_link(ctx, &mut links, ob, &mut scratch, voqnet, li, (s, p));
            }
            ob.deliveries = scratch;
        }
        PhaseKind::Ctrl => {
            let ob = &mut *ctx.outboxes.add(w);
            for &s in range_members(members(ctx.ctrl_sw), &plan.switch_ranges[w]) {
                (*ctx.switches.add(s as usize)).poll_output_ctrl(now, &mut links, &mut ob.metrics);
            }
            // Segment boundary: Ctrl/Iso/CstArb run back-to-back with no
            // merge in between, so the coordinator replays this log in
            // marked segments (all shards' ctrl ops before any shard's
            // iso ops — the serial emission order).
            ob.metrics.mark();
            let ob = &mut *ctx.outboxes.add(plan.shards + w);
            for &a in range_members(members(ctx.ctrl_nodes), &plan.adapter_ranges[w]) {
                (*ctx.adapters.add(a as usize)).poll_ctrl(now, &mut links, &mut ob.metrics);
            }
        }
        PhaseKind::Iso => {
            let ob = &mut *ctx.outboxes.add(w);
            for &s in range_members(members(ctx.act_sw), &plan.switch_ranges[w]) {
                let s = s as usize;
                let sw = &mut *ctx.switches.add(s);
                let run = !sw.is_quiescent();
                *ctx.p5_ran.add(s) = run;
                if run {
                    sw.isolation_tick(now, &*ctx.routing, &mut links, &mut ob.metrics);
                }
            }
            ob.metrics.mark();
        }
        PhaseKind::CstArb => {
            let ob = &mut *ctx.outboxes.add(w);
            let mut rel = std::mem::take(&mut ob.rel_scratch);
            for &s in range_members(members(ctx.act_sw), &plan.switch_ranges[w]) {
                let sw = &mut *ctx.switches.add(s as usize);
                if *ctx.p5_ran.add(s as usize) {
                    sw.congestion_state_tick(now, &links, &mut ob.metrics);
                }
                if !sw.has_buffered() {
                    continue;
                }
                rel.clear();
                sw.arbitrate_and_transmit_into(
                    now,
                    &*ctx.routing,
                    &mut links,
                    voqnet,
                    &mut ob.metrics,
                    &mut rel,
                );
                ob.releases.extend(rel.drain(..).map(|r| (s, r)));
            }
            ob.rel_scratch = rel;
        }
        PhaseKind::AdapterTick => {
            let ob = &mut *ctx.outboxes.add(plan.shards + w);
            for &a in range_members(members(ctx.act_nodes), &plan.adapter_ranges[w]) {
                let ad = &mut *ctx.adapters.add(a as usize);
                if ad.is_quiet() && ad.armed_timer_count() == 0 {
                    continue;
                }
                if let Some(r) = ad.tick(now, &mut links, voqnet, &mut ob.metrics) {
                    ob.adapter_releases.push((a, r));
                }
            }
        }
    }
}

/// A generation-counted barrier that spins briefly, then parks on a
/// condvar — the sections it separates are microseconds long when the
/// network is busy (spin wins), but a waiter must get off the CPU fast
/// when cores are shared or the coordinator is in a long serial stretch
/// (park wins). The old pure spin/yield barrier was pathological in the
/// second regime: on a 1-CPU host it measured a 125× slowdown.
pub(crate) struct AdaptiveBarrier {
    n: usize,
    /// Spin iterations before parking. `0` parks (almost) immediately —
    /// the right setting when workers outnumber CPUs.
    spin_limit: u32,
    count: AtomicUsize,
    /// Barrier generation; waiters leave when it moves past the value
    /// they arrived at.
    gen: AtomicUsize,
    /// Waiters currently (or about to be) blocked in `cv`.
    parked: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl AdaptiveBarrier {
    pub(crate) fn new(n: usize, spin_limit: u32) -> Self {
        Self {
            n,
            spin_limit,
            count: AtomicUsize::new(0),
            gen: AtomicUsize::new(0),
            parked: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Block until all `n` participants arrive. The RMW chain on `count`
    /// plus the release/acquire (and, on the park path, SeqCst) accesses
    /// on `gen` publish every write made before the barrier to every
    /// thread leaving it.
    pub(crate) fn wait(&self) {
        let g = self.gen.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Release);
            // SeqCst pairs with the waiter's parked/gen accesses below:
            // if we miss a waiter's `parked` increment, that waiter's
            // later `gen` load is ordered after this store and sees the
            // new generation, so it never blocks on a stale one.
            self.gen.store(g.wrapping_add(1), Ordering::SeqCst);
            if self.parked.load(Ordering::SeqCst) != 0 {
                // Serialize against a waiter between its gen re-check and
                // its cv.wait — otherwise the notify could land in that
                // window and be lost.
                drop(self.lock.lock().unwrap());
                self.cv.notify_all();
            }
        } else {
            let mut spins = 0u32;
            loop {
                if self.gen.load(Ordering::Acquire) != g {
                    return;
                }
                spins += 1;
                if spins <= self.spin_limit {
                    std::hint::spin_loop();
                } else if spins <= self.spin_limit.saturating_add(16) {
                    // A few scheduler yields bridge the "releaser is
                    // runnable but preempted" case before paying for a
                    // full park/unpark round-trip.
                    std::thread::yield_now();
                } else {
                    self.parked.fetch_add(1, Ordering::SeqCst);
                    let mut guard = self.lock.lock().unwrap();
                    while self.gen.load(Ordering::SeqCst) == g {
                        guard = self.cv.wait(guard).unwrap();
                    }
                    drop(guard);
                    self.parked.fetch_sub(1, Ordering::SeqCst);
                    return;
                }
            }
        }
    }
}

/// An intra-batch step: run `phases[..n]` back-to-back, one barrier
/// apart, against a single [`TickCtx`]. Chaining is only legal when the
/// coordinator has no serial work between the phases (the ctx pointers
/// stay valid across the whole chain).
#[derive(Clone, Copy)]
struct StepCmd {
    phases: [PhaseKind; 4],
    n: usize,
    ctx: *const TickCtx,
}

#[derive(Clone, Copy)]
enum Job {
    /// Enter the intra-batch step loop.
    Batch,
    Shutdown,
}

struct PoolShared {
    /// Batch-boundary rendezvous: workers park here between batches (and
    /// during serial-only stretches), so it spins only briefly.
    go: AdaptiveBarrier,
    /// Intra-batch step barrier: crossed up to `4 × BATCH_CYCLES` times
    /// per dispatch with live work on both sides, so it spins longer
    /// before parking.
    step: AdaptiveBarrier,
    job: UnsafeCell<Job>,
    /// `Some(step)` published before each step barrier; `None` ends the
    /// batch and sends the workers back to `go`.
    cmd: UnsafeCell<Option<StepCmd>>,
}

// SAFETY: `job` is written by the coordinator only while every worker
// is parked before `go`, and `cmd` only while every worker is parked
// before `step`; each is read only after passing the respective
// barrier, which provides the happens-before edge.
unsafe impl Send for PoolShared {}
unsafe impl Sync for PoolShared {}

/// A persistent worker pool: `threads - 1` OS threads plus the calling
/// thread, which always works shard 0. Created once per parallel run.
/// The coordinator drives it in *batches*: one `go` rendezvous admits
/// the workers into a step loop that executes many parallel sections
/// (across several simulated cycles) over cheap spin-biased barriers,
/// then a `None` step releases them back to the park-friendly `go`.
pub(crate) struct Pool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// `oversubscribed` tunes the spin budgets: when workers outnumber
    /// CPUs, spinning only steals cycles from the thread everyone is
    /// waiting for, so the barriers park almost immediately.
    pub(crate) fn new(threads: usize, oversubscribed: bool) -> Self {
        assert!(threads >= 2, "a pool below 2 threads is the serial engine");
        let (go_spin, step_spin) = if oversubscribed {
            (0, 0)
        } else {
            (128, 20_000)
        };
        let shared = Arc::new(PoolShared {
            go: AdaptiveBarrier::new(threads, go_spin),
            step: AdaptiveBarrier::new(threads, step_spin),
            job: UnsafeCell::new(Job::Shutdown),
            cmd: UnsafeCell::new(None),
        });
        let handles = (1..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ccfit-shard-{w}"))
                    .spawn(move || worker_loop(shared, w))
                    .expect("spawning a tick worker")
            })
            .collect();
        Self { shared, handles }
    }

    /// Open a batch: admit the workers into the step loop.
    pub(crate) fn begin_batch(&self) {
        // SAFETY: every worker is parked before `go` (protocol
        // invariant), so nothing is reading `job`.
        unsafe { *self.shared.job.get() = Job::Batch };
        self.shared.go.wait();
    }

    /// Run `phases` as one chained step (≤ 4, no coordinator work in
    /// between), working shard 0 on this thread. Must be called between
    /// [`Self::begin_batch`] and [`Self::end_batch`].
    pub(crate) fn run_step(&self, phases: &[PhaseKind], ctx: &TickCtx) {
        debug_assert!((1..=4).contains(&phases.len()));
        let mut cmd = StepCmd {
            phases: [PhaseKind::Deliver; 4],
            n: phases.len(),
            ctx: ctx as *const TickCtx,
        };
        cmd.phases[..phases.len()].copy_from_slice(phases);
        // SAFETY: every worker is blocked before `step` (they only read
        // `cmd` after passing it, and it only passes when we arrive).
        unsafe { *self.shared.cmd.get() = Some(cmd) };
        self.shared.step.wait();
        for &p in phases {
            // SAFETY: ctx is live for the whole chain; this thread is
            // the unique owner of shard 0.
            unsafe { run_shard(p, ctx, 0) };
            self.shared.step.wait();
        }
    }

    /// Close the batch: release the workers back to the `go` barrier so
    /// the coordinator can run serial work (or sleep) without them
    /// spinning.
    pub(crate) fn end_batch(&self) {
        // SAFETY: as in `run_step`.
        unsafe { *self.shared.cmd.get() = None };
        self.shared.step.wait();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // SAFETY: workers are parked before `go` (protocol invariant).
        unsafe { *self.shared.job.get() = Job::Shutdown };
        self.shared.go.wait();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Everything one sharded run owns besides the simulator itself: the
/// worker pool, the static shard layout, and the per-shard outboxes
/// (`[0, shards)` switch-side, `[shards, 2·shards)` adapter-side).
pub(crate) struct ShardRun {
    pub(crate) pool: Pool,
    pub(crate) plan: ShardPlan,
    pub(crate) outboxes: Vec<ShardOutbox>,
}

impl ShardRun {
    /// Spawn `threads` workers over `plan`. Shard workers filter events
    /// against a copy of the collector's `event_mask` so the off-path
    /// cost stays a predicted branch; sampling and capacity are applied
    /// only when the op-logs replay into the collector (per-shard
    /// sampling would break byte-identity across thread counts).
    pub(crate) fn new(
        threads: usize,
        oversubscribed: bool,
        plan: ShardPlan,
        event_mask: ccfit_metrics::EventClass,
    ) -> Self {
        let mut outboxes: Vec<ShardOutbox> = (0..2 * plan.shards)
            .map(|_| ShardOutbox::default())
            .collect();
        for ob in outboxes.iter_mut() {
            ob.metrics.set_event_mask(event_mask);
        }
        Self {
            pool: Pool::new(threads, oversubscribed),
            plan,
            outboxes,
        }
    }
}

fn worker_loop(shared: Arc<PoolShared>, w: usize) {
    loop {
        shared.go.wait();
        // SAFETY: the coordinator published `job` before the barrier.
        let job = unsafe { *shared.job.get() };
        match job {
            Job::Shutdown => return,
            Job::Batch => loop {
                shared.step.wait();
                // SAFETY: the coordinator published `cmd` before
                // arriving at the barrier we just passed.
                let Some(cmd) = (unsafe { *shared.cmd.get() }) else {
                    break;
                };
                for i in 0..cmd.n {
                    // SAFETY: the coordinator keeps `ctx` (and the
                    // simulator it points into) alive until the chain's
                    // final step barrier.
                    unsafe { run_shard(cmd.phases[i], &*cmd.ctx, w) };
                    shared.step.wait();
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_plan_partitions_contiguously_and_covers_everything() {
        let link_sw_dst = [
            Some((0, 0)),
            None,
            Some((2, 1)),
            Some((1, 0)),
            Some((2, 0)),
            None,
        ];
        let plan = ShardPlan::build(2, &[1, 1, 1], 5, &link_sw_dst);
        assert_eq!(plan.shards, 2);
        // Contiguous, complete coverage.
        assert_eq!(plan.switch_ranges[0].end, plan.switch_ranges[1].start);
        assert_eq!(plan.switch_ranges[1].end, 3);
        assert_eq!(plan.adapter_ranges[1].end, 5);
        // Every switch-bound link is owned by its receiver's shard;
        // node-bound links by none.
        for (li, dst) in link_sw_dst.iter().enumerate() {
            match dst {
                Some((s, p)) => {
                    let w = plan.link_owner[li] as usize;
                    assert!(plan.switch_ranges[w].contains(&(*s as usize)));
                    assert_eq!(plan.link_sw_port[li], (*s, *p));
                }
                None => assert_eq!(plan.link_owner[li], u32::MAX),
            }
        }
    }

    #[test]
    fn shard_plan_tolerates_more_shards_than_components() {
        let plan = ShardPlan::build(4, &[1, 1], 3, &[Some((0, 0)), Some((1, 0))]);
        let covered: usize = plan.switch_ranges.iter().map(|r| r.len()).sum();
        assert_eq!(covered, 2);
        let covered: usize = plan.adapter_ranges.iter().map(|r| r.len()).sum();
        assert_eq!(covered, 3);
        assert!(plan.link_owner.iter().all(|&w| (w as usize) < 4));
    }

    #[test]
    fn weighted_partition_balances_by_weight_not_count() {
        // One heavy item (a 32-port spine switch) vs many light ones:
        // the heavy item gets a shard of its own.
        let weights = [32u64, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2];
        let ranges = partition_weighted(&weights, 2);
        assert_eq!(ranges.len(), 2);
        assert_eq!(ranges[0], 0..1);
        assert_eq!(ranges[1], 1..weights.len());
        // Uniform weights degenerate to the near-even index split.
        let even = partition_weighted(&[1; 10], 4);
        let sizes: Vec<_> = even.iter().map(|r| r.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 2 || s == 3), "{sizes:?}");
    }

    /// Hammer the spin-then-park barrier through both regimes: more
    /// threads than most CI hosts have cores (forced parking) and many
    /// reuse generations.
    #[test]
    fn adaptive_barrier_synchronizes_and_reuses() {
        for spin_limit in [0u32, 64] {
            let b = Arc::new(AdaptiveBarrier::new(3, spin_limit));
            let counter = Arc::new(AtomicUsize::new(0));
            let mut handles = Vec::new();
            for _ in 0..2 {
                let b = Arc::clone(&b);
                let c = Arc::clone(&counter);
                handles.push(std::thread::spawn(move || {
                    for _ in 0..200 {
                        c.fetch_add(1, Ordering::Relaxed);
                        b.wait();
                        b.wait();
                    }
                }));
            }
            for round in 1..=200 {
                b.wait(); // everyone incremented
                assert_eq!(counter.load(Ordering::Relaxed), 2 * round);
                b.wait(); // release them into the next round
            }
            for h in handles {
                h.join().unwrap();
            }
            counter.store(0, Ordering::Relaxed);
        }
    }

    #[test]
    fn default_parallel_config_is_serial_with_auto_fallback() {
        let c = ParallelConfig::default();
        assert_eq!(c.threads, 1);
        assert_eq!(c.fallback, ParallelFallback::Auto);
    }

    #[test]
    fn decision_table() {
        let cfg = |threads, fallback| ParallelConfig { threads, fallback };
        let auto = |threads| cfg(threads, ParallelFallback::Auto);

        // threads == 1 is a request for the serial engine, not a fallback.
        let d = decide(&auto(1), 8, 1_000_000);
        assert_eq!((d.effective_threads, d.fallback), (1, None));

        // Single-CPU host: serial, whatever the work is.
        let d = decide(&auto(4), 1, 1_000_000);
        assert_eq!(
            (d.effective_threads, d.fallback),
            (1, Some(FallbackReason::SingleCpu))
        );

        // Tiny network on a big host: serial.
        let d = decide(&auto(4), 8, 200);
        assert_eq!(
            (d.effective_threads, d.fallback),
            (1, Some(FallbackReason::TinyShards))
        );

        // Big network, more threads than CPUs: clamp, stay parallel.
        let d = decide(&auto(8), 2, 1_000_000);
        assert_eq!(
            (d.effective_threads, d.fallback),
            (2, Some(FallbackReason::Oversubscribed))
        );

        // Big network, enough CPUs: run as requested.
        let d = decide(&auto(4), 8, 1_000_000);
        assert_eq!((d.effective_threads, d.fallback), (4, None));

        // Never: the request is law, even on one CPU.
        let d = decide(&cfg(4, ParallelFallback::Never), 1, 10);
        assert_eq!((d.effective_threads, d.fallback), (4, None));
    }
}
