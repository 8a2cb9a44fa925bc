//! Congestion-control parameter sets.
//!
//! The paper's mechanisms (§III-E, §IV-A) decompose into queueing ×
//! isolation × throttling; the modern rate-based schemes add ECN/CNP
//! (DCQCN-style) and INT/window (HPCC-style) parameter sets. All time
//! constants are nanoseconds in the simulated clock; the defaults for
//! the modern schemes are scaled to the paper's microsecond-range
//! hotspot scenarios rather than datacenter RTTs, keeping the control
//! loops as lively relative to the traffic as their originals.

use serde::{Deserialize, Serialize};

/// How an input port's RAM is organised into queues. The first three are
/// static maps from a packet to a queue; the switch builds all three as
/// one organisation, keyed by output port or by destination modulo the
/// queue count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueingScheme {
    /// One FIFO per input port ("1Q") — no HoL-blocking reduction at all.
    Single,
    /// Virtual output queues at switch level (VOQsw): one queue per
    /// output port of the switch.
    PerOutput,
    /// Virtual output queues at network level (VOQnet): one queue per
    /// destination end node, with a reserved per-queue capacity.
    PerDest,
    /// FBICM/CCFIT dynamic organisation: one normal flow queue plus a
    /// small number of congested flow queues.
    Isolating,
}

/// Congested-flow-isolation parameters (the FBICM side of CCFIT).
///
/// The default detection threshold is 8 MTUs (a 25 % fill ratio of the
/// 64 KB port RAM): early enough to isolate a hotspot within a few
/// microseconds, late enough that the transient bursts released when an
/// upstream Stop clears do not get mis-detected as new congestion
/// (§III-E: "not too early and not too late").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IsolationParams {
    /// CFQs per input port (the paper uses 2).
    pub num_cfqs: usize,
    /// NFQ occupancy (in MTUs) that triggers congestion detection and
    /// allocates a CFQ + CAM line for the blocked destination.
    pub detect_threshold_mtus: u32,
    /// CFQ occupancy (MTUs) at which the congestion information is
    /// propagated upstream (`CfqAlloc`), so the upstream hop starts
    /// isolating this flow before the Stop threshold is reached.
    pub propagate_threshold_mtus: u32,
    /// CFQ Stop threshold (MTUs): ask upstream to pause this congested
    /// flow (paper: 10).
    pub stop_mtus: u32,
    /// CFQ Go threshold (MTUs): resume (paper: 4).
    pub go_mtus: u32,
    /// Cycles a CFQ must remain empty (and in Go state) before its
    /// resources are deallocated, avoiding allocation thrash.
    pub dealloc_linger_cycles: u64,
    /// CAM lines per *output* port for tracking congestion trees
    /// propagated from downstream.
    pub out_cam_lines: usize,
}

impl Default for IsolationParams {
    fn default() -> Self {
        Self {
            num_cfqs: 2,
            detect_threshold_mtus: 8,
            propagate_threshold_mtus: 2,
            stop_mtus: 10,
            go_mtus: 4,
            dealloc_linger_cycles: 1024,
            out_cam_lines: 4,
        }
    }
}

/// Shape of the Congestion Control Table: how the injection rate delay
/// grows with the CCTI. The paper only says "CCT values are typically
/// arranged in such a way that the higher the index, the greater the
/// IRD"; both common arrangements are provided.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CctProfile {
    /// `IRD(i) = i × unit` — gentle, proportional response.
    Linear,
    /// `IRD(i) = unit × (2^(i / period) − 1)` — doubling response every
    /// `period` BECNs, the aggressive arrangement used by several IB CC
    /// studies.
    Exponential {
        /// CCTI steps per doubling.
        period: usize,
    },
}

/// Injection-throttling parameters (the InfiniBand-CC side of CCFIT,
/// §II and §IV-A).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThrottleParams {
    /// Fraction of packets crossing a congestion-state output port that
    /// get FECN-marked (paper: 0.85).
    pub marking_rate: f64,
    /// Only packets larger than this (bytes) are FECN-marked
    /// (`Packet_Size`).
    pub packet_size_threshold_bytes: u32,
    /// `CCTI_Timer`: nanoseconds between automatic CCTI decrements
    /// (paper: 8000 ns).
    pub ccti_timer_ns: f64,
    /// `CCTI_Increase`: CCTI increment per received BECN (IB default 1).
    pub ccti_increase: u16,
    /// Number of entries in the Congestion Control Table.
    pub cct_len: usize,
    /// Base unit of the injection rate delay in nanoseconds.
    pub cct_unit_ns: f64,
    /// Arrangement of the CCT entries.
    pub cct_profile: CctProfile,
    /// Congestion-detection High threshold in MTUs. For ITh this is
    /// compared against the aggregate VOQ occupancy of an output port;
    /// for CCFIT against each root CFQ's occupancy (paper: 4).
    pub high_mtus: u32,
    /// Low threshold (hysteresis exit, paper: 2). Kept at least one MTU
    /// below High per ref. \[12\].
    pub low_mtus: u32,
    /// CCFIT only: how long (ns) a root CFQ must stay above High before
    /// its output port enters the congestion state. Discriminates
    /// sustained oversubscription (occupancy pinned above High) from the
    /// decaying burst a faster upstream link can momentarily deposit in
    /// front of a full-rate-draining port — marking the latter would
    /// throttle victims. Ignored by ITh, whose plain High/Low behaviour
    /// (and resulting "saw-shape" instability) is a finding of the paper.
    pub congestion_entry_delay_ns: f64,
    /// CCFIT only: window (ns) over which each root CFQ's drain rate is
    /// measured. A CFQ only drives its output into the congestion state
    /// while it is *starved* — receiving clearly less than the output
    /// link's capacity — which separates true oversubscription from a
    /// full-rate flow with a standing queue.
    pub starvation_window_ns: f64,
}

impl Default for ThrottleParams {
    fn default() -> Self {
        Self {
            marking_rate: 0.85,
            packet_size_threshold_bytes: 256,
            ccti_timer_ns: 8000.0,
            ccti_increase: 1,
            cct_len: 128,
            cct_unit_ns: 400.0,
            cct_profile: CctProfile::Linear,
            high_mtus: 4,
            low_mtus: 2,
            congestion_entry_delay_ns: 13_000.0,
            starvation_window_ns: 13_000.0,
        }
    }
}

/// DCQCN-style parameters: RED/ECN marking at switch output queues, CNP
/// feedback from the destination, and the DCQCN reaction-point rate
/// machine (alpha-EWMA multiplicative decrease, fast recovery, then
/// additive / hyper increase).
///
/// The field vocabulary follows the ns3-cncp `CC_MODE` configuration
/// (`EWMA_GAIN`, `RP_TIMER`, `RATE_DECREASE_INTERVAL`,
/// `FAST_RECOVERY_TIMES`, `RATE_AI` / `RATE_HAI` / `MIN_RATE`), with
/// rates expressed as fractions of the end-node injection line rate so
/// the scheme is independent of the configured link bandwidth, and time
/// constants scaled to this simulator's microsecond-range scenarios.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DcqcnParams {
    /// ECN marking threshold `Kmin` in MTUs of aggregate VOQ occupancy
    /// in front of an output port: below it nothing is marked.
    pub kmin_mtus: u32,
    /// ECN marking threshold `Kmax` in MTUs: at or above it every data
    /// packet is marked CE.
    pub kmax_mtus: u32,
    /// Marking probability at `Kmax` (RED ramp slope `Pmax`).
    pub pmax: f64,
    /// Minimum spacing (ns) between CNPs the destination generates for
    /// one source (the NP-side CNP timer).
    pub cnp_interval_ns: f64,
    /// `EWMA_GAIN` g for the alpha update (DCQCN default 1/256).
    pub ewma_gain: f64,
    /// `ALPHA_RESUME_INTERVAL` (ns): alpha decays by (1−g) each interval
    /// without a CNP.
    pub alpha_resume_interval_ns: f64,
    /// `RATE_DECREASE_INTERVAL` (ns): minimum spacing between
    /// multiplicative rate cuts, so a burst of CNPs counts once.
    pub rate_decrease_interval_ns: f64,
    /// `RP_TIMER` (ns): period of the time-driven rate-increase events.
    pub rp_timer_ns: f64,
    /// `BYTE_COUNTER`: bytes sent per byte-driven rate-increase event.
    pub byte_counter_bytes: u64,
    /// `FAST_RECOVERY_TIMES` F: increase events spent halving back to
    /// the pre-cut target rate before additive increase begins.
    pub fast_recovery_times: u32,
    /// `RATE_AI` as a fraction of line rate added to the target rate per
    /// additive-increase event.
    pub rate_ai_frac: f64,
    /// `RATE_HAI` fraction per hyper-increase event (after F+1 stages).
    pub rate_hai_frac: f64,
    /// `MIN_RATE` floor as a fraction of line rate.
    pub min_rate_frac: f64,
    /// Wire overhead (bytes) charged per CNP control packet.
    pub cnp_overhead_bytes: u16,
}

impl Default for DcqcnParams {
    fn default() -> Self {
        Self {
            kmin_mtus: 1,
            kmax_mtus: 8,
            pmax: 0.2,
            cnp_interval_ns: 2_000.0,
            ewma_gain: 0.003_906_25, // EWMA_GAIN = 1/256
            alpha_resume_interval_ns: 8_000.0,
            rate_decrease_interval_ns: 4_000.0,
            rp_timer_ns: 9_000.0,
            byte_counter_bytes: 64 * 1024,
            fast_recovery_times: 1, // FAST_RECOVERY_TIMES
            rate_ai_frac: 0.01,
            rate_hai_frac: 0.05,
            min_rate_frac: 0.01,
            cnp_overhead_bytes: 16,
        }
    }
}

/// HPCC-style parameters: per-hop inband network telemetry (queue
/// depth and transmitted bytes) folded into the packet header, echoed
/// back in per-packet ACKs, driving a sender window adjusted
/// multiplicatively toward a target utilization η with a maxStage
/// additive-increase phase.
///
/// `alpha` = 0.85, `beta` = 0.50 and `eta` = 0.95 are the proven
/// parameter set from the HPCC exemplar (SNIPPETS.md Snippet 2);
/// `w_ai_bytes` = 1000 is its `W_AI`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HpccParams {
    /// Target link utilization η (`U_TARGET`).
    pub eta: f64,
    /// EWMA weight on the previous utilization estimate when folding in
    /// a new INT sample (α = 0.85).
    pub alpha: f64,
    /// Maximum fraction of the reference window a single multiplicative
    /// update may remove (β = 0.50) — bounds the reaction to one stale
    /// or extreme INT sample.
    pub beta: f64,
    /// INT measurement window T (ns): the per-output txBytes counter and
    /// the qlen normalisation both use a bandwidth-delay product of
    /// `link_bw × T`.
    pub t_ns: f64,
    /// `maxStage`: additive-increase steps allowed between
    /// multiplicative reference updates.
    pub max_stage: u32,
    /// `W_AI`: additive window increment in bytes per ACK stage.
    pub w_ai_bytes: f64,
    /// Initial per-destination window (bytes).
    pub w_init_bytes: f64,
    /// Window floor (bytes) — keep at least one MTU in flight so the
    /// flow can always probe.
    pub w_min_bytes: f64,
    /// Window ceiling (bytes).
    pub w_max_bytes: f64,
    /// Wire overhead (bytes) charged per ACK control packet.
    pub ack_overhead_bytes: u16,
    /// Wire overhead (bytes) charged per data packet for the INT header
    /// it carries.
    pub int_overhead_bytes: u16,
}

impl Default for HpccParams {
    fn default() -> Self {
        Self {
            eta: 0.95,   // U_TARGET
            alpha: 0.85, // Snippet 2 α
            beta: 0.50,  // Snippet 2 β
            t_ns: 1_000.0,
            max_stage: 5,
            w_ai_bytes: 1_000.0, // W_AI
            w_init_bytes: 16_384.0,
            w_min_bytes: 2_048.0,
            w_max_bytes: 65_536.0,
            ack_overhead_bytes: 32,
            int_overhead_bytes: 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let iso = IsolationParams::default();
        assert_eq!(iso.num_cfqs, 2);
        assert_eq!(iso.stop_mtus, 10);
        assert_eq!(iso.go_mtus, 4);
        let t = ThrottleParams::default();
        assert_eq!(t.marking_rate, 0.85);
        assert_eq!(t.ccti_timer_ns, 8000.0);
        assert_eq!(t.high_mtus, 4);
        assert_eq!(t.low_mtus, 2);
    }

    #[test]
    fn snippet_defaults() {
        let d = DcqcnParams::default();
        assert_eq!(d.ewma_gain, 1.0 / 256.0);
        assert_eq!(d.fast_recovery_times, 1);
        let h = HpccParams::default();
        assert_eq!(h.eta, 0.95);
        assert_eq!(h.alpha, 0.85);
        assert_eq!(h.beta, 0.50);
        assert_eq!(h.w_ai_bytes, 1_000.0);
    }
}
