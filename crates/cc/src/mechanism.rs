//! The congestion-control mechanism registry.
//!
//! The paper evaluates six mechanisms; this crate adds two
//! modern rate-based schemes. Internally each decomposes into three
//! orthogonal pieces (which is also how the ablation benches mix them),
//! read off a `Mechanism` through [`Mechanism::queueing`],
//! [`Mechanism::isolation`], [`Mechanism::throttle`],
//! [`Mechanism::dcqcn_params`] and [`Mechanism::hpcc_params`]:
//!
//! | Mechanism | Queueing            | Detection                  | Feedback → Reaction            |
//! |-----------|---------------------|----------------------------|--------------------------------|
//! | 1Q        | single queue        | —                          | —                              |
//! | VOQsw     | queue per output    | —                          | —                              |
//! | VOQnet    | queue per dest      | —                          | —                              |
//! | FBICM     | NFQ + CFQs          | NFQ occupancy (isolation)  | Stop/Go upstream               |
//! | ITh       | queue per output    | VOQ-occupancy high/low     | FECN/BECN → CCT throttling     |
//! | CCFIT     | NFQ + CFQs          | root-CFQ occupancy         | FECN/BECN → CCT throttling     |
//! | DCQCN     | queue per output    | ECN (RED on queue depth)   | CNP → rate machine             |
//! | HPCC      | queue per output    | INT (per-hop qlen/txBytes) | ACK + INT echo → window machine|

use crate::params::{DcqcnParams, HpccParams, IsolationParams, QueueingScheme, ThrottleParams};
use serde::{Deserialize, Serialize};

/// A congestion-control mechanism: the set evaluated in the paper's §IV
/// plus the modern rate-based schemes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Mechanism {
    /// Single queue per input port; the DET-routing-only baseline.
    OneQ,
    /// Switch-level virtual output queues (no explicit CC).
    VoqSw,
    /// Network-level virtual output queues — the "theoretical maximum"
    /// HoL eliminator with per-destination reserved buffers.
    VoqNet {
        /// Reserved capacity per destination queue, in flits (paper:
        /// 4 KB = 64 flits).
        per_queue_flits: u32,
    },
    /// Congested-flow isolation alone.
    Fbicm(IsolationParams),
    /// Injection throttling alone over VOQsw switches (IB-style CC).
    Ith(ThrottleParams),
    /// The paper's contribution: isolation + throttling combined, with
    /// the congestion state driven by root-CFQ occupancy.
    Ccfit(IsolationParams, ThrottleParams),
    /// DCQCN-style: ECN marking at switches, CNP feedback from the
    /// destination, alpha-EWMA rate decrease with fast-recovery /
    /// additive / hyper increase at the source.
    Dcqcn(DcqcnParams),
    /// HPCC-style: per-hop INT folded into data packets, echoed in ACKs,
    /// driving multiplicative window control toward η utilization.
    Hpcc(HpccParams),
}

impl Mechanism {
    /// Default-parameter CCFIT.
    pub fn ccfit() -> Self {
        Mechanism::Ccfit(IsolationParams::default(), ThrottleParams::default())
    }

    /// Default-parameter FBICM.
    pub fn fbicm() -> Self {
        Mechanism::Fbicm(IsolationParams::default())
    }

    /// Default-parameter injection throttling.
    pub fn ith() -> Self {
        Mechanism::Ith(ThrottleParams::default())
    }

    /// Default-parameter VOQnet (4 KB per destination queue).
    pub fn voqnet() -> Self {
        Mechanism::VoqNet {
            per_queue_flits: 64,
        }
    }

    /// Default-parameter DCQCN-style scheme.
    pub fn dcqcn() -> Self {
        Mechanism::Dcqcn(DcqcnParams::default())
    }

    /// Default-parameter HPCC-style scheme.
    pub fn hpcc() -> Self {
        Mechanism::Hpcc(HpccParams::default())
    }

    /// Queueing scheme this mechanism uses at input ports.
    pub fn queueing(&self) -> QueueingScheme {
        match self {
            Mechanism::OneQ => QueueingScheme::Single,
            Mechanism::VoqSw | Mechanism::Ith(_) | Mechanism::Dcqcn(_) | Mechanism::Hpcc(_) => {
                QueueingScheme::PerOutput
            }
            Mechanism::VoqNet { .. } => QueueingScheme::PerDest,
            Mechanism::Fbicm(_) | Mechanism::Ccfit(..) => QueueingScheme::Isolating,
        }
    }

    /// Isolation parameters, if the mechanism isolates congested flows.
    pub fn isolation(&self) -> Option<&IsolationParams> {
        match self {
            Mechanism::Fbicm(iso) | Mechanism::Ccfit(iso, _) => Some(iso),
            _ => None,
        }
    }

    /// Throttling parameters, if the mechanism throttles injection via
    /// the IB-style FECN/BECN/CCT loop.
    pub fn throttle(&self) -> Option<&ThrottleParams> {
        match self {
            Mechanism::Ith(t) | Mechanism::Ccfit(_, t) => Some(t),
            _ => None,
        }
    }

    /// DCQCN parameters, if this is the DCQCN-style scheme.
    pub fn dcqcn_params(&self) -> Option<&DcqcnParams> {
        match self {
            Mechanism::Dcqcn(p) => Some(p),
            _ => None,
        }
    }

    /// HPCC parameters, if this is the HPCC-style scheme.
    pub fn hpcc_params(&self) -> Option<&HpccParams> {
        match self {
            Mechanism::Hpcc(p) => Some(p),
            _ => None,
        }
    }

    /// Display name used in reports, figures and CLI parsing.
    pub fn name(&self) -> &'static str {
        match self {
            Mechanism::OneQ => "1Q",
            Mechanism::VoqSw => "VOQsw",
            Mechanism::VoqNet { .. } => "VOQnet",
            Mechanism::Fbicm(_) => "FBICM",
            Mechanism::Ith(_) => "ITh",
            Mechanism::Ccfit(..) => "CCFIT",
            Mechanism::Dcqcn(_) => "DCQCN",
            Mechanism::Hpcc(_) => "HPCC",
        }
    }

    /// Every registered mechanism with default parameters, in canonical
    /// presentation order (the paper's set, then the modern schemes).
    /// This is THE registry: CLI parsing, figure labels and the shootout
    /// all derive from it, so a new scheme added here appears everywhere
    /// automatically.
    pub fn all() -> Vec<Mechanism> {
        let mut all = Mechanism::paper_set();
        all.extend(Mechanism::modern_set());
        all
    }

    /// The mechanisms evaluated by the 2011 paper (its Fig. 7–10 set).
    pub fn paper_set() -> Vec<Mechanism> {
        vec![
            Mechanism::OneQ,
            Mechanism::VoqSw,
            Mechanism::voqnet(),
            Mechanism::fbicm(),
            Mechanism::ith(),
            Mechanism::ccfit(),
        ]
    }

    /// The modern rate-based schemes this crate adds.
    pub fn modern_set() -> Vec<Mechanism> {
        vec![Mechanism::dcqcn(), Mechanism::hpcc()]
    }

    /// Parse a mechanism by its display name (case-insensitive), with
    /// default parameters. The inverse of [`Mechanism::name`] for every
    /// entry of [`Mechanism::all`].
    pub fn parse(s: &str) -> Option<Mechanism> {
        let want = s.trim().to_ascii_lowercase();
        Mechanism::all()
            .into_iter()
            .find(|m| m.name().to_ascii_lowercase() == want)
    }

    /// Validate parameter sanity (threshold ordering per §III-E; rate /
    /// window ranges for the modern schemes).
    pub fn validate(&self) -> Result<(), String> {
        if let Some(iso) = self.isolation() {
            if iso.num_cfqs == 0 {
                return Err("isolation needs at least one CFQ".into());
            }
            if iso.go_mtus >= iso.stop_mtus {
                return Err("Go threshold must be below Stop".into());
            }
            if iso.propagate_threshold_mtus > iso.stop_mtus {
                return Err("propagation threshold must not exceed Stop".into());
            }
        }
        if let Some(t) = self.throttle() {
            if !(0.0..=1.0).contains(&t.marking_rate) {
                return Err("marking rate must be in [0, 1]".into());
            }
            if t.low_mtus + 1 > t.high_mtus {
                return Err("High/Low thresholds need at least one MTU of distance".into());
            }
            if t.cct_len < 2 {
                return Err("CCT needs at least two entries".into());
            }
        }
        if let Mechanism::Ccfit(iso, t) = self {
            // §III-E: the Stop threshold should sit above High so upstream
            // congested packets are not blocked while marking ramps up.
            if iso.stop_mtus <= t.high_mtus {
                return Err("Stop threshold should be greater than High (§III-E)".into());
            }
        }
        if let Mechanism::Dcqcn(d) = self {
            if d.kmin_mtus >= d.kmax_mtus {
                return Err("DCQCN Kmin must be below Kmax".into());
            }
            if !(0.0..=1.0).contains(&d.pmax) {
                return Err("DCQCN Pmax must be in [0, 1]".into());
            }
            if !(0.0..1.0).contains(&d.ewma_gain) {
                return Err("DCQCN EWMA gain must be in [0, 1)".into());
            }
            if !(d.min_rate_frac > 0.0 && d.min_rate_frac <= 1.0) {
                return Err("DCQCN min rate must be in (0, 1]".into());
            }
            if d.rate_ai_frac <= 0.0 || d.rate_hai_frac <= 0.0 {
                return Err("DCQCN increase steps must be positive".into());
            }
        }
        if let Mechanism::Hpcc(h) = self {
            if !(0.0 < h.eta && h.eta <= 1.0) {
                return Err("HPCC eta must be in (0, 1]".into());
            }
            if !(0.0..1.0).contains(&h.alpha) {
                return Err("HPCC alpha must be in [0, 1)".into());
            }
            if !(0.0..1.0).contains(&h.beta) {
                return Err("HPCC beta must be in [0, 1)".into());
            }
            if !(h.w_min_bytes > 0.0 && h.w_min_bytes <= h.w_max_bytes) {
                return Err("HPCC window bounds must satisfy 0 < min <= max".into());
            }
            if h.t_ns <= 0.0 {
                return Err("HPCC INT window must be positive".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposition_matches_the_table() {
        assert_eq!(Mechanism::OneQ.queueing(), QueueingScheme::Single);
        assert_eq!(Mechanism::VoqSw.queueing(), QueueingScheme::PerOutput);
        assert_eq!(Mechanism::voqnet().queueing(), QueueingScheme::PerDest);
        assert_eq!(Mechanism::fbicm().queueing(), QueueingScheme::Isolating);
        assert_eq!(Mechanism::ith().queueing(), QueueingScheme::PerOutput);
        assert_eq!(Mechanism::ccfit().queueing(), QueueingScheme::Isolating);
        assert_eq!(Mechanism::dcqcn().queueing(), QueueingScheme::PerOutput);
        assert_eq!(Mechanism::hpcc().queueing(), QueueingScheme::PerOutput);

        assert!(Mechanism::OneQ.isolation().is_none());
        assert!(Mechanism::fbicm().isolation().is_some());
        assert!(Mechanism::fbicm().throttle().is_none());
        assert!(Mechanism::ith().throttle().is_some());
        assert!(Mechanism::ith().isolation().is_none());
        assert!(Mechanism::ccfit().isolation().is_some());
        assert!(Mechanism::ccfit().throttle().is_some());
        // The modern schemes carry neither the IB throttle loop nor
        // isolation — their CC state lives in their own param sets.
        assert!(Mechanism::dcqcn().throttle().is_none());
        assert!(Mechanism::dcqcn().isolation().is_none());
        assert!(Mechanism::dcqcn().dcqcn_params().is_some());
        assert!(Mechanism::hpcc().throttle().is_none());
        assert!(Mechanism::hpcc().hpcc_params().is_some());
    }

    #[test]
    fn names_are_the_paper_names() {
        assert_eq!(Mechanism::OneQ.name(), "1Q");
        assert_eq!(Mechanism::voqnet().name(), "VOQnet");
        assert_eq!(Mechanism::ccfit().name(), "CCFIT");
        assert_eq!(Mechanism::dcqcn().name(), "DCQCN");
        assert_eq!(Mechanism::hpcc().name(), "HPCC");
    }

    #[test]
    fn registry_roundtrips_through_parse() {
        for m in Mechanism::all() {
            assert_eq!(Mechanism::parse(m.name()), Some(m.clone()), "{}", m.name());
            // case-insensitive
            assert_eq!(
                Mechanism::parse(&m.name().to_ascii_uppercase()),
                Some(m.clone())
            );
            assert_eq!(Mechanism::parse(&m.name().to_ascii_lowercase()), Some(m));
        }
        assert_eq!(Mechanism::parse("no-such-scheme"), None);
    }

    #[test]
    fn registry_sets_are_consistent() {
        assert_eq!(Mechanism::all().len(), 8);
        assert_eq!(Mechanism::paper_set().len(), 6);
        assert_eq!(Mechanism::modern_set().len(), 2);
        let all = Mechanism::all();
        // Names are unique — parse() would be ambiguous otherwise.
        let mut names: Vec<_> = all.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn all_defaults_validate() {
        for m in Mechanism::all() {
            m.validate().unwrap_or_else(|e| panic!("{}: {e}", m.name()));
        }
    }

    #[test]
    fn inverted_stop_go_is_rejected() {
        let iso = IsolationParams {
            go_mtus: 12,
            ..IsolationParams::default()
        };
        assert!(Mechanism::Fbicm(iso).validate().is_err());
    }

    #[test]
    fn ccfit_stop_must_exceed_high() {
        let iso = IsolationParams {
            stop_mtus: 3,
            go_mtus: 1,
            propagate_threshold_mtus: 1,
            ..IsolationParams::default()
        };
        let err = Mechanism::Ccfit(iso, ThrottleParams::default())
            .validate()
            .unwrap_err();
        assert!(err.contains("Stop"));
    }

    #[test]
    fn bad_marking_rate_is_rejected() {
        let t = ThrottleParams {
            marking_rate: 1.5,
            ..ThrottleParams::default()
        };
        assert!(Mechanism::Ith(t).validate().is_err());
    }

    #[test]
    fn high_low_distance_enforced() {
        let t = ThrottleParams {
            high_mtus: 2,
            low_mtus: 2,
            ..ThrottleParams::default()
        };
        assert!(Mechanism::Ith(t).validate().is_err());
    }

    #[test]
    fn dcqcn_hpcc_param_ranges_enforced() {
        let dcqcn = |f: fn(&mut DcqcnParams)| {
            let mut d = DcqcnParams::default();
            f(&mut d);
            Mechanism::Dcqcn(d)
        };
        assert!(dcqcn(|d| d.kmin_mtus = 8).validate().is_err());
        assert!(dcqcn(|d| d.pmax = 2.0).validate().is_err());
        assert!(dcqcn(|d| d.min_rate_frac = 0.0).validate().is_err());

        let hpcc = |f: fn(&mut HpccParams)| {
            let mut h = HpccParams::default();
            f(&mut h);
            Mechanism::Hpcc(h)
        };
        assert!(hpcc(|h| h.eta = 0.0).validate().is_err());
        assert!(hpcc(|h| h.beta = 1.0).validate().is_err());
        assert!(hpcc(|h| h.w_min_bytes = 1e9).validate().is_err());
    }
}
