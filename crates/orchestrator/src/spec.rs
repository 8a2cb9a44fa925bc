//! The atomic unit of orchestration: one fully-specified run.
//!
//! A [`RunSpec`] is everything that determines a run's *report* —
//! configuration, mechanism (with every parameter), seed, metrics bin
//! width, optional fault schedule and workload, BECN transport — and
//! nothing that doesn't.
//!
//! The cache key is `SHA-256(canonical_bytes ++ "\n" ++ ENGINE_SALT)`
//! where `canonical_bytes` is the compact JSON rendering of the spec.
//! The vendored `serde` derive emits object fields in declaration
//! order and renders floats with the shortest round-trippable form, so
//! the bytes are a canonical, field-order-stable function of the spec's
//! value — two equal specs always produce identical bytes (pinned by
//! the proptest in `tests/cache_keys.rs`).

use ccfit::{BecnTransport, ConfigId, FaultSchedule, Mechanism, SimConfig, Workload};
use ccfit_metrics::SimReport;
use serde::{Deserialize, Serialize};

use crate::hash::sha256_hex;

/// Spec schema version; embedded in the hashed bytes so a field
/// addition can never collide with keys minted by an older layout.
pub const SCHEMA_VERSION: u32 = 1;

/// Engine-version salt folded into every cache key.
///
/// Bump this string whenever a change may alter simulation *output*
/// (routing, arbitration, CC state machines, metrics accounting, RNG
/// streams, …). Old entries then simply never match again and
/// `ccfit-sweep gc` can prune them. Perf-only changes proven
/// byte-neutral by `tests/determinism.rs` do not need a bump.
pub const ENGINE_SALT: &str = "ccfit-engine/v10";

/// One fully-specified, cacheable simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSpec {
    /// Layout version of this struct ([`SCHEMA_VERSION`]).
    pub schema: u32,
    /// The (configuration, traffic case) pair.
    pub config: ConfigId,
    /// Congestion-management mechanism, parameters included.
    pub mechanism: Mechanism,
    /// Master RNG seed.
    pub seed: u64,
    /// Metrics bin width in nanoseconds.
    pub metrics_bin_ns: f64,
    /// Dynamic network-event schedule, if the run injects faults.
    pub faults: Option<FaultSchedule>,
    /// Closed-loop sized-flow workload replacing the config's traffic
    /// pattern (the config then only contributes topology, routing and
    /// duration). Trace workloads embed their flows by value, so the
    /// cache key covers trace *content*, not a file path.
    pub workload: Option<Workload>,
    /// How BECNs travel back to the sources. Left out of the canonical
    /// bytes when in-band (the default), so every key minted before
    /// the field existed still names the same run.
    #[serde(skip_serializing_if = "is_in_band")]
    pub becn_transport: BecnTransport,
}

fn is_in_band(transport: &BecnTransport) -> bool {
    *transport == BecnTransport::InBand
}

impl RunSpec {
    /// A fault-free run of `config` under `mechanism`.
    pub fn new(config: ConfigId, mechanism: Mechanism, seed: u64, metrics_bin_ns: f64) -> Self {
        RunSpec {
            schema: SCHEMA_VERSION,
            config,
            mechanism,
            seed,
            metrics_bin_ns,
            faults: None,
            workload: None,
            becn_transport: BecnTransport::InBand,
        }
    }

    /// Attach a fault schedule.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Replace the config's traffic pattern with a sized-flow workload.
    #[must_use]
    pub fn with_workload(mut self, workload: Workload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// The canonical serialization the cache key is computed over:
    /// compact JSON with fields in declaration order.
    pub fn canonical_bytes(&self) -> String {
        serde_json::to_string(self).expect("RunSpec serializes infallibly")
    }

    /// Content hash naming this run's cache entry (64 hex chars).
    pub fn cache_key(&self) -> String {
        let mut bytes = self.canonical_bytes().into_bytes();
        bytes.push(b'\n');
        bytes.extend_from_slice(ENGINE_SALT.as_bytes());
        sha256_hex(&bytes)
    }

    /// Short human label for progress lines, e.g.
    /// `config1/case1@1 CCFIT seed=1`.
    pub fn label(&self) -> String {
        let faults = if self.faults.is_some() {
            " +faults"
        } else {
            ""
        };
        let workload = match &self.workload {
            Some(w) => format!("+{}", w.name()),
            None => String::new(),
        };
        format!(
            "{}{workload} {} seed={}{faults}",
            self.config.label(),
            self.mechanism.name(),
            self.seed
        )
    }

    /// Simulate this spec and return the report.
    pub fn execute(&self) -> SimReport {
        let mut experiment = self.config.resolve();
        if let Some(w) = &self.workload {
            experiment = experiment.with_workload(w);
        }
        let cfg = SimConfig {
            metrics_bin_ns: self.metrics_bin_ns,
            becn_transport: self.becn_transport,
            ..SimConfig::default()
        };
        match &self.faults {
            Some(schedule) => experiment
                .build_sim_with_faults(self.mechanism.clone(), self.seed, cfg, schedule.clone())
                .run(),
            None => experiment.run_with(self.mechanism.clone(), self.seed, cfg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> RunSpec {
        RunSpec::new(ConfigId::config1_case1(), Mechanism::ccfit(), 1, 250_000.0)
    }

    #[test]
    fn canonical_bytes_are_stable_within_a_process() {
        assert_eq!(spec().canonical_bytes(), spec().canonical_bytes());
        assert_eq!(spec().cache_key(), spec().cache_key());
        assert_eq!(spec().cache_key().len(), 64);
    }

    #[test]
    fn key_depends_on_the_salt() {
        let base = spec();
        let mut bytes = base.canonical_bytes().into_bytes();
        bytes.push(b'\n');
        bytes.extend_from_slice(b"some-other-salt");
        assert_ne!(base.cache_key(), crate::hash::sha256_hex(&bytes));
    }

    #[test]
    fn spec_roundtrips_through_canonical_json() {
        let s = spec().with_faults(FaultSchedule::new());
        let back: RunSpec = serde_json::from_str(&s.canonical_bytes()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.cache_key(), s.cache_key());
    }

    #[test]
    fn workload_shows_in_label_and_roundtrips() {
        let s = spec().with_workload(ccfit::traffic::incast(4, 65_536));
        assert!(
            s.label().contains("+incast-4x65536B"),
            "label: {}",
            s.label()
        );
        let back: RunSpec = serde_json::from_str(&s.canonical_bytes()).unwrap();
        assert_eq!(back, s);
        assert_ne!(s.cache_key(), spec().cache_key());
    }
}
