//! Unit model: cycles, flits and the mapping to wall-clock time.
//!
//! The paper's simulator models networks "at the cycle level" with
//! 2048-byte MTU packets, 64 KB port memories and 2.5/5 GB/s links
//! (Table I). We discretise bandwidth into *flits* of 64 bytes and define
//! one simulator cycle as the time a 2.5 GB/s link needs to transfer one
//! flit (25.6 ns). A 5 GB/s link then moves two flits per cycle, an MTU
//! packet is 32 flits, and a 64 KB input-port RAM holds 1024 flits
//! (32 MTUs).

use serde::{Deserialize, Serialize};

/// Simulation time measured in engine cycles.
pub type Cycle = u64;

/// Default flit size in bytes.
pub const DEFAULT_FLIT_BYTES: u32 = 64;

/// Default reference link bandwidth in bytes per second (2.5 GB/s,
/// Table I of the paper). One flit per cycle corresponds to this rate.
pub const DEFAULT_REF_BANDWIDTH_BYTES_PER_S: f64 = 2.5e9;

/// The MTU in bytes (Table I). Every rate-flow packet is one MTU, and a
/// sized flow is chopped into MTUs plus a possibly smaller tail.
pub const MTU_BYTES: u32 = 2048;

/// Default input-port memory size in bytes (Table I).
pub const DEFAULT_PORT_RAM_BYTES: u32 = 64 * 1024;

/// The unit model translating between physical quantities (bytes,
/// nanoseconds, GB/s) and engine quantities (flits, cycles,
/// flits-per-cycle).
///
/// All conversions round conservatively: packet sizes round *up* to whole
/// flits (a partially-filled flit still occupies a buffer slot), durations
/// round up to whole cycles.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UnitModel {
    /// Flit size in bytes.
    pub flit_bytes: u32,
    /// Wall-clock duration of one cycle in nanoseconds.
    pub cycle_ns: f64,
}

impl Default for UnitModel {
    fn default() -> Self {
        Self::from_reference_bandwidth(DEFAULT_FLIT_BYTES, DEFAULT_REF_BANDWIDTH_BYTES_PER_S)
    }
}

impl UnitModel {
    /// Build a unit model where a link of `ref_bandwidth_bytes_per_s`
    /// transfers exactly one flit of `flit_bytes` per cycle.
    pub fn from_reference_bandwidth(flit_bytes: u32, ref_bandwidth_bytes_per_s: f64) -> Self {
        assert!(flit_bytes > 0, "flit size must be positive");
        assert!(
            ref_bandwidth_bytes_per_s > 0.0,
            "reference bandwidth must be positive"
        );
        let cycle_ns = flit_bytes as f64 / ref_bandwidth_bytes_per_s * 1e9;
        Self {
            flit_bytes,
            cycle_ns,
        }
    }

    /// Number of flits needed to carry `bytes` of payload (rounds up,
    /// minimum one flit).
    pub fn bytes_to_flits(&self, bytes: u32) -> u32 {
        if bytes == 0 {
            return 1;
        }
        bytes.div_ceil(self.flit_bytes)
    }

    /// Convert a byte count into whole flits *exactly*; errors at the type
    /// level are avoided by returning `None` when `bytes` is not a
    /// multiple of the flit size. Useful for validating configuration
    /// parameters such as RAM sizes.
    pub fn bytes_to_flits_exact(&self, bytes: u32) -> Option<u32> {
        if bytes.is_multiple_of(self.flit_bytes) {
            Some(bytes / self.flit_bytes)
        } else {
            None
        }
    }

    /// Convert flits back to bytes.
    pub fn flits_to_bytes(&self, flits: u32) -> u64 {
        flits as u64 * self.flit_bytes as u64
    }

    /// Convert a duration in nanoseconds to cycles, rounding up.
    pub fn ns_to_cycles(&self, ns: f64) -> Cycle {
        assert!(ns >= 0.0, "durations must be non-negative");
        (ns / self.cycle_ns).ceil() as Cycle
    }

    /// Convert cycles to nanoseconds.
    pub fn cycles_to_ns(&self, cycles: Cycle) -> f64 {
        cycles as f64 * self.cycle_ns
    }

    /// Flits per cycle for a link of the given bandwidth in bytes/s,
    /// rounded to the nearest whole number of flits (minimum 1).
    ///
    /// With the default model, 2.5 GB/s -> 1 flit/cycle and
    /// 5 GB/s -> 2 flits/cycle, exactly matching Table I.
    pub fn bandwidth_to_flits_per_cycle(&self, bytes_per_s: f64) -> u32 {
        assert!(bytes_per_s > 0.0, "bandwidth must be positive");
        let flits = bytes_per_s * self.cycle_ns / 1e9 / self.flit_bytes as f64;
        (flits.round() as u32).max(1)
    }

    /// Bandwidth in bytes/s corresponding to `flits_per_cycle`.
    pub fn flits_per_cycle_to_bandwidth(&self, flits_per_cycle: u32) -> f64 {
        flits_per_cycle as f64 * self.flit_bytes as f64 / (self.cycle_ns / 1e9)
    }

    /// Number of cycles needed to serialize `flits` onto a link moving
    /// `flits_per_cycle` (rounds up, minimum one cycle).
    pub fn serialization_cycles(&self, flits: u32, flits_per_cycle: u32) -> Cycle {
        assert!(flits_per_cycle > 0, "link bandwidth must be positive");
        (flits.div_ceil(flits_per_cycle)).max(1) as Cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_matches_table_one() {
        let u = UnitModel::default();
        assert_eq!(u.flit_bytes, 64);
        // 64 B at 2.5 GB/s = 25.6 ns
        assert!((u.cycle_ns - 25.6).abs() < 1e-9);
    }

    #[test]
    fn mtu_is_32_flits() {
        let u = UnitModel::default();
        assert_eq!(u.bytes_to_flits(MTU_BYTES), 32);
    }

    #[test]
    fn port_ram_is_1024_flits() {
        let u = UnitModel::default();
        assert_eq!(u.bytes_to_flits_exact(DEFAULT_PORT_RAM_BYTES), Some(1024));
    }

    #[test]
    fn bytes_to_flits_rounds_up() {
        let u = UnitModel::default();
        assert_eq!(u.bytes_to_flits(1), 1);
        assert_eq!(u.bytes_to_flits(64), 1);
        assert_eq!(u.bytes_to_flits(65), 2);
        assert_eq!(
            u.bytes_to_flits(0),
            1,
            "zero-byte packets still occupy a flit"
        );
    }

    #[test]
    fn bytes_to_flits_exact_rejects_remainders() {
        let u = UnitModel::default();
        assert_eq!(u.bytes_to_flits_exact(128), Some(2));
        assert_eq!(u.bytes_to_flits_exact(100), None);
    }

    #[test]
    fn bandwidth_mapping_matches_paper_links() {
        let u = UnitModel::default();
        assert_eq!(u.bandwidth_to_flits_per_cycle(2.5e9), 1);
        assert_eq!(u.bandwidth_to_flits_per_cycle(5.0e9), 2);
    }

    #[test]
    fn bandwidth_round_trips() {
        let u = UnitModel::default();
        for fpc in 1..=4 {
            let bw = u.flits_per_cycle_to_bandwidth(fpc);
            assert_eq!(u.bandwidth_to_flits_per_cycle(bw), fpc);
        }
    }

    #[test]
    fn ns_cycles_round_trip_within_one_cycle() {
        let u = UnitModel::default();
        let cycles = u.ns_to_cycles(10_000.0);
        let ns = u.cycles_to_ns(cycles);
        assert!(ns >= 10_000.0);
        assert!(ns < 10_000.0 + u.cycle_ns);
    }

    #[test]
    fn ns_to_cycles_rounds_up() {
        let u = UnitModel::default();
        assert_eq!(u.ns_to_cycles(0.0), 0);
        assert_eq!(u.ns_to_cycles(25.6), 1);
        assert_eq!(u.ns_to_cycles(25.7), 2);
    }

    #[test]
    fn serialization_cycles_for_mtu() {
        let u = UnitModel::default();
        // A 32-flit MTU needs 32 cycles at 1 flit/cycle, 16 at 2.
        assert_eq!(u.serialization_cycles(32, 1), 32);
        assert_eq!(u.serialization_cycles(32, 2), 16);
        // Sub-flit packets still take a full cycle.
        assert_eq!(u.serialization_cycles(1, 2), 1);
    }

    #[test]
    #[should_panic(expected = "flit size must be positive")]
    fn zero_flit_size_is_rejected() {
        UnitModel::from_reference_bandwidth(0, 2.5e9);
    }
}
