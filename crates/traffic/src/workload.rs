//! Canned sized-flow workloads and the [`Workload`] selector.
//!
//! A [`Workload`] is a declarative, topology-independent description of
//! a closed-loop flow workload — the FCT counterpart of the open-loop
//! case presets in [`crate::cases`]. It is resolved against a concrete
//! machine size with [`Workload::build`], which yields a sized-flow-only
//! [`TrafficPattern`]. The enum is serializable so an orchestrator run
//! spec can embed it verbatim: a trace-file workload hashes by its
//! parsed *content*, not a file path, so cache keys stay stable across
//! machines.

use crate::pattern::TrafficPattern;
use crate::sized::SizedFlow;
use ccfit_engine::ids::NodeId;
use ccfit_engine::BadParam;
use serde::{Deserialize, Serialize};

/// A closed-loop workload, resolved against a machine size at build
/// time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Workload {
    /// `senders` nodes (1..=senders) each send `bytes` to node 0 at
    /// t = 0 — the classic fan-in that congests the receiver's link.
    Incast {
        /// Number of simultaneous senders (must be < num_nodes).
        senders: usize,
        /// Bytes per sender.
        bytes: u64,
    },
    /// Every node sends `bytes` to every other node at t = 0.
    AllToAll {
        /// Bytes per (src, dst) pair.
        bytes: u64,
    },
    /// Node `i` sends `bytes` to node `(i + shift) mod n` at t = 0 — a
    /// contention-free permutation when the topology provides disjoint
    /// paths, so it doubles as an ideal-FCT sanity workload.
    PermutationShift {
        /// Destination offset (mod num_nodes; `shift % n` must be ≠ 0).
        shift: usize,
        /// Bytes per node.
        bytes: u64,
    },
    /// `phases` rounds of shifting permutations, one every `gap_ns` —
    /// the bulk-synchronous rhythm of an MPI collective: burst,
    /// quiesce, burst again with a different partner.
    MpiPhaseBursts {
        /// Number of rounds (phase `p` uses shift `p + 1`).
        phases: usize,
        /// Bytes per node per round.
        bytes: u64,
        /// Round start spacing in nanoseconds.
        gap_ns: f64,
    },
    /// Flows loaded from a trace file (see [`crate::trace`]), embedded
    /// by value.
    Trace {
        /// The parsed flows.
        flows: Vec<SizedFlow>,
    },
}

impl Workload {
    /// Short name used in pattern/run labels.
    pub fn name(&self) -> String {
        match self {
            Workload::Incast { senders, bytes } => format!("incast-{senders}x{bytes}B"),
            Workload::AllToAll { bytes } => format!("all-to-all-{bytes}B"),
            Workload::PermutationShift { shift, bytes } => format!("perm-shift{shift}-{bytes}B"),
            Workload::MpiPhaseBursts { phases, bytes, .. } => {
                format!("mpi-{phases}phase-{bytes}B")
            }
            Workload::Trace { flows } => format!("trace-{}flows", flows.len()),
        }
    }

    /// Whether [`Self::build`] can resolve this workload on a machine of
    /// `num_nodes` end nodes: `Err` names the first parameter that
    /// cannot fit.
    pub fn check(&self, num_nodes: usize) -> Result<(), BadParam> {
        let n = num_nodes;
        let fail = |key, reason: String| Err(BadParam::new(key, reason));
        let bytes = |bytes: u64| match bytes {
            0 => fail("bytes", "must be at least 1".into()),
            _ => Ok(()),
        };
        match *self {
            Workload::Incast { senders: 0, .. } => fail("senders", "must be at least 1".into()),
            Workload::Incast { senders, .. } if senders >= n => fail(
                "senders",
                format!("{senders} senders + 1 receiver do not fit the network's {n} nodes"),
            ),
            Workload::PermutationShift { shift, .. } if shift.is_multiple_of(n) => fail(
                "shift",
                format!("{shift} maps every node to itself on {n} nodes"),
            ),
            // Phase `p` shifts by `p + 1`, so phase `n` would map every
            // node to itself.
            Workload::MpiPhaseBursts { phases, .. } if phases == 0 || phases >= n => fail(
                "phases",
                format!("must be in 1..{n}: phase {n} maps every node to itself"),
            ),
            Workload::MpiPhaseBursts { gap_ns, .. } if !(gap_ns.is_finite() && gap_ns >= 0.0) => {
                fail("gap_ns", format!("must be finite and >= 0, got {gap_ns}"))
            }
            Workload::Incast { bytes: b, .. }
            | Workload::AllToAll { bytes: b }
            | Workload::PermutationShift { bytes: b, .. }
            | Workload::MpiPhaseBursts { bytes: b, .. } => bytes(b),
            Workload::Trace { ref flows } => {
                let nodes = flows.iter().flat_map(|f| [f.src.index(), f.dst.index()]);
                match nodes.max() {
                    Some(max) if max >= n => fail(
                        "file",
                        format!("references node {max} but the network has {n} nodes"),
                    ),
                    _ => Ok(()),
                }
            }
        }
    }

    /// Resolve into a sized-flow pattern for a machine of `num_nodes`
    /// end nodes.
    ///
    /// # Panics
    /// On a shape [`Self::check`] rejects.
    pub fn build(&self, num_nodes: usize) -> TrafficPattern {
        if let Err(e) = self.check(num_nodes) {
            panic!("{}: {e}", self.name());
        }
        let flows = match self {
            Workload::Incast { senders, bytes } => incast_flows(*senders, *bytes),
            Workload::AllToAll { bytes } => all_to_all_flows(num_nodes, *bytes),
            Workload::PermutationShift { shift, bytes } => {
                permutation_flows(num_nodes, *shift, *bytes, 0, 0.0)
            }
            Workload::MpiPhaseBursts {
                phases,
                bytes,
                gap_ns,
            } => {
                let mut flows = Vec::new();
                for p in 0..*phases {
                    flows.extend(permutation_flows(
                        num_nodes,
                        p + 1,
                        *bytes,
                        (p * num_nodes) as u32,
                        p as f64 * gap_ns,
                    ));
                }
                flows
            }
            Workload::Trace { flows } => flows.clone(),
        };
        TrafficPattern::sized_only(self.name(), flows)
    }
}

fn incast_flows(senders: usize, bytes: u64) -> Vec<SizedFlow> {
    (1..=senders)
        .map(|n| SizedFlow::new(n as u32, NodeId::from(n), NodeId(0), bytes, 0.0))
        .collect()
}

fn all_to_all_flows(num_nodes: usize, bytes: u64) -> Vec<SizedFlow> {
    let mut flows = Vec::with_capacity(num_nodes * (num_nodes - 1));
    let mut id = 0u32;
    for src in 0..num_nodes {
        for dst in 0..num_nodes {
            if src == dst {
                continue;
            }
            flows.push(SizedFlow::new(
                id,
                NodeId::from(src),
                NodeId::from(dst),
                bytes,
                0.0,
            ));
            id += 1;
        }
    }
    flows
}

fn permutation_flows(
    num_nodes: usize,
    shift: usize,
    bytes: u64,
    id_base: u32,
    start_ns: f64,
) -> Vec<SizedFlow> {
    (0..num_nodes)
        .map(|n| {
            SizedFlow::new(
                id_base + n as u32,
                NodeId::from(n),
                NodeId::from((n + shift) % num_nodes),
                bytes,
                start_ns,
            )
        })
        .collect()
}

/// `n` senders each sending `bytes` to node 0 at t = 0.
pub fn incast(senders: usize, bytes: u64) -> Workload {
    Workload::Incast { senders, bytes }
}

/// Every node sends `bytes` to every other node at t = 0.
pub fn all_to_all(bytes: u64) -> Workload {
    Workload::AllToAll { bytes }
}

/// Node `i` sends `bytes` to node `(i + shift) mod n`.
pub fn permutation_shift(shift: usize, bytes: u64) -> Workload {
    Workload::PermutationShift { shift, bytes }
}

/// `phases` shifting-permutation rounds spaced `gap_ns` apart.
pub fn mpi_phase_bursts(phases: usize, bytes: u64, gap_ns: f64) -> Workload {
    Workload::MpiPhaseBursts {
        phases,
        bytes,
        gap_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incast_fans_into_node_zero() {
        let p = incast(4, 65_536).build(8);
        assert_eq!(p.sized.len(), 4);
        assert!(p.flows.is_empty());
        assert!(p.sized.iter().all(|f| f.dst == NodeId(0)));
        assert!(p.sized.iter().all(|f| f.bytes == 65_536));
        let srcs: Vec<u32> = p.sized.iter().map(|f| f.src.0).collect();
        assert_eq!(srcs, vec![1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "senders")]
    fn incast_must_fit_the_machine() {
        incast(8, 64).build(8);
    }

    #[test]
    fn all_to_all_covers_every_ordered_pair() {
        let p = all_to_all(4096).build(4);
        assert_eq!(p.sized.len(), 12);
        assert!(p.sized.iter().all(|f| f.src != f.dst));
        let mut ids: Vec<u32> = p.sized.iter().map(|f| f.id.0).collect();
        ids.dedup();
        assert_eq!(ids.len(), 12);
    }

    #[test]
    fn permutation_is_a_bijection() {
        let p = permutation_shift(3, 1024).build(8);
        assert_eq!(p.sized.len(), 8);
        let mut dsts: Vec<u32> = p.sized.iter().map(|f| f.dst.0).collect();
        dsts.sort();
        assert_eq!(dsts, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    #[should_panic(expected = "maps every node to itself")]
    fn identity_permutation_rejected() {
        permutation_shift(8, 64).build(8);
    }

    #[test]
    fn mpi_phases_stagger_starts_and_shift_partners() {
        let p = mpi_phase_bursts(3, 2048, 50_000.0).build(8);
        assert_eq!(p.sized.len(), 24);
        let phase = |i: usize| &p.sized[i * 8..(i + 1) * 8];
        for (i, gap) in [(0usize, 0.0), (1, 50_000.0), (2, 100_000.0)] {
            assert!(phase(i).iter().all(|f| f.start_ns == gap));
        }
        // Phase p uses shift p+1, so node 0's partner differs per phase.
        assert_eq!(phase(0)[0].dst, NodeId(1));
        assert_eq!(phase(1)[0].dst, NodeId(2));
        assert_eq!(phase(2)[0].dst, NodeId(3));
    }

    #[test]
    fn trace_workload_embeds_flows_by_value() {
        let flows = crate::trace::parse_trace("1 0 65536 0\n2 0 65536 0\n").unwrap();
        let w = Workload::Trace { flows };
        assert_eq!(w.name(), "trace-2flows");
        let p = w.build(8);
        assert_eq!(p.sized.len(), 2);
    }

    #[test]
    #[should_panic(expected = "references node")]
    fn oversized_trace_rejected_at_build() {
        let flows = crate::trace::parse_trace("9 0 64 0\n").unwrap();
        Workload::Trace { flows }.build(8);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(incast(4, 65_536).name(), "incast-4x65536B");
        assert_eq!(all_to_all(64).name(), "all-to-all-64B");
        assert_eq!(permutation_shift(1, 64).name(), "perm-shift1-64B");
        assert_eq!(mpi_phase_bursts(2, 64, 1.0).name(), "mpi-2phase-64B");
    }

    #[test]
    fn workload_serde_round_trip() {
        let flows = crate::trace::parse_trace("1 0 65536 0\n").unwrap();
        for w in [
            incast(4, 65_536),
            all_to_all(64),
            permutation_shift(1, 64),
            mpi_phase_bursts(2, 64, 1.0),
            Workload::Trace { flows },
        ] {
            let json = serde_json::to_string(&w).unwrap();
            let back: Workload = serde_json::from_str(&json).unwrap();
            assert_eq!(w, back);
        }
    }
}
