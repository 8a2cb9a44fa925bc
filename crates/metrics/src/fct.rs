//! Flow-completion-time tracking for closed-loop sized flows.
//!
//! The simulator registers one [`FlowGoal`] per sized flow before the
//! run starts; the collector feeds every data delivery through
//! [`FctTracker::on_delivery`], which marks a flow complete the moment
//! its cumulative delivered bytes reach its goal.
//!
//! **Ideal FCT** (the slowdown denominator) is a true lower bound
//! computed from the route at registration time: serialization of the
//! whole flow through the narrowest link on its path, plus the sum of
//! link propagation delays from source NIC to destination NIC. Queueing
//! and switch-crossing cycles are deliberately excluded, so measured
//! FCT ≥ ideal and slowdown ≥ 1 always hold.

use ccfit_engine::ids::FlowId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What one sized flow set out to do, plus its precomputed ideal FCT.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowGoal {
    /// Flow id (shared space with rate-window flows).
    pub id: FlowId,
    /// Display label.
    pub label: String,
    /// Total payload bytes the flow will deliver.
    pub bytes: u64,
    /// Injection start in nanoseconds, quantized to the cycle the
    /// source generator actually activates on (so slowdown can never
    /// dip below 1 through rounding).
    pub start_ns: f64,
    /// Lower-bound completion time in nanoseconds (see module docs).
    pub ideal_ns: f64,
    /// Priority tag from the workload.
    pub priority: u8,
}

/// Live per-flow completion state inside the collector.
#[derive(Debug, Clone)]
pub struct FctTracker {
    goals: Vec<FlowGoal>,
    index: BTreeMap<FlowId, usize>,
    delivered: Vec<u64>,
    completion_ns: Vec<Option<f64>>,
}

impl FctTracker {
    /// Track the given goals (declaration order is report order).
    pub fn new(goals: Vec<FlowGoal>) -> Self {
        let index = goals.iter().enumerate().map(|(i, g)| (g.id, i)).collect();
        let n = goals.len();
        Self {
            goals,
            index,
            delivered: vec![0; n],
            completion_ns: vec![None; n],
        }
    }

    /// Account a delivered data packet. Packets of untracked flows
    /// (rate-window traffic sharing the run) are ignored.
    pub fn on_delivery(&mut self, now_ns: f64, flow: FlowId, bytes: u64) {
        let Some(&i) = self.index.get(&flow) else {
            return;
        };
        self.delivered[i] += bytes;
        if self.completion_ns[i].is_none() && self.delivered[i] >= self.goals[i].bytes {
            self.completion_ns[i] = Some(now_ns);
        }
    }

    /// Freeze into the report block.
    pub fn into_report(self) -> FctReport {
        let flows: Vec<FlowFct> = self
            .goals
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let completion_ns = self.completion_ns[i];
                let fct_ns = completion_ns.map(|c| c - g.start_ns);
                FlowFct {
                    id: g.id,
                    label: g.label.clone(),
                    priority: g.priority,
                    bytes: g.bytes,
                    start_ns: g.start_ns,
                    ideal_ns: g.ideal_ns,
                    completion_ns,
                    fct_ns,
                    slowdown: fct_ns.map(|f| f / g.ideal_ns),
                    delivered_bytes: self.delivered[i],
                }
            })
            .collect();
        FctReport::from_flows(flows)
    }
}

/// One flow's completion record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowFct {
    /// Flow id.
    pub id: FlowId,
    /// Display label.
    pub label: String,
    /// Priority tag.
    pub priority: u8,
    /// Goal bytes.
    pub bytes: u64,
    /// Injection start (ns, cycle-quantized).
    pub start_ns: f64,
    /// Ideal lower-bound FCT (ns).
    pub ideal_ns: f64,
    /// Absolute completion time (ns); `None` = the run ended first.
    pub completion_ns: Option<f64>,
    /// Flow completion time (ns): `completion_ns - start_ns`.
    pub fct_ns: Option<f64>,
    /// `fct_ns / ideal_ns`; ≥ 1.0 by construction.
    pub slowdown: Option<f64>,
    /// Bytes actually delivered by the end of the run.
    pub delivered_bytes: u64,
}

/// The FCT block of a [`crate::SimReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FctReport {
    /// Per-flow records, in workload declaration order.
    pub flows: Vec<FlowFct>,
    /// Flows that finished within the simulated duration.
    pub completed: usize,
    /// Flows still in flight when the run ended.
    pub incomplete: usize,
    /// Mean FCT over completed flows (ns; 0 when none completed).
    pub avg_fct_ns: f64,
    /// Median FCT (ns, nearest-rank over completed flows).
    pub p50_fct_ns: f64,
    /// 99th-percentile FCT (ns).
    pub p99_fct_ns: f64,
    /// 99.9th-percentile FCT (ns).
    pub p999_fct_ns: f64,
    /// Mean slowdown-vs-ideal over completed flows (0 when none).
    pub avg_slowdown: f64,
    /// Worst slowdown over completed flows (0 when none).
    pub max_slowdown: f64,
}

impl FctReport {
    fn from_flows(flows: Vec<FlowFct>) -> Self {
        let mut fcts: Vec<f64> = flows.iter().filter_map(|f| f.fct_ns).collect();
        fcts.sort_by(|a, b| a.partial_cmp(b).expect("FCTs are finite"));
        let completed = fcts.len();
        let incomplete = flows.len() - completed;
        let slowdowns: Vec<f64> = flows.iter().filter_map(|f| f.slowdown).collect();
        let mean = |xs: &[f64]| {
            if xs.is_empty() {
                0.0
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            }
        };
        FctReport {
            completed,
            incomplete,
            avg_fct_ns: mean(&fcts),
            p50_fct_ns: percentile(&fcts, 0.50),
            p99_fct_ns: percentile(&fcts, 0.99),
            p999_fct_ns: percentile(&fcts, 0.999),
            avg_slowdown: mean(&slowdowns),
            max_slowdown: slowdowns.iter().copied().fold(0.0, f64::max),
            flows,
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (0 if empty).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn goal(id: u32, bytes: u64, start_ns: f64, ideal_ns: f64) -> FlowGoal {
        FlowGoal {
            id: FlowId(id),
            label: format!("S{id}"),
            bytes,
            start_ns,
            ideal_ns,
            priority: 0,
        }
    }

    #[test]
    fn completion_fires_on_the_last_byte() {
        let mut t = FctTracker::new(vec![goal(0, 4096, 100.0, 500.0)]);
        t.on_delivery(700.0, FlowId(0), 2048);
        t.on_delivery(900.0, FlowId(0), 2048);
        let r = t.into_report();
        assert_eq!(r.completed, 1);
        assert_eq!(r.flows[0].completion_ns, Some(900.0));
        assert_eq!(r.flows[0].fct_ns, Some(800.0));
        assert_eq!(r.flows[0].slowdown, Some(1.6));
    }

    #[test]
    fn untracked_and_incomplete_flows_are_handled() {
        let mut t = FctTracker::new(vec![goal(0, 4096, 0.0, 500.0)]);
        t.on_delivery(10.0, FlowId(9), 2048); // untracked: ignored
        t.on_delivery(20.0, FlowId(0), 2048); // half done
        let r = t.into_report();
        assert_eq!(r.completed, 0);
        assert_eq!(r.incomplete, 1);
        assert_eq!(r.flows[0].delivered_bytes, 2048);
        assert_eq!(r.flows[0].fct_ns, None);
        assert_eq!(r.avg_fct_ns, 0.0);
        assert_eq!(r.max_slowdown, 0.0);
    }

    #[test]
    fn aggregates_use_nearest_rank() {
        let mut t = FctTracker::new((0..100).map(|i| goal(i, 64, 0.0, 10.0)).collect());
        for i in 0..100u32 {
            t.on_delivery((i + 1) as f64 * 10.0, FlowId(i), 64);
        }
        let r = t.into_report();
        assert_eq!(r.completed, 100);
        assert_eq!(r.p50_fct_ns, 500.0);
        assert_eq!(r.p99_fct_ns, 990.0);
        assert_eq!(r.p999_fct_ns, 1000.0);
        assert!((r.avg_fct_ns - 505.0).abs() < 1e-9);
        assert_eq!(r.max_slowdown, 100.0);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut t = FctTracker::new(vec![goal(0, 64, 0.0, 10.0), goal(1, 64, 0.0, 10.0)]);
        t.on_delivery(25.0, FlowId(0), 64);
        let r = t.into_report();
        let json = serde_json::to_string(&r).unwrap();
        let back: FctReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
