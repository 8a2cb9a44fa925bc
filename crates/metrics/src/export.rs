//! Event-log exporter: Chrome `trace_event` JSON. (The events
//! themselves serialize with serde, and so reach the report JSON.)
//!
//! It emits the legacy `trace_event` format understood
//! by `chrome://tracing` and [Perfetto](https://ui.perfetto.dev):
//! switch-side events appear under one "process" per switch (pid =
//! switch id) with one "thread" per port (tid = port), node-side events
//! under one process per node (pid = [`NODE_PID_BASE`] + node id) with
//! one thread per destination. Congestion enter/leave pairs and CFQ
//! exhaustion episodes render as duration slices; everything else
//! renders as instant events carrying its payload in `args`.

use crate::events::{CcEvent, CcEventKind};

/// Offset added to node ids to keep node "processes" disjoint from
/// switch "processes" in the Chrome trace.
pub const NODE_PID_BASE: u32 = 100_000;

/// Location and payload of one event, flattened for the trace:
/// `(pid, tid, args)` where `args` is `(name, value)` pairs.
fn flatten(kind: &CcEventKind) -> (u32, u32, Vec<(&'static str, u64)>) {
    use CcEventKind::*;
    match *kind {
        CongestionEnter {
            sw,
            port,
            occupancy_flits,
        }
        | CongestionLeave {
            sw,
            port,
            occupancy_flits,
        } => (
            sw,
            port,
            vec![("occupancy_flits", u64::from(occupancy_flits))],
        ),
        CfqAlloc {
            sw,
            port,
            dst,
            root,
        } => (
            sw,
            port,
            vec![("dst", u64::from(dst)), ("root", u64::from(root))],
        ),
        CfqExhausted {
            sw,
            port,
            dst,
            root,
            cycles,
        } => (
            sw,
            port,
            vec![
                ("dst", u64::from(dst)),
                ("root", u64::from(root)),
                ("cycles", cycles),
            ],
        ),
        CfqDealloc { sw, port, dst }
        | AllocPropagated { sw, port, dst }
        | CamExhausted { sw, port, dst }
        | StopSent { sw, port, dst }
        | GoSent { sw, port, dst }
        | StopReceived { sw, port, dst }
        | GoReceived { sw, port, dst } => (sw, port, vec![("dst", u64::from(dst))]),
        FecnMark {
            sw,
            port,
            dst,
            flow,
        } => (
            sw,
            port,
            vec![("dst", u64::from(dst)), ("flow", u64::from(flow))],
        ),
        IaCfqAlloc { node, dst }
        | IaCfqDealloc { node, dst }
        | IaCfqExhausted { node, dst }
        | IaCamExhausted { node, dst }
        | BecnReceived { node, dst } => (NODE_PID_BASE + node, dst, vec![("dst", u64::from(dst))]),
        BecnGenerated { node, src } => (NODE_PID_BASE + node, src, vec![("src", u64::from(src))]),
        CctiIncrease {
            node,
            dst,
            ccti,
            ird_cycles,
        }
        | CctiDecay {
            node,
            dst,
            ccti,
            ird_cycles,
        } => (
            NODE_PID_BASE + node,
            dst,
            vec![
                ("dst", u64::from(dst)),
                ("ccti", u64::from(ccti)),
                ("ird_cycles", ird_cycles),
            ],
        ),
        ThrottledInjection {
            node,
            dst,
            ird_cycles,
        } => (
            NODE_PID_BASE + node,
            dst,
            vec![("dst", u64::from(dst)), ("ird_cycles", ird_cycles)],
        ),
        Fault { kind: _, sw, port } => (sw, port, vec![]),
        RerouteDone { unreachable_nodes } => (
            0,
            0,
            vec![("unreachable_nodes", u64::from(unreachable_nodes))],
        ),
        Delivered {
            node,
            flow,
            bytes,
            latency_cycles,
            fecn,
        } => (
            NODE_PID_BASE + node,
            flow,
            vec![
                ("flow", u64::from(flow)),
                ("bytes", u64::from(bytes)),
                ("latency_cycles", latency_cycles),
                ("fecn", u64::from(fecn)),
            ],
        ),
        EcnMark {
            sw,
            port,
            dst,
            occupancy_flits,
        } => (
            sw,
            port,
            vec![
                ("dst", u64::from(dst)),
                ("occupancy_flits", u64::from(occupancy_flits)),
            ],
        ),
        CnpGenerated { node, src } => (NODE_PID_BASE + node, src, vec![("src", u64::from(src))]),
        CnpReceived { node, dst } => (NODE_PID_BASE + node, dst, vec![("dst", u64::from(dst))]),
        IntFeedback {
            node,
            dst,
            u_ppm,
            hops,
        } => (
            NODE_PID_BASE + node,
            dst,
            vec![
                ("dst", u64::from(dst)),
                ("u_ppm", u_ppm),
                ("hops", u64::from(hops)),
            ],
        ),
        RateChange {
            node,
            dst,
            rate_ppm,
            decrease,
        } => (
            NODE_PID_BASE + node,
            dst,
            vec![
                ("dst", u64::from(dst)),
                ("rate_ppm", rate_ppm),
                ("decrease", u64::from(decrease)),
            ],
        ),
        WindowChange {
            node,
            dst,
            window_bytes,
            decrease,
        } => (
            NODE_PID_BASE + node,
            dst,
            vec![
                ("dst", u64::from(dst)),
                ("window_bytes", window_bytes),
                ("decrease", u64::from(decrease)),
            ],
        ),
    }
}

/// Chrome `trace_event` JSON (load in `chrome://tracing` or Perfetto).
///
/// `cycle_ns` converts event cycles to the format's microsecond
/// timestamps. Congestion enter/leave become `B`/`E` duration slices
/// named `congested`; a CFQ exhaustion episode, logged once at its end,
/// becomes a `B`/`E` slice named `cfq_exhausted` over the cycles it
/// lasted; every other event is an instant (`ph: "i"`) with thread scope.
pub fn chrome_trace_json(events: &[CcEvent], cycle_ns: f64) -> String {
    let mut pids: Vec<u32> = Vec::new();
    let mut body = String::new();
    let mut emit = |name: &str, ph: &str, at: u64, pid: u32, tid: u32, args: &[(&str, u64)]| {
        let ts_us = at as f64 * cycle_ns / 1000.0;
        if !body.is_empty() {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"name\":\"{name}\",\"ph\":\"{ph}\",\"ts\":{ts_us},\"pid\":{pid},\"tid\":{tid}"
        ));
        if ph == "i" {
            body.push_str(",\"s\":\"t\"");
        }
        if !args.is_empty() {
            let packed: Vec<String> = args.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            body.push_str(&format!(",\"args\":{{{}}}", packed.join(",")));
        }
        body.push('}');
    };
    for ev in events {
        let (pid, tid, args) = flatten(&ev.kind);
        if !pids.contains(&pid) {
            pids.push(pid);
        }
        match ev.kind {
            CcEventKind::CongestionEnter { .. } => emit("congested", "B", ev.at, pid, tid, &args),
            CcEventKind::CongestionLeave { .. } => emit("congested", "E", ev.at, pid, tid, &args),
            CcEventKind::CfqExhausted { cycles, .. } => {
                let name = ev.kind.label();
                emit(name, "B", ev.at - cycles, pid, tid, &args);
                emit(name, "E", ev.at, pid, tid, &[]);
            }
            _ => emit(ev.kind.label(), "i", ev.at, pid, tid, &args),
        }
    }
    pids.sort_unstable();
    for pid in pids {
        let label = if pid >= NODE_PID_BASE {
            format!("node {}", pid - NODE_PID_BASE)
        } else {
            format!("switch {pid}")
        };
        if !body.is_empty() {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{label}\"}}}}"
        ));
    }
    format!("{{\"traceEvents\":[{body}],\"displayTimeUnit\":\"ms\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::CcEvent;

    fn sample() -> Vec<CcEvent> {
        vec![
            CcEvent {
                at: 100,
                kind: CcEventKind::CongestionEnter {
                    sw: 1,
                    port: 2,
                    occupancy_flits: 33,
                },
            },
            CcEvent {
                at: 150,
                kind: CcEventKind::FecnMark {
                    sw: 1,
                    port: 2,
                    dst: 3,
                    flow: 7,
                },
            },
            CcEvent {
                at: 180,
                kind: CcEventKind::BecnReceived { node: 0, dst: 3 },
            },
            CcEvent {
                at: 200,
                kind: CcEventKind::CongestionLeave {
                    sw: 1,
                    port: 2,
                    occupancy_flits: 4,
                },
            },
        ]
    }

    #[test]
    fn chrome_trace_pairs_and_names_processes() {
        let text = chrome_trace_json(&sample(), 1000.0);
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.contains("\"ph\":\"B\""));
        assert!(text.contains("\"ph\":\"E\""));
        assert!(text.contains("\"ph\":\"i\""));
        assert!(text.contains("\"name\":\"switch 1\""));
        assert!(text.contains(&format!("\"name\":\"node {}\"", 0)));
        // ts is microseconds: 100 cycles * 1000 ns = 100 us.
        assert!(text.contains("\"ts\":100"));
    }

    #[test]
    fn an_exhaustion_episode_is_one_slice_over_its_cycles() {
        let episode = CcEvent {
            at: 300,
            kind: CcEventKind::CfqExhausted {
                sw: 2,
                port: 1,
                dst: 9,
                root: true,
                cycles: 100,
            },
        };
        let text = chrome_trace_json(&[episode], 1000.0);
        assert!(text.contains(
            "{\"name\":\"cfq_exhausted\",\"ph\":\"B\",\"ts\":200,\"pid\":2,\"tid\":1,\
             \"args\":{\"dst\":9,\"root\":1,\"cycles\":100}}"
        ));
        assert!(text
            .contains("{\"name\":\"cfq_exhausted\",\"ph\":\"E\",\"ts\":300,\"pid\":2,\"tid\":1}"));
        assert!(!text.contains("\"ph\":\"i\""));
    }
}
