//! Microbenchmarks for the engine substrate: the per-cycle hot-path
//! operations (queue handling, CAM lookups, link transfers).

use ccfit::{Mechanism, SimBuilder, Simulator};
use ccfit_engine::cam::Cam;
use ccfit_engine::ids::{FlowId, NodeId, PacketId};
use ccfit_engine::link::{Link, LinkConfig};
use ccfit_engine::packet::Packet;
use ccfit_engine::queue::PacketQueue;
use ccfit_engine::ram::PortRam;
use ccfit_engine::units::UnitModel;
use ccfit_topology::config1_topology;
use ccfit_traffic::{FlowSpec, TrafficPattern};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn pkt(id: u64) -> Packet {
    Packet::data(PacketId(id), NodeId(0), NodeId(1), 32, 2048, FlowId(0), 0)
}

fn bench_queue(c: &mut Criterion) {
    c.bench_function("queue_push_pop", |b| {
        let mut q = PacketQueue::new();
        let mut i = 0u64;
        b.iter(|| {
            q.push(pkt(i), 0, 0);
            i += 1;
            black_box(q.pop());
        });
    });
    c.bench_function("queue_occupancy_threshold_check", |b| {
        let mut q = PacketQueue::new();
        for i in 0..16 {
            q.push(pkt(i), 0, 0);
        }
        b.iter(|| black_box(q.occupancy_mtus(32) >= 8));
    });
}

fn bench_cam(c: &mut Criterion) {
    c.bench_function("cam_lookup_hit", |b| {
        let mut cam: Cam<NodeId, u32> = Cam::new(4);
        cam.allocate(NodeId(7), 0).unwrap();
        cam.allocate(NodeId(23), 1).unwrap();
        b.iter(|| black_box(cam.lookup(NodeId(23))));
    });
    c.bench_function("cam_lookup_miss", |b| {
        let mut cam: Cam<NodeId, u32> = Cam::new(4);
        cam.allocate(NodeId(7), 0).unwrap();
        b.iter(|| black_box(cam.lookup(NodeId(42))));
    });
    c.bench_function("cam_alloc_free_cycle", |b| {
        let mut cam: Cam<NodeId, u32> = Cam::new(4);
        b.iter(|| {
            let i = cam.allocate(NodeId(9), 0).unwrap();
            cam.free(black_box(i));
        });
    });
}

fn bench_link(c: &mut Criterion) {
    c.bench_function("link_send_deliver_credit_cycle", |b| {
        let mut l = Link::new(LinkConfig::default(), 1 << 30);
        let mut now = 0u64;
        let mut arrived = Vec::new();
        b.iter(|| {
            l.send(now, pkt(now));
            now += 33;
            arrived.clear();
            l.deliver_into(now, &mut arrived);
            for d in &arrived {
                l.return_credits(now, d.packet.size_flits);
            }
            l.poll_credits(now);
        });
    });
}

fn bench_ram_and_units(c: &mut Criterion) {
    c.bench_function("ram_reserve_release", |b| {
        let mut ram = PortRam::new(1024);
        b.iter(|| {
            ram.reserve(black_box(32)).unwrap();
            ram.release(32);
        });
    });
    c.bench_function("units_conversions", |b| {
        let u = UnitModel::default();
        b.iter(|| {
            black_box(u.bytes_to_flits(black_box(2048)));
            black_box(u.ns_to_cycles(black_box(8000.0)));
        });
    });
}

/// A full config-1 simulator in a steady state: `flows` empty gives a
/// permanently idle network; never-ending hotspot flows give permanent
/// congestion. The duration is irrelevant — the bench ticks the live
/// simulator directly.
fn steady_sim(flows: Vec<FlowSpec>) -> Simulator {
    let mut sim = SimBuilder::new(config1_topology())
        .mechanism(Mechanism::ccfit())
        .traffic(TrafficPattern::new("steady", flows))
        .duration_ns(1e6)
        .seed(1)
        .build();
    sim.run_cycles(20_000); // settle into the steady state
    sim
}

fn congested_flows() -> Vec<FlowSpec> {
    vec![
        FlowSpec::hotspot(0, NodeId(0), NodeId(3), 0.0, None),
        FlowSpec::hotspot(1, NodeId(1), NodeId(4), 0.0, None),
        FlowSpec::hotspot(2, NodeId(2), NodeId(4), 0.0, None),
    ]
}

/// Whole-engine tick cost: an idle network (where the work-lists are
/// empty and the clock jumps) and a congested one (where the win is
/// allocation-free hot paths), each against one cycle of the exhaustive
/// reference walk (`Simulator::tick_reference`).
fn bench_engine_tick(c: &mut Criterion) {
    c.bench_function("engine_tick_idle_fast", |b| {
        let mut sim = steady_sim(vec![]);
        b.iter(|| sim.tick());
    });
    c.bench_function("engine_tick_idle_slow", |b| {
        let mut sim = steady_sim(vec![]);
        b.iter(|| sim.tick_reference());
    });
    c.bench_function("engine_tick_congested_fast", |b| {
        let mut sim = steady_sim(congested_flows());
        b.iter(|| sim.tick());
    });
    c.bench_function("engine_tick_congested_slow", |b| {
        let mut sim = steady_sim(congested_flows());
        b.iter(|| sim.tick_reference());
    });
}

criterion_group!(
    benches,
    bench_queue,
    bench_cam,
    bench_link,
    bench_ram_and_units,
    bench_engine_tick
);
criterion_main!(benches);
