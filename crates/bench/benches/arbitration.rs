//! iSLIP scheduling cost per cycle at the switch radixes of Table I
//! (5-port ad-hoc switches, 8-port fat-tree switches) and beyond, up to
//! the 32-port switches of the 4096-node 16-ary 3-tree.

use ccfit::arbiter::Islip;
use ccfit::bitset::BitSet;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// One cycle's scheduler input: per-output requester sets plus the free
/// inputs and outputs, built from `(input, output)` request pairs the
/// way the switch's candidate gather builds them.
struct Requests {
    requesters: Vec<BitSet>,
    in_free: BitSet,
    out_free: BitSet,
}

impl Requests {
    fn new(ports: usize, pairs: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut r = Self {
            requesters: vec![BitSet::new(ports); ports],
            in_free: BitSet::new(ports),
            out_free: BitSet::new(ports),
        };
        for (inp, out) in pairs {
            r.requesters[out].insert(inp);
            r.in_free.insert(inp);
            r.out_free.insert(out);
        }
        r
    }

    fn schedule(&self, islip: &mut Islip, matches: &mut Vec<(usize, usize)>) {
        matches.clear();
        islip.schedule_into(&self.requesters, &self.in_free, &self.out_free, matches);
    }
}

fn bench_islip(c: &mut Criterion) {
    let mut group = c.benchmark_group("islip_schedule");
    let mut matches = Vec::new();
    for &ports in &[5usize, 8, 16, 32] {
        // Full contention: every input wants every output.
        let dense = Requests::new(
            ports,
            (0..ports).flat_map(|i| (0..ports).map(move |o| (i, o))),
        );
        group.bench_with_input(
            BenchmarkId::new("full_contention", ports),
            &ports,
            |b, &p| {
                let mut islip = Islip::new(p, 2);
                b.iter(|| {
                    dense.schedule(&mut islip, &mut matches);
                    black_box(matches.len())
                });
            },
        );
        // Sparse requests: the common case mid-simulation.
        let sparse = Requests::new(ports, (0..ports).step_by(3).map(|i| (i, (i + 1) % ports)));
        group.bench_with_input(BenchmarkId::new("sparse", ports), &ports, |b, &p| {
            let mut islip = Islip::new(p, 2);
            b.iter(|| {
                sparse.schedule(&mut islip, &mut matches);
                black_box(matches.len())
            });
        });
    }
    // What a switch of the 4096-node run sees on a cycle with any
    // candidate at all: 32 ports, 1–3 inputs holding an eligible head,
    // every other output busy serializing (so not requested).
    for requesting in 1..=3usize {
        let light = Requests::new(32, (0..requesting).map(|k| (5 + 9 * k, 30 - 7 * k)));
        group.bench_with_input(
            BenchmarkId::new("scale4096_light", requesting),
            &requesting,
            |b, _| {
                let mut islip = Islip::new(32, 2);
                b.iter(|| {
                    light.schedule(&mut islip, &mut matches);
                    black_box(matches.len())
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_islip);
criterion_main!(benches);
