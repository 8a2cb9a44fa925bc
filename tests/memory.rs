//! What a run holds (DESIGN.md §12, "What a run holds"): one copy of
//! each shared table and one queue slot per queued packet. A counting
//! global allocator measures the live heap; this file is its own test
//! binary, so no other test shares the allocator, and each thread keeps
//! its own count, so the tests in this file do not share it either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ccfit::bitset::BitSet;
use ccfit::endnode::{Adapter, AdapterCfg, AdapterThrottle};
use ccfit::engine::ids::{FlowId, LinkId, NodeId, PacketId};
use ccfit::engine::queue::QueuedPacket;
use ccfit::engine::{Packet, PacketQueue, UnitModel};
use ccfit::topology::{KAryNTree, LinkParams};
use ccfit::traffic::uniform_all;
use ccfit::{ExperimentSpec, IsolationParams, Mechanism, SimConfig, ThrottleParams};

/// Counts the bytes each thread has allocated and not yet freed, and
/// the high-water mark of that count.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    // `try_with`: a thread's last frees can come after its locals die.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method hands its arguments unchanged to `System`, whose
// guarantees are then the caller's; the count reads only `Layout` sizes
// and thread-locals that are const-initialised and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// This thread's live heap in bytes, and a fresh high-water mark.
fn live_and_reset_peak() -> isize {
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    live
}

/// The live-heap peak, in MB, of a `k`-ary 3-tree under uniform 0.1
/// load and CCFIT (seed 1) for `duration_ns`, built through its spec —
/// which stays alive beside the simulator, as it does in every caller —
/// and run to the end.
fn tree_peak_mb(k: u32, duration_ns: f64) -> f64 {
    let base = live_and_reset_peak();
    let tree = KAryNTree::new(k, 3);
    let topology = tree.build(LinkParams::default());
    let spec = ExperimentSpec {
        name: format!("{k}-ary 3-tree"),
        routing: tree.det_routing(),
        pattern: uniform_all(topology.num_nodes(), 0.1),
        topology,
        duration_ns,
        crossbar_bw_flits_per_cycle: 1,
    };
    let mut sim = spec.build_sim(Mechanism::ccfit(), 1, SimConfig::default());
    sim.run_to_end();
    assert!(sim.delivered() > 0, "traffic flowed");
    let peak_mb = (PEAK.with(Cell::get) - base) as f64 / 1e6;
    drop((sim, spec));
    peak_mb
}

/// The benchmark's `scale4096` case — a 16-ary 3-tree for 50 µs. Its
/// live heap peaked at ~73 MB when the spec and the simulator each held
/// a 6.3 MB routing table, every adapter its own CCT and every queue
/// four slots from its first packet, at ~44.5 MB with one routing table,
/// at ~37 MB once DET routed in closed form and `DestMap` allocated its
/// index by the page, and at ~29 MB once a switch's port sets were
/// inline words, its arbitration candidates one array, and a port's CFQ
/// slots and CAM lines allocated by their first use. It peaks at
/// ~26.3 MB now that `DestMap` keeps no index beside its sorted keys and
/// an adapter too takes its CFQ slots with its first CFQ.
#[test]
fn scale4096_peaks_under_29_mb_of_live_heap() {
    let peak_mb = tree_peak_mb(16, 50_000.0);
    assert!(
        peak_mb <= 29.0,
        "scale4096 peaked at {peak_mb:.1} MB of live heap"
    );
}

/// The 32 768-node tree of `tests/integration_scale.rs` — a 32-ary
/// 3-tree for 20 µs. Its live heap held a 201 MB DET table and a 5 KB
/// `DestMap` index in each adapter (168 MB), 623 MB in all; without
/// them it peaked at ~277 MB, with the switch's sets, candidates, CFQ
/// slots and CAM lines folded as in `scale4096` at ~213 MB, and with no
/// `DestMap` index and no adapter CFQ slots before the first CFQ at
/// ~182 MB.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: building 3072 64-port switches takes minutes unoptimised"
)]
fn tree_of_32768_nodes_peaks_under_200_mb_of_live_heap() {
    let peak_mb = tree_peak_mb(32, 20_000.0);
    assert!(
        peak_mb <= 200.0,
        "the 32 768-node tree peaked at {peak_mb:.1} MB of live heap"
    );
}

/// A set over at most 64 indices — every port set of a switch of up to
/// 64 ports — keeps its word inline; one over 65 holds its two words on
/// the heap.
#[test]
fn a_bitset_allocates_only_past_64_indices() {
    for (len, bytes) in [(0, 0), (64, 0), (65, 16)] {
        let base = live_and_reset_peak();
        let set = BitSet::new(len);
        assert_eq!(LIVE.with(Cell::get) - base, bytes, "BitSet::new({len})");
        drop(set);
    }
}

/// The tables a run shares are shared, not copied, by every clone.
#[test]
fn cloning_a_shared_table_allocates_nothing() {
    let routing = KAryNTree::new(4, 3).det_routing();
    let throttle = AdapterThrottle::from_params(&ThrottleParams::default(), &UnitModel::default());
    let base = live_and_reset_peak();
    let copies = (routing.clone(), throttle.clone());
    assert_eq!(PEAK.with(Cell::get) - base, 0, "a clone allocated");
    assert_eq!(copies, (routing, throttle));
}

/// A queue grows from one slot: once it has held one packet it owns
/// exactly one entry's worth of heap.
#[test]
fn a_queue_that_held_one_packet_owns_one_slot() {
    let packet = Packet::data(PacketId(1), NodeId(0), NodeId(1), 32, 2048, FlowId(0), 0);
    let base = live_and_reset_peak();
    let mut queue = PacketQueue::new();
    queue.push(packet, 0, 31);
    queue.pop().expect("the packet comes back");
    assert_eq!(
        LIVE.with(Cell::get) - base,
        std::mem::size_of::<QueuedPacket>() as isize
    );
    drop(queue);
}

/// An adapter takes its CFQ slots with its first CFQ, as a switch port
/// does: an isolating adapter that has not isolated holds no more heap
/// than one that cannot isolate.
#[test]
fn an_adapter_that_never_isolates_holds_no_cfq_slots() {
    let live_bytes = |iso: Option<IsolationParams>| {
        let cfg = AdapterCfg {
            iso,
            thr: None,
            mtu_flits: 32,
            out_ram_flits: 1024,
            advoq_cap_flits: 1024,
            nfq_gate_flits: 64,
            per_dest_output: false,
            dcqcn: None,
            hpcc: None,
            data_overhead_bytes: 0,
        };
        let base = live_and_reset_peak();
        let adapter = Adapter::new(NodeId(0), cfg, LinkId(0), 1, 64);
        let bytes = LIVE.with(Cell::get) - base;
        drop(adapter);
        bytes
    };
    assert_eq!(
        live_bytes(Some(IsolationParams::default())),
        live_bytes(None),
        "a CFQ-slot block before the first CFQ"
    );
}
