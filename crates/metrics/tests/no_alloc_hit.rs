//! `MetricsCollector::count` / `gauge` / `record` on names the collector
//! already holds must not touch the allocator — a congested run bumps the
//! same few counters hundreds of thousands of times. This file holds one
//! test so nothing else allocates on its thread while it counts.

use ccfit_engine::units::UnitModel;
use ccfit_metrics::{CcEventKind, MetricsCollector};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// thread-local counter bump, which neither allocates nor unwinds
// (`try_with` ignores a thread-local that is already destroyed).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn hits_on_existing_names_do_not_allocate() {
    let mut c = MetricsCollector::new(UnitModel::default(), 1000.0);
    // A fixed-slot counter never allocates; the first use of any other
    // name allocates its key (and the gauge's `_samples` buffer).
    assert_eq!(allocs_during(|| c.count("cfq_exhausted", 1)), 0);
    let dynamic = "fecn_marked_sw3_out1_dst7";
    assert!(allocs_during(|| c.count(dynamic, 1)) > 0);
    assert!(allocs_during(|| c.gauge("buffered_flits", 10.0, 1.0)) > 0);
    // A FECN mark also bumps its per-site counter, built in a buffer.
    let mark = CcEventKind::FecnMark {
        sw: 4,
        port: 2,
        dst: 9,
        flow: 0,
    };
    assert!(allocs_during(|| c.record(0, mark)) > 0);

    let direct = allocs_during(|| {
        for i in 0..1000u64 {
            c.count("cfq_exhausted", i);
            c.count(dynamic, i);
            c.gauge("buffered_flits", 10.0, 2.0); // same bin: no series growth
            c.record(i, mark);
        }
    });
    assert_eq!(direct, 0, "count/gauge/record on existing names allocated");
    assert_eq!(c.counter("fecn_marked_sw4_out2_dst9"), 1001);
    assert_eq!(c.counter("cfq_exhausted"), 1 + 499_500);
    assert_eq!(c.counter(dynamic), 1 + 499_500);
}
