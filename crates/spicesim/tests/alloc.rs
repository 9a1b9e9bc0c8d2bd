//! The transient's Newton loop allocates nothing per step or per
//! iteration: a ring-VCO transient twice as long makes exactly as many
//! heap allocations. Set-up (the plan, the symbolic analysis, the first
//! factor and the pre-sized recording buffers) allocates the same
//! number of blocks whatever the window.
//!
//! The count is kept per thread by a counting global allocator, so the
//! test harness's own threads never reach it. This file holds a single
//! test for the same reason.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use netlist::topology::{build_ring_vco, VcoSizing};
use spicesim::transient::{run_transient, TransientSpec};
use spicesim::SimOptions;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation
/// the calling thread makes.
struct CountingAllocator;

fn count_one() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn transient_allocations_do_not_grow_with_the_step_count() {
    let vco = build_ring_vco(&VcoSizing::nominal(), 5, 1.2, 0.9);
    let opts = SimOptions::default();
    let dt = 12.5e-12;
    let allocations = |steps: usize| {
        let spec = TransientSpec::new(steps as f64 * dt, dt).with_ic();
        let before = ALLOCATIONS.with(Cell::get);
        let run = run_transient(&vco.circuit, &spec, &opts).expect("ring transient");
        let count = ALLOCATIONS.with(Cell::get) - before;
        assert!(run.len() > steps, "the run records every step to t_stop");
        count
    };
    // One untimed run first, so lazily initialised state is not billed
    // to the shorter run.
    allocations(10);
    let short = allocations(200);
    let long = allocations(400);
    assert_eq!(
        short, long,
        "200 steps made {short} allocations, 400 steps made {long}"
    );
}
