//! Steady-state allocations per served forward.
//!
//! A counting global allocator (per thread, so concurrently running tests
//! do not disturb it) counts the heap allocations of one warmed-up forward
//! of the served ResNet-20 (3×16×16, width ÷ 4, batch 1) under the ODQ
//! engine exactly as serving configures it, and under static INT4. Every
//! per-image buffer of the integer convs — padded code rows, the padded
//! image, products, receptive sums, estimates — lives in the plan cache's
//! workspaces, so what is left per conv is its output tensor, its mask
//! and the quantized activations. The ceilings pin that: an allocation
//! per image or per filter row sent back into a kernel fails them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use odq::core::engine::OdqEngine;
use odq::data::SynthSpec;
use odq::nn::executor::{ConvExecutor, FloatConvExecutor, StaticQuantExecutor};
use odq::nn::models::{Model, ModelCfg};
use odq::nn::Arch;
use odq::tensor::Tensor;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations of the third forward of `x` (the first two warm the plan
/// cache and grow the workspaces).
fn steady_state_allocs<E: ConvExecutor>(m: &Model, x: &Tensor, e: &mut E) -> u64 {
    for _ in 0..2 {
        m.forward_eval(x, e);
    }
    let before = ALLOCS.with(Cell::get);
    m.forward_eval(x, e);
    ALLOCS.with(Cell::get) - before
}

#[test]
fn served_forward_allocations_stay_under_ceiling() {
    let m = Model::build(ModelCfg::small(Arch::ResNet20, 10));
    let x = SynthSpec::cifar10(16).generate(1).images;

    let float = steady_state_allocs(&m, &x, &mut FloatConvExecutor);
    // Serving's ODQ engine: mask counts only, no INT4 reference.
    let mut odq = OdqEngine::new(0.3);
    odq.sparse = true;
    let odq = steady_state_allocs(&m, &x, &mut odq);
    let int4 = steady_state_allocs(&m, &x, &mut StaticQuantExecutor::int(4));
    eprintln!("allocations per forward: float {float}, odq (served) {odq}, int4 {int4}");

    // When these ceilings were set, the float forward made 100, the ODQ
    // forward 109 (per conv: quantized codes, output and mask bits) and
    // INT4 136 (per conv: codes, products, sums and output).
    assert!(odq <= 120, "served ODQ forward allocated {odq} times");
    assert!(int4 <= 150, "INT4 forward allocated {int4} times");
}
