//! The shared counting global allocator.
//!
//! Allocation-free proofs (the `no_alloc*` test suites) and allocation
//! profiling (`exp_profile`) all need the same wrapper around the system
//! allocator, so it lives here, next to the [`crate::count_alloc`] hook it
//! feeds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) made through
/// [`CountingAlloc`] since the process started.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// A global allocator that forwards to [`System`], counts every
/// allocation call in one process-wide counter, and reports each one to
/// [`crate::count_alloc`], which is a single relaxed load unless
/// allocation profiling is on. Install it in a test or binary and read
/// the counter with [`CountingAlloc::allocations`]:
///
/// ```
/// #[global_allocator]
/// static GLOBAL: easytime_obs::CountingAlloc = easytime_obs::CountingAlloc;
///
/// fn main() {
///     let before = easytime_obs::CountingAlloc::allocations();
///     let v = std::hint::black_box(vec![0_u8; 64]);
///     assert!(easytime_obs::CountingAlloc::allocations() > before);
///     drop(v);
/// }
/// ```
#[derive(Debug)]
pub struct CountingAlloc;

impl CountingAlloc {
    /// Allocation calls made through the installed allocator so far.
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s `GlobalAlloc` contract carries over. The added bookkeeping
// (one atomic add, `count_alloc`) never allocates, so it cannot re-enter
// the allocator.
#[expect(
    unsafe_code,
    reason = "a GlobalAlloc impl cannot be written without unsafe; every method forwards to \
              System unchanged"
)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        crate::count_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        crate::count_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        crate::count_alloc(layout.size());
        System.alloc_zeroed(layout)
    }
}
