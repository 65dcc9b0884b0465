//! End-to-end FedCross benchmark.
//!
//! One closed loop of synchronous rounds per workload ([`workload`]): the
//! untraced mode ([`run`]) drives the real `Simulation` through a thin
//! timing wrapper and checks every run's outputs ([`gate`]); the traced mode
//! ([`replay`]) replays the same rounds from the layers' public functions
//! with in-memory spans and refuses its numbers unless the replay reproduces
//! the real trajectory bit for bit; [`modes`] turns either into the result
//! line. See README.md for the metric table.

pub mod gate;
pub mod modes;
pub mod replay;
pub mod report;
pub mod run;
pub mod workload;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Allocations at or above this size count as large: the same
/// full-model-scale threshold the repository's round-allocation pin and
/// `STEADY_LARGE_BYTES` use.
pub const LARGE_ALLOC_BYTES: usize = 64 * 1024;

/// Counts heap allocations on every thread while enabled; forwards to the
/// system allocator.
struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LARGE: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

impl CountingAllocator {
    fn note(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            BYTES.fetch_add(size as u64, Ordering::Relaxed);
            if size >= LARGE_ALLOC_BYTES {
                LARGE.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for `layout` (every
        // allocation of this allocator is a `System` allocation).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: as for `dealloc`; `new_size` obligations are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Heap-allocation totals since counting was last enabled: (allocations of
/// at least [`LARGE_ALLOC_BYTES`], bytes requested). Reallocations count
/// with their new size.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AllocCounts {
    /// Large allocations.
    pub large: u64,
    /// Bytes requested.
    pub bytes: u64,
}

/// Turns allocation counting on or off (off by default, so untraced runs pay
/// one relaxed load per allocation).
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// Current allocation totals.
pub fn alloc_counts() -> AllocCounts {
    AllocCounts {
        large: LARGE.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}
