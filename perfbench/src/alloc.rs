//! A counting global allocator for the traced run.
//!
//! The benchmark binary installs [`CountingAlloc`] as its global allocator.
//! Counting is off by default — an untraced run pays one relaxed atomic
//! load per allocation — and the traced run switches it on around the
//! regions it attributes: allocations per exchange, and the bytes a data
//! structure frees when it is dropped (its heap footprint).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);

/// [`System`] plus optional allocation counters.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's own layout and
// pointer, so `System`'s guarantees carry over unchanged; the counters are
// plain statistics updated with relaxed atomics and publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Ordering::Relaxed) {
            FREED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            FREED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counter readings at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounts {
    /// Allocations and reallocations.
    pub allocations: u64,
    /// Bytes released by deallocations and reallocations.
    pub freed_bytes: u64,
}

impl AllocCounts {
    /// The counts accumulated between `earlier` and `self`.
    pub fn since(self, earlier: AllocCounts) -> AllocCounts {
        AllocCounts {
            allocations: self.allocations - earlier.allocations,
            freed_bytes: self.freed_bytes - earlier.freed_bytes,
        }
    }
}

/// Turns counting on or off. Without [`CountingAlloc`] installed as the
/// global allocator (unit tests) the counters simply stay at zero.
pub fn set_counting(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// The current counter readings.
pub fn counts() -> AllocCounts {
    AllocCounts {
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        freed_bytes: FREED_BYTES.load(Ordering::Relaxed),
    }
}

/// Heap bytes released by dropping `value`, with counting switched on for
/// the drop only: the footprint of a data structure, measured by freeing it.
pub fn bytes_freed_by_drop<T>(value: T) -> u64 {
    let before = counts();
    set_counting(true);
    drop(value);
    set_counting(false);
    counts().since(before).freed_bytes
}
