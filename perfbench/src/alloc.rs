//! A counting global allocator: every heap allocation the process makes,
//! on any thread, is counted, and live bytes are tracked. It lives in the
//! benchmark binary only, so the library crates are measured unchanged.
//!
//! Each thread counts into its own cache-line-sized slot with plain
//! loads and stores, so threads of the worker pool never contend on a
//! shared counter (one shared atomic slowed the 2-worker fleet by about
//! 30% on a 2-vCPU host). Readers sum the slots.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicU64, AtomicUsize, Ordering};

/// [`System`] plus the per-thread counters below. The counters are
/// statistics that publish no other data, so every access is `Relaxed`;
/// a reader on another thread sees a worker's counts once it has joined
/// that worker's results.
pub struct Counting;

/// Threads that each own a slot. Later threads share one extra slot,
/// which they update with atomic read-modify-writes.
const SLOTS: usize = 256;

#[repr(align(128))]
struct Slot {
    allocs: AtomicU64,
    live: AtomicIsize,
}

static COUNTERS: [Slot; SLOTS + 1] = [const {
    Slot {
        allocs: AtomicU64::new(0),
        live: AtomicIsize::new(0),
    }
}; SLOTS + 1];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it never
    // allocates and works until the thread is gone.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Adds `bytes` live bytes (negative when freeing) and `allocs`
/// allocations to the calling thread's slot. An owned slot has a single
/// writer, so a plain load and store suffice there.
fn count(allocs: u64, bytes: isize) {
    let i = MY_SLOT
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed).min(SLOTS));
            }
            s.get()
        })
        .unwrap_or(SLOTS);
    let slot = &COUNTERS[i];
    if i < SLOTS {
        let a = slot.allocs.load(Ordering::Relaxed);
        slot.allocs.store(a + allocs, Ordering::Relaxed);
        let l = slot.live.load(Ordering::Relaxed);
        slot.live.store(l + bytes, Ordering::Relaxed);
    } else {
        slot.allocs.fetch_add(allocs, Ordering::Relaxed);
        slot.live.fetch_add(bytes, Ordering::Relaxed);
    }
}

fn grew(bytes: usize) {
    count(1, bytes as isize);
}

fn shrank(bytes: usize) {
    count(0, -(bytes as isize));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping only
// touches atomics and a const thread-local, and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// Allocations (reallocations included) made so far by all threads.
pub fn allocs() -> u64 {
    COUNTERS
        .iter()
        .map(|s| s.allocs.load(Ordering::Relaxed))
        .sum()
}

/// Bytes currently live on the heap, over all threads.
pub fn live_bytes() -> usize {
    let live: isize = COUNTERS
        .iter()
        .map(|s| s.live.load(Ordering::Relaxed))
        .sum();
    live.max(0) as usize
}
