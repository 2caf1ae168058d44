//! A counting global allocator: allocation calls, live bytes and the peak
//! of live bytes, kept per thread so that concurrently running unit tests
//! do not see each other's traffic. The benchmark itself is single-threaded.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator and counts on the calling thread.
pub struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<u64> = const { Cell::new(0) };
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

fn on_alloc(bytes: usize) {
    // `try_with` never panics; the counters are const-initialised and have
    // no destructor, so they stay reachable for the whole thread lifetime.
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes as u64;
        live.set(now);
        let _ = PEAK.try_with(|p| p.set(p.get().max(now)));
    });
}

fn on_free(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(bytes as u64)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds what `GlobalAlloc` requires; the bookkeeping touches only
// thread-local integers and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            on_free(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Allocation calls (including reallocations) made so far on this thread.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes allocated on this thread and not yet freed.
pub fn live_bytes() -> u64 {
    LIVE.with(Cell::get)
}

/// Highest `live_bytes` since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.with(Cell::get)
}

/// Restarts peak tracking from the current live size.
pub fn reset_peak() {
    PEAK.with(|p| p.set(live_bytes()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_and_tracks_live_and_peak_bytes() {
        reset_peak();
        let (a0, live0) = (allocs(), live_bytes());
        let v: Vec<u8> = Vec::with_capacity(4096);
        assert_eq!(allocs(), a0 + 1);
        assert_eq!(live_bytes(), live0 + 4096);
        let w: Vec<u64> = Vec::with_capacity(512);
        assert_eq!(allocs(), a0 + 2);
        assert_eq!(peak_bytes(), live0 + 8192);
        drop(v);
        drop(w);
        assert_eq!(live_bytes(), live0);
        assert_eq!(peak_bytes(), live0 + 8192, "peak survives the frees");
        reset_peak();
        assert_eq!(peak_bytes(), live0);
    }

    #[test]
    fn realloc_counts_once_and_moves_live_bytes() {
        let mut v: Vec<u8> = Vec::with_capacity(16);
        let (a0, live0) = (allocs(), live_bytes());
        v.reserve_exact(1024);
        assert_eq!(allocs(), a0 + 1);
        assert_eq!(live_bytes(), live0 - 16 + v.capacity() as u64);
    }

    #[test]
    fn counters_are_per_thread() {
        let a0 = allocs();
        let theirs = std::thread::spawn(|| {
            let start = allocs();
            for _ in 0..1000 {
                std::hint::black_box(Vec::<u8>::with_capacity(64));
            }
            allocs() - start
        })
        .join()
        .expect("helper thread panicked");
        assert_eq!(theirs, 1000);
        // Spawning allocates a little on this thread (handle, packet), but
        // none of the helper's thousand vectors may be charged here.
        let ours = allocs() - a0;
        assert!(ours < 100, "spawn bookkeeping only, got {ours}");
    }
}
