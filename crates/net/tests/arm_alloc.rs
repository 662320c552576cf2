//! Proves that arming a socket for the readiness wait never allocates: an
//! empty `UdpTransport::try_recv` (which arms) and `wait_readable` (which
//! disarms) run on the frame loop many times per frame.
//!
//! This file holds exactly one test so no sibling test thread can allocate
//! concurrently and pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use coplay_net::{wait_readable, PeerId, Transport, UdpTransport};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// Counting allocations needs a global allocator, and `GlobalAlloc` is an
// unsafe trait; each method only forwards to `System`.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn arming_and_waiting_never_allocate() {
    let mut a = UdpTransport::bind(PeerId(0), "127.0.0.1:0").unwrap();
    let mut b = UdpTransport::bind(PeerId(1), "127.0.0.1:0").unwrap();
    a.add_peer(PeerId(1), b.local_addr().unwrap()).unwrap();
    b.add_peer(PeerId(0), a.local_addr().unwrap()).unwrap();

    let cycle = |a: &mut UdpTransport, b: &mut UdpTransport| {
        for _ in 0..1_000 {
            assert!(a.try_recv().unwrap().is_none());
            assert!(b.try_recv().unwrap().is_none());
            assert!(a.try_recv().unwrap().is_none(), "re-arming is a no-op");
            wait_readable(Duration::ZERO);
        }
    };

    // Warm up, then keep the cleanest of several runs: a per-call
    // allocation would show up thousands of times in every run, while
    // unrelated runtime threads can add a stray one to any single run.
    cycle(&mut a, &mut b);
    let mut best = u64::MAX;
    for _ in 0..5 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        cycle(&mut a, &mut b);
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        best = best.min(after - before);
    }
    assert_eq!(best, 0, "arming or waiting allocated");
}
