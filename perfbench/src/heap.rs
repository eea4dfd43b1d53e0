//! Peak live heap of the benchmark process.
//!
//! The peak resident set (`VmHWM`) of one seed read 257 MiB on some runs and
//! 307 MiB on others: how much freed memory the system allocator keeps
//! mapped depends on how the worker threads interleave. The bytes the
//! program holds at once do not, so the benchmark counts them. Every
//! allocation and free goes through `Counting`, which adds its size to a
//! per-thread balance; a balance that passes `BATCH` bytes either way moves
//! into the shared live total, which keeps its high-water mark. One shared
//! counter updated on every allocation slowed rendering threefold on two
//! threads; batching bounds the error by `BATCH` bytes per thread, which a
//! thread that exits with an unsettled balance leaves behind.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

const BATCH: isize = 32 * 1024;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    static BALANCE: Cell<isize> = const { Cell::new(0) };
}

fn add(delta: isize) {
    let local = BALANCE
        .try_with(|b| {
            let v = b.get() + delta;
            if v.abs() < BATCH {
                b.set(v);
                None
            } else {
                b.set(0);
                Some(v)
            }
        })
        .unwrap_or(Some(delta));
    if let Some(v) = local {
        let now = LIVE.fetch_add(v, Relaxed) + v;
        if now > PEAK.load(Relaxed) {
            PEAK.fetch_max(now, Relaxed);
        }
    }
}

pub struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            add(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            add(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        add(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            add(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Starts a new high-water mark at the current live total, and returns
/// that total.
pub fn reset_peak() -> isize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// How far the high-water mark rose above `base` (from `reset_peak`), in
/// MiB.
pub fn peak_above_mib(base: isize) -> f64 {
    (PEAK.load(Relaxed) - base) as f64 / (1024.0 * 1024.0)
}
