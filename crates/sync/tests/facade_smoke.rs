//! Backend-independent smoke tests: this file compiles and must pass
//! under BOTH backends (default passthrough, and `--cfg nws_model`
//! *outside* a model execution, where the facade falls back to real
//! primitives so ordinary suites keep working).

use nws_sync::atomic::{fence, AtomicBool, AtomicIsize, AtomicPtr, AtomicUsize, Ordering};
use nws_sync::cell::UnsafeCell;
use nws_sync::{thread, CachePadded, Condvar, Mutex};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn atomics_round_trip() {
    let n = AtomicUsize::new(1);
    assert_eq!(n.fetch_add(2, Ordering::Relaxed), 1);
    assert_eq!(n.swap(9, Ordering::AcqRel), 3);
    assert_eq!(n.compare_exchange(9, 10, Ordering::AcqRel, Ordering::Acquire), Ok(9));
    assert_eq!(n.compare_exchange(9, 11, Ordering::AcqRel, Ordering::Acquire), Err(10));
    assert_eq!(n.into_inner(), 10);

    let i = AtomicIsize::new(-4);
    assert_eq!(i.fetch_add(1, Ordering::SeqCst), -4);
    assert_eq!(i.load(Ordering::SeqCst), -3);

    let b = AtomicBool::new(false);
    assert!(!b.swap(true, Ordering::AcqRel));
    assert!(b.load(Ordering::Acquire));

    let mut x = 7u32;
    let p = AtomicPtr::new(&mut x as *mut u32);
    assert_eq!(p.load(Ordering::Acquire), &mut x as *mut u32);
    fence(Ordering::SeqCst);
}

#[test]
fn mutex_condvar_handshake() {
    let pair = Arc::new((Mutex::new(false), Condvar::new()));
    let p2 = Arc::clone(&pair);
    let t = thread::spawn(move || {
        let (m, cv) = &*p2;
        let mut ready = m.lock();
        while !*ready {
            let _ = cv.wait_for(&mut ready, Duration::from_secs(10));
        }
    });
    {
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
    }
    t.join().unwrap();
}

#[test]
fn unsafe_cell_closure_access() {
    let c = UnsafeCell::new(5u64);
    // SAFETY: `c` is a local no other thread can reach; accesses are
    // trivially exclusive.
    unsafe {
        c.with_mut(|p| *p += 1);
        assert_eq!(c.with(|p| *p), 6);
    }
    assert_eq!(c.into_inner(), 6);
}

#[test]
fn cache_padded_is_two_lines() {
    assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
    let p = CachePadded::new(3u8);
    assert_eq!(*p, 3);
    assert_eq!(p.into_inner(), 3);
}
