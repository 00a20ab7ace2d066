//! Facade types for the model-checking backend (`--cfg nws_model`).
//!
//! Same API surface as `passthrough`, but every type carries a
//! registration slot and every operation first asks "am I a model thread
//! of a live execution?" (`cur_ctx()`):
//!
//! - **Yes** → the operation becomes a schedule point of the execution's
//!   cooperative scheduler; atomics go through the per-location store
//!   history, locks through the model mutex table, and so on.
//! - **No** → the operation passes through to the raw `std` /
//!   `parking_lot` primitive, so ordinary (non-checked) tests and real
//!   worker pools still behave normally in a `--cfg nws_model` build.
//!
//! Each model atomic keeps its raw `std` atomic in sync with the newest
//! store of its model history, so a location's value survives across
//! executions, `get_mut`/`into_inner` need no context, and mixed-mode
//! reads see the latest value. (Mutating an already-registered atomic
//! through `get_mut` *during* an execution is not supported — the model
//! history would go stale — but nothing in the runtime does that: `&mut`
//! access only happens in constructors and `Drop`.)

use crate::model::{cur_ctx, LocSlot};
use std::fmt;

/// Value ↔ `u64` bit-transport for the model's store histories.
trait Scalar: Copy {
    fn to_bits(self) -> u64;
    fn from_bits(bits: u64) -> Self;
}

impl Scalar for bool {
    fn to_bits(self) -> u64 {
        u64::from(self)
    }
    fn from_bits(bits: u64) -> Self {
        bits != 0
    }
}

impl Scalar for usize {
    fn to_bits(self) -> u64 {
        self as u64
    }
    fn from_bits(bits: u64) -> Self {
        bits as usize
    }
}

impl Scalar for isize {
    fn to_bits(self) -> u64 {
        self as u64
    }
    fn from_bits(bits: u64) -> Self {
        bits as i64 as isize
    }
}

impl Scalar for u32 {
    fn to_bits(self) -> u64 {
        u64::from(self)
    }
    fn from_bits(bits: u64) -> Self {
        bits as u32
    }
}

impl Scalar for u64 {
    fn to_bits(self) -> u64 {
        self
    }
    fn from_bits(bits: u64) -> Self {
        bits
    }
}

/// Atomic types, fences, and orderings (model-intercepted).
pub mod atomic {
    use super::Scalar;
    use crate::model::{cur_ctx, LocSlot};
    use std::fmt;
    pub use std::sync::atomic::Ordering;

    /// An atomic memory fence: a schedule point that applies the fence's
    /// vector-clock semantics inside a model execution, a real
    /// `std::sync::atomic::fence` outside one.
    pub fn fence(order: Ordering) {
        match cur_ctx() {
            None => std::sync::atomic::fence(order),
            Some(c) => c.exec.fence(c.tid, order),
        }
    }

    macro_rules! atomic_common {
        ($name:ident, $std:ty, $val:ty) => {
            /// Facade atomic; model backend intercepts every access as a
            /// schedule point and tracks the location's store history.
            pub struct $name {
                raw: $std,
                slot: LocSlot,
            }

            impl $name {
                /// Creates a new atomic with the given initial value.
                pub const fn new(v: $val) -> Self {
                    Self { raw: <$std>::new(v), slot: LocSlot::new() }
                }

                fn init_bits(&self) -> u64 {
                    self.raw.load(Ordering::Relaxed).to_bits()
                }

                /// Atomic load with the given ordering.
                pub fn load(&self, order: Ordering) -> $val {
                    match cur_ctx() {
                        None => self.raw.load(order),
                        Some(c) => Scalar::from_bits(c.exec.atomic_load(
                            c.tid,
                            &self.slot,
                            self.init_bits(),
                            order,
                        )),
                    }
                }

                /// Atomic store with the given ordering.
                pub fn store(&self, val: $val, order: Ordering) {
                    match cur_ctx() {
                        None => self.raw.store(val, order),
                        Some(c) => c.exec.atomic_store(
                            c.tid,
                            &self.slot,
                            self.init_bits(),
                            val.to_bits(),
                            order,
                            |bits| self.raw.store(Scalar::from_bits(bits), Ordering::Relaxed),
                        ),
                    }
                }

                /// Atomic swap, returning the previous value.
                pub fn swap(&self, val: $val, order: Ordering) -> $val {
                    match cur_ctx() {
                        None => self.raw.swap(val, order),
                        Some(c) => Scalar::from_bits(c.exec.atomic_rmw(
                            c.tid,
                            &self.slot,
                            self.init_bits(),
                            (order, Ordering::Relaxed),
                            |_| Some(val.to_bits()),
                            |bits| self.raw.store(Scalar::from_bits(bits), Ordering::Relaxed),
                        )),
                    }
                }

                /// Atomic compare-and-exchange.
                ///
                /// # Errors
                ///
                /// Returns the observed value if it differed from `current`.
                pub fn compare_exchange(
                    &self,
                    current: $val,
                    new: $val,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$val, $val> {
                    match cur_ctx() {
                        None => self.raw.compare_exchange(current, new, success, failure),
                        Some(c) => {
                            let prev = c.exec.atomic_rmw(
                                c.tid,
                                &self.slot,
                                self.init_bits(),
                                (success, failure),
                                |old| (old == current.to_bits()).then(|| new.to_bits()),
                                |bits| self.raw.store(Scalar::from_bits(bits), Ordering::Relaxed),
                            );
                            if prev == current.to_bits() {
                                Ok(Scalar::from_bits(prev))
                            } else {
                                Err(Scalar::from_bits(prev))
                            }
                        }
                    }
                }

                /// Non-atomic access through an exclusive reference.
                pub fn get_mut(&mut self) -> &mut $val {
                    self.raw.get_mut()
                }

                /// Consumes the atomic, returning the contained value.
                pub fn into_inner(self) -> $val {
                    self.raw.into_inner()
                }
            }

            impl Default for $name {
                fn default() -> Self {
                    Self::new(Default::default())
                }
            }

            impl fmt::Debug for $name {
                fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                    fmt::Debug::fmt(&self.raw, f)
                }
            }

            impl From<$val> for $name {
                fn from(v: $val) -> Self {
                    Self::new(v)
                }
            }
        };
    }

    macro_rules! atomic_arith {
        ($name:ident, $val:ty) => {
            impl $name {
                fn rmw(&self, order: Ordering, f: impl FnOnce($val) -> $val) -> $val {
                    match cur_ctx() {
                        None => unreachable!("rmw helper is only called on the model path"),
                        Some(c) => Scalar::from_bits(c.exec.atomic_rmw(
                            c.tid,
                            &self.slot,
                            self.init_bits(),
                            (order, Ordering::Relaxed),
                            |old| Some(f(Scalar::from_bits(old)).to_bits()),
                            |bits| self.raw.store(Scalar::from_bits(bits), Ordering::Relaxed),
                        )),
                    }
                }

                /// Atomic add, returning the previous value.
                pub fn fetch_add(&self, val: $val, order: Ordering) -> $val {
                    match cur_ctx() {
                        None => self.raw.fetch_add(val, order),
                        Some(_) => self.rmw(order, |old| old.wrapping_add(val)),
                    }
                }

                /// Atomic subtract, returning the previous value.
                pub fn fetch_sub(&self, val: $val, order: Ordering) -> $val {
                    match cur_ctx() {
                        None => self.raw.fetch_sub(val, order),
                        Some(_) => self.rmw(order, |old| old.wrapping_sub(val)),
                    }
                }

                /// Atomic bitwise OR, returning the previous value.
                pub fn fetch_or(&self, val: $val, order: Ordering) -> $val {
                    match cur_ctx() {
                        None => self.raw.fetch_or(val, order),
                        Some(_) => self.rmw(order, |old| old | val),
                    }
                }
            }
        };
    }

    atomic_common!(AtomicBool, std::sync::atomic::AtomicBool, bool);
    atomic_common!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
    atomic_common!(AtomicIsize, std::sync::atomic::AtomicIsize, isize);
    atomic_common!(AtomicU32, std::sync::atomic::AtomicU32, u32);
    atomic_common!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    atomic_arith!(AtomicUsize, usize);
    atomic_arith!(AtomicIsize, isize);
    atomic_arith!(AtomicU32, u32);
    atomic_arith!(AtomicU64, u64);

    /// Facade atomic pointer (model-intercepted; pointers are transported
    /// through the store history as their address bits).
    pub struct AtomicPtr<T> {
        raw: std::sync::atomic::AtomicPtr<T>,
        slot: LocSlot,
    }

    fn ptr_bits<T>(p: *mut T) -> u64 {
        p as usize as u64
    }

    fn bits_ptr<T>(bits: u64) -> *mut T {
        bits as usize as *mut T
    }

    impl<T> AtomicPtr<T> {
        /// Creates a new atomic pointer.
        pub const fn new(p: *mut T) -> Self {
            Self { raw: std::sync::atomic::AtomicPtr::new(p), slot: LocSlot::new() }
        }

        fn init_bits(&self) -> u64 {
            ptr_bits(self.raw.load(Ordering::Relaxed))
        }

        /// Atomic load with the given ordering.
        pub fn load(&self, order: Ordering) -> *mut T {
            match cur_ctx() {
                None => self.raw.load(order),
                Some(c) => bits_ptr(c.exec.atomic_load(c.tid, &self.slot, self.init_bits(), order)),
            }
        }

        /// Atomic store with the given ordering.
        pub fn store(&self, p: *mut T, order: Ordering) {
            match cur_ctx() {
                None => self.raw.store(p, order),
                Some(c) => c.exec.atomic_store(
                    c.tid,
                    &self.slot,
                    self.init_bits(),
                    ptr_bits(p),
                    order,
                    |bits| self.raw.store(bits_ptr(bits), Ordering::Relaxed),
                ),
            }
        }

        /// Atomic swap, returning the previous pointer.
        pub fn swap(&self, p: *mut T, order: Ordering) -> *mut T {
            match cur_ctx() {
                None => self.raw.swap(p, order),
                Some(c) => bits_ptr(c.exec.atomic_rmw(
                    c.tid,
                    &self.slot,
                    self.init_bits(),
                    (order, Ordering::Relaxed),
                    |_| Some(ptr_bits(p)),
                    |bits| self.raw.store(bits_ptr(bits), Ordering::Relaxed),
                )),
            }
        }

        /// Atomic compare-and-exchange.
        ///
        /// # Errors
        ///
        /// Returns the observed pointer if it differed from `current`.
        pub fn compare_exchange(
            &self,
            current: *mut T,
            new: *mut T,
            success: Ordering,
            failure: Ordering,
        ) -> Result<*mut T, *mut T> {
            match cur_ctx() {
                None => self.raw.compare_exchange(current, new, success, failure),
                Some(c) => {
                    let prev = c.exec.atomic_rmw(
                        c.tid,
                        &self.slot,
                        self.init_bits(),
                        (success, failure),
                        |old| (old == ptr_bits(current)).then(|| ptr_bits(new)),
                        |bits| self.raw.store(bits_ptr(bits), Ordering::Relaxed),
                    );
                    if prev == ptr_bits(current) {
                        Ok(bits_ptr(prev))
                    } else {
                        Err(bits_ptr(prev))
                    }
                }
            }
        }

        /// Non-atomic access through an exclusive reference.
        pub fn get_mut(&mut self) -> &mut *mut T {
            self.raw.get_mut()
        }

        /// Consumes the atomic, returning the contained pointer.
        pub fn into_inner(self) -> *mut T {
            self.raw.into_inner()
        }
    }

    impl<T> Default for AtomicPtr<T> {
        fn default() -> Self {
            Self::new(std::ptr::null_mut())
        }
    }

    impl<T> fmt::Debug for AtomicPtr<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fmt::Debug::fmt(&self.raw, f)
        }
    }
}

/// Interior-mutability cell; under the model backend every access is a
/// schedule point checked for data races against concurrent accesses.
pub mod cell {
    use crate::model::{cur_ctx, LocSlot};
    use std::fmt;

    /// Facade `UnsafeCell` with race-checked closure access.
    pub struct UnsafeCell<T: ?Sized> {
        slot: LocSlot,
        inner: std::cell::UnsafeCell<T>,
    }

    impl<T> UnsafeCell<T> {
        /// Creates a new cell containing `value`.
        pub const fn new(value: T) -> Self {
            UnsafeCell { slot: LocSlot::new(), inner: std::cell::UnsafeCell::new(value) }
        }

        /// Consumes the cell, returning the contained value.
        pub fn into_inner(self) -> T {
            self.inner.into_inner()
        }

        /// Calls `f` with a shared (read) pointer to the contents.
        ///
        /// # Safety
        ///
        /// The caller must guarantee no concurrent mutable access, exactly
        /// as when dereferencing `std::cell::UnsafeCell::get` for reading.
        /// `f` must not re-enter this cell and must not perform other
        /// facade operations (it runs between schedule points).
        pub unsafe fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            if let Some(c) = cur_ctx() {
                c.exec.cell_read(c.tid, &self.slot);
            }
            f(self.inner.get())
        }

        /// Calls `f` with a shared pointer for a *speculative* read: a
        /// schedule point, but exempt from the race detector (neither
        /// checked against the last write nor recorded against future
        /// writes).
        ///
        /// For the Chase-Lev read-then-CAS-validate idiom only: a thief
        /// copies a slot it has not yet claimed, then a CAS decides
        /// whether the copy is meaningful. A losing thief's copy may have
        /// raced a reusing owner write — benign, because the bits are
        /// discarded without inspection.
        ///
        /// # Safety
        ///
        /// `f` must tolerate the pointee being concurrently mutated: it
        /// may only copy bits out (e.g. `ptr::read` of a `MaybeUninit`),
        /// never dereference to a typed value, and the caller must not
        /// interpret the copied bits unless a subsequent synchronization
        /// (the validating CAS) proves no concurrent write overlapped the
        /// read. Same re-entrancy rule as [`with`](UnsafeCell::with).
        pub unsafe fn with_speculative<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            if let Some(c) = cur_ctx() {
                c.exec.cell_read_speculative(c.tid, &self.slot);
            }
            f(self.inner.get())
        }

        /// Calls `f` with an exclusive (write) pointer to the contents.
        ///
        /// # Safety
        ///
        /// The caller must guarantee exclusive access for the duration of
        /// `f`, exactly as when dereferencing `std::cell::UnsafeCell::get`
        /// for writing. Same re-entrancy rule as [`with`](UnsafeCell::with).
        pub unsafe fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            if let Some(c) = cur_ctx() {
                c.exec.cell_write(c.tid, &self.slot);
            }
            f(self.inner.get())
        }

        /// Exclusive access through an exclusive reference (no tracking
        /// needed: `&mut self` proves race freedom).
        pub fn get_mut(&mut self) -> &mut T {
            self.inner.get_mut()
        }
    }

    impl<T: Default> Default for UnsafeCell<T> {
        fn default() -> Self {
            UnsafeCell::new(T::default())
        }
    }

    impl<T: fmt::Debug> fmt::Debug for UnsafeCell<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("UnsafeCell").finish_non_exhaustive()
        }
    }
}

/// Spin-loop hint: a voluntary yield point under the model backend (a
/// spinning thread must let the thread it waits on run).
pub mod hint {
    use crate::model::cur_ctx;

    /// Emits the CPU spin-wait hint / yields the model scheduler.
    pub fn spin_loop() {
        match cur_ctx() {
            None => std::hint::spin_loop(),
            Some(c) => c.exec.yield_now(c.tid),
        }
    }
}

/// Thread spawn/yield; inside a model execution these create and schedule
/// model threads instead of free-running OS threads.
pub mod thread {
    use crate::model::{cur_ctx, ExecShared};
    use std::sync::Arc;

    enum HandleInner<T> {
        Std(std::thread::JoinHandle<T>),
        Model { exec: Arc<ExecShared>, tid: usize, result: Arc<parking_lot::Mutex<Option<T>>> },
    }

    /// Handle to a spawned facade thread.
    pub struct JoinHandle<T> {
        inner: HandleInner<T>,
    }

    impl<T> JoinHandle<T> {
        /// Waits for the thread to finish, returning its result.
        ///
        /// # Errors
        ///
        /// Returns the thread's panic payload if it panicked.
        pub fn join(self) -> std::thread::Result<T> {
            match self.inner {
                HandleInner::Std(h) => h.join(),
                HandleInner::Model { exec, tid, result } => {
                    let c =
                        cur_ctx().expect("a model thread must be joined from inside its execution");
                    exec.join_thread(c.tid, tid);
                    match result.lock().take() {
                        Some(v) => Ok(v),
                        // Unreachable in practice: a panicking model thread
                        // fails the whole execution before join returns.
                        None => Err(Box::new("model thread panicked")),
                    }
                }
            }
        }
    }

    /// Spawns a new thread running `f` — a model thread when called from
    /// inside a model execution, a real OS thread otherwise.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match cur_ctx() {
            None => JoinHandle { inner: HandleInner::Std(std::thread::spawn(f)) },
            Some(c) => {
                let (tid, result) = c.exec.spawn(c.tid, f);
                JoinHandle { inner: HandleInner::Model { exec: c.exec, tid, result } }
            }
        }
    }

    /// Yields the current thread's timeslice (a voluntary schedule point
    /// under the model backend).
    pub fn yield_now() {
        match cur_ctx() {
            None => std::thread::yield_now(),
            Some(c) => c.exec.yield_now(c.tid),
        }
    }
}

/// A mutual-exclusion lock with the `parking_lot` API shape. Inside a
/// model execution, lock acquisition order is decided by the model
/// scheduler; the raw lock underneath is still taken (uncontended, since
/// the scheduler admits one holder at a time) so guards can hand out
/// `&mut T` without extra bookkeeping.
pub struct Mutex<T: ?Sized> {
    slot: LocSlot,
    inner: parking_lot::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex { slot: LocSlot::new(), inner: parking_lot::Mutex::new(value) }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match cur_ctx() {
            None => MutexGuard { mutex: self, raw: Some(self.inner.lock()), model: false },
            Some(c) => {
                c.exec.mutex_lock(c.tid, &self.slot);
                let raw =
                    self.inner.try_lock().expect("model mutex granted while the raw lock was held");
                MutexGuard { mutex: self, raw: Some(raw), model: true }
            }
        }
    }

    /// Exclusive access without locking (`&mut self` proves exclusivity).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.inner, f)
    }
}

/// RAII guard returned by [`Mutex::lock`]. The raw guard is `None` only
/// transiently inside [`Condvar::wait`] / after a model-execution abort.
pub struct MutexGuard<'a, T: ?Sized> {
    mutex: &'a Mutex<T>,
    raw: Option<parking_lot::MutexGuard<'a, T>>,
    model: bool,
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the raw lock before telling the model scheduler: the
        // next model holder re-takes the raw lock with try_lock.
        self.raw = None;
        if self.model {
            if let Some(c) = cur_ctx() {
                // Never a schedule point and never panics: guard drops run
                // during panic unwinds of aborted executions.
                c.exec.mutex_unlock(c.tid, &self.mutex.slot);
            }
        }
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.raw.as_ref().expect("guard vacated")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.raw.as_mut().expect("guard vacated")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A condition variable with the `parking_lot` API shape. Inside a model
/// execution, waits park the model thread and — for timed waits — may
/// time out only at quiescence (when no other thread can run), which
/// models "the timeout is slower than any live thread" and keeps
/// lost-wakeup bugs observable as timeouts.
pub struct Condvar {
    slot: LocSlot,
    inner: parking_lot::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Condvar { slot: LocSlot::new(), inner: parking_lot::Condvar::new() }
    }

    /// Atomically releases the guarded mutex and blocks until notified.
    /// Spurious wakeups are possible (though the model backend never
    /// issues one — fewer behaviors, sound for bug detection).
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        match cur_ctx() {
            None => {
                let raw = guard.raw.as_mut().expect("guard vacated");
                self.inner.wait(raw);
            }
            Some(c) => {
                guard.raw = None;
                c.exec.cv_wait(c.tid, &self.slot, &guard.mutex.slot, false);
                guard.raw = Some(
                    guard
                        .mutex
                        .inner
                        .try_lock()
                        .expect("model mutex granted while the raw lock was held"),
                );
            }
        }
    }

    /// As [`wait`](Condvar::wait) but gives up after `timeout`. Under the
    /// model backend the duration is ignored; timeouts fire only at
    /// quiescence.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: std::time::Duration,
    ) -> WaitTimeoutResult {
        match cur_ctx() {
            None => {
                let raw = guard.raw.as_mut().expect("guard vacated");
                WaitTimeoutResult { timed_out: self.inner.wait_for(raw, timeout).timed_out() }
            }
            Some(c) => {
                guard.raw = None;
                let timed_out = c.exec.cv_wait(c.tid, &self.slot, &guard.mutex.slot, true);
                guard.raw = Some(
                    guard
                        .mutex
                        .inner
                        .try_lock()
                        .expect("model mutex granted while the raw lock was held"),
                );
                WaitTimeoutResult { timed_out }
            }
        }
    }

    /// Wakes one blocked waiter.
    pub fn notify_one(&self) {
        match cur_ctx() {
            None => self.inner.notify_one(),
            Some(c) => c.exec.cv_notify(c.tid, &self.slot, false),
        }
    }

    /// Wakes all blocked waiters.
    pub fn notify_all(&self) {
        match cur_ctx() {
            None => self.inner.notify_all(),
            Some(c) => c.exec.cv_notify(c.tid, &self.slot, true),
        }
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

/// Outcome of a [`Condvar::wait_for`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// `true` if the wait ended by timeout rather than notification.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}
