//! The zero-cost default backend: `#[inline(always)]` newtype delegation
//! to `std::sync::atomic` and the vendored `parking_lot`.
//!
//! Newtypes, not re-exports, on purpose: clippy's `disallowed-types`
//! facade gate matches *resolved definitions*, so a `pub use
//! std::sync::atomic::AtomicUsize` would make every downstream use of the
//! facade trip the very lint that enforces it. The newtypes have their own
//! def-ids while compiling to identical code (every method is a direct
//! `#[inline(always)]` call on a `#[repr(transparent)]` field).

use std::fmt;

/// Atomic types, fences, and orderings (facade over `std::sync::atomic`).
pub mod atomic {
    use std::fmt;
    pub use std::sync::atomic::Ordering;

    /// An atomic memory fence (facade over `std::sync::atomic::fence`).
    #[inline(always)]
    pub fn fence(order: Ordering) {
        std::sync::atomic::fence(order);
    }

    macro_rules! atomic_common {
        ($name:ident, $std:ty, $val:ty) => {
            /// Facade atomic; passthrough backend delegates every method
            /// directly to the `std::sync::atomic` equivalent.
            #[repr(transparent)]
            #[derive(Default)]
            pub struct $name {
                inner: $std,
            }

            impl $name {
                /// Creates a new atomic with the given initial value.
                #[inline(always)]
                pub const fn new(v: $val) -> Self {
                    Self { inner: <$std>::new(v) }
                }

                /// Atomic load with the given ordering.
                #[inline(always)]
                pub fn load(&self, order: Ordering) -> $val {
                    self.inner.load(order)
                }

                /// Atomic store with the given ordering.
                #[inline(always)]
                pub fn store(&self, val: $val, order: Ordering) {
                    self.inner.store(val, order)
                }

                /// Atomic swap, returning the previous value.
                #[inline(always)]
                pub fn swap(&self, val: $val, order: Ordering) -> $val {
                    self.inner.swap(val, order)
                }

                /// Atomic compare-and-exchange.
                ///
                /// # Errors
                ///
                /// Returns the observed value if it differed from `current`.
                #[inline(always)]
                pub fn compare_exchange(
                    &self,
                    current: $val,
                    new: $val,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$val, $val> {
                    self.inner.compare_exchange(current, new, success, failure)
                }

                /// Non-atomic access through an exclusive reference.
                #[inline(always)]
                pub fn get_mut(&mut self) -> &mut $val {
                    self.inner.get_mut()
                }

                /// Consumes the atomic, returning the contained value.
                #[inline(always)]
                pub fn into_inner(self) -> $val {
                    self.inner.into_inner()
                }
            }

            impl fmt::Debug for $name {
                fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                    fmt::Debug::fmt(&self.inner, f)
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
                /// Atomic add, returning the previous value.
                #[inline(always)]
                pub fn fetch_add(&self, val: $val, order: Ordering) -> $val {
                    self.inner.fetch_add(val, order)
                }

                /// Atomic subtract, returning the previous value.
                #[inline(always)]
                pub fn fetch_sub(&self, val: $val, order: Ordering) -> $val {
                    self.inner.fetch_sub(val, order)
                }

                /// Atomic bitwise OR, returning the previous value.
                #[inline(always)]
                pub fn fetch_or(&self, val: $val, order: Ordering) -> $val {
                    self.inner.fetch_or(val, order)
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

    /// Facade atomic pointer; passthrough delegates to `std`'s `AtomicPtr`.
    #[repr(transparent)]
    pub struct AtomicPtr<T> {
        inner: std::sync::atomic::AtomicPtr<T>,
    }

    impl<T> AtomicPtr<T> {
        /// Creates a new atomic pointer.
        #[inline(always)]
        pub const fn new(p: *mut T) -> Self {
            Self { inner: std::sync::atomic::AtomicPtr::new(p) }
        }

        /// Atomic load with the given ordering.
        #[inline(always)]
        pub fn load(&self, order: Ordering) -> *mut T {
            self.inner.load(order)
        }

        /// Atomic store with the given ordering.
        #[inline(always)]
        pub fn store(&self, p: *mut T, order: Ordering) {
            self.inner.store(p, order)
        }

        /// Atomic swap, returning the previous pointer.
        #[inline(always)]
        pub fn swap(&self, p: *mut T, order: Ordering) -> *mut T {
            self.inner.swap(p, order)
        }

        /// Atomic compare-and-exchange.
        ///
        /// # Errors
        ///
        /// Returns the observed pointer if it differed from `current`.
        #[inline(always)]
        pub fn compare_exchange(
            &self,
            current: *mut T,
            new: *mut T,
            success: Ordering,
            failure: Ordering,
        ) -> Result<*mut T, *mut T> {
            self.inner.compare_exchange(current, new, success, failure)
        }

        /// Non-atomic access through an exclusive reference.
        #[inline(always)]
        pub fn get_mut(&mut self) -> &mut *mut T {
            self.inner.get_mut()
        }

        /// Consumes the atomic, returning the contained pointer.
        #[inline(always)]
        pub fn into_inner(self) -> *mut T {
            self.inner.into_inner()
        }
    }

    impl<T> Default for AtomicPtr<T> {
        fn default() -> Self {
            Self::new(std::ptr::null_mut())
        }
    }

    impl<T> fmt::Debug for AtomicPtr<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fmt::Debug::fmt(&self.inner, f)
        }
    }
}

/// Interior-mutability cell for data the protocol (not the type system)
/// keeps race-free — facade over `std::cell::UnsafeCell` with the
/// closure-based access API the model backend needs to intercept.
pub mod cell {
    use std::fmt;

    /// Facade `UnsafeCell`: access goes through [`with`](UnsafeCell::with)
    /// / [`with_mut`](UnsafeCell::with_mut) so the model backend can check
    /// every access for data races; the passthrough backend compiles both
    /// down to a plain pointer handoff.
    #[repr(transparent)]
    #[derive(Default)]
    pub struct UnsafeCell<T: ?Sized> {
        inner: std::cell::UnsafeCell<T>,
    }

    impl<T> UnsafeCell<T> {
        /// Creates a new cell containing `value`.
        #[inline(always)]
        pub const fn new(value: T) -> Self {
            UnsafeCell { inner: std::cell::UnsafeCell::new(value) }
        }

        /// Consumes the cell, returning the contained value.
        #[inline(always)]
        pub fn into_inner(self) -> T {
            self.inner.into_inner()
        }

        /// Calls `f` with a shared (read) pointer to the contents.
        ///
        /// # Safety
        ///
        /// The caller must guarantee no concurrent mutable access, exactly
        /// as when dereferencing `std::cell::UnsafeCell::get` for reading.
        /// `f` must not re-enter this cell and (under the model backend)
        /// must not perform other facade operations.
        #[inline(always)]
        pub unsafe fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            f(self.inner.get())
        }

        /// Calls `f` with a shared pointer for a *speculative* read —
        /// one that may race a concurrent write by design (the model
        /// backend exempts it from the race detector). For the Chase-Lev
        /// read-then-CAS-validate idiom; see the model backend's doc for
        /// the full contract.
        ///
        /// # Safety
        ///
        /// `f` may only copy bits out (e.g. `ptr::read` of a
        /// `MaybeUninit`), never produce a typed value, and the caller
        /// must not interpret the copied bits unless a subsequent
        /// synchronization (the validating CAS) proves no concurrent
        /// write overlapped the read. Same re-entrancy rule as
        /// [`with`](UnsafeCell::with).
        #[inline(always)]
        pub unsafe fn with_speculative<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            f(self.inner.get())
        }

        /// Calls `f` with an exclusive (write) pointer to the contents.
        ///
        /// # Safety
        ///
        /// The caller must guarantee exclusive access for the duration of
        /// `f`, exactly as when dereferencing `std::cell::UnsafeCell::get`
        /// for writing. Same re-entrancy rule as [`with`](UnsafeCell::with).
        #[inline(always)]
        pub unsafe fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            f(self.inner.get())
        }

        /// Exclusive access through an exclusive reference (no tracking
        /// needed: `&mut self` proves race freedom).
        #[inline(always)]
        pub fn get_mut(&mut self) -> &mut T {
            self.inner.get_mut()
        }
    }

    impl<T: fmt::Debug> fmt::Debug for UnsafeCell<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("UnsafeCell").finish_non_exhaustive()
        }
    }
}

/// Spin-loop hint (facade over `std::hint::spin_loop`; a yield point under
/// the model backend).
pub mod hint {
    /// Emits the CPU spin-wait hint.
    #[inline(always)]
    pub fn spin_loop() {
        std::hint::spin_loop();
    }
}

/// Thread spawn/yield (facade over `std::thread`; model threads under the
/// model backend).
pub mod thread {
    /// Handle to a spawned facade thread.
    pub struct JoinHandle<T> {
        inner: std::thread::JoinHandle<T>,
    }

    impl<T> JoinHandle<T> {
        /// Waits for the thread to finish, returning its result.
        ///
        /// # Errors
        ///
        /// Returns the thread's panic payload if it panicked.
        pub fn join(self) -> std::thread::Result<T> {
            self.inner.join()
        }
    }

    /// Spawns a new thread running `f`.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        JoinHandle { inner: std::thread::spawn(f) }
    }

    /// Yields the current thread's timeslice (a schedule point under the
    /// model backend).
    #[inline(always)]
    pub fn yield_now() {
        std::thread::yield_now();
    }
}

/// A mutual-exclusion lock with the `parking_lot` API shape (no poisoning;
/// `lock` returns the guard directly).
#[repr(transparent)]
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: parking_lot::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    #[inline(always)]
    pub const fn new(value: T) -> Self {
        Mutex { inner: parking_lot::Mutex::new(value) }
    }

    /// Consumes the mutex, returning the protected value.
    #[inline(always)]
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until available.
    #[inline(always)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard { inner: self.inner.lock() }
    }

    /// Exclusive access without locking (`&mut self` proves exclusivity).
    #[inline(always)]
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.inner, f)
    }
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    inner: parking_lot::MutexGuard<'a, T>,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    #[inline(always)]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A condition variable with the `parking_lot` API shape (`wait` re-arms
/// the caller's guard in place).
#[derive(Default)]
pub struct Condvar {
    inner: parking_lot::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    #[inline(always)]
    pub const fn new() -> Self {
        Condvar { inner: parking_lot::Condvar::new() }
    }

    /// Atomically releases the guarded mutex and blocks until notified.
    /// Spurious wakeups are possible.
    #[inline(always)]
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.inner.wait(&mut guard.inner);
    }

    /// As [`wait`](Condvar::wait) but gives up after `timeout`.
    #[inline(always)]
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: std::time::Duration,
    ) -> WaitTimeoutResult {
        WaitTimeoutResult { timed_out: self.inner.wait_for(&mut guard.inner, timeout).timed_out() }
    }

    /// Wakes one blocked waiter.
    #[inline(always)]
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all blocked waiters.
    #[inline(always)]
    pub fn notify_all(&self) {
        self.inner.notify_all();
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
    #[inline(always)]
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}
