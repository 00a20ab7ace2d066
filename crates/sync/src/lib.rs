//! `nws_sync` — the runtime's synchronization facade.
//!
//! Every synchronization primitive the NUMA-WS runtime uses — atomics,
//! fences, mutexes, condvars, racy cells, thread spawn/yield — goes through
//! this crate instead of `std::sync` / `parking_lot` directly. The facade
//! has two backends selected at compile time:
//!
//! - **Passthrough** (the default): `#[repr(transparent)]`-style newtypes
//!   with `#[inline(always)]` delegation to `std::sync::atomic` and the
//!   vendored `parking_lot`. After inlining this compiles to exactly the
//!   code the call sites had before the facade existed; the repo
//!   benchmark (`perfbench`, whose `core.join.ns_per_spawn` times the
//!   spawn path) keeps that claim honest.
//! - **Model checking** (`--cfg nws_model`, usually via
//!   `RUSTFLAGS="--cfg nws_model"`): every atomic access, lock operation,
//!   cell access, and yield becomes a *schedule point* of a cooperative
//!   scheduler that explores thread interleavings — exhaustively with
//!   bounded preemptions, or pseudo-randomly from a seed — while tracking
//!   per-location happens-before with vector clocks. The checker reports
//!   data races, deadlocks, livelocks, and assertion failures together
//!   with a replayable seed/schedule. See the `model` module (only
//!   present under the cfg) and DESIGN.md §7.
//!
//! The facade is enforced statically: `clippy.toml` disallows
//! `std::sync::atomic::*`, `std::sync::Mutex`/`Condvar`, and raw
//! `parking_lot` types everywhere outside this crate and `vendor/`, and
//! `nws_analyze`'s facade gate checks the same rule through `use` aliases
//! and rustfmt-wrapped paths (DESIGN.md §10).
//!
//! Under `nws_model`, facade primitives used *outside* a `model::model`
//! execution (for example by the ordinary unit tests of a crate compiled
//! with the cfg, or by real worker threads of a `Pool` constructed in such
//! a test) transparently behave like the passthrough backend, so a single
//! `--cfg nws_model` test run can host both checked-interleaving tests and
//! the regular suite.

// The facade crate is the one place allowed to name the raw primitives.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod fault;

#[cfg(not(nws_model))]
mod passthrough;
#[cfg(not(nws_model))]
pub use passthrough::{atomic, cell, hint, thread, Condvar, Mutex, MutexGuard, WaitTimeoutResult};

#[cfg(nws_model)]
pub mod model;
#[cfg(nws_model)]
mod model_types;
#[cfg(nws_model)]
pub use model_types::{atomic, cell, hint, thread, Condvar, Mutex, MutexGuard, WaitTimeoutResult};

/// Expands each item only when the model-checking tier is compiled in
/// (`--cfg nws_model`). This macro — together with [`not_model!`] and
/// [`ModelFlag`] — is how other crates condition on the tier *without
/// spelling the cfg name*: the static contract (DESIGN.md §10,
/// `nws_analyze`'s cfg-confinement rule) confines the raw `nws_model` /
/// `nws_fault` cfg tokens to `crates/sync`, so the set of places where the
/// two build flavors can diverge stays enumerable by reading one crate.
///
/// ```ignore
/// nws_sync::model_only! {
///     #[cfg(test)]
///     mod model_tests;
/// }
/// ```
#[macro_export]
macro_rules! model_only {
    ($($it:item)*) => { $( #[cfg(nws_model)] $it )* };
}

/// Expands each item only in **default** (non-model) builds — the
/// complement of [`model_only!`]. Used e.g. to keep hardware stress tests
/// out of the checked-interleaving tier, whose cooperative scheduler would
/// make real-thread spinning meaningless.
#[macro_export]
macro_rules! not_model {
    ($($it:item)*) => { $( #[cfg(not(nws_model))] $it )* };
}

/// A boolean that can only be `true` under the model tier.
///
/// In default builds it is a zero-sized constant `false`, so a branch on
/// [`get`](Self::get) folds away entirely — the hook costs nothing on the
/// work path. The deque uses this for its deliberately-weakened handshake
/// fence (`the_deque_weak_fence_for_model`): the *flag* exists in every
/// build, but only the model tier can arm it, and only `crates/sync`
/// spells the cfg that makes that so.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelFlag {
    #[cfg(nws_model)]
    on: bool,
}

impl ModelFlag {
    /// The flag every production caller uses: permanently `false`.
    pub const fn off() -> Self {
        ModelFlag {
            #[cfg(nws_model)]
            on: false,
        }
    }

    /// Arms the flag under the model tier; in default builds the argument
    /// is ignored and the flag stays `false`.
    pub const fn for_model(on: bool) -> Self {
        #[cfg(not(nws_model))]
        let _ = on;
        ModelFlag {
            #[cfg(nws_model)]
            on,
        }
    }

    /// Reads the flag. A constant `false` outside the model tier.
    #[inline(always)]
    pub const fn get(self) -> bool {
        #[cfg(nws_model)]
        return self.on;
        #[cfg(not(nws_model))]
        false
    }
}

/// Pads and aligns a value to 128 bytes — two cache lines, covering the
/// adjacent-line prefetcher on x86 — so two `CachePadded` values never
/// share a cache line (the same trick as `crossbeam_utils::CachePadded`
/// and `crates/core`'s `WorkerStats` block alignment).
///
/// Identical in both backends: padding changes layout, never semantics,
/// so the model checker has nothing to intercept.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in 128-byte-aligned padding.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Unwraps the padded value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    #[inline(always)]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

/// One SplitMix64 step over `state`: the fault plans' generator and the
/// model checker's schedule chooser. The arithmetic of the policy layer's
/// `nws_topology::SplitMix64`, kept here so this crate stays at the bottom
/// of the dependency graph.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
