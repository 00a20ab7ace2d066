//! Work-stealing deques for the NUMA-WS runtime.
//!
//! The centerpiece is [`the_deque`], descended from the Cilk-5 **THE
//! protocol** (Frigo, Leiserson, Randall — PLDI 1998), which the paper keeps
//! unchanged in NUMA-WS (§II): the worker that owns the deque pushes and
//! pops at the *tail* without any lock or fence on the common path, while
//! thieves claim the oldest item at the *head* by lock-free CAS (the
//! Chase-Lev protocol — the modern form of THE's thief side), through one
//! claim, [`TheStealer::steal_batch`], that takes one item or a steal-half
//! batch. Owner and
//! thieves only synchronize when they might be going after the same (last)
//! item, which is exactly the work-first principle — overhead lands on the
//! steal path, not the work path.
//!
//! # Example
//!
//! ```
//! use nws_deque::the_deque;
//!
//! let (worker, stealer) = the_deque::<u32>(64);
//! worker.push(1).unwrap();
//! worker.push(2).unwrap();
//! // The owner works LIFO at the tail...
//! assert_eq!(worker.pop(), Some(2));
//! // ...while thieves take the oldest item at the head (`0`: no room to
//! // spill a batch, so exactly one item).
//! assert_eq!(stealer.steal_batch(0, |_| {}), Some(1));
//! assert_eq!(worker.pop(), None);
//! ```

#![warn(missing_docs)]

mod the;

pub use the::{
    the_deque, the_deque_naive_batch_for_model, the_deque_weak_fence_for_model, Full, TheStealer,
    TheWorker,
};
