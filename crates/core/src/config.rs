//! Runtime configuration types.
//!
//! The scheduling knobs themselves live in the shared policy layer
//! ([`nws_topology::SchedPolicy`]) so the runtime and the simulator
//! provably describe the same protocols; a pool selects its scheduler with
//! [`PoolBuilder::policy`](crate::PoolBuilder::policy) alone.

use std::fmt;

/// What happens when a bounded ingress queue
/// ([`PoolBuilder::ingress_capacity`](crate::PoolBuilder::ingress_capacity))
/// is full at submission time.
///
/// The policy governs the fire-and-forget entry points
/// ([`Pool::spawn`](crate::Pool::spawn) / `spawn_at`).
/// [`Pool::install`](crate::Pool::install) is synchronous and always waits
/// for queue space (its caller is blocked on the result anyway), and
/// [`Pool::try_spawn_at`](crate::Pool::try_spawn_at) never waits regardless
/// of policy — it hands the closure back instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum OverflowPolicy {
    /// `spawn` blocks until the ingress queue has space (backpressure).
    #[default]
    Block,
    /// `spawn` sheds the job immediately — the closure is dropped unrun and
    /// counted in [`PoolStats::sheds`](crate::PoolStats::sheds). The
    /// load-shedding frontend posture: reject early, never queue unbounded.
    Reject,
}

/// The error a poisoned pool surfaces: a worker died from a panic in
/// runtime code (or an injected fault), so the pool has shut itself down.
///
/// Thrown as a panic payload by [`Pool::install`](crate::Pool::install)
/// (and friends) on a poisoned pool, so callers that already guard installs
/// with `catch_unwind` can downcast to it; also queryable via
/// [`Pool::is_poisoned`](crate::Pool::is_poisoned). Job-closure panics do
/// **not** poison — they are caught and reported per job representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoisonedPool {
    message: String,
}

impl PoisonedPool {
    pub(crate) fn new(message: String) -> Self {
        PoisonedPool { message }
    }

    /// A summary of the panic payload that poisoned the pool.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for PoisonedPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pool poisoned by a worker panic: {}", self.message)
    }
}

impl std::error::Error for PoisonedPool {}

/// Errors from [`PoolBuilder::build`](crate::PoolBuilder::build).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildPoolError {
    /// A builder setting out of range: zero workers or places, more places
    /// than workers, a zero ingress capacity, or a policy mailbox capacity
    /// above 1.
    InvalidConfig(String),
}

impl fmt::Display for BuildPoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildPoolError::InvalidConfig(msg) => write!(f, "invalid pool config: {msg}"),
        }
    }
}

impl std::error::Error for BuildPoolError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_policy_defaults_to_block() {
        assert_eq!(OverflowPolicy::default(), OverflowPolicy::Block);
    }

    #[test]
    fn poisoned_pool_display_carries_the_payload_summary() {
        use std::error::Error;
        let e = PoisonedPool::new("injected fault at job.exec@3".into());
        assert_eq!(e.to_string(), "pool poisoned by a worker panic: injected fault at job.exec@3");
        assert_eq!(e.message(), "injected fault at job.exec@3");
        assert!(e.source().is_none());
    }

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        let e = BuildPoolError::InvalidConfig("zero workers".into());
        assert!(e.to_string().contains("zero workers"));
        assert!(e.source().is_none());
    }
}
