//! The model-checking backend's public API (present only under
//! `--cfg nws_model`).
//!
//! A checked test wraps its body in [`model`] (or a configured
//! [`Builder`]). The closure runs many times, once per explored schedule;
//! inside it, every `nws_sync` primitive becomes a schedule point of a
//! cooperative scheduler. Two strategies are available:
//!
//! - [`Builder::exhaustive`]: depth-first enumeration of all schedules
//!   with at most `preemption_bound` involuntary context switches —
//!   the Chess-style result that most concurrency bugs need only a
//!   couple of preemptions applies directly to the runtime's small
//!   handshake protocols.
//! - [`Builder::random`]: seeded pseudo-random schedules, for protocols
//!   whose exhaustive tree is too big. Failures print the per-schedule
//!   seed; [`Builder::replay`] re-runs exactly that schedule.
//!
//! Failures — panics (assertion failures), deadlocks, livelocks, and
//! data races on facade `UnsafeCell`s — abort the execution, unwind all
//! model threads, and surface as a [`Failure`] carrying the replay
//! information.

mod clock;
mod exec;

pub(crate) use exec::{cur_ctx, ExecShared, LocSlot};

use crate::splitmix64;
use exec::{Chooser, TapeEntry};
use std::fmt;
use std::sync::Mutex as StdMutex;

/// Why a checked execution failed.
#[derive(Clone, Debug)]
pub enum FailureKind {
    /// A model thread panicked (usually a failed assertion in the test).
    Panic(String),
    /// No thread could make progress (the message lists the stuck ones).
    Deadlock(String),
    /// The execution exceeded the schedule-point budget.
    Livelock(String),
    /// Unsynchronized conflicting accesses to a facade `UnsafeCell`.
    DataRace(String),
}

/// A failing schedule, with everything needed to reproduce it.
#[derive(Clone, Debug)]
pub struct Failure {
    pub kind: FailureKind,
    /// The choice sequence of the failing schedule (diagnostic only).
    pub schedule: Vec<u32>,
    /// For the random strategy: the per-schedule seed to pass to
    /// [`Builder::replay`].
    pub seed: Option<u64>,
    /// How many schedules ran before this one failed.
    pub schedule_index: usize,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            FailureKind::Panic(m) => write!(f, "model thread panicked: {m}")?,
            FailureKind::Deadlock(m) => write!(f, "deadlock: {m}")?,
            FailureKind::Livelock(m) => write!(f, "livelock: {m}")?,
            FailureKind::DataRace(m) => write!(f, "data race: {m}")?,
        }
        write!(f, "\n  found on schedule #{}", self.schedule_index)?;
        if let Some(seed) = self.seed {
            write!(f, "\n  replay with: Builder::replay(0x{seed:016x}).run(..)")?;
        }
        write!(f, "\n  schedule (choice indices): {:?}", self.schedule)
    }
}

/// Summary of a completed (non-failing) check.
#[derive(Clone, Copy, Debug)]
pub struct Explored {
    /// Number of schedules executed.
    pub schedules: usize,
    /// For the exhaustive strategy: whether the bounded schedule space
    /// was fully enumerated (`false` means `max_schedules` cut it off).
    pub complete: bool,
}

#[derive(Clone, Copy, Debug)]
enum Strategy {
    Exhaustive { preemption_bound: usize, max_schedules: usize },
    Random { schedules: usize, seed: u64, derive: bool },
}

/// Configures and runs a checked-interleaving exploration.
#[derive(Clone, Copy, Debug)]
pub struct Builder {
    strategy: Strategy,
    max_steps: usize,
}

/// Executions use OS threads with process-global TLS handshakes; running
/// two explorations concurrently (e.g. from parallel `cargo test`
/// threads) is sound but interleaves their worker pools unhelpfully, so
/// serialize them.
static RUN_LOCK: StdMutex<()> = StdMutex::new(());

impl Builder {
    /// Exhaustive DFS over schedules with at most `preemption_bound`
    /// involuntary context switches, stopping after `max_schedules`
    /// schedules if the tree is bigger than that.
    pub fn exhaustive(preemption_bound: usize, max_schedules: usize) -> Builder {
        Builder {
            strategy: Strategy::Exhaustive { preemption_bound, max_schedules },
            max_steps: 20_000,
        }
    }

    /// `schedules` pseudo-random schedules derived from `seed`.
    pub fn random(schedules: usize, seed: u64) -> Builder {
        Builder { strategy: Strategy::Random { schedules, seed, derive: true }, max_steps: 20_000 }
    }

    /// Replays exactly the one schedule a [`Failure`] reported as its
    /// `seed`.
    pub fn replay(seed: u64) -> Builder {
        Builder {
            strategy: Strategy::Random { schedules: 1, seed, derive: false },
            max_steps: 20_000,
        }
    }

    /// Overrides the per-schedule step budget (default 20 000) after
    /// which an execution is declared livelocked.
    pub fn max_steps(mut self, n: usize) -> Builder {
        self.max_steps = n;
        self
    }

    /// Explores schedules of `f`, returning the first failure or a
    /// summary of what was covered.
    pub fn check(&self, f: impl Fn() + Sync) -> Result<Explored, Failure> {
        let _serial = RUN_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match self.strategy {
            Strategy::Exhaustive { preemption_bound, max_schedules } => {
                let mut tape: Vec<TapeEntry> = Vec::new();
                let mut schedules = 0;
                loop {
                    if schedules >= max_schedules {
                        return Ok(Explored { schedules, complete: false });
                    }
                    let exec = ExecShared::new(
                        Chooser::Dfs { tape, pos: 0 },
                        self.max_steps,
                        Some(preemption_bound),
                        None,
                        schedules,
                    );
                    let outcome = exec.run_root(&f);
                    schedules += 1;
                    if let Some(failure) = outcome.failure {
                        return Err(failure);
                    }
                    let Chooser::Dfs { tape: t, .. } = outcome.chooser else {
                        unreachable!("exhaustive run returned a non-DFS chooser")
                    };
                    tape = t;
                    // Backtrack: advance the deepest choice point that has
                    // untried options; drop exhausted suffixes.
                    loop {
                        match tape.last_mut() {
                            None => return Ok(Explored { schedules, complete: true }),
                            Some(e) if e.taken + 1 < e.options => {
                                e.taken += 1;
                                break;
                            }
                            Some(_) => {
                                tape.pop();
                            }
                        }
                    }
                }
            }
            Strategy::Random { schedules, seed, derive } => {
                for i in 0..schedules {
                    let s =
                        if derive { splitmix64(&mut seed.wrapping_add(i as u64)) } else { seed };
                    let exec = ExecShared::new(
                        Chooser::Random { state: s },
                        self.max_steps,
                        None,
                        Some(s),
                        i,
                    );
                    let outcome = exec.run_root(&f);
                    if let Some(failure) = outcome.failure {
                        return Err(failure);
                    }
                }
                Ok(Explored { schedules, complete: false })
            }
        }
    }

    /// Like [`Builder::check`], but panics with the failure report — the
    /// form checked tests use.
    pub fn run(&self, f: impl Fn() + Sync) {
        if let Err(failure) = self.check(f) {
            panic!("model checking failed: {failure}");
        }
    }
}

/// The default checked-test entry point: exhaustive with 2 preemptions,
/// capped at 100 000 schedules. Small handshake tests finish completely
/// well under the cap; bigger ones still get dense bounded coverage.
pub fn model(f: impl Fn() + Sync) {
    Builder::exhaustive(2, 100_000).run(f);
}
