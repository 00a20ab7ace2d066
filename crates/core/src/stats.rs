//! Per-worker execution statistics: time breakdown and steal-path counters.
//!
//! The breakdown follows the paper's §II taxonomy — **work** (useful
//! computation, including spawn overhead), **scheduling** (managing actual
//! parallelism: PUSHBACK episodes and mailbox traffic), and **idle**
//! (failed steal attempts and backoff). Workers account time by switching a
//! per-thread category clock at protocol transitions, so time spent inside
//! nested jobs is never double-counted.
//!
//! ## Contention-free counting (work-first principle)
//!
//! Counters follow a two-tier design so the work path never touches shared
//! memory with an atomic read-modify-write:
//!
//! - Each worker accumulates its own counters in plain [`Cell`]s
//!   ([`LocalCounters`], owned by the `WorkerThread`) — a non-atomic
//!   register/L1 increment per event, which the compiler may coalesce.
//! - The cells are **flushed** into the shared [`WorkerStats`] atomics at
//!   steal-path transitions: every category switch (i.e. around each
//!   stolen/injected job), before a worker commits to sleeping, *before a
//!   job sets its completion latch*, and at worker exit. The
//!   flush-before-latch-set rule is what keeps externally observed
//!   snapshots exact: when `install` returns, every counter bumped by work
//!   contributing to that root has been flushed (each worker publishes its
//!   deltas before publishing the completion the root transitively waits
//!   on), so conservation laws hold at the moment a caller can ask. One
//!   such law is Σ `steals` = Σ `stolen_from`: `steal_once` bumps the
//!   thief's `steals` cell and the victim's `stolen_from` atomic together,
//!   and the `switch_to` in `execute` (or in `pushback`, for a job relayed
//!   to a mailbox) flushes the cell before the stolen job can finish.
//! - [`WorkerStats`] is padded to 128 bytes and the thief-written counter
//!   (`stolen_from`, the only cross-worker write) lives in its own padded
//!   [`ThiefStats`] block, so a steal dirties neither the victim's
//!   owner-counter line nor a neighbouring worker's stats.
//!
//! ## The counter table
//!
//! Every counter is declared once, as one row of the `counters!` invocation
//! below. The macro expands the table into the cells, the atomics, the
//! flush, snapshot and reset, the public [`WorkerStatsSnapshot`] fields and
//! the [`PoolStats`] totals, so adding a counter means adding one row.

use nws_sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::cell::Cell;
use std::time::Instant;

/// What a worker is spending its time on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Category {
    /// Executing application code (incl. deque pushes/pops — work path).
    Work,
    /// NUMA-WS bookkeeping: pushback episodes, mailbox handling.
    Sched,
    /// Looking for work: steal attempts, spinning, waiting.
    Idle,
}

/// Expands the counter table. Rows are `name => PoolStats getter`, each
/// with its doc comment (the getter name is spelled out because
/// `macro_rules` cannot join identifiers). Three sections:
///
/// - `clocks`: atomic only, fed by [`Clock`] through
///   [`WorkerStats::add_time`];
/// - `owner`: a [`LocalCounters`] cell bumped on the work path plus a
///   [`WorkerStats`] atomic it is flushed into;
/// - `thief`: written by other workers straight into the padded
///   [`ThiefStats`] block.
macro_rules! counters {
    (
        clocks { $( $(#[$cdoc:meta])* $clock:ident => $clock_total:ident, )* }
        owner { $( $(#[$odoc:meta])* $owner:ident => $owner_total:ident, )* }
        thief { $( $(#[$tdoc:meta])* $thief:ident => $thief_total:ident, )* }
    ) => {
        /// Counters written into this worker's stats by *other* workers
        /// (thieves). Padded onto its own cacheline block so a steal never
        /// dirties the victim's own counter lines.
        #[derive(Debug, Default)]
        #[repr(align(128))]
        pub(crate) struct ThiefStats {
            $( pub $thief: AtomicU64, )*
        }

        /// Shared counters for one worker. All fields except [`ThiefStats`]
        /// are written only by the owning worker (flushes from its
        /// [`LocalCounters`] and clock), so readers race only with
        /// single-writer relaxed stores. The 128-byte alignment keeps
        /// adjacent workers' stats off each other's cachelines in the
        /// registry's `Vec<WorkerStats>`.
        #[derive(Debug, Default)]
        #[repr(C, align(128))] // repr(C): keep the thief block *after* the owner fields
        pub(crate) struct WorkerStats {
            $( pub $clock: AtomicU64, )*
            $( pub $owner: AtomicU64, )*
            /// Thief-written block, on its own cacheline(s).
            pub thief: ThiefStats,
        }

        /// Per-worker counter accumulator: plain cells, owned by the worker
        /// thread, bumped on the work path without any atomic operation and
        /// flushed into the shared [`WorkerStats`] at steal-path transitions
        /// (see module docs for the flush points and the exactness argument).
        #[derive(Debug, Default)]
        pub(crate) struct LocalCounters {
            $( pub $owner: Cell<u64>, )*
        }

        impl LocalCounters {
            /// Drains every nonzero cell into the shared atomics. The owner
            /// is the only flusher, so each `fetch_add` is uncontended;
            /// skipping zero deltas keeps untouched counters' cachelines
            /// clean.
            pub(crate) fn flush_into(&self, stats: &WorkerStats) {
                $( drain(&self.$owner, &stats.$owner); )*
            }

            #[cfg(test)]
            fn cells(&self) -> Vec<(&'static str, &Cell<u64>)> {
                vec![$( (stringify!($owner), &self.$owner), )*]
            }
        }

        impl WorkerStats {
            pub(crate) fn snapshot(&self) -> WorkerStatsSnapshot {
                WorkerStatsSnapshot {
                    $( $clock: self.$clock.load(Relaxed), )*
                    $( $owner: self.$owner.load(Relaxed), )*
                    $( $thief: self.thief.$thief.load(Relaxed), )*
                }
            }

            pub(crate) fn reset(&self) {
                $( self.$clock.store(0, Relaxed); )*
                $( self.$owner.store(0, Relaxed); )*
                $( self.thief.$thief.store(0, Relaxed); )*
            }

            #[cfg(test)]
            fn atomics(&self) -> Vec<(&'static str, &AtomicU64)> {
                vec![
                    $( (stringify!($clock), &self.$clock), )*
                    $( (stringify!($owner), &self.$owner), )*
                    $( (stringify!($thief), &self.thief.$thief), )*
                ]
            }
        }

        counters! {
            @public
            $( $(#[$cdoc])* $clock => $clock_total, )*
            $( $(#[$odoc])* $owner => $owner_total, )*
            $( $(#[$tdoc])* $thief => $thief_total, )*
        }
    };
    (@public $( $(#[$doc:meta])* $name:ident => $total:ident, )*) => {
        /// A point-in-time copy of one worker's statistics.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct WorkerStatsSnapshot {
            $( $(#[$doc])* pub $name: u64, )*
        }

        impl PoolStats {
            $(
                #[doc = concat!(
                    "Sum of [`WorkerStatsSnapshot::", stringify!($name), "`] across workers."
                )]
                pub fn $total(&self) -> u64 {
                    self.workers.iter().map(|w| w.$name).sum()
                }
            )*

            /// `(name, total)` for every counter, in table order, followed
            /// by the pool-level `ingress_rejects` and `sheds`.
            pub fn counter_totals(&self) -> Vec<(&'static str, u64)> {
                vec![
                    $( (stringify!($name), self.$total()), )*
                    ("ingress_rejects", self.ingress_rejects),
                    ("sheds", self.sheds),
                ]
            }
        }
    };
}

counters! {
    clocks {
        /// Nanoseconds spent doing useful work (incl. spawn overhead). The
        /// pool total is the paper's `W_P`.
        work_ns => total_work_ns,
        /// Nanoseconds spent on NUMA-WS scheduling bookkeeping (`S_P`).
        sched_ns => total_sched_ns,
        /// Nanoseconds spent idle (failed steals, spinning) (`I_P`).
        idle_ns => total_idle_ns,
    }
    owner {
        /// Forks made by this worker (`cilk_spawn` count): every `join`
        /// branch recorded as a hidden frame (lazy join promotion) plus every
        /// **accepted** eager deque push (hinted joins, joins over a full
        /// frame stack, scope spawns). This equals the Spawn events a trace-recording run logs.
        /// An eager spawn that overflows the deque and degrades to inline
        /// execution lands in [`spawn_overflows`] instead, and a hidden frame
        /// pushed later by promotion in [`join_promotions`], so the `T1/TS`
        /// work-efficiency metrics never see phantom or doubled spawns.
        ///
        /// [`spawn_overflows`]: WorkerStatsSnapshot::spawn_overflows
        /// [`join_promotions`]: WorkerStatsSnapshot::join_promotions
        spawns => total_spawns,
        /// Eager spawns rejected by a full deque and run inline by the spawner.
        spawn_overflows => total_spawn_overflows,
        /// Hidden `join` frames this worker pushed onto its own deque because
        /// the deque was empty or the worker was about to block or push
        /// eagerly (lazy join promotion). Already counted in [`spawns`] at
        /// the fork.
        ///
        /// [`spawns`]: WorkerStatsSnapshot::spawns
        join_promotions => total_join_promotions,
        /// Tasks spawned through the structured [`Scope`](crate::Scope)
        /// subsystem (`Scope::spawn` / `spawn_at`). A subset of [`spawns`]
        /// when the spawner was a pool worker (scope spawns also push onto
        /// the spawner's deque), counted separately so ablation tables can
        /// show dynamic-task-set traffic per policy.
        ///
        /// [`spawns`]: WorkerStatsSnapshot::spawns
        scope_spawns => total_scope_spawns,
        /// Jobs taken from the per-place external ingress queues (own place or,
        /// as a last resort, a remote one).
        injector_takes => total_injector_takes,
        /// Times a sleeping worker was woken by a producer's signal (inject,
        /// mailbox deposit, a deque push made while it slept, or a join latch
        /// set while its waiter slept). Safety-net timeouts are not counted, so
        /// this is zero both under sustained load (nobody sleeps) and under
        /// sustained idleness (nobody signals); high `wakeups` with low
        /// takes/steals indicates wake churn.
        wakeups => total_wakeups,
        /// Sleeps whose safety-net timeout elapsed with work waiting: a
        /// wake-up was lost (a stale relaxed sleeper probe on the producer
        /// side) and the timeout rescued it, at the cost of up to one
        /// timeout period of latency. Zero while every producer's wake
        /// lands.
        timeout_rescues => total_timeout_rescues,
        /// Steal attempts made by this worker.
        steal_attempts => total_steal_attempts,
        /// Steal attempts that targeted a victim on another socket. The ratio
        /// to `steal_attempts` mirrors the victim distribution directly
        /// (uniform under [`SchedPolicy::vanilla()`](crate::SchedPolicy::vanilla),
        /// distance-biased under NUMA-WS), unlike successful-steal ratios,
        /// which are confounded by who has work.
        remote_steal_attempts => total_remote_steal_attempts,
        /// Successful deque steals by this worker.
        steals => total_steals,
        /// Successful steals from victims on another socket.
        remote_steals => total_remote_steals,
        /// Steal episodes by this worker that spilled at least one extra job
        /// into its own deque (steal-half batching). A subset of [`steals`]:
        /// each successful episode counts one steal regardless of batch size.
        ///
        /// [`steals`]: WorkerStatsSnapshot::steals
        steal_batches => total_steal_batches,
        /// Extra jobs claimed by this worker's batch steals beyond the one
        /// returned to run — i.e. jobs spilled into its own deque (or relayed
        /// onward via PUSHBACK when earmarked for another place).
        batch_stolen_jobs => total_batch_stolen_jobs,
        /// Jobs taken from mailboxes (own or a victim's).
        mailbox_takes => total_mailbox_takes,
        /// PUSHBACK deposit attempts made.
        push_attempts => total_push_attempts,
        /// PUSHBACK deposits that landed in a mailbox.
        push_deliveries => total_push_deliveries,
        /// PUSHBACK episodes abandoned at the threshold.
        push_failures => total_push_failures,
        /// Fire-and-forget job closures that panicked on this worker. The
        /// panic is caught (never unwinds the worker), counted here, and
        /// printed in debug builds.
        job_panics => total_job_panics,
    }
    thief {
        /// Times this worker's own deque was stolen from.
        stolen_from => total_stolen_from,
    }
}

/// Bumps a [`LocalCounters`] cell: a plain, non-atomic increment (or, with
/// a third argument, a non-atomic add — e.g. the per-episode spill count).
macro_rules! bump {
    ($local:expr, $field:ident) => {{
        let cell = &$local.$field;
        cell.set(cell.get().wrapping_add(1));
    }};
    ($local:expr, $field:ident, $n:expr) => {{
        let cell = &$local.$field;
        cell.set(cell.get().wrapping_add($n));
    }};
}
pub(crate) use bump;

#[inline]
fn drain(cell: &Cell<u64>, into: &AtomicU64) {
    let delta = cell.take();
    if delta != 0 {
        into.fetch_add(delta, Relaxed);
    }
}

impl WorkerStats {
    pub(crate) fn add_time(&self, cat: Category, ns: u64) {
        let slot = match cat {
            Category::Work => &self.work_ns,
            Category::Sched => &self.sched_ns,
            Category::Idle => &self.idle_ns,
        };
        slot.fetch_add(ns, Relaxed);
    }
}

/// Statistics for a whole pool.
#[derive(Debug, Clone, Default)]
pub struct PoolStats {
    /// One snapshot per worker, by index.
    pub workers: Vec<WorkerStatsSnapshot>,
    /// Submissions handed back to the caller: every `Err` from
    /// [`Pool::try_spawn`](crate::Pool::try_spawn) or
    /// [`Pool::try_spawn_at`](crate::Pool::try_spawn_at) (a full bounded
    /// ingress queue, or a shutting-down or poisoned pool). Nothing else
    /// counts here: `install` waits for space and `spawn` sheds into
    /// [`sheds`](Self::sheds). Pool-level (not per-worker) because the
    /// bouncing thread is external.
    pub ingress_rejects: u64,
    /// Jobs accepted by `spawn` but dropped unrun under
    /// [`OverflowPolicy::Reject`](crate::OverflowPolicy::Reject) because
    /// the ingress queue was full. Each shed closure is dropped (its
    /// destructor runs) but never executed.
    pub sheds: u64,
}

/// Per-thread category clock; flushes elapsed time into the shared atomics
/// whenever the category changes.
#[derive(Debug)]
pub(crate) struct Clock {
    enabled: bool,
    last: Cell<Instant>,
    cat: Cell<Category>,
}

impl Clock {
    pub(crate) fn new(enabled: bool, cat: Category) -> Self {
        Clock { enabled, last: Cell::new(Instant::now()), cat: Cell::new(cat) }
    }

    /// Switches category, attributing elapsed time to the previous one.
    #[inline]
    pub(crate) fn switch_to(&self, stats: &WorkerStats, cat: Category) {
        if !self.enabled {
            return;
        }
        let now = Instant::now();
        let prev = self.cat.replace(cat);
        let elapsed = now.duration_since(self.last.replace(now)).as_nanos() as u64;
        stats.add_time(prev, elapsed);
    }

    /// Flushes the current interval without changing category.
    pub(crate) fn flush(&self, stats: &WorkerStats) {
        let cat = self.cat.get();
        self.switch_to(stats, cat);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Stores a distinct nonzero value (`base * (row + 1)`) into every
    /// atomic of `s`, clocks and thief block included.
    fn fill(s: &WorkerStats, base: u64) {
        for (i, (_, atomic)) in s.atomics().into_iter().enumerate() {
            atomic.store(base * (i as u64 + 1), Relaxed);
        }
    }

    fn load(s: &WorkerStats, name: &str) -> u64 {
        let (_, atomic) = s.atomics().into_iter().find(|(n, _)| *n == name).expect("known counter");
        atomic.load(Relaxed)
    }

    #[test]
    fn snapshot_copies_counters() {
        let s = WorkerStats::default();
        fill(&s, 1);
        let stats = PoolStats { workers: vec![s.snapshot()], ..Default::default() };
        for ((name, atomic), (total_name, total)) in
            s.atomics().into_iter().zip(stats.counter_totals())
        {
            assert_eq!(name, total_name);
            assert_eq!(atomic.load(Relaxed), total, "{name}");
        }
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = WorkerStats::default();
        fill(&s, 1);
        s.reset();
        for (name, atomic) in s.atomics() {
            assert_eq!(atomic.load(Relaxed), 0, "{name}");
        }
        assert_eq!(s.snapshot(), WorkerStatsSnapshot::default());
    }

    #[test]
    fn local_counters_flush_and_drain() {
        let s = WorkerStats::default();
        let local = LocalCounters::default();
        for (i, (_, cell)) in local.cells().into_iter().enumerate() {
            cell.set(i as u64 + 1);
        }
        // The named-field bump the work path uses adds to the same cell.
        bump!(local, spawns);
        bump!(local, steal_attempts, 10);
        let want = |i: usize, name: &str| match name {
            "spawns" => i as u64 + 2,
            "steal_attempts" => i as u64 + 11,
            _ => i as u64 + 1,
        };
        local.flush_into(&s);
        for (i, (name, cell)) in local.cells().into_iter().enumerate() {
            assert_eq!(cell.get(), 0, "{name} must be drained");
            assert_eq!(load(&s, name), want(i, name), "{name} lands in its own atomic");
        }
        // Flushing touches only the owner atomics.
        for name in ["work_ns", "sched_ns", "idle_ns", "stolen_from"] {
            assert_eq!(load(&s, name), 0, "{name}");
        }
        // Cells drained: a second flush adds nothing.
        local.flush_into(&s);
        for (i, (name, _)) in local.cells().into_iter().enumerate() {
            assert_eq!(load(&s, name), want(i, name), "{name}");
        }
        // Deltas accumulate across flushes.
        bump!(local, spawns);
        local.flush_into(&s);
        assert_eq!(s.snapshot().spawns, 3);
    }

    #[test]
    fn worker_stats_do_not_share_cachelines() {
        // The registry stores `Vec<WorkerStats>`; 128-byte alignment keeps
        // neighbouring workers (and the thief-written block) off each
        // other's cachelines.
        assert_eq!(std::mem::align_of::<WorkerStats>(), 128);
        assert_eq!(std::mem::size_of::<WorkerStats>() % 128, 0);
        assert_eq!(std::mem::align_of::<ThiefStats>(), 128);
        // The thief block must not share its 128-byte block with the
        // owner-written fields.
        let s = WorkerStats::default();
        let base = &s as *const _ as usize;
        let thief = &s.thief as *const _ as usize;
        assert!(thief - base >= 128, "stolen_from must sit in its own padded block");
    }

    #[test]
    fn pool_stats_totals() {
        let workers = [WorkerStats::default(), WorkerStats::default()];
        fill(&workers[0], 1);
        fill(&workers[1], 2);
        let stats = PoolStats {
            workers: workers.iter().map(WorkerStats::snapshot).collect(),
            ingress_rejects: 1000,
            sheds: 2000,
        };
        let totals = stats.counter_totals();
        let names: HashSet<&str> = totals.iter().map(|&(n, _)| n).collect();
        assert_eq!(names.len(), totals.len(), "counter names must be unique");
        // Each row totals across both workers: 1·(i+1) + 2·(i+1).
        let rows = workers[0].atomics().len();
        for (i, &(name, total)) in totals[..rows].iter().enumerate() {
            assert_eq!(total, 3 * (i as u64 + 1), "{name}");
        }
        assert_eq!(totals[rows..], [("ingress_rejects", 1000), ("sheds", 2000)]);
        // The public getters, by the names downstream code calls them.
        type Getter = fn(&PoolStats) -> u64;
        let getters: [(&str, Getter); 22] = [
            ("work_ns", PoolStats::total_work_ns),
            ("sched_ns", PoolStats::total_sched_ns),
            ("idle_ns", PoolStats::total_idle_ns),
            ("spawns", PoolStats::total_spawns),
            ("spawn_overflows", PoolStats::total_spawn_overflows),
            ("join_promotions", PoolStats::total_join_promotions),
            ("scope_spawns", PoolStats::total_scope_spawns),
            ("injector_takes", PoolStats::total_injector_takes),
            ("wakeups", PoolStats::total_wakeups),
            ("timeout_rescues", PoolStats::total_timeout_rescues),
            ("steal_attempts", PoolStats::total_steal_attempts),
            ("remote_steal_attempts", PoolStats::total_remote_steal_attempts),
            ("steals", PoolStats::total_steals),
            ("remote_steals", PoolStats::total_remote_steals),
            ("steal_batches", PoolStats::total_steal_batches),
            ("batch_stolen_jobs", PoolStats::total_batch_stolen_jobs),
            ("mailbox_takes", PoolStats::total_mailbox_takes),
            ("push_attempts", PoolStats::total_push_attempts),
            ("push_deliveries", PoolStats::total_push_deliveries),
            ("push_failures", PoolStats::total_push_failures),
            ("job_panics", PoolStats::total_job_panics),
            ("stolen_from", PoolStats::total_stolen_from),
        ];
        assert_eq!(getters.len(), rows, "every row has a getter");
        for (name, getter) in getters {
            let (_, total) = totals.iter().find(|(n, _)| *n == name).expect("named in totals");
            assert_eq!(getter(&stats), *total, "{name}");
        }
        // Reset both workers: every total reads zero.
        for w in &workers {
            w.reset();
        }
        let stats =
            PoolStats { workers: workers.iter().map(WorkerStats::snapshot).collect(), ..stats };
        assert!(stats.counter_totals()[..rows].iter().all(|&(_, v)| v == 0));
        assert!(getters.iter().all(|(_, getter)| getter(&stats) == 0));
    }

    #[test]
    fn clock_attributes_time_to_previous_category() {
        let stats = WorkerStats::default();
        let clock = Clock::new(true, Category::Idle);
        std::thread::sleep(std::time::Duration::from_millis(5));
        clock.switch_to(&stats, Category::Work);
        assert!(stats.idle_ns.load(Relaxed) >= 4_000_000, "idle time must be attributed");
        assert_eq!(stats.work_ns.load(Relaxed), 0);
    }

    #[test]
    fn disabled_clock_is_free() {
        let stats = WorkerStats::default();
        let clock = Clock::new(false, Category::Work);
        std::thread::sleep(std::time::Duration::from_millis(2));
        clock.switch_to(&stats, Category::Idle);
        clock.flush(&stats);
        assert_eq!(stats.work_ns.load(Relaxed), 0);
        assert_eq!(stats.idle_ns.load(Relaxed), 0);
    }
}
