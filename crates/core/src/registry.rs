//! The pool registry and worker threads: deques, mailboxes, the biased
//! steal protocol with coin flip, lazy work pushing, per-place external
//! ingress, and the worker sleep/wake layer.

use crate::config::OverflowPolicy;
use crate::frames::FrameStack;
use crate::injector::IngressQueue;
use crate::job::JobRef;
use crate::latch::Probe;
use crate::mailbox::Mailbox;
use crate::pool::PoolBuilder;
use crate::sleep::{Sleep, SleepOutcome};
use crate::stats::{bump, Category, Clock, LocalCounters, PoolStats, WorkerStats};
use nws_deque::{the_deque, Full, TheStealer, TheWorker};
use nws_sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use nws_sync::{CachePadded, Condvar, Mutex};
use nws_topology::{
    worker_rng_seed, Deposit, Place, SchedPolicy, SplitMix64, StealDistribution, Topology,
    WorkerMap,
};
use nws_trace::{TraceEvent, TraceSink};
use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Slots in each worker's deque. A spawn that finds its deque full runs
/// inline instead (counted in `spawn_overflows`).
pub(crate) const DEQUE_CAPACITY: usize = 8192;

/// A count of workers that have passed a point, and a condvar to wait on
/// until all of them have (no busy-spin).
pub(crate) struct WorkerGate {
    passed: Mutex<usize>,
    cv: Condvar,
    workers: usize,
}

impl WorkerGate {
    fn new(workers: usize) -> Self {
        WorkerGate { passed: Mutex::new(0), cv: Condvar::new(), workers }
    }

    /// Called once by each worker as it passes the gate's point.
    fn pass(&self) {
        let mut passed = self.passed.lock();
        *passed += 1;
        if *passed == self.workers {
            self.cv.notify_all();
        }
    }

    /// Blocks until every worker has passed.
    pub(crate) fn wait(&self) {
        let mut passed = self.passed.lock();
        while *passed < self.workers {
            self.cv.wait(&mut passed);
        }
    }
}

/// Shared state of a pool.
pub(crate) struct Registry {
    pub(crate) map: WorkerMap,
    /// The scheduling policy (shared layer with the simulator): victim
    /// bias, coin flip, mailbox capacity, pushback threshold.
    pub(crate) policy: SchedPolicy,
    pub(crate) stats_enabled: bool,
    stealers: Vec<TheStealer<JobRef>>,
    mailboxes: Vec<Mailbox>,
    pub(crate) worker_stats: Vec<WorkerStats>,
    dists: Vec<Option<StealDistribution>>,
    /// One external ingress queue per virtual place; every worker of a
    /// place drains its own queue, and any worker drains remote queues as
    /// a last resort (see [`WorkerThread::find_work`]).
    injectors: Vec<IngressQueue>,
    /// Round-robin cursor for `Place::ANY` ingress.
    next_ingress: AtomicUsize,
    pub(crate) sleep: Sleep,
    shutdown: AtomicBool,
    /// Set (with [`shutdown`](Self::shutdown)) when a worker hit a panic in
    /// *runtime* code — a genuine scheduler bug or an injected fault. A
    /// poisoned pool drains and stops; new installs fail fast with
    /// [`PoisonedPool`](crate::PoisonedPool). Job-closure panics do **not**
    /// poison (they are caught per job representation).
    poisoned: AtomicBool,
    /// First-wins summary of the panic payload that poisoned the pool.
    poison_msg: Mutex<Option<String>>,
    /// Passed by each worker as it enters its main loop. Pool construction
    /// waits on it, so install never races thread startup; startup of P
    /// threads can take milliseconds under load, which is not worth
    /// burning an external thread's CPU on.
    pub(crate) started: WorkerGate,
    /// Passed by each worker after its main loop returns — after the final
    /// drain, so a job can no longer execute on that worker.
    /// `Pool::install`'s poisoning-aware wait blocks on it: once every
    /// worker has passed, no job will ever execute again, so an unset root
    /// latch is provably stranded (and an abandoned root frame provably
    /// unreachable).
    pub(crate) exited: WorkerGate,
    /// What `spawn` does when a bounded ingress queue is full.
    pub(crate) overflow: OverflowPolicy,
    /// `try_spawn_at` submissions handed back to their callers. Pool-level
    /// atomics (not per-worker cells): the bumping thread is the external
    /// submitter, which has no `LocalCounters`. Cache-padded so a storm of
    /// rejects doesn't false-share with neighbouring fields.
    ingress_rejects: CachePadded<AtomicU64>,
    /// `spawn` closures dropped unrun because `inject` refused them.
    ingress_sheds: CachePadded<AtomicU64>,
    pub(crate) seed: u64,
    /// DAG trace recorder, present when the pool was built with
    /// [`record_trace`](crate::PoolBuilder::record_trace). Spawn edges are
    /// recorded at the spawn points ([`WorkerThread::record_spawn`],
    /// [`inject`]), Start/End brackets around execution (and around a job
    /// run in place, [`WorkerThread::run_traced`]); each worker writes only
    /// its own lane, so recording adds no cross-worker contention beyond
    /// the id counter.
    pub(crate) trace: Option<Arc<TraceSink>>,
}

impl Registry {
    /// Creates the registry from `builder`'s settings and hands back the
    /// deque owner halves for the worker threads to adopt. `topo` is read
    /// only for the victim distributions.
    pub(crate) fn new(
        topo: &Topology,
        map: WorkerMap,
        builder: &PoolBuilder,
    ) -> (Arc<Registry>, Vec<TheWorker<JobRef>>) {
        let policy = builder.policy;
        let p = map.num_workers();
        let s = map.num_places();
        let mut owners = Vec::with_capacity(p);
        let mut stealers = Vec::with_capacity(p);
        for _ in 0..p {
            let (w, st) = the_deque::<JobRef>(DEQUE_CAPACITY);
            owners.push(w);
            stealers.push(st);
        }
        // The policy layer builds every victim distribution — the same
        // method the simulator's engine calls, so a seeded policy selects
        // victims identically on both substrates.
        let dists = (0..p).map(|w| policy.victim_distribution(topo, &map, w)).collect();
        let registry = Arc::new(Registry {
            stealers,
            mailboxes: (0..p).map(|_| Mailbox::new()).collect(),
            worker_stats: (0..p).map(|_| WorkerStats::default()).collect(),
            dists,
            injectors: (0..s).map(|_| IngressQueue::new(builder.ingress_capacity)).collect(),
            next_ingress: AtomicUsize::new(0),
            sleep: Sleep::new(),
            shutdown: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            poison_msg: Mutex::new(None),
            started: WorkerGate::new(p),
            exited: WorkerGate::new(p),
            overflow: builder.overflow,
            ingress_rejects: CachePadded::new(AtomicU64::new(0)),
            ingress_sheds: CachePadded::new(AtomicU64::new(0)),
            seed: builder.seed,
            trace: builder.record_trace.then(|| Arc::new(TraceSink::new(p))),
            map,
            policy,
            stats_enabled: builder.stats_enabled,
        });
        (registry, owners)
    }

    /// Enqueues an externally submitted job on its designated place's
    /// ingress queue (`Place::ANY` round-robins across places) and wakes
    /// the pool. With `wait`, a full bounded queue blocks until space frees
    /// or the pool shuts down or poisons. Only a queued job leaves a Spawn
    /// in the trace.
    ///
    /// Ingress is the latency-critical external entry point, so on success
    /// it broadcasts rather than waking one worker: a single `notify_one`
    /// could land on a join-waiter whose latch was just set, which would
    /// resume its continuation without ever looking for this job.
    ///
    /// # Errors
    ///
    /// Hands the job back untouched when it is not queued: the pool is
    /// shutting down or poisoned, or, without `wait`, the bounded queue is
    /// full. The caller decides what refusal means: `install` panics with
    /// [`PoisonedPool`](crate::PoisonedPool), `spawn` sheds, `try_spawn_at`
    /// hands the closure back.
    pub(crate) fn inject(&self, mut job: JobRef, wait: bool) -> Result<(), JobRef> {
        // Chaos-tier fault point (no-op in default builds): models the
        // submitting thread dying at the pool boundary. It fires before any
        // queueing, so a `panic` action unwinds with the job still owned by
        // the caller — nothing is half-enqueued.
        nws_sync::fault::point("ingress.push");
        if self.is_shutting_down() || self.is_poisoned() {
            return Err(job);
        }
        let hint = job.place();
        let place = match self.map.home_of(hint) {
            Some(home) => home.0,
            None => self.next_ingress.fetch_add(1, Ordering::Relaxed) % self.map.num_places(),
        };
        // The task id travels with the job, so it is set before the push;
        // the Spawn is recorded only once the job is queued, so a refused
        // submission leaves no never-started task in the trace.
        let spawn = self.trace.as_ref().map(|tr| {
            let id = tr.next_id();
            job.set_trace(id);
            // A job running on this pool may submit to it (`spawn`,
            // `try_spawn_at`): attribute the spawn edge to its worker;
            // external submissions, a nested install from another pool's
            // worker included, go to the external lane, rootless.
            let (lane, parent) = match WorkerThread::current() {
                Some(w) if std::ptr::eq(Arc::as_ptr(&w.registry), self) => {
                    (w.index, w.trace_task.get())
                }
                _ => (tr.external_lane(), 0),
            };
            (tr, lane, id, parent)
        });
        if wait {
            self.injectors[place]
                .push_blocking(job, || self.is_shutting_down() || self.is_poisoned())?;
        } else {
            self.injectors[place].push(job)?;
        }
        if let Some((tr, lane, id, parent)) = spawn {
            record_spawn_on(tr, lane, id, parent, hint);
        }
        self.sleep.wake_all();
        Ok(())
    }

    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.sleep.wake_all();
    }

    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Poisons the pool: a worker hit a panic in *runtime* code (a genuine
    /// scheduler bug caught by the `worker_main` supervisor, or an injected
    /// fault caught at its fault point). Records the first payload's
    /// summary, disarms every mailbox (leftover deposits may reference
    /// stack frames that a failed install abandons — their `Drop` must leak,
    /// not execute), and flips the pool into shutdown so workers drain all
    /// reachable work and exit. Idempotent; later payloads are dropped.
    pub(crate) fn poison(&self, payload: &(dyn Any + Send)) {
        {
            let mut msg = self.poison_msg.lock();
            if msg.is_none() {
                *msg = Some(payload_summary(payload));
            }
        }
        // Release/Acquire, not SeqCst (the seqcst-budget audit): `poisoned`
        // is a sticky one-way flag. Release publishes the poison message
        // written above to any Acquire reader, and nothing orders this flag
        // against *other* atomics — a reader that misses the flag for a few
        // polls just shuts down one poll later.
        self.poisoned.store(true, Ordering::Release);
        for mb in &self.mailboxes {
            mb.disarm();
        }
        self.begin_shutdown();
    }

    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// The recorded poison summary (empty string if called unpoisoned —
    /// only reachable in racy probes).
    pub(crate) fn poison_message(&self) -> String {
        self.poison_msg.lock().clone().unwrap_or_default()
    }

    /// Bumps the reject counter: a `try_spawn_at` submission was handed
    /// back to its caller (full bounded queue, shutdown, or poison).
    pub(crate) fn count_ingress_reject(&self) {
        self.ingress_rejects.fetch_add(1, Ordering::Relaxed);
    }

    /// Bumps the shed counter: a `spawn` closure that `inject` refused (a
    /// full queue under [`OverflowPolicy::Reject`], or a poisoned pool) is
    /// being dropped unrun.
    pub(crate) fn count_shed(&self) {
        self.ingress_sheds.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.worker_stats.iter().map(|s| s.snapshot()).collect(),
            ingress_rejects: self.ingress_rejects.load(Ordering::Relaxed),
            sheds: self.ingress_sheds.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn reset_stats(&self) {
        for s in &self.worker_stats {
            s.reset();
        }
        self.ingress_rejects.store(0, Ordering::Relaxed);
        self.ingress_sheds.store(0, Ordering::Relaxed);
    }

    /// Is any work visible pool-wide? Evaluated by a committing sleeper
    /// under the sleep lock (see `crate::sleep`); O(P + S), but only paid
    /// at the sleep transition, never on the work path.
    fn work_available(&self, worker_index: usize) -> bool {
        if self.injectors.iter().any(|q| !q.is_empty()) {
            return true;
        }
        if self.mailboxes[worker_index].has_job() {
            return true;
        }
        // Including our own deque: a scope task executed here may have
        // spawned siblings onto it, and both the main loop and `wait_until`
        // drain the own deque before stealing.
        self.stealers.iter().any(|st| !st.is_empty())
    }
}

/// A human-readable one-liner for a panic payload: the `&str`/`String`
/// message when there is one, the injected-fault description under the
/// chaos tier, a type note otherwise.
pub(crate) fn payload_summary(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(f) = payload.downcast_ref::<nws_sync::fault::InjectedFault>() {
        f.to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Reports a caught fire-and-forget job panic (the `HeapJob::execute`
/// catch): counts it when running on a pool worker (off a worker — a unit
/// test — there is nothing to count against) and, in debug builds, prints
/// a one-line note so the panic is never *silently* swallowed.
pub(crate) fn note_job_panic(payload: &(dyn Any + Send)) {
    if let Some(w) = WorkerThread::current() {
        bump!(w.local, job_panics);
    }
    if cfg!(debug_assertions) {
        eprintln!("nws: spawned job panicked: {}", payload_summary(payload));
    }
}

thread_local! {
    static WORKER: Cell<*const WorkerThread> = const { Cell::new(std::ptr::null()) };
}

/// Thread-local state of one worker.
pub(crate) struct WorkerThread {
    pub(crate) registry: Arc<Registry>,
    pub(crate) index: usize,
    deque: TheWorker<JobRef>,
    /// Hidden `join` frames (lazy join promotion, `crate::frames`).
    frames: FrameStack,
    /// [`SplitMix64`] state; a plain cell instead of a `RefCell` so a
    /// sample is two loads and a store with no borrow-flag traffic on the
    /// steal path.
    rng: Cell<u64>,
    clock: Clock,
    /// Work-path counters; flushed into the shared atomics at steal-path
    /// transitions (see `stats` module docs for the protocol).
    local: LocalCounters,
    /// Trace id of the task currently executing on this worker (`0` when
    /// idle or recording is off) — the parent of any spawn recorded here.
    /// A plain cell, saved/restored around nested `execute`s like a stack.
    trace_task: Cell<u64>,
}

impl WorkerThread {
    /// The worker owning the current OS thread, if any.
    #[inline]
    pub(crate) fn current() -> Option<&'static WorkerThread> {
        let p = WORKER.with(|w| w.get());
        if p.is_null() {
            None
        } else {
            // SAFETY: the pointer targets the worker_main stack frame, which
            // outlives everything the worker executes, and is cleared before
            // worker_main returns.
            Some(unsafe { &*p })
        }
    }

    fn stats(&self) -> &WorkerStats {
        &self.registry.worker_stats[self.index]
    }

    /// Publishes this worker's locally accumulated counters. Called at
    /// category switches, before sleeping, before a job sets its completion
    /// latch, and at worker exit — never on the work path.
    #[inline]
    pub(crate) fn flush_counters(&self) {
        self.local.flush_into(self.stats());
    }

    #[inline]
    pub(crate) fn switch_to(&self, cat: Category) {
        self.flush_counters();
        self.clock.switch_to(self.stats(), cat);
    }

    fn my_place(&self) -> Place {
        self.registry.map.place_of(self.index)
    }

    #[inline]
    fn next_random(&self) -> u64 {
        // SplitMix64 from the shared policy layer, stepped statelessly over
        // a plain cell: two loads and a store, no borrow-flag traffic on
        // the steal path. The simulator steps the same generator, so the
        // same seed gives the same victim sequence on both substrates.
        let (state, out) = SplitMix64::step(self.rng.get());
        self.rng.set(state);
        out
    }

    /// Counts one scope spawn (called by `Scope::spawn_at` once the deque
    /// accepted its push, which also counted it into `spawns`).
    #[inline]
    pub(crate) fn note_scope_spawn(&self) {
        bump!(self.local, scope_spawns);
    }

    /// Records the Spawn event of a job forked for `place` when the pool
    /// records a trace, and returns the new task id for the caller to
    /// attach to the job: once per join fork or scope spawn, before the
    /// job lands anywhere, so the id travels with every copy of the
    /// `JobRef` (a hidden frame, its promoted deque entry, a stolen or
    /// popped-back one). Without a recorder this is the one `None` check
    /// the work path pays, and the id is `0`.
    #[inline(always)]
    pub(crate) fn record_spawn(&self, place: Place) -> u64 {
        match &self.registry.trace {
            Some(tr) => self.record_spawn_event(tr, place),
            None => 0,
        }
    }

    /// The recording half of [`record_spawn`](Self::record_spawn), out of
    /// the fork's line.
    #[cold]
    #[inline(never)]
    fn record_spawn_event(&self, tr: &TraceSink, place: Place) -> u64 {
        let id = tr.next_id();
        record_spawn_on(tr, self.index, id, self.trace_task.get(), place);
        id
    }

    /// Pushes a job at a spawn point (work path), after its
    /// [`record_spawn`](Self::record_spawn): a scope spawn, or the eager
    /// fork of a hinted `join` or of one over a full frame stack.
    ///
    /// Every hidden join frame is promoted first, so the deque stays
    /// oldest-at-head; if the deque fills before they all are, the push is
    /// refused rather than placed above a hidden frame. Only an accepted
    /// push counts as a spawn; a refused one bumps `spawn_overflows`
    /// instead, so work-efficiency metrics never count jobs that fell back
    /// to inline execution. A successful push while any worker sleeps
    /// wakes one (the relaxed sleeper probe keeps the common no-sleeper
    /// spawn path free of fences; a stale read here only delays a thief by
    /// one sleep timeout, never stalls the program, because the owner pops
    /// its own spawns).
    ///
    /// # Errors
    ///
    /// Hands the job back if the deque is at capacity; the caller then runs
    /// it inline (losing only stealability, never correctness).
    #[inline]
    pub(crate) fn push(&self, job: JobRef) -> Result<(), Full<JobRef>> {
        let pushed = if self.promote_all() { self.deque.push(job) } else { Err(Full(job)) };
        match pushed {
            Ok(()) => {
                bump!(self.local, spawns);
                self.wake_a_thief();
                Ok(())
            }
            Err(full) => {
                bump!(self.local, spawn_overflows);
                Err(full)
            }
        }
    }

    /// Wakes one sleeper, if any, after exposing work on the own deque.
    #[inline]
    fn wake_a_thief(&self) {
        if self.registry.sleep.num_sleepers() > 0 {
            self.registry.sleep.wake_one();
        }
    }

    /// The lazy fork of an unhinted `join`: records `job` as a hidden
    /// frame, counts the spawn, and promotes the oldest hidden frame if the
    /// deque is empty. Returns the frame's index for
    /// [`resolve_frame`](Self::resolve_frame), or `None` when the frame
    /// stack is full (the caller forks eagerly instead).
    #[inline(always)]
    pub(crate) fn fork_lazy(&self, job: JobRef) -> Option<usize> {
        let frame = self.frames.record(job)?;
        bump!(self.local, spawns);
        if self.deque.is_empty() {
            self.promote_oldest();
        }
        Some(frame)
    }

    /// Removes the newest frame (`frame`): `true` if it is still hidden and
    /// its job runs in place, `false` if it was promoted and its join must
    /// pop it back or wait for the thief.
    #[inline(always)]
    pub(crate) fn resolve_frame(&self, frame: usize) -> bool {
        self.frames.resolve(frame)
    }

    /// Promotes the oldest hidden frame if the own deque is empty, so a
    /// thief always finds this worker's oldest work. Returns whether it did.
    /// The two tests are inline; the promotion itself is not.
    #[inline(always)]
    pub(crate) fn promote_if_empty(&self) -> bool {
        self.deque.is_empty() && self.promote_hidden()
    }

    /// Promotes the oldest hidden frame, if any is hidden.
    #[inline(always)]
    fn promote_hidden(&self) -> bool {
        self.frames.hidden() > 0 && self.promote_oldest()
    }

    /// Pushes the oldest hidden frame, counts the promotion, and lets a
    /// sleeper come take it. Returns whether a frame was promoted (`false`:
    /// none hidden, or the deque is full).
    #[cold]
    #[inline(never)]
    fn promote_oldest(&self) -> bool {
        let promoted = self.frames.promote_oldest(&self.deque);
        if promoted {
            bump!(self.local, join_promotions);
            self.wake_a_thief();
        }
        promoted
    }

    /// Promotes every hidden frame, oldest first: done before an eager push
    /// and before this worker blocks, so it never hides work it cannot get
    /// back to. Returns `false` if the deque filled up first.
    #[inline]
    pub(crate) fn promote_all(&self) -> bool {
        while self.frames.hidden() > 0 {
            if !self.promote_oldest() {
                return false;
            }
        }
        true
    }

    /// Pops the tail of the own deque (work path).
    #[inline]
    pub(crate) fn pop(&self) -> Option<JobRef> {
        self.deque.pop()
    }

    /// The demand signal behind [`split_wanted`](crate::split_wanted): an
    /// empty own deque first promotes the oldest hidden join frame, and
    /// only a deque still empty after that wants a split. The emptiness
    /// test is a racy snapshot (two `Relaxed` loads).
    #[inline(always)]
    pub(crate) fn split_wanted(&self) -> bool {
        self.deque.is_empty() && !self.promote_hidden()
    }

    /// Hidden-frame stack depth (tests of the panic paths).
    #[cfg(test)]
    pub(crate) fn frame_depth(&self) -> usize {
        self.frames.depth()
    }

    /// Runs `f` at a chaos-tier fault site. With the fault backend compiled
    /// in, a panic out of `f` is caught here — it never unwinds the
    /// caller's frame, which may own a live job ref — the pool is poisoned,
    /// and `Err` sends the caller to its site's fallback. In default builds
    /// `f` just runs. Allocation-free (it is on the steal and PUSHBACK hot
    /// paths); only the panic payload itself is heap-allocated.
    #[inline]
    fn fault_guard<R>(&self, f: impl FnOnce() -> R) -> Result<R, ()> {
        if !nws_sync::fault::enabled() {
            return Ok(f());
        }
        panic::catch_unwind(AssertUnwindSafe(f))
            .map_err(|payload| self.registry.poison(payload.as_ref()))
    }

    /// Executes a job with work-time accounting.
    ///
    /// # Safety
    ///
    /// `job` must be live and not yet executed.
    pub(crate) unsafe fn execute(&self, job: JobRef) {
        self.switch_to(Category::Work);
        // Chaos-tier fault point (no-op in default builds): models the
        // runtime dying between claiming a job and running it — the worst
        // spot, since the ref is already consumed. The injected panic is
        // caught *here*, never unwinding this frame: the job still executes
        // exactly once below (a consumed ref must run or leak — and a
        // stranded latch means deadlock), then the poisoned pool drains and
        // shuts down via the normal exit path.
        let _ = self.fault_guard(|| nws_sync::fault::point("job.exec"));
        let t = job.trace();
        let prev = self.trace_enter(t);
        job.execute();
        self.trace_exit(t, prev);
        self.switch_to(Category::Idle);
    }

    /// Opens a task's execution bracket: records its Start event and makes
    /// it the parent of spawns recorded here until the matching
    /// [`trace_exit`](Self::trace_exit). Returns the previous current-task
    /// id for the caller to restore (brackets nest: a stolen task's `join`
    /// executes other jobs on this same worker). A `0` id records nothing
    /// but still scopes parenthood — an untraced job's spawns are rootless
    /// rather than mis-attributed to whatever ran before it.
    #[inline]
    fn trace_enter(&self, task: u64) -> u64 {
        let prev = self.trace_task.replace(task);
        if task != 0 {
            if let Some(tr) = &self.registry.trace {
                let at_ns = tr.now_ns();
                tr.record(self.index, TraceEvent::Start { task, worker: self.index, at_ns });
            }
        }
        prev
    }

    /// Closes the bracket opened by [`trace_enter`](Self::trace_enter).
    #[inline]
    fn trace_exit(&self, task: u64, prev: u64) {
        if task != 0 {
            if let Some(tr) = &self.registry.trace {
                tr.record(self.index, TraceEvent::End { task, at_ns: tr.now_ns() });
            }
        }
        self.trace_task.set(prev);
    }

    /// Runs `f`, a job executing in place outside
    /// [`execute`](Self::execute) (a join's `b`, a scope task the full
    /// deque refused), inside `task`'s Start/End bracket. An untraced `task` (`0`: the pool records no trace) runs
    /// bare, so an unrecorded pool pays one branch. `f` must not unwind.
    #[inline(always)]
    pub(crate) fn run_traced<R>(&self, task: u64, f: impl FnOnce() -> R) -> R {
        if task == 0 {
            f()
        } else {
            self.run_bracketed(task, f)
        }
    }

    /// The recording half of [`run_traced`](Self::run_traced), out of the
    /// join's line.
    #[cold]
    #[inline(never)]
    fn run_bracketed<R>(&self, task: u64, f: impl FnOnce() -> R) -> R {
        let prev = self.trace_enter(task);
        let r = f();
        self.trace_exit(task, prev);
        r
    }

    /// Steals-while-waiting until `latch` is set (the join and scope slow
    /// paths; any [`Probe`] works — `join` passes a
    /// [`SpinLatch`](crate::latch::SpinLatch), `scope` a
    /// [`CountLatch`](crate::latch::CountLatch)).
    ///
    /// An idle waiter participates in the full work-finding protocol —
    /// including external ingress — so a service pool never wastes a
    /// join-blocked worker. When it runs out of work it deep-sleeps on the
    /// pool condvar like any other idle worker: the completing side
    /// (`SpinLatch::set_and_wake`, `Scope::complete_one`) probes the
    /// sleeper count and broadcasts, so the thief that finishes the
    /// awaited job wakes this waiter directly (the timeout remains as the
    /// safety net for a wake lost to the relaxed probe, counted in
    /// `timeout_rescues`).
    pub(crate) fn wait_until(&self, latch: &impl Probe) {
        // A blocked worker never hides work: expose every hidden join frame
        // below this wait (a full deque keeps the rest hidden; their joins
        // run them in place).
        self.promote_all();
        self.switch_to(Category::Idle);
        let mut spins = 0u32;
        while !latch.probe() {
            // find_work starts with our own deque: a scope's spawns (and
            // tasks left behind by other waiting frames) sit there. `join`
            // frames tolerate this — their pop loop re-checks job
            // identity.
            if let Some(job) = self.find_work() {
                // SAFETY: jobs found through the protocol are live and
                // unexecuted.
                unsafe { self.execute(job) };
                spins = 0;
            } else {
                self.idle_backoff(&mut spins, || {
                    latch.probe() || self.registry.work_available(self.index)
                });
            }
        }
        self.switch_to(Category::Work);
    }

    /// Idle rounds an idle worker spends in `spin_loop` before yielding.
    const SPIN_ROUNDS: u32 = 10;
    /// Idle rounds (cumulative) before an idle worker sleeps on the condvar.
    const YIELD_ROUNDS: u32 = 50;
    /// Safety-net condvar timeout. Every producer signals the condvar
    /// explicitly; this only bounds the cost of a wake lost to a stale
    /// relaxed sleeper probe.
    const SLEEP_TIMEOUT: Duration = Duration::from_millis(10);

    /// One idle round: spin for [`SPIN_ROUNDS`](Self::SPIN_ROUNDS), then
    /// yield until [`YIELD_ROUNDS`](Self::YIELD_ROUNDS), then sleep on the
    /// pool condvar with [`SLEEP_TIMEOUT`](Self::SLEEP_TIMEOUT) and
    /// `recheck` (see [`Sleep::sleep`]). A producer-notified wake counts
    /// toward the `wakeups` statistic, and a timeout that found work
    /// (a lost wakeup the safety net caught) toward `timeout_rescues`.
    fn idle_backoff(&self, spins: &mut u32, recheck: impl FnMut() -> bool) {
        // Idle path: publish counters every round, so failed steal attempts
        // are as visible to snapshots as they were when bumped directly
        // (one uncontended fetch_add per nonzero cell — the cost the work
        // path no longer pays).
        self.flush_counters();
        // Chaos-tier fault point (no-op in default builds): perturbs the
        // sleep protocol from the sleeper's side. `fail` models a spurious
        // wakeup (skip the backoff round entirely), `delay` an oversleeping
        // worker, `panic` a worker dying on its way to sleep. The point
        // sits here — not in the wake paths — because wake callers
        // (`take_injected`, pushback) hold live job refs an unwind would
        // strand; this worker holds nothing.
        match self.fault_guard(|| nws_sync::fault::hit("sleep.wake")) {
            Ok(false) => {}
            // Injected spurious wakeup: return to the caller's loop without
            // sleeping, exactly as a condvar spurious wake would look from
            // the outside. `Err`: the pool is now poisoned.
            Ok(true) | Err(()) => return,
        }
        *spins += 1;
        if *spins < Self::SPIN_ROUNDS {
            nws_sync::hint::spin_loop();
        } else if *spins < Self::YIELD_ROUNDS {
            nws_sync::thread::yield_now();
        } else {
            match self.registry.sleep.sleep(Self::SLEEP_TIMEOUT, recheck) {
                SleepOutcome::Notified => bump!(self.local, wakeups),
                SleepOutcome::Rescued => bump!(self.local, timeout_rescues),
                SleepOutcome::Aborted | SleepOutcome::TimedOut => {}
            }
        }
    }

    /// One trip through the scheduling loop, in drain order: own deque,
    /// own mailbox, own place's ingress queue, one steal attempt, then
    /// remote ingress queues as a last resort. The order preserves the
    /// locality bias — own work first (scope spawns land on the own deque
    /// and nobody else is obliged to steal them, DESIGN.md §4), then
    /// earmarked work, then place-local ingress, then the biased steal —
    /// while guaranteeing that no injected job can starve behind a busy
    /// place: any idle worker anywhere eventually picks it up.
    fn find_work(&self) -> Option<JobRef> {
        // Own deque first, LIFO: the depth-first work-first discipline,
        // and what lets a single-worker scope drain its own spawns.
        if let Some(job) = self.pop() {
            return Some(job);
        }
        // Fig 5 line 25-26: check own mailbox next; anything there is
        // earmarked for our place. (Under vanilla policies nothing ever
        // deposits, so this is one load of an empty slot.)
        if let Some(job) = self.registry.mailboxes[self.index].take() {
            bump!(self.local, mailbox_takes);
            return Some(job);
        }
        if let Some(job) = self.take_injected(self.my_place().0) {
            return Some(job);
        }
        if let Some(job) = self.steal_once() {
            return Some(job);
        }
        // Last resort before backoff: drain another place's ingress.
        // Starving work beats placed work; the job runs here rather than
        // wait for its (busy or sleeping) home place.
        let s = self.registry.map.num_places();
        (1..s).find_map(|off| self.take_injected((self.my_place().0 + off) % s))
    }

    /// Pops place `p`'s ingress queue, chaining a wake-up when jobs remain
    /// so a burst of installs fans out across sleepers.
    fn take_injected(&self, p: usize) -> Option<JobRef> {
        let (job, remaining) = self.registry.injectors[p].pop()?;
        bump!(self.local, injector_takes);
        if remaining > 0 {
            self.registry.sleep.wake_one();
        }
        Some(job)
    }

    /// One steal attempt following BIASEDSTEALWITHPUSH (Fig 5 l.28) under
    /// NUMA-WS, or RANDOMSTEAL (Fig 2 l.24) under Classic: one job per
    /// successful steal, as in the paper and the simulator.
    fn steal_once(&self) -> Option<JobRef> {
        let dist = self.registry.dists[self.index].as_ref()?;
        // The victim, then the policy's choice between its deque and its
        // mailbox: a fair coin under the paper's protocol (required for the
        // §IV bounds), or the two ablation extremes. The simulator decides
        // through the same method.
        let (victim, try_mailbox) = self.registry.policy.steal_target(dist, || self.next_random());
        bump!(self.local, steal_attempts);
        if self.registry.map.place_of(victim) != self.my_place() {
            bump!(self.local, remote_steal_attempts);
        }
        if try_mailbox {
            if let Some(job) = self.registry.mailboxes[victim].take() {
                bump!(self.local, mailbox_takes);
                // Outcome 2: earmarked for our socket — take it. Outcome 3:
                // earmarked elsewhere — relay it onward; if the episode
                // exhausts the threshold, run it ourselves.
                return self.pushback(job);
            }
            // Outcome 1: mailbox empty — fall back to the deque.
        }

        // The deque's "steal.handshake" fault point fires at the top of
        // `steal()`, before the handshake — there is no steal lock, and
        // nothing is claimed until the claim CAS commits. A `panic` action
        // is caught here, never unwinding this frame: an unwind from the
        // point leaves the indices untouched and no item consumed, so this
        // simply becomes a failed steal attempt on a now-poisoned pool.
        let job = self.fault_guard(|| self.registry.stealers[victim].steal()).ok().flatten()?;
        bump!(self.local, steals);
        // The only cross-worker counter write; it lands in the victim's
        // thief-block cacheline, never on its owner-counter lines.
        self.registry.worker_stats[victim].thief.stolen_from.fetch_add(1, Ordering::Relaxed);
        if self.registry.map.place_of(victim) != self.my_place() {
            bump!(self.local, remote_steals);
        }
        self.pushback(job)
    }

    /// PUSHBACK for a claimed job (paper §III-B), decided and run by the
    /// policy layer ([`SchedPolicy::push_home`], [`SchedPolicy::pushback`]).
    /// Returns `None` once the job landed in a mailbox, or the job for the
    /// caller to run. This side adds only mechanism: the shutdown gate, the
    /// Sched clock, the counters, the fault-guarded deposit and the wake.
    fn pushback(&self, job: JobRef) -> Option<JobRef> {
        let Some(home) =
            self.registry.policy.push_home(&self.registry.map, self.index, job.place())
        else {
            return Some(job);
        };
        // During shutdown, run the job here instead of relaying: a deposit
        // could land in the mailbox of a worker that has already performed
        // its final drain and exited, stranding the job until the registry
        // drops (Mailbox::drop would still run it, but only after the
        // pool's destructor returned — too late for the drain guarantee).
        if self.registry.is_shutting_down() {
            return Some(job);
        }
        self.switch_to(Category::Sched);
        let candidates = self.registry.map.workers_of_place(home);
        let kept = self.registry.policy.pushback(
            candidates,
            job,
            || self.next_random(),
            |r, job| {
                bump!(self.local, push_attempts);
                // The mailbox's "mailbox.deposit" fault point fires at the top
                // of `try_deposit`, before the job is boxed (see
                // `crate::mailbox`). A `panic` action is caught here: `JobRef`
                // is `Copy`, so this frame still owns `job` — poison the pool
                // and abandon the episode, keeping the job (the thief executes
                // it inline), exactly the threshold-exhausted path.
                match self.fault_guard(|| self.registry.mailboxes[r].try_deposit(job)) {
                    Ok(Ok(())) => {
                        bump!(self.local, push_deliveries);
                        // The deposit target may be asleep. Broadcast, as
                        // inject does: a mailbox is visible only to its owner
                        // (and to coin-flip thieves), so a single notify could
                        // land on a sleeper that cannot see this job and would
                        // re-sleep, leaving the owner napping out its timeout.
                        self.registry.sleep.wake_all();
                        Deposit::Landed
                    }
                    Ok(Err(back)) => Deposit::Full(back),
                    Err(()) => Deposit::Aborted(job),
                }
            },
        );
        if kept.is_some() {
            bump!(self.local, push_failures);
        }
        self.switch_to(Category::Idle);
        kept
    }
}

/// Records task `id`'s Spawn on `lane` under `parent` (`0` for none): the
/// one spawn-recording path of forks and ingress.
fn record_spawn_on(tr: &TraceSink, lane: usize, id: u64, parent: u64, place: Place) {
    let parent = (parent != 0).then_some(parent);
    tr.record(lane, TraceEvent::Spawn { task: id, parent, place: place.index() });
}

/// Body of each worker OS thread: a thin supervisor around
/// [`worker_loop`].
///
/// The supervisor's `catch_unwind` is the belt-and-braces net for
/// **genuine runtime bugs** — injected faults never reach it, because each
/// fault site catches its own panic (see `WorkerThread::fault_guard`;
/// unwinding a worker stack at an arbitrary protocol point could abandon a
/// frame another worker still writes to). If the net does fire, the pool
/// is poisoned so the remaining workers drain and shut down instead of
/// deadlocking on a latch the dead worker was responsible for, and
/// `install` callers get a [`PoisonedPool`](crate::PoisonedPool) panic
/// instead of a hang. Either way the exit bookkeeping below runs: counters
/// flush, the thread-local is cleared, and the exit gate advances (the
/// poisoning-aware install wait blocks on it).
pub(crate) fn worker_main(registry: Arc<Registry>, index: usize, deque: TheWorker<JobRef>) {
    let worker = WorkerThread {
        rng: Cell::new(worker_rng_seed(registry.seed, index)),
        clock: Clock::new(registry.stats_enabled, Category::Idle),
        local: LocalCounters::default(),
        trace_task: Cell::new(0),
        frames: FrameStack::new(),
        registry,
        index,
        deque,
    };
    WORKER.with(|w| w.set(&worker as *const WorkerThread));
    worker.registry.started.pass();

    if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| worker_loop(&worker))) {
        worker.registry.poison(payload.as_ref());
    }

    worker.flush_counters();
    worker.clock.flush(worker.stats());
    WORKER.with(|w| w.set(std::ptr::null()));
    worker.registry.exited.pass();
}

/// The scheduling loop proper (plus the shutdown drains).
fn worker_loop(worker: &WorkerThread) {
    let index = worker.index;
    let mut spins = 0u32;
    loop {
        // find_work starts with the own deque: a scope task executed here
        // may have spawned siblings onto it without waiting for them (only
        // the scope owner waits), and nobody else is obliged to steal them.
        if let Some(job) = worker.find_work() {
            // SAFETY: protocol-found jobs are live and unexecuted.
            unsafe { worker.execute(job) };
            spins = 0;
            continue;
        }
        if worker.registry.is_shutting_down() {
            // Drain after observing shutdown: the acquire load above makes
            // every inject that happened before `begin_shutdown` visible,
            // so a job enqueued just ahead of the pool's drop can never be
            // stranded (fire-and-forget spawns run or are joined, never
            // leaked). Work spawned *by* drained jobs is found by the
            // spawning worker on its next trip through this loop.
            if let Some(job) = worker.find_work() {
                // SAFETY: as above.
                unsafe { worker.execute(job) };
                spins = 0;
                continue;
            }
            break;
        }
        // Deep sleep until a producer signals (inject, deposit, or a deque
        // push while we sleep); the timeout is only a safety net.
        worker.idle_backoff(&mut spins, || {
            worker.registry.work_available(index) || worker.registry.is_shutting_down()
        });
    }
    // Final mailbox drain: a PUSHBACK episode on a worker that had not yet
    // observed shutdown can deposit into our mailbox *after* the last
    // `find_work` above came up empty (the pushback shutdown gate closes
    // that window going forward, but a stale `is_shutting_down` read can
    // leak one deposit through). Execute leftovers — they are heap jobs
    // under the shutdown-drain guarantee — plus anything they spawn onto
    // our deque.
    while let Some(job) = worker.registry.mailboxes[index].take() {
        // SAFETY: deposited jobs are live and unexecuted.
        unsafe { worker.execute(job) };
        while let Some(job) = worker.pop() {
            // SAFETY: as above.
            unsafe { worker.execute(job) };
        }
    }
}
